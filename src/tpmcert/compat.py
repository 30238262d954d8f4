"""Measurement compatibility of the indirectly implemented second measurement.

Preparing the re-set qubit in rho_a, interacting through U and measuring the
final POVM realizes an effective POVM assemblage on the memory qubit; quantum
violations require that assemblage to be incompatible (not jointly
measurable).  Pairs of binary qubit POVMs are decided by the closed-form
sharpness criterion (Busch & Schmidt 2010; Yu, Liu, Li & Oh 2010); the
partial-swap scan's margin at each angle is its exact minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import linalg
from .exceptions import DomainError, ValidationError

EFFECT_ATOL = 1e-10
MARGIN_ATOL = 1e-10


@dataclass(frozen=True)
class QubitEffectParams:
    """Bias/Bloch parametrization of a qubit effect (1 + gamma) id/2 + r.sigma/2."""

    gamma_bias: float
    bloch: np.ndarray

    def __post_init__(self):
        r = np.linalg.norm(self.bloch)
        g = self.gamma_bias
        # both the effect and its complement must be PSD; NaN fails the test
        if not r <= min(1.0 + g, 1.0 - g) + EFFECT_ATOL:
            raise ValidationError(
                f"parameters (gamma={g}, |r|={r}) do not define a valid effect"
            )

    def effect(self) -> np.ndarray:
        rx, ry, rz = self.bloch
        return 0.5 * (
            (1.0 + self.gamma_bias) * linalg.ID2
            + rx * linalg.SIGMA_X
            + ry * linalg.SIGMA_Y
            + rz * linalg.SIGMA_Z
        )

    def sharpness(self) -> float:
        """(sqrt((1+g)^2 - |r|^2) + sqrt((1-g)^2 - |r|^2)) / 2; zero only for
        sharp rank-1 projectors."""
        r2 = float(np.dot(self.bloch, self.bloch))
        a = max((1.0 + self.gamma_bias) ** 2 - r2, 0.0)
        b = max((1.0 - self.gamma_bias) ** 2 - r2, 0.0)
        return 0.5 * (math.sqrt(a) + math.sqrt(b))


@dataclass(frozen=True)
class Assemblage:
    """Outcome-indexed family of binary POVMs on the memory qubit."""

    effects: Mapping[int, tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        for a, pair in self.effects.items():
            linalg.assert_povm(pair, EFFECT_ATOL)


def effect_params(effect: np.ndarray) -> QubitEffectParams:
    """Extract (gamma, r) from a 2x2 effect; round-trips exactly."""
    effect = np.asarray(effect, dtype=complex)
    if effect.shape != (2, 2) or not linalg.is_hermitian(effect, EFFECT_ATOL):
        raise ValidationError("expected a Hermitian 2x2 effect")
    gamma = float(np.trace(effect).real - 1.0)
    return QubitEffectParams(gamma_bias=gamma, bloch=linalg.bloch_vector(effect))


def induced_assemblage(
    u: np.ndarray,
    repreparations: Sequence[np.ndarray],
    final_povm: Sequence[np.ndarray],
) -> Assemblage:
    """Effective assemblage G_{b|a} = Tr_A[(rho_a (x) id) U^dag (F_b (x) id) U].

    u maps A (x) E to B (x) E' with the measured system B as the first output
    factor, matching the process-construction convention.
    """
    u = np.asarray(u, dtype=complex)
    linalg.assert_unitary(u, EFFECT_ATOL)
    linalg.assert_povm(final_povm, EFFECT_ATOL)
    for rho in repreparations:
        linalg.assert_density_matrix(rho, EFFECT_ATOL)
    effects = {}
    for a, rho in enumerate(repreparations):
        pair = []
        for fb in final_povm:
            heis = u.conj().T @ np.kron(fb, linalg.ID2) @ u
            g = linalg.partial_trace(np.kron(rho, linalg.ID2) @ heis, (2, 2), {0})
            pair.append(0.5 * (g + g.conj().T))
        effects[a] = tuple(pair)
    return Assemblage(effects=effects)


def _margin(g0, g1, r01, f0: float, f1: float):
    """Signed compatibility margin; nonnegative iff jointly measurable.

    The single-inequality form (r0.r1 - g0 g1)^2 >= (1 - F0^2 - F1^2)
    (1 - g0^2/F0^2 - g1^2/F1^2) decides compatibility only when the first
    factor is positive; when 1 - F0^2 - F1^2 <= 0 (a sufficiently unsharp
    pair) the measurements are jointly measurable outright, so the negative
    part of the second factor must not be allowed to flip the sign.  g0, g1
    and r0.r1 broadcast; the sharpnesses F0, F1 are scalars.
    """
    # grouped so every expression is an exactly commutative function of the
    # two arguments, making the result symmetric under swapping the pair
    cross = r01 - g0 * g1
    first = 1.0 - (f0 * f0 + f1 * f1)
    ratios = 0.0  # g^2/F^2 -> 0 in the sharp projective limit
    for g, f in ((g0, f0), (g1, f1)):
        if f >= 1e-12:
            ratios = ratios + (g / f) ** 2
        elif np.any(np.abs(g) >= 1e-9):
            raise DomainError("singular sharpness with nonzero bias")
    second = 1.0 - ratios
    if first <= 0.0:
        second = np.maximum(second, 0.0)
    return cross * cross - first * second


def _criterion_margin(
    g0: float, r0: np.ndarray, f0: float, g1: float, r1: np.ndarray, f1: float
) -> float:
    """`_margin` of one pair given by its Bloch vectors."""
    return float(_margin(g0, g1, float(np.dot(r0, r1)), f0, f1))


def jointly_measurable(
    pair: tuple[QubitEffectParams, QubitEffectParams]
) -> tuple[bool, float]:
    """Decide joint measurability of two binary qubit POVMs given by their
    outcome-0 effects; returns (compatible, margin)."""
    p0, p1 = pair
    margin = _criterion_margin(
        p0.gamma_bias, np.asarray(p0.bloch, dtype=float), p0.sharpness(),
        p1.gamma_bias, np.asarray(p1.bloch, dtype=float), p1.sharpness(),
    )
    return margin >= -MARGIN_ATOL, margin


def partial_swap_effect_params(
    alpha: float,
    theta_s: np.ndarray,
    theta_e: np.ndarray,
    phi_s: np.ndarray,
    phi_e: np.ndarray,
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Closed-form (gamma, r) of the two partial-swap assemblage effects.

    Preparations are |0> and |theta_s, phi_s>, the final projector is
    |theta_e, phi_e>; for each a the effect is
    cos^2(a/2) Tr(F rho_a) id + sin^2(a/2) F - i sin(a/2)cos(a/2) [F, rho_a],
    i.e. gamma_a = cos^2(a/2) f.r_a and r-vector sin^2(a/2) f +
    sin(a/2)cos(a/2) (f x r_a).  Broadcasts over angle arrays.
    """
    c, s = math.cos(alpha / 2), math.sin(alpha / 2)

    def unit(theta, phi):
        return np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                         np.cos(theta) + 0 * phi], axis=-1)

    f, r0 = unit(theta_e, phi_e), unit(0 * theta_e, 0 * phi_e)  # r0 = z, shaped like f
    return tuple((c * c * np.einsum("...i,...i->...", f, rv), s * s * f + s * c * np.cross(f, rv))
                 for rv in (r0, unit(theta_s, phi_s)))


def _swap_scalars(alpha: float, u, v, y):
    """(g0, g1, r0.r1) of `partial_swap_effect_params` in closed form, from the
    Gram entries u = z.r1 = cos(theta_s), v = z.f = cos(theta_e) and y = f.r1
    of the preparation and final Bloch vectors; with c, s = cos, sin(alpha/2),
    g_a = c^2 f.r_a and r0.r1 = s^4 + s^2 c^2 (u - v y)."""
    c, s = math.cos(alpha / 2), math.sin(alpha / 2)
    c2, s2 = c * c, s * s
    return c2 * v, c2 * y, s2 * s2 + s2 * c2 * (u - v * y)


def _swap_margin(alpha: float, u, v, y):
    """Margin of the partial-swap pair; both sharpnesses equal cos(alpha/2)."""
    c = math.cos(alpha / 2)
    return _margin(*_swap_scalars(alpha, u, v, y), c, c)


def _swap_minimum(alpha: float) -> float:
    """Least `_swap_margin` at one angle, from finitely many candidates that
    include the minimiser.

    With v = cos p and y = cos q, u ranges over [Y, X] for X = cos(p - q) and
    Y = cos(p + q), and enters only the cross term s^4 + s^2 c^2 u - c^2 v y.
    On the triangle -1 <= Y <= X <= 1 the least margin over u is
    dist(0, [lo, hi])^2 - first * second, with lo, hi the cross term at u = Y,
    X and second = 1 - c^2 (1 + X Y), clipped at 0 where first <= 0.  That is
    one quadratic on each piece cut out by the lines lo = 0, hi = 0 and the
    hyperbola second = 0, so the minimiser is a stationary point of a piece's
    quadratic in the plane or along a line (those two or an edge), of lo^2 or
    hi^2 along the hyperbola, or a crossing of two of these curves.  Points
    (X, Y, 1) are homogeneous: two lines cross at their cross product, and a
    quadratic Q is stationary along a line with direction d where it meets
    the line Q d.  Each candidate is clipped into the triangle and evaluated
    at a configuration that realises it, so the minimum is attained.
    """
    if not 0.0 <= alpha <= math.pi:
        raise DomainError(f"swap angle {alpha} outside [0, pi]")
    c2, s2, k = math.cos(alpha / 2) ** 2, math.sin(alpha / 2) ** 2, math.cos(alpha)
    lo, hi = np.array([[-c2 / 2, -c2 * k / 2, s2 * s2], [-c2 * k / 2, -c2 / 2, s2 * s2]])
    lines = np.array([lo, hi, [1.0, 0.0, -1.0], [0.0, 1.0, 1.0], [1.0, -1.0, 0.0]])
    hyperbola = np.array([[0.0, c2 / 2, 0.0], [c2 / 2, 0.0, 0.0], [0.0, 0.0, -s2]])  # -second
    # lo^2 or hi^2 alone is stationary along a line only where it meets lo = 0 or hi = 0
    quads = np.stack([np.outer(lo, lo), np.outer(hi, hi), np.zeros((3, 3))])
    quads += (1.0 - 2.0 * c2) * hyperbola
    # lo^2 and hi^2 are stationary along the hyperbola where X = k Y and Y = k X
    through = np.concatenate([lines, [[1.0, -k, 0.0], [k, -1.0, 0.0]]])
    direction = np.stack([-through[:, 1], through[:, 0], np.zeros(len(through))], axis=-1)
    foot = np.cross(through, direction)  # foot + t direction sweeps the line
    qa, qb, qc = (np.einsum("li,ij,lj->l", m, hyperbola, n)
                  for m, n in ((direction, direction), (direction, foot), (foot, foot)))
    root = -(qb + np.copysign(np.sqrt(np.maximum(qb * qb - qa * qc, 0.0)), qb))
    i, j = np.triu_indices(len(lines), 1)
    points = np.concatenate([
        np.cross(quads[:, 0], quads[:, 1]),  # stationary in the plane
        np.cross(lines, np.einsum("qij,lj->qli", quads, direction[:len(lines)])).reshape(-1, 3),
        np.cross(lines[i], lines[j]),
        qa[:, None] * foot + root[:, None] * direction,  # roots of qa t^2 + 2 qb t + qc
        root[:, None] * foot + qc[:, None] * direction,
    ])
    # points at infinity or far outside the triangle cannot be the minimiser
    points = points[np.abs(points[:, :2]).max(axis=1) < 2.0 * np.abs(points[:, 2])]
    X = np.clip(points[:, 0] / points[:, 2], -1.0, 1.0)
    Y = np.clip(points[:, 1] / points[:, 2], -1.0, X)
    lo_at, hi_at = lines[:2] @ np.stack([X, Y, np.ones_like(X)])
    t = np.divide(lo_at, lo_at - hi_at, out=np.zeros_like(X), where=lo_at < hi_at)
    p_minus_q, p_plus_q = np.arccos(X), np.arccos(Y)
    v, y = np.cos((p_plus_q + p_minus_q) / 2), np.cos((p_plus_q - p_minus_q) / 2)
    return float(_swap_margin(alpha, Y + (X - Y) * np.clip(t, 0.0, 1.0), v, y).min())


def partial_swap_compat_region(
    alpha_grid: Sequence[float], angle_grid_density: int = 20
) -> dict[float, float]:
    """Minimum compatibility margin of the partial-swap assemblage per angle.

    Margins >= 0 for alpha <= pi/2 and alpha = pi, and < 0 between, give the
    boundary; above pi/2 the minimum is sin^4(alpha/2) cos^2(alpha) + cos(alpha),
    at theta_s = pi, theta_e = pi/2.  `angle_grid_density` is ignored.
    """
    if not len(alpha_grid):
        raise ValidationError("empty scan grids")
    return {float(alpha): _swap_minimum(float(alpha)) for alpha in alpha_grid}
