"""Measurement compatibility of the indirectly implemented second measurement.

Preparing the re-set qubit in rho_a, interacting through U and measuring the
final POVM realizes an effective POVM assemblage on the memory qubit; quantum
violations require that assemblage to be incompatible (not jointly
measurable).  Pairs of binary qubit POVMs are decided by the closed-form
sharpness criterion (Busch & Schmidt 2010; Yu, Liu, Li & Oh 2010); the
partial-swap scan's margins are witnesses, not certified optima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import linalg
from .exceptions import DomainError, ResourceLimitError, ValidationError

EFFECT_ATOL = 1e-10
MARGIN_ATOL = 1e-10
MAX_GRID_POINTS = 1_000_000  # density^3 of one jm-scan angle


@dataclass(frozen=True)
class QubitEffectParams:
    """Bias/Bloch parametrization of a qubit effect (1 + gamma) id/2 + r.sigma/2."""

    gamma_bias: float
    bloch: np.ndarray

    def __post_init__(self):
        r = np.linalg.norm(self.bloch)
        g = self.gamma_bias
        # both the effect and its complement must be PSD
        if r > min(1.0 + g, 1.0 - g) + EFFECT_ATOL:
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


def _swap_scalars(alpha: float, ts, te, dphi):
    """(g0, g1, r0.r1) of `partial_swap_effect_params` in closed form, with
    dphi = phi_s - phi_e, c, s = cos, sin(alpha/2), f.r0 = cos(theta_e) and
    f.r1 = sin(theta_e) sin(theta_s) cos(dphi) + cos(theta_e) cos(theta_s):
    g_a = c^2 f.r_a and r0.r1 = s^4 + s^2 c^2 (cos(theta_s) - f.r0 f.r1)."""
    c, s = math.cos(alpha / 2), math.sin(alpha / 2)
    c2, s2 = c * c, s * s
    cte, cts = np.cos(te), np.cos(ts)
    fr1 = np.sin(te) * np.sin(ts) * np.cos(dphi) + cte * cts
    return c2 * cte, c2 * fr1, s2 * s2 + s2 * c2 * (cts - cte * fr1)


def _swap_margin(alpha: float, ts, te, dphi):
    """Margin of the partial-swap pair; both sharpnesses equal cos(alpha/2)."""
    c = math.cos(alpha / 2)
    return _margin(*_swap_scalars(alpha, ts, te, dphi), c, c)


# per sweep: (coordinate, signs of its two trial moves) for theta_s, theta_e,
# dphi, and dphi again reversed, as the four-angle search moved phi_e last
_SWEEP = tuple((i, np.array([[d], [-d]])) for i, d in ((0, 1.0), (1, 1.0), (2, 1.0), (2, -1.0)))


def _descend(alpha: float, starts: tuple[np.ndarray, ...]) -> float:
    """Lockstep first-improvement coordinate descent from the (theta_s,
    theta_e, dphi) start arrays, both trial moves of all starts in one kernel
    call.  Each step starts at 0.15 and halves after a sweep without gain,
    until all are below 1e-9 or for 100 sweeps.  The lowest margin is a
    witness, not an optimum."""
    pts = list(starts)
    best = _swap_margin(alpha, *pts)
    step = np.full(len(best), 0.15)
    for _ in range(100):
        before = best
        for i, signs in _SWEEP:
            trial = pts[i] + signs * step
            val = _swap_margin(alpha, *pts[:i], trial, *pts[i + 1:])
            first = val[0] < best
            take = first | (val[1] < best)
            pts[i] = np.where(first, trial[0], np.where(take, trial[1], pts[i]))
            best = np.where(first, val[0], np.where(take, val[1], best))
        step = np.where(best < before, step, step / 2.0)
        if (step < 1e-9).all():
            break
    return float(best.min())


def partial_swap_compat_region(
    alpha_grid: Sequence[float], angle_grid_density: int = 20
) -> dict[float, float]:
    """Worst-case compatibility margin of the partial-swap assemblage per angle.

    r0 = z is fixed, so the margin depends on dphi = phi_s - phi_e only: each
    angle scans a density^3 grid in (theta_s, theta_e, dphi), then descends
    from the 8 best grid points, or from the points tied with the minimum (up
    to 4 * density; tied copies descend apart).  Each margin is a witness, an
    upper bound on the minimum, not a certified optimum.  Margins >= 0 for
    alpha <= pi/2 and alpha = pi, and < 0 between, give the boundary.
    """
    if not len(alpha_grid) or angle_grid_density < 2:
        raise ValidationError("empty scan grids")
    n = int(angle_grid_density)
    if n**3 > MAX_GRID_POINTS:
        raise ResourceLimitError(f"grid density {n} exceeds the limit of {MAX_GRID_POINTS} points")
    thetas = np.linspace(0.0, math.pi, n)
    phis = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    axes = (thetas[:, None, None], thetas[None, :, None], phis[None, None, :])
    result = {}
    for alpha in alpha_grid:
        alpha = float(alpha)
        if not 0.0 <= alpha <= math.pi:
            raise DomainError(f"swap angle {alpha} outside [0, pi]")
        grid = _swap_margin(alpha, *axes).ravel()
        order = np.argsort(grid, kind="stable")
        tied = int(np.count_nonzero(grid <= grid[order[0]] + 1e-12))
        idx = np.unravel_index(order[: max(8, min(tied, 4 * n))], (n, n, n))
        result[alpha] = _descend(alpha, (thetas[idx[0]], thetas[idx[1]], phis[idx[2]]))
    return result
