"""Measurement compatibility of the indirectly implemented second measurement.

Preparing the re-set qubit in rho_a, interacting through U and measuring the
final POVM realizes an effective POVM assemblage on the memory qubit; quantum
violations require that assemblage to be incompatible (not jointly
measurable).  Pairs of binary qubit POVMs are decided by the closed-form
sharpness criterion, cross-checked elsewhere against an SDP-style witness.
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


def _criterion_margin(
    g0: float, r0: np.ndarray, f0: float, g1: float, r1: np.ndarray, f1: float
) -> float:
    """Signed compatibility margin; nonnegative iff jointly measurable.

    The single-inequality form (r0.r1 - g0 g1)^2 >= (1 - F0^2 - F1^2)
    (1 - g0^2/F0^2 - g1^2/F1^2) decides compatibility only when the first
    factor is positive; when 1 - F0^2 - F1^2 <= 0 (a sufficiently unsharp
    pair) the measurements are jointly measurable outright, so the negative
    part of the second factor must not be allowed to flip the sign.
    """
    # grouped so every expression is an exactly commutative function of the
    # two arguments, making the result symmetric under swapping the pair
    cross = float(np.dot(r0, r1)) - g0 * g1
    first = 1.0 - (f0 * f0 + f1 * f1)

    def ratio(g: float, f: float) -> float:
        if f < 1e-12:
            if abs(g) < 1e-9:
                return 0.0  # sharp projective limit, g^2/F^2 -> 0
            raise DomainError("singular sharpness with nonzero bias")
        return (g / f) ** 2

    second = 1.0 - (ratio(g0, f0) + ratio(g1, f1))
    if first <= 0.0:
        second = max(second, 0.0)
    return cross * cross - first * second


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
    f = np.stack(
        [np.sin(theta_e) * np.cos(phi_e), np.sin(theta_e) * np.sin(phi_e), np.cos(theta_e) + 0 * phi_e],
        axis=-1,
    )
    r0 = np.zeros_like(f)
    r0[..., 2] = 1.0
    r1 = np.stack(
        [np.sin(theta_s) * np.cos(phi_s), np.sin(theta_s) * np.sin(phi_s), np.cos(theta_s) + 0 * phi_s],
        axis=-1,
    )
    out = []
    for rv in (r0, r1):
        gamma = c * c * np.einsum("...i,...i->...", f, rv)
        bloch = s * s * f + s * c * np.cross(f, rv)
        out.append((gamma, bloch))
    return out[0], out[1]


def _swap_margin_grid(
    alpha: float, ts: np.ndarray, te: np.ndarray, ps: np.ndarray, pe: np.ndarray
) -> np.ndarray:
    """Criterion margin on a broadcast angle grid.

    Both sharpnesses equal cos(alpha/2) on this family, so the bias-to-
    sharpness ratios reduce to cos(alpha/2) f.r_a and stay finite at
    alpha = pi.
    """
    c = math.cos(alpha / 2)
    (g0, r0), (g1, r1) = partial_swap_effect_params(alpha, ts, te, ps, pe)
    cross = np.einsum("...i,...i->...", r0, r1) - g0 * g1
    first = 1.0 - 2.0 * c * c  # = -cos(alpha)
    ratio0 = np.zeros_like(g0) if c == 0 else (g0 / c) ** 2
    ratio1 = np.zeros_like(g1) if c == 0 else (g1 / c) ** 2
    second = 1.0 - ratio0 - ratio1
    if first <= 0.0:
        second = np.maximum(second, 0.0)
    return cross * cross - first * second


def _refine_minimum(alpha: float, angles: np.ndarray, iterations: int = 50) -> float:
    """Cyclic coordinate descent from a grid point; enough for an existence
    witness, not a certified global optimum."""
    angles = angles.copy()
    step = 0.15
    best = float(
        _swap_margin_grid(alpha, *[np.asarray(a) for a in angles])
    )
    for _ in range(iterations):
        improved = False
        for i in range(4):
            for delta in (step, -step):
                trial = angles.copy()
                trial[i] += delta
                val = float(_swap_margin_grid(alpha, *[np.asarray(a) for a in trial]))
                if val < best:
                    best, angles, improved = val, trial, True
        if not improved:
            step /= 2.0
            if step < 1e-9:
                break
    return best


def partial_swap_compat_region(
    alpha_grid: Sequence[float], angle_grid_density: int = 20
) -> dict[float, float]:
    """Worst-case compatibility margin of the partial-swap assemblage per angle.

    Scans the (theta_s, theta_e, phi_s, phi_e) grid and refines the minimum by
    coordinate descent.  Nonnegative margins for alpha <= pi/2 and alpha = pi,
    and strictly negative ones in between, reproduce the compatibility
    boundary of the gate family.
    """
    if not len(alpha_grid) or angle_grid_density < 2:
        raise ValidationError("empty scan grids")
    n = int(angle_grid_density)
    thetas = np.linspace(0.0, math.pi, n)
    phis = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    ts, te, ps, pe = np.meshgrid(thetas, thetas, phis, phis, indexing="ij")
    result = {}
    for alpha in alpha_grid:
        alpha = float(alpha)
        if not 0.0 <= alpha <= math.pi:
            raise DomainError(f"swap angle {alpha} outside [0, pi]")
        grid = _swap_margin_grid(alpha, ts, te, ps, pe)
        idx = np.unravel_index(np.argmin(grid), grid.shape)
        seed_angles = np.array([ts[idx], te[idx], ps[idx], pe[idx]])
        result[alpha] = min(float(grid[idx]), _refine_minimum(alpha, seed_angles))
    return result
