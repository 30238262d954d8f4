"""Measurement compatibility of the indirectly implemented second measurement.

Preparing the re-set qubit in rho_a, interacting through U and measuring the
final POVM realizes an effective POVM assemblage on the memory qubit; quantum
violations require that assemblage to be incompatible (not jointly
measurable).  A pair of binary qubit POVMs is decided by the closed-form
sharpness criterion (Busch & Schmidt 2010; Yu, Liu, Li & Oh 2010); the
partial-swap scan's margin at each angle is its exact minimum over every
preparation and projective final measurement.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .exceptions import DomainError, ValidationError

# the pairs of the five lines whose crossings `_candidate_minimum` takes
_LINE_PAIRS = np.triu_indices(5, 1)
# u and v = y at the corner X = 1, Y = -1, built as `_candidate_minimum` builds them
_CORNER = np.array([-1.0, np.cos((np.arccos(-1.0) + np.arccos(1.0)) / 2)])


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


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of 3-vectors along the last axis, broadcasting the others:
    the same products and differences, without its wrapper overhead."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _swap_scalars(alpha: float, u, v, y):
    """(g0, g1, r0.r1) of the two partial-swap assemblage effects, from the
    Gram entries u = z.r1 = cos(theta_s), v = z.f = cos(theta_e) and y = f.r1
    of the preparation Bloch vectors z, r1 (of |0> and |theta_s, phi_s>) and
    the final one f (of |theta_e, phi_e>).  With c, s = cos, sin(alpha/2),
    effect a is c^2 Tr(F rho_a) id + s^2 F - i s c [F, rho_a]: its bias is
    g_a = c^2 f.r_a and its Bloch vector s^2 f + s c (f x r_a), so
    r0.r1 = s^4 + s^2 c^2 (u - v y)."""
    c, s = math.cos(alpha / 2), math.sin(alpha / 2)
    c2, s2 = c * c, s * s
    return c2 * v, c2 * y, s2 * s2 + s2 * c2 * (u - v * y)


def _swap_margin(alpha: float, u, v, y):
    """Margin of the partial-swap pair; both sharpnesses equal cos(alpha/2)."""
    c = math.cos(alpha / 2)
    return _margin(*_swap_scalars(alpha, u, v, y), c, c)


def _swap_minimum(alpha: float) -> float:
    """Least `_swap_margin` at one angle: at the corner X = 1, Y = -1,
    u = -1 (theta_s = pi, theta_e = pi/2) where first = 1 - 2 c^2 > 0, that
    is alpha > pi/2, and from `_candidate_minimum` elsewhere.

    The corner is the minimiser wherever first > 0, where second is not
    clipped.  With the cross term K(u) = s^4 + s^2 c^2 u - c^2 (X + Y)/2
    (see `_candidate_minimum`) and lo = K(Y), lo - s^2 first = (c^2/2)
    [(1 - X) + first (1 + Y)] >= 0, so K, increasing in u, is nonnegative on
    [Y, X] and the least margin over u is lo^2 - first * second, with
    1 - second = c^2 (1 + X Y) >= 0.  That exceeds the corner's
    s^4 first^2 - first = sin^4(alpha/2) cos^2(alpha) + cos(alpha) by
    (lo - s^2 first)(lo + s^2 first) + first c^2 (1 + X Y) >= 0, with
    equality only at the corner for alpha < pi.  The corner is evaluated at
    the u, v and y the search builds there, so the minimum keeps its bits.
    """
    if not 0.0 <= alpha <= math.pi:
        raise DomainError(f"swap angle {alpha} outside [0, pi]")
    c = math.cos(alpha / 2)
    if 1.0 - (c * c + c * c) > 0.0:  # first, as `_margin` computes it
        u, v = _CORNER[:1], _CORNER[1:]
        return float(_swap_margin(alpha, u, v, v)[0])
    return _candidate_minimum(alpha)


def _candidate_minimum(alpha: float) -> float:
    """Least `_swap_margin` at one angle in [0, pi], from finitely many
    candidates that include the minimiser.

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

    Every cross product comes from one `_cross` over stacked operands and
    the three quadratic forms of the hyperbola from one einsum over stacked
    pairs; both act row by row, so each candidate keeps the bits it has
    when computed alone.
    """
    c, s = math.cos(alpha / 2), math.sin(alpha / 2)
    c2, s2, k = c * c, s * s, math.cos(alpha)
    lo, hi = np.array([[-c2 / 2, -c2 * k / 2, s2 * s2], [-c2 * k / 2, -c2 / 2, s2 * s2]])
    lines = np.array([lo, hi, [1.0, 0.0, -1.0], [0.0, 1.0, 1.0], [1.0, -1.0, 0.0]])
    hyperbola = np.array([[0.0, c2 / 2, 0.0], [c2 / 2, 0.0, 0.0], [0.0, 0.0, -s2]])  # -second
    # lo^2 or hi^2 alone is stationary along a line only where it meets lo = 0 or hi = 0
    quads = np.stack([np.outer(lo, lo), np.outer(hi, hi), np.zeros((3, 3))])
    quads += (1.0 - 2.0 * c2) * hyperbola
    # lo^2 and hi^2 are stationary along the hyperbola where X = k Y and Y = k X
    through = np.concatenate([lines, [[1.0, -k, 0.0], [k, -1.0, 0.0]]])
    direction = np.stack([-through[:, 1], through[:, 0], np.zeros(len(through))], axis=-1)
    i, j = _LINE_PAIRS
    tangents = np.einsum("qij,lj->qli", quads, direction[:len(lines)]).reshape(-1, 3)
    # one cross for the feet of the lines through, the points stationary in
    # the plane and along a line, and the crossings of two lines
    crosses = _cross(np.concatenate([through, quads[:, 0], *[lines] * len(quads), lines[i]]),
                     np.concatenate([direction, quads[:, 1], tangents, lines[j]]))
    foot = crosses[:len(through)]  # foot + t direction sweeps the line
    qa, qb, qc = np.einsum("sli,ij,slj->sl",
                           np.concatenate([direction, direction, foot]).reshape(3, -1, 3),
                           hyperbola, np.concatenate([direction, foot, foot]).reshape(3, -1, 3))
    root = -(qb + np.copysign(np.sqrt(np.maximum(qb * qb - qa * qc, 0.0)), qb))
    points = np.concatenate([
        crosses[len(through):],
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
    boundary.  Above pi/2 the minimum is proved to be sin^4(alpha/2)
    cos^2(alpha) + cos(alpha), attained at theta_s = pi, theta_e = pi/2 (any
    phi), and is computed there; at or below pi/2 a 42-candidate search
    finds it.  `angle_grid_density` is ignored.
    """
    if not len(alpha_grid):
        raise ValidationError("empty scan grids")
    return {float(alpha): _swap_minimum(float(alpha)) for alpha in alpha_grid}
