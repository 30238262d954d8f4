"""Measurement compatibility of the indirectly implemented second measurement.

Preparing the re-set qubit in rho_a, interacting through U and measuring the
final POVM realizes an effective POVM assemblage on the memory qubit; quantum
violations require that assemblage to be incompatible (not jointly
measurable).  A pair of binary qubit POVMs is decided by the closed-form
sharpness criterion (Busch & Schmidt 2010; Yu, Liu, Li & Oh 2010); the
partial-swap scan's margin at each angle is its exact minimum over every
preparation and projective final measurement, a proved closed form in the
angle (`_swap_minimum`).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .exceptions import DomainError, ValidationError

# u and v = y at the corner X = 1, Y = -1, built as the candidate search of
# tests/oracles.py builds them, so the margin there keeps the search's bits
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
    """Least `_swap_margin` at one angle, in closed form.  With k = cos(alpha),
    c, s = cos, sin(alpha/2) and t = tan(alpha/2) it is s^4 k^2 + k above
    pi/2, (s c sqrt(k) - s^4)^2 where k >= sqrt(2) - 1, and k^2/4 between.

    With v = cos p and y = cos q, u ranges over [Y, X] for X = cos(p - q) and
    Y = cos(p + q), on the triangle -1 <= Y <= X <= 1, and enters only the
    cross term K(u) = s^4 + s^2 c^2 u - c^2 (X + Y)/2.  Its ends are
    lo = K(Y) = s^4 - c^2 R/2 and hi = K(X) = s^4 - c^2 P/2, with
    P = k X + Y <= R = X + k Y; first = 1 - 2 c^2 = -k and
    second = s^2 - c^2 X Y.

    Above pi/2, first > 0 (in floats exactly alpha > pi/2) and second is not
    clipped.  lo - s^2 first = (c^2/2) [(1 - X) + first (1 + Y)] >= 0, so K,
    increasing in u, is nonnegative on [Y, X] and the least margin over u is
    lo^2 - first * second.  That exceeds the corner's s^4 first^2 - first by
    (lo - s^2 first)(lo + s^2 first) + first c^2 (1 + X Y) >= 0, with
    equality only at the corner X = 1, Y = -1, u = -1 (theta_s = pi,
    theta_e = pi/2) for alpha < pi.  The corner is evaluated at the u, v and
    y that the candidate search of tests/oracles.py builds there, so the
    minimum keeps its bits.

    At or below pi/2 the least margin over u is m = dist(0, [lo, hi])^2 +
    k max(second, 0).  Where X Y <= 0, m >= k s^2.  Sending X, Y < 0 to -Y,
    -X keeps X Y and turns [lo, hi] into 2 s^4 - [lo, hi], no farther from 0,
    so take 0 < Y <= X <= 1.  There 4 k X Y = P^2 - (k X - Y)^2, and where
    P >= 2k (so Y >= k) also X Y = P - k + (X - 1)(Y - k): k X Y <= phi(P),
    which is P^2/4 up to 2k and k (P - k) beyond, and nondecreasing.  So
    m >= G(P) = min(h, 0)^2 + max(k s^2 - c^2 phi(P), 0), h = s^4 - c^2 P/2.
    The second term ends at the hyperbola second = 0 (X Y = t^2), at P0 with
    phi(P0) = k t^2: P0 = 2 t sqrt(k) <= 2k where t^2 <= k, that is
    k >= sqrt(2) - 1, and P0 = k + t^2 otherwise.  There h is
    s^4 - s c sqrt(k) or -k/2, both <= 0 (s^6 <= c^2 k from k = sqrt(2) - 1
    on), so G = h^2 grows beyond P0, and G(P0) is the closed form, attained
    at u = X with X = t/sqrt(k), Y = t sqrt(k) or X = 1, Y = t^2: the least
    k X + Y on X Y = t^2 (AM-GM: k X = Y) unless X <= 1 binds.  Below P0, G
    does not rise while h >= 0 (P <= P1 = 2 s^4/c^2), is concave up to 2k
    (P^2 coefficient -c^2 s^2/4) and falls from 2k on (G' = -c^2 (h + k),
    h >= -k/2), so G >= min(G(P1), G(P0)).  G(P1) = k^2 where P1 >= 2k and
    k s^2 - s^8/c^2 elsewhere; it and k s^2 are at least the closed form.
    """
    if not 0.0 <= alpha <= math.pi:
        raise DomainError(f"swap angle {alpha} outside [0, pi]")
    c = math.cos(alpha / 2)
    if 1.0 - (c * c + c * c) > 0.0:  # first, as `_margin` computes it
        u, v = _CORNER[:1], _CORNER[1:]
        return float(_swap_margin(alpha, u, v, v)[0])
    s, k = math.sin(alpha / 2), math.cos(alpha)
    if k >= math.sqrt(2.0) - 1.0:  # the minimiser has X <= 1
        return (s * c * math.sqrt(k) - s ** 4) ** 2
    return k * k / 4


def partial_swap_compat_region(
    alpha_grid: Sequence[float], angle_grid_density: int = 20
) -> dict[float, float]:
    """Minimum compatibility margin of the partial-swap assemblage per angle.

    Margins >= 0 for alpha <= pi/2 and alpha = pi, and < 0 between, give the
    boundary.  The minimum is proved in closed form (`_swap_minimum`): above
    pi/2 it is sin^4(alpha/2) cos^2(alpha) + cos(alpha), attained at
    theta_s = pi, theta_e = pi/2 (any phi) and computed there; at or below
    pi/2, with k = cos(alpha) and s, c = sin, cos(alpha/2), it is
    (s c sqrt(k) - s^4)^2 where k >= sqrt(2) - 1 and k^2/4 below.
    `angle_grid_density` is ignored.
    """
    if not len(alpha_grid):
        raise ValidationError("empty scan grids")
    return {float(alpha): _swap_minimum(float(alpha)) for alpha in alpha_grid}
