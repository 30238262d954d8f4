"""Exact classical-causal bounds over deterministic vertices.

A classical model is a mixture of deterministic strategies, the vertices of
the classical polytope (Brunner et al., RMP 86, 419 (2014), Sec. II): a
response a(x), and b(a, x) with crosstalk or b(a) without.  Gamma is a sum
of minima of terms linear in the behavior, hence concave over mixtures, so
its minimum over the classical set is its minimum over the vertices.  ACDE
is convex over mixtures, so the vertex minimum of gamma + 2 ACDE is the
corrected bound at the vertices.

At a vertex, setting x enters every table only through its response type
t(x) = 4 a(x) + 2 b(0, x) + b(1, x), one of N_TYPES = 8:
P(a, b | x) = [a = a(x)] [b = b(a, x)] and P(b | do(a), x) = [b = b(a, x)].
Gamma sums minima over x and ACDE is a maximum of (max over x - min over x),
so both depend only on the set of types the settings use, not on which
setting has which type or how often.  A vertex is thus named by the 8-bit
mask of its type set, and one table of the 255 non-empty sets, each
evaluated once on a representative vertex, holds the values of every vertex
at every |X|.  The minimum over all vertices of |X| settings is the minimum
over the sets that |X| settings can use: every set of 1 to |X| types with
crosstalk; without it, where every setting has the one b-function
bb = 2 b(0) + b(1), the non-empty subsets of {bb, 4 + bb}.  Nothing is
enumerated, and both minima are constant from |X| = 8 on.
enumerate_strategies lists the vertices themselves, the oracle that the
type-set route is tested against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import certify
from .exceptions import ResourceLimitError, ValidationError

MAX_STRATEGIES = 1_000_000
N_TYPES = 8  # response types (a(x), b(0, x), b(1, x)) of one setting


@dataclass(frozen=True, eq=False)
class VertexSet:
    """Deterministic vertices stacked as read-only int8 response arrays.

    a_response has shape (V, X); b_response has shape (V, 2, X) in crosstalk
    mode, indexed [v, a, x], and (V, 2, 1) without it.  From
    enumerate_strategies both are (V, ...) views of settings-major storage,
    the vertex axis innermost in memory; any other layout gives the same
    values.  Construction rejects other shapes, an empty set or no settings,
    and a response other than 0 or 1, so every table built from the vertices
    is a normalized distribution; an array of neither an integer nor the bool
    dtype is refused whatever it holds, so no fraction or NaN gets through.
    """

    a_response: np.ndarray
    b_response: np.ndarray
    crosstalk: bool

    def __post_init__(self):
        a, b = self.a_response.shape, self.b_response.shape
        if len(a) != 2 or 0 in a or b != (a[0], 2, a[1] if self.crosstalk else 1):
            raise ValidationError(f"a_response of shape {a} and b_response of shape {b} are "
                                  f"not (V, X) and (V, 2, {'X' if self.crosstalk else 1}) "
                                  f"with V, X >= 1")
        for arr in (self.a_response, self.b_response):
            if arr.dtype.kind not in "biu" or arr.min() < 0 or arr.max() > 1:
                raise ValidationError("a strategy's response is not 0 or 1")
            arr.flags.writeable = False

    @property
    def n_settings(self) -> int:
        return self.a_response.shape[1]

    def __len__(self) -> int:
        return self.a_response.shape[0]


def _settings(x_alphabet_size: int) -> int:
    n = certify.check_integer(x_alphabet_size, "settings count")
    if n < 1:
        raise ValidationError("need at least one setting")
    return n


def vertex_count(x_alphabet_size: int, crosstalk: bool = False) -> int:
    """The number of deterministic strategies of |X| settings: 2^|X| * 4
    without crosstalk, 2^|X| * 2^(2|X|) with it."""
    n = _settings(x_alphabet_size)
    return 2 ** (n + 2 * (n if crosstalk else 1))


def enumerate_strategies(x_alphabet_size: int, crosstalk: bool = False) -> VertexSet:
    """All vertex_count deterministic strategies, in itertools.product order
    of (a, b)."""
    total = vertex_count(x_alphabet_size, crosstalk)
    n = int(x_alphabet_size)
    if total > MAX_STRATEGIES:
        raise ResourceLimitError(
            f"{total} strategies at |X| = {n} exceeds the desk-scale limit"
        )
    k = n if crosstalk else 1
    bits = n + 2 * k
    # vertex v spells its responses in binary, most significant bit first;
    # digit d of every vertex is one contiguous row.  The index is the
    # narrowest unsigned type that holds total - 1, and each masked digit is
    # written straight into the int8 table (the low byte carries the digit),
    # so |X| = 6 with crosstalk, 2^18 vertices, takes a few ms
    idx = np.arange(total, dtype=np.min_scalar_type(total - 1))
    shifts = np.arange(bits - 1, -1, -1, dtype=idx.dtype)[:, None]
    digits = np.bitwise_and(idx >> shifts, 1, dtype=np.int8, casting="unsafe")
    return VertexSet(digits[:n].T, digits[n:].reshape(2, k, total).transpose(2, 0, 1), crosstalk)


def _onehot(values: np.ndarray, size: int) -> np.ndarray:
    """int8 one-hot of values (..., V) along a new axis before the last,
    shape (..., size, V), C-contiguous whatever the layout of values."""
    # one comparison per value: much faster than broadcasting against
    # np.arange(size) when size is this small
    out = np.empty((*values.shape[:-1], size, values.shape[-1]), dtype=bool)
    for k in range(size):
        np.equal(values, k, out=out[..., k, :])
    return out.view(np.int8)


def _tables(vertices: VertexSet) -> tuple[np.ndarray, np.ndarray]:
    """Stacked 0/1 behavior probs (V, X, 2, 2) and do-table probs
    (V, 2, K, 2) as int8, so that every functional of them is exact.  Each
    row holds one 1, as the responses are 0 or 1 (checked by VertexSet), so
    nothing here is checked again.  The intervention severs the dependence
    of A on X, so the do-table is read directly off b_response; without
    crosstalk it carries no setting index.

    Views of settings-major storage (X, 2, 2, V) and (K, 2, 2, V), the
    layout the certify kernels reduce fastest: every cell slice is one
    contiguous run of vertices."""
    a, b = vertices.a_response.T, vertices.b_response.transpose(2, 1, 0)  # (X, V), (K, 2, V)
    cell = 2 * a + np.where(a, b[:, 1], b[:, 0])  # setting x lands in cell (a, b(a, x))
    probs = _onehot(cell, 4).reshape(len(cell), 2, 2, -1).transpose(3, 0, 1, 2)
    return probs, _onehot(b, 2).transpose(3, 1, 0, 2)


@functools.cache
def _type_sets() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gamma and gamma + 2 ACDE of every type set, the number of types in
    it, and whether a vertex without crosstalk can use it; four read-only
    arrays indexed by the set's mask, whose entry 0 (the empty set, which no
    vertex uses) holds NaN.  Each set is evaluated on one crosstalk vertex of
    N_TYPES settings that cycle through its types."""
    sets = [[t for t in range(N_TYPES) if mask >> t & 1] for mask in range(1, 2**N_TYPES)]
    types = np.array([[s[x % len(s)] for x in range(N_TYPES)] for s in sets], dtype=np.int8)
    b = np.stack([types >> 1 & 1, types & 1], axis=1)
    probs, do = _tables(VertexSet(types >> 2, b, crosstalk=True))
    gamma = certify.gamma_values(probs)
    corrected = gamma + 2 * certify.acde_values(do)
    masks = range(2**N_TYPES)
    # without crosstalk every setting has type bb or 4 + bb for one b-function bb
    table = (np.concatenate([[np.nan], gamma]), np.concatenate([[np.nan], corrected]),
             np.array([mask.bit_count() for mask in masks]),
             np.array([((mask & 15) | mask >> 4).bit_count() == 1 for mask in masks]))
    for column in table:
        column.flags.writeable = False
    return table


def _type_masks(vertices: VertexSet) -> np.ndarray:
    """The type-set mask of every vertex, uint8 (V,): bit 4 a(x) + 2 b(0, x)
    + b(1, x) set for every setting x, reading b(., 0) without crosstalk."""
    a, b = vertices.a_response.T, vertices.b_response.transpose(1, 2, 0)  # (X, V), (2, K, V)
    types = (4 * a + 2 * b[0] + b[1]).astype(np.uint8)
    return np.bitwise_or.reduce(np.left_shift(np.uint8(1), types), axis=0)


def vertex_values(vertices: VertexSet) -> tuple[np.ndarray, np.ndarray]:
    """Gamma and gamma + 2 ACDE of every vertex, each of shape (V,), read
    from the table of its type set; both are exact small integers."""
    gamma, corrected, _, _ = _type_sets()
    masks = _type_masks(vertices)
    return gamma.take(masks), corrected.take(masks)


def classical_minimum_gamma(x_alphabet_size: int) -> float:
    """Exact minimum of gamma over all no-crosstalk deterministic strategies
    of |X| settings, and hence over their convex hull, by concavity of
    gamma; from the type sets, so at any |X|."""
    gamma, _, sizes, plain = _type_sets()
    return float(gamma[1:][(sizes[1:] <= _settings(x_alphabet_size)) & plain[1:]].min())


def classical_minimum_corrected(x_alphabet_size: int) -> float:
    """Exact minimum of gamma + 2 ACDE over all crosstalk deterministic
    strategies of |X| settings, from the type sets, so at any |X|."""
    _, corrected, sizes, _ = _type_sets()
    return float(corrected[1:][sizes[1:] <= _settings(x_alphabet_size)].min())


def check_corrected_bound(strategies: VertexSet) -> float:
    """Worst case of gamma + 2 ACDE over the given (crosstalk) vertices."""
    return float(vertex_values(strategies)[1].min())
