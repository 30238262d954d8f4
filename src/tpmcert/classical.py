"""Brute-force classical-causal oracles.

Deterministic hidden-variable strategies are enumerated exhaustively, so the
classical bounds come out as exact polytope facts rather than optimization
results: the functionals of interest are concave over mixtures, hence their
minima over the classical set are attained at the enumerated vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import certify
from .exceptions import ResourceLimitError, ValidationError

MAX_STRATEGIES = 1_000_000


@dataclass(frozen=True, eq=False)
class VertexSet:
    """Deterministic vertices stacked as read-only int8 response arrays.

    a_response has shape (V, X); b_response has shape (V, 2, X) in crosstalk
    mode, indexed [v, a, x], and (V, 2, 1) without it.  From
    enumerate_strategies both are (V, ...) views of settings-major storage,
    the vertex axis innermost in memory; any other layout gives the same
    values.  Construction rejects other shapes and a response other than 0
    or 1, so every table built from the vertices is a normalized distribution.
    """

    a_response: np.ndarray
    b_response: np.ndarray
    crosstalk: bool

    def __post_init__(self):
        a, b = self.a_response.shape, self.b_response.shape
        if len(a) != 2 or b != (a[0], 2, a[1] if self.crosstalk else 1):
            raise ValidationError(f"a_response of shape {a} and b_response of shape {b} are "
                                  f"not (V, X) and (V, 2, {'X' if self.crosstalk else 1})")
        for arr in (self.a_response, self.b_response):
            if arr.size and (arr.min() < 0 or arr.max() > 1):
                raise ValidationError("a strategy's response is not 0 or 1")
            arr.flags.writeable = False

    @property
    def n_settings(self) -> int:
        return self.a_response.shape[1]

    def __len__(self) -> int:
        return self.a_response.shape[0]


def enumerate_strategies(x_alphabet_size: int, crosstalk: bool = False) -> VertexSet:
    """All deterministic strategies: 2^|X| * 4 without crosstalk,
    2^|X| * 2^(2|X|) with it, in itertools.product order of (a, b)."""
    n = int(x_alphabet_size)
    if n < 1:
        raise ValidationError("need at least one setting")
    k = n if crosstalk else 1
    bits = n + 2 * k
    total = 2**bits
    if total > MAX_STRATEGIES:
        raise ResourceLimitError(
            f"{total} strategies at |X| = {n} exceeds the desk-scale limit"
        )
    # vertex v spells its responses in binary, most significant bit first;
    # digit d of every vertex is one contiguous row
    shifts = np.arange(bits - 1, -1, -1)[:, None]
    digits = ((np.arange(total, dtype=np.int32) >> shifts) & 1).astype(np.int8)
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


def _behavior_tables(vertices: VertexSet) -> np.ndarray:
    """Stacked 0/1 behavior probs (V, X, 2, 2) as int8, so that every
    functional of them is exact.  Each row holds one 1, as the responses are
    0 or 1 (checked by VertexSet), so nothing here is checked again.

    A view of settings-major storage (X, 2, 2, V), the layout the certify
    kernels reduce fastest: every cell slice is one contiguous run of
    vertices."""
    a, b = vertices.a_response.T, vertices.b_response.transpose(2, 1, 0)  # (X, V), (K, 2, V)
    cell = 2 * a + np.where(a, b[:, 1], b[:, 0])  # setting x lands in cell (a, b(a, x))
    return _onehot(cell, 4).reshape(len(cell), 2, 2, -1).transpose(3, 0, 1, 2)


def _tables(vertices: VertexSet) -> tuple[np.ndarray, np.ndarray]:
    """The behavior probs of `_behavior_tables` and the int8 do-table probs
    (V, 2, K, 2), a view of storage (K, 2, 2, V).  The intervention severs
    the dependence of A on X, so the do-table is read directly off
    b_response; without crosstalk it carries no setting index."""
    do = _onehot(vertices.b_response.transpose(2, 1, 0), 2)
    return _behavior_tables(vertices), do.transpose(3, 1, 0, 2)


def vertex_values(vertices: VertexSet) -> tuple[np.ndarray, np.ndarray]:
    """Gamma and gamma + 2 ACDE of every vertex, each of shape (V,).

    The tables hold 0/1 entries, so both values are exact small integers."""
    probs, do = _tables(vertices)
    gamma = certify.gamma_only(probs)
    return gamma.astype(float), (gamma + 2 * certify.acde_values(do)).astype(float)


def minimum_gamma(vertices: VertexSet) -> float:
    """Exact minimum of gamma over the given vertices, from their behavior
    tables alone: no do-table and no ACDE."""
    return float(certify.gamma_only(_behavior_tables(vertices)).min())


def classical_minimum_gamma(x_alphabet_size: int) -> float:
    """Exact minimum of gamma over all no-crosstalk deterministic strategies
    (and hence over their convex hull, by concavity of gamma), by
    `minimum_gamma`."""
    return minimum_gamma(enumerate_strategies(x_alphabet_size))


def check_corrected_bound(strategies: VertexSet) -> float:
    """Worst case of gamma + 2 ACDE over the given (crosstalk) vertices."""
    return float(vertex_values(strategies)[1].min())
