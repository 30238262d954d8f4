"""Brute-force classical-causal oracles.

Deterministic hidden-variable strategies are enumerated exhaustively, so the
classical bounds come out as exact polytope facts rather than optimization
results: the functionals of interest are concave over mixtures, hence their
minima over the classical set are attained at the enumerated vertices.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import certify
from .exceptions import ResourceLimitError, ValidationError
from .process import PROCESS_ATOL, Behavior, DoTable

MAX_STRATEGIES = 1_000_000


@dataclass(frozen=True)
class ClassicalStrategy:
    """One deterministic vertex of the classical polytope.

    a_response maps the setting index to the first outcome; b_response maps
    the first outcome to the second outcome, or (a, x) to b in crosstalk mode
    where the setting may leak directly to the second measurement.
    """

    a_response: tuple[int, ...]
    b_response: tuple[int, ...] | tuple[tuple[int, ...], ...]
    crosstalk: bool

    @property
    def n_settings(self) -> int:
        return len(self.a_response)


@dataclass(frozen=True, eq=False)
class VertexSet:
    """Deterministic vertices stacked as read-only int8 response arrays.

    a_response has shape (V, X); b_response has shape (V, 2, X) in crosstalk
    mode, indexed [v, a, x], and (V, 2, 1) without it.  Indexing yields the
    ClassicalStrategy of one vertex.
    """

    a_response: np.ndarray
    b_response: np.ndarray
    crosstalk: bool

    def __post_init__(self):
        for arr in (self.a_response, self.b_response):
            arr.flags.writeable = False

    @property
    def n_settings(self) -> int:
        return self.a_response.shape[1]

    def __len__(self) -> int:
        return self.a_response.shape[0]

    def __getitem__(self, i: int) -> ClassicalStrategy:
        i = operator.index(i)
        b = self.b_response[i]
        b_resp = tuple(map(tuple, b.tolist())) if self.crosstalk else tuple(b[:, 0].tolist())
        return ClassicalStrategy(tuple(self.a_response[i].tolist()), b_resp, self.crosstalk)


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
    # vertex v spells its responses in binary, most significant bit first
    shifts = np.arange(bits - 1, -1, -1)
    flat = ((np.arange(total, dtype=np.int32)[:, None] >> shifts) & 1).astype(np.int8)
    return VertexSet(flat[:, :n], flat[:, n:].reshape(total, 2, k), crosstalk)


def _as_vertices(strategies: VertexSet | ClassicalStrategy | list[ClassicalStrategy]) -> VertexSet:
    """Stack strategies into a VertexSet (all must share mode and alphabet)."""
    if isinstance(strategies, VertexSet):
        return strategies
    if isinstance(strategies, ClassicalStrategy):
        strategies = [strategies]
    if not strategies:
        raise ValidationError("no strategies given")
    if len({(s.crosstalk, s.n_settings) for s in strategies}) != 1:
        raise ValidationError("strategies must share mode and alphabet")
    crosstalk = strategies[0].crosstalk
    a = np.array([s.a_response for s in strategies], dtype=np.int8)
    b = np.array([s.b_response for s in strategies], dtype=np.int8)
    if b.shape != ((len(a), 2, a.shape[1]) if crosstalk else (len(a), 2)):
        raise ValidationError(f"b_response of shape {b.shape[1:]} does not fit the strategy")
    return VertexSet(a, b.reshape(len(a), 2, -1), crosstalk)


def _onehot(values: np.ndarray, size: int) -> np.ndarray:
    # one comparison per value, stacked: much faster than broadcasting
    # against np.arange(size) when size is this small
    return np.stack([values == k for k in range(size)], axis=-1).view(np.int8)


def _tables(vertices: VertexSet) -> tuple[np.ndarray, np.ndarray]:
    """Stacked 0/1 behavior probs (V, X, 2, 2) and do-table probs (V, 2, K, 2),
    as int8 so that every functional of them is exact.

    The intervention severs the dependence of A on X, so the do-table is read
    directly off b_response; without crosstalk it carries no setting index.
    """
    a, b = vertices.a_response, vertices.b_response
    cell = 2 * a + np.where(a, b[:, 1], b[:, 0])  # setting x lands in cell (a, b(a, x))
    probs = _onehot(cell, 4).reshape(len(a), -1, 2, 2)
    do = _onehot(b, 2)
    for name, table, totals in (("behavior", probs, "...ij->..."), ("do-table", do, "...i->...")):
        if table.min() < -PROCESS_ATOL or np.abs(np.einsum(totals, table) - 1).max() > PROCESS_ATOL:
            raise ValidationError(f"{name} of a strategy is not a normalized distribution")
    return probs, do


def _labels(n: int) -> tuple[str, ...]:
    return tuple(str(i) for i in range(n))


def _do_settings(vertices: VertexSet) -> tuple[str, ...] | None:
    return _labels(vertices.n_settings) if vertices.crosstalk else None


def strategy_behavior(s: ClassicalStrategy) -> tuple[Behavior, DoTable]:
    """Deterministic behavior and do-table of one strategy."""
    vertices = _as_vertices(s)
    probs, do = _tables(vertices)
    return (
        Behavior(settings=_labels(s.n_settings), probs=probs[0].astype(float)),
        DoTable(probs=do[0].astype(float), do_settings=_do_settings(vertices)),
    )


def mix_behaviors(
    strategies: VertexSet | list[ClassicalStrategy], weights: np.ndarray
) -> tuple[Behavior, DoTable]:
    """Convex mixture of strategies (all must share mode and alphabet)."""
    if not strategies:
        raise ValidationError("empty mixture")
    vertices = _as_vertices(strategies)
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(vertices),) or w.min() < 0 or abs(w.sum() - 1.0) > 1e-12:
        raise ValidationError("weights must be a probability vector over strategies")
    probs, do = _tables(vertices)
    return (
        Behavior(settings=_labels(vertices.n_settings), probs=np.tensordot(w, probs, 1)),
        DoTable(probs=np.tensordot(w, do, 1), do_settings=_do_settings(vertices)),
    )


def vertex_values(
    strategies: VertexSet | list[ClassicalStrategy],
) -> tuple[np.ndarray, np.ndarray]:
    """Gamma and gamma + 2 ACDE of every vertex, each of shape (V,).

    The tables hold 0/1 entries, so both values are exact small integers."""
    probs, do = _tables(_as_vertices(strategies))
    gamma, _ = certify.gamma_values(probs)
    return gamma.astype(float), (gamma + 2 * certify.acde_values(do)).astype(float)


def classical_minimum_gamma(x_alphabet_size: int) -> float:
    """Exact minimum of gamma over all no-crosstalk deterministic strategies
    (and hence over their convex hull, by concavity of gamma)."""
    return float(vertex_values(enumerate_strategies(x_alphabet_size))[0].min())


def check_corrected_bound(strategies: VertexSet | list[ClassicalStrategy]) -> float:
    """Worst case of gamma + 2 ACDE over the given (crosstalk) vertices."""
    return float(vertex_values(strategies)[1].min())


def lemma1_check(
    strategies: VertexSet | ClassicalStrategy | list[ClassicalStrategy],
    mixtures: int = 0,
    seed: int = 20240601,
    atol: float = 1e-12,
) -> bool:
    """Verify the potential-outcome inequalities on vertices or random mixtures.

    Checked per distribution: (1) the interventional probability dominates the
    observed joint, min_x P(b | do(a, x)) >= sup_x P(a, b | x); (2) for
    no-crosstalk mixtures, the joint counterfactual is bounded by the pairwise
    sums, P(b0, b1) <= min_x [P(0, b0 | x) + P(1, b1 | x)].  Crosstalk vertices
    are allowed to fail (1), which is exactly what the corrected bound repairs.
    """
    vertices = _as_vertices(strategies)
    probs, do = _tables(vertices)
    # joint counterfactual P(b0, b1) of each vertex: b0 = b(0, x=0), b1 = b(1, x=0)
    b = vertices.b_response[:, :, 0]
    joint = _onehot(2 * b[:, 0] + b[:, 1], 4).reshape(-1, 2, 2)
    if mixtures:
        rng = np.random.default_rng(seed)
        n = len(vertices)
        w = np.array([rng.dirichlet(np.ones(n)) for _ in range(mixtures)])
        probs, do, joint = (np.tensordot(w, t, 1) for t in (probs, do, joint))

    # (1): the do-table's worst case over the (possibly trivial) x index
    if (do.min(axis=-2) - probs.max(axis=-3)).min() < -atol:
        return False
    if vertices.crosstalk:
        return True
    return bool((certify.pair_minima(probs)[0] - joint).min() >= -atol)
