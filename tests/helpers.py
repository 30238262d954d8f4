"""Test helpers built on tpmcert: mixtures of classical vertices, the Lemma 1
potential-outcome check, the memory test's instrument, random
entanglement-breaking channels and the shipped presets.

Unlike oracles.py, these call into the library: they assemble its parts for
the tests and are not independent cross-checks of it.
"""

from __future__ import annotations

import numpy as np

from tpmcert import certify, classical, dataio, proclib, process


def _mix(w: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Mixtures w (..., V) of the stacked tables (V, ...); the vertex-major copy
    fixes the order of the sums, so the rounding does not depend on the layout."""
    return np.tensordot(w, np.ascontiguousarray(table), 1)


def mixture(vertices: classical.VertexSet, weights) -> tuple[process.Behavior, process.DoTable]:
    """Behavior and do-table of the mixture weights (V,) of the vertices; a
    one-hot weight gives the deterministic tables of one vertex."""
    probs, do = classical._tables(vertices)
    w = np.asarray(weights, dtype=float)
    labels = tuple(str(i) for i in range(vertices.n_settings))
    return (process.Behavior(settings=labels, probs=_mix(w, probs)),
            process.DoTable(probs=_mix(w, do), do_settings=labels if vertices.crosstalk else None))


def lemma1_check(vertices: classical.VertexSet, mixtures: int = 0, seed: int = 0) -> bool:
    """Verify the potential-outcome inequalities on every vertex, or on random
    mixtures of the vertices.

    Checked per distribution: (1) the interventional probability dominates the
    observed joint, min_x P(b | do(a, x)) >= sup_x P(a, b | x); (2) for
    no-crosstalk mixtures, the joint counterfactual is bounded by the pairwise
    sums, P(b0, b1) <= min_x [P(0, b0 | x) + P(1, b1 | x)].  Crosstalk vertices
    are allowed to fail (1), which is exactly what the corrected bound repairs.
    Both hold up to 1e-12.
    """
    probs, do = classical._tables(vertices)
    # joint counterfactual P(b0, b1) of each vertex: b0 = b(0, x=0), b1 = b(1, x=0)
    b = vertices.b_response[:, :, 0]
    joint = classical._onehot(2 * b[:, 0] + b[:, 1], 4).T.reshape(-1, 2, 2)
    if mixtures:
        rng = np.random.default_rng(seed)
        n = len(vertices)
        w = np.array([rng.dirichlet(np.ones(n)) for _ in range(mixtures)])
        probs, do, joint = (_mix(w, t) for t in (probs, do, joint))

    # (1): the do-table's worst case over the (possibly trivial) x index
    if (do.min(axis=-2) - probs.max(axis=-3)).min() < -1e-12:
        return False
    if vertices.crosstalk:
        return True
    return bool((certify.pair_minima(probs)[0] - joint).min() >= -1e-12)


def memory_instrument() -> process.MpInstrument:
    """First-time instrument of the memory test."""
    return proclib.pauli_instrument(proclib.SETTING_LABELS,
                                    proclib.component("repreparations", "plus_minus"))


def random_eb_channel(rng: np.random.Generator) -> proclib.EbChannel:
    """Random measure-and-prepare channel with 2 to 4 outcomes (Wishart
    effects, random outputs)."""
    k = int(rng.integers(2, 5))
    raw = []
    for _ in range(k):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        raw.append(z @ z.conj().T)
    total = sum(raw)
    w, v = np.linalg.eigh(total)
    inv_sqrt = v @ np.diag(w**-0.5) @ v.conj().T
    effects = tuple(inv_sqrt @ a @ inv_sqrt for a in raw)
    outputs = []
    for _ in range(k):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = z @ z.conj().T
        outputs.append(m / np.trace(m).real)
    return proclib.EbChannel(effects=effects, outputs=tuple(outputs))


def preset_config(name: str, **overrides) -> dataio.ExperimentConfig:
    """The shipped preset name, with the given fields replaced."""
    return dataio.load_config(dataio.PRESETS[name], **overrides)
