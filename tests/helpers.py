"""Test helpers built on tpmcert: mixtures of classical vertices, the Lemma 1
potential-outcome check, the memory test's process and instrument,
entanglement-breaking channels and random ones, and the shipped presets.

Unlike oracles.py, these call into the library: they assemble its parts for
the tests and are not independent cross-checks of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tpmcert import certify, classical, dataio, linalg, proclib, process
from tpmcert.exceptions import ValidationError


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


def vertex_table_values(vertices: classical.VertexSet) -> tuple[np.ndarray, np.ndarray]:
    """Gamma and gamma + 2 ACDE of every vertex, each (V,) float, from its own
    0/1 behavior and do-tables: the per-vertex route that the library's
    type-set table replaces, kept as its reference."""
    probs, do = classical._tables(vertices)
    gamma = certify.gamma_values(probs)
    return gamma.astype(float), (gamma + 2 * certify.acde_values(do)).astype(float)


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
    return bool((certify._pair_terms(probs).min(axis=-3) - joint).min() >= -1e-12)


def memory_process() -> process.ProcessOperator:
    """The memory test's process W_222, upsilon(1): the Bell state through
    cnot_swap.  W is a three-qubit GHZ projector plus its bit-flip image on
    the middle (re-preparation) slot."""
    return process.build_process(proclib.component("initial_state", "bell"),
                                 proclib.component("unitary", "cnot_swap"))


def memory_instrument() -> process.MpInstrument:
    """First-time instrument of the memory test."""
    return proclib.pauli_instrument(proclib.SETTING_LABELS,
                                    proclib.component("repreparations", "plus_minus"))


@dataclass(frozen=True)
class EbChannel:
    """Entanglement-breaking (measure-and-prepare) channel on a qubit."""

    effects: tuple[np.ndarray, ...]
    outputs: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.effects) != len(self.outputs):
            raise ValidationError("effects and outputs differ in length")
        linalg.assert_povm(self.effects)
        for rho in self.outputs:
            linalg.assert_density_matrix(rho)


def eb_channel_terms(
    rho: np.ndarray, ch: EbChannel, target: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Product terms (kept-factor block, channel output) of the channel applied
    to one factor of a two-qubit state; their kron-sum is the output state.

    The decomposition witnesses separability of the output across the cut.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValidationError("expected a two-qubit state")
    if target not in (0, 1):
        raise ValidationError("target factor must be 0 or 1")
    # Tr_target[(E on target) rho], summed over the traced factor's indices
    spec = "km,mjkl->jl" if target == 0 else "km,imlk->il"
    return [(np.einsum(spec, eff, rho.reshape(2, 2, 2, 2)), out)
            for eff, out in zip(ch.effects, ch.outputs)]


def apply_eb_channel(rho: np.ndarray, ch: EbChannel, target: int = 1) -> np.ndarray:
    """Apply a measure-and-prepare channel to one factor of a two-qubit state."""
    out = np.zeros((4, 4), dtype=complex)
    for kept, prep in eb_channel_terms(rho, ch, target):
        factors = [kept, prep] if target == 1 else [prep, kept]
        out = out + np.kron(*factors)
    return out


def random_eb_channel(rng: np.random.Generator) -> EbChannel:
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
    return EbChannel(effects=effects, outputs=tuple(outputs))


def preset_config(name: str, **overrides) -> dataio.ExperimentConfig:
    """The shipped preset name, with the given fields replaced."""
    return dataio.load_config(dataio.PRESETS[name], **overrides)
