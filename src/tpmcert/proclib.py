"""Canonical processes, instruments, channels, and the memory-decay model.

The two shipped experiment configurations share the same four first-time
measurement settings (x, z, -x, -z, where a negated label means the same
projectors with outcome labels swapped) and differ in the re-preparation
family and the final measurement:

  memory test    re-prepare |-> for a=0, |+> for a=1; measure (sx+sz)/sqrt(2)
  partial swap   re-prepare |+i> for a=0, |-i> for a=1; measure sx
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import certify, linalg, process
from .exceptions import DomainError, ValidationError

SETTING_LABELS = ("x", "z", "-x", "-z")

_SIGNED_OBSERVABLES = {
    "x": linalg.SIGMA_X,
    "z": linalg.SIGMA_Z,
    "-x": -linalg.SIGMA_X,
    "-z": -linalg.SIGMA_Z,
}


def standard_settings_povm() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """POVMs for the four signed Pauli settings; outcome 0 is the +1 eigenspace
    of the signed observable."""
    return {x: linalg.observable_povm(obs) for x, obs in _SIGNED_OBSERVABLES.items()}


def memory_instrument() -> process.MpInstrument:
    """First-time instrument of the memory test."""
    return process.MpInstrument(
        settings=SETTING_LABELS,
        povm=standard_settings_povm(),
        repreparations=(linalg.dm(linalg.KET_MINUS), linalg.dm(linalg.KET_PLUS)),
    )


def swap_instrument() -> process.MpInstrument:
    """First-time instrument of the partial-swap protocol."""
    return process.MpInstrument(
        settings=SETTING_LABELS,
        povm=standard_settings_povm(),
        repreparations=(linalg.dm(linalg.KET_PLUS_I), linalg.dm(linalg.KET_MINUS_I)),
    )


def memory_final_povm() -> tuple[np.ndarray, np.ndarray]:
    return linalg.observable_povm((linalg.SIGMA_X + linalg.SIGMA_Z) / np.sqrt(2))


def swap_final_povm() -> tuple[np.ndarray, np.ndarray]:
    return linalg.observable_povm(linalg.SIGMA_X)


def cnot_swap_unitary() -> np.ndarray:
    """Memory-test interaction: CNOT with the memory qubit as control and the
    re-prepared qubit as target, followed by a swap so the memory side is read
    out.  On A (x) E that is SWAP . (id(x)|0><0| + sx(x)|1><1|)."""
    cnot = np.kron(linalg.ID2, linalg.dm(linalg.KET_0)) + np.kron(
        linalg.SIGMA_X, linalg.dm(linalg.KET_1)
    )
    return linalg.SWAP @ cnot


def w222() -> process.ProcessOperator:
    """The canonical rank-2 maximally violating process: a three-qubit GHZ
    projector plus its bit-flip image on the middle (re-preparation) slot.

    Identical to build_process(bell_state, cnot_swap_unitary)."""
    ghz = (
        linalg.kron_all([linalg.KET_0.reshape(2, 1)] * 3)
        + linalg.kron_all([linalg.KET_1.reshape(2, 1)] * 3)
    ).reshape(-1) / np.sqrt(2)
    flip = linalg.kron_all([linalg.ID2, linalg.SIGMA_X, linalg.ID2])
    w = linalg.dm(ghz) + flip @ linalg.dm(ghz) @ flip
    return process.ProcessOperator(w=w, marginal_state=linalg.ID2 / 2)


def upsilon(p: float) -> process.ProcessOperator:
    """Interpolating family p * W + (1-p) * H_A' W H_A' built on w222.

    The Hadamard twirl acts on A'.  Endpoints are entangled across A' : AB
    (partial transpose over A' has eigenvalue -1/2), the midpoint p = 1/2 is PPT
    across every cut.  Best gamma: 2 - sqrt(1 + (1 - 2p)^2), see upsilon_best_gamma.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"mixing weight {p} outside [0, 1]")
    base = w222()
    h = linalg.kron_all([linalg.HADAMARD, linalg.ID2, linalg.ID2])
    w = p * base.w + (1.0 - p) * (h @ base.w @ h.conj().T)
    marginal = linalg.partial_trace(w, process.QUBIT_TPM_LAYOUT, {1, 2}) / 2.0
    return process.ProcessOperator(w=w, marginal_state=marginal)


def _plane_instrument(theta_r: float, theta_a1: float, theta_a2: float) -> process.MpInstrument:
    def pnt(t):
        return np.array([math.sin(t), 0.0, math.cos(t)])

    r0 = pnt(theta_r)
    povm = {}
    for label, t in (("a1", theta_a1), ("a2", theta_a2)):
        e0 = linalg.bloch_projector(pnt(t))
        povm[label] = (e0, linalg.ID2 - e0)
        povm["-" + label] = (linalg.ID2 - e0, e0)
    return process.MpInstrument(
        settings=("a1", "a2", "-a1", "-a2"),
        povm=povm,
        repreparations=(linalg.bloch_projector(r0), linalg.bloch_projector(-r0)),
    )


def upsilon_best_gamma(p: float, n_starts: int = 24, seed: int = 20240601) -> float:
    """Best (smallest) gamma over the implemented measurement family.

    The family: four projective settings along two x-z plane directions (plus
    their label-swapped partners), a pure re-preparation pair along an x-z axis
    and a projective final measurement in that plane.  The target is
    2 - sqrt(1 + (1 - 2p)^2), which a numerical search over every
    measure-and-prepare instrument finds to be optimal (not proved).
    Multi-start Nelder-Mead reaches it at p = 0, 1/4, 1/2, 3/4 and 1, but
    stalls where the landscape is flat near p = 1/2: with n_starts=6 it ends
    4.1e-5 above the target at p = 0.504548, and up to 3.2e-3 above it at
    p = 0.46, 0.48 and 0.52.  The planned fix is a see-saw over general
    instruments (ROADMAP.md, item 3).
    """
    from scipy.optimize import minimize  # deferred: it dominates the CLI import time

    op = upsilon(p)

    def objective(params: np.ndarray) -> float:
        theta_r, theta_f, theta_a1, theta_a2 = params
        inst = _plane_instrument(theta_r, theta_a1, theta_a2)
        fdir = np.array([math.sin(theta_f), 0.0, math.cos(theta_f)])
        f0 = linalg.bloch_projector(fdir)
        beh = process.born_rule(op, inst, (f0, linalg.ID2 - f0))
        return certify.gamma_functional(beh)[0]

    rng = np.random.default_rng(seed)
    starts = [np.array([math.pi / 2, math.pi / 4, 0.0, math.pi / 2])]  # memory-test shape
    starts.append(np.array([0.0, math.pi / 4, 0.0, math.pi / 2]))      # z-basis reprep
    starts.extend(rng.uniform(0.0, math.pi, size=(n_starts, 4)))
    best = math.inf
    for x0 in starts:
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options=dict(maxiter=800, fatol=1e-13, xatol=1e-11),
        )
        best = min(best, float(res.fun))
    return best


def partial_swap(alpha: float) -> np.ndarray:
    """Two-qubit gate cos(alpha/2) id + i sin(alpha/2) SWAP."""
    if not 0.0 <= alpha <= math.pi:
        raise DomainError(f"swap angle {alpha} outside [0, pi]")
    return math.cos(alpha / 2) * np.eye(4, dtype=complex) + 1j * math.sin(
        alpha / 2
    ) * linalg.SWAP


def partial_swap_gamma_curve(alphas: Sequence[float]) -> list[tuple[float, float]]:
    """Gamma of the partial-swap protocol at each angle.

    Runs the full pipeline (process construction, Born rule, gamma functional)
    for the canonical configuration; the result traces (3 - sin a + cos a)/2.
    """
    inst = swap_instrument()
    final = swap_final_povm()
    bell = linalg.bell_state()
    out = []
    for alpha in alphas:
        op = process.build_process(bell, partial_swap(float(alpha)))
        beh = process.born_rule(op, inst, final)
        out.append((float(alpha), certify.gamma_functional(beh)[0]))
    return out


@dataclass(frozen=True)
class EbChannel:
    """Entanglement-breaking (measure-and-prepare) channel on a qubit."""

    effects: tuple[np.ndarray, ...]
    outputs: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.effects) != len(self.outputs):
            raise ValidationError("effects and outputs differ in length")
        linalg.assert_povm(self.effects, process.INPUT_ATOL)
        for rho in self.outputs:
            linalg.assert_density_matrix(rho, process.INPUT_ATOL)


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
    terms = []
    for eff, out in zip(ch.effects, ch.outputs):
        ops = [linalg.ID2, linalg.ID2]
        ops[target] = eff
        kept = linalg.partial_trace(linalg.kron(*ops) @ rho, (2, 2), {target})
        terms.append((kept, out))
    return terms


def apply_eb_channel(rho: np.ndarray, ch: EbChannel, target: int = 1) -> np.ndarray:
    """Apply a measure-and-prepare channel to one factor of a two-qubit state."""
    out = np.zeros((4, 4), dtype=complex)
    for kept, prep in eb_channel_terms(rho, ch, target):
        factors = [kept, prep] if target == 1 else [prep, kept]
        out = out + linalg.kron(*factors)
    return out


def random_eb_channel(rng: np.random.Generator, n_outcomes: int | None = None) -> EbChannel:
    """Random measure-and-prepare channel (Wishart effects, random outputs)."""
    k = int(n_outcomes) if n_outcomes else int(rng.integers(2, 5))
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


@dataclass(frozen=True)
class NoiseParams:
    """Dephasing-with-echo noise model parameters (times in milliseconds).

    initial_gamma anchors the model to the measured zero-wait value; the
    spontaneous-decay time t1 is stored but only enters when explicitly
    enabled, as it is subdominant on millisecond scales.
    """

    t2: float
    t1: float
    echo_fidelity: float
    echo_interval: float
    initial_gamma: float

    def __post_init__(self):
        if self.t2 <= 0 or self.t1 <= 0 or self.echo_interval <= 0:
            raise ValidationError("time constants must be positive")
        if not 0.0 < self.echo_fidelity <= 1.0:
            raise ValidationError("echo fidelity must lie in (0, 1]")
        if not 2 - math.sqrt(2) <= self.initial_gamma <= 2:
            raise ValidationError("initial gamma outside [2 - sqrt(2), 2]")


def _visibility_decay(params: NoiseParams, t: float, include_t1: bool) -> float:
    d = math.exp(-t / params.t2) * params.echo_fidelity ** (t / params.echo_interval)
    if include_t1:
        d *= math.exp(-t / (2.0 * params.t1))
    return d


def decay_prediction(
    params: NoiseParams, times: Sequence[float], include_t1: bool = False
) -> list[tuple[float, float]]:
    """Predicted gamma over waiting time.

    The zero-wait visibility is (2 - initial_gamma)/sqrt(2); it decays by pure
    dephasing exp(-t/t2) times a per-echo infidelity factor applied with a
    continuous exponent t/echo_interval, and gamma follows as 2 - sqrt(2) v(t).
    Written as gamma0 + (2 - gamma0)(1 - decay) so the model anchors exactly.
    """
    out = []
    for t in times:
        t = float(t)
        if t < 0:
            raise DomainError("waiting time must be nonnegative")
        d = _visibility_decay(params, t, include_t1)
        out.append((t, params.initial_gamma + (2.0 - params.initial_gamma) * (1.0 - d)))
    return out


def classical_crossing_time(
    params: NoiseParams, include_t1: bool = False, t_max: float = 1e6
) -> float:
    """Waiting time at which the predicted gamma reaches the classical bound 1,
    found by bisection; infinity if the model starts at or above 1."""
    def excess(t: float) -> float:
        return decay_prediction(params, [t], include_t1)[0][1] - 1.0

    if excess(0.0) >= 0.0:
        return 0.0 if excess(0.0) == 0.0 else math.inf
    lo, hi = 0.0, 1.0
    while excess(hi) < 0.0:
        hi *= 2.0
        if hi > t_max:
            return math.inf
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
