"""Canonical processes, the registry of named components, instruments,
and the memory-decay model.

COMPONENTS holds every component a configuration can name.  The shipped
presets (configs/*.yaml in this package) share the settings x, z, -x, -z:

  memory_test   cnot_swap; plus_minus re-prepares |-> for a=0, |+> for a=1;
                xz_diagonal measures (sx+sz)/sqrt(2)
  partial_swap  partial_swap; plus_minus_i re-prepares |+i>, |-i>; x measures sx
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import certify, linalg, process
from .exceptions import DomainError, ValidationError


def cnot_swap_unitary() -> np.ndarray:
    """Memory-test interaction: CNOT with the memory qubit as control and the
    re-prepared qubit as target, followed by a swap so the memory side is read
    out.  On A (x) E that is SWAP . (id(x)|0><0| + sx(x)|1><1|)."""
    cnot = np.kron(linalg.ID2, linalg.dm(linalg.KET_0)) + np.kron(
        linalg.SIGMA_X, linalg.dm(linalg.KET_1)
    )
    return linalg.SWAP @ cnot


def partial_swap(alpha: float | Sequence[float]) -> np.ndarray:
    """Two-qubit gate cos(alpha/2) id + i sin(alpha/2) SWAP; a sequence of
    angles gives the stack (n, 4, 4) of their gates.

    cos and sin come from math, angle by angle, and every product and sum
    that follows is exact, so a gate of a stack equals the gate of its angle
    alone bit for bit."""
    alphas = np.asarray(alpha)
    halves = []
    for a in alphas.ravel().tolist():
        if not 0.0 <= a <= math.pi:
            raise DomainError(f"swap angle {a} outside [0, pi]")
        halves.append((math.cos(a / 2), math.sin(a / 2)))
    cos, sin = np.array(halves).T.reshape((2,) + alphas.shape + (1, 1))
    return cos * np.eye(4, dtype=complex) + 1j * sin * linalg.SWAP


# configuration key -> component name -> builder; only the partial swap takes
# an argument (alpha).  Outcome 0 of a signed-Pauli setting is the +1
# eigenspace of the signed observable.
COMPONENTS = {
    "initial_state": {"bell": linalg.bell_state},
    "unitary": {"cnot_swap": cnot_swap_unitary, "partial_swap": partial_swap},
    "settings": {
        "x": lambda: linalg.observable_povm(linalg.SIGMA_X),
        "z": lambda: linalg.observable_povm(linalg.SIGMA_Z),
        "-x": lambda: linalg.observable_povm(-linalg.SIGMA_X),
        "-z": lambda: linalg.observable_povm(-linalg.SIGMA_Z),
    },
    "repreparations": {
        "plus_minus": lambda: (linalg.dm(linalg.KET_MINUS), linalg.dm(linalg.KET_PLUS)),
        "plus_minus_i": lambda: (linalg.dm(linalg.KET_PLUS_I), linalg.dm(linalg.KET_MINUS_I)),
    },
    "final_measurement": {
        "xz_diagonal": lambda: linalg.observable_povm(
            (linalg.SIGMA_X + linalg.SIGMA_Z) / np.sqrt(2)),
        "x": lambda: linalg.observable_povm(linalg.SIGMA_X),
        "z": lambda: linalg.observable_povm(linalg.SIGMA_Z),
    },
}

SETTING_LABELS = tuple(COMPONENTS["settings"])


def component(key: str, name: str, alpha: float | Sequence[float] | None = None):
    """The component registered as name under configuration key key, in its
    checked form (FORMS[key]), which every caller takes as it is: the
    partial swap at angle alpha as a Unitary built and checked per call (a
    sequence of angles gives one Unitary stack, checked at once), or else a
    constant built and checked on first use and then shared.  An
    unknown name, or the partial swap without an angle, raises
    ValidationError naming the key."""
    if name not in COMPONENTS[key]:
        raise ValidationError(f"{key}: unknown name {name!r}, "
                              f"expected one of {list(COMPONENTS[key])}")
    if (key, name) == ("unitary", "partial_swap"):
        if alpha is None:
            raise ValidationError("alpha: unitary partial_swap needs a swap angle")
        return process.Unitary(partial_swap(alpha))
    return _constant(key, name)


# configuration key -> the checked process form that its registered entries,
# and a configuration's explicit matrices, become
FORMS = {"initial_state": process.InitialState, "unitary": process.Unitary,
         "settings": process.BinaryPovm, "repreparations": process.Repreparations,
         "final_measurement": process.FinalMeasurement}


@functools.cache
def _constant(key: str, name: str):
    return FORMS[key](COMPONENTS[key][name]())


def pauli_instrument(settings: Sequence[str], repreparations) -> process.MpInstrument:
    """First-time instrument of signed-Pauli settings and re-preparations."""
    return process.MpInstrument(povm={x: component("settings", x) for x in settings},
                                repreparations=repreparations)


def upsilon(p: float) -> process.ProcessOperator:
    """Interpolating family of the memory test: the mixed initial state
    p * rho_bell + (1-p) * H_A' rho_bell H_A' through cnot_swap_unitary.

    W is linear in the initial state, so this is p * W + (1-p) * H_A' W H_A',
    the Hadamard twirl on A' of the memory test's process upsilon(1): a
    three-qubit GHZ projector plus its bit-flip image on the middle
    (re-preparation) slot.  Endpoints are entangled across A' : AB (partial
    transpose over A' has eigenvalue -1/2), the midpoint p = 1/2 is PPT across
    every cut.  Best gamma: 2 - sqrt(1 + (1 - 2p)^2), see upsilon_best_gamma.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"mixing weight {p} outside [0, 1]")
    bell, h = component("initial_state", "bell").ops, np.kron(linalg.HADAMARD, linalg.ID2)
    return process.build_process(p * bell + (1.0 - p) * (h @ bell @ h),
                                 component("unitary", "cnot_swap"))


def _negative_part(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projector onto the negative eigenspace of each Hermitian matrix in
    h (..., 2, 2), and the sum of its negative eigenvalues."""
    ev, v = np.linalg.eigh(h)
    neg = v * (ev < 0)[..., None, :]
    return neg @ v.conj().swapaxes(-1, -2), np.minimum(ev, 0.0).sum(axis=-1)


def _binary(e0: np.ndarray) -> np.ndarray:
    """The pairs (e0, id - e0), stacked on a new axis before the matrix axes."""
    return np.stack([e0, linalg.ID2 - e0], axis=-3)


def upsilon_best_gamma(p: float, n_starts: int = 24) -> float:
    """Smallest gamma of upsilon(p) found by a see-saw over every binary qubit
    measure-and-prepare instrument (Pal and Vertesi, PRA 82, 022116, 2010).

    Each sweep minimises gamma exactly over one block at a time.  With rho_a
    and F fixed, pair (b0, b1) gets a setting whose outcome-0 effect projects
    onto the negative eigenspace of A_b0 - B_b1, where
    A_b = Tr_AB[(id (x) rho0^T (x) F_b) W] and B_b is the same with rho1.
    Gamma is then linear in each rho_a^T, so rho_a is a transposed ground
    state, and linear in F_0, a negative-eigenspace projector.  The starts
    (the memory test and n_starts seeded Bloch directions) descend until no
    sweep gains more than 1e-15, for at most 100 sweeps.  The result is the
    Born-rule gamma of the best final instrument, a validated MpInstrument.
    That it is the global optimum, 2 - sqrt(1 + (1 - 2p)^2), is numerical.
    """
    op = upsilon(p)
    w6 = op.w.reshape((2,) * 6)  # [i, j, c, l, m, n]: rows A', A, B, then columns
    dirs = np.random.default_rng(0).standard_normal((n_starts, 3, 3))
    starts = [[linalg.bloch_projector(n / np.linalg.norm(n)) for n in d] for d in dirs]
    rho_t = np.array([component("repreparations", "plus_minus").ops]
                     + [s[:2] for s in starts]).swapaxes(-1, -2)
    final = _binary(np.array([component("final_measurement", "xz_diagonal")[0]]
                             + [s[2] for s in starts]))
    # outcome o of the setting of pair k = (b0, b1) meets F_b with b = (b0, b1)[o]
    meets = np.array([[[1 - b0, b0], [1 - b1, b1]] for b0 in (0, 1) for b1 in (0, 1)])
    prev = np.inf
    for _ in range(100):
        # effects; red[s, o, b] is A_b (o = 0) or B_b (o = 1) of start s
        red = np.einsum("somj,sbnc,ijclmn->sobil", rho_t, final, w6)
        e0, neg = _negative_part(red[:, 0, :, None] - red[:, 1, None, :])
        effects = _binary(e0).reshape(-1, 4, 2, 2, 2)  # [s, k, o]
        gamma = (np.trace(red[:, 1], axis1=-2, axis2=-1).real[:, None] + neg).sum(axis=(1, 2))
        if np.all(prev - gamma <= 1e-15):
            break
        prev = gamma
        # re-preparations, then the final POVM
        k = np.einsum("skoli,kob,sbnc,ijclmn->sojm", effects, meets, final, w6)
        ground = np.linalg.eigh(k)[1][..., :1]
        rho_t = ground @ ground.conj().swapaxes(-1, -2)
        lin = np.einsum("skoli,kob,somj,ijclmn->sbcn", effects, meets, rho_t, w6)
        final = _binary(_negative_part(lin[:, 0] - lin[:, 1])[0])
    labels, gammas = ("00", "01", "10", "11"), []  # setting of pair (b0, b1)
    for e, reps, f in zip(effects, rho_t.swapaxes(-1, -2), final):
        inst = process.MpInstrument(povm=dict(zip(labels, e)), repreparations=reps)
        gammas.append(certify.gamma_functional(process.born_rule(op, inst, f))[0])
    return min(gammas)


# angles per block of partial_swap_gamma_curve: a block peaks at about 34 KB
# an angle, most of it the contraction's flat (process, event) stacks, so it
# holds about 9 MB however long the curve; larger blocks run no faster
CURVE_BLOCK = 256


def partial_swap_gamma_curve(alphas: Sequence[float]) -> list[tuple[float, float]]:
    """Gamma of the partial-swap protocol at each angle, for the canonical
    configuration; the result traces (3 - sin a + cos a)/2.

    The angles run in blocks of CURVE_BLOCK.  Each block makes one stack of
    partial swaps, which the registry checks at once, and one build_process,
    which validates every process of the stack; one contraction gives the
    block's tables, which are checked as a Behavior checks its table, and
    certify.gamma_values their gammas.  Each gamma equals, bit for bit, the
    one that born_rule and gamma_functional give at that angle alone.
    """
    inst = pauli_instrument(SETTING_LABELS, component("repreparations", "plus_minus_i"))
    final = component("final_measurement", "x").ops
    bell = component("initial_state", "bell")
    alphas = [float(alpha) for alpha in alphas]
    out = []
    for start in range(0, len(alphas), CURVE_BLOCK):
        block = alphas[start:start + CURVE_BLOCK]
        op = process.build_process(bell, component("unitary", "partial_swap", block))
        probs = process.contract(op.w, inst.effects, inst.reps, final)
        process.check_probabilities(probs, (-2, -1), "behavior")
        out += zip(block, certify.gamma_values(probs).tolist())
    return out


@dataclass(frozen=True)
class NoiseParams:
    """Dephasing-with-echo noise model parameters, times in milliseconds; the
    fields are the keys of a config file's noise block, which also holds
    wait_ms.  initial_gamma anchors the model to the measured zero-wait value;
    the model relaxes exactly when t1_ms is given.  A simulated run
    depolarises the memory qubit to the model's visibility.
    """

    t2_ms: float
    echo_fidelity: float
    echo_interval_ms: float
    initial_gamma: float
    t1_ms: float | None = None

    def __post_init__(self):
        # every message starts with the name of the field at fault
        for name in ("t2_ms", "echo_interval_ms") + (("t1_ms",) if self.t1_ms is not None else ()):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 < self.echo_fidelity <= 1.0:
            raise ValidationError(f"echo_fidelity must lie in (0, 1], got {self.echo_fidelity}")
        if not certify.GAMMA_MAX_VIOLATION <= self.initial_gamma <= 2:
            raise ValidationError(f"initial_gamma must lie in [2 - sqrt(2), 2], "
                                  f"got {self.initial_gamma}")


def decay_prediction(params: NoiseParams, times: Sequence[float]) -> list[tuple[float, float]]:
    """Predicted gamma over waiting time.

    The zero-wait visibility is (2 - initial_gamma)/sqrt(2); it decays by pure
    dephasing exp(-t/t2_ms) times a per-echo infidelity factor applied with a
    continuous exponent t/echo_interval_ms, and, when params gives t1_ms, by
    relaxation exp(-t/(2 t1_ms)); gamma follows as 2 - sqrt(2) v(t).
    Written as gamma0 + (2 - gamma0)(1 - decay) so the model anchors exactly.
    """
    out = []
    for t in times:
        t = float(t)
        if not t >= 0.0:
            raise DomainError(f"waiting time {t} ms is not a nonnegative number")
        d = math.exp(-t / params.t2_ms) * params.echo_fidelity ** (t / params.echo_interval_ms)
        if params.t1_ms is not None:
            d *= math.exp(-t / (2.0 * params.t1_ms))
        out.append((t, params.initial_gamma + (2.0 - params.initial_gamma) * (1.0 - d)))
    return out


def classical_crossing_time(params: NoiseParams) -> float:
    """Waiting time t* = ln(2 - gamma0) / (1/t2_ms - ln(F)/echo_interval_ms
    [+ 1/(2 t1_ms) if params gives t1_ms]) at which the predicted gamma reaches
    the classical bound 1, at any scale; zero if the model starts at 1,
    infinity if it starts above 1."""
    start = params.initial_gamma - 1.0
    if start >= 0.0:
        return 0.0 if start == 0.0 else math.inf
    rate = 1.0 / params.t2_ms - math.log(params.echo_fidelity) / params.echo_interval_ms
    if params.t1_ms is not None:
        rate += 1.0 / (2.0 * params.t1_ms)
    return math.log(2.0 - params.initial_gamma) / rate
