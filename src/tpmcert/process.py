"""Process operators for two-point-measurement experiments.

A process is specified by an initial two-qubit state on A' (x) E and a unitary
interaction U: A (x) E -> B (x) E' (first output factor is the measured system
B).  It is compiled once into an 8x8 operator W on A' (x) A (x) B from which
all observational and interventional statistics follow by contraction.

W is stored in the positive-semidefinite (Choi-like) convention: the
re-preparation state occupies the channel-input slot of W and therefore enters
every contraction transposed.  This is the unique convention under which W is
PSD, Tr_B W = rho_A' (x) id_A, and the contraction reproduces the step-by-step
simulation (measure, collapse, re-prepare, evolve, measure) for arbitrary
complex-valued instruments.

The dataclasses below hold arrays, so they compare and hash by identity.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import linalg
from .exceptions import ValidationError

PROCESS_ATOL = 1e-9
# the discarded first measurement of an intervention: id for both outcomes
_ID_PAIR = np.broadcast_to(linalg.ID2, (2, 2, 2))


@dataclass(frozen=True, eq=False)
class MpInstrument:
    """Measure-and-prepare instrument for the first time step.

    povm maps each setting label to the pair of effects (outcome 0, outcome 1)
    on A'; its keys, in the mapping's order, are the instrument's settings.
    It is read once, at construction, and not kept.
    Re-preparations are indexed by outcome only, never by setting; that
    restriction is what makes the later crosstalk analysis meaningful.

    Construction validates each input once: a setting's pair that arrives as
    a BinaryPovm (a registry entry, see proclib.component) was checked when it
    was built and is taken as it is, the raw pairs are checked together in
    one stacked POVM check, and repreparations is kept as a checked
    Repreparations.  The contraction reads the read-only stacks effects
    (n_settings, 2, 2, 2) indexed [x, a] in settings order, and reps
    (2, 2, 2) indexed [a].
    """

    povm: InitVar[Mapping[str, BinaryPovm | tuple[np.ndarray, np.ndarray]]]
    repreparations: Repreparations | tuple[np.ndarray, np.ndarray]
    settings: tuple[str, ...] = field(init=False)
    effects: np.ndarray = field(init=False, repr=False, compare=False)
    reps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, povm):
        settings = tuple(povm)
        if not settings:
            raise ValidationError("settings: instrument declares no settings")
        pairs, raw = [], []  # raw: indices of the settings still to check
        for i, (x, pair) in enumerate(povm.items()):
            if isinstance(pair, BinaryPovm):
                pairs.append(pair.ops)
            else:
                pairs.append(_qubit_pair(pair, f"POVM of setting {x!r}"))
                raw.append(i)
        effects = np.array(pairs)
        effects.setflags(write=False)
        if raw:
            _check_members(linalg.assert_povm, effects[raw], 1,
                           lambda i: f"POVM of setting {settings[raw[i[0]]]!r}")
        reps = Repreparations.of(self.repreparations)
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "effects", effects)
        object.__setattr__(self, "repreparations", reps)
        object.__setattr__(self, "reps", reps.ops)


def _check_members(check, stack: np.ndarray, lead: int, name) -> None:
    """Run check once on stack, whose first lead axes index its members.
    When that fails, check the members one by one in C order and raise the
    first bad one's own error, led by name(index); a stack with no leading
    axis is its one member, index ().  Each check reduces over the whole
    stack with max or min, so a failed stack always has a failing member."""
    try:
        check(stack)
    except ValidationError:
        for index in np.ndindex(stack.shape[:lead]):
            try:
                check(stack[index])
            except ValidationError as exc:
                raise ValidationError(f"{name(index)}: {exc}") from None


def _qubit_pair(ops: Sequence[np.ndarray], what: str) -> np.ndarray:
    """The two 2x2 operators of a binary measurement or re-preparation, as one
    read-only (2, 2, 2) array of their common dtype."""
    ops = [np.asarray(m) for m in ops]
    if len(ops) != 2:
        raise ValidationError(f"{what} must be binary: got {len(ops)} entries, expected 2")
    if any(m.shape != (2, 2) for m in ops):
        raise ValidationError(f"{what} must be 2x2 (qubit) matrices")
    pair = np.array(ops)
    pair.setflags(write=False)
    return pair


@dataclass(frozen=True, eq=False)
class _Checked:
    """An input validated once at construction and then kept as one read-only
    array, ops, whose last core axes make one member; a failed check names
    what the input is and, in a stack, its first bad member (_check_members).
    np.asarray reads it as that array.

    Registry entries arrive checked: proclib.component builds each constant
    once per process and the partial swap per call.  So do a configuration's
    explicit matrices: ExperimentConfig checks them when it is built.  Raw
    matrices are checked where they enter (build_process, MpInstrument,
    born_rule, do_probabilities)."""

    ops: Sequence[np.ndarray] | np.ndarray

    def __post_init__(self):
        ops = self.form(self.ops)
        _check_members(self.check, ops, ops.ndim - self.core,
                       lambda index: f"{self.what} {list(index)}" if index else self.what)
        object.__setattr__(self, "ops", ops)

    @classmethod
    def of(cls, ops):
        """ops if it is already checked as this kind, else ops checked."""
        return ops if isinstance(ops, cls) else cls(ops)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.ops, dtype=dtype, copy=copy)


class _CheckedPair(_Checked):
    """Two 2x2 operators indexed by a binary outcome, kept as one (2, 2, 2)
    array of their common dtype; it indexes like the pair of matrices it was
    built from."""

    core = 3

    def form(self, ops):
        return _qubit_pair(ops, self.what)

    def __getitem__(self, outcome):
        return self.ops[outcome]


class _TwoQubitOperator(_Checked):
    """One 4x4 operator, or a non-empty stack (..., 4, 4) of them, kept as a
    complex copy, so that later changes to the caller's array do not reach
    it.  A stack is checked at once; when that fails, its members are
    checked in order to name the first bad one by its index."""

    core = 2

    def form(self, m):
        m = np.array(m, dtype=complex)
        if m.shape[-2:] != (4, 4):
            raise ValidationError(f"{self.what} must be a 4x4 (two-qubit) matrix")
        if not m.size:
            raise ValidationError(f"{self.what} is an empty stack of shape {m.shape}")
        m.setflags(write=False)
        return m


class InitialState(_TwoQubitOperator):
    """The initial two-qubit state on A' (x) E."""

    what = "initial state"

    def check(self, m):
        linalg.assert_density_matrix(m)


class Unitary(_TwoQubitOperator):
    """The interaction U: A (x) E -> B (x) E'."""

    what = "unitary"

    def check(self, m):
        linalg.assert_unitary(m)


class BinaryPovm(_CheckedPair):
    """The effects (outcome 0, outcome 1) of a binary measurement."""

    what = "POVM"

    def check(self, ops):
        linalg.assert_povm(ops)


class FinalMeasurement(BinaryPovm):
    """The effects (outcome 0, outcome 1) of the binary measurement of B."""

    what = "final measurement"


class Repreparations(_CheckedPair):
    """The states re-prepared on A after outcome 0 and after outcome 1."""

    what = "re-preparations"

    def check(self, ops):
        linalg.assert_density_matrix(ops)


@dataclass(frozen=True, eq=False)
class ProcessOperator:
    """Operator W on A' (x) A (x) B, or a stack (..., 8, 8) of them;
    build_process makes every one."""

    w: np.ndarray

    @property
    def marginal_state(self) -> np.ndarray:
        """The state on A', Tr_AB W / 2, with W's leading axes."""
        return _partial_traces(self.w)[1] / 2.0


def _partial_traces(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tr_B W on (A', A, A'~, A~) and Tr_AB W on (A', A'~) of w (..., 8, 8)."""
    w6 = w.reshape(w.shape[:-2] + (2,) * 6)  # A', A, B, A'~, A~, B~
    tr_b = w6[..., 0, :, :, 0] + w6[..., 1, :, :, 1]
    return tr_b, tr_b[..., :, 0, :, 0] + tr_b[..., :, 1, :, 1]


def _check_table(table, labels, shape: tuple[int, ...], cells: tuple[int, ...], row_name,
                 what: str) -> None:
    """Refuse repeated labels, then derive table.probs from table.counts when
    those are given, else validate table.probs.  Counts must be integers of
    the table's shape, none negative, with at least one shot per row
    (row_name(*index) names a row in errors); probs = counts / row total.
    Counts and probs are kept as read-only int64 and float64 copies, which
    later changes to the caller's arrays do not reach."""
    if labels is not None and len(set(labels)) != len(labels):
        raise ValidationError(f"{what}: duplicate setting labels")
    if table.counts is not None:
        if table.probs is not None:
            raise ValidationError(f"{what}: give probs or counts, not both")
        counts = np.asarray(table.counts)
        if counts.shape != shape or not np.issubdtype(counts.dtype, np.integer):
            raise ValidationError(f"{what} counts must be integers of shape {shape}, "
                                  f"got {counts.dtype} of shape {counts.shape}")
        counts = counts.astype(np.int64)
        if counts.min() < 0:
            raise ValidationError(f"negative count in {what}")
        totals = counts.sum(axis=cells, keepdims=True)
        empty = np.argwhere(totals == 0)
        if len(empty):
            raise ValidationError(f"{row_name(*empty[0])} has no shots")
        counts.setflags(write=False)
        object.__setattr__(table, "counts", counts)
        p = counts / totals
    else:
        p = np.array(table.probs, dtype=float)
        if p.shape != shape:
            raise ValidationError(f"{what} has shape {p.shape}, expected {shape}")
        check_probabilities(p, cells, what)
    p.setflags(write=False)
    object.__setattr__(table, "probs", p)


def check_probabilities(p: np.ndarray, cells: tuple[int, ...], what: str) -> None:
    """Raise unless no probability in p lies below -PROCESS_ATOL and each
    row, p summed over the axes cells, sums to one within PROCESS_ATOL.  The
    tables of a stack are checked at once."""
    if p.min() < -PROCESS_ATOL:
        raise ValidationError(f"negative probability in {what}")
    if np.abs(p.sum(axis=cells) - 1.0).max() > PROCESS_ATOL:
        raise ValidationError(f"{what} not normalized per row")


@dataclass(frozen=True, eq=False)
class Behavior:
    """Observational table P(a, b | x) with binary outcomes.

    probs has shape (n_settings, 2, 2) indexed [x, a, b], kept as a read-only
    float64 copy.  A table built from observed event counts (int, same shape)
    derives probs from them, each setting's counts divided by that setting's
    total, and keeps them as counts; give probs or counts, not both.
    """

    settings: tuple[str, ...]
    probs: np.ndarray | None = None
    counts: np.ndarray | None = None

    def __post_init__(self):
        _check_table(self, self.settings, (len(self.settings), 2, 2), (1, 2),
                     lambda x, *_: f"setting {self.settings[x]!r}", "behavior")

    def setting_index(self, label: str) -> int:
        return self.settings.index(label)


@dataclass(frozen=True, eq=False)
class DoTable:
    """Interventional table P(B = b | do(A = a, X = x)).

    probs has shape (2, n_do_settings, 2) indexed [a, x, b].  When the
    re-preparation is setting-independent the x axis collapses to length one
    and do_settings is None; the ACDE of such a table is exactly zero.  As for
    Behavior, integer counts of the same shape may be given instead of probs;
    each intervention row (a, x) is divided by its own total.
    """

    probs: np.ndarray | None = None
    do_settings: tuple[str, ...] | None = None
    counts: np.ndarray | None = None

    def __post_init__(self):
        labels = self.do_settings

        def row_name(a, k, *_):
            return f"do-table row (a={a}" + (f", x={labels[k]!r})" if labels else ")")

        _check_table(self, labels, (2, 1 if labels is None else len(labels), 2), (2,),
                     row_name, "do-table")


def build_process(rho: InitialState | np.ndarray, u: Unitary | np.ndarray) -> ProcessOperator:
    """Compile (initial state, interaction) into a process operator.

    rho lives on A' (x) E, u maps A (x) E to B (x) E'.  An InitialState or a
    Unitary was checked when it was built and is taken as it is; a raw array
    is checked here.  Either may be a non-empty stack (..., 4, 4): their
    leading axes broadcast, and W gets them; stacks that do not broadcast
    raise a ValidationError that names both shapes.  The result is validated
    on every build, a stack at once.  The contraction is

        W = Tr_{EE'}[ (rho^{T_E} (x) id_{ABE'}) (id_{A'} (x) |U>><<U|) ]

    on the factor ordering (A', A, E, B, E'), which lands on A' (x) A (x) B.
    It runs in two steps that never form those 32x32 operators: one matmul
    sums over E, the index that rho^{T_E} shares with |U>><<U|, with the
    traced indices laid out first, and the traces over E and then E' are
    sums of diagonal slices.  Each entry of the 32x32 product has two
    nonzero terms, the same two products this matmul adds, and np.trace
    over an axis pair of length 2 adds the same two slices in the same
    order, so W equals the explicit kron-permute-matmul-trace evaluation
    bit for bit, for each member of a stack as for one process.  Only
    reshapes and transposes of the checked arrays lay the factors out.
    """
    rho = InitialState.of(rho).ops
    u = Unitary.of(u).ops
    v = u.swapaxes(-1, -2).reshape(u.shape[:-2] + (16, 1))  # |U>> on (A, E, B, E')
    uu = (v @ v.conj().swapaxes(-1, -2)).reshape((-1,) + (2,) * 8)  # A, E, B, E', A~, E~, B~, E'~
    # the matmul's rows and columns lead with the indices that the traces pair
    uu = uu.transpose(0, 2, 6, 4, 8, 1, 3, 5, 7).reshape(u.shape[:-2] + (2, 128))
    # rho on (A', E, A'~, E~), then rho^{T_E} as E, A', A'~, E~
    rho_pt = rho.reshape(-1, 2, 2, 2, 2).transpose(0, 4, 1, 3, 2)
    try:  # [(E, A', A'~), (E~, E', E'~, A, B, A~, B~)]
        s = rho_pt.reshape(rho.shape[:-2] + (8, 2)) @ uu
    except ValueError:  # the core shapes are fixed, so only the stacks can clash
        raise ValidationError(f"initial states of shape {rho.shape} and unitaries of shape "
                              f"{u.shape} do not broadcast") from None
    lead = s.shape[:-2]
    s = s.reshape(-1, 2, 4, 2, 2, 2, 16)
    w = (s[:, 0, :, 0, 0, 0] + s[:, 1, :, 1, 0, 0]) + (s[:, 0, :, 0, 1, 1] + s[:, 1, :, 1, 1, 1])
    w = w.reshape(-1, 2, 2, 2, 2, 2, 2).transpose(0, 1, 3, 4, 2, 5, 6)  # A', A, B, A'~, A~, B~
    w = w.reshape(lead + (8, 8))
    w = 0.5 * (w + w.conj().swapaxes(-1, -2))

    op = ProcessOperator(w=w)
    problems = validate_process(op)
    if problems:
        raise ValidationError(f"constructed process is invalid: {problems}")
    return op


def validate_process(op: ProcessOperator | np.ndarray) -> list[str]:
    """Diagnostic check of the process-operator invariants; empty list = valid.

    Checks Hermiticity, positivity, Tr W = 2, and the causality marginal
    Tr_B W = rho_A' (x) id_A, within PROCESS_ATOL.  A stack (..., 8, 8)
    is checked at once, with one Hermiticity max and one eigvalsh; its
    problems are those of its first invalid member in C order, each led by
    that member's index, such as "[3]: positivity violated".
    """
    w = op.w if isinstance(op, ProcessOperator) else np.asarray(op, dtype=complex)
    if w.shape[-2:] != (8, 8):
        return [f"wrong shape {w.shape}, expected (8, 8)"]
    w_dag = w.conj().swapaxes(-1, -2)
    hermitian = np.abs(w - w_dag).max(axis=(-2, -1)) <= PROCESS_ATOL
    if not hermitian.all():
        w = np.where(hermitian[..., None, None], w, 0.5 * (w + w_dag))
    tr_b, tr_ab = _partial_traces(w)
    trace = (tr_ab[..., 0, 0] + tr_ab[..., 1, 1]).real
    marginal_off = tr_b - (tr_ab / 2.0)[..., :, None, :, None] * linalg.ID2[:, None, :]
    faults = [
        (~hermitian, "not Hermitian"),
        (np.linalg.eigvalsh(w)[..., 0] < -PROCESS_ATOL, "positivity violated"),
        (np.abs(trace - 2.0) > PROCESS_ATOL, None),  # the message names the trace
        (np.abs(marginal_off).max(axis=(-4, -3, -2, -1)) > PROCESS_ATOL,
         "marginal violated: Tr_B W is not rho_A' (x) id_A"),
    ]
    bad = faults[0][0]
    for fault, _ in faults[1:]:
        bad = bad | fault
    if not bad.any():
        return []
    index = tuple(np.argwhere(bad)[0].tolist())
    lead = f"{list(index)}: " if index else ""
    return [lead + (problem or f"trace is {trace[index]:.6g}, expected 2")
            for fault, problem in faults if fault[index]]


def contract(w: np.ndarray, effects: np.ndarray, reps: np.ndarray, final: np.ndarray) -> np.ndarray:
    """Tr[(E_a (x) rho_a^T (x) F_b) W] for every process in w and every event.

    w is one process (8, 8) or a stack (..., 8, 8); effects has shape
    (..., 2, 2, 2) indexed [..., a], reps and final have shape (2, 2, 2)
    indexed [a] and [b].  The result has w's leading axes, then effects'
    leading axes and (a, b), clipped at zero.  The operator of each event
    holds the same products, taken in the same order, as
    np.kron(np.kron(E, rho^T), F).  One einsum adds each trace's 64 products
    as the per-event kron-and-trace does, row sums first, only over one axis
    of (process, event) pairs; so a stack of processes is laid out as that
    one axis, a copy of each operand, and every entry equals the per-event
    kron-and-trace bit for bit.
    """
    rho_t = reps.swapaxes(-1, -2)
    m = effects[..., :, :, None, :, None] * rho_t[:, None, :, None, :]
    m = m.reshape(-1, 1, 1, 1, 4, 4) * final[:, :, :, None, None]  # [(..., a), b, r, c, ik, jl]
    m = m.transpose(0, 1, 4, 2, 5, 3).reshape(-1, 8, 8)
    shape = w.shape[:-2] + effects.shape[:-3] + (2, 2)
    events = len(m)
    w = w.reshape(-1, 8, 8)
    if len(w) != 1:
        m = np.tile(m, (len(w), 1, 1))
        w = np.repeat(w, events, axis=0)
    return np.einsum("kij,kji->k", m, w).real.clip(min=0.0).reshape(shape)


def born_rule(
    op: ProcessOperator,
    inst: MpInstrument,
    final_povm: FinalMeasurement | Sequence[np.ndarray],
) -> Behavior:
    """Observational statistics P(a, b | x) = Tr[(E_{a|x} (x) rho_a^T (x) F_b) W].

    The transpose on the re-preparation is the stored-W convention (see module
    docstring); the result agrees with sequential state-vector simulation.  A
    final POVM given as raw matrices is validated here, a FinalMeasurement was
    validated when it was built.
    """
    final = FinalMeasurement.of(final_povm).ops
    probs = contract(op.w, inst.effects, inst.reps, final)
    return Behavior(settings=inst.settings, probs=probs)


def do_probabilities(
    op: ProcessOperator,
    repreparations: Repreparations | Sequence[np.ndarray],
    final_povm: FinalMeasurement | Sequence[np.ndarray],
) -> DoTable:
    """Interventional statistics P(b | do(A = a)) = Tr[(id (x) rho_a^T (x) F_b) W].

    The intervention discards the first measurement outcome entirely, so with
    setting-independent re-preparations the table carries no x index and its
    ACDE is identically zero.  Raw matrices are validated here, as in born_rule;
    an instrument's repreparations were validated with the instrument.
    """
    final = FinalMeasurement.of(final_povm).ops
    reps = Repreparations.of(repreparations).ops
    probs = contract(op.w, _ID_PAIR, reps, final)
    return DoTable(probs=probs[:, None, :], do_settings=None)
