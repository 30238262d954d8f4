import itertools
import math

import numpy as np
import pytest

from tpmcert import certify, linalg, proclib, process
from tpmcert.exceptions import ValidationError

from helpers import memory_instrument, memory_process
from oracles import (
    build_process_reference,
    explicit_process_contraction,
    kron_born_probs,
    kron_do_probs,
    partial_trace,
    permute_factors,
    random_binary_povm,
    random_density,
    random_instrument_arrays,
    random_unitary,
    sequential_probabilities,
    vectorize,
)

RNG = np.random.default_rng(202)
FINAL_XZ = proclib.component("final_measurement", "xz_diagonal")


def random_valid_setup(rng, n_settings=3):
    rho = random_density(rng, 4)
    u = random_unitary(rng, 4)
    effects, reps = random_instrument_arrays(rng, n_settings)
    labels = tuple(str(i) for i in range(n_settings))
    inst = process.MpInstrument(
        povm={x: effects[i] for i, x in enumerate(labels)},
        repreparations=reps,
    )
    final = random_binary_povm(rng)
    return rho, u, inst, final, effects, reps


def test_build_process_common_cause_form():
    # routing the memory into the final measurement leaves W = rho_A'B (x) id_A
    op = process.build_process(linalg.bell_state(), linalg.SWAP)
    expected = permute_factors(
        np.kron(linalg.bell_state(), linalg.ID2), (2, 2, 2), (0, 2, 1)
    )
    assert np.abs(op.w - expected).max() < 1e-12


def test_build_process_direct_cause_form():
    # identity interaction: W = rho_A' (x) (unnormalized Choi of the identity)
    op = process.build_process(linalg.bell_state(), np.eye(4, dtype=complex))
    choi = vectorize(linalg.ID2) @ vectorize(linalg.ID2).conj().T
    expected = np.kron(linalg.ID2 / 2, choi)
    assert np.abs(op.w - expected).max() < 1e-12
    assert np.abs(partial_trace(choi, (2, 2), {1}) - linalg.ID2).max() < 1e-12


def test_build_process_matches_explicit_contraction():
    for _ in range(10):
        rho = random_density(RNG, 4)
        u = random_unitary(RNG, 4)
        op = process.build_process(rho, u)
        assert np.abs(op.w - explicit_process_contraction(rho, u)).max() < 1e-12


def test_build_process_equals_the_reference_bit_for_bit():
    # the 1e-12 comparison above cannot see a changed summation order, which
    # moves the golden swap curve and report bytes by an ulp
    rng = np.random.default_rng(1107)
    cases = [(random_density(rng, 4, rank), random_unitary(rng, 4))
             for rank in (1, 2, 4) for _ in range(100)]
    bell = proclib.component("initial_state", "bell")
    cases += [(bell, proclib.component("unitary", "partial_swap", float(alpha)))
              for alpha in np.linspace(0.0, math.pi, 64)]  # swap-curve --points 64
    for rho, u in cases:
        assert np.array_equal(process.build_process(rho, u).w, build_process_reference(rho, u))


def test_stacked_build_equals_single_builds_bit_for_bit():
    # a stack of states and unitaries, and one state against a stack of
    # unitaries, give each member the bytes of its single build and of the
    # reference; a single build is a stack with no leading axis
    rng = np.random.default_rng(1201)
    rhos = np.array([random_density(rng, 4, rank) for rank in (1, 2, 4) * 20])
    us = np.array([random_unitary(rng, 4) for _ in range(len(rhos))])
    stack = process.build_process(rhos, us)
    assert stack.w.shape == (len(rhos), 8, 8) and stack.marginal_state.shape == (len(rhos), 2, 2)
    grid = process.build_process(rhos[:6].reshape(2, 3, 4, 4), us[:6].reshape(2, 3, 4, 4))
    assert grid.w.tobytes() == stack.w[:6].tobytes()
    shared = process.build_process(rhos[0], us)
    assert shared.marginal_state.shape == (len(us), 2, 2)  # derived from each member's W
    for i, (rho, u) in enumerate(zip(rhos, us)):
        single = process.build_process(rho, u)
        reference = build_process_reference(rho, u).tobytes()
        assert stack.w[i].tobytes() == single.w.tobytes() == reference
        assert stack.marginal_state[i].tobytes() == single.marginal_state.tobytes()
        assert shared.w[i].tobytes() == build_process_reference(rhos[0], u).tobytes()
    first = process.build_process(rhos[0], us[0])
    assert np.abs(shared.marginal_state - first.marginal_state).max() < 1e-15


def test_stacked_validate_reports_the_problems_of_the_first_bad_member():
    # each fault, alone or after a sound member, is reported as the
    # per-member call reports it, led by the member's index; with several
    # bad members only the first one's problems are reported
    rng = np.random.default_rng(1202)
    ops = [process.build_process(random_density(rng, 4, 2), random_unitary(rng, 4))
           for _ in range(3)]
    null = np.linalg.eigh(ops[0].w)[1][:, 0]  # W has rank 4, this eigenvalue is 0
    faults = {
        "not Hermitian": lambda w: w + 1e-6 * np.eye(8, k=1),
        "positivity violated": lambda w: w - 0.05 * np.outer(null, null.conj()),
        "trace is 2.02, expected 2": lambda w: 1.01 * w,
        "marginal violated": lambda w: w + 1e-3 * np.kron(np.kron(linalg.ID2, linalg.SIGMA_Z),
                                                            linalg.dm(linalg.KET_0)),
    }
    ws = np.array([op.w for op in ops])
    assert process.validate_process(process.ProcessOperator(w=ws)) == []
    assert process.validate_process(ws) == []
    for message, fault in faults.items():
        for i in range(len(ops)):
            bad = ws.copy()
            bad[i] = fault(bad[i])
            alone = process.validate_process(process.ProcessOperator(w=bad[i]))
            assert any(p.startswith(message) for p in alone)
            got = process.validate_process(process.ProcessOperator(w=bad))
            assert got == [f"[{i}]: {p}" for p in alone]
            assert process.validate_process(bad) == [f"[{i}]: {p}" for p in
                                                     process.validate_process(bad[i])]
            later = bad.copy()
            later[-1] = 1.5 * later[-1]
            if i < len(ops) - 1:
                assert process.validate_process(later) == process.validate_process(bad)
    grid = ws[:2].copy().reshape(2, 1, 8, 8)
    grid[1, 0] = faults["trace is 2.02, expected 2"](grid[1, 0])
    assert process.validate_process(grid) == ["[1, 0]: trace is 2.02, expected 2"]


@pytest.mark.parametrize("entry, at", [(np.nan, (3, 5)), (np.inf, (3, 5)),
                                       (complex(0.0, np.nan), (3, 5)), (np.inf, (2, 2))],
                         ids=["nan", "inf", "nanj", "inf_diagonal"])
def test_validate_process_reports_a_non_finite_w(entry, at):
    # off the diagonal, where eigvalsh used to stop with LinAlgError, and on
    # it, where the Hermiticity difference inf - inf used to warn
    w = memory_process().w.copy()
    w[at] = entry
    assert process.validate_process(w) == ["not finite"]
    assert process.validate_process(np.array([memory_process().w, w])) == ["[1]: not finite"]


def test_a_stack_with_one_non_unitary_member_names_its_index():
    us = np.array([proclib.partial_swap(alpha) for alpha in (0.0, 1.0, 2.0, 3.0)])
    for i in range(len(us)):
        bad = us.copy()
        bad[i] = 2.0 * bad[i]
        bad[-1, 0, 0] = np.nan  # a later bad member is not the one named
        message = "unitary [%d]: matrix is not unitary within tolerance" % i
        for call in (lambda: process.Unitary(bad),
                     lambda: process.build_process(linalg.bell_state(), bad)):
            with pytest.raises(ValidationError) as err:
                call()
            assert str(err.value) == message
    grid = us.reshape(2, 2, 4, 4).copy()
    grid[1, 0] = np.eye(4) * 1j + 1e-3
    with pytest.raises(ValidationError, match=r"^unitary \[1, 0\]: matrix is not unitary"):
        process.Unitary(grid)
    states = np.array([linalg.bell_state()] * 3)
    states[2] = np.diag([1.5, 0.0, 0.0, 0.0])
    with pytest.raises(ValidationError, match=r"^initial state \[2\]: state trace 1.5 != 1"):
        process.build_process(states, us[:3])


_STATE_NOT_PSD = np.diag([1.5, -0.5, 0.0, 0.0])  # Hermitian, of unit trace
_STATE_NOT_HERMITIAN = linalg.bell_state() + np.triu(np.full((4, 4), 0.1), 1)
_STATE_TRACE_1_5 = np.diag([1.5, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("members, first", [
    ((_STATE_NOT_PSD, _STATE_NOT_HERMITIAN), 0),
    ((_STATE_NOT_HERMITIAN, _STATE_NOT_PSD), 0),
    ((linalg.bell_state(), _STATE_NOT_PSD, _STATE_TRACE_1_5), 1),
], ids=["not_psd_then_not_hermitian", "not_hermitian_then_not_psd",
        "valid_then_not_psd_then_trace_1.5"])
def test_a_stack_with_mixed_faults_names_its_first_bad_member_with_its_own_error(members, first):
    # the stack's check may fail first on another member's fault; the
    # message is the first bad member's own, as if it had been checked alone
    for member in members[:first]:
        linalg.assert_density_matrix(member)
    with pytest.raises(ValidationError) as alone:
        linalg.assert_density_matrix(members[first])
    for call in (lambda: process.InitialState(np.array(members)),
                 lambda: process.build_process(np.array(members), np.eye(4))):
        with pytest.raises(ValidationError) as err:
            call()
        assert str(err.value) == f"initial state [{first}]: {alone.value}"


@pytest.mark.parametrize("states, unitaries, message", [
    ([linalg.bell_state()] * 3, [np.eye(4)] * 2,
     r"^initial states of shape \(3, 4, 4\) and unitaries of shape \(2, 4, 4\) do not broadcast$"),
    (np.zeros((0, 4, 4)), np.eye(4), r"^initial state is an empty stack of shape \(0, 4, 4\)$"),
    (linalg.bell_state(), np.zeros((0, 4, 4)), r"^unitary is an empty stack of shape \(0, 4, 4\)$"),
], ids=["no_broadcast", "empty_states", "empty_unitaries"])
def test_stacks_that_cannot_build_raise_a_validation_error(states, unitaries, message):
    # numpy's own ValueError would escape the CLI's error handling
    with pytest.raises(ValidationError, match=message):
        process.build_process(np.array(states), np.array(unitaries))


def test_stacked_contraction_equals_born_rule_per_process_bit_for_bit():
    rng = np.random.default_rng(1203)
    rhos = np.array([random_density(rng, 4, rank) for rank in (1, 2, 4) * 10])
    us = np.array([random_unitary(rng, 4) for _ in range(len(rhos))])
    stack = process.build_process(rhos, us)
    for n_settings in (1, 4):
        _, _, inst, final, _, _ = random_valid_setup(rng, n_settings)
        final = process.FinalMeasurement(final)
        born = process.contract(stack.w, inst.effects, inst.reps, final.ops)
        identity = np.broadcast_to(linalg.ID2, (2, 2, 2))
        do = process.contract(stack.w.reshape(5, 6, 8, 8), identity, inst.reps, final.ops)
        assert born.shape == (len(rhos), n_settings, 2, 2) and do.shape == (5, 6, 2, 2)
        for i in range(len(rhos)):
            op = process.ProcessOperator(w=stack.w[i])
            assert born[i].tobytes() == process.born_rule(op, inst, final).probs.tobytes()
            table = process.do_probabilities(op, inst.repreparations, final)
            assert do.reshape(-1, 2, 2)[i].tobytes() == table.probs[:, 0, :].tobytes()


def test_build_process_marginal_and_trace():
    for _ in range(10):
        rho = random_density(RNG, 4)
        u = random_unitary(RNG, 4)
        op = process.build_process(rho, u)
        tr_b = partial_trace(op.w, (2, 2, 2), {2})
        marg = partial_trace(rho, (2, 2), {1})
        assert np.abs(tr_b - np.kron(marg, linalg.ID2)).max() < 1e-9
        assert np.abs(op.marginal_state - marg).max() < 1e-12
        assert abs(np.trace(op.w).real - 2.0) < 1e-9


def test_build_process_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        process.build_process(np.eye(4) / 4, np.eye(4) * 2)  # not unitary
    with pytest.raises(ValidationError):
        process.build_process(np.eye(4), np.eye(4))  # trace-4 "state"


@pytest.mark.parametrize("rho, u, message", [
    (np.diag([2.0, 0.0, 0.0, 0.0]), np.eye(4), "initial state: state trace 2.0 != 1"),
    (linalg.bell_state(), 2.0 * np.eye(4), "unitary: matrix is not unitary within tolerance"),
], ids=["state", "unitary"])
def test_build_process_names_the_bad_input(rho, u, message):
    with pytest.raises(ValidationError) as err:
        process.build_process(rho, u)
    assert str(err.value) == message


def test_checked_state_and_unitary_build_bit_identically():
    # a checked form enters build_process as the same complex array that the
    # raw matrix would, so W does not depend on how the input was given
    rng = np.random.default_rng(1109)
    cases = [(random_density(rng, 4, rank), random_unitary(rng, 4)) for rank in (1, 2, 4)]
    cases += [(linalg.bell_state(), proclib.partial_swap(alpha)) for alpha in (0.0, 1.0, math.pi)]
    cases += [(np.diag([1.0, 0.0, 0.0, 0.0]), np.eye(4))]  # real arrays
    for rho, u in cases:
        checked = process.build_process(process.InitialState(rho), process.Unitary(u))
        assert checked.w.tobytes() == process.build_process(rho, u).w.tobytes()
        assert checked.marginal_state.tobytes() == process.build_process(rho, u).marginal_state.tobytes()


def test_checked_state_and_unitary_are_read_only_copies():
    rho, u = linalg.bell_state(), proclib.cnot_swap_unitary()
    state, unitary = process.InitialState(rho), process.Unitary(u)
    for form, raw in ((state, rho), (unitary, u)):
        assert type(form).of(form) is form
        assert form.ops.dtype == complex and not form.ops.flags.writeable
        assert np.array_equal(np.asarray(form), raw)
        assert raw.flags.writeable and not np.shares_memory(form.ops, raw)
        with pytest.raises(ValueError):
            form.ops[0, 0] = 2.0


@pytest.mark.parametrize("make, message", [
    (lambda: process.InitialState(np.diag([2.0, 0.0, 0.0, 0.0])),
     "initial state: state trace 2.0 != 1"),
    (lambda: process.InitialState(np.eye(2) / 2), "initial state must be a 4x4 (two-qubit) matrix"),
    (lambda: process.Unitary(2.0 * np.eye(4)), "unitary: matrix is not unitary within tolerance"),
    (lambda: process.Unitary(np.full((4, 4), np.nan)),
     "unitary: matrix is not unitary within tolerance"),
    (lambda: process.Unitary(np.eye(8)), "unitary must be a 4x4 (two-qubit) matrix"),
], ids=["state_trace_2", "state_2x2", "not_unitary", "nan_unitary", "unitary_8x8"])
def test_checked_state_and_unitary_errors_start_with_what_they_are(make, message):
    with pytest.raises(ValidationError) as err:
        make()
    assert str(err.value) == message


def test_born_rule_bell_correlations():
    # common-cause process, both measurements sigma_z: perfectly correlated
    op = process.build_process(linalg.bell_state(), linalg.SWAP)
    inst = process.MpInstrument(
        povm={"z": linalg.observable_povm(linalg.SIGMA_Z)},
        repreparations=(linalg.dm(linalg.KET_0), linalg.dm(linalg.KET_1)),
    )
    beh = process.born_rule(op, inst, linalg.observable_povm(linalg.SIGMA_Z))
    assert np.abs(beh.probs[0] - np.diag([0.5, 0.5])).max() < 1e-12


def test_born_rule_ideal_memory_configuration():
    op = process.build_process(linalg.bell_state(), proclib.cnot_swap_unitary())
    beh = process.born_rule(op, memory_instrument(), FINAL_XZ)
    gamma, _ = certify.gamma_functional(beh)
    assert abs(gamma - (2 - math.sqrt(2))) < 1e-12


def test_born_rule_matches_sequential_oracle():
    worst = 0.0
    for _ in range(25):
        rho, u, inst, final, effects, reps = random_valid_setup(RNG)
        op = process.build_process(rho, u)
        beh = process.born_rule(op, inst, final)
        want = sequential_probabilities(rho, u, effects, reps, final)
        worst = max(worst, np.abs(beh.probs - want).max())
    assert worst < 1e-9


def test_born_rule_pearl_never_exceeds_one():
    # a setting-independent repreparation cannot leak the setting
    for _ in range(25):
        rho, u, inst, final, _, _ = random_valid_setup(RNG)
        beh = process.born_rule(process.build_process(rho, u), inst, final)
        assert certify.pearl_delta(beh) <= 1.0 + 1e-9


def test_born_rule_quantum_gamma_bound():
    for _ in range(25):
        rho, u, inst, final, _, _ = random_valid_setup(RNG, n_settings=4)
        beh = process.born_rule(process.build_process(rho, u), inst, final)
        assert certify.gamma_functional(beh)[0] >= 2 - math.sqrt(2) - 1e-9


def test_do_probabilities_identity_channel():
    op = process.build_process(linalg.bell_state(), np.eye(4, dtype=complex))
    table = process.do_probabilities(
        op,
        (linalg.dm(linalg.KET_0), linalg.dm(linalg.KET_1)),
        linalg.observable_povm(linalg.SIGMA_Z),
    )
    for a in (0, 1):
        assert abs(table.probs[a, 0, a] - 1.0) < 1e-12


def test_do_probabilities_common_cause_is_a_independent():
    op = process.build_process(linalg.bell_state(), linalg.SWAP)
    table = process.do_probabilities(
        op,
        (random_density(RNG, 2), random_density(RNG, 2)),
        random_binary_povm(RNG),
    )
    assert np.abs(table.probs[0] - table.probs[1]).max() < 1e-12


def test_do_probabilities_normalized_and_zero_acde():
    for _ in range(10):
        rho, u, _, final, _, reps = random_valid_setup(RNG)
        table = process.do_probabilities(process.build_process(rho, u), reps, final)
        assert np.abs(table.probs.sum(axis=2) - 1.0).max() < 1e-9
        assert certify.acde(table) == 0.0


def test_validate_process_accepts_w222():
    assert process.validate_process(memory_process()) == []


def test_validate_process_flags_marginal_violation():
    bad = 2.0 * linalg.dm(np.kron(np.kron(linalg.KET_0, linalg.KET_0), linalg.KET_0))
    problems = process.validate_process(bad)
    assert any("marginal" in p for p in problems)


def test_validate_process_flags_negative_eigenvalue():
    w = memory_process().w.copy()
    w[0, 0] -= 0.1
    w[7, 7] += 0.1  # keep the trace at 2 so only positivity/marginal trip
    problems = process.validate_process(w)
    assert any("positivity" in p for p in problems)


def test_instrument_rejects_setting_dependent_structure():
    effects = linalg.observable_povm(linalg.SIGMA_Z)
    with pytest.raises(ValidationError):
        process.MpInstrument(
            povm={"z": (effects[0], effects[0])},  # does not sum to id
            repreparations=(linalg.dm(linalg.KET_0), linalg.dm(linalg.KET_1)),
        )


_NOT_PSD = (np.diag([1.2, 0.5]).astype(complex), np.diag([-0.2, 0.5]).astype(complex))
_TRACE_2 = (2.0 * linalg.dm(linalg.KET_0), linalg.dm(linalg.KET_1))


@pytest.mark.parametrize("call, message", [
    (lambda op, inst: process.born_rule(op, inst, _NOT_PSD), "negative eigenvalue"),
    (lambda op, inst: process.do_probabilities(op, inst.repreparations, _NOT_PSD),
     "negative eigenvalue"),
    (lambda op, inst: process.do_probabilities(op, _TRACE_2, FINAL_XZ),
     "state trace 2.0 != 1"),
    (lambda op, inst: process.FinalMeasurement(_NOT_PSD), "negative eigenvalue"),
    (lambda op, inst: process.Repreparations(_TRACE_2), "state trace 2.0 != 1"),
    # a checked POVM is not a checked pair of states: (id, 0) has trace 2
    (lambda op, inst: process.do_probabilities(
        op, process.FinalMeasurement((linalg.ID2, 0 * linalg.ID2)), FINAL_XZ),
     "state trace 2.0 != 1"),
], ids=["born_final_not_psd", "do_final_not_psd", "do_reps_trace_2",
        "final_measurement_not_psd", "repreparations_trace_2", "do_reps_a_povm"])
def test_born_and_do_validate_raw_inputs(call, message):
    # raw matrices from outside callers are still checked where they enter
    with pytest.raises(ValidationError, match=message):
        call(memory_process(), memory_instrument())


@pytest.mark.parametrize("make, message", [
    (lambda: process.FinalMeasurement(_NOT_PSD),
     "final measurement: POVM effect has a negative eigenvalue"),
    (lambda: process.BinaryPovm((linalg.ID2, linalg.ID2)),
     "POVM: POVM effects do not sum to the identity"),
    (lambda: process.Repreparations(_TRACE_2), "re-preparations: state trace 2.0 != 1"),
    (lambda: process.do_probabilities(memory_process(), _TRACE_2, FINAL_XZ),
     "re-preparations: state trace 2.0 != 1"),
    (lambda: process.born_rule(memory_process(), memory_instrument(), _NOT_PSD),
     "final measurement: POVM effect has a negative eigenvalue"),
], ids=["final_measurement", "binary_povm", "repreparations", "do_reps", "born_final"])
def test_checked_pair_errors_start_with_what_the_pair_is(make, message):
    with pytest.raises(ValidationError) as err:
        make()
    assert str(err.value) == message


_Z = linalg.observable_povm(linalg.SIGMA_Z)


@pytest.mark.parametrize("bad, message", [
    (_NOT_PSD, "POVM effect has a negative eigenvalue"),
    ((_Z[0], _Z[0]), "POVM effects do not sum to the identity"),
    ((_Z[0], 1j * _Z[1]), "POVM effect is not Hermitian"),
], ids=["not_psd", "not_complete", "not_hermitian"])
@pytest.mark.parametrize("labels", [("x", "q", "z"), ("z", "x", "q"), ("q",)])
def test_instrument_names_the_bad_raw_setting_beside_registry_pairs(bad, message, labels):
    # x is the registry's checked pair, z and q raw; the error names q
    pairs = {"x": proclib.component("settings", "x"), "z": _Z, "q": bad}
    with pytest.raises(ValidationError) as err:
        process.MpInstrument(povm={x: pairs[x] for x in labels},
                             repreparations=proclib.component("repreparations", "plus_minus"))
    assert str(err.value) == f"POVM of setting 'q': {message}"


@pytest.mark.parametrize("labels", [("z", "p", "q"), ("z", "q", "p")])
def test_raw_instrument_names_its_first_bad_setting_with_its_own_error(labels):
    # p fails Hermiticity and q positivity; the stack fails on p's fault
    # first, and the error names whichever comes first in settings order
    pairs = {"z": _Z, "p": (_Z[0], 1j * _Z[1]), "q": _NOT_PSD}
    with pytest.raises(ValidationError) as alone:
        linalg.assert_povm(pairs[labels[1]])
    with pytest.raises(ValidationError) as err:
        process.MpInstrument(povm={x: pairs[x] for x in labels}, repreparations=_Z)
    assert str(err.value) == f"POVM of setting {labels[1]!r}: {alone.value}"


def test_instrument_refuses_a_ragged_raw_pair():
    with pytest.raises(ValidationError) as err:
        process.MpInstrument(povm={"z": _Z, "q": ([[1, 0], [0]], np.eye(2))}, repreparations=_Z)
    assert str(err.value) == "POVM of setting 'q' must be 2x2 (qubit) matrices"


def test_instrument_settings_follow_the_mapping_order():
    # the POVM mapping alone names the settings, in its own order, and the
    # effects stack follows that order
    reps = proclib.component("repreparations", "plus_minus")
    for labels in itertools.permutations(("x", "z", "-x")):
        povm = {x: proclib.component("settings", x) for x in labels}
        inst = process.MpInstrument(povm=povm, repreparations=reps)
        assert inst.settings == labels
        assert inst.effects.tobytes() == np.array([povm[x].ops for x in labels]).tobytes()


def test_instrument_keeps_no_povm_mapping():
    # the mapping is read once, into settings and effects: the instrument
    # keeps no reference to it, and a caller who changes its arrays later
    # changes nothing the instrument holds
    pair = [np.array(e) for e in _Z]
    inst = process.MpInstrument(povm={"z": tuple(pair)}, repreparations=_Z)
    assert not hasattr(inst, "povm")
    before = inst.effects.tobytes()
    pair[0][...] = 0.0
    assert inst.effects.tobytes() == before


def test_mixed_instrument_checks_its_raw_pairs_once_and_equals_the_raw_one(monkeypatch):
    labels = proclib.SETTING_LABELS
    checked = {x: proclib.component("settings", x) for x in labels}
    raw = {x: tuple(pair) for x, pair in checked.items()}
    mixed = {x: (checked if i % 2 else raw)[x] for i, x in enumerate(labels)}
    reps = tuple(proclib.component("repreparations", "plus_minus"))
    stacks = []

    def counted(effects, *args, _check=linalg.assert_povm):
        stacks.append(np.shape(effects))
        return _check(effects, *args)

    monkeypatch.setattr(linalg, "assert_povm", counted)
    want = process.MpInstrument(povm=raw, repreparations=reps)
    assert stacks == [(4, 2, 2, 2)]
    got = process.MpInstrument(povm=mixed,
                               repreparations=proclib.component("repreparations", "plus_minus"))
    assert stacks == [(4, 2, 2, 2), (2, 2, 2, 2)]
    process.MpInstrument(povm=checked, repreparations=got.repreparations)
    assert len(stacks) == 2
    assert got.effects.dtype == want.effects.dtype
    assert got.effects.tobytes() == want.effects.tobytes()
    assert got.reps.tobytes() == want.reps.tobytes()
    assert not got.effects.flags.writeable


def _pure_state(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def test_born_and_do_equal_the_kron_loop_bit_for_bit():
    # the per-event kron-and-trace loop is the reference: every entry of the
    # batched contraction must be the same double, not merely close
    rng = np.random.default_rng(606)
    negative = {"born": 0, "do": 0}

    def check(op, effects, reps, final):
        labels = tuple(str(i) for i in range(len(effects)))
        inst = process.MpInstrument(povm=dict(zip(labels, effects)), repreparations=reps)
        beh = process.born_rule(op, inst, final)
        assert np.array_equal(beh.probs, kron_born_probs(op.w, effects, reps, final))
        table = process.do_probabilities(op, reps, final)
        assert np.array_equal(table.probs, kron_do_probs(op.w, reps, final))
        negative["born"] += (kron_born_probs(op.w, effects, reps, final, False) < 0).sum()
        negative["do"] += (kron_do_probs(op.w, reps, final, False) < 0).sum()

    for n in range(1, 9):
        for rank, projective in itertools.product((1, 2), (True, False)):
            op = process.build_process(random_density(rng, 4), random_unitary(rng, 4))
            effects = [random_binary_povm(rng) for _ in range(n)]
            reps = tuple(
                _pure_state(rng) if rank == 1 else random_density(rng, 2) for _ in (0, 1)
            )
            if projective:
                f0 = _pure_state(rng)
                final = (f0, linalg.ID2 - f0)
            else:
                final = random_binary_povm(rng)
            check(op, effects, reps, final)
        # with U = id the re-prepared state reaches B unchanged, and F_0
        # projects onto the complement of rho_0: P(0, 0 | x) and P(0 | do(0))
        # are zero up to rounding of either sign, which the clip removes
        op = process.build_process(linalg.bell_state(), np.eye(4, dtype=complex))
        reps = (_pure_state(rng), _pure_state(rng))
        effects = [random_binary_povm(rng) for _ in range(n)]
        check(op, effects, reps, (linalg.ID2 - reps[0], reps[0]))
    assert negative["born"] > 0 and negative["do"] > 0


def test_instrument_and_do_require_binary_inputs():
    z = linalg.observable_povm(linalg.SIGMA_Z)
    one = (linalg.dm(linalg.KET_0),)
    three = (linalg.dm(linalg.KET_0), linalg.dm(linalg.KET_1), linalg.dm(linalg.KET_PLUS))
    op = memory_process()
    for reps in (one, three):
        with pytest.raises(ValidationError, match="re-preparations must be binary"):
            process.MpInstrument(povm={"z": z}, repreparations=reps)
        with pytest.raises(ValidationError, match="re-preparations must be binary"):
            process.do_probabilities(op, reps, z)
    # a valid three-outcome POVM is still not a binary setting
    with pytest.raises(ValidationError, match="setting 'z' must be binary"):
        process.MpInstrument(
            povm={"z": z + (np.zeros((2, 2), dtype=complex),)},
            repreparations=(linalg.dm(linalg.KET_0), linalg.dm(linalg.KET_1)),
        )
    with pytest.raises(ValidationError, match="final measurement must be binary"):
        process.do_probabilities(op, (linalg.dm(linalg.KET_0),) * 2, z[:1])
    with pytest.raises(ValidationError, match="no settings"):
        process.MpInstrument(povm={}, repreparations=(z[0], z[1]))


def test_tables_derive_probabilities_from_counts():
    counts = np.array([[[3, 1], [0, 4]], [[0, 0], [5, 0]]])
    beh = process.Behavior(settings=("u", "v"), counts=counts)
    assert beh.counts.dtype == np.int64 and not beh.counts.flags.writeable
    assert beh.probs.tolist() == [[[3 / 8, 1 / 8], [0.0, 4 / 8]], [[0.0, 0.0], [1.0, 0.0]]]
    counts[0, 0, 0] = 99  # the table keeps its own copy
    assert beh.counts[0, 0, 0] == 3
    do = process.DoTable(do_settings=("u", "v"), counts=np.array([[[1, 2], [0, 3]]] * 2))
    assert do.probs.tolist() == [[[1 / 3, 2 / 3], [0.0, 1.0]]] * 2
    assert process.DoTable(counts=np.ones((2, 1, 2), dtype=np.uint8)).probs.shape == (2, 1, 2)


def test_tables_keep_read_only_float_copies_of_their_probabilities():
    # a change to the caller's array after construction must not reach a
    # checked table: the uniform behavior would read gamma -7 and certify
    p = np.full((2, 2, 2), 0.25)
    beh = process.Behavior(settings=("x", "z"), probs=p)
    p[0] = [[5, -4], [0, 0]]
    assert certify.gamma_functional(beh)[0] == 2.0
    assert not certify.certify_behavior(beh).verdict_nonclassical
    d = np.full((2, 2, 2), 0.5)
    do = process.DoTable(probs=d, do_settings=("x", "z"))
    d[0, 0] = [1.0, 0.0]
    assert certify.acde(do) == 0.0
    tables = (beh, do, process.Behavior(settings=("u",), probs=[[[1, 0], [0, 0]]]),
              process.Behavior(settings=("u",), counts=np.ones((1, 2, 2), dtype=int)),
              process.DoTable(counts=np.ones((2, 1, 2), dtype=int)))
    for table in tables:
        assert table.probs.dtype == np.float64 and not table.probs.flags.writeable
        assert not np.shares_memory(table.probs, p) and not np.shares_memory(table.probs, d)
        with pytest.raises(ValueError):
            table.probs[0, 0, 0] = 1.0


@pytest.mark.parametrize("make, message", [
    (lambda: process.Behavior(settings=("u",), counts=np.ones((2, 2, 2), dtype=int)),
     "shape"),
    (lambda: process.Behavior(settings=("u",), counts=np.full((1, 2, 2), 0.25)), "integers"),
    (lambda: process.Behavior(settings=("u",), counts=[[[1, -1], [2, 0]]]), "negative count"),
    (lambda: process.Behavior(settings=("u", "v"), counts=[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]),
     "setting 'v' has no shots"),
    (lambda: process.Behavior(settings=("u",), probs=np.full((1, 2, 2), 0.25),
                              counts=np.ones((1, 2, 2), dtype=int)), "not both"),
    (lambda: process.DoTable(do_settings=("u", "v"), counts=[[[1, 0], [2, 2]], [[1, 1], [0, 0]]]),
     r"do-table row \(a=1, x='v'\) has no shots"),
    (lambda: process.DoTable(counts=[[[0, 0]], [[1, 1]]]), r"do-table row \(a=0\) has no shots"),
    (lambda: process.Behavior(settings=(), counts=np.zeros((0, 2, 2), dtype=int)),
     "^behavior declares no settings$"),
], ids=["shape", "float", "negative", "empty_setting", "both", "empty_do_row",
        "empty_do_row_without_settings", "no_settings"])
def test_tables_reject_bad_counts(make, message):
    with pytest.raises(ValidationError, match=message):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: process.Behavior(settings=("x", "z"), probs=[[[np.nan, 0.25], [0.25, 0.25]],
                                                          [[0.25, 0.25], [0.25, 0.25]]]),
     "^negative or NaN probability in behavior$"),
    (lambda: process.DoTable(probs=[[[0.5, 0.5], [0.5, 0.5]], [[0.5, np.nan], [0.5, 0.5]]],
                             do_settings=("x", "z")),
     "^negative or NaN probability in do-table$"),
    (lambda: process.DoTable(probs=[[[np.nan, 0.5]], [[0.5, 0.5]]]),
     "^negative or NaN probability in do-table$"),
    (lambda: process.Behavior(settings=("x",), probs=[[[1.5, -0.5], [0.0, 0.0]]]),
     "^negative or NaN probability in behavior$"),
    (lambda: process.Behavior(settings=("x",), probs=[[[0.5, 0.5], [0.5, 0.0]]]),
     "^behavior not normalized per row$"),
    (lambda: process.Behavior(settings=("x",), probs=[[[np.inf, 0.0], [0.0, 0.0]]]),
     "^behavior not normalized per row$"),
    (lambda: process.Behavior(settings=(), probs=np.zeros((0, 2, 2))),
     "^behavior declares no settings$"),
    (lambda: process.DoTable(probs=np.zeros((2, 0, 2)), do_settings=()),
     "^do-table declares no settings$"),
], ids=["behavior_nan", "do_table_nan", "do_table_nan_without_settings", "negative",
        "unnormalized", "inf", "behavior_no_settings", "do_table_no_settings"])
def test_tables_reject_bad_probabilities(make, message):
    # a NaN cell would pass a check written with < and >, and certify would
    # then report NaN, which report.json cannot hold
    with pytest.raises(ValidationError, match=message):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: process.Behavior(settings=("x", "x"),
                              probs=[np.full((2, 2), 0.25), [[0.5, 0.0], [0.0, 0.5]]]),
     "behavior: duplicate setting labels"),
    (lambda: process.Behavior(settings=("u", "v", "u"), counts=np.ones((3, 2, 2), dtype=int)),
     "behavior: duplicate setting labels"),
    (lambda: process.DoTable(do_settings=("u", "u"), probs=np.full((2, 2, 2), 0.5)),
     "do-table: duplicate setting labels"),
], ids=["behavior_probs", "behavior_counts", "do_table"])
def test_tables_refuse_repeated_setting_labels(make, message):
    # a repeated label names two rows: the first table would certify with
    # gamma 1.5, but its CHSH split reads the uniform row for both settings
    with pytest.raises(ValidationError) as err:
        make()
    assert str(err.value) == message


@pytest.mark.parametrize("make", [
    lambda: process.Behavior(settings=("u",), counts=np.ones((1, 2, 2), dtype=int)),
    lambda: process.DoTable(counts=np.ones((2, 1, 2), dtype=int)),
    memory_instrument,
    memory_process,
], ids=["Behavior", "DoTable", "MpInstrument", "ProcessOperator"])
def test_array_dataclasses_compare_and_hash_by_identity(make):
    # field-wise == on array fields is ambiguous, so these compare by identity
    first, second = make(), make()
    assert first == first and first != second
    assert hash(first) == hash(first) and len({first, second}) == 2
