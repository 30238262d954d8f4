import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from tpmcert import certify, linalg, proclib, process
from tpmcert.exceptions import DomainError, ValidationError

from helpers import (EbChannel, apply_eb_channel, eb_channel_terms, memory_instrument,
                     memory_process, random_eb_channel)
from oracles import (
    pair_bounds,
    partial_transpose,
    random_binary_povm,
    random_density,
    random_instrument_arrays,
    random_unitary,
    seesaw_descent,
    swap_gamma_closed_form,
    upsilon_all_instrument_gamma,
    upsilon_operator,
)

RNG = np.random.default_rng(303)
FINAL_XZ = proclib.component("final_measurement", "xz_diagonal")

# regression values frozen from the first oracle runs
CROSSING_TIME_MS = 64.39302961222297
UPSILON_PT_MIN = {0.0: -0.5, 0.25: -0.25, 0.5: 0.0, 0.75: -0.25, 1.0: -0.5}


def test_w222_spectrum_and_trace():
    op = memory_process()
    eigs = np.sort(np.linalg.eigvalsh(op.w))
    assert np.abs(eigs[:6]).max() < 1e-12
    assert np.abs(eigs[6:] - 1.0).max() < 1e-12
    assert abs(np.trace(op.w).real - 2.0) < 1e-12
    assert process.validate_process(op) == []


def test_w222_equals_compiled_memory_process():
    built = process.build_process(linalg.bell_state(), proclib.cnot_swap_unitary())
    assert np.abs(built.w - memory_process().w).max() < 1e-12


def test_w222_optimal_measurements_reach_quantum_bound():
    beh = process.born_rule(memory_process(), memory_instrument(), FINAL_XZ)
    assert abs(certify.gamma_functional(beh)[0] - (2 - math.sqrt(2))) < 1e-12


def test_upsilon_endpoint_is_w222():
    # upsilon(1) is the Bell state through cnot_swap, built the same way
    assert proclib.upsilon(1.0).w.tobytes() == memory_process().w.tobytes()


def test_upsilon_valid_for_all_p():
    for p in np.linspace(0.0, 1.0, 11):
        assert process.validate_process(proclib.upsilon(float(p))) == []
    with pytest.raises(DomainError):
        proclib.upsilon(1.2)


def test_upsilon_ppt_pattern_over_first_factor():
    for p, expected in UPSILON_PT_MIN.items():
        pt = partial_transpose(proclib.upsilon(p).w, (2, 2, 2), 0)
        low = float(np.linalg.eigvalsh(pt).min())
        assert abs(low - expected) < 1e-12, (p, low)
    # the separable midpoint is PPT across the first cut
    pt = partial_transpose(proclib.upsilon(0.5).w, (2, 2, 2), 0)
    assert np.linalg.eigvalsh(pt).min() >= -1e-9


def test_upsilon_best_gamma_at_endpoints():
    for p in (0.0, 1.0):
        assert abs(proclib.upsilon_best_gamma(p, n_starts=4) - (2 - math.sqrt(2))) < 1e-6


@pytest.mark.parametrize("p", [0.46, 0.48, 0.504548, 0.52])
def test_upsilon_best_gamma_near_half(p):
    # where the landscape is flat near p = 1/2 the see-saw still lands on
    # the closed form and on the independent all-instrument oracle
    best = proclib.upsilon_best_gamma(p, n_starts=6)
    assert abs(best - (2 - math.sqrt(1 + (1 - 2 * p) ** 2))) < 1e-9
    assert abs(best - upsilon_all_instrument_gamma(p)) < 1e-9


def test_upsilon_best_gamma_in_a_rotated_frame(monkeypatch):
    # local unitaries on the re-preparation slot A and the final slot B keep
    # the optimum but move it off the memory-test start, so the
    # re-preparation and final-POVM steps have to find it
    rng = np.random.default_rng(11)
    rot = np.kron(np.kron(linalg.ID2, random_unitary(rng, 2)), random_unitary(rng, 2))
    upsilon = proclib.upsilon

    def rotated(p):
        op = upsilon(p)
        return process.ProcessOperator(w=rot @ op.w @ rot.conj().T)

    monkeypatch.setattr(proclib, "upsilon", rotated)
    for p in (0.0, 0.25, 0.504548, 1.0):
        best = proclib.upsilon_best_gamma(p, n_starts=0)
        assert abs(best - (2 - math.sqrt(1 + (1 - 2 * p) ** 2))) < 1e-9, p


def test_upsilon_best_gamma_descends_like_the_oracle(monkeypatch):
    # on a generic process the descent from the memory-test start ends in a
    # local minimum; the library and the oracle take the same block steps
    # from that start, so they end at the same value, up to slow convergence
    # (the library stops after 100 sweeps)
    rng = np.random.default_rng(7)
    start = list(memory_instrument().reps), FINAL_XZ
    for _ in range(10):
        op = process.build_process(random_density(rng, 4), random_unitary(rng, 4))
        monkeypatch.setattr(proclib, "upsilon", lambda p: op)
        best = proclib.upsilon_best_gamma(0.0, n_starts=0)
        assert abs(best - seesaw_descent(op.w, *start)) < 1e-6


def test_upsilon_oracle_operator_matches_library():
    for p in np.linspace(0.0, 1.0, 5):
        assert np.abs(upsilon_operator(p) - proclib.upsilon(float(p)).w).max() < 1e-12


def _pair_minima(beh):
    probs = np.asarray(beh.probs)
    return (probs[:, 0, :, None] + probs[:, 1, None, :]).min(axis=0)


def test_all_instrument_pair_bounds_against_born_rule():
    rng = np.random.default_rng(404)
    for _ in range(20):
        op = process.build_process(random_density(rng, 4), random_unitary(rng, 4))
        effects, reps = random_instrument_arrays(rng, n_settings=3)
        final = random_binary_povm(rng)
        bounds, optimal = pair_bounds(op.w, reps, final)

        inst = process.MpInstrument(
            povm=dict(zip(("0", "1", "2"), effects)),
            repreparations=reps,
        )
        beh = process.born_rule(op, inst, final)
        assert np.all(bounds <= _pair_minima(beh) + 1e-12)
        assert bounds.sum() <= certify.gamma_functional(beh)[0] + 1e-12

        # one setting per pair, each using the oracle's own optimal effect
        povm = {f"{b0}{b1}": (e, np.eye(2) - e) for (b0, b1), e in optimal.items()}
        attaining = process.MpInstrument(povm=povm, repreparations=reps)
        beh = process.born_rule(op, attaining, final)
        assert np.abs(bounds - _pair_minima(beh)).max() < 1e-12
        assert abs(bounds.sum() - certify.gamma_functional(beh)[0]) < 1e-12


def test_registry_pairs_are_shared_read_only_checked_objects():
    kinds = {"settings": process.BinaryPovm, "repreparations": process.Repreparations,
             "final_measurement": process.FinalMeasurement}
    for key, kind in kinds.items():
        for name, build in proclib.COMPONENTS[key].items():
            first, second = proclib.component(key, name), proclib.component(key, name)
            assert first is second and type(first) is kind, name
            assert np.array_equal(first.ops, build()), name
            with pytest.raises(ValueError):
                first.ops[0, 0, 0] = 2.0


def test_registry_states_and_unitaries_are_checked_forms():
    # constants are built and checked once and then shared; the partial swap
    # is built and checked per call, at its angle
    kinds = {"initial_state": process.InitialState, "unitary": process.Unitary}
    for key, kind in kinds.items():
        for name, build in proclib.COMPONENTS[key].items():
            if name == "partial_swap":
                continue
            first, second = proclib.component(key, name), proclib.component(key, name)
            assert first is second and type(first) is kind, name
            assert first.ops.tobytes() == np.asarray(build(), dtype=complex).tobytes(), name
            assert not first.ops.flags.writeable, name
    for alpha in (0.0, 1.0, math.pi):
        u = proclib.component("unitary", "partial_swap", alpha)
        assert type(u) is process.Unitary
        assert u.ops.tobytes() == proclib.partial_swap(alpha).tobytes()


def test_partial_swap_endpoints_and_unitarity():
    assert np.abs(proclib.partial_swap(0.0) - np.eye(4)).max() < 1e-15
    ket01 = np.kron(linalg.KET_0, linalg.KET_1)
    ket10 = np.kron(linalg.KET_1, linalg.KET_0)
    assert np.abs(proclib.partial_swap(math.pi) @ ket01 - 1j * ket10).max() < 1e-12
    for alpha in np.linspace(0.0, math.pi, 64):
        u = proclib.partial_swap(float(alpha))
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12


def test_partial_swap_gamma_curve_matches_closed_form():
    alphas = np.linspace(0.0, math.pi, 64)
    curve = proclib.partial_swap_gamma_curve(alphas)
    for alpha, gamma in curve:
        assert abs(gamma - swap_gamma_closed_form(alpha)) < 1e-9


def test_partial_swap_stack_equals_its_single_gates():
    alphas = np.linspace(0.0, math.pi, 33)
    stack = proclib.partial_swap(alphas)
    assert stack.shape == (33, 4, 4)
    for alpha, u in zip(alphas, stack):
        assert u.tobytes() == proclib.partial_swap(float(alpha)).tobytes()
    assert proclib.partial_swap(alphas.reshape(3, 11)).tobytes() == stack.tobytes()
    with pytest.raises(DomainError, match=r"^swap angle 4.0 outside \[0, pi\]$"):
        proclib.partial_swap([0.0, 4.0, -1.0])


def test_partial_swap_gamma_curve_builds_checks_and_contracts_once_per_block(monkeypatch):
    # a block of angles is one checked unitary stack, one build, one
    # validation and one contraction; every gamma keeps the bytes of the
    # per-angle born_rule and gamma_functional
    calls = {"build_process": 0, "validate_process": 0, "assert_unitary": 0}
    for module, name in ((process, "build_process"), (process, "validate_process"),
                         (linalg, "assert_unitary")):
        def counted(*args, _call=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    alphas = np.linspace(0.0, math.pi, 4096)
    curve = proclib.partial_swap_gamma_curve(alphas)
    blocks = -(-len(alphas) // proclib.CURVE_BLOCK)
    assert blocks > 1
    assert calls["build_process"] == calls["validate_process"] == blocks
    assert calls["assert_unitary"] <= blocks
    assert [a for a, _ in curve] == alphas.tolist()

    inst = proclib.pauli_instrument(proclib.SETTING_LABELS,
                                    proclib.component("repreparations", "plus_minus_i"))
    final = proclib.component("final_measurement", "x")
    bell = proclib.component("initial_state", "bell")
    edge = proclib.CURVE_BLOCK
    for i in (0, 1, edge - 1, edge, edge + 1, len(alphas) - 1):
        op = process.build_process(bell, proclib.partial_swap(float(alphas[i])))
        gamma = certify.gamma_functional(process.born_rule(op, inst, final))[0]
        assert curve[i][1].hex() == gamma.hex()

    assert proclib.partial_swap_gamma_curve([]) == []
    with pytest.raises(DomainError, match=r"^swap angle 4.0 outside \[0, pi\]$"):
        proclib.partial_swap_gamma_curve([0.0, 4.0])


def test_partial_swap_gamma_special_points():
    pts = dict(proclib.partial_swap_gamma_curve([0.0, math.pi / 2, 3 * math.pi / 4]))
    assert abs(pts[0.0] - 2.0) < 1e-12
    assert abs(pts[math.pi / 2] - 1.0) < 1e-12
    assert abs(pts[3 * math.pi / 4] - (3 - math.sqrt(2)) / 2) < 1e-12


def test_apply_eb_channel_depolarizing():
    ch = EbChannel(effects=(linalg.ID2,), outputs=(linalg.ID2 / 2,))
    out = apply_eb_channel(linalg.bell_state(), ch, target=1)
    assert np.abs(out - np.eye(4) / 4).max() < 1e-12


def test_apply_eb_channel_dephasing():
    p0, p1 = linalg.observable_povm(linalg.SIGMA_Z)
    ch = EbChannel(
        effects=(p0, p1), outputs=(linalg.dm(linalg.KET_0), linalg.dm(linalg.KET_1))
    )
    out = apply_eb_channel(linalg.bell_state(), ch, target=1)
    expected = 0.5 * (
        linalg.dm(np.kron(linalg.KET_0, linalg.KET_0))
        + linalg.dm(np.kron(linalg.KET_1, linalg.KET_1))
    )
    assert np.abs(out - expected).max() < 1e-12


def test_eb_channel_output_is_valid_and_separable_by_terms():
    for _ in range(10):
        ch = random_eb_channel(RNG)
        rho = random_density(RNG, 4)
        out = apply_eb_channel(rho, ch, target=1)
        linalg.assert_density_matrix(out)
        # every term in the retained decomposition is PSD (x) PSD
        for kept, prep in eb_channel_terms(rho, ch, target=1):
            assert np.linalg.eigvalsh(kept).min() > -1e-10
            assert np.linalg.eigvalsh(prep).min() > -1e-10


def test_eb_channel_classicalizes_the_pipeline():
    inst, final = memory_instrument(), FINAL_XZ
    u = proclib.cnot_swap_unitary()
    for _ in range(20):
        ch = random_eb_channel(RNG)
        rho = apply_eb_channel(linalg.bell_state(), ch, target=1)
        beh = process.born_rule(process.build_process(rho, u), inst, final)
        assert certify.gamma_functional(beh)[0] >= 1.0 - 1e-9


def reference_noise_params():
    return proclib.NoiseParams(
        t2_ms=364.0, echo_fidelity=0.995, echo_interval_ms=2.5, initial_gamma=0.642
    )


def test_decay_anchors_exactly_and_is_monotone():
    params = reference_noise_params()
    times = np.linspace(0.0, 400.0, 400)
    curve = proclib.decay_prediction(params, times)
    gammas = np.array([g for _, g in curve])
    assert curve[0][1] == 0.642
    assert np.all(np.diff(gammas) >= 0)
    far = proclib.decay_prediction(params, [1e7])[0][1]
    assert abs(far - 2.0) < 1e-9


def test_decay_crossing_time_regression():
    params = reference_noise_params()
    got = proclib.classical_crossing_time(params)

    def gamma_minus_one(t):
        d = math.exp(-t / 364.0) * 0.995 ** (t / 2.5)
        return (0.642 + (2 - 0.642) * (1 - d)) - 1.0

    oracle = brentq(gamma_minus_one, 1e-9, 1000.0, xtol=1e-12)
    assert abs(got - oracle) < 1e-6
    assert abs(got - CROSSING_TIME_MS) < 0.1


def test_crossing_time_equals_the_root_at_any_scale():
    for t1 in (None, 1170.0):
        params = dataclasses.replace(reference_noise_params(), t1_ms=t1)

        def gamma_minus_one(t):
            d = math.exp(-t / 364.0) * 0.995 ** (t / 2.5)
            if t1 is not None:
                d *= math.exp(-t / (2 * 1170.0))
            return (0.642 + (2 - 0.642) * (1 - d)) - 1.0

        oracle = brentq(gamma_minus_one, 1e-9, 1000.0, xtol=1e-12)
        assert abs(proclib.classical_crossing_time(params) - oracle) < 1e-9
    # a crossing far past 1e6 ms: lossless echoes, so the rate is 1/t2_ms
    slow = proclib.NoiseParams(t2_ms=1e9, echo_fidelity=1.0, echo_interval_ms=2.0,
                               initial_gamma=0.7)
    assert proclib.classical_crossing_time(slow) == math.log(2 - 0.7) / (1 / 1e9)
    assert math.isfinite(proclib.classical_crossing_time(slow))


def test_decay_t1_flag_only_accelerates():
    params = reference_noise_params()
    base = proclib.decay_prediction(params, [50.0])[0][1]
    with_t1 = proclib.decay_prediction(dataclasses.replace(params, t1_ms=1170.0), [50.0])[0][1]
    assert with_t1 > base


def test_noise_params_validation():
    with pytest.raises(ValidationError):
        proclib.NoiseParams(t2_ms=-1, t1_ms=1, echo_fidelity=0.9, echo_interval_ms=1,
                            initial_gamma=1.0)
    with pytest.raises(ValidationError):
        proclib.NoiseParams(t2_ms=1, t1_ms=1, echo_fidelity=0.0, echo_interval_ms=1,
                            initial_gamma=1.0)
    with pytest.raises(ValidationError):
        proclib.NoiseParams(t2_ms=1, t1_ms=1, echo_fidelity=0.9, echo_interval_ms=1,
                            initial_gamma=0.2)
