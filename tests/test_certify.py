import itertools
import json
import math

import numpy as np
import pytest

from tpmcert import certify, dataio, linalg, proclib, process
from tpmcert.exceptions import DomainError

from oracles import random_binary_povm, random_density, random_unitary

RNG = np.random.default_rng(404)

SQRT2 = math.sqrt(2.0)


def uniform_behavior(n_settings=4):
    return process.Behavior(
        settings=tuple(str(i) for i in range(n_settings)),
        probs=np.full((n_settings, 2, 2), 0.25),
    )


def random_quantum_behavior(rng, n_settings=4):
    labels = tuple(str(i) for i in range(n_settings))
    inst = process.MpInstrument(
        settings=labels,
        povm={x: random_binary_povm(rng) for x in labels},
        repreparations=(random_density(rng, 2), random_density(rng, 2)),
    )
    op = process.build_process(random_density(rng, 4), random_unitary(rng, 4))
    return process.born_rule(op, inst, random_binary_povm(rng))


def test_gamma_ideal_memory(ideal_memory_behavior):
    gamma, argmin = certify.gamma_functional(ideal_memory_behavior)
    assert abs(gamma - (2 - SQRT2)) < 1e-12
    # each pair picks a distinct setting in the ideal configuration
    assert sorted(argmin.values()) == sorted(["x", "z", "-x", "-z"])


def test_gamma_uniform_is_two():
    assert certify.gamma_functional(uniform_behavior())[0] == 2.0


def test_gamma_range_and_invariance():
    for _ in range(20):
        beh = random_quantum_behavior(RNG)
        gamma, argmin = certify.gamma_functional(beh)
        assert 0.0 <= gamma <= 2.0

        # permutation of settings leaves gamma and the minima multiset alone
        perm = RNG.permutation(len(beh.settings))
        permuted = process.Behavior(
            settings=tuple(beh.settings[i] for i in perm),
            probs=np.asarray(beh.probs)[perm],
        )
        gamma_p, argmin_p = certify.gamma_functional(permuted)
        assert abs(gamma - gamma_p) < 1e-12

        # global outcome relabel a -> 1-a with the (b0, b1) roles swapped
        flipped = process.Behavior(
            settings=beh.settings, probs=np.asarray(beh.probs)[:, ::-1, :]
        )
        assert abs(certify.gamma_functional(flipped)[0] - gamma) < 1e-12


def test_gamma_tie_break_smallest_index():
    beh = uniform_behavior()
    _, argmin = certify.gamma_functional(beh)
    assert set(argmin.values()) == {"0"}


def test_pearl_ideal_memory(ideal_memory_behavior):
    assert abs(certify.pearl_delta(ideal_memory_behavior) - (2 + SQRT2) / 4) < 1e-12


def test_pearl_x_independent_below_one():
    p = np.array([[[0.3, 0.2], [0.4, 0.1]]] * 3)
    beh = process.Behavior(settings=("0", "1", "2"), probs=p)
    assert certify.pearl_delta(beh) <= 1.0


def test_pearl_signaling_reaches_two():
    probs = np.zeros((2, 2, 2))
    probs[0, 0, 0] = 1.0  # P(a=0, b=x | x) = 1
    probs[1, 0, 1] = 1.0
    beh = process.Behavior(settings=("0", "1"), probs=probs)
    assert certify.pearl_delta(beh) == 2.0


def test_acde_x_independent_zero():
    table = process.DoTable(probs=np.full((2, 1, 2), 0.5), do_settings=None)
    assert certify.acde(table) == 0.0


def test_acde_direct_evaluation():
    probs = np.full((2, 2, 2), 0.5)
    probs[0, 0] = [1.0, 0.0]
    probs[0, 1] = [0.8, 0.2]
    table = process.DoTable(probs=probs, do_settings=("0", "1"))
    assert abs(certify.acde(table) - 0.2) < 1e-12


def test_corrected_lhs_composition(ideal_memory_behavior):
    zero = process.DoTable(probs=np.full((2, 1, 2), 0.5), do_settings=None)
    got = certify.corrected_lhs(ideal_memory_behavior, zero)
    assert abs(got - (2 - SQRT2)) < 1e-12
    assert certify.corrected_lhs(uniform_behavior(), zero) == 2.0


def test_chsh_ideal_memory(ideal_memory_behavior):
    gamma, argmin = certify.gamma_functional(ideal_memory_behavior)
    s1, s2 = certify.chsh_decomposition(ideal_memory_behavior, argmin)
    assert abs(s1 + s2 - 4 * SQRT2) < 1e-9
    assert abs(s1 - 2 * SQRT2) < 1e-9 and abs(s2 - 2 * SQRT2) < 1e-9
    assert abs(gamma - (2 - (s1 + s2) / 4)) < 1e-12


def test_chsh_uniform_vanishes():
    beh = uniform_behavior()
    _, argmin = certify.gamma_functional(beh)
    assert certify.chsh_decomposition(beh, argmin) == (0.0, 0.0)


def test_chsh_identity_on_random_behaviors():
    for _ in range(30):
        beh = random_quantum_behavior(RNG)
        gamma, argmin = certify.gamma_functional(beh)
        s1, s2 = certify.chsh_decomposition(beh, argmin)
        assert abs(gamma - (2 - (s1 + s2) / 4)) < 1e-9


def test_fidelity_bound_endpoints_and_published_value():
    assert abs(certify.fidelity_lower_bound(2 - SQRT2) - 1.0) < 1e-12
    assert abs(certify.fidelity_lower_bound(2 - certify.S_K) - 0.5) < 1e-12
    f = certify.fidelity_lower_bound(0.642)
    assert 0.915 <= f <= 0.925
    assert f >= 0.92


def test_fidelity_bound_affine_then_clamped():
    gammas = np.linspace(2 - SQRT2, 2 - certify.S_K + 0.2, 40)
    values = [certify.fidelity_lower_bound(float(g)) for g in gammas]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    # affine on the unclamped stretch
    slope = -(0.5) / (SQRT2 - certify.S_K)
    for g, v in zip(gammas, values):
        if 0.0 < v < 1.0:
            assert abs(v - (1.0 + slope * (g - (2 - SQRT2)))) < 1e-9
    assert certify.fidelity_lower_bound(2.0) == 0.0


def test_fidelity_bound_domain():
    with pytest.raises(DomainError):
        certify.fidelity_lower_bound(0.5)
    with pytest.raises(DomainError):
        certify.fidelity_lower_bound(2.5)


def shots_behavior(probs, n, settings=None):
    settings = settings or tuple(str(i) for i in range(probs.shape[0]))
    return process.Behavior(
        settings=settings, probs=probs, shots={x: n for x in settings}
    )


def test_bootstrap_vanishes_in_the_infinite_count_limit(ideal_memory_behavior):
    n = 10**9
    probs = np.rint(np.asarray(ideal_memory_behavior.probs) * n) / n
    beh = shots_behavior(probs, n, ideal_memory_behavior.settings)
    errs = certify.bootstrap_errors(beh, n_resamples=400, seed=7)
    assert errs["gamma"] < 1e-4
    assert errs["pearl_delta"] < 1e-4


def test_bootstrap_deterministic_given_seed(obs_fixture):
    beh = dataio.counts_to_behavior(dataio.ingest_counts(obs_fixture))
    a = certify.bootstrap_errors(beh, n_resamples=500, seed=42)
    b = certify.bootstrap_errors(beh, n_resamples=500, seed=42)
    assert a == b
    c = certify.bootstrap_errors(beh, n_resamples=500, seed=43)
    assert a != c


def test_bootstrap_frozen_argmin_mode(obs_fixture):
    beh = dataio.counts_to_behavior(dataio.ingest_counts(obs_fixture))
    live = certify.bootstrap_errors(beh, n_resamples=500, seed=1)
    frozen = certify.bootstrap_errors(beh, n_resamples=500, seed=1, frozen_argmin=True)
    assert live["gamma"] > 0 and frozen["gamma"] > 0


def test_report_serialization_round_trip(obs_fixture, do_fixture):
    beh = dataio.counts_to_behavior(dataio.ingest_counts(obs_fixture))
    table = dataio.counts_to_behavior(dataio.ingest_counts(do_fixture))
    report = certify.certify_behavior(beh, do_table=table, n_resamples=300, seed=42)
    doc = report.to_json_dict()
    assert json.loads(json.dumps(doc)) == doc
    assert set(doc) == {
        "gamma", "gamma_stderr", "pearl_delta", "acde", "chsh", "fidelity_lb",
        "verdict_nonclassical", "verdict_crosstalk_witnessed", "argmin",
        "seed", "resamples",
    }
    assert set(doc["argmin"]) == {"00", "01", "10", "11"}


def test_functional_ranges_on_deterministic_tables():
    # gamma in [0, 2], pearl in [0, 2], acde in [0, 1] over deterministic tables
    for a0, a1, b0, b1 in itertools.product((0, 1), repeat=4):
        probs = np.zeros((2, 2, 2))
        probs[0, a0, b0] = 1.0
        probs[1, a1, b1] = 1.0
        beh = process.Behavior(settings=("0", "1"), probs=probs)
        assert 0.0 <= certify.gamma_functional(beh)[0] <= 2.0
        assert 0.0 <= certify.pearl_delta(beh) <= 2.0
    table = process.DoTable(
        probs=np.stack([np.eye(2), np.eye(2)[::-1]]), do_settings=("0", "1")
    )
    assert 0.0 <= certify.acde(table) <= 1.0


def test_gamma_values_batch_equals_sequential_loop():
    # the batched kernel must reproduce, bit for bit, the per-table loop
    # total += min_x T[x, b0, b1] over (b0, b1) in order, with ties taken
    # at the smallest setting index; tables on a 1/8 grid force ties
    for n_x in (1, 2, 3, 5, 8):
        probs = RNG.dirichlet(np.ones(4), size=(300, n_x)).reshape(300, n_x, 2, 2)
        probs[:100] = np.round(probs[:100] * 8) / 8
        probs[:100] /= probs[:100].sum(axis=(-2, -1), keepdims=True)
        gammas, argmin = certify.gamma_values(probs.reshape(3, 100, n_x, 2, 2))
        gammas, argmin = gammas.reshape(300), argmin.reshape(300, 2, 2)
        for r, p in enumerate(probs):
            total = 0.0
            for b0, b1 in itertools.product((0, 1), repeat=2):
                terms = [p[x, 0, b0] + p[x, 1, b1] for x in range(n_x)]
                idx = terms.index(min(terms))
                assert argmin[r, b0, b1] == idx
                total += terms[idx]
            assert gammas[r] == total
