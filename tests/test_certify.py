import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from tpmcert import certify, classical, dataio, linalg, proclib, process
from tpmcert.exceptions import DomainError, ValidationError

from helpers import memory_process, mixture
from oracles import (acde_formula, bootstrap_errors_reference, gamma_formula, pearl_formula,
                     random_binary_povm, random_density, random_unitary)

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
    got = certify.gamma_functional(ideal_memory_behavior)[0] + 2 * certify.acde(zero)
    assert abs(got - (2 - SQRT2)) < 1e-12
    assert certify.gamma_functional(uniform_behavior())[0] + 2 * certify.acde(zero) == 2.0


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


def test_bootstrap_vanishes_in_the_infinite_count_limit(ideal_memory_behavior):
    n = 10**9
    counts = np.rint(np.asarray(ideal_memory_behavior.probs) * n).astype(np.int64)
    beh = process.Behavior(settings=ideal_memory_behavior.settings, counts=counts)
    errs = certify.bootstrap_errors(beh, n_resamples=400, seed=7)
    assert errs["gamma"] < 1e-4
    assert errs["pearl_delta"] < 1e-4


def test_bootstrap_deterministic_given_seed(obs_fixture):
    beh = dataio.ingest_counts(obs_fixture)
    a = certify.bootstrap_errors(beh, n_resamples=500, seed=42)
    b = certify.bootstrap_errors(beh, n_resamples=500, seed=42)
    assert a == b
    c = certify.bootstrap_errors(beh, n_resamples=500, seed=43)
    assert a != c


def test_bootstrap_frozen_argmin_mode(obs_fixture):
    beh = dataio.ingest_counts(obs_fixture)
    live = certify.bootstrap_errors(beh, n_resamples=500, seed=1)
    frozen = certify.bootstrap_errors(beh, n_resamples=500, seed=1, frozen_argmin=True)
    assert live["gamma"] > 0 and frozen["gamma"] > 0


@pytest.mark.parametrize("sigma_k", [math.nan, math.inf, 0.0, -3.0])
def test_certify_behavior_rejects_a_margin_that_is_not_positive(obs_fixture, sigma_k):
    # NaN would decide every verdict False, a negative margin certify below
    # the plug-in value
    behavior = dataio.ingest_counts(obs_fixture)
    with pytest.raises(ValidationError, match="sigma_k"):
        certify.certify_behavior(behavior, n_resamples=20, sigma_k=sigma_k)


def test_report_serialization_round_trip(obs_fixture, do_fixture):
    beh = dataio.ingest_counts(obs_fixture)
    table = dataio.ingest_counts(do_fixture)
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
    # total += min_x T[x, b0, b1] over (b0, b1) in order, and gamma_functional
    # the same gamma per table with ties taken at the smallest setting index;
    # tables on a 1/8 grid force ties
    for n_x in (1, 2, 3, 5, 8):
        probs = RNG.dirichlet(np.ones(4), size=(300, n_x)).reshape(300, n_x, 2, 2)
        probs[:100] = np.round(probs[:100] * 8) / 8
        probs[:100] /= probs[:100].sum(axis=(-2, -1), keepdims=True)
        gammas = certify.gamma_values(probs.reshape(3, 100, n_x, 2, 2)).reshape(300)
        labels = tuple(str(x) for x in range(n_x))
        for r, p in enumerate(probs):
            gamma, argmin = certify.gamma_functional(process.Behavior(settings=labels, probs=p))
            total = 0.0
            for b0, b1 in itertools.product((0, 1), repeat=2):
                terms = [p[x, 0, b0] + p[x, 1, b1] for x in range(n_x)]
                idx = terms.index(min(terms))
                assert argmin[b0, b1] == labels[idx]
                total += terms[idx]
            assert gammas[r] == gamma == total


def _settings_major(table):
    """table (R, ..., 2) as a view of the same shape whose memory holds the
    leading axis innermost, the layout of bootstrap_errors' resamples."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(table, 0, -1)), -1, 0)


def _layouts(table):
    """table (R, ...) in C order, settings-major, with two leading axes, and
    its first row alone."""
    return (table, _settings_major(table), table.reshape((3, -1) + table.shape[1:]),
            table[0])


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_x", [1, 2, 3, 8])
def test_functionals_equal_the_plain_formulas_bit_for_bit(n_x):
    # 300 float tables, a third on a 1/8 grid so that pair terms tie across
    # settings, and 300 int8 0/1 tables; each stack in C order and
    # settings-major, with two leading axes, and one table alone
    rng = np.random.default_rng(22 + n_x)
    floats = rng.dirichlet(np.ones(4), size=(300, n_x)).reshape(300, n_x, 2, 2)
    floats[:100] = np.round(floats[:100] * 8) / 8
    cells = rng.integers(0, 4, (300, n_x, 1))
    onehot = (cells == np.arange(4)).astype(np.int8).reshape(300, n_x, 2, 2)
    dfloats = rng.dirichlet(np.ones(2), size=(300, 2, n_x))
    dfloats[:100] = np.round(dfloats[:100] * 8) / 8
    donehot = (rng.integers(0, 2, (300, 2, n_x, 1)) == np.arange(2)).astype(np.int8)
    for table, do in ((floats, dfloats), (onehot, donehot)):
        for probs in _layouts(table):
            _assert_same_bits(certify.gamma_values(probs), gamma_formula(probs))
            _assert_same_bits(certify._pearl(probs.max(axis=-3)), pearl_formula(probs))
        for probs in _layouts(do):
            _assert_same_bits(certify.acde_values(probs), acde_formula(probs))


@pytest.mark.parametrize("n_x", [1, 2, 3])
def test_functionals_of_vertex_tables_equal_the_plain_formulas(n_x):
    # the int8 tables the classical type-set table is built from keep int8
    probs, do = classical._tables(classical.enumerate_strategies(n_x, crosstalk=True))
    assert probs.dtype == do.dtype == np.int8
    _assert_same_bits(certify.gamma_values(probs), gamma_formula(probs))
    _assert_same_bits(certify._pearl(probs.max(axis=-3)), pearl_formula(probs))
    _assert_same_bits(certify.acde_values(do), acde_formula(do))


def _random_counts(rng, rows, on_grid):
    """Count rows of 4 (or 2) cells: zero cells often, and on a 1/8 grid of
    frequencies (so pair terms tie across settings) when on_grid."""
    cells = rows[-1]
    if on_grid:
        eighths = rng.multinomial(8, rng.dirichlet(np.ones(cells)), size=rows[:-1])
        return eighths * rng.integers(1, 50, size=rows[:-1] + (1,))
    weights = rng.dirichlet(np.ones(cells), size=rows[:-1])
    weights[rng.random(weights.shape) < 0.2] = 0.0
    weights[weights.sum(axis=-1) == 0, 0] = 1.0
    return rng.multinomial(rng.integers(1, 3000, size=rows[:-1]),
                           weights / weights.sum(axis=-1, keepdims=True))


@pytest.mark.parametrize("n_x", [2, 4, 8])
@pytest.mark.parametrize("with_do", [True, False], ids=["do_table", "no_do_table"])
@pytest.mark.parametrize("frozen", [False, True], ids=["live", "frozen"])
def test_bootstrap_memory_grows_with_the_resamples_alone(n_x, with_do, frozen):
    # the fold keeps one setting's resamples at a time in views of one
    # workspace: about 192 B per resample at every |X|.  An out= ufunc that
    # numpy copied, because it could not rule out overlap, would pass 200 B
    rng = np.random.default_rng(n_x)
    labels = tuple(f"s{x}" for x in range(n_x))
    beh = process.Behavior(settings=labels, counts=rng.integers(1, 1000, size=(n_x, 2, 2)))
    table = (process.DoTable(do_settings=labels, counts=rng.integers(1, 1000, size=(2, n_x, 2)))
             if with_do else None)
    n_resamples = 10_000
    certify.bootstrap_errors(beh, 2, do_table=table, frozen_argmin=frozen)  # first-call set-up
    tracemalloc.start()
    try:
        certify.bootstrap_errors(beh, n_resamples, do_table=table, frozen_argmin=frozen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n_resamples <= 200.0


def test_bootstrap_errors_equal_the_reference_bit_for_bit():
    # 432 random count tables: |X| = 1..8, a third on a 1/8 grid; a K = |X|
    # do-table, a do-table without a setting index, or none; R = 2, 3, 400;
    # live and frozen argmin
    rng = np.random.default_rng(8)
    cases = itertools.product(range(1, 9), (True, False, False), range(3), (2, 3, 400),
                              (False, True))
    for seed, (n_x, on_grid, kind, n_resamples, frozen) in enumerate(cases):
        labels = tuple(f"s{x}" for x in range(n_x))
        counts = _random_counts(rng, (n_x, 4), on_grid).reshape(n_x, 2, 2)
        beh = process.Behavior(settings=labels, counts=counts)
        table = None
        if kind == 0:
            table = process.DoTable(do_settings=labels,
                                    counts=_random_counts(rng, (2, n_x, 2), on_grid))
        elif kind == 1:
            table = process.DoTable(probs=np.full((2, 1, 2), 0.5))
        got = certify.bootstrap_errors(beh, n_resamples, seed=seed, do_table=table,
                                       frozen_argmin=frozen)
        want = bootstrap_errors_reference(beh, n_resamples, seed=seed, do_table=table,
                                          frozen_argmin=frozen)
        assert got == want, (seed, n_x, on_grid, kind, n_resamples, frozen)


def _plane_povm(theta):
    """The binary projective POVM along (sin theta, 0, cos theta) of the x-z plane."""
    e0 = np.array([[1 + math.cos(theta), math.sin(theta)],
                   [math.sin(theta), 1 - math.cos(theta)]], dtype=complex) / 2
    return e0, np.eye(2) - e0


def _crosstalk_mixture(rng, n_x):
    """Observational and do-tables of a random mixture of three deterministic
    crosstalk strategies a(x), b(a, x)."""
    obs, do = np.zeros((n_x, 2, 2)), np.zeros((2, n_x, 2))
    xs = np.arange(n_x)
    for w in rng.dirichlet(np.ones(3)):
        a, b = rng.integers(0, 2, n_x), rng.integers(0, 2, (2, n_x))
        np.add.at(obs, (xs, a, b[a, xs]), w)
        np.add.at(do, (np.arange(2)[:, None], xs, b), w)
    return obs, do


def _tables_on_both_sides_of_one():
    """Seeded count tables at |X| = 2..8, each a mixture lam (memory test with
    x-z plane settings) + (1 - lam) (crosstalk mixture) at 10^3 shots a row,
    above 1 at |X| = 2 and on both sides of it from |X| = 3 on, then a half-half mixture of two crosstalk vertices at |X| = 3 where
    gamma + 2 ACDE is exactly 1."""
    rng = np.random.default_rng(37)
    reps = proclib.component("repreparations", "plus_minus")
    final = proclib.component("final_measurement", "xz_diagonal")
    op = memory_process()
    q_do = process.do_probabilities(op, reps, final).probs
    for n_x in range(2, 9):
        labels = tuple(f"s{x}" for x in range(n_x))
        angles = [math.pi / 2, 0.0, 3 * math.pi / 2, math.pi][:n_x]
        angles += rng.uniform(0.0, 2 * math.pi, n_x - len(angles)).tolist()
        inst = process.MpInstrument(povm={x: _plane_povm(t) for x, t in zip(labels, angles)},
                                    repreparations=reps)
        q_obs = process.born_rule(op, inst, final).probs
        for lam in (1.0, 0.9, 0.6, 0.2):
            c_obs, c_do = _crosstalk_mixture(rng, n_x)
            obs = lam * q_obs + (1 - lam) * c_obs
            do = lam * np.repeat(q_do, n_x, axis=1) + (1 - lam) * c_do
            yield (process.Behavior(settings=labels, counts=rng.multinomial(
                       1000, obs.reshape(n_x, 4).clip(0.0)).reshape(n_x, 2, 2)),
                   process.DoTable(do_settings=labels,
                                   counts=rng.multinomial(1000, do.clip(0.0))))
    vertices = classical.VertexSet(np.array([[0, 0, 0], [1, 1, 0]], dtype=np.int8),
                                   np.array([[[0, 0, 1], [0, 0, 0]], [[1, 1, 1], [0, 1, 0]]],
                                            dtype=np.int8), crosstalk=True)
    beh, table = mixture(vertices, [0.5, 0.5])
    yield (process.Behavior(settings=beh.settings, counts=np.rint(beh.probs * 1000).astype(int)),
           process.DoTable(do_settings=table.do_settings,
                           counts=np.rint(table.probs * 1000).astype(int)))


class _CountingGenerator(np.random.Generator):
    """A generator that counts its binomial draws: the do-table's rows."""

    binomials = 0

    def binomial(self, n, p, size=None):
        self.binomials += 1
        return super().binomial(n, p, size)


def test_the_do_rows_are_drawn_only_where_they_can_decide_the_verdict(tmp_path, monkeypatch):
    # below gamma + 2 ACDE = 1 the bootstrap draws the 2 |X| do rows; at or
    # above it the verdict is False whatever their error, so none are drawn,
    # and report.json is the one that every row drawn would give
    n_resamples, sides = 300, set()
    for k, (beh, table) in enumerate(_tables_on_both_sides_of_one()):
        gamma, argmin = certify.gamma_functional(beh)
        delta, acde_value = certify.pearl_delta(beh), certify.acde(table)
        lhs = gamma + 2.0 * acde_value
        sides.add("at" if lhs == 1.0 else "below" if lhs < 1.0 else "above")
        for frozen in (False, True):
            full = certify.bootstrap_errors(beh, n_resamples, seed=k, do_table=table,
                                            frozen_argmin=frozen)
            want = certify.CertReport(
                gamma=gamma, gamma_stderr=full["gamma"], pearl_delta=delta, acde=acde_value,
                chsh=list(certify.chsh_decomposition(beh, argmin)),
                fidelity_lb=certify.fidelity_lower_bound(
                    min(max(gamma, certify.GAMMA_MAX_VIOLATION), 2.0)),
                verdict_nonclassical=bool(lhs < 1.0 - 3.0 * full["corrected_lhs"]),
                verdict_crosstalk_witnessed=bool(delta > 1.0 + 3.0 * full["pearl_delta"]),
                argmin={f"{b0}{b1}": x for (b0, b1), x in argmin.items()},
                seed=k, resamples=n_resamples)
            drawn = []

            def counting_rng(seed=None):
                drawn.append(_CountingGenerator(np.random.PCG64(seed)))
                return drawn[-1]

            with monkeypatch.context() as patch:
                patch.setattr(np.random, "default_rng", counting_rng)
                got = certify.certify_behavior(beh, do_table=table, n_resamples=n_resamples,
                                               seed=k, frozen_argmin=frozen)
            assert [g.binomials for g in drawn] == [2 * len(beh.settings) if lhs < 1.0 else 0]
            text = [dataio.emit_report(r, tmp_path / name).read_text()
                    for r, name in ((got, "got"), (want, "want"))]
            assert text[0] == text[1], (k, frozen)
    assert sides == {"below", "at", "above"}


@pytest.mark.parametrize("value", [True, False, np.True_, 2.5, 3.0, np.float64(3.0), "3", None])
def test_seed_and_resamples_must_be_integers(value):
    for check in (certify.check_seed, certify.check_resamples):
        with pytest.raises(ValidationError, match="is not an integer"):
            check(value)


def test_the_report_holds_python_ints(tmp_path, obs_fixture, ideal_memory_behavior):
    beh = dataio.ingest_counts(obs_fixture)
    # an int64 seed and resample count are recorded as ints, so json can write them
    got = certify.certify_behavior(beh, n_resamples=np.int64(200), seed=np.int64(42))
    assert type(got.seed) is int and type(got.resamples) is int
    want = certify.certify_behavior(beh, n_resamples=200, seed=42)
    assert (dataio.emit_report(got, tmp_path / "got").read_bytes()
            == dataio.emit_report(want, tmp_path / "want").read_bytes())
    # a flag or a fraction is refused, with counts or without
    for table in (beh, ideal_memory_behavior):
        for bad in (dict(seed=True), dict(seed=1.0), dict(n_resamples=2.5),
                    dict(n_resamples=True)):
            with pytest.raises(ValidationError, match="is not an integer"):
                certify.certify_behavior(table, **bad)
    with pytest.raises(ValidationError, match="is not an integer"):
        certify.bootstrap_errors(beh, 2.5)
