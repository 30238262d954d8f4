import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tpmcert import certify, classical, linalg, proclib, process
from tpmcert.exceptions import ResourceLimitError, ValidationError

from helpers import lemma1_check, mixture, vertex_table_values
from oracles import (classical_vertex_values, no_crosstalk_feasible, random_binary_povm,
                     random_density, random_instrument_arrays, random_unitary)

RNG = np.random.default_rng(505)


def vertex_set(a_response, b_response, crosstalk):
    """A VertexSet of the given response lists, as int8 arrays."""
    return classical.VertexSet(np.array(a_response, dtype=np.int8),
                               np.array(b_response, dtype=np.int8), crosstalk)


def test_strategy_counts():
    assert len(classical.enumerate_strategies(4, crosstalk=False)) == 64
    assert len(classical.enumerate_strategies(2, crosstalk=False)) == 16
    assert len(classical.enumerate_strategies(2, crosstalk=True)) == 64


def test_enumeration_is_duplicate_free():
    vertices = classical.enumerate_strategies(3, crosstalk=True)
    rows = np.concatenate([vertices.a_response, vertices.b_response.reshape(len(vertices), -1)], 1)
    assert len(np.unique(rows, axis=0)) == 2**3 * 2**6


def test_enumeration_resource_limit():
    with pytest.raises(ResourceLimitError):
        classical.enumerate_strategies(8, crosstalk=True)


def test_strategy_behavior_echo_strategy():
    s = vertex_set([[0, 0, 0]], [[[0], [1]]], crosstalk=False)
    beh, do = mixture(s, [1.0])
    assert np.all(beh.probs[:, 0, 0] == 1.0)
    for a in (0, 1):
        assert do.probs[a, 0, a] == 1.0


def test_crosstalk_parity_strategy_has_maximal_acde():
    # b(a, x) = x mod 2 leaks the setting straight to the second outcome
    n = 4
    parity = tuple(x % 2 for x in range(n))
    s = vertex_set([(0,) * n], [(parity, parity)], crosstalk=True)
    _, do = mixture(s, [1.0])
    assert certify.acde(do) == 1.0
    beh, table = mixture(s, [1.0])
    assert certify.gamma_functional(beh)[0] + 2 * certify.acde(table) >= 1.0


def test_mixture_gamma_dominates_vertex_minimum():
    pair = vertex_set([(0, 1, 0, 1), (1, 0, 1, 0)], [[[0], [1]], [[1], [0]]], False)
    g1 = certify.gamma_functional(mixture(pair, [1.0, 0.0])[0])[0]
    g2 = certify.gamma_functional(mixture(pair, [0.0, 1.0])[0])[0]
    beh, _ = mixture(pair, np.array([0.35, 0.65]))
    assert certify.gamma_functional(beh)[0] >= min(g1, g2) - 1e-12


def test_classical_minimum_gamma_is_one():
    for n in (2, 4):
        assert classical.classical_minimum_gamma(n) == 1.0
    # with a single setting the functional degenerates to
    # sum_{b0,b1} [P(0,b0) + P(1,b1)] = 2 for every behavior
    assert classical.classical_minimum_gamma(1) == 2.0


def test_minimum_gamma_reads_behavior_tables_only(monkeypatch):
    # ACDE is evaluated once per process, for the type-set table; the
    # no-crosstalk minimum reads only the table's gamma column, so it does
    # not move when the corrected column is unreadable
    calls = []
    acde_values = certify.acde_values

    def counted(probs):
        calls.append(probs.shape)
        return acde_values(probs)

    classical._type_sets.cache_clear()
    monkeypatch.setattr(certify, "acde_values", counted)
    for n in (1, 2, 3, 4):
        vertices = classical.enumerate_strategies(n, crosstalk=True)
        _, gammas, corrected = classical_vertex_values(n, True)
        assert classical.vertex_values(vertices)[0].min() == min(gammas)
        assert classical.check_corrected_bound(vertices) == min(corrected) == (2.0 if n == 1 else 1.0)
    assert calls == [(255, 2, 8, 2)]
    gamma, corrected, sizes, plain = classical._type_sets()
    unreadable = np.full_like(corrected, np.nan)
    monkeypatch.setattr(classical, "_type_sets", lambda: (gamma, unreadable, sizes, plain))
    assert [classical.classical_minimum_gamma(n) for n in (1, 2, 3, 4)] == [2.0, 1.0, 1.0, 1.0]
    assert np.isnan(classical.classical_minimum_corrected(4))
    assert len(calls) == 1


def test_type_set_table_is_built_once_per_process(monkeypatch):
    calls = []
    gamma_values = certify.gamma_values

    def counted(probs):
        calls.append(probs.shape)
        return gamma_values(probs)

    classical._type_sets.cache_clear()
    monkeypatch.setattr(certify, "gamma_values", counted)
    for n in (1, 3, 7, 20):
        classical.classical_minimum_gamma(n)
        classical.classical_minimum_corrected(n)
    for crosstalk in (False, True):
        vertices = classical.enumerate_strategies(3, crosstalk=crosstalk)
        classical.vertex_values(vertices)
        classical.check_corrected_bound(vertices)
    assert calls == [(255, 8, 2, 2)]
    assert classical._type_sets.cache_info().misses == 1


def test_classical_minimum_holds_on_random_mixtures():
    strategies = classical.enumerate_strategies(4, crosstalk=False)
    for _ in range(200):
        k = RNG.integers(2, 6)
        chosen = RNG.choice(len(strategies), size=k)
        chosen = classical.VertexSet(strategies.a_response[chosen],
                                     strategies.b_response[chosen], False)
        beh, _ = mixture(chosen, RNG.dirichlet(np.ones(k)))
        assert certify.gamma_functional(beh)[0] >= 1.0 - 1e-12


def test_every_vertex_satisfies_facets():
    vertices = classical.enumerate_strategies(4, crosstalk=False)
    for one_hot in np.eye(len(vertices)):
        beh, _ = mixture(vertices, one_hot)
        assert certify.gamma_functional(beh)[0] >= 1.0 - 1e-12
        assert certify.pearl_delta(beh) <= 1.0 + 1e-12


def test_corrected_bound_over_crosstalk_vertices():
    vertices = classical.enumerate_strategies(2, crosstalk=True)
    assert classical.check_corrected_bound(vertices) >= 1.0 - 1e-12
    plain = classical.enumerate_strategies(2, crosstalk=False)
    assert classical.check_corrected_bound(plain) == 1.0


def test_pearl_violation_exists_among_crosstalk_vertices():
    vertices = classical.enumerate_strategies(2, crosstalk=True)
    worst = max(
        certify.pearl_delta(mixture(vertices, one_hot)[0])
        for one_hot in np.eye(len(vertices))
    )
    assert worst > 1.0


def test_lemma_check_single_vertices():
    # without mixtures every vertex is checked and all must pass
    assert lemma1_check(classical.enumerate_strategies(2, crosstalk=False))


def test_lemma_check_random_mixtures():
    strategies = classical.enumerate_strategies(4, crosstalk=False)
    assert lemma1_check(strategies, mixtures=1000, seed=11)


def test_lemma_check_crosstalk_vertex_can_fail():
    # the setting reaches b directly, so min_x P(b|do(a,x)) can undercut
    # sup_x P(a, b | x); without mixtures the check fails if one vertex does
    assert not lemma1_check(classical.enumerate_strategies(2, crosstalk=True))


def test_vertex_values_match_independent_oracle():
    for n in (1, 2, 3, 4):
        for crosstalk in (False, True):
            vertices = classical.enumerate_strategies(n, crosstalk=crosstalk)
            responses, gammas, corrected = classical_vertex_values(n, crosstalk)
            assert vertices.a_response.tolist() == [list(f) for f, _ in responses]
            flat_b = vertices.b_response.reshape(len(vertices), -1)
            assert flat_b.tolist() == [list(g) for _, g in responses]
            gamma, lhs = classical.vertex_values(vertices)
            assert gamma.tolist() == gammas
            assert lhs.tolist() == corrected


@pytest.mark.parametrize("n, crosstalk", [(6, False), (7, False), (14, False), (15, False),
                                          (17, False), (2, True), (3, True), (5, True),
                                          (6, True)])
def test_enumeration_is_the_binary_expansion_at_every_digit_type(n, crosstalk):
    # vertex v's responses are the binary digits of v, most significant
    # first: a(x) for every x, then b(0, x) and b(1, x).  The digit table is
    # built from an index of the narrowest unsigned type that holds every v
    # (uint8 up to 8 digits, uint16 up to 16, uint32 above); these 8, 9, 16,
    # 17, 19 and 6, 9, 15, 18 digits sit on both sides of every switch
    k = n if crosstalk else 1
    bits = n + 2 * k
    digits = np.indices((2,) * bits, dtype=np.int8).reshape(bits, -1).T  # (V, bits)
    vertices = classical.enumerate_strategies(n, crosstalk=crosstalk)
    assert np.array_equal(vertices.a_response, digits[:, :n])
    assert np.array_equal(vertices.b_response, digits[:, n:].reshape(-1, 2, k))
    for arr in (vertices.a_response, vertices.b_response):
        assert arr.dtype == np.int8 and not arr.flags.writeable and arr.strides[0] == 1


def test_classical_minima_at_five_settings():
    assert classical.classical_minimum_gamma(5) == 1.0
    vertices = classical.enumerate_strategies(5, crosstalk=True)
    assert len(vertices) == 2**15
    assert classical.check_corrected_bound(vertices) == 1.0


@pytest.mark.parametrize("crosstalk", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_type_set_values_are_the_per_vertex_values(n, crosstalk):
    # every vertex reads from its type set the bytes that its own tables
    # give: on the enumeration, on random draws from it, and on vertex-major
    # and int64 copies of both
    vertices = classical.enumerate_strategies(n, crosstalk=crosstalk)
    want = vertex_table_values(vertices)
    if n <= 4 or not crosstalk:
        _, gammas, corrected = classical_vertex_values(n, crosstalk)
        assert want[0].tolist() == gammas and want[1].tolist() == corrected
    drawn = np.random.default_rng([n, crosstalk]).integers(len(vertices), size=97)
    for rows in (slice(None), drawn):
        for layout in (np.asarray, np.ascontiguousarray, lambda r: r.astype(np.int64)):
            strategies = classical.VertexSet(layout(vertices.a_response[rows]),
                                             layout(vertices.b_response[rows]), crosstalk)
            for got, values in zip(classical.vertex_values(strategies), want):
                assert got.dtype == values.dtype and got.tobytes() == values[rows].tobytes()


def test_type_set_minima_are_the_enumerated_minima():
    for n in range(1, 7):
        gamma, _ = vertex_table_values(classical.enumerate_strategies(n))
        _, corrected = vertex_table_values(classical.enumerate_strategies(n, crosstalk=True))
        assert classical.classical_minimum_gamma(n) == gamma.min()
        assert classical.classical_minimum_corrected(n) == corrected.min()
    # past the enumeration limit, where no vertex is listed
    for n, want in ((1, 2.0), (7, 1.0), (8, 1.0), (20, 1.0)):
        assert classical.classical_minimum_gamma(n) == want
        assert classical.classical_minimum_corrected(n) == want
    for n in (0, -1):
        for minimum in (classical.classical_minimum_gamma, classical.classical_minimum_corrected):
            with pytest.raises(ValidationError, match="need at least one setting"):
                minimum(n)


@pytest.mark.parametrize("count", [2.5, 1.9, 3.0, math.nan, "3"])
def test_a_settings_count_that_is_not_an_integer_is_refused(count):
    # int() would truncate 2.5 to 2 (16 vertices) and 1.9 to 1 (gamma 2.0)
    for call in (classical.vertex_count, classical.enumerate_strategies,
                 classical.classical_minimum_gamma, classical.classical_minimum_corrected):
        with pytest.raises(ValidationError, match=f"settings count {count!r} is not an integer"):
            call(count)
    assert classical.vertex_count(np.int64(2)) == 16


def test_vertex_set_is_read_only_and_indexes_like_a_list():
    vertices = classical.enumerate_strategies(3, crosstalk=True)
    assert vertices.a_response.dtype == np.int8
    assert vertices.b_response.shape == (len(vertices), 2, 3)
    assert classical.enumerate_strategies(3).b_response.shape == (32, 2, 1)
    with pytest.raises(ValueError):
        vertices.a_response[0, 0] = 1
    # the last vertex answers 1 to everything
    assert vertices.a_response[-1].tolist() == [1, 1, 1]
    assert vertices.b_response[-1].tolist() == [[1, 1, 1]] * 2


def test_malformed_strategy_responses_are_rejected():
    for a_resp, b_resp in (((2, 0), (0, 1)), ((0, -1), (0, 1)), ((0, 1), (0, 2))):
        with pytest.raises(ValidationError):
            vertex_set([a_resp], [[[b] for b in b_resp]], crosstalk=False)


@pytest.mark.parametrize("bad", [2, -1, 0.5, math.nan])
@pytest.mark.parametrize("crosstalk", [False, True])
def test_vertex_set_rejects_a_response_outside_0_1_at_construction(bad, crosstalk):
    # the tables of the vertices are built from the responses unchecked: a
    # response of 0.5 would read a gamma of 0, below every classical value,
    # and NaN one of 2; the bad array is int64 or float64, the good one int8
    good_a = np.array([[0, 1, 1]], dtype=np.int8)
    good_b = np.zeros((1, 2, 3 if crosstalk else 1), dtype=np.int8)
    bad_a, bad_b = good_a.astype(type(bad)), good_b.astype(type(bad))
    bad_a[0, 0] = bad_b[0, 1, 0] = bad
    for a, b in ((bad_a, good_b), (good_a, bad_b)):
        with pytest.raises(ValidationError, match="not 0 or 1"):
            classical.VertexSet(a, b, crosstalk)
    assert len(classical.VertexSet(good_a, good_b, crosstalk)) == 1


def test_vertex_set_rejects_responses_of_the_wrong_shape():
    # a no-crosstalk b_response in a crosstalk set would give the bounds of a
    # set without crosstalk; a b_response with two settings beside an
    # a_response with three would end in a numpy broadcast error; no vertex,
    # or vertices of no setting, have no minimum (numpy's reduction or
    # reshape error, or the NaN of the empty type set)
    for a, b, crosstalk in (([[0, 1]], [[[0], [1]]], True), ([[0, 1, 1]], [[[0, 1], [1, 0]]], True),
                            (np.zeros((0, 3)), np.zeros((0, 2, 3)), True),
                            (np.zeros((3, 0)), np.zeros((3, 2, 0)), True),
                            (np.zeros((0, 3)), np.zeros((0, 2, 1)), False),
                            (np.zeros((3, 0)), np.zeros((3, 2, 1)), False)):
        a, b = np.array(a, dtype=np.int8), np.array(b, dtype=np.int8)
        with pytest.raises(ValidationError) as info:
            classical.VertexSet(a, b, crosstalk)
        assert f"shape {a.shape}" in str(info.value) and f"shape {b.shape}" in str(info.value)


@pytest.mark.parametrize("crosstalk", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_values_do_not_depend_on_the_vertex_layout(n, crosstalk):
    # enumerate_strategies stores its vertices settings-major; a copy of its
    # responses is vertex-major
    vertices = classical.enumerate_strategies(n, crosstalk=crosstalk)
    listed = classical.VertexSet(np.ascontiguousarray(vertices.a_response),
                                 np.ascontiguousarray(vertices.b_response), crosstalk)
    assert vertices.a_response.strides[0] == 1
    assert listed.a_response.strides[0] == n
    _, gammas, corrected = classical_vertex_values(n, crosstalk)
    for strategies in (vertices, listed):
        gamma, lhs = classical.vertex_values(strategies)
        assert gamma.tolist() == gammas
        assert lhs.tolist() == corrected
    w = np.random.default_rng(n).dirichlet(np.ones(len(vertices)))
    for got, want in zip(mixture(vertices, w), mixture(listed, w)):
        assert np.array_equal(got.probs, want.probs)
    for kwargs in ({}, {"mixtures": 20, "seed": n}):
        assert lemma1_check(vertices, **kwargs) == lemma1_check(listed, **kwargs)


def test_tables_keep_the_settings_axis_outermost():
    # _tables builds settings-major tables 13 to 20 times faster than a
    # vertex-major one-hot build at |X| = 4 to 6 with crosstalk, and the pair
    # minima of certify.gamma_values reduce over settings 3 to 7 times faster
    # on them; a refactor that loses the layout must fail here rather than go
    # unnoticed
    probs, do = classical._tables(classical.enumerate_strategies(4, crosstalk=True))
    assert probs.shape == (4096, 4, 2, 2) and do.shape == (4096, 2, 4, 2)
    assert np.argmax(probs.strides) == 1
    assert np.argmax(do.strides) == 2


def _drawn_behavior(case) -> process.Behavior:
    """The exact behavior of a drawn case: a random process and instrument
    ("process"), a Bell state depolarised to visibility v through cnot_swap
    with settings at angles theta in the x-z plane and the memory test's
    re-preparations and final measurement ("bell"), or a random mixture of
    the no-crosstalk vertices ("mixture")."""
    kind, first, second = case
    if kind == "bell":
        rho = first * linalg.bell_state() + (1 - first) * np.eye(4) / 4
        op = process.build_process(rho, proclib.component("unitary", "cnot_swap"))
        povm = {}
        for i, theta in enumerate(second):
            up = linalg.bloch_projector([math.sin(theta), 0.0, math.cos(theta)])
            povm[str(i)] = (up, linalg.ID2 - up)
        inst = process.MpInstrument(
            povm=povm, repreparations=proclib.component("repreparations", "plus_minus"))
        return process.born_rule(op, inst, proclib.component("final_measurement", "xz_diagonal"))
    rng = np.random.default_rng(first)
    if kind == "mixture":
        vertices = classical.enumerate_strategies(second, crosstalk=False)
        return mixture(vertices, rng.dirichlet(np.full(len(vertices), 0.3)))[0]
    effects, reps = random_instrument_arrays(rng, second)
    op = process.build_process(random_density(rng, 4), random_unitary(rng, 4))
    inst = process.MpInstrument(povm={str(i): e for i, e in enumerate(effects)},
                                repreparations=reps)
    return process.born_rule(op, inst, random_binary_povm(rng))


seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=150, deadline=None)
@given(case=st.tuples(st.just("process"), seeds, st.integers(1, 4))
       | st.tuples(st.just("bell"), st.floats(0.5, 1.0),
                   st.lists(st.floats(0.0, 2 * math.pi), min_size=2, max_size=4))
       | st.tuples(st.just("mixture"), seeds, st.integers(1, 4)))
@example(case=("bell", 1.0, [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]))  # the memory test
@example(case=("bell", 0.8, [0.0, math.pi / 2]))
def test_exact_verdicts_hold_against_the_no_crosstalk_polytope(case):
    # an exact-statistics verdict that excludes the no-crosstalk model, either
    # gamma < 1 without a do-table or Pearl's delta > 1, must mean that the
    # behavior lies outside that model's polytope, which an LP over its
    # vertices decides; every mixture of the vertices lies inside, at gamma >= 1
    behavior = _drawn_behavior(case)
    report = certify.certify_behavior(behavior)
    feasible = no_crosstalk_feasible(behavior.probs)
    if case[0] == "mixture":
        assert feasible and report.gamma >= 1.0 - 1e-12
    if report.verdict_nonclassical or report.verdict_crosstalk_witnessed:
        assert not feasible
