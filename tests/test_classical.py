import numpy as np
import pytest

from tpmcert import certify, classical
from tpmcert.exceptions import ResourceLimitError, ValidationError

from oracles import classical_vertex_values

RNG = np.random.default_rng(505)


def test_strategy_counts():
    assert len(classical.enumerate_strategies(4, crosstalk=False)) == 64
    assert len(classical.enumerate_strategies(2, crosstalk=False)) == 16
    assert len(classical.enumerate_strategies(2, crosstalk=True)) == 64


def test_enumeration_is_duplicate_free():
    seen = {
        (s.a_response, s.b_response)
        for s in classical.enumerate_strategies(3, crosstalk=True)
    }
    assert len(seen) == 2**3 * 2**6


def test_enumeration_resource_limit():
    with pytest.raises(ResourceLimitError):
        classical.enumerate_strategies(8, crosstalk=True)


def test_strategy_behavior_echo_strategy():
    s = classical.ClassicalStrategy(
        a_response=(0, 0, 0), b_response=(0, 1), crosstalk=False
    )
    beh, do = classical.strategy_behavior(s)
    assert np.all(beh.probs[:, 0, 0] == 1.0)
    for a in (0, 1):
        assert do.probs[a, 0, a] == 1.0


def test_crosstalk_parity_strategy_has_maximal_acde():
    # b(a, x) = x mod 2 leaks the setting straight to the second outcome
    n = 4
    parity = tuple(x % 2 for x in range(n))
    s = classical.ClassicalStrategy(
        a_response=(0,) * n, b_response=(parity, parity), crosstalk=True
    )
    _, do = classical.strategy_behavior(s)
    assert certify.acde(do) == 1.0
    beh, table = classical.strategy_behavior(s)
    assert certify.corrected_lhs(beh, table) >= 1.0


def test_mixture_gamma_dominates_vertex_minimum():
    s1 = classical.ClassicalStrategy((0, 1, 0, 1), (0, 1), False)
    s2 = classical.ClassicalStrategy((1, 0, 1, 0), (1, 0), False)
    g1 = certify.gamma_functional(classical.strategy_behavior(s1)[0])[0]
    g2 = certify.gamma_functional(classical.strategy_behavior(s2)[0])[0]
    beh, _ = classical.mix_behaviors([s1, s2], np.array([0.35, 0.65]))
    assert certify.gamma_functional(beh)[0] >= min(g1, g2) - 1e-12


def test_classical_minimum_gamma_is_one():
    for n in (2, 4):
        assert classical.classical_minimum_gamma(n) == 1.0
    # with a single setting the functional degenerates to
    # sum_{b0,b1} [P(0,b0) + P(1,b1)] = 2 for every behavior
    assert classical.classical_minimum_gamma(1) == 2.0


def test_classical_minimum_holds_on_random_mixtures():
    strategies = classical.enumerate_strategies(4, crosstalk=False)
    for _ in range(200):
        k = RNG.integers(2, 6)
        chosen = [strategies[i] for i in RNG.choice(len(strategies), size=k)]
        beh, _ = classical.mix_behaviors(chosen, RNG.dirichlet(np.ones(k)))
        assert certify.gamma_functional(beh)[0] >= 1.0 - 1e-12


def test_every_vertex_satisfies_facets():
    for s in classical.enumerate_strategies(4, crosstalk=False):
        beh, _ = classical.strategy_behavior(s)
        assert certify.gamma_functional(beh)[0] >= 1.0 - 1e-12
        assert certify.pearl_delta(beh) <= 1.0 + 1e-12


def test_corrected_bound_over_crosstalk_vertices():
    vertices = classical.enumerate_strategies(2, crosstalk=True)
    assert classical.check_corrected_bound(vertices) >= 1.0 - 1e-12
    plain = classical.enumerate_strategies(2, crosstalk=False)
    assert classical.check_corrected_bound(plain) == 1.0


def test_pearl_violation_exists_among_crosstalk_vertices():
    worst = max(
        certify.pearl_delta(classical.strategy_behavior(s)[0])
        for s in classical.enumerate_strategies(2, crosstalk=True)
    )
    assert worst > 1.0


def test_lemma_check_single_vertices():
    for s in classical.enumerate_strategies(2, crosstalk=False):
        assert classical.lemma1_check(s)


def test_lemma_check_random_mixtures():
    strategies = classical.enumerate_strategies(4, crosstalk=False)
    assert classical.lemma1_check(strategies, mixtures=1000, seed=11)


def test_lemma_check_crosstalk_vertex_can_fail():
    # the setting reaches b directly, so min_x P(b|do(a,x)) can undercut
    # sup_x P(a, b | x)
    failing = [
        s
        for s in classical.enumerate_strategies(2, crosstalk=True)
        if not classical.lemma1_check(s)
    ]
    assert failing


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


def test_classical_minima_at_five_settings():
    assert classical.classical_minimum_gamma(5) == 1.0
    vertices = classical.enumerate_strategies(5, crosstalk=True)
    assert len(vertices) == 2**15
    assert classical.check_corrected_bound(vertices) == 1.0


def test_vertex_set_is_read_only_and_indexes_like_a_list():
    vertices = classical.enumerate_strategies(3, crosstalk=True)
    assert vertices.a_response.dtype == np.int8
    assert vertices.b_response.shape == (len(vertices), 2, 3)
    assert classical.enumerate_strategies(3).b_response.shape == (32, 2, 1)
    with pytest.raises(ValueError):
        vertices.a_response[0, 0] = 1
    assert vertices[np.int64(5)] == vertices[5] == list(vertices)[5]
    assert vertices[-1] == classical.ClassicalStrategy((1, 1, 1), ((1,) * 3,) * 2, True)
    with pytest.raises(IndexError):
        vertices[len(vertices)]
    # a list of strategies gives the same values as the vertex set it came from
    gamma, lhs = classical.vertex_values(vertices)
    listed = classical.vertex_values(list(vertices))
    assert np.array_equal(gamma, listed[0]) and np.array_equal(lhs, listed[1])


def test_malformed_strategy_responses_are_rejected():
    for a_resp, b_resp in (((2, 0), (0, 1)), ((0, -1), (0, 1)), ((0, 1), (0, 2))):
        s = classical.ClassicalStrategy(a_resp, b_resp, crosstalk=False)
        with pytest.raises(ValidationError):
            classical.strategy_behavior(s)
    with pytest.raises(ValidationError):
        classical.check_corrected_bound([classical.ClassicalStrategy((0, 1), (0, 1), True)])
