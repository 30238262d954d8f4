import math

import numpy as np
import pytest

from tpmcert import compat, linalg, proclib
from tpmcert.exceptions import DomainError, ValidationError

from oracles import (
    bias_and_bloch,
    bloch_effect,
    heisenberg_assemblage,
    random_binary_povm,
    random_density,
    sharpness,
    swap_assemblage_closed_form,
    swap_effect_params,
    swap_jm_grid_margins,
)

RNG = np.random.default_rng(606)


def jointly_measurable(p0, p1):
    """(compatible, margin) of two binary qubit POVMs given by the (bias,
    Bloch vector) of their outcome-0 effects, by compat._margin."""
    (g0, r0), (g1, r1) = p0, p1
    margin = float(compat._margin(g0, g1, float(np.dot(r0, r1)),
                                  sharpness(g0, r0), sharpness(g1, r1)))
    return margin >= -1e-10, margin


def test_induced_assemblage_identity_interaction():
    # the re-prepared qubit is measured directly: G = Tr(F rho_a) id
    reps = (random_density(RNG, 2), random_density(RNG, 2))
    final = random_binary_povm(RNG)
    asm = heisenberg_assemblage(np.eye(4, dtype=complex), reps, final)
    for a, rho in enumerate(reps):
        for b, fb in enumerate(final):
            want = np.trace(fb @ rho).real * linalg.ID2
            assert np.abs(asm[a][b] - want).max() < 1e-12


def test_induced_assemblage_swap_interaction():
    # a full swap routes the memory into the measurement: G = F_b, a-independent
    reps = (random_density(RNG, 2), random_density(RNG, 2))
    final = random_binary_povm(RNG)
    asm = heisenberg_assemblage(linalg.SWAP, reps, final)
    for a in (0, 1):
        for b, fb in enumerate(final):
            assert np.abs(asm[a][b] - fb).max() < 1e-12


def test_induced_assemblage_validity():
    for _ in range(20):
        alpha = RNG.uniform(0.0, math.pi)
        reps = (random_density(RNG, 2), random_density(RNG, 2))
        final = random_binary_povm(RNG)
        asm = heisenberg_assemblage(proclib.partial_swap(alpha), reps, final)
        for a in (0, 1):
            total = asm[a][0] + asm[a][1]
            assert np.abs(total - linalg.ID2).max() < 1e-9
            for g in asm[a]:
                assert np.linalg.eigvalsh(g).min() > -1e-10


def test_induced_assemblage_matches_commutator_closed_form():
    for _ in range(100):
        alpha = RNG.uniform(0.0, math.pi)
        reps = (random_density(RNG, 2), random_density(RNG, 2))
        final = random_binary_povm(RNG)
        asm = heisenberg_assemblage(proclib.partial_swap(alpha), reps, final)
        for a, rho in enumerate(reps):
            for b, fb in enumerate(final):
                want = swap_assemblage_closed_form(alpha, rho, fb)
                assert np.abs(asm[a][b] - want).max() < 1e-10


def test_effect_params_basics():
    gamma, bloch = bias_and_bloch(0.5 * linalg.ID2)
    assert gamma == 0.0 and np.abs(bloch).max() < 1e-14
    gamma, bloch = bias_and_bloch(linalg.dm(linalg.KET_0))
    assert abs(gamma) < 1e-14
    assert np.abs(bloch - np.array([0, 0, 1.0])).max() < 1e-14


def test_effect_params_round_trip():
    for _ in range(20):
        g = RNG.uniform(-0.6, 0.6)
        r = RNG.uniform(-0.4, 0.4, size=3)
        back_g, back_r = bias_and_bloch(bloch_effect(g, r))
        assert abs(back_g - g) < 1e-12
        assert np.abs(back_r - r).max() < 1e-12


def test_partial_swap_parametrization_components():
    alpha, theta_e = 1.1, 0.7
    (g0, r0), _ = swap_effect_params(
        alpha, np.array(0.3), np.array(theta_e), np.array(0.2), np.array(0.9)
    )
    c2 = math.cos(alpha / 2) ** 2
    s2 = math.sin(alpha / 2) ** 2
    assert abs(float(g0) - c2 * math.cos(theta_e)) < 1e-12
    assert abs(float(r0[..., 2]) - s2 * math.cos(theta_e)) < 1e-12


def test_parametrization_matches_assemblage_effects():
    for _ in range(25):
        alpha = RNG.uniform(0.0, math.pi)
        ts, te = RNG.uniform(0.0, math.pi, 2)
        ps, pe = RNG.uniform(0.0, 2 * math.pi, 2)

        def ket(t, p):
            return np.array([math.cos(t / 2), np.exp(1j * p) * math.sin(t / 2)])

        reps = (linalg.dm(ket(0, 0)), linalg.dm(ket(ts, ps)))
        f0 = linalg.dm(ket(te, pe))
        asm = heisenberg_assemblage(
            proclib.partial_swap(alpha), reps, (f0, linalg.ID2 - f0)
        )
        (g0, r0), (g1, r1) = swap_effect_params(
            alpha, np.array(ts), np.array(te), np.array(ps), np.array(pe)
        )
        for a, (g, r) in enumerate(((g0, r0), (g1, r1))):
            got_g, got_r = bias_and_bloch(asm[a][0])
            assert abs(got_g - float(g)) < 1e-10
            assert np.abs(got_r - np.asarray(r, dtype=float)).max() < 1e-10


def test_swap_pair_sharpness_is_cos_half_alpha():
    for _ in range(20):
        alpha = RNG.uniform(0.0, math.pi)
        reps = (
            linalg.dm(linalg.KET_0),
            random_density(RNG, 2),
        )
        f0 = linalg.bloch_projector(
            [math.sin(1.0) * math.cos(0.4), math.sin(1.0) * math.sin(0.4), math.cos(1.0)]
        )
        # the sharpness statement holds for projective final measurements
        reps = (reps[0], linalg.dm(np.linalg.eigh(reps[1])[1][:, 0]))
        asm = heisenberg_assemblage(
            proclib.partial_swap(alpha), reps, (f0, linalg.ID2 - f0)
        )
        for a in (0, 1):
            got = sharpness(*bias_and_bloch(asm[a][0]))
            assert abs(got - math.cos(alpha / 2)) < 1e-10


def test_jointly_measurable_commuting_pair():
    p = (0.0, np.array([0.0, 0.0, 1.0]))
    ok, margin = jointly_measurable(p, p)
    assert ok and margin >= -1e-10


def test_jointly_measurable_sharp_orthogonal_pair():
    px = (0.0, np.array([1.0, 0.0, 0.0]))
    pz = (0.0, np.array([0.0, 0.0, 1.0]))
    ok, margin = jointly_measurable(px, pz)
    assert not ok and margin < 0


def test_jointly_measurable_noisy_orthogonal_boundary():
    # visibility-eta x/z pair is compatible exactly up to 1/sqrt(2)
    for eta, expect in ((0.70, True), (0.72, False)):
        px = (0.0, np.array([eta, 0.0, 0.0]))
        pz = (0.0, np.array([0.0, 0.0, eta]))
        assert jointly_measurable(px, pz)[0] is expect


def test_jointly_measurable_symmetric():
    for _ in range(20):
        g = RNG.uniform(-0.5, 0.5, 2)
        pair = tuple((g[i], RNG.uniform(-0.4, 0.4, 3)) for i in range(2))
        assert jointly_measurable(*pair) == jointly_measurable(*pair[::-1])


def test_unsharp_pair_with_negative_second_factor_is_compatible():
    # regime where the naive single-inequality form would give a false negative
    p0 = (0.35, np.array([0.55, 0.0, 0.0]))
    p1 = (-0.35, np.array([0.0, 0.55, 0.0]))
    first = 1 - sharpness(*p0) ** 2 - sharpness(*p1) ** 2
    assert first < 0
    ok, margin = jointly_measurable(p0, p1)
    assert ok and margin >= 0


def test_singular_sharpness_with_bias_raises():
    with pytest.raises(DomainError):
        compat._margin(0.3, 0.0, 0.0, 0.0, 1.0)


def test_invalid_effect_params_rejected():
    # the complement of this effect has a negative eigenvalue, which the POVM
    # check of every measurement the library takes refuses
    e0 = bloch_effect(0.5, np.array([0.9, 0.0, 0.0]))
    with pytest.raises(ValidationError):
        linalg.assert_povm((e0, linalg.ID2 - e0))


@pytest.mark.parametrize("gamma, bloch", [
    (math.nan, [0.0, 0.0, 0.0]), (math.inf, [0.0, 0.0, 0.0]), (-math.inf, [0.0, 0.0, 0.0]),
    (0.0, [math.nan, 0.0, 0.0]), (0.0, [0.0, math.inf, 0.0]), (0.0, [0.0, 0.0, -math.inf]),
])
def test_non_finite_effect_params_rejected(gamma, bloch):
    with np.errstate(invalid="ignore"):  # inf times a zero entry is NaN
        e0 = bloch_effect(gamma, np.array(bloch))
    with pytest.raises(ValidationError):
        linalg.assert_povm((e0, linalg.ID2 - e0))


def test_compat_region_boundary():
    region = compat.partial_swap_compat_region(
        [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi], angle_grid_density=12
    )
    assert region[0.0] >= -1e-9
    assert region[math.pi / 4] >= -1e-9
    assert region[math.pi / 2] >= -1e-9
    assert region[math.pi] >= -1e-9
    assert region[3 * math.pi / 4] < -1e-3


def test_incompatible_instance_found_by_scan_and_criterion():
    # pick the scan's worst point at 3 pi / 4 and confirm via the pair test
    alpha = 3 * math.pi / 4
    n = 14
    thetas = np.linspace(0.0, math.pi, n)
    phis = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    ts, te, ps, pe = np.meshgrid(thetas, thetas, phis, phis, indexing="ij")
    (g0, r0), (g1, r1) = swap_effect_params(alpha, ts, te, ps, pe)
    margins = np.empty(ts.shape)
    it = np.nditer(margins, flags=["multi_index"], op_flags=["writeonly"])
    for cell in it:
        idx = it.multi_index
        cell[...] = jointly_measurable((float(g0[idx]), r0[idx]), (float(g1[idx]), r1[idx]))[1]
    assert margins.min() < -1e-3


def test_scan_scalars_match_effect_params():
    # the scan's closed-form (g0, g1, r0.r1) against the Bloch vectors of
    # the closed-form effect map, which the tests above pin to the assemblage
    rng = np.random.default_rng(7)
    for alpha in list(rng.uniform(0.0, math.pi, 8)) + [0.0, math.pi]:
        ts, te = rng.uniform(0.0, math.pi, (2, 2000))
        ps, pe = rng.uniform(0.0, 2 * math.pi, (2, 2000))
        (g0, r0), (g1, r1) = swap_effect_params(alpha, ts, te, ps, pe)
        fr1 = np.sin(te) * np.sin(ts) * np.cos(ps - pe) + np.cos(te) * np.cos(ts)
        got = compat._swap_scalars(alpha, np.cos(ts), np.cos(te), fr1)
        want = (g0, g1, np.einsum("...i,...i->...", r0, r1))
        for a, b in zip(got, want):
            assert np.abs(a - b).max() < 1e-15


@pytest.mark.parametrize("density", [8, 12])
def test_reduced_grid_minimum_matches_four_angle_oracle(density):
    # dropping phi_e loses no grid point: the density^3 minimum equals the
    # density^4 one, and the exact scan can only go lower
    thetas = np.linspace(0.0, math.pi, density)
    phis = np.linspace(0.0, 2 * math.pi, density, endpoint=False)
    ts, te, dphi = thetas[:, None, None], thetas[None, :, None], phis[None, None, :]
    fr1 = np.sin(te) * np.sin(ts) * np.cos(dphi) + np.cos(te) * np.cos(ts)
    axes = (np.cos(ts), np.cos(te), fr1)
    alphas = [0.3, 0.9, 1.4, 1.9, 2.4, 2.9]
    region = compat.partial_swap_compat_region(alphas, density)
    for alpha in alphas:
        want = swap_jm_grid_margins(alpha, density).min()
        assert abs(compat._swap_margin(alpha, *axes).min() - want) < 1e-15
        assert region[alpha] <= want + 1e-15


def test_scan_evaluates_at_most_64_points_per_angle(monkeypatch):
    # the scan's work is its candidate set: one `_margin` call of at most 64
    # points per angle, and the ignored density argument changes nothing
    kernel = compat._margin
    points = []

    def counting(g0, g1, r01, f0, f1):
        points.append(np.broadcast(g0, g1, r01).size)
        return kernel(g0, g1, r01, f0, f1)

    monkeypatch.setattr(compat, "_margin", counting)
    alphas = [0.0, 0.0982, 0.8132119355333707, math.pi / 2, 3 * math.pi / 4, math.pi]
    for density in (2, 20, 10**6):
        points.clear()
        compat.partial_swap_compat_region(alphas, density)
        assert len(points) == len(alphas) and max(points) <= 64


@pytest.mark.parametrize("alpha", [
    math.pi / 2 + 1e-9, 1.6, 1.8, 2.0, 3 * math.pi / 4, 2.6, 2.9, math.pi - 1e-9, math.pi,
])
def test_scan_minimum_in_closed_form_above_half_pi(alpha):
    # above pi/2 the minimiser is theta_s = pi, theta_e = pi/2 at any dphi
    want = math.sin(alpha / 2) ** 4 * math.cos(alpha) ** 2 + math.cos(alpha)
    assert abs(compat.partial_swap_compat_region([alpha])[alpha] - want) <= 1e-15


def test_no_sampled_configuration_lies_below_the_scan():
    # 10^5 random (theta_s, theta_e, phi_s, phi_e) per angle through the
    # closed-form effect map; the margin of every one is at least the scan's
    rng = np.random.default_rng(12)
    alphas = [0.0, 0.0982, 0.3, 0.8836, 1.2, math.pi / 2 - 1e-9, math.pi / 2,
              math.pi / 2 + 1e-9, 2.0, 2.5, 3.0, math.pi]
    region = compat.partial_swap_compat_region(alphas)
    for alpha in alphas:
        ts, te = np.arccos(rng.uniform(-1.0, 1.0, (2, 100_000)))
        ps, pe = rng.uniform(0.0, 2 * math.pi, (2, 100_000))
        (g0, r0), (g1, r1) = swap_effect_params(alpha, ts, te, ps, pe)
        c = math.cos(alpha / 2)
        sampled = compat._margin(g0, g1, np.einsum("...i,...i->...", r0, r1), c, c)
        assert sampled.min() >= region[alpha] - 1e-12, alpha


@pytest.mark.parametrize("shape_a, shape_b", [
    ((1000, 3), (1000, 3)),
    # the shapes of the crosses that _candidate_minimum stacks: the feet of its
    # lines, the points stationary in the plane and along a line, and the
    # crossings of two lines
    ((7, 3), (7, 3)), ((3, 3), (3, 3)), ((5, 3), (3, 5, 3)), ((10, 3), (10, 3)),
    # and broadcasting over angle arrays
    ((4, 6, 3), (4, 6, 3)), ((6, 3), (4, 1, 3)),
    # the one stacked cross of _candidate_minimum
    ((35, 3), (35, 3)),
])
def test_cross_equals_numpy_cross_bit_for_bit(shape_a, shape_b):
    rng = np.random.default_rng(len(shape_a) * 100 + shape_a[0])

    def draw(shape):  # magnitudes spread over 16 decades to make rounding matter
        return rng.normal(size=shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)

    a, b = draw(shape_a), draw(shape_b)
    got, want = compat._cross(a, b), np.cross(a, b)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _above_half_pi_grid():
    """Angles with first = 1 - 2 cos^2(alpha/2) > 0: a dense grid over
    (pi/2, pi], the 300 floats next above pi/2, the 300 next below pi and pi,
    and the angles of the 33-point jm-scan golden above pi/2."""
    half, above, below = math.pi / 2, [], [math.pi]
    for _ in range(300):
        above.append(float(np.nextafter(above[-1] if above else half, 4.0)))
        below.append(float(np.nextafter(below[-1], 0.0)))
    grid = np.linspace(half, math.pi, 1601)[1:].tolist() + above + below
    return grid + [a for a in np.linspace(0.0, math.pi, 33).tolist() if a > half]


def test_corner_equals_the_candidate_search_bit_for_bit_above_half_pi():
    # the corner route is a proof, so it must return the very float the
    # search returns, or the jm-scan CSVs would move
    for alpha in _above_half_pi_grid():
        c = math.cos(alpha / 2)
        assert 1.0 - (c * c + c * c) > 0.0, alpha
        got, want = compat._swap_minimum(alpha), compat._candidate_minimum(alpha)
        assert got.hex() == want.hex(), alpha


def test_half_pi_and_below_take_the_candidate_search(monkeypatch):
    searched = []

    def recording(alpha):
        searched.append(alpha)
        return math.nan

    monkeypatch.setattr(compat, "_candidate_minimum", recording)
    half = math.pi / 2
    below = [0.0, 1e-300, 0.3, 1.2, float(np.nextafter(half, 0.0)), half]
    above = [float(np.nextafter(half, 4.0)), 2.0, 3 * math.pi / 4, math.pi]
    region = compat.partial_swap_compat_region(below + above)
    assert searched == below
    assert all(math.isnan(region[a]) for a in below)
    assert not any(math.isnan(region[a]) for a in above)


@pytest.mark.parametrize("alpha", [math.nan, -0.1, 3.2])
def test_scan_refuses_an_angle_outside_0_pi(alpha):
    with pytest.raises(DomainError, match=r"swap angle .* outside \[0, pi\]"):
        compat.partial_swap_compat_region([alpha])
