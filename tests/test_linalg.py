import numpy as np
import pytest

from tpmcert import dataio, linalg, process
from tpmcert.exceptions import ValidationError

from oracles import partial_trace, partial_transpose, random_unitary, unvectorize, vectorize

RNG = np.random.default_rng(101)


def herm_eigenvalues(m):
    """Ascending real eigenvalues of a Hermitian matrix."""
    if not linalg.is_hermitian(m):
        raise ValidationError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(m)


def rand_complex(d):
    return RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))


def test_partial_trace_bell_marginal():
    reduced = partial_trace(linalg.bell_state(), (2, 2), {1})
    assert np.abs(reduced - linalg.ID2 / 2).max() < 1e-12


def test_partial_trace_product_factorization():
    rho, sigma = rand_complex(2), rand_complex(3)
    got = partial_trace(np.kron(rho, sigma), (2, 3), {1})
    assert np.abs(got - rho * np.trace(sigma)).max() < 1e-12


def test_partial_trace_all_factors_is_trace():
    m = rand_complex(8)
    got = partial_trace(m, (2, 2, 2), {0, 1, 2})
    assert got.shape == (1, 1)
    assert abs(got[0, 0] - np.trace(m)) < 1e-12


def test_partial_trace_preserves_trace():
    m = rand_complex(8)
    for traced in ({0}, {1}, {2}, {0, 2}):
        got = partial_trace(m, (2, 2, 2), traced)
        assert abs(np.trace(got) - np.trace(m)) < 1e-12


def test_partial_transpose_product_case():
    rho, sigma = rand_complex(2), rand_complex(2)
    got = partial_transpose(np.kron(rho, sigma), (2, 2), 1)
    assert np.abs(got - np.kron(rho, sigma.T)).max() < 1e-14


def test_partial_transpose_bell_spectrum():
    pt = partial_transpose(linalg.bell_state(), (2, 2), 1)
    eigs = np.sort(np.linalg.eigvalsh(pt))
    assert np.abs(eigs - np.array([-0.5, 0.5, 0.5, 0.5])).max() < 1e-12


def test_partial_transpose_involution_exact():
    m = rand_complex(8)
    twice = partial_transpose(
        partial_transpose(m, (2, 2, 2), 1), (2, 2, 2), 1
    )
    assert np.array_equal(twice, m)


def test_partial_transpose_preserves_trace_and_hermiticity():
    m = rand_complex(4)
    m = m + m.conj().T
    pt = partial_transpose(m, (2, 2), 0)
    assert abs(np.trace(pt) - np.trace(m)) < 1e-13
    assert np.abs(pt - pt.conj().T).max() <= 1e-13


def test_vectorize_convention():
    v = vectorize(linalg.ID2).reshape(-1)
    assert np.allclose(v, [1, 0, 0, 1])
    v = vectorize(linalg.SIGMA_X).reshape(-1)
    assert np.allclose(v, [0, 1, 1, 0])


def test_vectorize_norm_is_hs_norm():
    for _ in range(5):
        u = random_unitary(RNG, 2)
        v = vectorize(u)
        assert abs((v.conj().T @ v)[0, 0] - 2.0) < 1e-12


def test_vectorize_round_trip_exact():
    u = rand_complex(3)
    assert np.array_equal(unvectorize(vectorize(u)), u)


def test_herm_eigenvalues_basics():
    assert np.allclose(herm_eigenvalues(linalg.ID2), [1, 1])
    assert np.allclose(herm_eigenvalues(linalg.SIGMA_Z), [-1, 1])
    pt = partial_transpose(linalg.bell_state(), (2, 2), 1)
    assert np.abs(herm_eigenvalues(pt) - [-0.5, 0.5, 0.5, 0.5]).max() < 1e-12


def test_herm_eigenvalues_sum_is_trace():
    m = rand_complex(8)
    m = m + m.conj().T
    eigs = herm_eigenvalues(m)
    assert abs(eigs.sum() - np.trace(m).real) < 1e-9
    assert np.all(np.diff(eigs) >= 0)


def test_herm_eigenvalues_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        herm_eigenvalues(rand_complex(3))


def test_unitary_check_rejects_nan_in_every_caller():
    # NaN fails every comparison, so the check must not pass on "max > HERM_ATOL"
    one_nan = np.eye(4, dtype=complex)
    one_nan[2, 1] = np.nan
    reps = (linalg.dm(linalg.KET_0), linalg.dm(linalg.KET_1))
    for u in (np.full((4, 4), np.nan), one_nan):
        for call in (lambda: linalg.assert_unitary(u),
                     lambda: process.build_process(linalg.bell_state(), u),
                     lambda: dataio.ExperimentConfig(protocol="custom", unitary=u)):
            with pytest.raises(ValidationError, match="not unitary"):
                call()


def test_stacked_checks_reject_any_bad_member():
    # a stack is accepted exactly when every member passes on its own, and
    # a bad member gets the same error as when checked alone
    z = np.array(linalg.observable_povm(linalg.SIGMA_Z))
    povms = np.stack([z, np.array(linalg.observable_povm(linalg.SIGMA_X))])
    linalg.assert_povm(povms)
    linalg.assert_density_matrix(povms[:, 0])

    def one_bad(stack, index, value):
        out = stack.copy()
        out[index] = value
        return out

    bad_povms = {
        "not Hermitian": one_bad(povms, (1, 0, 0, 1), 0.1),
        "negative eigenvalue": one_bad(povms, 1, [np.diag([1.1, 0]), np.diag([-0.1, 1])]),
        "do not sum": one_bad(povms, (1, 1), 0.5 * povms[1, 1]),
    }
    for message, stack in bad_povms.items():
        for checked in (stack, stack[1]):
            with pytest.raises(ValidationError, match=message):
                linalg.assert_povm(checked)
    states = povms[:, 0]
    bad_states = {
        "not Hermitian": one_bad(states, (1, 0, 1), 0.1),
        "state trace 1.2 != 1": one_bad(states, 1, np.diag([0.6, 0.6])),
        "negative eigenvalue": one_bad(states, 1, np.diag([1.2, -0.2])),
    }
    for message, stack in bad_states.items():
        for checked in (stack, stack[1]):
            with pytest.raises(ValidationError, match=message):
                linalg.assert_density_matrix(checked)


def test_stacked_unitary_check_rejects_any_bad_member():
    us = np.array([np.eye(4, dtype=complex), linalg.SWAP, 1j * linalg.SWAP])
    linalg.assert_unitary(us)
    linalg.assert_unitary(us.reshape(1, 3, 4, 4))
    for index, value in (((1, 0, 0), 0.1), ((2, 3, 3), np.nan)):
        bad = us.copy()
        bad[index] = value
        for checked in (bad, bad[index[0]]):
            with pytest.raises(ValidationError, match="not unitary"):
                linalg.assert_unitary(checked)
    with pytest.raises(ValidationError, match="not unitary"):
        linalg.assert_unitary(np.ones((2, 4, 3)))
