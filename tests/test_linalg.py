import numpy as np
import pytest

from tpmcert import compat, linalg, process
from tpmcert.exceptions import ValidationError

from oracles import random_unitary

RNG = np.random.default_rng(101)


def rand_complex(d):
    return RNG.standard_normal((d, d)) + 1j * RNG.standard_normal((d, d))


def test_partial_trace_bell_marginal():
    reduced = linalg.partial_trace(linalg.bell_state(), (2, 2), {1})
    assert np.abs(reduced - linalg.ID2 / 2).max() < 1e-12


def test_partial_trace_product_factorization():
    rho, sigma = rand_complex(2), rand_complex(3)
    got = linalg.partial_trace(np.kron(rho, sigma), (2, 3), {1})
    assert np.abs(got - rho * np.trace(sigma)).max() < 1e-12


def test_partial_trace_all_factors_is_trace():
    m = rand_complex(8)
    got = linalg.partial_trace(m, (2, 2, 2), {0, 1, 2})
    assert got.shape == (1, 1)
    assert abs(got[0, 0] - np.trace(m)) < 1e-12


def test_partial_trace_preserves_trace():
    m = rand_complex(8)
    for traced in ({0}, {1}, {2}, {0, 2}):
        got = linalg.partial_trace(m, (2, 2, 2), traced)
        assert abs(np.trace(got) - np.trace(m)) < 1e-12


def test_partial_trace_layout_mismatch():
    with pytest.raises(ValidationError):
        linalg.partial_trace(rand_complex(6), (2, 2), {0})


def test_partial_transpose_product_case():
    rho, sigma = rand_complex(2), rand_complex(2)
    got = linalg.partial_transpose(np.kron(rho, sigma), (2, 2), 1)
    assert np.abs(got - np.kron(rho, sigma.T)).max() < 1e-14


def test_partial_transpose_bell_spectrum():
    pt = linalg.partial_transpose(linalg.bell_state(), (2, 2), 1)
    eigs = np.sort(np.linalg.eigvalsh(pt))
    assert np.abs(eigs - np.array([-0.5, 0.5, 0.5, 0.5])).max() < 1e-12


def test_partial_transpose_involution_exact():
    m = rand_complex(8)
    twice = linalg.partial_transpose(
        linalg.partial_transpose(m, (2, 2, 2), 1), (2, 2, 2), 1
    )
    assert np.array_equal(twice, m)


def test_partial_transpose_preserves_trace_and_hermiticity():
    m = rand_complex(4)
    m = m + m.conj().T
    pt = linalg.partial_transpose(m, (2, 2), 0)
    assert abs(np.trace(pt) - np.trace(m)) < 1e-13
    assert linalg.is_hermitian(pt, 1e-13)


def test_vectorize_convention():
    v = linalg.vectorize(linalg.ID2).reshape(-1)
    assert np.allclose(v, [1, 0, 0, 1])
    v = linalg.vectorize(linalg.SIGMA_X).reshape(-1)
    assert np.allclose(v, [0, 1, 1, 0])


def test_vectorize_norm_is_hs_norm():
    for _ in range(5):
        u = random_unitary(RNG, 2)
        v = linalg.vectorize(u)
        assert abs((v.conj().T @ v)[0, 0] - 2.0) < 1e-12


def test_vectorize_round_trip_exact():
    u = rand_complex(3)
    assert np.array_equal(linalg.unvectorize(linalg.vectorize(u)), u)


def test_herm_eigenvalues_basics():
    assert np.allclose(linalg.herm_eigenvalues(linalg.ID2), [1, 1])
    assert np.allclose(linalg.herm_eigenvalues(linalg.SIGMA_Z), [-1, 1])
    pt = linalg.partial_transpose(linalg.bell_state(), (2, 2), 1)
    assert np.abs(linalg.herm_eigenvalues(pt) - [-0.5, 0.5, 0.5, 0.5]).max() < 1e-12


def test_herm_eigenvalues_sum_is_trace():
    m = rand_complex(8)
    m = m + m.conj().T
    eigs = linalg.herm_eigenvalues(m)
    assert abs(eigs.sum() - np.trace(m).real) < 1e-9
    assert np.all(np.diff(eigs) >= 0)


def test_herm_eigenvalues_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        linalg.herm_eigenvalues(rand_complex(3))


def test_unitary_check_rejects_nan_in_every_caller():
    # NaN fails every comparison, so the check must not pass on "max > atol"
    one_nan = np.eye(4, dtype=complex)
    one_nan[2, 1] = np.nan
    reps = (linalg.dm(linalg.KET_0), linalg.dm(linalg.KET_1))
    for u in (np.full((4, 4), np.nan), one_nan):
        for call in (lambda: linalg.assert_unitary(u),
                     lambda: process.build_process(linalg.bell_state(), u),
                     lambda: compat.induced_assemblage(u, reps, linalg.observable_povm(linalg.SIGMA_Z))):
            with pytest.raises(ValidationError, match="not unitary"):
                call()


def test_stacked_checks_reject_any_bad_member():
    # a stack is accepted exactly when every member passes on its own, and
    # a bad member gets the same error as when checked alone
    z = np.array(linalg.observable_povm(linalg.SIGMA_Z))
    povms = np.stack([z, np.array(linalg.observable_povm(linalg.SIGMA_X))])
    linalg.assert_povm(povms, 1e-10)
    linalg.assert_density_matrix(povms[:, 0], 1e-10)

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
                linalg.assert_povm(checked, 1e-10)
    states = povms[:, 0]
    bad_states = {
        "not Hermitian": one_bad(states, (1, 0, 1), 0.1),
        "state trace 1.2 != 1": one_bad(states, 1, np.diag([0.6, 0.6])),
        "negative eigenvalue": one_bad(states, 1, np.diag([1.2, -0.2])),
    }
    for message, stack in bad_states.items():
        for checked in (stack, stack[1]):
            with pytest.raises(ValidationError, match=message):
                linalg.assert_density_matrix(checked, 1e-10)
