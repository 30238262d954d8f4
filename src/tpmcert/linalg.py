"""Dense complex linear algebra kernel: batched state, POVM and unitary
checks, all to the one absolute tolerance HERM_ATOL, and the small zoo of
qubit states and gates everything else is built from.

Index convention: in any composite space the leftmost tensor factor is the
slowest-varying index (row-major), matching ``numpy.kron``.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .exceptions import ValidationError

HERM_ATOL = 1e-10

# Pauli basis and friends
ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

KET_0 = np.array([1, 0], dtype=complex)
KET_1 = np.array([0, 1], dtype=complex)
KET_PLUS = (KET_0 + KET_1) / np.sqrt(2)
KET_MINUS = (KET_0 - KET_1) / np.sqrt(2)
KET_PLUS_I = (KET_0 + 1j * KET_1) / np.sqrt(2)
KET_MINUS_I = (KET_0 - 1j * KET_1) / np.sqrt(2)

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def dm(ket: np.ndarray) -> np.ndarray:
    """Density matrix |psi><psi| of a state vector."""
    v = np.asarray(ket, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def bell_state() -> np.ndarray:
    """Two-qubit density matrix of (|00> + |11>)/sqrt(2)."""
    v = (np.kron(KET_0, KET_0) + np.kron(KET_1, KET_1)) / np.sqrt(2)
    return dm(v)


def bloch_projector(n: Sequence[float]) -> np.ndarray:
    """Rank-1 projector (id + n.sigma)/2 for a unit Bloch vector n."""
    nx, ny, nz = n
    return 0.5 * (ID2 + nx * SIGMA_X + ny * SIGMA_Y + nz * SIGMA_Z)


def is_hermitian(m: np.ndarray) -> bool:
    """True if m, or every matrix of a stack (..., d, d), is Hermitian."""
    return bool(np.abs(m - m.conj().swapaxes(-1, -2)).max() <= HERM_ATOL)


def assert_density_matrix(rho: np.ndarray) -> None:
    """Raise unless rho, or every matrix of a stack (..., d, d), is a
    unit-trace positive-semidefinite matrix."""
    rho = np.asarray(rho)
    if not is_hermitian(rho):
        raise ValidationError("state is not Hermitian within tolerance")
    traces = np.trace(rho, axis1=-2, axis2=-1).real
    off = np.abs(traces - 1.0)
    if off.max() > HERM_ATOL:
        raise ValidationError(f"state trace {np.ravel(traces)[off.argmax()]} != 1")
    if np.linalg.eigvalsh(rho).min() < -HERM_ATOL:
        raise ValidationError("state has a negative eigenvalue")


@functools.cache
def _eye(d: int) -> np.ndarray:
    """The shared read-only d x d identity of the checks below."""
    eye = np.eye(d)
    eye.setflags(write=False)
    return eye


def assert_unitary(u: np.ndarray) -> None:
    """Raise unless u, or every matrix of a stack (..., d, d), is unitary."""
    d = u.shape[-1]
    square = u.shape[-2:] == (d, d)
    if not (square and np.abs(u.conj().swapaxes(-1, -2) @ u - _eye(d)).max() <= HERM_ATOL):
        raise ValidationError("matrix is not unitary within tolerance")


def assert_povm(effects: Sequence[np.ndarray]) -> None:
    """Raise unless the effects are PSD and sum to the identity.

    effects is a sequence of d x d effects, or a stack (..., k, d, d) of
    POVMs with k effects each, all checked at once.
    """
    e = np.asarray(effects)
    if not is_hermitian(e):
        raise ValidationError("POVM effect is not Hermitian")
    if np.linalg.eigvalsh(e).min() < -HERM_ATOL:
        raise ValidationError("POVM effect has a negative eigenvalue")
    if np.abs(e.sum(axis=-3) - _eye(e.shape[-1])).max() > HERM_ATOL:
        raise ValidationError("POVM effects do not sum to the identity")


def observable_povm(obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-outcome projective POVM of a +-1 observable; outcome 0 is the +1
    eigenspace."""
    w, v = np.linalg.eigh(obs)
    plus = np.zeros_like(obs)
    minus = np.zeros_like(obs)
    for i, val in enumerate(w):
        p = np.outer(v[:, i], v[:, i].conj())
        if val > 0:
            plus = plus + p
        else:
            minus = minus + p
    return plus, minus
