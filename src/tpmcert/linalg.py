"""Dense complex linear algebra kernel: Kronecker products, partial trace and
transpose, operator vectorization, Hermitian spectra, and the small zoo of
qubit states and gates everything else is built from.

Index convention: in any composite space the leftmost tensor factor is the
slowest-varying index (row-major), matching ``numpy.kron``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

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


def bloch_vector(m: np.ndarray) -> np.ndarray:
    """Pauli components (Tr m.sigma_i) of a 2x2 matrix."""
    return np.array(
        [
            np.trace(m @ SIGMA_X).real,
            np.trace(m @ SIGMA_Y).real,
            np.trace(m @ SIGMA_Z).real,
        ]
    )


def is_hermitian(m: np.ndarray, atol: float = HERM_ATOL) -> bool:
    """True if m, or every matrix of a stack (..., d, d), is Hermitian."""
    return bool(np.abs(m - m.conj().swapaxes(-1, -2)).max() <= atol)


def check_layout(dim: int, factor_dims: Sequence[int]) -> tuple[int, ...]:
    """Validate that factor_dims describes a dim x dim matrix."""
    dims = tuple(int(d) for d in factor_dims)
    if any(d <= 0 for d in dims):
        raise ValidationError(f"factor dimensions must be positive, got {dims}")
    if int(np.prod(dims)) != dim:
        raise ValidationError(
            f"layout {dims} is inconsistent with matrix dimension {dim}"
        )
    return dims


def kron_all(factors: Iterable[np.ndarray]) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def permute_factors(
    m: np.ndarray, factor_dims: Sequence[int], perm: Sequence[int]
) -> np.ndarray:
    """Reorder the tensor factors of m according to perm (new position i holds
    old factor perm[i])."""
    dims = check_layout(m.shape[0], factor_dims)
    n = len(dims)
    t = m.reshape(dims * 2)
    t = t.transpose(list(perm) + [p + n for p in perm])
    d = int(np.prod([dims[p] for p in perm]))
    return np.ascontiguousarray(t.reshape(d, d))


def partial_trace(
    m: np.ndarray, factor_dims: Sequence[int], traced_factors: Iterable[int]
) -> np.ndarray:
    """Trace out the listed tensor factors; the kept factors retain their order.

    Tracing out every factor yields a 1x1 matrix holding Tr(m).
    """
    dims = check_layout(m.shape[0], factor_dims)
    n = len(dims)
    traced = sorted(set(int(i) for i in traced_factors))
    if any(i < 0 or i >= n for i in traced):
        raise ValidationError(f"traced factors {traced} out of range for {dims}")
    t = m.reshape(dims * 2)
    removed = 0
    for i in traced:
        k = i - removed
        t = np.trace(t, axis1=k, axis2=k + (n - removed))
        removed += 1
    kept = [d for j, d in enumerate(dims) if j not in traced]
    d = int(np.prod(kept)) if kept else 1
    return t.reshape(d, d)


def partial_transpose(
    m: np.ndarray, factor_dims: Sequence[int], factor: int
) -> np.ndarray:
    """Transpose the indices of one tensor factor only (an exact involution)."""
    dims = check_layout(m.shape[0], factor_dims)
    n = len(dims)
    if factor < 0 or factor >= n:
        raise ValidationError(f"factor {factor} out of range for {dims}")
    t = m.reshape(dims * 2)
    axes = list(range(2 * n))
    axes[factor], axes[factor + n] = axes[factor + n], axes[factor]
    return np.ascontiguousarray(t.transpose(axes).reshape(m.shape))


def vectorize(u: np.ndarray) -> np.ndarray:
    """Operator double-ket |U>> = (id (x) U) sum_i |i>|i>, as a d^2 column vector.

    Component (i*d + j) is U[j, i], so <<U|U>> = Tr(U^dag U).
    """
    u = np.asarray(u, dtype=complex)
    return np.ascontiguousarray(u.T.reshape(-1, 1))


def unvectorize(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize` (exact, a pure index permutation)."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValidationError(f"vector of length {v.size} is not a d^2 double-ket")
    return np.ascontiguousarray(v.reshape(d, d).T)


def herm_eigenvalues(m: np.ndarray, atol: float = HERM_ATOL) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix."""
    if not is_hermitian(m, atol):
        raise ValidationError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(m)


def assert_density_matrix(rho: np.ndarray, atol: float = HERM_ATOL) -> None:
    """Raise unless rho, or every matrix of a stack (..., d, d), is a
    unit-trace positive-semidefinite matrix."""
    rho = np.asarray(rho)
    if not is_hermitian(rho, atol):
        raise ValidationError("state is not Hermitian within tolerance")
    traces = np.trace(rho, axis1=-2, axis2=-1).real
    off = np.abs(traces - 1.0)
    if off.max() > atol:
        raise ValidationError(f"state trace {np.ravel(traces)[off.argmax()]} != 1")
    if np.linalg.eigvalsh(rho).min() < -atol:
        raise ValidationError("state has a negative eigenvalue")


def assert_unitary(u: np.ndarray, atol: float = HERM_ATOL) -> None:
    d = u.shape[0]
    if u.shape != (d, d) or not np.abs(u.conj().T @ u - np.eye(d)).max() <= atol:
        raise ValidationError("matrix is not unitary within tolerance")


def assert_povm(effects: Sequence[np.ndarray], atol: float = HERM_ATOL) -> None:
    """Raise unless the effects are PSD and sum to the identity.

    effects is a sequence of d x d effects, or a stack (..., k, d, d) of
    POVMs with k effects each, all checked at once.
    """
    e = np.asarray(effects)
    if not is_hermitian(e, atol):
        raise ValidationError("POVM effect is not Hermitian")
    if np.linalg.eigvalsh(e).min() < -atol:
        raise ValidationError("POVM effect has a negative eigenvalue")
    if np.abs(e.sum(axis=-3) - np.eye(e.shape[-1])).max() > atol:
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
