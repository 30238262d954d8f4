"""Reference computations for the benchmark's correctness checks.

Plain numpy, no tpmcert import: every number the benchmark compares the
program against is computed here a second way.

  sequential_tables   step-by-step state-vector simulation of a TPM run
                      (measure A', collapse, re-prepare, evolve, measure B)
  functionals         Gamma, Pearl's Delta, ACDE, Gamma + 2 ACDE and the
                      fidelity bound straight from raw count arrays
  bootstrap_stderr    an own multinomial bootstrap of Gamma
  closed forms        partial swap, upsilon optimum, classical vertex counts

`self_check()` runs each reference on cases with known answers; the worker
calls it before it trusts a reference.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]

S_K = (8.0 + 7.0 * math.sqrt(2.0)) / 17.0
GAMMA_QUANTUM_MIN = 2.0 - math.sqrt(2.0)


def projector(n) -> np.ndarray:
    """Rank-1 projector onto the +1 eigenvector of n.sigma."""
    return 0.5 * (I2 + n[0] * SX + n[1] * SY + n[2] * SZ)


def xz_direction(theta: float) -> np.ndarray:
    return np.array([math.sin(theta), 0.0, math.cos(theta)])


def signed_pauli_effects(label: str) -> tuple[np.ndarray, np.ndarray]:
    """(outcome 0, outcome 1) effects of the settings x, z, -x, -z: outcome 0
    is the +1 eigenspace of the signed Pauli observable."""
    sign = -1.0 if label.startswith("-") else 1.0
    axis = {"x": (1.0, 0.0, 0.0), "z": (0.0, 0.0, 1.0)}[label.lstrip("-")]
    n = sign * np.array(axis)
    return projector(n), projector(-n)


def memory_test_unitary() -> np.ndarray:
    """CNOT (E controls, A target) followed by a swap, on A (x) E."""
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    return SWAP @ (np.kron(I2, p0) + np.kron(SX, p1))


def partial_swap_unitary(alpha: float) -> np.ndarray:
    return math.cos(alpha / 2) * np.eye(4) + 1j * math.sin(alpha / 2) * SWAP


def bell_state() -> np.ndarray:
    v = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    return np.outer(v, v.conj())


def pure_components(rho: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Ensemble (weight, unit vector) of a density matrix."""
    w, v = np.linalg.eigh(rho)
    return [(float(wi), v[:, i]) for i, wi in enumerate(w) if wi > 1e-15]


def _rank1_vector(effect: np.ndarray) -> tuple[float, np.ndarray]:
    """An effect e |v><v| with e in (0, 1] (projective settings are rank 1)."""
    w, v = np.linalg.eigh(effect)
    return float(w[1]), v[:, 1]


def sequential_tables(rho, u, settings, repreparations, final):
    """P(a, b | x) and P(b | do(a)) by simulating the run step by step.

    rho lives on A' (x) E; u maps A (x) E to B (x) E' with B first.  Each
    setting is a pair of rank-1 effects on A'.  A' is measured and collapses
    the environment, A is re-prepared in repreparations[a] (as an ensemble of
    pure states), u acts, and B is measured with the final POVM.  The
    intervention skips the first measurement: the environment keeps its
    reduced state.
    """
    u = np.asarray(u, dtype=complex)
    final = [np.asarray(f, dtype=complex) for f in final]
    states = pure_components(np.asarray(rho, dtype=complex))
    preps = [pure_components(np.asarray(r, dtype=complex)) for r in repreparations]

    def after(env: np.ndarray, a: int) -> np.ndarray:
        """Unnormalised P(b) once A is re-prepared next to env and evolved."""
        out = np.zeros(2)
        for mu, r in preps[a]:
            chi = u @ np.kron(r, env)
            for b in (0, 1):
                out[b] += mu * float(np.vdot(chi, np.kron(final[b], I2) @ chi).real)
        return out

    probs = np.zeros((len(settings), 2, 2))
    for xi, effects in enumerate(settings):
        for a in (0, 1):
            weight, e = _rank1_vector(np.asarray(effects[a], dtype=complex))
            for lam, psi in states:
                env = e.conj() @ psi.reshape(2, 2)  # collapsed E, norm^2 = P(a)
                probs[xi, a] += lam * weight * after(env, a)
    do = np.zeros((2, 1, 2))
    for a in (0, 1):
        for lam, psi in states:
            for m in (0, 1):  # trace out A' in its computational basis
                do[a, 0] += lam * after(psi.reshape(2, 2)[m], a)
    return probs, do


def density_matrix_tables(rho, u, settings, repreparations, final):
    """The same tables through conditional density matrices; used only to
    check sequential_tables."""
    rho = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)  # A' E A' E

    def b_probs(env_rho, a):
        full = u @ np.kron(repreparations[a], env_rho) @ u.conj().T
        return np.array([np.trace(np.kron(f, I2) @ full).real for f in final])

    probs = np.zeros((len(settings), 2, 2))
    for xi, effects in enumerate(settings):
        for a in (0, 1):
            env = np.einsum("ij,jakb->iakb", effects[a], rho)
            env = np.einsum("iaib->ab", env)
            probs[xi, a] = b_probs(env, a)
    env = np.einsum("iaib->ab", rho)
    do = np.array([[b_probs(env, a)] for a in (0, 1)])
    return probs, do


def gamma_from_probs(p: np.ndarray) -> float:
    """sum over (b0, b1) of min over x of P(0, b0 | x) + P(1, b1 | x)."""
    total = 0.0
    for b0 in (0, 1):
        for b1 in (0, 1):
            total += min(float(p[x, 0, b0] + p[x, 1, b1]) for x in range(p.shape[0]))
    return total


def delta_from_probs(p: np.ndarray) -> float:
    return max(
        sum(max(float(p[x, a, b]) for x in range(p.shape[0])) for b in (0, 1))
        for a in (0, 1)
    )


def acde_from_probs(d: np.ndarray) -> float:
    """d[a, x, b] = P(b | do(a, x))."""
    return max(
        float(d[a, :, b].max() - d[a, :, b].min()) for a in (0, 1) for b in (0, 1)
    )


def fidelity_bound(gamma: float) -> float:
    g = min(max(gamma, GAMMA_QUANTUM_MIN), 2.0)
    f = 0.5 * (1.0 - (g - 2.0 + S_K) / (math.sqrt(2.0) - S_K))
    return min(max(f, 0.0), 1.0)


def functionals(obs_counts: np.ndarray, do_counts: np.ndarray | None) -> dict:
    """Every certification number from raw counts: obs_counts[x, a, b] and
    do_counts[a, x, b]."""
    obs = obs_counts / obs_counts.sum(axis=(1, 2), keepdims=True)
    gamma = gamma_from_probs(obs)
    out = {"gamma": gamma, "pearl_delta": delta_from_probs(obs),
           "fidelity_lb": fidelity_bound(gamma), "acde": None, "lhs": gamma}
    if do_counts is not None:
        do = do_counts / do_counts.sum(axis=2, keepdims=True)
        out["acde"] = acde_from_probs(do)
        out["lhs"] = gamma + 2.0 * out["acde"]
    return out


def resample(counts: np.ndarray, n_resamples: int, rng) -> np.ndarray:
    """Multinomial resamples of the frequencies of each row counts[i],
    shape (R, *counts.shape)."""
    out = np.empty((n_resamples,) + counts.shape)
    for i, row in enumerate(counts):
        n = int(row.sum())
        draws = rng.multinomial(n, row.reshape(-1) / n, size=n_resamples)
        out[:, i] = (draws / n).reshape((n_resamples,) + row.shape)
    return out


def bootstrap_stderr(obs_counts: np.ndarray, do_counts: np.ndarray | None,
                     n_resamples: int, seed: int) -> dict[str, float]:
    """Sample standard deviations of Gamma (argmin re-selected in each
    resample) and, with a do-table, of Gamma + 2 ACDE over multinomial
    resamples of every row."""
    rng = np.random.default_rng(seed)
    freq = resample(obs_counts, n_resamples, rng)
    gammas = np.zeros(n_resamples)
    for b0 in (0, 1):
        for b1 in (0, 1):
            gammas += (freq[:, :, 0, b0] + freq[:, :, 1, b1]).min(axis=1)
    out = {"gamma": float(np.std(gammas, ddof=1))}
    if do_counts is not None:
        do = resample(do_counts.reshape(-1, 2), n_resamples, rng)
        do = do.reshape((n_resamples,) + do_counts.shape)
        acdes = (do.max(axis=2) - do.min(axis=2)).max(axis=(1, 2))
        out["lhs"] = float(np.std(gammas + 2.0 * acdes, ddof=1))
    return out


def partial_swap_gamma(alpha: float) -> float:
    return (3.0 - math.sin(alpha) + math.cos(alpha)) / 2.0


def upsilon_optimum(p: float) -> float:
    return 2.0 - math.sqrt(1.0 + (1.0 - 2.0 * p) ** 2)


def vertex_counts(x_size: int) -> tuple[int, int]:
    """Deterministic classical strategies without and with crosstalk."""
    return 2**x_size * 4, 2**x_size * 2 ** (2 * x_size)


def random_state(rng, dim: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_unitary(rng, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def self_check() -> None:
    """Raise AssertionError unless every reference reproduces known cases."""
    paulis = [signed_pauli_effects(x) for x in ("x", "z", "-x", "-z")]

    # ideal memory test: Gamma = 2 - sqrt(2), Delta = cos^2(pi/8), do-table
    # uniform
    final = (projector(np.array([1, 0, 1]) / math.sqrt(2)),
             projector(-np.array([1, 0, 1]) / math.sqrt(2)))
    reps = (projector(np.array([-1.0, 0, 0])), projector(np.array([1.0, 0, 0])))
    probs, do = sequential_tables(bell_state(), memory_test_unitary(), paulis, reps, final)
    _close(gamma_from_probs(probs), GAMMA_QUANTUM_MIN, "memory-test gamma")
    _close(delta_from_probs(probs), math.cos(math.pi / 8) ** 2, "memory-test delta")
    _close(float(np.abs(do - 0.5).max()), 0.0, "memory-test do-table")
    _close(fidelity_bound(GAMMA_QUANTUM_MIN), 1.0, "fidelity at the quantum bound")

    # partial swap: sequential simulation against the closed form
    swap_reps = (projector(np.array([0, 1.0, 0])), projector(np.array([0, -1.0, 0])))
    swap_final = (projector(np.array([1.0, 0, 0])), projector(np.array([-1.0, 0, 0])))
    for alpha in (0.0, 0.7, math.pi / 2, 2.2, math.pi):
        probs, _ = sequential_tables(bell_state(), partial_swap_unitary(alpha),
                                     paulis, swap_reps, swap_final)
        _close(gamma_from_probs(probs), partial_swap_gamma(alpha), f"swap alpha={alpha}")

    # state vectors against density matrices on random mixed inputs
    rng = np.random.default_rng(7)
    for rank in (1, 2, 4):
        rho = random_state(rng, 4, rank)
        u = random_unitary(rng, 4)
        reps = (random_state(rng, 2, 2), random_state(rng, 2, 1))
        f0 = random_state(rng, 2, 2)
        fin = (f0, I2 - f0)
        a = sequential_tables(rho, u, paulis, reps, fin)
        b = density_matrix_tables(rho, u, paulis, reps, fin)
        for left, right in zip(a, b):
            _close(float(np.abs(left - right).max()), 0.0, f"sequential vs density rank {rank}")
        _close(float(np.abs(a[0].sum(axis=(1, 2)) - 1).max()), 0.0, "normalisation")

    # functionals on hand-made counts
    uniform = np.full((2, 2, 2), 25)
    got = functionals(uniform, np.full((2, 2, 2), 10))
    _close(got["gamma"], 2.0, "uniform gamma")
    _close(got["pearl_delta"], 0.5, "uniform delta")
    _close(got["acde"], 0.0, "uniform acde")
    do = np.array([[[10, 0], [0, 10]], [[5, 5], [5, 5]]])  # a=0 flips with x
    _close(functionals(uniform, do)["acde"], 1.0, "crosstalk acde")

    # bootstrap: one cell's spread matches the binomial formula
    counts = np.array([[[300, 700], [0, 0]], [[500, 0], [0, 500]]])
    freq = resample(counts, 20000, np.random.default_rng(3))
    expect = math.sqrt(0.3 * 0.7 / 1000)
    got_sd = float(freq[:, 0, 0, 0].std(ddof=1))
    assert abs(got_sd - expect) < 0.03 * expect, f"bootstrap cell sd {got_sd} vs {expect}"
    point = np.array([[[5, 0], [0, 0]]] * 2)
    assert bootstrap_stderr(point, np.array([[[0, 5]] * 2] * 2), 100, 0) == {
        "gamma": 0.0, "lhs": 0.0}, "bootstrap of a deterministic table"

    # closed forms and vertex counts against brute force
    _close(upsilon_optimum(0.0), GAMMA_QUANTUM_MIN, "upsilon endpoint")
    _close(upsilon_optimum(0.5), 1.0, "upsilon midpoint")
    for n in (2, 3):
        plain = [(fa, fb) for fa in itertools.product((0, 1), repeat=n)
                 for fb in itertools.product((0, 1), repeat=2)]
        cross = [(fa, fb) for fa in itertools.product((0, 1), repeat=n)
                 for fb in itertools.product((0, 1), repeat=2 * n)]
        assert vertex_counts(n) == (len(plain), len(cross)), f"vertex counts at {n}"
        best = math.inf
        for fa, fb in plain:
            p = np.zeros((n, 2, 2))
            for x in range(n):
                p[x, fa[x], fb[fa[x]]] = 1.0
            best = min(best, gamma_from_probs(p))
        assert best == 1.0, f"classical minimum at |X|={n} is {best}"


def _close(got: float, want: float, what: str, tol: float = 1e-12) -> None:
    assert abs(got - want) <= tol, f"reference self-check {what}: {got} != {want}"


if __name__ == "__main__":
    self_check()
    print("reference self-check passed")
