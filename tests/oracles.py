"""Independent oracles used to cross-check the library.

Everything in this file is implemented directly with numpy index gymnastics,
deliberately avoiding the code paths under test.
"""

from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def sequential_probabilities(rho, u, effects_by_x, repreparations, final_povm):
    """Step-by-step simulation: measure A' (keeping the memory's conditional
    state), re-prepare, evolve, measure B.  Returns probs[x, a, b]."""
    n = len(effects_by_x)
    probs = np.zeros((n, 2, 2))
    for xi, effects in enumerate(effects_by_x):
        for a, eff in enumerate(effects):
            # unnormalized conditional state of the memory qubit
            joint = np.kron(eff, I2) @ rho
            sig = np.einsum("abac->bc", joint.reshape(2, 2, 2, 2))
            state = np.kron(repreparations[a], sig)
            out = u @ state @ u.conj().T
            for b, fb in enumerate(final_povm):
                probs[xi, a, b] = np.real(np.trace(np.kron(fb, I2) @ out))
    return probs


def explicit_process_contraction(rho, u):
    """Process operator by explicit index summation,
    W[(i,j,k),(l,m,n)] = sum_{e,f,e1} rho[(i,e1),(l,e)] U[(k,f),(j,e1)]
    conj(U)[(n,f),(m,e)]."""
    r = rho.reshape(2, 2, 2, 2)       # [i, e1, l, e]
    uu = u.reshape(2, 2, 2, 2)        # [k, f, j, e1]
    w = np.einsum("iAlE,kfjA,nfmE->ijklmn", r, uu, uu.conj())
    return w.reshape(8, 8)


def swap_assemblage_closed_form(alpha, rho_a, f_b):
    """Effective memory-side effect of the partial-swap protocol,
    cos^2 Tr(F rho) id + sin^2 F - i sin cos [F, rho]."""
    c, s = np.cos(alpha / 2), np.sin(alpha / 2)
    return (
        c * c * np.trace(f_b @ rho_a) * I2
        + s * s * f_b
        - 1j * s * c * (f_b @ rho_a - rho_a @ f_b)
    )


def swap_gamma_closed_form(alpha):
    return (3.0 - np.sin(alpha) + np.cos(alpha)) / 2.0


def random_unitary(rng, d):
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = z @ z.conj().T
    return m / np.trace(m)


def random_binary_povm(rng, d=2):
    raw = []
    for _ in range(2):
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        raw.append(z @ z.conj().T)
    total = raw[0] + raw[1]
    w, v = np.linalg.eigh(total)
    inv_sqrt = v @ np.diag(w**-0.5) @ v.conj().T
    return tuple(inv_sqrt @ a @ inv_sqrt for a in raw)


def random_instrument_arrays(rng, n_settings=3):
    effects = [random_binary_povm(rng) for _ in range(n_settings)]
    reps = (random_density(rng, 2), random_density(rng, 2))
    return effects, reps


HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

# W[(i,a,c),(l,m,n)] on A' (x) A (x) B: row and column index letters per slot
_W_ROW, _W_COL = "iac", "lmn"


def upsilon_operator(p):
    """The mixing family p W + (1 - p) (H (x) id (x) id) W (H (x) id (x) id),
    W the three-qubit GHZ projector plus its bit-flip image on the middle slot."""
    ghz = np.zeros(8, dtype=complex)
    ghz[[0, 7]] = 1 / np.sqrt(2)
    flip = np.kron(np.kron(I2, SX), I2)
    w = np.outer(ghz, ghz.conj())
    w = w + flip @ w @ flip
    h = np.kron(HADAMARD, np.eye(4))
    return p * w + (1 - p) * (h @ w @ h)


def slot_operator(w, ops, slot):
    """K on factor `slot` of A' (x) A (x) B such that Tr[X K] equals
    Tr[(ops[0] (x) ops[1] (x) ops[2]) W] with X in place of ops[slot]."""
    others = [k for k in range(3) if k != slot]
    spec = ",".join(_W_COL[k] + _W_ROW[k] for k in others)
    out = _W_ROW[slot] + _W_COL[slot]
    return np.einsum(
        f"{spec},{_W_ROW}{_W_COL}->{out}",
        *(ops[k] for k in others),
        w.reshape((2,) * 6),
    )


def negative_part(h):
    """Projector onto the negative eigenspace of h and the sum of its negative
    eigenvalues."""
    ev, v = np.linalg.eigh(h)
    neg = v[:, ev < 0]
    return neg @ neg.conj().T, ev[ev < 0].sum()


def pair_bounds(w, repreparations, final_povm):
    """Per-pair minimum over every first-time effect, and the effects that
    attain it, for fixed re-preparations and final POVM.

    With A_b = Tr_AB[(id (x) rho0^T (x) F_b) W] and B_b the same with rho1,
    P(0, b | x) = Tr[E_{0|x} A_b] and P(1, b | x) = Tr[E_{1|x} B_b], so the
    pair term is Tr B_b1 + Tr[E_{0|x} (A_b0 - B_b1)].  Its minimum over
    0 <= E <= id is reached by the projector onto the negative eigenspace of
    A_b0 - B_b1, whatever the number of settings.  Returns bounds[b0, b1] and
    effects[(b0, b1)] (the outcome-0 effect).
    """
    reduced = [
        [slot_operator(w, (None, rho.T, f), 0) for f in final_povm]
        for rho in repreparations
    ]
    bounds = np.empty((2, 2))
    effects = {}
    for b0 in (0, 1):
        for b1 in (0, 1):
            effects[b0, b1], neg = negative_part(reduced[0][b0] - reduced[1][b1])
            bounds[b0, b1] = np.trace(reduced[1][b1]).real + neg
    return bounds, effects


def _bloch_projector(theta, phi):
    n = (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta))
    return (I2 + n[0] * SX + n[1] * SY + n[2] * SZ) / 2


def _ground_projector(h):
    v = np.linalg.eigh(h)[1][:, 0]
    return np.outer(v, v.conj())


def upsilon_all_instrument_gamma(p, n_starts=8, seed=0):
    """Smallest gamma of upsilon_operator(p) over every measure-and-prepare
    instrument, final POVM and number of first-time settings.

    The first-time effects are eliminated exactly by pair_bounds, leaving
    gamma = 2 - sum_{b0,b1} ||(A_b0 - B_b1)_-||_1.  That is a minimum of affine
    functions, hence concave in rho0, in rho1 and in F, so pure
    re-preparations and a projective F suffice: six Bloch angles.  Each
    seeded start draws the six angles and descends by exact block
    minimisation: the pair effects (negative-eigenspace projectors), each
    re-preparation (ground state of the operator gamma is linear in), and F
    (negative-eigenspace projector).  Every step keeps rho pure and F
    projective and never raises gamma.
    """
    w = upsilon_operator(p)
    pairs = [(b0, b1) for b0 in (0, 1) for b1 in (0, 1)]
    rng = np.random.default_rng(seed)
    best = np.inf
    for angles in rng.uniform(0.0, 1.0, (n_starts, 6)) * np.pi * np.array([1, 2] * 3):
        reps = [_bloch_projector(*angles[0:2]), _bloch_projector(*angles[2:4])]
        f0 = _bloch_projector(*angles[4:6])
        final = (f0, I2 - f0)
        prev = np.inf
        for _ in range(300):
            bounds, e0 = pair_bounds(w, reps, final)
            value = bounds.sum()
            best = min(best, value)
            if value > prev - 1e-15:
                break
            prev = value
            e1 = {k: I2 - e for k, e in e0.items()}
            k0 = sum(slot_operator(w, (e0[b0, b1], None, final[b0]), 1) for b0, b1 in pairs)
            k1 = sum(slot_operator(w, (e1[b0, b1], None, final[b1]), 1) for b0, b1 in pairs)
            # gamma is linear in rho_a^T, so rho_a is a transposed ground state
            reps = [_ground_projector(k0).T, _ground_projector(k1).T]
            lin = [
                sum(slot_operator(w, (e0[b, b1], reps[0].T, None), 2) for b1 in (0, 1))
                + sum(slot_operator(w, (e1[b0, b], reps[1].T, None), 2) for b0 in (0, 1))
                for b in (0, 1)
            ]
            f0 = negative_part(lin[0] - lin[1])[0]
            final = (f0, I2 - f0)
    return float(best)


def classical_vertex_values(n, crosstalk):
    """Every deterministic classical vertex with |X| = n settings, in the
    order (f, g) of itertools.product: a = f(x), and b = g(a) without
    crosstalk or b = h(a, x) = g[a * n + x] with it.  Returns the lists of
    (f, g), of gamma and of gamma + 2 ACDE, read straight off the
    response functions."""
    import itertools

    responses, gammas, corrected = [], [], []
    for f in itertools.product((0, 1), repeat=n):
        for g in itertools.product((0, 1), repeat=2 * n if crosstalk else 2):
            def b_of(a, x):
                return g[a * n + x] if crosstalk else g[a]

            # P(a, b | x) = 1 exactly when a = f(x) and b = b_of(f(x), x)
            def p(a, b, x):
                return int(f[x] == a and b_of(a, x) == b)

            gamma = sum(
                min(p(0, b0, x) + p(1, b1, x) for x in range(n))
                for b0 in (0, 1)
                for b1 in (0, 1)
            )
            # P(b | do(a, x)) = [b_of(a, x) = b]; it shifts with x exactly
            # when b_of(a, .) is not constant
            acde = max(
                int(len({b_of(a, x) for x in range(n)}) > 1) for a in (0, 1)
            )
            responses.append((f, g))
            gammas.append(gamma)
            corrected.append(gamma + 2 * acde)
    return responses, gammas, corrected
