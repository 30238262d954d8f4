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


def kron_born_probs(w, effects_by_x, repreparations, final_povm, clip=True):
    """P(a, b | x) = Tr[(E_{a|x} (x) rho_a^T (x) F_b) W] one event at a time:
    one np.kron pair and one trace per entry, then clipped at zero.
    Returns probs[x, a, b]."""
    probs = np.empty((len(effects_by_x), 2, 2))
    for xi, effects in enumerate(effects_by_x):
        for a in (0, 1):
            rho_t = np.asarray(repreparations[a]).T
            for b in (0, 1):
                m = np.kron(np.kron(effects[a], rho_t), final_povm[b])
                probs[xi, a, b] = float(np.einsum("ij,ji->", m, w).real)
    return probs.clip(min=0.0) if clip else probs


def kron_do_probs(w, repreparations, final_povm, clip=True):
    """P(b | do(A = a)) by the same loop with the identity as first-time
    effect.  Returns probs[a, 0, b]."""
    probs = kron_born_probs(w, [(I2, I2)], repreparations, final_povm, clip)
    return probs.transpose(1, 0, 2)


def explicit_process_contraction(rho, u):
    """Process operator by explicit index summation,
    W[(i,j,k),(l,m,n)] = sum_{e,f,e1} rho[(i,e1),(l,e)] U[(k,f),(j,e1)]
    conj(U)[(n,f),(m,e)]."""
    r = rho.reshape(2, 2, 2, 2)       # [i, e1, l, e]
    uu = u.reshape(2, 2, 2, 2)        # [k, f, j, e1]
    w = np.einsum("iAlE,kfjA,nfmE->ijklmn", r, uu, uu.conj())
    return w.reshape(8, 8)


def build_process_reference(rho, u):
    """W = Tr_{EE'}[(rho^{T_E} (x) id_{ABE'}) (id_{A'} (x) |U>><<U|)] as
    explicit 32x32 operators on (A', A, E, B, E'): two np.kron, a factor
    permutation, one 32x32 matmul, a partial trace over E and then E', and the
    Hermitian part.  build_process reaches W without these operators and must
    equal this bit for bit."""
    rho = np.asarray(rho, dtype=complex)
    uu = np.asarray(u, dtype=complex).T.reshape(-1, 1)      # |U>> on (A, E, B, E')
    t = np.kron(I2, uu @ uu.conj().T)                        # A', A, E, B, E'
    rho_pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)  # transpose on E
    s = np.kron(rho_pt, np.eye(8, dtype=complex))           # A', E, A, B, E'
    perm = [0, 2, 1, 3, 4]                                   # to A', A, E, B, E'
    s = s.reshape((2,) * 10).transpose(perm + [p + 5 for p in perm])
    x = (np.ascontiguousarray(s.reshape(32, 32)) @ t).reshape((2,) * 10)
    x = np.trace(x, axis1=2, axis2=7)                        # over E
    w = np.trace(x, axis1=3, axis2=7).reshape(8, 8)          # over E'
    return 0.5 * (w + w.conj().T)


def partial_transpose(m, dims, factor):
    """Transpose the indices of one tensor factor of m only (an exact
    involution); dims are the factor dimensions, leftmost slowest."""
    n = len(dims)
    axes = list(range(2 * n))
    axes[factor], axes[factor + n] = axes[factor + n], axes[factor]
    return np.ascontiguousarray(m.reshape(tuple(dims) * 2).transpose(axes).reshape(m.shape))


def partial_trace(m, dims, traced):
    """Trace out the listed tensor factors of m; the kept factors keep their
    order, and tracing out every factor leaves the 1x1 matrix Tr(m)."""
    n = len(dims)
    t = m.reshape(tuple(dims) * 2)
    for removed, i in enumerate(sorted(traced)):
        t = np.trace(t, axis1=i - removed, axis2=i + n - 2 * removed)
    d = int(np.prod([dims[j] for j in range(n) if j not in traced]))
    return t.reshape(d, d)


def permute_factors(m, dims, perm):
    """Reorder the tensor factors of m: new position i holds old factor perm[i]."""
    n = len(dims)
    t = m.reshape(tuple(dims) * 2).transpose(list(perm) + [p + n for p in perm])
    return np.ascontiguousarray(t.reshape(m.shape))


def vectorize(u):
    """Operator double-ket |U>> = (id (x) U) sum_i |i>|i>, as a d^2 column vector.

    Component (i*d + j) is U[j, i], so <<U|U>> = Tr(U^dag U)."""
    return np.ascontiguousarray(np.asarray(u, dtype=complex).T.reshape(-1, 1))


def unvectorize(v):
    """Inverse of vectorize (exact, a pure index permutation)."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    d = int(round(np.sqrt(v.size)))
    return np.ascontiguousarray(v.reshape(d, d).T)


def heisenberg_assemblage(u, repreparations, final_povm):
    """Effective memory-side effects G[a][b] = Tr_A[(rho_a (x) id) U^dag
    (F_b (x) id) U] (Hermitian part), straight from the unitary: u maps
    A (x) E to B (x) E' with the measured system B as the first factor."""
    u = np.asarray(u, dtype=complex)
    effects = []
    for rho in repreparations:
        pair = []
        for fb in final_povm:
            heis = u.conj().T @ np.kron(fb, I2) @ u
            g = np.einsum("iaib->ab", (np.kron(rho, I2) @ heis).reshape(2, 2, 2, 2))
            pair.append(0.5 * (g + g.conj().T))
        effects.append(pair)
    return effects


def bloch_effect(gamma, r):
    """The qubit effect (1 + gamma) id/2 + r.sigma/2."""
    return 0.5 * ((1.0 + gamma) * I2 + r[0] * SX + r[1] * SY + r[2] * SZ)


def bias_and_bloch(effect):
    """(gamma, r) of a 2x2 effect, the inverse of bloch_effect."""
    effect = np.asarray(effect, dtype=complex)
    r = np.array([np.trace(effect @ sigma).real for sigma in (SX, SY, SZ)])
    return float(np.trace(effect).real - 1.0), r


def sharpness(gamma, r):
    """(sqrt((1+g)^2 - |r|^2) + sqrt((1-g)^2 - |r|^2)) / 2 of an effect;
    zero only for sharp rank-1 projectors."""
    r2 = float(np.dot(r, r))
    return 0.5 * (np.sqrt(max((1.0 + gamma) ** 2 - r2, 0.0))
                  + np.sqrt(max((1.0 - gamma) ** 2 - r2, 0.0)))


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


def swap_effect_params(alpha, theta_s, theta_e, phi_s, phi_e):
    """(bias, Bloch vector) of the two partial-swap assemblage effects in
    closed form, over angle arrays of one shape.

    Preparations |0> and |theta_s, phi_s>, final projector |theta_e, phi_e>:
    with c, s = cos, sin(alpha/2), effect a has bias c^2 f.r_a and Bloch
    vector s^2 f + s c (f x r_a), from the closed form of
    swap_assemblage_closed_form.
    """
    def unit(t, p):
        return np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=-1)

    c, s = np.cos(alpha / 2), np.sin(alpha / 2)
    f = unit(theta_e, phi_e)
    return [
        (c * c * np.sum(f * r, axis=-1), s * s * f + s * c * np.cross(f, r))
        for r in (np.broadcast_to([0.0, 0.0, 1.0], f.shape), unit(theta_s, phi_s))
    ]


def swap_jm_grid_margins(alpha, density):
    """Joint-measurability margin of the partial-swap assemblage on the full
    (theta_s, theta_e, phi_s, phi_e) grid, from the explicit Bloch vectors of
    swap_effect_params.

    Both sharpnesses equal c = cos(alpha/2) (checked against the Heisenberg
    assemblage in test_compat; recomputing them from (bias, vector) loses
    ~1e-8 where an effect is on the edge of the valid set).  The margin is the
    single inequality (r0.r1 - g0 g1)^2 - (1 - F0^2 - F1^2)(1 - g0^2/F0^2 -
    g1^2/F1^2) with the second factor clipped at 0 when the first is <= 0.
    """
    thetas = np.linspace(0.0, np.pi, density)
    phis = np.linspace(0.0, 2.0 * np.pi, density, endpoint=False)
    ts, te, ps, pe = np.meshgrid(thetas, thetas, phis, phis, indexing="ij")
    c = np.cos(alpha / 2)
    (g0, v0), (g1, v1) = swap_effect_params(alpha, ts, te, ps, pe)
    cross = np.sum(v0 * v1, axis=-1) - g0 * g1
    first = 1.0 - 2.0 * c * c
    second = 1.0 - (g0 / c) ** 2 - (g1 / c) ** 2
    if first <= 0.0:
        second = np.maximum(second, 0.0)
    return cross ** 2 - first * second


def random_unitary(rng, d):
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, d, rank=None):
    """Random d x d density matrix, of full rank unless rank is given."""
    z = rng.standard_normal((d, rank or d)) + 1j * rng.standard_normal((d, rank or d))
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


def seesaw_descent(w, reps, final):
    """Lowest gamma of W on the block-descent path from the re-preparations
    reps and the final POVM final.

    Each sweep takes the pair effects (negative-eigenspace projectors), each
    re-preparation (ground state of the operator gamma is linear in), and F
    (negative-eigenspace projector), until a sweep gains at most 1e-15 or for
    300 sweeps.  Every step keeps rho pure and F projective and never raises
    gamma.
    """
    pairs = [(b0, b1) for b0 in (0, 1) for b1 in (0, 1)]
    best = prev = np.inf
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


def upsilon_all_instrument_gamma(p, n_starts=8, seed=0):
    """Smallest gamma of upsilon_operator(p) over every measure-and-prepare
    instrument, final POVM and number of first-time settings.

    The first-time effects are eliminated exactly by pair_bounds, leaving
    gamma = 2 - sum_{b0,b1} ||(A_b0 - B_b1)_-||_1.  That is a minimum of affine
    functions, hence concave in rho0, in rho1 and in F, so pure
    re-preparations and a projective F suffice: six Bloch angles.  Each
    seeded start draws the six angles and runs seesaw_descent.
    """
    w = upsilon_operator(p)
    rng = np.random.default_rng(seed)
    best = np.inf
    for angles in rng.uniform(0.0, 1.0, (n_starts, 6)) * np.pi * np.array([1, 2] * 3):
        reps = [_bloch_projector(*angles[0:2]), _bloch_projector(*angles[2:4])]
        f0 = _bloch_projector(*angles[4:6])
        best = min(best, seesaw_descent(w, reps, (f0, I2 - f0)))
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


def no_crosstalk_feasible(probs):
    """Whether the behavior probs[x, a, b] is a mixture of the 4 * 2^|X|
    deterministic no-crosstalk vertices, a = f(x) and b = g(a): a feasibility
    LP (scipy's HiGHS) over the vertices written out in loops."""
    import itertools

    from scipy.optimize import linprog

    probs = np.asarray(probs, dtype=float)
    n = len(probs)
    columns = []
    for f in itertools.product((0, 1), repeat=n):
        for g in itertools.product((0, 1), repeat=2):
            vertex = np.zeros((n, 2, 2))
            for x in range(n):
                vertex[x, f[x], g[f[x]]] = 1.0
            columns.append(vertex.ravel())
    # the weights reproduce every cell and sum to one
    a_eq = np.vstack([np.array(columns).T, np.ones(len(columns))])
    b_eq = np.append(probs.ravel(), 1.0)
    result = linprog(np.zeros(len(columns)), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                     method="highs")
    return result.status == 0


def bootstrap_errors_reference(behavior, n_resamples, seed=0, do_table=None,
                               frozen_argmin=False):
    """certify.bootstrap_errors as it stood with an (R, X, 2, 2) resample array
    and one reduction over the settings axis per functional, with every kernel
    written out here: the same random stream, the same per-element division
    and the same summation order, so its results are the library's bit for bit."""

    def gamma_of(probs, argmin=None):
        t = probs[..., :, 0, :, None] + probs[..., :, 1, None, :]
        if argmin is None:
            argmin = t.argmin(axis=-3)
        else:
            argmin = np.broadcast_to(argmin, t.shape[:-3] + (2, 2))
        minima = np.take_along_axis(t, argmin[..., None, :, :], axis=-3)[..., 0, :, :]
        return minima.sum(axis=(-2, -1)), argmin

    counts = behavior.counts
    rng = np.random.default_rng(seed)
    resampled = np.empty((n_resamples, len(behavior.settings), 2, 2))
    for xi in range(len(behavior.settings)):
        n = int(counts[xi].sum())
        pvals = counts[xi].reshape(-1) / counts[xi].sum()
        draws = rng.multinomial(n, pvals / pvals.sum(), size=n_resamples)
        resampled[:, xi] = draws.reshape(n_resamples, 2, 2) / n

    frozen_idx = None
    if frozen_argmin:
        frozen_idx = gamma_of(np.asarray(behavior.probs, dtype=float))[1]
    gammas, _ = gamma_of(resampled, frozen_idx)
    pearls = resampled.max(axis=-3).sum(axis=-1).max(axis=-1)
    errors = {
        "gamma": float(gammas.std(ddof=1)),
        "pearl_delta": float(pearls.std(ddof=1)),
    }

    if do_table is not None and do_table.do_settings is not None:
        k = len(do_table.do_settings)
        dcounts = do_table.counts
        dres = np.empty((n_resamples, 2, k, 2))
        for a in (0, 1):
            for ki in range(k):
                n = int(dcounts[a, ki].sum())
                pvals = dcounts[a, ki] / dcounts[a, ki].sum()
                draws = rng.multinomial(n, pvals / pvals.sum(), size=n_resamples)
                dres[:, a, ki] = draws / n
        by_setting = np.ascontiguousarray(np.moveaxis(dres, -2, 0))
        acdes = (by_setting.max(axis=0) - by_setting.min(axis=0)).max(axis=(-2, -1))
        errors["acde"] = float(acdes.std(ddof=1))
        errors["corrected_lhs"] = float((gammas + 2.0 * acdes).std(ddof=1))
    elif do_table is not None:
        errors["acde"] = 0.0
        errors["corrected_lhs"] = errors["gamma"]
    return errors


def gamma_formula(probs):
    """Gamma of every table in probs (..., X, 2, 2) by its definition: over
    (b0, b1) in the order 00, 01, 10, 11, add the minimum over settings of
    P(0, b0 | x) + P(1, b1 | x).  Computed in probs' dtype."""
    total = None
    for b0 in (0, 1):
        for b1 in (0, 1):
            term = (probs[..., :, 0, b0] + probs[..., :, 1, b1]).min(axis=-1)
            total = term if total is None else total + term
    return total


def pearl_formula(probs):
    """Pearl's delta of every table in probs (..., X, 2, 2): the larger over
    a of the sum over b of the maximum over settings of P(a, b | x)."""
    best = [[probs[..., :, a, b].max(axis=-1) for b in (0, 1)] for a in (0, 1)]
    return np.maximum(best[0][0] + best[0][1], best[1][0] + best[1][1])


def acde_formula(probs):
    """ACDE of every do-table in probs (..., 2, K, 2): the largest over (a, b)
    of the spread over settings of P(b | do(a, x))."""
    shifts = [probs[..., a, :, b].max(axis=-1) - probs[..., a, :, b].min(axis=-1)
              for a in (0, 1) for b in (0, 1)]
    return np.maximum(np.maximum(shifts[0], shifts[1]), np.maximum(shifts[2], shifts[3]))
