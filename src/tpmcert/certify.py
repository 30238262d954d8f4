"""Device-independent certification functionals on behaviors and do-tables.

Everything in this module sees only conditional probability tables, never
states or measurement operators; that restriction is what makes the verdicts
device-independent.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Mapping

import numpy as np

from .exceptions import DomainError, ResourceLimitError, ValidationError
from .process import Behavior, DoTable

# Half of Kaniewski's CHSH self-testing threshold beta* = (16 + 14 sqrt(2)) / 17
# (PRL 117, 070402 (2016)), the CHSH value above which the singlet fidelity
# bound is nontrivial; under gamma = 2 - beta / 2 that threshold reads
# gamma = 2 - S_K.  Kept as the exact expression evaluated in double precision.
S_K = (8.0 + 7.0 * math.sqrt(2.0)) / 17.0

GAMMA_MAX_VIOLATION = 2.0 - math.sqrt(2.0)

DEFAULT_RESAMPLES = 10_000
MAX_RESAMPLES = 1_000_000
# resamples times resampled table rows (settings plus do-table rows).  The
# bootstrap holds one row's frequencies at a time, so its memory grows with
# the resamples alone (tracemalloc: 192 bytes per resample) and this bounds
# its time, about 3 s at the cap on a shared 2-vCPU VM; it still admits the
# memory test with its do-table (4 + 8 rows) at MAX_RESAMPLES
MAX_RESAMPLED_ROWS = 12_000_000
DEFAULT_SIGMA_K = 3.0


@dataclass(frozen=True)
class CertReport:
    """The report.json schema: each field is one key of the file, in file
    order, and to_json_dict writes them as they are.

    gamma_stderr is the bootstrap standard error of gamma, drawn from seed
    with resamples resamples; a table without counts gets no bootstrap, so
    None and 0 resamples.  acde is None without an interventional table, and
    chsh, the pair [CHSH', CHSH''] with gamma = 2 - (CHSH' + CHSH'')/4, None
    below two settings.  argmin maps each pair "b0b1", in the order 00, 01,
    10, 11, to the setting that attains its minimum in gamma.
    """

    gamma: float
    gamma_stderr: float | None
    pearl_delta: float
    acde: float | None
    chsh: list[float] | None
    fidelity_lb: float
    verdict_nonclassical: bool
    verdict_crosstalk_witnessed: bool
    argmin: dict[str, str]
    seed: int
    resamples: int

    def to_json_dict(self) -> dict:
        """The report.json document: the fields, in their order."""
        return asdict(self)


# The kernels below work on [..., b0, b1] cell slices and never reduce over a
# trailing axis of length 2 or 4, which numpy does far more slowly.  Settings
# outermost in memory (classical._tables' stacks) reduce fastest; bootstrap_errors
# folds one setting at a time, resamples innermost, into one workspace.


def _pair_terms(probs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """T[..., b0, b1] = P(0, b0) + P(1, b1) of probs (..., 2, 2), of every
    setting at once for probs (..., X, 2, 2), in one broadcast add."""
    return np.add(probs[..., 0, :, None], probs[..., 1, None, :], out=out)


def _gamma(minima: np.ndarray) -> np.ndarray:
    """Sum of the pair minima (..., 2, 2), added in the order 00, 01, 10, 11."""
    return ((minima[..., 0, 0] + minima[..., 0, 1]) + minima[..., 1, 0]) + minima[..., 1, 1]


def gamma_values(probs: np.ndarray) -> np.ndarray:
    """Gamma of every table in probs (..., X, 2, 2), shape (...) in the dtype
    of probs (exact for int8 0/1 tables)."""
    return _gamma(_pair_terms(probs).min(axis=-3))


def _pearl(best: np.ndarray) -> np.ndarray:
    """Pearl's delta from the cell maxima over settings (..., 2, 2)."""
    return np.maximum(best[..., 0, 0] + best[..., 0, 1], best[..., 1, 0] + best[..., 1, 1])


def _largest(cells: np.ndarray) -> np.ndarray:
    """The largest of the cells (..., 2, 2)."""
    return np.maximum(np.maximum(cells[..., 0, 0], cells[..., 0, 1]),
                      np.maximum(cells[..., 1, 0], cells[..., 1, 1]))


def acde_values(probs: np.ndarray) -> np.ndarray:
    """ACDE of every do-table in probs (..., 2, K, 2), shape (...); zero when K = 1."""
    return _largest(probs.max(axis=-2) - probs.min(axis=-2))


def gamma_functional(b: Behavior) -> tuple[float, dict[tuple[int, int], str]]:
    """Sum over (b0, b1) of the per-pair minimum over settings of
    P(0, b0 | x) + P(1, b1 | x); classical models give at least 1.

    Ties in the minimum are broken toward the smallest setting index, and the
    chosen setting is recorded per (b0, b1) so the result is reproducible.
    """
    t = _pair_terms(b.probs)
    idx = t.argmin(axis=0).tolist()
    argmin = {(b0, b1): b.settings[idx[b0][b1]] for b0 in (0, 1) for b1 in (0, 1)}
    return float(_gamma(t.min(axis=0))), argmin


def pearl_delta(b: Behavior) -> float:
    """max over a of sum over b of the per-(a, b) supremum over settings;
    above 1 only in the presence of crosstalk, in any physical theory."""
    return float(_pearl(b.probs.max(axis=0)))


def acde(d: DoTable) -> float:
    """Largest interventional shift sup |P(b|do(a,x)) - P(b|do(a,x'))|;
    exactly zero for a table without a setting index."""
    if d.do_settings is None:
        return 0.0
    return float(acde_values(d.probs))


def chsh_decomposition(
    b: Behavior, argmin: Mapping[tuple[int, int], str]
) -> tuple[float, float]:
    """Two CHSH-type scores of the post-selected Bell mapping such that
    gamma = 2 - (chsh1 + chsh2)/4 exactly.

    The scores are built from the signed outcome correlators available in the
    table, C_a(x) = P(a, 0 | x) - P(a, 1 | x), evaluated at the recorded
    argmin settings.
    """
    if len(b.settings) < 2:
        raise ValidationError("need at least two settings for a CHSH split")
    c = (b.probs[:, :, 0] - b.probs[:, :, 1]).tolist()  # c[x][a], as Python floats
    c00, c01, c10, c11 = (c[b.setting_index(argmin[k])] for k in ((0, 0), (0, 1), (1, 0), (1, 1)))
    chsh1 = -2.0 * (c00[0] + c00[1]) + 2.0 * (c10[0] - c10[1])
    chsh2 = -2.0 * (c01[0] - c01[1]) + 2.0 * (c11[0] + c11[1])
    return chsh1, chsh2


def fidelity_lower_bound(gamma: float) -> float:
    """Device-independent lower bound on the memory fidelity from gamma,
    (1 - (gamma - 2 + S_K)/(sqrt(2) - S_K))/2, clamped to [0, 1]; gamma
    must lie in [2 - sqrt(2), 2] within 1e-12."""
    if gamma < GAMMA_MAX_VIOLATION - 1e-12 or gamma > 2.0 + 1e-12:
        raise DomainError(f"gamma {gamma} outside [2 - sqrt(2), 2]")
    f = 0.5 * (1.0 - (gamma - 2.0 + S_K) / (math.sqrt(2.0) - S_K))
    return min(max(f, 0.0), 1.0)


def check_seed(seed: int) -> None:
    """Raise ValidationError for a seed that numpy's generators refuse."""
    if seed < 0:
        raise ValidationError(f"--seed (config key seed) {seed} is negative")


def check_resamples(n_resamples: int) -> None:
    """Raise unless a bootstrap may draw n_resamples resamples: at least two
    (ValidationError), at most MAX_RESAMPLES (ResourceLimitError)."""
    if n_resamples < 2:
        raise ValidationError(f"--resamples (config key resamples) {n_resamples} is below 2")
    if n_resamples > MAX_RESAMPLES:
        raise ResourceLimitError(f"--resamples (config key resamples) {n_resamples} "
                                 f"exceeds the limit of {MAX_RESAMPLES}")


def check_sigma_k(sigma_k: float) -> None:
    """Raise ValidationError unless sigma_k is a positive finite number: a
    negative margin would certify below the plug-in value, NaN would decide
    every verdict False."""
    if not 0.0 < sigma_k < math.inf:
        raise ValidationError(f"--sigma-k (config key sigma_k) {sigma_k} is not a positive "
                              f"finite number")


def bootstrap_errors(
    behavior: Behavior,
    n_resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
    do_table: DoTable | None = None,
    frozen_argmin: bool = False,
) -> dict[str, float]:
    """Nonparametric bootstrap standard errors of the certification functionals.

    The behavior's counts are resampled multinomially per setting, and a
    do-table's per intervention row when it has counts and a setting index
    (otherwise its ACDE error is zero); the reported error is the sample
    standard deviation of the functional over resamples.  By default the
    gamma argmin is re-selected in every resample, which is the honest
    variance of the estimator; frozen_argmin pins it to the point-estimate
    settings instead.  Deterministic for a fixed seed.  Resamples times
    resampled rows may not exceed MAX_RESAMPLED_ROWS.
    """
    check_seed(seed)
    check_resamples(n_resamples)
    counts = behavior.counts
    if counts is None:
        raise ValidationError("behavior carries no counts to resample")
    resample_do = (do_table is not None and do_table.do_settings is not None
                   and do_table.counts is not None)
    rows = len(counts) + (2 * len(do_table.do_settings) if resample_do else 0)
    if n_resamples * rows > MAX_RESAMPLED_ROWS:
        raise ResourceLimitError(
            f"--resamples (config key resamples) {n_resamples} times {rows} table rows "
            f"is {n_resamples * rows} resampled rows, which exceeds the limit of "
            f"{MAX_RESAMPLED_ROWS}")
    rng = np.random.default_rng(seed)
    if frozen_argmin:
        frozen_idx = _pair_terms(behavior.probs).argmin(axis=0)
    # one workspace of four (2, 2, R) slabs, seen as (R, 2, 2) with the
    # resamples innermost: one setting's frequencies and pair terms, and the
    # running pair minima and cell maxima they fold into, which start from
    # +inf and -inf.  The do-table reuses it; one allocation per call, where
    # separate buffers made the allocator hand memory back and fault it in
    # again (about 500 page faults per op of the benchmark's certify round)
    work = np.empty((4, 2, 2, n_resamples))
    freqs, terms, minima, best = np.moveaxis(work, -1, 1)
    minima.fill(np.inf)
    best.fill(-np.inf)
    for xi in range(len(behavior.settings)):
        n = int(counts[xi].sum())
        pvals = counts[xi].reshape(-1) / n
        draws = rng.multinomial(n, pvals / pvals.sum(), size=n_resamples)
        np.divide(draws.T, n, out=work[0].reshape(4, n_resamples))
        _pair_terms(freqs, out=terms)
        if frozen_argmin:  # each pair ends with the terms of its pinned setting
            np.copyto(minima, terms, where=frozen_idx == xi)
        else:
            np.minimum(minima, terms, out=minima)
        np.maximum(best, freqs, out=best)
    gammas = _gamma(minima)
    pearls = _pearl(best)
    errors = {
        "gamma": float(gammas.std(ddof=1)),
        "pearl_delta": float(pearls.std(ddof=1)),
    }

    if resample_do:
        dcounts = do_table.counts
        # per intervention row (a, k), its two cells' frequencies (2, R),
        # folded into the cells' maxima and minima over k, in the workspace
        # that gammas and pearls no longer need.  A two-cell multinomial
        # draws one binomial of its first cell, so this binomial draws the
        # same counts from the same stream.
        hi, lo = work[:2]
        hi.fill(-np.inf)
        lo.fill(np.inf)
        row = work[2, 0]
        for a in (0, 1):
            for ki in range(len(do_table.do_settings)):
                n = int(dcounts[a, ki].sum())
                pvals = dcounts[a, ki] / n
                draws = rng.binomial(n, (pvals / pvals.sum())[0], size=n_resamples)
                np.divide(draws, n, out=row[0])
                np.divide(np.subtract(n, draws, out=draws), n, out=row[1])
                np.maximum(hi[a], row, out=hi[a])
                np.minimum(lo[a], row, out=lo[a])
        acdes = _largest(np.moveaxis(np.subtract(hi, lo, out=hi), -1, 0))
        errors["acde"] = float(acdes.std(ddof=1))
        errors["corrected_lhs"] = float((gammas + 2.0 * acdes).std(ddof=1))
    elif do_table is not None:
        errors["acde"] = 0.0
        errors["corrected_lhs"] = errors["gamma"]
    return errors


def check_do_settings(behavior: Behavior, do_table: DoTable | None) -> None:
    """Raise ValidationError unless a do-table with a setting index has the
    behavior's setting labels; ACDE over fewer settings understates the
    crosstalk that gamma + 2 ACDE must absorb."""
    if (do_table is not None and do_table.do_settings is not None
            and set(do_table.do_settings) != set(behavior.settings)):
        raise ValidationError(f"do-table settings {list(do_table.do_settings)} are not "
                              f"the behavior's {list(behavior.settings)}")


def certify_behavior(
    behavior: Behavior,
    do_table: DoTable | None = None,
    n_resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
    sigma_k: float = DEFAULT_SIGMA_K,
    frozen_argmin: bool = False,
) -> CertReport:
    """Evaluate every functional on one data set into its report.

    A do-table with a setting index must have the behavior's setting labels.
    Statistical verdicts use a sigma_k * stderr margin (sigma_k positive and
    finite) when the behavior carries counts and plain strict inequalities
    otherwise; the bootstrap errors of Pearl's delta, ACDE and gamma + 2 ACDE
    decide them and are not reported.  The fidelity bound is evaluated at the
    gamma estimate clamped into its domain (a sampled gamma can fluctuate
    slightly past the quantum bound).
    """
    check_sigma_k(sigma_k)
    check_do_settings(behavior, do_table)
    gamma, argmin = gamma_functional(behavior)
    delta = pearl_delta(behavior)
    acde_value = acde(do_table) if do_table is not None else None

    errors: dict[str, float] = {}
    if behavior.counts is not None:
        errors = bootstrap_errors(behavior, n_resamples, seed, do_table=do_table,
                                  frozen_argmin=frozen_argmin)
    lhs = gamma if acde_value is None else gamma + 2.0 * acde_value
    lhs_err = errors.get("gamma" if acde_value is None else "corrected_lhs", 0.0)
    delta_err = errors.get("pearl_delta", 0.0)

    return CertReport(
        gamma=gamma,
        gamma_stderr=errors.get("gamma"),
        pearl_delta=delta,
        acde=acde_value,
        chsh=list(chsh_decomposition(behavior, argmin)) if len(behavior.settings) >= 2 else None,
        fidelity_lb=fidelity_lower_bound(min(max(gamma, GAMMA_MAX_VIOLATION), 2.0)),
        verdict_nonclassical=bool(lhs < 1.0 - sigma_k * lhs_err),
        verdict_crosstalk_witnessed=bool(delta > 1.0 + sigma_k * delta_err),
        argmin={f"{b0}{b1}": x for (b0, b1), x in argmin.items()},
        seed=seed,
        resamples=n_resamples if errors else 0,
    )
