"""Device-independent certification functionals on behaviors and do-tables.

Everything in this module sees only conditional probability tables, never
states or measurement operators; that restriction is what makes the verdicts
device-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .exceptions import DomainError, ValidationError
from .process import Behavior, DoTable

# Self-testing threshold constant (8 + 7 sqrt(2)) / 17, kept as the exact
# expression evaluated in double precision.
S_K = (8.0 + 7.0 * math.sqrt(2.0)) / 17.0

GAMMA_MAX_VIOLATION = 2.0 - math.sqrt(2.0)

DEFAULT_RESAMPLES = 10_000
DEFAULT_SIGMA_K = 3.0


@dataclass(frozen=True)
class CertReport:
    """All certification outputs for one data set."""

    gamma: float
    pearl_delta: float
    argmin_settings: Mapping[tuple[int, int], str]
    acde: float | None = None
    chsh_pair: tuple[float, float] | None = None
    fidelity_lower_bound: float | None = None
    verdict_nonclassical: bool = False
    verdict_crosstalk_witnessed: bool = False
    std_errors: Mapping[str, float] | None = None
    seed: int = 0
    n_resamples: int = 0

    def to_json_dict(self) -> dict:
        """Fixed-field-order dictionary matching the report.json schema."""
        errs = self.std_errors or {}
        return {
            "gamma": self.gamma,
            "gamma_stderr": errs.get("gamma"),
            "pearl_delta": self.pearl_delta,
            "acde": self.acde,
            "chsh": list(self.chsh_pair) if self.chsh_pair is not None else None,
            "fidelity_lb": self.fidelity_lower_bound,
            "verdict_nonclassical": self.verdict_nonclassical,
            "verdict_crosstalk_witnessed": self.verdict_crosstalk_witnessed,
            "argmin": {
                f"{b0}{b1}": x for (b0, b1), x in sorted(self.argmin_settings.items())
            },
            "seed": self.seed,
            "resamples": self.n_resamples,
        }


def pair_minima(
    probs: np.ndarray, argmin: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair minimum over settings of T[x, b0, b1] = P(0, b0 | x) + P(1, b1 | x).

    probs has shape (..., X, 2, 2) over any leading axes.  Returns the minima,
    shape (..., 2, 2), and the setting index attaining each; ties go to the
    smallest index.  A given argmin (broadcastable to (..., 2, 2)) pins the
    settings instead of selecting them.
    """
    t = probs[..., :, 0, :, None] + probs[..., :, 1, None, :]
    if argmin is None:
        argmin = t.argmin(axis=-3)
    else:
        argmin = np.broadcast_to(argmin, t.shape[:-3] + (2, 2))
    return np.take_along_axis(t, argmin[..., None, :, :], axis=-3)[..., 0, :, :], argmin


def gamma_values(
    probs: np.ndarray, argmin: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Gamma of every table in probs (..., X, 2, 2), shape (...), with the
    per-pair setting indices of pair_minima."""
    minima, argmin = pair_minima(probs, argmin)
    return minima.sum(axis=(-2, -1)), argmin


def pearl_values(probs: np.ndarray) -> np.ndarray:
    """Pearl's delta of every table in probs (..., X, 2, 2), shape (...)."""
    return probs.max(axis=-3).sum(axis=-1).max(axis=-1)


def acde_values(probs: np.ndarray) -> np.ndarray:
    """ACDE of every do-table in probs (..., 2, K, 2), shape (...); zero when K = 1."""
    # settings first and contiguous: each reduction then runs over whole tables
    by_setting = np.ascontiguousarray(np.moveaxis(probs, -2, 0))
    return (by_setting.max(axis=0) - by_setting.min(axis=0)).max(axis=(-2, -1))


def gamma_functional(b: Behavior) -> tuple[float, dict[tuple[int, int], str]]:
    """Sum over (b0, b1) of the per-pair minimum over settings of
    P(0, b0 | x) + P(1, b1 | x); classical models give at least 1.

    Ties in the minimum are broken toward the smallest setting index, and the
    chosen setting is recorded per (b0, b1) so the result is reproducible.
    """
    gamma, idx = gamma_values(np.asarray(b.probs, dtype=float))
    argmin = {(b0, b1): b.settings[idx[b0, b1]] for b0 in (0, 1) for b1 in (0, 1)}
    return float(gamma), argmin


def pearl_delta(b: Behavior) -> float:
    """max over a of sum over b of the per-(a, b) supremum over settings;
    above 1 only in the presence of crosstalk, in any physical theory."""
    return float(pearl_values(np.asarray(b.probs, dtype=float)))


def acde(d: DoTable) -> float:
    """Largest interventional shift sup |P(b|do(a,x)) - P(b|do(a,x'))|;
    exactly zero for a table without a setting index."""
    if d.do_settings is None:
        return 0.0
    return float(acde_values(np.asarray(d.probs, dtype=float)))


def corrected_lhs(b: Behavior, d: DoTable) -> float:
    """Crosstalk-corrected left-hand side gamma + 2 ACDE (classical bound 1)."""
    return gamma_functional(b)[0] + 2.0 * acde(d)


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
    p = np.asarray(b.probs, dtype=float)
    c = p[:, :, 0] - p[:, :, 1]  # c[x, a]

    def at(b0: int, b1: int) -> np.ndarray:
        return c[b.setting_index(argmin[(b0, b1)])]

    c00, c01, c10, c11 = at(0, 0), at(0, 1), at(1, 0), at(1, 1)
    chsh1 = -2.0 * (c00[0] + c00[1]) + 2.0 * (c10[0] - c10[1])
    chsh2 = -2.0 * (c01[0] - c01[1]) + 2.0 * (c11[0] + c11[1])
    return float(chsh1), float(chsh2)


def fidelity_lower_bound(gamma: float, atol: float = 1e-12) -> float:
    """Device-independent lower bound on the memory fidelity from gamma,
    (1 - (gamma - 2 + S_K)/(sqrt(2) - S_K))/2, clamped to [0, 1]."""
    if gamma < GAMMA_MAX_VIOLATION - atol or gamma > 2.0 + atol:
        raise DomainError(f"gamma {gamma} outside [2 - sqrt(2), 2]")
    f = 0.5 * (1.0 - (gamma - 2.0 + S_K) / (math.sqrt(2.0) - S_K))
    return min(max(f, 0.0), 1.0)


def _counts_from_behavior(b: Behavior) -> np.ndarray:
    if b.shots is None:
        raise ValidationError("behavior carries no shot counts")
    counts = np.empty_like(np.asarray(b.probs))
    for xi, x in enumerate(b.settings):
        n = int(b.shots[x])
        if n < 1:
            raise ValidationError(f"setting {x!r} has no shots")
        counts[xi] = np.asarray(b.probs[xi]) * n
    rounded = np.rint(counts)
    if np.abs(rounded - counts).max() > 1e-6:
        raise ValidationError("behavior frequencies are not consistent with shots")
    return rounded.astype(np.int64)


def _counts_from_dotable(d: DoTable) -> np.ndarray:
    if d.shots is None or d.do_settings is None:
        raise ValidationError("do-table carries no shot counts")
    counts = np.empty_like(np.asarray(d.probs))
    for a in (0, 1):
        for k, x in enumerate(d.do_settings):
            n = int(d.shots[(a, x)])
            if n < 1:
                raise ValidationError(f"do-row (a={a}, x={x!r}) has no shots")
            counts[a, k] = np.asarray(d.probs[a, k]) * n
    rounded = np.rint(counts)
    if np.abs(rounded - counts).max() > 1e-6:
        raise ValidationError("do-table frequencies are not consistent with shots")
    return rounded.astype(np.int64)


def bootstrap_errors(
    behavior: Behavior,
    n_resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
    do_table: DoTable | None = None,
    frozen_argmin: bool = False,
) -> dict[str, float]:
    """Nonparametric bootstrap standard errors of the certification functionals.

    Counts are resampled multinomially per setting (and per intervention row)
    from the observed frequencies; the reported error is the sample standard
    deviation of the functional over resamples.  By default the gamma argmin
    is re-selected in every resample, which is the honest variance of the
    estimator; frozen_argmin pins it to the point-estimate settings instead.
    Deterministic for a fixed seed.
    """
    if n_resamples < 2:
        raise ValidationError("need at least two resamples")
    counts = _counts_from_behavior(behavior)
    rng = np.random.default_rng(seed)
    resampled = np.empty((n_resamples, len(behavior.settings), 2, 2))
    for xi in range(len(behavior.settings)):
        n = int(counts[xi].sum())
        pvals = counts[xi].reshape(-1) / counts[xi].sum()
        draws = rng.multinomial(n, pvals / pvals.sum(), size=n_resamples)
        resampled[:, xi] = draws.reshape(n_resamples, 2, 2) / n

    frozen_idx = None
    if frozen_argmin:
        frozen_idx = gamma_values(np.asarray(behavior.probs, dtype=float))[1]
    gammas, _ = gamma_values(resampled, frozen_idx)
    pearls = pearl_values(resampled)
    errors = {
        "gamma": float(gammas.std(ddof=1)),
        "pearl_delta": float(pearls.std(ddof=1)),
    }

    if do_table is not None and do_table.do_settings is not None:
        dcounts = _counts_from_dotable(do_table)
        k = len(do_table.do_settings)
        dres = np.empty((n_resamples, 2, k, 2))
        for a in (0, 1):
            for ki in range(k):
                n = int(dcounts[a, ki].sum())
                pvals = dcounts[a, ki] / dcounts[a, ki].sum()
                draws = rng.multinomial(n, pvals / pvals.sum(), size=n_resamples)
                dres[:, a, ki] = draws / n
        acdes = acde_values(dres)
        errors["acde"] = float(acdes.std(ddof=1))
        errors["corrected_lhs"] = float((gammas + 2.0 * acdes).std(ddof=1))
    elif do_table is not None:
        errors["acde"] = 0.0
        errors["corrected_lhs"] = errors["gamma"]
    return errors


def certify_behavior(
    behavior: Behavior,
    do_table: DoTable | None = None,
    n_resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
    sigma_k: float = DEFAULT_SIGMA_K,
    frozen_argmin: bool = False,
) -> CertReport:
    """Evaluate every functional on one data set and assemble the report.

    Statistical verdicts use a sigma_k * stderr margin when shot counts are
    available and plain strict inequalities otherwise.  The fidelity bound is
    evaluated at the gamma estimate clamped into its domain (a sampled gamma
    can fluctuate slightly past the quantum bound).
    """
    gamma, argmin = gamma_functional(behavior)
    delta = pearl_delta(behavior)
    chsh = chsh_decomposition(behavior, argmin) if len(behavior.settings) >= 2 else None
    acde_value = acde(do_table) if do_table is not None else None

    errors: dict[str, float] | None = None
    if behavior.shots is not None:
        errors = bootstrap_errors(
            behavior, n_resamples, seed, do_table=do_table, frozen_argmin=frozen_argmin
        )

    fid = fidelity_lower_bound(min(max(gamma, GAMMA_MAX_VIOLATION), 2.0))

    if acde_value is not None:
        lhs = gamma + 2.0 * acde_value
        lhs_err = (errors or {}).get("corrected_lhs", 0.0)
    else:
        lhs = gamma
        lhs_err = (errors or {}).get("gamma", 0.0)
    delta_err = (errors or {}).get("pearl_delta", 0.0)

    return CertReport(
        gamma=gamma,
        pearl_delta=delta,
        argmin_settings=argmin,
        acde=acde_value,
        chsh_pair=chsh,
        fidelity_lower_bound=fid,
        verdict_nonclassical=bool(lhs < 1.0 - sigma_k * lhs_err),
        verdict_crosstalk_witnessed=bool(delta > 1.0 + sigma_k * delta_err),
        std_errors=errors,
        seed=seed,
        n_resamples=n_resamples if errors is not None else 0,
    )
