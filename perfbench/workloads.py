"""The four workloads: seeded inputs, the round of ops each run repeats, and
the checks of every op's output against reference.py.

A workload object has
  ops        one round: a list of Op, each one call of a public tpmcert
             entry point; a run repeats whole rounds
  prepare()  computes the references (untimed, after set-up is measured)
  check(op, result) -> bool
             cheap per-op check, called after each op; True means the op
             failed; wrong results are collected in .problems
  finish()   the expensive checks, after the timed phase
  probe_ops  a fixed, seed-independent op of this workload's kind, which a
             traced run of another workload uses for the layers that
             workload does not reach

Inputs come only from the seed; the program sees the generated inputs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import reference as ref
from tpmcert import classical, cli, compat, dataio, proclib

TOL = 1e-12
RESAMPLES = 10_000
# |s_program - s_reference| <= STDERR_RTOL * s_reference between two
# independent 10k-resample bootstraps of the same table (see README)
STDERR_RTOL = 0.08
REPORT_FIELDS = [
    "gamma", "gamma_stderr", "pearl_delta", "acde", "chsh", "fidelity_lb",
    "verdict_nonclassical", "verdict_crosstalk_witnessed", "argmin", "seed",
    "resamples",
]


class Op:
    def __init__(self, label: str, call, **data):
        self.label = label
        self.call = call
        self.__dict__.update(data)


class Workload:
    name = ""

    def __init__(self):
        self.problems: list[str] = []

    def prepare(self) -> None:
        pass

    def finish(self) -> None:
        pass

    def problem(self, op: Op, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(f"{self.name}/{op.label}: {text}")


# --- certify -------------------------------------------------------------------

CERTIFY_X = (2, 3, 4, 5, 6, 7, 8)
STANDARD_ANGLES = (math.pi / 2, 0.0, 3 * math.pi / 2, math.pi)  # x, z, -x, -z


def _memory_test_tables(angles):
    """Quantum part: the memory-test process with x-z plane settings."""
    settings = [(ref.projector(ref.xz_direction(t)), ref.projector(-ref.xz_direction(t)))
                for t in angles]
    diag = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
    reps = (ref.projector([-1.0, 0, 0]), ref.projector([1.0, 0, 0]))
    return ref.sequential_tables(ref.bell_state(), ref.memory_test_unitary(), settings,
                                 reps, (ref.projector(diag), ref.projector(-diag)))


def _classical_tables(rng, n_x: int, crosstalk: bool):
    """Mixture of three deterministic strategies: a = f(x) and b = g(a), or
    b = h(a, x) with crosstalk; do-table d[a, x, b]."""
    obs = np.zeros((n_x, 2, 2))
    do = np.zeros((2, n_x, 2))
    for w in rng.dirichlet(np.ones(3)):
        f = rng.integers(0, 2, n_x)
        h = rng.integers(0, 2, (2, n_x)) if crosstalk else np.repeat(
            rng.integers(0, 2, (2, 1)), n_x, axis=1)
        for x in range(n_x):
            obs[x, f[x], h[f[x], x]] += w
            for a in (0, 1):
                do[a, x, h[a, x]] += w
    return obs, do


def _draw(rng, probs: np.ndarray) -> np.ndarray:
    """Multinomial counts of one row at 10^3 to 10^5 shots."""
    shots = int(round(10 ** rng.uniform(3.0, 5.0)))
    p = probs.reshape(-1).clip(min=0.0)
    return rng.multinomial(shots, p / p.sum()).reshape(probs.shape)


class Certify(Workload):
    """`tpmcert certify` in-process: 14 count tables per round, |X| = 2..8,
    every other one with an interventional table."""

    name = "certify"

    def __init__(self, seed: int, workdir: Path):
        super().__init__()
        rng = np.random.default_rng([1, seed])
        n = 2 * len(CERTIFY_X)
        mix = (np.arange(n) + rng.uniform(size=n)) / n
        rng.shuffle(mix)
        self.ops = []
        for k in range(n):
            n_x, with_do = CERTIFY_X[k // 2], k % 2 == 0
            if n_x == 4 and with_do:  # the ideal memory test
                angles, lam = STANDARD_ANGLES, 1.0
            else:
                extra = rng.uniform(0.0, 2 * math.pi, max(0, n_x - 4))
                angles = tuple(rng.permutation(STANDARD_ANGLES)[:n_x]) + tuple(extra)
                lam = float(mix[k])
            q_obs, q_do = _memory_test_tables(angles)
            c_obs, c_do = _classical_tables(rng, n_x, crosstalk=with_do)
            obs = np.array([_draw(rng, lam * q_obs[x] + (1 - lam) * c_obs[x])
                            for x in range(n_x)])
            do = None
            if with_do:
                do_p = lam * np.repeat(q_do, n_x, axis=1) + (1 - lam) * c_do
                do = np.array([[_draw(rng, do_p[a, x]) for x in range(n_x)]
                               for a in (0, 1)])
            self.ops.append(self._op(k, workdir, obs, do, int(rng.integers(2**31))))
        # the ideal memory test, three times so no single call sets a figure
        self.probe_ops = [self.ops[2 * CERTIFY_X.index(4)]] * 3

    @staticmethod
    def _op(k: int, workdir: Path, obs: np.ndarray, do, seed: int) -> Op:
        table = workdir / f"t{k}"
        table.mkdir(parents=True, exist_ok=True)
        rows = ["x,a,b,count"] + [f"s{x},{a},{b},{obs[x, a, b]}"
                                  for x in range(len(obs)) for a in (0, 1) for b in (0, 1)]
        (table / "obs.csv").write_text("\n".join(rows) + "\n")
        argv = ["certify", "--counts", str(table / "obs.csv"), "--resamples",
                str(RESAMPLES), "--seed", str(seed), "--out", str(table / "out")]
        if do is not None:
            rows = ["do_a,x,b,count"] + [f"{a},s{x},{b},{do[a, x, b]}"
                                         for a in (0, 1) for x in range(do.shape[1])
                                         for b in (0, 1)]
            (table / "do.csv").write_text("\n".join(rows) + "\n")
            argv[3:3] = ["--do-counts", str(table / "do.csv")]
        return Op(f"t{k}(|X|={len(obs)}{',do' if do is not None else ''})",
                  lambda: cli.main(argv), obs=obs, do=do, seed=seed,
                  report=table / "out" / "report.json", bytes=None)

    def check(self, op: Op, rc) -> bool:
        if rc != 0:
            return True
        data = op.report.read_bytes()
        if op.bytes is None:
            op.bytes = data
        elif data != op.bytes:
            self.problem(op, "report.json bytes differ for a repeated seed")
        return False

    def finish(self) -> None:
        for op in self.ops:
            if op.bytes is not None:
                self._verify(op, json.loads(op.bytes))

    def _verify(self, op: Op, d: dict) -> None:
        if list(d) != REPORT_FIELDS:
            self.problem(op, f"report fields {list(d)}")
            return
        want = ref.functionals(op.obs, op.do)
        for key in ("gamma", "pearl_delta", "fidelity_lb"):
            if abs(d[key] - want[key]) > TOL:
                self.problem(op, f"{key} {d[key]!r} != reference {want[key]!r}")
        if op.do is None:
            if d["acde"] is not None:
                self.problem(op, "acde reported without an interventional table")
        elif abs(d["acde"] - want["acde"]) > TOL:
            self.problem(op, f"acde {d['acde']!r} != reference {want['acde']!r}")
        c1, c2 = d["chsh"]
        if abs(d["gamma"] - (2.0 - (c1 + c2) / 4.0)) > TOL:
            self.problem(op, "gamma != 2 - (CHSH' + CHSH'')/4")
        freq = op.obs / op.obs.sum(axis=(1, 2), keepdims=True)
        for key, label in d["argmin"].items():
            b0, b1 = int(key[0]), int(key[1])
            x = int(label[1:])
            term = freq[x, 0, b0] + freq[x, 1, b1]
            if term > (freq[:, 0, b0] + freq[:, 1, b1]).min() + TOL:
                self.problem(op, f"argmin {key} -> {label} is not a minimiser")
        if d["seed"] != op.seed or d["resamples"] != RESAMPLES:
            self.problem(op, "seed or resamples field wrong")
        own = ref.bootstrap_stderr(op.obs, op.do, RESAMPLES, op.seed + 1)
        if abs(d["gamma_stderr"] - own["gamma"]) > STDERR_RTOL * own["gamma"] + TOL:
            self.problem(op, f"gamma_stderr {d['gamma_stderr']} vs own {own['gamma']}")
        if op.do is None:
            if d["verdict_nonclassical"] != (d["gamma"] < 1.0 - 3.0 * d["gamma_stderr"]):
                self.problem(op, "verdict disagrees with gamma and its stderr")
        else:
            # Gamma + 2 ACDE against 1 - 3 sigma, where the own bootstrap's
            # sigma decides it beyond the Monte Carlo tolerance
            gap = want["lhs"] - (1.0 - 3.0 * own["lhs"])
            if abs(gap) > 3.0 * STDERR_RTOL * own["lhs"] + TOL and (
                    d["verdict_nonclassical"] != (gap < 0)):
                self.problem(op, "verdict disagrees with gamma + 2 acde and its stderr")


# --- simulate ------------------------------------------------------------------

LABELS = ("x", "z", "-x", "-z")


class Simulate(Workload):
    """Exact `run_experiment` on 48 random and 16 partial-swap configs per
    round."""

    name = "simulate"

    def __init__(self, seed: int, workdir: Path | None = None):
        super().__init__()
        rng = np.random.default_rng([2, seed])
        # 40 of the 64 ops use all four settings, so the median op lies inside
        # that group rather than on the cost step between two groups
        n_settings = [2] * 12 + [3] * 12 + [4] * 24
        self.ops = [self._random_op(rng, i, n) for i, n in enumerate(n_settings)]
        self.ops += [self._swap_op(i, float(rng.uniform(0.0, math.pi))) for i in range(16)]
        order = rng.permutation(len(self.ops))
        self.ops = [self.ops[i] for i in order]
        self.probe_ops = [self._swap_op(0, 3 * math.pi / 4)] * 3

    @staticmethod
    def _random_op(rng, i: int, n_settings: int) -> Op:
        labels = tuple(str(x) for x in rng.permutation(LABELS)[:n_settings])
        rho = ref.random_state(rng, 4, int(rng.choice([1, 2, 4])))
        u = ref.random_unitary(rng, 4)
        reps = (ref.random_state(rng, 2, int(rng.integers(1, 3))),
                ref.random_state(rng, 2, int(rng.integers(1, 3))))
        v = ref.random_unitary(rng, 2)
        eig = rng.uniform(0.0, 1.0, 2) if rng.uniform() < 0.5 else np.array([1.0, 0.0])
        f0 = v @ np.diag(eig) @ v.conj().T
        final = (f0, np.eye(2) - f0)
        cfg = dataio.ExperimentConfig(
            protocol="custom", initial_state=rho, unitary=u, settings=labels,
            repreparations=reps, final_measurement=final, shots=None)
        return Op(f"random{i}", lambda: dataio.run_experiment(cfg),
                  inputs=(rho, u, [ref.signed_pauli_effects(x) for x in labels], reps, final),
                  alpha=None)

    @staticmethod
    def _swap_op(i: int, alpha: float) -> Op:
        cfg = dataio.ExperimentConfig(
            protocol="partial_swap", alpha=alpha, unitary="partial_swap",
            repreparations="plus_minus_i", final_measurement="x", shots=None)
        reps = (ref.projector([0, 1.0, 0]), ref.projector([0, -1.0, 0]))
        final = (ref.projector([1.0, 0, 0]), ref.projector([-1.0, 0, 0]))
        return Op(f"swap{i}(alpha={alpha:.4f})", lambda: dataio.run_experiment(cfg),
                  inputs=(ref.bell_state(), ref.partial_swap_unitary(alpha),
                          [ref.signed_pauli_effects(x) for x in LABELS], reps, final),
                  alpha=alpha)

    def prepare(self) -> None:
        for op in self.ops + self.probe_ops:
            op.probs, op.do = ref.sequential_tables(*op.inputs)
            op.gamma = ref.gamma_from_probs(op.probs)

    def check(self, op: Op, result) -> bool:
        behavior, do_table, report = result
        if np.abs(behavior.probs - op.probs).max() > TOL:
            self.problem(op, "P(a,b|x) differs from the sequential simulation")
        if np.abs(do_table.probs - op.do).max() > TOL:
            self.problem(op, "P(b|do(a)) differs from the sequential simulation")
        if abs(report.gamma - op.gamma) > TOL or report.gamma < ref.GAMMA_QUANTUM_MIN - TOL:
            self.problem(op, f"gamma {report.gamma!r}, reference {op.gamma!r}")
        if report.pearl_delta > 1.0 + TOL or report.acde != 0.0:
            self.problem(op, "crosstalk reported for a model without crosstalk")
        if op.alpha is not None and abs(report.gamma - ref.partial_swap_gamma(op.alpha)) > TOL:
            self.problem(op, "partial-swap gamma differs from (3 - sin a + cos a)/2")
        return False


# --- optimize ------------------------------------------------------------------

# Each round: one p near each anchor (the seed moves it within +-0.005) and the
# fixed p at which multi-start Nelder-Mead stalls (see README).
OPTIMIZE_ANCHORS = (0.2, 0.7, 0.9)
OPTIMIZE_STALL_P = 0.504548
N_STARTS = 6
EXCESS_FAIL = 1e-6


class Optimize(Workload):
    """`upsilon_best_gamma(p, n_starts=6)`, four p per round."""

    name = "optimize"

    def __init__(self, seed: int, workdir: Path | None = None):
        super().__init__()
        rng = np.random.default_rng([3, seed])
        ps = [a + float(rng.uniform(-0.005, 0.005)) for a in OPTIMIZE_ANCHORS]
        ps.append(OPTIMIZE_STALL_P)
        self.ops = [self._op(ps[i], N_STARTS) for i in rng.permutation(len(ps))]
        # two fixed starts only: the probe times the layers, not the optimum
        self.probe_ops = [self._op(0.25, 0)]

    @staticmethod
    def _op(p: float, n_starts: int) -> Op:
        return Op(f"p={p:.6f}", lambda: proclib.upsilon_best_gamma(p, n_starts=n_starts),
                  p=p, n_starts=n_starts)

    def check(self, op: Op, result) -> bool:
        excess = float(result) - ref.upsilon_optimum(op.p)
        if excess < -1e-9:
            self.problem(op, f"gamma {result!r} below the optimum by {-excess:.3e}")
        return op.n_starts == N_STARTS and excess > EXCESS_FAIL


# --- bounds --------------------------------------------------------------------

BOUNDS_X = (3, 4)
GRID_DENSITY = 20


def bounds_job(x_sizes, alpha: float):
    """What `tpmcert classical-bound --x n` does for each n, then the
    `tpmcert jm-scan` work at one angle."""
    out = {}
    for n in x_sizes:
        plain = len(classical.enumerate_strategies(n, crosstalk=False))
        min_gamma = classical.classical_minimum_gamma(n)
        vertices = classical.enumerate_strategies(n, crosstalk=True)
        out[n] = (plain, min_gamma, len(vertices), classical.check_corrected_bound(vertices))
    return out, compat.partial_swap_compat_region((alpha,), GRID_DENSITY)


class Bounds(Workload):
    """Classical bounds at |X| = 3 and 4 plus a jm-scan at one angle per op;
    a round covers one compatible angle, two incompatible ones and pi."""

    name = "bounds"

    def __init__(self, seed: int, workdir: Path | None = None):
        super().__init__()
        rng = np.random.default_rng([4, seed])
        alphas = (float(rng.uniform(0.05, math.pi / 2)),
                  float(rng.uniform(math.pi / 2 + 0.05, 3 * math.pi / 4)),
                  float(rng.uniform(3 * math.pi / 4, math.pi - 0.05)),
                  math.pi)
        self.ops = [self._op(BOUNDS_X, a) for a in alphas]
        self.probe_ops = [self._op((3,), 3 * math.pi / 4)] * 3

    @staticmethod
    def _op(x_sizes, alpha: float) -> Op:
        return Op(f"alpha={alpha:.4f}", lambda: bounds_job(x_sizes, alpha),
                  alpha=alpha)

    def check(self, op: Op, result) -> bool:
        minima, region = result
        for n, (plain, min_gamma, cross, worst) in minima.items():
            if (plain, cross) != ref.vertex_counts(n):
                self.problem(op, f"vertex counts {plain}, {cross} at |X|={n}")
            if min_gamma != 1.0 or worst != 1.0:
                self.problem(op, f"classical minima {min_gamma!r}, {worst!r} at |X|={n}")
        margin = region[op.alpha]
        compatible = op.alpha <= math.pi / 2 or op.alpha == math.pi
        if (margin < -1e-9) if compatible else not margin < 0.0:
            self.problem(op, f"margin {margin!r} at alpha={op.alpha!r}")
        return False


WORKLOADS = {w.name: w for w in (Certify, Simulate, Optimize, Bounds)}


def probe_workloads(skip: str, workdir: Path) -> list[Workload]:
    """Workloads whose fixed probe ops a traced run of `skip` borrows."""
    return [cls(0, workdir / name) for name, cls in WORKLOADS.items() if name != skip]
