"""Acceptance suite: every shipped claim at its stated tolerance.

Run with  pytest tests/test_acceptance.py -v -s  to see one line per
criterion.  Each test prints its verdict before asserting, so a red criterion
still reports a readable summary line.
"""

import collections
import csv
import json
import math
import time

import numpy as np
from scipy.optimize import brentq

from tpmcert import (
    certify,
    classical,
    cli,
    compat,
    dataio,
    linalg,
    proclib,
    process,
)

from helpers import apply_eb_channel, memory_instrument, preset_config, random_eb_channel
from oracles import (
    partial_transpose,
    random_binary_povm,
    random_density,
    random_unitary,
    upsilon_all_instrument_gamma,
)

SQRT2 = math.sqrt(2.0)
QUANTUM_GAMMA = 2.0 - SQRT2


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> bool:
    line = f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


def test_criterion_01_tsirelson_reproduction(tmp_path):
    start = time.perf_counter()
    rc = cli.main(
        ["simulate", "--preset", "memory_test", "--exact", "--out", str(tmp_path)]
    )
    elapsed = time.perf_counter() - start
    report = json.loads((tmp_path / "report.json").read_text())
    ok = (
        rc == 0
        and abs(report["gamma"] - QUANTUM_GAMMA) < 1e-9
        and elapsed < 1.0
    )
    assert _verdict(
        1, "memory-test exact gamma = 2 - sqrt(2)", ok,
        f"gamma={report['gamma']:.12f}, {elapsed:.2f}s",
    )


def test_criterion_02_classical_bound_by_enumeration(capsys):
    start = time.perf_counter()
    min_gamma = classical.classical_minimum_gamma(4)
    vertices = classical.enumerate_strategies(4, crosstalk=True)
    worst_corrected = classical.check_corrected_bound(vertices)
    elapsed = time.perf_counter() - start
    rc = cli.main(["classical-bound", "--x", "4"])
    out = capsys.readouterr().out
    ok = (
        min_gamma == 1.0
        and len(classical.enumerate_strategies(4)) == 64
        and worst_corrected >= 1.0 - 1e-12
        and rc == 0
        and "64 no-crosstalk vertices: 1.0" in out
        and elapsed < 10.0
    )
    assert _verdict(
        2, "exact classical minima by enumeration", ok,
        f"min gamma={min_gamma}, min corrected={worst_corrected:.12f}, {elapsed:.2f}s",
    )


def test_criterion_03_partial_swap_curve():
    start = time.perf_counter()
    alphas = np.linspace(0.0, math.pi, 64)
    curve = proclib.partial_swap_gamma_curve(alphas)
    elapsed = time.perf_counter() - start
    worst = max(
        abs(g - (3 - math.sin(a) + math.cos(a)) / 2) for a, g in curve
    )
    # a "violation" must clear the classical bound by more than the numerical
    # tolerance of the sweep itself
    violations_match = all(
        (g < 1.0 - 1e-9) == (math.pi / 2 < a < math.pi) for a, g in curve
    )
    ok = worst < 1e-9 and violations_match and elapsed < 5.0
    assert _verdict(
        3, "64-point partial-swap sweep matches closed form", ok,
        f"worst dev={worst:.2e}, violations in (pi/2, pi)={violations_match}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_04_pearl_ideal_value():
    _, _, report = dataio.run_experiment(preset_config("memory_test"))
    ok = abs(report.pearl_delta - (2 + SQRT2) / 4) < 1e-9
    assert _verdict(
        4, "memory-test exact pearl = (2 + sqrt(2))/4", ok,
        f"delta={report.pearl_delta:.12f}",
    )


def test_criterion_05_fidelity_bound():
    f_exp = certify.fidelity_lower_bound(0.642)
    end_max = certify.fidelity_lower_bound(QUANTUM_GAMMA)
    end_half = certify.fidelity_lower_bound(2.0 - certify.S_K)
    ok = (
        0.915 <= f_exp <= 0.925
        and f_exp >= 0.92
        and abs(end_max - 1.0) < 1e-12
        and abs(end_half - 0.5) < 1e-12
    )
    assert _verdict(
        5, "fidelity bound endpoints and published value", ok,
        f"F(0.642)={f_exp:.6f}",
    )


def test_criterion_06_chsh_mapping_identity():
    rng = np.random.default_rng(660)
    worst = 0.0
    for _ in range(100):
        labels = ("0", "1", "2", "3")
        inst = process.MpInstrument(
            povm={x: random_binary_povm(rng) for x in labels},
            repreparations=(random_density(rng, 2), random_density(rng, 2)),
        )
        op = process.build_process(random_density(rng, 4), random_unitary(rng, 4))
        beh = process.born_rule(op, inst, random_binary_povm(rng))
        gamma, argmin = certify.gamma_functional(beh)
        s1, s2 = certify.chsh_decomposition(beh, argmin)
        worst = max(worst, abs(gamma - (2.0 - (s1 + s2) / 4.0)))
    ok = worst < 1e-9
    assert _verdict(
        6, "gamma = 2 - (chsh1 + chsh2)/4 on 100 random behaviors", ok,
        f"worst dev={worst:.2e}",
    )


def test_criterion_07_entanglement_breaking_classicalisation():
    rng = np.random.default_rng(770)
    inst, final = memory_instrument(), proclib.component("final_measurement", "xz_diagonal")
    u = proclib.cnot_swap_unitary()
    start = time.perf_counter()
    worst = math.inf
    for _ in range(100):
        ch = random_eb_channel(rng)
        rho = apply_eb_channel(linalg.bell_state(), ch, target=1)
        beh = process.born_rule(process.build_process(rho, u), inst, final)
        worst = min(worst, certify.gamma_functional(beh)[0])
    elapsed = time.perf_counter() - start
    ok = worst >= 1.0 - 1e-9 and elapsed < 30.0
    assert _verdict(
        7, "100 random EB channels stay classical", ok,
        f"min gamma={worst:.9f}, {elapsed:.2f}s",
    )


def test_criterion_08a_upsilon_maximal_violation():
    # The family reaches 2 - sqrt(2) only at its endpoints.  With the
    # re-preparations and the final POVM fixed, each pair term is
    # Tr B_b1 + Tr[E_{0|x} (A_b0 - B_b1)] for operators A_b, B_b on A', so the
    # optimum over every first-time POVM family is
    # 2 - sum ||(A_b0 - B_b1)_-||_1.  That is concave in rho0, rho1 and F, so
    # pure re-preparations and a projective F suffice.  The oracle minimises
    # it independently of tpmcert; its optimum is 2 - sqrt(1 + (1 - 2p)^2),
    # and at p = 1/2 no instrument goes below the classical bound.
    ps = (0.0, 0.25, 0.5, 0.75, 1.0)
    best = {p: proclib.upsilon_best_gamma(p, n_starts=6) for p in ps}
    oracle = {p: upsilon_all_instrument_gamma(p) for p in ps}
    closed = {p: 2.0 - math.sqrt(1.0 + (1.0 - 2.0 * p) ** 2) for p in ps}
    ok = (
        all(abs(best[p] - QUANTUM_GAMMA) < 1e-6 for p in (0.0, 1.0))
        and all(abs(best[p] - oracle[p]) < 1e-6 for p in ps)
        and all(abs(best[p] - closed[p]) < 1e-6 for p in ps)
        and best[0.5] >= 1.0 - 1e-9
    )
    detail = "best gamma " + ", ".join(
        f"p={p}: {best[p]:.6f} (oracle {oracle[p]:.6f})" for p in ps
    )
    assert _verdict(
        8, "upsilon family: best gamma = all-instrument optimum", ok, detail
    )


def test_criterion_08b_upsilon_ppt_pattern():
    ps = (0.0, 0.25, 0.5, 0.75, 1.0)
    pt_min = {}
    for p in ps:
        pt = partial_transpose(proclib.upsilon(p).w, (2, 2, 2), 0)
        pt_min[p] = float(np.linalg.eigvalsh(pt).min())
    frozen = {0.0: -0.5, 0.25: -0.25, 0.5: 0.0, 0.75: -0.25, 1.0: -0.5}
    ok = (
        pt_min[0.0] < -1e-9
        and pt_min[1.0] < -1e-9
        and pt_min[0.5] >= -1e-9
        and all(abs(pt_min[p] - frozen[p]) < 1e-9 for p in ps)
    )
    detail = ", ".join(f"p={p}: {pt_min[p]:+.3f}" for p in ps)
    assert _verdict(8, "upsilon family: PPT-over-A' pattern", ok, detail)


def test_criterion_09_joint_measurability_boundary():
    start = time.perf_counter()
    compatible_alphas = list(np.linspace(0.0, math.pi / 2, 9)) + [math.pi]
    region = compat.partial_swap_compat_region(
        compatible_alphas + [3 * math.pi / 4], angle_grid_density=20
    )
    elapsed = time.perf_counter() - start
    worst_compatible = min(region[a] for a in compatible_alphas)
    witness = region[3 * math.pi / 4]
    ok = worst_compatible >= -1e-9 and witness < -1e-9 and elapsed < 60.0
    assert _verdict(
        9, "compatibility region boundary", ok,
        f"min margin (alpha <= pi/2, pi)={worst_compatible:.2e}, "
        f"margin(3pi/4)={witness:.4f}, {elapsed:.1f}s",
    )


def test_criterion_10_decay_model():
    params = proclib.NoiseParams(
        t2=364.0, echo_fidelity=0.995, echo_interval=2.5,
        initial_gamma=0.642,
    )
    curve = proclib.decay_prediction(params, np.linspace(0.0, 300.0, 600))
    gammas = np.array([g for _, g in curve])
    anchored = curve[0][1] == 0.642
    monotone = bool(np.all(np.diff(gammas) >= 0))

    def gamma_minus_one(t):
        d = math.exp(-t / 364.0) * 0.995 ** (t / 2.5)
        return (0.642 + (2 - 0.642) * (1 - d)) - 1.0

    oracle = brentq(gamma_minus_one, 1e-9, 1000.0, xtol=1e-12)
    crossing = proclib.classical_crossing_time(params)
    ok = anchored and monotone and abs(crossing - oracle) < 0.1
    assert _verdict(
        10, "decay model anchored, monotone, crossing vs oracle", ok,
        f"crossing={crossing:.4f} ms, oracle={oracle:.4f} ms",
    )


def test_criterion_11_statistical_pipeline(obs_fixture, do_fixture, ideal_memory_behavior):
    ideal_probs = np.asarray(ideal_memory_behavior.probs)
    shots = 10_000
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng([9000, seed])
        counts = np.empty(ideal_probs.shape, dtype=np.int64)
        for xi in range(4):
            p = ideal_probs[xi].reshape(-1)
            counts[xi] = rng.multinomial(shots, p / p.sum()).reshape(2, 2)
        sampled = process.Behavior(settings=ideal_memory_behavior.settings, counts=counts)
        gamma_hat = certify.gamma_functional(sampled)[0]
        stderr = certify.bootstrap_errors(sampled, n_resamples=400, seed=seed)["gamma"]
        if abs(gamma_hat - QUANTUM_GAMMA) <= 3.0 * stderr:
            hits += 1

    beh = dataio.ingest_counts(obs_fixture)
    table = dataio.ingest_counts(do_fixture)
    gamma = certify.gamma_functional(beh)[0]
    delta = certify.pearl_delta(beh)
    acde_val = certify.acde(table)

    # independent frequency recomputation straight from the raw CSV rows
    with open(obs_fixture, newline="") as fh:
        rows = [(r["x"], int(r["a"]), int(r["b"]), int(r["count"])) for r in csv.DictReader(fh)]
    totals = collections.Counter()
    for x, _, _, count in rows:
        totals[x] += count
    freq = {(x, a, b): count / totals[x] for x, a, b, count in rows}
    gamma_indep = sum(
        min(
            freq[(x, 0, b0)] + freq[(x, 1, b1)]
            for x in totals
        )
        for b0 in (0, 1)
        for b1 in (0, 1)
    )

    fixtures_ok = (
        abs(gamma - 0.642) < 1e-12
        and abs(delta - 0.883) < 1e-12
        and abs(acde_val - 0.0325) < 1e-12
        and abs(gamma - gamma_indep) < 1e-12
    )
    ok = hits >= 99 and fixtures_ok
    assert _verdict(
        11, "bootstrap coverage and fixture central values", ok,
        f"coverage={hits}/100, gamma={gamma}, delta={delta}, acde={acde_val}",
    )


def test_criterion_12_determinism(tmp_path):
    args = [
        "simulate", "--preset", "memory_test", "--shots", "4000",
        "--seed", "11", "--resamples", "500",
    ]
    assert cli.main(args + ["--out", str(tmp_path / "run1")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "run2")]) == 0
    reports_equal = (tmp_path / "run1/report.json").read_bytes() == (
        tmp_path / "run2/report.json"
    ).read_bytes()

    for sub in ("c1", "c2"):
        cli.main(["swap-curve", "--points", "16", "--out", str(tmp_path / sub)])
    curves_equal = (tmp_path / "c1/swap_curve.csv").read_bytes() == (
        tmp_path / "c2/swap_curve.csv"
    ).read_bytes()
    ok = reports_equal and curves_equal
    assert _verdict(
        12, "identical (config, seed) gives byte-identical outputs", ok,
        f"report.json equal={reports_equal}, csv equal={curves_equal}",
    )
