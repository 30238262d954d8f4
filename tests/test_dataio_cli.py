import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tpmcert import certify, classical, cli, dataio, proclib, process
from tpmcert.exceptions import ParseError, ValidationError

SQRT2 = math.sqrt(2.0)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_ingest_fixture_shape(obs_fixture):
    table = dataio.ingest_counts(obs_fixture)
    assert table.kind == "observational"
    assert len(table.rows) == 16
    assert table.settings == ("x", "z", "-x", "-z")


def test_ingest_ten_thousand_shot_table(tmp_path):
    lines = ["x,a,b,count"]
    for x in range(4):
        for a in (0, 1):
            for b in (0, 1):
                lines.append(f"s{x},{a},{b},2500")
    table = dataio.ingest_counts(write(tmp_path, "obs.csv", "\n".join(lines) + "\n"))
    assert len(table.rows) == 16
    assert all(n == 10_000 for n in table.total_shots().values())


def test_ingest_negative_count_reports_row(tmp_path):
    path = write(tmp_path, "bad.csv", "x,a,b,count\nq,0,0,5\nq,0,1,-2\n")
    with pytest.raises(ParseError) as err:
        dataio.ingest_counts(path)
    assert ":3:" in str(err.value)


def test_ingest_zero_shot_setting(tmp_path):
    path = write(tmp_path, "zero.csv", "x,a,b,count\nq,0,0,5\nr,0,0,0\n")
    with pytest.raises(ValidationError):
        dataio.ingest_counts(path)


def test_ingest_sums_duplicates(tmp_path):
    path = write(tmp_path, "dup.csv", "x,a,b,count\nq,0,0,5\nq,0,0,7\nq,1,1,8\n")
    table = dataio.ingest_counts(path)
    assert table.rows[("q", 0, 0)] == 12


def test_ingest_rejects_unknown_header(tmp_path):
    path = write(tmp_path, "head.csv", "setting,a,b,n\nq,0,0,5\n")
    with pytest.raises(ParseError):
        dataio.ingest_counts(path)


def test_counts_to_behavior_exact_halves(tmp_path):
    path = write(
        tmp_path,
        "half.csv",
        "x,a,b,count\nq,0,0,5000\nq,0,1,5000\nq,1,0,0\nq,1,1,0\n",
    )
    beh = dataio.counts_to_behavior(dataio.ingest_counts(path))
    assert np.array_equal(beh.probs[0], [[0.5, 0.5], [0.0, 0.0]])
    assert beh.shots == {"q": 10_000}


def test_counts_to_dotable(do_fixture):
    table = dataio.counts_to_behavior(dataio.ingest_counts(do_fixture))
    assert isinstance(table, process.DoTable)
    assert table.do_settings == ("x", "z", "-x", "-z")
    assert abs(certify.acde(table) - 0.0325) < 1e-12


def test_round_trip_exact_for_dyadic_tables(tmp_path):
    probs = np.array([[[0.5, 0.25], [0.125, 0.125]]] * 2)
    beh = process.Behavior(settings=("u", "v"), probs=probs)
    counts = dataio.behavior_to_counts(beh, shots_per_setting=1024)
    back = dataio.counts_to_behavior(counts)
    assert np.array_equal(back.probs, probs)


def test_memory_preset_exact_values():
    cfg = dataio.preset_config("memory_test")
    behavior, do_table, report = dataio.run_experiment(cfg)
    assert abs(report.gamma - (2 - SQRT2)) < 1e-9
    assert abs(report.pearl_delta - (2 + SQRT2) / 4) < 1e-9
    assert report.acde == 0.0
    assert report.verdict_nonclassical
    assert not report.verdict_crosstalk_witnessed


def test_partial_swap_preset_tracks_closed_form():
    for alpha in (0.5, math.pi / 2, 2.5):
        cfg = dataio.preset_config("partial_swap", alpha=alpha)
        _, _, report = dataio.run_experiment(cfg)
        assert abs(report.gamma - (3 - math.sin(alpha) + math.cos(alpha)) / 2) < 1e-9


def test_noise_anchoring_at_zero_wait():
    noise = proclib.NoiseParams(
        t2=364.0, t1=1170.0, echo_fidelity=0.995, echo_interval=2.5, initial_gamma=0.642
    )
    cfg = dataio.preset_config("memory_test", noise=noise, wait_ms=0.0)
    _, _, report = dataio.run_experiment(cfg)
    assert abs(report.gamma - 0.642) < 1e-9


def test_sampled_run_is_seed_deterministic():
    cfg = dataio.preset_config("memory_test", shots=2000, seed=9, resamples=200)
    beh1, do1, rep1 = dataio.run_experiment(cfg)
    beh2, do2, rep2 = dataio.run_experiment(cfg)
    assert np.array_equal(beh1.probs, beh2.probs)
    assert np.array_equal(do1.probs, do2.probs)
    assert rep1.to_json_dict() == rep2.to_json_dict()


def test_emit_report_round_trip(tmp_path, obs_fixture, do_fixture):
    beh = dataio.counts_to_behavior(dataio.ingest_counts(obs_fixture))
    table = dataio.counts_to_behavior(dataio.ingest_counts(do_fixture))
    report = certify.certify_behavior(beh, do_table=table, n_resamples=200, seed=42)
    curve = {"decay_curve": [(0.0, 0.642), (5.0, 0.7)]}
    paths = dataio.emit_report(report, curves=curve, out_dir=tmp_path)
    loaded = json.loads((tmp_path / "report.json").read_text())
    assert loaded == report.to_json_dict()
    csv_text = (tmp_path / "decay_curve.csv").read_text()
    assert csv_text.startswith("abscissa,value,stderr_lo,stderr_hi")
    assert repr(0.642) in csv_text
    assert len(paths) == 2


def test_emit_is_byte_stable(tmp_path, obs_fixture):
    beh = dataio.counts_to_behavior(dataio.ingest_counts(obs_fixture))
    report = certify.certify_behavior(beh, n_resamples=200, seed=42)
    dataio.emit_report(report, out_dir=tmp_path / "a")
    dataio.emit_report(report, out_dir=tmp_path / "b")
    assert (tmp_path / "a/report.json").read_bytes() == (
        tmp_path / "b/report.json"
    ).read_bytes()


def test_load_config_from_yaml(configs_dir):
    cfg = dataio.load_config(configs_dir / "memory_test.yaml")
    assert cfg.protocol == "memory_test"
    assert cfg.shots is None
    _, _, report = dataio.run_experiment(cfg)
    assert abs(report.gamma - (2 - SQRT2)) < 1e-9


def test_load_config_with_noise_block(tmp_path):
    path = write(
        tmp_path,
        "noisy.yaml",
        "protocol: memory_test\n"
        "noise:\n"
        "  t2_ms: 364.0\n"
        "  echo_fidelity: 0.995\n"
        "  echo_interval_ms: 2.5\n"
        "  initial_gamma: 0.642\n"
        "  wait_ms: 10.0\n",
    )
    cfg = dataio.load_config(path)
    assert cfg.noise is not None and cfg.wait_ms == 10.0
    _, _, report = dataio.run_experiment(cfg)
    assert 0.642 < report.gamma < 1.0


def test_cli_simulate_exact(tmp_path, capsys):
    rc = cli.main(
        ["simulate", "--preset", "memory_test", "--exact", "--out", str(tmp_path)]
    )
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert abs(report["gamma"] - (2 - SQRT2)) < 1e-9
    assert "gamma" in capsys.readouterr().out


def test_cli_certify_fixture(tmp_path, obs_fixture, do_fixture, capsys):
    rc = cli.main(
        [
            "certify",
            "--counts", str(obs_fixture),
            "--do-counts", str(do_fixture),
            "--resamples", "300",
            "--seed", "42",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert abs(report["gamma"] - 0.642) < 1e-12
    assert abs(report["acde"] - 0.0325) < 1e-12
    assert report["verdict_nonclassical"] is True


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = write(tmp_path, "bad.csv", "x,a,b,count\nq,0,0,-1\n")
    rc = cli.main(["certify", "--counts", str(bad)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_cli_domain_error_exit_code(tmp_path, capsys):
    rc = cli.main(
        ["simulate", "--preset", "partial_swap", "--alpha", "5.0", "--exact",
         "--out", str(tmp_path)]
    )
    assert rc == 3


def test_cli_classical_bound(capsys):
    rc = cli.main(["classical-bound", "--x", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "16 no-crosstalk vertices: 1.0" in out


def test_cli_classical_bound_enumerates_each_vertex_set_once(monkeypatch, capsys):
    calls = []
    enumerate_strategies = classical.enumerate_strategies

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return enumerate_strategies(*args, **kwargs)

    monkeypatch.setattr(classical, "enumerate_strategies", counted)
    assert cli.main(["classical-bound", "--x", "3"]) == 0
    assert len(calls) == 2
    assert cli.main(["classical-bound", "--x", "3", "--skip-crosstalk"]) == 0
    assert len(calls) == 3
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "min gamma over 32 no-crosstalk vertices: 1.000000000000",
        "min (gamma + 2 ACDE) over 512 crosstalk vertices: 1.000000000000",
        "min gamma over 32 no-crosstalk vertices: 1.000000000000",
    ]


def test_cli_import_leaves_out_scipy_optimize():
    # scipy.optimize costs most of the CLI start-up; only the upsilon
    # optimizer needs it, and it imports it when called
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    code = "import sys, tpmcert.cli; print('scipy.optimize' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_cli_decay_and_swap_curve(tmp_path, capsys):
    rc = cli.main(
        ["decay", "--t2", "364", "--echo-fidelity", "0.995", "--echo-interval",
         "2.5", "--initial-gamma", "0.642", "--out", str(tmp_path)]
    )
    assert rc == 0
    assert "64.39" in capsys.readouterr().out
    rows = (tmp_path / "decay_curve.csv").read_text().strip().splitlines()[1:]
    gammas = [float(r.split(",")[1]) for r in rows]
    assert all(a <= b for a, b in zip(gammas, gammas[1:]))
    rc = cli.main(["swap-curve", "--points", "9", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "swap_curve.csv").exists()


def test_config_with_reduced_setting_list():
    cfg = dataio.preset_config("memory_test", settings=("x", "z"))
    behavior, _, _ = dataio.run_experiment(cfg)
    assert behavior.settings == ("x", "z")
    with pytest.raises(ValidationError):
        dataio.run_experiment(dataio.preset_config("memory_test", settings=("y",)))


def test_sampled_gamma_converges_at_large_shots():
    # shots -> inf consistency: at 1e6 shots the sampled gamma sits within
    # three bootstrap standard errors of the exact value in >= 19/20 seeds
    _, _, exact_report = dataio.run_experiment(dataio.preset_config("memory_test"))
    exact = exact_report.gamma
    hits = 0
    for seed in range(20):
        cfg = dataio.preset_config(
            "memory_test", shots=10**6, seed=seed, resamples=300
        )
        _, _, report = dataio.run_experiment(cfg)
        if abs(report.gamma - exact) <= 3.0 * report.std_errors["gamma"]:
            hits += 1
    assert hits >= 19
