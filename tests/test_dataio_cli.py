import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tpmcert import certify, classical, cli, dataio, linalg, proclib, process
from tpmcert.exceptions import DomainError, ParseError, ValidationError

from helpers import preset_config
from oracles import I2, SX, SZ, gamma_formula, partial_trace, sequential_probabilities

SQRT2 = math.sqrt(2.0)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_ingest_fixture_shape(obs_fixture):
    table = dataio.ingest_counts(obs_fixture)
    assert isinstance(table, process.Behavior)
    assert table.counts.shape == (4, 2, 2) and table.counts.dtype == np.int64
    assert table.settings == ("x", "z", "-x", "-z")


def test_ingest_ten_thousand_shot_table(tmp_path):
    lines = ["x,a,b,count"]
    for x in range(4):
        for a in (0, 1):
            for b in (0, 1):
                lines.append(f"s{x},{a},{b},2500")
    table = dataio.ingest_counts(write(tmp_path, "obs.csv", "\n".join(lines) + "\n"))
    assert table.counts.shape == (4, 2, 2)
    assert table.counts.sum(axis=(1, 2)).tolist() == [10_000] * 4


def test_ingest_negative_count_reports_row(tmp_path):
    path = write(tmp_path, "bad.csv", "x,a,b,count\nq,0,0,5\nq,0,1,-2\n")
    with pytest.raises(ParseError) as err:
        dataio.ingest_counts(path)
    assert ":3:" in str(err.value)


def test_ingest_accepts_utf8_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfx,a,b,count\nq,0,0,5\n")
    table = dataio.ingest_counts(path)
    assert table.settings == ("q",) and table.counts.tolist() == [[[5, 0], [0, 0]]]


def test_ingest_zero_shot_setting(tmp_path):
    path = write(tmp_path, "zero.csv", "x,a,b,count\nq,0,0,5\nr,0,0,0\n")
    with pytest.raises(ValidationError):
        dataio.ingest_counts(path)


def test_ingest_sums_duplicates(tmp_path):
    path = write(tmp_path, "dup.csv", "x,a,b,count\nq,0,0,5\nq,0,0,7\nq,1,1,8\n")
    table = dataio.ingest_counts(path)
    assert table.counts[0, 0, 0] == 12


def test_ingest_rejects_unknown_header(tmp_path):
    path = write(tmp_path, "head.csv", "setting,a,b,n\nq,0,0,5\n")
    with pytest.raises(ParseError):
        dataio.ingest_counts(path)


def test_ingest_derives_exact_halves(tmp_path):
    path = write(
        tmp_path,
        "half.csv",
        "x,a,b,count\nq,0,0,5000\nq,0,1,5000\nq,1,0,0\nq,1,1,0\n",
    )
    beh = dataio.ingest_counts(path)
    assert np.array_equal(beh.probs[0], [[0.5, 0.5], [0.0, 0.0]])
    assert beh.counts.sum() == 10_000


def test_ingest_dotable(do_fixture):
    table = dataio.ingest_counts(do_fixture)
    assert isinstance(table, process.DoTable)
    assert table.do_settings == ("x", "z", "-x", "-z")
    assert table.counts.shape == (2, 4, 2)
    assert abs(certify.acde(table) - 0.0325) < 1e-12


def test_memory_preset_exact_values():
    cfg = preset_config("memory_test")
    behavior, do_table, report = dataio.run_experiment(cfg)
    assert abs(report.gamma - (2 - SQRT2)) < 1e-9
    assert abs(report.pearl_delta - (2 + SQRT2) / 4) < 1e-9
    assert report.acde == 0.0
    assert report.verdict_nonclassical
    assert not report.verdict_crosstalk_witnessed


def test_partial_swap_preset_tracks_closed_form():
    for alpha in (0.5, math.pi / 2, 2.5):
        cfg = preset_config("partial_swap", alpha=alpha)
        _, _, report = dataio.run_experiment(cfg)
        assert abs(report.gamma - (3 - math.sin(alpha) + math.cos(alpha)) / 2) < 1e-9


def test_noise_anchoring_at_zero_wait():
    noise = proclib.NoiseParams(
        t2_ms=364.0, t1_ms=1170.0, echo_fidelity=0.995, echo_interval_ms=2.5, initial_gamma=0.642
    )
    cfg = preset_config("memory_test", noise=noise, wait_ms=0.0)
    _, _, report = dataio.run_experiment(cfg)
    assert abs(report.gamma - 0.642) < 1e-9


def test_noise_anchoring_follows_the_configured_protocol():
    # the zero-wait gamma is initial_gamma whatever the protocol reaches
    # without noise, and a wait gives the decay model's prediction
    noise = proclib.NoiseParams(
        t2_ms=364.0, t1_ms=1170.0, echo_fidelity=0.995, echo_interval_ms=2.5, initial_gamma=0.9
    )
    for wait in (0.0, 10.0):
        cfg = preset_config("partial_swap", noise=noise, wait_ms=wait)
        _, _, report = dataio.run_experiment(cfg)
        (_, want), = proclib.decay_prediction(noise, [wait])
        assert abs(report.gamma - want) < 1e-9
    # without noise the partial swap at 3 pi / 4 reaches (3 - sqrt(2)) / 2 = 0.793 only
    low = proclib.NoiseParams(
        t2_ms=364.0, t1_ms=1170.0, echo_fidelity=0.995, echo_interval_ms=2.5, initial_gamma=0.642
    )
    # refused whatever the wait: the anchor is out of reach, not the wait's target
    for wait in (0.0, 35.0, 100.0):
        with pytest.raises(ValidationError, match="noise.initial_gamma"):
            dataio.run_experiment(preset_config("partial_swap", noise=low, wait_ms=wait))
    for wait in (-50.0, math.nan):
        with pytest.raises(DomainError, match="wait_ms"):
            dataio.run_experiment(preset_config("memory_test", noise=low, wait_ms=wait))


@pytest.mark.parametrize("wait", [0.0, 5.0])
def test_noise_depolarises_the_memory_and_leaves_the_first_outcome_alone(wait):
    # on |0><0| (x) |0><0| setting z reads a = 0 with certainty; noise on the
    # memory E, which waits after A' is measured, cannot change P(a|x)
    rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    noise = proclib.NoiseParams(t2_ms=10.0, t1_ms=1170.0, echo_fidelity=1.0, echo_interval_ms=2.5,
                                initial_gamma=1.8)
    parts = dict(protocol="custom", initial_state=rho, unitary="cnot_swap", settings=("z", "x"),
                 repreparations="plus_minus", final_measurement="xz_diagonal")
    clean, _, _ = dataio.run_experiment(dataio.ExperimentConfig(**parts))
    noisy, do_table, report = dataio.run_experiment(
        dataio.ExperimentConfig(**parts, noise=noise, wait_ms=wait))
    # the oracle: the sequential run on vis rho + (1 - vis) rho_A' (x) id/2
    swap = np.eye(4)[[0, 2, 1, 3]]
    u = swap @ (np.kron(I2, np.diag([1, 0])) + np.kron(SX, np.diag([0, 1])))
    effects = [((I2 + SZ) / 2, (I2 - SZ) / 2), ((I2 + SX) / 2, (I2 - SX) / 2)]
    reps = ((I2 - SX) / 2, (I2 + SX) / 2)
    f0 = (I2 + (SX + SZ) / SQRT2) / 2
    final = (f0, I2 - f0)
    (_, target), = proclib.decay_prediction(noise, [wait])
    clean_gamma = gamma_formula(sequential_probabilities(rho, u, effects, reps, final))
    vis = (2.0 - target) / (2.0 - clean_gamma)
    depolarised = vis * rho + (1 - vis) * np.kron(partial_trace(rho, (2, 2), [1]), I2 / 2)
    want = sequential_probabilities(depolarised, u, effects, reps, final)
    assert np.abs(noisy.probs - want).max() < 1e-12
    want_do = sequential_probabilities(depolarised, u, [(I2, I2)], reps, final)
    assert np.abs(do_table.probs - want_do.transpose(1, 0, 2)).max() < 1e-12
    assert np.abs(noisy.probs.sum(axis=2) - clean.probs.sum(axis=2)).max() < 1e-12
    assert abs(report.gamma - target) < 1e-9


def test_noisy_run_builds_and_contracts_one_process(monkeypatch):
    # the noise resolves into the state when the configuration is built, so
    # a noisy run takes the path of a noiseless one
    noise = proclib.NoiseParams(t2_ms=364.0, echo_fidelity=0.995, echo_interval_ms=2.5,
                                initial_gamma=0.7)
    cfg = preset_config("memory_test", noise=noise, wait_ms=35.0)
    calls = dict.fromkeys(("build_process", "born_rule"), 0)
    for name in calls:
        def counted(*args, _call=getattr(process, name), _name=name, **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(process, name, counted)
    _, _, report = dataio.run_experiment(cfg)
    assert calls == {"build_process": 1, "born_rule": 1}
    (_, want), = proclib.decay_prediction(noise, [35.0])
    assert abs(report.gamma - want) < 1e-9


def test_noise_block_t1_enters_simulate_through_the_decay_model(tmp_path):
    # a t1_ms of the noise block relaxes the memory as decay --t1 predicts
    path = write(tmp_path, "t1.yaml", "shots: exact\nnoise:\n  t2_ms: 364.0\n"
                 "  echo_fidelity: 0.995\n  echo_interval_ms: 2.5\n  initial_gamma: 0.642\n"
                 "  t1_ms: 100.0\n  wait_ms: 35.0\n")
    cfg = dataio.load_config(path)
    assert cfg.noise.t1_ms == 100.0
    _, _, report = dataio.run_experiment(cfg)
    (_, want), = proclib.decay_prediction(cfg.noise, [35.0])
    (_, without), = proclib.decay_prediction(dataclasses.replace(cfg.noise, t1_ms=None), [35.0])
    assert abs(report.gamma - want) < 1e-9
    assert want > without + 0.1


def test_null_noise_keys_are_keys_not_given(tmp_path, capsys):
    # as at the top level, a null in the noise block keeps an optional key's
    # default (no T1, a zero wait) and leaves a required key missing
    noise = ("noise:\n  t2_ms: 364.0\n  echo_fidelity: 0.995\n  echo_interval_ms: 2.5\n"
             "  initial_gamma: 0.642\n")
    nulls = write(tmp_path, "nulls.yaml", noise + "  t1_ms: null\n  wait_ms: null\n")
    cfg = dataio.load_config(nulls)
    assert cfg == dataio.load_config(write(tmp_path, "plain.yaml", noise))
    assert cfg.noise.t1_ms is None and cfg.wait_ms == 0.0
    bad = write(tmp_path, "bad.yaml", noise.replace("364.0", "null"))
    assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {bad}: noise block lacks ['t2_ms']\n"


_RAW = dict(initial_state=linalg.bell_state(), unitary=proclib.partial_swap(1.0),
            repreparations=(linalg.dm(linalg.KET_PLUS_I), linalg.dm(linalg.KET_MINUS_I)),
            final_measurement=linalg.observable_povm(linalg.SIGMA_X))


def test_run_experiment_validates_each_input_once(monkeypatch, tmp_path, capsys):
    # every input is checked once, when its configuration is built: a named
    # component on first use in the process, explicit matrices as the
    # configuration is built (from a file or from arrays); a run takes the
    # checked forms as they are
    calls = dict.fromkeys(("assert_povm", "assert_density_matrix", "assert_unitary"), 0)
    for name in calls:
        def counted(*args, _check=getattr(linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _check(*args, **kwargs)
        monkeypatch.setattr(linalg, name, counted)

    def counts(make):
        calls.update(dict.fromkeys(calls, 0))
        return make(), dict(calls)

    def checks(povms, states, unitaries):
        return dict(zip(calls, (povms, states, unitaries)))

    proclib._constant.cache_clear()
    # cold: four settings and the final POVM, the re-preparations and the
    # state, the unitary
    named, made = counts(lambda: preset_config("memory_test"))
    assert made == checks(5, 2, 1)
    assert counts(lambda: dataio.run_experiment(named))[1] == checks(0, 0, 0)
    # warm: building and running check nothing
    named, made = counts(lambda: preset_config("memory_test"))
    assert made == checks(0, 0, 0)
    assert counts(lambda: dataio.run_experiment(named))[1] == checks(0, 0, 0)
    # a warm preset with overrides is built once: one partial swap, checked
    # once, also by a whole simulate command line
    preset_config("partial_swap")
    assert counts(lambda: preset_config("partial_swap", alpha=2.0))[1] == checks(0, 0, 1)
    argv = ["simulate", "--preset", "partial_swap", "--alpha", "2.0", "--exact", "--resamples",
            "2", "--out", str(tmp_path)]
    assert counts(lambda: cli.main(argv)) == (0, checks(0, 0, 1))
    # explicit state, unitary, re-preparations and final POVM; named settings
    explicit, made = counts(lambda: dataio.load_config(FIXTURES / "explicit_partial_swap.yaml"))
    assert made == checks(1, 2, 1)
    assert counts(lambda: dataio.run_experiment(explicit))[1] == checks(0, 0, 0)
    arrays, made = counts(lambda: dataio.ExperimentConfig(protocol="custom", **_RAW))
    assert made == checks(1, 2, 1)
    assert counts(lambda: dataio.run_experiment(arrays))[1] == checks(0, 0, 0)


@pytest.mark.parametrize("key, value, message", [
    ("initial_state", np.diag([2.0, 0.0, 0.0, 0.0]), "initial_state: state trace 2.0 != 1"),
    ("unitary", 2.0 * np.eye(4), "unitary: matrix is not unitary within tolerance"),
    ("unitary", np.full((4, 4), np.nan), "unitary: matrix is not unitary within tolerance"),
    ("unitary", np.array([np.eye(4)] * 2), "unitary: must be a 4x4 (two-qubit) matrix"),
    ("unitary", np.array([np.eye(4), 2.0 * np.eye(4)]),
     "unitary: must be a 4x4 (two-qubit) matrix"),
    ("initial_state", np.array([np.eye(4) / 4, np.diag([2.0, 0.0, 0.0, 0.0])]),
     "initial_state: must be a 4x4 (two-qubit) matrix"),
    ("final_measurement", (np.diag([1.2, 0.5]), np.diag([-0.2, 0.5])),
     "final_measurement: POVM effect has a negative eigenvalue"),
    ("repreparations", (np.diag([2.0, 0.0]), np.diag([0.0, 1.0])),
     "repreparations: state trace 2.0 != 1"),
    ("initial_state", [[1, 0], [0]], "initial_state: must be a 4x4 (two-qubit) matrix"),
    ("unitary", [[1, 0], [0]], "unitary: must be a 4x4 (two-qubit) matrix"),
    ("repreparations", ([[1, 0], [0]], np.eye(2) / 2),
     "repreparations: must be 2x2 (qubit) matrices"),
    ("final_measurement", (np.eye(2), [[0, 0], [0]]),
     "final_measurement: must be 2x2 (qubit) matrices"),
], ids=["state_trace_2", "not_unitary", "nan_unitary", "unitary_stack", "bad_unitary_stack",
        "bad_state_stack", "final_not_psd", "reps_trace_2", "ragged_state", "ragged_unitary",
        "ragged_reps", "ragged_final"])
def test_config_from_arrays_names_the_bad_key_when_built(key, value, message):
    with pytest.raises(ValidationError) as err:
        dataio.ExperimentConfig(protocol="custom", **dict(_RAW, **{key: value}))
    assert str(err.value) == message


def test_config_keeps_its_inputs_when_the_caller_changes_them():
    raw = {key: np.array(value) for key, value in _RAW.items()}
    cfg = dataio.ExperimentConfig(protocol="custom", **raw)
    behavior, do, report = dataio.run_experiment(cfg)
    for value in raw.values():
        value[...] = 0.0
    again = dataio.run_experiment(cfg)
    assert again[0].probs.tobytes() == behavior.probs.tobytes()
    assert again[1].probs.tobytes() == do.probs.tobytes()
    assert again[2].to_json_dict() == report.to_json_dict()


def test_sampled_run_is_seed_deterministic():
    cfg = preset_config("memory_test", shots=2000, seed=9, resamples=200)
    beh1, do1, rep1 = dataio.run_experiment(cfg)
    beh2, do2, rep2 = dataio.run_experiment(cfg)
    assert np.array_equal(beh1.probs, beh2.probs)
    assert np.array_equal(do1.probs, do2.probs)
    assert rep1.to_json_dict() == rep2.to_json_dict()


def test_emit_report_round_trip(tmp_path, obs_fixture, do_fixture):
    beh = dataio.ingest_counts(obs_fixture)
    table = dataio.ingest_counts(do_fixture)
    report = certify.certify_behavior(beh, do_table=table, n_resamples=200, seed=42)
    path = dataio.emit_report(report, out_dir=tmp_path)
    assert path == tmp_path / "report.json"
    assert json.loads(path.read_text()) == report.to_json_dict()
    csv_path = dataio.write_curve(tmp_path, "decay_curve", [(0.0, 0.642), (5.0, 0.7)])
    csv_text = csv_path.read_text()
    assert csv_text.startswith("abscissa,value,stderr_lo,stderr_hi")
    assert repr(0.642) in csv_text


def test_emit_is_byte_stable(tmp_path, obs_fixture):
    beh = dataio.ingest_counts(obs_fixture)
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
    assert capsys.readouterr().err == ("domain error: --alpha (config key alpha) 5.0 is outside "
                                       "[0, pi]\n")
    # the same angle in a file names the file
    path = write(tmp_path, "wide.yaml", "unitary: partial_swap\nalpha: 4\n")
    assert cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == (f"domain error: {path}: --alpha (config key alpha) 4.0 "
                                       "is outside [0, pi]\n")


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

    # the minima come from the type sets, so no vertex set is enumerated
    monkeypatch.setattr(classical, "enumerate_strategies", counted)
    assert cli.main(["classical-bound", "--x", "3"]) == 0
    assert calls == []
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "min gamma over 32 no-crosstalk vertices: 1.000000000000",
        "min (gamma + 2 ACDE) over 512 crosstalk vertices: 1.000000000000",
    ]


def test_cli_classical_bound_has_no_skip_crosstalk_switch(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["classical-bound", "--x", "3", "--skip-crosstalk"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --skip-crosstalk" in capsys.readouterr().err


_KET0 = "[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]"
_KET1 = "[[[0, 0], [0, 0]], [[0, 0], [1, 0]]]"


@pytest.mark.parametrize("text, message", [
    (f"repreparations:\n  - {_KET0}\n", "repreparations: must be binary"),
    (f"repreparations: [{_KET0}, {_KET1}, {_KET0}]\n", "repreparations: must be binary"),
    ("settings: []\n", "settings: instrument declares no settings"),
    ("settings: [x, x]\n", "settings: duplicate setting labels"),
], ids=["one_repreparation", "three_repreparations", "no_settings", "duplicate_settings"])
def test_cli_rejects_malformed_instrument_configs(tmp_path, capsys, text, message):
    path = write(tmp_path, "inst.yaml", "shots: exact\n" + text)
    rc = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {message}")
    assert not (tmp_path / "report.json").exists()


GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parents[1] / "fixtures"
# the README certify command
CERTIFY_ARGV = ["certify", "--counts", str(FIXTURES / "memory_observational.csv"),
                "--do-counts", str(FIXTURES / "memory_interventional.csv"),
                "--resamples", "10000", "--seed", "42"]
GOLDEN_RUNS = {
    "memory_test_exact": ["simulate", "--preset", "memory_test", "--exact"],
    "partial_swap_shots": ["simulate", "--preset", "partial_swap", "--alpha", "2.356",
                           "--shots", "10000", "--seed", "7"],
    "swap_curve": ["swap-curve", "--points", "64"],
    # the exact scan; tests/golden/jm_scan/ holds the old grid scan
    "jm_scan_exact": ["jm-scan", "--points", "33"],
    "certify_fixtures": CERTIFY_ARGV,
    "certify_frozen": CERTIFY_ARGV + ["--frozen-argmin"],
    # every component an explicit matrix, none named from the registry
    "explicit_exact": ["simulate", "--config", str(FIXTURES / "explicit_partial_swap.yaml"),
                       "--exact"],
}


@pytest.mark.parametrize("name", GOLDEN_RUNS)
def test_cli_outputs_match_golden_bytes(tmp_path, capsys, name):
    # tests/golden/<name>/ pins every byte these commands write, stdout
    # included (with the output directory written as <out>).  A deliberate
    # change of output must regenerate the files with the same command and
    # say so; a speed-up must leave them as they are.
    assert cli.main(GOLDEN_RUNS[name] + ["--out", str(tmp_path)]) == 0
    got = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    got["stdout.txt"] = capsys.readouterr().out.replace(str(tmp_path), "<out>").encode()
    want = {p.name: p.read_bytes() for p in (GOLDEN / name).iterdir()}
    assert got == want


def test_cli_parser_is_built_once_and_keeps_no_state(tmp_path, capsys, monkeypatch):
    # one parser serves every cli.main call of a process: a frozen-argmin run,
    # a plain run, a run that argparse rejects, then a plain run again; the
    # plain runs write the golden bytes, as a fresh process does
    import argparse

    builds = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counted(self, **kwargs):
        builds.append(self.prog)
        return add_subparsers(self, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)

    def report(name, extra=()):
        assert cli.main(CERTIFY_ARGV + [*extra, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "report.json").read_bytes() == (GOLDEN / name /
                                                           "report.json").read_bytes()

    report("certify_frozen", ["--frozen-argmin"])
    report("certify_fixtures")
    with pytest.raises(SystemExit) as exc:
        cli.main(CERTIFY_ARGV + ["--frozen-argmin", "--sigma-k", "2", "--seed", "x"])
    assert exc.value.code == 2
    assert "invalid int value: 'x'" in capsys.readouterr().err
    report("certify_fixtures")
    assert builds == ["tpmcert"]


def _scan_rows(path):
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return [(float(r[0]), float(r[1])) for r in rows]


def _scan_flags(stdout):
    return [line.split()[-1] for line in stdout.splitlines() if line.startswith("  alpha")]


def test_jm_scan_no_higher_than_the_four_angle_scan(tmp_path, capsys):
    # tests/golden/jm_scan/ holds what `tpmcert jm-scan --points 33
    # --grid-density 20 --out <out>` wrote with the density^4 grid and the
    # scalar descent.  The exact scan finds lower margins where those were
    # not minima, so the digits may move, but no margin may rise and no flag
    # may change.
    assert cli.main(["jm-scan", "--points", "33", "--out", str(tmp_path)]) == 0
    pinned = GOLDEN / "jm_scan"
    got_flags = _scan_flags(capsys.readouterr().out)
    assert got_flags == _scan_flags((pinned / "stdout.txt").read_text())
    got, want = _scan_rows(tmp_path / "jm_scan.csv"), _scan_rows(pinned / "jm_scan.csv")
    assert [a for a, _ in got] == [a for a, _ in want]
    assert all(g <= w + 1e-15 for (_, g), (_, w) in zip(got, want))


@pytest.mark.parametrize("argv, flag", [
    (["decay", "--t2", "364", "--echo-fidelity", "0.995", "--echo-interval", "2.5",
      "--initial-gamma", "0.642", "--points", "-1"], "--points"),
    (["swap-curve", "--points", "0"], "--points"),
    (["jm-scan", "--points", "-1"], "--points"),
])
def test_cli_rejects_empty_scans(tmp_path, capsys, argv, flag):
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    assert not any(tmp_path.iterdir())


DECAY_ARGV = ["decay", "--t2", "364", "--echo-fidelity", "0.995", "--echo-interval", "2.5",
              "--initial-gamma", "0.642"]


def test_cli_decay_negative_t_max_names_the_flag(tmp_path, capsys):
    assert cli.main(DECAY_ARGV + ["--t-max", "-5", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("domain error: --t-max") and "-5.0 ms" in err
    assert not any(tmp_path.iterdir())


def test_cli_decay_t1_is_applied_when_given(capsys):
    params = proclib.NoiseParams(t2_ms=364.0, echo_fidelity=0.995, echo_interval_ms=2.5,
                                 initial_gamma=0.642, t1_ms=100.0)
    crossing = proclib.classical_crossing_time(params)
    assert f"{crossing:.4f}" == "31.3786"
    assert cli.main(DECAY_ARGV + ["--t1", "100"]) == 0
    assert f"classical crossing time: {crossing:.4f} ms" in capsys.readouterr().out
    # without --t1 the model has no relaxation
    assert cli.main(DECAY_ARGV) == 0
    assert "classical crossing time: 64.3930 ms" in capsys.readouterr().out


def test_cli_decay_has_no_include_t1_switch(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(DECAY_ARGV + ["--include-t1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --include-t1" in capsys.readouterr().err


def test_cli_jm_scan_grid_limit(tmp_path, capsys, monkeypatch):
    # --points is capped for every curve and scan before its grid is built
    assert cli.main(DECAY_ARGV + ["--points", str(cli.MAX_POINTS)]) == 0
    capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("built the grid of an oversized --points")

    monkeypatch.setattr(np, "linspace", refuse)
    for argv in (DECAY_ARGV, ["swap-curve"], ["jm-scan"]):
        rc = cli.main(argv + ["--points", str(10**8), "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--points" in err and "exceeds the limit" in err
        assert not any(tmp_path.iterdir())


class _RefusingGenerator(np.random.Generator):
    def multinomial(self, n, pvals, size=None):
        # shot sampling draws one table; a bootstrap draws size resamples at once
        if size is not None:
            raise AssertionError("drew the resamples of an oversized resample count")
        return super().multinomial(n, pvals)


def test_cli_resample_limit(tmp_path, capsys, monkeypatch):
    # the resample count, and its product with the number of resampled rows,
    # are capped before any resample array is allocated
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed=None: _RefusingGenerator(np.random.PCG64(seed)))
    config = write(tmp_path, "big.yaml", f"shots: 100\nresamples: {10**9}\n")
    wide = write(tmp_path, "wide.csv", "x,a,b,count\n" + "".join(
        f"s{x},{a},{b},10\n" for x in range(1000) for a in (0, 1) for b in (0, 1)))
    out = tmp_path / "out"
    for argv, name in (
        (CERTIFY_ARGV + ["--resamples", str(certify.MAX_RESAMPLES + 1)], "--resamples"),
        (["simulate", "--preset", "memory_test", "--shots", "100", "--resamples",
          str(10**9)], "--resamples"),
        (["simulate", "--config", str(config)], "resamples"),
        # R is within MAX_RESAMPLES, but R times the 1000 setting rows is not
        (["certify", "--counts", str(wide), "--resamples", "100000"],
         "100000 times 1000 table rows"),
    ):
        assert cli.main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and "exceeds the limit" in err
        assert not out.exists()


def _do_rows(keep):
    rows = [line for line in (FIXTURES / "memory_interventional.csv").read_text().splitlines()[1:]
            if keep(line.split(",")[1])]
    return "do_a,x,b,count\n" + "\n".join(rows) + "\n"


@pytest.mark.parametrize("text", [
    _do_rows(lambda x: x == "x"),
    _do_rows(lambda x: True).replace(",z,", ",q,"),
], ids=["only_setting_x", "z_relabelled_q"])
def test_cli_rejects_do_table_with_other_settings(tmp_path, capsys, text):
    # ACDE over a do-table without all of the behaviour's settings understates
    # the crosstalk, so gamma + 2 ACDE would certify on too weak a bound
    do_path = write(tmp_path, "do.csv", text)
    out = tmp_path / "out"
    argv = ["certify", "--counts", str(FIXTURES / "memory_observational.csv"),
            "--do-counts", str(do_path), "--out", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(do_path) in err and "settings" in err
    assert not out.exists()
    behavior = dataio.ingest_counts(FIXTURES / "memory_observational.csv")
    with pytest.raises(ValidationError, match="settings"):
        certify.certify_behavior(behavior, do_table=dataio.ingest_counts(do_path))
    # a setting-independent do-table stays accepted
    exact = process.DoTable(probs=np.full((2, 1, 2), 0.5))
    assert certify.certify_behavior(behavior, do_table=exact, n_resamples=2).acde == 0.0


def test_cli_shot_limit(tmp_path, capsys):
    # a sampled run holds int64 counts: more shots than a cell may count exit 2
    config = write(tmp_path, "shots.yaml", f"shots: {10**20}\n")
    out = tmp_path / "out"
    # a value from a configuration file is reported with the file's name
    for argv, where in ((["simulate", "--preset", "memory_test", "--shots", str(10**20)], ""),
                        (["simulate", "--config", str(config)], f"{config}: "),
                        (["simulate", "--preset", "memory_test", "--shots", "0"], "")):
        assert cli.main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {where}--shots (config key shots) ")
        assert "not between 1" in err
        assert not out.exists()


def test_cli_flags_replace_file_values_before_the_config_is_built(tmp_path, capsys):
    # the configuration is built once, with the flags in it: a flag replaces a
    # bad value of the file, and only a value of the file names the file
    bad = write(tmp_path, "bad.yaml", "seed: -3\nshots: 50\nresamples: 20\n")
    good = write(tmp_path, "good.yaml", "shots: 50\nresamples: 20\n")
    for config, seed, rc, err in ((bad, "4", 0, ""),
                                  (bad, None, 2, f"error: {bad}: --seed (config key seed) -3 "),
                                  (bad, "-1", 2, f"error: {bad}: --seed (config key seed) -3 "),
                                  (good, "-1", 2, "error: --seed (config key seed) -1 ")):
        argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "out")]
        assert cli.main(argv + (["--seed", seed] if seed else [])) == rc
        assert capsys.readouterr().err.startswith(err)


def _explicit_yaml(key, *matrices):
    """A configuration line giving key as explicit real matrices of [re, im] entries."""
    value = [[[[float(x), 0.0] for x in row] for row in m] for m in matrices]
    return f"{key}: {value if len(value) > 1 else value[0]}\n".encode()


@pytest.mark.parametrize("command, name, content, fragment", [
    ("simulate", "noise.yaml",
     b"noise:\n  t2_ms: 364.0\n  echo_interval_ms: 2.5\n  initial_gamma: 0.642\n",
     "echo_fidelity"),
    ("simulate", "missing.yaml", None, "No such file"),
    ("certify", "latin1.csv", b"x,a,b,count\nq,0,0,5\nq\xe9,0,1,2\n", ":3: not UTF-8"),
    ("simulate", "alpha.yaml", b"unitary: partial_swap\nalpha: abc\n", "alpha"),
    ("simulate", "settings.yaml", b"settings: 5\n", "settings"),
    ("simulate", "shots.yaml", b"shots: 1.5\n", "shots"),
    ("simulate", "negative_t2.yaml",
     b"noise:\n  t2_ms: -1\n  echo_fidelity: 0.995\n  echo_interval_ms: 2.5\n"
     b"  initial_gamma: 0.642\n", "noise.t2_ms must be positive"),
    # a misspelt noise key would otherwise be dropped silently
    ("simulate", "noise_typo.yaml",
     b"noise:\n  t2_ms: 364.0\n  echo_fidelity: 0.995\n  echo_interval_ms: 2.5\n"
     b"  initial_gamma: 0.642\n  include_t1: true\n  t2_typo_ms: 5.0\n",
     "unknown noise keys ['include_t1', 't2_typo_ms']"),
    ("simulate", "int_key.yaml", b"1: 2\nfoo: 3\n", "unknown configuration keys [1, 'foo']"),
    # a whole command line: its error names the flag and config key, not a file
    (f"certify --counts {FIXTURES / 'memory_observational.csv'} --seed -1", None, None,
     "--seed (config key seed) -1 is negative"),
    ("simulate --preset memory_test --shots 100 --seed -1", None, None,
     "--seed (config key seed) -1 is negative"),
    ("simulate --config {path}", "seed.yaml", b"seed: -3\nshots: 50\n",
     "--seed (config key seed) -3 is negative"),
    # a wait without a noise block would print the noiseless gamma
    ("simulate --preset memory_test --exact --wait 1000", None, None,
     "--wait (config key noise.wait_ms) 1000.0 needs a noise block"),
    # the wait lives in the noise block only
    ("simulate", "wait.yaml", b"wait_ms: 5\n", "unknown configuration keys ['wait_ms']"),
    # NaN passes every comparison-based check, and report.json cannot hold it
    ("simulate", "nan_t2.yaml",
     b"noise:\n  t2_ms: .nan\n  echo_fidelity: 0.995\n  echo_interval_ms: 2.5\n"
     b"  initial_gamma: 0.642\n  wait_ms: 5\n", "noise.t2_ms must be a finite number"),
    (f"certify --counts {FIXTURES / 'memory_observational.csv'} --sigma-k nan", None, None,
     "--sigma-k must be a finite number, got nan"),
    (f"certify --counts {FIXTURES / 'memory_observational.csv'} --sigma-k -3", None, None,
     "--sigma-k (config key sigma_k) -3.0 is not a positive finite number"),
    ("decay --t2 nan --echo-fidelity 0.99 --echo-interval 2.5 --initial-gamma 0.7", None,
     None, "--t2 must be a finite number, got nan"),
    # a NaN matrix passes the unitarity check, whose comparisons NaN fails
    ("simulate", "nan_unitary.yaml",
     f"unitary: {[[[math.nan, 0.0]] * 4] * 4}\n".replace("nan", ".nan").encode(),
     "unitary: explicit matrix must be 4x4 entries of finite"),
    # an explicit matrix is checked as the file loads, and its error names the key
    ("simulate", "final_not_psd.yaml",
     _explicit_yaml("final_measurement", np.diag([1.2, 0.5]), np.diag([-0.2, 0.5])),
     "final_measurement: POVM effect has a negative eigenvalue"),
    ("simulate", "reps_trace_2.yaml",
     _explicit_yaml("repreparations", np.diag([2.0, 0.0]), np.diag([0.0, 1.0])),
     "repreparations: state trace 2.0 != 1"),
    ("simulate", "four_reps.yaml", _explicit_yaml("repreparations", *[np.diag([1.0, 0.0])] * 4),
     "repreparations: must be binary: got 4 entries"),
    ("simulate", "state_trace_2.yaml", _explicit_yaml("initial_state", np.diag([2.0, 0, 0, 0])),
     "initial_state: state trace 2.0 != 1"),
    ("simulate", "not_unitary.yaml", _explicit_yaml("unitary", 2 * np.eye(4)),
     "unitary: matrix is not unitary"),
    # only the partial swap has an angle; the flag would be dropped silently
    ("simulate --preset memory_test --exact --alpha 7.0", None, None, "--alpha"),
    ("simulate", "alpha.yaml", b"alpha: 7.0\n", "--alpha (config key alpha) 7.0"),
    # the anchor is refused as the file loads, so the error names the file
    ("simulate", "low_anchor.yaml",
     b"protocol: partial_swap\nalpha: 2.356194490192345\nunitary: partial_swap\n"
     b"repreparations: plus_minus_i\nfinal_measurement: x\nshots: exact\nnoise:\n"
     b"  t2_ms: 364.0\n  echo_fidelity: 0.995\n  echo_interval_ms: 2.5\n"
     b"  initial_gamma: 0.7\n  wait_ms: 35\n",
     "noise.initial_gamma 0.7 lies below the noiseless protocol's gamma"),
    # a blank label would certify with "" as an argmin setting
    ("certify", "blank.csv", b"x,a,b,count\nq,0,0,5\n,0,0,5\n,1,1,5\n",
     ":3: empty setting label"),
    ("certify", "blank_do.csv", b"do_a,x,b,count\n0,q,0,5\n0, ,1,5\n", ":3: empty setting label"),
], ids=["noise_without_echo_fidelity", "missing_config", "non_utf8_counts",
        "alpha_not_a_number", "settings_not_a_list", "fractional_shots", "negative_t2",
        "unknown_noise_keys", "unknown_int_and_str_keys",
        "negative_seed_certify", "negative_seed_preset", "negative_seed_config",
        "wait_without_noise", "wait_without_noise_config", "nan_t2", "nan_sigma_k",
        "negative_sigma_k", "nan_decay_t2", "nan_unitary", "final_not_psd", "reps_trace_2",
        "four_reps", "state_trace_2", "not_unitary", "alpha_without_partial_swap",
        "alpha_without_partial_swap_config", "unreachable_noise_anchor", "empty_setting_label",
        "empty_do_setting_label"])
def test_cli_hostile_input_exits_2(tmp_path, capsys, command, name, content, fragment):
    path = tmp_path / str(name)
    if content is not None:
        path.write_bytes(content)
    if " " in command:
        argv, path = command.format(path=path).split(), None
    else:
        argv = [command, "--config" if command == "simulate" else "--counts", str(path)]
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err
    assert path is None or str(path) in err
    assert not out.exists()


@pytest.mark.parametrize("x, fragment", [
    ("0", "need at least one setting"),
    ("-3", "need at least one setting"),
    (str(cli.MAX_SETTINGS + 1), f"--x {cli.MAX_SETTINGS + 1} exceeds the limit of 512"),
    # 8^4762 has 4301 digits, one past Python's default limit for printing an int
    ("4762", "--x 4762 exceeds the limit of 512"),
    ("10000000", "--x 10000000 exceeds the limit of 512"),
], ids=["zero", "negative", "past_the_limit", "past_the_int_text_limit", "huge"])
def test_cli_classical_bound_hostile_x_exits_2(capsys, x, fragment):
    assert cli.MAX_SETTINGS == 512
    assert cli.main(["classical-bound", "--x", x]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {fragment}\n" and captured.out == ""
    assert cli.main(["classical-bound", "--x", str(cli.MAX_SETTINGS)]) == 0


@pytest.mark.parametrize("text, key", [
    ("unitary: foo\n", "unitary: unknown name 'foo'"),
    ("settings: [x, y]\n", "settings: unknown name 'y'"),
    ("final_measurement: zz\n", "final_measurement: unknown name 'zz'"),
    ("unitary: partial_swap\n", "alpha: unitary partial_swap needs"),
], ids=["unitary", "settings", "final_measurement", "partial_swap_without_alpha"])
def test_config_names_unknown_components_by_file_and_key(tmp_path, capsys, text, key):
    path = write(tmp_path, "named.yaml", text)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {key}")
    assert not out.exists()


def test_every_registry_entry_builds_and_validates(tmp_path):
    # a configuration that names one entry loads and runs: the registry
    # checks every entry, states and unitaries included, once when it builds it
    for key, names in proclib.COMPONENTS.items():
        for name in names:
            value = [name] if key == "settings" else name
            alpha = "alpha: 1.0\n" if name == "partial_swap" else ""
            path = write(tmp_path, "entry.yaml", f"{alpha}{key}: {value}\n")
            behavior, _, _ = dataio.run_experiment(dataio.load_config(path))
            assert np.isfinite(behavior.probs).all(), (key, name)
            entry = proclib.component(key, name, 1.0)
            assert getattr(entry, "ops", entry).dtype == complex, (key, name)
    final = proclib.component("final_measurement", "z")
    assert [np.diag(e).real.tolist() for e in final] == [[1.0, 0.0], [0.0, 1.0]]


def _explicit(cfg):
    """cfg with every named component replaced by the registry's matrices."""
    keys = ("initial_state", "unitary", "repreparations", "final_measurement")
    return dataclasses.replace(cfg, alpha=None, **{
        key: np.array(proclib.component(key, getattr(cfg, key), cfg.alpha)) for key in keys})


def _assert_same_run(named, explicit):
    behavior, do, report = dataio.run_experiment(named)
    want_behavior, want_do, want_report = dataio.run_experiment(explicit)
    assert behavior.probs.tobytes() == want_behavior.probs.tobytes()
    assert do.probs.tobytes() == want_do.probs.tobytes()
    assert report.to_json_dict() == want_report.to_json_dict()


@pytest.mark.parametrize("name", ["memory_test", "partial_swap"])
def test_named_and_explicit_components_run_bit_identically(name):
    # a checked registry pair enters the contraction as the same array that
    # its raw matrices would, so outputs do not depend on how it was given
    _assert_same_run(preset_config(name), _explicit(preset_config(name)))


def test_every_registry_entry_runs_as_its_explicit_matrices():
    for key, names in proclib.COMPONENTS.items():
        for name in names:
            if key == "settings":  # settings are named only; compare the instruments
                reps = proclib.component("repreparations", "plus_minus")
                named = proclib.pauli_instrument((name,), reps)
                raw = process.MpInstrument(repreparations=tuple(reps),
                                           povm={name: tuple(proclib.component(key, name))})
                assert named.effects.tobytes() == raw.effects.tobytes(), name
                continue
            cfg = dataio.ExperimentConfig(alpha=1.0 if name == "partial_swap" else None,
                                          **{key: name})
            _assert_same_run(cfg, _explicit(cfg))


@pytest.mark.parametrize("name", ["memory_test", "partial_swap"])
def test_preset_matches_shipped_config(configs_dir, name):
    assert preset_config(name) == dataio.load_config(configs_dir / f"{name}.yaml")


def _src_env():
    """The environment of a subprocess that imports tpmcert from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def test_cli_import_leaves_out_scipy_optimize():
    # scipy.optimize costs most of the CLI start-up; only the upsilon
    # optimizer needs it, and it imports it when called
    code = "import sys, tpmcert.cli; print('scipy.optimize' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_cli_import_leaves_out_yaml():
    # only load_config reads YAML, and it imports yaml when called
    code = "import sys, tpmcert.cli; print('yaml' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_runtime_needs_no_scipy(tmp_path):
    # scipy is a test dependency only: the optimizer and the CLI run without it
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from tpmcert import cli, proclib\n"
        "gamma = proclib.upsilon_best_gamma(0.3, n_starts=0)\n"
        "assert abs(gamma - (2 - (1 + 0.4 ** 2) ** 0.5)) < 1e-9, gamma\n"
        "sys.exit(cli.main(['swap-curve', '--points', '3']))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=_src_env(), cwd=tmp_path,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "alpha = 3.1416" in result.stdout


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


@pytest.mark.parametrize("argv", [
    CERTIFY_ARGV[:3],
    ["simulate", "--preset", "memory_test", "--exact"],
    DECAY_ARGV,
    ["swap-curve", "--points", "9"],
    ["jm-scan", "--points", "3"],
], ids=["certify", "simulate", "decay", "swap-curve", "jm-scan"])
def test_cli_out_that_cannot_be_written_exits_2(tmp_path, capsys, argv):
    taken = write(tmp_path, "taken", "a file where the output directory should be\n")
    assert cli.main(argv + ["--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write outputs under {taken}: ")
    assert "Traceback" not in err


class _ClosedPipe(io.StringIO):
    """A standard output whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv, name", [
    (CERTIFY_ARGV[:3], "report.json"),
    (["simulate", "--preset", "memory_test", "--exact"], "report.json"),
    (DECAY_ARGV, "decay_curve.csv"),
    (["swap-curve", "--points", "9"], "swap_curve.csv"),
    (["jm-scan", "--points", "3"], "jm_scan.csv"),
], ids=["certify", "simulate", "decay", "swap-curve", "jm-scan"])
def test_cli_closed_stdout_exits_1_after_writing_outputs(tmp_path, argv, name):
    # no input was bad, so no error line: the outputs are written before
    # anything is printed, and the run ends with exit code 1
    err = io.StringIO()
    with contextlib.redirect_stdout(_ClosedPipe()), contextlib.redirect_stderr(err):
        rc = cli.main(argv + ["--out", str(tmp_path)])
    assert rc == 1 and err.getvalue() == ""
    assert (tmp_path / name).stat().st_size > 0


def test_cli_piped_into_head_exits_1_quietly():
    # `tpmcert jm-scan --points 2000 | head -1`: the scan's 2000 lines
    # overflow the pipe, so it writes on after its reader has gone
    argv = [sys.executable, "-m", "tpmcert.cli", "jm-scan", "--points", "2000"]
    with subprocess.Popen(argv, env=_src_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 1 and err == b""
    assert first.startswith(b"  alpha = 0.0000")


def test_config_with_reduced_setting_list():
    cfg = preset_config("memory_test", settings=("x", "z"))
    behavior, _, _ = dataio.run_experiment(cfg)
    assert behavior.settings == ("x", "z")
    with pytest.raises(ValidationError):
        dataio.run_experiment(preset_config("memory_test", settings=("y",)))


def test_sampled_gamma_converges_at_large_shots():
    # shots -> inf consistency: at 1e6 shots the sampled gamma sits within
    # three bootstrap standard errors of the exact value in >= 19/20 seeds
    _, _, exact_report = dataio.run_experiment(preset_config("memory_test"))
    exact = exact_report.gamma
    hits = 0
    for seed in range(20):
        cfg = preset_config(
            "memory_test", shots=10**6, seed=seed, resamples=300
        )
        _, _, report = dataio.run_experiment(cfg)
        if abs(report.gamma - exact) <= 3.0 * report.gamma_stderr:
            hits += 1
    assert hits >= 19


# classical-bound --x N: vertex counts without and with crosstalk, and the
# printed minimum of both lines
CLASSICAL_BOUND_LINES = {
    1: (8, 8, "2.000000000000"),
    2: (16, 64, "1.000000000000"),
    3: (32, 512, "1.000000000000"),
    4: (64, 4096, "1.000000000000"),
    5: (128, 32768, "1.000000000000"),
    6: (256, 262144, "1.000000000000"),
    7: (512, 2097152, "1.000000000000"),
    8: (1024, 16777216, "1.000000000000"),
}


@pytest.mark.parametrize("x", range(1, 9))
def test_cli_classical_bound_at_every_alphabet(capsys, x):
    # the lines of the enumeration up to |X| = 6, its limit, and the same
    # lines past it, where the type sets give the minima
    plain, crosstalk, minimum = CLASSICAL_BOUND_LINES[x]
    assert cli.main(["classical-bound", "--x", str(x)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"min gamma over {plain} no-crosstalk vertices: {minimum}",
        f"min (gamma + 2 ACDE) over {crosstalk} crosstalk vertices: {minimum}",
    ]
