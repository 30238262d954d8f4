"""perfbench traces tpmcert's functions by module attribute and name; a
function that is renamed, or that its callers stop reaching through its
module, would leave the benchmark's per-layer metrics without spans."""

from pathlib import Path

import pytest

from tpmcert import classical, cli, compat, dataio, proclib

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    t = tracing.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_every_traced_function_records_a_span(tracer, tmp_path, obs_fixture, do_fixture):
    # one op of each workload as its probe; layer_metrics raises RuntimeError
    # for a metric whose function has no span under its owning workload
    import tracing

    ops = {
        "certify": lambda: cli.main(["certify", "--counts", str(obs_fixture), "--do-counts",
                                     str(do_fixture), "--resamples", "2", "--out", str(tmp_path)]),
        "simulate": lambda: dataio.run_experiment(
            dataio.load_config(dataio.PRESETS["memory_test"])),
        "bounds": lambda: (
            classical.classical_minimum_gamma(3),
            classical.check_corrected_bound(classical.enumerate_strategies(3, crosstalk=True)),
            compat.partial_swap_compat_region((1.0,), 20)),
        "optimize": lambda: proclib.upsilon_best_gamma(0.25, n_starts=0),
    }
    for workload, call in ops.items():
        tracer.run_op(workload, call, probe=workload)
    assert set(tracer.layer_metrics()) == set(tracing.LAYER_METRICS)
    traced = {f"{module}.{name}" for module, names in tracing.TRACED.items() for name in names}
    assert traced - {span[tracing.NAME] for span in tracer.spans} == set()
