"""tpmcert benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's src/.  Workloads: certify, simulate, optimize, bounds (see
README.md).  Every workload process is a fresh interpreter started from here,
one at a time:

  SETUP_RUNS - 1 set-up-only processes, then the measuring process; setup_s
  is the median of the SETUP_RUNS set-up times.
  With --trace 1 also three `import tpmcert.cli` processes (cli.import_s).

The last stdout line is {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Exits 2 without a result if the checkout has no src/tpmcert or a workload
process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3
IMPORT_RUNS = 3
TIME_LIMIT_S = 170.0
WORKLOAD_NAMES = ("certify", "simulate", "optimize", "bounds")

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms",
                    "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _env() -> dict[str, str]:
    # one process, one thread: the machine this was tuned on has 2 cores
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                MKL_NUM_THREADS="1")


def _last_json_line(argv: list[str], deadline: float) -> dict:
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, env=_env(),
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(argv[1:])}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"exit code {proc.returncode}: {' '.join(argv[1:])}")
    return json.loads(lines[-1])


def import_seconds(deadline: float) -> float:
    """`import tpmcert.cli` in a fresh interpreter."""
    code = ("import sys, time, json; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import tpmcert.cli; "
            "print(json.dumps({'s': time.perf_counter() - t}))")
    return _last_json_line([sys.executable, "-c", code, str(ROOT / "src")], deadline)["s"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "tpmcert" / "__init__.py").is_file():
        print(f"error: no src/tpmcert package under {ROOT}", file=sys.stderr)
        return 2
    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--workdir", str(workdir)]
    try:
        setups = [_last_json_line(worker + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
        res = _last_json_line(worker, deadline)
        setups.append(res["setup_s"])
        if args.trace:
            imports = [import_seconds(deadline) for _ in range(IMPORT_RUNS)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        metrics = {"cli.import_s": {"value": statistics.median(imports), "unit": "s"}}
        import tracing  # noqa: E402  (plain stdlib; only its metric table is used)

        units = {k: v[0] for k, v in tracing.LAYER_METRICS.items()}
        units.update({"trace.overhead_ms": "ms", "trace.overhead_pct": "%",
                      "calibration.kernel_ms": "ms", "calibration.wall_op_p50_ms": "ms"})
        metrics.update({k: {"value": v, "unit": units[k]} for k, v in res["layers"].items()})
    else:
        res["setup_s"] = statistics.median(setups)
        print(f"wall-clock: {res['wall_ops_per_s']:.6g} ops/s, "
              f"op_p50 {res['wall_op_p50_ms']:.6g} ms", file=sys.stderr)
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": not res["problems"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
