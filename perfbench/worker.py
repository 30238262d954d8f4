"""One workload process, started by run.py in a fresh interpreter.

  set-up       import tpmcert and generate the workload's inputs (timed:
               setup_s); with --setup-only the process stops here
  references   reference.self_check() and the workload's references (untimed)
  timed phase  whole rounds of ops until the next round would pass --seconds
  checks       the workload's final checks

With --trace 1 the rounds alternate untraced and traced, and then the probe
ops of every other workload run traced.  The last stdout line is a JSON
object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
from array import array
import json
import resource
import statistics
import sys
import time
from pathlib import Path


class _Discard:
    """stdout sink for the CLI's own printing during ops."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


class Rounds:
    """Op times of one timed phase, by untraced (False) and traced (True)
    rounds: `wall` as measured, `scaled` at reference machine speed (see
    calibration.py); `seconds` sums the rounds' scaled durations."""

    def __init__(self):
        # 8 bytes per op, so a faster program holds little more memory
        self.wall = {False: array("d"), True: array("d")}
        self.scaled = {False: array("d"), True: array("d")}
        self.kernel: list[float] = []
        self.failed = 0
        self.seconds = 0.0
        self.wall_seconds = 0.0


def run_rounds(wl, seconds: float, tracer=None) -> Rounds:
    """Repeat wl.ops as whole rounds; stop when one more round, at the mean
    round time so far, would end after `seconds`.  At least one round.

    The calibration kernel runs before every round and after the last.  With
    a tracer, rounds alternate untraced and traced (at least one of each), so
    that the machine's drift falls on both alike."""
    import calibration

    out = Rounds()
    clock = time.perf_counter
    start = clock()
    before = calibration.kernel_seconds(wl.name)
    with contextlib.redirect_stdout(_Discard()):
        while True:
            traced = tracer is not None and len(out.kernel) % 2 == 1
            if traced:
                tracer.install()
            times = array("d")
            round_start = clock()
            try:
                for op in wl.ops:
                    t = clock()
                    try:
                        result = tracer.run_op(op.label, op.call) if traced else op.call()
                    except Exception as exc:  # an op that raises counts as failed
                        times.append(clock() - t)
                        out.failed += 1
                        print(f"{wl.name}/{op.label}: {exc!r}", file=sys.stderr)
                        continue
                    times.append(clock() - t)
                    out.failed += bool(wl.check(op, result))
            finally:
                if traced:
                    tracer.uninstall()
            round_s = clock() - round_start
            after = calibration.kernel_seconds(wl.name)
            out.kernel.append((before + after) / 2)
            scale = calibration.REFERENCE_S[wl.name] / out.kernel[-1]
            before = after
            out.wall[traced] += times
            out.scaled[traced].extend(t * scale for t in times)
            out.wall_seconds += round_s
            out.seconds += round_s * scale
            rounds = len(out.kernel)
            elapsed = clock() - start
            if rounds >= (1 if tracer is None else 2) and (
                    elapsed * (rounds + 1) / rounds > seconds):
                return out


def run_probes(tracer, name: str, workdir: Path) -> list[str]:
    """The fixed probe ops of every other workload, traced and checked."""
    import workloads

    problems = []
    with contextlib.redirect_stdout(_Discard()):
        for other in workloads.probe_workloads(name, workdir):
            other.prepare()
            for op in other.probe_ops:
                other.check(op, tracer.run_op(op.label, op.call, probe=other.name))
            other.finish()
            problems += other.problems
    return problems


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import tpmcert.cli  # noqa: F401  (the import every CLI user pays)

    if Path(tpmcert.__file__).resolve().parent != src / "tpmcert":
        print(f"error: imported {tpmcert.__file__}, not the checkout's", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir) / "inputs")
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import reference

    reference.self_check()
    wl.prepare()
    out = {"setup_s": setup_s}
    if not args.trace:
        res = run_rounds(wl, args.seconds)
        times = res.scaled[False]
        out.update(ops_per_s=len(times) / res.seconds,
                   op_p50_ms=1e3 * statistics.median(times),
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                   wall_ops_per_s=len(times) / res.wall_seconds,
                   wall_op_p50_ms=1e3 * statistics.median(res.wall[False]))
    else:
        import tracing

        tracer = tracing.Tracer()
        res = run_rounds(wl, args.seconds, tracer)
        tracer.install()
        try:
            wl.problems += run_probes(tracer, args.workload, Path(args.workdir) / "probes")
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics()
        untraced_p50 = statistics.median(res.scaled[False])
        traced_p50 = statistics.median(res.scaled[True])
        layers["trace.overhead_ms"] = 1e3 * (traced_p50 - untraced_p50)
        layers["trace.overhead_pct"] = 100.0 * (traced_p50 / untraced_p50 - 1.0)
        layers["calibration.kernel_ms"] = 1e3 * statistics.median(res.kernel)
        layers["calibration.wall_op_p50_ms"] = 1e3 * statistics.median(res.wall[False])
        results = Path(__file__).resolve().parent / "results"
        tracer.write(results / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed, "layers": layers})
        times = res.scaled[False] + res.scaled[True]
        out.update(layers=layers)
    wl.finish()
    out.update(attempted=len(times), failed=res.failed, problems=wl.problems)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
