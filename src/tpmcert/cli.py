"""Command-line surface.

Subcommands:
  certify         evaluate all functionals on ingested count tables
  simulate        run a configured experiment (exact or sampled) and certify
  decay           dephasing-with-echo prediction of gamma over waiting time
  swap-curve      gamma of the partial-swap protocol over an angle sweep
  classical-bound exact classical minima over the vertices' type sets
  jm-scan         joint-measurability margin of the partial-swap assemblage

Exit codes: 0 success, 1 a standard output closed before the run ends
(`tpmcert jm-scan | head -1`; the files under --out are written first), 2
parse/validation error or an --out that cannot be written, 3 domain error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import certify, classical, compat, dataio, proclib, process
from .exceptions import DomainError, ParseError, ResourceLimitError, ValidationError

MAX_POINTS = 100_000  # curve and scan length cap; decay holds about 120 bytes a point
# classical-bound prints 8^|X| vertices, 463 digits at this cap: under 640,
# the least int-to-text limit (sys.set_int_max_str_digits) Python admits
MAX_SETTINGS = 512


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--resamples", type=int, default=None)
    p.add_argument("--sigma-k", type=float, default=None)
    p.add_argument("--out", default=".", help="output directory (default: cwd)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of main, built once per process and shared by every call:
    parse_args leaves it as it was, and no caller may change it."""
    parser = argparse.ArgumentParser(
        prog="tpmcert",
        description="Device-independent quantum-memory certification from "
        "two-point-measurement statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="certify ingested count tables")
    p.add_argument("--counts", required=True, help="observational CSV (x,a,b,count)")
    p.add_argument("--do-counts", help="interventional CSV (do_a,x,b,count)")
    p.add_argument("--frozen-argmin", action="store_true",
                   help="keep the point-estimate argmin during the bootstrap")
    _add_common(p)

    p = sub.add_parser("simulate", help="simulate a configuration and certify it")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=list(dataio.PRESETS))
    group.add_argument("--config", help="YAML configuration file")
    p.add_argument("--alpha", type=float, help="partial-swap angle in radians")
    shots = p.add_mutually_exclusive_group()
    shots.add_argument("--exact", action="store_true", help="exact probabilities")
    shots.add_argument("--shots", type=int, help="multinomial shots per setting")
    p.add_argument("--wait", type=float, default=None,
                   help="waiting time in ms (needs a noise block in the config)")
    _add_common(p)

    p = sub.add_parser("decay", help="predicted gamma over waiting time")
    p.add_argument("--t2", type=float, required=True, help="dephasing time, ms")
    p.add_argument("--t1", type=float, help="relaxation time, ms (default: no relaxation)")
    p.add_argument("--echo-fidelity", type=float, required=True)
    p.add_argument("--echo-interval", type=float, required=True, help="ms")
    p.add_argument("--initial-gamma", type=float, required=True)
    p.add_argument("--t-max", type=float, default=200.0)
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--out", default=None, help="write decay_curve.csv here")

    p = sub.add_parser("swap-curve", help="gamma over a partial-swap angle sweep")
    p.add_argument("--points", type=int, default=64)
    p.add_argument("--out", default=None, help="write swap_curve.csv here")

    p = sub.add_parser("classical-bound", help="exact classical minima")
    p.add_argument("--x", type=int, default=4, help="setting-alphabet size")

    p = sub.add_parser("jm-scan", help="joint-measurability margin per angle")
    p.add_argument("--points", type=int, default=33, help="alpha grid points")
    p.add_argument("--out", default=None, help="write jm_scan.csv here")

    return parser


def _cmd_certify(args) -> int:
    behavior = dataio.ingest_counts(args.counts)
    if not isinstance(behavior, process.Behavior):
        raise ValidationError(f"{args.counts}: --counts must be an observational table")
    do_table = None
    if args.do_counts:
        do_table = dataio.ingest_counts(args.do_counts)
        if not isinstance(do_table, process.DoTable):
            raise ValidationError(f"{args.do_counts}: --do-counts must be an interventional table")
        try:
            certify.check_do_settings(behavior, do_table)
        except ValidationError as exc:
            raise ValidationError(f"{args.do_counts}: {exc}") from None
    given = dict(n_resamples=args.resamples, seed=args.seed, sigma_k=args.sigma_k)
    report = certify.certify_behavior(
        behavior, do_table=do_table, frozen_argmin=args.frozen_argmin,
        **{key: val for key, val in given.items() if val is not None},
    )
    dataio.emit_report(report, out_dir=args.out)
    print(f"gamma           = {report.gamma:.6f}"
          + (f" +- {report.gamma_stderr:.6f}" if report.gamma_stderr else ""))
    print(f"pearl_delta     = {report.pearl_delta:.6f}")
    if report.acde is not None:
        print(f"acde            = {report.acde:.6f}")
    print(f"fidelity_lb     = {report.fidelity_lb:.6f}")
    print(f"nonclassical    = {report.verdict_nonclassical}")
    print(f"crosstalk       = {report.verdict_crosstalk_witnessed}")
    return 0


def _cmd_simulate(args) -> int:
    given = dict(shots=args.shots, seed=args.seed, resamples=args.resamples,
                 sigma_k=args.sigma_k, wait_ms=args.wait, alpha=args.alpha)
    overrides = {key: val for key, val in given.items() if val is not None}
    if args.exact:
        overrides["shots"] = None
    path = args.config or dataio.PRESETS[args.preset]
    cfg = dataio.load_config(path, **overrides)
    _, _, report = dataio.run_experiment(cfg)
    dataio.emit_report(report, out_dir=args.out)
    print(f"gamma        = {report.gamma:.9f}")
    print(f"pearl_delta  = {report.pearl_delta:.9f}")
    print(f"acde         = {report.acde:.9f}")
    print(f"fidelity_lb  = {report.fidelity_lb:.6f}")
    print(f"nonclassical = {report.verdict_nonclassical}")
    return 0


def _cmd_decay(args) -> int:
    params = proclib.NoiseParams(
        t2=args.t2,
        echo_fidelity=args.echo_fidelity,
        echo_interval=args.echo_interval,
        initial_gamma=args.initial_gamma,
        t1=args.t1,
    )
    if not args.t_max >= 0.0:
        raise DomainError(f"--t-max: waiting time {args.t_max} ms is not a nonnegative number")
    times = np.linspace(0.0, args.t_max, args.points)
    curve = proclib.decay_prediction(params, times)
    crossing = proclib.classical_crossing_time(params)
    path = dataio.write_curve(args.out, "decay_curve", curve) if args.out else None
    print(f"classical crossing time: {crossing:.4f} ms")
    for t, g in curve[:: max(1, len(curve) // 10)]:
        print(f"  t = {t:8.2f} ms   gamma = {g:.6f}")
    if path:
        print(f"wrote {path}")
    return 0


def _cmd_swap_curve(args) -> int:
    alphas = np.linspace(0.0, math.pi, args.points)
    curve = proclib.partial_swap_gamma_curve(alphas)
    path = dataio.write_curve(args.out, "swap_curve", curve) if args.out else None
    for alpha, gamma in curve[:: max(1, len(curve) // 10)]:
        print(f"  alpha = {alpha:.4f}   gamma = {gamma:.9f}")
    violations = [a for a, g in curve if g < 1.0 - 1e-9]
    if violations:
        print(f"violations (gamma < 1) for alpha in "
              f"[{min(violations):.4f}, {max(violations):.4f}]")
    if path:
        print(f"wrote {path}")
    return 0


def _cmd_classical_bound(args) -> int:
    if args.x > MAX_SETTINGS:
        raise ResourceLimitError(f"--x {args.x} exceeds the limit of {MAX_SETTINGS}")
    min_gamma = classical.classical_minimum_gamma(args.x)
    print(f"min gamma over {classical.vertex_count(args.x)} no-crosstalk vertices: "
          f"{min_gamma:.12f}")
    worst = classical.classical_minimum_corrected(args.x)
    print(f"min (gamma + 2 ACDE) over {classical.vertex_count(args.x, crosstalk=True)} "
          f"crosstalk vertices: {worst:.12f}")
    return 0


def _cmd_jm_scan(args) -> int:
    alphas = np.linspace(0.0, math.pi, args.points)
    region = compat.partial_swap_compat_region(alphas)
    rows = [(float(alpha), region[float(alpha)]) for alpha in alphas]
    path = dataio.write_curve(args.out, "jm_scan", rows) if args.out else None
    for alpha, margin in rows:
        flag = "incompatible" if margin < -1e-9 else "compatible"
        print(f"  alpha = {alpha:.4f}   min margin = {margin:+.6f}   {flag}")
    if path:
        print(f"wrote {path}")
    return 0


_COMMANDS = {
    "certify": _cmd_certify,
    "simulate": _cmd_simulate,
    "decay": _cmd_decay,
    "swap-curve": _cmd_swap_curve,
    "classical-bound": _cmd_classical_bound,
    "jm-scan": _cmd_jm_scan,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "points", 1) < 1:
            raise ValidationError("--points must be at least 1")
        if getattr(args, "points", 0) > MAX_POINTS:
            raise ResourceLimitError(f"--points {args.points} exceeds the limit of {MAX_POINTS}")
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValidationError(f"--{name.replace('_', '-')} must be a finite number, "
                                      f"got {value}")
        rc = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe fails here, not as the interpreter exits
        return rc
    except BrokenPipeError:
        # the reader of stdout has gone: what is still buffered goes to
        # devnull, so that the final flush cannot fail again
        if sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ParseError, ValidationError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
