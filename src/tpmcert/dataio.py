"""Count-table ingestion, experiment configuration, and report emission.

CSV schemas (exact headers):

  observational   x,a,b,count
  interventional  do_a,x,b,count

Counts are nonnegative integers (at most MAX_COUNT per cell), duplicate rows
are summed, and every setting (or intervention row) must have at least one
shot.  ingest_counts keeps the counts as the data: an observational table
becomes a process.Behavior and an interventional one a process.DoTable, each
holding an int64 counts array from which its probabilities are derived and
which the bootstrap resamples.

report.json holds the fields of certify.CertReport, its schema; curve CSVs
carry the columns abscissa,value,stderr_lo,stderr_hi, whose stderr fields no
curve fills.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import certify, linalg, proclib, process
from .exceptions import DomainError, ParseError, ResourceLimitError, ValidationError

OBS_HEADER = ["x", "a", "b", "count"]
DO_HEADER = ["do_a", "x", "b", "count"]
# the largest count of one cell, so that row totals stay far inside int64
MAX_COUNT = 2**53


def ingest_counts(path: str | Path) -> process.Behavior | process.DoTable:
    """Parse and validate a UTF-8 count CSV into a Behavior (header x,a,b,count)
    or a DoTable (header do_a,x,b,count) that holds the summed counts."""
    path = Path(path)
    try:
        data = path.read_bytes().removeprefix(b"\xef\xbb\xbf")  # a spreadsheet's UTF-8 BOM
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror}") from None
    try:
        lines = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{lineno}: not UTF-8 text") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = [h.strip() for h in lines[0]]
    if header not in (OBS_HEADER, DO_HEADER):
        raise ParseError(f"{path}: unrecognized header {header}")
    observational = header == OBS_HEADER
    xi, ai = (0, 1) if observational else (1, 0)  # columns of x and a
    blocks: dict[str, list[int]] = {}  # setting label -> its counts, cell 2 a + b
    for lineno, row in enumerate(lines[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 4:
            raise ParseError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
        try:
            x, a, b, count = row[xi].strip(), int(row[ai]), int(row[2]), int(row[3])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        if not x:
            raise ParseError(f"{path}:{lineno}: empty setting label")
        if a not in (0, 1) or b not in (0, 1):
            raise ParseError(f"{path}:{lineno}: outcomes must be 0 or 1")
        if count < 0:
            raise ParseError(f"{path}:{lineno}: negative count {count}")
        cells = blocks.setdefault(x, [0, 0, 0, 0])
        if count > MAX_COUNT - cells[2 * a + b]:
            raise ParseError(f"{path}:{lineno}: the cell's count exceeds {MAX_COUNT}")
        cells[2 * a + b] += count
    if not blocks:
        raise ValidationError(f"{path}: no data rows")
    settings = tuple(blocks)
    counts = np.array(list(blocks.values()), dtype=np.int64).reshape(-1, 2, 2)
    try:
        if observational:
            return process.Behavior(settings=settings, counts=counts)
        return process.DoTable(do_settings=settings, counts=np.stack(counts, axis=1))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


# --- experiment configuration -----------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulated run, checked once, when it is built.

    initial_state, unitary, repreparations and final_measurement each name a
    registry entry (proclib.COMPONENTS) or give explicit matrices: a 4x4
    array, or a pair of 2x2 ones.  Construction turns explicit matrices into
    their checked forms (proclib.FORMS), checks the scalars (check_config),
    and resolves the components once into components: the state, the
    unitary, the instrument of the settings and the final measurement.  A
    noise block depolarises that state's memory qubit E once, to the
    visibility at which gamma is decay_prediction at the wait (exact when
    the fully depolarised memory gives pair terms of 1/2).  A bad value, an
    initial_gamma below the noiseless gamma included, raises ValidationError,
    DomainError or ResourceLimitError naming its key; dataclasses.replace
    builds and checks a new configuration.  protocol is a free-form label
    (memory_test, partial_swap, custom): a config file must give it as a
    string, and no code reads it.
    """

    protocol: str = "memory_test"
    alpha: float | None = None
    initial_state: str | process.InitialState | np.ndarray = "bell"
    unitary: str | process.Unitary | np.ndarray = "cnot_swap"
    settings: tuple[str, ...] = proclib.SETTING_LABELS
    repreparations: str | process.Repreparations | Sequence[np.ndarray] = "plus_minus"
    final_measurement: str | process.FinalMeasurement | Sequence[np.ndarray] = "xz_diagonal"
    shots: int | None = None
    seed: int = 0
    resamples: int = certify.DEFAULT_RESAMPLES
    sigma_k: float = certify.DEFAULT_SIGMA_K
    noise: proclib.NoiseParams | None = None
    wait_ms: float = 0.0
    frozen_argmin: bool = False
    components: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        check_config(self)
        parts = []
        for key in _NAMED_KEYS:
            value = getattr(self, key)
            if isinstance(value, str):
                value = proclib.component(key, value, self.alpha)
            else:  # explicit matrices, kept in their checked form
                value = _checked(key, value)
                object.__setattr__(self, key, value)
            parts.append(value)
        state, unitary, reps, final = parts
        inst = proclib.pauli_instrument(self.settings, reps)
        if self.noise is not None:
            # visibility vis maps the protocol's exact gamma g to 2 - vis (2 - g);
            # vis may pass 1 by rounding only (the memory test's g is 2 - sqrt(2))
            (_, target), = proclib.decay_prediction(self.noise, [self.wait_ms])
            op = process.build_process(state, unitary)
            reach = 2.0 - float(certify.gamma_values(process.born_rule(op, inst, final).probs))
            if 2.0 - self.noise.initial_gamma > reach * (1.0 + 1e-12):
                raise ValidationError(f"noise.initial_gamma {self.noise.initial_gamma} lies "
                                      f"below the noiseless protocol's gamma {2.0 - reach!r}")
            vis = (2.0 - target) / reach if reach > 0.0 else 1.0
            memoryless = np.kron(op.marginal_state, linalg.ID2 / 2)  # E fully depolarised
            state = process.InitialState(vis * state.ops + (1 - vis) * memoryless)
        object.__setattr__(self, "components", (state, unitary, inst, final))


def _checked(key: str, value):
    """The explicit matrices value given under key, in their checked form; a
    failed check names the key instead of the form.  A configuration is one
    process, so a stack of states or unitaries is refused."""
    form = proclib.FORMS[key]
    try:
        checked = form.of(value)
    except ValidationError as exc:
        raise ValidationError(f"{key}: {str(exc).removeprefix(form.what).lstrip(': ')}") from None
    if key in ("initial_state", "unitary") and checked.ops.ndim != 2:
        raise ValidationError(f"{key}: must be a 4x4 (two-qubit) matrix")
    return checked


def _as_matrix(obj, dim: int) -> np.ndarray:
    """Explicit matrix from nested [re, im] entry lists."""
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.shape != (dim, dim, 2) or not np.isfinite(arr).all():
        raise ValidationError(
            f"explicit matrix must be {dim}x{dim} entries of finite [re, im] pairs"
        )
    return arr[..., 0] + 1j * arr[..., 1]


# configuration keys that may name a registered component or give explicit
# matrices; the last two give a pair of 2x2 operators
_NAMED_KEYS = ("initial_state", "unitary", "repreparations", "final_measurement")
# scalar configuration keys and their types
_CONFIG_SCALARS = {"protocol": str, "alpha": float, "shots": int, "seed": int, "resamples": int,
                   "sigma_k": float, "frozen_argmin": bool}
# NoiseParams field -> key of the YAML noise block, which also holds wait_ms
_NOISE_KEYS = {"t2": "t2_ms", "t1": "t1_ms", "echo_fidelity": "echo_fidelity",
               "echo_interval": "echo_interval_ms", "initial_gamma": "initial_gamma"}
# preset name -> its shipped configuration file
PRESETS = {path.stem: path for path in sorted(Path(__file__).with_name("configs").glob("*.yaml"))}


def _typed(path: Path, key: str, value, kind: type):
    """value as kind, or a ParseError naming the file and the key; a bool
    passes only as a bool, an int also as a float, and a float only if finite."""
    allowed = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
        raise ParseError(f"{path}: {key} must be of type {kind.__name__}, got {value!r}")
    try:
        finite = kind is not float or math.isfinite(value)
    except OverflowError:  # an int beyond the range of a float
        finite = False
    if not finite:
        raise ParseError(f"{path}: {key} must be a finite number, got {value!r}")
    return kind(value)


def _given(path: Path, block: str, doc: dict, known) -> dict:
    """The keys of doc whose value is not null, with their values; a
    ParseError names the file and every key of doc outside known."""
    unknown = sorted(set(doc) - set(known), key=str)
    if unknown:
        raise ParseError(f"{path}: unknown {block} keys {unknown}")
    return {key: val for key, val in doc.items() if val is not None}


def _named_or_explicit(path: Path, key: str, val):
    """A component name as it is, or the explicit matrices that the file path
    gives under key as complex arrays: one 4x4 matrix, or a pair of 2x2 ones
    for the keys of the last two.  ExperimentConfig checks them."""
    if isinstance(val, str):
        return val
    pair = key in _NAMED_KEYS[2:]
    if pair and not isinstance(val, list):
        raise ParseError(f"{path}: {key} must be a name or a list of matrices")
    try:
        return tuple(_as_matrix(m, 2) for m in val) if pair else _as_matrix(val, 4)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {key}: {exc}") from None


def load_config(path: str | Path, **overrides) -> ExperimentConfig:
    """Read an experiment configuration from a UTF-8 YAML document and build
    it once, with the given fields replaced.  A key with a null value, at the
    top level or in the noise block, is a key not given: an optional one keeps
    its default (t1_ms no T1, wait_ms a zero wait) and a required one is
    missing.  A bad document raises ParseError or ValidationError naming the
    file; a bad override raises without the file's name."""
    import yaml  # only configuration files need it

    path = Path(path)
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a mapping at top level")
    doc = _given(path, "configuration", doc,
                 [*_CONFIG_SCALARS, *_NAMED_KEYS, "settings", "noise"])
    kwargs: dict = {}
    for key, kind in _CONFIG_SCALARS.items():
        if key in doc:
            exact = key == "shots" and doc[key] == "exact"
            kwargs[key] = None if exact else _typed(path, key, doc[key], kind)
    if "settings" in doc:
        if not isinstance(doc["settings"], list):
            raise ParseError(f"{path}: settings must be a list of labels")
        kwargs["settings"] = tuple(str(x) for x in doc["settings"])
    for key in _NAMED_KEYS:
        if key in doc:
            kwargs[key] = _named_or_explicit(path, key, doc[key])
    if "noise" in doc:
        if not isinstance(doc["noise"], dict):
            raise ParseError(f"{path}: noise must be a mapping")
        nz = _given(path, "noise", doc["noise"], [*_NOISE_KEYS.values(), "wait_ms"])
        missing = [_NOISE_KEYS[f.name] for f in fields(proclib.NoiseParams)
                   if f.default is MISSING and _NOISE_KEYS[f.name] not in nz]
        if missing:
            raise ParseError(f"{path}: noise block lacks {missing}")
        values = {name: _typed(path, f"noise.{key}", nz[key], float)
                  for name, key in _NOISE_KEYS.items() if key in nz}
        try:
            kwargs["noise"] = proclib.NoiseParams(**values)
        except ValidationError as exc:
            name, rule = str(exc).split(" ", 1)
            raise ValidationError(f"{path}: noise.{_NOISE_KEYS[name]} {rule}") from None
        if "wait_ms" in nz:
            kwargs["wait_ms"] = _typed(path, "noise.wait_ms", nz["wait_ms"], float)
    errors = (ValidationError, DomainError, ResourceLimitError)
    try:
        return ExperimentConfig(**{**kwargs, **overrides})
    except errors:
        # the file is named only if its own values fail without the overrides
        try:
            ExperimentConfig(**kwargs)
        except errors as exc:
            raise type(exc)(f"{path}: {exc}") from None
        raise


def check_config(cfg: ExperimentConfig) -> None:
    """Raise for a value of cfg that no run accepts, naming its flag and
    config key: a negative seed, shots outside [1, MAX_COUNT], a resample count
    or sigma_k that certify refuses, a wait without a noise block, an alpha
    without partial_swap or repeated setting labels (ValidationError), or an
    alpha outside [0, pi] or a negative or NaN wait (DomainError)."""
    certify.check_seed(cfg.seed)
    if cfg.shots is not None and not 1 <= cfg.shots <= MAX_COUNT:
        raise ValidationError(f"--shots (config key shots) {cfg.shots} is not between 1 "
                              f"and {MAX_COUNT}")
    certify.check_resamples(cfg.resamples)
    certify.check_sigma_k(cfg.sigma_k)
    if cfg.noise is None and cfg.wait_ms != 0.0:
        raise ValidationError(f"--wait (config key noise.wait_ms) {cfg.wait_ms} needs a "
                              "noise block")
    swap = isinstance(cfg.unitary, str) and cfg.unitary == "partial_swap"
    if cfg.alpha is not None and not swap:
        raise ValidationError(f"--alpha (config key alpha) {cfg.alpha} sets the angle of the "
                              f"unitary partial_swap, which this configuration does not use")
    if cfg.alpha is not None and not 0.0 <= cfg.alpha <= math.pi:
        raise DomainError(f"--alpha (config key alpha) {cfg.alpha} is outside [0, pi]")
    if not cfg.wait_ms >= 0.0:
        raise DomainError(f"--wait (config key noise.wait_ms): waiting time {cfg.wait_ms} ms is "
                          f"not a nonnegative number")
    if len(set(cfg.settings)) != len(cfg.settings):
        raise ValidationError("settings: duplicate setting labels")


def run_experiment(
    cfg: ExperimentConfig,
) -> tuple[process.Behavior, process.DoTable, certify.CertReport]:
    """Simulate one configuration end to end and certify the result.

    Exact mode propagates the ideal probabilities; finite shots draw one
    multinomial sample per setting (and per intervention row) with per-row
    seeds derived from the configured seed, so runs are reproducible.
    A noise block is already in the state of cfg.components.
    """
    rho, u, inst, final = cfg.components
    op = process.build_process(rho, u)
    behavior = process.born_rule(op, inst, final)
    do_exact = process.do_probabilities(op, inst.repreparations, final)

    if cfg.shots is None:
        do_table = do_exact
    else:
        counts = np.empty((len(behavior.settings), 2, 2), dtype=np.int64)
        for xi, p in enumerate(behavior.probs.reshape(-1, 4)):
            rng = np.random.default_rng([cfg.seed, xi])
            counts[xi] = rng.multinomial(cfg.shots, p / p.sum()).reshape(2, 2)
        # the interventional run is repeated for every setting label even when
        # the underlying distribution is x-independent, mirroring the data
        # layout of a real crosstalk test
        dcounts = np.empty((2, len(behavior.settings), 2), dtype=np.int64)
        for a in (0, 1):
            p = do_exact.probs[a, 0]
            for xi in range(len(behavior.settings)):
                rng = np.random.default_rng([cfg.seed, 1000 + 2 * xi + a])
                dcounts[a, xi] = rng.multinomial(cfg.shots, p / p.sum())
        behavior = process.Behavior(settings=behavior.settings, counts=counts)
        do_table = process.DoTable(do_settings=behavior.settings, counts=dcounts)

    report = certify.certify_behavior(
        behavior,
        do_table=do_table,
        n_resamples=cfg.resamples,
        seed=cfg.seed,
        sigma_k=cfg.sigma_k,
        frozen_argmin=cfg.frozen_argmin,
    )
    return behavior, do_table, report


# --- emission ----------------------------------------------------------------

def _write(out_dir: Path, name: str, text: str) -> Path:
    """Write text to out_dir/name, making out_dir if needed; a failure is an
    OSError that names out_dir."""
    path = out_dir / name
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text.encode())
    except OSError as exc:
        raise OSError(f"cannot write outputs under {out_dir}: {exc}") from exc
    return path


def write_curve(out_dir: str | Path, name: str, rows: Sequence[tuple[float, float]]) -> Path:
    """Write the (abscissa, value) rows as out_dir/name.csv in round-trip
    precision, under the columns abscissa,value,stderr_lo,stderr_hi; no curve
    carries errors, so the stderr fields stay empty."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["abscissa", "value", "stderr_lo", "stderr_hi"])
    writer.writerows((repr(float(x)), repr(float(y)), "", "") for x, y in rows)
    return _write(Path(out_dir), f"{name}.csv", text.getvalue())


def emit_report(report: certify.CertReport, out_dir: str | Path = ".") -> Path:
    """Write report.json, byte-stable for identical inputs; returns its path."""
    text = json.dumps(report.to_json_dict(), indent=2) + "\n"
    return _write(Path(out_dir), "report.json", text)
