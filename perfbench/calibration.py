"""Machine-speed calibration of op times.

The shared two-vCPU machine this benchmark was built on changes speed by
+-15 % and more over periods of seconds: a fixed `born_rule` loop timed in
2 s chunks read 750 to 1170 us per call, and the throughput of identical
30 s runs differed by up to 44 %.  So the worker runs a fixed kernel, which
calls nothing in tpmcert, before every round and after the last one, and
scales each round's op times by REFERENCE_S / (mean kernel time around the
round): the end-to-end times are "at reference machine speed".

Each workload has its own kernel made of the same kinds of work as its ops,
because the machine's slowdowns hit interpreter-bound small-array code,
multinomial sampling and large-array sweeps by different amounts.  A change
to the program cannot change a kernel, so a faster program still reads
faster; a kernel's own time is in no op.  The unscaled figures are in the
traced run's per-layer metrics (`calibration.*`) and on stderr.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(20240601)
_W = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))
_F = [_rng.standard_normal((2, 2)) + 1j * _rng.standard_normal((2, 2)) for _ in range(3)]
_RHO = _W @ _W.conj().T
_P = np.array([0.1, 0.2, 0.3, 0.4])
_GRID: list[np.ndarray] = []  # built on first use: only bounds needs it


def _small_arrays(n: int) -> float:
    """Interpreter-bound calls on 2x2 to 8x8 matrices, as in the process
    layer and the classical vertex loop."""
    acc = 0.0
    for _ in range(n):
        m = np.kron(np.kron(_F[0], _F[1]), _F[2])
        acc += float(np.einsum("ij,ji->", m, _W).real)
        acc += float(np.linalg.eigvalsh(_RHO)[0])
    return acc


def _draws() -> float:
    """Multinomial resampling of a table, as in the bootstrap."""
    draws = np.random.default_rng(0).multinomial(5000, _P, size=(2000, 2))
    return float(draws.min(axis=1).sum())


def _grid() -> float:
    """Products over the 20^4 points of a density-20 angle grid, as in the
    jm-scan."""
    if not _GRID:
        t = np.meshgrid(*[np.linspace(0.0, np.pi, 20)] * 4, indexing="ij")
        f = np.stack([np.sin(t[0]) * np.cos(t[3]), np.sin(t[1]), np.cos(t[2])], axis=-1)
        _GRID.extend([f, f[..., ::-1].copy()])
    f, r = _GRID
    return float((np.einsum("...i,...i->...", np.cross(f, r), f) - f[..., 0] ** 2).min())


KERNELS = {
    "certify": lambda: _draws() + _small_arrays(8),
    "simulate": lambda: _small_arrays(30),
    "optimize": lambda: _small_arrays(30),
    "bounds": lambda: _grid() + _small_arrays(150),
}

# median kernel times on the machine the bounds were set on
REFERENCE_S = {"certify": 1.4e-3, "simulate": 1.4e-3, "optimize": 1.4e-3, "bounds": 18e-3}


def kernel_seconds(workload: str) -> float:
    """Wall time of one run of the workload's kernel."""
    start = time.perf_counter()
    acc = KERNELS[workload]()
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise RuntimeError("calibration kernel lost its result")
    return elapsed
