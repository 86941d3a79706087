"""Exact fBm sampling on the grid {k/n} by circulant embedding, in blocks of paths.

The circulant route draws from the exact finite-dimensional law
N(0, [R_H(t_j, t_k)]). It embeds the unit-variance fGn autocovariance rho_H
into a length-2n circulant (Wood & Chan 1994, Dietrich & Newsam 1997) whose
spectrum is Hermitian, so one real inverse FFT of the n+1 half-spectrum
synthesizes the n^{-H}-scaled increments in O(n log n); a cumulative sum gives
the path. A block of B paths is B rows of one normal buffer, transformed by
one inverse FFT along its rows.

Randomness is counter-based: row i of a block draws from a Philox generator
keyed by (seed, stream + i), so a path depends only on its own key and never
on the block it is drawn in or on execution order.

Each thread keeps one workspace: the normals, half-spectrum and inverse-FFT
buffers of one block at its last grid size, and the key of the normals they
hold. A run of blocks at one grid size allocates them once instead of freeing
and faulting in three buffers per block. The normals do not depend on H, so a
thread asked for the same block again at another H reuses the ones it holds.
A draw of any size runs block by block through the workspace into one new
path array, so it needs its output plus one block of memory.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import EmbeddingError
from .kernels import HurstIndex, as_hurst, as_integer, increment_autocov_seq

# Circulant eigenvalues of the fGn embedding are nonnegative in exact
# arithmetic; anything dipping below -EIG_TOL * max is treated as a failed
# embedding instead of being silently clamped.
EIG_TOL = 1e-9

METHOD_CIRCULANT = "circulant"
_MAX_UINT64 = 2**64

# A block of B >= 1 paths at grid size n holds B * n <= BLOCK_POINTS points: its buffers
# stay well under 1 MB, and the per-call cost is paid once per block, not once per path.
BLOCK_POINTS = 8192

# The largest grid size a plan may ask for, so that a run's memory stays bounded: a run of
# one plan at 1 thread peaks at about 213 MiB RSS at n = 2^20 and 709 MiB at n = 2^22.
MAX_GRID_SIZE = 2**22


def block_size(n: int) -> int:
    """Paths per block at grid size n, an integer >= 1: the largest B with B * n <= BLOCK_POINTS, at least 1."""
    return max(1, BLOCK_POINTS // as_integer(n, "n", 1))


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling method plus the (seed, stream) pair naming a random stream, each an integer in [0, 2^64)."""

    method: str = METHOD_CIRCULANT
    seed: int = 0
    stream: int = 0

    def __post_init__(self):
        if self.method != METHOD_CIRCULANT:
            raise ValueError(f"method must be '{METHOD_CIRCULANT}', got {self.method!r}")
        for field in ("seed", "stream"):
            value = as_integer(getattr(self, field), field, 0)
            if value >= _MAX_UINT64:
                raise ValueError(f"{field} must be below 2^64, got {value}")
            object.__setattr__(self, field, value)


@dataclass(frozen=True, eq=False)
class FbmPath:
    """A block of trajectories: row i is (B_0, B_{1/n}, ..., B_1) of one path; values are immutable.

    A read-only float64 array is kept as given; anything else is copied, so the
    caller's writable array is neither aliased nor frozen.
    """

    hurst: HurstIndex
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "hurst", as_hurst(self.hurst))
        vals = self.values
        if not (isinstance(vals, np.ndarray) and vals.dtype == np.float64 and not vals.flags.writeable):
            vals = np.array(vals, dtype=np.float64)
        if vals.ndim != 2 or vals.shape[0] < 1 or vals.shape[1] < 2:
            raise ValueError(f"expected a (paths, n + 1) block with n >= 1, got shape {vals.shape}")
        if np.any(vals[:, 0] != 0.0):
            raise ValueError(f"paths must start at 0, got {vals[:, 0]!r}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        """Grid size: each path has n increments."""
        return self.values.shape[1] - 1

    @property
    def left(self) -> np.ndarray:
        """Left endpoints B_{k/n}, k = 0..n-1, of every path (a view)."""
        return self.values[:, :-1]


_thread_state = threading.local()


def _rng(seed: int, stream: int) -> np.random.Generator:
    """This thread's generator, re-keyed to the start of stream (seed, stream).

    Bit-identical to Generator(Philox(key=[seed, stream])) but without building
    a new bit generator per call. The generator is shared by every call on the
    thread, so a caller must finish its draws before the next `_rng` call.
    """
    try:
        gen = _thread_state.gen
    except AttributeError:
        gen = _thread_state.gen = np.random.Generator(np.random.Philox(key=0))
    # Counter 0 and an empty output buffer, as a fresh Philox(key=...) starts.
    # Plain lists are read into the state faster than uint64 arrays.
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [seed, stream]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


# One entry holds 16(n-1) bytes. The most (H, n) keys a shipped config draws
# is 10, so no run builds the same embedding twice.
@functools.lru_cache(maxsize=16)
def _circulant_coeffs(h: float, n: int):
    """Half-spectrum synthesis coefficients (h0, hn, coef) for n^{-H}-scaled fGn.

    With m = 2n and lambda the embedding spectrum: h0 = sqrt(lambda_0/m) n^{-H},
    hn = sqrt(lambda_n/m) n^{-H}, and coef = [c_1, -c_1, ..., c_{n-1}, -c_{n-1}]
    with c_j = sqrt(lambda_j/(2m)) n^{-H}, the minus sign conjugating the
    interior half-spectrum for an inverse transform.
    """
    lam = circulant_eigenvalues(h, n)
    lmax = float(lam.max())
    lmin = float(lam.min())
    if lmin < -EIG_TOL * lmax:
        raise EmbeddingError(
            f"circulant embedding failed for H={h}, n={n}: min eigenvalue {lmin:.3e} "
            f"below -{EIG_TOL:.0e} * max ({lmax:.3e})"
        )
    lam = np.clip(lam, 0.0, None)
    m = 2 * n
    scale = float(n) ** (-h)
    h0 = math.sqrt(lam[0] / m) * scale
    hn = math.sqrt(lam[n] / m) * scale
    c = np.sqrt(lam[1:n] / (2 * m)) * scale
    coef = np.empty(2 * n - 2)
    coef[0::2] = c
    coef[1::2] = -c
    coef.flags.writeable = False
    return h0, hn, coef


def circulant_eigenvalues(H, n: int) -> np.ndarray:
    """Eigenvalue spectrum of the length-2n fGn embedding, n an integer >= 1 (diagnostic surface)."""
    h = as_hurst(H).value
    n = as_integer(n, "n", 1)
    rho = increment_autocov_seq(h, n)
    row = np.concatenate([rho, rho[-2:0:-1]]) if n > 1 else rho
    return np.fft.fft(row).real


def _workspace(count: int, n: int) -> SimpleNamespace:
    """This thread's workspace at grid size n, with rows = max(count, block_size(n)).

    It holds the (rows, 2n) normals z, the (rows, n + 1) half-spectrum b, the
    (rows, 2n) inverse FFT output synth, and `key`, the (seed, first, count)
    of the normals in z's first rows or None. A run of blocks at one grid size
    reuses one workspace, about 3 * 16 * max(BLOCK_POINTS, n) bytes; a call
    at another n, or a direct `_block_fgn` call on more rows, replaces it.
    """
    rows = max(count, block_size(n))
    work = getattr(_thread_state, "work", None)
    if work is None or work.z.shape != (rows, 2 * n):
        z, b, synth = np.empty((rows, 2 * n)), np.empty((rows, n + 1), dtype=np.complex128), np.empty((rows, 2 * n))
        work = _thread_state.work = SimpleNamespace(z=z, b=b, synth=synth, key=None)
    return work


def _block_normals(seed: int, first: int, count: int, n: int) -> np.ndarray:
    """(count, 2n) standard normals; row i is the start of stream (seed, first + i).

    The result is a view of this thread's workspace. A repeat of the
    workspace's key, as the harness asks once per H of a block, returns the
    held normals without re-keying: only this function writes them.
    """
    work = _workspace(count, n)
    z = work.z[:count]
    key = (seed, first, count)
    if work.key != key:
        work.key = None  # a draw cut short leaves no key on half-written normals
        for i in range(count):
            _rng(seed, first + i).standard_normal(out=z[i])
        work.key = key
    return z


def _block_fgn(h: float, n: int, z: np.ndarray) -> np.ndarray:
    """Rows of n^{-H}-scaled fGn increments, one real inverse FFT of each row's half-spectrum.

    Row i's 2n normals fill its Hermitian half-spectrum b_0..b_n: z_0 and z_1
    the real DC and Nyquist terms, (z_{2j}, z_{2j+1}) the conjugated b_j. The
    result is a view of this thread's workspace.
    """
    h0, hn, coef = _circulant_coeffs(h, n)
    count = z.shape[0]
    work = _workspace(count, n)
    b = work.b[:count]
    np.multiply(z[:, 2:], coef, out=b.view(np.float64)[:, 2 : 2 * n])
    b[:, 0] = h0 * z[:, 0]
    b[:, n] = hn * z[:, 1]
    return np.fft.irfft(b, 2 * n, axis=1, norm="forward", out=work.synth[:count])[:, :n]


def sample_fbm(H, n: int, config: SamplerConfig, count: int = 1) -> FbmPath:
    """A block of `count` exact fBm paths on {k/n}; row i is stream (seed, config.stream + i)'s path.

    n and count are integers >= 1. The paths are drawn block_size(n) rows at a
    time into one new read-only array, which `FbmPath` keeps without a copy.
    """
    hurst = as_hurst(H)
    n, count = as_integer(n, "n", 1), as_integer(count, "count", 1)
    seed, first = config.seed, config.stream
    if first + count > _MAX_UINT64:
        raise ValueError(f"streams {first}..{first + count - 1} must be below 2^64")
    values = np.zeros((count, n + 1))
    rows = block_size(n)
    for r0 in range(0, count, rows):
        z = _block_normals(seed, first + r0, min(rows, count - r0), n)
        np.cumsum(_block_fgn(hurst.value, n, z), axis=1, out=values[r0 : r0 + rows, 1:])
    values.flags.writeable = False
    return FbmPath(hurst=hurst, values=values)


def dump_path(path: FbmPath, fileobj) -> None:
    """Write each path of the block as one 'k/n value' line per grid point."""
    n = path.n
    for row in path.values:
        for k, v in enumerate(row):
            fileobj.write(f"{k}/{n} {v:.17g}\n")
