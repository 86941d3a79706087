"""Exact fBm sampling on the grid {k/n} by circulant embedding, in blocks of paths.

The circulant route draws from the exact finite-dimensional law
N(0, [R_H(t_j, t_k)]). It embeds the unit-variance fGn autocovariance rho_H
into a length-2n circulant (Wood & Chan 1994, Dietrich & Newsam 1997) whose
spectrum is Hermitian, so one real inverse FFT of the n+1 half-spectrum
synthesizes the n^{-H}-scaled increments in O(n log n). A block of B paths is
B rows of one normal buffer, transformed by one inverse FFT along its rows.
A path is its increments: it is synthesized and built from them alone, and
their cumulative sum, the path's values B_{k/n}, is formed only when
something reads it.

Randomness is counter-based: row i of a block draws from a Philox generator
keyed by (seed, stream + i), so a path depends only on its own key and never
on the block it is drawn in or on execution order. `draw_normals` returns the
first 2n normals of consecutive streams as a new array, and the first 2m of
each row are what a draw at m <= n gives; `sample_fbm` synthesizes from rows
of such an array that its caller passes, or draws its own block by block.

A `Workspace` is one worker's scratch, reused block after block: the Philox
generator, which every draw re-keys, the half-spectrum and inverse-FFT
buffers, which grow to the largest block they are handed, and the weight
derivatives that `statistics.derivative_at_left` owns. A draw runs block by
block through it into one new increments array. The module keeps no state: an
embedding belongs to whoever resolved it, and a call without one builds its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
# one unweighted plan with 2 replicas at 1 thread peaks at about 140 MiB RSS (ru_maxrss) at
# n = 2^20 and 420 MiB at n = 2^22, a compensated_cubic/sin plan, whose workspace holds two
# n-point derivative buffers, at 164 and 484 MiB, and a group of 8 unweighted plans at
# distinct H at 904 MiB at 2^22. A group holds one embedding per (H, n) key, 16(n-1) bytes
# each (64 MiB at 2^22), and frees them when it ends; the embeddings' set-up, the walk's
# normals (2n floats per stream) and each worker's workspace set the rest of the peak.
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


class FbmPath:
    """A block of trajectories of one H, immutable; row i of `increments` is (Delta B_k)_{k < n} of one path.

    A path is its increments, `FbmPath(hurst, increments)`, stored read-only.
    `values` is [0, cumsum(increments)] along each row, formed on first read
    and cached. The constructor copies the caller's array, so it is neither
    aliased nor frozen, and no later write to it or to its base reaches the
    path, not even after the caller makes a read-only array writable again.
    """

    __slots__ = ("hurst", "increments", "_values")

    def __init__(self, hurst, increments):
        incs = np.array(increments, dtype=np.float64)
        incs.flags.writeable = False
        if incs.ndim != 2 or incs.shape[0] < 1 or incs.shape[1] < 1:
            raise ValueError(f"expected a (paths, n) block of increments with n >= 1, got shape {incs.shape}")
        self._set(hurst, incs)

    @classmethod
    def _adopt(cls, hurst, increments) -> FbmPath:
        """The block holding `increments` as given: no copy, no check.

        Only for read-only arrays that nothing else can write, such as
        `sample_fbm`'s new increments.
        """
        path = cls.__new__(cls)
        path._set(hurst, increments)
        return path

    def _set(self, hurst, increments) -> None:
        object.__setattr__(self, "hurst", as_hurst(hurst))
        object.__setattr__(self, "increments", increments)
        object.__setattr__(self, "_values", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"FbmPath is immutable; cannot set {name!r}")

    @property
    def values(self) -> np.ndarray:
        """The (paths, n + 1) array of B_{k/n}, k = 0..n.

        Threads that read it first at once each form the same bits, and one of them is kept.
        """
        if self._values is None:
            incs = self.increments
            vals = np.empty((incs.shape[0], incs.shape[1] + 1))
            vals[:, 0] = 0.0
            np.cumsum(incs, axis=1, out=vals[:, 1:])
            vals.flags.writeable = False
            object.__setattr__(self, "_values", vals)
        return self._values

    @property
    def n(self) -> int:
        """Grid size: each path has n increments."""
        return self.increments.shape[1]

    @property
    def left(self) -> np.ndarray:
        """Left endpoints B_{k/n}, k = 0..n-1, of every path (a view of `values`)."""
        return self.values[:, :-1]


class Workspace:
    """A worker's scratch, reused block after block; each buffer grows to the largest block it is handed.

    `rekey` hands out its Philox generator; `spectrum` and `synthesis` are
    `_block_fgn`'s buffers. `derivatives`, `buffers` and `block` belong to
    `statistics.derivative_at_left`: the table of the block that `block`
    weakly refers to, and the pool that holds the table's values.
    """

    def __init__(self):
        self.derivatives, self.buffers, self.block = {}, [], None
        self.spectrum, self.synthesis = np.empty(0, np.complex128), np.empty(0)
        self._gen = np.random.Generator(np.random.Philox(key=0))

    def rekey(self, seed: int, stream: int) -> np.random.Generator:
        """This workspace's generator, re-keyed to the start of stream (seed, stream).

        Bit-identical to Generator(Philox(key=[seed, stream])) but without
        building a new bit generator per call. A caller finishes its draws
        before the next `rekey` of the same workspace.
        """
        # Counter 0 and an empty output buffer, as a fresh Philox(key=...) starts.
        # Plain lists are read into the state faster than uint64 arrays.
        self._gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [seed, stream]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._gen


def _circulant_coeffs(h: float, n: int):
    """The embedding (h, n, h0, hn, coef) of n^{-H}-scaled fGn: its key and half-spectrum synthesis coefficients.

    With m = 2n and lambda the embedding spectrum: h0 = sqrt(lambda_0/m) n^{-H},
    hn = sqrt(lambda_n/m) n^{-H}, and coef = [c_1, -c_1, ..., c_{n-1}, -c_{n-1}]
    with c_j = sqrt(lambda_j/(2m)) n^{-H}, the minus sign conjugating the
    interior half-spectrum for an inverse transform. All 2n eigenvalues are
    checked against EIG_TOL; only lambda_0..lambda_n, the ones the synthesis
    reads, are clipped at 0.
    """
    lam = circulant_eigenvalues(h, n)
    lmax = float(lam.max())
    lmin = float(lam.min())
    if lmin < -EIG_TOL * lmax:
        raise EmbeddingError(
            f"circulant embedding failed for H={h}, n={n}: min eigenvalue {lmin:.3e} "
            f"below -{EIG_TOL:.0e} * max ({lmax:.3e})"
        )
    lam = np.clip(lam[: n + 1], 0.0, None)
    m = 2 * n
    scale = float(n) ** (-h)
    h0 = math.sqrt(lam[0] / m) * scale
    hn = math.sqrt(lam[n] / m) * scale
    c = np.sqrt(lam[1:n] / (2 * m)) * scale
    coef = np.empty(2 * n - 2)
    coef[0::2] = c
    coef[1::2] = -c
    coef.flags.writeable = False
    return h, n, h0, hn, coef


def circulant_eigenvalues(H, n: int) -> np.ndarray:
    """The 2n eigenvalues of the length-2n fGn embedding, n an integer >= 1 (diagnostic surface).

    The embedding's first row (rho_H(0), ..., rho_H(n), rho_H(n-1), ..., rho_H(1))
    is real and even, so its spectrum is real: one Hermitian FFT of
    rho_H(0..n) gives it without writing the mirrored half out.
    """
    h = as_hurst(H).value
    n = as_integer(n, "n", 1)
    return np.fft.hfft(increment_autocov_seq(h, n), 2 * n)


def draw_normals(seed: int, first: int, count: int, n: int, workspace: Workspace) -> np.ndarray:
    """A new (count, 2n) array of standard normals; row i is the start of stream (seed, first + i), drawn with `workspace`'s generator."""
    z = np.empty((count, 2 * n))
    for i in range(count):
        workspace.rekey(seed, first + i).standard_normal(out=z[i])
    return z


def _block_fgn(embedding: tuple, n: int, z: np.ndarray, workspace: Workspace) -> np.ndarray:
    """Rows of n^{-H}-scaled fGn increments, one real inverse FFT of each row's half-spectrum.

    `embedding` is `_circulant_coeffs(H, n)`. The first 2n normals of row i
    of z fill its Hermitian half-spectrum b_0..b_n: z_0 and z_1 the real DC
    and Nyquist terms, (z_{2j}, z_{2j+1}) the conjugated b_j. The result is a
    view of the workspace's inverse-FFT buffer, which the next block overwrites.
    """
    h0, hn, coef = embedding[2:]
    count = z.shape[0]
    if workspace.spectrum.size < count * (n + 1):
        workspace.spectrum = np.empty(count * (n + 1), np.complex128)
    if workspace.synthesis.size < count * 2 * n:
        workspace.synthesis = np.empty(count * 2 * n)
    b = workspace.spectrum[: count * (n + 1)].reshape(count, n + 1)
    synth = workspace.synthesis[: count * 2 * n].reshape(count, 2 * n)
    np.multiply(z[:, 2 : 2 * n], coef, out=b.view(np.float64)[:, 2 : 2 * n])
    b[:, 0] = h0 * z[:, 0]
    b[:, n] = hn * z[:, 1]
    return np.fft.irfft(b, 2 * n, axis=1, norm="forward", out=synth)[:, :n]


def sample_fbm(H, n: int, config: SamplerConfig, count: int = 1, normals: np.ndarray | None = None, embedding: tuple | None = None, workspace: Workspace | None = None) -> FbmPath:
    """A block of `count` exact fBm paths on {k/n}; row i is stream (seed, config.stream + i)'s path.

    n and count are integers >= 1. Row i is synthesized from the first 2n
    columns of row i of `normals`, a 2-D float64 array of `count` rows that
    the caller drew with `draw_normals` for those streams at a grid size
    >= n; without it, the normals are drawn block by block. `embedding` is
    `_circulant_coeffs(H, n)` as the caller resolved it; without it, the call
    builds its own once. The increments are synthesized block_size(n) rows
    at a time in `workspace` (a new one without it) and copied into one new
    read-only array, which the path keeps; its values are summed when first
    read.
    """
    hurst = as_hurst(H)
    n, count = as_integer(n, "n", 1), as_integer(count, "count", 1)
    seed, first = config.seed, config.stream
    if first + count > _MAX_UINT64:
        raise ValueError(f"streams {first}..{first + count - 1} must be below 2^64")
    if normals is not None and not (
        isinstance(normals, np.ndarray) and normals.dtype == np.float64 and normals.ndim == 2 and normals.shape[0] == count and normals.shape[1] >= 2 * n
    ):
        got = f"a {normals.dtype} array of shape {normals.shape}" if isinstance(normals, np.ndarray) else type(normals).__name__
        raise ValueError(f"normals must be a 2-D float64 array of {count} rows of at least {2 * n} columns, got {got}")
    if embedding is None:
        embedding = _circulant_coeffs(hurst.value, n)
    elif not (isinstance(embedding, tuple) and embedding[:2] == (hurst.value, n)):
        got = f"the one of (H, n) = {embedding[:2]}" if isinstance(embedding, tuple) else type(embedding).__name__
        raise ValueError(f"embedding must be _circulant_coeffs({hurst.value}, {n}), got {got}")
    increments = np.empty((count, n))
    rows = min(block_size(n), count)
    workspace = Workspace() if workspace is None else workspace
    for r0 in range(0, count, rows):
        stop = min(r0 + rows, count)
        z = draw_normals(seed, first + r0, stop - r0, n, workspace) if normals is None else normals[r0:stop]
        increments[r0:stop] = _block_fgn(embedding, n, z, workspace)
    increments.flags.writeable = False
    return FbmPath._adopt(hurst, increments)


def dump_path(path: FbmPath, fileobj) -> None:
    """Write each path of the block as one 'k/n value' line per grid point."""
    n = path.n
    for row in path.values:
        for k, v in enumerate(row):
            fileobj.write(f"{k}/{n} {v:.17g}\n")
