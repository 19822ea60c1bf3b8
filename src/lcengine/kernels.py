"""Hot aggregation kernels: in-place NumPy operations on scenario x time grids.

The scenario x time calculations reduce to two fused accumulate
operations plus a row-wise convolution.  Each operation multiplies first
and then adds, and the convolution applies its taps in ascending k order,
so every cell sees one fixed operation sequence.  (An engine block starts
from its folded constant, written with ``ndarray.fill``.)  Operands may be any
float64 2-D arrays of the right shape, including row slices and read-only
broadcast views.  The engine's folds and the convolution work one
cache-sized row block at a time (``_cache_blocks``); a cell's operation
sequence does not depend on the block size.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

# Target bytes of one grid's row block.  Blocks keep the working set
# cache-resident so every operand streams from memory once per evaluation
# instead of once per accumulation step; cell values are unaffected because
# each cell still sees the same operation sequence.
_CACHE_BLOCK_BYTES = 256 * 1024


def _cache_blocks(n_rows: int, n_timesteps: int) -> list[slice]:
    """Consecutive row slices covering ``n_rows``, each about one cache block."""
    block = max(1, _CACHE_BLOCK_BYTES // (n_timesteps * 8))
    if n_rows <= block:
        return [slice(0, n_rows)]
    return [slice(start, min(start + block, n_rows)) for start in range(0, n_rows, block)]


_F64 = np.dtype(np.float64)


def _check_grid(name: str, a: np.ndarray, shape: tuple[int, int]) -> None:
    if a.dtype != _F64 or a.ndim != 2:
        raise ShapeError(f"{name} must be a float64 2-D array")
    if a.shape != shape:
        raise ShapeError(f"{name} has shape {a.shape}, expected {shape}")


def add_scaled(acc: np.ndarray, c: float, x: np.ndarray) -> None:
    """acc[i,j] += c * x[i,j], in place."""
    _check_grid("acc", acc, acc.shape)
    _check_grid("x", x, acc.shape)
    np.add(acc, float(c) * x, out=acc)


def add_product(acc: np.ndarray, u: np.ndarray, x: np.ndarray) -> None:
    """acc[i,j] += u[i,j] * x[i,j], in place."""
    _check_grid("acc", acc, acc.shape)
    _check_grid("u", u, acc.shape)
    _check_grid("x", x, acc.shape)
    np.add(acc, u * x, out=acc)


def convolve_rows_into(out: np.ndarray, em: np.ndarray, kern: np.ndarray) -> None:
    """Accumulate the convolution of each row of ``em`` with ``kern`` into ``out``.

    out[s, t + k] += em[s, t] * kern[k]; out must have em.shape[1] +
    len(kern) - 1 columns and is not zeroed first, so repeated calls
    accumulate.  Taps are applied in ascending k order.
    """
    if kern.dtype != np.float64 or kern.ndim != 1 or not kern.flags.c_contiguous:
        raise ShapeError("kern must be a C-contiguous float64 1-D array")
    if kern.shape[0] < 1:
        raise ShapeError("kern must have at least one tap")
    _check_grid("em", em, em.shape)
    _check_grid("out", out, (em.shape[0], em.shape[1] + kern.shape[0] - 1))
    n_t, t_out = em.shape[1], out.shape[1]
    blocks = _cache_blocks(em.shape[0], t_out)
    # Each block is worked time-major, so that every tap is one contiguous
    # multiply into ``term`` and one add into a cache-resident ``acc``.
    height = blocks[0].stop
    acc_buf = np.empty(t_out * height, dtype=np.float64)
    em_buf = np.empty(n_t * height, dtype=np.float64)
    term_buf = np.empty(n_t * height, dtype=np.float64)
    for rows in blocks:
        n = rows.stop - rows.start
        acc = acc_buf[: t_out * n].reshape(t_out, n)
        src = em_buf[: n_t * n].reshape(n_t, n)
        term = term_buf[: n_t * n].reshape(n_t, n)
        np.copyto(acc, out[rows].T)
        np.copyto(src, em[rows].T)
        for k in range(kern.shape[0]):
            np.multiply(kern[k], src, out=term)
            np.add(acc[k : k + n_t], term, out=acc[k : k + n_t])
        np.copyto(out[rows], acc.T)
