"""Hot aggregation kernels: in-place NumPy operations on scenario x time grids.

The scenario x time calculations reduce to three fused accumulate
operations plus a row-wise convolution.  Each operation multiplies first
and then adds, and the convolution applies its taps in ascending k order,
so every cell sees one fixed operation sequence.  Operands may be any
float64 2-D arrays of the right shape, including row slices and read-only
broadcast views.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


def _check_grid(name: str, a: np.ndarray, shape: tuple[int, int]) -> None:
    if a.dtype != np.float64 or a.ndim != 2:
        raise ShapeError(f"{name} must be a float64 2-D array")
    if a.shape != shape:
        raise ShapeError(f"{name} has shape {a.shape}, expected {shape}")


def add_const(acc: np.ndarray, c: float) -> None:
    """acc[i,j] += c, in place."""
    _check_grid("acc", acc, acc.shape)
    np.add(acc, float(c), out=acc)


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
    n_t = em.shape[1]
    for k in range(kern.shape[0]):
        target = out[:, k : k + n_t]
        np.add(target, kern[k] * em, out=target)
