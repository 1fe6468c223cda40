"""Vectorized multi-column linear interpolation.

``np.interp`` handles one column at a time, which pushes callers into
per-species list comprehensions on hot paths::

    np.stack([np.interp(xq, x, Y[:, j]) for j in range(ns)], axis=-1)

:func:`interp_columns` is the batched replacement: one
``np.searchsorted`` over the (shared) abscissa, one gather, one fused
lerp over the whole ``(nq, ns)`` block.  Matches ``np.interp``
semantics for each column — including clamping to the end values
outside the abscissa range — for strictly increasing ``x``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["interp_columns"]


def interp_columns(xq, x, Y):
    """Linearly interpolate every column of ``Y`` at points ``xq``.

    Parameters
    ----------
    xq : array_like, shape (nq,) or scalar
        Query points.
    x : array_like, shape (n,)
        Strictly increasing sample abscissa shared by all columns.
    Y : array_like, shape (n, ns)
        Sample values, one column per series (species, wavelength, ...).

    Returns
    -------
    ndarray, shape (nq, ns) — or (ns,) for scalar ``xq``; equal to
    ``np.stack([np.interp(xq, x, Y[:, j]) for j in range(ns)], -1)``.
    """
    x = np.asarray(x, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    xq = np.asarray(xq, dtype=np.float64)
    scalar = xq.ndim == 0
    xqf = np.atleast_1d(xq)
    if x.shape[0] != Y.shape[0]:
        raise ValueError(
            f"abscissa length {x.shape[0]} != rows of Y {Y.shape[0]}")
    if x.shape[0] == 1:
        out = np.broadcast_to(Y[0], (xqf.shape[0],) + Y.shape[1:]).copy()
        return out[0] if scalar else out
    idx = np.clip(np.searchsorted(x, xqf, side="left") - 1,
                  0, x.shape[0] - 2)
    x0 = x[idx]
    x1 = x[idx + 1]
    # clamped weight reproduces np.interp's end-value extrapolation
    # catlint: disable=CAT003 -- x is strictly increasing (documented
    # precondition), so consecutive samples never coincide
    w = np.clip((xqf - x0) / (x1 - x0), 0.0, 1.0)
    Y0 = Y[idx]
    out = Y0 + w.reshape(w.shape + (1,) * (Y.ndim - 1)) * (Y[idx + 1] - Y0)
    return out[0] if scalar else out
