"""MUSCL interface reconstruction.

Second-order TVD reconstruction of interface states from cell averages
along one axis, with any limiter from :mod:`repro.numerics.limiters`.
First-order (no reconstruction) is a degenerate case used near boundaries
and for the most violent transients.
"""

from __future__ import annotations

import numpy as np

from repro.numerics.limiters import minmod

__all__ = ["muscl_interface_states"]


def muscl_interface_states(W, *, axis: int = 0, limiter=minmod,
                           order: int = 2):
    """Left/right states at the interior faces along ``axis``.

    Parameters
    ----------
    W:
        Cell-centred array; reconstruction acts along ``axis`` and leaves
        other axes (including a trailing variable axis) untouched.
    limiter:
        Slope limiter (two-argument form).
    order:
        1 (piecewise constant) or 2 (MUSCL).

    Returns
    -------
    (WL, WR):
        States on the left/right side of each of the ``n-1`` interior
        faces (arrays with ``n-1`` entries along ``axis``).  Every
        operation is elementwise, so the states keep the memory layout
        of ``W``: component-first memory stays component-first.
    """
    W = np.asarray(W, dtype=float)
    n = W.shape[axis]
    if n < 2:
        raise ValueError("need at least two cells to form a face")
    lead = (slice(None),) * (axis % W.ndim)
    lo, hi = lead + (slice(None, -1),), lead + (slice(1, None),)
    if order == 1 or n < 3:
        return W[lo], W[hi]
    d = W[hi] - W[lo]                           # n-1 differences
    # limited slope per interior cell (cells 1..n-2), zero at both ends
    slopes = np.zeros_like(W)
    slopes[lead + (slice(1, -1),)] = limiter(d[lo], d[hi])
    half = 0.5 * slopes
    return W[lo] + half[lo], W[hi] - half[hi]
