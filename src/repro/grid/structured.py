"""Structured 2-D grids with finite-volume metrics.

A :class:`StructuredGrid2D` stores node coordinates ``x, y`` of shape
(ni+1, nj+1) defining ni x nj quadrilateral cells.  It precomputes the
metrics a cell-centred finite-volume solver needs:

* cell areas (shoelace),
* cell centroids,
* face normal vectors scaled by face length, for i-faces (between cells in
  the i direction) and j-faces,
* for axisymmetric solvers: centroid radii and radius-weighted face
  metrics.

The i index is conventionally the streamwise/marching direction; j is the
body-normal direction (j=0 at the wall for body-fitted grids).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GridError

__all__ = ["StructuredGrid2D"]


class StructuredGrid2D:
    """Quadrilateral structured grid with precomputed FV metrics."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape or x.ndim != 2:
            raise GridError("x, y must be equal-shape 2-D node arrays")
        if x.shape[0] < 2 or x.shape[1] < 2:
            raise GridError("need at least one cell in each direction")
        self.x = x
        self.y = y
        self.ni = x.shape[0] - 1
        self.nj = x.shape[1] - 1
        self._compute_metrics()
        if np.any(self.area <= 0.0):
            raise GridError("grid contains degenerate or inverted cells")

    def _compute_metrics(self):
        x, y = self.x, self.y
        # corner views: (ni, nj)
        xa, ya = x[:-1, :-1], y[:-1, :-1]   # (i, j)
        xb, yb = x[1:, :-1], y[1:, :-1]     # (i+1, j)
        xc, yc = x[1:, 1:], y[1:, 1:]       # (i+1, j+1)
        xd, yd = x[:-1, 1:], y[:-1, 1:]     # (i, j+1)
        #: cell areas by the shoelace formula (positive for CCW a-b-c-d)
        self.area = 0.5 * np.abs((xc - xa) * (yd - yb)
                                 - (xd - xb) * (yc - ya))
        #: cell centroids
        self.xc = 0.25 * (xa + xb + xc + xd)
        self.yc = 0.25 * (ya + yb + yc + yd)
        # i-faces: constant-i lines, (ni+1, nj) faces between i-neighbours.
        # normal = (dy, -dx) along the face from node (i, j) to (i, j+1),
        # which points in the +i direction for a right-handed grid.
        dx_i = x[:, 1:] - x[:, :-1]
        dy_i = y[:, 1:] - y[:, :-1]
        self.n_i = np.stack([dy_i, -dx_i], axis=-1)   # (ni+1, nj, 2)
        # j-faces: constant-j lines, (ni, nj+1) faces between j-neighbours.
        # normal = (-dy, dx) along the face from node (i, j) to (i+1, j),
        # pointing in +j.
        dx_j = x[1:, :] - x[:-1, :]
        dy_j = y[1:, :] - y[:-1, :]
        self.n_j = np.stack([-dy_j, dx_j], axis=-1)   # (ni, nj+1, 2)
        # face midpoints (for axisymmetric radius weighting)
        self.xm_i = 0.5 * (x[:, 1:] + x[:, :-1])
        self.ym_i = 0.5 * (y[:, 1:] + y[:, :-1])
        self.xm_j = 0.5 * (x[1:, :] + x[:-1, :])
        self.ym_j = 0.5 * (y[1:, :] + y[:-1, :])
        # smallest inscribed length scale, area / longest face: the grid
        # never changes, so every marching timestep reads this one array
        li, lj = self.face_length_i, self.face_length_j
        per = np.maximum(li[:-1, :], li[1:, :])
        per = np.maximum(per, lj[:, :-1])
        per = np.maximum(per, lj[:, 1:])
        self._min_cell_size = self.area / np.maximum(per, 1e-300)
        self._min_cell_size.flags.writeable = False

    # -- derived quantities ----------------------------------------------------

    @property
    def face_length_i(self):
        return np.linalg.norm(self.n_i, axis=-1)

    @property
    def face_length_j(self):
        return np.linalg.norm(self.n_j, axis=-1)

    def min_cell_size(self):
        """Smallest inscribed length scale: area / longest face (a
        read-only array computed with the metrics)."""
        return self._min_cell_size

    def axisymmetric_volumes(self):
        """Cell volumes per radian about y=0 (y is the radial coordinate).

        V = area * r_centroid is second-order accurate for smooth grids.
        """
        if np.any(self.yc < -1e-12):
            raise GridError("axisymmetric grids must have y >= 0")
        return self.area * np.maximum(self.yc, 1e-300)

    def axisymmetric_face_metrics(self):
        """Radius-weighted face normals (per-radian FV surface vectors)."""
        ni = self.n_i * np.maximum(self.ym_i, 0.0)[..., None]
        nj = self.n_j * np.maximum(self.ym_j, 0.0)[..., None]
        return ni, nj

    def metric_identity_residual(self):
        """Closed-surface residual sum of face normals per cell.

        For a watertight cell the outward face normals sum to zero; the
        return value is the max |residual| / perimeter over cells (a grid
        quality / metric consistency diagnostic; ~1e-15 for exact metrics).
        """
        res = (self.n_i[1:, :, :] - self.n_i[:-1, :, :]
               + self.n_j[:, 1:, :] - self.n_j[:, :-1, :])
        per = (self.face_length_i[:-1, :] + self.face_length_i[1:, :]
               + self.face_length_j[:, :-1] + self.face_length_j[:, 1:])
        return float(np.max(np.linalg.norm(res, axis=-1) / per))
