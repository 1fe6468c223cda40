"""Point-implicit treatment of stiff chemistry source terms.

"The species equations are often effectively uncoupled from the flowfield
equations and solved separately in a 'loosely' coupled manner, often by a
different (typically implicit) numerical technique" — this module is that
technique: the species sub-step solves

    (I - dt * dw/dy) dy = dt * w / rho

cell by cell (batched over the grid), which removes the chemical-time-scale
stability limit from the flow solver's CFL condition.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.thermo.kinetics import ReactionMechanism

__all__ = ["point_implicit_species_update"]


def point_implicit_species_update(mech: ReactionMechanism, rho, T, y, dt,
                                  Tv=None, *, limit: bool = True):
    """One backward-Euler-linearised chemistry sub-step.

    The linear solve conserves mass and elements *exactly* (every row sum
    and element-weighted sum of the source Jacobian vanishes because
    ``wdot`` does), so positivity is enforced by **uniformly scaling the
    update** rather than by clipping individual species — clipping plus
    renormalisation would silently move atoms between elements whenever
    the linearisation overshoots (e.g. when ``(I - dt J)`` is nearly
    singular off-equilibrium), corrupting the state onto the equilibrium
    manifold of a *different* mixture.

    Parameters
    ----------
    mech:
        Reaction mechanism.
    rho, T, y:
        State arrays; y has the trailing species axis.
    dt:
        Time step (scalar or per-cell array).
    Tv:
        Optional vibrational temperature for two-temperature rates.
    limit:
        Apply the positivity step limiter (fraction of the full Newton-like
        step such that no species drops below 10% of its current value
        when heading negative).

    Returns
    -------
    Updated mass fractions with the same shape as ``y``.
    """
    y = np.asarray(y, dtype=float)
    rho = np.asarray(rho, dtype=float)
    dt_arr = np.broadcast_to(np.asarray(dt, dtype=float), rho.shape)
    w = mech.wdot(rho, T, y, Tv) / rho[..., None]
    J = mech.jacobian_y(rho, T, y, Tv) / rho[..., None, None]
    ns = mech.db.n
    A = np.eye(ns) - dt_arr[..., None, None] * J
    rhs = dt_arr[..., None] * w
    dy = np.linalg.solve(A, rhs[..., None])[..., 0]
    if limit:
        # largest theta in (0, 1] keeping y + theta dy >= 0 with margin
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(dy < 0.0, -(y + 1e-16) / dy, np.inf)
        theta = np.minimum(1.0, 0.9 * np.min(ratio, axis=-1))
        theta = np.maximum(theta, 0.0)
        dy = theta[..., None] * dy
    y_new = y + dy
    # roundoff-scale cleanup only (element-conservation-neutral at 1e-16)
    return np.maximum(y_new, 0.0)
