"""Bounded nonlinear least squares in numpy: a projected Levenberg–Marquardt.

Damped Gauss–Newton steps (Moré, *The Levenberg–Marquardt algorithm:
implementation and theory*, 1978) on the ``x_scale``-scaled normal
equations, with box bounds handled by projection and the stopping rules of
``scipy.optimize.least_squares``.  Deterministic: no randomness, and the
same inputs take the same steps.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

#: Relative forward-difference step: the square root of the float64 epsilon 2**-52.
_FD_STEP = 2.0 ** -26


def least_squares(fun, x0, jac=None, bounds=(-np.inf, np.inf), x_scale=1.0, *,
                  xtol, ftol, max_nfev=None):
    """Minimise ``0.5 |fun(x)|^2`` for ``x`` in the box ``bounds = (lower, upper)``.

    Each step solves ``(A + lam D) s = -g`` for the scaled variables
    ``x / x_scale``, with ``A = J^T J``, ``g = J^T f`` and ``D`` the
    diagonal of ``A`` floored at ``1e-12`` of its largest entry, so a dead
    Jacobian column cannot make the system singular.  A variable sitting on
    a bound with its gradient pointing out of the box is held fixed; the
    others step and the result is clipped back into the box.  ``lam``
    follows Nielsen's update: shrunk by the gain ratio after a step that
    lowers the cost, doubled-and-growing after one that does not.

    Stops, with ``success=True``, when a step lowers the cost by less than
    ``ftol`` of it with a gain ratio above 0.25, or moves ``x`` by less
    than ``xtol * (xtol + |x|)``; ``success=False`` when ``max_nfev``
    residual evaluations (default ``100 n``) are spent first.  Without
    ``jac`` the Jacobian is a 2-point forward difference with the step
    ``sqrt(eps) max(|x|, x_scale)``, so a parameter far below 1 (a time in
    seconds) is still differenced on its own scale; ``nfev`` does not count
    these evaluations.  In ``routercell`` only ``fit_saturation``, ``fit_T1``
    and ``fit_rabi_decay`` still rely on it: the four-channel, thermal and
    circle fits pass analytic Jacobians.

    Returns ``x``, ``fun`` and ``jac`` at that ``x``, ``nfev`` and
    ``success``.  Raises ``ValueError`` when the residuals at the start,
    clipped into the box, are not finite.
    """
    x = np.asarray(x0, dtype=float)
    lower, upper = (np.broadcast_to(np.asarray(b, dtype=float), x.shape) for b in bounds)
    x = np.clip(x, lower, upper)
    scale = np.broadcast_to(np.asarray(x_scale, dtype=float), x.shape)
    max_nfev = 100 * x.size if max_nfev is None else max_nfev

    def jacobian(x, f):
        if jac is not None:
            return np.atleast_2d(np.asarray(jac(x), dtype=float))
        h = _FD_STEP * np.where(x >= 0, 1.0, -1.0) * np.maximum(scale, np.abs(x))
        h = np.where((x + h > upper) | (x + h < lower), -h, h)
        h = (x + h) - x
        return np.column_stack([(np.asarray(fun(x + h[i] * e)) - f) / h[i]
                                for i, e in enumerate(np.eye(x.size))])

    f = np.asarray(fun(x), dtype=float)
    if not np.isfinite(f).all():
        raise ValueError("residuals are not finite at the initial point")
    cost, nfev, lam, grow, success = 0.5 * (f @ f), 1, 1e-3, 2.0, False
    J = jacobian(x, f)
    while not success and nfev < max_nfev:
        js = J * scale
        a, g = js.T @ js, js.T @ f
        free = ~(((x <= lower) & (g > 0)) | ((x >= upper) & (g < 0)))
        floor = 1e-12 * np.diag(a).max() or 1.0
        af = a[np.ix_(free, free)]
        step = np.zeros_like(x)
        step[free] = -np.linalg.solve(af + lam * np.diag(np.maximum(np.diag(af), floor)), g[free])
        x_new = np.clip(x + scale * step, lower, upper)
        f_new = np.asarray(fun(x_new), dtype=float)
        nfev += 1
        cost_new = 0.5 * (f_new @ f_new) if np.isfinite(f_new).all() else np.inf
        dx = x_new - x
        s = dx / scale
        predicted = -(g @ s + 0.5 * (s @ a @ s))
        actual = cost - cost_new
        ratio = actual / predicted if predicted > 0 else 0.0
        success = bool((actual < ftol * cost and ratio > 0.25)
                       or math.sqrt(dx @ dx) < xtol * (xtol + math.sqrt(x @ x)))
        if actual > 0:
            x, f, cost = x_new, f_new, cost_new
            J = jacobian(x, f)
            lam, grow = lam * max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3), 2.0
        else:
            lam, grow = lam * grow, 2.0 * grow
    return SimpleNamespace(x=x, fun=f, jac=J, nfev=nfev, success=success)
