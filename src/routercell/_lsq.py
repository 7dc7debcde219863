"""Bounded nonlinear least squares in numpy: a projected Levenberg–Marquardt.

Damped Gauss–Newton steps (Moré, *The Levenberg–Marquardt algorithm:
implementation and theory*, 1978) on normal equations scaled by the
Jacobian's column norms, with box bounds handled by projection and the
stopping rules of ``scipy.optimize.least_squares``.  The bounds are
tested once per fit: the held-variable test and the clip into the box run
only when some bound is finite.  The normal
equations are formed first, ``J^T J`` and ``J^T f`` from the unscaled
Jacobian, once per accepted point, and scaled afterwards: the only passes
over the ``m`` residuals are those two products.  The problem is one
function that returns the residuals and their Jacobian together, so a
fit writes its model once and pays for one call per evaluation.  As in
MINPACK, the solver, not its caller, sets when to stop: :data:`TOL` and
:data:`MAX_NFEV`.  Deterministic: no randomness, and the same inputs take
the same steps.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

#: Relative tolerance on the step and on the cost reduction.
TOL = 1e-10
#: Most evaluations of the problem a fit may spend.
MAX_NFEV = 200


def least_squares(fun, x0, bounds=(-np.inf, np.inf)):
    """Minimise ``0.5 |f(x)|^2`` for ``x`` in the box ``bounds = (lower, upper)``.

    ``fun(x)`` returns ``(f, J)``: the ``m`` residuals and their ``(m, n)``
    Jacobian; nothing is differenced, and a rejected trial's ``J`` is
    discarded.  Each step scales the variables by the inverse column
    norms of the current Jacobian (a zero column keeps scale 1), so the
    Gram matrix ``A`` of the scaled Jacobian has a unit diagonal, and
    solves ``(A + lam I) s = -g`` with ``g`` its gradient.  That is
    Marquardt's ``(A + lam diag A)``, whose step does not change under any
    positive diagonal rescaling of the variables: the steps do not depend
    on their units, and nor do the stopping rules below.
    ``A`` and ``g`` are built Gram-first: with ``D`` the diagonal of
    scales, ``A = D (J^T J) D`` and ``g = D (J^T f)`` equal ``(J D)^T (J
    D)`` and ``(J D)^T f`` entry by entry up to rounding, and the column
    norms are ``sqrt(diag J^T J)``, so the scaled Jacobian is never
    formed; a rejected step leaves ``x``, and so ``A`` and ``g``, as they
    were.  A variable sitting on a bound with its gradient pointing out of
    the box is held fixed (its rows and columns of ``A`` and its entry of
    ``g`` are zeroed, only when some variable is held); the others step
    and the result is clipped back into the box; with no finite bound, as
    by default, neither the held test nor the clip runs.
    ``lam`` follows Nielsen's update: shrunk by the gain ratio after a
    step that lowers the cost, doubled-and-growing after one that does not.

    Stops, with ``success=True``, when a step lowers the cost by less than
    ``TOL`` of it with a gain ratio above 0.25, when a rejected step
    raised the cost by less than ``TOL`` of it and predicted a reduction
    below ``TOL`` of it (the fit is at its minimum to within ``TOL``), or
    when the scaled step is short, ``|s| < TOL * (TOL + |D^-1 x|)`` as in
    MINPACK, so that no variable's units set the length;
    ``success=False`` when ``MAX_NFEV`` calls of ``fun`` are spent first.

    Returns ``x``, the residuals ``fun`` and Jacobian ``jac`` at that
    ``x``, ``nfev`` (the calls of ``fun``) and ``success``.  Raises
    ``ValueError`` when the residuals at the start, clipped into the box,
    are not finite.
    """
    x = np.array(x0, dtype=float)
    lower, upper = (np.broadcast_to(np.asarray(b, dtype=float), x.shape) for b in bounds)
    # an infinite box holds no variable and clips nothing: decided once per fit
    bounded = bool(np.isfinite(lower).any() or np.isfinite(upper).any())
    if bounded:
        np.clip(x, lower, upper, out=x)

    f, J = (np.asarray(v, dtype=float) for v in fun(x))
    if not np.isfinite(f).all():
        raise ValueError("residuals are not finite at the initial point")
    cost, nfev, lam, grow, success = 0.5 * float(f @ f), 1, 1e-3, 2.0, False
    eye, moved = np.eye(x.size), True
    while not success and nfev < MAX_NFEV:
        if moved:  # a rejected step leaves x, f and J, so the system too
            a, g = J.T @ J, J.T @ f
            norms = np.sqrt(a.diagonal())
            scale = 1.0 / np.where(norms > 0, norms, 1.0)
            a *= scale
            a *= scale[:, None]
            g *= scale
            if bounded:
                held = ((x <= lower) & (g > 0)) | ((x >= upper) & (g < 0))
                if held.any():
                    a[held] = 0.0
                    a[:, held] = 0.0
                    g[held] = 0.0
            xs = x / scale
            x_norm = math.sqrt(xs @ xs)  # |D^-1 x| of the step rule, once per accepted point
        x_new = x - scale * np.linalg.solve(a + lam * eye, g)
        if bounded:
            np.clip(x_new, lower, upper, out=x_new)
        f_new, J_new = (np.asarray(v, dtype=float) for v in fun(x_new))
        nfev += 1
        # a residual that is not finite makes the cost inf or nan: either rejects the step
        cost_new = 0.5 * float(f_new @ f_new)
        dx = x_new - x
        s = dx / scale
        predicted = -float(g @ s + 0.5 * (s @ a @ s))
        actual = cost - cost_new
        ratio = actual / predicted if predicted > 0 else 0.0
        # a rejected step that lost and promised less than TOL of the cost: at the minimum
        flat = actual <= 0 and -actual < TOL * cost and predicted < TOL * cost
        success = ((actual < TOL * cost and ratio > 0.25) or flat
                   or math.sqrt(s @ s) < TOL * (TOL + x_norm))
        moved = actual > 0
        if moved:
            x, f, J, cost = x_new, f_new, J_new, cost_new
            lam, grow = lam * max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3), 2.0
        else:
            lam, grow = lam * grow, 2.0 * grow
    return SimpleNamespace(x=x, fun=f, jac=J, nfev=nfev, success=success)
