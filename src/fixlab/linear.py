"""Residual-checked BiCGSTAB on any system that keeps one contract.

``bicgstab`` reads a system A's ``matvec(v, out)`` (A v, written into
``out`` and returned) and ``diagonal()``. ``checked_solve`` also reads
``reduce(rhs, x)`` (the right-hand side and start that A is solved with),
``extend(y, rhs)`` (the whole problem's solution from A's y),
``residual(rhs, x)`` (the whole problem's) and ``name``.
"""

import math

import numpy as np

# largest residual accepted from a checked solve, over max(1, max |x|):
# absolute for probabilities, relative to the largest value for times
RESIDUAL_TOL = 1e-10

# one BiCGSTAB run stops when its recurrence residual falls below
# RTOL |b| or after MAX_ITERATIONS steps; a run that stops
# without meeting RESIDUAL_TOL (its recurrence residual drifted from the
# true one, it broke down, or it ran out of steps) is restarted from its
# iterate, at most RESTARTS times
RTOL = 1e-13
MAX_ITERATIONS = 1000
RESTARTS = 3

# BiCGSTAB's inner products on longer vectors are summed over slices of
# this many entries: OpenBLAS splits a dot over threads only from 10,001
# entries on, and the split changes the bits
_DOT_SLICE = 8192


class CsrOperator:
    """A square CSR matrix with a nonzero diagonal as a system, whose
    ``reduce`` and ``extend`` change nothing."""

    name = "sparse matrix"

    def __init__(self, matrix):
        self.matrix = matrix

    def diagonal(self):
        return self.matrix.diagonal()

    def matvec(self, v, out):
        out[:] = self.matrix @ v
        return out

    def reduce(self, rhs, x):
        return rhs, x

    def extend(self, y, rhs):
        return y

    def residual(self, rhs, x):
        return rhs - self.matrix @ x


def _sliced_dot(a, b):
    return sum(np.dot(a[k:k + _DOT_SLICE], b[k:k + _DOT_SLICE])
               for k in range(0, len(a), _DOT_SLICE))


def bicgstab(a, b, x=None):
    """Jacobi-preconditioned BiCGSTAB on the system ``a`` (its ``matvec``
    and ``diagonal``).

    Returns ``(x, info, iterations)``: ``info`` is 0 on convergence
    (|b - a x| below ``RTOL`` |b|, by the recurrence residual), the
    iteration count when ``MAX_ITERATIONS`` runs out, and -10 or -11 on a
    breakdown; ``iterations`` counts the completed steps, as a callback
    would. The start ``x`` (zeros if None) is updated in place.

    The steps are scipy's (>= 1.12) ``bicgstab(A, b, x, rtol=RTOL,
    atol=0, maxiter=MAX_ITERATIONS, M=diags(1 / a.diagonal()))`` in scipy's
    order, without its operator layers: ``a.matvec``, ``dinv * p`` for
    the preconditioner and in-place vector updates. Up to ``_DOT_SLICE``
    entries every result is bit for bit scipy's on a ``LinearOperator``
    whose product is ``a.matvec``'s. Past that, an inner product is the
    in-order sum of ``np.dot`` over ``_DOT_SLICE``-entry slices, which
    multi-threaded BLAS computes on one thread, so the result does not
    depend on the BLAS thread count.

    One bound differs from scipy's: rho = <r~, r> is a breakdown at
    |rho| <= eps^2 |b|^2, not at |rho| < eps^2. rho scales with |b|^2, so
    scipy's absolute bound refuses a system whose right-hand side is
    tiny (u_fix where h is ~1e-22) on its first step; at |b| = 1 the two
    agree. Below |b| ~ 1e-146, |b|^2 eps^2 rounds to 0 and only rho = 0
    is a breakdown; below |b| ~ 1e-162, |b|^2 itself rounds to 0 and b
    is returned unsolved, as for b = 0, for the caller's residual check.

    A NaN rho, and a |t|^2 in omega = <t, s> / |t|^2 that is 0 or not
    finite, are breakdowns too, where scipy goes on with NaN vectors (0/0
    once |t|^2 underflows); the latter returns -11 with x + alpha p^, the
    half step's iterate, where that is finite.
    """
    n = len(b)
    dot = np.dot if n <= _DOT_SLICE else _sliced_dot
    multiply, sqrt = np.multiply, math.sqrt
    dinv = 1.0 / a.diagonal()
    matvec = a.matvec

    bnorm = sqrt(dot(b, b))
    if bnorm == 0.0:
        return b.copy(), 0, 0
    atol = RTOL * bnorm
    tiny = np.finfo(float).eps ** 2  # scipy's breakdown bound for omega
    rho_tiny = tiny * bnorm * bnorm  # and for rho over |b|^2 (see above)
    if x is None:
        x = np.zeros(n)
    v, t, phat, shat, tmp = (np.empty(n) for _ in range(5))
    r = b - matvec(x, tmp) if x.any() else b.copy()
    rtilde = r.copy()
    for iteration in range(MAX_ITERATIONS):
        if sqrt(dot(r, r)) < atol:
            return x, 0, iteration
        rho = dot(rtilde, r)
        if not abs(rho) > rho_tiny:
            return x, -10, iteration
        if iteration:
            if abs(omega) < tiny:
                return x, -11, iteration
            beta = (rho / rho_prev) * (alpha / omega)
            p -= multiply(v, omega, out=tmp)
            p *= beta
            p += r
        else:
            p = r.copy()
        multiply(dinv, p, out=phat)
        matvec(phat, v)
        rv = dot(rtilde, v)
        if rv == 0:
            return x, -11, iteration
        alpha = rho / rv
        r -= multiply(v, alpha, out=tmp)
        # scipy's s is a copy of r here, and r is not touched until s is used up
        if sqrt(dot(r, r)) < atol:
            x += multiply(phat, alpha, out=tmp)
            return x, 0, iteration
        multiply(dinv, r, out=shat)
        matvec(shat, t)
        tt = dot(t, t)
        if not 0.0 < tt < math.inf:
            np.add(x, multiply(phat, alpha, out=tmp), out=tmp)
            if np.isfinite(tmp).all():
                x[:] = tmp
            return x, -11, iteration
        omega = dot(t, r) / tt
        x += multiply(phat, alpha, out=tmp)
        x += multiply(shat, omega, out=tmp)
        r -= multiply(t, omega, out=tmp)
        rho_prev = rho
    return x, MAX_ITERATIONS, MAX_ITERATIONS


def checked_solve(system, rhs, name, x=None):
    """Solve ``system`` for ``rhs`` to ``RESIDUAL_TOL``: ``(x, residual, iterations)``.

    ``bicgstab`` runs on ``system.reduce(rhs, x)`` (x the start, zeros if
    None), and each run's ``system.extend`` is checked: its largest
    |``system.residual``| over max(1, max |x|) must be ``RESIDUAL_TOL`` at
    most. A run that misses the bound (its recurrence residual drifted, it
    broke down, or it ran out of steps) is restarted from its iterate, at
    most ``RESTARTS`` times; then ArithmeticError names the system and
    ``name``. ``iterations`` sums the steps of every run.
    """
    reduced, start = system.reduce(rhs, x)
    iterations = 0
    for _ in range(RESTARTS + 1):
        start, info, steps = bicgstab(system, reduced, start)
        x = system.extend(start, rhs)
        iterations += steps
        residual = float(np.max(np.abs(system.residual(rhs, x)), initial=0.0)
                         / max(np.max(np.abs(x), initial=0.0), 1.0))
        if info == 0 and residual <= RESIDUAL_TOL:
            return x, residual, iterations
    raise ArithmeticError(
        f"{system.name} solve for {name} failed after {iterations} BiCGSTAB "
        f"iterations: info {info}, residual {residual:.3g} (bound {RESIDUAL_TOL:g})"
    )
