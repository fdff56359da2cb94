"""Built-in convex objectives used by the CLI, the tests and the examples.

All of them satisfy the ObjectiveOracle finite-difference invariant under the
plain Euclidean/Frobenius inner product, and ship a closed-form line-search
hook where one exists.
"""

from __future__ import annotations

import numpy as np

from .core import ObjectiveOracle, clamped_step


def _quadratic_alpha(x, s, grad_at, denom_of):
    """argmin_{[0,1]} of a 1-d quadratic phi(a) = f(x + a d): a* = -phi'(0)/phi''."""
    d = s - x
    return clamped_step(-float(np.vdot(grad_at(x), d)), denom_of(d))


def squared_norm(curvature_bound=None, name="sqnorm") -> ObjectiveOracle:
    """f(x) = <x, x>, as ||x - 0||^2; works for vectors and (symmetric)
    matrices alike."""
    return squared_distance(0.0, curvature_bound, name)


def squared_distance(r, curvature_bound=None, name="sqdist") -> ObjectiveOracle:
    """f(x) = ||x - r||^2."""
    r = np.asarray(r, dtype=float)

    def ev(x):
        d = x - r
        return float(np.vdot(d, d))

    def grad(x):
        d = x - r
        d *= 2.0
        return d

    return ObjectiveOracle(
        eval=ev,
        grad=grad,
        curvature_bound=curvature_bound,
        name=name,
        alpha_hook=lambda x, s: _quadratic_alpha(
            x, s, grad, lambda d: 2.0 * float(np.vdot(d, d))),
        target=r,
    )


def least_squares(A, b, scale=1.0, curvature_bound=None) -> ObjectiveOracle:
    """f(x) = ||scale*A x - b||^2 (the lasso form uses scale = t on the unit ball)."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    sA = scale * A

    def ev(x):
        r = sA @ x - b
        return float(r @ r)

    def gr(x):
        return 2.0 * (sA.T @ (sA @ x - b))

    def hook(x, s):
        Ad = sA @ (s - x)
        return clamped_step(-float((sA @ x - b) @ Ad), float(Ad @ Ad))

    return ObjectiveOracle(eval=ev, grad=gr, curvature_bound=curvature_bound,
                           name="lstsq", alpha_hook=hook)


def linear(c) -> ObjectiveOracle:
    """f(x) = <c, x>; curvature is exactly zero."""
    c = np.asarray(c, dtype=float)

    def hook(x, s):
        slope = float(np.vdot(c, s - x))
        return 0.0 if slope >= 0.0 else 1.0

    return ObjectiveOracle(eval=lambda x: float(np.vdot(c, x)),
                           grad=lambda x: c,
                           curvature_bound=0.0, name="linear", alpha_hook=hook)
