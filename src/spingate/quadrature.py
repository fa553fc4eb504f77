"""Adaptive Simpson integration, kept as a test oracle only.

No model code calls it: every count integral in :mod:`spingate.decay` has a
closed form. The tests cross-check those closed forms against this routine,
so it must not share code with them. Accuracy is driven by a relative
tolerance on the whole-interval estimate with the usual 1/15 Richardson
error bound.
"""

from __future__ import annotations

from typing import Callable


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = 1e-10,
    max_depth: int = 60,
) -> float:
    """Integrate ``f`` over [a, b] to a relative tolerance.

    Parameters
    ----------
    f : callable
        Scalar integrand, assumed smooth on [a, b].
    a, b : float
        Finite integration limits, a <= b.
    rel_tol : float
        Target relative error with respect to the full-interval estimate.
    max_depth : int
        Bisection depth cap; on hitting it the current panel estimate is
        accepted (the integrands used here are smooth, so this is a guard
        against pathological inputs, not an accuracy mechanism).
    """
    if not (b >= a):
        raise ValueError(f"invalid integration interval [{a}, {b}]")
    if b == a:
        return 0.0
    fa = f(a)
    fb = f(b)
    m, fm, whole = _panel(f, a, fa, b, fb)
    # Absolute budget derived once from the coarse estimate; halved per split.
    eps = rel_tol * max(abs(whole), 1e-300)
    return _recurse(f, a, fa, m, fm, b, fb, whole, eps, max_depth)


def _panel(f, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _recurse(f, a, fa, m, fm, b, fb, whole, eps, depth):
    lm, flm, left = _panel(f, a, fa, m, fm)
    rm, frm, right = _panel(f, m, fm, b, fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * eps:
        return left + right + delta / 15.0
    return _recurse(f, a, fa, lm, flm, m, fm, left, 0.5 * eps, depth - 1) + _recurse(
        f, m, fm, rm, frm, b, fb, right, 0.5 * eps, depth - 1
    )
