"""Univariate slice sampling with interval doubling and shrinkage (Neal 2003).

Used by the Gibbs backend for every block whose full conditional has no
closed form.  The log density may return -inf outside the support; the
doubling loop treats that as falling below the slice level.
"""

from __future__ import annotations

import math

import numpy as np


class SliceBracketError(RuntimeError):
    """Interval doubling exhausted its budget without bracketing the slice."""

    def __init__(self, block: str, x0: float):
        super().__init__(
            f"slice sampler could not bracket the level set for block {block!r} "
            f"starting from {x0!r} before the doubling budget ran out"
        )
        self.block = block


def _doubling_acceptable(logdens, x0, x1, log_level, left, right, w):
    """Neal's acceptance test for points found via the doubling procedure.

    Rejects x1 if, retracing the doublings that could have produced
    [left, right] from an interval around x1, some intermediate interval
    separates x0 from x1 across a subinterval whose endpoints both lie
    below the slice level (i.e. the reverse expansion would have stopped
    before reaching x0).
    """
    d = False
    while right - left > 1.1 * w:
        mid = 0.5 * (left + right)
        if (x0 < mid) != (x1 < mid):
            d = True
        if x1 < mid:
            right = mid
        else:
            left = mid
        if d and logdens(left) <= log_level and logdens(right) <= log_level:
            return False
    return True


def slice_step(
    logdens,
    x0: float,
    rng: np.random.Generator,
    w: float = 1.0,
    max_steps: int = 30,
    block: str = "<anonymous>",
) -> float:
    """One slice-sampling update leaving exp(logdens) invariant.

    ``max_steps`` bounds the number of interval doublings, so the bracket
    can reach a width of w * 2**max_steps before giving up.
    """
    logf0 = float(logdens(x0))
    if not math.isfinite(logf0):
        raise ValueError(f"log density not finite at the current point of {block!r}")
    log_level = logf0 + math.log(rng.random())

    # doubling: expand a randomly positioned width-w interval until both
    # endpoints fall below the slice level
    left = x0 - w * rng.random()
    right = left + w
    lf_left = float(logdens(left))
    lf_right = float(logdens(right))
    budget = max_steps
    while lf_left > log_level or lf_right > log_level:
        if budget <= 0:
            raise SliceBracketError(block, x0)
        if rng.random() < 0.5:
            left -= right - left
            lf_left = float(logdens(left))
        else:
            right += right - left
            lf_right = float(logdens(right))
        budget -= 1

    # shrinkage, with the doubling-consistency acceptance test
    lo, hi = left, right
    for _ in range(1000):
        x1 = lo + rng.random() * (hi - lo)
        if float(logdens(x1)) > log_level and _doubling_acceptable(
            logdens, x0, x1, log_level, left, right, w
        ):
            return x1
        if x1 < x0:
            lo = x1
        else:
            hi = x1
    # interval has shrunk to numerical width around x0; keep the current point
    return x0
