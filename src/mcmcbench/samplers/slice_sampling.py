"""Univariate slice sampling by stepping out and shrinkage (Neal 2003, §4).

Used by the Gibbs backend for every block whose full conditional has no
closed form, as the slice samplers of JAGS and NIMBLE are: a width-w
interval placed at random around the current point steps out in units of
w until both ends fall below the slice level or a budget of ``max_steps``
widths is spent, and a candidate drawn uniformly from it is accepted or
shrinks the interval towards the current point (Neal 2003, Figs. 3 and
5).  With a finite budget the update is exact and cannot fail.  The log
density may return -inf outside the support; stepping out and shrinkage
treat that as falling below the slice level.
"""

from __future__ import annotations

import math

import numpy as np

MAX_STEPS = 30  # Neal's m: at most this many widths in one interval


def slice_step(
    logdens,
    x0: float,
    rng: np.random.Generator,
    w: float = 1.0,
    max_steps: int = MAX_STEPS,
    block: str = "<anonymous>",
) -> float:
    """One slice-sampling update leaving exp(logdens) invariant.

    The interval grows to at most ``max_steps`` widths ``w``, split at
    random between the two sides before stepping out starts.
    """
    logf0 = float(logdens(x0))
    if not math.isfinite(logf0):
        raise ValueError(f"log density not finite at the current point of {block!r}")
    log_level = logf0 + math.log(rng.random())

    # stepping out: J widths to the left and K to the right at most
    left = x0 - w * rng.random()
    right = left + w
    steps_left = math.floor(max_steps * rng.random())
    steps_right = max_steps - 1 - steps_left
    while steps_left > 0 and float(logdens(left)) > log_level:
        left -= w
        steps_left -= 1
    while steps_right > 0 and float(logdens(right)) > log_level:
        right += w
        steps_right -= 1

    # shrinkage
    for _ in range(1000):
        x1 = left + rng.random() * (right - left)
        if float(logdens(x1)) > log_level:
            return x1
        if x1 < x0:
            left = x1
        else:
            right = x1
    # interval has shrunk to numerical width around x0; keep the current point
    return x0
