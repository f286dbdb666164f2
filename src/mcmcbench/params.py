"""Parameter blocks and constrained <-> unconstrained transforms.

Models declare an ordered list of named blocks.  Each block carries a
transform mapping the unconstrained working scale (where RW-Metropolis
and NUTS operate) to the constrained scale of the model:

- ``Identity``      for regression coefficients
- ``Log``           for positive scalars (variances, scales)
- ``ScaledLogit``   for parameters with a Uniform(0, upper) prior
- ``PinnedSoftmax`` for mixture weights (H-1 free coordinates, last
  logit pinned to zero; Jacobian determinant is prod_h p_h)

Each transform has one ``forward(u) -> (x, log_jac, pullback)``: the
constrained value x, the log-Jacobian log|dx/du| and a ``pullback`` that
maps d/dx log f (shaped like x) to d/du [log f(x(u)) + log|J(u)|].  All
three come from one pass over the block, and ``pullback`` holds only what
that call computed, so calls at other u do not disturb it.
``ParamSpace.transform`` does the same for the whole vector, and each
model's log posterior adds its log-Jacobian, so every backend targets the
same distribution.

``Log`` and ``PinnedSoftmax`` act on blocks of a few entries, where a numpy
call costs about a microsecond whatever its size.  So they work on Python
floats and keep numpy only for ``exp`` and ``log``, each over the whole
block: ``np.exp`` and ``np.log`` can differ from ``math.exp`` and
``math.log`` in the last bit, while +, -, * and / give the same bits on
floats as on arrays, and ``sum_in_order`` adds as numpy does.  No division
they make can be by zero, where a float raises and numpy gives inf or nan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


def sum_in_order(xs):
    """Sum of a non-empty sequence of floats, added from left to right.

    numpy's ``sum`` adds fewer than 8 float64 entries in this order, so on a
    block's vector this is numpy's sum bit for bit.  Builtin ``sum`` starts
    from the int 0, which turns a sum of -0.0 into 0.0, and from Python 3.12
    it compensates the rounding.
    """
    total = xs[0]
    for x in xs[1:]:
        total += x
    return total


class Transform:
    """Map between an unconstrained vector u and a constrained vector x."""

    #: constrained size equals unconstrained size unless overridden
    def constrained_size(self, size: int) -> int:
        return size

    def forward(self, u: np.ndarray) -> tuple[np.ndarray, float, Callable]:
        """``(x, log|J(u)|, pullback)`` at u; see the module docstring."""
        raise NotImplementedError

    def unconstrain(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Identity(Transform):
    def forward(self, u):
        return u, 0.0, lambda grad_x: grad_x

    def unconstrain(self, x):
        return np.asarray(x, dtype=float)


class Log(Transform):
    """x = exp(u), x > 0.  log|J| = u."""

    def forward(self, u):
        # exp overflows only past u = 709; a caller that steps that far, as a
        # divergent NUTS trajectory can, sets np.errstate once for its loop
        x = np.exp(u)

        def pullback(grad_x):
            if isinstance(grad_x, float):  # a block of one
                grad_x = (grad_x,)
            return [g * xh + 1.0 for g, xh in zip(grad_x, x.tolist())]

        return x, sum_in_order(u.tolist()), pullback

    def unconstrain(self, x):
        return np.log(np.asarray(x, dtype=float))


class ScaledLogit(Transform):
    """x = upper * sigmoid(u), x in (0, upper)."""

    def __init__(self, upper: float):
        if upper <= 0:
            raise ValueError("upper must be positive")
        self.upper = float(upper)

    def forward(self, u):
        d = 1.0 + np.exp(-u)
        s = 1.0 / d
        with np.errstate(divide="ignore"):
            log_jac = float(np.sum(math.log(self.upper) + np.log(s) + np.log1p(-s)))
        return (
            self.upper / d,
            log_jac,
            lambda grad_x: grad_x * self.upper * s * (1.0 - s) + (1.0 - 2.0 * s),
        )

    def unconstrain(self, x):
        r = np.asarray(x, dtype=float) / self.upper
        return np.log(r) - np.log1p(-r)


class PinnedSoftmax(Transform):
    """Simplex of H weights from H-1 free logits (last logit = 0)."""

    def __init__(self, n_weights: int):
        if n_weights < 2:
            raise ValueError("need at least two weights")
        self.n_weights = int(n_weights)

    def constrained_size(self, size):
        assert size == self.n_weights - 1
        return self.n_weights

    def forward(self, u):
        q = u.tolist()
        q.append(0.0)
        # a NaN logit makes every weight NaN whichever maximum is taken
        m = max(q)
        e = np.exp([qh - m for qh in q]).tolist()
        total = sum_in_order(e)  # at least exp(0) = 1, or NaN
        p = [eh / total for eh in e]
        x = np.array(p)

        def pullback(grad_x):
            # grad_x has length H; J_{hk} = p_h (delta_hk - p_k) for k < H.
            g = [ph * gh for ph, gh in zip(p, grad_x)]
            g_sum = sum_in_order(g)
            H = self.n_weights
            return [g[k] - p[k] * g_sum + (1.0 - H * p[k]) for k in range(H - 1)]

        return x, sum_in_order(np.log(x).tolist()), pullback

    def unconstrain(self, x):
        x = np.asarray(x, dtype=float)
        return np.log(x[:-1]) - math.log(x[-1])


@dataclass(frozen=True)
class Block:
    name: str
    size: int
    transform: Transform = field(default_factory=Identity)

    @property
    def constrained_size(self) -> int:
        return self.transform.constrained_size(self.size)


class ParamSpace:
    """Ordered blocks defining the flat parameter vector layout."""

    def __init__(self, blocks: list[Block]):
        self.blocks = list(blocks)
        self.dim = sum(b.size for b in self.blocks)
        self.constrained_dim = sum(b.constrained_size for b in self.blocks)
        self._slices = {}
        offset = 0
        for b in self.blocks:
            self._slices[b.name] = slice(offset, offset + b.size)
            offset += b.size
        # (name, transform, slice) per block, for the per-evaluation loops
        self._parts = [(b.name, b.transform, self._slices[b.name]) for b in self.blocks]

    def u_slice(self, name: str) -> slice:
        return self._slices[name]

    def names(self) -> list[str]:
        """Constrained-scale column labels, e.g. beta[0], sigma2, p[0]."""
        out = []
        for b in self.blocks:
            k = b.constrained_size
            if k == 1:
                out.append(b.name)
            else:
                out.extend(f"{b.name}[{j}]" for j in range(k))
        return out

    def transform(self, u: np.ndarray) -> tuple[dict, float, Callable[[dict], np.ndarray]]:
        """``(params, log|J(u)|, pullback)``: one ``forward`` per block.

        ``params`` maps each block name to its constrained value and the
        log-Jacobian is the block sum.  ``pullback(grads)`` takes per-block
        gradients of log f on the constrained scale, each a float array or a
        list of floats shaped like its block's value or, for a block of one, a
        float, and returns the gradient of log f(x(u)) + log|J(u)| in u.
        """
        params, pullbacks = {}, []
        log_jac = 0
        for name, t, sl in self._parts:
            params[name], block_log_jac, block_pullback = t.forward(u[sl])
            log_jac += block_log_jac
            pullbacks.append(block_pullback)

        def pullback(grads: dict) -> np.ndarray:
            g = np.empty(self.dim)
            for (name, _, sl), pb in zip(self._parts, pullbacks):
                g[sl] = pb(grads[name])
            return g

        return params, log_jac, pullback

    def constrain(self, u: np.ndarray) -> dict:
        """Split u into blocks and map each to its constrained scale."""
        return self.transform(u)[0]

    def unconstrain(self, params: dict) -> np.ndarray:
        u = np.empty(self.dim)
        for b in self.blocks:
            u[self._slices[b.name]] = b.transform.unconstrain(
                np.atleast_1d(np.asarray(params[b.name], dtype=float))
            )
        return u

    def flatten_constrained(self, params: dict) -> np.ndarray:
        return np.concatenate(
            [np.atleast_1d(np.asarray(params[b.name], dtype=float)) for b in self.blocks]
        )

    def unflatten_constrained(self, row: np.ndarray) -> dict:
        """Inverse of flatten_constrained: split a constrained row into blocks."""
        out = {}
        offset = 0
        for b in self.blocks:
            k = b.constrained_size
            out[b.name] = np.asarray(row[offset : offset + k], dtype=float)
            offset += k
        return out
