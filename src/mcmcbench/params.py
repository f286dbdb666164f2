"""Parameter blocks and constrained <-> unconstrained transforms.

Models declare an ordered list of named blocks.  Each block carries a
transform mapping the unconstrained working scale (where RW-Metropolis
and NUTS operate) to the constrained scale of the model:

- ``Identity``      for regression coefficients
- ``Log``           for positive scalars (variances, scales)
- ``ScaledLogit``   for parameters with a Uniform(0, upper) prior
- ``PinnedSoftmax`` for mixture weights (H-1 free coordinates, last
  logit pinned to zero; Jacobian determinant is prod_h p_h)

The log-Jacobian of the transform is accumulated into the unconstrained
log posterior so every backend targets the same distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class Transform:
    """Map between an unconstrained vector u and a constrained vector x."""

    #: constrained size equals unconstrained size unless overridden
    def constrained_size(self, size: int) -> int:
        return size

    def constrain(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def unconstrain(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def log_jac(self, u: np.ndarray) -> float:
        raise NotImplementedError

    def grad_to_unconstrained(self, u: np.ndarray, grad_x: np.ndarray) -> np.ndarray:
        """Chain rule: d/du [log f(x(u)) + log|J(u)|] given d/dx log f."""
        raise NotImplementedError


class Identity(Transform):
    def constrain(self, u):
        return u

    def unconstrain(self, x):
        return np.asarray(x, dtype=float)

    def log_jac(self, u):
        return 0.0

    def grad_to_unconstrained(self, u, grad_x):
        return grad_x


class Log(Transform):
    """x = exp(u), x > 0.  log|J| = u."""

    def constrain(self, u):
        with np.errstate(over="ignore"):
            return np.exp(u)

    def unconstrain(self, x):
        return np.log(np.asarray(x, dtype=float))

    def log_jac(self, u):
        return float(u.sum())

    def grad_to_unconstrained(self, u, grad_x):
        return grad_x * np.exp(u) + 1.0


class ScaledLogit(Transform):
    """x = upper * sigmoid(u), x in (0, upper)."""

    def __init__(self, upper: float):
        if upper <= 0:
            raise ValueError("upper must be positive")
        self.upper = float(upper)

    def constrain(self, u):
        return self.upper / (1.0 + np.exp(-u))

    def unconstrain(self, x):
        r = np.asarray(x, dtype=float) / self.upper
        return np.log(r) - np.log1p(-r)

    def log_jac(self, u):
        s = 1.0 / (1.0 + np.exp(-u))
        with np.errstate(divide="ignore"):
            return float(np.sum(math.log(self.upper) + np.log(s) + np.log1p(-s)))

    def grad_to_unconstrained(self, u, grad_x):
        s = 1.0 / (1.0 + np.exp(-u))
        return grad_x * self.upper * s * (1.0 - s) + (1.0 - 2.0 * s)


class PinnedSoftmax(Transform):
    """Simplex of H weights from H-1 free logits (last logit = 0)."""

    def __init__(self, n_weights: int):
        if n_weights < 2:
            raise ValueError("need at least two weights")
        self.n_weights = int(n_weights)
        self._last = (b"", None)  # (u bytes, weights) of the latest constrain

    def constrained_size(self, size):
        assert size == self.n_weights - 1
        return self.n_weights

    def constrain(self, u):
        """Weights at u, read-only.

        One posterior evaluation asks for the same weights three times (for
        the value, the log-Jacobian and the gradient), so the latest result
        is kept and handed out again for the same u.
        """
        u = np.asarray(u, dtype=float)
        key = u.tobytes()
        if key == self._last[0]:
            return self._last[1]
        q = np.zeros(self.n_weights)
        q[:-1] = u
        q -= q.max()
        e = np.exp(q)
        w = e / e.sum()
        w.flags.writeable = False
        self._last = (key, w)
        return w

    def unconstrain(self, x):
        x = np.asarray(x, dtype=float)
        return np.log(x[:-1]) - math.log(x[-1])

    def log_jac(self, u):
        return float(np.log(self.constrain(u)).sum())

    def grad_to_unconstrained(self, u, grad_x):
        # grad_x has length H; J_{hk} = p_h (delta_hk - p_k) for k < H.
        p = self.constrain(u)
        g = p * grad_x
        jac_part = 1.0 - self.n_weights * p[:-1]
        return g[:-1] - p[:-1] * g.sum() + jac_part


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

    def block(self, name: str) -> Block:
        for b in self.blocks:
            if b.name == name:
                return b
        raise KeyError(name)

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

    def constrain(self, u: np.ndarray) -> dict:
        """Split u into blocks and map each to its constrained scale."""
        return {name: t.constrain(u[sl]) for name, t, sl in self._parts}

    def unconstrain(self, params: dict) -> np.ndarray:
        u = np.empty(self.dim)
        for b in self.blocks:
            u[self._slices[b.name]] = b.transform.unconstrain(
                np.atleast_1d(np.asarray(params[b.name], dtype=float))
            )
        return u

    def log_jac(self, u: np.ndarray) -> float:
        total = 0
        for _, t, sl in self._parts:
            total += t.log_jac(u[sl])
        return total

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

    def grad_to_unconstrained(self, u: np.ndarray, grads: dict) -> np.ndarray:
        """Assemble the unconstrained gradient from per-block constrained grads."""
        g = np.empty(self.dim)
        for name, t, sl in self._parts:
            g[sl] = t.grad_to_unconstrained(
                u[sl], np.atleast_1d(np.asarray(grads[name], dtype=float))
            )
        return g
