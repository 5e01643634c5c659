"""Optimisers, gradient clipping and learning-rate schedules.

The paper's outer loop uses plain gradient descent with gradient clip 5.0,
L2 weight decay 1e-7 and a 0.9 LR decay every 5000 tasks; all of those are
available here, plus Adam for the baselines that train longer.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter


class Optimizer:
    """Base class holding a parameter list and shared bookkeeping."""

    def __init__(self, params, lr: float, weight_decay: float = 0.0):
        self.params: list[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.weight_decay = weight_decay

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _grad_array(self, p: Parameter) -> np.ndarray | None:
        if p.grad is None:
            return None
        g = p.grad.data
        if self.weight_decay:
            g = g + self.weight_decay * p.data
        return g

    # ------------------------------------------------------------------
    # Checkpointable state: scalars under "scalars", per-parameter array
    # lists under "arrays" (keyed by slot name, ordered like ``params``).
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serialisable optimizer state (scalars + moment arrays)."""
        return {
            "kind": type(self).__name__,
            "scalars": {"lr": self.lr, "weight_decay": self.weight_decay},
            "arrays": {},
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state produced by :meth:`state_dict`.

        The optimizer must already hold the same parameter list the
        state was saved from (same count and shapes).
        """
        kind = state.get("kind")
        if kind != type(self).__name__:
            raise ValueError(
                f"optimizer state is for {kind!r}, not {type(self).__name__!r}"
            )
        for name, value in state["scalars"].items():
            setattr(self, name, value)
        for slot, arrays in state["arrays"].items():
            target = getattr(self, slot)
            if len(arrays) != len(target):
                raise ValueError(
                    f"optimizer state slot {slot!r} has {len(arrays)} "
                    f"arrays, expected {len(target)}"
                )
            for buf, value in zip(target, arrays):
                if buf.shape != value.shape:
                    raise ValueError(
                        f"optimizer state slot {slot!r} shape mismatch: "
                        f"{buf.shape} vs {value.shape}"
                    )
                buf[...] = value


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, params, lr: float, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        super().__init__(params, lr, weight_decay)
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            g = self._grad_array(p)
            if g is None:
                continue
            if self.momentum:
                v *= self.momentum
                v += g
                update = v
            else:
                update = g
            p.data = p.data - self.lr * update

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["scalars"]["momentum"] = self.momentum
        state["arrays"]["_velocity"] = [v.copy() for v in self._velocity]
        return state


class Adam(Optimizer):
    """Adam with bias correction."""

    def __init__(self, params, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(params, lr, weight_decay)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        for p, m, v in zip(self.params, self._m, self._v):
            g = self._grad_array(p)
            if g is None:
                continue
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1**self._t)
            v_hat = v / (1 - b2**self._t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["scalars"].update(
            beta1=self.beta1, beta2=self.beta2, eps=self.eps, _t=self._t
        )
        state["arrays"]["_m"] = [m.copy() for m in self._m]
        state["arrays"]["_v"] = [v.copy() for v in self._v]
        return state


def clip_grad_norm(params, max_norm: float,
                   total: float | None = None) -> float:
    """Clip gradients in place by global L2 norm; returns the pre-clip norm.

    ``total`` is that norm when the caller has already computed it, as
    :class:`repro.reliability.GuardedStep` has; it is then not summed
    again."""
    grads = [p.grad for p in params if p.grad is not None]
    if not grads:
        return 0.0
    if total is None:
        total = float(np.sqrt(sum(float((g.data**2).sum()) for g in grads)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads:
            g.data = g.data * scale
    return total


class ExponentialDecay:
    """Multiply the optimiser LR by ``rate`` every ``every`` steps.

    The paper decays by 0.9 every 5000 tasks.
    """

    def __init__(self, optimizer: Optimizer, rate: float, every: int):
        if not 0 < rate <= 1:
            raise ValueError(f"decay rate must be in (0, 1], got {rate}")
        if every <= 0:
            raise ValueError(f"decay interval must be positive, got {every}")
        self.optimizer = optimizer
        self.rate = rate
        self.every = every
        self._steps = 0

    def step(self) -> None:
        self._steps += 1
        if self._steps % self.every == 0:
            self.optimizer.lr *= self.rate

    def state_dict(self) -> dict:
        return {"steps": self._steps}

    def load_state_dict(self, state: dict) -> None:
        self._steps = int(state["steps"])
