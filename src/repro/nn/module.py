"""Module/parameter system with functional parameter override.

``override_params`` is the key facility for meta-learning: it temporarily
replaces a module's parameters with arbitrary graph tensors ("fast
weights"), so a forward pass through the adapted model stays connected to
the tensors the adaptation was computed from — exactly what MAML's outer
gradient requires.
"""

from __future__ import annotations

import contextlib
from collections import OrderedDict
from typing import Iterator

import numpy as np

from repro.autodiff.tensor import Tensor


class Parameter(Tensor):
    """A tensor registered as a trainable parameter of a module."""

    def __init__(self, data, requires_grad: bool = True):
        super().__init__(data, requires_grad=requires_grad)


class Module:
    """Base class for all layers and models."""

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_overrides", {})
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Attribute plumbing: parameters and submodules auto-register.
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._modules.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
        object.__setattr__(self, name, value)

    def __getattribute__(self, name: str):
        # Parameter access goes through the override table so that a
        # forward pass under ``override_params`` sees the fast weights.
        if name not in ("_parameters", "_overrides", "__dict__", "__class__"):
            try:
                params = object.__getattribute__(self, "_parameters")
            except AttributeError:
                params = None
            if params is not None and name in params:
                overrides = object.__getattribute__(self, "_overrides")
                if name in overrides:
                    return overrides[name]
        return object.__getattribute__(self, name)

    # ------------------------------------------------------------------
    # Iteration over parameters / modules
    # ------------------------------------------------------------------
    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix, self
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for mod_name, mod in self.named_modules(prefix):
            for p_name, p in mod._parameters.items():
                full = f"{mod_name}.{p_name}" if mod_name else p_name
                yield full, p

    def parameters(self) -> list[Parameter]:
        return [p for _name, p in self.named_parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Train / eval mode
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        # A plain walk: no name strings, no generator chain.
        stack = [self]
        while stack:
            mod = stack.pop()
            object.__setattr__(mod, "training", mode)
            stack.extend(object.__getattribute__(mod, "_modules").values())
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------
    # State (de)serialisation
    # ------------------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        return OrderedDict(
            (name, p.data.copy()) for name, p in self.named_parameters()
        )

    def load_state_dict(self, state: dict) -> None:
        own = dict(self.named_parameters())
        missing = sorted(set(own) - set(state))
        unexpected = sorted(set(state) - set(own))
        conflicts = []
        for name in sorted(set(own) & set(state)):
            found = np.asarray(state[name]).shape
            expected = own[name].data.shape
            if expected != found:
                conflicts.append(
                    f"{name} (expected {expected}, found {found})"
                )
        if missing or unexpected or conflicts:
            parts = []
            if missing:
                parts.append(f"missing keys: {missing}")
            if unexpected:
                parts.append(f"unexpected keys: {unexpected}")
            if conflicts:
                parts.append(f"shape conflicts: {conflicts}")
            message = "state dict mismatch: " + "; ".join(parts)
            # Key-level problems stay KeyError for compatibility; a
            # shape-only mismatch is a value problem.
            if missing or unexpected:
                raise KeyError(message)
            raise ValueError(message)
        for name, value in state.items():
            value = np.asarray(value)
            own[name].data = value.astype(own[name].data.dtype).copy()

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:
        children = ", ".join(self._modules)
        return f"{type(self).__name__}({children})"


class ModuleList(Module):
    """A list of submodules, each registered under its index."""

    def __init__(self, modules=()):
        super().__init__()
        self._items: list[Module] = []
        for m in modules:
            self.append(m)

    def append(self, module: Module) -> None:
        name = str(len(self._items))
        self._items.append(module)
        self._modules[name] = module
        object.__setattr__(self, name, module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]


@contextlib.contextmanager
def override_params(module: Module, fast_weights: dict[str, Tensor]):
    """Temporarily substitute parameters by name with graph tensors.

    ``fast_weights`` maps fully-qualified parameter names (as produced by
    :meth:`Module.named_parameters`) to replacement tensors.  Inside the
    block, forward passes use the replacements; gradients flow into
    whatever graph produced them.
    """
    by_module: dict[int, tuple[Module, dict[str, Tensor]]] = {}
    modules = dict(module.named_modules())
    for full_name, tensor in fast_weights.items():
        mod_name, _, p_name = full_name.rpartition(".")
        if mod_name not in modules:
            raise KeyError(f"no module named {mod_name!r} for override {full_name!r}")
        mod = modules[mod_name]
        if p_name not in mod._parameters:
            raise KeyError(f"no parameter named {full_name!r}")
        if tensor.shape != mod._parameters[p_name].shape:
            raise ValueError(
                f"override shape mismatch for {full_name}: "
                f"{tensor.shape} vs {mod._parameters[p_name].shape}"
            )
        entry = by_module.setdefault(id(mod), (mod, {}))
        entry[1][p_name] = tensor
    try:
        for mod, repl in by_module.values():
            mod._overrides.update(repl)
        yield
    finally:
        for mod, repl in by_module.values():
            for key in repl:
                mod._overrides.pop(key, None)
