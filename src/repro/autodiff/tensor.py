"""Core tensor type and differentiable primitive operations.

Every primitive records its parents and a VJP (vector-Jacobian product)
callback.  VJP callbacks are written with ``Tensor`` operations, never raw
numpy, so that running backpropagation with ``create_graph=True`` yields
gradients that are themselves differentiable — the property FEWNER's
second-order outer update relies on.
"""

from __future__ import annotations

import contextlib
import threading
import weakref
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float64

_state = threading.local()

# Optional tape profiler (repro.obs.tapeprof).  A module-global slot
# instead of a thread-local keeps the disabled cost at one global load +
# ``is None`` check on the recording path only.
_tape_profiler = None


def set_tape_profiler(profiler) -> None:
    """Install (or clear, with ``None``) the active tape profiler.

    The profiler receives ``_record(tensor)`` for every graph node
    created by :func:`_make` and ``_record_backward(n_nodes)`` for every
    backward traversal.  Used by ``repro.obs.tapeprof.profile_tape``.
    """
    global _tape_profiler
    _tape_profiler = profiler


def is_grad_enabled() -> bool:
    """Return whether new operations are currently recorded on the tape."""
    return getattr(_state, "grad_enabled", True)


def _set_grad_enabled(mode: bool) -> None:
    _state.grad_enabled = mode


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording inside its block."""
    prev = is_grad_enabled()
    _set_grad_enabled(False)
    try:
        yield
    finally:
        _set_grad_enabled(prev)


@contextlib.contextmanager
def enable_grad():
    """Context manager that re-enables graph recording inside its block."""
    prev = is_grad_enabled()
    _set_grad_enabled(True)
    try:
        yield
    finally:
        _set_grad_enabled(prev)


class _Node:
    """Record of one operation in the autodiff graph."""

    __slots__ = ("parents", "vjps")

    def __init__(
        self,
        parents: Sequence["Tensor"],
        vjps: Sequence[Callable[["Tensor"], "Tensor | None"] | None],
    ):
        self.parents = tuple(parents)
        self.vjps = tuple(vjps)


class Tensor:
    """A numpy-backed array that supports reverse-mode differentiation."""

    __slots__ = ("data", "requires_grad", "grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data, dtype=dtype or DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Tensor | None = None
        self._node: _Node | None = None

    # ------------------------------------------------------------------
    # Basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4)}{grad_note})"

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (a view; do not mutate)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    def _creates_graph(self) -> bool:
        return self.requires_grad and is_grad_enabled()

    def backward(self, grad_output: "Tensor | None" = None, create_graph: bool = False) -> None:
        """Backpropagate from this tensor, accumulating into ``.grad``.

        ``grad_output`` defaults to ones (scalar outputs only need that).
        The topological order is computed once and shared between leaf
        collection and the reverse sweep, so the graph is traversed a
        single time per call.
        """
        if grad_output is None:
            if self.size != 1:
                raise ValueError("backward() without grad_output requires a scalar tensor")
            grad_output = Tensor(np.ones_like(self.data))
        order = _topo_order([self])
        leaves = [t for t in order if t._node is None and t.requires_grad]
        grads = _backprop([self], [grad_output], leaves, create_graph,
                          order=order)
        for leaf, g in zip(leaves, grads):
            if g is None:
                continue
            if leaf.grad is None:
                leaf.grad = g
            else:
                leaf.grad = leaf.grad + g

    # ------------------------------------------------------------------
    # Arithmetic operators
    # ------------------------------------------------------------------
    def __add__(self, other):
        return add(self, _ensure_tensor(other))

    def __radd__(self, other):
        return add(_ensure_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _ensure_tensor(other))

    def __rsub__(self, other):
        return sub(_ensure_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _ensure_tensor(other))

    def __rmul__(self, other):
        return mul(_ensure_tensor(other), self)

    def __truediv__(self, other):
        return div(self, _ensure_tensor(other))

    def __rtruediv__(self, other):
        return div(_ensure_tensor(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return pow_(self, exponent)

    def __matmul__(self, other):
        return matmul(self, _ensure_tensor(other))

    def __getitem__(self, index):
        return getitem(self, index)

    # Comparison operators intentionally return plain numpy arrays: they
    # are non-differentiable and used for masks.
    def __gt__(self, other):
        return self.data > _raw(other)

    def __lt__(self, other):
        return self.data < _raw(other)

    def __ge__(self, other):
        return self.data >= _raw(other)

    def __le__(self, other):
        return self.data <= _raw(other)

    # ------------------------------------------------------------------
    # Shape / reduction helpers as methods
    # ------------------------------------------------------------------
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes: Sequence[int] | None = None):
        return transpose(self, axes)

    @property
    def T(self):
        return transpose(self, None)

    def sum(self, axis=None, keepdims: bool = False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return mean(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False):
        return max_(self, axis=axis, keepdims=keepdims)

    def min(self, axis=None, keepdims: bool = False):
        return neg(max_(neg(self), axis=axis, keepdims=keepdims))

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def tanh(self):
        return tanh(self)

    def sigmoid(self):
        return sigmoid(self)

    def relu(self):
        return relu(self)

    def sqrt(self):
        return sqrt(self)

    def argmax(self, axis=None):
        return self.data.argmax(axis=axis)


def _ensure_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _raw(value):
    return value.data if isinstance(value, Tensor) else value


def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    """Construct a :class:`Tensor` (convenience mirror of the class)."""
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)


def full(shape, fill_value, requires_grad: bool = False) -> Tensor:
    return Tensor(np.full(shape, fill_value, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)


def arange(*args, requires_grad: bool = False) -> Tensor:
    return Tensor(np.arange(*args, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)


# ----------------------------------------------------------------------
# Graph construction helper
# ----------------------------------------------------------------------

def _make(
    data: np.ndarray,
    parents: Sequence[Tensor],
    vjps: Sequence[Callable[[Tensor], Tensor | None] | None],
) -> Tensor:
    """Create an output tensor, recording the op if any parent needs grad."""
    out = Tensor(data)
    # Hot path: explicit loop beats any()+generator for the tiny parent
    # tuples every op produces.
    if getattr(_state, "grad_enabled", True):
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._node = _Node(parents, vjps)
                if _tape_profiler is not None:
                    _tape_profiler._record(out)
                break
    return out


def _unbroadcast(grad: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Reduce ``grad`` down to ``shape`` by summing broadcast dimensions."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = sum_(grad, axis=tuple(range(extra)), keepdims=False)
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = sum_(grad, axis=axes, keepdims=True)
    if grad.shape != shape:
        grad = reshape(grad, shape)
    return grad


# ----------------------------------------------------------------------
# Elementwise arithmetic
# ----------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    return _make(
        a.data + b.data,
        (a, b),
        (
            lambda g: _unbroadcast(g, a.shape),
            lambda g: _unbroadcast(g, b.shape),
        ),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _make(
        a.data - b.data,
        (a, b),
        (
            lambda g: _unbroadcast(g, a.shape),
            lambda g: _unbroadcast(neg(g), b.shape),
        ),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _make(
        a.data * b.data,
        (a, b),
        (
            lambda g: _unbroadcast(mul(g, b), a.shape),
            lambda g: _unbroadcast(mul(g, a), b.shape),
        ),
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    return _make(
        a.data / b.data,
        (a, b),
        (
            lambda g: _unbroadcast(div(g, b), a.shape),
            lambda g: _unbroadcast(neg(div(mul(g, a), mul(b, b))), b.shape),
        ),
    )


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), (lambda g: neg(g),))


def pow_(a: Tensor, exponent: float) -> Tensor:
    """Raise to a constant (non-tensor) power."""
    exponent = float(exponent)
    return _make(
        a.data**exponent,
        (a,),
        (lambda g: mul(g, mul(Tensor(np.array(exponent)), pow_(a, exponent - 1.0))),),
    )


def _with_output_vjp(out: Tensor, a: Tensor, vjp_of_out) -> Tensor:
    """Record ``out = f(a)`` whose VJP reads ``out`` itself.

    The closure holds ``out`` through a weak reference: a strong one
    would make every such graph a reference cycle that only the cycle
    collector frees.  Backpropagation keeps ``out`` alive while its VJP
    runs (the topological order holds every node it visits).
    """
    if out._node is not None:
        ref = weakref.ref(out)
        out._node = _Node((a,), (lambda g: vjp_of_out(g, ref()),))
    return out


def exp(a: Tensor) -> Tensor:
    return _with_output_vjp(
        _make(np.exp(a.data), (a,), (None,)), a, lambda g, out: mul(g, out)
    )


def log(a: Tensor) -> Tensor:
    return _make(np.log(a.data), (a,), (lambda g: div(g, a),))


def sqrt(a: Tensor) -> Tensor:
    return _with_output_vjp(
        _make(np.sqrt(a.data), (a,), (None,)), a,
        lambda g, out: div(mul(g, Tensor(np.array(0.5))), out),
    )


def tanh(a: Tensor) -> Tensor:
    return _with_output_vjp(
        _make(np.tanh(a.data), (a,), (None,)), a,
        lambda g, out: mul(g, sub(Tensor(np.array(1.0)), mul(out, out))),
    )


def sigmoid(a: Tensor) -> Tensor:
    # ``exp`` overflows below about -709; the result is the exact limit 0.
    with np.errstate(over="ignore"):
        value = 1.0 / (1.0 + np.exp(-a.data))
    return _with_output_vjp(
        _make(value, (a,), (None,)), a,
        lambda g, out: mul(g, mul(out, sub(Tensor(np.array(1.0)), out))),
    )


def relu(a: Tensor) -> Tensor:
    mask = (a.data > 0).astype(a.data.dtype)
    return _make(a.data * mask, (a,), (lambda g: mul(g, Tensor(mask)),))


def abs_(a: Tensor) -> Tensor:
    sign = np.sign(a.data)
    return _make(np.abs(a.data), (a,), (lambda g: mul(g, Tensor(sign)),))


def clip(a: Tensor, low: float, high: float) -> Tensor:
    """Clamp values; gradient is passed through inside the active range."""
    mask = ((a.data >= low) & (a.data <= high)).astype(a.data.dtype)
    return _make(np.clip(a.data, low, high), (a,), (lambda g: mul(g, Tensor(mask)),))


def where(condition, a: Tensor, b: Tensor) -> Tensor:
    """Select from ``a`` where ``condition`` else ``b`` (condition constant)."""
    cond = _raw(condition).astype(bool)
    a = _ensure_tensor(a)
    b = _ensure_tensor(b)
    mask = cond.astype(DEFAULT_DTYPE)
    inv = 1.0 - mask
    return _make(
        np.where(cond, a.data, b.data),
        (a, b),
        (
            lambda g: _unbroadcast(mul(g, Tensor(mask)), a.shape),
            lambda g: _unbroadcast(mul(g, Tensor(inv)), b.shape),
        ),
    )


def maximum(a: Tensor, b: Tensor) -> Tensor:
    a = _ensure_tensor(a)
    b = _ensure_tensor(b)
    return where(a.data >= b.data, a, b)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    a = _ensure_tensor(a)
    b = _ensure_tensor(b)
    return where(a.data <= b.data, a, b)


# ----------------------------------------------------------------------
# Linear algebra
# ----------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with the usual 1-D/2-D/batched numpy semantics."""
    if a.ndim == 1 and b.ndim == 1:
        return sum_(mul(a, b))
    if a.ndim == 1:
        return reshape(matmul(reshape(a, (1, -1)), b), b.shape[:-2] + (b.shape[-1],))
    if b.ndim == 1:
        return reshape(matmul(a, reshape(b, (-1, 1))), a.shape[:-1])

    def vjp_a(g: Tensor) -> Tensor:
        return _unbroadcast(matmul(g, _swap_last(b)), a.shape)

    def vjp_b(g: Tensor) -> Tensor:
        return _unbroadcast(matmul(_swap_last(a), g), b.shape)

    return _make(a.data @ b.data, (a, b), (vjp_a, vjp_b))


def _swap_last(a: Tensor) -> Tensor:
    axes = list(range(a.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return transpose(a, axes)


# ----------------------------------------------------------------------
# Shape ops
# ----------------------------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    old_shape = a.shape
    return _make(a.data.reshape(shape), (a,), (lambda g: reshape(g, old_shape),))


def broadcast_to(a: Tensor, shape) -> Tensor:
    """Broadcast ``a`` to ``shape`` without materialising a copy.

    The forward value is a numpy broadcast view; the VJP sums the
    incoming gradient back down to the original shape.  Reduction VJPs
    use this instead of multiplying by a ones tensor, which kept the old
    tape allocating (and multiplying through) a full-size constant on
    every backward pass.
    """
    shape = tuple(shape)
    in_shape = a.shape
    return _make(
        np.broadcast_to(a.data, shape),
        (a,),
        (lambda g: _unbroadcast(g, in_shape),),
    )


def transpose(a: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _make(np.transpose(a.data, axes), (a,), (lambda g: transpose(g, inverse),))


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    tensors = [_ensure_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(i: int):
        def vjp(g: Tensor) -> Tensor:
            index = [slice(None)] * g.ndim
            index[axis] = slice(int(offsets[i]), int(offsets[i + 1]))
            return getitem(g, tuple(index))

        return vjp

    return _make(
        np.concatenate([t.data for t in tensors], axis=axis),
        tensors,
        tuple(make_vjp(i) for i in range(len(tensors))),
    )


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    tensors = [_ensure_tensor(t) for t in tensors]

    def make_vjp(i: int):
        def vjp(g: Tensor) -> Tensor:
            index = [slice(None)] * g.ndim
            index[axis] = i
            return getitem(g, tuple(index))

        return vjp

    return _make(
        np.stack([t.data for t in tensors], axis=axis),
        tensors,
        tuple(make_vjp(i) for i in range(len(tensors))),
    )


def getitem(a: Tensor, index) -> Tensor:
    """Differentiable indexing (basic and integer-array indexing)."""
    if isinstance(index, np.ndarray) and index.dtype.kind in "iu":
        # The same rows as ``a.data[index]`` (negative ids and the
        # ``IndexError`` too), gathered faster.
        out_data = np.take(a.data, index, axis=0)
    else:
        out_data = a.data[index]
    shape = a.shape

    def vjp(g: Tensor) -> Tensor:
        return scatter_to(shape, index, g)

    # Basic indexing returns a view; copy it so the result never aliases
    # ``a`` (fancy indexing already returns a fresh array).
    if np.may_share_memory(out_data, a.data):
        out_data = out_data.copy()
    return _make(out_data, (a,), (vjp,))


def _is_basic_index(index) -> bool:
    """True for indices made only of ints/slices/None/Ellipsis.

    Basic indexing addresses every element at most once, so the scatter
    adjoint can use direct assignment instead of :func:`scatter_array`
    (whose fixed per-call overhead dominates on the small arrays the RNN
    step loop scatters into)."""
    items = index if isinstance(index, tuple) else (index,)
    return all(
        isinstance(i, (int, np.integer, slice)) or i is None or i is Ellipsis
        for i in items
    )


def scatter_array(shape: tuple[int, ...], index, values: np.ndarray) -> np.ndarray:
    """Zeros of ``shape`` with ``values`` summed in at ``index``.

    Bit-identical to ``np.add.at(np.zeros(shape), index, values)`` for
    the tape's float64 values: the selected elements are numbered by
    indexing a flat ``arange`` with ``index``, and ``np.bincount`` adds
    each value in the same sequential order ``np.add.at`` does, without
    its per-element dispatch cost.
    """
    values = np.asarray(values)
    size = int(np.prod(shape))
    flat = np.arange(size).reshape(shape)[index]
    weights = np.broadcast_to(values, flat.shape).ravel()
    summed = np.bincount(flat.ravel(), weights=weights, minlength=size)
    return summed.astype(values.dtype, copy=False).reshape(shape)


def scatter_to(shape: tuple[int, ...], index, values: Tensor) -> Tensor:
    """Place ``values`` into a zero tensor of ``shape`` at ``index``.

    This is the adjoint of :func:`getitem`; duplicate integer indices
    accumulate, matching ``np.add.at`` semantics.
    """
    values = _ensure_tensor(values)

    def forward(vals: np.ndarray) -> np.ndarray:
        if not _is_basic_index(index):
            return scatter_array(shape, index, vals)
        base = np.zeros(shape, dtype=vals.dtype)
        base[index] = vals
        return base

    def vjp(g: Tensor) -> Tensor:
        return getitem(g, index)

    return _make(forward(values.data), (values,), (vjp,))


def scatter_add(base: Tensor, index, values: Tensor) -> Tensor:
    """Return ``base`` with ``values`` accumulated at ``index``."""
    return add(base, scatter_to(base.shape, index, values))


def pad(a: Tensor, pad_width) -> Tensor:
    """Zero-pad; ``pad_width`` follows ``np.pad`` conventions."""
    pad_width = tuple((int(lo), int(hi)) for lo, hi in pad_width)
    index = tuple(
        slice(lo, lo + dim) for (lo, _hi), dim in zip(pad_width, a.shape)
    )
    out = np.zeros(
        tuple(lo + dim + hi for (lo, hi), dim in zip(pad_width, a.shape)),
        dtype=a.dtype,
    )
    out[index] = a.data
    return _make(out, (a,), (lambda g: getitem(g, index),))


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------

def _normalize_axis(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _normalize_axis(axis, a.ndim)
    in_shape = a.shape

    def vjp(g: Tensor) -> Tensor:
        if not keepdims:
            expanded = list(g.shape)
            for ax in sorted(axes):
                expanded.insert(ax, 1)
            g = reshape(g, tuple(expanded))
        return broadcast_to(g, in_shape)

    return _make(a.data.sum(axis=axes or None, keepdims=keepdims), (a,), (vjp,))


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _normalize_axis(axis, a.ndim)
    count = float(np.prod([a.shape[ax] for ax in axes])) if axes else 1.0
    return div(sum_(a, axis=axis, keepdims=keepdims), Tensor(np.array(count)))


def max_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Max reduction; ties split gradient equally (subgradient choice)."""
    axes = _normalize_axis(axis, a.ndim)
    data = a.data
    reduced = data.max(axis=axes or None, keepdims=True)
    out_data = reduced if keepdims else np.squeeze(reduced, axis=axes or None)

    def vjp(g: Tensor) -> Tensor:
        # The tie-split mask is built here, not in the forward pass, so
        # inference never pays for it.
        mask = (data == reduced).astype(DEFAULT_DTYPE)
        mask = mask / mask.sum(axis=axes or None, keepdims=True)
        if not keepdims:
            expanded = list(g.shape)
            for ax in sorted(axes):
                expanded.insert(ax, 1)
            g = reshape(g, tuple(expanded))
        return mul(g, Tensor(mask))

    return _make(out_data, (a,), (vjp,))


# ----------------------------------------------------------------------
# Backpropagation engine
# ----------------------------------------------------------------------

def _topo_order(roots: Sequence[Tensor]) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(r, False) for r in roots]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if node._node is not None:
            for parent in node._node.parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
    return order


def _collect_leaves(root: Tensor) -> list[Tensor]:
    leaves = []
    for t in _topo_order([root]):
        if t._node is None and t.requires_grad:
            leaves.append(t)
    return leaves


def _backprop(
    outputs: Sequence[Tensor],
    grad_outputs: Sequence[Tensor],
    inputs: Sequence[Tensor],
    create_graph: bool,
    order: list[Tensor] | None = None,
) -> list[Tensor | None]:
    grads: dict[int, Tensor] = {}
    for out, g in zip(outputs, grad_outputs):
        if id(out) in grads:
            grads[id(out)] = grads[id(out)] + g
        else:
            grads[id(out)] = g

    # ``order`` lets callers that already walked the graph (backward()'s
    # leaf collection) hand the topological order in instead of paying a
    # second traversal.
    if order is None:
        order = _topo_order(list(outputs))
    if _tape_profiler is not None:
        _tape_profiler._record_backward(len(order))
    needed = {id(t) for t in inputs}
    # Mark every ancestor of an input so we do not waste VJPs elsewhere.
    reachable: set[int] = set()
    for t in order:
        if id(t) in needed:
            reachable.add(id(t))
    # Propagate reachability up the order: a node is relevant if it is an
    # input or any of its parents (transitively) is.  We instead compute
    # "leads-to-input" by a reverse sweep over the topological order.
    leads: set[int] = set(needed)
    for t in order:  # order is parents-before-children
        if t._node is None:
            continue
        if any(id(p) in leads for p in t._node.parents):
            leads.add(id(t))

    results: dict[int, Tensor] = {}
    ctx = enable_grad() if create_graph else no_grad()
    with ctx:
        for t in reversed(order):
            if id(t) not in grads:
                continue
            if id(t) in needed:
                # Capture now: an input may be an intermediate node whose
                # accumulated gradient is complete once we reach it in
                # reverse topological order.
                results[id(t)] = grads[id(t)]
            if t._node is None or id(t) not in leads:
                grads.pop(id(t))
                continue
            g = grads.pop(id(t))
            for parent, vjp in zip(t._node.parents, t._node.vjps):
                if vjp is None or not parent.requires_grad or id(parent) not in leads:
                    continue
                contrib = vjp(g)
                if contrib is None:
                    continue
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + contrib
                else:
                    grads[id(parent)] = contrib
    return [results.get(id(t)) for t in inputs]


def grad(
    outputs: Tensor | Sequence[Tensor],
    inputs: Sequence[Tensor],
    grad_outputs: Tensor | Sequence[Tensor] | None = None,
    create_graph: bool = False,
    allow_unused: bool = False,
) -> list[Tensor | None]:
    """Compute gradients of ``outputs`` w.r.t. ``inputs``.

    With ``create_graph=True`` the returned gradients are connected to the
    graph and may themselves be differentiated (second-order optimisation).
    """
    if isinstance(outputs, Tensor):
        outputs = [outputs]
    if grad_outputs is None:
        grad_outputs = [Tensor(np.ones_like(o.data)) for o in outputs]
    elif isinstance(grad_outputs, Tensor):
        grad_outputs = [grad_outputs]
    result = _backprop(list(outputs), list(grad_outputs), list(inputs), create_graph)
    if not allow_unused:
        for inp, g in zip(inputs, result):
            if g is None and inp.requires_grad:
                raise RuntimeError(
                    "One of the inputs was not used in the graph; pass "
                    "allow_unused=True to receive None for it."
                )
    return result
