"""Reverse-mode tensors over numpy arrays.

Every operation records an explicit backward rule on a tape; there is no
general autodiff fallback, so the op set below is the whole differentiable
vocabulary.  Arrays are float64 throughout: finite-difference validation
needs double precision, and desk-scale training is cheap enough to keep it.

``backward`` releases the graph as it walks it: once a node's rule has run,
its gradient, parents and closure are dropped, so one graph supports one
``backward`` and only leaves keep ``.grad``.  Inside ``no_grad()`` ops
record nothing, which is how evaluation forwards run.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..errors import ShapeError

_grad_enabled = True


@contextmanager
def no_grad():
    """Build no tape for ops run inside the block (evaluation forwards)."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _released(g):
    raise RuntimeError("backward through a graph that was already released")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array plus gradient accumulator and tape linkage."""

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_parents",
        "_backward",
        "__weakref__",
    )

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_op(data, parents, backward) -> "Tensor":
        out = Tensor(data)
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            # empty_like keeps the layout of data, so later BLAS calls on
            # the gradient see the same strides as with a zero fill
            self.grad = np.empty_like(self.data)
            self.grad[...] = g
        else:
            self.grad += g

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # -- backward ---------------------------------------------------------

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this node (scalar unless ``grad`` given)."""
        if not self.requires_grad:
            raise ValueError("backward on a tensor that requires no grad")
        if grad is None:
            if self.data.size != 1:
                raise ShapeError(
                    "backward without an explicit gradient needs a scalar"
                )
            grad = np.ones_like(self.data)

        # iterative topological sort over the requires_grad subgraph
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self.accumulate_grad(np.asarray(grad, dtype=np.float64))
        while order:
            node = order.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._parents:
                # interior node: free its gradient and saved activations
                node.grad = None
                node._parents = ()
                node._backward = _released

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        other = self._coerce(other)

        def backward(g):
            if self.requires_grad:
                self.accumulate_grad(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other.accumulate_grad(_unbroadcast(g, other.shape))

        return Tensor.from_op(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(g):
            self.accumulate_grad(-g)

        return Tensor.from_op(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)

        def backward(g):
            if self.requires_grad:
                self.accumulate_grad(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other.accumulate_grad(_unbroadcast(g * self.data, other.shape))

        return Tensor.from_op(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)

        def backward(g):
            if self.requires_grad:
                self.accumulate_grad(_unbroadcast(g / other.data, self.shape))
            if other.requires_grad:
                other.accumulate_grad(
                    _unbroadcast(-g * self.data / other.data**2, other.shape)
                )

        return Tensor.from_op(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, exponent: float):
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")

        def backward(g):
            self.accumulate_grad(g * exponent * self.data ** (exponent - 1))

        return Tensor.from_op(self.data**exponent, (self,), backward)

    def __matmul__(self, other):
        other = self._coerce(other)
        if self.ndim < 1 or other.ndim < 1:
            raise ShapeError(
                f"matmul needs >=1 dims, got {self.shape} @ {other.shape}"
            )
        # promote vector operands so the backward rule only sees matrices
        a_vec, b_vec = self.ndim == 1, other.ndim == 1
        a = self.reshape(1, -1) if a_vec else self
        b = other.reshape(-1, 1) if b_vec else other

        def backward(g):
            if a.requires_grad:
                ga = g @ np.swapaxes(b.data, -1, -2)
                a.accumulate_grad(_unbroadcast(ga, a.shape))
            if b.requires_grad:
                gb = np.swapaxes(a.data, -1, -2) @ g
                b.accumulate_grad(_unbroadcast(gb, b.shape))

        out = Tensor.from_op(a.data @ b.data, (a, b), backward)
        if a_vec and b_vec:
            return out.reshape(())
        if a_vec:
            return out.reshape(out.shape[:-2] + (out.shape[-1],))
        if b_vec:
            return out.reshape(out.shape[:-1])
        return out

    # -- elementwise --------------------------------------------------------

    def exp(self):
        out_data = np.exp(self.data)

        def backward(g):
            self.accumulate_grad(g * out_data)

        return Tensor.from_op(out_data, (self,), backward)

    def log(self):
        def backward(g):
            self.accumulate_grad(g / self.data)

        return Tensor.from_op(np.log(self.data), (self,), backward)

    def sqrt(self):
        out_data = np.sqrt(self.data)

        def backward(g):
            self.accumulate_grad(g / (2.0 * out_data))

        return Tensor.from_op(out_data, (self,), backward)

    def clip_min(self, floor: float):
        """Elementwise max(x, floor); gradient flows only where unclipped."""
        keep = self.data > floor

        def backward(g):
            self.accumulate_grad(g * keep)

        return Tensor.from_op(np.maximum(self.data, floor), (self,), backward)

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        def backward(g):
            if axis is None:
                self.accumulate_grad(np.broadcast_to(g, self.shape).copy())
                return
            gg = g
            if not keepdims:
                gg = np.expand_dims(gg, axis)
            self.accumulate_grad(np.broadcast_to(gg, self.shape).copy())

        return Tensor.from_op(
            self.data.sum(axis=axis, keepdims=keepdims), (self,), backward
        )

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- shape manipulation ----------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old_shape = self.shape

        def backward(g):
            self.accumulate_grad(g.reshape(old_shape))

        return Tensor.from_op(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = np.argsort(axes)

        def backward(g):
            self.accumulate_grad(g.transpose(inverse))

        return Tensor.from_op(self.data.transpose(axes), (self,), backward)

    def __getitem__(self, idx):
        def backward(g):
            acc = np.zeros_like(self.data)
            np.add.at(acc, idx, g)
            self.accumulate_grad(acc)

        return Tensor.from_op(self.data[idx], (self,), backward)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along ``axis`` with gradient splitting."""
    if not tensors:
        raise ShapeError("concat of zero tensors")
    sizes = [t.shape[axis] for t in tensors]
    bounds = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, bounds[:-1], bounds[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(lo, hi)
                t.accumulate_grad(g[tuple(index)])

    return Tensor.from_op(
        np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), backward
    )


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)
