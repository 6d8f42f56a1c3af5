"""Reverse-mode autodiff over float32 or float64 numpy arrays.

The dtype follows the data: a Tensor keeps float32 and float64 data as they
are and widens anything else to float64, and every op computes in its
inputs' dtype (numpy promotes inputs of mixed dtype). No setting chooses it.

Tensors form a tape: each op records its parents and a closure that routes
the output gradient back to them. Calling backward() on a scalar root walks
the tape in reverse topological order and hands each closure its output's
gradient; once a closure has run, its node's gradient is dropped, so after
backward() only the leaves and the root hold a .grad. A closure holds its
inputs but never its own output, so the tape has no reference cycles and is
freed as soon as its root is dropped.
Tensor shapes follow

    (batch, channels, Z, Y, X)

for volumetric data, but the core here is shape-agnostic.
"""

import numpy as np

from ..errors import InputError

LEAKY_SLOPE = 0.01
_KEPT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype in _KEPT_DTYPES else data.astype(np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    def item(self) -> float:
        if self.data.size != 1:
            raise InputError(f"item() needs a scalar tensor, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def backward(self) -> None:
        if self.data.size != 1:
            raise InputError("backward() requires a scalar root")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                if node is not self:
                    node.grad = None  # spent: every parent has its share

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"


def _result(data, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.add(g, 0.0, dtype=t.data.dtype)  # a copy: a later += must not write into g
    else:
        t.grad += g


def tsum(a: Tensor) -> Tensor:
    def back(g):
        _accum(a, np.full_like(a.data, float(g)))

    return _result(np.asarray(a.data.sum()), (a,), back)


def leaky_relu(a: Tensor) -> Tensor:
    pos = a.data > 0

    def back(g):
        _accum(a, np.where(pos, g, LEAKY_SLOPE * g))

    return _result(np.where(pos, a.data, LEAKY_SLOPE * a.data), (a,), back)


def concat(tensors, axis: int = 1) -> Tensor:
    tensors = list(tensors)  # a snapshot: dense blocks append to the list they pass
    if not tensors:
        raise InputError("concat needs at least one tensor")
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(t, g[tuple(sl)])

    return _result(np.concatenate([t.data for t in tensors], axis=axis), tensors, back)


def take_channel(a: Tensor, channel: int) -> Tensor:
    """Select one channel of a (B, C, Z, Y, X) tensor, keeping the axis."""
    if a.data.ndim != 5:
        raise InputError(f"take_channel expects 5-d tensor, got {a.data.shape}")
    c = int(channel)
    if not 0 <= c < a.data.shape[1]:
        raise InputError(f"channel {c} out of range for {a.data.shape[1]} channels")

    def back(g):
        full = np.zeros_like(a.data)
        full[:, c : c + 1] = g
        _accum(a, full)

    return _result(a.data[:, c : c + 1].copy(), (a,), back)


def softmax_channels(a: Tensor) -> Tensor:
    """Numerically stable softmax across axis 1."""
    z = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=1, keepdims=True)

    def back(g):
        dot = (g * s).sum(axis=1, keepdims=True)
        _accum(a, s * (g - dot))

    return _result(s, (a,), back)
