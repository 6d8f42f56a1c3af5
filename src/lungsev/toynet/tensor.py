"""Reverse-mode autodiff over float64 numpy arrays.

Tensors form a tape: each op records its parents and a closure that routes
the output gradient back to them. Calling backward() on a scalar root walks
the tape in reverse topological order. Tensor shapes follow

    (batch, channels, Z, Y, X)

for volumetric data, but the core here is shape-agnostic.
"""

import numpy as np

from ..errors import InputError, InternalError

_DEBUG_FINITE = False


def set_debug_finite(enabled: bool) -> None:
    """When enabled, every op output is checked for NaN/inf."""
    global _DEBUG_FINITE
    _DEBUG_FINITE = bool(enabled)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents = ()
        self._backward = None
        if _DEBUG_FINITE and not np.all(np.isfinite(self.data)):
            raise InternalError(f"non-finite values in tensor {name or '<unnamed>'}")

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise InputError(f"item() needs a scalar tensor, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

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
                node._backward()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"


def _result(data, parents, backward_fn, name="") -> Tensor:
    out = Tensor(data, name=name)
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise InputError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


def add(a, b) -> Tensor:
    if isinstance(b, (int, float)):
        a = as_tensor(a)
        out = _result(a.data + float(b), (a,), None)

        def back():
            _accum(a, out.grad)

        out._backward = back if out.requires_grad else None
        return out
    a, b = as_tensor(a), as_tensor(b)
    _check_same_shape(a, b, "add")
    out = _result(a.data + b.data, (a, b), None)

    def back():
        _accum(a, out.grad)
        _accum(b, out.grad)

    out._backward = back if out.requires_grad else None
    return out


def sub(a, b) -> Tensor:
    if isinstance(b, (int, float)):
        return add(a, -float(b))
    return add(a, neg(b))


def neg(a) -> Tensor:
    a = as_tensor(a)
    out = _result(-a.data, (a,), None)

    def back():
        _accum(a, -out.grad)

    out._backward = back if out.requires_grad else None
    return out


def mul(a, b) -> Tensor:
    if isinstance(b, (int, float)):
        a = as_tensor(a)
        s = float(b)
        out = _result(a.data * s, (a,), None)

        def back():
            _accum(a, out.grad * s)

        out._backward = back if out.requires_grad else None
        return out
    a, b = as_tensor(a), as_tensor(b)
    _check_same_shape(a, b, "mul")
    out = _result(a.data * b.data, (a, b), None)

    def back():
        _accum(a, out.grad * b.data)
        _accum(b, out.grad * a.data)

    out._backward = back if out.requires_grad else None
    return out


def div0(a: Tensor, b: Tensor) -> Tensor:
    """Division of two scalar (0-d or size-1) tensors."""
    if a.data.size != 1 or b.data.size != 1:
        raise InputError("div0 operates on scalar tensors")
    out = _result(a.data / b.data, (a, b), None)

    def back():
        _accum(a, out.grad / b.data)
        _accum(b, -out.grad * a.data / (b.data * b.data))

    out._backward = back if out.requires_grad else None
    return out


def tsum(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out = _result(np.asarray(a.data.sum()), (a,), None)

    def back():
        _accum(a, np.full_like(a.data, float(out.grad)))

    out._backward = back if out.requires_grad else None
    return out


def leaky_relu(a: Tensor, slope: float = 0.01) -> Tensor:
    a = as_tensor(a)
    pos = a.data > 0
    out = _result(np.where(pos, a.data, slope * a.data), (a,), None)

    def back():
        _accum(a, out.grad * np.where(pos, 1.0, slope))

    out._backward = back if out.requires_grad else None
    return out


def concat(tensors, axis: int = 1) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise InputError("concat needs at least one tensor")
    out = _result(np.concatenate([t.data for t in tensors], axis=axis), tensors, None)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def back():
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * out.grad.ndim
            sl[axis] = slice(lo, hi)
            _accum(t, out.grad[tuple(sl)])

    out._backward = back if out.requires_grad else None
    return out


def take_channel(a: Tensor, channel: int) -> Tensor:
    """Select one channel of a (B, C, Z, Y, X) tensor, keeping the axis."""
    a = as_tensor(a)
    if a.data.ndim != 5:
        raise InputError(f"take_channel expects 5-d tensor, got {a.data.shape}")
    c = int(channel)
    if not 0 <= c < a.data.shape[1]:
        raise InputError(f"channel {c} out of range for {a.data.shape[1]} channels")
    out = _result(a.data[:, c : c + 1].copy(), (a,), None)

    def back():
        g = np.zeros_like(a.data)
        g[:, c : c + 1] = out.grad
        _accum(a, g)

    out._backward = back if out.requires_grad else None
    return out


def softmax_channels(a: Tensor) -> Tensor:
    """Numerically stable softmax across axis 1."""
    a = as_tensor(a)
    z = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=1, keepdims=True)
    out = _result(s, (a,), None)

    def back():
        g = out.grad
        dot = (g * s).sum(axis=1, keepdims=True)
        _accum(a, s * (g - dot))

    out._backward = back if out.requires_grad else None
    return out
