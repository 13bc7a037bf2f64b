"""Reverse-mode automatic differentiation on N-d numpy arrays.

The engine is a Wengert tape: every operation appends one node to the
active Graph, so node inputs always precede the node (topological order
by construction).  Backward rules are themselves written with the public
ops; running backward with ``create_graph`` therefore records the
backward pass onto the same tape and the returned gradients are
differentiable tensors.  That one mechanism provides the second-order
derivatives the gradient penalty needs.  ``create_graph`` names the
leaves to differentiate with respect to: the penalty passes ``(xhat,)``,
so the critic's parameter gradients, which it would throw away, are
neither computed nor recorded.

Fused ops (conv2d, prelu, layer_norm) are one node each: the forward
runs in numpy, and the backward rule re-derives in graph ops whatever a
recorded backward must differentiate again.

A first-order backward (no ``create_graph``) consumes the tape and
releases its nodes.  Each node's backward rule closes over its input
tensors and every tensor points back to its graph, so a live tape is a
reference cycle; emptying it lets reference counting free the saved
activations as soon as the gradients are taken, not at the next cyclic
garbage collection.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np


class ShapeMismatch(ValueError):
    """Operand shapes are not compatible for the requested op."""


class NotScalar(ValueError):
    """backward() was asked to differentiate a non-scalar tensor."""


class DeadGraph(RuntimeError):
    """The graph was already consumed by a backward() without create_graph."""


class GraphMismatch(RuntimeError):
    """A non-leaf tensor from one graph was used inside another graph."""


_DTYPES = {"single": np.float32, "double": np.float64}


class Node:
    """One tape entry: op id, input node handles, and the saved backward rule."""

    __slots__ = ("op", "input_ids", "needs", "vjp", "leaf")

    def __init__(self, op, input_ids, needs, vjp, leaf=None):
        self.op = op
        self.input_ids = input_ids      # handles of inputs; always < own index
        self.needs = needs              # which inputs want a gradient
        self.vjp = vjp                  # out-grad -> tuple of input grads
        self.leaf = leaf                # the Tensor itself, for leaf nodes


class Graph:
    """Append-only tape confined to one thread.

    Acts as a context manager; ops executed inside record onto it.  A
    backward() without create_graph marks the graph dead and empties
    ``nodes``, releasing every saved value; a later backward() on it
    raises DeadGraph.  Ops recorded outside any ``with Graph()`` block go
    to a per-thread implicit graph, which is replaced by a fresh one once
    a backward() has consumed it.
    """

    __slots__ = ("nodes", "precision", "dead")

    def __init__(self, precision: str = "single"):
        if precision not in _DTYPES:
            raise ValueError(f"unknown precision {precision!r}")
        self.nodes: list[Node] = []
        self.precision = precision
        self.dead = False

    @property
    def dtype(self):
        return _DTYPES[self.precision]

    def append(self, node: Node) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def __enter__(self) -> "Graph":
        _state().stack.append(self)
        return self

    def __exit__(self, *exc):
        _state().stack.pop()
        return False


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[Graph] = []
        self.implicit: Graph | None = None
        self.grad_enabled = True


_TLS = _ThreadState()


def _state() -> _ThreadState:
    return _TLS


def active_graph() -> Graph:
    """The innermost ``with Graph()`` block, else the thread's implicit graph."""
    st = _state()
    if st.stack:
        return st.stack[-1]
    if st.implicit is None or st.implicit.dead:
        st.implicit = Graph()
    return st.implicit


class Tensor:
    """Shape-carrying real array, optionally attached to the active graph."""

    __slots__ = ("data", "requires_grad", "graph", "node", "is_leaf")

    def __init__(self, data: np.ndarray, requires_grad: bool = False):
        self.data = data
        self.requires_grad = requires_grad
        self.graph: Graph | None = None
        self.node: int | None = None
        self.is_leaf = True

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"

    # arithmetic sugar; scalars are accepted on either side
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def sum(self, axes=None, keepdims=False):
        return tsum(self, axes, keepdims)

    def mean(self, axes=None, keepdims=False):
        return tmean(self, axes, keepdims)

    def reshape(self, shape):
        return reshape(self, shape)


def tensor(data, requires_grad: bool = False, dtype=None) -> Tensor:
    """Wrap data as a leaf tensor.

    Lists, scalars and non-float arrays are cast to the active graph's
    precision unless an explicit dtype is given; float32/float64 arrays
    keep their dtype.
    """
    if isinstance(data, Tensor):
        raise TypeError("data is already a Tensor; use detach() to re-leaf it")
    arr = np.asarray(data)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(active_graph().dtype)
    return Tensor(arr, requires_grad=requires_grad)


def _coerce(x, like: Tensor) -> Tensor:
    """Turn a python scalar into a 0-d constant of the companion dtype."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _register(t: Tensor, g: Graph) -> int:
    """Ensure t has a node handle in g, creating a leaf entry if needed."""
    if t.graph is g and t.node is not None:
        return t.node
    if not t.is_leaf and t.requires_grad:
        raise GraphMismatch(
            "a non-leaf tensor from another graph was used here; detach() it first"
        )
    t.graph = g
    t.node = g.append(Node("leaf", (), (), None, leaf=t))
    return t.node


def _apply(op: str, out_data: np.ndarray, inputs: Sequence[Tensor],
           vjp: Callable) -> Tensor:
    """Create the result tensor, recording a node when gradients may flow."""
    st = _state()
    requires = st.grad_enabled and any(i.requires_grad for i in inputs)
    out = Tensor(out_data, requires_grad=requires)
    if requires:
        g = active_graph()
        input_ids = tuple(_register(i, g) for i in inputs)
        needs = tuple(i.requires_grad for i in inputs)
        out.is_leaf = False
        out.graph = g
        out.node = g.append(Node(op, input_ids, needs, vjp))
    return out


def _check_same_dtype(*ts: Tensor):
    d0 = ts[0].data.dtype
    for t in ts[1:]:
        if t.data.dtype != d0:
            raise TypeError(f"mixed dtypes {d0} and {t.data.dtype} in one op")


# ---------------------------------------------------------------------------
# broadcasting (deliberately narrow: equal shapes, scalar, or suffix match)
# ---------------------------------------------------------------------------

def _broadcast_shape(sa: tuple, sb: tuple) -> tuple:
    if sa == sb:
        return sa
    if sa == ():
        return sb
    if sb == ():
        return sa
    if len(sa) >= len(sb) and sa[len(sa) - len(sb):] == sb:
        return sa
    if len(sb) > len(sa) and sb[len(sb) - len(sa):] == sa:
        return sb
    raise ShapeMismatch(f"shapes {sa} and {sb} do not broadcast")


def _unbroadcast(g: Tensor, shape: tuple) -> Tensor:
    """Reduce an output-shaped gradient back to an operand's shape."""
    if g.shape == shape:
        return g
    if shape == ():
        return tsum(g)
    lead = tuple(range(g.ndim - len(shape)))
    return tsum(g, axes=lead)


# ---------------------------------------------------------------------------
# elementwise primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    if not isinstance(a, Tensor):
        a = _coerce(a, b)
    b = _coerce(b, a)
    _check_same_dtype(a, b)
    _broadcast_shape(a.shape, b.shape)

    def vjp(g, needs):
        return (_unbroadcast(g, a.shape) if needs[0] else None,
                _unbroadcast(g, b.shape) if needs[1] else None)

    return _apply("add", a.data + b.data, (a, b), vjp)


def sub(a, b) -> Tensor:
    if not isinstance(a, Tensor):
        a = _coerce(a, b)
    b = _coerce(b, a)
    _check_same_dtype(a, b)
    _broadcast_shape(a.shape, b.shape)

    def vjp(g, needs):
        return (_unbroadcast(g, a.shape) if needs[0] else None,
                _unbroadcast(neg(g), b.shape) if needs[1] else None)

    return _apply("sub", a.data - b.data, (a, b), vjp)


def mul(a, b) -> Tensor:
    if not isinstance(a, Tensor):
        a = _coerce(a, b)
    b = _coerce(b, a)
    _check_same_dtype(a, b)
    _broadcast_shape(a.shape, b.shape)

    def vjp(g, needs):
        return (_unbroadcast(mul(g, b), a.shape) if needs[0] else None,
                _unbroadcast(mul(g, a), b.shape) if needs[1] else None)

    return _apply("mul", a.data * b.data, (a, b), vjp)


def div(a, b) -> Tensor:
    if not isinstance(a, Tensor):
        a = _coerce(a, b)
    b = _coerce(b, a)
    _check_same_dtype(a, b)
    _broadcast_shape(a.shape, b.shape)

    def vjp(g, needs):
        da = _unbroadcast(div(g, b), a.shape) if needs[0] else None
        db = None
        if needs[1]:
            db = _unbroadcast(neg(div(mul(g, a), square(b))), b.shape)
        return (da, db)

    return _apply("div", a.data / b.data, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    def vjp(g, needs):
        return (neg(g),)

    return _apply("neg", -a.data, (a,), vjp)


def square(a: Tensor) -> Tensor:
    def vjp(g, needs):
        return (mul(mul(g, 2.0), a),)

    return _apply("square", np.square(a.data), (a,), vjp)


def sqrt(a: Tensor) -> Tensor:
    out_ref = []

    def vjp(g, needs):
        return (div(mul(g, 0.5), out_ref[0]),)

    out = _apply("sqrt", np.sqrt(a.data), (a,), vjp)
    out_ref.append(out)
    return out


def tanh(a: Tensor) -> Tensor:
    out_ref = []

    def vjp(g, needs):
        return (mul(g, sub(1.0, square(out_ref[0]))),)

    out = _apply("tanh", np.tanh(a.data), (a,), vjp)
    out_ref.append(out)
    return out


# ---------------------------------------------------------------------------
# reductions and structure
# ---------------------------------------------------------------------------

def _norm_axes(axes, ndim) -> tuple[int, ...]:
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    return tuple(a % ndim for a in axes)


def tsum(a: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    ax = _norm_axes(axes, a.ndim)
    kshape = tuple(1 if i in ax else d for i, d in enumerate(a.shape))

    def vjp(g, needs):
        gk = g if keepdims or a.ndim == 0 else reshape(g, kshape)
        return (expand(gk, a.shape),)

    return _apply("sum", a.data.sum(axis=ax or None, keepdims=keepdims), (a,), vjp)


def tmean(a: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    ax = _norm_axes(axes, a.ndim)
    count = 1
    for i in ax:
        count *= a.shape[i]
    return mul(tsum(a, axes, keepdims), 1.0 / count)


def reshape(a: Tensor, shape) -> Tensor:
    if not isinstance(shape, (tuple, list)):
        shape = (shape,)
    shape = tuple(int(s) for s in shape)
    out_data = a.data.reshape(shape)

    def vjp(g, needs):
        return (reshape(g, a.shape),)

    return _apply("reshape", out_data, (a,), vjp)


def permute(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    axes = tuple(axes)

    def vjp(g, needs):
        return (permute(g, tuple(sorted(range(len(axes)), key=axes.__getitem__))),)

    return _apply("permute", a.data.transpose(axes), (a,), vjp)


def transpose2d(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeMismatch(f"transpose2d expects a matrix, got shape {a.shape}")
    return permute(a, (1, 0))


def expand(a: Tensor, shape) -> Tensor:
    """Broadcast a up to shape; new or size-1 axes may be stretched."""
    shape = tuple(int(s) for s in shape)
    if a.shape == shape:
        return a
    pad = len(shape) - a.ndim
    if pad < 0:
        raise ShapeMismatch(f"cannot expand {a.shape} to {shape}")
    src = (1,) * pad + a.shape
    axes = []
    for i, (s, t) in enumerate(zip(src, shape)):
        if s == t:
            continue
        if s == 1:
            axes.append(i)
        else:
            raise ShapeMismatch(f"cannot expand {a.shape} to {shape}")
    axes = tuple(axes)

    def vjp(g, needs):
        r = tsum(g, axes=axes, keepdims=True)
        return (reshape(r, a.shape),)

    out_data = np.broadcast_to(a.data.reshape(src), shape)
    return _apply("expand", out_data, (a,), vjp)


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; also accepts a leading batch axis on a (and then b).

    [m,k]@[k,n], [B,m,k]@[k,n] and [B,m,k]@[B,k,n] are supported.  Batched
    forms run one GEMM per sample, so each sample's result is independent
    of its position in the batch.
    """
    if a.ndim == 2 and b.ndim == 2:
        if a.shape[1] != b.shape[0]:
            raise ShapeMismatch(f"inner dims differ: {a.shape} x {b.shape}")

        def vjp(g, needs):
            da = matmul(g, transpose2d(b)) if needs[0] else None
            db = matmul(transpose2d(a), g) if needs[1] else None
            return (da, db)

    elif a.ndim == 3 and b.ndim == 2:
        if a.shape[2] != b.shape[0]:
            raise ShapeMismatch(f"inner dims differ: {a.shape} x {b.shape}")

        def vjp(g, needs):
            da = matmul(g, transpose2d(b)) if needs[0] else None
            db = None
            if needs[1]:
                db = tsum(matmul(permute(a, (0, 2, 1)), g), axes=(0,))
            return (da, db)

    elif a.ndim == 3 and b.ndim == 3:
        if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
            raise ShapeMismatch(f"batched shapes differ: {a.shape} x {b.shape}")

        def vjp(g, needs):
            da = matmul(g, permute(b, (0, 2, 1))) if needs[0] else None
            db = matmul(permute(a, (0, 2, 1)), g) if needs[1] else None
            return (da, db)

    else:
        raise ShapeMismatch(f"matmul cannot combine {a.shape} x {b.shape}")
    _check_same_dtype(a, b)
    return _apply("matmul", np.matmul(a.data, b.data), (a, b), vjp)


# ---------------------------------------------------------------------------
# spatial primitives (3x3 windows, pad 1, stride 1 or 2)
# ---------------------------------------------------------------------------

def _out_hw(h: int, w: int, stride: int) -> tuple[int, int]:
    return -(-h // stride), -(-w // stride)


def _unfold_data(x: np.ndarray, stride: int) -> np.ndarray:
    b, c, h, w = x.shape
    h2, w2 = _out_hw(h, w, stride)
    xp = np.zeros((b, c, h + 2, w + 2), dtype=x.dtype)
    xp[:, :, 1:h + 1, 1:w + 1] = x
    cols = np.empty((b, c, 3, 3, h2, w2), dtype=x.dtype)
    for i in range(3):
        for j in range(3):
            cols[:, :, i, j] = xp[:, :, i:i + stride * h2:stride, j:j + stride * w2:stride]
    return cols.reshape(b, c * 9, h2 * w2)


def _fold_data(cols: np.ndarray, hw: tuple[int, int], stride: int) -> np.ndarray:
    b = cols.shape[0]
    c = cols.shape[1] // 9
    h, w = hw
    h2, w2 = _out_hw(h, w, stride)
    six = cols.reshape(b, c, 3, 3, h2, w2)
    buf = np.zeros((b, c, h + 2, w + 2), dtype=cols.dtype)
    for i in range(3):
        for j in range(3):
            buf[:, :, i:i + stride * h2:stride, j:j + stride * w2:stride] += six[:, :, i, j]
    return buf[:, :, 1:h + 1, 1:w + 1]


def unfold3x3(a: Tensor, stride: int) -> Tensor:
    """Extract padded 3x3 patches: [B,C,H,W] -> [B, C*9, H2*W2]."""
    if a.ndim != 4:
        raise ShapeMismatch(f"unfold3x3 expects B,C,H,W, got {a.shape}")
    if stride not in (1, 2):
        raise ValueError("stride must be 1 or 2")
    hw = a.shape[2:]

    def vjp(g, needs):
        return (fold3x3(g, hw, stride),)

    return _apply("unfold3x3", _unfold_data(a.data, stride), (a,), vjp)


def fold3x3(cols: Tensor, hw: tuple[int, int], stride: int) -> Tensor:
    """Adjoint of unfold3x3: scatter-add patches back to [B,C,H,W]."""
    if cols.ndim != 3 or cols.shape[1] % 9:
        raise ShapeMismatch(f"fold3x3 expects B,C*9,P, got {cols.shape}")

    def vjp(g, needs):
        return (unfold3x3(g, stride),)

    return _apply("fold3x3", _fold_data(cols.data, tuple(hw), stride), (cols,), vjp)


def upsample2(a: Tensor) -> Tensor:
    """Nearest-neighbour 2x upsampling of the two trailing axes."""
    if a.ndim != 4:
        raise ShapeMismatch(f"upsample2 expects B,C,H,W, got {a.shape}")

    def vjp(g, needs):
        return (sumpool2(g),)

    return _apply("upsample2", a.data.repeat(2, axis=2).repeat(2, axis=3), (a,), vjp)


def sumpool2(a: Tensor) -> Tensor:
    """Sum over non-overlapping 2x2 cells (adjoint of upsample2)."""
    b, c, h, w = a.shape
    if h % 2 or w % 2:
        raise ShapeMismatch(f"sumpool2 needs even spatial dims, got {a.shape}")
    out = a.data.reshape(b, c, h // 2, 2, w // 2, 2).sum(axis=(3, 5))

    def vjp(g, needs):
        return (upsample2(g),)

    return _apply("sumpool2", out, (a,), vjp)


def subsample2(a: Tensor) -> Tensor:
    """Keep even-index rows/cols (spatial stride-2 identity)."""
    if a.ndim != 4:
        raise ShapeMismatch(f"subsample2 expects B,C,H,W, got {a.shape}")
    hw = a.shape[2:]

    def vjp(g, needs):
        return (spread2(g, hw),)

    return _apply("subsample2", np.ascontiguousarray(a.data[:, :, ::2, ::2]), (a,), vjp)


def spread2(a: Tensor, hw: tuple[int, int]) -> Tensor:
    """Adjoint of subsample2: embed values at even indices of an HxW map."""
    h, w = hw

    def vjp(g, needs):
        return (subsample2(g),)

    b, c = a.shape[:2]
    out = np.zeros((b, c, h, w), dtype=a.data.dtype)
    out[:, :, ::2, ::2] = a.data
    return _apply("spread2", out, (a,), vjp)


# ---------------------------------------------------------------------------
# fused network ops with composite (therefore differentiable) backward rules
# ---------------------------------------------------------------------------

def conv2d(x: Tensor, w: Tensor, b: Tensor | None, stride: int = 1) -> Tensor:
    """3x3 cross-correlation, pad 1, stride 1 or 2.

    x: [B,C,H,W], w: [F,C,3,3], b: [F] or None -> [B,F,ceil(H/s),ceil(W/s)]
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeMismatch(f"conv2d expects 4-d input and weight, got {x.shape}, {w.shape}")
    if w.shape[2:] != (3, 3):
        raise ShapeMismatch(f"conv2d kernels are fixed at 3x3, got {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeMismatch(f"channel mismatch: input {x.shape[1]}, weight {w.shape[1]}")
    if stride not in (1, 2):
        raise ValueError("stride must be 1 or 2")
    _check_same_dtype(x, w)

    bsz, c, h, wd = x.shape
    f = w.shape[0]
    h2, w2 = _out_hw(h, wd, stride)
    cols = _unfold_data(x.data, stride)                     # B, C9, P
    wm = w.data.reshape(f, c * 9)
    out_data = np.matmul(wm[None], cols).reshape(bsz, f, h2, w2)
    if b is not None:
        if b.shape != (f,):
            raise ShapeMismatch(f"bias shape {b.shape} != ({f},)")
        out_data = out_data + b.data[None, :, None, None]

    def vjp(g, needs):
        p = h2 * w2
        g2 = reshape(permute(g, (1, 0, 2, 3)), (f, bsz * p))
        dx = dw = db = None
        if needs[0]:
            wm_t = reshape(w, (f, c * 9))
            dcols = matmul(transpose2d(wm_t), g2)           # C9, B*P
            dcols = permute(reshape(dcols, (c * 9, bsz, p)), (1, 0, 2))
            dx = fold3x3(dcols, (h, wd), stride)
        if needs[1]:
            cols_t = unfold3x3(x, stride)                   # recompute as graph op
            cols2 = reshape(permute(cols_t, (1, 0, 2)), (c * 9, bsz * p))
            dw = reshape(matmul(g2, transpose2d(cols2)), (f, c, 3, 3))
        if len(needs) > 2 and needs[2]:
            db = tsum(g, axes=(0, 2, 3))
        return (dx, dw, db) if b is not None else (dx, dw)

    inputs = (x, w) if b is None else (x, w, b)
    return _apply("conv2d", out_data, inputs, vjp)


def prelu(x: Tensor, a: Tensor) -> Tensor:
    """Parametric ReLU; a is one slope per channel (axis 1) or a scalar."""
    if a.ndim == 0:
        bshape = (1,) * x.ndim
        reduce_axes = tuple(range(x.ndim))
    elif a.ndim == 1:
        if x.ndim < 2 or a.shape[0] != x.shape[1]:
            raise ShapeMismatch(f"slope count {a.shape} != channels of {x.shape}")
        bshape = (1, a.shape[0]) + (1,) * (x.ndim - 2)
        reduce_axes = tuple(i for i in range(x.ndim) if i != 1)
    else:
        raise ShapeMismatch(f"prelu slopes must be scalar or per-channel, got {a.shape}")
    _check_same_dtype(x, a)

    xd = x.data
    out_data = np.where(xd >= 0, xd, a.data.reshape(bshape) * xd)

    def vjp(g, needs):
        pos = xd >= 0
        posm = Tensor(pos.astype(xd.dtype))
        negm = Tensor((~pos).astype(xd.dtype))
        dx = da = None
        a_full = expand(reshape(a, bshape), x.shape)
        if needs[0]:
            dx = mul(g, add(posm, mul(negm, a_full)))
        if needs[1]:
            da = tsum(mul(mul(g, negm), x), axes=reduce_axes, keepdims=False)
            if a.ndim == 0:
                da = reshape(da, ())
        return (dx, da)

    return _apply("prelu", out_data, (x, a), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each sample over all non-batch axes, then apply affine.

    gain and bias must have shape x.shape[1:].  One node: the forward runs
    in numpy with the float operations of the composite mean / centre /
    variance / sqrt / divide / affine chain, so its output is bitwise what
    that chain gives.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    feat = x.shape[1:]
    if gain.shape != feat or bias.shape != feat:
        raise ShapeMismatch(
            f"gain/bias {gain.shape}/{bias.shape} do not match normalized extent {feat}")
    _check_same_dtype(x, gain, bias)
    axes = tuple(range(1, x.ndim))
    bshape = (1,) + feat
    xd = x.data
    inv_count = np.asarray(1.0 / math.prod(feat), dtype=xd.dtype)
    xc = xd - xd.sum(axis=axes, keepdims=True) * inv_count
    std = np.sqrt(np.square(xc).sum(axis=axes, keepdims=True) * inv_count
                  + np.asarray(eps, dtype=xd.dtype))
    xn = xc / std
    out_data = xn * gain.data.reshape(bshape) + bias.data.reshape(bshape)

    def vjp(g, needs):
        if _state().grad_enabled and x.requires_grad:
            # a recorded backward must stay differentiable in x: re-derive
            # the normalized input as graph ops, as conv2d re-records unfold3x3
            xc_t = sub(x, expand(tmean(x, axes, keepdims=True), x.shape))
            std_t = expand(sqrt(add(tmean(square(xc_t), axes, keepdims=True), eps)),
                           x.shape)
            xn_t = div(xc_t, std_t)
        else:
            xn_t, std_t = Tensor(xn), Tensor(np.broadcast_to(std, x.shape))
        dx = dgain = dbias = None
        if needs[0]:
            # d/dx of (x - mean) / std: centre the output gradient, remove
            # its component along xn, divide by std
            dxn = mul(g, expand(reshape(gain, bshape), x.shape))
            proj = mul(xn_t, expand(tmean(mul(dxn, xn_t), axes, keepdims=True), x.shape))
            dx = div(sub(sub(dxn, expand(tmean(dxn, axes, keepdims=True), x.shape)), proj),
                     std_t)
        if needs[1]:
            dgain = tsum(mul(g, xn_t), axes=(0,))
        if needs[2]:
            dbias = tsum(g, axes=(0,))
        return (dx, dgain, dbias)

    return _apply("layer_norm", out_data, (x, gain, bias), vjp)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def backward(loss: Tensor, create_graph=False) -> dict[Tensor, Tensor]:
    """Accumulate d(loss)/d(leaf) for every reachable requires_grad leaf.

    Returns a map keyed by leaf tensor.  A first-order call
    (create_graph=False) consumes the graph: it is marked dead and its
    nodes are released, so the activations they saved are freed once the
    caller drops its own references.

    Otherwise create_graph names the leaves to differentiate with respect
    to, e.g. ``create_graph=(xhat,)``.  The backward pass is then recorded
    onto the same tape, so the returned gradients are graph tensors, and
    the tape stays alive.  Only nodes that depend on those leaves are
    visited and only their input gradients computed, and the map holds
    only those leaves: gradients nobody asked for are neither computed nor
    recorded.
    """
    if loss.data.size != 1:
        raise NotScalar(f"loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad or loss.graph is None:
        return {}
    g = loss.graph
    if g.dead:
        raise DeadGraph("graph already consumed by a previous backward()")

    nodes = g.nodes
    start = loss.node
    reach = bytearray(start + 1)
    reach[start] = 1
    for i in range(start, -1, -1):
        if reach[i]:
            for j in nodes[i].input_ids:
                reach[j] = 1
    record = create_graph is not False
    depends = None
    if record:
        if create_graph is True:
            raise TypeError("create_graph takes the leaves to differentiate "
                            "with respect to, e.g. create_graph=(x,)")
        # restrict to the nodes that depend on the requested leaves; inputs
        # precede their node, so one forward sweep settles every node
        depends = bytearray(start + 1)
        for leaf in create_graph:
            if leaf.graph is g and leaf.node is not None and leaf.node <= start:
                depends[leaf.node] = 1
        for i in range(start + 1):
            if reach[i] and not depends[i]:
                depends[i] = any(depends[j] for j in nodes[i].input_ids)
        reach = depends

    grads: dict[int, Tensor] = {start: Tensor(np.ones((), dtype=loss.data.dtype))}
    if loss.shape != ():
        grads[start] = Tensor(np.ones(loss.shape, dtype=loss.data.dtype))
    result: dict[Tensor, Tensor] = {}

    st = _state()
    st.stack.append(g)
    prev_mode = st.grad_enabled
    st.grad_enabled = record
    try:
        for i in range(start, -1, -1):
            if not reach[i] or i not in grads:
                continue
            node = nodes[i]
            gi = grads.pop(i)
            if node.vjp is None:
                leaf = node.leaf
                if leaf is not None and leaf.requires_grad:
                    result[leaf] = gi
                continue
            needs = node.needs
            if depends is not None:
                needs = tuple(n and depends[j] == 1
                              for n, j in zip(needs, node.input_ids))
            for j, dj in zip(node.input_ids, node.vjp(gi, needs)):
                if dj is None:
                    continue
                acc = grads.get(j)
                grads[j] = dj if acc is None else add(acc, dj)
    finally:
        st.grad_enabled = prev_mode
        st.stack.pop()

    if not record:
        g.dead = True
        nodes.clear()
    return result
