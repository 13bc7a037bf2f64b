"""Reverse-mode automatic differentiation on N-d numpy arrays.

The engine is a Wengert tape: every operation a gradient flows through
appends one node to the active Graph, so node inputs always precede the
node (topological order by construction).  Constants (no requires_grad)
are not on the tape: an op on constants alone makes no node, and a
constant input of a recorded op has the handle None, not a leaf node.
Biases and gains reach their outputs by the suffix broadcasting of add
and mul, and matmul has one backward rule for every operand form.  Ops
are this module's functions (add, mul, tsum, ...); a Tensor has no
operator overloads, and item() is its one method.  Each op computes in
the dtype of its operands, which must agree, so the tape carries no
precision of its own.  There is no implicit tape: an op on a
requires_grad tensor must run inside a ``with Graph()`` block, and a
leaf is made one way, ``Tensor(data, requires_grad)``.

Backward rules are themselves written with the public ops; running
backward with ``create_graph`` therefore records the backward pass onto
the same tape and the returned gradients are differentiable tensors.
That one mechanism provides the second-order derivatives the gradient
penalty needs.  ``create_graph`` names the leaves to differentiate with
respect to: the penalty passes ``(xhat,)``, so the critic's parameter
gradients, which it would throw away, are neither computed nor recorded.

Fused ops (conv2d, prelu, layer_norm) are one node each: the forward
runs in numpy, and the backward rule re-derives in graph ops whatever a
recorded backward must differentiate again.  A first-order backward needs
no graph, so conv2d's runs on numpy kernels directly.  Those kernels
work on one zero-padded, channel-major grid (see _Geometry) in which
each of the nine 3x3 taps is a fixed offset: im2col is one long-run copy
per sample, col2im nine contiguous adds, and the weight gradient nine
GEMMs against the grid itself.  The forward keeps one GEMM per sample,
so a sample's output does not depend on the rest of its batch.
unfold3x3 and fold3x3, the adjoint pair a recorded backward
differentiates, run on the same kernels; the stride is a parameter of
the grid, not a second implementation.

A first-order backward (no ``create_graph``) consumes the tape and
releases its nodes.  Each node's backward rule closes over its input
tensors and every tensor points back to its graph, so a live tape is a
reference cycle; emptying it lets reference counting free the saved
activations as soon as the gradients are taken, not at the next cyclic
garbage collection.
"""

from __future__ import annotations

import functools
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


class NoGraph(RuntimeError):
    """An op on a requires_grad tensor ran outside any ``with Graph()`` block."""


class Node:
    """One tape entry: op id, input node handles, and the saved backward rule.

    Only inputs a gradient flows to are on the tape: a constant input (no
    requires_grad) has the handle None, and an input wants a gradient
    exactly when its handle is not None.
    """

    __slots__ = ("op", "input_ids", "vjp", "leaf")

    def __init__(self, op, input_ids, vjp, leaf=None):
        self.op = op
        self.input_ids = input_ids      # handles of inputs (< own index) or None
        self.vjp = vjp                  # out-grad -> tuple of input grads
        self.leaf = leaf                # the Tensor itself, for leaf nodes


class Graph:
    """Append-only tape confined to one thread, with no settings of its own.

    Acts as a context manager; ops of any dtype executed inside record
    onto it, and an op that needs recording outside every block raises
    NoGraph.  A backward() without create_graph marks the graph dead and
    empties ``nodes``, releasing every saved value; a later backward() on
    it raises DeadGraph.
    """

    __slots__ = ("nodes", "dead")

    def __init__(self):
        self.nodes: list[Node] = []
        self.dead = False

    def append(self, node: Node) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def __enter__(self) -> "Graph":
        _TLS.stack.append(self)
        return self

    def __exit__(self, *exc):
        _TLS.stack.pop()
        return False


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[Graph] = []
        self.grad_enabled = True


_TLS = _ThreadState()


class Tensor:
    """Shape-carrying real array; a leaf, or the output of an op on a Graph."""

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

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


def _register(t: Tensor, g: Graph) -> int:
    """Ensure t has a node handle in g, creating a leaf entry if needed."""
    if t.graph is g and t.node is not None:
        return t.node
    if not t.is_leaf and t.requires_grad:
        raise GraphMismatch("a non-leaf tensor from another graph was used here; "
                            "use Tensor(t.data) to make its value a constant")
    t.graph = g
    t.node = g.append(Node("leaf", (), None, leaf=t))
    return t.node


def _apply(op: str, out_data: np.ndarray, inputs: Sequence[Tensor],
           vjp: Callable) -> Tensor:
    """Create the result tensor, recording a node when gradients may flow."""
    st = _TLS
    requires = st.grad_enabled and any(i.requires_grad for i in inputs)
    out = Tensor(out_data, requires_grad=requires)
    if requires:
        if not st.stack:
            raise NoGraph(f"{op} on a requires_grad tensor must run inside a "
                          "`with Graph()` block")
        g = st.stack[-1]
        input_ids = tuple(_register(i, g) if i.requires_grad else None for i in inputs)
        out.is_leaf = False
        out.graph = g
        out.node = g.append(Node(op, input_ids, vjp))
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


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """A python scalar on either side becomes a 0-d constant of the other's dtype."""
    if not isinstance(a, Tensor):
        a = Tensor(np.asarray(a, dtype=b.data.dtype))
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.data.dtype))
    _check_same_dtype(a, b)
    _broadcast_shape(a.shape, b.shape)
    return a, b


# ---------------------------------------------------------------------------
# elementwise primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _operands(a, b)

    def vjp(g, needs):
        return (_unbroadcast(g, a.shape) if needs[0] else None,
                _unbroadcast(g, b.shape) if needs[1] else None)

    return _apply("add", a.data + b.data, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)

    def vjp(g, needs):
        return (_unbroadcast(g, a.shape) if needs[0] else None,
                _unbroadcast(neg(g), b.shape) if needs[1] else None)

    return _apply("sub", a.data - b.data, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)

    def vjp(g, needs):
        return (_unbroadcast(mul(g, b), a.shape) if needs[0] else None,
                _unbroadcast(mul(g, a), b.shape) if needs[1] else None)

    return _apply("mul", a.data * b.data, (a, b), vjp)


def div(a, b) -> Tensor:
    a, b = _operands(a, b)

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
    return tuple(a % ndim for a in axes)


def tsum(a: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    ax = _norm_axes(axes, a.ndim)
    kshape = tuple(1 if i in ax else d for i, d in enumerate(a.shape))

    def vjp(g, needs):
        gk = g if keepdims or a.ndim == 0 else reshape(g, kshape)
        return (expand(gk, a.shape),)

    return _apply("sum", a.data.sum(axis=ax or None, keepdims=keepdims), (a,), vjp)


def tmean(a: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    count = math.prod(a.shape[i] for i in _norm_axes(axes, a.ndim))
    return mul(tsum(a, axes, keepdims), 1.0 / count)


def reshape(a: Tensor, shape: tuple) -> Tensor:
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

    return _apply("expand", _broadcast(a.data.reshape(src), shape), (a,), vjp)


def _broadcast(base: np.ndarray, shape: tuple) -> np.ndarray:
    """np.broadcast_to(base, shape) for a base of the same rank."""
    if not (base.flags.c_contiguous or base.flags.f_contiguous):
        return np.broadcast_to(base, shape)
    return _view(base, shape, tuple(st if s == t else 0
                                    for s, t, st in zip(base.shape, shape, base.strides)))


def _view(base: np.ndarray, shape, strides, offset: int = 0) -> np.ndarray:
    """Read-only view of a contiguous array's memory; strides and offset in bytes.

    The ndarray constructor is what np.broadcast_to and as_strided arrive
    at through several Python-level calls; numpy still checks that the
    view stays inside base.
    """
    out = np.ndarray(shape, base.dtype, base, offset, strides)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def _swap_last2(a: Tensor) -> Tensor:
    """Transpose the two trailing axes (the matrices of a batch)."""
    n = a.ndim
    return permute(a, tuple(range(n - 2)) + (n - 1, n - 2))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; also accepts a leading batch axis on either operand.

    [m,k]@[k,n], [B,m,k]@[k,n], [m,k]@[B,k,n] and [B,m,k]@[B,k,n] are
    supported.  Batched forms run one GEMM per sample, so each sample's
    result is independent of its position in the batch.  One backward
    rule serves all four: g @ b^T and a^T @ g, summed over the batch axis
    for an operand that had none.
    """
    if a.ndim not in (2, 3) or b.ndim not in (2, 3):
        raise ShapeMismatch(f"matmul cannot combine {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch(f"inner dims differ: {a.shape} x {b.shape}")
    if a.ndim == 3 and b.ndim == 3 and a.shape[0] != b.shape[0]:
        raise ShapeMismatch(f"batched shapes differ: {a.shape} x {b.shape}")
    _check_same_dtype(a, b)

    def vjp(g, needs):
        da = _unbroadcast(matmul(g, _swap_last2(b)), a.shape) if needs[0] else None
        db = _unbroadcast(matmul(_swap_last2(a), g), b.shape) if needs[1] else None
        return (da, db)

    return _apply("matmul", np.matmul(a.data, b.data), (a, b), vjp)


# ---------------------------------------------------------------------------
# spatial primitives (3x3 windows, pad 1, stride 1 or 2)
# ---------------------------------------------------------------------------

def _out_hw(h: int, w: int, stride: int) -> tuple[int, int]:
    return -(-h // stride), -(-w // stride)


class _Geometry:
    """Where a [B,C,H,W] input and its 3x3 taps sit on the padded grid.

    The grid is one zero array [C, s*s, B*S + tail], channel-major: for
    each channel, the s*s polyphase planes of the zero-padded input, each
    plane holding every sample's hg x wg block (S = hg*wg) in turn, with
    block (a, b) of a sample at [r, q] = padded[s*r + a, s*q + b].  At
    stride 1 the one plane is the padded input itself.  Tap (i, j) of
    output (y, x) reads plane (i % s, j % s) at (y + i//s, x + j//s), so in
    the flattened plane every tap is one fixed offset, and a sample's
    outputs are H2 rows of wg "wide" columns, of which the last wg - W2
    are never used.  A block leaves out the padded input's last row and
    column: a read past a row's end lands on the next row's left pad, and
    past a block's last row on the next block's top pad, which are the
    same zeros.  Columns, input gradients and weight gradients are then
    long contiguous runs of the grid at nine offsets; the stride changes
    the planes and offsets, not the kernels.
    """

    def __init__(self, shape: tuple, stride: int):
        b, c, h, w = shape
        s = stride
        self.b, self.c, self.h, self.w, self.s = b, c, h, w, s
        self.h2, self.w2 = _out_hw(h, w, s)
        self.hg, self.wg = -(-(h + 1) // s), -(-(w + 1) // s)
        self.plane = self.hg * self.wg
        # the wide columns of the whole batch: each sample's H2 rows, and
        # between two samples the rest of a block.  The weight gradient's
        # GEMMs reduce over them, and OpenBLAS blocks a reduction whose
        # length is not a multiple of 32 differently at different thread
        # counts; a multiple of 64 keeps results independent of the count.
        self.span = -(-((b - 1) * self.plane + self.h2 * self.wg) // 64) * 64
        reach = (2 // s) * (self.wg + 1) + self.span          # farthest tap read, exclusive
        self.tail = reach - b * self.plane
        self.taps = tuple((i, j, (i % s) * s + j % s, (i // s) * self.wg + j // s)
                          for i in range(3) for j in range(3))
        # per plane: its rows and columns that hold input, and the input they hold
        self.phases = tuple((a * s + b2, rows, cols, xrows, xcols)
                            for a, (rows, xrows) in enumerate(_phase_axis(h, s))
                            for b2, (cols, xcols) in enumerate(_phase_axis(w, s)))


def _phase_axis(n: int, s: int) -> list[tuple[slice, slice]]:
    """Per phase a of an input axis of length n: (plane indices, input indices)."""
    out = []
    for a in range(s):
        r0 = (s - a) // s                  # first plane index past the zero pad
        x0 = s * r0 + a - 1                # the input index it holds
        out.append((slice(r0, r0 + len(range(x0, n, s))), slice(x0, n, s)))
    return out


@functools.lru_cache(maxsize=256)
def _geometry(shape: tuple, stride: int) -> _Geometry:
    return _Geometry(shape, stride)


def _to_grid(x: np.ndarray, geo: _Geometry) -> np.ndarray:
    """Scatter [B,C,H,W] onto a fresh zero grid."""
    grid = np.zeros((geo.c, geo.s * geo.s, geo.b * geo.plane + geo.tail), dtype=x.dtype)
    xt = x.transpose(1, 0, 2, 3)
    for ph, rows, cols, xrows, xcols in geo.phases:
        planes = grid[:, ph, :geo.b * geo.plane].reshape(geo.c, geo.b, geo.hg, geo.wg)
        planes[:, :, rows, cols] = xt[:, :, xrows, xcols]
    return grid


def _from_grid(grid: np.ndarray, geo: _Geometry) -> np.ndarray:
    """Gather the input positions of a grid back to [B,C,H,W] (adjoint of _to_grid)."""
    out = np.empty((geo.b, geo.c, geo.h, geo.w), dtype=grid.dtype)
    ot = out.transpose(1, 0, 2, 3)
    for ph, rows, cols, xrows, xcols in geo.phases:
        planes = grid[:, ph, :geo.b * geo.plane].reshape(geo.c, geo.b, geo.hg, geo.wg)
        ot[:, :, xrows, xcols] = planes[:, :, rows, cols]
    return out


def _tap_views(grid: np.ndarray, geo: _Geometry, width: int) -> list:
    """Per plane: its tap rows and columns, and a view [B, C, taps_i, taps_j, H2, width].

    width = wg gives each sample's wide columns (the last two axes are one
    contiguous run), width = W2 the exact ones.
    """
    s, it = geo.s, grid.itemsize
    strides = (geo.plane * it, grid.strides[0], geo.wg * it, it, geo.wg * it, it)
    views = []
    for a in range(s):
        for b2 in range(s):
            shape = (geo.b, geo.c, len(range(a, 3, s)), len(range(b2, 3, s)), geo.h2, width)
            views.append((slice(a, 3, s), slice(b2, 3, s),
                          _view(grid, shape, strides, grid.strides[1] * (a * s + b2))))
    return views


def _col2im(dcols: np.ndarray, geo: _Geometry) -> np.ndarray:
    """Sum wide columns [C, 3, 3, span] onto the grid: nine contiguous adds, then a crop."""
    dgrid = np.zeros((geo.c, geo.s * geo.s, geo.b * geo.plane + geo.tail), dtype=dcols.dtype)
    for i, j, ph, off in geo.taps:
        dgrid[:, ph, off:off + geo.span] += dcols[:, i, j]
    return _from_grid(dgrid, geo)


def _wide(a: np.ndarray, geo: _Geometry) -> np.ndarray:
    """[B, K, H2, W2] -> [K, span]: the grid's wide columns, zero where unused."""
    k, n = a.shape[1], geo.b * geo.plane
    out = np.zeros((k, n + geo.tail), dtype=a.dtype)
    out[:, :n].reshape(k, geo.b, geo.hg, geo.wg)[:, :, :geo.h2, :geo.w2] = a.transpose(1, 0, 2, 3)
    return out[:, :geo.span]


def _check_stride(stride: int):
    if stride not in (1, 2):
        raise ValueError("stride must be 1 or 2")


def unfold3x3(a: Tensor, stride: int) -> Tensor:
    """Extract padded 3x3 patches: [B,C,H,W] -> [B, C*9, H2*W2].

    Built from the padded grid in one strided copy per polyphase plane
    (one at stride 1); row c*9 + 3*i + j holds tap (i, j) of channel c.
    """
    if a.ndim != 4:
        raise ShapeMismatch(f"unfold3x3 expects B,C,H,W, got {a.shape}")
    _check_stride(stride)
    hw = a.shape[2:]
    geo = _geometry(a.shape, stride)
    cols = np.empty((geo.b, geo.c, 3, 3, geo.h2, geo.w2), dtype=a.data.dtype)
    for ti, tj, view in _tap_views(_to_grid(a.data, geo), geo, geo.w2):
        cols[:, :, ti, tj] = view

    def vjp(g, needs):
        return (fold3x3(g, hw, stride),)

    return _apply("unfold3x3", cols.reshape(geo.b, geo.c * 9, geo.h2 * geo.w2), (a,), vjp)


def fold3x3(cols: Tensor, hw: tuple[int, int], stride: int) -> Tensor:
    """Adjoint of unfold3x3: scatter-add patches back to [B,C,H,W].

    The patches are laid out as the grid's wide columns and summed with
    the same nine adds that give conv2d its input gradient.
    """
    if cols.ndim != 3 or cols.shape[1] % 9:
        raise ShapeMismatch(f"fold3x3 expects B,C*9,P, got {cols.shape}")
    _check_stride(stride)
    hw = tuple(hw)
    bsz, k, _ = cols.shape
    geo = _geometry((bsz, k // 9) + hw, stride)
    wide = _wide(cols.data.reshape(bsz, k, geo.h2, geo.w2), geo)

    def vjp(g, needs):
        return (unfold3x3(g, stride),)

    return _apply("fold3x3", _col2im(wide.reshape(geo.c, 3, 3, geo.span), geo), (cols,), vjp)


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

    x is laid out once on the padded grid (see _Geometry).  The forward
    copies a sample's wide columns out of it, one long run per polyphase
    plane, and multiplies them in one GEMM per sample, so each sample's
    output is independent of its batch and the column buffer holds one
    sample, not the batch.  A first-order backward works on the same grid: the input gradient is
    one GEMM of the whole batch onto the grid's wide columns, nine
    contiguous adds and a crop; the weight gradient is nine GEMMs of the
    output gradient against x's grid shifted by each tap's offset, not a
    second im2col.
    A recorded backward builds the same gradients from matmul, fold3x3 and
    unfold3x3, which run on the same grid kernels and stay differentiable.
    Stride 2 changes only the grid's planes and tap offsets.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeMismatch(f"conv2d expects 4-d input and weight, got {x.shape}, {w.shape}")
    if w.shape[2:] != (3, 3):
        raise ShapeMismatch(f"conv2d kernels are fixed at 3x3, got {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeMismatch(f"channel mismatch: input {x.shape[1]}, weight {w.shape[1]}")
    _check_stride(stride)
    _check_same_dtype(x, w)
    f = w.shape[0]
    if b is not None and b.shape != (f,):
        raise ShapeMismatch(f"bias shape {b.shape} != ({f},)")

    geo = _geometry(x.shape, stride)
    bsz, c, h2, w2, wg = geo.b, geo.c, geo.h2, geo.w2, geo.wg
    dtype = x.data.dtype
    grid = _to_grid(x.data, geo)
    k, p = c * 9, h2 * wg
    wm = w.data.reshape(f, k)
    # OpenBLAS blocks a reduction longer than 384 differently at different
    # thread counts unless its length is a multiple of 32; zero rows past
    # K pad it to one without changing the product
    kp = k if k <= 384 else -(-k // 32) * 32
    wk = wm if kp == k else np.concatenate([wm, np.zeros((f, kp - k), dtype=dtype)], axis=1)
    colbuf = np.zeros((kp, p), dtype=dtype)
    cols = colbuf[:k].reshape(c, 3, 3, h2, wg)                # one sample's wide columns
    wide = np.empty((f, h2, wg), dtype=dtype)
    out_data = np.empty((bsz, f, h2, w2), dtype=dtype)
    views = _tap_views(grid, geo, wg)
    for n in range(bsz):
        for ti, tj, view in views:
            cols[:, ti, tj] = view[n]
        np.matmul(wk, colbuf, out=wide.reshape(f, p))
        if b is None:
            out_data[n] = wide[:, :, :w2]
        else:
            np.add(wide[:, :, :w2], b.data[:, None, None], out=out_data[n])

    def vjp(g, needs):
        dx = dw = db = None
        if _TLS.grad_enabled:
            # recorded: stay differentiable in g, w and x
            g3 = reshape(g, (bsz, f, h2 * w2))
            if needs[0]:
                wt = _swap_last2(reshape(w, (f, c * 9)))
                dx = fold3x3(matmul(wt, g3), (geo.h, geo.w), stride)
            if needs[1]:
                cols_t = permute(unfold3x3(x, stride), (0, 2, 1))
                dw = reshape(tsum(matmul(g3, cols_t), axes=(0,)), w.shape)
        else:
            gw = _wide(g.data.reshape(bsz, f, h2, w2), geo)          # F, span
            if needs[0]:
                dcols = np.matmul(wm.T, gw).reshape(c, 3, 3, geo.span)
                dx = Tensor(_col2im(dcols, geo))
            if needs[1]:
                # laid out again rather than kept: the tape would hold a grid per conv
                xgrid = _to_grid(x.data, geo)
                dwt = np.empty((3, 3, f, c), dtype=dtype)
                for i, j, ph, off in geo.taps:
                    np.matmul(gw, xgrid[:, ph, off:off + geo.span].T, out=dwt[i, j])
                dw = Tensor(np.ascontiguousarray(dwt.transpose(2, 3, 0, 1)))
        if len(needs) > 2 and needs[2]:
            db = tsum(g, axes=(0, 2, 3))
        return (dx, dw, db) if b is not None else (dx, dw)

    inputs = (x, w) if b is None else (x, w, b)
    return _apply("conv2d", out_data, inputs, vjp)


def prelu(x: Tensor, a: Tensor) -> Tensor:
    """Parametric ReLU with one slope per channel: a is [C] for x [B,C,...]."""
    if a.ndim != 1 or x.ndim < 2 or a.shape[0] != x.shape[1]:
        raise ShapeMismatch(f"prelu needs one slope per channel of {x.shape}, got {a.shape}")
    _check_same_dtype(x, a)
    return _prelu(x, a, x.data >= 0)


def _prelu(x: Tensor, a: Tensor, pos: np.ndarray) -> Tensor:
    """x where pos, a*x elsewhere: prelu with its mask given.

    prelu's input gradient is this op on the output gradient with the
    forward's mask, so the vjp of that gradient is the same op again.
    """
    xd = x.data
    out_data = np.where(pos, xd, a.data.reshape((1, -1) + (1,) * (xd.ndim - 2)) * xd)

    def vjp(g, needs):
        dx = _prelu(g, a, pos) if needs[0] else None
        da = None
        if needs[1]:
            if _TLS.grad_enabled and x.requires_grad:
                # a recorded backward must stay differentiable in x
                xneg = mul(x, Tensor((~pos).astype(xd.dtype)))
            else:
                xneg = Tensor(np.where(pos, 0, xd))          # min(x, 0) for prelu itself
            da = tsum(mul(g, xneg), axes=(0,) + tuple(range(2, xd.ndim)))
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
    xd = x.data
    inv_count = np.asarray(1.0 / math.prod(feat), dtype=xd.dtype)
    xc = xd - xd.sum(axis=axes, keepdims=True) * inv_count
    std = np.sqrt(np.square(xc).sum(axis=axes, keepdims=True) * inv_count
                  + np.asarray(eps, dtype=xd.dtype))
    xn = xc / std
    out_data = xn * gain.data + bias.data

    def vjp(g, needs):
        if _TLS.grad_enabled and x.requires_grad:
            # a recorded backward must stay differentiable in x: re-derive
            # the normalized input as graph ops, as conv2d re-records unfold3x3
            xc_t = sub(x, expand(tmean(x, axes, keepdims=True), x.shape))
            std_t = expand(sqrt(add(tmean(square(xc_t), axes, keepdims=True), eps)),
                           x.shape)
            xn_t = div(xc_t, std_t)
        else:
            xn_t, std_t = Tensor(xn), Tensor(_broadcast(std, x.shape))
        dx = dgain = dbias = None
        if needs[0]:
            # d/dx of (x - mean) / std: centre the output gradient, remove
            # its component along xn, divide by std
            dxn = mul(g, gain)
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
            if not depends[i]:
                depends[i] = any(j is not None and depends[j] for j in nodes[i].input_ids)
        if not depends[start]:
            return {}

    grads: dict[int, Tensor] = {start: Tensor(np.ones(loss.shape, dtype=loss.data.dtype))}
    result: dict[Tensor, Tensor] = {}

    st = _TLS
    st.stack.append(g)
    prev_mode = st.grad_enabled
    st.grad_enabled = record
    try:
        # a node holds a gradient only if a visited node passed it one, so
        # nodes the loss does not reach, or (recorded) that do not depend
        # on the requested leaves, are never visited
        for i in range(start, -1, -1):
            if i not in grads:
                continue
            node = nodes[i]
            gi = grads.pop(i)
            if node.vjp is None:
                result[node.leaf] = gi
                continue
            ids = node.input_ids
            if depends is None:
                needs = tuple(j is not None for j in ids)
            else:
                needs = tuple(j is not None and depends[j] == 1 for j in ids)
            for j, dj in zip(ids, node.vjp(gi, needs)):
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
