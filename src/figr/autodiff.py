"""Reverse-mode automatic differentiation on N-d numpy arrays.

The engine is a Wengert tape: every operation a gradient flows through
appends one node to the active Graph, so node inputs always precede the
node (topological order by construction).  Constants (no requires_grad)
are not on the tape: an op on constants alone makes no node, and a
constant input of a recorded op has the handle None, not a leaf node.
Elementwise ops broadcast one way: the right operand is a python scalar
or has a suffix of the left one's shape, as a gain does, and matmul has
one backward rule for every operand form.  Ops are this module's
functions (add, mul, tsum, ...); a Tensor has no operator overloads, and
item() is its one method.  Each op computes in the dtype of its
operands, which must agree, so the tape carries no precision of its
own.  There is no implicit tape: an op on a requires_grad tensor must
run inside a ``with Graph()`` block, and a leaf is made one way,
``Tensor(data, requires_grad)``.

Every op has a first-order rule, its node's ``vjp``: numpy arrays in and
out, no graph op.  A first-order backward seeds, passes and adds plain
arrays and wraps only the leaves' gradients.  Eight ops also have a
recorded rule, ``rec``, tensors in and out, written with the public ops:
add of equal shapes, tsum, reshape, subsample2, and the fused conv2d,
affine, prelu and layer_norm.  They are the ops a critic forward records,
and the recorded rules exist only for the gradient penalty's second-order
derivatives: ``backward(loss, create_graph=True)`` runs them onto the
same tape, so the returned gradients are differentiable tensors, and it
raises NotImplementedError naming the op at a node with no recorded
rule.  Where an op has both rules, its first-order rule runs the
recorded rule's numpy operations in the same float order, so the two
give bitwise the same gradients (conv2d's input gradient at one filter
only).

Fused ops (conv2d, affine, prelu, layer_norm) are one node each, with a
numpy forward; prelu applies its sign mask by multiplication, without a
per-element branch.  A recorded backward differentiates them in their data
input only: the recorded rule gives the input gradient alone, none when
that input is a constant, in graph ops that stay differentiable in every
input (so the penalty's weight gradients flow).  So the only leaves a
recorded backward reaches are those a data path leads from, and the
critic's parameter gradients are never computed or recorded; the
first-order rules give every gradient.
conv2d's kernels work on one zero-padded, channel-major grid (see
_Geometry) in which each 3x3 tap is a fixed offset: im2col is one
long-run copy per sample, col2im nine contiguous adds, the weight
gradient nine GEMMs against the grid.  The forward keeps one GEMM per
sample, so a sample's output does not depend on its batch.  fold3x3,
which conv2d's recorded rule records, and its adjoint, the array kernel
unfold3x3, run on the same kernels, the stride a parameter of the grid.
upsample2's rule is four strided adds.  conv2d's forward and matmul's
every product (_gemm) zero-pad a GEMM reduction longer than 384 to a
multiple of 32 (_blas_k), a length OpenBLAS blocks the same way at
every thread count.

A node's rules keep only the arrays they read: add, sub, tsum, expand
and reshape keep an operand's shape at most, and conv2d, affine and prelu
keep the input their weight or slope gradient reads only when that
parameter has requires_grad, which a frozen network's have not.  A
first-order backward (no ``create_graph``) consumes the tape and
releases each node as soon as it visits it.  A rule that keeps a tensor
keeps its graph, so a live tape is a reference cycle; releasing the
nodes lets reference counting free a saved activation once every rule
that saved it has run, not at the next cyclic garbage collection.
"""

from __future__ import annotations

import functools
import math
import threading
from typing import Callable, Sequence

import numpy as np

LN_EPS = 1e-5       # layer_norm's variance floor


class Node:
    """One tape entry: op id, input node handles, and the saved backward rules.

    Only inputs a gradient flows to are on the tape: a constant input (no
    requires_grad) has the handle None, and an input wants a gradient
    exactly when its handle is not None.  The rules keep only what they
    read (a shape, not the operand that has it), so a node on a live tape
    holds no activation that none of its rules needs.
    """

    __slots__ = ("op", "input_ids", "vjp", "rec", "leaf")

    def __init__(self, op, input_ids, vjp, rec=None, leaf=None):
        self.op = op
        self.input_ids = input_ids      # handles of inputs (< own index) or None
        self.vjp = vjp                  # out-grad array -> tuple of input-grad arrays
        self.rec = rec                  # the same on Tensors, recorded; None if absent
        self.leaf = leaf                # the Tensor itself, for leaf nodes


class Graph:
    """Append-only tape confined to one thread, with no settings of its own.

    Acts as a context manager; ops of any dtype executed inside record
    onto it, and an op that needs recording outside every block raises
    RuntimeError.  A backward() without create_graph marks the graph dead
    and empties ``nodes``, releasing every saved value; a later backward()
    on it raises RuntimeError.
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
        raise RuntimeError("a non-leaf tensor from another graph was used here; "
                           "use Tensor(t.data) to make its value a constant")
    t.graph = g
    t.node = g.append(Node("leaf", (), None, leaf=t))
    return t.node


def _apply(op: str, out_data: np.ndarray, inputs: Sequence[Tensor],
           vjp: Callable, rec: Callable | None = None) -> Tensor:
    """Create the result tensor, recording a node when gradients may flow."""
    if not any([i.requires_grad for i in inputs]):
        return Tensor(out_data)
    stack = _TLS.stack
    if not stack:
        raise RuntimeError(f"{op} on a requires_grad tensor must run inside a "
                           "`with Graph()` block")
    g = stack[-1]
    out = Tensor(out_data, requires_grad=True)
    input_ids = tuple([_register(i, g) if i.requires_grad else None for i in inputs])
    out.is_leaf = False
    out.graph = g
    out.node = g.append(Node(op, input_ids, vjp, rec))
    return out


def _check_same_dtype(*ts: Tensor):
    d0 = ts[0].data.dtype
    for t in ts[1:]:
        if t.data.dtype != d0:
            raise TypeError(f"mixed dtypes {d0} and {t.data.dtype} in one op")


# ---------------------------------------------------------------------------
# broadcasting (one direction: the right operand's shape is a suffix of the left's)
# ---------------------------------------------------------------------------

def _grad(d: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum an output-shaped gradient over the leading axes the right operand lacks."""
    return d if d.shape == shape else d.sum(axis=tuple(range(d.ndim - len(shape))))


def _operands(a: Tensor, b) -> tuple[Tensor, Tensor]:
    """a has the result's shape, and b a suffix of it or is a python scalar, made
    a 0-d constant of a's dtype; a python scalar a is misuse, a TypeError."""
    if not isinstance(a, Tensor):
        raise TypeError(f"the left operand must be a Tensor, got {type(a).__name__}")
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.data.dtype))
    _check_same_dtype(a, b)
    sa, sb = a.shape, b.shape
    if len(sb) > len(sa) or sa[len(sa) - len(sb):] != sb:
        raise ValueError(f"shapes {sa} and {sb} do not broadcast")
    return a, b


# ---------------------------------------------------------------------------
# elementwise primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b) -> Tensor:
    a, b = _operands(a, b)

    def vjp(g, needs, sb=b.shape):
        return (g if needs[0] else None, _grad(g, sb) if needs[1] else None)

    def rec(g, needs):
        return (g if needs[0] else None, g if needs[1] else None)

    return _apply("add", a.data + b.data, (a, b), vjp, rec if a.shape == b.shape else None)


def sub(a: Tensor, b) -> Tensor:
    a, b = _operands(a, b)

    def vjp(g, needs, sb=b.shape):
        return (g if needs[0] else None, _grad(-g, sb) if needs[1] else None)

    return _apply("sub", a.data - b.data, (a, b), vjp)


def mul(a: Tensor, b) -> Tensor:
    a, b = _operands(a, b)

    def vjp(g, needs):
        return (g * b.data if needs[0] else None,
                _grad(g * a.data, b.shape) if needs[1] else None)

    return _apply("mul", a.data * b.data, (a, b), vjp)


def div(a: Tensor, b) -> Tensor:
    a, b = _operands(a, b)

    def vjp(g, needs):
        return (g / b.data if needs[0] else None,
                _grad(-(g * a.data / np.square(b.data)), b.shape) if needs[1] else None)

    return _apply("div", a.data / b.data, (a, b), vjp)


def square(a: Tensor) -> Tensor:
    return _apply("square", np.square(a.data), (a,), lambda g, needs: (g * 2.0 * a.data,))


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)
    return _apply("sqrt", out_data, (a,), lambda g, needs: (g * 0.5 / out_data,))


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)
    return _apply("tanh", out_data, (a,),
                  lambda g, needs: (g * (1.0 - np.square(out_data)),))


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

    def vjp(g, needs, shape=a.shape):
        return (_broadcast(g if keepdims else g.reshape(kshape), shape),)

    def rec(g, needs, shape=a.shape):
        gk = g if keepdims or shape == () else reshape(g, kshape)
        return (expand(gk, shape),)

    return _apply("sum", a.data.sum(axis=ax, keepdims=keepdims), (a,), vjp, rec)


def tmean(a: Tensor, axes=None, keepdims: bool = False) -> Tensor:
    count = math.prod(a.shape[i] for i in _norm_axes(axes, a.ndim))
    return mul(tsum(a, axes, keepdims), 1.0 / count)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    shape = tuple(int(s) for s in shape)
    return _apply("reshape", a.data.reshape(shape), (a,),
                  lambda g, needs, s=a.shape: (g.reshape(s),),
                  lambda g, needs, s=a.shape: (reshape(g, s),))


def permute(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(sorted(range(len(axes)), key=axes.__getitem__))
    return _apply("permute", a.data.transpose(axes), (a,), lambda g, needs: (g.transpose(inv),))


def expand(a: Tensor, shape) -> Tensor:
    """Broadcast a up to shape; new or size-1 axes may be stretched."""
    shape = tuple(int(s) for s in shape)
    if a.shape == shape:
        return a
    pad = len(shape) - a.ndim
    if pad < 0:
        raise ValueError(f"cannot expand {a.shape} to {shape}")
    src = (1,) * pad + a.shape
    axes = []
    for i, (s, t) in enumerate(zip(src, shape)):
        if s == t:
            continue
        if s == 1:
            axes.append(i)
        else:
            raise ValueError(f"cannot expand {a.shape} to {shape}")
    axes = tuple(axes)
    return _apply("expand", _broadcast(a.data.reshape(src), shape), (a,),
                  lambda g, needs, s=a.shape: (g.sum(axis=axes, keepdims=True).reshape(s),))


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

def _blas_k(k: int) -> int:
    """The length a GEMM's reduction over k runs at, k or k zero-padded.

    OpenBLAS blocks a reduction longer than 384 differently at different
    thread counts unless its length is a multiple of 32; zeros past k pad
    it to one without changing the product.
    """
    return k if k <= 384 else -(-k // 32) * 32


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.matmul(a, b) with the reduction run at _blas_k's length."""
    pad = _blas_k(a.shape[-1]) - a.shape[-1]
    if pad:
        a = np.concatenate([a, np.zeros(a.shape[:-1] + (pad,), dtype=a.dtype)], axis=-1)
        b = np.concatenate([b, np.zeros(b.shape[:-2] + (pad, b.shape[-1]), dtype=b.dtype)],
                           axis=-2)
    return np.matmul(a, b)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; also accepts a leading batch axis on either operand.

    [m,k]@[k,n], [B,m,k]@[k,n], [m,k]@[B,k,n] and [B,m,k]@[B,k,n] are
    supported.  Batched forms run one GEMM per sample, so each sample's
    result is independent of its position in the batch.  One backward
    rule serves all four: g @ b^T and a^T @ g, summed over the batch axis
    for an operand that had none.  The reduction runs at _blas_k's length.
    """
    if a.ndim not in (2, 3) or b.ndim not in (2, 3):
        raise ValueError(f"matmul cannot combine {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"inner dims differ: {a.shape} x {b.shape}")
    if a.ndim == 3 and b.ndim == 3 and a.shape[0] != b.shape[0]:
        raise ValueError(f"batched shapes differ: {a.shape} x {b.shape}")
    _check_same_dtype(a, b)

    def vjp(g, needs):
        return (_grad(_gemm(g, b.data.swapaxes(-1, -2)), a.shape) if needs[0] else None,
                _grad(_gemm(a.data.swapaxes(-1, -2), g), b.shape) if needs[1] else None)

    return _apply("matmul", _gemm(a.data, b.data), (a, b), vjp)


# ---------------------------------------------------------------------------
# spatial primitives (3x3 windows, pad 1, stride 1 or 2)
# ---------------------------------------------------------------------------

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
        self.h2, self.w2 = -(-h // s), -(-w // s)
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


def unfold3x3(a: np.ndarray, stride: int) -> np.ndarray:
    """Extract the padded 3x3 patches of an array: [B,C,H,W] -> [B, C*9, H2*W2].

    An array kernel, not an op: the adjoint of fold3x3, whose first-order
    rule it is.  Built from the padded grid in one strided copy per
    polyphase plane (one at stride 1); row c*9 + 3*i + j holds tap (i, j)
    of channel c.
    """
    if a.ndim != 4:
        raise ValueError(f"unfold3x3 expects B,C,H,W, got {a.shape}")
    _check_stride(stride)
    geo = _geometry(a.shape, stride)
    cols = np.empty((geo.b, geo.c, 3, 3, geo.h2, geo.w2), dtype=a.dtype)
    for ti, tj, view in _tap_views(_to_grid(a, geo), geo, geo.w2):
        cols[:, :, ti, tj] = view
    return cols.reshape(geo.b, geo.c * 9, geo.h2 * geo.w2)


def fold3x3(cols: Tensor, hw: tuple[int, int], stride: int) -> Tensor:
    """Adjoint of unfold3x3: scatter-add patches back to [B,C,H,W].

    The patches are laid out as the grid's wide columns and summed with
    the same nine adds that give conv2d its input gradient.
    """
    if cols.ndim != 3 or cols.shape[1] % 9:
        raise ValueError(f"fold3x3 expects B,C*9,P, got {cols.shape}")
    _check_stride(stride)
    hw = tuple(hw)
    bsz, k, _ = cols.shape
    geo = _geometry((bsz, k // 9) + hw, stride)
    wide = _wide(cols.data.reshape(bsz, k, geo.h2, geo.w2), geo)
    return _apply("fold3x3", _col2im(wide.reshape(geo.c, 3, 3, geo.span), geo), (cols,),
                  lambda g, needs: (unfold3x3(g, stride),))


def upsample2(a: Tensor) -> Tensor:
    """Nearest-neighbour 2x upsampling of the two trailing axes.

    The gradient sums each 2x2 output block: the block's four strided
    planes added explicitly, in the order numpy's reduction over the two
    size-2 axes takes at every map larger than 1x1 (the generators
    upsample 4x4 and up), so the sum is the same bits in a tenth of the
    time (0.11 ms against 1.45 ms on a [4,32,32,32] gradient).  It has a
    first-order rule alone: only the generator upsamples, and the penalty
    differentiates the critic alone.
    """
    if a.ndim != 4:
        raise ValueError(f"upsample2 expects B,C,H,W, got {a.shape}")
    b, c, h, w = a.shape

    def vjp(g, needs):
        g6 = g.reshape(b, c, h, 2, w, 2)
        return ((g6[:, :, :, 0, :, 0] + g6[:, :, :, 0, :, 1])
                + (g6[:, :, :, 1, :, 0] + g6[:, :, :, 1, :, 1]),)

    return _apply("upsample2", a.data.repeat(2, axis=2).repeat(2, axis=3), (a,), vjp)


def _subsample(d: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(d[:, :, ::2, ::2])


def _spread(d: np.ndarray, hw: tuple[int, int]) -> np.ndarray:
    out = np.zeros(d.shape[:2] + tuple(hw), dtype=d.dtype)
    out[:, :, ::2, ::2] = d
    return out


def subsample2(a: Tensor) -> Tensor:
    """Keep even-index rows/cols (spatial stride-2 identity)."""
    if a.ndim != 4:
        raise ValueError(f"subsample2 expects B,C,H,W, got {a.shape}")
    hw = a.shape[2:]
    return _apply("subsample2", _subsample(a.data), (a,),
                  lambda g, needs: (_spread(g, hw),),
                  lambda g, needs: (spread2(g, hw),))


def spread2(a: Tensor, hw: tuple[int, int]) -> Tensor:
    """Adjoint of subsample2: embed values at even indices of an HxW map."""
    return _apply("spread2", _spread(a.data, hw), (a,), lambda g, needs: (_subsample(g),))


# ---------------------------------------------------------------------------
# fused network ops: numpy first-order rules, differentiable input-only recorded rules
# ---------------------------------------------------------------------------

def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1) -> Tensor:
    """3x3 cross-correlation, pad 1, stride 1 or 2, plus a bias per filter.

    x: [B,C,H,W], w: [F,C,3,3], b: [F] -> [B,F,ceil(H/s),ceil(W/s)]

    x is laid out once on the padded grid (see _Geometry).  The forward
    copies a sample's wide columns out of it, one long run per polyphase
    plane, and multiplies them in one GEMM per sample, so each sample's
    output is independent of its batch and the column buffer holds one
    sample, not the batch.  A first-order backward works on the same grid: the input gradient is
    one GEMM of the whole batch onto the grid's wide columns, nine
    contiguous adds and a crop; the weight gradient is nine GEMMs of the
    output gradient against x's grid shifted by each tap's offset, not a
    second im2col.
    A recorded backward builds the input gradient alone from matmul and
    fold3x3, which run on the same grid kernels and stay differentiable.
    Stride 2 changes only the grid's planes and tap offsets.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError(f"conv2d expects 4-d input and weight, got {x.shape}, {w.shape}")
    if w.shape[2:] != (3, 3):
        raise ValueError(f"conv2d kernels are fixed at 3x3, got {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ValueError(f"channel mismatch: input {x.shape[1]}, weight {w.shape[1]}")
    _check_stride(stride)
    _check_same_dtype(x, w, b)
    f = w.shape[0]
    if b.shape != (f,):
        raise ValueError(f"bias shape {b.shape} != ({f},)")

    geo = _geometry(x.shape, stride)
    bsz, c, h2, w2, wg = geo.b, geo.c, geo.h2, geo.w2, geo.wg
    dtype = x.data.dtype
    grid = _to_grid(x.data, geo)
    k, p = c * 9, h2 * wg
    wm = w.data.reshape(f, k)
    kp = _blas_k(k)
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
        np.add(wide[:, :, :w2], b.data[:, None, None], out=out_data[n])

    def vjp(g, needs, xd=x.data if w.requires_grad else None):
        dx = dw = db = None
        gw = _wide(g.reshape(bsz, f, h2, w2), geo)              # F, span
        if needs[0]:
            # at F = 1 each entry is one product, and an outer product
            # computes it faster than a GEMM with K = 1
            dcols = wm.T * gw if f == 1 else np.matmul(wm.T, gw)
            dx = _col2im(dcols.reshape(c, 3, 3, geo.span), geo)
        if needs[1]:
            # laid out again rather than kept: the tape would hold a grid per conv
            xgrid = _to_grid(xd, geo)
            dwt = np.empty((3, 3, f, c), dtype=dtype)
            for i, j, ph, off in geo.taps:
                np.matmul(gw, xgrid[:, ph, off:off + geo.span].T, out=dwt[i, j])
            dw = np.ascontiguousarray(dwt.transpose(2, 3, 0, 1))
        if needs[2]:
            db = g.sum(axis=(0, 2, 3))
        return (dx, dw, db)

    def rec(g, needs):
        # the input gradient alone, differentiable in g, w and x
        if not needs[0]:
            return ()
        g3 = reshape(g, (bsz, f, h2 * w2))
        wt = permute(reshape(w, (f, c * 9)), (1, 0))
        return (fold3x3(matmul(wt, g3), (geo.h, geo.w), stride),)

    return _apply("conv2d", out_data, (x, w, b), vjp, rec)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Per-position channel mixing: x [B,C,*S], w [C,F], b [F] -> [B,F,*S].

    A dense layer is S = (), a 1x1 convolution S = (H, W).  One node: the
    forward copies x channels-last to [B, P, C] (P = prod(S)), multiplies
    it by w in one GEMM per sample and adds b.  A first-order backward runs
    the transposed GEMMs in numpy; a recorded one builds the input gradient
    alone from permute, reshape and matmul, differentiable in x, w and b.
    """
    if x.ndim < 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ValueError(f"affine cannot map {x.shape} by {w.shape}")
    bsz, c, space = x.shape[0], x.shape[1], x.shape[2:]
    f, p, nd = w.shape[1], math.prod(space), x.ndim
    if b.shape != (f,):
        raise ValueError(f"bias shape {b.shape} != ({f},)")
    _check_same_dtype(x, w, b)
    last = (0,) + tuple(range(2, nd)) + (1,)            # channels to the last axis
    first = (0, nd - 1) + tuple(range(1, nd - 1))       # and back
    flat = x.data.transpose(last).reshape(bsz, p, c)
    y = np.matmul(flat, w.data) + b.data
    out_data = y.reshape((bsz,) + space + (f,)).transpose(first)

    def vjp(g, needs, flat=flat if w.requires_grad else None):
        dx = dw = db = None
        g3 = g.transpose(last).reshape(bsz, p, f)
        if needs[0]:
            dflat = np.matmul(g3, w.data.T)
            dx = dflat.reshape((bsz,) + space + (c,)).transpose(first)
        if needs[1]:
            dw = np.matmul(flat.transpose(0, 2, 1), g3).sum(axis=(0,))
        if needs[2]:
            db = g3.sum(axis=(0, 1))
        return (dx, dw, db)

    def rec(g, needs):
        if not needs[0]:
            return ()
        move = (lambda t, axes: t) if nd == 2 else permute  # a dense layer has no axis to move
        g3 = reshape(move(g, last), (bsz, p, f))
        return (move(reshape(matmul(g3, permute(w, (1, 0))), (bsz,) + space + (c,)), first),)

    return _apply("affine", out_data, (x, w, b), vjp, rec)


def prelu(x: Tensor, a: Tensor) -> Tensor:
    """Parametric ReLU with one slope per channel: a is [C] for x [B,C,...]."""
    if a.ndim != 1 or x.ndim < 2 or a.shape[0] != x.shape[1]:
        raise ValueError(f"prelu needs one slope per channel of {x.shape}, got {a.shape}")
    _check_same_dtype(x, a)
    return _prelu(x, a, x.data >= 0)


def _prelu(x: Tensor, a: Tensor, pos: np.ndarray) -> Tensor:
    """x where pos, a*x elsewhere: prelu with its mask given.

    prelu's input gradient is this op on the output gradient with the
    forward's mask, so the vjp of that gradient is the same op again.

    The mask is applied by multiplication, x * (~pos * a + pos), not by
    np.where: activation signs are unpredictable, and np.where's
    per-element branch mispredicts on about half of them (0.86 ms against
    0.22 ms on a [8,16,32,32] float32 map).  The multiplier is exactly 1
    where pos holds and exactly a elsewhere, so the result is np.where's
    bit for bit (for every slope but -0, whose zeros take the other sign).
    Only the bool mask is kept for the vjp, which recomputes ~pos.
    """
    xd = x.data
    slopes = a.data.reshape((1, -1) + (1,) * (xd.ndim - 2))
    out_data = xd * (~pos * slopes + pos)
    red = (0,) + tuple(range(2, xd.ndim))

    def vjp(g, needs, xd=xd if a.requires_grad else None):
        neg = ~pos
        # a term of the slope sum differs from g * where(pos, 0, x) at
        # most in the sign of a zero, which a sum starting at +0 ignores
        return (g * (neg * slopes + pos) if needs[0] else None,
                (g * (xd * neg)).sum(axis=red) if needs[1] else None)

    def rec(g, needs):
        return (_prelu(g, a, pos),) if needs[0] else ()

    return _apply("prelu", out_data, (x, a), vjp, rec)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each sample over all non-batch axes (variance + LN_EPS), then apply affine.

    gain and bias must have shape x.shape[1:].  One node: the forward runs
    in numpy with the float operations of the composite mean / centre /
    variance / sqrt / divide / affine chain, so its output is bitwise what
    that chain gives.
    """
    feat = x.shape[1:]
    if gain.shape != feat or bias.shape != feat:
        raise ValueError(
            f"gain/bias {gain.shape}/{bias.shape} do not match normalized extent {feat}")
    _check_same_dtype(x, gain, bias)
    axes = tuple(range(1, x.ndim))
    xd = x.data
    inv_count = np.asarray(1.0 / math.prod(feat), dtype=xd.dtype)
    xc = xd - xd.sum(axis=axes, keepdims=True) * inv_count
    std = np.sqrt(np.square(xc).sum(axis=axes, keepdims=True) * inv_count
                  + np.asarray(LN_EPS, dtype=xd.dtype))
    xn = xc / std
    out_data = xn * gain.data + bias.data

    def vjp(g, needs):
        # the input gradient is rec's on arrays, in the same float order
        dx = dgain = dbias = None
        if needs[0]:
            dxn = g * gain.data
            proj = xn * ((dxn * xn).sum(axis=axes, keepdims=True) * inv_count)
            dx = (dxn - dxn.sum(axis=axes, keepdims=True) * inv_count - proj) / std
        if needs[1]:
            dgain = (g * xn).sum(axis=(0,))
        if needs[2]:
            dbias = g.sum(axis=(0,))
        return (dx, dgain, dbias)

    def rec(g, needs):
        # stays differentiable in x: re-derive the normalized input as graph ops
        if not needs[0]:
            return ()
        xc_t = sub(x, expand(tmean(x, axes, keepdims=True), x.shape))
        std_t = expand(sqrt(add(tmean(square(xc_t), axes, keepdims=True), LN_EPS)), x.shape)
        xn_t = div(xc_t, std_t)
        # d/dx of (x - mean) / std: centre the output gradient, remove its
        # component along xn, divide by std
        dxn = mul(g, gain)
        proj = mul(xn_t, expand(tmean(mul(dxn, xn_t), axes, keepdims=True), x.shape))
        return (div(sub(sub(dxn, expand(tmean(dxn, axes, keepdims=True), x.shape)), proj),
                    std_t),)

    return _apply("layer_norm", out_data, (x, gain, bias), vjp, rec)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def backward(loss: Tensor, create_graph: bool = False) -> dict[Tensor, Tensor]:
    """Accumulate d(loss)/d(leaf) for every reachable requires_grad leaf.

    Returns a map keyed by leaf tensor.  A first-order call
    (create_graph=False) runs every op's first-order rule: it seeds, passes
    and adds plain arrays and wraps only the leaves' gradients.  It
    consumes the graph: it is marked dead and each node is released as
    soon as it is visited, so an activation is freed once the rules that
    saved it have run and the caller drops its own references.

    With create_graph=True the ops' recorded rules run onto the same tape,
    so the returned gradients are graph tensors, and the tape stays alive.
    Both visit exactly the nodes the loss reaches.  A recorded rule passes
    a fused op's gradient to its data input alone, so a leaf reached only
    through a fused op's parameters gets no gradient and its path none of
    the work: the critic's penalty gets the gradient of its input and
    nothing else.  A node with no recorded rule raises NotImplementedError
    naming its op.
    """
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad or loss.graph is None:
        return {}
    g = loss.graph
    if g.dead:
        raise RuntimeError("graph already consumed by a previous backward()")

    nodes = g.nodes
    start = loss.node
    g.dead = not create_graph           # even if a rule raises: visited nodes are released
    seed = np.ones(loss.shape, dtype=loss.data.dtype)
    grads = {start: Tensor(seed) if create_graph else seed}
    result: dict[Tensor, Tensor] = {}
    with g:                             # a recorded rule's ops record onto this tape
        # a node holds a gradient only if a visited node passed it one, so
        # nodes the loss does not reach are never visited
        for i in range(start, -1, -1):
            gi = grads.pop(i, None)
            if gi is None:
                continue
            node = nodes[i]
            if not create_graph:
                nodes[i] = None         # release what only this node's rules held
            if node.leaf is not None:
                result[node.leaf] = gi if create_graph else Tensor(gi)
                continue
            rule = node.rec if create_graph else node.vjp
            if rule is None:
                raise NotImplementedError(f"a recorded backward does not differentiate {node.op}")
            ids = node.input_ids
            for j, dj in zip(ids, rule(gi, [j is not None for j in ids])):
                if dj is None:
                    continue
                acc = grads.get(j)
                if acc is not None:
                    dj = add(acc, dj) if create_graph else acc + dj
                grads[j] = dj

    if not create_graph:
        nodes.clear()
    return result
