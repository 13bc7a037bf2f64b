"""The adjoint identity for the first-order rule of every linear op.

For an op f that is linear in one operand u, with every other operand
held fixed, and for any v shaped like f's output,

    <f(u), v> = <u, f*(v)>,

where f* is the first-order rule the tape saves for u.  In float64 both
sides agree to rounding, in every coordinate at once, so a rule that is
off by a small scale, or wrong in coordinates that gradcheck's finite
differences never sample, fails here (the dot-product test of Claerbout,
Earth Soundings Analysis, 1992).  hypothesis draws the shapes, strides
and values.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import figr.autodiff as ad
from figr.autodiff import Graph, Tensor

dims = st.integers(1, 4)
maps = st.integers(1, 7)


def conv2d(data, stride, wrt):
    b, c, f, h, w = (data.draw(s) for s in (dims, dims, dims, maps, maps))
    # a zero bias adds exact zeros, so the op stays linear in x and in w
    return ((lambda x, k, bias: ad.conv2d(x, k, bias, stride)),
            [(b, c, h, w), (f, c, 3, 3), np.zeros(f)], wrt)


def affine(data, wrt):
    b, c, f = (data.draw(dims) for _ in range(3))
    space = data.draw(st.sampled_from([(), (1, 1), (2, 3)]))
    # a zero bias adds exact zeros, so the op stays linear in x and in w
    return ad.affine, [(b, c, *space), (c, f), np.zeros(f)], wrt


def upsample2(data):
    return ad.upsample2, [tuple(data.draw(s) for s in (dims, dims, maps, maps))], 0


def subsample2(data):
    return ad.subsample2, [tuple(data.draw(s) for s in (dims, dims, maps, maps))], 0


def spread2(data):
    b, c, h, w = (data.draw(s) for s in (dims, dims, maps, maps))
    return (lambda a: ad.spread2(a, (h, w))), [(b, c, -(-h // 2), -(-w // 2))], 0


def reshape(data):
    shape = tuple(data.draw(st.lists(dims, min_size=1, max_size=4)))
    cut = data.draw(st.integers(0, len(shape)))
    target = (int(np.prod(shape[:cut])), int(np.prod(shape[cut:])))
    return (lambda a: ad.reshape(a, target)), [shape], 0


def permute(data):
    shape = tuple(data.draw(st.lists(dims, min_size=1, max_size=4)))
    axes = tuple(data.draw(st.permutations(range(len(shape)))))
    return (lambda a: ad.permute(a, axes)), [shape], 0


def expand(data):
    target = tuple(data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=4)))
    kept = target[data.draw(st.integers(0, len(target) - 1)):]
    shape = tuple(s if data.draw(st.booleans()) else 1 for s in kept)
    if shape == target:                 # expand would return its input, with no rule
        shape = (1,) + shape[1:]
    return (lambda a: ad.expand(a, target)), [shape], 0


def tsum(data):
    shape = tuple(data.draw(st.lists(dims, min_size=1, max_size=4)))
    axes = data.draw(st.one_of(st.none(), st.lists(st.integers(-len(shape), len(shape) - 1),
                                                   min_size=1, unique_by=lambda a: a % len(shape))))
    keepdims = data.draw(st.booleans())
    return (lambda a: ad.tsum(a, axes, keepdims)), [shape], 0


def matmul(data, wrt):
    m, n = data.draw(dims), data.draw(dims)
    k = data.draw(st.sampled_from([1, 2, 5, 390]))      # 390 runs _blas_k's padding
    batch = data.draw(dims)
    lead_a, lead_b = data.draw(st.sampled_from([((), ()), ((batch,), ()), ((), (batch,)),
                                                ((batch,), (batch,))]))
    return ad.matmul, [(*lead_a, m, k), (*lead_b, k, n)], wrt


def fold3x3(data):
    b, c, h, w = (data.draw(s) for s in (dims, dims, maps, maps))
    stride = data.draw(st.sampled_from([1, 2]))
    patches = -(-h // stride) * -(-w // stride)
    return (lambda cols: ad.fold3x3(cols, (h, w), stride)), [(b, c * 9, patches)], 0


CASES = {
    "conv2d-x-stride1": lambda d: conv2d(d, 1, 0),
    "conv2d-x-stride2": lambda d: conv2d(d, 2, 0),
    "conv2d-w-stride1": lambda d: conv2d(d, 1, 1),
    "conv2d-w-stride2": lambda d: conv2d(d, 2, 1),
    "affine-x": lambda d: affine(d, 0),
    "affine-w": lambda d: affine(d, 1),
    "upsample2": upsample2,
    "subsample2": subsample2,
    "spread2": spread2,
    "reshape": reshape,
    "permute": permute,
    "expand": expand,
    "tsum": tsum,
    "matmul-a": lambda d: matmul(d, 0),
    "matmul-b": lambda d: matmul(d, 1),
    "fold3x3": fold3x3,     # its rule is unfold3x3
}


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_rule_is_the_adjoint_of_its_op(case, data):
    op, operands, wrt = CASES[case](data)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    arrays = [a if isinstance(a, np.ndarray) else rng.standard_normal(a) for a in operands]
    inputs = [Tensor(a, requires_grad=i == wrt) for i, a in enumerate(arrays)]
    with Graph() as g:
        y = op(*inputs)
    v = rng.standard_normal(y.shape)
    (u_bar,) = [d for d in g.nodes[y.node].vjp(v, [i == wrt for i in range(len(inputs))])
                if d is not None]
    u = arrays[wrt]
    assert u_bar.shape == u.shape
    lhs, rhs = np.vdot(y.data, v), np.vdot(u, u_bar)
    scale = np.vdot(np.abs(y.data), np.abs(v)) + np.vdot(np.abs(u), np.abs(u_bar))
    assert abs(lhs - rhs) <= 1e-12 * scale, (lhs, rhs, scale)
