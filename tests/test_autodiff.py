import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figr import autodiff as ad
from figr.autodiff import (
    Graph,
    LN_EPS,
    Tensor,
    backward,
    conv2d,
    layer_norm,
    matmul,
    prelu,
)
from figr.gradcheck import (
    DEFAULT_TOL,
    agreement_error,
    finite_difference_gradient,
    max_relative_error,
)
from figr.config import RunConfig
from figr.models import Discriminator, Generator

FD_TOL = 1e-6
SRC = str(Path(__file__).resolve().parents[1] / "src")


def fd_check(f_np, f_ad, x0, tol=FD_TOL, h=1e-6):
    """Compare reverse-mode gradient of f_ad against central differences of f_np."""
    with Graph():
        x = Tensor(np.asarray(x0, dtype=np.float64), requires_grad=True)
        loss = f_ad(x)
        grad = backward(loss)[x].data
    fd = finite_difference_gradient(f_np, np.asarray(x0, dtype=np.float64), h=h)
    err = max_relative_error(grad, fd)
    assert err < tol, f"gradient mismatch: rel err {err:.3e}"
    return grad


def recorded_rule(y, g):
    """The input gradient that the recorded rule of y's (fused) op gives for
    output gradient g, called directly: a graph tensor."""
    node = y.graph.nodes[y.node]
    return node.rec(g, [True] + [False] * (len(node.input_ids) - 1))[0]


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


class TestElementwise:
    def test_add_componentwise(self):
        out = ad.add(Tensor(np.array([1.0, 2.0])), Tensor(np.array([3.0, 4.0])))
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_mean_of_constant_is_constant(self):
        c = 0.73
        out = ad.tmean(Tensor(np.full((4,), c, dtype=np.float64)))
        assert out.item() == c

    def test_grad_mean_of_square(self):
        # d(mean(x^2))/dx at [1,2,3] is [2/3, 4/3, 2]
        grad = fd_check(
            lambda x: float(np.mean(x ** 2)),
            lambda x: ad.tmean(ad.square(x)),
            [1.0, 2.0, 3.0],
        )
        np.testing.assert_allclose(grad, [2 / 3, 4 / 3, 2.0], rtol=1e-12)

    def test_suffix_broadcast(self):
        a = Tensor(np.ones((2, 3), dtype=np.float32))
        b = Tensor(np.arange(3, dtype=np.float32))
        out = ad.add(a, b)
        np.testing.assert_array_equal(out.data, [[1, 2, 3], [1, 2, 3]])

    def test_scalar_broadcast_and_sugar(self):
        # a python scalar on the right becomes a constant of the tensor's dtype
        x = Tensor(np.array([1.0, -2.0]))
        out = ad.sub(ad.add(ad.mul(x, 2.0), 1.0), ad.div(x, 2.0))
        np.testing.assert_allclose(out.data, [2.5, -2.0])
        assert ad.div(Tensor(np.float32(3.0)), 2.0).data.dtype == np.float32

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"shapes \(2, 3\) and \(3, 2\) do not broadcast"):
            ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div])
    def test_broadcasts_only_the_right_operand(self, op):
        # the left operand has the result's shape: a python scalar there is
        # misuse, and a tensor smaller than the right one does not broadcast
        x = Tensor(np.ones((2, 3)))
        with pytest.raises(TypeError, match="the left operand must be a Tensor, got float"):
            op(2.0, x)
        with pytest.raises(ValueError, match=r"shapes \(3,\) and \(2, 3\) do not broadcast"):
            op(Tensor(np.ones(3)), x)
        with pytest.raises(ValueError, match=r"shapes \(\) and \(2, 3\) do not broadcast"):
            op(Tensor(np.float64(2.0)), x)

    def test_broadcast_grad_reduces(self):
        with Graph():
            b = Tensor(np.array([1.0, 2.0]), requires_grad=True)
            a = Tensor(np.ones((3, 2), dtype=np.float64))
            loss = ad.tsum(ad.mul(a, b))
            g = backward(loss)[b].data
        np.testing.assert_allclose(g, [3.0, 3.0])

    @pytest.mark.parametrize(
        "name,f_np,f_ad",
        [
            ("square", lambda x: float(np.sum(x ** 2)), lambda x: ad.tsum(ad.square(x))),
            ("tanh", lambda x: float(np.sum(np.tanh(x))), lambda x: ad.tsum(ad.tanh(x))),
            ("mul-div", lambda x: float(np.sum(x * 3.0 / (x ** 2 + 1))),
             lambda x: ad.tsum(ad.div(ad.mul(x, 3.0), ad.add(ad.square(x), 1.0)))),
        ],
    )
    def test_primitive_gradients_match_fd(self, name, f_np, f_ad):
        rng = np.random.default_rng(abs(hash(name)) % 2 ** 31)
        x0 = rng.standard_normal(7)
        fd_check(f_np, f_ad, x0)

    @pytest.mark.parametrize(
        "name,f_np,f_ad",
        [
            ("sqrt", lambda x: float(np.sum(np.sqrt(x))), lambda x: ad.tsum(ad.sqrt(x))),
        ],
    )
    def test_positive_domain_gradients(self, name, f_np, f_ad):
        rng = np.random.default_rng(3)
        x0 = rng.uniform(0.2, 3.0, size=5)
        fd_check(f_np, f_ad, x0)


class TestReductionsStructure:
    def test_sum_axes_keepdims(self):
        x = Tensor(np.arange(24, dtype=np.float64).reshape(2, 3, 4))
        out = ad.tsum(x, axes=(1, 2), keepdims=True)
        assert out.shape == (2, 1, 1)
        np.testing.assert_allclose(out.data.ravel(), [66.0, 210.0])

    def test_mean_gradient(self):
        fd_check(
            lambda x: float(np.mean(x)),
            lambda x: ad.tmean(x),
            np.arange(6, dtype=np.float64).reshape(2, 3),
        )

    def test_reshape_permute_expand_grads(self):
        rng = np.random.default_rng(11)
        x0 = rng.standard_normal((2, 3))

        def f_np(x):
            y = np.broadcast_to(x.T.reshape(3, 2, 1), (3, 2, 4))
            return float(np.sum(y ** 2))

        def f_ad(x):
            y = ad.expand(ad.reshape(ad.permute(x, (1, 0)), (3, 2, 1)), (3, 2, 4))
            return ad.tsum(ad.square(y))

        fd_check(f_np, f_ad, x0)

    @pytest.mark.parametrize("base, shape", [
        (np.arange(3, dtype=np.float32).reshape(3, 1), (2, 3, 4)),
        (np.arange(6, dtype=np.float32).reshape(2, 3).T, (4, 3, 2)),       # F-contiguous
        (np.arange(12, dtype=np.float32).reshape(3, 4)[:, ::2], (4, 3, 2)),  # strided
    ], ids=["contiguous", "transposed", "strided"])
    def test_expand_is_the_broadcast_view(self, base, shape):
        out = ad.expand(Tensor(base), shape).data
        ref = np.broadcast_to(base, shape)
        np.testing.assert_array_equal(out, ref)
        assert out.strides == ref.strides and not out.flags.writeable
        assert np.shares_memory(out, base)


class TestMatmul:
    def test_identity(self):
        b = np.arange(6, dtype=np.float32).reshape(2, 3)
        out = matmul(Tensor(np.eye(2, dtype=np.float32)), Tensor(b))
        np.testing.assert_array_equal(out.data, b)

    def test_hand_arithmetic(self):
        out = matmul(Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])), Tensor(np.array([[1.0], [1.0]])))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_inner_dim_mismatch(self):
        with pytest.raises(ValueError, match="^inner dims differ"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((3, 4))
        fd_check(
            lambda a: float(np.sum(a @ b)),
            lambda a: ad.tsum(matmul(a, Tensor(b))),
            rng.standard_normal((2, 3)),
        )

    def test_shared_left_operand_grads(self):
        # [m,k] @ [B,k,n]: one GEMM per sample, the left gradient summed over B
        rng = np.random.default_rng(9)
        a0, b0 = rng.standard_normal((2, 3)), rng.standard_normal((4, 3, 5))
        fd_check(lambda a: float(np.sum((a @ b0) ** 2)),
                 lambda a: ad.tsum(ad.square(matmul(a, Tensor(b0)))), a0)
        fd_check(lambda b: float(np.sum((a0 @ b) ** 2)),
                 lambda b: ad.tsum(ad.square(matmul(Tensor(a0), b))), b0)
        with pytest.raises(ValueError, match="^inner dims differ"):
            matmul(Tensor(a0), Tensor(np.ones((4, 2, 5))))

    @pytest.mark.parametrize("sa,sb", [((5, 2, 3), (3, 4)), ((5, 2, 3), (5, 3, 4))],
                             ids=["shared-right", "batch-batch"])
    def test_batched_left_operand_grads(self, sa, sb):
        # the forms the other matmul tests leave out, under the same one rule
        rng = np.random.default_rng(10)
        a0, b0 = rng.standard_normal(sa), rng.standard_normal(sb)
        fd_check(lambda a: float(np.sum((a @ b0) ** 2)),
                 lambda a: ad.tsum(ad.square(matmul(a, Tensor(b0)))), a0)
        fd_check(lambda b: float(np.sum((a0 @ b) ** 2)),
                 lambda b: ad.tsum(ad.square(matmul(Tensor(a0), b))), b0)

    def test_grad_wrt_right_operand(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((2, 3))
        fd_check(
            lambda b: float(np.sum((a @ b) ** 2)),
            lambda b: ad.tsum(ad.square(matmul(Tensor(a), b))),
            rng.standard_normal((3, 2)),
        )


def conv2d_reference(x, w, b, stride):
    """Straight-line cross-correlation oracle, pad 1."""
    bs, c, h, wd = x.shape
    f = w.shape[0]
    h2 = -(-h // stride)
    w2 = -(-wd // stride)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.zeros((bs, f, h2, w2))
    for n in range(bs):
        for k in range(f):
            for oy in range(h2):
                for ox in range(w2):
                    acc = 0.0
                    for ci in range(c):
                        for i in range(3):
                            for j in range(3):
                                acc += xp[n, ci, oy * stride + i, ox * stride + j] * w[k, ci, i, j]
                    out[n, k, oy, ox] = acc + (b[k] if b is not None else 0.0)
    return out


class TestConv2d:
    def test_zero_kernel(self):
        x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 4, 4)).astype(np.float32))
        w = Tensor(np.zeros((5, 3, 3, 3), dtype=np.float32))
        out = conv2d(x, w, Tensor(np.zeros(5, dtype=np.float32)), stride=1)
        assert out.shape == (2, 5, 4, 4)
        np.testing.assert_array_equal(out.data, 0)

    def test_ones_center_is_nine(self):
        x = Tensor(np.ones((1, 1, 3, 3), dtype=np.float64))
        w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float64))
        out = conv2d(x, w, Tensor(np.zeros(1)), stride=1)
        assert out.data[0, 0, 1, 1] == 9.0

    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_reference(self, stride):
        # odd and non-square sizes: an index slip on the padded grid would
        # show here, while the models only use powers of two
        rng = np.random.default_rng(42)
        for hw in ((6, 6), (5, 5), (7, 4)):
            x = rng.standard_normal((2, 3) + hw)
            w = rng.standard_normal((4, 3, 3, 3))
            b = rng.standard_normal(4)
            ref = conv2d_reference(x, w, b, stride)
            for dtype, atol in ((np.float64, 1e-12), (np.float32, 1e-5)):
                out = conv2d(Tensor(x.astype(dtype)), Tensor(w.astype(dtype)),
                             Tensor(b.astype(dtype)), stride=stride)
                assert out.data.dtype == dtype
                np.testing.assert_allclose(out.data, ref, atol=atol)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_each_sample_independent_of_batch(self, stride):
        # one GEMM per sample: a sample's output does not depend on the batch
        rng = np.random.default_rng(43)
        x = rng.standard_normal((3, 5, 7, 6)).astype(np.float32)
        w = Tensor(rng.standard_normal((4, 5, 3, 3)).astype(np.float32))
        b = Tensor(rng.standard_normal(4).astype(np.float32))
        batch = conv2d(Tensor(x), w, b, stride=stride).data
        for n in range(3):
            alone = conv2d(Tensor(x[n:n + 1]), w, b, stride=stride).data
            np.testing.assert_array_equal(batch[n:n + 1], alone)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="^channel mismatch: input 2, weight 3$"):
            conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((1, 3, 3, 3))),
                   Tensor(np.zeros(1)), 1)

    def test_gradients_independent_of_blas_threads(self):
        # the weight gradient reduces over the padded grid and the forward
        # over K = 9*C (720 in the last case); OpenBLAS blocks some
        # reduction lengths differently at different thread counts
        code = (
            "import hashlib, numpy as np\n"
            "from figr import autodiff as ad\n"
            "rng = np.random.default_rng(0)\n"
            "h = hashlib.sha256()\n"
            "for b, c, f, hw, s in ((8, 16, 32, 32, 2), (4, 32, 16, 32, 1), (3, 32, 32, 15, 1),\n"
            "                       (4, 80, 80, 8, 1)):\n"
            "    x = ad.Tensor(rng.standard_normal((b, c, hw, hw)).astype(np.float32), requires_grad=True)\n"
            "    w = ad.Tensor(rng.standard_normal((f, c, 3, 3)).astype(np.float32), requires_grad=True)\n"
            "    with ad.Graph():\n"
            "        y = ad.conv2d(x, w, ad.Tensor(np.zeros(f, dtype=np.float32)), s)\n"
            "        probe = ad.Tensor(rng.standard_normal(y.shape).astype(np.float32))\n"
            "        g = ad.backward(ad.tsum(ad.mul(y, probe)))\n"
            "    h.update(g[w].data.tobytes() + g[x].data.tobytes() + y.data.tobytes())\n"
            "print(h.hexdigest())\n")
        digests = set()
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": SRC}
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            digests.add(proc.stdout.strip())
        assert len(digests) == 1

    @pytest.mark.parametrize("stride", [1, 2])
    def test_weight_gradient_matches_fd(self, stride):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 2, 4, 4))
        w0 = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)

        fd_check(
            lambda w: float(np.sum(conv2d_reference(x, w, b, stride) ** 2)),
            lambda w: ad.tsum(ad.square(conv2d(Tensor(x), w, Tensor(b), stride=stride))),
            w0,
        )

    def test_input_and_bias_gradients_match_fd(self):
        rng = np.random.default_rng(8)
        x0 = rng.standard_normal((1, 2, 4, 4))
        w = rng.standard_normal((3, 2, 3, 3))
        b0 = rng.standard_normal(3)

        fd_check(
            lambda x: float(np.sum(conv2d_reference(x, w, b0, 2) ** 2)),
            lambda x: ad.tsum(ad.square(conv2d(x, Tensor(w), Tensor(b0), stride=2))),
            x0,
        )
        fd_check(
            lambda b: float(np.sum(conv2d_reference(x0, w, b, 1) ** 2)),
            lambda b: ad.tsum(ad.square(conv2d(Tensor(x0), Tensor(w), b, stride=1))),
            b0,
        )


class TestPRelu:
    def test_passthrough_nonnegative(self):
        out = prelu(Tensor(np.array([[5.0, 0.0]])), Tensor(np.array([0.25, 0.25])))
        np.testing.assert_array_equal(out.data, [[5.0, 0.0]])

    def test_negative_scaled(self):
        out = prelu(Tensor(np.array([[-4.0, -4.0]])), Tensor(np.array([0.25, 0.5])))
        np.testing.assert_array_equal(out.data, [[-1.0, -2.0]])

    def test_passthrough_exact_for_any_slope(self):
        rng = np.random.default_rng(1)
        x = np.abs(rng.standard_normal((3, 4)).astype(np.float32))
        a = rng.standard_normal(4).astype(np.float32)
        out = prelu(Tensor(x), Tensor(a))
        np.testing.assert_array_equal(out.data, x)

    def test_slope_count_mismatch(self):
        with pytest.raises(ValueError, match="^prelu needs one slope per channel"):
            prelu(Tensor(np.ones((2, 3))), Tensor(np.ones(4)))
        # one slope per channel, not a scalar
        with pytest.raises(ValueError, match="^prelu needs one slope per channel"):
            prelu(Tensor(np.ones((2, 3))), Tensor(np.array(0.25)))

    def test_slope_gradient(self):
        # d/da_c of sum(prelu(x, a)) is the sum of channel c's negative entries
        with Graph():
            a = Tensor(np.array([0.25, 0.5]), requires_grad=True)
            out = prelu(Tensor(np.array([[-4.0, 3.0], [-1.0, -2.0]])), a)
            g = backward(ad.tsum(out))[a].data
        np.testing.assert_array_equal(g, [-5.0, -2.0])

        fd_check(
            lambda a: float(np.sum(np.where(X >= 0, X, a.reshape(1, -1, 1, 1) * X) ** 2)),
            lambda a: ad.tsum(ad.square(prelu(Tensor(X), a))),
            A0,
        )

    def test_input_gradient(self):
        fd_check(
            lambda x: float(np.sum(np.where(x >= 0, x, A0.reshape(1, -1, 1, 1) * x) ** 2)),
            lambda x: ad.tsum(ad.square(prelu(x, Tensor(A0)))),
            X,
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["single", "double"])
    def test_first_order_gradients_bitwise_equal_to_mask_products(self, dtype):
        # prelu multiplies by ~pos * a + pos instead of branching with
        # np.where; np.where's rules stay here as the reference, on random
        # signs, exact +0 and -0 inputs and slopes < 0, = 0, in (0, 1) and > 1
        rng = np.random.default_rng(14)
        shape = (3, 4, 6, 6)
        x0 = rng.standard_normal(shape).astype(dtype)
        x0[rng.random(shape) < 0.15] = 0.0
        x0[rng.random(shape) < 0.15] = -0.0
        x0[:, 1] = np.abs(x0[:, 1])                  # a channel with no negative entry
        a0 = np.array([-0.7, 0.0, 0.25, 1.5], dtype=dtype)
        g0 = rng.standard_normal(shape).astype(dtype)
        g0[rng.random(shape) < 0.1] = -0.0
        pos, slopes = x0 >= 0, a0.reshape(1, 4, 1, 1)
        with Graph():
            x, a = Tensor(x0, requires_grad=True), Tensor(a0, requires_grad=True)
            y = prelu(x, a)
            grads = backward(ad.tsum(ad.mul(y, Tensor(g0))))
        assert y.data.tobytes() == np.where(pos, x0, slopes * x0).tobytes()
        assert grads[x].data.tobytes() == np.where(pos, g0, slopes * g0).tobytes()
        # by value: a term may differ from the reference's in a zero's sign
        np.testing.assert_array_equal(grads[a].data,
                                      (g0 * np.where(pos, 0, x0)).sum(axis=(0, 2, 3)))

    def test_recorded_input_gradient_matches_fd_in_g_and_a(self):
        # dx = g where x >= 0, a*g elsewhere, recorded as one prelu node
        def dx_np(g, a):
            return np.where(X >= 0, g, a.reshape(1, -1, 1, 1) * g)

        def dx_ad(g, a):
            return recorded_rule(prelu(Tensor(X, requires_grad=True), a), g)

        g0 = np.random.default_rng(15).standard_normal(X.shape)
        fd_check(lambda g: float(np.sum(dx_np(g, A0) ** 2)),
                 lambda g: ad.tsum(ad.square(dx_ad(g, Tensor(A0)))), g0)
        fd_check(lambda a: float(np.sum(dx_np(g0, a) ** 2)),
                 lambda a: ad.tsum(ad.square(dx_ad(Tensor(g0), a))), A0)

    def test_records_one_node_per_gradient(self):
        with Graph() as g:
            x = Tensor(X, requires_grad=True)
            a = Tensor(A0, requires_grad=True)
            y = ad.tsum(prelu(x, a))
            start = len(g.nodes)
            backward(y, create_graph=True)
            assert [node.op for node in g.nodes[start:]].count("prelu") == 1
            assert "mul" not in {node.op for node in g.nodes[start:]}


RNG0 = np.random.default_rng(123)
X = RNG0.standard_normal((2, 3, 4, 4))
A0 = RNG0.uniform(0.1, 0.5, size=3)


def layer_norm_composite(x, gain, bias):
    """layer_norm as the chain of primitive ops that it fuses into one node."""
    axes = tuple(range(1, x.ndim))
    mu = ad.tmean(x, axes=axes, keepdims=True)
    xc = ad.sub(x, ad.expand(mu, x.shape))
    var = ad.tmean(ad.square(xc), axes=axes, keepdims=True)
    xn = ad.div(xc, ad.expand(ad.sqrt(ad.add(var, LN_EPS)), x.shape))
    bshape = (1,) + x.shape[1:]
    out = ad.mul(xn, ad.expand(ad.reshape(gain, bshape), x.shape))
    return ad.add(out, ad.expand(ad.reshape(bias, bshape), x.shape))


class TestLayerNorm:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["single", "double"])
    def test_forward_bitwise_equal_to_composite(self, dtype):
        rng = np.random.default_rng(12)
        x = Tensor((3.0 * rng.standard_normal((3, 4, 5, 5)) + 1.0).astype(dtype))
        gain = Tensor(rng.standard_normal((4, 5, 5)).astype(dtype))
        bias = Tensor(rng.standard_normal((4, 5, 5)).astype(dtype))
        out = layer_norm(x, gain, bias).data
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, layer_norm_composite(x, gain, bias).data)

    def test_records_one_node(self):
        rng = np.random.default_rng(13)
        with Graph() as g:
            x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
            gain = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
            bias = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
            layer_norm(x, gain, bias)
            assert [node.op for node in g.nodes if node.op != "leaf"] == ["layer_norm"]

    def test_double_backward_matches_fd(self):
        # P = ||d/dx sum(c * LN(x; gain, bias))||^2, with the input gradient
        # from the recorded rule, differentiated in x and in gain, against
        # central differences of P evaluated with a first-order backward
        rng = np.random.default_rng(14)
        x0 = rng.standard_normal((2, 3, 2, 2))
        gain0 = rng.standard_normal((3, 2, 2))
        bias = rng.standard_normal((3, 2, 2))
        c = rng.standard_normal((2, 3, 2, 2))

        def value(xv, gv):
            with Graph():
                x = Tensor(xv.copy(), requires_grad=True)
                y = layer_norm(x, Tensor(gv.copy()), Tensor(bias))
                gx = backward(ad.tsum(ad.mul(y, Tensor(c))))[x]
                return float(np.sum(gx.data ** 2))

        with Graph():
            x = Tensor(x0.copy(), requires_grad=True)
            gain = Tensor(gain0.copy(), requires_grad=True)
            gx = recorded_rule(layer_norm(x, gain, Tensor(bias)), Tensor(c))
            grads = backward(ad.tsum(ad.square(gx)))
        fd_x = finite_difference_gradient(lambda xv: value(xv, gain0), x0)
        fd_gain = finite_difference_gradient(lambda gv: value(x0, gv), gain0)
        assert max_relative_error(grads[x].data, fd_x) < 1e-5
        assert max_relative_error(grads[gain].data, fd_gain) < 1e-5

    def test_constant_input_zeroed(self):
        x = np.repeat(np.array([[2.0], [5.0]]), 6, axis=1).reshape(2, 6)
        out = layer_norm(Tensor(x), Tensor(np.ones(6)), Tensor(np.zeros(6)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_two_point_standardization(self):
        # variance 1, so the points land at -+1 / sqrt(1 + LN_EPS)
        out = layer_norm(
            Tensor(np.array([[1.0, 3.0]])),
            Tensor(np.ones(2)), Tensor(np.zeros(2)),
        )
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]] / np.sqrt(1.0 + LN_EPS), atol=1e-6)

    def test_per_sample_statistics(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 3, 5, 5))
        out = layer_norm(
            Tensor(x),
            Tensor(np.ones((3, 5, 5))), Tensor(np.zeros((3, 5, 5))),
        ).data
        flat = out.reshape(4, -1)
        # each sample's variance v is scaled to v / (v + LN_EPS)
        x_var = x.reshape(4, -1).var(axis=1)
        assert np.all(np.abs(flat.mean(axis=1)) < 1e-6)
        assert np.all(np.abs(flat.var(axis=1) - x_var / (x_var + LN_EPS)) < 1e-5)

    def test_affine_shape_mismatch(self):
        with pytest.raises(ValueError, match="do not match normalized extent"):
            layer_norm(Tensor(np.ones((2, 6))), Tensor(np.ones(5)), Tensor(np.zeros(6)))

    def test_input_gradient_matches_fd(self):
        rng = np.random.default_rng(9)
        x0 = rng.standard_normal((2, 3, 2, 2))
        gain = rng.standard_normal((3, 2, 2))
        bias = rng.standard_normal((3, 2, 2))

        def f_np(x):
            flat = x.reshape(2, -1)
            mu = flat.mean(axis=1, keepdims=True)
            var = flat.var(axis=1, keepdims=True)
            xn = ((flat - mu) / np.sqrt(var + LN_EPS)).reshape(x.shape)
            return float(np.sum((xn * gain[None] + bias[None]) ** 2))

        fd_check(
            f_np,
            lambda x: ad.tsum(ad.square(layer_norm(x, Tensor(gain), Tensor(bias)))),
            x0,
            tol=1e-5,
        )

    def test_gain_bias_gradients(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 4))
        for which in ("gain", "bias"):
            def f_np(p, which=which):
                mu = x.mean(axis=1, keepdims=True)
                var = x.var(axis=1, keepdims=True)
                xn = (x - mu) / np.sqrt(var + LN_EPS)
                out = xn * p + 0 if which == "gain" else xn + p
                return float(np.sum(out ** 2))

            def f_ad(p, which=which):
                gain = p if which == "gain" else Tensor(np.ones(4, dtype=np.float64))
                bias = p if which == "bias" else Tensor(np.zeros(4, dtype=np.float64))
                return ad.tsum(ad.square(layer_norm(Tensor(x), gain, bias)))

            fd_check(f_np, f_ad, rng.standard_normal(4), tol=1e-5)


def probe(shape, dtype, seed):
    """The fixed output gradient c, or the weights of the loss sum(c * y)."""
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


def first_order(build, arrays, seed):
    """Gradients of sum(c * build(*leaves)), c = probe(...), in every leaf,
    from a first-order backward."""
    with Graph():
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        y = build(*leaves)
        grads = backward(ad.tsum(ad.mul(y, Tensor(probe(y.shape, y.dtype, seed)))))
    return [grads[t].data for t in leaves]


def vjp_and_rec(build, arrays, seed):
    """The two rules of build's output node, called directly at the output
    gradient c = probe(...): the first-order rule's gradients and the
    recorded rule's, in every leaf input (a fused op's recorded rule gives
    its data input's alone)."""
    with Graph():
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        y = build(*leaves)
        node = y.graph.nodes[y.node]
        c = probe(y.shape, y.dtype, seed)
        live = [j is not None for j in node.input_ids]
        first = node.vjp(c, live)
        recorded = node.rec(Tensor(c), live)
    return ([d for d, n in zip(first, live) if n],
            [d.data for d in recorded if d is not None])


def affine_chain(x, w, b):
    """affine as the permute / reshape / matmul / add chain it replaces."""
    bs, c, space = x.shape[0], x.shape[1], x.shape[2:]
    nd = x.ndim
    lead = ad.permute(x, (0,) + tuple(range(2, nd)) + (1,)) if space else x
    y = ad.add(matmul(ad.reshape(lead, (bs, int(np.prod(space)), c)), w), b)
    y = ad.reshape(y, (bs,) + space + (w.shape[1],))
    return ad.permute(y, (0, nd - 1) + tuple(range(1, nd - 1))) if space else y


DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["single", "double"])


ALL_OPS = {"conv2d", "upsample2", "layer_norm", "prelu", "affine", "reshape", "expand",
           "permute", "matmul", "square", "add", "sqrt", "tanh", "mul", "sub", "div",
           "sum", "subsample2", "fold3x3", "spread2"}
# the ops a critic forward records, and the only ones with a recorded rule
RECORDED_OPS = {"add", "sum", "reshape", "subsample2", "conv2d", "affine", "prelu",
                "layer_norm"}


def every_op_loss(rng):
    """A scalar on the active graph whose tape holds every op in ALL_OPS."""
    def leaf(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True)

    x, w, b = leaf(2, 3, 8, 8), leaf(4, 3, 3, 3), leaf(4)
    y = ad.upsample2(conv2d(x, w, b, stride=2))
    y = prelu(layer_norm(y, leaf(4, 8, 8), leaf(4, 8, 8)), leaf(4))
    y = ad.affine(y, leaf(4, 5), leaf(5))
    y = ad.affine(ad.reshape(y, (2, -1)), leaf(320, 1), leaf(1))
    p = matmul(ad.permute(ad.expand(leaf(1, 4), (3, 4)), (1, 0)), leaf(3, 5))
    p = ad.div(ad.mul(ad.sqrt(ad.add(ad.square(p), 1.0)), ad.tanh(p)),
               ad.sub(leaf(5), -3.0))
    q = ad.spread2(ad.fold3x3(leaf(2, 18, 6), (5, 3), 2), (9, 5))
    return ad.add(ad.add(ad.tsum(y), ad.tsum(ad.subsample2(ad.reshape(p, (1, 1, 4, 5))))),
                  ad.tsum(q))


class TestFirstOrderRules:
    """A first-order backward runs each fused op's rule on arrays: the input
    gradient in the float order of its recorded graph-op rule, so the two
    are bitwise equal, and the parameter gradients bitwise equal to a
    reference computed here."""

    @DTYPES
    def test_layer_norm(self, dtype):
        rng = np.random.default_rng(30)
        arrays = [(3.0 * rng.standard_normal((3, 4, 5, 5)) + 1.0).astype(dtype),
                  rng.standard_normal((4, 5, 5)).astype(dtype),
                  rng.standard_normal((4, 5, 5)).astype(dtype)]
        def build(x, g, b):
            return layer_norm(x, g, b)

        first, recorded = vjp_and_rec(build, arrays, 31)
        assert_same_bits(first[0], recorded[0])
        for a, b in zip(first, first_order(build, arrays, 31)):
            assert_same_bits(a, b)
        # the composite chain's backward: the same gain and bias gradients;
        # its input gradient takes another path and rounds differently
        composite = first_order(layer_norm_composite, arrays, 31)
        np.testing.assert_array_equal(first[1], composite[1])
        np.testing.assert_array_equal(first[2], composite[2])
        tol = 16 * np.finfo(dtype).eps * np.max(np.abs(composite[0]))
        np.testing.assert_allclose(first[0], composite[0], rtol=0, atol=tol)

    @DTYPES
    def test_prelu(self, dtype):
        rng = np.random.default_rng(32)
        x0 = rng.standard_normal((3, 4, 5, 5)).astype(dtype)
        arrays = [x0, rng.uniform(0.1, 0.5, size=4).astype(dtype)]
        first, recorded = vjp_and_rec(prelu, arrays, 33)
        assert_same_bits(first[0], recorded[0])
        # the slope gradient: the output gradient times the negative mask times x
        neg = (x0 < 0).astype(dtype)
        np.testing.assert_array_equal(
            first[1], ((probe(x0.shape, dtype, 33) * neg) * x0).sum(axis=(0, 2, 3)))

    @DTYPES
    @pytest.mark.parametrize("filters,stride", [(1, 1), (1, 2), (3, 2)])
    def test_conv2d_bias_and_single_filter_input(self, dtype, filters, stride):
        # the bias gradient always; the input gradient bit for bit at F = 1,
        # where every entry is one product in both rules (an outer product
        # in the first-order rule, a GEMM with K = 1 per sample in the
        # recorded one), and to rounding at F > 1
        rng = np.random.default_rng(34)
        arrays = [rng.standard_normal((2, 3, 6, 6)).astype(dtype),
                  rng.standard_normal((filters, 3, 3, 3)).astype(dtype),
                  rng.standard_normal(filters).astype(dtype)]
        first, recorded = vjp_and_rec(lambda x, w, b: conv2d(x, w, b, stride), arrays, 35)
        c = probe((2, filters, 6 // stride, 6 // stride), dtype, 35)
        np.testing.assert_array_equal(first[2], c.sum(axis=(0, 2, 3)))
        if filters == 1:
            assert_same_bits(first[0], recorded[0])
        else:
            np.testing.assert_allclose(first[0], recorded[0], rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("batch", [1, 2, 4, 64])
    def test_upsample2(self, batch):
        # the four strided adds give numpy's sum over the 2x2 blocks bit for
        # bit at every map the generators upsample, the smallest 4x4
        shapes = []
        for cfg in (RunConfig(image_size=8, latent_dim=6, base_width=4, n_blocks=1),
                    RunConfig(), RunConfig(image_size=64, n_blocks=4)):
            gen = Generator(cfg)
            size = 4
            for _, cin, _, up in gen.blocks:
                if up:
                    shapes.append((batch, cin, size, size))
                    size *= 2
        assert (batch, 128, 4, 4) in shapes and (batch, 32, 32, 32) in shapes
        for shape in shapes:
            b, c, h, w = shape
            with Graph():
                x = Tensor(np.random.default_rng(37).standard_normal(shape).astype(np.float32),
                           requires_grad=True)
                c2 = probe((b, c, 2 * h, 2 * w), np.float32, 38)
                first = backward(ad.tsum(ad.mul(ad.upsample2(x), Tensor(c2))))[x].data
            g6 = c2.reshape(b, c, h, 2, w, 2)
            assert first.tobytes() == g6.sum(axis=(3, 5)).tobytes()

    def test_first_order_vjps_dispatch_no_op(self, monkeypatch):
        # every first-order rule computes on arrays: a rule written back in
        # graph ops, or calling one (fold3x3's calls the array kernel
        # unfold3x3), dispatches one or more
        dispatched, inside = [], []
        real_apply = ad._apply

        def counting_apply(op, out_data, inputs, vjp, rec=None):
            if inside:
                dispatched.append(op)
            return real_apply(op, out_data, inputs, vjp, rec)

        def watched(vjp):
            def run(g, needs):
                inside.append(True)
                try:
                    return vjp(g, needs)
                finally:
                    inside.pop()
            return run

        with Graph() as g:
            loss = every_op_loss(np.random.default_rng(36))
            ops = {node.op for node in g.nodes} - {"leaf"}
            for node in g.nodes:
                if node.op != "leaf":
                    node.vjp = watched(node.vjp)
            leaves = [node.leaf for node in g.nodes if node.op == "leaf"]
            monkeypatch.setattr(ad, "_apply", counting_apply)
            grads = backward(loss)
        assert ops == ALL_OPS
        assert dispatched == []
        assert all(leaf in grads for leaf in leaves) and len(leaves) == 14

    @pytest.mark.parametrize("cfg", [RunConfig(image_size=8, latent_dim=6, base_width=4,
                                               n_blocks=1), RunConfig()],
                             ids=["tiny", "default"])
    def test_recorded_rules_are_the_critic_forward_ops(self, cfg):
        # the ops with a recorded rule are exactly those the penalty's
        # recorded backward meets: the ops of sum(critic(xhat))
        with Graph() as g:
            every_op_loss(np.random.default_rng(39))
            recorded = {node.op for node in g.nodes if node.rec is not None}
        assert recorded == RECORDED_OPS
        disc = Discriminator(cfg)
        phi = disc.init_params(np.random.default_rng(40))
        s = cfg.image_size
        with Graph() as g:
            xhat = Tensor(np.zeros((2, 1, s, s), dtype=cfg.dtype), requires_grad=True)
            ad.tsum(disc.forward(phi.bind(), xhat))
            assert {node.op for node in g.nodes} - {"leaf"} == recorded


def positive(shape):
    return lambda rng: np.abs(rng.standard_normal(shape)) + 0.5


def normal(shape):
    return lambda rng: rng.standard_normal(shape)


# op, operand forms (a leaf drawn per entry), build from the leaves; every
# binary op's forms: equal shapes, and on the right a suffix, a 0-d operand
# or a Python scalar
BINARY_FORMS = {
    "same": ((normal((2, 3, 4)), positive((2, 3, 4))), lambda op: op),
    "suffix-right": ((normal((2, 3, 4)), positive((4,))), lambda op: op),
    "suffix-right-2d": ((normal((2, 3, 4)), positive((3, 4))), lambda op: op),
    "0d-right": ((normal((2, 3)), positive(())), lambda op: op),
    "scalar-right": ((positive((2, 3)),), lambda op: lambda a: op(a, 1.7)),
}
PRIMITIVE_CASES = [
    (f"{name}-{form}", leaves, wrap(op))
    for name, op in [("add", ad.add), ("sub", ad.sub), ("mul", ad.mul), ("div", ad.div)]
    for form, (leaves, wrap) in BINARY_FORMS.items()
] + [
    ("square", (normal((2, 3)),), ad.square),
    ("sqrt", (positive((2, 3)),), ad.sqrt),
    ("tanh", (normal((2, 3)),), ad.tanh),
    ("sum-all", (normal((2, 3, 4)),), ad.tsum),
    ("sum-axes", (normal((2, 3, 4)),), lambda a: ad.tsum(a, axes=(0, 2))),
    ("sum-last-keepdims", (normal((2, 3, 4)),), lambda a: ad.tsum(a, axes=(-1,), keepdims=True)),
    ("sum-0d", (normal(()),), ad.tsum),
    ("mean-keepdims", (normal((2, 3, 4)),), lambda a: ad.tmean(a, axes=(1, 2), keepdims=True)),
    ("reshape", (normal((2, 3, 4)),), lambda a: ad.reshape(a, (6, -1))),
    ("permute", (normal((2, 3, 4)),), lambda a: ad.permute(a, (2, 0, 1))),
    ("expand-new-axes", (normal((4,)),), lambda a: ad.expand(a, (2, 3, 4))),
    ("expand-size-1", (normal((3, 1)),), lambda a: ad.expand(a, (3, 5))),
    ("expand-both", (normal((1, 4)),), lambda a: ad.expand(a, (2, 3, 4))),
    ("expand-none", (normal((3,)),), lambda a: ad.expand(a, (1, 3))),
    ("matmul", (normal((2, 3)), normal((3, 4))), matmul),
    ("matmul-batch-left", (normal((5, 2, 3)), normal((3, 4))), matmul),
    ("matmul-batch-right", (normal((2, 3)), normal((5, 3, 4))), matmul),
    ("matmul-batch-both", (normal((5, 2, 3)), normal((5, 3, 4))), matmul),
    ("matmul-long-n", (normal((2, 400)), normal((400, 390))), matmul),
    ("matmul-long-m", (normal((390, 3)), normal((5, 3, 2))), matmul),
    ("subsample2-even", (normal((2, 3, 4, 6)),), ad.subsample2),
    ("subsample2-odd", (normal((2, 3, 5, 3)),), ad.subsample2),
    ("spread2-even", (normal((2, 3, 2, 3)),), lambda a: ad.spread2(a, (4, 6))),
    ("spread2-odd", (normal((2, 3, 3, 2)),), lambda a: ad.spread2(a, (5, 3))),
    ("fold3x3-stride1", (normal((2, 18, 12)),), lambda a: ad.fold3x3(a, (3, 4), 1)),
    ("fold3x3-stride2", (normal((2, 18, 6)),), lambda a: ad.fold3x3(a, (5, 3), 2)),
]
# the cases whose output node has a recorded rule: add's only at equal shapes
RECORDED_CASES = [case for case in PRIMITIVE_CASES
                  if case[0].split("-")[0] in RECORDED_OPS - {"add"} or case[0] == "add-same"]


class TestPrimitiveFirstOrderRules:
    """Every primitive op's first-order rule, for every operand form the op
    accepts: against central differences of its forward, and, where the op
    has a recorded rule, bit for bit against it."""

    @DTYPES
    @pytest.mark.parametrize("draws,build", [case[1:] for case in PRIMITIVE_CASES],
                             ids=[case[0] for case in PRIMITIVE_CASES])
    def test_matches_finite_differences(self, dtype, draws, build):
        rng = np.random.default_rng(60)
        arrays = [np.asarray(draw(rng), dtype=np.float64) for draw in draws]
        grads = first_order(build, [a.astype(dtype) for a in arrays], 61)
        exact = first_order(build, arrays, 61)
        for i, (a, grad, ref) in enumerate(zip(arrays, grads, exact)):
            assert (grad.dtype, grad.shape) == (dtype, a.shape)
            np.testing.assert_allclose(grad, ref, rtol=1e-4, atol=1e-4 * np.max(np.abs(ref)))

            def loss(v, i=i):
                y = build(*[Tensor(v if j == i else b) for j, b in enumerate(arrays)])
                return float(np.sum(probe(y.shape, np.float64, 61) * y.data))

            coords = rng.choice(a.size, size=min(a.size, 24), replace=False)
            fd = finite_difference_gradient(loss, a, coords=coords)
            assert agreement_error(np.reshape(ref, -1)[coords], fd, loss(a)) < DEFAULT_TOL

    @DTYPES
    @pytest.mark.parametrize("draws,build", [case[1:] for case in RECORDED_CASES],
                             ids=[case[0] for case in RECORDED_CASES])
    def test_bitwise_equal_to_recorded(self, dtype, draws, build):
        rng = np.random.default_rng(60)
        arrays = [np.asarray(draw(rng), dtype=dtype) for draw in draws]
        first, recorded = vjp_and_rec(build, arrays, 61)
        assert len(first) == len(recorded) == len(arrays)
        for f, r in zip(first, recorded):
            assert_same_bits(f, r)


class TestAffine:
    @DTYPES
    @pytest.mark.parametrize("shape", [(3, 4, 5, 6), (3, 4)], ids=["1x1", "dense"])
    def test_bitwise_equal_to_chain(self, dtype, shape):
        rng = np.random.default_rng(40)
        arrays = [rng.standard_normal(shape).astype(dtype),
                  rng.standard_normal((4, 7)).astype(dtype),
                  rng.standard_normal(7).astype(dtype)]
        out = ad.affine(*map(Tensor, arrays)).data
        assert out.shape == (3, 7) + shape[2:] and out.dtype == dtype
        np.testing.assert_array_equal(out, affine_chain(*map(Tensor, arrays)).data)
        first, recorded = vjp_and_rec(ad.affine, arrays, 41)
        assert_same_bits(first[0], recorded[0])
        for a, b in zip(first, first_order(affine_chain, arrays, 41)):
            np.testing.assert_array_equal(a, b)

    def test_records_one_node(self):
        rng = np.random.default_rng(42)
        with Graph() as g:
            x = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
            ad.affine(x, Tensor(rng.standard_normal((3, 5))), Tensor(np.zeros(5)))
            assert [node.op for node in g.nodes if node.op != "leaf"] == ["affine"]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="^affine cannot map"):
            ad.affine(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))), Tensor(np.ones(5)))
        with pytest.raises(ValueError, match=r"^bias shape \(4,\) != \(5,\)$"):
            ad.affine(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 5))), Tensor(np.ones(4)))

    def test_double_backward_matches_fd(self):
        # P = ||d/dx sum(c * affine(x, w, b)^2)||^2, with the input gradient
        # from the recorded rule at the output gradient 2 c y, differentiated
        # in x, w and b, against central differences of P evaluated with a
        # first-order backward
        rng = np.random.default_rng(43)
        arrays = [rng.standard_normal((2, 3, 2, 2)), rng.standard_normal((3, 4)),
                  rng.standard_normal(4)]
        c = rng.standard_normal((2, 4, 2, 2))

        def value(i):
            def f(v):
                with Graph():
                    leaves = [Tensor(v.copy() if j == i else a.copy(), requires_grad=j == 0)
                              for j, a in enumerate(arrays)]
                    s = ad.tsum(ad.mul(ad.square(ad.affine(*leaves)), Tensor(c)))
                    return float(np.sum(backward(s)[leaves[0]].data ** 2))
            return f

        with Graph():
            leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            y = ad.affine(*leaves)
            gx = recorded_rule(y, ad.mul(ad.mul(y, 2.0), Tensor(c)))
            grads = backward(ad.tsum(ad.square(gx)))
        for i, a in enumerate(arrays):
            fd = finite_difference_gradient(value(i), a)
            assert max_relative_error(grads[leaves[i]].data, fd) < 1e-5


class TestSpatialPrimitives:
    def test_upsample_subsample_shapes(self):
        x = Tensor(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4))
        up = ad.upsample2(x)
        assert up.shape == (1, 1, 8, 8)
        sub = ad.subsample2(x)
        np.testing.assert_array_equal(sub.data[0, 0], [[0, 2], [8, 10]])

    @pytest.mark.parametrize(
        "op,f_np",
        [
            (ad.upsample2, lambda x: float(np.sum(x.repeat(2, 2).repeat(2, 3) ** 2))),
            (ad.subsample2, lambda x: float(np.sum(x[:, :, ::2, ::2] ** 2))),
        ],
    )
    def test_gradients(self, op, f_np):
        rng = np.random.default_rng(12)
        fd_check(
            f_np,
            lambda x: ad.tsum(ad.square(op(x))),
            rng.standard_normal((1, 2, 4, 4)),
        )

    def test_unfold_fold_adjoint(self):
        # <unfold(x), c> == <x, fold(c)> for all x, c: defining adjoint property
        rng = np.random.default_rng(13)
        for hw in ((4, 4), (5, 5), (7, 4)):
            for stride in (1, 2):
                x = rng.standard_normal((2, 3) + hw)
                u = ad.unfold3x3(x, stride)
                c = rng.standard_normal(u.shape)
                f = ad.fold3x3(Tensor(c), hw, stride).data
                np.testing.assert_allclose(np.sum(u * c), np.sum(x * f), rtol=1e-12)


class TestBackward:
    def test_sum_gives_ones(self):
        with Graph():
            x = Tensor(np.random.default_rng(0).standard_normal((3, 2)), requires_grad=True)
            g = backward(ad.tsum(x))[x].data
        np.testing.assert_array_equal(g, np.ones((3, 2)))

    def test_half_square_gives_x(self):
        x0 = np.array([1.0, -2.0, 3.0])
        with Graph():
            x = Tensor(x0, requires_grad=True)
            loss = ad.mul(ad.tsum(ad.square(x)), 0.5)
            g = backward(loss)[x].data
        np.testing.assert_allclose(g, x0)

    def test_not_scalar(self):
        with Graph():
            x = Tensor(np.ones(3), requires_grad=True)
            with pytest.raises(ValueError, match="^loss must be scalar"):
                backward(ad.square(x))

    def test_dead_graph(self):
        with Graph():
            x = Tensor(np.ones(3), requires_grad=True)
            loss = ad.tsum(ad.square(x))
            backward(loss)
            with pytest.raises(RuntimeError, match="^graph already consumed"):
                backward(loss)

    def test_first_order_backward_releases_each_visited_node(self):
        # a node is released as soon as it is visited, so a rule that
        # raises leaves a consumed graph, not one with holes
        def failing(g, needs):
            raise ArithmeticError("rule failed")

        with Graph() as g:
            x = Tensor(np.ones(3), requires_grad=True)
            loss = ad.tsum(ad.square(x))
            g.nodes[x.node + 1].vjp = failing          # square's node
            with pytest.raises(ArithmeticError):
                backward(loss)
            assert g.dead and g.nodes[loss.node] is None
            with pytest.raises(RuntimeError, match="^graph already consumed"):
                backward(loss)

    def test_create_graph_keeps_graph_alive(self):
        with Graph() as g:
            x = Tensor(np.ones(3), requires_grad=True)
            loss = ad.tsum(ad.add(x, x))
            backward(loss, create_graph=True)
            assert not g.dead and len(g.nodes) > 0
            backward(loss)  # still alive
            assert g.dead and len(g.nodes) == 0   # a first-order backward releases the tape

    def test_create_graph_through_parameter_slots_records_nothing(self):
        # every leaf reaches the loss through a fused op's parameters alone:
        # a recorded backward differentiates fused ops in their data input
        # only, so it returns no gradient and records nothing
        rng = np.random.default_rng(25)
        x = Tensor(rng.standard_normal((2, 3, 4, 4)))
        with Graph() as g:
            p = {name: Tensor(rng.standard_normal(shape), requires_grad=True)
                 for name, shape in [("w", (2, 3, 3, 3)), ("b", (2,)), ("a", (3,)),
                                     ("gain", (3, 4, 4)), ("bias", (3, 4, 4)),
                                     ("m", (3, 2)), ("c", (2,))]}
            outs = [conv2d(x, p["w"], p["b"], 2), prelu(x, p["a"]),
                    layer_norm(x, p["gain"], p["bias"]), ad.affine(x, p["m"], p["c"])]
            loss = ad.tsum(outs[0])
            for out in outs[1:]:
                loss = ad.add(loss, ad.tsum(out))
            before = len(g.nodes)
            assert backward(loss, create_graph=True) == {}
            assert len(g.nodes) == before and not g.dead

    def test_grad_accumulates_over_multiple_uses(self):
        with Graph():
            x = Tensor(np.array([2.0]), requires_grad=True)
            y = ad.add(ad.mul(x, x), ad.mul(x, 3.0))  # x^2 + 3x
            g = backward(ad.tsum(y))[x].data
        np.testing.assert_allclose(g, [7.0])

    def test_create_graph_restricted_to_input(self):
        # every critic parameter is trainable, yet a recorded backward of
        # the scores gives the input's gradient alone: it differentiates
        # fused ops in their data input only
        cfg = RunConfig(image_size=8, latent_dim=6, base_width=4, n_blocks=1)
        disc = Discriminator(cfg)
        rng = np.random.default_rng(23)
        phi = disc.init_params(rng)
        x0 = np.tanh(rng.standard_normal((2, 1, 8, 8))).astype(np.float32)
        with Graph() as g:
            x = Tensor(x0, requires_grad=True)
            bound = phi.bind()
            assert all(t.requires_grad for t in bound.values())
            scores = disc.forward(bound, x)
            start = len(g.nodes)
            grads = backward(ad.tsum(scores), create_graph=True)
            ops = {node.op for node in g.nodes[start:]}
        assert list(grads) == [x]
        assert "unfold3x3" not in ops
        assert grads[x].requires_grad

    @pytest.mark.parametrize("op", ["upsample2", "mul", "tanh", "matmul", "add-suffix",
                                    "add-0d", "add-scalar"])
    def test_recorded_backward_without_rule_raises(self, op):
        # only the ops a critic forward records have a recorded rule, and
        # add's, which the critic runs on equal shapes, has it only there
        build, shapes = {
            "upsample2": (ad.upsample2, [(2, 3, 4, 4)]),
            "mul": (ad.mul, [(2, 3), (2, 3)]),
            "tanh": (ad.tanh, [(2, 3)]),
            "matmul": (matmul, [(2, 3), (3, 4)]),
            "add-suffix": (ad.add, [(2, 3), (3,)]),
            "add-0d": (ad.add, [(2, 3), ()]),
            "add-scalar": (lambda a: ad.add(a, 1.0), [(2, 3)]),
        }[op]
        rng = np.random.default_rng(24)
        with Graph():
            leaves = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
            loss = ad.tsum(build(*leaves))
            with pytest.raises(NotImplementedError, match=f"differentiate {op.split('-')[0]}$"):
                backward(loss, create_graph=True)


class TestFiniteDifference:
    def test_sum_gives_ones(self):
        fd = finite_difference_gradient(lambda x: float(np.sum(x)), np.zeros((2, 2)))
        np.testing.assert_allclose(fd, 1.0, atol=1e-9)

    def test_square_at_three(self):
        fd = finite_difference_gradient(lambda x: float(x[0] ** 2), np.array([3.0]), h=1e-5)
        assert abs(fd[0] - 6.0) < 1e-8

    def test_agreement_on_random_mlp(self):
        rng = np.random.default_rng(33)
        sizes = [(4, 5), (5, 4), (4, 1)]
        weights = [rng.standard_normal(s) * 0.5 for s in sizes]
        x_in = rng.standard_normal((2, 4))

        def run_np(ws):
            h = x_in
            for w in ws[:-1]:
                h = np.tanh(h @ w)
            return float(np.sum(h @ ws[-1]))

        def f_np(w0):
            return run_np([w0] + weights[1:])

        def f_ad(w0):
            h = Tensor(x_in.copy())
            ws = [w0] + [Tensor(w) for w in weights[1:]]
            for w in ws[:-1]:
                h = ad.tanh(matmul(h, w))
            return ad.tsum(matmul(h, ws[-1]))

        fd_check(f_np, f_ad, weights[0])


class TestGraph:
    def test_topological_order(self):
        with Graph() as g:
            x = Tensor(np.ones((2, 2)), requires_grad=True)
            y = ad.tsum(ad.square(ad.add(ad.mul(x, 2.0), 1.0)))
            assert len(g.nodes) > 1
            for idx, node in enumerate(g.nodes):
                assert all(j < idx for j in node.input_ids if j is not None)
            backward(y)

    def test_constants_make_no_tape_node(self):
        # only what a gradient flows through is recorded: a constant input
        # gets no leaf node, and its handle on the consuming node is None
        with Graph() as g:
            x = Tensor(np.ones((2, 3)), requires_grad=True)
            c = Tensor(np.full((2, 3), 2.0))
            y = ad.add(ad.mul(x, c), 1.0)
            assert [node.op for node in g.nodes] == ["leaf", "mul", "add"]
            assert [node.input_ids for node in g.nodes] == [(), (0, None), (1, None)]
            assert c.graph is None and c.node is None
            np.testing.assert_array_equal(backward(ad.tsum(y))[x].data, c.data)

    def test_requires_grad_propagation(self):
        with Graph():
            a = Tensor(np.ones(2), requires_grad=True)
            b = Tensor(np.ones(2))
            assert ad.add(a, b).requires_grad
            assert not ad.add(b, Tensor(a.data)).requires_grad

    def test_recording_outside_a_graph_block_raises(self):
        # there is no implicit tape: an op a gradient would flow through
        # needs a `with Graph()` block, an op on constants does not
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(RuntimeError, match=r"must run inside a `with Graph\(\)` block"):
            ad.square(x)
        assert x.graph is None
        np.testing.assert_array_equal(ad.square(Tensor(x.data)).data, [1.0, 1.0])

    def test_non_leaf_from_another_graph_rejected(self):
        with Graph():
            x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
            y = ad.square(x)
        with Graph():
            with pytest.raises(RuntimeError, match="from another graph.*Tensor"):
                ad.add(y, 1.0)
            # its value as a constant may be used, and a leaf joins any graph
            grads = backward(ad.tsum(ad.mul(Tensor(y.data), x)))
        np.testing.assert_array_equal(grads[x].data, [1.0, 4.0])

    def test_mixed_dtype_rejected(self):
        a = Tensor(np.ones(2, dtype=np.float32))
        b = Tensor(np.ones(2, dtype=np.float64))
        with pytest.raises(TypeError):
            ad.add(a, b)
        # conv2d's bias too: a float64 one would have cast its sum silently
        with pytest.raises(TypeError, match="mixed dtypes float32 and float64"):
            conv2d(Tensor(np.ones((1, 1, 3, 3), np.float32)),
                   Tensor(np.ones((1, 1, 3, 3), np.float32)), Tensor(np.ones(1)), 1)


def run_and_drop(build, shape):
    """Apply build to an intermediate h = 2x, drop the caller's h, and return
    whether h's array is still alive while the tape is, and x's gradient."""
    with Graph() as g:
        x = Tensor(np.random.default_rng(0).standard_normal(shape), requires_grad=True)
        h = ad.mul(x, 2.0)              # not a leaf: only a node's rules could keep it
        ref = weakref.ref(h.data)
        y = build(h)
        del h
        alive = ref() is not None
        assert g.nodes[y.node].vjp is not None      # the node is on the live tape
        return alive, backward(ad.tsum(y))[x].data


class TestRetention:
    """A node's rules keep only the arrays they read: an operand read only
    for its shape, and a fused op's input when the parameter whose gradient
    reads it is frozen, die with the caller's last reference to them."""

    @pytest.mark.parametrize("build, grad", [
        (lambda h: ad.add(h, 1.0), 2.0),
        (lambda h: ad.add(h, Tensor(np.ones(4))), 2.0),
        (lambda h: ad.add(h, Tensor(np.float64(1.0))), 2.0),
        (lambda h: ad.sub(h, 1.0), 2.0),
        (lambda h: ad.sub(h, Tensor(np.ones(4))), 2.0),
        (lambda h: ad.sub(h, Tensor(np.float64(1.0))), 2.0),
        (lambda h: ad.tsum(h, axes=(1,)), 2.0),
        (lambda h: ad.tsum(h, axes=(0,), keepdims=True), 2.0),
    ], ids=["add", "add-suffix", "add-0d", "sub", "sub-suffix", "sub-0d", "tsum",
            "tsum-keepdims"])
    def test_shape_only_operand_is_not_kept(self, build, grad):
        alive, dx = run_and_drop(build, (3, 4))
        assert not alive
        np.testing.assert_array_equal(dx, np.full((3, 4), grad))

    FUSED = {
        "conv2d": ((2, 3, 5, 5), lambda h, p: conv2d(
            h, p(np.linspace(-1, 1, 4 * 3 * 9).reshape(4, 3, 3, 3)), p(np.ones(4)), stride=2)),
        "affine": ((2, 3), lambda h, p: ad.affine(
            h, p(np.linspace(-1, 1, 12).reshape(3, 4)), p(np.zeros(4)))),
        "prelu": ((2, 3, 4, 4), lambda h, p: prelu(h, p(np.array([0.25, -0.5, 2.0])))),
    }

    @pytest.mark.parametrize("op", sorted(FUSED))
    def test_fused_input_is_kept_only_for_a_parameter_gradient(self, op):
        shape, build = self.FUSED[op]
        frozen, dx_frozen = run_and_drop(lambda h: build(h, Tensor), shape)
        assert not frozen
        # a trainable parameter's gradient reads the input, so it is kept,
        # and the input gradient does not depend on which
        trainable, dx = run_and_drop(lambda h: build(h, lambda a: Tensor(a, True)), shape)
        assert trainable
        assert_same_bits(dx_frozen, dx)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=1, max_size=8),
    st.lists(st.floats(-10, 10), min_size=1, max_size=8),
)
def test_add_commutes_property(xs, ys):
    n = min(len(xs), len(ys))
    a = Tensor(np.array(xs[:n], dtype=np.float64))
    b = Tensor(np.array(ys[:n], dtype=np.float64))
    np.testing.assert_array_equal(ad.add(a, b).data, ad.add(b, a).data)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
def test_primitive_grad_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((rows, cols))
    fd_check(
        lambda x: float(np.sum(np.tanh(x) * x)),
        lambda x: ad.tsum(ad.mul(ad.tanh(x), x)),
        x0,
        tol=1e-5,
    )
