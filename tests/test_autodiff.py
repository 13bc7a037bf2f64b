import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from figr import autodiff as ad
from figr.autodiff import (
    DeadGraph,
    Graph,
    NotScalar,
    ShapeMismatch,
    Tensor,
    backward,
    conv2d,
    layer_norm,
    matmul,
    prelu,
    tensor,
)
from figr.gradcheck import finite_difference_gradient, max_relative_error
from figr.models import Discriminator, ModelConfig

FD_TOL = 1e-6
SRC = str(Path(__file__).resolve().parents[1] / "src")


def fd_check(f_np, f_ad, x0, tol=FD_TOL, h=1e-6):
    """Compare reverse-mode gradient of f_ad against central differences of f_np."""
    with Graph("double"):
        x = tensor(np.asarray(x0, dtype=np.float64), requires_grad=True)
        loss = f_ad(x)
        grad = backward(loss)[x].data
    fd = finite_difference_gradient(f_np, np.asarray(x0, dtype=np.float64), h=h)
    err = max_relative_error(grad, fd)
    assert err < tol, f"gradient mismatch: rel err {err:.3e}"
    return grad


class TestElementwise:
    def test_add_componentwise(self):
        out = ad.add(tensor([1.0, 2.0]), tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_mean_of_constant_is_constant(self):
        c = 0.73
        out = tensor(np.full((4,), c, dtype=np.float64)).mean()
        assert out.item() == c

    def test_grad_mean_of_square(self):
        # d(mean(x^2))/dx at [1,2,3] is [2/3, 4/3, 2]
        grad = fd_check(
            lambda x: float(np.mean(x ** 2)),
            lambda x: ad.square(x).mean(),
            [1.0, 2.0, 3.0],
        )
        np.testing.assert_allclose(grad, [2 / 3, 4 / 3, 2.0], rtol=1e-12)

    def test_suffix_broadcast(self):
        a = tensor(np.ones((2, 3), dtype=np.float32))
        b = tensor(np.arange(3, dtype=np.float32))
        out = ad.add(a, b)
        np.testing.assert_array_equal(out.data, [[1, 2, 3], [1, 2, 3]])

    def test_scalar_broadcast_and_sugar(self):
        x = tensor([1.0, -2.0])
        out = 2.0 * x + 1.0 - x / 2.0
        np.testing.assert_allclose(out.data, [2.5, -2.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ad.add(tensor(np.ones((2, 3))), tensor(np.ones((3, 2))))

    def test_broadcast_grad_reduces(self):
        with Graph("double"):
            b = tensor(np.array([1.0, 2.0]), requires_grad=True)
            a = tensor(np.ones((3, 2), dtype=np.float64))
            loss = ad.mul(a, b).sum()
            g = backward(loss)[b].data
        np.testing.assert_allclose(g, [3.0, 3.0])

    @pytest.mark.parametrize(
        "name,f_np,f_ad",
        [
            ("square", lambda x: float(np.sum(x ** 2)), lambda x: ad.square(x).sum()),
            ("tanh", lambda x: float(np.sum(np.tanh(x))), lambda x: ad.tanh(x).sum()),
            ("mul-div", lambda x: float(np.sum(x * 3.0 / (x ** 2 + 1))),
             lambda x: ad.div(ad.mul(x, 3.0), ad.add(ad.square(x), 1.0)).sum()),
        ],
    )
    def test_primitive_gradients_match_fd(self, name, f_np, f_ad):
        rng = np.random.default_rng(abs(hash(name)) % 2 ** 31)
        x0 = rng.standard_normal(7)
        fd_check(f_np, f_ad, x0)

    @pytest.mark.parametrize(
        "name,f_np,f_ad",
        [
            ("sqrt", lambda x: float(np.sum(np.sqrt(x))), lambda x: ad.sqrt(x).sum()),
        ],
    )
    def test_positive_domain_gradients(self, name, f_np, f_ad):
        rng = np.random.default_rng(3)
        x0 = rng.uniform(0.2, 3.0, size=5)
        fd_check(f_np, f_ad, x0)


class TestReductionsStructure:
    def test_sum_axes_keepdims(self):
        x = tensor(np.arange(24, dtype=np.float64).reshape(2, 3, 4))
        out = x.sum(axes=(1, 2), keepdims=True)
        assert out.shape == (2, 1, 1)
        np.testing.assert_allclose(out.data.ravel(), [66.0, 210.0])

    def test_mean_gradient(self):
        fd_check(
            lambda x: float(np.mean(x)),
            lambda x: x.mean(),
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
            return ad.square(y).sum()

        fd_check(f_np, f_ad, x0)

    @pytest.mark.parametrize("base, shape", [
        (np.arange(3, dtype=np.float32).reshape(3, 1), (2, 3, 4)),
        (np.arange(6, dtype=np.float32).reshape(2, 3).T, (4, 3, 2)),       # F-contiguous
        (np.arange(12, dtype=np.float32).reshape(3, 4)[:, ::2], (4, 3, 2)),  # strided
    ], ids=["contiguous", "transposed", "strided"])
    def test_expand_is_the_broadcast_view(self, base, shape):
        out = ad.expand(tensor(base), shape).data
        ref = np.broadcast_to(base, shape)
        np.testing.assert_array_equal(out, ref)
        assert out.strides == ref.strides and not out.flags.writeable
        assert np.shares_memory(out, base)


class TestMatmul:
    def test_identity(self):
        b = np.arange(6, dtype=np.float32).reshape(2, 3)
        out = matmul(tensor(np.eye(2, dtype=np.float32)), tensor(b))
        np.testing.assert_array_equal(out.data, b)

    def test_hand_arithmetic(self):
        out = matmul(tensor([[1.0, 2.0], [3.0, 4.0]]), tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeMismatch):
            matmul(tensor(np.ones((2, 3))), tensor(np.ones((2, 3))))

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((3, 4))
        fd_check(
            lambda a: float(np.sum(a @ b)),
            lambda a: matmul(a, tensor(b)).sum(),
            rng.standard_normal((2, 3)),
        )

    def test_shared_left_operand_grads(self):
        # [m,k] @ [B,k,n]: one GEMM per sample, the left gradient summed over B
        rng = np.random.default_rng(9)
        a0, b0 = rng.standard_normal((2, 3)), rng.standard_normal((4, 3, 5))
        fd_check(lambda a: float(np.sum((a @ b0) ** 2)),
                 lambda a: ad.square(matmul(a, tensor(b0))).sum(), a0)
        fd_check(lambda b: float(np.sum((a0 @ b) ** 2)),
                 lambda b: ad.square(matmul(tensor(a0), b)).sum(), b0)
        with pytest.raises(ShapeMismatch):
            matmul(tensor(a0), tensor(np.ones((4, 2, 5))))

    def test_grad_wrt_right_operand(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((2, 3))
        fd_check(
            lambda b: float(np.sum((a @ b) ** 2)),
            lambda b: ad.square(matmul(tensor(a), b)).sum(),
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
        x = tensor(np.random.default_rng(0).standard_normal((2, 3, 4, 4)).astype(np.float32))
        w = tensor(np.zeros((5, 3, 3, 3), dtype=np.float32))
        out = conv2d(x, w, None, stride=1)
        assert out.shape == (2, 5, 4, 4)
        np.testing.assert_array_equal(out.data, 0)

    def test_ones_center_is_nine(self):
        x = tensor(np.ones((1, 1, 3, 3), dtype=np.float64))
        w = tensor(np.ones((1, 1, 3, 3), dtype=np.float64))
        out = conv2d(x, w, None, stride=1)
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
                out = conv2d(tensor(x.astype(dtype)), tensor(w.astype(dtype)),
                             tensor(b.astype(dtype)), stride=stride)
                assert out.data.dtype == dtype
                np.testing.assert_allclose(out.data, ref, atol=atol)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_each_sample_independent_of_batch(self, stride):
        # one GEMM per sample: a sample's output does not depend on the batch
        rng = np.random.default_rng(43)
        x = rng.standard_normal((3, 5, 7, 6)).astype(np.float32)
        w = tensor(rng.standard_normal((4, 5, 3, 3)).astype(np.float32))
        b = tensor(rng.standard_normal(4).astype(np.float32))
        batch = conv2d(tensor(x), w, b, stride=stride).data
        for n in range(3):
            alone = conv2d(tensor(x[n:n + 1]), w, b, stride=stride).data
            np.testing.assert_array_equal(batch[n:n + 1], alone)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeMismatch):
            conv2d(tensor(np.ones((1, 2, 4, 4))), tensor(np.ones((1, 3, 3, 3))), None, 1)

    def test_gradients_independent_of_blas_threads(self):
        # the weight gradient reduces over the padded grid; OpenBLAS blocks
        # some reduction lengths differently at different thread counts
        code = (
            "import hashlib, numpy as np\n"
            "from figr import autodiff as ad\n"
            "rng = np.random.default_rng(0)\n"
            "h = hashlib.sha256()\n"
            "for b, c, f, hw, s in ((8, 16, 32, 32, 2), (4, 32, 16, 32, 1), (3, 32, 32, 15, 1)):\n"
            "    x = ad.tensor(rng.standard_normal((b, c, hw, hw)).astype(np.float32), requires_grad=True)\n"
            "    w = ad.tensor(rng.standard_normal((f, c, 3, 3)).astype(np.float32), requires_grad=True)\n"
            "    y = ad.conv2d(x, w, None, s)\n"
            "    g = ad.backward(ad.mul(y, ad.tensor(rng.standard_normal(y.shape).astype(np.float32))).sum())\n"
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
            lambda w: ad.square(conv2d(tensor(x), w, tensor(b), stride=stride)).sum(),
            w0,
        )

    def test_input_and_bias_gradients_match_fd(self):
        rng = np.random.default_rng(8)
        x0 = rng.standard_normal((1, 2, 4, 4))
        w = rng.standard_normal((3, 2, 3, 3))
        b0 = rng.standard_normal(3)

        fd_check(
            lambda x: float(np.sum(conv2d_reference(x, w, b0, 2) ** 2)),
            lambda x: ad.square(conv2d(x, tensor(w), tensor(b0), stride=2)).sum(),
            x0,
        )
        fd_check(
            lambda b: float(np.sum(conv2d_reference(x0, w, b, 1) ** 2)),
            lambda b: ad.square(conv2d(tensor(x0), tensor(w), b, stride=1)).sum(),
            b0,
        )


class TestPRelu:
    def test_passthrough_nonnegative(self):
        out = prelu(tensor(np.array([[5.0, 0.0]])), tensor(np.array(0.25)))
        np.testing.assert_array_equal(out.data, [[5.0, 0.0]])

    def test_negative_scaled(self):
        out = prelu(tensor(np.array([[-4.0]])), tensor(np.array(0.25)))
        assert out.data[0, 0] == -1.0

    def test_passthrough_exact_for_any_slope(self):
        rng = np.random.default_rng(1)
        x = np.abs(rng.standard_normal((3, 4)).astype(np.float32))
        a = rng.standard_normal(4).astype(np.float32)
        out = prelu(tensor(x), tensor(a))
        np.testing.assert_array_equal(out.data, x)

    def test_slope_count_mismatch(self):
        with pytest.raises(ShapeMismatch):
            prelu(tensor(np.ones((2, 3))), tensor(np.ones(4)))

    def test_slope_gradient(self):
        # d/da of prelu(-4, a) is -4
        with Graph("double"):
            a = tensor(np.array(0.25), requires_grad=True)
            out = prelu(tensor(np.array([[-4.0]])), a)
            g = backward(out.sum())[a].data
        assert g == -4.0

        fd_check(
            lambda a: float(np.sum(np.where(X >= 0, X, a.reshape(1, -1, 1, 1) * X) ** 2)),
            lambda a: ad.square(prelu(tensor(X), a)).sum(),
            A0,
        )

    def test_input_gradient(self):
        fd_check(
            lambda x: float(np.sum(np.where(x >= 0, x, A0.reshape(1, -1, 1, 1) * x) ** 2)),
            lambda x: ad.square(prelu(x, tensor(A0))).sum(),
            X,
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["single", "double"])
    def test_first_order_gradients_bitwise_equal_to_mask_products(self, dtype):
        rng = np.random.default_rng(14)
        x0 = rng.standard_normal((3, 4, 5, 5)).astype(dtype)
        a0 = rng.standard_normal(4).astype(dtype)
        g0 = rng.standard_normal(x0.shape).astype(dtype)
        with Graph("single" if dtype == np.float32 else "double"):
            x, a = tensor(x0, requires_grad=True), tensor(a0, requires_grad=True)
            grads = backward(ad.mul(prelu(x, a), tensor(g0)).sum())
        pos = (x0 >= 0).astype(dtype)
        neg = (x0 < 0).astype(dtype)
        np.testing.assert_array_equal(grads[x].data, g0 * (pos + neg * a0.reshape(1, 4, 1, 1)))
        np.testing.assert_array_equal(grads[a].data, ((g0 * neg) * x0).sum(axis=(0, 2, 3)))

    def test_recorded_input_gradient_matches_fd_in_g_and_a(self):
        # dx = g where x >= 0, a*g elsewhere, recorded as one prelu node
        def dx_np(g, a):
            return np.where(X >= 0, g, a.reshape(1, -1, 1, 1) * g)

        def dx_ad(g, a):
            x = tensor(X, requires_grad=True)
            return backward(ad.mul(prelu(x, a), g).sum(), create_graph=(x,))[x]

        g0 = np.random.default_rng(15).standard_normal(X.shape)
        fd_check(lambda g: float(np.sum(dx_np(g, A0) ** 2)),
                 lambda g: ad.square(dx_ad(g, tensor(A0))).sum(), g0)
        fd_check(lambda a: float(np.sum(dx_np(g0, a) ** 2)),
                 lambda a: ad.square(dx_ad(tensor(g0), a)).sum(), A0)

    def test_recorded_slope_gradient_matches_fd_in_x(self):
        # da = sum of g * min(x, 0) per channel, recorded in x
        g0 = np.random.default_rng(16).standard_normal(X.shape)

        def da_ad(x):
            a = tensor(A0, requires_grad=True)
            return backward(ad.mul(prelu(x, a), tensor(g0)).sum(), create_graph=(x, a))[a]

        fd_check(lambda x: float(np.sum((g0 * np.minimum(x, 0)).sum(axis=(0, 2, 3)) ** 2)),
                 lambda x: ad.square(da_ad(x)).sum(), X)

    def test_records_one_node_per_gradient(self):
        with Graph("double") as g:
            x = tensor(X, requires_grad=True)
            a = tensor(A0, requires_grad=True)
            y = prelu(x, a).sum()
            start = len(g.nodes)
            backward(y, create_graph=(x,))
            assert [node.op for node in g.nodes[start:]].count("prelu") == 1
            assert "mul" not in {node.op for node in g.nodes[start:]}


RNG0 = np.random.default_rng(123)
X = RNG0.standard_normal((2, 3, 4, 4))
A0 = RNG0.uniform(0.1, 0.5, size=3)


def layer_norm_composite(x, gain, bias, eps):
    """layer_norm as the chain of primitive ops that it fuses into one node."""
    axes = tuple(range(1, x.ndim))
    mu = ad.tmean(x, axes=axes, keepdims=True)
    xc = ad.sub(x, ad.expand(mu, x.shape))
    var = ad.tmean(ad.square(xc), axes=axes, keepdims=True)
    xn = ad.div(xc, ad.expand(ad.sqrt(ad.add(var, eps)), x.shape))
    bshape = (1,) + x.shape[1:]
    out = ad.mul(xn, ad.expand(ad.reshape(gain, bshape), x.shape))
    return ad.add(out, ad.expand(ad.reshape(bias, bshape), x.shape))


class TestLayerNorm:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["single", "double"])
    def test_forward_bitwise_equal_to_composite(self, dtype):
        rng = np.random.default_rng(12)
        x = tensor((3.0 * rng.standard_normal((3, 4, 5, 5)) + 1.0).astype(dtype))
        gain = tensor(rng.standard_normal((4, 5, 5)).astype(dtype))
        bias = tensor(rng.standard_normal((4, 5, 5)).astype(dtype))
        out = layer_norm(x, gain, bias, 1e-5).data
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, layer_norm_composite(x, gain, bias, 1e-5).data)

    def test_records_one_node(self):
        rng = np.random.default_rng(13)
        with Graph("double") as g:
            x = tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
            gain = tensor(rng.standard_normal((3, 4)), requires_grad=True)
            bias = tensor(rng.standard_normal((3, 4)), requires_grad=True)
            layer_norm(x, gain, bias)
            assert [node.op for node in g.nodes if node.op != "leaf"] == ["layer_norm"]

    def test_double_backward_matches_fd(self):
        # P = ||d/dx sum(c * LN(x; gain, bias))||^2, differentiated in x and
        # in gain through the recorded backward, against central differences
        # of P evaluated with a first-order backward
        rng = np.random.default_rng(14)
        x0 = rng.standard_normal((2, 3, 2, 2))
        gain0 = rng.standard_normal((3, 2, 2))
        bias = rng.standard_normal((3, 2, 2))
        c = rng.standard_normal((2, 3, 2, 2))

        def penalty(x, gain, create_graph):
            s = ad.mul(layer_norm(x, gain, tensor(bias), 1e-5), tensor(c)).sum()
            gx = backward(s, create_graph=create_graph)[x]
            return gx if create_graph is False else ad.square(gx).sum()

        def value_x(xv):
            with Graph("double"):
                gx = penalty(tensor(xv.copy(), requires_grad=True), tensor(gain0), False)
                return float(np.sum(gx.data ** 2))

        def value_gain(gv):
            with Graph("double"):
                gx = penalty(tensor(x0.copy(), requires_grad=True), tensor(gv.copy()), False)
                return float(np.sum(gx.data ** 2))

        with Graph("double"):
            x = tensor(x0.copy(), requires_grad=True)
            gain = tensor(gain0.copy(), requires_grad=True)
            grads = backward(penalty(x, gain, (x,)))
        fd_x = finite_difference_gradient(value_x, x0)
        fd_gain = finite_difference_gradient(value_gain, gain0)
        assert max_relative_error(grads[x].data, fd_x) < 1e-5
        assert max_relative_error(grads[gain].data, fd_gain) < 1e-5

    def test_constant_input_zeroed(self):
        x = np.repeat(np.array([[2.0], [5.0]]), 6, axis=1).reshape(2, 6)
        out = layer_norm(tensor(x), tensor(np.ones(6)), tensor(np.zeros(6)), eps=1e-5)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_two_point_standardization(self):
        out = layer_norm(
            tensor(np.array([[1.0, 3.0]])),
            tensor(np.ones(2)), tensor(np.zeros(2)), eps=1e-12,
        )
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-6)

    def test_per_sample_statistics(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 3, 5, 5))
        out = layer_norm(
            tensor(x),
            tensor(np.ones((3, 5, 5))), tensor(np.zeros((3, 5, 5))), eps=1e-8,
        ).data
        flat = out.reshape(4, -1)
        assert np.all(np.abs(flat.mean(axis=1)) < 1e-6)
        assert np.all(np.abs(flat.var(axis=1) - 1.0) < 1e-5)

    def test_affine_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            layer_norm(tensor(np.ones((2, 6))), tensor(np.ones(5)), tensor(np.zeros(6)))

    def test_input_gradient_matches_fd(self):
        rng = np.random.default_rng(9)
        x0 = rng.standard_normal((2, 3, 2, 2))
        gain = rng.standard_normal((3, 2, 2))
        bias = rng.standard_normal((3, 2, 2))

        def f_np(x):
            flat = x.reshape(2, -1)
            mu = flat.mean(axis=1, keepdims=True)
            var = flat.var(axis=1, keepdims=True)
            xn = ((flat - mu) / np.sqrt(var + 1e-5)).reshape(x.shape)
            return float(np.sum((xn * gain[None] + bias[None]) ** 2))

        fd_check(
            f_np,
            lambda x: ad.square(layer_norm(x, tensor(gain), tensor(bias), 1e-5)).sum(),
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
                xn = (x - mu) / np.sqrt(var + 1e-5)
                out = xn * p + 0 if which == "gain" else xn + p
                return float(np.sum(out ** 2))

            def f_ad(p, which=which):
                gain = p if which == "gain" else tensor(np.ones(4, dtype=np.float64))
                bias = p if which == "bias" else tensor(np.zeros(4, dtype=np.float64))
                return ad.square(layer_norm(tensor(x), gain, bias, 1e-5)).sum()

            fd_check(f_np, f_ad, rng.standard_normal(4), tol=1e-5)


class TestSpatialPrimitives:
    def test_upsample_subsample_shapes(self):
        x = tensor(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4))
        up = ad.upsample2(x)
        assert up.shape == (1, 1, 8, 8)
        sub = ad.subsample2(x)
        np.testing.assert_array_equal(sub.data[0, 0], [[0, 2], [8, 10]])

    @pytest.mark.parametrize(
        "op,f_np",
        [
            (ad.upsample2, lambda x: float(np.sum(x.repeat(2, 2).repeat(2, 3) ** 2))),
            (ad.sumpool2, lambda x: float(
                np.sum(x.reshape(1, 2, 2, 2, 2, 2).sum(axis=(3, 5)) ** 2))),
            (ad.subsample2, lambda x: float(np.sum(x[:, :, ::2, ::2] ** 2))),
        ],
    )
    def test_gradients(self, op, f_np):
        rng = np.random.default_rng(12)
        fd_check(
            f_np,
            lambda x: ad.square(op(x)).sum(),
            rng.standard_normal((1, 2, 4, 4)),
        )

    def test_unfold_fold_adjoint(self):
        # <unfold(x), c> == <x, fold(c)> for all x, c: defining adjoint property
        rng = np.random.default_rng(13)
        for hw in ((4, 4), (5, 5), (7, 4)):
            for stride in (1, 2):
                x = rng.standard_normal((2, 3) + hw)
                u = ad.unfold3x3(tensor(x), stride).data
                c = rng.standard_normal(u.shape)
                f = ad.fold3x3(tensor(c), hw, stride).data
                np.testing.assert_allclose(np.sum(u * c), np.sum(x * f), rtol=1e-12)


class TestBackward:
    def test_sum_gives_ones(self):
        with Graph("double"):
            x = tensor(np.random.default_rng(0).standard_normal((3, 2)), requires_grad=True)
            g = backward(x.sum())[x].data
        np.testing.assert_array_equal(g, np.ones((3, 2)))

    def test_half_square_gives_x(self):
        x0 = np.array([1.0, -2.0, 3.0])
        with Graph("double"):
            x = tensor(x0, requires_grad=True)
            loss = ad.mul(ad.square(x).sum(), 0.5)
            g = backward(loss)[x].data
        np.testing.assert_allclose(g, x0)

    def test_not_scalar(self):
        with Graph("double"):
            x = tensor(np.ones(3), requires_grad=True)
            with pytest.raises(NotScalar):
                backward(ad.square(x))

    def test_dead_graph(self):
        with Graph("double"):
            x = tensor(np.ones(3), requires_grad=True)
            loss = ad.square(x).sum()
            backward(loss)
            with pytest.raises(DeadGraph):
                backward(loss)

    def test_create_graph_keeps_graph_alive(self):
        with Graph("double") as g:
            x = tensor(np.ones(3), requires_grad=True)
            loss = ad.square(x).sum()
            backward(loss, create_graph=(x,))
            assert not g.dead and len(g.nodes) > 0
            backward(loss)  # still alive
            assert g.dead and len(g.nodes) == 0   # a first-order backward releases the tape

    def test_create_graph_takes_leaves_not_true(self):
        with Graph("double"):
            x = tensor(np.ones(3), requires_grad=True)
            with pytest.raises(TypeError, match="leaves"):
                backward(ad.square(x).sum(), create_graph=True)

    def test_implicit_graph_renewed_after_backward(self):
        # outside any `with Graph()` block each backward consumes the
        # thread's implicit graph, and the next op records on a fresh one
        for _ in range(2):
            x = tensor(np.ones(3), requires_grad=True)
            grad = backward(ad.square(x).sum())[x]
            np.testing.assert_array_equal(grad.data, [2.0, 2.0, 2.0])
            assert len(ad.active_graph().nodes) == 0

    def test_grad_accumulates_over_multiple_uses(self):
        with Graph("double"):
            x = tensor(np.array([2.0]), requires_grad=True)
            y = ad.add(ad.mul(x, x), ad.mul(x, 3.0))  # x^2 + 3x
            g = backward(y.sum())[x].data
        np.testing.assert_allclose(g, [7.0])

    def test_double_backward_cubic(self):
        # second derivative of sum(x^3) at x=2 is 12
        with Graph("double"):
            x = tensor(np.full((3,), 2.0), requires_grad=True)
            loss = ad.mul(ad.mul(x, x), x).sum()
            g1 = backward(loss, create_graph=(x,))[x]
            g2 = backward(g1.sum())[x].data
        np.testing.assert_allclose(g2, 12.0)

    def test_double_backward_matches_fd_of_analytic_gradient(self):
        # sum of first derivative of cubic: FD of d/dx sum(x^3) = 3x^2
        rng = np.random.default_rng(21)
        x0 = rng.standard_normal(4)

        def first_grad_sum(x):
            return float(np.sum(3 * x ** 2))

        fd = finite_difference_gradient(first_grad_sum, x0, h=1e-6)
        with Graph("double"):
            x = tensor(x0, requires_grad=True)
            loss = ad.mul(ad.mul(x, x), x).sum()
            g1 = backward(loss, create_graph=(x,))[x]
            g2 = backward(g1.sum())[x].data
        assert max_relative_error(g2, fd) < 1e-5

    def test_double_backward_through_matmul_chain(self):
        rng = np.random.default_rng(22)
        w0 = rng.standard_normal((3, 3))
        v = rng.standard_normal((1, 3))

        def penalty_np(w):
            # gradient of sum(tanh(v @ w)) wrt v is (1 - tanh^2) @ w.T; penalty is its sq norm
            t = np.tanh(v @ w)
            gv = (1 - t ** 2) @ w.T
            return float(np.sum(gv ** 2))

        def penalty_ad(w):
            vt = tensor(v.copy(), requires_grad=True)
            s = ad.tanh(matmul(vt, w)).sum()
            gv = backward(s, create_graph=(vt,))[vt]
            return ad.square(gv).sum()

        fd_check(penalty_np, penalty_ad, w0, tol=1e-5)

    @staticmethod
    def critic_input_grad(restrict):
        cfg = ModelConfig(image_size=8, latent_dim=6, base_width=4, n_blocks=1)
        disc = Discriminator(cfg)
        rng = np.random.default_rng(23)
        phi = disc.init_params(rng)
        x0 = np.tanh(rng.standard_normal((2, 1, 8, 8))).astype(np.float32)
        with Graph("single") as g:
            x = tensor(x0, requires_grad=True)
            bound = phi.bind()
            scores = disc.forward(bound, x)
            start = len(g.nodes)
            leaves = (x,) if restrict else (x, *bound.values())
            grads = backward(scores.sum(), create_graph=leaves)
            ops = {node.op for node in g.nodes[start:]}
        return grads, x, bound, ops

    def test_create_graph_restricted_to_input(self):
        full, x_full, bound, ops_full = self.critic_input_grad(restrict=False)
        part, x_part, _, ops_part = self.critic_input_grad(restrict=True)
        np.testing.assert_array_equal(part[x_part].data, full[x_full].data)
        assert list(part) == [x_part]
        # differentiating in every leaf records each weight gradient, unfold included
        assert "unfold3x3" in ops_full and bound["stem.w"] in full
        assert "unfold3x3" not in ops_part
        assert part[x_part].requires_grad


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
            h = tensor(x_in.copy())
            ws = [w0] + [tensor(w) for w in weights[1:]]
            for w in ws[:-1]:
                h = ad.tanh(matmul(h, w))
            return matmul(h, ws[-1]).sum()

        fd_check(f_np, f_ad, weights[0])


class TestGraph:
    def test_topological_order(self):
        with Graph("double") as g:
            x = tensor(np.ones((2, 2)), requires_grad=True)
            y = ad.square(ad.add(ad.mul(x, 2.0), 1.0)).sum()
            assert len(g.nodes) > 1
            for idx, node in enumerate(g.nodes):
                assert all(j < idx for j in node.input_ids)
            backward(y)

    def test_requires_grad_propagation(self):
        with Graph("double"):
            a = tensor(np.ones(2), requires_grad=True)
            b = tensor(np.ones(2))
            assert ad.add(a, b).requires_grad
            assert not ad.add(b, b.detach()).requires_grad

    def test_precision_field(self):
        with Graph("double") as g:
            assert g.dtype == np.float64
            t = tensor([1, 2])
            assert t.dtype == np.float64

    def test_mixed_dtype_rejected(self):
        a = tensor(np.ones(2, dtype=np.float32))
        b = tensor(np.ones(2, dtype=np.float64))
        with pytest.raises(TypeError):
            ad.add(a, b)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=1, max_size=8),
    st.lists(st.floats(-10, 10), min_size=1, max_size=8),
)
def test_add_commutes_property(xs, ys):
    n = min(len(xs), len(ys))
    a = tensor(np.array(xs[:n], dtype=np.float64))
    b = tensor(np.array(ys[:n], dtype=np.float64))
    np.testing.assert_array_equal(ad.add(a, b).data, ad.add(b, a).data)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
def test_primitive_grad_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((rows, cols))
    fd_check(
        lambda x: float(np.sum(np.tanh(x) * x)),
        lambda x: ad.mul(ad.tanh(x), x).sum(),
        x0,
        tol=1e-5,
    )
