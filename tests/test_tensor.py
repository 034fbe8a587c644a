"""Autodiff tests: every op against oracles and finite differences."""

import weakref
from contextlib import nullcontext

import numpy as np
import pytest
from conftest import (
    check_grads,
    finite_difference_grad,
    rel_err,
    traced_peak,
    unblocked_cross_entropy,
)
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

from gatedssm.numerics import Rng, Tensor, backward, no_grad
from gatedssm.numerics import tensor as T
from gatedssm.ssm import (
    convolve,
    discretize,
    init_s4d,
    materialize_kernel,
    scan,
)


def leaf(rng, shape, scale=1.0):
    return Tensor(rng.normal(shape, std=scale), requires_grad=True)


def test_numerics_exports_no_tape_op():
    # Each op has one name, numerics.tensor.<op>, and one call form, the
    # function: the package re-exports only the RNG and the tape's
    # entry points, and Tensor has no operator or method forms.
    import gatedssm.numerics as numerics
    assert sorted(numerics.__all__) == [
        "Rng", "Tensor", "backward", "derive_seed", "mix64", "next_pow2",
        "no_grad", "raw_block", "unit_floats"]
    ops = {name for name, value in vars(T).items()
           if callable(value) and not name.startswith("_")
           and value.__module__ == T.__name__}
    ops -= {"Tensor", "backward", "no_grad"}
    assert {"add", "matmul", "gelu", "TapeNode", "as_tensor"} <= ops
    assert not ops.intersection(vars(numerics))
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                 "__matmul__", "__getitem__", "reshape", "transpose", "sum",
                 "item"):
        assert not hasattr(Tensor, name), name


# ---------------------------------------------------------------------------
# forward oracles


def test_matmul_identity_cases():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = Tensor(np.eye(2))
    np.testing.assert_array_equal(T.matmul(a, eye).data, a.data)
    col = T.matmul(eye, Tensor([[5.0], [7.0]]))
    np.testing.assert_array_equal(col.data, [[5.0], [7.0]])


def test_matmul_matches_triple_loop_oracle():
    rng = Rng(10)
    a = rng.normal((3, 4))
    b = rng.normal((4, 2))
    got = T.matmul(Tensor(a), Tensor(b)).data
    want = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                want[i, j] += a[i, k] * b[k, j]
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_matmul_shape_error_names_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_gelu_values():
    g = T.gelu(Tensor([0.0, 10.0, -10.0]))
    assert g.data[0] == 0.0
    assert abs(g.data[1] - 10.0) < 1e-6
    assert abs(g.data[2]) < 1e-6


def test_layer_norm_constant_row_collapses_to_bias():
    x = Tensor(np.full((2, 4), 3.0))
    out = T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)), eps=1e-5)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_layer_norm_already_normalized_row():
    x = Tensor([[1.0, -1.0]])
    out = T.layer_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
    np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-6)


def test_layer_norm_rejects_bad_args():
    with pytest.raises(ValueError, match="eps"):
        T.layer_norm(Tensor(np.ones((2, 2))), Tensor(np.ones(2)),
                      Tensor(np.zeros(2)), eps=0.0)
    with pytest.raises(ValueError, match="empty"):
        T.layer_norm(Tensor(np.ones((2, 0))), Tensor(np.ones(0)),
                      Tensor(np.zeros(0)))


def test_softmax_rows_sum_to_one():
    rng = Rng(2)
    s = T.softmax(Tensor(rng.normal((5, 9), std=4.0)))
    np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# backward semantics


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    backward(T.tsum(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_square_at_three():
    x = Tensor(3.0, requires_grad=True)
    backward(T.mul(x, x))
    assert float(x.grad) == 6.0


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        backward(T.mul(x, x))


def test_unreachable_parameter_keeps_zero_grad():
    x = Tensor(np.ones(3), requires_grad=True)
    y = Tensor(np.ones(3), requires_grad=True)
    backward(T.tsum(T.mul(x, 2.0)))
    np.testing.assert_array_equal(y.grad, np.zeros(3))
    np.testing.assert_array_equal(x.grad, np.full(3, 2.0))


def test_grad_accumulates_across_backward_calls():
    x = Tensor(2.0, requires_grad=True)
    backward(T.mul(x, x))
    backward(T.mul(x, x))
    assert float(x.grad) == 8.0
    x.zero_grad()
    assert float(x.grad) == 0.0


def test_reused_node_visited_once():
    # Diamond graph: y appears twice downstream; one traversal must
    # still produce the correct doubled contribution.
    x = Tensor(3.0, requires_grad=True)
    y = T.mul(x, x)
    z = T.add(y, y)
    backward(z)
    assert float(x.grad) == 12.0


def test_no_grad_suppresses_recording():
    x = Tensor(1.0, requires_grad=True)
    with no_grad():
        y = T.mul(x, x)
    assert y.node is None
    backward(y)
    assert float(x.grad) == 0.0


def test_backward_frees_the_graph_it_walks():
    rng = Rng(34)
    x, w = leaf(rng, (8, 16)), leaf(rng, (16, 4))
    h = T.gelu(T.matmul(x, w))
    loss = T.tsum(T.mul(h, h))
    # Tensors take no weak references; an intermediate's data array is
    # held by the intermediate alone, so it dies with it.
    probe = weakref.ref(h.data)
    del h
    assert probe() is not None
    value = loss.data.copy()
    backward(loss)
    assert probe() is None
    np.testing.assert_array_equal(loss.data, value)


def spent_graph(rng):
    """Leaves x and w, an intermediate and the loss of one graph that
    backward has walked, and copies of the leaves' grads."""
    x, w = leaf(rng, (3, 4)), leaf(rng, (3, 4))
    y = T.mul(x, w)
    loss = T.tsum(y)
    backward(loss)
    return x, w, y, loss, (x.grad.copy(), w.grad.copy())


def test_backward_twice_through_one_graph_raises():
    x, w, _, loss, grads = spent_graph(Rng(35))
    with pytest.raises(RuntimeError, match="backward already ran") as info:
        backward(loss)
    assert "\n" not in str(info.value)
    np.testing.assert_array_equal(x.grad, grads[0])
    np.testing.assert_array_equal(w.grad, grads[1])


def test_op_on_a_spent_intermediate_is_refused_before_any_grad_moves():
    # The new graph also reaches x directly, so a check made after the
    # first rule ran would already have added to x.grad.
    x, w, y, _, grads = spent_graph(Rng(36))
    loss = T.add(T.tsum(T.mul(y, x)), T.tsum(x))
    with pytest.raises(RuntimeError, match="backward already ran") as info:
        backward(loss)
    assert "\n" not in str(info.value)
    np.testing.assert_array_equal(x.grad, grads[0])
    np.testing.assert_array_equal(w.grad, grads[1])


def test_forward_is_bit_deterministic():
    rng = Rng(33)
    x = Tensor(rng.normal((4, 8)))
    a = T.gelu(T.matmul(x, T.transpose(x))).data
    b = T.gelu(T.matmul(x, T.transpose(x))).data
    assert np.array_equal(a, b)


@pytest.mark.parametrize("shape", [(1,), (7, 3), (2, 33, 5), (2, 64, 48)])
def test_gelu_matches_erf_formula_bit_for_bit(shape):
    # The op builds Phi and the gradient in place; these are the plain
    # expressions it must reproduce exactly.
    x = Tensor(Rng(40).normal(shape, std=3.0), requires_grad=True)
    g = Rng(41).normal(shape)
    a = x.data
    cdf = 0.5 * (1.0 + erf(a / np.sqrt(2.0)))
    pdf = float(1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * a * a)
    y = T.gelu(x)
    np.testing.assert_array_equal(y.data, a * cdf)
    g_seen = g.copy()
    (gx,) = y.node.backward_rule(g)
    np.testing.assert_array_equal(gx, g * (cdf + a * pdf))
    np.testing.assert_array_equal(g, g_seen)


def assert_same_bits(got, want):
    """Equal as IEEE bit patterns: signed zeros and nan payloads too."""
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def gelu_edge_input(size):
    """std-0.2 and std-3 entries alternating, with the special values at
    both ends: signed zeros, infinities, nan, the smallest subnormal,
    +-40, and the x whose x / sqrt 2 are +-1 and their neighbours."""
    rng = Rng(44)
    x = np.where(np.arange(size) % 2 == 0, rng.normal((size,), std=0.2),
                 rng.normal((size,), std=3.0))
    root2 = T._SQRT2
    edge = [np.nextafter(root2, 0.0), root2, np.nextafter(root2, 2.0)]
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                         -5e-324, 40.0, -40.0, *edge,
                         *(-e for e in edge)])
    y = specials / np.sqrt(2.0)
    for v in (1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)):
        assert v in y and -v in y
    k = min(size, specials.size)
    x[:k] = specials[:k]
    x[size - k:] = specials[::-1][:k]
    return x


@pytest.mark.parametrize("size", [
    0, 1, T.GELU_BLOCK - 1, T.GELU_BLOCK, T.GELU_BLOCK + 1,
    3 * T.GELU_BLOCK + 7, T.GELU_SCIPY_BELOW - 1, T.GELU_SCIPY_BELOW,
], ids=["empty", "one", "block-1", "block", "block+1", "3-blocks+7",
        "scipy-below-1", "scipy-below"])
def test_gelu_across_blocks_and_special_values_bit_for_bit(size):
    a = gelu_edge_input(size)
    g = Rng(45).normal((size,))
    with np.errstate(invalid="ignore", over="ignore"):
        cdf = 0.5 * (1.0 + erf(a / np.sqrt(2.0)))
        pdf = float(1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * a * a)
        want_y = a * cdf
        want_gx = g * (cdf + a * pdf)
        x = Tensor(a, requires_grad=True)
        y = T.gelu(x)
        rule = y.node.backward_rule
        kept = dict(zip(rule.__code__.co_freevars,
                        (c.cell_contents for c in rule.__closure__)))
        (gx,) = rule(g)
        with no_grad():
            plain = T.gelu(x)
    assert_same_bits(y.data, want_y)
    assert_same_bits(kept["cdf"], cdf)
    assert_same_bits(gx, want_gx)
    assert plain.node is None
    assert_same_bits(plain.data, want_y)


def test_gelu_rational_is_scipy_erf_bit_for_bit():
    # gelu's bits rest on this: on |y| <= 1 scipy's erf is cephes'
    # rational, which the op evaluates itself. A scipy build whose erf
    # differs there fails here.
    y = np.linspace(-1.0, 1.0, 1 << 20)
    assert y[0] == -1.0 and y[-1] == 1.0
    out, z, t, u = np.empty((4, y.size))
    T._erf_into(y, out, z, t, u)
    assert (z <= 1.0).all()
    assert_same_bits(out, erf(y))


def test_gelu_without_tape_keeps_nothing_of_the_input_size():
    x = Tensor(Rng(46).normal((2, 2048, 192)), requires_grad=True)
    output = x.data.nbytes

    def run():
        with no_grad():
            T.gelu(x)

    peak = traced_peak(run)
    assert peak < output + (1 << 20), (peak, output)


# ---------------------------------------------------------------------------
# finite-difference checks, one op at a time


def test_gelu_gradient_at_half():
    x = Tensor(np.array([0.5]), requires_grad=True)
    backward(T.tsum(T.gelu(x)))
    fd = finite_difference_grad(lambda: T.tsum(T.gelu(x)), x, h=1e-6)
    assert abs(float(x.grad[0]) - float(fd[0])) < 1e-6


@pytest.mark.parametrize("op,shapes", [
    ("add", ((3, 4), (3, 4))),
    ("add_broadcast", ((3, 4), (4,))),
    ("sub", ((2, 5), (2, 5))),
    ("mul", ((3, 4), (3, 4))),
    ("mul_broadcast", ((2, 3, 4), (1, 4))),
    ("div", ((3, 3), (3, 3))),
    ("matmul", ((3, 4), (4, 2))),
    ("matmul_batched", ((2, 3, 4), (2, 4, 2))),
])
def test_binary_op_gradients(op, shapes):
    rng = Rng(hash(op) & 0xFFFF)
    a = leaf(rng, shapes[0])
    b = leaf(rng, shapes[1])
    if op == "div":
        b.data[...] = np.abs(b.data) + 0.5
    fn = {
        "add": T.add, "add_broadcast": T.add, "sub": T.sub,
        "mul": T.mul, "mul_broadcast": T.mul, "div": T.div,
        "matmul": T.matmul, "matmul_batched": T.matmul,
    }[op]
    weight = Tensor(Rng(1).normal(fn(a, b).shape))

    def f():
        return T.tsum(T.mul(fn(a, b), weight))

    check_grads(f, [("a", a), ("b", b)])


@pytest.mark.parametrize("name", [
    "exp", "log", "sqrt", "sin", "cos", "gelu", "power", "neg",
])
def test_unary_op_gradients(name):
    rng = Rng(len(name))
    x = leaf(rng, (4, 5))
    if name in ("log", "sqrt", "power"):
        x.data[...] = np.abs(x.data) + 0.5
    fn = {
        "exp": T.texp, "log": T.tlog, "sqrt": T.tsqrt, "sin": T.tsin,
        "cos": T.tcos, "gelu": T.gelu, "neg": T.neg,
        "power": lambda t: T.power(t, 1.7),
    }[name]
    weight = Tensor(Rng(2).normal((4, 5)))

    def f():
        return T.tsum(T.mul(fn(x), weight))

    check_grads(f, [(name, x)])


def test_atan2_gradient():
    rng = Rng(9)
    y = leaf(rng, (6,))
    x = leaf(rng, (6,))
    x.data[...] = np.abs(x.data) + 0.5
    w = Tensor(Rng(3).normal((6,)))

    def f():
        return T.tsum(T.mul(T.atan2(y, x), w))

    check_grads(f, [("y", y), ("x", x)])


@pytest.mark.parametrize("axis,keepdims", [
    (None, False), (0, False), (1, True), (-1, False),
])
def test_reduction_gradients(axis, keepdims):
    rng = Rng(17)
    x = leaf(rng, (3, 4))
    for red in (T.tsum, T.tmean):
        w = Tensor(Rng(4).normal(red(x, axis=axis, keepdims=keepdims).shape))

        def f():
            return T.tsum(T.mul(red(x, axis=axis, keepdims=keepdims), w))

        check_grads(f, [("x", x)])


def test_shape_op_gradients():
    rng = Rng(21)
    x = leaf(rng, (2, 3, 4))
    w = Tensor(Rng(5).normal((4, 6)))

    def f():
        y = T.reshape(x, (4, 6))
        y = T.mul(y, w)
        y = T.transpose(y)
        y = T.flip(y, axis=0)
        return T.tsum(T.mul(y, y))

    check_grads(f, [("x", x)])


def test_getitem_gradient():
    rng = Rng(23)
    x = leaf(rng, (5, 4))
    w = Tensor(Rng(6).normal((2, 4)))

    def f():
        return T.tsum(T.mul(T.getitem(x, slice(1, 3)), w))

    check_grads(f, [("x", x)])


def test_getitem_repeated_indices_accumulate():
    x = Tensor(np.arange(4.0), requires_grad=True)
    backward(T.tsum(T.getitem(x, np.array([0, 0, 2]))))
    np.testing.assert_array_equal(x.grad, [2.0, 0.0, 1.0, 0.0])
    w = Tensor(Rng(12).normal((3, 4)))
    y = leaf(Rng(24), (5, 4))

    def f():
        return T.tsum(T.mul(T.getitem(y, np.array([4, 1, 4])), w))

    check_grads(f, [("y", y)])


def test_softmax_gradient():
    rng = Rng(29)
    x = leaf(rng, (3, 7))
    w = Tensor(Rng(7).normal((3, 7)))

    def f():
        return T.tsum(T.mul(T.softmax(x), w))

    check_grads(f, [("x", x)])


def test_layer_norm_gradient():
    rng = Rng(31)
    x = leaf(rng, (4, 6))
    gain = Tensor(Rng(8).normal((6,), mean=1.0, std=0.1), requires_grad=True)
    bias = Tensor(Rng(9).normal((6,), std=0.1), requires_grad=True)
    w = Tensor(Rng(10).normal((4, 6)))

    def f():
        return T.tsum(T.mul(T.layer_norm(x, gain, bias, eps=1e-5), w))

    check_grads(f, [("x", x), ("gain", gain), ("bias", bias)], tol=1e-5)


def test_embedding_forward_and_gradient():
    table = Tensor(Rng(41).normal((7, 3)), requires_grad=True)
    ids = np.array([[0, 2], [2, 6]])
    out = T.embedding(table, ids)
    assert out.shape == (2, 2, 3)
    np.testing.assert_array_equal(out.data[0, 1], table.data[2])
    w = Tensor(Rng(11).normal((2, 2, 3)))

    def f():
        return T.tsum(T.mul(T.embedding(table, ids), w))

    check_grads(f, [("table", table)])
    # Duplicate ids must accumulate, giving row 2 two contributions.
    table.zero_grad()
    backward(f())
    assert np.any(table.grad[2] != 0)
    np.testing.assert_array_equal(table.grad[1], np.zeros(3))


@pytest.mark.parametrize("n_rows, d, ids_shape", [
    (96, 64, (2, 2048)), (30522, 16, (1024,)), (7, 3, (0,))])
def test_embedding_gradient_matches_add_at_bit_for_bit(n_rows, d, ids_shape):
    rng = Rng(42)
    table = Tensor(rng.normal((n_rows, d)), requires_grad=True)
    # Few distinct ids, so most rows are hit many times.
    ids = rng.integers(0, min(n_rows, 13), ids_shape)
    w = rng.normal(ids_shape + (d,))
    backward(T.tsum(T.mul(T.embedding(table, ids), Tensor(w))))
    want = np.zeros((n_rows, d))
    np.add.at(want, ids.reshape(-1), w.reshape(-1, d))
    assert table.grad.dtype == np.float64
    np.testing.assert_array_equal(table.grad, want)


def test_embedding_range_error():
    table = Tensor(np.zeros((4, 2)))
    with pytest.raises(ValueError, match="out of range"):
        T.embedding(table, np.array([0, 4]))


# ---------------------------------------------------------------------------
# attention


def composite_attention(q, k, v, n_heads):
    """The attention core as separate tape ops: head split by reshape and
    transpose, scores, scale, softmax, context, head merge. The oracle
    that ``T.attention`` must reproduce bit for bit."""
    lead, (length, d) = q.shape[:-2], q.shape[-2:]
    d_head = d // n_heads
    n = len(lead)
    perm = tuple(range(n)) + (n + 1, n, n + 2)

    def split(t):
        return T.transpose(T.reshape(t, lead + (length, n_heads, d_head)),
                           perm)

    kt_perm = tuple(range(n + 1)) + (n + 2, n + 1)
    scores = T.mul(T.matmul(split(q), T.transpose(split(k), kt_perm)),
                   1.0 / np.sqrt(d_head))
    ctx = T.matmul(T.softmax(scores, axis=-1), split(v))
    return T.reshape(T.transpose(ctx, perm), lead + (length, d))


ATTENTION_CASES = [(shape, h) for shape in ((6, 8), (3, 5, 8))
                   for h in (1, 2, 4)]


@pytest.mark.parametrize("shape, n_heads", ATTENTION_CASES)
def test_attention_matches_composite_bit_for_bit(shape, n_heads):
    rng = Rng(41)
    arrays = [rng.normal(shape, std=2.0) for _ in range(3)]
    w = Tensor(rng.normal(shape))
    results = []
    for op in (composite_attention, T.attention):
        q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
        out = op(q, k, v, n_heads)
        backward(T.tsum(T.mul(out, w)))
        results.append((out.data, q.grad, k.grad, v.grad))
    for want, got in zip(*results):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("shape, n_heads", ATTENTION_CASES)
def test_attention_gradients(shape, n_heads):
    rng = Rng(43)
    q, k, v = (leaf(rng, shape) for _ in range(3))
    w = Tensor(rng.normal(shape))

    def f():
        return T.tsum(T.mul(T.attention(q, k, v, n_heads), w))

    check_grads(f, [("q", q), ("k", k), ("v", v)])


def test_attention_no_grad_records_nothing_and_matches():
    rng = Rng(45)
    q, k, v = (leaf(rng, (2, 5, 8)) for _ in range(3))
    recorded = T.attention(q, k, v, 2)
    with no_grad():
        plain = T.attention(q, k, v, 2)
    assert recorded.node is not None and recorded.node.op == "attention"
    assert plain.node is None
    np.testing.assert_array_equal(plain.data, recorded.data)


@pytest.mark.parametrize("shapes, n_heads, message", [
    (((5, 8),) * 3, 0, "n_heads >= 1, got 0"),
    (((5, 8),) * 3, -2, "n_heads >= 1, got -2"),
    (((5, 6),) * 3, 4, "width 6 is not divisible by n_heads 4"),
    (((5, 8), (4, 8), (5, 8)), 2, "queries and keys of one shape"),
    (((5, 8), (5, 8), (5, 4)), 2, "values shaped like the queries"),
    (((8,),) * 3, 1, "queries and keys of one shape"),
    (((0, 8),) * 3, 1, "queries and keys of one shape"),
])
def test_attention_rejects_bad_input(shapes, n_heads, message):
    q, k, v = (Tensor(np.ones(s)) for s in shapes)
    with pytest.raises(ValueError, match=message) as info:
        T.attention(q, k, v, n_heads)
    assert "\n" not in str(info.value)


# ---------------------------------------------------------------------------
# causal convolution


def direct_causal_conv(taps, u):
    """O(L^2) direct summation, the independent oracle."""
    L = len(taps)
    y = np.zeros_like(u)
    for k in range(L):
        for l in range(k + 1):
            y[..., k] += taps[l] * u[..., k - l]
    return y


def test_causal_conv_identity_kernel():
    u = Rng(51).normal((6,))
    taps = np.zeros(6)
    taps[0] = 1.0
    out = T.causal_conv(Tensor(taps), Tensor(u))
    np.testing.assert_allclose(out.data, u, atol=1e-12)


def test_causal_conv_matches_direct_sum():
    rng = Rng(52)
    taps = rng.normal((128,))
    u = rng.normal((3, 128,))
    got = T.causal_conv(Tensor(taps), Tensor(u)).data
    np.testing.assert_allclose(got, direct_causal_conv(taps, u), atol=1e-9)


@pytest.mark.parametrize("L", [1, 2, 3, 5, 16, 33])
def test_causal_conv_odd_lengths(L):
    rng = Rng(100 + L)
    taps = rng.normal((L,))
    u = rng.normal((L,))
    got = T.causal_conv(Tensor(taps), Tensor(u)).data
    np.testing.assert_allclose(got, direct_causal_conv(taps, u), atol=1e-10)


def test_causal_conv_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        T.causal_conv(Tensor(np.zeros(4)), Tensor(np.zeros(5)))


def _check_causal_conv_grads(L):
    rng = Rng(53)
    taps = leaf(rng, (L,))
    u = leaf(rng, (2, L))
    w = Tensor(Rng(12).normal((2, L)))
    np.testing.assert_allclose(T.causal_conv(taps, u).data,
                               direct_causal_conv(taps.data, u.data),
                               atol=1e-12)

    def f():
        return T.tsum(T.mul(T.causal_conv(taps, u), w))

    check_grads(f, [("taps", taps), ("u", u)])


def test_causal_conv_gradients():
    _check_causal_conv_grads(12)


@pytest.mark.parametrize("L", [1, 2, 7, 8, 9, 23, 29, 33])
def test_causal_conv_gradients_edge_lengths(L):
    # The Toeplitz indexing degenerates at L=1 and L=2; the rest are odd,
    # prime or powers of two.
    _check_causal_conv_grads(L)


def test_causal_conv_transposed_batch():
    # ssm_apply convolves the (B, d, L) transposed view of a (B, L, d)
    # activation, which is neither contiguous nor 2-D.
    rng = Rng(54)
    taps = leaf(rng, (7,))
    x = leaf(rng, (2, 7, 3))
    w = Tensor(Rng(13).normal((2, 3, 7)))
    cols = T.transpose(x, (0, 2, 1))
    assert not cols.data.flags.c_contiguous
    got = T.causal_conv(taps, cols).data
    np.testing.assert_allclose(got, direct_causal_conv(taps.data, cols.data),
                               atol=1e-12)

    def f():
        cols = T.transpose(x, (0, 2, 1))
        return T.tsum(T.mul(T.causal_conv(taps, cols), w))

    check_grads(f, [("taps", taps), ("x", x)])


# ---------------------------------------------------------------------------
# causal convolution as one Toeplitz product

BLOCK = T.CONV_BLOCK


def dense_toeplitz_conv(taps, u, g):
    """Forward and both adjoints through one (L, L) Toeplitz matrix.

    Written out independently, as the oracle that ``causal_conv`` must
    reproduce bit for bit: out = U @ M, gu = G @ M.T, and gtaps[l] the
    sum of the l-th superdiagonal of U^T G, read as windows of its rows
    padded to 2L - 1 entries.
    """
    L = len(taps)
    padded = np.concatenate((np.zeros(L - 1), taps))
    M = np.ascontiguousarray(sliding_window_view(padded, L)[::-1])
    U, G = u.reshape(-1, L), g.reshape(-1, L)
    prod = np.zeros((L, 2 * L - 1))
    np.matmul(U.T, G, out=prod[:, :L])
    gtaps = sliding_window_view(prod.ravel(), L)[::2 * L].sum(axis=0)
    return (U @ M).reshape(u.shape), gtaps, (G @ M.T).reshape(u.shape)


def conv_and_grads(taps, u, w):
    """causal_conv(taps, u) and the gradients of sum(w * out)."""
    taps, u = Tensor(taps, requires_grad=True), Tensor(u, requires_grad=True)
    out = T.causal_conv(taps, u)
    backward(T.tsum(T.mul(out, Tensor(w))))
    return out.data, taps.grad, u.grad


def transposed_case(seed, L):
    """taps, the (B, d, L) view ssm_apply passes, and output weights."""
    rng = Rng(seed)
    taps = rng.normal((L,))
    u = rng.normal((2, L, 3)).transpose(0, 2, 1)
    return taps, u, rng.normal((2, 3, L))


@pytest.mark.parametrize("L", [1, 2, 33, BLOCK - 1, BLOCK, BLOCK + 1,
                               2 * BLOCK + 7])
def test_causal_conv_single_block_is_dense_product_bit_for_bit(L):
    taps, u, w = transposed_case(300 + L, L)
    got = conv_and_grads(taps, u, w)
    for name, a, b in zip(("out", "gtaps", "gu"), got,
                          dense_toeplitz_conv(taps, u, w)):
        np.testing.assert_array_equal(a, b, err_msg=name)


@pytest.mark.parametrize("L", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7,
                               3 * BLOCK + 5])
def test_causal_conv_blocks_match_direct_sum(L):
    # Lengths around and past ssm_conv's chunk, not multiples of it.
    taps, u, w = transposed_case(400 + L, L)
    out, gtaps, gu = conv_and_grads(taps, u, w)
    np.testing.assert_allclose(out, direct_causal_conv(taps, u), atol=1e-10)
    _, want_gtaps, want_gu = dense_toeplitz_conv(taps, u, w)
    np.testing.assert_allclose(gtaps, want_gtaps, rtol=1e-12, atol=1e-10)
    np.testing.assert_allclose(gu, want_gu, rtol=1e-12, atol=1e-10)


def test_scan_matches_block_convolution():
    L = 1000
    rng = Rng(600)
    for n_state in (8, 64):
        system = discretize(init_s4d(n_state, rng=rng))
        u = rng.normal((L,))
        with no_grad():
            got = convolve(materialize_kernel(system, L), system.d, u).data
        gap = float(np.max(np.abs(got - scan(system, u))))
        assert gap < 1e-8, f"n_state={n_state}: gap {gap:.3e}"


def test_windows_rejects_reads_past_the_end():
    x = np.arange(10.0)
    np.testing.assert_array_equal(T._windows(x, 4, 4, 2)[-1], x[6:])
    with pytest.raises(ValueError, match="do not fit"):
        T._windows(x, 4, 5, 2)


# ---------------------------------------------------------------------------
# masked cross-entropy on the tied head


def tied_head_case(n, n_classes, d, seed=68):
    rng = Rng(seed)
    head = rng.normal((n, d))
    table = rng.normal((n_classes, d), std=0.5)
    targets = rng.integers(0, n_classes, (n,))
    targets[0] = n_classes - 1
    return head, table, targets


def test_masked_cross_entropy_matches_manual():
    rng = Rng(61)
    head, table = rng.normal((4, 3)), rng.normal((5, 3))
    targets = np.array([2, 0, 0, 4])
    loss = T.masked_cross_entropy(Tensor(head, requires_grad=True),
                                   targets, Tensor(table))
    # Manual route via plain numpy logits and softmax.
    logits = head @ table.T
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    want = -np.mean(np.log(p[np.arange(4), targets]))
    assert abs(float(loss.data) - want) < 1e-12


def test_masked_cross_entropy_every_row_labeled():
    # Every row given is scored: the loss is the mean of the rows' own
    # losses, and each row's head gradient is its own loss's over n.
    head, table, targets = tied_head_case(4, 11, 9, seed=64)
    h = Tensor(head, requires_grad=True)
    loss = T.masked_cross_entropy(h, targets, Tensor(table))
    backward(loss)
    alone = []
    for i in range(4):
        row = Tensor(head[i:i + 1], requires_grad=True)
        one = T.masked_cross_entropy(row, targets[i:i + 1], Tensor(table))
        backward(one)
        alone.append(float(one.data))
        np.testing.assert_allclose(h.grad[i], row.grad[0] / 4, rtol=1e-13)
    assert float(loss.data) == pytest.approx(np.mean(alone), rel=1e-14)


def test_masked_cross_entropy_gradient(monkeypatch):
    # Two-row head blocks and one-row passes put five rows through three
    # GEMMs and five sub-blocks.
    monkeypatch.setattr(T, "HEAD_BLOCK", 2 * 7)
    monkeypatch.setattr(T, "CE_BLOCK", 7)
    rng = Rng(63)
    head, table = leaf(rng, (5, 4)), leaf(rng, (7, 4))
    targets = np.array([0, 3, 6, 6, 2])
    check_grads(lambda: T.masked_cross_entropy(head, targets, table),
                [("head", head), ("table", table)])


def ce_rows_per_block(n_classes):
    return max(1, T.CE_BLOCK // n_classes)


def head_rows_per_block(n_classes):
    return max(1, T.HEAD_BLOCK // n_classes)


def numpy_tied_head(head, table, targets, g):
    """The loss and the head and table gradients in plain numpy: the
    logits from one GEMM per ``HEAD_BLOCK`` of rows, then the
    unblocked formula's loss and logit gradient G, then d_head =
    G table and d_table = (head^T G)^T."""
    step = head_rows_per_block(len(table))
    logits = np.concatenate([np.matmul(head[r0:r0 + step], table.T)
                             for r0 in range(0, len(head), step)])
    loss, grad = unblocked_cross_entropy(logits, targets, g)
    return loss, np.matmul(grad, table), np.matmul(head.T, grad).T


def assert_matches_numpy(n, n_classes, d):
    """Recorded loss and gradients, and the unrecorded loss, against
    ``numpy_tied_head``, bit for bit."""
    head, table, targets = tied_head_case(n, n_classes, d)
    g = 2.5
    want_loss, want_head, want_table = numpy_tied_head(head, table,
                                                       targets, g)
    h = Tensor(head, requires_grad=True)
    t = Tensor(table, requires_grad=True)
    loss = T.masked_cross_entropy(h, targets, t)
    backward(T.mul(loss, g))
    assert float(loss.data) == want_loss
    np.testing.assert_array_equal(h.grad, want_head)
    np.testing.assert_array_equal(t.grad, want_table)
    with no_grad():
        plain = T.masked_cross_entropy(h, targets, t)
    assert plain.node is None and float(plain.data) == want_loss
    plain = T.masked_cross_entropy(Tensor(head), targets, Tensor(table))
    assert float(plain.data) == want_loss


# Edges of the CE_BLOCK passes: (rows, classes, head width)
CE_CASES = {
    "bert-width": (154, 30522, 16),
    "toy-width": (40, 96, 16),
    "partial-last-block": (2 * ce_rows_per_block(30522) + 1, 30522, 16),
    "partial-last-block-narrow": (ce_rows_per_block(96) + 7, 96, 16),
    "single-row": (1, 30522, 16),
}


@pytest.mark.parametrize("case", CE_CASES)
def test_masked_cross_entropy_matches_unblocked_formula_bit_for_bit(case):
    assert_matches_numpy(*CE_CASES[case])


# Edges of the HEAD_BLOCK GEMMs: (rows, classes, head width)
HEAD_CASES = {
    "bert-width": (154, 30522, 64),
    "toy-width": (40, 96, 64),
    "partial-last-block": (2 * ce_rows_per_block(30522) + 1, 30522, 16),
    "partial-last-head-block": (head_rows_per_block(30522) + 5, 30522, 16),
}


@pytest.mark.parametrize("case", HEAD_CASES)
def test_tied_head_cross_entropy_matches_matmul_then_loss_bit_for_bit(case):
    # bert-width spans three head blocks, so the recorded and unrecorded
    # losses agree bit for bit across blocks too.
    assert_matches_numpy(*HEAD_CASES[case])


def test_tied_head_cross_entropy_gradients():
    rng = Rng(69)
    head = leaf(rng, (6, 5))
    table = leaf(rng, (7, 5))
    targets = np.array([0, 3, 4, 6, 6, 2])
    check_grads(lambda: T.masked_cross_entropy(head, targets, table),
                [("head", head), ("table", table)])


@pytest.mark.parametrize("needs_grad", [True, False])
def test_masked_cross_entropy_without_tape_stays_below_one_buffer(needs_grad):
    # Under no_grad, and with inputs that need no gradient on the tape,
    # one head block's scratch (68 of 154 rows) is all that is held.
    head, table, targets = tied_head_case(154, 30522, 64, seed=66)
    buffer = head.shape[0] * table.shape[0] * 8
    h = Tensor(head, requires_grad=needs_grad)
    t = Tensor(table, requires_grad=needs_grad)

    def run():
        with no_grad() if needs_grad else nullcontext():
            T.masked_cross_entropy(h, targets, t)

    assert traced_peak(run) < buffer / 2, buffer


def test_tied_head_cross_entropy_holds_one_vocabulary_wide_buffer():
    head, table, targets = tied_head_case(154, 30522, 64)
    buffer = head.shape[0] * table.shape[0] * 8
    assert head_rows_per_block(table.shape[0]) < head.shape[0]
    h = Tensor(head, requires_grad=True)
    t = Tensor(table, requires_grad=True)
    kept = []
    peak = traced_peak(
        lambda: kept.append(T.masked_cross_entropy(h, targets, t)))
    assert buffer < peak < 1.1 * buffer, (peak, buffer)


def test_masked_cross_entropy_second_backward_raises():
    # Only the head needs a gradient; the node still spends its buffer.
    rng = Rng(67)
    head, table = leaf(rng, (5, 7)), Tensor(rng.normal((4, 7)))
    loss = T.masked_cross_entropy(head, np.array([1, 3, 2, 0, 2]), table)
    backward(loss)
    first = head.grad.copy()
    with pytest.raises(RuntimeError, match="backward already ran") as info:
        backward(loss)
    assert "\n" not in str(info.value)
    np.testing.assert_array_equal(head.grad, first)
    assert table.grad is None


def test_tied_head_cross_entropy_second_backward_raises():
    rng = Rng(70)
    head, table = leaf(rng, (5, 3)), leaf(rng, (7, 3))
    loss = T.masked_cross_entropy(head, np.array([1, 5, 6, 0, 2]), table)
    backward(loss)
    first = head.grad.copy(), table.grad.copy()
    with pytest.raises(RuntimeError, match="backward already ran") as info:
        backward(loss)
    assert "\n" not in str(info.value)
    np.testing.assert_array_equal(head.grad, first[0])
    np.testing.assert_array_equal(table.grad, first[1])


@pytest.mark.parametrize("targets, message", [
    (np.array([1, -1, 0]), "class ids in \\[0, 4\\), got -1"),
    (np.array([1, -2, 0]), "class ids in \\[0, 4\\), got -2"),
    (np.array([1, 0, -7]), "got -7"),
    (np.array([1, 4, 0]), "class ids in \\[0, 4\\), got 4"),
    (np.array([1.0, 2.0, 0.0]), "targets must be integers, got dtype float64"),
    (np.array([True, False, True]), "targets must be integers, got dtype bool"),
], ids=["minus-one", "minus-two", "minus-seven", "n-classes", "float",
        "bool"])
def test_masked_cross_entropy_rejects_bad_labels(targets, message):
    with pytest.raises(ValueError, match=message) as info:
        T.masked_cross_entropy(Tensor(np.zeros((3, 2))), targets,
                                Tensor(np.zeros((4, 2))))
    assert "\n" not in str(info.value)


def test_masked_cross_entropy_requires_labels():
    with pytest.raises(ValueError, match="no rows to score"):
        T.masked_cross_entropy(Tensor(np.zeros((0, 3))),
                                np.zeros(0, dtype=np.int64),
                                Tensor(np.zeros((5, 3))))
    with pytest.raises(ValueError, match="does not match head rows 2"):
        T.masked_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0]),
                                Tensor(np.zeros((5, 3))))


def test_uniform_logits_give_log_vocab():
    loss = T.masked_cross_entropy(Tensor(np.zeros((3, 4))),
                                   np.array([0, 10, 49]),
                                   Tensor(np.ones((50, 4))))
    assert abs(float(loss.data) - np.log(50)) < 1e-12


def test_tied_head_cross_entropy_rejects_a_table_of_another_width():
    with pytest.raises(ValueError, match="differ in width") as info:
        T.masked_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 1]),
                                Tensor(np.zeros((5, 4))))
    assert "\n" not in str(info.value)


# ---------------------------------------------------------------------------
# composite


def test_composite_graph_gradient():
    rng = Rng(71)
    x = leaf(rng, (3, 4))
    w1 = leaf(rng, (4, 8), scale=0.5)
    gain = Tensor(np.ones(8), requires_grad=True)
    bias = Tensor(np.zeros(8), requires_grad=True)

    def f():
        h = T.gelu(T.matmul(x, w1))
        h = T.layer_norm(h, gain, bias)
        h = T.add(h, T.flip(h, axis=0))
        return T.tmean(T.mul(h, h))

    check_grads(f, [("x", x), ("w1", w1), ("gain", gain), ("bias", bias)])


def test_rel_err_helper():
    assert rel_err(np.array([1.0]), np.array([1.0 + 1e-9])) < 1e-8
    assert rel_err(np.array([1.0]), np.array([2.0])) == pytest.approx(0.5)
