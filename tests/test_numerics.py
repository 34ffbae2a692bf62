import math
import mmap
import os
import signal
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vwpstory import numerics as nm
from vwpstory.errors import DataError, NumericError


def small_arrays(max_rows=4, max_cols=5):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(2, max_cols).flatmap(
            lambda c: st.lists(
                st.floats(-5, 5, allow_nan=False, width=64),
                min_size=r * c, max_size=r * c,
            ).map(lambda vals: np.asarray(vals, dtype=np.float64).reshape(r, c))
        )
    )


def param_store(values):
    """A ParamStore of these values' shapes, in dict order, holding them."""
    arrays = {name: np.asarray(v, dtype=np.float64) for name, v in values.items()}
    store = nm.ParamStore({name: a.shape for name, a in arrays.items()})
    for name, a in arrays.items():
        store[name].data[...] = a
    return store


class TestSoftmax:
    def test_uniform_logits(self):
        out = nm.softmax(nm.Tensor([0.0, 0.0, 0.0])).data
        np.testing.assert_allclose(out, [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15)

    def test_closed_form_ln2(self):
        # e^0 = 1, e^{ln 2} = 2 -> [1/3, 2/3]
        out = nm.softmax(nm.Tensor([0.0, math.log(2.0)])).data
        np.testing.assert_allclose(out, [1 / 3, 2 / 3], rtol=0, atol=1e-15)

    @given(small_arrays(), st.floats(-50, 50, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance_and_row_sums(self, arr, c):
        base = nm.softmax(nm.Tensor(arr)).data
        shifted = nm.softmax(nm.Tensor(arr + c)).data
        np.testing.assert_allclose(shifted, base, atol=1e-12)
        np.testing.assert_allclose(base.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
        assert (base >= 0).all()

    def test_non_finite_input_rejected(self):
        with pytest.raises(NumericError):
            nm.softmax(nm.Tensor([0.0, np.inf]))


class TestCrossEntropyMasked:
    def test_uniform_distribution(self):
        logits = nm.Tensor(np.zeros((3, 4)))
        loss = nm.cross_entropy_masked(logits, [-1, 2, -1])
        assert loss.item() == pytest.approx(math.log(4.0), abs=1e-12)

    def test_confident_correct_goes_to_zero(self):
        prev = None
        for margin in (5.0, 20.0, 60.0):
            row = np.zeros((1, 4))
            row[0, 2] = margin
            loss = nm.cross_entropy_masked(nm.Tensor(row), [2]).item()
            if prev is not None:
                assert loss < prev
            prev = loss
        assert prev < 1e-20

    def test_matches_per_position_oracle(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(3, 5))
        targets = rng.integers(0, 5, size=3)
        # independent oracle: direct per-position -log softmax
        per_pos = []
        for t in range(3):
            row = logits[t]
            p = np.exp(row - row.max())
            p /= p.sum()
            per_pos.append(-math.log(p[targets[t]]))
        loss = nm.cross_entropy_masked(nm.Tensor(logits), targets)
        assert loss.item() == pytest.approx(float(np.mean(per_pos)), abs=1e-12)

    def test_invariant_to_unmasked_positions(self):
        # rows with target -1 change neither the value nor the gradient: the
        # loss and its gradient on the other rows are those of those rows alone
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(4, 6))
        targets = [0, -1, 2, -1]
        noisy = logits.copy()
        noisy[1] += 100.0
        noisy[3] -= 42.0
        alone = param_store({"x": logits[[0, 2]]})["x"]
        want = nm.cross_entropy_masked(alone, [0, 2])
        want.backward()
        for rows in (logits, noisy):
            x = param_store({"x": rows})["x"]
            loss = nm.cross_entropy_masked(x, targets)
            loss.backward()
            assert loss.item() == want.item()
            assert x.grad[[0, 2]].tobytes() == alone.grad.tobytes()
            assert not x.grad[[1, 3]].any()

    def test_empty_mask_errors(self):
        with pytest.raises(DataError, match="empty loss"):
            nm.cross_entropy_masked(nm.Tensor(np.zeros((2, 3))), [-1, -1])

    def test_out_of_range_target_errors(self):
        # -1 is the only negative target, and every row is checked, with a loss or not
        for targets in ([3], [-2], [0, -2], [-1, 3]):
            with pytest.raises(DataError, match="out of range"):
                nm.cross_entropy_masked(nm.Tensor(np.zeros((len(targets), 3))), targets)

    def test_non_negative(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(scale=4.0, size=(6, 9))
        loss = nm.cross_entropy_masked(nm.Tensor(logits), rng.integers(0, 9, 6))
        assert loss.item() >= 0.0


class TestGradCheck:
    def test_identity(self):
        store = param_store({"x": 1.5})
        err = nm.grad_check(lambda s: s["x"], store)
        assert err < 1e-8
        store.zero_grad()
        out = store["x"]
        out.backward()
        assert out.grad.item() == 1.0

    def test_constant(self):
        store = param_store({"x": 2.0})
        err = nm.grad_check(lambda s: nm.Tensor(3.0), store)
        assert err < 1e-8

    def test_epsilon_bounds(self):
        store = param_store({"x": 1.0})
        with pytest.raises(NumericError):
            nm.grad_check(lambda s: s["x"], store, epsilon=1e-2)

    @pytest.mark.parametrize("kernel", ["matmul", "add", "mul", "softmax",
                                        "layer_norm", "gelu", "embedding",
                                        "dropout", "xent", "concat", "narrow"])
    def test_every_kernel_within_1e4(self, kernel):
        rng = np.random.default_rng(zlib.crc32(kernel.encode()))
        store = param_store({"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 3)),
                            "g": rng.normal(size=4) * 0.1 + 1.0,
                            "c": rng.normal(size=4) * 0.1, "d": rng.normal(size=3)})
        ids = np.array([2, 0, 1])
        targets = np.array([1, -1, 0])
        other = nm.Tensor(rng.normal(size=(3, 4)))

        def f(s):
            if kernel == "matmul":
                z = nm.matmul(s["a"], s["b"], s["d"])
            elif kernel == "add":
                z = nm.add(s["a"], other)
            elif kernel == "mul":
                z = nm.mul(s["a"], s["a"])
            elif kernel == "softmax":
                z = nm.softmax(s["a"])
            elif kernel == "layer_norm":
                z = nm.layer_norm(s["a"], s["g"], s["c"])
            elif kernel == "gelu":
                z = nm.gelu(s["a"])
            elif kernel == "embedding":
                z = nm.embedding(s["a"], ids)
            elif kernel == "dropout":
                z = nm.dropout(s["a"], 0.4, np.random.default_rng(0))
            elif kernel == "xent":
                return nm.cross_entropy_masked(nm.matmul(s["a"], s["b"], s["d"]), targets)
            elif kernel == "concat":
                z = nm.concat_rows([s["a"], nm.transpose(s["b"])])
            elif kernel == "narrow":
                z = nm.narrow_cols(s["a"], 1, 3)
            return nm.cross_entropy_masked(z, np.zeros(z.shape[0], dtype=int))

        assert nm.grad_check(f, store, epsilon=1e-5) < 1e-4

    @pytest.mark.parametrize("op", [nm.add, nm.mul])
    def test_elementwise_ops_take_equal_shapes(self, op):
        with pytest.raises(DataError, match=r"shapes \(3, 4\) and \(1, 4\) differ"):
            op(nm.Tensor(np.ones((3, 4))), nm.Tensor(np.ones((1, 4))))


class TestAdam:
    def _store_with_grad(self, grad):
        store = param_store({"w": [1.0, -2.0, 3.0]})
        p = store["w"]
        p.grad[...] = grad
        return store, p

    def test_zero_gradient_zero_moments_no_op(self):
        store, p = self._store_with_grad([0.0, 0.0, 0.0])
        before = p.data.copy()
        nm.adam_step(store, lr=0.1)
        np.testing.assert_array_equal(p.data, before)
        assert store.step == 1

    def test_first_step_is_signed_lr(self):
        # from zero moments: update = -lr * g / (|g| + ~eps) ~= -lr * sign(g)
        store, p = self._store_with_grad([0.5, -0.25, 2.0])
        before = p.data.copy()
        nm.adam_step(store, lr=1e-3)
        np.testing.assert_allclose(p.data - before, [-1e-3, 1e-3, -1e-3], rtol=1e-4)

    def test_parameter_no_op_reaches_keeps_a_zero_gradient(self):
        # "u" is reached on the first step only; on the later steps Adam moves
        # it with g = 0 from the moments it has
        store = param_store({"w": np.ones((2, 1)), "u": np.full((2, 1), -0.5)})
        want = {name: p.data.copy() for name, p in store.params.items()}
        moments = {}
        x = nm.Tensor([[0.3, -1.2]])
        for t, reached in enumerate([("w", "u"), ("w",), ("w",)], start=1):
            store.zero_grad()
            for name in reached:
                nm.matmul(x, store[name], nm.Tensor([0.0])).backward(np.ones((1, 1)))
            if "u" not in reached:
                assert store["u"].grad.tobytes() == bytes(16)  # exactly +0.0
            grads = {name: p.grad.copy() for name, p in store.params.items()}
            nm.adam_step(store, lr=1e-2)
            adam_oracle(want, moments, grads, t, 1e-2)
            for name, p in store.params.items():
                np.testing.assert_array_equal(bits(p.data), bits(want[name]))
            if t == 1:
                after_reached = store["u"].data.copy()
        assert (store["u"].data != after_reached).all()

    def test_deterministic(self):
        def run():
            rng = np.random.default_rng(5)
            store = param_store({"w": rng.normal(size=8)})
            p = store["w"]
            for _ in range(25):
                p.grad[...] = rng.normal(size=8)
                nm.adam_step(store, lr=3e-3)
            return p.data.tobytes()

        assert run() == run()

    def test_step_counter_monotone(self):
        store, p = self._store_with_grad([1.0, 1.0, 1.0])
        for expected in (1, 2, 3):
            p.grad[...] = 1.0
            nm.adam_step(store, lr=1e-3)
            assert store.step == expected


class TestDropout:
    def test_eval_is_identity(self):
        x = nm.Tensor(np.ones((3, 3)))
        assert nm.dropout(x, 0.5, None) is x

    def test_seeded_mask_reproducible(self):
        x = nm.Tensor(np.ones((8, 8)))
        a = nm.dropout(x, 0.3, np.random.default_rng(9)).data
        b = nm.dropout(x, 0.3, np.random.default_rng(9)).data
        np.testing.assert_array_equal(a, b)
        kept = a[a != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.7)


class TestClipGlobalNorm:
    def test_noop_below_threshold(self):
        store = param_store({"w": [3.0, 4.0]})
        p = store["w"]
        p.grad[...] = [0.3, 0.4]
        norm = nm.clip_global_norm(store, 1.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_allclose(p.grad, [0.3, 0.4])

    def test_scales_above_threshold(self):
        store = param_store({"w": [0.0, 0.0]})
        p = store["w"]
        p.grad[...] = [3.0, 4.0]
        nm.clip_global_norm(store, 1.0)
        assert math.sqrt(float((p.grad ** 2).sum())) == pytest.approx(1.0)

    @pytest.mark.parametrize("grad", [[1e200, 1.0], [np.nan, 1.0], [np.inf, 1.0]])
    def test_non_finite_norm_is_refused(self, grad):
        store = param_store({"w": [0.0, 0.0]})
        store["w"].grad[...] = grad
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="gradient norm is"):
            nm.clip_global_norm(store, 1.0)
        assert store["w"].grad[1] == 1.0  # left as it was


class TestFiniteness:
    @given(small_arrays())
    @settings(max_examples=30, deadline=None)
    def test_kernels_stay_finite_on_finite_inputs(self, arr):
        t = nm.Tensor(arr)
        for out in (nm.softmax(t), nm.gelu(t), nm.mul(t, t), nm.add(t, t)):
            assert np.isfinite(out.data).all()


class TestGelu:
    def test_cube_matches_power_formula(self):
        rng = np.random.default_rng(12)
        v = rng.normal(scale=3.0, size=(304, 128))
        v[0, :4] = [0.0, -0.0, 40.0, -40.0]
        want = 0.5 * v * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (v + 0.044715 * v ** 3)))
        np.testing.assert_allclose(nm.gelu(nm.Tensor(v)).data, want, rtol=0, atol=1e-12)


def attention_oracle(q, k, v, mask, n_heads):
    """Plain-numpy per-sequence, per-head loop over column slices."""
    tq, tk = mask.shape
    d = q.shape[1]
    hd = d // n_heads
    out = np.zeros_like(q)
    for b in range(q.shape[0] // tq):
        rows_q, rows_k = slice(b * tq, (b + 1) * tq), slice(b * tk, (b + 1) * tk)
        for h in range(n_heads):
            cols = slice(h * hd, (h + 1) * hd)
            scores = q[rows_q, cols] @ k[rows_k, cols].T / math.sqrt(hd) + mask
            w = np.exp(scores - scores.max(axis=1, keepdims=True))
            w /= w.sum(axis=1, keepdims=True)
            out[rows_q, cols] = w @ v[rows_k, cols]
    return out


def causal(tq, tk):
    return np.triu(np.full((tq, tk), -1e30), k=tk - tq + 1)


class TestAttention:
    @pytest.mark.parametrize("b,tq,tk,heads", [(1, 5, 5, 1), (3, 4, 4, 2), (2, 1, 6, 4), (2, 3, 7, 2)])
    def test_matches_per_head_loop(self, b, tq, tk, heads):
        rng = np.random.default_rng(b * 100 + tk)
        q = rng.normal(size=(b * tq, 8))
        k, v = rng.normal(size=(2, b * tk, 8))
        mask = causal(tq, tk)
        got = nm.attention(nm.Tensor(q), nm.Tensor(k), nm.Tensor(v), mask, heads).data
        np.testing.assert_allclose(got, attention_oracle(q, k, v, mask, heads), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_grad_check_batched_multi_head_masked(self, dropout):
        rng = np.random.default_rng(4)
        b, tq, tk, heads = 3, 3, 5, 2
        store = param_store({"q": rng.normal(size=(b * tq, 4)),
                            "k": rng.normal(size=(b * tk, 4)),
                            "v": rng.normal(size=(b * tk, 4))})
        mask = causal(tq, tk)
        targets = rng.integers(0, 4, size=b * tq)

        def f(s):
            out = nm.attention(s["q"], s["k"], s["v"], mask, heads, dropout=dropout,
                               rng=np.random.default_rng(0))
            return nm.cross_entropy_masked(out, targets)

        assert nm.grad_check(f, store, epsilon=1e-5) < 1e-4

    def test_no_weights_dropped_without_a_generator(self):
        rng = np.random.default_rng(5)
        q, k, v = (nm.Tensor(x) for x in rng.normal(size=(3, 2 * 4, 4)))
        mask = causal(4, 4)
        got = nm.attention(q, k, v, mask, 2, dropout=0.3, rng=None).data
        assert got.tobytes() == nm.attention(q, k, v, mask, 2).data.tobytes()

    def test_array_keys_are_the_same_op(self):
        # (B, Tk, d) key and value arrays, here strided views into a wider
        # buffer as a KV cache hands them over, give the bits of (B * Tk, d)
        # Tensors of the same rows
        rng = np.random.default_rng(6)
        b, tq, tk, heads = 3, 2, 5, 2
        q = rng.normal(size=(b * tq, 4))
        buffers = rng.normal(size=(2, b, 9, 4))
        k, v = buffers[0, :, :tk], buffers[1, :, :tk]
        mask = causal(tq, tk)
        got = nm.attention(nm.Tensor(q), k, v, mask, heads).data
        want = nm.attention(nm.Tensor(q), nm.Tensor(k.reshape(-1, 4)),
                            nm.Tensor(v.reshape(-1, 4)), mask, heads).data
        assert got.tobytes() == want.tobytes()

    def test_grad_check_with_array_keys(self):
        rng = np.random.default_rng(5)
        b, tq, tk, heads = 2, 3, 4, 2
        store = param_store({"q": rng.normal(size=(b * tq, 4))})
        k, v = rng.normal(size=(2, b, tk, 4))
        targets = rng.integers(0, 4, size=b * tq)

        def f(s):
            out = nm.attention(s["q"], k, v, causal(tq, tk), heads)
            return nm.cross_entropy_masked(out, targets)

        assert nm.grad_check(f, store, epsilon=1e-5) < 1e-4

    def test_masked_keys_get_no_weight_or_gradient(self):
        rng = np.random.default_rng(8)
        k = param_store({"k": rng.normal(size=(4, 4))})["k"]
        q, v = nm.Tensor(rng.normal(size=(4, 4))), nm.Tensor(rng.normal(size=(4, 4)))
        out = nm.attention(q, k, v, causal(4, 4), 2)
        nm.cross_entropy_masked(out, [0, 1, -1, -1]).backward()
        # only rows 0 and 1 carry loss, and they see keys 0 and 1 only
        assert not k.grad[2:].any()
        assert k.grad[:2].any()

    def test_shape_mismatch_rejected(self):
        t = nm.Tensor(np.zeros((6, 4)))
        with pytest.raises(DataError):
            nm.attention(t, nm.Tensor(np.zeros((5, 4))), t, causal(3, 3), 2)
        with pytest.raises(DataError):
            nm.attention(nm.Tensor(np.zeros((5, 4))), t, t, causal(3, 3), 2)
        with pytest.raises(DataError):
            nm.attention(t, np.zeros((6, 4)), np.zeros((6, 4)), causal(3, 3), 2)


class TestCrossEntropyWeights:
    def test_weight_rows_are_per_group_means(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(7, 5))
        targets = rng.integers(0, 5, size=7)
        mask = np.array([True, True, False, True, True, True, False])
        targets[~mask] = -1
        groups = [np.arange(0, 3), np.arange(3, 7)]
        weights = np.zeros((2, 7))
        for row, idx in zip(weights, groups):
            row[idx[mask[idx]]] = 1.0 / mask[idx].sum()
        got = nm.cross_entropy_masked(nm.Tensor(logits), targets, weights).data
        for value, idx in zip(got, groups):
            want = nm.cross_entropy_masked(nm.Tensor(logits[idx]), targets[idx]).item()
            assert value == pytest.approx(want, abs=1e-12)
        pooled = nm.cross_entropy_masked(nm.Tensor(logits), targets,
                                         weights.mean(axis=0, keepdims=True))
        assert pooled.shape == (1,)
        assert pooled.item() == pytest.approx(got.mean(), abs=1e-12)

    def test_grad_check_with_weights(self):
        rng = np.random.default_rng(9)
        store = param_store({"x": rng.normal(size=(4, 3))})
        weights = np.array([[0.5, 0.0, 0.25, 0.25]])

        def f(s):
            return nm.cross_entropy_masked(s["x"], [0, -1, 2, 1], weights)

        assert nm.grad_check(f, store) < 1e-4

    def test_bad_weight_shape(self):
        for weights in (np.ones(2), np.ones(3), np.ones((1, 2)), np.ones((1, 1, 3))):
            with pytest.raises(DataError, match=r"weights must have shape \(E, 3\)"):
                nm.cross_entropy_masked(nm.Tensor(np.zeros((3, 2))), [0, 0, 0], weights)


class TestGraph:
    def test_no_grad_builds_no_graph(self):
        w = param_store({"w": np.ones((2, 2))})["w"]
        with nm.no_grad():
            out = nm.gelu(nm.matmul(nm.Tensor(np.eye(2)), w, nm.Tensor(np.zeros(2))))
            assert out._node is None and not out.requires_grad
        assert nm.matmul(nm.Tensor(np.eye(2)), w, nm.Tensor(np.zeros(2)))._node is not None

    def test_no_grad_restored_after_error(self):
        with pytest.raises(NumericError):
            with nm.no_grad():
                nm.softmax(nm.Tensor([np.nan]))
        assert nm.gelu(param_store({"w": [1.0]})["w"])._node is not None

    def test_activation_no_backward_step_needs_is_freed(self):
        import weakref
        w = param_store({"w": np.ones((3, 3))})["w"]
        zero = nm.Tensor(np.zeros(3))
        y = nm.matmul(nm.Tensor(np.eye(3)), w, zero)
        kept = weakref.ref(y.data)
        z = nm.gelu(nm.add(y, nm.Tensor(np.ones((3, 3)))))
        del y
        assert kept() is None  # add's backward keeps neither input
        z_in = weakref.ref(z.data)
        loss = nm.cross_entropy_masked(nm.matmul(z, w, zero), [0, 1, 2])
        del z
        assert z_in() is not None  # matmul's backward needs its input
        loss.backward()
        assert w.grad.any() and z_in() is None  # the walk frees the graph


# --- the training-step kernels against the textbook forms they replaced ----------

def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def embedding_grad(table_shape, ids, g):
    """The embedding op's own backward output for upstream gradient ``g``."""
    out = nm.embedding(param_store({"table": np.zeros(table_shape)})["table"], ids)
    return out._node.grad_fn(g)[0]


gradient_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1e20, -1e20, 1e-20, -1e-20]),
    st.floats(-1e3, 1e3, allow_nan=False, width=64))


@st.composite
def embedding_cases(draw):
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    ids = draw(st.lists(st.integers(0, n - 1), max_size=12))
    values = draw(st.lists(gradient_values, min_size=len(ids) * d, max_size=len(ids) * d))
    return (n, d), np.asarray(ids, dtype=np.intp), np.asarray(values).reshape(len(ids), d)


class TestEmbeddingScatterOracle:
    @given(embedding_cases())
    @settings(max_examples=200, deadline=None)
    def test_bincount_matches_add_at_bit_for_bit(self, case):
        shape, ids, g = case
        want = np.zeros(shape)
        np.add.at(want, ids, g)
        np.testing.assert_array_equal(bits(embedding_grad(shape, ids, g)), bits(want))

    def test_duplicate_ids_sum_in_row_order(self):
        # (1 + 1e20) - 1e20 is 0 in row order; in reverse order it is 1
        g = np.array([[1.0], [1e20], [-1e20]])
        assert embedding_grad((2, 1), [1, 1, 1], g).tolist() == [[0.0], [0.0]]

    def test_empty_id_list_gives_a_zero_gradient(self):
        got = embedding_grad((3, 2), np.zeros(0, dtype=np.intp), np.zeros((0, 2)))
        assert got.shape == (3, 2) and not got.any()

    def test_table_must_be_2d(self):
        with pytest.raises(DataError, match="2-D table"):
            nm.embedding(nm.Tensor(np.zeros(4)), [0])


def layer_norm_var_oracle(x, gamma, beta, g, eps=1e-5):
    """The two-pass form: mean and ``np.var``, then the same backward."""
    mu = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + eps)
    xhat = (x - mu) * inv
    out = xhat * gamma + beta
    d = x.shape[-1]
    dxhat = g * gamma
    dx = (dxhat - dxhat.mean(axis=-1, keepdims=True)
          - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) * inv
    return out, dx, (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)


class TestLayerNormOracle:
    @pytest.mark.parametrize("shape,offset", [((1, 2), 0.0), ((7, 16), 0.0), ((5, 64), 1e4),
                                              ((3, 4, 8), -3.0), ((304, 64), 0.5),
                                              ((6, 7), 0.0), ((2, 5, 24), 1e3), ((9, 96), -2.0)])
    def test_one_pass_variance_matches_np_var_bit_for_bit(self, shape, offset):
        rng = np.random.default_rng(shape[-1] * 10 + len(shape))
        x = rng.normal(size=shape) * rng.uniform(1e-3, 1e3, size=shape[:-1] + (1,)) + offset
        gamma, beta = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
        g = rng.normal(size=shape)
        store = param_store({"x": x, "gamma": gamma, "beta": beta})
        out = nm.layer_norm(store["x"], store["gamma"], store["beta"])
        for got, want in zip((out.data, *out._node.grad_fn(g)),
                             layer_norm_var_oracle(x, gamma, beta, g)):
            np.testing.assert_array_equal(bits(got), bits(want))


def adam_oracle(params, moments, grads, t, lr):
    """Per-parameter Adam with a temporary for every step of the formula."""
    beta1, beta2, eps = nm.ADAM_BETA1, nm.ADAM_BETA2, nm.ADAM_EPS
    for name, g in grads.items():
        m, v = moments.setdefault(name, (np.zeros_like(g), np.zeros_like(g)))
        m[...] = beta1 * m + (1.0 - beta1) * g
        v[...] = beta2 * v + (1.0 - beta2) * (g * g)
        mhat = m / (1.0 - beta1 ** t)
        vhat = v / (1.0 - beta2 ** t)
        params[name] -= lr * mhat / (np.sqrt(vhat) + eps)


class TestAdamOracle:
    @pytest.mark.parametrize("lr", [1e-3, 2e-3, 0.1])
    def test_flat_in_place_step_matches_per_parameter_formula(self, lr):
        rng = np.random.default_rng(17)
        shapes = {"w": (5, 3), "b": (3,), "s": (), "emb": (7, 4)}
        store = param_store({name: rng.normal(size=shape) for name, shape in shapes.items()})
        want = {name: p.data.copy() for name, p in store.params.items()}
        moments = {}
        for t in range(1, 6):
            grads = {name: rng.normal(scale=10.0 ** rng.integers(-6, 3), size=want[name].shape)
                     for name in want}
            grads["b"][0] = -0.0
            for name, g in grads.items():
                store[name].grad[...] = g
            nm.adam_step(store, lr=lr)
            adam_oracle(want, moments, grads, t, lr)
            offset = 0
            for name, p in store.params.items():
                np.testing.assert_array_equal(bits(p.data), bits(want[name]))
                span = slice(offset, offset + p.data.size)
                np.testing.assert_array_equal(bits(store.m[span]), bits(moments[name][0].ravel()))
                np.testing.assert_array_equal(bits(store.v[span]), bits(moments[name][1].ravel()))
                offset += p.data.size
        assert store.step == 5


class TestFlatParamStore:
    def test_every_parameter_is_a_view_of_the_flat_buffer_in_order(self):
        rng = np.random.default_rng(3)
        values = {f"p{k}": rng.normal(size=(k % 3 + 1, k + 1)) if k % 4 else rng.normal()
                  for k in range(12)}
        store = param_store(values)
        assert store["p0"].shape == () and list(store.params) == list(values)
        offset = 0
        for name, want in values.items():
            data = store[name].data
            assert np.shares_memory(data, store.flat[offset:offset + data.size])
            assert not np.shares_memory(data, want)
            np.testing.assert_array_equal(data, want)
            offset += data.size
        assert offset == store.flat.size
        store.flat[:] = np.arange(store.flat.size)
        np.testing.assert_array_equal(
            np.concatenate([store[name].data.ravel() for name in values]), store.flat)
        assert store.m is None and store.v is None
        for p in store.params.values():
            p.grad[...] = 1.0
        nm.adam_step(store, lr=1e-3)
        assert store.m.shape == store.v.shape == store.flat.shape
        assert all(np.shares_memory(p.data, store.flat) for p in store.params.values())

    def test_every_gradient_is_a_fixed_view_of_the_grad_buffer(self):
        store = param_store({"w": np.ones((3, 2)), "s": 2.0, "b": np.ones(4)})
        grads = {name: p.grad for name, p in store.params.items()}
        offset = 0
        for name, p in store.params.items():
            assert p.grad.shape == p.data.shape
            assert np.shares_memory(p.grad, store.grad[offset:offset + p.data.size])
            assert p.grad.ctypes.data == store.grad[offset:].ctypes.data
            offset += p.data.size
        assert offset == store.grad.size and not store.grad.any()
        loss = nm.matmul(nm.Tensor(np.ones((1, 3))), store["w"], nm.Tensor(np.zeros(2)))
        nm.mul(loss, nm.Tensor([[3.0, 3.0]])).backward(np.ones((1, 2)))
        nm.mul(store["s"], store["s"]).backward()
        assert all(store[name].grad is g for name, g in grads.items())
        np.testing.assert_array_equal(store.grad, [3.0] * 6 + [4.0] + [0.0] * 4)
        store.zero_grad()
        assert all(store[name].grad is g for name, g in grads.items())
        assert not store.grad.any()

    def test_adam_step_leaves_the_gradients_unchanged(self):
        rng = np.random.default_rng(4)
        store = param_store({"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)})
        store.grad[:] = rng.normal(size=store.grad.size)
        before = store.grad.tobytes()
        for _ in range(3):
            nm.adam_step(store, lr=1e-3)
            assert store.grad.tobytes() == before


    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_s_backward_leaves_the_parent_s_gradients_zero(self):
        store = param_store({"w": np.ones((64, 64))})
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: run backward, report what it sees, exit
            try:
                nm.matmul(nm.Tensor(np.ones((1, 64))), store["w"],
                          nm.Tensor(np.zeros(64))).backward(np.ones((1, 64)))
                os.write(write, b"1" if store.grad.all() else b"0")
            finally:
                os._exit(0)
        os.close(write)
        deadline = time.monotonic() + 60
        while os.waitpid(pid, os.WNOHANG)[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the child did not exit within 60 s")
            time.sleep(0.01)
        with os.fdopen(read, "rb") as fh:
            child_saw = fh.read()
        assert child_saw == b"1"
        assert not store.grad.any()

    @pytest.mark.skipif(not os.path.exists("/proc/self/pagemap"),
                        reason="reads page residency from Linux's /proc/self/pagemap")
    def test_gradient_pages_stay_unbacked_until_written(self):
        store = param_store({"w": np.ones((64, 64)), "b": np.ones(64)})
        with nm.no_grad():
            out = nm.matmul(nm.Tensor(np.ones((3, 64))), store["w"], store["b"])
        assert out.data.sum() == 3 * 64 * 65
        assert resident_pages(store.grad) == 0
        store.zero_grad()  # any write backs the pages it touches
        assert resident_pages(store.grad) == -(-store.grad.nbytes // mmap.PAGESIZE)


def resident_pages(buffer: np.ndarray) -> int:
    """How many of the memory pages under ``buffer`` are backed by RAM: bit
    63 of each page's entry in /proc/self/pagemap. This is the page-exact
    form of a mapping's ``Rss`` in /proc/self/smaps, which can also count
    an adjacent mapping that the kernel merged with it."""
    first = buffer.ctypes.data // mmap.PAGESIZE
    last = (buffer.ctypes.data + buffer.nbytes - 1) // mmap.PAGESIZE
    with open("/proc/self/pagemap", "rb") as fh:
        fh.seek(8 * first)
        entries = np.frombuffer(fh.read(8 * (last - first + 1)), dtype="<u8")
    return int((entries >> np.uint64(63)).sum())


class TestClipOracle:
    @pytest.mark.parametrize("max_norm", [1.0, 1e4])
    def test_norm_and_scale_match_per_parameter_name_order(self, max_norm):
        # magnitudes from 1e-6 to 1e2 per element: over these draws, squares
        # summed in any other order (one pass over the buffer, names
        # reversed) round differently at least once; norms are about 500
        shapes = {"emb": (40, 16), "w": (16, 24), "s": (), "b": (24,)}
        rng = np.random.default_rng(23)
        for _ in range(20):
            grads = {name: rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 2, size=shape)
                     for name, shape in shapes.items()}
            store = param_store({name: np.zeros(shape) for name, shape in shapes.items()})
            for name, g in grads.items():
                store[name].grad[...] = g
            total = 0.0
            for g in grads.values():
                total += float((g * g).sum())
            want_norm = math.sqrt(total)
            assert nm.clip_global_norm(store, max_norm).hex() == want_norm.hex()
            for name, g in grads.items():
                if want_norm > max_norm:
                    g *= max_norm / want_norm
                np.testing.assert_array_equal(bits(store[name].grad), bits(g))
