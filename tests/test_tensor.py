"""Autodiff engine: frozen values, finite differences, tape semantics."""
import math

import numpy as np
import pytest

from livlr.errors import ContractError, DegenerateRowError, ShapeError
from livlr.optim import ParamStore, adamw_step, make_param
from livlr.tensor import (
    Tensor,
    add,
    backward,
    concat,
    constant,
    exp,
    index_rows,
    linear,
    log,
    matmul,
    mean_axis0,
    mul,
    narrow,
    neg,
    no_grad,
    relu,
    reshape,
    row_softmax,
    sigmoid,
    sum_all,
    sum_axis1,
    take,
    tanh,
    tape_size,
    transpose,
)

from oracles import central_diff, mat_loop, max_rel_err


def leaf(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


class TestMatmul:
    def test_identity(self):
        out = matmul(constant(np.eye(2), np.float64), leaf([[3.0], [4.0]]))
        assert np.array_equal(out.data, [[3.0], [4.0]])

    def test_inner_product_value(self):
        out = matmul(leaf([[1.0, 2.0]]), leaf([[3.0], [4.0]]))
        assert out.data.shape == (1, 1)
        assert out.data[0, 0] == 11.0

    def test_shape_mismatch_names_both(self):
        with pytest.raises(ShapeError) as e:
            matmul(leaf(np.zeros((2, 3))), leaf(np.zeros((2, 3))))
        assert "(2, 3)" in str(e.value)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = rng.standard_normal((10, 10))
            b = rng.standard_normal((10, 10))
            got = matmul(constant(a, np.float64), constant(b, np.float64)).data
            assert max_rel_err(got, mat_loop(a, b)) <= 1e-6

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(3)
        a = leaf(rng.standard_normal((3, 4)))
        b = leaf(rng.standard_normal((4, 2)))

        def loss_value():
            with no_grad():
                return sum_all(matmul(a, b)).data

        backward(sum_all(matmul(a, b)))
        for t in (a, b):
            num = central_diff(loss_value, t.data, h=1e-5)
            assert max_rel_err(t.grad, num) < 1e-6


class TestRowSoftmax:
    def test_symmetry(self):
        out = row_softmax(leaf([[0.0, 0.0]]))
        assert np.allclose(out.data, [[0.5, 0.5]], atol=1e-12)

    def test_analytic_two_entry(self):
        out = row_softmax(leaf([[1.0, 0.0]]))
        e = math.e
        assert np.allclose(out.data, [[e / (e + 1.0), 1.0 / (e + 1.0)]], atol=1e-12)
        assert abs(out.data[0, 0] - 0.7311) < 1e-4
        assert abs(out.data[0, 1] - 0.2689) < 1e-4

    def test_masked_symmetry(self):
        mask = np.array([[True, True, False]])
        out = row_softmax(leaf([[5.0, 5.0, 5.0]]), mask=mask)
        assert np.allclose(out.data, [[0.5, 0.5, 0.0]], atol=1e-12)

    def test_fully_masked_row_raises(self):
        with pytest.raises(DegenerateRowError):
            row_softmax(leaf([[1.0, 2.0]]), mask=np.array([[False, False]]))

    def test_fully_masked_row_allowed_is_zero(self):
        mask = np.array([[False, False], [True, False]])
        out = row_softmax(leaf([[1.0, 2.0], [3.0, 4.0]]), mask=mask, allow_empty=True)
        assert np.array_equal(out.data[0], [0.0, 0.0])
        assert np.array_equal(out.data[1], [1.0, 0.0])

    def test_rows_sum_to_one_and_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            x = rng.standard_normal((n, n)) * rng.uniform(0.5, 30.0)
            mask = rng.random((n, n)) < 0.7
            mask[np.arange(n), rng.integers(0, n, n)] = True  # keep rows alive
            out = row_softmax(constant(x, np.float64), mask=mask).data
            assert (out >= 0.0).all()
            assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-6

    def test_huge_masked_out_scores_do_not_overflow(self):
        x = np.array([[0.0, 1e6], [1.0, 2.0]])
        mask = np.array([[True, False], [True, True]])
        with np.errstate(over="raise"):
            out = row_softmax(constant(x, np.float64), mask=mask).data
        assert out[0, 0] == 1.0 and out[0, 1] == 0.0

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(5)
        x = leaf(rng.standard_normal((3, 4)))
        mask = rng.random((3, 4)) < 0.8
        mask[:, 0] = True
        w = constant(rng.standard_normal((3, 4)), np.float64)

        def build():
            return sum_all(mul(row_softmax(x, mask=mask), w))

        def loss_value():
            with no_grad():
                return build().data

        backward(build())
        num = central_diff(loss_value, x.data, h=1e-6)
        assert max_rel_err(x.grad, num) < 1e-6


class TestElementwise:
    def test_relu_values(self):
        out = relu(leaf([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_relu_subgradient_zero_at_zero(self):
        x = leaf([-1.0, 0.0, 2.0])
        backward(sum_all(relu(x)))
        assert np.array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_mul_identity_mask(self):
        out = mul(leaf([1.0, 2.0]), leaf([1.0, 1.0]))
        assert np.array_equal(out.data, [1.0, 2.0])

    def test_mean_over_rows(self):
        out = mean_axis0(leaf([[1.0, 3.0], [3.0, 5.0]]))
        assert np.array_equal(out.data, [2.0, 4.0])

    def test_bad_broadcast_raises(self):
        with pytest.raises(ShapeError):
            add(leaf(np.zeros((2, 3))), leaf(np.zeros((3, 2))))
        with pytest.raises(ShapeError):
            mul(leaf(np.zeros((4, 3))), leaf(np.zeros(4)))

    def test_row_and_col_broadcast_gradients(self):
        rng = np.random.default_rng(9)
        m = leaf(rng.standard_normal((3, 4)))
        row = leaf(rng.standard_normal(4))
        col = leaf(rng.standard_normal((3, 1)))
        w = constant(rng.standard_normal((3, 4)), np.float64)

        def build():
            return sum_all(mul(add(add(m, row), col), w))

        def loss_value():
            with no_grad():
                return build().data

        backward(build())
        for t in (m, row, col):
            num = central_diff(loss_value, t.data, h=1e-6)
            assert max_rel_err(t.grad, num) < 1e-6

    def test_unary_gradients_match_fd(self):
        rng = np.random.default_rng(13)
        for op in (sigmoid, tanh, exp, neg):
            x = leaf(rng.standard_normal((2, 3)))

            def build():
                return sum_all(mul(op(x), x))

            def loss_value():
                with no_grad():
                    return build().data

            backward(build())
            num = central_diff(loss_value, x.data, h=1e-6)
            assert max_rel_err(x.grad, num) < 1e-6, op.__name__

    def test_sigmoid_is_the_stable_two_branch_formula(self):
        # the LSTM gates and the sigmoid op share one helper; pin its bytes
        # to the overflow-free formula, extremes included
        from livlr.tensor import stable_sigmoid

        for dtype in (np.float32, np.float64):
            x = np.concatenate([
                np.random.default_rng(15).standard_normal(64) * 30.0,
                [0.0, -0.0, 1e-30, -1e-30, 88.0, -88.0, 800.0, -800.0, np.inf, -np.inf],
            ]).astype(dtype)
            e = np.exp(-np.abs(x))
            want = np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
            assert stable_sigmoid(x).tobytes() == want.tobytes()
            assert sigmoid(Tensor(x)).data.tobytes() == want.tobytes()

    def test_log_gradient(self):
        rng = np.random.default_rng(14)
        x = leaf(rng.uniform(0.5, 2.0, size=(2, 3)))

        def loss_value():
            with no_grad():
                return sum_all(log(x)).data

        backward(sum_all(log(x)))
        num = central_diff(loss_value, x.data, h=1e-7)
        assert max_rel_err(x.grad, num) < 1e-6


class TestStructuralOps:
    def test_concat_index_take_narrow_reshape_gradients(self):
        rng = np.random.default_rng(21)
        a = leaf(rng.standard_normal((2, 3)))
        b = leaf(rng.standard_normal((2, 3)))
        v = leaf(rng.standard_normal(5))

        def build():
            joined = concat([a, b], axis=0)               # (4, 3)
            picked = index_rows(joined, [3, 0, 0])        # repeated rows
            wide = concat([picked, picked], axis=1)       # (3, 6)
            col = narrow(wide, 2, 2)                      # (3, 2)
            flat = reshape(col, (6,))
            gathered = take(v, [4, 4, 0, 1, 2, 3])
            return sum_all(mul(flat, gathered))

        def loss_value():
            with no_grad():
                return build().data

        backward(build())
        for t in (a, b, v):
            num = central_diff(loss_value, t.data, h=1e-6)
            assert max_rel_err(t.grad, num) < 1e-6

    def test_transpose_and_sum_axis1(self):
        rng = np.random.default_rng(22)
        x = leaf(rng.standard_normal((3, 4)))
        w = constant(rng.standard_normal((3, 1)), np.float64)

        def build():
            return sum_all(mul(sum_axis1(transpose(transpose(x))), w))

        def loss_value():
            with no_grad():
                return build().data

        backward(build())
        num = central_diff(loss_value, x.data, h=1e-6)
        assert max_rel_err(x.grad, num) < 1e-6

    def test_linear_vector_and_matrix(self):
        rng = np.random.default_rng(23)
        w = leaf(rng.standard_normal((3, 2)))
        b = leaf(rng.standard_normal(2))
        x_vec = constant(rng.standard_normal(3), np.float64)
        out = linear(x_vec, w, b)
        assert out.data.shape == (2,)
        x_mat = constant(rng.standard_normal((4, 3)), np.float64)
        out2 = linear(x_mat, w, b)
        assert out2.data.shape == (4, 2)
        assert np.allclose(out2.data, x_mat.data @ w.data + b.data)


class TestBackwardSemantics:
    def test_square_gradient(self):
        w = leaf([3.0])
        backward(sum_all(mul(w, w)))
        assert np.array_equal(w.grad, [6.0])

    def test_two_backwards_double_the_grad(self):
        w = leaf([3.0])
        backward(sum_all(mul(w, w)))
        first = w.grad.copy()
        backward(sum_all(mul(w, w)))
        assert np.array_equal(w.grad, 2.0 * first)

    def test_matmul_chain_depth5_fd(self):
        rng = np.random.default_rng(31)
        shapes = [(2, 3), (3, 4), (4, 3), (3, 2), (2, 2)]
        for seed in range(20):
            r = np.random.default_rng([31, seed])
            mats = [leaf(r.standard_normal(s)) for s in shapes]

            def build():
                out = mats[0]
                for m in mats[1:]:
                    out = matmul(out, m)
                return sum_all(out)

            def loss_value():
                with no_grad():
                    return build().data

            backward(build())
            for t in mats:
                num = central_diff(loss_value, t.data, h=1e-5)
                assert max_rel_err(t.grad, num) < 1e-6

    def test_diamond_reuse_accumulates(self):
        # y feeds two branches; the add vjp returns the upstream cotangent
        # itself, so accumulation must not alias it
        x = leaf([1.0, 2.0])
        y = mul(x, 2.0)
        z = add(add(y, y), y)
        backward(sum_all(z))
        assert np.array_equal(x.grad, [6.0, 6.0])

    def test_non_scalar_loss_rejected(self):
        x = leaf([1.0, 2.0])
        with pytest.raises(ContractError):
            backward(mul(x, 2.0))

    def test_constant_only_loss_rejected(self):
        c = constant([1.0], np.float64)
        with pytest.raises(ContractError):
            backward(sum_all(c))

    def test_stale_intermediate_rejected(self):
        x = leaf([1.0, 2.0])
        y = mul(x, 3.0)
        backward(sum_all(y))
        with pytest.raises(ContractError):
            mul(y, 2.0)

    def test_tape_cleared_after_backward(self):
        x = leaf([1.0])
        backward(sum_all(mul(x, x)))
        assert tape_size() == 0

    def test_no_grad_skips_recording(self):
        x = leaf([1.0])
        with no_grad():
            y = mul(x, x)
        assert y.tape_id is None
        assert tape_size() == 0

    def test_deterministic_replay(self):
        def run():
            rng = np.random.default_rng(77)
            a = leaf(rng.standard_normal((4, 4)))
            b = leaf(rng.standard_normal((4, 4)))
            loss = sum_all(relu(matmul(a, b)))
            backward(loss)
            return loss.data.copy(), a.grad.copy(), b.grad.copy()

        l1, ga1, gb1 = run()
        l2, ga2, gb2 = run()
        assert l1.tobytes() == l2.tobytes()
        assert ga1.tobytes() == ga2.tobytes()
        assert gb1.tobytes() == gb2.tobytes()


class TestAdamW:
    def test_first_step_moves_by_lr(self):
        store = ParamStore()
        p = store.add("w", Tensor(np.zeros(1), requires_grad=True))
        p.grad[...] = 1.0
        adamw_step(store, lr=0.1, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0)
        assert abs(p.data[0] + 0.1) < 1e-7  # bias-corrected ratio is 1

    def test_pure_decay(self):
        store = ParamStore()
        p = store.add("w", Tensor(np.ones(1), requires_grad=True))
        adamw_step(store, lr=0.1, weight_decay=0.1)
        assert abs(p.data[0] - 0.99) < 1e-12

    def test_zero_grad_zero_decay_fixed_point(self):
        store = ParamStore()
        p = store.add("w", Tensor(np.full(3, 0.7), requires_grad=True))
        adamw_step(store, lr=0.1, weight_decay=0.0)
        assert np.array_equal(p.data, np.full(3, 0.7))

    def test_missing_grad_names_parameter(self):
        store = ParamStore()
        t = Tensor(np.zeros(2), requires_grad=True)
        t.grad = None
        store._params["odd.one"] = t
        with pytest.raises(ContractError) as e:
            adamw_step(store, lr=0.1)
        assert "odd.one" in str(e.value)

    def test_decay_decoupled_from_moments(self):
        # same gradient stream, decay on vs off: the difference after one
        # step must be exactly the decay term
        def run(decay):
            store = ParamStore()
            p = store.add("w", Tensor(np.array([2.0]), requires_grad=True))
            p.grad[...] = 0.5
            adamw_step(store, lr=0.1, weight_decay=decay)
            return p.data[0]

        base = run(0.0)
        decayed = run(0.1)
        assert abs((base - decayed) - 0.1 * 0.1 * base) < 1e-12

    def test_update_order_is_lexicographic(self):
        store = ParamStore()
        order = []
        orig = ParamStore.state

        def spy(self, name):
            order.append(name)
            return orig(self, name)

        store.add("b", Tensor(np.zeros(1), requires_grad=True))
        store.add("a.x", Tensor(np.zeros(1), requires_grad=True))
        store.add("a.b", Tensor(np.zeros(1), requires_grad=True))
        for _, p in store.items():
            p.grad[...] = 1.0
        ParamStore.state = spy
        try:
            adamw_step(store, lr=0.01)
        finally:
            ParamStore.state = orig
        assert order == ["a.b", "a.x", "b"]


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("w", Tensor(np.zeros(1), requires_grad=True))
        with pytest.raises(ContractError):
            store.add("w", Tensor(np.zeros(1), requires_grad=True))

    def test_requires_grad_enforced(self):
        store = ParamStore()
        with pytest.raises(ContractError):
            store.add("w", Tensor(np.zeros(1)))

    def test_group_counts(self):
        store = ParamStore()
        rng = np.random.default_rng(0)
        make_param(store, "visual.a", rng, (2, 3), np.float64)
        make_param(store, "visual.b", rng, (4,), np.float64, init="zeros")
        make_param(store, "head.w", rng, (5,), np.float64, init="ones")
        assert store.count() == 15
        assert store.count_by_group() == {"visual": 10, "head": 5}

    def test_uniform_init_respects_fan_in(self):
        store = ParamStore()
        rng = np.random.default_rng(1)
        p = make_param(store, "w", rng, (100, 50), np.float64)
        lim = 1.0 / math.sqrt(100)
        assert p.data.min() >= -lim and p.data.max() <= lim
        assert p.data.std() > 0.3 * lim
