"""The tape ops that only the oracles use: a transpose, a softmax that
lets a fully masked row come out zero, row sums kept as a column, and a
column added along each row."""
import numpy as np

from livlr.tensor import Tensor, backward, constant, mul, recording, sum_all

from oracles import add_column, central_diff, max_rel_err, row_softmax, sum_axis1, transpose


def leaf(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


class TestRowSoftmax:
    def test_fully_masked_row_allowed_is_zero(self):
        mask = np.array([[False, False], [True, False]])
        out = row_softmax(leaf([[1.0, 2.0], [3.0, 4.0]]), mask=mask, allow_empty=True)
        assert np.array_equal(out.data[0], [0.0, 0.0])
        assert np.array_equal(out.data[1], [1.0, 0.0])


class TestStructuralOps:
    def test_transpose_and_sum_axis1(self):
        rng = np.random.default_rng(22)
        x = leaf(rng.standard_normal((3, 4)))
        w = constant(rng.standard_normal((3, 1)), np.float64)

        def build():
            return sum_all(mul(sum_axis1(transpose(transpose(x))), w))

        def loss_value():
            return build().data

        with recording():
            backward(build())
        num = central_diff(loss_value, x.data, h=1e-6)
        assert max_rel_err(x.grad, num) < 1e-6

    def test_add_column_gradients(self):
        rng = np.random.default_rng(23)
        m = leaf(rng.standard_normal((3, 4)))
        col = leaf(rng.standard_normal((3, 1)))
        w = constant(rng.standard_normal((3, 4)), np.float64)

        def build():
            return sum_all(mul(add_column(m, col), w))

        def loss_value():
            return build().data

        with recording():
            backward(build())
        for t in (m, col):
            num = central_diff(loss_value, t.data, h=1e-6)
            assert max_rel_err(t.grad, num) < 1e-6
