"""Question encoder, cross entropy, and the two answer heads."""
import math

import numpy as np
import pytest

from livlr.errors import ContractError
from livlr.heads import (
    create_multichoice_head,
    create_open_ended_head,
    cross_entropy,
    encode_candidates,
    encode_question,
    hinge_loss,
    predict_open_ended,
    score_candidates,
)
from livlr.optim import ParamStore
from livlr.rnn import create_seq_encoder
from livlr.tensor import Tensor, backward, constant, recording, sum_all

from oracles import central_diff, max_rel_err


def question_setup(rng, d=6, d_t=4):
    store = ParamStore()
    params = create_seq_encoder(store, "question", rng, d_t=d_t, d=d, dtype=np.float64)
    return store, params


class TestQuestionEncoder:
    def test_shapes(self):
        rng = np.random.default_rng(400)
        store, params = question_setup(rng)
        q_rows, q_hat = encode_question(params, [rng.standard_normal((5, 4))])
        assert q_rows.data.shape == (5, 6)
        assert q_hat.data[0].shape == (6,)

    def test_projection_is_rectified(self):
        rng = np.random.default_rng(401)
        store, params = question_setup(rng)
        q_rows, _ = encode_question(params, [rng.standard_normal((5, 4))])
        assert (q_rows.data >= 0.0).all()
        assert (q_rows.data > 0.0).any()


class TestCrossEntropy:
    def test_uniform_logits_give_log_n(self):
        loss = cross_entropy(Tensor(np.zeros(4), requires_grad=True), 2)
        assert abs(float(loss.data) - math.log(4.0)) < 1e-12

    def test_confident_correct_is_tiny(self):
        loss = cross_entropy(Tensor(np.array([10.0, -10.0]), requires_grad=True), 0)
        # -log(sigmoid(20)) = log(1 + e^-20)
        assert abs(float(loss.data) - math.log1p(math.exp(-20.0))) < 1e-15
        assert float(loss.data) < 2.1e-9

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(402)
        logits = Tensor(rng.standard_normal(5), requires_grad=True)
        with recording():
            backward(cross_entropy(logits, 3))
        e = np.exp(logits.data - logits.data.max())
        p = e / e.sum()
        onehot = np.eye(5)[3]
        assert max_rel_err(logits.grad, p - onehot) < 1e-10

    def test_shift_invariance(self):
        rng = np.random.default_rng(403)
        z = rng.standard_normal(6)
        a = cross_entropy(Tensor(z, requires_grad=True), 1)
        b = cross_entropy(Tensor(z + 123.0, requires_grad=True), 1)
        assert abs(float(a.data) - float(b.data)) < 1e-9

    def test_huge_logits_stay_finite(self):
        loss = cross_entropy(Tensor(np.array([1e4, 0.0, -1e4]), requires_grad=True), 1)
        assert np.isfinite(loss.data)
        assert abs(float(loss.data) - 1e4) < 1.0

    def test_bad_label_rejected(self):
        with pytest.raises(ContractError):
            cross_entropy(Tensor(np.zeros(3), requires_grad=True), 3)


class TestOpenEndedHead:
    def test_logit_shape_and_fd(self):
        rng = np.random.default_rng(404)
        store = ParamStore()
        head = create_open_ended_head(store, rng, d=5, d_h=7, n_answers=4, dtype=np.float64)
        x_hat = Tensor(rng.standard_normal(5)[None], requires_grad=True)
        q_hat = Tensor(rng.standard_normal(5)[None], requires_grad=True)

        def build():
            return cross_entropy(predict_open_ended(head, x_hat, q_hat), [1])

        def loss_value():
            return build().data[0]

        logits = predict_open_ended(head, x_hat, q_hat)
        assert logits.data[0].shape == (4,)
        store.zero_grads()
        with recording():
            backward(build())
        for t in (head.w1, head.w2, x_hat, q_hat):
            num = central_diff(loss_value, t.data, h=1e-6)
            assert max_rel_err(t.grad, num) < 1e-6


class TestHinge:
    def test_analytic_case(self):
        s = Tensor(np.array([2.0, 0.5, 1.5]), requires_grad=True)
        loss = hinge_loss(s, [0], [3])
        # margins: relu(1 + 0.5 - 2) = 0, relu(1 + 1.5 - 2) = 0.5
        assert abs(float(loss.data[0]) - 0.5) < 1e-12

    def test_zero_iff_all_margins_at_least_one(self):
        rng = np.random.default_rng(405)
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            scores = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
            correct = int(rng.integers(0, n))
            loss = float(hinge_loss(Tensor(scores, requires_grad=True), [correct], [n]).data[0])
            margins_ok = all(
                scores[correct] - scores[k] >= 1.0 for k in range(n) if k != correct
            )
            assert (loss == 0.0) == margins_ok
            assert loss >= 0.0

    def test_exact_margin_is_zero_loss(self):
        s = Tensor(np.array([1.0, 0.0]), requires_grad=True)
        assert float(hinge_loss(s, [0], [2]).data[0]) == 0.0

    def test_shift_invariance(self):
        rng = np.random.default_rng(406)
        z = rng.standard_normal(4)
        a = float(hinge_loss(Tensor(z, requires_grad=True), [2], [4]).data[0])
        b = float(hinge_loss(Tensor(z + 55.0, requires_grad=True), [2], [4]).data[0])
        assert abs(a - b) < 1e-12

    def test_gradient_counts_violations(self):
        s = Tensor(np.array([0.0, 0.0, 5.0]), requires_grad=True)
        with recording():
            backward(hinge_loss(s, [0], [3]))
        # candidate 1 violates (margin 0 < 1), candidate 2 violates hugely
        assert np.array_equal(s.grad, [-2.0, 1.0, 1.0])

    def test_too_few_candidates_rejected(self):
        with pytest.raises(ContractError):
            hinge_loss(Tensor(np.zeros(1), requires_grad=True), [0], [1])

    def test_bad_index_rejected(self):
        with pytest.raises(ContractError):
            hinge_loss(Tensor(np.zeros(3), requires_grad=True), [5], [3])


def mc_scores(head, x_hat, q_hat, candidates):
    """One sample's candidate scores, as a batch of one."""
    return score_candidates(
        head, x_hat, q_hat, encode_candidates(head, [candidates]), [len(candidates)])


class TestMultiChoiceHead:
    def test_scores_shape_and_identical_candidates_tie(self):
        rng = np.random.default_rng(407)
        store = ParamStore()
        head = create_multichoice_head(store, rng, d=6, d_t=4, dtype=np.float64)
        x_hat = constant(rng.standard_normal(6)[None], np.float64)
        q_hat = constant(rng.standard_normal(6)[None], np.float64)
        one = rng.standard_normal((3, 4))
        cands = np.stack([one, one, one])
        scores = mc_scores(head, x_hat, q_hat, cands)
        assert scores.data.shape == (3,)
        assert np.allclose(scores.data, scores.data[0], atol=1e-12)

    def test_distinct_candidates_separate(self):
        rng = np.random.default_rng(408)
        store = ParamStore()
        head = create_multichoice_head(store, rng, d=6, d_t=4, dtype=np.float64)
        x_hat = constant(rng.standard_normal(6)[None], np.float64)
        q_hat = constant(rng.standard_normal(6)[None], np.float64)
        cands = rng.standard_normal((3, 3, 4))
        scores = mc_scores(head, x_hat, q_hat, cands).data
        assert len(np.unique(np.round(scores, 9))) == 3

    def test_bad_candidate_rank_rejected(self):
        rng = np.random.default_rng(409)
        store = ParamStore()
        head = create_multichoice_head(store, rng, d=6, d_t=4, dtype=np.float64)
        with pytest.raises(ContractError):
            mc_scores(
                head,
                constant(np.zeros((1, 6)), np.float64),
                constant(np.zeros((1, 6)), np.float64),
                np.zeros((3, 4)),
            )

    def test_end_to_end_hinge_gradients(self):
        rng = np.random.default_rng(410)
        store = ParamStore()
        head = create_multichoice_head(store, rng, d=6, d_t=4, dtype=np.float64)
        x_hat = Tensor(rng.standard_normal(6)[None], requires_grad=True)
        q_hat = Tensor(rng.standard_normal(6)[None], requires_grad=True)
        cands = rng.standard_normal((3, 3, 4))

        def build():
            return hinge_loss(mc_scores(head, x_hat, q_hat, cands), [1], [3])

        def loss_value():
            return build().data[0]

        store.zero_grads()
        with recording():
            backward(build())
        for name in ("head.score.w", "head.cand.token_proj.w"):
            t = store[name]
            num = central_diff(loss_value, t.data, h=1e-6)
            live = slice(None)
            if name == "head.score.w":
                # the x_hat and q_hat rows add the same amount to every
                # score, which the pairwise hinge cancels (ROADMAP item 2):
                # their gradient is exactly zero, and central differences
                # there see only the loss's rounding, about ulp(loss) / h
                live = slice(12, None)
                assert not t.grad[:12].any()
                assert np.abs(num[:12]).max() <= 1e-9
            assert max_rel_err(t.grad[live], num[live]) < 1e-6, name
