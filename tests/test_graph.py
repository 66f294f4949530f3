"""Graph layers against loop oracles, plus structural invariants."""
import numpy as np
import pytest

from livlr.errors import ContractError, GraphIntegrityError, ShapeError
from livlr.graph import (
    AttnGcnParams,
    DenseGraph,
    TypedGcnParams,
    attention_coefficients,
    attn_gcn_layer,
    learn_adjacency,
    mean_pool,
    typed_edge_gcn_layer,
    vanilla_gcn_layer,
)
from livlr.tensor import Tensor, backward, constant, no_grad, sum_all, tape_size

from oracles import (
    attention_loop,
    attn_gcn_layer_tape,
    attn_gcn_loop,
    learned_edges_loop,
    max_rel_err,
    typed_edge_gcn_layer_tape,
    typed_gcn_loop,
    vanilla_gcn_loop,
)


def random_graph(rng, n, with_types=False, p=0.6):
    adj = rng.random((n, n)) < p
    np.fill_diagonal(adj, False)
    types = None
    if with_types:
        types = np.where(adj, rng.integers(1, 12, size=(n, n)), 0)
    return DenseGraph(n, adj, types)


def params_for(rng, d):
    t = lambda shape: Tensor(rng.standard_normal(shape) * 0.5, requires_grad=True)
    return AttnGcnParams(w=t((d, d)), w_q=t((d, d)), w_k=t((d, d)))


class TestDenseGraph:
    def test_self_loop_rejected(self):
        adj = np.zeros((2, 2), dtype=bool)
        adj[0, 0] = True
        with pytest.raises(GraphIntegrityError):
            DenseGraph(2, adj)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            DenseGraph(3, np.zeros((2, 2), dtype=bool))

    def test_type_edge_disagreement_rejected(self):
        adj = np.zeros((2, 2), dtype=bool)
        adj[0, 1] = True
        types = np.zeros((2, 2), dtype=np.int64)  # missing the (0,1) label
        with pytest.raises(GraphIntegrityError):
            DenseGraph(2, adj, types)

    def test_degree(self):
        adj = np.array([[False, True, True], [False, False, False], [True, False, False]])
        g = DenseGraph(3, adj)
        assert np.array_equal(g.degree(), [2, 0, 1])


class TestAttentionGcn:
    def test_matches_loop_oracle(self):
        for seed in range(20):
            rng = np.random.default_rng([101, seed])
            n, d = int(rng.integers(2, 7)), int(rng.integers(2, 6))
            g = random_graph(rng, n)
            p = params_for(rng, d)
            x = constant(rng.standard_normal((n, d)), np.float64)
            got = attn_gcn_layer(p, x, g).data
            want = attn_gcn_loop(x.data, p.w_q.data, p.w_k.data, p.w.data, g.adjacency)
            assert max_rel_err(got, want) <= 1e-6

    def test_rows_stochastic_or_zero(self):
        for seed in range(100):
            rng = np.random.default_rng([102, seed])
            n, d = int(rng.integers(1, 8)), 4
            g = random_graph(rng, n, p=float(rng.uniform(0.1, 0.9)))
            p = params_for(rng, d)
            x = constant(rng.standard_normal((n, d)), np.float64)
            alpha = attention_coefficients(p, x, g).data
            sums = alpha.sum(axis=1)
            alive = g.adjacency.any(axis=1)
            assert np.abs(sums[alive] - 1.0).max() <= 1e-6 if alive.any() else True
            assert (sums[~alive] == 0.0).all()
            assert (alpha >= 0.0).all()
            assert (alpha[~g.adjacency] == 0.0).all()

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(103)
        n, d = 5, 4
        g = random_graph(rng, n)
        p = params_for(rng, d)
        x = rng.standard_normal((n, d))
        perm = rng.permutation(n)
        out = attn_gcn_layer(p, constant(x, np.float64), g).data
        g_p = DenseGraph(n, g.adjacency[np.ix_(perm, perm)])
        out_p = attn_gcn_layer(p, constant(x[perm], np.float64), g_p).data
        assert np.allclose(out_p, out[perm], atol=1e-12)

    def test_isolated_node_is_pure_relu_residual(self):
        rng = np.random.default_rng(104)
        d = 4
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 0] = True  # node 2 isolated
        g = DenseGraph(3, adj)
        p = params_for(rng, d)
        x = rng.standard_normal((3, d))
        out = attn_gcn_layer(p, constant(x, np.float64), g).data
        assert np.array_equal(out[2], np.maximum(x[2], 0.0))


class TestTypedGcn:
    def test_matches_loop_oracle(self):
        for seed in range(20):
            rng = np.random.default_rng([111, seed])
            n, d = int(rng.integers(2, 6)), int(rng.integers(2, 5))
            g = random_graph(rng, n, with_types=True)
            p = params_for(rng, d)
            tp = TypedGcnParams(
                w=p.w, w_q=p.w_q, w_k=p.w_k,
                type_bias=Tensor(rng.standard_normal(11), requires_grad=True),
            )
            x = constant(rng.standard_normal((n, d)), np.float64)
            got = typed_edge_gcn_layer(tp, x, g).data
            want = typed_gcn_loop(
                x.data, tp.w_q.data, tp.w_k.data, tp.w.data,
                tp.type_bias.data, g.adjacency, g.edge_types,
            )
            assert max_rel_err(got, want) <= 1e-6

    def test_needs_types(self):
        rng = np.random.default_rng(112)
        g = random_graph(rng, 3)
        p = params_for(rng, 4)
        tp = TypedGcnParams(w=p.w, w_q=p.w_q, w_k=p.w_k,
                            type_bias=Tensor(np.zeros(11), requires_grad=True))
        with pytest.raises(GraphIntegrityError):
            typed_edge_gcn_layer(tp, constant(np.zeros((3, 4)), np.float64), g)

    def test_zero_bias_reduces_to_plain_attention_layer(self):
        rng = np.random.default_rng(113)
        n, d = 4, 3
        g = random_graph(rng, n, with_types=True)
        p = params_for(rng, d)
        tp = TypedGcnParams(w=p.w, w_q=p.w_q, w_k=p.w_k,
                            type_bias=Tensor(np.zeros(11), requires_grad=True))
        x = constant(rng.standard_normal((n, d)), np.float64)
        plain = attn_gcn_layer(p, x, DenseGraph(n, g.adjacency)).data
        typed = typed_edge_gcn_layer(tp, x, g).data
        assert np.allclose(typed, plain, atol=1e-12)

    def test_type_bias_gets_gradient(self):
        rng = np.random.default_rng(114)
        n, d = 4, 3
        g = random_graph(rng, n, with_types=True)
        p = params_for(rng, d)
        tp = TypedGcnParams(w=p.w, w_q=p.w_q, w_k=p.w_k,
                            type_bias=Tensor(rng.standard_normal(11), requires_grad=True))
        x = constant(rng.standard_normal((n, d)), np.float64)
        backward(sum_all(typed_edge_gcn_layer(tp, x, g)))
        present = np.unique(g.edge_types[g.adjacency])
        assert np.abs(tp.type_bias.grad[present - 1]).sum() > 0.0


def layer_bytes(layer, params, x, g):
    """Output bytes and every gradient of one layer under sum_all."""
    leaves = [x, params.w, params.w_q, params.w_k]
    if isinstance(params, TypedGcnParams):
        leaves.append(params.type_bias)
    for t in leaves:
        t.grad[...] = 0.0
    out = layer(params, x, g)
    backward(sum_all(out))
    return [out.data.tobytes()] + [t.grad.tobytes() for t in leaves]


def typed_params_for(rng, d, dtype=np.float64):
    t = lambda shape: Tensor((rng.standard_normal(shape) * 0.5).astype(dtype), requires_grad=True)
    return TypedGcnParams(w=t((d, d)), w_q=t((d, d)), w_k=t((d, d)), type_bias=t((11,)))


class TestFusedLayers:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_match_tape_oracles_bit_for_bit(self, dtype):
        for seed in range(20):
            rng = np.random.default_rng([115, seed])
            n, d = int(rng.integers(1, 8)), int(rng.integers(2, 6))
            g = random_graph(rng, n, with_types=True, p=float(rng.uniform(0.1, 0.9)))
            tp = typed_params_for(rng, d, dtype)
            x = Tensor(rng.standard_normal((n, d)).astype(dtype), requires_grad=True)
            assert (layer_bytes(typed_edge_gcn_layer, tp, x, g)
                    == layer_bytes(typed_edge_gcn_layer_tape, tp, x, g))
            p = AttnGcnParams(w=tp.w, w_q=tp.w_q, w_k=tp.w_k)
            assert (layer_bytes(attn_gcn_layer, p, x, g)
                    == layer_bytes(attn_gcn_layer_tape, p, x, g))

    @pytest.mark.parametrize("typed", [False, True])
    def test_isolated_node_is_pure_relu_residual(self, typed):
        rng = np.random.default_rng(116)
        n, d = 4, 3
        adj = np.zeros((n, n), dtype=bool)
        adj[0, 1] = adj[1, 0] = adj[2, 0] = True  # node 3 isolated
        g = DenseGraph(n, adj, np.where(adj, 5, 0))
        tp = typed_params_for(rng, d)
        p = tp if typed else AttnGcnParams(w=tp.w, w_q=tp.w_q, w_k=tp.w_k)
        layer = typed_edge_gcn_layer if typed else attn_gcn_layer
        oracle = typed_edge_gcn_layer_tape if typed else attn_gcn_layer_tape
        x = Tensor(rng.standard_normal((n, d)), requires_grad=True)
        got = layer_bytes(layer, p, x, g)
        assert got == layer_bytes(oracle, p, x, g)
        out = np.frombuffer(got[0]).reshape(n, d)
        assert np.array_equal(out[3], np.maximum(x.data[3], 0.0))
        # its gradient is the ReLU mask alone: nothing reaches it from others
        assert np.array_equal(x.grad[3], (x.data[3] > 0).astype(float))

    def test_node_matrix_must_fit_the_graph(self):
        rng = np.random.default_rng(118)
        g = random_graph(rng, 3, with_types=True)
        tp = typed_params_for(rng, 4)
        for bad in ((4, 4), (3, 5)):
            x = constant(np.ones(bad), np.float64)
            with pytest.raises(ShapeError):
                attn_gcn_layer(tp, x, g)
            with pytest.raises(ShapeError):
                typed_edge_gcn_layer(tp, x, g)
        with pytest.raises(ShapeError):
            learn_adjacency(tp.w_q, tp.w_k, constant(np.ones((3, 5)), np.float64), 1)

    def test_non_finite_scores_propagate_as_nan_rows(self):
        rng = np.random.default_rng(117)
        n, d = 4, 3
        adj = np.zeros((n, n), dtype=bool)
        adj[0, 1] = adj[1, 2] = adj[2, 0] = True  # node 3 isolated
        g = DenseGraph(n, adj, np.where(adj, 2, 0))
        tp = typed_params_for(rng, d)
        # positive scores of ~1e600 overflow to +inf; the messages stay finite
        tp.w_q.data[...] = 1e300
        tp.w_k.data[...] = 1e300
        x = rng.uniform(0.5, 1.5, (n, d))
        for layer, oracle in ((attn_gcn_layer, attn_gcn_layer_tape),
                              (typed_edge_gcn_layer, typed_edge_gcn_layer_tape)):
            with no_grad(), np.errstate(over="ignore", invalid="ignore"):
                got = layer(tp, constant(x, np.float64), g).data
                want = oracle(tp, constant(x, np.float64), g).data
            assert np.isnan(got[:3]).all()
            assert np.array_equal(got[3], np.maximum(x[3], 0.0))  # isolated
            assert got.tobytes() == want.tobytes()


class TestVanillaGcn:
    def test_matches_loop_oracle(self):
        for seed in range(20):
            rng = np.random.default_rng([121, seed])
            n, d = int(rng.integers(2, 7)), int(rng.integers(2, 5))
            g = random_graph(rng, n)
            w = Tensor(rng.standard_normal((d, d)) * 0.5, requires_grad=True)
            x = constant(rng.standard_normal((n, d)), np.float64)
            for normalize in (True, False):
                got = vanilla_gcn_layer(w, x, g, normalize=normalize).data
                want = vanilla_gcn_loop(x.data, w.data, g.adjacency, normalize=normalize)
                assert max_rel_err(got, want) <= 1e-6


class TestGraphLearner:
    def test_matches_loop_oracle(self):
        for seed in range(20):
            rng = np.random.default_rng([131, seed])
            n, d = int(rng.integers(2, 8)), int(rng.integers(2, 5))
            keep = int(rng.integers(1, 5))
            w1 = Tensor(rng.standard_normal((d, d)), requires_grad=True)
            w2 = Tensor(rng.standard_normal((d, d)), requires_grad=True)
            v = constant(rng.standard_normal((n, d)), np.float64)
            scores, g = learn_adjacency(w1, w2, v, keep)
            want_scores, want_adj = learned_edges_loop(v.data, w1.data, w2.data, keep)
            assert max_rel_err(scores.data, want_scores) <= 1e-6
            assert np.array_equal(g.adjacency, want_adj)

    def test_row_budget_and_no_self_loops(self):
        for seed in range(100):
            rng = np.random.default_rng([132, seed])
            n = int(rng.integers(1, 9))
            keep = int(rng.integers(1, 6))
            w1 = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
            w2 = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
            v = constant(rng.standard_normal((n, 3)), np.float64)
            _, g = learn_adjacency(w1, w2, v, keep)
            assert g.adjacency.trace() == 0
            assert (g.adjacency.sum(axis=1) == min(keep, n - 1)).all()

    def test_tie_break_prefers_lower_column(self):
        # identity maps, rows e1, e1, e1: every off-diagonal score ties at 0
        eye = Tensor(np.eye(3), requires_grad=True)
        v = np.zeros((3, 3))
        v[:, 0] = 1.0
        v[0, 0] = 2.0  # make row 0 distinct so scores tie only pairwise
        scores, g = learn_adjacency(eye, eye, constant(v, np.float64), 1)
        # rows 1 and 2 both score 2.0 against node 0 and 1.0 against each
        # other; node 0 scores 2.0 against both 1 and 2 and picks column 1
        assert g.adjacency[0].tolist() == [False, True, False]
        assert g.adjacency[1].tolist() == [True, False, False]
        assert g.adjacency[2].tolist() == [True, False, False]

    def test_heavy_ties_match_loop_oracle(self):
        # small integer scores tie often; every row must break ties by the
        # lower column index, as the loop oracle's sort key does
        for seed in range(30):
            rng = np.random.default_rng([134, seed])
            n, d = int(rng.integers(2, 9)), 2
            keep = int(rng.integers(1, 6))
            w1 = Tensor(rng.integers(-1, 2, (d, d)).astype(float), requires_grad=True)
            w2 = Tensor(rng.integers(-1, 2, (d, d)).astype(float), requires_grad=True)
            v = constant(rng.integers(-1, 2, (n, d)), np.float64)
            scores, g = learn_adjacency(w1, w2, v, keep)
            want_scores, want_adj = learned_edges_loop(v.data, w1.data, w2.data, keep)
            assert np.array_equal(scores.data, want_scores)
            assert np.array_equal(g.adjacency, want_adj)

    def test_records_nothing_on_the_tape(self):
        rng = np.random.default_rng(135)
        w1 = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        v = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        before = tape_size()
        learn_adjacency(w1, w1, v, 2)
        assert tape_size() == before

    def test_single_node_graph_is_edgeless(self):
        w = Tensor(np.eye(2), requires_grad=True)
        _, g = learn_adjacency(w, w, constant(np.ones((1, 2)), np.float64), 3)
        assert g.adjacency.sum() == 0

    def test_bad_keep_rejected(self):
        w = Tensor(np.eye(2), requires_grad=True)
        with pytest.raises(ContractError):
            learn_adjacency(w, w, constant(np.ones((2, 2)), np.float64), 0)

    def test_selection_is_gradient_free_for_scorer(self):
        # scores only pick edges; no gradient path reaches the scorer.
        # positive node values and a small message weight keep the relu
        # active so the node gradient is provably live
        rng = np.random.default_rng(133)
        w1 = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        w2 = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 3)) * 0.05, requires_grad=True)
        v = Tensor(rng.uniform(0.5, 1.5, (4, 3)), requires_grad=True)
        _, g = learn_adjacency(w1, w2, v, 2)
        backward(sum_all(vanilla_gcn_layer(w, v, g)))
        assert np.abs(w1.grad).sum() == 0.0
        assert np.abs(w2.grad).sum() == 0.0
        assert np.abs(v.grad).sum() > 0.0


class TestMeanPool:
    def test_full_and_subset(self):
        x = constant(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), np.float64)
        assert np.allclose(mean_pool(x).data, [3.0, 4.0])
        assert np.allclose(mean_pool(x, [0, 2]).data, [3.0, 4.0])

    def test_empty_subset_rejected(self):
        x = constant(np.ones((2, 2)), np.float64)
        with pytest.raises(ContractError):
            mean_pool(x, [])

    def test_gradient_is_uniform(self):
        x = Tensor(np.ones((4, 2)), requires_grad=True)
        backward(sum_all(mean_pool(x)))
        assert np.allclose(x.grad, 0.25)
