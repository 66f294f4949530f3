"""Graph layers against loop oracles, plus structural invariants."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from livlr.errors import ContractError, GraphIntegrityError, ShapeError
from livlr.graph import (
    AttnGcnParams,
    GraphBatch,
    TypedGcnParams,
    attention_coefficients,
    attn_gcn_layer,
    learn_adjacency,
    mean_weights,
    pool,
    typed_edge_gcn_layer,
    vanilla_gcn_layer,
)
from livlr.linguistic import SentenceLayout, SrlArgument, SrlParse, sentence_layout
from livlr.tensor import (Slots, Tensor, backward, constant, mul, no_grad, recording, sum_all,
                          tape_size)
from livlr.visual import ClipGeometry, clip_geometry

from test_visual import random_frame
from oracles import (
    attention_loop,
    attn_gcn_layer_tape,
    attn_gcn_loop,
    central_diff,
    edgeless,
    learned_edges_loop,
    learned_edges_put_along,
    max_rel_err,
    mean_pool,
    one_graph,
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
    return one_graph(adj, types)


def random_parse(rng, n_nodes, n_tokens=6):
    """A parse whose role graph has n_nodes nodes: random predicates, then
    arguments hung off random predicates."""
    n_pred = int(rng.integers(min(n_nodes - 1, 1), n_nodes))
    span = lambda: tuple(sorted(int(t) for t in rng.integers(0, n_tokens, 2)))
    args = [SrlArgument(span=span(), role=2, pred=int(rng.integers(n_pred)))
            for _ in range(n_nodes - 1 - n_pred)]
    return SrlParse(n_tokens, [span() for _ in range(n_pred)], args)


def role_layouts(rng, sizes):
    """One sentence layout per group of role-graph sizes, each sentence
    over random tokens of width 2, and their join."""
    layouts = [sentence_layout([(rng.standard_normal((6, 2)), random_parse(rng, int(n)))
                                for n in group]) for group in sizes]
    return layouts, SentenceLayout.join(layouts)


def role_rows(layouts):
    """Per layout, the rows its own node rows take in the layouts' join:
    its events among every layout's events, then its local nodes after
    every event."""
    n_s = np.array([t.n_sentences for t in layouts])
    n_loc = np.array([len(t.roles) for t in layouts])
    s_lo, l_lo = np.cumsum(n_s) - n_s, np.cumsum(n_loc) - n_loc + n_s.sum()
    return [np.r_[s : s + n, l : l + k] for s, n, l, k in zip(s_lo, n_s, l_lo, n_loc)]


def random_clips(rng, n_clips):
    """Geometries of clips of 1-3 frames of 1-6 random boxes each, and
    their join."""
    frames = lambda: [random_frame(rng, int(rng.integers(1, 7)))
                      for _ in range(int(rng.integers(1, 4)))]
    geos = [clip_geometry(frames()) for _ in range(n_clips)]
    return geos, ClipGeometry.join(geos)


def params_for(rng, d):
    t = lambda shape: Tensor(rng.standard_normal(shape) * 0.5, requires_grad=True)
    return AttnGcnParams(w=t((d, d)), w_q=t((d, d)), w_k=t((d, d)))


class TestGraphBatch:
    def test_self_loop_rejected(self):
        adj = np.zeros((2, 2), dtype=bool)
        adj[0, 0] = True
        with pytest.raises(GraphIntegrityError):
            one_graph(adj)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            GraphBatch(Slots.of_counts([3]), np.zeros((1, 2, 2), dtype=bool))
        with pytest.raises(ShapeError):
            one_graph(np.zeros((2, 2), dtype=bool), np.zeros((3, 3), dtype=np.int64))

    def test_type_edge_disagreement_rejected(self):
        adj = np.zeros((2, 2), dtype=bool)
        adj[0, 1] = True
        types = np.zeros((2, 2), dtype=np.int64)  # missing the (0,1) label
        with pytest.raises(GraphIntegrityError):
            one_graph(adj, types)
        types[1, 0] = 3  # a label on no edge
        types[0, 1] = 1
        with pytest.raises(GraphIntegrityError):
            one_graph(adj, types)

    def test_degree(self):
        adj = np.array([[False, True, True], [False, False, False], [True, False, False]])
        g = one_graph(adj)
        assert np.array_equal(g.adjacency.sum(-1), [[2, 0, 1]])

    def test_pad_and_unpad_follow_the_slots(self):
        # graph 0 holds rows 2 and 0, graph 1 holds row 1
        g = GraphBatch([[2, 0], [1, -1]], np.zeros((2, 2, 2), dtype=bool))
        x = np.array([[1.0], [2.0], [3.0]])
        assert np.array_equal(g.pad(x), [[[3.0], [1.0]], [[2.0], [0.0]]])
        assert np.array_equal(g.unpad(g.pad(x)), x)

    def test_rows_in_slot_order_pad_and_unpad_without_a_copy(self):
        # every slot filled, graph b's rows at b * n_max + i: both
        # directions are views of their input
        g = GraphBatch([[0, 1], [2, 3]], np.zeros((2, 2, 2), dtype=bool))
        x = np.arange(12.0).reshape(4, 3)
        blocks = g.pad(x)
        assert blocks.shape == (2, 2, 3) and np.shares_memory(blocks, x)
        back = g.unpad(blocks)
        assert np.array_equal(back, x) and np.shares_memory(back, x)
        # so is one graph as a batch of one
        assert np.shares_memory(edgeless(4).pad(x), x)

    def test_every_row_fills_one_slot(self):
        for slots in ([[0, 0], [1, -1]], [[0, 2], [-1, -1]]):
            with pytest.raises(GraphIntegrityError):
                GraphBatch(slots, np.zeros((2, 2, 2), dtype=bool))

    def test_bad_edges_rejected(self):
        adj = np.zeros((2, 2, 2), dtype=bool)
        adj[1, 0, 1] = True  # graph 1 has one node; slot 1 is padding
        with pytest.raises(GraphIntegrityError):
            GraphBatch([[0, 1], [2, -1]], adj)
        loop = np.zeros((1, 2, 2), dtype=bool)
        loop[0, 1, 1] = True
        with pytest.raises(GraphIntegrityError):
            GraphBatch([[0, 1]], loop)


class TestJoins:
    def test_ragged_joins_concatenate_the_per_sample_layouts(self):
        rng = np.random.default_rng(125)
        geos, geo = random_clips(rng, 3)
        assert np.array_equal(geo.spatial.counts, np.concatenate([g.spatial.counts for g in geos]))
        assert np.array_equal(geo.positions, np.concatenate([g.positions for g in geos]))
        lo = 0
        for g in geos:
            blocks, n = g.spatial.adjacency.shape[:2]
            for name in ("adjacency", "edge_types"):
                joined = getattr(geo.spatial, name)[lo : lo + blocks]
                assert np.array_equal(joined[:, :n, :n], getattr(g.spatial, name))
                assert not joined[:, n:].any() and not joined[:, :, n:].any()
            lo += blocks
        assert lo == len(geo.spatial.counts)  # and the rows are stacked frame after frame:
        assert np.array_equal(geo.spatial.slots[geo.spatial.valid], np.arange(geo.spatial.n_rows))

        layouts, text = role_layouts(rng, [[1, 4], [6], [2, 2, 3]])
        assert [id(t) for t in text.tokens] == [id(t) for lay in layouts for t in lay.tokens]
        assert np.array_equal(text.roles, np.concatenate([t.roles for t in layouts]))
        lo = t_lo = 0
        for t, rows in zip(layouts, role_rows(layouts)):
            blocks, n = t.graphs.slots.shape
            joined = text.graphs.slots[lo : lo + blocks]
            assert np.array_equal(joined[:, :n], np.where(t.graphs.valid, rows[t.graphs.slots], -1))
            assert (joined[:, n:] == -1).all()
            assert np.array_equal(text.graphs.adjacency[lo : lo + blocks, :n, :n], t.graphs.adjacency)
            assert np.array_equal(text.spans[rows[t.n_sentences:] - text.n_sentences], t.spans + t_lo)
            lo += blocks
            t_lo += sum(len(x) for x in t.tokens)


class TestAttentionGcn:
    def test_matches_loop_oracle(self):
        for seed in range(20):
            rng = np.random.default_rng([101, seed])
            n, d = int(rng.integers(2, 7)), int(rng.integers(2, 6))
            g = random_graph(rng, n)
            p = params_for(rng, d)
            x = constant(rng.standard_normal((n, d)), np.float64)
            got = attn_gcn_layer(p, x, g).data
            want = attn_gcn_loop(x.data, p.w_q.data, p.w_k.data, p.w.data, g.adjacency[0])
            assert max_rel_err(got, want) <= 1e-6

    def test_rows_stochastic_or_zero(self):
        for seed in range(100):
            rng = np.random.default_rng([102, seed])
            n, d = int(rng.integers(1, 8)), 4
            g = random_graph(rng, n, p=float(rng.uniform(0.1, 0.9)))
            p = params_for(rng, d)
            x = constant(rng.standard_normal((n, d)), np.float64)
            alpha = attention_coefficients(p, x, g).data
            adj = g.adjacency[0]
            sums = alpha.sum(axis=1)
            alive = adj.any(axis=1)
            assert np.abs(sums[alive] - 1.0).max() <= 1e-6 if alive.any() else True
            assert (sums[~alive] == 0.0).all()
            assert (alpha >= 0.0).all()
            assert (alpha[~adj] == 0.0).all()

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(103)
        n, d = 5, 4
        g = random_graph(rng, n)
        p = params_for(rng, d)
        x = rng.standard_normal((n, d))
        perm = rng.permutation(n)
        out = attn_gcn_layer(p, constant(x, np.float64), g).data
        g_p = one_graph(g.adjacency[0][np.ix_(perm, perm)])
        out_p = attn_gcn_layer(p, constant(x[perm], np.float64), g_p).data
        assert np.allclose(out_p, out[perm], atol=1e-12)

    def test_isolated_node_is_pure_relu_residual(self):
        rng = np.random.default_rng(104)
        d = 4
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 1] = adj[1, 0] = True  # node 2 isolated
        g = one_graph(adj)
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
                tp.type_bias.data, g.adjacency[0], g.edge_types[0],
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
        plain = attn_gcn_layer(p, x, one_graph(g.adjacency[0])).data
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
        with recording():
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
    with recording():
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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_ragged_batch_matches_tape_oracles_bit_for_bit(self, dtype):
        # joined ragged layouts: clips of frames of 1-6 objects, whose rows
        # are stacked in order, and sentences of role graphs of 1-6 nodes,
        # whose rows are not (every event, then every local node)
        tol = 1e-12 if dtype == np.float64 else 1e-5
        for seed in range(20):
            rng = np.random.default_rng([119, seed])
            d = int(rng.integers(2, 6))
            tp = typed_params_for(rng, d, dtype)
            p = AttnGcnParams(w=tp.w, w_q=tp.w_q, w_k=tp.w_k)
            geos, geo = random_clips(rng, int(rng.integers(1, 4)))
            x = Tensor(rng.standard_normal((geo.spatial.n_rows, d)).astype(dtype), requires_grad=True)
            for layer, oracle, params in ((typed_edge_gcn_layer, typed_edge_gcn_layer_tape, tp),
                                          (attn_gcn_layer, attn_gcn_layer_tape, p)):
                assert (layer_bytes(layer, params, x, geo.spatial)
                        == layer_bytes(oracle, params, x, geo.spatial))
                # clip by clip, each slice matches the clip run on its own
                out = layer(params, x, geo.spatial).data
                ends = np.cumsum([g.spatial.n_rows for g in geos])
                for g, hi in zip(geos, ends):
                    r = np.arange(hi - g.spatial.n_rows, hi)
                    alone = layer(params, constant(x.data[r], dtype), g.spatial).data
                    assert max_rel_err(out[r], alone) <= tol
            sizes = [rng.integers(1, 7, size=int(rng.integers(1, 4))) for _ in range(int(rng.integers(1, 4)))]
            layouts, text = role_layouts(rng, sizes)
            x = Tensor(rng.standard_normal((text.graphs.n_rows, d)).astype(dtype), requires_grad=True)
            assert (layer_bytes(attn_gcn_layer, p, x, text.graphs)
                    == layer_bytes(attn_gcn_layer_tape, p, x, text.graphs))
            out = attn_gcn_layer(p, x, text.graphs).data
            for t, r in zip(layouts, role_rows(layouts)):
                alone = attn_gcn_layer(p, constant(x.data[r], dtype), t.graphs).data
                assert max_rel_err(out[r], alone) <= tol

    @pytest.mark.parametrize("typed", [False, True])
    def test_isolated_node_is_pure_relu_residual(self, typed):
        rng = np.random.default_rng(116)
        n, d = 4, 3
        adj = np.zeros((n, n), dtype=bool)
        adj[0, 1] = adj[1, 0] = adj[2, 0] = True  # node 3 isolated
        g = one_graph(adj, np.where(adj, 5, 0))
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
            learn_adjacency(tp.w_q, tp.w_k, constant(np.ones((3, 5)), np.float64), 1, edgeless(3))

    def test_non_finite_scores_propagate_as_nan_rows(self):
        rng = np.random.default_rng(117)
        n, d = 4, 3
        adj = np.zeros((n, n), dtype=bool)
        adj[0, 1] = adj[1, 2] = adj[2, 0] = True  # node 3 isolated
        g = one_graph(adj, np.where(adj, 2, 0))
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
            got = vanilla_gcn_layer(w, x, g).data
            want = vanilla_gcn_loop(x.data, w.data, g.adjacency[0])
            assert max_rel_err(got, want) <= 1e-6


    def test_a_batch_aggregates_each_graph_within_itself(self):
        # joined role graphs: sentence j's nodes are event row j and its
        # local rows, which follow every event
        for seed in range(10):
            rng = np.random.default_rng([122, seed])
            sizes = [rng.integers(1, 6, size=int(rng.integers(1, 4))) for _ in range(3)]
            layouts, text = role_layouts(rng, sizes)
            d, n_s = 3, text.n_sentences
            w = Tensor(rng.standard_normal((d, d)) * 0.5, requires_grad=True)
            x = rng.standard_normal((text.graphs.n_rows, d))
            got = vanilla_gcn_layer(w, constant(x, np.float64), text.graphs).data
            # each sentence's graph as its own sample's layout holds it
            own = [t.graphs.adjacency[k, :n, :n] for t, group in zip(layouts, sizes)
                   for k, n in enumerate(group)]
            lo = n_s
            for j, adj in enumerate(own):
                r = np.r_[j, lo : lo + len(adj) - 1]
                lo += len(adj) - 1
                want = vanilla_gcn_loop(x[r], w.data, adj)
                assert max_rel_err(got[r], want) <= 1e-6

    def test_batch_gradients_match_central_differences(self):
        rng = np.random.default_rng(123)
        _, text = role_layouts(rng, [[3, 1], [4]])
        batch = text.graphs
        w = Tensor(rng.standard_normal((2, 2)) * 0.5, requires_grad=True)
        x = Tensor(rng.standard_normal((8, 2)), requires_grad=True)
        with recording():
            backward(sum_all(vanilla_gcn_layer(w, x, batch)))
        for t in (w, x):
            want = central_diff(lambda: sum_all(vanilla_gcn_layer(w, x, batch)).data, t.data)
            assert max_rel_err(t.grad, want) <= 1e-6


class TestGraphLearner:
    def test_matches_loop_oracle(self):
        for seed in range(20):
            rng = np.random.default_rng([131, seed])
            n, d = int(rng.integers(2, 8)), int(rng.integers(2, 5))
            keep = int(rng.integers(1, 5))
            w1 = Tensor(rng.standard_normal((d, d)), requires_grad=True)
            w2 = Tensor(rng.standard_normal((d, d)), requires_grad=True)
            v = constant(rng.standard_normal((n, d)), np.float64)
            scores, g = learn_adjacency(w1, w2, v, keep, edgeless(n))
            want_scores, want_adj = learned_edges_loop(v.data, w1.data, w2.data, keep)
            assert max_rel_err(scores.data[0], want_scores) <= 1e-6
            assert np.array_equal(g.adjacency[0], want_adj)

    def test_row_budget_and_no_self_loops(self):
        for seed in range(100):
            rng = np.random.default_rng([132, seed])
            n = int(rng.integers(1, 9))
            keep = int(rng.integers(1, 6))
            w1 = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
            w2 = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
            v = constant(rng.standard_normal((n, 3)), np.float64)
            _, g = learn_adjacency(w1, w2, v, keep, edgeless(n))
            assert g.adjacency[0].trace() == 0
            assert (g.adjacency[0].sum(axis=1) == min(keep, n - 1)).all()

    def test_tie_break_prefers_lower_column(self):
        # identity maps, rows e1, e1, e1: every off-diagonal score ties at 0
        eye = Tensor(np.eye(3), requires_grad=True)
        v = np.zeros((3, 3))
        v[:, 0] = 1.0
        v[0, 0] = 2.0  # make row 0 distinct so scores tie only pairwise
        scores, g = learn_adjacency(eye, eye, constant(v, np.float64), 1, edgeless(3))
        # rows 1 and 2 both score 2.0 against node 0 and 1.0 against each
        # other; node 0 scores 2.0 against both 1 and 2 and picks column 1
        assert g.adjacency[0, 0].tolist() == [False, True, False]
        assert g.adjacency[0, 1].tolist() == [True, False, False]
        assert g.adjacency[0, 2].tolist() == [True, False, False]

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
            scores, g = learn_adjacency(w1, w2, v, keep, edgeless(n))
            want_scores, want_adj = learned_edges_loop(v.data, w1.data, w2.data, keep)
            assert np.array_equal(scores.data[0], want_scores)
            assert np.array_equal(g.adjacency[0], want_adj)

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(1, 7), min_size=1, max_size=5),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_rank_mask_matches_the_put_along_axis_scatter(self, sizes, seed, data):
        # padded batches of small integer rows and weights, so scores tie
        # often, and every budget from one edge a row to every node
        n_keep = data.draw(st.integers(1, max(sizes)))
        rng = np.random.default_rng(seed)
        d = 2
        # joined role graphs, whose rows are not in slot order
        layout = role_layouts(rng, [[n] for n in sizes])[1].graphs
        w1 = Tensor(rng.integers(-1, 2, (d, d)).astype(float), requires_grad=True)
        w2 = Tensor(rng.integers(-1, 2, (d, d)).astype(float), requires_grad=True)
        v = constant(rng.integers(-1, 2, (sum(sizes), d)), np.float64)
        scores, g = learn_adjacency(w1, w2, v, n_keep, layout)
        want = learned_edges_put_along(scores.data, layout.valid, n_keep)
        assert g.adjacency.dtype == want.dtype and g.adjacency.tobytes() == want.tobytes()

    def test_records_nothing_on_the_tape(self):
        rng = np.random.default_rng(135)
        w1 = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        v = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        with recording():
            before = tape_size()
            learn_adjacency(w1, w1, v, 2, edgeless(4))
            assert tape_size() == before

    def test_single_node_graph_is_edgeless(self):
        w = Tensor(np.eye(2), requires_grad=True)
        _, g = learn_adjacency(w, w, constant(np.ones((1, 2)), np.float64), 3, edgeless(1))
        assert g.adjacency.sum() == 0

    def test_bad_keep_rejected(self):
        w = Tensor(np.eye(2), requires_grad=True)
        with pytest.raises(ContractError):
            learn_adjacency(w, w, constant(np.ones((2, 2)), np.float64), 0, edgeless(2))

    def test_selection_is_gradient_free_for_scorer(self):
        # scores only pick edges; no gradient path reaches the scorer.
        # positive node values and a small message weight keep the relu
        # active so the node gradient is provably live
        rng = np.random.default_rng(133)
        w1 = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        w2 = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 3)) * 0.05, requires_grad=True)
        v = Tensor(rng.uniform(0.5, 1.5, (4, 3)), requires_grad=True)
        with recording():
            _, g = learn_adjacency(w1, w2, v, 2, edgeless(4))
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
        with recording():
            backward(sum_all(mean_pool(x)))
        assert np.allclose(x.grad, 0.25)


def edgeless_batch(slots):
    slots = np.asarray(slots)
    return GraphBatch(slots, np.zeros(slots.shape + slots.shape[1:], dtype=bool))


class TestPool:
    def test_values_skipped_slots_and_zero_weight_rows(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]), requires_grad=True)
        graph = edgeless_batch([[3, -1], [0, 2], [1, -1]])
        # graph 2's one slot is skipped, so its row of weights is all zero
        mean = mean_weights(graph.valid & [[True, True], [True, True], [False, True]])
        assert np.array_equal(mean, [[[1.0, 0.0]], [[0.5, 0.5]], [[0.0, 0.0]]])
        assert np.array_equal(pool(mean, x, graph).data, [[7.0, 8.0], [3.0, 4.0], [0.0, 0.0]])
        # k weight rows per graph come out side by side; padding reads zero
        slots = pool(np.broadcast_to(np.eye(2), (3, 2, 2)), x, graph).data
        assert np.array_equal(slots, [[7.0, 8.0, 0.0, 0.0], [1.0, 2.0, 5.0, 6.0], [3.0, 4.0, 0.0, 0.0]])

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(24)
        x = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        graph = edgeless_batch([[2, 0, 4], [1, 3, -1]])
        weights = rng.standard_normal((2, 2, 3)) * graph.valid[:, None, :]
        weights[1, :, 1] = 0.0  # row 3's slot
        w = constant(rng.standard_normal((2, 6)), np.float64)

        def build():
            return sum_all(mul(pool(weights, x, graph), w))

        def loss_value():
            return build().data

        with recording():
            backward(build())
        num = central_diff(loss_value, x.data, h=1e-6)
        assert max_rel_err(x.grad, num) < 1e-6
        assert not x.grad[3].any() and x.grad[[0, 1, 2, 4]].all()

    def test_bad_shapes_rejected(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        graph = edgeless_batch([[0, 1], [2, -1]])
        with pytest.raises(ShapeError):
            pool(np.ones((2, 1, 3)), x, graph)
        with pytest.raises(ShapeError):
            pool(np.ones((2, 2)), x, graph)
        with pytest.raises(ShapeError):
            pool(mean_weights(graph.valid), Tensor(np.ones((4, 2))), graph)
