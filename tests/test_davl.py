"""Question attention and the four representation-integration back-ends."""
import numpy as np
import pytest

import livlr.davl
from livlr.config import desk_config
from livlr.data import SyntheticTaskSpec, gen_synthetic
from livlr.davl import (
    BundleLayout,
    QattPadding,
    RepresentationBundle,
    RiVariant,
    SOURCE_NAMES,
    apply_index_embedding,
    attend,
    create_davl_params,
    integrate,
    question_attention,
)
from livlr.errors import ConfigError, DegenerateRowError, ShapeError
from livlr.model import Model
from livlr.optim import ParamStore
from livlr.tensor import Tensor, backward, concat, constant, no_grad, recording, sum_all, tape_size

from oracles import (
    davl_loop,
    max_rel_err,
    mean_rows_loop,
    question_attention_loop,
    question_attention_tape,
    softmax_loop,
)


def make_params(rng, d=6, n_heads=2, n_keep=2, variant=RiVariant.DAVL):
    store = ParamStore()
    params = create_davl_params(
        store, rng, d=d, n_heads=n_heads, n_keep=n_keep, variant=variant, dtype=np.float64,
    )
    return store, params


def head_arrays(block):
    return [(h.w_q.data, h.w_k.data, h.w_v.data, h.w_o.data) for h in block.heads]


def random_bundle(rng, d=6, rows=(2, 3, 2, 2)):
    mats = [Tensor(rng.standard_normal((r, d))) for r in rows]
    return RepresentationBundle(*mats)


class TestQuestionAttention:
    def test_matches_loop_oracle(self):
        for seed in range(20):
            rng = np.random.default_rng([301, seed])
            d = 6
            n_heads = int(rng.choice([1, 2, 3]))
            store, params = make_params(rng, d=d, n_heads=n_heads)
            block = params.qatt[SOURCE_NAMES[0]]
            n, t = int(rng.integers(1, 5)), int(rng.integers(1, 6))
            x = constant(rng.standard_normal((n, d)), np.float64)
            q = constant(rng.standard_normal((t, d)), np.float64)
            got = question_attention([block], [x], q).data
            want = question_attention_loop(x.data, q.data, head_arrays(block))
            assert got.shape == (n, d)
            assert max_rel_err(got, want) <= 1e-6

    def test_single_question_token_ignores_x_content(self):
        # one key-value row: attention weight is 1 whatever the score, so
        # every output row is the same function of q alone
        rng = np.random.default_rng(302)
        store, params = make_params(rng)
        block = params.qatt[SOURCE_NAMES[0]]
        q = constant(rng.standard_normal((1, 6)), np.float64)
        a = question_attention([block], [constant(rng.standard_normal((3, 6)), np.float64)], q).data
        b = question_attention([block], [constant(rng.standard_normal((3, 6)), np.float64)], q).data
        assert np.allclose(a, b, atol=1e-12)
        assert np.allclose(a[0], a[1], atol=1e-12)

    def test_zero_question_gives_zero_output(self):
        rng = np.random.default_rng(303)
        store, params = make_params(rng)
        block = params.qatt[SOURCE_NAMES[1]]
        x = constant(rng.standard_normal((2, 6)), np.float64)
        q = constant(np.zeros((4, 6)), np.float64)
        out = question_attention([block], [x], q).data
        assert np.array_equal(out, np.zeros((2, 6)))


def fused_and_tape(store, params, xs, q, pad=None):
    """Output bytes and every gradient (parameters, sources, question) of
    the fused node, over ``pad``, and of its per-head tape oracle, under
    sum_all."""
    blocks = [params.qatt[s] for s in SOURCE_NAMES[: len(xs)]]
    leaves = [q, *xs]

    def run(fn):
        store.zero_grads()
        for t in leaves:
            t.grad[...] = 0.0
        with recording():
            out = fn()
            backward(sum_all(out))
        grads = [p.grad.tobytes() for _, p in store.items()]
        return out.data.tobytes(), grads + [t.grad.tobytes() for t in leaves]

    fused = run(lambda: question_attention(blocks, xs, q, pad))
    tape = run(lambda: concat(
        [question_attention_tape(b, x, q) for b, x in zip(blocks, xs)], axis=0
    ))
    return fused, tape


class TestFusedQuestionAttention:
    def test_matches_tape_oracle_bit_for_bit(self):
        # four draws of each head count in each precision, d/N_h = 1 in
        # float64 among them; a batch of one is a padding of one sample,
        # whether built by the node or passed in
        for seed in range(32):
            rng = np.random.default_rng([305, seed])
            d = 8
            n_heads = (1, 2, 4, 8)[seed // 2 % 4]
            dtype = np.float64 if seed % 2 else np.float32
            store = ParamStore()
            params = create_davl_params(
                store, rng, d=d, n_heads=n_heads, n_keep=2,
                variant=RiVariant.DAVL, dtype=dtype,
            )
            rows = rng.integers(1, 5, size=int(rng.integers(1, 5)))
            t = int(rng.integers(1, 6))
            xs = [Tensor(rng.standard_normal((r, d)).astype(dtype), requires_grad=True)
                  for r in rows]
            q = Tensor(rng.standard_normal((t, d)).astype(dtype), requires_grad=True)
            for pad in (None, QattPadding([rows], [t])):
                fused, tape = fused_and_tape(store, params, xs, q, pad)
                assert fused == tape, (seed, n_heads, dtype, pad)

    def test_single_question_token_matches_tape_oracle(self):
        rng = np.random.default_rng(306)
        store, params = make_params(rng, d=6, n_heads=3)
        xs = [Tensor(rng.standard_normal((r, 6)), requires_grad=True) for r in (1, 3, 2, 1)]
        q = Tensor(rng.standard_normal((1, 6)), requires_grad=True)
        fused, tape = fused_and_tape(store, params, xs, q)
        assert fused == tape
        # every attention weight is exactly 1, so the scores get no gradient
        for head in params.qatt[SOURCE_NAMES[0]].heads:
            assert not head.w_q.grad.any() and not head.w_k.grad.any()

    def test_non_finite_scores_propagate_as_nan_rows(self):
        rng = np.random.default_rng(307)
        store, params = make_params(rng, d=6, n_heads=2)
        x = rng.standard_normal((3, 6))
        x[1] = np.inf
        q = constant(rng.standard_normal((4, 6)), np.float64)
        with no_grad(), np.errstate(invalid="ignore"):
            got = question_attention([params.qatt[SOURCE_NAMES[0]]], [constant(x, np.float64)], q)
            want = question_attention_tape(params.qatt[SOURCE_NAMES[0]], constant(x, np.float64), q)
        assert np.isnan(got.data[1]).all()
        assert np.isfinite(got.data[[0, 2]]).all()
        assert got.data.tobytes() == want.data.tobytes()

    def test_bad_inputs_raise_package_errors(self):
        rng = np.random.default_rng(309)
        store, params = make_params(rng, d=6, n_heads=2)
        blocks = [params.qatt[SOURCE_NAMES[0]]]
        x = constant(rng.standard_normal((2, 6)), np.float64)
        with pytest.raises(DegenerateRowError):
            question_attention(blocks, [x], constant(np.zeros((0, 6)), np.float64))
        with pytest.raises(ShapeError):
            question_attention(blocks, [constant(np.ones((2, 5)), np.float64)], x)
        with pytest.raises(ShapeError):
            question_attention(blocks, [x], constant(np.ones((3, 4)), np.float64))

    def test_records_one_node_for_every_source(self):
        rng = np.random.default_rng(308)
        store, params = make_params(rng, d=6, n_heads=3)
        bundle = random_bundle(rng)
        q = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        with recording():
            before = tape_size()
            out = question_attention(
                [params.qatt[s] for s in SOURCE_NAMES], bundle.matrices(), q
            )
            assert tape_size() == before + 1
            assert out.data.shape == (9, 6)
            backward(sum_all(out))


class TestPaddedQuestionAttention:
    @staticmethod
    def _check_ragged_batch(counts, tokens):
        """A QattPadding batch against each of its samples alone."""
        rng = np.random.default_rng(318)
        d, n_heads = 6, 3
        store, params = make_params(rng, d=d, n_heads=n_heads)
        blocks = [params.qatt[s] for s in SOURCE_NAMES]
        counts, tokens = np.array(counts), np.array(tokens)
        per_sample = [([rng.standard_normal((n, d)) for n in c], rng.standard_normal((t, d)))
                      for c, t in zip(counts, tokens)]
        stacked = [np.concatenate([xs[k] for xs, _ in per_sample]) for k in range(4)]

        def run(xs, q, pad=None):
            store.zero_grads()
            xs = [Tensor(x, requires_grad=True) for x in xs]
            q = Tensor(q, requires_grad=True)
            with recording():
                out = question_attention(blocks, xs, q, pad)
                backward(sum_all(out))
            return out.data, [x.grad for x in xs], q.grad, {n: p.grad.copy() for n, p in store.items()}

        out, g_xs, g_q, g_w = run(stacked, np.concatenate([q for _, q in per_sample]),
                                  QattPadding(counts, tokens))
        want_w = dict.fromkeys(g_w, 0.0)
        firsts = np.cumsum(counts, axis=0) - counts
        starts = np.cumsum(counts.sum(axis=0)) - counts.sum(axis=0)
        for b, (xs, q) in enumerate(per_sample):
            one, one_xs, one_q, one_w = run(xs, q)
            rows = np.concatenate([np.arange(lo, lo + n) for lo, n in
                                   zip(starts + firsts[b], counts[b])])
            assert max_rel_err(out[rows], one) <= 1e-12
            for k in range(4):
                lo = firsts[b, k]
                assert max_rel_err(g_xs[k][lo : lo + counts[b, k]], one_xs[k]) <= 1e-12
            t0 = tokens[:b].sum()
            assert max_rel_err(g_q[t0 : t0 + tokens[b]], one_q) <= 1e-12
            for name in want_w:
                want_w[name] = want_w[name] + one_w[name]
        for name, g in g_w.items():
            assert max_rel_err(g, want_w[name]) <= 1e-12, name

    def test_a_ragged_batch_matches_each_sample_alone(self):
        # sample b's rows of each source attend over its own question only;
        # the zero padding of rows and tokens leaves no trace in the values
        # or in any gradient
        ragged = [[2, 2, 1, 3], [1, 1, 4, 1], [3, 3, 2, 2]]
        self._check_ragged_batch(ragged, [4, 1, 3])
        # equal question lengths over ragged sources: no token padding, no mask
        assert QattPadding(ragged, [3, 3, 3]).mask is None
        self._check_ragged_batch(ragged, [3, 3, 3])
        # one source with equal counts among ragged ones: that block is a reshape
        shared = [[2, 2, 1, 3], [1, 2, 4, 1], [3, 2, 2, 2]]
        pad = QattPadding(shared, [4, 1, 3])
        assert [r.in_order for r in pad.rows] == [False, True, False, False]
        self._check_ragged_batch(shared, [4, 1, 3])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("counts, tokens", [
        ([[1, 1, 2, 3]], [4]),
        ([[2, 2, 1, 3], [2, 2, 1, 3]], [3, 3]),
        ([[2, 2, 1, 3], [1, 1, 4, 1], [3, 3, 2, 2]], [4, 1, 3]),
    ], ids=["batch1", "batch2", "ragged"])
    def test_one_source_alone_gives_its_rows_of_the_four_source_node(self, counts, tokens, dtype):
        # the gradient audit reruns a question-attention scalar's own
        # source block alone, over its own padding, and splices the rows
        # into the four-source node's: they must be the same bits
        counts, tokens = np.array(counts), np.array(tokens)
        for d, n_heads in [(6, 3), (4, 1)]:
            rng = np.random.default_rng([321, d])
            params = create_davl_params(ParamStore(), rng, d=d, n_heads=n_heads, n_keep=2,
                                        variant=RiVariant.DAVL, dtype=dtype)
            xs = [Tensor(rng.standard_normal((n, d)).astype(dtype)) for n in counts.sum(axis=0)]
            q = Tensor(rng.standard_normal((tokens.sum(), d)).astype(dtype))
            layout = BundleLayout(counts, tokens)
            with no_grad():
                nodes = question_attention([params.qatt[s] for s in SOURCE_NAMES], xs, q,
                                           QattPadding(counts, tokens))
                for k, (lo, hi) in enumerate(layout.spans):
                    alone = question_attention([params.qatt[SOURCE_NAMES[k]]], [xs[k]], q,
                                               QattPadding(counts[:, [k]], tokens))
                    assert np.array_equal(alone.data, nodes.data[lo:hi]), (d, k)
                    spliced = attend(params, RepresentationBundle(*xs), q, layout, k, nodes)
                    assert np.array_equal(spliced.data, nodes.data), (d, k)

    def test_rows_that_do_not_fit_the_padding_raise(self):
        rng = np.random.default_rng(319)
        store, params = make_params(rng, d=6, n_heads=2)
        pad = QattPadding([[1, 1, 1, 1], [2, 1, 1, 1]], [2, 3])
        xs = [constant(rng.standard_normal((n, 6)), np.float64) for n in (3, 2, 2, 2)]
        q = constant(rng.standard_normal((5, 6)), np.float64)
        blocks = [params.qatt[s] for s in SOURCE_NAMES]
        assert question_attention(blocks, xs, q, pad).data.shape == (9, 6)
        with pytest.raises(ShapeError):
            question_attention(blocks, xs, constant(np.ones((4, 6)), np.float64), pad)
        with pytest.raises(ShapeError):
            question_attention(blocks, xs[:3] + [xs[0]], q, pad)

    @pytest.mark.parametrize("batch", [1, 4, 16])
    def test_scores_grow_linearly_with_the_batch(self, monkeypatch, batch):
        # the softmax sees (H, rows, t_max): each source row scores only its
        # own sample's question slots, not every question token of the batch
        cfg = desk_config(question_setting="MC")
        spec = SyntheticTaskSpec(n_samples=batch, signal_source="question_dependent",
                                 noise_scale=0.1, n_classes=4)
        samples = gen_synthetic(spec, cfg, seed=11).samples()
        model = Model(cfg)
        shapes = []
        softmax = livlr.davl.masked_softmax

        def recorded(x, mask=None):
            shapes.append(x.shape)
            return softmax(x, mask)

        monkeypatch.setattr(livlr.davl, "masked_softmax", recorded)
        model.batch_loss(samples)
        rows = sum(2 * len(s.clip.frames) + 2 * len(s.sentences) for s in samples)
        t_max = max(len(s.question) for s in samples)
        assert len(shapes) == 1
        assert np.prod(shapes[0]) <= cfg.N_h * rows * t_max

        # nor does the layout keep a (rows, batch tokens) array
        layout = model.encode(samples).layout
        batch_tokens = sum(len(s.question) for s in samples)
        arrays = [v for obj in (layout, layout.qatt)
                  for v in vars(obj).values() if isinstance(v, np.ndarray)]
        arrays += [v for v in vars(layout.graph).values() if isinstance(v, np.ndarray)]
        assert arrays and all(a.shape != (rows, batch_tokens) for a in arrays)


class TestIndexEmbedding:
    def test_scales_rows_by_source(self):
        idx = Tensor(np.arange(1.0, 9.0).reshape(4, 2))
        nodes = Tensor(np.ones((5, 2)))
        out = apply_index_embedding(idx, nodes, [1, 1, 2, 4, 3])
        want = np.array([[1, 2], [1, 2], [3, 4], [7, 8], [5, 6]], dtype=float)
        assert np.array_equal(out.data, want)

    def test_bad_rows_rejected(self):
        idx = Tensor(np.ones((4, 2)))
        with pytest.raises(ShapeError):
            apply_index_embedding(idx, Tensor(np.ones((3, 2))), [1, 2])

    def test_bad_ids_rejected(self):
        idx = Tensor(np.ones((4, 2)))
        with pytest.raises(ConfigError):
            apply_index_embedding(idx, Tensor(np.ones((2, 2))), [0, 1])
        with pytest.raises(ConfigError):
            apply_index_embedding(idx, Tensor(np.ones((2, 2))), [1, 5])


class TestBundle:
    def test_sources_follow_row_counts(self):
        rng = np.random.default_rng(304)
        b = random_bundle(rng, rows=(1, 2, 3, 1))
        counts = [m.data.shape[0] for m in b.matrices()]
        assert BundleLayout(counts, [1]).sources.tolist() == [1, 2, 2, 3, 3, 3, 4]


class TestIntegrate:
    def test_davl_matches_full_composition_oracle(self):
        for seed in range(20):
            rng = np.random.default_rng([311, seed])
            d = 6
            store, params = make_params(rng, d=d, n_heads=2, n_keep=2)
            bundle = random_bundle(rng, d=d)
            q = constant(rng.standard_normal((3, d)), np.float64)
            # make the index rows non-trivial so the scaling path is live
            params.index_matrix.data[...] = rng.uniform(0.5, 1.5, (4, d))
            got = integrate(params, bundle, q).data
            want = davl_loop(
                [m.data for m in bundle.matrices()],
                q.data,
                [head_arrays(params.qatt[s]) for s in SOURCE_NAMES],
                params.index_matrix.data,
                params.learn_w1.data,
                params.learn_w2.data,
                params.w_gcn.data,
                n_keep=2,
            )
            assert max_rel_err(got, want) <= 1e-6

    def test_ri_gcn_is_davl_without_index_scaling(self):
        rng = np.random.default_rng(312)
        d = 6
        store_d, p_d = make_params(rng, d=d, variant=RiVariant.DAVL)
        rng2 = np.random.default_rng(313)
        store_g, p_g = make_params(rng2, d=d, variant=RiVariant.RI_GCN)
        # align shared parameters, leave the ones-initialised index matrix
        for name in store_g.names():
            p_d_t = store_d[name]
            p_d_t.data[...] = store_g[name].data
        bundle = random_bundle(rng, d=d)
        q = constant(np.random.default_rng(314).standard_normal((3, d)), np.float64)
        with no_grad():
            a = integrate(p_d, bundle, q)
            b = integrate(p_g, bundle, q)
        assert a.data.tobytes() == b.data.tobytes()

    def test_ri_concat_is_affine_of_pooled_sources(self):
        rng = np.random.default_rng(315)
        d = 6
        store, params = make_params(rng, d=d, variant=RiVariant.RI_CONCAT)
        bundle = random_bundle(rng, d=d)
        q = constant(rng.standard_normal((3, d)), np.float64)
        got = integrate(params, bundle, q).data
        pooled = []
        for name, m in zip(SOURCE_NAMES, bundle.matrices()):
            att = question_attention_loop(m.data, q.data, head_arrays(params.qatt[name]))
            pooled.append(mean_rows_loop(att))
        flat = np.concatenate(pooled)
        want = flat @ params.w_concat.data + params.b_concat.data
        assert max_rel_err(got, want) <= 1e-6

    def test_ri_at_matches_co_attention_loop(self):
        rng = np.random.default_rng(316)
        d = 6
        store, params = make_params(rng, d=d, variant=RiVariant.RI_AT)
        bundle = random_bundle(rng, d=d)
        q = constant(rng.standard_normal((3, d)), np.float64)
        got = integrate(params, bundle, q).data

        att = [
            question_attention_loop(m.data, q.data, head_arrays(params.qatt[s]))
            for s, m in zip(SOURCE_NAMES, bundle.matrices())
        ]
        nodes = np.concatenate(att, axis=0)
        n = nodes.shape[0]
        p = nodes @ params.learn_w1.data
        k = nodes @ params.learn_w2.data
        scores = p @ k.T
        out = np.zeros_like(nodes)
        for i in range(n):
            mask = [j != i for j in range(n)]
            beta = softmax_loop(scores[i], mask)
            out[i] = nodes[i] + sum(beta[j] * nodes[j] for j in range(n))
        want = mean_rows_loop(out)
        assert max_rel_err(got, want) <= 1e-6

    def test_every_variant_returns_vector_and_gradients_flow(self):
        for variant in RiVariant:
            rng = np.random.default_rng(317)
            store, params = make_params(rng, variant=variant)
            bundle = random_bundle(rng)
            q = constant(rng.standard_normal((3, 6)), np.float64)
            store.zero_grads()
            with recording():
                out = integrate(params, bundle, q)
                assert out.data.shape == (6,)
                backward(sum_all(out))
            grads = sum(float(np.abs(p.grad).sum()) for _, p in store.items())
            assert grads > 0.0, variant

    def test_head_count_must_divide_width(self):
        store = ParamStore()
        with pytest.raises(ConfigError):
            create_davl_params(
                store, np.random.default_rng(0), d=6, n_heads=4, n_keep=2,
                variant=RiVariant.DAVL, dtype=np.float64,
            )

    def test_variant_parameter_sets(self):
        expect_extra = {
            RiVariant.DAVL: {"davl.index_embedding", "davl.learner.w1", "davl.learner.w2", "davl.gcn.w"},
            RiVariant.RI_GCN: {"davl.learner.w1", "davl.learner.w2", "davl.gcn.w"},
            RiVariant.RI_AT: {"davl.learner.w1", "davl.learner.w2"},
            RiVariant.RI_CONCAT: {"davl.concat.w", "davl.concat.b"},
        }
        for variant, extra in expect_extra.items():
            rng = np.random.default_rng(1)
            store, _ = make_params(rng, variant=variant)
            names = set(store.names())
            non_qatt = {n for n in names if ".qatt." not in n}
            assert non_qatt == extra, variant
