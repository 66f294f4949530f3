"""Sequence embedder, semantic-role parses, and the sentence encoder."""
import numpy as np
import pytest

from livlr.errors import DataError, GraphIntegrityError
from livlr.linguistic import (
    SrlArgument,
    SrlParse,
    build_role_graph,
    create_linguistic_params,
    encode_all,
    sentence_layout,
)
from livlr.optim import ParamStore
from livlr.rnn import BiLstmParams, LstmParams, bilstm_embed, create_bilstm_params
from livlr.tensor import Tensor, add, backward, constant, mul, recording, sum_all

from oracles import central_diff, lstm_final_loop, max_rel_err


def lstm_params(rng, d_in, h, scale=0.5):
    return LstmParams(
        w_x=Tensor(rng.standard_normal((d_in, 4 * h)) * scale, requires_grad=True),
        w_h=Tensor(rng.standard_normal((h, 4 * h)) * scale, requires_grad=True),
        bias=Tensor(rng.standard_normal(4 * h) * scale, requires_grad=True),
    )


class TestLstm:
    def test_matches_recurrence_oracle(self):
        # a ragged batch: every sequence's final states, both directions
        for seed in range(20):
            rng = np.random.default_rng([201, seed])
            d_in, h = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            lengths = rng.integers(1, 6, size=int(rng.integers(1, 4)))
            p = BiLstmParams(fwd=lstm_params(rng, d_in, h), bwd=lstm_params(rng, d_in, h))
            seqs = [rng.standard_normal((t, d_in)) for t in lengths]
            got = bilstm_embed(p, constant(np.concatenate(seqs), np.float64), lengths).data
            for row, seq in zip(got, seqs):
                want_f = lstm_final_loop(seq, p.fwd.w_x.data, p.fwd.w_h.data, p.fwd.bias.data)
                want_b = lstm_final_loop(seq[::-1], p.bwd.w_x.data, p.bwd.w_h.data, p.bwd.bias.data)
                assert max_rel_err(row, np.concatenate([want_f, want_b])) <= 1e-9

    def test_zero_weights_give_zero_state(self):
        p = LstmParams(
            w_x=Tensor(np.zeros((3, 8)), requires_grad=True),
            w_h=Tensor(np.zeros((2, 8)), requires_grad=True),
            bias=Tensor(np.zeros(8), requires_grad=True),
        )
        out = bilstm_embed(BiLstmParams(fwd=p, bwd=p), constant(np.ones((4, 3)), np.float64), [4])
        assert np.array_equal(out.data, np.zeros((1, 4)))

    def test_backward_through_time_matches_fd(self):
        # two sequences of different lengths, so one holds its state
        rng = np.random.default_rng(202)
        p = BiLstmParams(fwd=lstm_params(rng, 3, 2), bwd=lstm_params(rng, 3, 2))
        seq = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        w = constant(rng.standard_normal((2, 4)), np.float64)

        def build():
            return sum_all(mul(bilstm_embed(p, seq, [4, 2]), w))

        def loss_value():
            return build().data

        with recording():
            backward(build())
        for t in (p.fwd.w_x, p.fwd.w_h, p.fwd.bias, p.bwd.w_x, p.bwd.w_h, p.bwd.bias, seq):
            num = central_diff(loss_value, t.data, h=1e-6)
            assert max_rel_err(t.grad, num) < 1e-6

    def test_bilstm_concatenates_direction_states(self):
        rng = np.random.default_rng(203)
        fwd = lstm_params(rng, 3, 2)
        bwd_p = lstm_params(rng, 3, 2)
        p = BiLstmParams(fwd=fwd, bwd=bwd_p)
        seq = rng.standard_normal((5, 3))
        out = bilstm_embed(p, constant(seq, np.float64), [5]).data[0]
        want_f = lstm_final_loop(seq, fwd.w_x.data, fwd.w_h.data, fwd.bias.data)
        want_b = lstm_final_loop(seq[::-1], bwd_p.w_x.data, bwd_p.w_h.data, bwd_p.bias.data)
        assert max_rel_err(out, np.concatenate([want_f, want_b])) <= 1e-9

    def test_single_token_directions_agree_with_shared_params(self):
        rng = np.random.default_rng(204)
        shared = lstm_params(rng, 3, 2)
        p = BiLstmParams(fwd=shared, bwd=shared)
        out = bilstm_embed(p, constant(rng.standard_normal((1, 3)), np.float64), [1]).data[0]
        assert np.allclose(out[:2], out[2:], atol=1e-12)

    def test_recording_does_not_change_the_output(self):
        # ragged lengths, so the steps where every sequence is live and the
        # steps where some hold their state both run
        for seed in range(20):
            rng = np.random.default_rng([205, seed])
            d_in, h = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            lengths = rng.integers(1, 7, size=int(rng.integers(2, 5)))
            lengths[0] = lengths.max() + 1
            p = BiLstmParams(fwd=lstm_params(rng, d_in, h), bwd=lstm_params(rng, d_in, h))
            rows = rng.standard_normal((int(lengths.sum()), d_in))
            outside = bilstm_embed(p, constant(rows, np.float64), lengths).data
            with recording():
                inside = bilstm_embed(p, constant(rows, np.float64), lengths)
                backward(sum_all(inside))
            assert inside.data.tobytes() == outside.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_huge_pre_activations_saturate_without_overflow(self, dtype):
        # token rows of +-1 against input weights of magnitude 1e3 to 1e4
        # put every gate's pre-activation beyond +-900, up to about +-1e4
        for seed in range(10):
            rng = np.random.default_rng([206, seed])
            h = 3
            lengths = rng.integers(1, 6, size=3)
            sign = lambda shape: rng.choice([-1.0, 1.0], size=shape)
            big = lambda: sign((1, 4 * h)) * rng.uniform(1e3, 1e4, (1, 4 * h))
            p = BiLstmParams(*(LstmParams(
                w_x=Tensor(np.concatenate([big(), rng.uniform(-10, 10, (1, 4 * h))]).astype(dtype)),
                w_h=Tensor((rng.standard_normal((h, 4 * h)) * 3.0).astype(dtype)),
                bias=Tensor(rng.uniform(-10, 10, 4 * h).astype(dtype)),
            ) for _ in range(2)))
            seqs = [sign((t, 2)) for t in lengths]
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                got = bilstm_embed(p, constant(np.concatenate(seqs), dtype), lengths).data
            assert got.dtype == dtype and np.isfinite(got).all()
            for row, seq in zip(got, seqs):
                want = np.concatenate([
                    lstm_final_loop(seq, p.fwd.w_x.data, p.fwd.w_h.data, p.fwd.bias.data),
                    lstm_final_loop(seq[::-1], p.bwd.w_x.data, p.bwd.w_h.data, p.bwd.bias.data),
                ])
                assert max_rel_err(row, want) <= 1e-6

    def test_odd_output_width_rejected(self):
        store = ParamStore()
        with pytest.raises(Exception):
            create_bilstm_params(store, "x", np.random.default_rng(0), 4, 5, np.float64)


class TestSrlParse:
    def test_round_trip(self):
        p = SrlParse(
            tokens=6,
            predicates=[(1, 1), (3, 3)],
            arguments=[SrlArgument(span=(0, 0), role=2, pred=0),
                       SrlArgument(span=(4, 5), role=3, pred=1)],
        )
        assert SrlParse.from_dict(p.to_dict()) == p

    def test_span_bounds_checked(self):
        with pytest.raises(DataError):
            SrlParse(tokens=3, predicates=[(1, 3)])
        with pytest.raises(DataError):
            SrlParse(tokens=3, predicates=[(1, 1)],
                     arguments=[SrlArgument(span=(2, 1), role=2, pred=0)])

    def test_predicate_role_reserved(self):
        with pytest.raises(DataError):
            SrlParse(tokens=3, predicates=[(0, 0)],
                     arguments=[SrlArgument(span=(1, 1), role=1, pred=0)])

    def test_orphan_argument_rejected(self):
        with pytest.raises(GraphIntegrityError):
            SrlParse(tokens=3, predicates=[(0, 0)],
                     arguments=[SrlArgument(span=(1, 1), role=2, pred=1)])

    def test_zero_tokens_rejected(self):
        with pytest.raises(DataError):
            SrlParse(tokens=0)

    def test_malformed_dict_rejected(self):
        with pytest.raises(DataError):
            SrlParse.from_dict({"tokens": 3, "predicates": [[0, 0]]})

    # each value would make a valid parse if truncated or converted: "4"
    # as 4, 0.9 as 0, 2.7 as 2, false as 0
    @pytest.mark.parametrize("field, value", [
        ("tokens", "4"), ("tokens", 4.0), ("tokens", 4.9), ("tokens", True),
        ("predicate", "0"), ("predicate", 0.9), ("predicate", False),
        ("span", "0"), ("span", 0.9), ("span", False),
        ("role", "2"), ("role", 2.0), ("role", 2.7),
        ("pred", "0"), ("pred", 0.9), ("pred", False),
    ])
    def test_a_value_that_is_not_a_json_integer_is_rejected(self, field, value):
        record = {"tokens": 4, "predicates": [[0, 0]],
                  "arguments": [{"span": [0, 0], "role": 2, "pred": 0}]}
        if field == "tokens":
            record["tokens"] = value
        elif field == "predicate":
            record["predicates"] = [[value, 0]]
        elif field == "span":
            record["arguments"][0]["span"] = [0, value]
        else:
            record["arguments"][0][field] = value
        with pytest.raises(DataError):
            SrlParse.from_dict(record)


class TestRoleGraph:
    def test_structure(self):
        p = SrlParse(
            tokens=6,
            predicates=[(1, 1), (3, 3)],
            arguments=[SrlArgument(span=(0, 0), role=2, pred=0),
                       SrlArgument(span=(4, 5), role=3, pred=1)],
        )
        adj, roles, spans = build_role_graph(p)
        assert adj.shape == (5, 5) and adj.dtype == bool
        assert roles == [1, 1, 2, 3]
        assert spans == [(1, 1), (3, 3), (0, 0), (4, 5)]
        assert adj[0, 1] and adj[1, 0] and adj[0, 2] and adj[2, 0]
        assert adj[1, 3] and adj[3, 1] and adj[2, 4] and adj[4, 2]
        assert not adj[0, 3] and not adj[3, 4]
        assert np.array_equal(adj, adj.T)

    def test_empty_parse_is_single_node(self):
        adj, roles, spans = build_role_graph(SrlParse(tokens=2))
        assert adj.shape == (1, 1) and not adj.any() and roles == [] and spans == []


def encode_sentence(params, tokens, parse):
    """One sentence through encode_all: (event row (d,), local row (d,))."""
    ev, loc = encode_all(params, [sentence_layout(tokens, [parse])])
    return ev.data[0], loc.data[0]


def make_encoder(rng, d=6, d_t=4, n_roles=5):
    store = ParamStore()
    params = create_linguistic_params(
        store, rng, d=d, d_t=d_t, n_roles=n_roles, dtype=np.float64
    )
    return store, params


class TestSentenceEncoder:
    def test_embedding_is_linear_projection_no_relu(self):
        # the sentence encoder shares its code with the question encoder,
        # which rectifies the projection; sentences must keep the negative
        # entries. An empty parse leaves the event node isolated, so the role
        # layer passes it through its ReLU residual alone.
        rng = np.random.default_rng(210)
        store, params = make_encoder(rng)
        toks = rng.standard_normal((4, 4))
        sent = params.sentence
        sent.b_tok.data[...] = rng.standard_normal(sent.b_tok.data.shape)
        ev, _ = encode_sentence(params, toks, SrlParse(tokens=4))
        proj = toks @ sent.w_tok.data + sent.b_tok.data
        assert (proj < 0).any()
        want = np.maximum(bilstm_embed(sent.lstm, constant(proj, np.float64), [4]).data[0], 0.0)
        clipped = bilstm_embed(sent.lstm, constant(np.maximum(proj, 0.0), np.float64), [4]).data[0]
        assert np.array_equal(ev, want)
        assert not np.allclose(ev, np.maximum(clipped, 0.0))

    def test_shapes_and_zero_local_path(self):
        rng = np.random.default_rng(211)
        store, params = make_encoder(rng)
        toks = rng.standard_normal((3, 4))
        ev, loc = encode_sentence(params, toks, SrlParse(tokens=3))
        assert ev.shape == (6,) and loc.shape == (6,)
        assert np.array_equal(loc, np.zeros(6))

    def test_token_count_mismatch_rejected(self):
        rng = np.random.default_rng(212)
        store, params = make_encoder(rng)
        with pytest.raises(DataError):
            encode_sentence(params, rng.standard_normal((2, 4)), SrlParse(tokens=3))

    def test_role_out_of_vocabulary_rejected(self):
        rng = np.random.default_rng(213)
        store, params = make_encoder(rng, n_roles=2)
        parse = SrlParse(tokens=3, predicates=[(0, 0)],
                         arguments=[SrlArgument(span=(1, 2), role=3, pred=0)])
        with pytest.raises(DataError):
            encode_sentence(params, rng.standard_normal((3, 4)), parse)

    def test_ones_role_matrix_is_identity_scaling(self):
        # two parses identical except for which (ones-initialised) role id
        # the argument uses must encode identically
        rng = np.random.default_rng(214)
        store, params = make_encoder(rng, n_roles=6)
        toks = rng.standard_normal((4, 4))
        p2 = SrlParse(tokens=4, predicates=[(1, 1)],
                      arguments=[SrlArgument(span=(2, 3), role=2, pred=0)])
        p5 = SrlParse(tokens=4, predicates=[(1, 1)],
                      arguments=[SrlArgument(span=(2, 3), role=5, pred=0)])
        a = encode_sentence(params, toks, p2)
        b = encode_sentence(params, toks, p5)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_role_scaling_reaches_only_its_role(self):
        rng = np.random.default_rng(215)
        store, params = make_encoder(rng, n_roles=6)
        toks = rng.standard_normal((4, 4))
        parse = SrlParse(tokens=4, predicates=[(1, 1)],
                         arguments=[SrlArgument(span=(2, 3), role=2, pred=0)])
        base_ev, base_loc = encode_sentence(params, toks, parse)
        base = (base_ev.copy(), base_loc.copy())
        params.role_matrix.data[4, :] = 7.0  # role 5: unused by this parse
        same_ev, same_loc = encode_sentence(params, toks, parse)
        assert np.array_equal(same_ev, base[0])
        assert np.array_equal(same_loc, base[1])
        params.role_matrix.data[1, :] = 3.0  # role 2: used
        diff_ev, diff_loc = encode_sentence(params, toks, parse)
        assert not np.array_equal(diff_loc, base[1])

    def test_encode_all_shapes_and_gradients(self):
        rng = np.random.default_rng(216)
        store, params = make_encoder(rng)
        toks = rng.standard_normal((12, 4))
        parse = SrlParse(tokens=4, predicates=[(1, 1)],
                         arguments=[SrlArgument(span=(2, 3), role=2, pred=0),
                                    SrlArgument(span=(0, 0), role=3, pred=0)])
        with recording():
            ev, loc = encode_all(params, [sentence_layout(toks, [parse] * 3)])
            assert ev.data.shape == (3, 6) and loc.data.shape == (3, 6)
            store.zero_grads()
            backward(add(sum_all(ev), sum_all(loc)))
        dead = [n for n, p in store.items() if np.abs(p.grad).sum() == 0.0]
        # only role rows never referenced by any parse may stay silent
        assert all("roles" in n for n in dead)

    def test_empty_sentence_list_rejected(self):
        rng = np.random.default_rng(217)
        store, params = make_encoder(rng)
        with pytest.raises(DataError):
            encode_all(params, [sentence_layout(np.zeros((0, 4)), [])])
