"""Acceptance gates for the package, one test per numbered criterion.

Each criterion gets exactly one test so the verbose pytest report carries
one pass/fail line per criterion. Details (timings, worst-case errors,
recorded comparisons) are printed and surface with -s or on failure.

  1  gradient fidelity across both heads and all four integration variants
  2  oracle equivalence of the graph/attention kernels and the full fusion
  3  attention row normalization and learned-adjacency sparsity invariants
  4  all-ones index scaling reduces bit-identically to the plain-GCN variant
  5  overfit: fine-grained visual task to 95%, deterministic traces
  6  channel-switch task: diversity-aware variant to 90%, concat recorded
  7  full-scale parameter count within the expected order of magnitude
  8  checkpoint round-trip byte identity and named cross-config rejection
  9  hinge loss is zero exactly when every margin reaches 1
  10 head-count sweep converges at every width
"""
import json
import time

import numpy as np
import pytest

from livlr.checkpoint import load_checkpoint, save_checkpoint, serialize_params
from livlr.cli import main
from livlr.config import full_config, tiny_config
from livlr.data import SyntheticTaskSpec, gen_synthetic, save_dataset
from livlr.davl import SOURCE_NAMES, question_attention
from livlr.errors import ShapeError
from livlr.gradcheck import grad_check
from livlr.graph import (
    AttnGcnParams,
    TypedGcnParams,
    attention_coefficients,
    attn_gcn_layer,
    learn_adjacency,
    typed_edge_gcn_layer,
)
from livlr.heads import hinge_loss
from livlr.model import Model
from livlr.optim import ParamStore, load_param_data
from livlr.tensor import Tensor, constant, no_grad
from livlr.train import train

from oracles import (
    attn_gcn_loop,
    davl_loop,
    edgeless,
    learned_edges_loop,
    max_rel_err,
    one_graph,
    question_attention_loop,
    row_softmax,
    typed_gcn_loop,
)

OVERFIT_TASK = SyntheticTaskSpec(
    n_samples=64, signal_source="finegrained_visual", noise_scale=0.1, n_classes=4
)
SWITCH_TASK = SyntheticTaskSpec(
    n_samples=64, signal_source="question_dependent", noise_scale=0.1, n_classes=4
)


def test_criterion_01_gradient_fidelity():
    t0 = time.perf_counter()
    worst_overall = 0.0
    for setting in ("OE", "MC"):
        for variant in ("DAVL", "RI_GCN", "RI_AT", "RI_CONCAT"):
            cfg = tiny_config(question_setting=setting, ri_variant=variant)
            report = grad_check(cfg, seed=0, batch_size=1, tolerance=1e-4)
            worst = max(e.max_rel_err for e in report.entries)
            worst_overall = max(worst_overall, worst)
            assert report.passed, (
                f"{setting}/{variant} failed tensors: "
                f"{[(e.name, e.max_rel_err) for e in report.failures()]}"
            )
            print(f"[criterion 1] {setting}/{variant}: worst rel err {worst:.3e}")
    wall = time.perf_counter() - t0
    print(f"[criterion 1] PASS: all 8 head/variant combos < 1e-4, {wall:.1f}s")
    assert wall < 120.0, f"gradient audit took {wall:.1f}s, budget is 120s"


def test_criterion_02_oracle_equivalence():
    def rand_graph(rng, n, with_types=False):
        adj = rng.random((n, n)) < 0.6
        np.fill_diagonal(adj, False)
        types = np.where(adj, rng.integers(1, 12, size=(n, n)), 0) if with_types else None
        return one_graph(adj, types)

    for seed in range(20):
        rng = np.random.default_rng([901, seed])
        n, d = int(rng.integers(2, 7)), int(rng.integers(2, 6))
        t = lambda shape: Tensor(rng.standard_normal(shape) * 0.5, requires_grad=True)

        g = rand_graph(rng, n)
        p = AttnGcnParams(w=t((d, d)), w_q=t((d, d)), w_k=t((d, d)))
        x = constant(rng.standard_normal((n, d)), np.float64)
        got = attn_gcn_layer(p, x, g).data
        want = attn_gcn_loop(x.data, p.w_q.data, p.w_k.data, p.w.data, g.adjacency[0])
        assert max_rel_err(got, want) <= 1e-6

        gt = rand_graph(rng, n, with_types=True)
        tp = TypedGcnParams(w=t((d, d)), w_q=t((d, d)), w_k=t((d, d)), type_bias=t((11,)))
        got = typed_edge_gcn_layer(tp, x, gt).data
        want = typed_gcn_loop(
            x.data, tp.w_q.data, tp.w_k.data, tp.w.data, tp.type_bias.data,
            gt.adjacency[0], gt.edge_types[0],
        )
        assert max_rel_err(got, want) <= 1e-6

        keep = int(rng.integers(1, 4))
        w1, w2 = t((d, d)), t((d, d))
        scores, learned = learn_adjacency(w1, w2, x, keep, edgeless(n))
        want_scores, want_adj = learned_edges_loop(x.data, w1.data, w2.data, keep)
        assert max_rel_err(scores.data[0], want_scores) <= 1e-6
        assert np.array_equal(learned.adjacency[0], want_adj)

    from livlr.davl import RiVariant, RepresentationBundle, create_davl_params, integrate

    for seed in range(20):
        rng = np.random.default_rng([902, seed])
        d = 6
        store = ParamStore()
        params = create_davl_params(
            store, rng, d=d, n_heads=2, n_keep=2,
            variant=RiVariant.DAVL, dtype=np.float64,
        )
        params.index_matrix.data[...] = rng.uniform(0.5, 1.5, (4, d))
        mats = [Tensor(rng.standard_normal((r, d))) for r in (2, 3, 2, 2)]
        bundle = RepresentationBundle(*mats)
        q = constant(rng.standard_normal((3, d)), np.float64)
        heads = [
            [(h.w_q.data, h.w_k.data, h.w_v.data, h.w_o.data)
             for h in params.qatt[s].heads]
            for s in SOURCE_NAMES
        ]
        got_q = question_attention([params.qatt[SOURCE_NAMES[0]]], [mats[0]], q).data
        want_q = question_attention_loop(mats[0].data, q.data, heads[0])
        assert max_rel_err(got_q, want_q) <= 1e-6
        got = integrate(params, bundle, q).data
        want = davl_loop(
            [m.data for m in mats], q.data, heads,
            params.index_matrix.data, params.learn_w1.data, params.learn_w2.data,
            params.w_gcn.data, n_keep=2,
        )
        assert max_rel_err(got, want) <= 1e-6
    print("[criterion 2] PASS: 5 kernels match loop oracles on 20 instances each")


def test_criterion_03_normalization_and_sparsity_invariants():
    for seed in range(100):
        rng = np.random.default_rng([903, seed])
        n, d = int(rng.integers(2, 8)), int(rng.integers(2, 6))

        # every node gets at least one neighbor so each attention row is live
        adj = rng.random((n, n)) < 0.5
        np.fill_diagonal(adj, False)
        for i in range(n):
            if not adj[i].any():
                adj[i, (i + 1) % n] = True
        g = one_graph(adj)
        t = lambda shape: Tensor(rng.standard_normal(shape), requires_grad=True)
        p = AttnGcnParams(w=t((d, d)), w_q=t((d, d)), w_k=t((d, d)))
        x = constant(rng.standard_normal((n, d)), np.float64)
        with no_grad():
            alpha = attention_coefficients(p, x, g).data
            assert np.all(np.abs(alpha.sum(axis=1) - 1.0) <= 1e-6)

            plain = row_softmax(constant(rng.standard_normal((n, d)), np.float64)).data
            assert np.all(np.abs(plain.sum(axis=1) - 1.0) <= 1e-6)

            keep = int(rng.integers(1, 5))
            _, learned = learn_adjacency(t((d, d)), t((d, d)), x, keep, edgeless(n))
            assert learned.adjacency.sum(-1).max() <= keep
            assert learned.adjacency[0].trace() == 0
    print("[criterion 3] PASS: row sums and row budgets hold on 100 instances")


def test_criterion_04_index_scaling_reduction_identity():
    cfg_davl = tiny_config(ri_variant="DAVL")
    cfg_gcn = tiny_config(ri_variant="RI_GCN")
    m_davl = Model(cfg_davl)
    m_gcn = Model(cfg_gcn)

    davl_names = set(m_davl.store.names())
    gcn_names = set(m_gcn.store.names())
    assert davl_names - gcn_names == {"davl.index_embedding"}
    # fresh index rows are all ones by construction: the identity case
    assert np.array_equal(
        m_davl.store["davl.index_embedding"].data, np.ones((4, cfg_davl.d))
    )
    for name in m_gcn.store.names():
        load_param_data(m_davl.store, name, m_gcn.store[name].data)

    ds = gen_synthetic(OVERFIT_TASK, cfg_davl, seed=0)
    with no_grad():
        for i in range(4):
            s = ds.sample(i)
            loss_d, scores_d = m_davl.forward(s)
            loss_g, scores_g = m_gcn.forward(s)
            assert scores_d.data.tobytes() == scores_g.data.tobytes()
            assert loss_d.data.tobytes() == loss_g.data.tobytes()
    print("[criterion 4] PASS: ones-scaled fusion bit-identical to plain-GCN variant")


def test_criterion_05_overfit_task():
    cfg = tiny_config(epochs=300)
    ds = gen_synthetic(OVERFIT_TASK, cfg, seed=0)
    t0 = time.perf_counter()
    first = train(cfg, ds, stop_at_acc=0.95)
    wall = time.perf_counter() - t0
    assert first.final_acc >= 0.95, f"accuracy {first.final_acc} after {len(first.metrics)} epochs"
    assert len(first.metrics) <= 300
    assert wall < 300.0, f"training took {wall:.0f}s, budget is 5 minutes"

    second = train(cfg, ds, stop_at_acc=0.95)
    assert [m.train_loss for m in first.metrics] == [m.train_loss for m in second.metrics]
    assert [m.train_acc for m in first.metrics] == [m.train_acc for m in second.metrics]
    print(
        f"[criterion 5] PASS: {first.final_acc:.1%} at epoch {len(first.metrics)} "
        f"in {wall:.1f}s, traces identical across reruns"
    )


def test_criterion_06_channel_switch_task():
    cfg = tiny_config(epochs=500)
    ds = gen_synthetic(SWITCH_TASK, cfg, seed=0)
    diverse = train(cfg, ds, stop_at_acc=0.90)
    assert diverse.final_acc >= 0.90, (
        f"accuracy {diverse.final_acc} after {len(diverse.metrics)} epochs"
    )

    cfg_cat = tiny_config(ri_variant="RI_CONCAT", epochs=500)
    concat = train(cfg_cat, gen_synthetic(SWITCH_TASK, cfg_cat, seed=0), stop_at_acc=0.90)
    # recorded for comparison only; no threshold applies to the baseline
    print(
        f"[criterion 6] PASS: diversity-aware {diverse.final_acc:.1%} at epoch "
        f"{len(diverse.metrics)}; concat baseline recorded at {concat.final_acc:.1%} "
        f"(epoch {len(concat.metrics)})"
    )


def test_criterion_07_full_scale_parameter_count(capsys):
    assert main(["param-count", "--preset", "full"]) == 0
    out = capsys.readouterr().out
    rows = {}
    for line in out.splitlines():
        name, value = line.rsplit(None, 1)
        rows[name.strip()] = int(value.replace(",", ""))
    total = rows.pop("total")
    assert 8_000_000 <= total <= 25_000_000, f"total {total:,} outside [8e6, 2.5e7]"
    assert sum(rows.values()) == total
    assert len(rows) >= 4  # per-module breakdown
    counts = Model(full_config()).param_count()
    assert counts["total"] == total
    print(f"[criterion 7] PASS: {total:,} trainable scalars, modules: {sorted(rows)}")


def test_criterion_08_checkpoint_round_trip(tmp_path):
    cfg = tiny_config()
    model = Model(cfg)
    p1, p2 = tmp_path / "a.lvlr", tmp_path / "b.lvlr"
    save_checkpoint(p1, cfg, model.store)
    cfg_json, tensors = load_checkpoint(p1)
    restored = Model(cfg)
    for name in restored.store.names():
        load_param_data(restored.store, name, tensors[name])
    save_checkpoint(p2, cfg_json, restored.store)
    assert p1.read_bytes() == p2.read_bytes()

    other = Model(tiny_config(d=16, d_h=16))
    with pytest.raises(ShapeError, match=r"tensor '[\w.]+'"):
        for name in other.store.names():
            load_param_data(other.store, name, tensors[name])
    print("[criterion 8] PASS: save/load/save byte-identical; cross-config load names tensor")


def test_criterion_09_hinge_loss_zero_iff_margins():
    rng = np.random.default_rng(909)
    zeros = 0
    for _ in range(1000):
        n_k = int(rng.integers(2, 7))
        scores = rng.standard_normal(n_k) * 2.0
        correct = int(rng.integers(0, n_k))
        margins = np.delete(scores[correct] - scores, correct)
        loss = float(hinge_loss(constant(scores, np.float64), [correct], [n_k]).data[0])
        if np.all(margins >= 1.0):
            assert loss == 0.0, f"margins {margins} but loss {loss}"
            zeros += 1
        else:
            assert loss > 0.0, f"margins {margins} but loss {loss}"
    assert zeros > 0  # the property was exercised from both sides
    print(f"[criterion 9] PASS: 1000 score vectors, {zeros} zero-loss cases")


def test_criterion_10_head_count_sweep(tmp_path):
    cfg = tiny_config(d=32, d_h=32, epochs=300)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(cfg.to_canonical_json(), encoding="utf-8")
    data_dir = tmp_path / "data"
    save_dataset(gen_synthetic(OVERFIT_TASK, cfg, seed=0), data_dir)
    out_dir = tmp_path / "sweep"

    t0 = time.perf_counter()
    code = main([
        "sweep-nh", "--config", str(cfg_path), "--data", str(data_dir),
        "--out-dir", str(out_dir), "--values", "1,4,8,16,32",
        "--stop-at-acc", "0.90",
    ])
    wall = time.perf_counter() - t0
    assert code == 0
    summary = json.loads((out_dir / "sweep.json").read_text(encoding="utf-8"))
    assert [r["n_heads"] for r in summary] == [1, 4, 8, 16, 32]
    for r in summary:
        assert r["train_acc"] >= 0.90, f"n_heads={r['n_heads']} only reached {r['train_acc']}"
        assert (out_dir / f"nh_{r['n_heads']}" / "metrics.csv").exists()
    accs = ", ".join(f"{r['n_heads']}:{r['train_acc']:.1%}" for r in summary)
    print(f"[criterion 10] PASS: every head count >= 90% ({accs}) in {wall:.0f}s")
