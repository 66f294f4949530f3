"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each traced function by a wrapper in the
module that calls it, because ``from .x import f`` binds ``f`` into the
caller's namespace and patching only the defining module would miss those
calls. Each wrapper records, per layer name: calls, inclusive seconds,
self seconds (inclusive minus the time of traced calls made inside it) and
the tape nodes the call added (``livlr.tensor.tape_size()`` after minus
before). Aggregates stay in memory; ``Tracer.snapshot`` copies them so a
caller can take the difference over a window.
"""
from __future__ import annotations

import copy
import importlib
import sys
import time

# (module that binds the name, attribute, layer name). Classes are given as
# "module:Class" and their methods are patched on the class.
BINDINGS = (
    ("livlr.model", "encode_clip", "visual.encode_clip"),
    ("livlr.model", "encode_all", "linguistic.encode_all"),
    ("livlr.model", "encode_question", "heads.encode_question"),
    ("livlr.model", "encode_candidates", "heads.encode_candidates"),
    ("livlr.model", "integrate", "davl.integrate"),
    ("livlr.model", "predict_open_ended", "heads.answer"),
    ("livlr.model", "cross_entropy", "heads.answer"),
    ("livlr.model", "score_candidates", "heads.answer"),
    ("livlr.model", "hinge_loss", "heads.answer"),
    ("livlr.davl", "question_attention", "davl.question_attention"),
    ("livlr.davl", "learn_adjacency", "graph.learn_adjacency"),
    ("livlr.visual", "learn_adjacency", "graph.learn_adjacency"),
    ("livlr.train", "backward", "tensor.backward"),
    ("livlr.gradcheck", "backward", "tensor.backward"),
    ("livlr.train", "adamw_step", "optim.adamw_step"),
    ("livlr.train", "save_checkpoint", "checkpoint.save"),
    ("livlr", "save_checkpoint", "checkpoint.save"),
    ("livlr", "load_model_from", "checkpoint.load"),
    ("livlr", "grad_check", "gradcheck.grad_check"),
    ("livlr", "evaluate", "api.evaluate"),
    ("livlr.model:Model", "predict", "api.predict"),
    ("livlr.model:Model", "encode", "model.encode"),
    ("livlr.model:Model", "answer", "model.answer"),
    # Sample building, plus the frame geometry each new Sample computes on
    # its first forward pass
    ("livlr.data:SyntheticDataset", "sample", "data.sample"),
    ("livlr.visual", "classify_spatial_edges", "data.sample"),
    ("livlr.visual", "position_features", "data.sample"),
)

# encoder stages Model.encode may run or, inside grad_check, reuse
STAGE_LAYERS = (
    "visual.encode_clip", "linguistic.encode_all",
    "heads.encode_question", "heads.encode_candidates",
)


def _owner(spec: str):
    mod_name, _, cls_name = spec.partition(":")
    # livlr.train is shadowed by the train function on the package
    mod = importlib.import_module(mod_name)
    return getattr(mod, cls_name) if cls_name else mod


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, nodes]
        self.counts = {"stage_requests": 0, "nodes_cleared": 0, "gradcheck_answer_calls": 0}
        self.missing: list[str] = []
        self._children: list[float] = []  # traced time inside each open span
        self._gradcheck_depth = 0
        self._patches: list[tuple] = []
        self._tape_size = None

    def install(self):
        self._tape_size = importlib.import_module("livlr.tensor").tape_size
        for spec, attr, name in BINDINGS:
            owner = _owner(spec)
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{spec}.{attr}")
                continue
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        if self.missing:
            print(f"tracing: not bound, their layers read 0: {', '.join(self.missing)}",
                  file=sys.stderr)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def snapshot(self) -> dict:
        return {"stats": copy.deepcopy(self.stats), "counts": dict(self.counts),
                "tape_size": self._tape_size()}

    def _wrap(self, name, fn):
        tracer = self
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        counts = self.counts

        def traced(*args, **kwargs):
            n0 = tracer._tape_size()
            if name == "tensor.backward":
                counts["nodes_cleared"] += n0
            elif name == "model.encode":
                counts["stage_requests"] += 3 + (args[0].mc_head is not None)
            elif name == "model.answer" and tracer._gradcheck_depth:
                counts["gradcheck_answer_calls"] += 1
            elif name == "gradcheck.grad_check":
                tracer._gradcheck_depth += 1
            tracer._children.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                inner = tracer._children.pop()
                if tracer._children:
                    tracer._children[-1] += dt
                if name == "gradcheck.grad_check":
                    tracer._gradcheck_depth -= 1
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - inner
                if name != "tensor.backward":
                    stat[3] += tracer._tape_size() - n0

        traced.__wrapped__ = fn
        return traced


def window(before: dict, after: dict, into: dict | None = None) -> dict:
    """Per-layer totals between two snapshots, added to ``into`` if given.
    ``recorded`` counts the tape nodes recorded in between: those a
    backward pass cleared plus the growth of the tape."""
    win = into if into is not None else {"stats": {}, "counts": {}, "recorded": 0}
    for name, cur in after["stats"].items():
        old = before["stats"].get(name, [0, 0.0, 0.0, 0])
        acc = win["stats"].setdefault(name, [0, 0.0, 0.0, 0])
        for i, (c, o) in enumerate(zip(cur, old)):
            acc[i] += c - o
    for k in after["counts"]:
        win["counts"][k] = win["counts"].get(k, 0) + after["counts"][k] - before["counts"][k]
    win["recorded"] += (after["counts"]["nodes_cleared"] - before["counts"]["nodes_cleared"]
                        + after["tape_size"] - before["tape_size"])
    return win


def per_layer_metrics(win: dict, whole: dict, ops: int, tape_left: int) -> dict:
    """The benchmark's per-layer metrics from the totals over the timed
    rounds (``win``, normalised by ``ops``, the workload's operations in
    them) and a snapshot of the whole traced process (``whole``, for
    per-call checkpoint timings, which mostly happen during set-up)."""
    s = win["stats"]
    zero = [0, 0.0, 0.0, 0]

    def ms(name):
        return s.get(name, zero)[1] * 1000.0 / ops

    def nodes(name):
        return s.get(name, zero)[3] / ops

    def per_call_ms(stats, name):
        calls, total = stats.get(name, zero)[:2]
        return total * 1000.0 / calls if calls else 0.0

    requests = win["counts"]["stage_requests"]
    runs = sum(s.get(n, zero)[0] for n in STAGE_LAYERS)
    m = {
        "tensor.backward.ms": (ms("tensor.backward"), "ms"),
        "tensor.nodes": (win["recorded"] / ops, "count"),
        "tensor.tape_size_end": (tape_left, "count"),
    }
    for layer in ("visual.encode_clip", "linguistic.encode_all", "heads.encode_question",
                  "heads.encode_candidates", "davl.question_attention"):
        m[f"{layer}.ms"] = (ms(layer), "ms")
        m[f"{layer}.nodes"] = (nodes(layer), "count")
    m.update({
        "graph.learn_adjacency.ms": (ms("graph.learn_adjacency"), "ms"),
        "davl.integrate.self_ms": (s.get("davl.integrate", zero)[2] * 1000.0 / ops, "ms"),
        "heads.answer.ms": (ms("heads.answer"), "ms"),
        "optim.adamw_step.ms": (ms("optim.adamw_step"), "ms"),
        "data.sample.ms": (ms("data.sample"), "ms"),
        "checkpoint.save.ms": (per_call_ms(whole["stats"], "checkpoint.save"), "ms"),
        "checkpoint.load.ms": (per_call_ms(whole["stats"], "checkpoint.load"), "ms"),
        "gradcheck.answer_calls": (win["counts"]["gradcheck_answer_calls"] / ops, "count"),
        "gradcheck.stage_reuse_ratio": ((requests - runs) / requests if requests else 0.0, "ratio"),
        "model.answer.ms": (per_call_ms(s, "model.answer"), "ms"),
        "api.evaluate.ms": (ms("api.evaluate"), "ms"),
        "api.predict.ms": (ms("api.predict"), "ms"),
    })
    return m
