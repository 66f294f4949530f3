"""Clip encoder: holistic frame vectors plus per-frame object graphs.

Each frame contributes one holistic row (projected appearance feature)
and one fine-grained row. The fine-grained row pools two object graphs:
a spatial graph whose edges carry an 11-way geometric relation label,
and a semantic graph whose adjacency is learned from object class
embeddings; each graph is mixed by one attention layer. Boxes are
(x, y, w, h) in pixels with the origin at the top-left corner. A clip
(``ClipFeatures``) stacks its frames' object rows, split by each
frame's object count.

The clips of a minibatch are encoded at once: their object rows are
concatenated, so each projection is one linear, each graph layer one
tape node over every frame's graph, and each pooling one product per
frame over its graph's slots (``graph.pool``), so a frame's pooled row
has the same bits in any batch.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError
from .graph import (
    AttnGcnParams,
    GraphBatch,
    TypedGcnParams,
    attn_gcn_layer,
    learn_adjacency,
    mean_weights,
    pad_blocks,
    pool,
    run_stage,
    typed_edge_gcn_layer,
)
from .optim import ParamStore, make_param
from .tensor import Slots, Tensor, add, concat, constant, linear, matmul

N_SPATIAL_TYPES = 11

# reversing a directed pair maps each label to its counterpart
SPATIAL_REVERSAL = {1: 2, 2: 1, 3: 3, 4: 8, 5: 9, 6: 10, 7: 11, 8: 4, 9: 5, 10: 6, 11: 7}


@dataclass
class ClipFeatures:
    """One clip: appearance (N_f, d_a); its frames' objects (R, d_o),
    class/attribute embeddings (R, d_c) and boxes (R, 4), frame after
    frame; n_objects (N_f,), each frame's count of those rows, each >= 1;
    and the frame_size (W, H) that every box lies in."""

    appearance: np.ndarray
    objects: np.ndarray
    class_attr: np.ndarray
    boxes: np.ndarray
    n_objects: np.ndarray
    frame_size: tuple[float, float]

    def __post_init__(self):
        self.appearance = np.asarray(self.appearance, dtype=np.float64)
        self.objects = np.asarray(self.objects, dtype=np.float64)
        self.class_attr = np.asarray(self.class_attr, dtype=np.float64)
        self.boxes = np.asarray(self.boxes, dtype=np.float64)
        counts = self.n_objects = np.asarray(self.n_objects)
        if self.appearance.ndim != 2 or len(self.appearance) < 1:
            raise DataError(f"a clip needs appearance (N_f, d_a) with N_f >= 1, "
                            f"got {self.appearance.shape}")
        if (counts.dtype.kind not in "iu" or counts.shape != self.appearance.shape[:1]
                or (counts < 1).any()):
            raise DataError(f"n_objects must hold an integer >= 1 for each of the "
                            f"{len(self.appearance)} frames, got {counts!r}")
        n = int(counts.sum())
        if self.objects.ndim != 2 or self.objects.shape[0] != n:
            raise DataError(f"objects shape {self.objects.shape} does not match {n} objects")
        if self.class_attr.ndim != 2 or self.class_attr.shape[0] != n:
            raise DataError(
                f"class_attr shape {self.class_attr.shape} does not match {n} objects"
            )
        if self.boxes.shape != (n, 4):
            raise DataError(f"boxes shape {self.boxes.shape} must be ({n}, 4)")
        fw, fh = self.frame_size
        if fw <= 0 or fh <= 0:
            raise DataError(f"bad frame size {self.frame_size}")
        # phrased so that a nan or infinite coordinate fails the check too
        x, y, w, h = self.boxes.T
        if not ((w > 0) & (h > 0)).all():
            raise DataError("boxes must have positive width and height")
        if not ((x >= 0) & (y >= 0) & (x + w <= fw) & (y + h <= fh)).all():
            raise DataError("boxes must lie within the frame bounds")
        self._geometry = None

    def geometry(self) -> "ClipGeometry":
        """Built on first use and kept: geometry is a pure function of the
        data, so one build serves every forward pass."""
        if self._geometry is None:
            self._geometry = clip_geometry(self)
        return self._geometry


@dataclass
class ClipGeometry:
    """A clip's frames over its stacked object rows: every frame's spatial
    graph in one batch, laid out by each frame's object count, and the
    rows' box geometry (R, 6)."""

    spatial: GraphBatch
    positions: np.ndarray

    @staticmethod
    def join(geos: list["ClipGeometry"]) -> "ClipGeometry":
        """Several clips as one, clip after clip: their graphs' blocks,
        node counts and rows concatenated. One clip is itself."""
        if len(geos) == 1:
            return geos[0]
        spatial = GraphBatch(
            Slots.of_counts(np.concatenate([g.spatial.counts for g in geos])),
            pad_blocks([g.spatial.adjacency for g in geos]),
            pad_blocks([g.spatial.edge_types for g in geos]),
        )
        return ClipGeometry(spatial, np.concatenate([g.positions for g in geos]))


def clip_geometry(clip: ClipFeatures) -> ClipGeometry:
    """Each frame's classified spatial edges, and the clip's box geometry."""
    frames = np.split(clip.boxes, np.cumsum(clip.n_objects)[:-1])
    adjacency, types = zip(*(classify_spatial_edges(b, clip.frame_size) for b in frames))
    return ClipGeometry(
        GraphBatch(Slots.of_counts(clip.n_objects), pad_blocks(adjacency), pad_blocks(types)),
        position_features(clip.boxes, clip.frame_size),
    )


def spatial_relation(box_i, box_j, frame_size) -> int:
    """Relation label for the ordered pair (i, j), or 0 for no edge.

    Precedence: i inside j (1), i covers j (2), IoU >= 0.5 (3), then one
    of eight 45-degree sectors of the center-to-center direction (4..11,
    label 4 pointing along +x). Pairs whose center distance exceeds the
    diagonal of the union box get no edge.
    """
    xi, yi, wi, hi = (float(v) for v in box_i)
    xj, yj, wj, hj = (float(v) for v in box_j)
    if wi <= 0 or hi <= 0 or wj <= 0 or hj <= 0:
        raise ContractError(f"zero-area box in pair {box_i} / {box_j}")
    xi2, yi2 = xi + wi, yi + hi
    xj2, yj2 = xj + wj, yj + hj

    identical = (xi, yi, xi2, yi2) == (xj, yj, xj2, yj2)
    if not identical:
        if xi >= xj and yi >= yj and xi2 <= xj2 and yi2 <= yj2:
            return 1
        if xj >= xi and yj >= yi and xj2 <= xi2 and yj2 <= yi2:
            return 2

    inter_w = max(0.0, min(xi2, xj2) - max(xi, xj))
    inter_h = max(0.0, min(yi2, yj2) - max(yi, yj))
    inter = inter_w * inter_h
    union_area = wi * hi + wj * hj - inter
    if inter / union_area >= 0.5:
        return 3

    cxi, cyi = xi + wi / 2.0, yi + hi / 2.0
    cxj, cyj = xj + wj / 2.0, yj + hj / 2.0
    ux1, uy1 = min(xi, xj), min(yi, yj)
    ux2, uy2 = max(xi2, xj2), max(yi2, yj2)
    diag = math.hypot(ux2 - ux1, uy2 - uy1)
    if math.hypot(cxj - cxi, cyj - cyi) > diag:
        return 0

    theta = math.atan2(cyj - cyi, cxj - cxi)
    sector = int(((theta + math.pi / 8.0) % (2.0 * math.pi)) / (math.pi / 4.0))
    return 4 + sector


def classify_spatial_edges(boxes, frame_size) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency and type matrices over every ordered object pair."""
    boxes = np.asarray(boxes, dtype=np.float64)
    n = boxes.shape[0]
    adj = np.zeros((n, n), dtype=bool)
    types = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            t = spatial_relation(boxes[i], boxes[j], frame_size)
            if t:
                adj[i, j] = True
                types[i, j] = t
    return adj, types


def position_features(boxes, frame_size) -> np.ndarray:
    """Per-box geometry row [x1/W, y1/H, x2/W, y2/H, w/W, h/H]."""
    boxes = np.asarray(boxes, dtype=np.float64)
    fw, fh = frame_size
    x, y, w, h = boxes.T
    return np.stack([x / fw, y / fh, (x + w) / fw, (y + h) / fh, w / fw, h / fh], axis=1)


@dataclass
class VisualEncoderParams:
    w_hol: Tensor
    b_hol: Tensor
    w_obj: Tensor
    b_obj: Tensor
    w_pos: Tensor
    b_pos: Tensor
    w_spatial_mix: Tensor
    w_cls: Tensor
    b_cls: Tensor
    w_semantic_mix: Tensor
    spatial_gcn: TypedGcnParams
    semantic_gcn: AttnGcnParams
    learn_w1: Tensor
    learn_w2: Tensor
    n_keep: int

    @property
    def dtype(self):
        return self.w_hol.data.dtype


def create_visual_params(
    store: ParamStore, rng, d: int, d_a: int, d_o: int, d_c: int, n_keep: int, dtype
) -> VisualEncoderParams:
    mk = lambda name, shape, **kw: make_param(store, f"visual.{name}", rng, shape, dtype, **kw)
    # the graph layers draw first; ".l0" names the one layer of each graph
    spatial_gcn = TypedGcnParams(
        w=mk("spatial_gcn.l0.w", (d, d)),
        w_q=mk("spatial_gcn.l0.w_q", (d, d)),
        w_k=mk("spatial_gcn.l0.w_k", (d, d)),
        type_bias=mk("spatial_gcn.l0.type_bias", (N_SPATIAL_TYPES,), init="zeros"),
    )
    semantic_gcn = AttnGcnParams(
        w=mk("semantic_gcn.l0.w", (d, d)),
        w_q=mk("semantic_gcn.l0.w_q", (d, d)),
        w_k=mk("semantic_gcn.l0.w_k", (d, d)),
    )
    return VisualEncoderParams(
        w_hol=mk("holistic.w", (d_a, d)),
        b_hol=mk("holistic.b", (d,), init="zeros"),
        w_obj=mk("obj_proj.w", (d_o, d)),
        b_obj=mk("obj_proj.b", (d,), init="zeros"),
        w_pos=mk("pos_proj.w", (6, d)),
        b_pos=mk("pos_proj.b", (d,), init="zeros"),
        w_spatial_mix=mk("spatial_mix.w", (2 * d, d)),
        w_cls=mk("cls_proj.w", (d_c, d)),
        b_cls=mk("cls_proj.b", (d,), init="zeros"),
        w_semantic_mix=mk("semantic_mix.w", (2 * d, d)),
        spatial_gcn=spatial_gcn,
        semantic_gcn=semantic_gcn,
        learn_w1=mk("learner.w1", (d, d)),
        learn_w2=mk("learner.w2", (d, d)),
        n_keep=n_keep,
    )


def encode_clip(
    params: VisualEncoderParams, clips: list[ClipFeatures], run=run_stage
) -> tuple[Tensor, Tensor]:
    """Holistic rows (N_f, d) and fine-grained rows (N_f, d) of a list of
    clips, their frames stacked clip after clip. A frame's fine-grained row
    is its pooled spatial graph plus its pooled semantic graph over the
    frame's objects.

    Three stages go through the stage hook run(name, fn): "visual.proj"
    projects the features into the holistic rows and each graph's input
    rows, then "visual.spatial" and "visual.semantic" each run their
    graph's layer on its input rows and pool it. What depends only on the
    clips (the joined geometry, the stacked features, the pooling weights)
    is built once per call, when a stage first reads it, so calling a
    stage's fn again reruns only its products with weights."""
    dtype = params.dtype
    geo = functools.cache(lambda: ClipGeometry.join([c.geometry() for c in clips]))
    mean = functools.cache(lambda: mean_weights(geo().spatial.valid))  # each frame's objects

    @functools.cache
    def features():
        stack = lambda name: constant(np.concatenate([getattr(c, name) for c in clips]), dtype)
        return (stack("appearance"), stack("objects"), constant(geo().positions, dtype),
                stack("class_attr"))

    def project():
        appearance, objects, positions, class_attr = features()
        hol = linear(appearance, params.w_hol, params.b_hol)
        obj = linear(objects, params.w_obj, params.b_obj)
        # spatial branch: geometry-typed edges over box relations
        pos = linear(positions, params.w_pos, params.b_pos)
        v_sp = matmul(concat([obj, pos], axis=1), params.w_spatial_mix)
        # semantic branch: adjacency learned from class/attribute content
        cls = linear(class_attr, params.w_cls, params.b_cls)
        return hol, v_sp, matmul(concat([obj, cls], axis=1), params.w_semantic_mix)

    hol, v_sp, v_se = run("visual.proj", project)

    def spatial():
        graph = geo().spatial
        return pool(mean(), typed_edge_gcn_layer(params.spatial_gcn, v_sp, graph), graph)

    def semantic():
        _, graph = learn_adjacency(params.learn_w1, params.learn_w2, v_se, params.n_keep, geo().spatial)
        return pool(mean(), attn_gcn_layer(params.semantic_gcn, v_se, graph), graph)

    return hol, add(run("visual.spatial", spatial), run("visual.semantic", semantic))
