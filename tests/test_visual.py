"""Spatial-relation taxonomy and the clip encoder."""
import numpy as np
import pytest

from livlr.errors import ContractError, DataError
from livlr.optim import ParamStore
from livlr.tensor import add, backward, recording, sum_all
from livlr.visual import (
    ClipFeatures,
    SPATIAL_REVERSAL,
    classify_spatial_edges,
    create_visual_params,
    encode_clip,
    position_features,
    spatial_relation,
)

from oracles import Frame, clip_of, encode_holistic, frames_of

FRAME = (320.0, 240.0)


def box(x, y, w, h):
    return np.array([x, y, w, h], dtype=np.float64)


class TestSpatialRelation:
    def test_inside_and_covers(self):
        inner = box(10, 10, 5, 5)
        outer = box(5, 5, 30, 30)
        assert spatial_relation(inner, outer, FRAME) == 1
        assert spatial_relation(outer, inner, FRAME) == 2

    def test_identical_boxes_are_overlap_not_inside(self):
        b = box(10, 10, 20, 20)
        assert spatial_relation(b, b, FRAME) == 3

    def test_high_iou_overlap(self):
        a = box(10, 10, 20, 20)
        b = box(12, 10, 20, 20)  # IoU = 18/22 > 0.5
        assert spatial_relation(a, b, FRAME) == 3
        assert spatial_relation(b, a, FRAME) == 3

    def test_pure_east_is_first_sector(self):
        a = box(10, 100, 10, 10)
        b = box(100, 100, 10, 10)  # same center height, far to the +x side
        assert spatial_relation(a, b, FRAME) == 4
        assert spatial_relation(b, a, FRAME) == 8  # west is the opposite sector

    def test_all_eight_sectors(self):
        # screen coordinates: +y points down, so "north of a" means a
        # smaller y center; sector labels just follow atan2 in this frame
        cx, cy, s = 100.0, 100.0, 10.0
        a = box(cx - 5, cy - 5, s, s)
        for k in range(8):
            theta = k * np.pi / 4.0
            bx = cx + 60.0 * np.cos(theta)
            by = cy + 60.0 * np.sin(theta)
            b = box(bx - 5, by - 5, s, s)
            assert spatial_relation(a, b, FRAME) == 4 + k, f"sector {k}"

    def test_sector_boundary_rounds_into_next(self):
        # exactly 22.5 degrees: the +pi/8 shift puts it in sector 1
        a = box(95, 95, 10, 10)
        dx, dy = 60.0, 60.0 * np.tan(np.pi / 8.0)
        b = box(95 + dx, 95 + dy, 10, 10)
        assert spatial_relation(a, b, FRAME) == 5

    def test_reversal_involution(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            a = box(*rng.uniform(0, 200, 2), *rng.uniform(5, 60, 2))
            b = box(*rng.uniform(0, 200, 2), *rng.uniform(5, 60, 2))
            t_ab = spatial_relation(a, b, FRAME)
            t_ba = spatial_relation(b, a, FRAME)
            assert t_ab != 0 and t_ba != 0
            assert SPATIAL_REVERSAL[t_ab] == t_ba
            assert SPATIAL_REVERSAL[SPATIAL_REVERSAL[t_ab]] == t_ab

    def test_translation_and_scale_invariance(self):
        rng = np.random.default_rng(43)
        big = (10000.0, 10000.0)
        for _ in range(50):
            a = box(*rng.uniform(100, 300, 2), *rng.uniform(5, 50, 2))
            b = box(*rng.uniform(100, 300, 2), *rng.uniform(5, 50, 2))
            base = spatial_relation(a, b, big)
            shift = np.array([37.0, -21.0, 0.0, 0.0])
            assert spatial_relation(a + shift, b + shift, big) == base
            assert spatial_relation(a * 3.0, b * 3.0, big) == base

    def test_zero_area_box_rejected(self):
        with pytest.raises(ContractError):
            spatial_relation(box(0, 0, 0, 5), box(10, 10, 5, 5), FRAME)

    def test_classify_full_matrix(self):
        boxes = np.array([[10, 10, 5, 5], [5, 5, 30, 30], [100, 10, 8, 8]])
        adj, types = classify_spatial_edges(boxes, FRAME)
        assert types[0, 1] == 1 and types[1, 0] == 2
        assert adj.trace() == 0
        # valid boxes always relate: complete graph minus the diagonal
        assert adj.sum() == 6
        assert ((types > 0) == adj).all()


class TestPositionFeatures:
    def test_normalized_geometry(self):
        rows = position_features(np.array([[32, 24, 64, 120]]), FRAME)
        assert np.allclose(rows[0], [0.1, 0.1, 0.3, 0.6, 0.2, 0.5])

    def test_values_in_unit_range_for_valid_boxes(self):
        rng = np.random.default_rng(44)
        xy = rng.uniform(0, 100, (20, 2))
        wh = rng.uniform(5, 100, (20, 2))
        rows = position_features(np.hstack([xy, wh]), (200.0, 200.0))
        assert (rows >= 0.0).all() and (rows <= 1.0).all()


class TestFrameValidation:
    def make_frame(self, **kw):
        """A one-frame clip of two objects."""
        args = dict(
            appearance=np.ones((1, 6)),
            objects=np.ones((2, 5)),
            class_attr=np.ones((2, 4)),
            boxes=np.array([[0.0, 0.0, 10.0, 10.0], [20.0, 20.0, 10.0, 10.0]]),
            n_objects=[2],
            frame_size=FRAME,
        )
        args.update(kw)
        return ClipFeatures(**args)

    def test_valid_frame_accepted(self):
        f = self.make_frame()
        assert f.objects.shape == (2, 5)

    def test_no_objects_rejected(self):
        with pytest.raises(DataError):
            self.make_frame(objects=np.ones((0, 5)), class_attr=np.ones((0, 4)),
                            boxes=np.zeros((0, 4)), n_objects=[0])

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(DataError):
            self.make_frame(class_attr=np.ones((3, 4)))

    def test_out_of_bounds_box_rejected(self):
        # a nan or infinite coordinate is out of bounds too
        for x in (315.0, np.nan, np.inf):
            with pytest.raises(DataError):
                self.make_frame(boxes=np.array([[0.0, 0.0, 10.0, 10.0], [x, 0.0, 10.0, 10.0]]))

    def test_nonpositive_box_rejected(self):
        for w in (0.0, np.nan):
            with pytest.raises(DataError):
                self.make_frame(boxes=np.array([[0.0, 0.0, w, 10.0], [1.0, 1.0, 5.0, 5.0]]))

    def test_empty_clip_rejected(self):
        with pytest.raises(DataError):
            self.make_frame(appearance=np.ones((0, 6)), n_objects=np.zeros(0, dtype=int))

    @pytest.mark.parametrize("n_frames, n_objects", [
        (1, [2.0]), (1, [True]), (1, [1, 1]), (1, [[2]]), (2, [0, 2]), (1, [1]), (1, [3]),
    ], ids=["float", "bool", "too_many", "rank_2", "zero", "short_sum", "long_sum"])
    def test_bad_object_counts_rejected(self, n_frames, n_objects):
        # one count per frame, each an integer >= 1, adding up to the rows
        with pytest.raises(DataError):
            self.make_frame(appearance=np.ones((n_frames, 6)), n_objects=n_objects)


def encode_frame(params, frame):
    """One frame's fine-grained row (d,), through a one-frame clip."""
    return encode_clip(params, [clip_of([frame])])[1].data[0]


def build_encoder(rng, d=6, d_a=5, d_o=4, d_c=3, n_keep=2):
    store = ParamStore()
    params = create_visual_params(
        store, rng, d=d, d_a=d_a, d_o=d_o, d_c=d_c, n_keep=n_keep, dtype=np.float64,
    )
    return store, params


def random_frame(rng, n_obj, d_a=5, d_o=4, d_c=3):
    xy = rng.uniform(0, 200, (n_obj, 2))
    wh = rng.uniform(5, 40, (n_obj, 2))
    return Frame(
        appearance=rng.standard_normal(d_a),
        objects=rng.standard_normal((n_obj, d_o)),
        class_attr=rng.standard_normal((n_obj, d_c)),
        boxes=np.hstack([xy, wh]),
    )


class TestEncoder:
    def test_output_shapes(self):
        rng = np.random.default_rng(50)
        store, params = build_encoder(rng)
        clip = clip_of([random_frame(rng, 3), random_frame(rng, 3)])
        hol, fine = encode_clip(params, [clip])
        assert hol.data.shape == (2, 6)
        assert fine.data.shape == (2, 6)

    def test_holistic_is_affine_in_appearance(self):
        rng = np.random.default_rng(51)
        store, params = build_encoder(rng)
        f = random_frame(rng, 2)
        got = encode_holistic(params, clip_of([f])).data
        want = f.appearance @ params.w_hol.data + params.b_hol.data
        assert np.allclose(got[0], want, atol=1e-12)

    def test_single_object_frame_works(self):
        rng = np.random.default_rng(52)
        store, params = build_encoder(rng)
        out = encode_frame(params, random_frame(rng, 1))
        assert out.shape == (6,)
        assert np.isfinite(out).all()

    def test_object_order_equivariance_of_pool(self):
        # pooled frame vector ignores object ordering
        rng = np.random.default_rng(53)
        store, params = build_encoder(rng)
        f = random_frame(rng, 4)
        perm = np.array([2, 0, 3, 1])
        f_perm = Frame(
            appearance=f.appearance,
            objects=f.objects[perm],
            class_attr=f.class_attr[perm],
            boxes=f.boxes[perm],
        )
        a = encode_frame(params, f)
        b = encode_frame(params, f_perm)
        assert np.allclose(a, b, atol=1e-9)

    def test_gradients_flow_to_every_visual_parameter(self):
        rng = np.random.default_rng(54)
        store, params = build_encoder(rng)
        clip = clip_of([random_frame(rng, 3), random_frame(rng, 4)])
        store.zero_grads()
        with recording():
            hol, fine = encode_clip(params, [clip])
            backward(add(sum_all(hol), sum_all(fine)))
        dead = [
            n for n, p in store.items()
            if np.abs(p.grad).sum() == 0.0 and "learner" not in n
        ]
        # type_bias rows for absent labels legitimately stay zero
        dead = [n for n in dead if "type_bias" not in n]
        assert dead == []

    def test_geometry_cache_matches_direct_classification(self):
        rng = np.random.default_rng(55)
        clip = clip_of([random_frame(rng, 3), random_frame(rng, 2)])
        geo = clip.geometry()
        assert clip.geometry() is geo
        for b, f in enumerate(frames_of(clip)):
            n = len(f.boxes)
            adj, types = classify_spatial_edges(f.boxes, FRAME)
            assert np.array_equal(geo.spatial.adjacency[b, :n, :n], adj)
            assert np.array_equal(geo.spatial.edge_types[b, :n, :n], types)
        want = np.concatenate([position_features(f.boxes, FRAME) for f in frames_of(clip)])
        assert np.array_equal(geo.positions, want)
