import numpy as np
import pytest

from scrc.errors import InputError
from scrc.geometry import BoundingBox, ImageSize, encode_spatial, iou, is_hit
from scrc.nncore import make_rng


def random_box(rng, w=100.0, h=100.0):
    x0, x1 = sorted(rng.uniform(0, w, size=2))
    y0, y1 = sorted(rng.uniform(0, h, size=2))
    return BoundingBox(x0, y0, x1 + 1.0, y1 + 1.0)


class TestBoundingBox:
    def test_degenerate_rejected(self):
        with pytest.raises(InputError):
            BoundingBox(0, 0, 0, 10)
        with pytest.raises(InputError):
            BoundingBox(5, 5, 4, 10)

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            BoundingBox(0, 0, float("nan"), 1)

    def test_numpy_reads_boxes_as_rows(self):
        rows = np.asarray([BoundingBox(1, 2, 4, 6), BoundingBox(0, 0, 1, 1)], dtype=np.float64)
        assert rows.tolist() == [[1, 2, 4, 6], [0, 0, 1, 1]]
        assert np.asarray(BoundingBox(1, 2, 4, 6)).tolist() == [1, 2, 4, 6]


class TestEncodeSpatial:
    def test_full_image(self):
        sp = encode_spatial(BoundingBox(0, 0, 200, 100), ImageSize(200, 100))
        assert np.allclose(sp, [-1, -1, 1, 1, 0, 0, 2, 2], atol=1e-9)

    def test_right_half(self):
        sp = encode_spatial(BoundingBox(100, 0, 200, 100), ImageSize(200, 100))
        assert np.allclose(sp, [0, -1, 1, 1, 0.5, 0, 1, 2], atol=1e-9)

    def test_centered_quarter(self):
        sp = encode_spatial(BoundingBox(50, 25, 150, 75), ImageSize(200, 100))
        assert np.allclose(sp, [-0.5, -0.5, 0.5, 0.5, 0, 0, 1, 1], atol=1e-9)

    def test_out_of_image_rejected(self):
        with pytest.raises(InputError):
            encode_spatial(BoundingBox(-5, 0, 50, 50), ImageSize(100, 100))
        with pytest.raises(InputError):
            encode_spatial(BoundingBox(0, 0, 101, 50), ImageSize(100, 100))

    def test_scale_invariance(self):
        rng = make_rng(5)
        for _ in range(100):
            box = random_box(rng)
            base = encode_spatial(box, ImageSize(101, 101))
            s = float(rng.uniform(0.1, 40.0))
            scaled = encode_spatial(
                BoundingBox(box.x_min * s, box.y_min * s, box.x_max * s, box.y_max * s),
                ImageSize(101 * s, 101 * s))
            assert np.max(np.abs(scaled - base)) < 1e-6

    def test_internal_identities(self):
        rng = make_rng(6)
        for _ in range(100):
            sp = encode_spatial(random_box(rng), ImageSize(101, 101))
            x0, y0, x1, y1, xc, yc, w, h = sp
            assert xc == (x0 + x1) / 2.0
            assert yc == (y0 + y1) / 2.0
            assert w == x1 - x0
            assert h == y1 - y0
            assert np.all(sp[:6] >= -1) and np.all(sp[:6] <= 1)
            assert 0 < w <= 2 and 0 < h <= 2

    def test_codes_match_the_undivided_form(self):
        # doubling is exact, so 2 * (x / w) and 2 * x / w round alike
        rng = make_rng(8)
        for _ in range(2000):
            w, h = np.exp(rng.uniform(0.0, 12.0, size=2))
            box = random_box(rng, w - 1.0, h - 1.0)
            x0, y0, x1, y1 = encode_spatial(box, ImageSize(w, h))[:4]
            assert x0 == 2.0 * box.x_min / w - 1.0 and x1 == 2.0 * box.x_max / w - 1.0
            assert y0 == 2.0 * box.y_min / h - 1.0 and y1 == 2.0 * box.y_max / h - 1.0

    def test_largest_finite_sizes_do_not_overflow(self):
        big = 1e308
        sp = encode_spatial(BoundingBox(0, 0, big, big / 2), ImageSize(big, big))
        assert np.array_equal(sp, [-1, -1, 1, 0, 0, -0.5, 2, 1])


class TestImageSize:
    @pytest.mark.parametrize("width, height", [
        (float("inf"), 100.0), (100.0, float("inf")), (float("-inf"), 100.0),
        (float("nan"), 100.0), (100.0, float("nan")), (0.0, 100.0), (100.0, -1.0)])
    def test_non_finite_or_non_positive_rejected(self, width, height):
        with pytest.raises(InputError, match="finite and positive"):
            ImageSize(width, height)

    def test_largest_float_accepted(self):
        ImageSize(np.finfo(np.float64).max, 1e-300)


class TestIou:
    def test_identical(self):
        b = BoundingBox(3, 4, 10, 12)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BoundingBox(0, 0, 1, 1), BoundingBox(5, 5, 6, 6)) == 0.0

    def test_hand_case(self):
        val = iou(BoundingBox(0, 0, 2, 2), BoundingBox(1, 1, 3, 3))
        assert abs(val - 1.0 / 7.0) < 1e-9

    def test_symmetric_and_bounded(self):
        rng = make_rng(9)
        for _ in range(200):
            a, b = random_box(rng), random_box(rng)
            v = iou(a, b)
            assert v == iou(b, a)
            assert 0.0 <= v <= 1.0


class TestIsHit:
    def test_identical_hits(self):
        b = BoundingBox(0, 0, 4, 4)
        assert is_hit(b, b)

    def test_exactly_half_is_inclusive(self):
        # intersection 2, union 4
        assert iou(BoundingBox(0, 0, 1, 2), BoundingBox(0, 0, 2, 2)) == 0.5
        assert is_hit(BoundingBox(0, 0, 1, 2), BoundingBox(0, 0, 2, 2))

    def test_disjoint_misses(self):
        assert not is_hit(BoundingBox(0, 0, 1, 1), BoundingBox(2, 2, 3, 3))

    def test_just_below_half_misses(self):
        assert not is_hit(BoundingBox(0, 0, 1, 1.99), BoundingBox(0, 0, 2, 2))


class TestBoxRows:
    """The rules over (n, 4) box coordinates give each row the bits of the
    same rule on that row's BoundingBox."""

    def boxes(self, seed, count=200):
        rng = make_rng(seed)
        boxes = [random_box(rng) for _ in range(count)]
        return boxes, np.array([b.as_list() for b in boxes])

    def test_spatial_codes_equal_per_box_bitwise(self):
        boxes, coords = self.boxes(11)
        for img in (ImageSize(101, 101), ImageSize(1e300, 101.5), ImageSize(2 ** 20, 3e5)):
            got = encode_spatial(coords, img)
            assert got.shape == (len(boxes), 8) and got.dtype == np.float64
            assert got.tobytes() == np.stack([encode_spatial(b, img) for b in boxes]).tobytes()

    def test_check_names_the_first_row_outside(self):
        _, coords = self.boxes(12, 10)
        coords[[3, 7], 2] = 150.0
        with pytest.raises(InputError, match=r"^box 3: box \[.*, 150\.0, .*\] not contained "
                                             r"in 101x101 image$"):
            encode_spatial(coords, ImageSize(101, 101))
        with pytest.raises(InputError, match=r"^box \[0\.0, 0\.0, 102\.0, 5\.0\] not contained"):
            ImageSize(101, 101).check(BoundingBox(0.0, 0.0, 102.0, 5.0))

    def test_iou_and_hits_equal_per_pair_bitwise(self):
        boxes, coords = self.boxes(13)
        gts, gt_coords = self.boxes(14)
        # identical, disjoint and edge-touching pairs as well as random ones
        boxes += [gts[0], BoundingBox(0, 0, 1, 1), BoundingBox(0, 0, 1, 2)]
        gts += [gts[0], BoundingBox(5, 5, 6, 6), BoundingBox(1, 0, 2, 2)]
        coords = np.array([b.as_list() for b in boxes])
        gt_coords = np.array([b.as_list() for b in gts])
        want = [iou(a, b) for a, b in zip(boxes, gts)]
        assert iou(coords, gt_coords).tolist() == want
        assert want[-3:] == [1.0, 0.0, 0.0]
        assert is_hit(coords, gt_coords).tolist() == [is_hit(a, b) for a, b in zip(boxes, gts)]
        # one BoundingBox meets every row
        assert iou(coords, gts[0]).tolist() == [iou(a, gts[0]) for a in boxes]


class TestIouAtAnyScale:
    """IoU is a number for boxes of any finite size: areas that overflow or
    underflow float64 do not turn it into NaN, and scaling keeps the bits of
    ordinary boxes."""

    CASES = [([0, 0, 1e200, 1e200], [0, 0, 1e200, 1e200], 1.0),
             ([0, 0, 1e200, 1e200], [0, 0, 5e199, 1e200], 0.5),
             ([0, 0, 1e-200, 1e-200], [0, 0, 1e-200, 1e-200], 1.0)]

    @pytest.mark.parametrize("a, b, want", CASES)
    def test_boxes(self, a, b, want):
        assert iou(BoundingBox(*a), BoundingBox(*b)) == pytest.approx(want, rel=1e-15)

    def test_rows(self):
        a, b, want = (np.array(column, dtype=np.float64) for column in zip(*self.CASES))
        assert iou(a, b) == pytest.approx(want, rel=1e-15)

    def test_ordinary_boxes_keep_their_bits(self):
        rng = make_rng(15)
        a, b = (np.array([random_box(rng).as_list() for _ in range(2000)]).T for _ in "ab")
        inter = (np.maximum(np.minimum(a[2], b[2]) - np.maximum(a[0], b[0]), 0.0)
                 * np.maximum(np.minimum(a[3], b[3]) - np.maximum(a[1], b[1]), 0.0))
        want = inter / ((a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter)
        assert iou(a.T, b.T).tobytes() == want.tobytes()
