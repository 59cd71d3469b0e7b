import csv
import errno

import numpy as np
import pytest

from scrc import datastore
from scrc.errors import InputError
from scrc.evalmetrics import (RECALL_KS, RankedResult, eval_gt_scenario,
                              eval_proposal_scenario, rank_candidates, write_per_query_csv)
from scrc.geometry import BoundingBox, iou, is_hit
from scrc.nncore import make_rng


def box_at(k, size=1.0):
    return BoundingBox(10.0 * k, 0.0, 10.0 * k + size, size)


def gt_result(n_cands, gt_idx, top_idx, query="q", image_id="img"):
    """Candidates at disjoint locations; scores place top_idx first."""
    boxes = [box_at(k) for k in range(n_cands)]
    scores = [1.0 if k == top_idx else -float(k) for k in range(n_cands)]
    return RankedResult.build(query, image_id, boxes, scores, boxes[gt_idx])


class TestRankCandidates:
    def test_descending(self):
        assert rank_candidates([0.1, 0.9, 0.5]) == [1, 2, 0]

    def test_all_equal_keeps_input_order(self):
        assert rank_candidates([3.0, 3.0, 3.0]) == [0, 1, 2]

    def test_duplicate_max_earlier_index_first(self):
        scores = [0.0, 0.0, 9.0, 1.0, 2.0, 9.0]
        assert rank_candidates(scores)[:2] == [2, 5]

    def test_nonfinite_names_index(self):
        with pytest.raises(InputError, match="candidate 1"):
            rank_candidates([0.0, float("nan"), 1.0])


class TestGtScenario:
    def test_all_correct(self):
        report = eval_gt_scenario([gt_result(4, 2, 2) for _ in range(5)])
        assert report.p_at_1 == 1.0
        assert report.scenario == "gt_boxes"

    def test_two_of_three(self):
        results = [gt_result(3, 0, 0), gt_result(3, 1, 1), gt_result(3, 2, 0)]
        report = eval_gt_scenario(results)
        assert report.p_at_1 == pytest.approx(2.0 / 3.0)
        assert report.query_count == 3

    def test_single_candidate_forced_hit(self):
        report = eval_gt_scenario([gt_result(1, 0, 0)])
        assert report.p_at_1 == 1.0

    def test_gt_absent_rejected(self):
        boxes = [box_at(0), box_at(1)]
        result = RankedResult.build("q", "img", boxes, [0.5, 0.2], box_at(7))
        with pytest.raises(InputError, match="ground-truth"):
            eval_gt_scenario([result])

    def test_random_scores_converge_to_one_over_m(self):
        rng = make_rng(123)
        m, trials = 4, 10000
        boxes = [box_at(k) for k in range(m)]
        hits = 0
        for _ in range(trials):
            gt_idx = int(rng.integers(m))
            result = RankedResult.build("q", "img", boxes, list(rng.normal(size=m)),
                                        boxes[gt_idx])
            hits += np.array_equal(result.boxes[0], result.gt_box)
        assert abs(hits / trials - 1.0 / m) < 0.05


def proposal_result(hit_ranks, n_cands, query="q"):
    """Ground truth at the origin; candidates at hit_ranks coincide with it."""
    gt = BoundingBox(0.0, 0.0, 5.0, 5.0)
    boxes = []
    for k in range(n_cands):
        boxes.append(gt if k in hit_ranks else BoundingBox(100.0 + 10 * k, 0.0,
                                                           104.0 + 10 * k, 5.0))
    scores = [float(n_cands - k) for k in range(n_cands)]
    return RankedResult.build(query, "img", boxes, scores, gt)


class TestProposalScenario:
    def test_fixture_values(self):
        results = [proposal_result({0}, 12),    # hit at rank 1
                   proposal_result({4}, 12),    # hit at rank 5
                   proposal_result({10}, 12)]   # hit at rank 11
        report = eval_proposal_scenario(results)
        assert report.r_at_k[1] == pytest.approx(1.0 / 3.0)
        assert report.r_at_k[10] == pytest.approx(2.0 / 3.0)
        assert report.oracle == 1.0

    def test_hit_at_rank_11_counts_only_for_oracle(self):
        report = eval_proposal_scenario([proposal_result({10}, 100)])
        assert report.r_at_k[1] == 0.0
        assert report.r_at_k[10] == 0.0
        assert report.oracle == 1.0

    def test_no_hits_anywhere(self):
        report = eval_proposal_scenario([proposal_result(set(), 20)])
        assert report.r_at_k[1] == report.r_at_k[10] == report.oracle == 0.0

    def test_shuffle_invariance(self):
        rng = make_rng(9)
        gt = BoundingBox(0.0, 0.0, 5.0, 5.0)
        boxes = [gt] + [BoundingBox(50.0 + 7 * k, 0.0, 54.0 + 7 * k, 5.0)
                        for k in range(11)]
        scores = list(rng.normal(size=12))
        base = eval_proposal_scenario([RankedResult.build("q", "img", boxes, scores, gt)])
        perm = list(rng.permutation(12))
        shuffled = eval_proposal_scenario([RankedResult.build(
            "q", "img", [boxes[i] for i in perm], [scores[i] for i in perm], gt)])
        assert base.to_dict() == shuffled.to_dict()

    def test_monotone_in_k_randomized(self):
        rng = make_rng(77)
        for _ in range(1000):
            n = int(rng.integers(1, 30))
            hit_ranks = set(int(i) for i in rng.integers(0, n, size=rng.integers(0, 4)))
            results = [proposal_result(hit_ranks, n)]
            report = eval_proposal_scenario(results)
            assert report.r_at_k[1] <= report.r_at_k[10] <= report.oracle

    def test_score_transform_invariance(self):
        gt = BoundingBox(0.0, 0.0, 5.0, 5.0)
        boxes = [gt] + [BoundingBox(50.0, 0.0, 54.0, 5.0)] * 10
        scores = [-3.0, -1.0, 0.5, 2.0, -2.5, 1.5, 0.0, -0.5, 3.0, -4.0, 0.25]
        base = eval_proposal_scenario([RankedResult.build("q", "i", boxes, scores, gt)])
        squashed = eval_proposal_scenario([RankedResult.build(
            "q", "i", boxes, [np.tanh(s) for s in scores], gt)])
        assert base.to_dict() == squashed.to_dict()

    def test_empty_results_rejected(self):
        with pytest.raises(InputError):
            eval_proposal_scenario([])

    def test_empty_candidates_rejected(self):
        with pytest.raises(InputError):
            RankedResult.build("q", "img", [], [], box_at(0))


class TestReportShape:
    def test_gt_dict(self):
        d = eval_gt_scenario([gt_result(2, 0, 0)]).to_dict()
        assert d == {"scenario": "gt_boxes", "query_count": 1, "p_at_1": 1.0}

    def test_proposal_dict_keys(self):
        d = eval_proposal_scenario([proposal_result({0}, 12)]).to_dict()
        assert set(d) == {"scenario", "query_count", "r_at_1", "r_at_10", "oracle"}


class TestPerQueryCsv:
    def test_columns_and_flags(self, tmp_path):
        path = tmp_path / "q.csv"
        write_per_query_csv([proposal_result({4}, 12)], "proposals", path)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["query", "image_id", "rank1_iou", "hit_at_1", "hit_at_10",
                           "hit_any"]
        assert rows[1][3:] == ["0", "1", "1"]

    def test_gt_scenario_identity_flags(self, tmp_path):
        path = tmp_path / "q.csv"
        write_per_query_csv([gt_result(3, 1, 1)], "gt_boxes", path)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[1][3] == "1"
        assert rows[1][2] == "1.000000"  # rank-1 box is the gt box itself


class _DiskFullAfter:
    """A binary file whose writes fail once `writes` of them have gone
    through; everything else goes to the file."""

    def __init__(self, f, writes):
        self.f, self.writes = f, writes

    def __getattr__(self, name):
        return getattr(self.f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.writes -= 1
        if self.writes < 0:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.f.write(data)


class TestPerQueryCsvAtomicWrite:
    """A CSV larger than the text layer's 8 KB chunks reaches the file in
    several writes; a failure at any of them leaves no partial file."""

    RESULTS = [proposal_result({k % 3}, 12, query=f"query {k}") for k in range(800)]

    @pytest.fixture
    def disk_full(self, monkeypatch, writes):
        real_open = open
        monkeypatch.setattr(datastore, "open",
                            lambda *a, **kw: _DiskFullAfter(real_open(*a, **kw), writes),
                            raising=False)

    @pytest.mark.parametrize("writes", [0, 1, 2])
    def test_failed_write_keeps_old_csv(self, writes, tmp_path, request):
        path = tmp_path / "q.csv"
        write_per_query_csv(self.RESULTS[:5], "proposals", path)
        old = path.read_bytes()
        request.getfixturevalue("disk_full")
        with pytest.raises(OSError) as e:
            write_per_query_csv(self.RESULTS, "proposals", path)
        assert e.value.errno == errno.ENOSPC
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("writes", [0, 2])
    def test_failed_new_csv_leaves_nothing(self, writes, tmp_path, disk_full):
        with pytest.raises(OSError):
            write_per_query_csv(self.RESULTS, "proposals", tmp_path / "q.csv")
        assert list(tmp_path.iterdir()) == []

    def test_write_takes_several_writes(self, tmp_path, monkeypatch):
        files = []
        real_open = open

        def counting(*a, **kw):
            files.append(_DiskFullAfter(real_open(*a, **kw), 10 ** 6))
            return files[-1]

        monkeypatch.setattr(datastore, "open", counting, raising=False)
        path = tmp_path / "q.csv"
        write_per_query_csv(self.RESULTS, "proposals", path)
        assert 10 ** 6 - files[0].writes >= 3
        assert len(path.read_text(encoding="utf-8").splitlines()) == len(self.RESULTS) + 1


class TestOneIouForAllResults:
    """Hit flags from one pass over all results' boxes give the report and the
    CSV that one is_hit call, or one row comparison, per box gives."""

    # 1-candidate results between results shorter and longer than R@10's 10
    SEGMENT_EDGES = [1, 9, 1, 1, 10, 11, 2, 1, 30, 3, 12, 1, 10, 1]

    def results(self, counts=None, gt_listed=False):
        rng = make_rng(21)
        out = []
        for q in range(60 if counts is None else len(counts)):
            count = int(rng.integers(1, 15)) if counts is None else counts[q]
            corners = rng.uniform(0, 50, size=(count + 1, 2))
            sides = rng.uniform(1, 30, size=(count + 1, 2))
            boxes = [BoundingBox(*c, *(c + s)) for c, s in zip(corners, sides)]
            if gt_listed or q % 3 == 0:
                boxes[int(rng.integers(count))] = boxes[-1]
            out.append(RankedResult.build(f"q{q}", "img", boxes[:-1],
                                          rng.normal(size=count).tolist(), boxes[-1]))
        return out

    def test_report_and_csv_equal_per_box_hits(self, tmp_path):
        for case, counts in enumerate([None, self.SEGMENT_EDGES]):
            results = self.results(counts)
            flags = [[is_hit(b, r.gt_box) for b in r.boxes] for r in results]
            report = eval_proposal_scenario(results)
            n = len(results)
            assert report.r_at_k == {k: sum(any(f[:k]) for f in flags) / n for k in RECALL_KS}
            assert report.oracle == sum(any(f) for f in flags) / n
            assert 0 < report.oracle < 1
            path = tmp_path / f"q{case}.csv"
            write_per_query_csv(results, "proposals", path)
            want = ["query,image_id,rank1_iou,hit_at_1,hit_at_10,hit_any"] + [
                f"{r.query},{r.image_id},{iou(r.boxes[0], r.gt_box):.6f},"
                f"{int(any(f[:1]))},{int(any(f[:10]))},{int(any(f))}"
                for r, f in zip(results, flags)]
            assert path.read_text().splitlines() == want

    def test_gt_report_and_csv_equal_per_box_row_equality(self, tmp_path):
        for case, counts in enumerate([None, self.SEGMENT_EDGES]):
            results = self.results(counts, gt_listed=True)
            flags = [[np.array_equal(b, r.gt_box) for b in r.boxes] for r in results]
            assert all(map(any, flags))
            report = eval_gt_scenario(results)
            assert report.p_at_1 == sum(f[0] for f in flags) / len(results)
            assert 0 < report.p_at_1 < 1
            path = tmp_path / f"q{case}.csv"
            write_per_query_csv(results, "gt_boxes", path)
            want = ["query,image_id,rank1_iou,hit_at_1,hit_at_10,hit_any"] + [
                f"{r.query},{r.image_id},{iou(r.boxes[0], r.gt_box):.6f},"
                f"{int(f[0])},{int(any(f[:10]))},1" for r, f in zip(results, flags)]
            assert path.read_text().splitlines() == want

    def test_empty_segment_refused(self):
        results = self.results(self.SEGMENT_EDGES[:3])
        results.insert(1, RankedResult("q", "img", np.empty((0, 4)), results[0].gt_box))
        for evaluate in (eval_gt_scenario, eval_proposal_scenario):
            with pytest.raises(InputError, match="^query 'q': empty candidate list$"):
                evaluate(results)
