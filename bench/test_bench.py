"""Tests of the benchmark itself, at tiny dimensions.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "retrieve_paper": {"vocab": 40, "dim": 8, "proposals": 6, "images": 3},
    "eval_synth": {"images": 3},
    "finetune_mid": {"vocab": 40, "dim": 8, "steps": 2, "batch": 4, "blocks": 2, "lr": 0.05},
    "generate_mid": {"vocab": 30, "dim": 8, "beam": 2, "max_len": 3, "images": 2},
}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(TINY) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_reports_end_to_end_metrics(name, tmp_path):
    result = workloads.run(name, 3, 0.05, False, tmp_path, dims=TINY[name])
    assert result["failed"] == {}
    assert result["attempted"] >= 1
    assert {k: u for k, (_, u) in result["metrics"].items()} == END_TO_END
    assert all(v > 0 for v, _ in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_per_layer_metrics(name, tmp_path):
    result = workloads.run(name, 3, 0.05, True, tmp_path, dims=TINY[name])
    assert result["failed"] == {}
    metrics = result["metrics"]
    assert {k: u for k, (_, u) in metrics.items()} == PER_LAYER
    assert metrics["bench.op.calls"][0] == workloads.WORKLOADS[name].trace_ops
    # self time plus the children's inclusive time is each span's own time
    spans = result["spans"]
    own = tracer.self_times(spans)
    child_ms = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_ms[s.parent] += s.end - s.start
    for s, self_s, kids in zip(spans, own, child_ms):
        assert self_s + kids == pytest.approx(s.end - s.start, abs=1e-9)


def test_retrieve_trace_counts_language_steps_per_candidate(tmp_path):
    result = workloads.run("retrieve_paper", 5, 0.0, True, tmp_path,
                           dims=TINY["retrieve_paper"])
    m = result["metrics"]
    assert m["nncore.lstm_step.language.steps_per_query_token"][0] == 6
    assert m["nncore.lstm_step.global.steps_per_query_token"][0] == 6
    assert m["model.score_candidates.candidates"][0] == 6 * 2


def test_tracer_restores_every_binding(tmp_path):
    import scrc.model
    import scrc.nncore
    originals = (scrc.model.lstm_step, scrc.nncore.SgdOptimizer.__dict__["step"],
                 scrc.model.score_candidates)
    workloads.run("finetune_mid", 0, 0.0, True, tmp_path, dims=TINY["finetune_mid"])
    assert (scrc.model.lstm_step, scrc.nncore.SgdOptimizer.__dict__["step"],
            scrc.model.score_candidates) == originals


def test_self_time_on_hand_built_tree():
    S = tracer.Span
    spans = [
        S("root", 0.0, 10.0, None, 0),
        S("a", 1.0, 4.0, 0, 0),
        S("a.child", 2.0, 3.0, 1, 0),
        S("b", 5.0, 9.0, 0, 0),
        S("b.child", 5.0, 6.0, 3, 0),
        S("b.child", 7.5, 8.0, 3, 0),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.5, 1.0, 0.5])
    agg = tracer.aggregate(spans)
    assert agg["b.child"] == pytest.approx({"calls": 2, "ms": 1500.0, "self_ms": 1500.0})
    assert agg["root"]["self_ms"] + agg["a"]["ms"] + agg["b"]["ms"] == pytest.approx(
        agg["root"]["ms"])


def test_checker_flags_perturbed_scores(tmp_path):
    wl = workloads.WORKLOADS["retrieve_paper"](TINY["retrieve_paper"])
    wl.generate(tmp_path, 1)
    wl.setup()
    wl.op(0)
    assert wl.check() == {0: []}
    ids, image_id, scores, top1 = wl.records[0]
    perturbed = list(scores)
    perturbed[1] += 0.05
    wl.records[0] = (ids, image_id, perturbed, top1)
    assert any("candidate 1" in p for p in wl.check()[0])
    wrong_top = int(np.argmin(scores))
    wl.records[0] = (ids, image_id, scores, wrong_top)
    assert any("top-1" in p for p in wl.check()[0])


def test_checker_flags_untrained_weights_and_bad_reports():
    assert reference.check_training([1.0, float("nan")], 2.0, 1.0)
    assert reference.check_training([1.0], 2.0, 2.5)
    assert reference.check_training([1.0], 2.0, 1.5) == []
    good = {"scenario": "proposals", "query_count": 8, "r_at_1": 0.25, "r_at_10": 1.0,
            "oracle": 1.0}
    assert reference.check_eval_report(good, 8) == []
    assert reference.check_eval_report({**good, "query_count": 7}, 8)
    assert reference.check_eval_report({**good, "r_at_1": 1.5}, 8)
    assert reference.check_log_prob(-10.0, -10.2)


def test_percentile_takes_upper_sample():
    assert workloads.percentile([3.0, 1.0, 2.0, 4.0], 50) == 3.0
    assert workloads.percentile([1.0, 2.0, 3.0], 50) == 2.0
    assert workloads.percentile([float(v) for v in range(1, 11)], 90) == 10.0
