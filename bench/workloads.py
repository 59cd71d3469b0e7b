"""The four benchmark workloads and the loop that measures them.

Each workload writes its inputs from the seed (untimed), loads them through
``scrc.datastore`` (``setup``, timed as ``setup_s``), then runs operations
in a closed loop with one client: the next operation starts when the last
one returns. Operations call the package only through the public functions
``cli.py`` calls, looked up as module attributes so that the tracer's
rebinding reaches them.

An untraced run measures the end-to-end metrics for a fixed number of
seconds. A traced run instead runs a fixed number of operations twice, once
untraced and once traced, so its per-layer totals compare across commits
and the two wall times give the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import time
from pathlib import Path
from typing import Optional

import numpy as np

from scrc import cli, datastore, evalmetrics, geometry, model, synth, textproc, train

import reference
from tracer import Tracer, aggregate, span_names

# Query lengths cycle through 1..10 tokens in an order chosen so that the
# upper median of any prefix is a 6-token query: a run that completes three
# queries and one that completes four report the same kind of query.
LENGTH_CYCLE = (6, 5, 7, 4, 8, 3, 9, 2, 10, 1)

# Operations whose outputs the reference checker re-scores.
CHECK_SAMPLE = 2

IMAGE_W, IMAGE_H = 640.0, 480.0

SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 50
SETUP_MIN_S = 2.0


def _vocab(size: int) -> textproc.Vocabulary:
    return textproc.Vocabulary(textproc.RESERVED_TOKENS
                               + tuple(f"w{i:04d}" for i in range(size - 3)))


def _words(rng: np.random.Generator, vocab: textproc.Vocabulary, length: int) -> str:
    return " ".join(vocab.tokens[i] for i in rng.integers(3, len(vocab), size=length))


def _write_model(path: Path, rng, vocab, dims: dict):
    config = model.ScrcConfig(vocab_size=len(vocab), embed_dim=dims["dim"],
                              hidden_dim=dims["dim"], feat_dim=dims["dim"])
    params = model.ScrcParams.init(config, rng)
    datastore.save_checkpoint(params, config, vocab, path)


def _weights(params) -> dict:
    """Weights by checkpoint tensor name, for the reference checker."""
    return {t.name: t.value for t in params.tensors()}


def _random_box(rng, width: float, height: float) -> list[float]:
    x0, y0 = (float(v) for v in rng.integers(0, [width - 16, height - 16]))
    x1 = float(rng.integers(x0 + 16, width + 1))
    y1 = float(rng.integers(y0 + 16, height + 1))
    return [x0, y0, x1, y1]


def _write_regions(workdir: Path, rng, dims: dict, images: int, regions: int,
                   vocab: Optional[textproc.Vocabulary] = None, lengths=(1,)):
    """Feature stores for images x regions random boxes, plus either a
    proposals file (vocab None) or an annotations file with one description
    per region, its length cycling through ``lengths``."""
    region_store = datastore.FeatureStore(dims["dim"])
    context_store = datastore.FeatureStore(dims["dim"])
    lines = []
    for i in range(images):
        image_id = f"img{i:03d}"
        context_store.add(image_id, rng.random(dims["dim"]))
        boxes, keys = [], []
        for j in range(regions):
            key = f"{image_id}:r{j:02d}"
            region_store.add(key, rng.random(dims["dim"]))
            boxes.append(_random_box(rng, IMAGE_W, IMAGE_H))
            keys.append(key)
            if vocab is not None:
                length = lengths[(i * regions + j) % len(lengths)]
                lines.append({"image_id": image_id, "width": IMAGE_W, "height": IMAGE_H,
                              "box": boxes[-1], "region_key": key,
                              "descriptions": [_words(rng, vocab, length)]})
        if vocab is None:
            lines.append({"image_id": image_id, "boxes": boxes, "region_keys": keys})
    datastore.save_feature_store(region_store, workdir / "region_features.bin")
    datastore.save_feature_store(context_store, workdir / "context_features.bin")
    name = "proposals.jsonl" if vocab is None else "annotations.jsonl"
    with open(workdir / name, "w", encoding="utf-8") as f:
        for line in lines:
            f.write(json.dumps(line) + "\n")


class Workload:
    """Inputs, set-up and one operation of a workload.

    ``op(i)`` returns (items, units): items count toward the throughput
    (queries, sequences, descriptions) and the latency sample is the
    operation's time divided by units.
    """

    name = ""
    dims: dict = {}
    trace_ops = 1

    def __init__(self, dims: Optional[dict] = None):
        self.dims = {**type(self).dims, **(dims or {})}
        self.query_tokens = 0
        self.records: dict[int, object] = {}

    def generate(self, workdir: Path, seed: int):
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def op(self, i: int) -> tuple[int, int]:
        raise NotImplementedError

    def finish(self):
        """Work after the last operation that belongs to the run."""

    def check(self) -> dict[int, list[str]]:
        """Problems found in the recorded outputs, by operation index."""
        raise NotImplementedError

    def report(self, latencies_ms: list[float], items_per_s: float) -> dict:
        """Figures under the workload's own metric names, for the printed report."""
        raise NotImplementedError


class RetrievePaper(Workload):
    """One query over one image's 100 proposals at the paper's dimensions."""

    name = "retrieve_paper"
    dims = {"vocab": 2000, "dim": 1000, "proposals": 100, "images": 128, "top_k": 10}
    trace_ops = 2

    def generate(self, workdir, seed):
        self.seed = seed
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        self.vocab = _vocab(self.dims["vocab"])
        _write_model(workdir / "model.ckpt", rng, self.vocab, self.dims)
        _write_regions(workdir, rng, self.dims, self.dims["images"], self.dims["proposals"])

    def query(self, i: int) -> tuple[str, str]:
        rng = np.random.default_rng([self.seed, i])
        text = _words(rng, self.vocab, LENGTH_CYCLE[i % len(LENGTH_CYCLE)])
        return text, f"img{i % self.dims['images']:03d}"

    def setup(self):
        self.state = None  # free the previous set-up's arrays before loading again
        w = self.workdir
        params, config, vocab = datastore.load_checkpoint(w / "model.ckpt")
        region_store = datastore.load_feature_store(w / "region_features.bin")
        context_store = datastore.load_feature_store(w / "context_features.bin")
        psets = {p.image_id: p for p in datastore.load_proposals(w / "proposals.jsonl")}
        self.state = (params, config, vocab, region_store, context_store, psets)

    def op(self, i):
        params, config, vocab, region_store, context_store, psets = self.state
        text, image_id = self.query(i)
        ids = textproc.encode(vocab, text)
        pset = psets[image_id]
        img = geometry.ImageSize(IMAGE_W, IMAGE_H)
        x_context = context_store.get(image_id)
        requests = [model.ScoreRequest(ids, region_store.get(key), x_context,
                                       geometry.encode_spatial(box, img))
                    for box, key in zip(pset.boxes, pset.region_keys)]
        scores = model.score_candidates(params, config, requests)
        order = evalmetrics.rank_candidates(scores)
        top = order[:self.dims["top_k"]]
        self.query_tokens += len(ids) + 1
        if i < CHECK_SAMPLE:
            self.records[i] = (ids, image_id, scores, top[0])
        return 1, 1

    def check(self):
        params, _, _, region_store, context_store, psets = self.state
        ref = reference.ReferenceScorer(_weights(params))
        problems = {}
        for i, (ids, image_id, scores, top1) in self.records.items():
            pset = psets[image_id]
            want = ref.score_many(
                ids, [region_store.get(k) for k in pset.region_keys],
                [reference.spatial_descriptor(b.as_list(), IMAGE_W, IMAGE_H) for b in pset.boxes],
                context_store.get(image_id))
            problems[i] = reference.check_ranking(scores, top1, list(want))
        return problems

    def report(self, latencies_ms, items_per_s):
        return {"retrieve_ms_p50": percentile(latencies_ms, 50),
                "retrieve_queries_per_s": items_per_s}


class EvalSynth(Workload):
    """``scrc eval --scenario proposals`` over the bundled synthetic data."""

    name = "eval_synth"
    dims = {"images": 64}

    def generate(self, workdir, seed):
        self.workdir = workdir
        synth.generate_dataset(workdir, seed, n_images=self.dims["images"])
        with open(workdir / "config.json", encoding="utf-8") as f:
            cfg = json.load(f)
        captions = datastore.load_captions(workdir / "captions.jsonl")
        vocab = textproc.build_vocab(c for rec in captions for c in rec.captions)
        config = model.ScrcConfig(vocab_size=len(vocab), embed_dim=cfg["embed_dim"],
                                  hidden_dim=cfg["hidden_dim"], feat_dim=cfg["feat_dim"])
        params = model.ScrcParams.init(config, np.random.default_rng(seed))
        datastore.save_checkpoint(params, config, vocab, workdir / "model.ckpt")
        self.dims = {**self.dims, **{k: cfg[k] for k in ("embed_dim", "hidden_dim", "feat_dim")},
                     "vocab": len(vocab)}
        records = datastore.load_annotations(workdir / "annotations.jsonl")
        descriptions = [d for rec in records for d in rec.descriptions]
        self.query_count = len(descriptions)
        self.tokens_per_command = sum(len(textproc.tokenize(d)) + 1 for d in descriptions)
        self.argv = ["eval", "--scenario", "proposals", "--model", str(workdir / "model.ckpt"),
                     "--annotations", str(workdir / "annotations.jsonl"),
                     "--proposals", str(workdir / "proposals.jsonl"),
                     "--region-features", str(workdir / "region_features.bin"),
                     "--context-features", str(workdir / "context_features.bin")]

    def setup(self):
        # what the eval command loads before it scores anything
        w = self.workdir
        datastore.load_checkpoint(w / "model.ckpt")
        datastore.load_annotations(w / "annotations.jsonl")
        datastore.load_feature_store(w / "region_features.bin")
        datastore.load_feature_store(w / "context_features.bin")
        datastore.load_proposals(w / "proposals.jsonl")

    def op(self, i):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"eval exited with code {code}")
        self.records[i] = json.loads(out.getvalue())
        self.query_tokens += self.tokens_per_command
        return self.query_count, 1

    def check(self):
        return {i: reference.check_eval_report(r, self.query_count)
                for i, r in self.records.items()}

    def report(self, latencies_ms, items_per_s):
        return {"eval_queries_per_s": items_per_s}


class FinetuneMid(Workload):
    """``train.finetune_retrieval`` on one block of tuples per call.

    Each block holds steps x batch tuples with the same mix of lengths
    (1..10 tokens), and a call trains one epoch over it, so every call does
    the same work and a run gives many equal samples.
    """

    name = "finetune_mid"
    dims = {"vocab": 1000, "dim": 256, "batch": 16, "steps": 2, "blocks": 5, "lr": 0.01}
    trace_ops = 5

    def generate(self, workdir, seed):
        self.workdir = workdir
        self.seed = seed
        rng = np.random.default_rng(seed)
        vocab = _vocab(self.dims["vocab"])
        _write_model(workdir / "init.ckpt", rng, vocab, self.dims)
        block = self.dims["steps"] * self.dims["batch"]
        # 4 regions per image, one description each
        _write_regions(workdir, rng, self.dims, self.dims["blocks"] * block // 4, 4, vocab,
                       lengths=[1 + k % 10 for k in range(block)])

    def setup(self):
        self.state = None
        w = self.workdir
        params, config, vocab = datastore.load_checkpoint(w / "init.ckpt")
        records = datastore.load_annotations(w / "annotations.jsonl")
        region_store = datastore.load_feature_store(w / "region_features.bin")
        context_store = datastore.load_feature_store(w / "context_features.bin")
        tuples = datastore.build_training_tuples(records, region_store, context_store, vocab)
        self.state = (params, config, vocab, region_store, context_store, tuples)
        self.losses = []

    def op(self, i):
        params, config, _, region_store, context_store, tuples = self.state
        cfg = train.TrainConfig(lr=self.dims["lr"], steps=self.dims["steps"], seed=self.seed,
                                batch_size=self.dims["batch"])
        block = cfg.steps * cfg.batch_size
        lo = (i % self.dims["blocks"]) * block
        rep = train.finetune_retrieval(params, config, tuples[lo:lo + block], region_store,
                                       context_store, cfg)
        self.losses.extend(rep.interval_losses + [rep.final_loss])
        self.query_tokens += sum(len(t.tokens) + 1 for t in tuples[lo:lo + block])
        self.records[i] = True
        return block, cfg.steps

    def finish(self):
        params, config, vocab = self.state[:3]
        datastore.save_checkpoint(params, config, vocab, self.workdir / "trained.ckpt")

    def check(self):
        _, _, _, region_store, context_store, tuples = self.state
        records = datastore.load_annotations(self.workdir / "annotations.jsonl")
        sample = [(t.tokens, region_store.get(t.region_key),
                   reference.spatial_descriptor(r.box.as_list(), r.width, r.height),
                   context_store.get(t.image_id))
                  for t, r in zip(tuples[:32], records)]
        before, after = (
            reference.ReferenceScorer(_weights(datastore.load_checkpoint(self.workdir / f)[0]))
            for f in ("init.ckpt", "trained.ckpt"))
        last = max(self.records)
        return {last: reference.check_training(self.losses, before.mean_nll(sample),
                                               after.mean_nll(sample))}

    def report(self, latencies_ms, items_per_s):
        return {"train_seq_per_s": items_per_s, "train_ms_per_step_p50": percentile(latencies_ms, 50)}


class GenerateMid(Workload):
    """Beam search for a description of a different region each call."""

    name = "generate_mid"
    dims = {"vocab": 2000, "dim": 256, "beam": 5, "max_len": 10, "images": 64}
    trace_ops = 8

    def generate(self, workdir, seed):
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        vocab = _vocab(self.dims["vocab"])
        _write_model(workdir / "model.ckpt", rng, vocab, self.dims)
        _write_regions(workdir, rng, self.dims, self.dims["images"], 4, vocab)

    def setup(self):
        self.state = None
        w = self.workdir
        params, config, vocab = datastore.load_checkpoint(w / "model.ckpt")
        records = datastore.load_annotations(w / "annotations.jsonl")
        region_store = datastore.load_feature_store(w / "region_features.bin")
        context_store = datastore.load_feature_store(w / "context_features.bin")
        self.state = (params, config, vocab, records, region_store, context_store)

    def op(self, i):
        params, config, vocab, records, region_store, context_store = self.state
        rec = records[i % len(records)]
        x_spatial = geometry.encode_spatial(rec.box, geometry.ImageSize(rec.width, rec.height))
        tokens, log_prob = model.generate_description(
            params, config, region_store.get(rec.region_key), context_store.get(rec.image_id),
            x_spatial, self.dims["beam"], self.dims["max_len"])
        textproc.decode(vocab, tokens)
        if i < CHECK_SAMPLE:
            self.records[i] = (rec, tokens, log_prob)
        return 1, 1

    def check(self):
        params, _, _, _, region_store, context_store = self.state
        ref = reference.ReferenceScorer(_weights(params))
        return {i: reference.check_log_prob(log_prob, ref.score(
                    tokens, region_store.get(rec.region_key),
                    reference.spatial_descriptor(rec.box.as_list(), rec.width, rec.height),
                    context_store.get(rec.image_id)))
                for i, (rec, tokens, log_prob) in self.records.items()}

    def report(self, latencies_ms, items_per_s):
        return {"generate_ms_p50": percentile(latencies_ms, 50),
                "generate_ms_p90": percentile(latencies_ms, 90)}


WORKLOADS = {w.name: w for w in (RetrievePaper, EvalSynth, FinetuneMid, GenerateMid)}


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile, taking the upper sample between two ranks:
    the 50th of an even count is the upper of the two middle samples."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _failures(failed: dict[int, list[str]], checked: dict[int, list[str]]):
    for i, problems in checked.items():
        if problems:
            failed.setdefault(i, []).extend(problems)


def run_untraced(wl: Workload, seconds: float) -> dict:
    setup_times = []
    while len(setup_times) < SETUP_MIN_REPEATS or (
            sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)

    latencies, items, busy, failed = [], 0, 0.0, {}
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        try:
            n, units = wl.op(i)
        except Exception as e:  # a failed operation counts toward fail_ratio
            failed[i] = [f"{type(e).__name__}: {e}"]
        else:
            dt = time.perf_counter() - t0
            latencies.append(dt * 1e3 / units)
            items += n
            busy += dt
        i += 1
    rss = peak_rss_mb()
    wl.finish()
    _failures(failed, wl.check())
    if not latencies:
        raise RuntimeError(f"every operation failed: {failed}")
    items_per_s = items / busy
    return {
        "attempted": i, "failed": failed,
        "metrics": {
            "latency_ms_p50": (percentile(latencies, 50), "ms"),
            "setup_s": (percentile(setup_times, 50), "s"),
            "peak_rss_mb": (rss, "MB"),
        },
        "report": {"samples": len(latencies), "setup_repeats": len(setup_times),
                   **wl.report(latencies, items_per_s)},
    }


def run_traced(wl: Workload) -> dict:
    """The workload's fixed traced work: set-up, ``trace_ops`` operations and
    the finish, first untraced, then traced."""
    t0 = time.perf_counter()
    wl.setup()
    for i in range(wl.trace_ops):
        with contextlib.suppress(Exception):  # the traced pass records failures
            wl.op(i)
    wl.finish()
    untraced_s = time.perf_counter() - t0

    wl.query_tokens = 0
    wl.records = {}
    failed = {}
    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer.installed():
        with tracer.span("bench.setup", "setup"):
            wl.setup()
        for i in range(wl.trace_ops):
            with tracer.span("bench.op", i):
                try:
                    wl.op(i)
                except Exception as e:
                    failed[i] = [f"{type(e).__name__}: {e}"]
        with tracer.span("bench.finish", "finish"):
            wl.finish()
    traced_s = time.perf_counter() - t0
    _failures(failed, wl.check())

    agg = aggregate(tracer.spans)
    metrics = {}
    for name in ["bench.setup", "bench.op", "bench.finish"] + span_names():
        a = agg.get(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        metrics[f"{name}.calls"] = (a["calls"], "count")
        metrics[f"{name}.ms"] = (a["ms"], "ms")
        metrics[f"{name}.self_ms"] = (a["self_ms"], "ms")
    for unit in ("language", "global"):
        calls = agg.get(f"nncore.lstm_step.{unit}", {"calls": 0})["calls"]
        metrics[f"nncore.lstm_step.{unit}.steps_per_query_token"] = (
            calls / wl.query_tokens if wl.query_tokens else 0.0, "count")
    metrics["model.score_candidates.candidates"] = (
        tracer.counts["model.score_candidates.candidates"], "count")
    metrics["trace.overhead_pct"] = ((traced_s / untraced_s - 1.0) * 100.0, "%")
    return {"attempted": wl.trace_ops, "failed": failed, "metrics": metrics,
            "report": {"traced_s": traced_s, "untraced_s": untraced_s},
            "spans": tracer.spans}


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
        dims: Optional[dict] = None) -> dict:
    wl = WORKLOADS[name](dims)
    workdir.mkdir(parents=True, exist_ok=True)
    wl.generate(workdir, seed)
    result = run_traced(wl) if trace else run_untraced(wl, seconds)
    result["dims"] = wl.dims
    return result
