import numpy as np
import pytest

from scrc import synth, train
from scrc.datastore import (CaptionRecord, FeatureStore, build_training_tuples,
                            load_annotations, load_captions, load_feature_store)
from scrc.errors import ConfigError, InputError
from scrc.model import ScoreRequest, ScrcConfig, ScrcParams, forward_trace, sequence_log_prob
from scrc.nncore import make_rng
from scrc.textproc import build_vocab
from scrc.train import (TrainConfig, caption_requests, finetune_retrieval, make_batches,
                        pretrain_captioning, transfer_weights, tuple_requests)

from oracles import mean_loss


def snapshot(params):
    return {t.name: t.value.copy() for t in params.tensors()}


def toy_caption_setup(n_images=4, n_captions=2, hidden=16, embed=8, feat=3):
    texts = ["red bird", "blue cat", "green dog on grass", "yellow sun high up",
             "red fish", "blue sky", "small green tree", "bright yellow door"]
    captions = []
    context = FeatureStore(feat)
    rng = make_rng(100)
    for i in range(n_images):
        image_id = f"img{i}"
        context.add(image_id, rng.normal(size=feat))
        captions.append(CaptionRecord(image_id,
                                      [texts[(i * n_captions + j) % len(texts)]
                                       for j in range(n_captions)]))
    vocab = build_vocab((c for rec in captions for c in rec.captions))
    config = ScrcConfig(vocab_size=len(vocab), embed_dim=embed, hidden_dim=hidden,
                        feat_dim=feat, caption_mode=True)
    params = ScrcParams.init(config, make_rng(0))
    return params, config, captions, context, vocab


class TestMakeBatches:
    def test_partition_sizes(self):
        batches = make_batches(list(range(5)), 2, seed=0, epoch=0)
        assert [len(b) for b in batches] == [2, 2, 1]

    def test_union_is_input_multiset(self):
        items = list(range(13))
        batches = make_batches(items, 4, seed=3, epoch=1)
        assert sorted(x for b in batches for x in b) == items

    def test_deterministic_per_seed_epoch(self):
        items = list(range(20))
        assert make_batches(items, 6, 7, 2) == make_batches(items, 6, 7, 2)

    def test_epochs_permute_differently(self):
        items = list(range(50))
        flat0 = [x for b in make_batches(items, 50, 1, 0) for x in b]
        flat1 = [x for b in make_batches(items, 50, 1, 1) for x in b]
        assert flat0 != flat1


class TestTrainConfig:
    @pytest.mark.parametrize("settings, message", [
        ({"lr": float("nan")}, "learning rate"),
        ({"lr": float("inf")}, "learning rate"),
        ({"lr": 1e39}, "learning rate"),  # inf once cast to float32
        ({"momentum": float("nan")}, "momentum"),
        ({"clip_norm": float("nan")}, "clip norm"),
        ({"lr": -0.1}, "learning rate"),
        ({"batch_size": 0}, "batch_size must be >= 1, got 0"),
        ({"seed": -1}, "seed must be non-negative, got -1"),
        ({"steps": 0}, "steps must be >= 1, got 0"),
    ])
    def test_bad_optimizer_settings_rejected(self, settings, message):
        with pytest.raises(ConfigError, match=message):
            TrainConfig(**{"lr": 0.01, "steps": 1, "seed": 0, **settings})


class TestPretrain:
    def test_loss_decreases_on_toy_set(self):
        params, config, captions, context, vocab = toy_caption_setup()
        requests = caption_requests(captions, context, vocab)
        before = mean_loss(params, config, requests)
        pretrain_captioning(params, config, captions, context, vocab,
                            TrainConfig(lr=0.01, steps=500, seed=0, batch_size=8))
        after = mean_loss(params, config, requests)
        assert after < before

    def test_one_pair_overfits(self):
        captions = [CaptionRecord("img0", ["red bird"])]
        context = FeatureStore(3)
        context.add("img0", [0.5, -1.0, 2.0])
        vocab = build_vocab(["red bird"])
        config = ScrcConfig(vocab_size=len(vocab), embed_dim=8, hidden_dim=16, feat_dim=3,
                            caption_mode=True)
        params = ScrcParams.init(config, make_rng(1))
        report = pretrain_captioning(params, config, captions, context, vocab,
                                     TrainConfig(lr=0.05, steps=800, seed=0, batch_size=1))
        assert report.final_loss < 0.1

    def test_local_branch_untouched(self):
        params, config, captions, context, vocab = toy_caption_setup()
        before = {t.name: t.value.copy()
                  for t in params.lstm_local.tensors() + [params.W_local]}
        pretrain_captioning(params, config, captions, context, vocab,
                            TrainConfig(lr=0.05, steps=50, seed=0, batch_size=4))
        for t in params.lstm_local.tensors() + [params.W_local]:
            assert np.array_equal(t.value, before[t.name])
        assert not np.array_equal(params.W_global.value, np.zeros(1))  # sanity

    def test_optimizer_steps_the_fused_tensors(self, monkeypatch):
        stepped = []

        class Recording(train.SgdOptimizer):
            def __init__(self, params, **kwargs):
                stepped.extend(t.name for t in params)
                super().__init__(params, **kwargs)

        monkeypatch.setattr(train, "SgdOptimizer", Recording)
        params, config, captions, context, vocab = toy_caption_setup()
        pretrain_captioning(params, config, captions, context, vocab,
                            TrainConfig(lr=0.05, steps=1, seed=0, batch_size=4))
        assert stepped == [t.name for t in params.fused_tensors()]

    def test_report_names_the_pretrain_phase(self):
        params, config, captions, context, vocab = toy_caption_setup()
        report = pretrain_captioning(params, config, captions, context, vocab,
                                     TrainConfig(lr=0.01, steps=1, seed=0))
        assert report.phase == "pretrain"
        assert report.to_dict()["phase"] == "pretrain"

    def test_requires_caption_mode(self):
        params, config, captions, context, vocab = toy_caption_setup()
        full = config.replace(caption_mode=False)
        with pytest.raises(ConfigError):
            pretrain_captioning(params, full, captions, context, vocab,
                                TrainConfig(lr=0.01, steps=1, seed=0))

    def test_unresolvable_image_named(self):
        params, config, captions, context, vocab = toy_caption_setup()
        captions.append(CaptionRecord("ghost", ["nothing here"]))
        with pytest.raises(InputError, match="ghost"):
            pretrain_captioning(params, config, captions, context, vocab,
                                TrainConfig(lr=0.01, steps=1, seed=0))


class TestTransfer:
    def setup_transferred(self, seed=0):
        config = ScrcConfig(vocab_size=7, embed_dim=4, hidden_dim=6, feat_dim=5)
        params = ScrcParams.init(config, make_rng(seed), radius=0.5)
        transfer_weights(params, config)
        return params, config

    def test_local_tracks_global_when_features_match(self):
        params, config = self.setup_transferred()
        rng = make_rng(50)
        shared = rng.normal(size=config.feat_dim)
        req = ScoreRequest([3, 4, 5], shared, shared, rng.uniform(-1, 1, size=8))
        trace = forward_trace(params, config, req)
        for rec in trace.steps:
            assert np.max(np.abs(rec.cache_local.h - rec.cache_glob.h)) < 1e-6
            assert np.max(np.abs(rec.cache_local.c - rec.cache_glob.c)) < 1e-6

    def test_caption_scores_bit_identical_before_and_after(self):
        config = ScrcConfig(vocab_size=7, embed_dim=4, hidden_dim=6, feat_dim=5,
                            caption_mode=True)
        params = ScrcParams.init(config, make_rng(3), radius=0.5)
        rng = make_rng(51)
        reqs = [ScoreRequest([3, 5], None, rng.normal(size=5), None) for _ in range(5)]
        before = [sequence_log_prob(params, config, r) for r in reqs]
        transfer_weights(params, config.replace(caption_mode=False))
        after = [sequence_log_prob(params, config, r) for r in reqs]
        assert before == after

    def test_spatial_columns_zeroed(self):
        params, config = self.setup_transferred()
        lo = config.hidden_dim + config.feat_dim
        for name in ("W_xi", "W_xf", "W_xo", "W_xg"):
            w = getattr(params.lstm_local, name).value
            assert np.array_equal(w[:, lo:], np.zeros_like(w[:, lo:]))
            assert np.array_equal(w[:, :lo], getattr(params.lstm_global, name).value)

    def test_prediction_weights_copied_not_aliased(self):
        params, config = self.setup_transferred()
        assert np.array_equal(params.W_local.value, params.W_global.value)
        w_global_before = params.W_global.value.copy()
        params.W_local.value[0, 0] += 1.0
        assert np.array_equal(params.W_global.value, w_global_before)

    def test_only_local_branch_changes(self):
        config = ScrcConfig(vocab_size=7, embed_dim=4, hidden_dim=6, feat_dim=5)
        params = ScrcParams.init(config, make_rng(4), radius=0.5)
        before = snapshot(params)
        transfer_weights(params, config)
        changed = {name for name, v in snapshot(params).items()
                   if not np.array_equal(v, before[name])}
        assert changed <= ({"W_local"} | {t.name for t in params.lstm_local.tensors()})
        assert "W_local" in changed

    def test_incompatible_shapes_rejected(self):
        config = ScrcConfig(vocab_size=7, embed_dim=4, hidden_dim=6, feat_dim=5)
        params = ScrcParams.init(config, make_rng(5))
        bad = ScrcConfig(vocab_size=7, embed_dim=4, hidden_dim=6, feat_dim=5)
        params.lstm_global = type(params.lstm_global)("lstm_global", 6, 6 + 4)
        with pytest.raises(ConfigError):
            transfer_weights(params, bad)


def synth_setup(tmp_path, n_images=6, hidden=16, embed=8):
    out = tmp_path / "data"
    synth.generate_dataset(out, seed=0, n_images=n_images)
    records = load_annotations(out / "annotations.jsonl")
    region = load_feature_store(out / "region_features.bin")
    context = load_feature_store(out / "context_features.bin")
    vocab = build_vocab((d for r in records for d in r.descriptions))
    config = ScrcConfig(vocab_size=len(vocab), embed_dim=embed, hidden_dim=hidden,
                        feat_dim=region.dim)
    params = ScrcParams.init(config, make_rng(0))
    tuples = build_training_tuples(records, region, context, vocab)
    return params, config, tuples, region, context


class TestFinetune:
    def test_loss_decreases_monotonically_over_windows(self, tmp_path):
        params, config, tuples, region, context = synth_setup(tmp_path)
        report = finetune_retrieval(params, config, tuples, region, context,
                                    TrainConfig(lr=0.01, steps=1000, seed=0, batch_size=8))
        windows = report.interval_losses
        assert len(windows) == 10  # 100-step windows
        assert all(b < a for a, b in zip(windows, windows[1:]))

    def test_zero_lr_keeps_params(self, tmp_path):
        params, config, tuples, region, context = synth_setup(tmp_path, n_images=2)
        before = snapshot(params)
        finetune_retrieval(params, config, tuples, region, context,
                           TrainConfig(lr=0.0, steps=20, seed=0, batch_size=4))
        for t in params.tensors():
            assert np.array_equal(t.value, before[t.name])

    def test_same_seed_same_params(self, tmp_path):
        runs = []
        for _ in range(2):
            params, config, tuples, region, context = synth_setup(tmp_path / f"r{_}",
                                                                  n_images=3)
            finetune_retrieval(params, config, tuples, region, context,
                               TrainConfig(lr=0.02, steps=40, seed=9, batch_size=8))
            runs.append(snapshot(params))
        for name in runs[0]:
            assert np.array_equal(runs[0][name], runs[1][name])

    def test_empty_tuples_rejected(self, tmp_path):
        params, config, _, region, context = synth_setup(tmp_path, n_images=2)
        with pytest.raises(InputError):
            finetune_retrieval(params, config, [], region, context,
                               TrainConfig(lr=0.01, steps=1, seed=0))

    def test_caption_mode_rejected(self, tmp_path):
        params, config, tuples, region, context = synth_setup(tmp_path, n_images=2)
        with pytest.raises(ConfigError):
            finetune_retrieval(params, config.replace(caption_mode=True), tuples, region,
                               context, TrainConfig(lr=0.01, steps=1, seed=0))

    def test_first_batch_loss_is_mean_of_tuple_losses(self, tmp_path):
        params, config, tuples, region, context = synth_setup(tmp_path, n_images=3)
        requests = tuple_requests(tuples, region, context)
        batch = make_batches(requests, 4, seed=5, epoch=0)[0]
        expected = -sum(sequence_log_prob(params, config, r) for r in batch) / len(batch)
        report = finetune_retrieval(params, config, tuples, region, context,
                                    TrainConfig(lr=0.01, steps=1, seed=5, batch_size=4))
        assert report.final_loss == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("ends", ["mid-epoch", "epoch boundary"])
    def test_steps_run_epoch_after_epoch(self, tmp_path, monkeypatch, ends):
        """Steps take each epoch's batches in turn, drawing an epoch only
        when it is needed, and the report windows their losses."""
        params, config, tuples, region, context = synth_setup(tmp_path, n_images=2)
        epoch_steps = -(-len(tuples) // 3)
        assert epoch_steps > 1
        steps = 2 * epoch_steps + (ends == "mid-epoch")
        drawn, run = [], []

        def drawing(items, batch_size, seed, epoch):
            drawn.append((items, epoch))
            return make_batches(items, batch_size, seed, epoch)

        def running(params, config, batch):
            run.append((batch, forward_batch(params, config, batch)))
            return run[-1][1]

        forward_batch = train.forward_batch
        monkeypatch.setattr(train, "make_batches", drawing)
        monkeypatch.setattr(train, "forward_batch", running)
        report = finetune_retrieval(params, config, tuples, region, context,
                                    TrainConfig(lr=0.01, steps=steps, seed=4, batch_size=3))
        assert [epoch for _, epoch in drawn] == list(range(2 + (ends == "mid-epoch")))
        want = [b for items, epoch in drawn for b in make_batches(items, 3, 4, epoch)][:steps]
        assert [list(map(id, b)) for b, _ in run] == [list(map(id, b)) for b in want]
        losses = [-sum(t.log_probs.tolist()) / len(b) for b, t in run]
        interval = max(1, steps // 10)
        ends_at = [k for k in range(1, steps + 1) if k % interval == 0 or k == steps]
        assert report.interval_losses == [
            sum(losses[lo:hi]) / (hi - lo) for lo, hi in zip([0] + ends_at, ends_at)]
        assert report.final_loss == losses[-1]
        assert (report.steps, report.batch_size) == (steps, 3)

    def test_report_fields(self, tmp_path):
        params, config, tuples, region, context = synth_setup(tmp_path, n_images=2)
        report = finetune_retrieval(params, config, tuples, region, context,
                                    TrainConfig(lr=0.01, steps=12, seed=0, batch_size=4))
        assert report.steps == 12
        assert report.phase == "finetune"
        assert report.wall_time_s >= 0
        assert all(np.isfinite(x) and x >= 0 for x in report.interval_losses)
        d = report.to_dict()
        assert set(d) == {"phase", "steps", "batch_size", "interval_losses", "final_loss",
                          "wall_time_s"}
