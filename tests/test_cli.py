import contextlib
import io
import json
import os
import re
import resource
import signal
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import scrc
from scrc import cli, datastore, evalmetrics, gradcheck
from scrc.cli import _build_parser, _load_config_file, main
from scrc.datastore import (load_annotations, load_checkpoint, load_feature_store,
                            load_proposals, save_checkpoint)
from scrc.errors import ConfigError, InputError
from scrc.geometry import ImageSize, encode_spatial
from scrc.model import ScoreRequest, backward, score_candidates, sequence_log_prob
from scrc.nncore import make_rng
from scrc.textproc import encode


def run_cli(argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run_cli(argv)
    assert code == 0, f"command failed: {err}"
    return json.loads(out)


def python_env() -> dict:
    """The environment of a child python that imports the package under test."""
    src = str(Path(scrc.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def run_python(args, preexec_fn=None):
    """Run python with args, the package under test importable; returns the
    CompletedProcess. preexec_fn runs in the child before python starts."""
    return subprocess.run([sys.executable, *args], env=python_env(), capture_output=True,
                          text=True, timeout=120, preexec_fn=preexec_fn)


def run_cli_subprocess(argv, preexec_fn=None):
    """Invoke the CLI in a subprocess, so that an uncaught exception shows as a
    traceback on stderr; returns the CompletedProcess."""
    return run_python(["-c", "import sys; from scrc.cli import main; sys.exit(main())", *argv],
                      preexec_fn)


def assert_error_exit(proc, *fragments):
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    for fragment in fragments:
        assert fragment in proc.stderr


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("synth")
    assert run_cli(["synth", "--out-dir", str(d), "--seed", "0", "--images", "8"])[0] == 0
    return d


@pytest.fixture(scope="module")
def pretrained(synth_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "pretrained.ckpt"
    code, out, err = run_cli([
        "pretrain", "--captions", str(synth_dir / "captions.jsonl"),
        "--context-features", str(synth_dir / "context_features.bin"),
        "--config", str(synth_dir / "config.json"),
        "--out", str(path), "--steps", "40", "--seed", "0"])
    assert code == 0, err
    return path


@pytest.fixture(scope="module")
def transferred(pretrained, tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "transferred.ckpt"
    assert run_cli(["transfer", "--in", str(pretrained), "--out", str(path)])[0] == 0
    return path


@pytest.fixture(scope="module")
def finetuned(transferred, synth_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "finetuned.ckpt"
    code, out, err = run_cli([
        "finetune", "--annotations", str(synth_dir / "annotations.jsonl"),
        "--region-features", str(synth_dir / "region_features.bin"),
        "--context-features", str(synth_dir / "context_features.bin"),
        "--in", str(transferred), "--out", str(path),
        "--config", str(synth_dir / "config.json"), "--steps", "60", "--seed", "0"])
    assert code == 0, err
    return path


def scorer_args(synth_dir, model, command):
    """A retrieve or generate command line that loads model and both stores."""
    stores = ["--region-features", str(synth_dir / "region_features.bin"),
              "--context-features", str(synth_dir / "context_features.bin")]
    if command == "retrieve":
        return ["retrieve", "--model", str(model), "--query", "red left", "--image-id",
                "img00", "--proposals", str(synth_dir / "proposals.jsonl"), *stores,
                "--width", "320", "--height", "240"]
    return ["generate", "--model", str(model), "--region-key", "img00:left",
            "--image-id", "img00", "--width", "320", "--height", "240", *stores]


class TestFlagsRefusedBeforeLoading:
    """A flag that the command would refuse is refused before the checkpoint
    and the stores are read, with the message it had after them."""

    @pytest.fixture(autouse=True)
    def no_loading(self, monkeypatch):
        def load(path):
            raise AssertionError("loaded a checkpoint for a command that its flags refuse")

        monkeypatch.setattr(datastore, "load_checkpoint", load)

    @pytest.mark.parametrize("command, flags, message", [
        ("retrieve", ["--top-k", "0"], "--top-k must be >= 1, got 0"),
        ("retrieve", ["--top-k", "-3"], "--top-k must be >= 1, got -3"),
        ("generate", ["--box", "a,b,c,d"], "--box must be X1,Y1,X2,Y2, got 'a,b,c,d'"),
        ("generate", ["--box", "1,2,3"], "--box must have 4 coordinates, got 3"),
        ("generate", ["--box", "0,0,500,10"],
         "box [0.0, 0.0, 500.0, 10.0] not contained in 320.0x240.0 image"),
        ("generate", ["--box", "5,5,1,1"],
         "degenerate box (5.0, 5.0, 1.0, 1.0): max corner must exceed min corner"),
        ("generate", ["--box", "1,1,nan,5"],
         "box coordinates must be finite, got (1.0, 1.0, nan, 5.0)"),
        ("generate", ["--box", "1,2,3,4", "--beam", "0"],
         "beam_width must be from 1 to 1024, got 0"),
        ("generate", ["--box", "1,2,3,4", "--beam", "1025"],
         "beam_width must be from 1 to 1024, got 1025"),
        ("generate", ["--box", "1,2,3,4", "--max-len", "0"],
         "max_len must be from 1 to 1024, got 0"),
        ("generate", ["--box", "1,2,3,4", "--max-len", "1025"],
         "max_len must be from 1 to 1024, got 1025"),
    ], ids=["top-k-0", "top-k-negative", "box-text", "box-three", "box-outside",
            "box-degenerate", "box-nan", "beam-0", "beam-1025", "max-len-0", "max-len-1025"])
    def test_scorer_flag(self, synth_dir, tmp_path, command, flags, message):
        code, stdout, err = run_cli(scorer_args(synth_dir, tmp_path / "m.ckpt", command)
                                    + flags)
        assert (code, stdout, err) == (1, "", f"error: {message}\n")

    def test_proposals_scenario_without_proposals(self, synth_dir, tmp_path):
        args = TestEval().eval_args(synth_dir, tmp_path / "m.ckpt", "gt")
        args[args.index("gt")] = "proposals"
        code, stdout, err = run_cli(args)
        assert (code, stdout) == (1, "")
        assert err == "error: --proposals is required for the proposals scenario\n"


def test_interrupt_is_a_named_error_with_exit_130(synth_dir, tmp_path, monkeypatch):
    """Ctrl-C ends a command with exit 130, the shell's code for SIGINT, and
    a one-line message; the checkpoint it was training is not written."""
    def train(*_):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "pretrain_captioning", train)
    out = tmp_path / "out" / "pre.ckpt"
    out.parent.mkdir()
    code, stdout, err = run_cli([
        "pretrain", "--captions", str(synth_dir / "captions.jsonl"),
        "--context-features", str(synth_dir / "context_features.bin"),
        "--config", str(synth_dir / "config.json"), "--out", str(out), "--steps", "1"])
    assert (code, stdout, err) == (130, "", "error: interrupted\n")
    assert os.listdir(out.parent) == []


# main under python -c, saying "stepped" on stderr once the first optimizer step has returned
ANNOUNCE_FIRST_STEP = """
import signal, sys
from scrc import nncore
from scrc.cli import main

signal.signal(signal.SIGINT, signal.default_int_handler)  # a background job may ignore it
step = nncore.SgdOptimizer.step

def first_step(self):
    step(self)
    nncore.SgdOptimizer.step = step
    print("stepped", file=sys.stderr, flush=True)

nncore.SgdOptimizer.step = first_step
sys.exit(main())
"""


def test_sigint_during_pretrain_is_a_named_error(synth_dir, tmp_path):
    """A real SIGINT, sent after pretrain's first step, ends it with exit 130
    and one line, and leaves neither a checkpoint nor a temp file."""
    out = tmp_path / "out" / "pre.ckpt"
    out.parent.mkdir()
    proc = subprocess.Popen([
        sys.executable, "-c", ANNOUNCE_FIRST_STEP, "pretrain",
        "--captions", str(synth_dir / "captions.jsonl"),
        "--context-features", str(synth_dir / "context_features.bin"),
        "--config", str(synth_dir / "config.json"), "--out", str(out), "--steps", "1000000"],
        env=python_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        first = []
        reader = threading.Thread(target=lambda: first.append(proc.stderr.readline()))
        reader.start()
        reader.join(timeout=120)
        assert first == ["stepped\n"], "no step finished"
        proc.send_signal(signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert (proc.returncode, stdout) == (130, "")
    assert stderr.endswith("error: interrupted\n") and "Traceback" not in stderr, stderr
    assert os.listdir(out.parent) == []


def test_closed_stdout_is_a_named_error(tmp_path):
    """The JSON written to a pipe whose read end is closed fails as an
    OSError with exit 1, and nothing fails at interpreter exit. Unbuffered,
    the write fails inside the command; buffered, main's flush fails."""
    src = str(Path(scrc.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    for run, unbuffered in enumerate(({"PYTHONUNBUFFERED": "1"}, {})):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "scrc.cli", "synth", "--out-dir",
                                   str(tmp_path / str(run)), "--images", "1"], stdout=write_end,
                                  stderr=subprocess.PIPE, env={**env, **unbuffered}, text=True,
                                  timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "error: [Errno 32] Broken pipe\n"), unbuffered


class TestSynth:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        manifest_a = run_json(["synth", "--out-dir", str(a), "--seed", "5"])
        manifest_b = run_json(["synth", "--out-dir", str(b), "--seed", "5"])
        assert manifest_a["files"] == manifest_b["files"]
        for name in manifest_a["files"]:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_json(["synth", "--out-dir", str(a), "--seed", "1"])
        run_json(["synth", "--out-dir", str(b), "--seed", "2"])
        assert (a / "annotations.jsonl").read_bytes() != (b / "annotations.jsonl").read_bytes()

    def test_manifest_counts(self, tmp_path):
        m = run_json(["synth", "--out-dir", str(tmp_path / "d"), "--seed", "0",
                      "--images", "4"])
        assert m["images"] == 4
        assert m["annotations"] == 16


def test_module_run_prints_usage():
    proc = run_python(["-m", "scrc.cli", "--help"])
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: ")


class TestWriteErrors:
    """A failed write names the path asked for, not the temp file behind it."""

    def test_checkpoint_into_missing_directory(self, synth_dir, tmp_path):
        out = tmp_path / "nodir" / "x.ckpt"
        code, _, err = run_cli([
            "pretrain", "--captions", str(synth_dir / "captions.jsonl"),
            "--context-features", str(synth_dir / "context_features.bin"),
            "--config", str(synth_dir / "config.json"), "--out", str(out), "--steps", "1"])
        assert code == 1
        assert err.startswith("error: ") and err.endswith(f": '{out}'\n")

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    @pytest.mark.parametrize("out", ["", "directory", "nodir/x.ckpt"])
    def test_unwritable_checkpoint_path_refused_before_training(self, synth_dir, tmp_path,
                                                                monkeypatch, command, out):
        def train(*_):
            raise AssertionError("trained for a checkpoint that cannot be written")

        monkeypatch.setattr(cli, "pretrain_captioning", train)
        monkeypatch.setattr(cli, "finetune_retrieval", train)
        (tmp_path / "directory").mkdir()
        out = str(tmp_path / out) if out else out
        inputs = {
            "pretrain": ["--captions", str(synth_dir / "captions.jsonl")],
            "finetune": ["--annotations", str(synth_dir / "annotations.jsonl"),
                         "--region-features", str(synth_dir / "region_features.bin"),
                         "--no-transfer-init"]}[command]
        code, stdout, err = run_cli([
            command, *inputs, "--context-features", str(synth_dir / "context_features.bin"),
            "--config", str(synth_dir / "config.json"), "--out", out, "--steps", "1"])
        assert (code, stdout) == (1, "")
        assert err.startswith("error: ") and err.endswith(f": '{out}'\n")

    @pytest.mark.parametrize("out", ["", "directory", "nodir/q.csv"])
    def test_unwritable_per_query_path_refused_before_scoring(self, synth_dir, finetuned,
                                                              tmp_path, monkeypatch, out):
        def decode(*_):
            raise AssertionError("scored queries for a CSV that cannot be written")

        monkeypatch.setattr("scrc.model._decode", decode)
        (tmp_path / "directory").mkdir()
        out = str(tmp_path / out) if out else out
        code, stdout, err = run_cli(TestEval().eval_args(synth_dir, finetuned, "proposals")
                                    + ["--per-query", out])
        assert (code, stdout) == (1, "")
        assert err.startswith("error: ") and err.endswith(f": '{out}'\n")

    @pytest.mark.parametrize("out", ["", "directory", "nodir/x.ckpt"])
    def test_unwritable_transfer_out_refused_before_loading(self, pretrained, tmp_path,
                                                            monkeypatch, out):
        def load(path):
            raise AssertionError("loaded a checkpoint that cannot be written back")

        monkeypatch.setattr(datastore, "load_checkpoint", load)
        (tmp_path / "directory").mkdir()
        out = str(tmp_path / out) if out else out
        code, stdout, err = run_cli(["transfer", "--in", str(pretrained), "--out", out])
        assert (code, stdout) == (1, "")
        assert err.startswith("error: ") and err.endswith(f": '{out}'\n")

    def test_empty_synth_out_dir_refused(self, tmp_path, monkeypatch):
        """Path("") is the working directory; an empty --out-dir is refused
        as an empty --out is."""
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run_cli(["synth", "--out-dir", "", "--images", "1"])
        assert (code, stdout) == (1, "")
        assert err == "error: [Errno 2] No such file or directory: ''\n"
        assert os.listdir(tmp_path) == []

    def test_feature_store_over_directory(self, tmp_path):
        (tmp_path / "region_features.bin").mkdir()
        code, _, err = run_cli(["synth", "--out-dir", str(tmp_path), "--images", "1"])
        assert code == 1
        assert err.startswith("error: ")
        assert err.endswith(f": '{tmp_path / 'region_features.bin'}'\n")
        assert [p.name for p in tmp_path.iterdir()] == ["region_features.bin"]


class TestPretrain:
    def test_checkpoint_loads_in_caption_mode(self, pretrained):
        params, config, vocab = load_checkpoint(pretrained)
        assert config.caption_mode
        assert len(vocab) == config.vocab_size

    def test_deterministic_across_runs(self, synth_dir, tmp_path):
        args = ["pretrain", "--captions", str(synth_dir / "captions.jsonl"),
                "--context-features", str(synth_dir / "context_features.bin"),
                "--config", str(synth_dir / "config.json"), "--steps", "15", "--seed", "3"]
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        run_json(args + ["--out", str(p1)])
        run_json(args + ["--out", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_feature_key_exit_1(self, synth_dir, tmp_path):
        captions = tmp_path / "bad.jsonl"
        captions.write_text(json.dumps({"image_id": "ghost99", "captions": ["x y"]}) + "\n")
        code, _, err = run_cli([
            "pretrain", "--captions", str(captions),
            "--context-features", str(synth_dir / "context_features.bin"),
            "--config", str(synth_dir / "config.json"),
            "--out", str(tmp_path / "o.ckpt"), "--steps", "2"])
        assert code == 1
        assert "ghost99" in err

    def test_unknown_config_key_rejected(self, synth_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hidden_dim": 8, "learning_rate": 0.1}))
        code, _, err = run_cli([
            "pretrain", "--captions", str(synth_dir / "captions.jsonl"),
            "--context-features", str(synth_dir / "context_features.bin"),
            "--config", str(cfg), "--out", str(tmp_path / "o.ckpt")])
        assert code == 1
        assert "learning_rate" in err


    def test_corrupted_captions_exit_1(self, synth_dir, tmp_path):
        data = (synth_dir / "captions.jsonl").read_bytes()
        bad = tmp_path / "captions.jsonl"
        bad.write_bytes(data[:data.index(b"captions", len(data) // 2)])  # mid-record
        proc = run_cli_subprocess([
            "pretrain", "--captions", str(bad),
            "--context-features", str(synth_dir / "context_features.bin"),
            "--config", str(synth_dir / "config.json"),
            "--out", str(tmp_path / "o.ckpt"), "--steps", "2"])
        assert_error_exit(proc, "captions.jsonl: line ")
        assert not (tmp_path / "o.ckpt").exists()

    def test_deeply_nested_captions_exit_1(self, synth_dir, tmp_path):
        bad = tmp_path / "captions.jsonl"
        bad.write_text('{"image_id": "img0", "captions": ["a"]}\n'
                       '{"image_id": "img1", "captions": ' + "[" * 100000 + "]" * 100000
                       + "}\n")
        proc = run_cli_subprocess([
            "pretrain", "--captions", str(bad),
            "--context-features", str(synth_dir / "context_features.bin"),
            "--config", str(synth_dir / "config.json"),
            "--out", str(tmp_path / "o.ckpt"), "--steps", "2"])
        assert_error_exit(proc, f"{bad}: line 2: invalid JSON")
        assert not (tmp_path / "o.ckpt").exists()

    def test_caption_without_tokens_names_the_captions_file(self, synth_dir, tmp_path):
        captions = tmp_path / "captions.jsonl"
        captions.write_text(json.dumps({"image_id": "img00", "captions": ["red left", "!!!"]})
                            + "\n")
        code, _, err = run_cli([
            "pretrain", "--captions", str(captions),
            "--context-features", str(synth_dir / "context_features.bin"),
            "--config", str(synth_dir / "config.json"),
            "--out", str(tmp_path / "o.ckpt"), "--steps", "1"])
        assert (code, err) == (1, f"error: {captions}: caption tokenizes to nothing: '!!!'\n")


class TestTransfer:
    def test_caption_scores_unchanged(self, pretrained, transferred):
        p_before, c_before, vocab = load_checkpoint(pretrained)
        p_after, c_after, _ = load_checkpoint(transferred)
        assert not c_after.caption_mode
        rng = make_rng(4)
        for _ in range(5):
            req = ScoreRequest([3, 4], None, rng.normal(size=c_before.feat_dim).astype(
                np.float32), None)
            assert sequence_log_prob(p_before, c_before, req) == sequence_log_prob(
                p_after, c_before, req)

    def test_spatial_columns_zero(self, transferred):
        params, config, _ = load_checkpoint(transferred)
        lo = config.hidden_dim + config.feat_dim
        for name in ("W_xi", "W_xf", "W_xo", "W_xg"):
            w = getattr(params.lstm_local, name).value
            assert np.array_equal(w[:, lo:], np.zeros_like(w[:, lo:]))

    def test_prediction_weights_equal(self, transferred):
        params, _, _ = load_checkpoint(transferred)
        assert np.array_equal(params.W_local.value, params.W_global.value)

    def test_deeply_nested_checkpoint_header_exit_1(self, pretrained, tmp_path):
        data = pretrained.read_bytes()
        hlen = struct.unpack("<I", data[12:16])[0]
        header = b"[" * 100000 + b"]" * 100000
        bad = tmp_path / "nested.ckpt"
        bad.write_bytes(data[:12] + struct.pack("<I", len(header)) + header + data[16 + hlen:])
        out = tmp_path / "x.ckpt"
        proc = run_cli_subprocess(["transfer", "--in", str(bad), "--out", str(out)])
        assert_error_exit(proc, f"{bad}: checkpoint: header: invalid JSON")
        assert not out.exists()

    def test_checkpoint_header_without_vocab_names_file(self, pretrained, tmp_path):
        data = pretrained.read_bytes()
        hlen = struct.unpack("<I", data[12:16])[0]
        header = json.loads(data[16:16 + hlen])
        del header["vocab"]
        hb = json.dumps(header).encode("utf-8")
        bad = tmp_path / "novocab.ckpt"
        bad.write_bytes(data[:12] + struct.pack("<I", len(hb)) + hb + data[16 + hlen:])
        out = tmp_path / "x.ckpt"
        proc = run_cli_subprocess(["transfer", "--in", str(bad), "--out", str(out)])
        assert_error_exit(proc, f"error: {bad}: checkpoint: header missing 'vocab'")
        assert not out.exists()

    def test_rejects_full_mode_input(self, transferred, tmp_path):
        code, _, err = run_cli(["transfer", "--in", str(transferred),
                                "--out", str(tmp_path / "x.ckpt")])
        assert code == 1
        assert "caption-mode" in err


class TestFinetune:
    def test_loss_improves(self, synth_dir, transferred, tmp_path):
        out = run_json([
            "finetune", "--annotations", str(synth_dir / "annotations.jsonl"),
            "--region-features", str(synth_dir / "region_features.bin"),
            "--context-features", str(synth_dir / "context_features.bin"),
            "--in", str(transferred), "--out", str(tmp_path / "f.ckpt"),
            "--config", str(synth_dir / "config.json"),
            "--steps", "200", "--lr", "0.02", "--seed", "0"])
        assert out["final_loss"] < out["interval_losses"][0]

    def test_mask_flags_recorded(self, synth_dir, transferred, tmp_path):
        path = tmp_path / "m.ckpt"
        run_json(["finetune", "--annotations", str(synth_dir / "annotations.jsonl"),
                  "--region-features", str(synth_dir / "region_features.bin"),
                  "--context-features", str(synth_dir / "context_features.bin"),
                  "--in", str(transferred), "--out", str(path),
                  "--config", str(synth_dir / "config.json"),
                  "--steps", "3", "--mask-spatial"])
        _, config, _ = load_checkpoint(path)
        assert config.mask_spatial and not config.mask_context

    def test_four_ablation_combos_distinct(self, synth_dir, transferred, tmp_path):
        blobs = []
        for i, flags in enumerate(([], ["--mask-spatial"], ["--mask-context"],
                                   ["--mask-spatial", "--mask-context"])):
            path = tmp_path / f"ab{i}.ckpt"
            run_json(["finetune", "--annotations", str(synth_dir / "annotations.jsonl"),
                      "--region-features", str(synth_dir / "region_features.bin"),
                      "--context-features", str(synth_dir / "context_features.bin"),
                      "--in", str(transferred), "--out", str(path),
                      "--config", str(synth_dir / "config.json"), "--steps", "5"] + flags)
            load_checkpoint(path)  # must parse
            blobs.append(path.read_bytes())
        assert len({b for b in blobs}) == 4

    def test_no_transfer_init_builds_vocab_from_annotations(self, synth_dir, tmp_path):
        path = tmp_path / "scratch.ckpt"
        run_json(["finetune", "--annotations", str(synth_dir / "annotations.jsonl"),
                  "--region-features", str(synth_dir / "region_features.bin"),
                  "--context-features", str(synth_dir / "context_features.bin"),
                  "--no-transfer-init", "--out", str(path),
                  "--config", str(synth_dir / "config.json"), "--steps", "3"])
        _, config, vocab = load_checkpoint(path)
        assert "left" in vocab.tokens and "red" in vocab.tokens

    def test_caption_mode_checkpoint_rejected(self, synth_dir, pretrained, tmp_path):
        code, _, err = run_cli([
            "finetune", "--annotations", str(synth_dir / "annotations.jsonl"),
            "--region-features", str(synth_dir / "region_features.bin"),
            "--context-features", str(synth_dir / "context_features.bin"),
            "--in", str(pretrained), "--out", str(tmp_path / "x.ckpt"), "--steps", "1"])
        assert code == 1
        assert "transfer" in err

    def test_requires_input_or_scratch(self, synth_dir, tmp_path):
        code, _, err = run_cli([
            "finetune", "--annotations", str(synth_dir / "annotations.jsonl"),
            "--region-features", str(synth_dir / "region_features.bin"),
            "--context-features", str(synth_dir / "context_features.bin"),
            "--out", str(tmp_path / "x.ckpt"), "--steps", "1"])
        assert code == 1

    def test_dim_conflict_rejected(self, synth_dir, transferred, tmp_path):
        code, _, err = run_cli([
            "finetune", "--annotations", str(synth_dir / "annotations.jsonl"),
            "--region-features", str(synth_dir / "region_features.bin"),
            "--context-features", str(synth_dir / "context_features.bin"),
            "--in", str(transferred), "--out", str(tmp_path / "x.ckpt"),
            "--steps", "1", "--hidden-dim", "99"])
        assert code == 1
        assert "hidden_dim" in err

    def test_dim_conflict_names_the_checkpoint(self, synth_dir, transferred, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(json.loads((synth_dir / "config.json").read_text()),
                                          embed_dim=36)))
        code, _, err = run_cli([
            "finetune", "--annotations", str(synth_dir / "annotations.jsonl"),
            "--region-features", str(synth_dir / "region_features.bin"),
            "--context-features", str(synth_dir / "context_features.bin"),
            "--in", str(transferred), "--config", str(config),
            "--out", str(tmp_path / "x.ckpt"), "--steps", "1"])
        assert (code, err) == (
            1, f"error: {transferred}: embed_dim=36 conflicts with checkpoint value 16\n")

    def test_description_without_tokens_names_the_annotations_file(self, synth_dir,
                                                                   transferred, tmp_path):
        lines = (synth_dir / "annotations.jsonl").read_text().splitlines(keepends=True)
        annotations = tmp_path / "annotations.jsonl"
        annotations.write_text("".join(
            [json.dumps(dict(json.loads(lines[0]), descriptions=["..."])) + "\n", *lines[1:]]))
        code, _, err = run_cli([
            "finetune", "--annotations", str(annotations),
            "--region-features", str(synth_dir / "region_features.bin"),
            "--context-features", str(synth_dir / "context_features.bin"),
            "--in", str(transferred), "--config", str(synth_dir / "config.json"),
            "--out", str(tmp_path / "x.ckpt"), "--steps", "1"])
        assert (code, err) == (
            1, f"error: {annotations}: description tokenizes to nothing: '...'\n")


class TestRetrieve:
    def retrieve_args(self, synth_dir, model, image="img00", query="red left", k="8"):
        return ["retrieve", "--model", str(model), "--query", query,
                "--image-id", image, "--proposals", str(synth_dir / "proposals.jsonl"),
                "--region-features", str(synth_dir / "region_features.bin"),
                "--context-features", str(synth_dir / "context_features.bin"),
                "--width", "320", "--height", "240", "--top-k", k]

    def test_ranked_output_shape(self, synth_dir, finetuned):
        ranked = run_json(self.retrieve_args(synth_dir, finetuned))
        assert len(ranked) == 8
        for entry in ranked:
            assert set(entry) == {"box", "region_key", "log_prob"}
        scores = [e["log_prob"] for e in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_top_k_truncates(self, synth_dir, finetuned):
        ranked = run_json(self.retrieve_args(synth_dir, finetuned, k="3"))
        assert len(ranked) == 3

    def test_identical_invocations_identical_bytes(self, synth_dir, finetuned):
        args = self.retrieve_args(synth_dir, finetuned)
        assert run_cli(args)[1] == run_cli(args)[1]

    @pytest.mark.parametrize("flag", ["--width", "--height"])
    def test_infinite_image_size_exit_1(self, synth_dir, finetuned, flag):
        args = self.retrieve_args(synth_dir, finetuned)
        args[args.index(flag) + 1] = "inf"
        assert_error_exit(run_cli_subprocess(args), "image size must be finite and positive")

    def test_caption_mode_checkpoint_with_masked_context_exit_1(self, synth_dir, pretrained,
                                                                tmp_path):
        data = pretrained.read_bytes()
        hlen = struct.unpack("<I", data[12:16])[0]
        header = json.loads(data[16:16 + hlen])
        header["config"]["mask_context"] = True
        hb = json.dumps(header).encode("utf-8")
        bad = tmp_path / "masked.ckpt"
        bad.write_bytes(data[:12] + struct.pack("<I", len(hb)) + hb + data[16 + hlen:])
        one_box = tmp_path / "proposals.jsonl"
        one_box.write_text(json.dumps({"image_id": "img00", "boxes": [[20, 90, 100, 150]],
                                       "region_keys": ["img00:left"]}) + "\n")
        args = self.retrieve_args(synth_dir, bad)
        args[args.index("--proposals") + 1] = str(one_box)
        assert_error_exit(run_cli_subprocess(args),
                          f"{bad}: checkpoint: caption_mode with mask_context")

    def test_unknown_image_exit_1(self, synth_dir, finetuned):
        code, _, err = run_cli(self.retrieve_args(synth_dir, finetuned, image="img99"))
        assert code == 1
        assert "img99" in err

    def test_invalid_utf8_feature_key_exit_1(self, synth_dir, finetuned, tmp_path):
        dim = load_feature_store(synth_dir / "region_features.bin").dim
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"SCRCFEAT" + struct.pack("<IIIH", 1, dim, 1, 2) + b"\xff\xfe"
                        + bytes(4 * dim))
        args = self.retrieve_args(synth_dir, finetuned)
        args[args.index("--region-features") + 1] = str(bad)
        assert_error_exit(run_cli_subprocess(args), "invalid UTF-8 at byte 22")

    def test_non_finite_checkpoint_exit_1(self, synth_dir, finetuned, tmp_path):
        data = bytearray(finetuned.read_bytes())
        name = b"W_local"
        at = data.index(struct.pack("<H", len(name)) + name) + 2 + len(name)
        struct.pack_into("<f", data, at + 1 + 4 * data[at], np.nan)  # past rank and dims
        bad = tmp_path / "nan.ckpt"
        bad.write_bytes(bytes(data))
        proc = run_cli_subprocess(self.retrieve_args(synth_dir, bad))
        assert_error_exit(proc, "tensor 'W_local' holds non-finite values")

    def test_corrupted_checkpoint_exit_1(self, synth_dir, finetuned, tmp_path):
        data = finetuned.read_bytes()
        bad = tmp_path / "cut.ckpt"
        bad.write_bytes(data[:-11])  # inside the last tensor
        proc = run_cli_subprocess(self.retrieve_args(synth_dir, bad))
        assert_error_exit(proc, "checkpoint: truncated at byte ")

    def test_oversized_header_dims_exit_1(self, synth_dir, finetuned, tmp_path):
        data = finetuned.read_bytes()
        hlen = struct.unpack("<I", data[12:16])[0]
        header = json.loads(data[16:16 + hlen])
        header["config"].update(embed_dim=400000, hidden_dim=400000)
        bad = tmp_path / "huge.ckpt"
        hb = json.dumps(header).encode("utf-8")
        bad.write_bytes(data[:12] + struct.pack("<I", len(hb)) + hb + data[16 + hlen:])
        proc = run_cli_subprocess(self.retrieve_args(synth_dir, bad))
        assert_error_exit(proc, "config needs", "bytes of tensor data, the file has")

    def test_oversized_feature_count_exit_1(self, synth_dir, finetuned, tmp_path):
        dim = load_feature_store(synth_dir / "region_features.bin").dim
        bad = tmp_path / "count.bin"
        bad.write_bytes(b"SCRCFEAT" + struct.pack("<IIIH", 1, dim, 0xFFFFFFFF, 1) + b"k"
                        + bytes(4 * dim))
        args = self.retrieve_args(synth_dir, finetuned)
        args[args.index("--region-features") + 1] = str(bad)
        assert_error_exit(run_cli_subprocess(args), f"4294967295 entries of dim {dim}")

    def test_truncated_proposal_set_noted(self, synth_dir, finetuned, tmp_path):
        first = json.loads((synth_dir / "proposals.jsonl").read_text().splitlines()[0])
        assert first["image_id"] == "img00"
        boxes, keys = first["boxes"], first["region_keys"]
        top = {"image_id": "img00", "boxes": (boxes * 101)[:100],
               "region_keys": (keys * 101)[:100]}
        long = dict(top, boxes=top["boxes"] + [[0, 0, 9, 9]], region_keys=top["region_keys"]
                    + ["img00:never-read"])
        runs = []
        for name, record in (("top.jsonl", top), ("long.jsonl", long)):
            path = tmp_path / name
            path.write_text(json.dumps(record) + "\n")
            args = self.retrieve_args(synth_dir, finetuned, k="100")
            args[args.index("--proposals") + 1] = str(path)
            runs.append(run_cli(args))
        (code_top, out_top, err_top), (code, out, err) = runs
        assert code == code_top == 0
        assert out == out_top
        assert err_top == ""
        assert err == "note: image 'img00' lists 101 proposals; ranking the top 100\n"

    def test_single_candidate_top_1(self, synth_dir, finetuned, tmp_path):
        proposals = tmp_path / "one.jsonl"
        proposals.write_text(json.dumps({"image_id": "img00",
                                         "boxes": [[20, 90, 100, 150]],
                                         "region_keys": ["img00:left"]}) + "\n")
        args = self.retrieve_args(synth_dir, finetuned, k="1")
        args[args.index("--proposals") + 1] = str(proposals)
        ranked = run_json(args)
        assert len(ranked) == 1
        assert ranked[0]["region_key"] == "img00:left"


class TestEval:
    def eval_args(self, synth_dir, model, scenario):
        args = ["eval", "--model", str(model), "--scenario", scenario,
                "--annotations", str(synth_dir / "annotations.jsonl"),
                "--region-features", str(synth_dir / "region_features.bin"),
                "--context-features", str(synth_dir / "context_features.bin")]
        if scenario == "proposals":
            args += ["--proposals", str(synth_dir / "proposals.jsonl")]
        return args

    def test_gt_scenario_report(self, synth_dir, finetuned):
        report = run_json(self.eval_args(synth_dir, finetuned, "gt"))
        assert report["scenario"] == "gt_boxes"
        assert report["query_count"] == 32  # 8 images x 4 regions
        assert 0.0 <= report["p_at_1"] <= 1.0

    def test_proposal_scenario_report(self, synth_dir, finetuned):
        report = run_json(self.eval_args(synth_dir, finetuned, "proposals"))
        assert report["scenario"] == "proposals"
        assert report["r_at_1"] <= report["r_at_10"] <= report["oracle"]
        assert report["oracle"] == 1.0  # true boxes are in every proposal set

    def test_per_query_csv_written(self, synth_dir, finetuned, tmp_path):
        csv_path = tmp_path / "per_query.csv"
        run_json(self.eval_args(synth_dir, finetuned, "gt") + ["--per-query", str(csv_path)])
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 33  # header + one row per query
        assert lines[0].startswith("query,image_id,rank1_iou")

    def test_empty_per_query_path_exit_1(self, synth_dir, finetuned):
        code, out, err = run_cli(self.eval_args(synth_dir, finetuned, "gt") + ["--per-query", ""])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "''" in err

    def test_proposals_flag_required(self, synth_dir, finetuned):
        code, _, err = run_cli(["eval", "--model", str(finetuned), "--scenario", "proposals",
                                "--annotations", str(synth_dir / "annotations.jsonl"),
                                "--region-features", str(synth_dir / "region_features.bin"),
                                "--context-features",
                                str(synth_dir / "context_features.bin")])
        assert code == 1
        assert "--proposals" in err


    def test_truncated_proposal_sets_noted_once_per_image(self, synth_dir, finetuned,
                                                          tmp_path):
        records = [json.loads(line) for line in
                   (synth_dir / "proposals.jsonl").read_text().splitlines()]
        for rec, n in zip(records, (101, 130)):
            rec["boxes"] = (rec["boxes"] * n)[:n]
            rec["region_keys"] = (rec["region_keys"] * n)[:n]
        long = tmp_path / "long.jsonl"
        long.write_text("".join(json.dumps(r) + "\n" for r in records))
        top = tmp_path / "top.jsonl"
        top.write_text("".join(json.dumps(dict(r, boxes=r["boxes"][:100],
                                               region_keys=r["region_keys"][:100])) + "\n"
                               for r in records))
        runs = []
        for path in (top, long):
            args = self.eval_args(synth_dir, finetuned, "proposals")
            args[args.index("--proposals") + 1] = str(path)
            runs.append(run_cli(args))
        (code_top, out_top, err_top), (code, out, err) = runs
        assert code == code_top == 0
        assert out == out_top
        assert err_top == ""
        assert err.splitlines() == [
            f"note: image {r['image_id']!r} lists {len(r['boxes'])} proposals; "
            f"ranking the top 100" for r in records[:2]]

    def test_disagreeing_image_sizes_exit_1(self, synth_dir, finetuned, tmp_path):
        rows = [json.loads(line) for line in
                (synth_dir / "annotations.jsonl").read_text().splitlines()]
        first = rows[0]
        other = next(i for i, r in enumerate(rows) if i and r["image_id"] == first["image_id"])
        rows[other]["width"] = first["width"] + 16
        bad = tmp_path / "annotations.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in rows))
        args = self.eval_args(synth_dir, finetuned, "gt")
        args[args.index("--annotations") + 1] = str(bad)
        code, out, err = run_cli(args)
        assert code == 1
        assert out == ""
        assert repr(first["image_id"]) in err
        w, h = first["width"], first["height"]
        assert f"{w:g}x{h:g} and {w + 16:g}x{h:g}" in err

    def test_unpaired_surrogate_escape_exit_1(self, synth_dir, finetuned, tmp_path):
        rows = [json.loads(line) for line in
                (synth_dir / "annotations.jsonl").read_text().splitlines()]
        rows[2]["descriptions"] = ["red \ud800 left"]
        bad = tmp_path / "annotations.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in rows))
        csv_path = tmp_path / "per_query.csv"
        args = self.eval_args(synth_dir, finetuned, "gt") + ["--per-query", str(csv_path)]
        args[args.index("--annotations") + 1] = str(bad)
        assert_error_exit(run_cli_subprocess(args),
                          "annotations.jsonl: line 3: unpaired surrogate escape")
        assert not csv_path.exists()



def per_query_scorer(model, synth_dir):
    """One query's candidate scores from score_candidates, as eval and
    retrieve computed them before they scored a whole image in one pass."""
    params, config, vocab = load_checkpoint(model)
    regions = load_feature_store(synth_dir / "region_features.bin")
    contexts = load_feature_store(synth_dir / "context_features.bin")

    def score(query, image_id, boxes, keys, img):
        return score_candidates(params, config, [
            ScoreRequest(encode(vocab, query), regions.get(key), contexts.get(image_id),
                         encode_spatial(box, img)) for box, key in zip(boxes, keys)])
    return score


class TestPerImageScoring:
    """eval and retrieve score each image in one pass; their output equals
    what a per-query score_candidates loop gives."""

    @pytest.fixture(scope="class")
    def lone_box_annotations(self, synth_dir, tmp_path_factory):
        """img00 keeps one annotated box, with three descriptions of 2-4 tokens."""
        rows = [json.loads(line) for line in
                (synth_dir / "annotations.jsonl").read_text().splitlines()]
        first = rows[0]
        first["descriptions"] += ["red left box", "blue top left big"]
        path = tmp_path_factory.mktemp("lone") / "annotations.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows
                                if r is first or r["image_id"] != first["image_id"]))
        return path

    def expected_eval(self, synth_dir, model, scenario, annotations, csv_path):
        by_image = {}
        for rec in load_annotations(annotations):
            by_image.setdefault(rec.image_id, []).append(rec)
        psets = {p.image_id: p for p in load_proposals(synth_dir / "proposals.jsonl")}
        score = per_query_scorer(model, synth_dir)
        results = []
        for image_id, recs in by_image.items():
            if scenario == "gt":
                boxes, keys = [r.box for r in recs], [r.region_key for r in recs]
            else:
                boxes, keys = psets[image_id].boxes, psets[image_id].region_keys
            img = ImageSize(recs[0].width, recs[0].height)
            for rec in recs:
                for desc in rec.descriptions:
                    scores = score(desc, image_id, boxes, keys, img)
                    results.append(evalmetrics.RankedResult.build(desc, image_id, boxes,
                                                                  scores, rec.box))
        report = (evalmetrics.eval_gt_scenario(results) if scenario == "gt"
                  else evalmetrics.eval_proposal_scenario(results))
        evalmetrics.write_per_query_csv(results, report.scenario, csv_path)
        return json.dumps(report.to_dict(), sort_keys=True) + "\n"

    @pytest.mark.parametrize("scenario, lone", [("gt", False), ("proposals", False),
                                                ("gt", True)])
    def test_eval_equals_per_query_loop(self, synth_dir, finetuned, lone_box_annotations,
                                        tmp_path, scenario, lone):
        annotations = lone_box_annotations if lone else synth_dir / "annotations.jsonl"
        want = self.expected_eval(synth_dir, finetuned, scenario, annotations,
                                  tmp_path / "want.csv")
        args = TestEval().eval_args(synth_dir, finetuned, scenario)
        args[args.index("--annotations") + 1] = str(annotations)
        code, out, err = run_cli(args + ["--per-query", str(tmp_path / "got.csv")])
        assert (code, err) == (0, "")
        assert out == want
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("image, lone", [("img00", False), ("img03", False),
                                             ("img05", True)])
    def test_retrieve_equals_per_query_path(self, synth_dir, finetuned, tmp_path, image,
                                            lone):
        pset = next(p for p in load_proposals(synth_dir / "proposals.jsonl")
                    if p.image_id == image)
        proposals = synth_dir / "proposals.jsonl"
        if lone:
            proposals = tmp_path / "one.jsonl"
            proposals.write_text(json.dumps({"image_id": image, "boxes": [pset.coords[2].tolist()],
                                             "region_keys": [pset.region_keys[2]]}) + "\n")
            pset = load_proposals(proposals)[0]
        query = "blue top left"
        scores = per_query_scorer(finetuned, synth_dir)(query, image, pset.boxes,
                                                        pset.region_keys, ImageSize(320, 240))
        want = [{"box": pset.boxes[i].as_list(), "region_key": pset.region_keys[i],
                 "log_prob": scores[i]} for i in evalmetrics.rank_candidates(scores)]
        args = TestRetrieve().retrieve_args(synth_dir, finetuned, image=image, query=query)
        args[args.index("--proposals") + 1] = str(proposals)
        code, out, err = run_cli(args)
        assert (code, err) == (0, "")
        assert out == json.dumps(want, sort_keys=True) + "\n"

    @pytest.mark.parametrize("command", ("gt", "proposals", "retrieve"))
    def test_scoring_builds_no_box_objects(self, synth_dir, finetuned, tmp_path, monkeypatch,
                                           command):
        """eval and retrieve rank coordinate rows; ProposalSet.boxes is never built."""
        csv_path = tmp_path / "q.csv"
        args = (TestRetrieve().retrieve_args(synth_dir, finetuned) if command == "retrieve"
                else TestEval().eval_args(synth_dir, finetuned, command)
                + ["--per-query", str(csv_path)])
        want = run_cli(args), csv_path.read_bytes() if csv_path.exists() else None
        assert want[0][0] == 0

        def no_boxes(pset):
            raise AssertionError(f"ProposalSet.boxes built for {pset.image_id!r}")
        monkeypatch.setattr(datastore.ProposalSet, "boxes", property(no_boxes))
        csv_path.unlink(missing_ok=True)
        assert (run_cli(args), csv_path.read_bytes() if csv_path.exists() else None) == want

    @pytest.mark.parametrize("command", ("eval", "retrieve"))
    def test_box_outside_image_names_image_and_box(self, synth_dir, finetuned, tmp_path,
                                                   command):
        rows = [json.loads(line) for line in
                (synth_dir / "proposals.jsonl").read_text().splitlines()]
        rows[0]["boxes"][3] = [300.0, 200.0, 330.0, 250.0]
        bad = tmp_path / "outside.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in rows))
        args = (TestEval().eval_args(synth_dir, finetuned, "proposals") if command == "eval"
                else TestRetrieve().retrieve_args(synth_dir, finetuned))
        args[args.index("--proposals") + 1] = str(bad)
        assert_error_exit(run_cli_subprocess(args),
                          "image 'img00': box 3: box [300.0, 200.0, 330.0, 250.0] not "
                          "contained in 320.0x240.0 image")

    def test_corrupted_annotations_exit_1(self, synth_dir, finetuned, tmp_path):
        data = (synth_dir / "annotations.jsonl").read_bytes()
        bad = tmp_path / "annotations.jsonl"
        bad.write_bytes(data[:data.index(b"descriptions", len(data) // 2)])  # mid-record
        args = TestEval().eval_args(synth_dir, finetuned, "gt")
        args[args.index("--annotations") + 1] = str(bad)
        assert_error_exit(run_cli_subprocess(args), "annotations.jsonl: line ")


class TestGenerate:
    @pytest.mark.parametrize("token", [7, None])
    def test_vocabulary_token_that_is_not_a_string_exit_1(self, synth_dir, finetuned,
                                                          tmp_path, token):
        data = finetuned.read_bytes()
        hlen = struct.unpack("<I", data[12:16])[0]
        header = json.loads(data[16:16 + hlen])
        header["vocab"][3] = token
        hb = json.dumps(header).encode("utf-8")
        bad = tmp_path / "vocab.ckpt"
        bad.write_bytes(data[:12] + struct.pack("<I", len(hb)) + hb + data[16 + hlen:])
        proc = run_cli_subprocess([
            "generate", "--model", str(bad), "--region-key", "img00:left",
            "--image-id", "img00", "--box", "20,90,100,150", "--width", "320",
            "--height", "240", "--region-features", str(synth_dir / "region_features.bin"),
            "--context-features", str(synth_dir / "context_features.bin")])
        assert_error_exit(proc, f"checkpoint: invalid header: vocabulary token 3 is not a "
                                f"string: {token!r}")


    def test_generates_description(self, synth_dir, finetuned):
        out = run_json(["generate", "--model", str(finetuned),
                        "--region-key", "img00:left", "--image-id", "img00",
                        "--box", "20,90,100,150", "--width", "320", "--height", "240",
                        "--region-features", str(synth_dir / "region_features.bin"),
                        "--context-features", str(synth_dir / "context_features.bin"),
                        "--beam", "5", "--max-len", "6"])
        assert set(out) == {"tokens", "text", "log_prob"}
        assert out["log_prob"] <= 0.0
        assert len(out["tokens"]) <= 6

    def test_beam_wider_than_a_decoder_pass_exit_1(self, synth_dir, finetuned):
        proc = run_cli_subprocess([
            "generate", "--model", str(finetuned), "--region-key", "img00:left",
            "--image-id", "img00", "--box", "20,90,100,150", "--width", "320",
            "--height", "240", "--region-features", str(synth_dir / "region_features.bin"),
            "--context-features", str(synth_dir / "context_features.bin"), "--beam", "1025"])
        assert_error_exit(proc, "beam_width must be from 1 to 1024, got 1025")

    def test_max_len_above_bound_exit_1(self, synth_dir, finetuned):
        proc = run_cli_subprocess([
            "generate", "--model", str(finetuned), "--region-key", "img00:left",
            "--image-id", "img00", "--box", "20,90,100,150", "--width", "320",
            "--height", "240", "--region-features", str(synth_dir / "region_features.bin"),
            "--context-features", str(synth_dir / "context_features.bin"),
            "--max-len", "1000000000000"])
        assert_error_exit(proc, "max_len must be from 1 to 1024, got 1000000000000")

    def test_bad_box_rejected(self, synth_dir, finetuned):
        code, _, err = run_cli(["generate", "--model", str(finetuned),
                                "--region-key", "img00:left", "--image-id", "img00",
                                "--box", "20,90,100", "--width", "320", "--height", "240",
                                "--region-features", str(synth_dir / "region_features.bin"),
                                "--context-features",
                                str(synth_dir / "context_features.bin")])
        assert code == 1


class TestSettings:
    def pretrain(self, synth_dir, tmp_path, settings, *flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**json.loads((synth_dir / "config.json").read_text()),
                                   **settings}))
        return run_cli(["pretrain", "--captions", str(synth_dir / "captions.jsonl"),
                        "--context-features", str(synth_dir / "context_features.bin"),
                        "--config", str(cfg), "--out", str(tmp_path / "o.ckpt"), *flags])

    def test_flag_overrides_config_file(self, synth_dir, tmp_path):
        code, out, err = self.pretrain(synth_dir, tmp_path, {"steps": 3}, "--steps", "2")
        assert code == 0, err
        assert json.loads(out)["steps"] == 2

    @pytest.mark.parametrize("key, value, message", [
        ("momentum", 1.9, "momentum must be in [0, 1), got 1.9"),
        ("embed_dim", -6, "embed_dim must be positive, got -6"),
        ("min_count", 0, "min_count must be >= 1, got 0"),
    ], ids=["train-config", "model-dims", "vocabulary"])
    def test_out_of_range_value_names_config_file(self, synth_dir, tmp_path, key, value,
                                                  message):
        code, out, err = self.pretrain(synth_dir, tmp_path, {key: value})
        assert (code, out, err) == (1, "", f"error: {tmp_path / 'cfg.json'}: {message}\n")
        assert not (tmp_path / "o.ckpt").exists()

    def test_file_value_checked_under_a_flag(self, synth_dir, tmp_path):
        """A file's value is range-checked even where a flag overrides it; the
        flag's own value is refused as before, without a file name."""
        code, _, err = self.pretrain(synth_dir, tmp_path, {"momentum": 1.9}, "--momentum", "0.5")
        assert (code, err) == (1, f"error: {tmp_path / 'cfg.json'}: "
                                  "momentum must be in [0, 1), got 1.9\n")
        code, _, err = self.pretrain(synth_dir, tmp_path, {}, "--momentum", "1.9")
        assert (code, err) == (1, "error: momentum must be in [0, 1), got 1.9\n")

    def test_empty_config_path_exit_1(self, synth_dir, tmp_path):
        code, out, err = run_cli(["pretrain", "--captions", str(synth_dir / "captions.jsonl"),
                                  "--context-features", str(synth_dir / "context_features.bin"),
                                  "--config", "", "--steps", "1", "--out", str(tmp_path / "o")])
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "''" in err
        assert not (tmp_path / "o").exists()

    def test_integer_accepted_for_float_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"momentum": 1}))
        values = _load_config_file(cfg)
        assert values == {"momentum": 1.0}
        assert type(values["momentum"]) is float

    @pytest.mark.parametrize("key, value", [("batch_size", 2.5), ("mask_spatial", 1)])
    def test_wrong_type_names_key(self, synth_dir, tmp_path, key, value):
        code, _, err = self.pretrain(synth_dir, tmp_path, {key: value})
        assert code == 1
        assert repr(key) in err

    def test_invalid_utf8_config_exit_1(self, synth_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"seed": "\xff"}')
        code, _, err = run_cli(["pretrain", "--captions", str(synth_dir / "captions.jsonl"),
                                "--context-features", str(synth_dir / "context_features.bin"),
                                "--config", str(cfg), "--out", str(tmp_path / "o.ckpt")])
        assert code == 1
        assert "invalid JSON" in err

    def test_long_integer_names_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"steps": ' + "9" * 5000 + "}")
        with pytest.raises(ConfigError, match=re.escape(f"{cfg}: invalid JSON: ")):
            _load_config_file(cfg)

    def test_long_integer_config_exit_1(self, synth_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"steps": ' + "9" * 5000 + "}")
        out = tmp_path / "o.ckpt"
        proc = run_cli_subprocess([
            "finetune", "--annotations", str(synth_dir / "annotations.jsonl"),
            "--region-features", str(synth_dir / "region_features.bin"),
            "--context-features", str(synth_dir / "context_features.bin"),
            "--no-transfer-init", "--config", str(cfg), "--out", str(out)])
        assert_error_exit(proc, f"{cfg}: invalid JSON")
        assert not out.exists()

    def test_deeply_nested_config_exit_1(self, synth_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"steps": ' + "[" * 100000 + "]" * 100000 + "}")
        out = tmp_path / "o.ckpt"
        proc = run_cli_subprocess([
            "finetune", "--annotations", str(synth_dir / "annotations.jsonl"),
            "--region-features", str(synth_dir / "region_features.bin"),
            "--context-features", str(synth_dir / "context_features.bin"),
            "--no-transfer-init", "--config", str(cfg), "--out", str(out)])
        assert_error_exit(proc, f"{cfg}: invalid JSON")
        assert not out.exists()

    def test_float_key_beyond_float64_exit_1(self, synth_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"lr": 1' + "0" * 400 + "}")
        out = tmp_path / "o.ckpt"
        proc = run_cli_subprocess([
            "finetune", "--annotations", str(synth_dir / "annotations.jsonl"),
            "--region-features", str(synth_dir / "region_features.bin"),
            "--context-features", str(synth_dir / "context_features.bin"),
            "--no-transfer-init", "--config", str(cfg), "--out", str(out)])
        assert_error_exit(proc, f"{cfg}: config key 'lr' is beyond float64's range")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_dim_beyond_numpy_arrays_exit_1(self, synth_dir, tmp_path, source):
        hidden = 10 ** 30  # 4 * hidden rows: more than np.intp can count
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"feat_dim": 4, "hidden_dim": hidden}))
        settings = (["--feat-dim", "4", "--hidden-dim", str(hidden)] if source == "flag"
                    else ["--config", str(cfg)])
        out = tmp_path / "o.ckpt"
        proc = run_cli_subprocess([
            "finetune", "--annotations", str(synth_dir / "annotations.jsonl"),
            "--region-features", str(synth_dir / "region_features.bin"),
            "--context-features", str(synth_dir / "context_features.bin"),
            "--no-transfer-init", *settings, "--out", str(out)])
        assert_error_exit(proc, f"lstm_language.W_x: shape ({4 * hidden}, 1000) is beyond "
                                "the largest array numpy can hold")
        assert not out.exists()

    def test_failed_allocation_exit_1(self, synth_dir, tmp_path, monkeypatch):
        def cap_address_space():
            # parameters of hidden dim 300000 need 1.3 TiB; under the cap their
            # allocation fails at once, whatever the host's overcommit setting
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        out = tmp_path / "o.ckpt"
        proc = run_cli_subprocess([
            "finetune", "--annotations", str(synth_dir / "annotations.jsonl"),
            "--region-features", str(synth_dir / "region_features.bin"),
            "--context-features", str(synth_dir / "context_features.bin"),
            "--no-transfer-init", "--hidden-dim", "300000", "--out", str(out)],
            preexec_fn=cap_address_space)
        assert_error_exit(proc, "Unable to allocate")
        assert not out.exists()

    def test_mask_flags_only_on_finetune(self):
        parser = _build_parser()
        args = parser.parse_args(["finetune", "--annotations", "a", "--region-features", "r",
                                  "--context-features", "c", "--out", "o", "--mask-spatial",
                                  "--no-mask-context"])
        assert (args.mask_spatial, args.mask_context) == (True, False)
        with pytest.raises(SystemExit) as exit_info, \
                contextlib.redirect_stderr(io.StringIO()):
            parser.parse_args(["pretrain", "--captions", "c", "--context-features", "c",
                               "--out", "o", "--mask-spatial"])
        assert exit_info.value.code == 2


class TestOptimizerSettings:
    """Settings that the optimizer cannot use stop a training command before it
    writes a checkpoint."""

    def finetune_args(self, synth_dir, transferred, out, *flags):
        return ["finetune", "--annotations", str(synth_dir / "annotations.jsonl"),
                "--region-features", str(synth_dir / "region_features.bin"),
                "--context-features", str(synth_dir / "context_features.bin"),
                "--in", str(transferred), "--out", str(out),
                "--config", str(synth_dir / "config.json"), "--steps", "1", *flags]

    def assert_refused(self, argv, out, *fragments):
        code, stdout, stderr = run_cli(argv)
        assert_error_exit(subprocess.CompletedProcess(argv, code, stdout, stderr), *fragments)
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--lr", "nan", "learning rate"),
        ("--lr", "inf", "learning rate"),
        ("--momentum", "nan", "momentum"),
        ("--clip-norm", "nan", "clip norm"),
    ])
    def test_non_finite_flag_exit_1(self, synth_dir, transferred, tmp_path, flag, value,
                                    message):
        out = tmp_path / "f.ckpt"
        self.assert_refused(self.finetune_args(synth_dir, transferred, out, flag, value), out,
                            message)

    def test_nan_in_config_file_exit_1(self, synth_dir, transferred, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"lr": NaN}')  # Python's JSON reader accepts NaN
        out = tmp_path / "f.ckpt"
        argv = self.finetune_args(synth_dir, transferred, out)
        argv[argv.index("--config") + 1] = str(cfg)
        self.assert_refused(argv, out, "learning rate")

    def test_lr_beyond_float32_exit_1(self, synth_dir, transferred, tmp_path):
        out = tmp_path / "f.ckpt"
        proc = run_cli_subprocess(self.finetune_args(synth_dir, transferred, out,
                                                     "--lr", "1e39"))
        assert_error_exit(proc, "learning rate must be non-negative and finite in float32")
        assert not out.exists()

    def test_infinite_clip_norm_trains(self, synth_dir, transferred, tmp_path):
        out = tmp_path / "f.ckpt"
        run_json(self.finetune_args(synth_dir, transferred, out, "--clip-norm", "inf"))
        load_checkpoint(out)

    def test_training_that_leaves_non_finite_values_writes_nothing(
            self, synth_dir, transferred, tmp_path, monkeypatch):
        train = cli.finetune_retrieval

        def diverging(params, *args):
            report = train(params, *args)
            params.lstm_local.b_f.value[1] = np.inf
            return report

        monkeypatch.setattr(cli, "finetune_retrieval", diverging)
        out = tmp_path / "f.ckpt"
        self.assert_refused(self.finetune_args(synth_dir, transferred, out), out,
                            "tensor 'lstm_local.b_f' holds non-finite values; "
                            "no checkpoint written")

    def test_first_non_finite_tensor_named(self, finetuned, tmp_path):
        params, config, vocab = load_checkpoint(finetuned)
        params.W_global.value[0, 0] = np.nan
        params.lstm_global.W_hg.value[1, 1] = -np.inf
        out = tmp_path / "bad.ckpt"
        with pytest.raises(InputError, match=r"tensor 'lstm_global\.W_hg' holds non-finite"):
            save_checkpoint(params, config, vocab, out)
        assert not out.exists()


class TestGradcheck:
    def test_default_seed_passes(self):
        code, out, _ = run_cli(["gradcheck"])
        assert code == 0
        report = json.loads(out)
        assert report["max_rel_error"] < 1e-5
        assert report["elements_checked"] == 2420

    def test_seed_near_the_old_noise_floor_passes(self):
        # a two-point difference at step 1e-5 read 3.1e-4 on this instance
        code, out, _ = run_cli(["gradcheck", "--seed", "7"])
        assert code == 0
        assert json.loads(out)["max_rel_error"] < 1e-4

    def test_gradient_off_by_five_parts_in_ten_thousand_fails(self, monkeypatch):
        def off_backward(params, *args):
            backward(params, *args)
            params.lstm_language.W_h.grad *= 1.0005

        monkeypatch.setattr(gradcheck, "backward", off_backward)
        code, out, err = run_cli(["gradcheck"])
        assert code == 1
        assert json.loads(out)["max_rel_error"] > 1e-4
        assert err.startswith("gradcheck failed: ")
