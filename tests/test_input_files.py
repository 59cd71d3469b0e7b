"""Every input file flag of every subcommand refuses a bad file with exit 1
and an error that names the file: a missing file, a directory, a FIFO (at
once, without waiting for a writer) and an empty file; a feature store that
lacks a key the command needs, or has the wrong dimension, is named by its
path first."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import scrc
from scrc import synth
from scrc.cli import main
from scrc.datastore import FeatureStore, load_feature_store, save_checkpoint, save_feature_store
from scrc.model import ScrcConfig, ScrcParams
from scrc.nncore import make_rng
from scrc.textproc import build_vocab

# a refusal takes well under a second; a reader that waits on a FIFO runs into this
REFUSAL_TIMEOUT_S = 15

# each subcommand's input file flags
INPUT_FLAGS = {
    "pretrain": ["--captions", "--context-features", "--config"],
    "transfer": ["--in"],
    "finetune": ["--annotations", "--region-features", "--context-features", "--in",
                 "--config"],
    "retrieve": ["--model", "--proposals", "--region-features", "--context-features"],
    "eval": ["--model", "--annotations", "--proposals", "--region-features",
             "--context-features"],
    "generate": ["--model", "--region-features", "--context-features"],
}
COMMAND_FLAGS = [(command, flag) for command, flags in INPUT_FLAGS.items() for flag in flags]
BAD_FILES = ["missing", "directory", "fifo", "empty"]


def run_cli(argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def start_cli(argv) -> subprocess.Popen:
    """Start `python -m scrc.cli` with argv, the package under test importable."""
    src = str(Path(scrc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.Popen([sys.executable, "-m", "scrc.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def finish(proc: subprocess.Popen):
    """(exit code, stdout, stderr) of proc, which is killed if it has not
    exited within REFUSAL_TIMEOUT_S."""
    try:
        stdout, stderr = proc.communicate(timeout=REFUSAL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, "", f"still running after {REFUSAL_TIMEOUT_S} s"
    return proc.returncode, stdout, stderr


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """A two-image synthetic dataset, a caption-mode checkpoint and a
    fine-tuning checkpoint whose dims are the dataset's config.json."""
    d = tmp_path_factory.mktemp("inputs")
    synth.generate_dataset(d, seed=0, n_images=2)
    dims = json.loads((d / "config.json").read_text())
    texts = [line for name in ("captions.jsonl", "annotations.jsonl")
             for line in (d / name).read_text().splitlines()]
    vocab = build_vocab(texts)
    for name, caption_mode in (("caption.ckpt", True), ("model.ckpt", False)):
        config = ScrcConfig(vocab_size=len(vocab), embed_dim=dims["embed_dim"],
                            hidden_dim=dims["hidden_dim"], feat_dim=dims["feat_dim"],
                            caption_mode=caption_mode)
        save_checkpoint(ScrcParams.init(config, make_rng(0)), config, vocab, d / name)
    return d


def command_args(d: Path, out: Path) -> dict:
    """Each subcommand's arguments as {flag: value}, every input valid."""
    stores = {"--region-features": d / "region_features.bin",
              "--context-features": d / "context_features.bin"}
    image = {"--image-id": "img00", "--width": "320", "--height": "240"}
    return {
        "pretrain": {"--captions": d / "captions.jsonl",
                     "--context-features": d / "context_features.bin",
                     "--config": d / "config.json", "--out": out, "--steps": "1"},
        "transfer": {"--in": d / "caption.ckpt", "--out": out},
        "finetune": {"--annotations": d / "annotations.jsonl", **stores,
                     "--in": d / "model.ckpt", "--config": d / "config.json", "--out": out,
                     "--steps": "1"},
        "retrieve": {"--model": d / "model.ckpt", "--query": "red left", **image,
                     "--proposals": d / "proposals.jsonl", **stores},
        "eval": {"--model": d / "model.ckpt", "--scenario": "proposals",
                 "--annotations": d / "annotations.jsonl",
                 "--proposals": d / "proposals.jsonl", **stores},
        "generate": {"--model": d / "model.ckpt", "--region-key": "img00:left", **image,
                     "--box": "20,90,100,150", **stores},
    }


def argv(command: str, args: dict, flag=None, value=None) -> list[str]:
    """The command line for command with args, flag given value if named."""
    if flag:
        args = {**args, flag: value}
    return [command] + [str(x) for pair in args.items() for x in pair]


@pytest.fixture(scope="module")
def bad_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("bad")
    (d / "directory").mkdir()
    os.mkfifo(d / "fifo")
    (d / "empty").write_bytes(b"")
    return {kind: d / kind for kind in BAD_FILES}


@pytest.mark.parametrize("command", list(INPUT_FLAGS))
def test_valid_inputs_run(data, tmp_path, command):
    """The control: with no file spoiled, every command succeeds."""
    code, _, err = run_cli(argv(command, command_args(data, tmp_path / "out.ckpt")[command]))
    assert code == 0, err


@pytest.mark.parametrize("command, flag", COMMAND_FLAGS, ids=[c + f for c, f in COMMAND_FLAGS])
def test_bad_input_file_exits_1_naming_it(data, bad_files, tmp_path, command, flag):
    out = tmp_path / "out.ckpt"
    args = command_args(data, out)[command]
    # the four runs of a flag go side by side
    procs = {kind: start_cli(argv(command, args, flag, path))
             for kind, path in bad_files.items()}
    problems = []
    for kind, proc in procs.items():
        code, stdout, stderr = finish(proc)
        path = bad_files[kind]
        named = f"{path}: not a regular file" if kind in ("directory", "fifo") else str(path)
        if ((code, stdout) != (1, "") or not stderr.startswith("error: ")
                or named not in stderr or "Traceback" in stderr):
            problems.append(f"{kind}: exit {code}, stderr {stderr!r}")
    assert not problems, "\n".join(problems)
    assert not out.exists()


@pytest.fixture(scope="module")
def spoiled_stores(data, tmp_path_factory) -> dict:
    """For each store, a copy that lacks the key every command below needs
    ("img00:left" or "img00"), and one of dimension 5 in place of 4."""
    dest = tmp_path_factory.mktemp("spoiled")
    spoiled = {}
    for flag, name, key in (("--region-features", "region_features.bin", "img00:left"),
                            ("--context-features", "context_features.bin", "img00")):
        entries = load_feature_store(data / name).entries
        for kind, dim in (("lacks-key", 4), ("wrong-dim", 5)):
            store = FeatureStore(dim)
            for k, vec in entries.items():
                if kind == "wrong-dim" or k != key:
                    store.add(k, list(vec) + [0.0] * (dim - 4))
            save_feature_store(store, dest / f"{kind}-{name}")
            spoiled[flag, kind] = dest / f"{kind}-{name}"
    return spoiled


STORE_CASES = [(command, flag, kind)
               for command in ("retrieve", "eval", "generate", "finetune", "pretrain")
               for flag in ("--region-features", "--context-features")
               if flag in INPUT_FLAGS[command]
               for kind in ("lacks-key", "wrong-dim")]


@pytest.mark.parametrize("command, flag, kind", STORE_CASES,
                         ids=[f"{c}{f}-{k}" for c, f, k in STORE_CASES])
def test_store_refusal_starts_with_its_path(data, spoiled_stores, tmp_path, command, flag,
                                            kind):
    out = tmp_path / "out.ckpt"
    path = spoiled_stores[flag, kind]
    code, stdout, stderr = run_cli(argv(command, command_args(data, out)[command], flag, path))
    assert (code, stdout) == (1, "")
    assert stderr.startswith(f"error: {path}: feature store"), stderr
    assert ("not found" if kind == "lacks-key" else "has dim 5") in stderr
    assert not out.exists()


@pytest.mark.parametrize("images", [0, synth.MAX_IMAGES + 1])
def test_synth_image_count_out_of_range_exit_1(tmp_path, images):
    out = tmp_path / "data"
    code, stdout, stderr = finish(start_cli(["synth", "--out-dir", str(out),
                                             "--images", str(images)]))
    assert (code, stdout) == (1, "")
    assert stderr == f"error: images must be from 1 to {synth.MAX_IMAGES}, got {images}\n"
    assert not out.exists()
