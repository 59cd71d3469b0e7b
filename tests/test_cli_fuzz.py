"""CLI fuzzing for the scoring commands, `retrieve`, `eval` and `generate`,
and the training commands, `finetune` and `pretrain`: each runs on a tiny
synthetic model or data set with one flag's value replaced. Each call
returns 0 with JSON on stdout, or 1 with stderr starting "error: ", or is
refused by argparse (exit 2) for a value that the flag's type or choices
refuse. Any other exception, exit code or output fails.

Huge values are safe to draw for every scoring flag: `--beam` and
`--max-len` are refused before the search starts, `--top-k` only bounds a
slice, `--width` and `--height` only scale the boxes, and the rest are
names. Training's `--steps` is a loop count, so its huge draw is replaced by
a small one; the model dims are refused before anything of their size is
allocated, and `--batch-size` only caps a batch."""

import contextlib
import io
import json
import os

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from scrc.cli import main  # noqa: E402

# flag -> how argparse converts its value, or the values it allows
CONVERTED = {"--top-k": int, "--beam": int, "--max-len": int, "--width": float,
             "--height": float, "--scenario": ("gt", "proposals"), "--steps": int,
             "--batch-size": int, "--lr": float, "--momentum": float, "--clip-norm": float,
             "--seed": int, "--min-count": int, "--embed-dim": int, "--hidden-dim": int,
             "--feat-dim": int}
SCORING = ["retrieve", "eval", "generate"]
TRAINING = ["finetune", "pretrain"]
HUGE = str(10 ** 30)
# flags that set a loop count: a huge value would run for ever, so it draws this
LOOP_COUNTS = {"--steps": "3"}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A scratch working directory: a mutated output path may be relative."""
    d = tmp_path_factory.mktemp("fuzz")
    old = os.getcwd()
    os.chdir(d)
    yield d
    os.chdir(old)


@pytest.fixture(scope="module")
def commands(workdir):
    data, model = workdir / "data", str(workdir / "model.ckpt")
    assert run(["synth", "--out-dir", str(data), "--seed", "0", "--images", "2"])[0] == 0
    stores = ["--region-features", str(data / "region_features.bin"),
              "--context-features", str(data / "context_features.bin")]
    code, _, err = run(["finetune", "--annotations", str(data / "annotations.jsonl"), *stores,
                        "--no-transfer-init", "--config", str(data / "config.json"),
                        "--steps", "1", "--out", model])
    assert code == 0, err
    image = ["--width", "320", "--height", "240"]
    settings = ["--config", str(data / "config.json"), "--steps", "1", "--batch-size", "4",
                "--lr", "0.01", "--momentum", "0.9", "--clip-norm", "10", "--seed", "0",
                "--min-count", "1", "--embed-dim", "16", "--hidden-dim", "32", "--feat-dim", "4"]
    return {
        "retrieve": ["retrieve", "--model", model, "--query", "red left", "--image-id",
                     "img00", "--proposals", str(data / "proposals.jsonl"), *stores, *image,
                     "--top-k", "3"],
        "eval": ["eval", "--model", model, "--scenario", "proposals", "--annotations",
                 str(data / "annotations.jsonl"), "--proposals", str(data / "proposals.jsonl"),
                 *stores, "--per-query", str(workdir / "per_query.csv")],
        "generate": ["generate", "--model", model, "--region-key", "img00:left", "--image-id",
                     "img00", "--box", "20,90,100,150", *image, *stores, "--beam", "3",
                     "--max-len", "6"],
        "finetune": ["finetune", "--annotations", str(data / "annotations.jsonl"), *stores,
                     "--no-transfer-init", *settings, "--out", str(workdir / "tuned.ckpt")],
        "pretrain": ["pretrain", "--captions", str(data / "captions.jsonl"),
                     "--context-features", str(data / "context_features.bin"), *settings,
                     "--out", str(workdir / "pretrained.ckpt")],
    }


def run(argv):
    """main(argv) in-process: (exit code, stdout, stderr), argparse's exit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def refused_by_argparse(flag, value):
    kind = CONVERTED.get(flag)
    if isinstance(kind, tuple):
        return value not in kind
    try:
        kind and kind(value)
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("command", SCORING + TRAINING)
def test_base_commands_succeed(commands, command):
    code, out, err = run(commands[command])
    assert (code, err) == (0, "")
    json.loads(out)


def check_one_mutated_flag(commands, workdir, command, data):
    argv = list(commands[command])
    flag_at = data.draw(st.sampled_from([i for i, a in enumerate(argv)
                                         if a.startswith("--") and a != "--no-transfer-init"]))
    value = data.draw(st.sampled_from(["0", "-1", HUGE, "nan", "inf", "",
                                       str(workdir / "missing"), str(workdir)]))
    if value == HUGE:
        value = LOOP_COUNTS.get(argv[flag_at], value)
    argv[flag_at + 1] = value
    code, out, err = run(argv)
    if refused_by_argparse(argv[flag_at], value):
        assert (code, out) == (2, ""), err
    elif code == 0:
        json.loads(out)
    else:
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "Traceback" not in err


@settings(max_examples=1000)  # about 300 (command, flag, value) cases, 1-3 ms each
@given(command=st.sampled_from(SCORING), data=st.data())
def test_one_mutated_flag_is_a_result_or_a_named_error(commands, workdir, command, data):
    check_one_mutated_flag(commands, workdir, command, data)


# about 230 (command, flag, value) cases; a pretrain run can take tens of ms
@settings(max_examples=600, deadline=None)
@given(command=st.sampled_from(TRAINING), data=st.data())
def test_one_mutated_training_flag_is_a_result_or_a_named_error(commands, workdir, command,
                                                                 data):
    check_one_mutated_flag(commands, workdir, command, data)
