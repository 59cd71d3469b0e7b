"""CLI fuzzing for the scoring commands, `retrieve`, `eval` and `generate`,
the training commands, `finetune` and `pretrain`, and the utility commands,
`transfer`, `synth` and `gradcheck`: each runs on a tiny synthetic model or
data set with one flag's value replaced. Each call returns 0 with JSON on
stdout, or 1 with stderr starting "error: ", or is refused by argparse
(exit 2) for a value that the flag's type or choices refuse. Any other
exception, exit code or output fails.

Huge values are safe to draw for every scoring flag: `--beam` and
`--max-len` are refused before the search starts, `--top-k` only bounds a
slice, `--width` and `--height` only scale the boxes, and the rest are
names. Training's `--steps` is a loop count, so its huge draw is replaced by
a small one; the model dims are refused before anything of their size is
allocated, and `--batch-size` only caps a batch. `synth --images` is
refused above its bound before anything is built. `gradcheck --seed` gets
only the values that are refused before the check starts: a valid seed runs
a check of several seconds.

`transfer --in` also reads mutated checkpoints: cut short, one byte
changed, or one length or count field changed. Each loads and transfers, or
is refused with an error that names the file and the checkpoint.

`eval` reads each of its five input files mutated the same way, and its
JSON-lines files also with one line cut short. Each case scores, or is
refused with an error that names one of its input files."""

import contextlib
import io
import json
import os
import struct
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from scrc.cli import main  # noqa: E402
from scrc.datastore import save_checkpoint  # noqa: E402
from scrc.model import ScrcConfig, ScrcParams  # noqa: E402
from scrc.nncore import make_rng  # noqa: E402
from scrc.textproc import build_vocab  # noqa: E402
from test_datastore import split_checkpoint  # noqa: E402
from test_reader_properties import flip  # noqa: E402

# flag -> how argparse converts its value, or the values it allows
CONVERTED = {"--top-k": int, "--beam": int, "--max-len": int, "--width": float,
             "--height": float, "--scenario": ("gt", "proposals"), "--steps": int,
             "--batch-size": int, "--lr": float, "--momentum": float, "--clip-norm": float,
             "--seed": int, "--min-count": int, "--embed-dim": int, "--hidden-dim": int,
             "--feat-dim": int, "--images": int}
SCORING = ["retrieve", "eval", "generate"]
TRAINING = ["finetune", "pretrain"]
UTILITY = ["transfer", "synth"]
HUGE = str(10 ** 30)
VALUES = ["0", "-1", HUGE, "nan", "inf", ""]  # then a missing path and a directory
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
def caption_checkpoint(workdir):
    """The bytes of a small caption-mode checkpoint, which transfer takes."""
    vocab = build_vocab(["red green left right"])
    config = ScrcConfig(vocab_size=len(vocab), embed_dim=4, hidden_dim=5, feat_dim=3,
                        caption_mode=True)
    save_checkpoint(ScrcParams.init(config, make_rng(0)), config, vocab, workdir / "caption.ckpt")
    return (workdir / "caption.ckpt").read_bytes()


@pytest.fixture(scope="module")
def commands(workdir, caption_checkpoint):
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
        "transfer": ["transfer", "--in", str(workdir / "caption.ckpt"),
                     "--out", str(workdir / "transferred.ckpt")],
        "synth": ["synth", "--out-dir", str(workdir / "synth"), "--seed", "0", "--images", "2"],
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


@pytest.mark.parametrize("command", SCORING + TRAINING + UTILITY)
def test_base_commands_succeed(commands, command):
    code, out, err = run(commands[command])
    assert (code, err) == (0, "")
    json.loads(out)


def check_one_mutated_flag(commands, workdir, command, data):
    argv = list(commands[command])
    flag_at = data.draw(st.sampled_from([i for i, a in enumerate(argv)
                                         if a.startswith("--") and a != "--no-transfer-init"]))
    value = data.draw(st.sampled_from(VALUES + [str(workdir / "missing"), str(workdir)]))
    if value == HUGE:
        value = LOOP_COUNTS.get(argv[flag_at], value)
    argv[flag_at + 1] = value
    check_result(argv, argv[flag_at], value)


def check_result(argv, flag, value):
    code, out, err = run(argv)
    if refused_by_argparse(flag, value):
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


# 40 (command, flag, value) cases, a few ms each; hypothesis stops once it has run them all
@given(command=st.sampled_from(UTILITY), data=st.data())
def test_one_mutated_utility_flag_is_a_result_or_a_named_error(commands, workdir, command,
                                                                data):
    check_one_mutated_flag(commands, workdir, command, data)


@pytest.mark.parametrize("value", [v for v in VALUES if v not in ("0", HUGE)]
                         + ["missing", "directory"])
def test_gradcheck_seed_refused_before_the_check(workdir, value):
    value = {"missing": str(workdir / "missing"), "directory": str(workdir)}.get(value, value)
    check_result(["gradcheck", "--seed", value], "--seed", value)


def length_and_count_fields(data: bytes):
    """(offset, struct format) of the checkpoint's header length, tensor count,
    and each tensor's name length, rank and dims."""
    prefix, records = split_checkpoint(data)
    fields, off = [(12, "<I"), (len(prefix), "<I")], len(prefix) + 4
    for record in records:
        (nlen,) = struct.unpack_from("<H", record)
        fields += [(off, "<H"), (off + 2 + nlen, "<B")]
        fields += [(off + 3 + nlen + 4 * k, "<I") for k in range(record[2 + nlen])]
        off += len(record)
    return fields


class TestTransferMutatedCheckpoint:
    """The reader property tests' checkpoint mutations, given to `transfer --in`."""

    def transfers_or_names_checkpoint(self, workdir, data: bytes):
        path = workdir / "mutant.ckpt"
        path.write_bytes(data)
        code, out, err = run(["transfer", "--in", str(path),
                              "--out", str(workdir / "mutant_out.ckpt")])
        if code == 0:
            assert err == ""
            json.loads(out)
        else:
            assert (code, out) == (1, "")
            assert err.startswith(f"error: {path}: checkpoint: "), err

    @given(st.data())
    def test_truncation(self, workdir, caption_checkpoint, data):
        cut = data.draw(st.integers(0, len(caption_checkpoint) - 1))
        self.transfers_or_names_checkpoint(workdir, caption_checkpoint[:cut])

    @given(index=st.integers(0, 10 ** 6), mask=st.integers(1, 255))
    def test_byte_flip(self, workdir, caption_checkpoint, index, mask):
        self.transfers_or_names_checkpoint(workdir, flip(caption_checkpoint, index, mask))

    @given(st.data())
    def test_changed_length_or_count_field(self, workdir, caption_checkpoint, data):
        off, fmt = data.draw(st.sampled_from(length_and_count_fields(caption_checkpoint)))
        top = 2 ** (8 * struct.calcsize(fmt)) - 1
        (was,) = struct.unpack_from(fmt, caption_checkpoint, off)
        value = data.draw(st.one_of(st.integers(0, top),
                                    st.integers(max(0, was - 3), min(top, was + 3))))
        mutant = bytearray(caption_checkpoint)
        struct.pack_into(fmt, mutant, off, value)
        self.transfers_or_names_checkpoint(workdir, bytes(mutant))


EVAL_INPUTS = ["--model", "--annotations", "--proposals", "--region-features",
               "--context-features"]
JSON_LINES = ["--annotations", "--proposals"]


def feature_store_fields(data: bytes):
    """(offset, struct format) of a feature store's dim and count, and of each
    entry's key length."""
    dim, count = struct.unpack_from("<II", data, 12)
    fields, off = [(12, "<I"), (16, "<I")], 20
    for _ in range(count):
        fields.append((off, "<H"))
        off += 2 + struct.unpack_from("<H", data, off)[0] + 4 * dim
    assert off == len(data)
    return fields


class TestEvalMutatedInputs:
    """The reader property tests' mutations, given to each of `eval`'s input files."""

    @pytest.fixture(scope="class")
    def originals(self, commands):
        argv = commands["eval"]
        return {flag: Path(argv[argv.index(flag) + 1]).read_bytes() for flag in EVAL_INPUTS}

    @staticmethod
    def mutant(flag: str) -> str:
        return "mutant" + flag.replace("-", "_")

    def scores_or_names_an_input(self, commands, workdir, flag, data: bytes):
        argv = list(commands["eval"])
        path = workdir / self.mutant(flag)
        path.write_bytes(data)
        argv[argv.index(flag) + 1] = str(path)
        code, out, err = run(argv)
        if code == 0:
            json.loads(out)
            return
        assert (code, out) == (1, "")
        named = [argv[argv.index(f) + 1] for f in EVAL_INPUTS]
        assert any(err.startswith(f"error: {p}: ") for p in named), err
        assert err.count("\n") == 1 and "Traceback" not in err
        return err

    @settings(max_examples=250)
    @given(flag=st.sampled_from(EVAL_INPUTS), data=st.data())
    def test_truncation(self, commands, workdir, originals, flag, data):
        cut = data.draw(st.integers(0, len(originals[flag]) - 1))
        self.scores_or_names_an_input(commands, workdir, flag, originals[flag][:cut])

    @settings(max_examples=500)
    @given(flag=st.sampled_from(EVAL_INPUTS), index=st.integers(0, 10 ** 6),
           mask=st.integers(1, 255))
    def test_byte_flip(self, commands, workdir, originals, flag, index, mask):
        self.scores_or_names_an_input(commands, workdir, flag,
                                      flip(originals[flag], index, mask))

    @settings(max_examples=300)
    @given(flag=st.sampled_from(["--model", "--region-features", "--context-features"]),
           data=st.data())
    def test_changed_length_or_count_field(self, commands, workdir, originals, flag, data):
        fields = (length_and_count_fields if flag == "--model" else feature_store_fields)
        off, fmt = data.draw(st.sampled_from(fields(originals[flag])))
        top = 2 ** (8 * struct.calcsize(fmt)) - 1
        (was,) = struct.unpack_from(fmt, originals[flag], off)
        value = data.draw(st.one_of(st.integers(0, top),
                                    st.integers(max(0, was - 3), min(top, was + 3))))
        mutant = bytearray(originals[flag])
        struct.pack_into(fmt, mutant, off, value)
        self.scores_or_names_an_input(commands, workdir, flag, bytes(mutant))

    @settings(max_examples=200)
    @given(flag=st.sampled_from(JSON_LINES), data=st.data())
    def test_cut_json_line(self, commands, workdir, originals, flag, data):
        lines = originals[flag].split(b"\n")
        row = data.draw(st.integers(0, len(lines) - 2))  # the last split is after the last newline
        lines[row] = lines[row][:data.draw(st.integers(0, len(lines[row])))]
        self.scores_or_names_an_input(commands, workdir, flag, b"\n".join(lines))

    @pytest.mark.parametrize("flag, old, new", [
        # one flipped digit of a later record's width: the image's records disagree on its size
        ("--annotations", b'"img00:right", "width": 320', b'"img00:right", "width": 330'),
        # one flipped digit of a proposal's x2 puts the box outside the image
        ("--proposals", b"[214.0, 95.0, 294.0, 155.0]", b"[214.0, 95.0, 994.0, 155.0]"),
        # a description of no tokens, which the annotations reader admits
        ("--annotations", b'"descriptions": ["blue right"]', b'"descriptions": [""]'),
    ], ids=["image size", "box outside image", "empty description"])
    def test_refusal_names_the_file_at_fault(self, commands, workdir, originals, flag, old,
                                             new):
        assert originals[flag].count(old) == 1
        err = self.scores_or_names_an_input(commands, workdir, flag,
                                            originals[flag].replace(old, new))
        assert err.startswith(f"error: {workdir / self.mutant(flag)}: "), err

    def test_empty_proposal_set_names_the_proposals_file(self, commands, workdir, originals):
        lines = originals["--proposals"].split(b"\n")
        lines[0] = json.dumps(dict(json.loads(lines[0]), boxes=[], region_keys=[])).encode()
        err = self.scores_or_names_an_input(commands, workdir, "--proposals",
                                            b"\n".join(lines))
        assert err.startswith(f"error: {workdir / self.mutant('--proposals')}: "), err
