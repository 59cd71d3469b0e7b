"""Command-line entry point.

Machine output goes to stdout as JSON, diagnostics to stderr; the exit code
is 0 only if the command fully succeeded. Configuration precedence:
command-line flags override config-file values override built-in defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import datastore, evalmetrics, synth
from .errors import ConfigError, InputError, ScrcError
from .geometry import BoundingBox, ImageSize, encode_spatial
from .gradcheck import DEFAULT_CHECK_SEED, finite_difference_check
from .model import (ScrcConfig, ScrcParams, check_beam, generate_description, score_image,
                    score_images)
from .nncore import make_rng
from .textproc import build_vocab, decode, encode_nonempty
from .train import TrainConfig, finetune_retrieval, pretrain_captioning, transfer_weights

GRADCHECK_THRESHOLD = 1e-4

# key -> (type, default); lr and steps take their defaults from the phase
_SETTINGS = {
    "embed_dim": (int, 1000), "hidden_dim": (int, 1000), "feat_dim": (int, 1000),
    "min_count": (int, 1), "lr": (float, None), "momentum": (float, 0.9),
    "clip_norm": (float, 10.0), "steps": (int, None), "batch_size": (int, 16),
    "seed": (int, 0), "mask_spatial": (bool, False), "mask_context": (bool, False),
}

_PHASE_DEFAULTS = {
    "pretrain": {"lr": 0.01, "steps": 500},
    "finetune": {"lr": 0.001, "steps": 2000},
}

_DIM_KEYS = ("embed_dim", "hidden_dim", "feat_dim")


def _emit(obj):
    print(json.dumps(obj, sort_keys=True))


def _load_config_file(path) -> dict:
    with open(path, "rb", opener=datastore.open_regular) as f:
        raw = datastore.json_object(f.read(), str(path), ConfigError)
    return datastore.json_settings(raw, {k: kind for k, (kind, _) in _SETTINGS.items()}, str(path))


def _resolve_config(args, phase: str):
    """Merge defaults, config file and flags; returns (values, explicit keys)."""
    values = {key: default for key, (_, default) in _SETTINGS.items()}
    values.update(_PHASE_DEFAULTS[phase])
    explicit = set()
    if getattr(args, "config", None) is not None:
        file_vals = _load_config_file(args.config)
        values.update(file_vals)
        explicit.update(file_vals)
    for key in _SETTINGS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
            explicit.add(key)
    return values, explicit


def _records(loader, path) -> list:
    """The records of a JSON-lines file, of which a command needs at least one."""
    if not (records := loader(path)):
        raise InputError(f"{path}: no records")
    return records


def _fields(cls, values: dict) -> dict:
    """The settings that are fields of the dataclass cls."""
    return {f.name: values[f.name] for f in dataclasses.fields(cls) if f.name in values}


def _check_feat_dim(config: ScrcConfig, *stores: datastore.FeatureStore):
    for store in stores:
        if store.dim != config.feat_dim:
            raise ConfigError(f"{store.where} has dim {store.dim} but the model expects "
                              f"feat_dim {config.feat_dim}")


def _add_config_flags(p: argparse.ArgumentParser, masks: bool = False):
    p.add_argument("--config", help="JSON config file")
    for key, (kind, _) in _SETTINGS.items():
        flag = "--" + key.replace("_", "-")
        if kind is not bool:
            p.add_argument(flag, type=kind)
        elif masks:
            p.add_argument(flag, action=argparse.BooleanOptionalAction, default=None)


@functools.cache  # one parser per process: building it costs milliseconds per call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scrc",
                                     description="Natural-language object retrieval")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="caption pretraining on context features")
    p.add_argument("--captions", required=True)
    p.add_argument("--context-features", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)

    p = sub.add_parser("transfer", help="copy global-branch weights into the local branch")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("finetune", help="retrieval fine-tuning on annotated tuples")
    p.add_argument("--annotations", required=True)
    p.add_argument("--region-features", required=True)
    p.add_argument("--context-features", required=True)
    p.add_argument("--in", dest="input")
    p.add_argument("--out", required=True)
    p.add_argument("--no-transfer-init", action="store_true",
                   help="start from random initialization instead of a checkpoint")
    _add_config_flags(p, masks=True)

    p = sub.add_parser("retrieve", help="rank one image's proposals for a query")
    p.add_argument("--model", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--image-id", required=True)
    p.add_argument("--proposals", required=True)
    p.add_argument("--region-features", required=True)
    p.add_argument("--context-features", required=True)
    p.add_argument("--width", type=float, required=True)
    p.add_argument("--height", type=float, required=True)
    p.add_argument("--top-k", dest="top_k", type=int, default=10)

    p = sub.add_parser("eval", help="aggregate retrieval metrics over a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--scenario", choices=("gt", "proposals"), required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--proposals")
    p.add_argument("--region-features", required=True)
    p.add_argument("--context-features", required=True)
    p.add_argument("--per-query", dest="per_query", help="write per-query CSV here")

    p = sub.add_parser("generate", help="beam-search a description for a box")
    p.add_argument("--model", required=True)
    p.add_argument("--region-key", required=True)
    p.add_argument("--image-id", required=True)
    p.add_argument("--box", required=True, help="X1,Y1,X2,Y2 in pixels")
    p.add_argument("--width", type=float, required=True)
    p.add_argument("--height", type=float, required=True)
    p.add_argument("--region-features", required=True)
    p.add_argument("--context-features", required=True)
    p.add_argument("--beam", type=int, default=5)
    p.add_argument("--max-len", dest="max_len", type=int, default=10)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=DEFAULT_CHECK_SEED)

    p = sub.add_parser("synth", help="write a synthetic desk-scale dataset")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--images", type=int, default=16)

    return parser


def _check_out(path: str):
    """Raise now the error that writing an output to path would raise after
    the work: path is empty, in a missing directory, or a directory."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not path or not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _cmd_pretrain(args) -> int:
    _check_out(args.out)
    values, _ = _resolve_config(args, "pretrain")
    captions = _records(datastore.load_captions, args.captions)
    context_store = datastore.load_feature_store(args.context_features)
    vocab = build_vocab((c for rec in captions for c in rec.captions),
                        min_count=values["min_count"])
    config = ScrcConfig(vocab_size=len(vocab), caption_mode=True,
                        **{key: values[key] for key in _DIM_KEYS})
    _check_feat_dim(config, context_store)
    params = ScrcParams.init(config, make_rng(values["seed"]))
    report = pretrain_captioning(params, config, captions, context_store, vocab,
                                 TrainConfig(**_fields(TrainConfig, values)))
    datastore.save_checkpoint(params, config, vocab, args.out)
    _emit(report.to_dict())
    return 0


def _cmd_transfer(args) -> int:
    _check_out(args.out)
    params, config, vocab = datastore.load_checkpoint(args.input)
    if not config.caption_mode:
        raise InputError(f"{args.input}: transfer requires a caption-mode checkpoint")
    transfer_weights(params, config)
    out_config = config.replace(caption_mode=False)
    datastore.save_checkpoint(params, out_config, vocab, args.out)
    _emit({"transferred": True, "out": str(args.out)})
    return 0


def _cmd_finetune(args) -> int:
    _check_out(args.out)
    values, explicit = _resolve_config(args, "finetune")
    records = _records(datastore.load_annotations, args.annotations)
    region_store = datastore.load_feature_store(args.region_features)
    context_store = datastore.load_feature_store(args.context_features)

    if args.no_transfer_init:
        if args.input:
            raise ConfigError("--no-transfer-init and --in are mutually exclusive")
        vocab = build_vocab((d for rec in records for d in rec.descriptions),
                            min_count=values["min_count"])
        config = ScrcConfig(vocab_size=len(vocab), **_fields(ScrcConfig, values))
        params = ScrcParams.init(config, make_rng(values["seed"]))
    else:
        if not args.input:
            raise ConfigError("finetune needs --in CHECKPOINT or --no-transfer-init")
        params, config, vocab = datastore.load_checkpoint(args.input)
        if config.caption_mode:
            raise InputError(
                f"{args.input}: checkpoint is still in caption mode; run transfer first")
        for key in _DIM_KEYS:
            if key in explicit and values[key] != getattr(config, key):
                raise ConfigError(
                    f"{key}={values[key]} conflicts with checkpoint value "
                    f"{getattr(config, key)}")
        config = config.replace(mask_spatial=values["mask_spatial"],
                                mask_context=values["mask_context"])

    _check_feat_dim(config, region_store, context_store)
    tuples = datastore.build_training_tuples(records, region_store, context_store, vocab)
    report = finetune_retrieval(params, config, tuples, region_store, context_store,
                                TrainConfig(**_fields(TrainConfig, values)))
    datastore.save_checkpoint(params, config, vocab, args.out)
    _emit(report.to_dict())
    return 0


def _load_scorer(args):
    params, config, vocab = datastore.load_checkpoint(args.model)
    stores = [datastore.load_feature_store(args.region_features),
              datastore.load_feature_store(args.context_features)]
    _check_feat_dim(config, *stores)
    return (params, config, vocab, *stores)


def _candidate_inputs(pset: datastore.ProposalSet, img: ImageSize, region_store, context_store,
                      where):
    """An image's candidates as score_image takes them: region feature rows,
    spatial codes and the context vector. A refused set names where, the
    file its boxes came from."""
    if not len(pset.coords):
        raise InputError(f"{where}: image {pset.image_id!r} has an empty proposal set")
    x_context = context_store.get(pset.image_id)
    rows = np.array([region_store.get(key) for key in pset.region_keys])
    try:
        return rows, encode_spatial(pset.coords, img), x_context
    except InputError as e:
        raise InputError(f"{where}: image {pset.image_id!r}: {e}") from None


def _note_truncation(pset: datastore.ProposalSet):
    if pset.listed > len(pset.coords):
        print(f"note: image {pset.image_id!r} lists {pset.listed} proposals; "
              f"ranking the top {len(pset.coords)}", file=sys.stderr)


def _cmd_retrieve(args) -> int:
    if args.top_k < 1:
        raise InputError(f"--top-k must be >= 1, got {args.top_k}")
    params, config, vocab, region_store, context_store = _load_scorer(args)
    pset = {p.image_id: p for p in datastore.load_proposals(args.proposals)}.get(args.image_id)
    if pset is None:
        raise InputError(f"{args.proposals}: no proposals for image {args.image_id!r}")
    _note_truncation(pset)
    query_ids = encode_nonempty(vocab, args.query, "query")
    inputs = _candidate_inputs(pset, ImageSize(args.width, args.height), region_store,
                               context_store, args.proposals)
    scores = score_image(params, config, [query_ids], *inputs)[0].tolist()
    order = evalmetrics.rank_candidates(scores)
    ranked = [{"box": pset.coords[i].tolist(), "region_key": pset.region_keys[i],
               "log_prob": scores[i]} for i in order[:args.top_k]]
    _emit(ranked)
    return 0


def _cmd_eval(args) -> int:
    if args.per_query is not None:
        _check_out(args.per_query)
    if args.scenario == "proposals" and not args.proposals:
        raise ConfigError("--proposals is required for the proposals scenario")
    params, config, vocab, region_store, context_store = _load_scorer(args)
    records = _records(datastore.load_annotations, args.annotations)
    encode = functools.cache(
        lambda text: encode_nonempty(vocab, text, f"{args.annotations}: description"))

    by_image: dict[str, list[datastore.AnnotationRecord]] = {}
    for rec in records:
        by_image.setdefault(rec.image_id, []).append(rec)

    if args.scenario == "proposals":
        by_pset = {p.image_id: p for p in datastore.load_proposals(args.proposals)}
    scored = []  # per image pulled so far: id, boxes, descriptions, ground-truth rows

    def images():
        for image_id, recs in by_image.items():
            img = ImageSize(recs[0].width, recs[0].height)
            for rec in recs[1:]:
                if (rec.width, rec.height) != (img.width, img.height):
                    raise InputError(
                        f"{args.annotations}: image {image_id!r}: annotation records "
                        f"disagree on its size, {img.width:g}x{img.height:g} and "
                        f"{rec.width:g}x{rec.height:g}")
            if args.scenario == "gt":
                cands = datastore.ProposalSet(image_id, np.array([r.box.as_list() for r in recs]),
                                              [r.region_key for r in recs])
            elif image_id not in by_pset:
                raise InputError(f"{args.proposals}: no proposals for image {image_id!r}")
            else:
                cands = by_pset[image_id]
                _note_truncation(cands)
            inputs = _candidate_inputs(cands, img, region_store, context_store,
                                       args.annotations if args.scenario == "gt"
                                       else args.proposals)
            descs = [d for rec in recs for d in rec.descriptions]
            gts = np.array([rec.box.as_list() for rec in recs for _ in rec.descriptions])
            scored.append((image_id, cands.coords, descs, gts))
            yield [encode(d) for d in descs], *inputs

    # an image's (Q, N) scores rank in one call; its queries' ranked boxes are views
    results = [evalmetrics.RankedResult(desc, image_id, ranked, gt)
               for scores, (image_id, coords, descs, gts)
               in zip(score_images(params, config, images()), scored)
               for desc, ranked, gt in zip(descs, coords[evalmetrics.rank_rows(scores)], gts)]
    report = (evalmetrics.eval_gt_scenario(results) if args.scenario == "gt"
              else evalmetrics.eval_proposal_scenario(results))

    if args.per_query is not None:
        evalmetrics.write_per_query_csv(results, report.scenario, args.per_query)
    _emit(report.to_dict())
    return 0


def _cmd_generate(args) -> int:
    try:
        coords = [float(v) for v in args.box.split(",")]
    except ValueError:
        raise InputError(f"--box must be X1,Y1,X2,Y2, got {args.box!r}") from None
    if len(coords) != 4:
        raise InputError(f"--box must have 4 coordinates, got {len(coords)}")
    x_spatial = encode_spatial(BoundingBox(*coords), ImageSize(args.width, args.height))
    check_beam(args.beam, args.max_len)
    params, config, vocab, region_store, context_store = _load_scorer(args)
    tokens, log_prob = generate_description(
        params, config, region_store.get(args.region_key),
        context_store.get(args.image_id), x_spatial, args.beam, args.max_len)
    words = decode(vocab, tokens)
    _emit({"tokens": tokens, "text": " ".join(words), "log_prob": log_prob})
    return 0


def _cmd_gradcheck(args) -> int:
    report = finite_difference_check(args.seed)
    report["seed"] = args.seed
    report["threshold"] = GRADCHECK_THRESHOLD
    _emit(report)
    if report["max_rel_error"] > GRADCHECK_THRESHOLD:
        print(f"gradcheck failed: {report['max_rel_error']:.3e} > {GRADCHECK_THRESHOLD}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_synth(args) -> int:
    if not args.out_dir:  # Path("") is the working directory
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out_dir)
    _emit(synth.generate_dataset(Path(args.out_dir), args.seed, n_images=args.images))
    return 0


_COMMANDS = {
    "pretrain": _cmd_pretrain,
    "transfer": _cmd_transfer,
    "finetune": _cmd_finetune,
    "retrieve": _cmd_retrieve,
    "eval": _cmd_eval,
    "generate": _cmd_generate,
    "gradcheck": _cmd_gradcheck,
    "synth": _cmd_synth,
}


def _discard_stdout():
    """Point fd 1 at devnull after stdout's reader has gone, so that the flush
    at interpreter exit has nowhere to fail (the SIGPIPE note of Python's
    signal docs). A stdout with no fd, as under redirect_stdout, is left."""
    try:
        fd = sys.stdout.fileno()
    except OSError:
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except (ScrcError, OSError, MemoryError) as e:
        if isinstance(e, BrokenPipeError):
            _discard_stdout()
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130  # the shell's code for SIGINT


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
