"""Command-line entry point.

Machine output goes to stdout as JSON, diagnostics to stderr; the exit code
is 0 only if the command fully succeeded. Configuration precedence:
command-line flags override config-file values override built-in defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import datastore, evalmetrics, synth
from .errors import ConfigError, InputError, ScrcError
from .geometry import BoundingBox, ImageSize, encode_spatial
from .gradcheck import DEFAULT_CHECK_SEED, finite_difference_check
from .model import ScrcConfig, ScrcParams, generate_description, score_image
from .nncore import make_rng
from .textproc import build_vocab, decode, encode
from .train import (TrainConfig, finetune_retrieval, pretrain_captioning, transfer_weights,
                    tuple_requests)

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
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    out = {}
    for key, value in raw.items():
        if key not in _SETTINGS:
            raise ConfigError(f"{path}: unknown config key {key!r}")
        want = _SETTINGS[key][0]
        if want is bool:
            if not isinstance(value, bool):
                raise ConfigError(f"{path}: key {key!r} must be a boolean")
        elif want is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{path}: key {key!r} must be a number")
            value = float(value)
        else:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{path}: key {key!r} must be an integer")
        out[key] = value
    return out


def _resolve_config(args, phase: str):
    """Merge defaults, config file and flags; returns (values, explicit keys)."""
    values = {key: default for key, (_, default) in _SETTINGS.items()}
    values.update(_PHASE_DEFAULTS[phase])
    explicit = set()
    if getattr(args, "config", None):
        file_vals = _load_config_file(args.config)
        values.update(file_vals)
        explicit.update(file_vals)
    for key in _SETTINGS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
            explicit.add(key)
    return values, explicit


def _fields(cls, values: dict) -> dict:
    """The settings that are fields of the dataclass cls."""
    return {f.name: values[f.name] for f in dataclasses.fields(cls) if f.name in values}


def _check_feat_dim(config: ScrcConfig, store: datastore.FeatureStore, name: str):
    if store.dim != config.feat_dim:
        raise ConfigError(
            f"{name} store has dim {store.dim} but the model expects feat_dim "
            f"{config.feat_dim}")


def _save_checkpoint(params: ScrcParams, config: ScrcConfig, vocab, path):
    """Writes a checkpoint, unless load_checkpoint would refuse it: the first
    tensor that holds a non-finite value is named, and nothing is written."""
    for t in params.tensors():
        if not np.isfinite(t.value).all():
            raise InputError(f"{path}: tensor {t.name!r} holds non-finite values; "
                             f"no checkpoint written")
    datastore.save_checkpoint(params, config, vocab, path)


def _add_config_flags(p: argparse.ArgumentParser, masks: bool = False):
    p.add_argument("--config", help="JSON config file")
    for key, (kind, _) in _SETTINGS.items():
        flag = "--" + key.replace("_", "-")
        if kind is not bool:
            p.add_argument(flag, type=kind)
        elif masks:
            p.add_argument(flag, action=argparse.BooleanOptionalAction, default=None)


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


def _cmd_pretrain(args) -> int:
    values, _ = _resolve_config(args, "pretrain")
    captions = datastore.load_captions(args.captions)
    context_store = datastore.load_feature_store(args.context_features)
    vocab = build_vocab((c for rec in captions for c in rec.captions),
                        min_count=values["min_count"])
    config = ScrcConfig(vocab_size=len(vocab), caption_mode=True,
                        **{key: values[key] for key in _DIM_KEYS})
    _check_feat_dim(config, context_store, "context feature")
    params = ScrcParams.init(config, make_rng(values["seed"]))
    report = pretrain_captioning(params, config, captions, context_store, vocab,
                                 TrainConfig(phase="pretrain", **_fields(TrainConfig, values)))
    _save_checkpoint(params, config, vocab, args.out)
    _emit(report.to_dict())
    return 0


def _cmd_transfer(args) -> int:
    params, config, vocab = datastore.load_checkpoint(args.input)
    if not config.caption_mode:
        raise InputError(f"{args.input}: transfer requires a caption-mode checkpoint")
    transfer_weights(params, config)
    out_config = config.replace(caption_mode=False)
    _save_checkpoint(params, out_config, vocab, args.out)
    _emit({"transferred": True, "out": str(args.out)})
    return 0


def _cmd_finetune(args) -> int:
    values, explicit = _resolve_config(args, "finetune")
    records = datastore.load_annotations(args.annotations)
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

    _check_feat_dim(config, region_store, "region feature")
    _check_feat_dim(config, context_store, "context feature")
    tuples = datastore.build_training_tuples(records, region_store, context_store, vocab)
    report = finetune_retrieval(params, config, tuples, region_store, context_store,
                                TrainConfig(phase="finetune", **_fields(TrainConfig, values)))
    _save_checkpoint(params, config, vocab, args.out)
    _emit(report.to_dict())
    return 0


def _load_scorer(args):
    params, config, vocab = datastore.load_checkpoint(args.model)
    stores = [datastore.load_feature_store(args.region_features),
              datastore.load_feature_store(args.context_features)]
    for store, name in zip(stores, ("region feature", "context feature")):
        _check_feat_dim(config, store, name)
    return (params, config, vocab, *stores)


def _candidate_inputs(pset: datastore.ProposalSet, img: ImageSize, region_store, context_store):
    """An image's candidates as score_image takes them: region feature rows,
    spatial codes and the context vector."""
    if not len(pset.coords):
        raise InputError(f"image {pset.image_id!r} has an empty proposal set")
    x_context = context_store.get(pset.image_id)
    rows, spatials = [], []
    for k, (box, key) in enumerate(zip(pset.boxes, pset.region_keys)):
        rows.append(region_store.get(key))
        try:
            spatials.append(encode_spatial(box, img))
        except InputError as e:
            raise InputError(f"image {pset.image_id!r}: box {k}: {e}") from None
    return np.stack(rows), np.stack(spatials), x_context


def _encode_query(vocab, text: str) -> list[int]:
    ids = encode(vocab, text)
    if not ids:
        raise InputError(f"query tokenizes to nothing: {text!r}")
    return ids


def _note_truncation(pset: datastore.ProposalSet):
    if pset.listed > len(pset.coords):
        print(f"note: image {pset.image_id!r} lists {pset.listed} proposals; "
              f"ranking the top {len(pset.coords)}", file=sys.stderr)


def _cmd_retrieve(args) -> int:
    params, config, vocab, region_store, context_store = _load_scorer(args)
    if args.top_k < 1:
        raise InputError(f"--top-k must be >= 1, got {args.top_k}")
    by_image = {p.image_id: p for p in datastore.load_proposals(args.proposals)}
    if args.image_id not in by_image:
        raise InputError(f"image {args.image_id!r} not present in proposals")
    pset = by_image[args.image_id]
    _note_truncation(pset)
    query_ids = _encode_query(vocab, args.query)
    inputs = _candidate_inputs(pset, ImageSize(args.width, args.height), region_store,
                               context_store)
    scores = score_image(params, config, [query_ids], *inputs)[0].tolist()
    order = evalmetrics.rank_candidates(scores)
    ranked = [{"box": pset.boxes[i].as_list(), "region_key": pset.region_keys[i],
               "log_prob": scores[i]} for i in order[:args.top_k]]
    _emit(ranked)
    return 0


def _cmd_eval(args) -> int:
    params, config, vocab, region_store, context_store = _load_scorer(args)
    records = datastore.load_annotations(args.annotations)

    by_image: dict[str, list[datastore.AnnotationRecord]] = {}
    for rec in records:
        by_image.setdefault(rec.image_id, []).append(rec)

    if args.scenario == "proposals":
        if not args.proposals:
            raise ConfigError("--proposals is required for the proposals scenario")
        by_pset = {p.image_id: p for p in datastore.load_proposals(args.proposals)}
    results = []
    for image_id, recs in by_image.items():
        img = ImageSize(recs[0].width, recs[0].height)
        for rec in recs[1:]:
            if (rec.width, rec.height) != (img.width, img.height):
                raise InputError(
                    f"image {image_id!r}: annotation records disagree on its size, "
                    f"{img.width:g}x{img.height:g} and {rec.width:g}x{rec.height:g}")
        if args.scenario == "gt":
            cands = datastore.ProposalSet(image_id, np.array([r.box.as_list() for r in recs]),
                                          [r.region_key for r in recs])
        elif image_id not in by_pset:
            raise InputError(f"image {image_id!r} not present in proposals")
        else:
            cands = by_pset[image_id]
            _note_truncation(cands)
        inputs = _candidate_inputs(cands, img, region_store, context_store)
        queries = [(rec, desc) for rec in recs for desc in rec.descriptions]
        scores = score_image(params, config, [_encode_query(vocab, d) for _, d in queries],
                             *inputs)
        results += [evalmetrics.RankedResult.build(desc, image_id, cands.boxes, row, rec.box)
                    for (rec, desc), row in zip(queries, scores.tolist())]
    report = (evalmetrics.eval_gt_scenario(results) if args.scenario == "gt"
              else evalmetrics.eval_proposal_scenario(results))

    if args.per_query:
        evalmetrics.write_per_query_csv(results, report.scenario, args.per_query)
    _emit(report.to_dict())
    return 0


def _cmd_generate(args) -> int:
    params, config, vocab, region_store, context_store = _load_scorer(args)
    try:
        coords = [float(v) for v in args.box.split(",")]
    except ValueError:
        raise InputError(f"--box must be X1,Y1,X2,Y2, got {args.box!r}") from None
    if len(coords) != 4:
        raise InputError(f"--box must have 4 coordinates, got {len(coords)}")
    box = BoundingBox(*coords)
    x_spatial = encode_spatial(box, ImageSize(args.width, args.height))
    tokens, log_prob = generate_description(
        params, config, region_store.get(args.region_key),
        context_store.get(args.image_id), x_spatial, args.beam, args.max_len)
    words = decode(vocab, tokens)
    _emit({"tokens": tokens, "text": " ".join(words), "log_prob": log_prob})
    return 0


def _cmd_gradcheck(args) -> int:
    report = finite_difference_check(seed=args.seed)
    report["seed"] = args.seed
    report["threshold"] = GRADCHECK_THRESHOLD
    _emit(report)
    if report["max_rel_error"] > GRADCHECK_THRESHOLD:
        print(f"gradcheck failed: {report['max_rel_error']:.3e} > {GRADCHECK_THRESHOLD}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_synth(args) -> int:
    if args.images < 1:
        raise InputError(f"--images must be >= 1, got {args.images}")
    manifest = synth.generate_dataset(Path(args.out_dir), args.seed, n_images=args.images)
    _emit(manifest)
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ScrcError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())
