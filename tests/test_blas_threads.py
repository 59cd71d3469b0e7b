"""Determinism across BLAS thread counts, checked in subprocesses because
OpenBLAS reads its thread count once, at load.

Batched scoring and the training forward pass multiply matrices with many
columns (GEMM), whose rounding OpenBLAS may change with the number of
threads; so may the transposed matrix-vector products of the backward
pass. At a fixed thread count every result is byte-identical from run to
run; across thread counts scores and training rows' log-probs agree to a
relative 1e-5, and scores rank the candidates identically. The dims are
large enough for OpenBLAS to split these products across threads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scrc
from scrc.evalmetrics import rank_candidates

SCRIPT = r"""
import hashlib, json
import numpy as np
from scrc.model import (ScoreRequest, ScrcConfig, ScrcParams, backward, forward_batch,
                        forward_trace, score_candidates, score_image)
from scrc.nncore import SgdOptimizer, make_rng

dim = 512
config = ScrcConfig(vocab_size=1000, embed_dim=dim, hidden_dim=dim, feat_dim=dim)
rng = make_rng(5)
params = ScrcParams.init(config, rng)
ctx = rng.random(dim)
query = [int(t) for t in rng.integers(3, config.vocab_size, size=6)]
reqs = [ScoreRequest(query, rng.random(dim), ctx, rng.uniform(-1, 1, 8)) for _ in range(64)]
scores = score_candidates(params, config, reqs)
image_queries = [[int(t) for t in rng.integers(3, config.vocab_size, size=n)] for n in (2, 6, 4, 1)]
image = score_image(params, config, image_queries, np.stack([r.x_box for r in reqs]),
                    np.stack([r.x_spatial for r in reqs]), ctx)
rows = [ScoreRequest([int(t) for t in rng.integers(3, config.vocab_size, size=n)],
                     rng.random(dim), rng.random(dim), rng.uniform(-1, 1, 8))
        for n in (3, 1, 10, 6, 2, 8, 5)]
batch = forward_batch(params, config, rows, keep_trace=False).log_probs.tolist()

opt = SgdOptimizer(params.tensors(), lr=0.1)
for req in reqs[:2]:
    trace = forward_trace(params, config, req)
    backward(params, config, trace, trace.targets, scale=0.5)
opt.step()
digest = hashlib.sha256(b"".join(t.value.tobytes() for t in params.tensors())).hexdigest()
print(json.dumps({"scores": [s.hex() for s in scores], "trained": digest,
                  "image": [[s.hex() for s in row] for row in image.tolist()],
                  "batch": [s.hex() for s in batch]}))
"""


def run_with_threads(threads: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    src = str(Path(scrc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    return json.loads(out.stdout)


@pytest.fixture(scope="module")
def runs():
    return {"1": run_with_threads(1), "2a": run_with_threads(2), "2b": run_with_threads(2)}


def test_fixed_thread_count_is_byte_identical(runs):
    assert runs["2a"] == runs["2b"]


def test_training_rows_are_byte_identical_at_a_fixed_thread_count(runs):
    assert len(runs["2a"]["batch"]) == 7
    assert runs["2a"]["batch"] == runs["2b"]["batch"]


def test_training_rows_agree_across_thread_counts(runs):
    one = np.array([float.fromhex(s) for s in runs["1"]["batch"]])
    two = np.array([float.fromhex(s) for s in runs["2a"]["batch"]])
    assert np.all(np.abs(one - two) <= 1e-5 * np.abs(one))


def test_thread_counts_agree_on_rankings(runs):
    one = np.array([float.fromhex(s) for s in runs["1"]["scores"]])
    two = np.array([float.fromhex(s) for s in runs["2a"]["scores"]])
    assert rank_candidates(list(one)) == rank_candidates(list(two))
    assert np.all(np.abs(one - two) <= 1e-5 * np.abs(one))


def test_per_image_pass_agrees_across_thread_counts(runs):
    one = np.array([[float.fromhex(s) for s in row] for row in runs["1"]["image"]])
    two = np.array([[float.fromhex(s) for s in row] for row in runs["2a"]["image"]])
    assert one.shape == (4, 64)
    for a, b in zip(one, two):
        assert rank_candidates(list(a)) == rank_candidates(list(b))
    assert np.all(np.abs(one - two) <= 1e-5 * np.abs(one))
