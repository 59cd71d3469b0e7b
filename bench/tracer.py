"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions of the scrc modules where they are
looked up: every name bound to the original function in any loaded
``scrc`` module is rebound to a wrapper (``scrc.model.lstm_step``,
``scrc.train.backward``, ...), and ``remove`` restores each binding. The
package source is never edited.

A span records its name, start, end, the index of its parent span and the
id of the operation (query, eval command, training call, generation) it
belongs to. Self time is a span's duration minus the part of that interval
its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    query: object


def _lstm_unit(args) -> str:
    # The unit is told apart by which LstmParams object is passed; its
    # tensors carry the checkpoint prefix "lstm_language", "lstm_local" or
    # "lstm_global".
    prefix = args[0].tensors()[0].name.split(".", 1)[0]
    return prefix.removeprefix("lstm_")


# (module, attribute or Class.method, how the span name is refined from args)
TARGETS: tuple[tuple[str, str, Optional[Callable]], ...] = (
    ("datastore", "load_checkpoint", None),
    ("datastore", "load_feature_store", None),
    ("datastore", "load_proposals", None),
    ("datastore", "load_annotations", None),
    ("datastore", "save_checkpoint", None),
    ("nncore", "lstm_step", _lstm_unit),
    ("nncore", "lstm_step_backward", _lstm_unit),
    ("nncore", "log_softmax", None),
    ("nncore", "SgdOptimizer.step", None),
    ("nncore", "global_grad_norm", None),
    ("model", "score_candidates", None),
    ("model", "sequence_log_prob", None),
    ("model", "step_logits", None),
    ("model", "generate_description", None),
    ("model", "forward_trace", None),
    ("model", "backward", None),
    ("train", "finetune_retrieval", None),
    ("train", "make_batches", None),
    ("cli", "main", None),
    ("textproc", "encode", None),
    ("geometry", "encode_spatial", None),
    ("evalmetrics", "rank_candidates", None),
    ("evalmetrics", "RankedResult.build", None),
    ("evalmetrics", "eval_proposal_scenario", None),
)

LSTM_UNITS = ("language", "local", "global")

# Counts recorded at a span's boundary: span name -> (count name, amount).
COUNTERS: dict[str, tuple[str, Callable]] = {
    "model.score_candidates": ("candidates", lambda args: len(args[2])),
}


def span_names() -> list[str]:
    """Every span name a traced run can report, in TARGETS order."""
    names = []
    for module, attr, refine in TARGETS:
        base = f"{module}.{attr}"
        names.extend([f"{base}.{u}" for u in LSTM_UNITS] if refine else [base])
    return names


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.query: object = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> Span:
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.query)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, query: object = None):
        """A span opened by the benchmark itself, e.g. one per operation."""
        self.query = query
        span = self._enter(name)
        try:
            yield span
        finally:
            self._exit(span)

    def _wrap(self, name: str, fn: Callable, refine: Optional[Callable]) -> Callable:
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter:
                self.counts[f"{name}.{counter[0]}"] += counter[1](args)
            span = self._enter(f"{name}.{refine(args)}" if refine else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span)
        return traced

    def install(self):
        """Rebind every target at each scrc module that holds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "scrc" or n.startswith("scrc."))]
        for module_name, attr, refine in TARGETS:
            module = sys.modules[f"scrc.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                raw = vars(owner)[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, refine))
                else:
                    new = self._wrap(name, raw, refine)
                self._rebind(owner, meth, new)
                continue
            orig = getattr(module, attr)
            traced = self._wrap(name, orig, refine)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, key, traced)

    def _rebind(self, owner, key: str, new):
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, new)

    def remove(self):
        """Restore every binding install() replaced."""
        while self._restore:
            owner, key, old = self._restore.pop()
            setattr(owner, key, old)

    @contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.remove()


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the union of its children's intervals
    (clipped to the span)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(idx, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive ms and self ms, summed."""
    agg: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
    for s, own in zip(spans, self_times(spans)):
        a = agg[s.name]
        a["calls"] += 1
        a["ms"] += (s.end - s.start) * 1e3
        a["self_ms"] += own * 1e3
    return dict(agg)
