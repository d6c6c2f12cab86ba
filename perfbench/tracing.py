"""Outside-in layer tracing: wrap public ``dfuse`` functions from the benchmark.

Nothing in ``src/`` is changed. ``Tracer.install`` swaps each target function
for a wrapper under every name any loaded ``dfuse`` module binds it to, so
calls through ``from .x import f`` bindings are seen too. ``Tracer.remove``
restores the originals.

Two kinds of wrapper:

* a *span* wrapper records ``(id, parent, name, start_ns, end_ns)`` in memory
  and adds per-name call counts plus optional work counters (bytes, rows);
* a *count* wrapper only counts calls. It is used for leaf functions called
  hundreds of thousands of times per round, where a span each would cost more
  than the work it measures.

Spans are kept in memory and written out by ``write_spans`` when the run ends.
A target that a later change removes or renames is listed in ``missing`` and
the run goes on.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


def _file_bytes(arg: str):
    def measure(bound):
        return os.path.getsize(bound[arg])
    return measure


def _len_of(arg: str):
    def measure(bound):
        return len(bound[arg])
    return measure


@dataclass(frozen=True)
class Target:
    module: str                 # dfuse submodule that defines the function
    function: str
    kind: str = "span"          # "span" or "count"
    work: str | None = None     # "bytes" or "rows": an extra per-call counter
    measure: Callable | None = None  # bound arguments -> work amount, after the call

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


TARGETS = (
    Target("corpus", "gen_corpus", work="bytes", measure=_file_bytes("path")),
    Target("corpus", "load_corpus", work="bytes", measure=_file_bytes("path")),
    Target("encoder", "video_forward", work="rows", measure=_len_of("stacks")),
    Target("encoder", "text_forward"),
    Target("encoder", "sample_frame_indices", kind="count"),
    Target("numerics", "as_matrix", kind="count"),
    Target("training", "make_pseudo_labels"),
    Target("losses", "total_loss_grad"),
    Target("training", "adamw_step"),
    Target("training", "validation_loss"),
    Target("evaluation", "evaluate_model"),
    Target("evaluation", "class_embeddings"),
    Target("checkpointio", "load_checkpoint"),
    Target("checkpointio", "save_checkpoint"),
    Target("fusion", "fuse_weights"),
    Target("fileio", "atomic_write_bytes", work="bytes", measure=_len_of("data")),
    Target("fileio", "sha256_file", work="bytes", measure=_file_bytes("path")),
    Target("gradcheck", "run_trial"),
    Target("gradcheck", "finite_difference_grad"),
)


@dataclass
class Tracer:
    """Span recorder; one per traced run, installed around the timed rounds."""

    targets: tuple = TARGETS
    spans: list = field(default_factory=list)     # (id, parent, name, start_ns, end_ns)
    calls: dict = field(default_factory=dict)
    work: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)  # (module, attribute, original)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block; used for the CLI-command layer."""
        span_id = self._open(name)
        try:
            yield
        finally:
            self._close(span_id)

    def _open(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([span_id, parent, name, time.perf_counter_ns(), 0])
        self._stack.append(span_id)
        self.calls[name] = self.calls.get(name, 0) + 1
        return span_id

    def _close(self, span_id: int) -> None:
        self.spans[span_id][4] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, target: Target, fn):
        name = target.name
        if target.kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.calls[name] = self.calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return counted

        signature = inspect.signature(fn)

        def add_work(args, kwargs):
            try:
                amount = target.measure(signature.bind(*args, **kwargs).arguments)
            except (KeyError, TypeError, OSError):
                return  # argument renamed or file gone: the counter reads 0
            key = f"{name}.{target.work}"
            self.work[key] = self.work.get(key, 0) + int(amount)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span_id = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span_id)
            if target.measure is not None:
                add_work(args, kwargs)
            return result
        return spanned

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "dfuse" or key.startswith("dfuse."))]
        for target in self.targets:
            home = sys.modules.get(f"dfuse.{target.module}")
            original = getattr(home, target.function, None) if home is not None else None
            if not callable(original):
                self.missing.append(target.name)
                continue
            wrapper = self._wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        """Zero the counters, keeping the spans and the wrappers."""
        self.calls.clear()
        self.work.clear()

    def summary(self, first_span: int = 0) -> dict[str, float]:
        """Counters plus per-name ``s`` (inclusive) and ``self_s`` of spans from ``first_span``.

        Self time is a span's duration minus the time its direct children cover.
        """
        total: dict[str, int] = {}
        child: dict[str, int] = {}
        for _, parent, name, start, end in self.spans[first_span:]:
            total[name] = total.get(name, 0) + (end - start)
            if parent >= 0:
                parent_name = self.spans[parent][2]
                child[parent_name] = child.get(parent_name, 0) + (end - start)
        out: dict[str, float] = {}
        for name, count in self.calls.items():
            out[f"{name}.calls"] = count
        for name, ns in total.items():
            out[f"{name}.s"] = ns / 1e9
            out[f"{name}.self_s"] = (ns - child.get(name, 0)) / 1e9
        out.update(self.work)
        return out

    def write_spans(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"record": "meta", **meta, "missing": self.missing}) + "\n")
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")

