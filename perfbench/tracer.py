"""Per-layer tracing of one in-process CLI run.

Run as ``python3 perfbench/tracer.py [--plain] -- <deltasets argv>`` with
``src`` on ``PYTHONPATH``. The child calls ``deltasets.cli.main(argv)`` in a
fresh interpreter, so the degree-class DP memo starts cold as it does for the
CLI. Without ``--plain``, every library function in ``TARGETS`` is replaced,
on each ``deltasets`` module attribute that holds it, by a wrapper that
records a span (name, start, end, parent). Generator functions get one span
per ``next()``. Spans stay in memory; when the run ends the child writes
them to ``PERFBENCH_SPANS`` (if set) and a JSON summary to the file
descriptor in ``PERFBENCH_RESULT_FD``, then restores the originals and exits
with the CLI's exit code. ``--plain`` runs the CLI the same way with no
wrappers, which gives the untraced time the tracing overhead is measured
against.

A target missing from the package is reported under ``absent`` rather than
failing the run, so a later change that renames a function shows as a
missing metric, not as a zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from array import array

# (defining module, attribute); the span name is "<module>.<attribute>"
TARGETS = (
    ("cli", "main"),
    ("graphs", "enumerate_graphs"),
    ("graphs", "gen_gnp"),
    ("bounds", "scan_records"),
    ("bounds", "build_report"),
    ("bounds", "verify_corpus"),
    ("bounds", "brute_min_parts"),
    ("partition", "min_partition"),
    ("partition", "partition_curve"),
    ("partition", "make_partition"),
    ("partition", "clique_number"),
    ("partition", "independence_number"),
    ("partition", "chromatic_number"),
    ("smallness", "is_small"),
    ("smallness", "is_delta_small"),
    ("smallness", "is_alpha_small"),
    ("extremal", "stabilization_index"),
    ("extremal", "size_curve"),
)
# spans whose individual durations are reported as latency percentiles
LATENCY_SPANS = ("bounds.scan_records", "bounds.build_report")
DP_MEMO = ("partition", "_min_parts_by_degrees")
PACKAGE = "deltasets"


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Spans live in four parallel arrays; span i has name ``names[name[i]]``,
    parent index ``parent[i]`` (-1 at the root) and ``start``/``end`` from
    ``time.perf_counter``.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._installed: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def install(self, targets=TARGETS) -> None:
        """Wrap each target on every loaded package module that refers to it."""
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for mod_name, attr in targets:
            label = f"{mod_name}.{attr}"
            try:
                fn = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), attr)
            except (ImportError, AttributeError):
                self.absent.append(label)
                continue
            wrapper = self._wrap(label, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._installed.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def restore(self) -> None:
        for mod, key, fn in reversed(self._installed):
            setattr(mod, key, fn)
        self._installed.clear()

    def _wrap(self, label: str, fn):
        idx = len(self.names)
        self.names.append(label)
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        i = len(name)
                        name.append(idx)
                        parent.append(stack[-1])
                        end.append(0.0)
                        stack.append(i)
                        start.append(clock())
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            end[i] = clock()
                            stack.pop()
                        yield item
                finally:
                    it.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(name)
            name.append(idx)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, and the
        individual durations of the latency spans."""
        count = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {label: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for label in self.names}
        samples: dict[str, list[float]] = {label: [] for label in LATENCY_SPANS
                                           if label in out}
        for i in range(count):
            label = self.names[self.name[i]]
            entry = out[label]
            entry["calls"] += 1
            entry["total_s"] += dur[i]
            entry["self_s"] += dur[i] - child[i]
            if label in samples:
                samples[label].append(dur[i])
        return {"spans": out, "samples": samples}

    def dump(self, path: str) -> None:
        """Write the span arrays: one JSON header line, then the raw columns."""
        with open(path, "wb") as f:
            header = {"names": self.names, "count": len(self.name),
                      "columns": [["name", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]]}
            f.write(json.dumps(header).encode() + b"\n")
            for col in (self.name, self.parent, self.start, self.end):
                col.tofile(f)


def load_spans(path: str) -> tuple[list[str], dict[str, array]]:
    """Read a file written by ``Tracer.dump``."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        cols = {}
        for col_name, code in header["columns"]:
            col = array(code)
            col.fromfile(f, header["count"])
            cols[col_name] = col
    return header["names"], cols


def dp_memo_info() -> dict | None:
    """Hits and misses of the DP memo, or None when it no longer exists."""
    try:
        memo = getattr(importlib.import_module(f"{PACKAGE}.{DP_MEMO[0]}"), DP_MEMO[1])
        info = memo.cache_info()
    except (ImportError, AttributeError):
        return None
    return {"hits": info.hits, "misses": info.misses}


def main(argv: list[str]) -> int:
    plain = argv[:1] == ["--plain"]
    if plain:
        argv = argv[1:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    cli = importlib.import_module(f"{PACKAGE}.cli")
    tracer = Tracer()
    if not plain:
        tracer.install()
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        wall = time.perf_counter() - t0
        tracer.restore()
    sys.stdout.flush()
    result = {"exit": code, "wall_s": wall}
    if not plain:
        memo = dp_memo_info()
        if memo is None:
            tracer.absent.append(".".join(DP_MEMO))
        result.update(tracer.summary(), absent=tracer.absent, dp_memo=memo)
        spans_path = os.environ.get("PERFBENCH_SPANS")
        if spans_path:
            tracer.dump(spans_path)
    fd = int(os.environ["PERFBENCH_RESULT_FD"])
    with os.fdopen(fd, "w") as out:
        json.dump(result, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
