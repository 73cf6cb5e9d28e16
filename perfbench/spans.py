"""In-memory spans around the public functions of each annote_kb module.

The engine has no instrumentation of its own, so the tracer wraps the
module-level functions (and KnowledgeBase methods) from outside.  A
function imported by name into another module (cli binds load_facts,
query binds infer_attributes, the package re-exports everything) is
replaced wherever it is bound, by identity, so calls between modules are
spanned too.  Wrapping lasts from start() to stop(), so untraced phases run the engine
unmodified.

A span is [name, start_ns, end_ns, parent index, phase, counters].  A
recursive call (format_query formats its operands through itself, load_facts
goes through load_facts_into) opens no second span of the same name.
"""

from __future__ import annotations

import gc
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, attribute) -> span name.  Attribute "KnowledgeBase.x" is a method.
SPANS = {
    ("factfile", "load_facts"): "factfile.load",
    ("factfile", "load_facts_into"): "factfile.load",
    ("factfile", "save_facts"): "factfile.save",
    ("store", "KnowledgeBase.insert"): "store.insert",
    ("store", "KnowledgeBase.trace_chain"): "store.trace_chain",
    ("store", "KnowledgeBase.value_lists_of"): "store.value_lists_of",
    ("store", "KnowledgeBase.attributes_of"): "store.attributes_of",
    ("query", "parse_query"): "query.parse",
    ("query", "evaluate"): "query.evaluate",
    ("query", "format_query"): "query.format",
    ("query", "rewrite_constrained"): "query.rewrite",
    ("query", "search_constrained"): "query.search",
    ("inference", "infer_attributes"): "inference.infer_attributes",
    ("inference", "infer_values"): "inference.infer_values",
    ("inference", "explicate"): "inference.explicate",
    ("cli", "main"): "cli.main",
}

STORE_READS = ("store.trace_chain", "store.value_lists_of", "store.attributes_of")


def _load_counters(args, result):
    text = args[-1]
    return {"lines": text.count("\n"), "diagnostics": len(result.diagnostics)}


# Counts taken where the work happens, from a call's arguments and result.
COUNTERS = {
    "factfile.load": _load_counters,
    "factfile.save": lambda args, result: {"bytes": len(result.encode("utf-8"))},
    "query.evaluate": lambda args, result: {"ids": len(result)},
    "inference.infer_attributes": lambda args, result: {"candidates": len(result)},
}


class Tracer:
    """Collects spans and GC pauses between start() and stop()."""

    def __init__(self, package) -> None:
        self.package = package
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = ""
        self.gc_pause_ns: dict[str, int] = defaultdict(int)  # per phase
        self.gc_collections: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self._gc_start = 0
        self._patched: list[tuple[object, str, object]] = []

    def start(self, phase: str) -> None:
        """Patch the engine and record spans tagged with phase until stop()."""
        self.phase = phase
        package = self.package
        prefix = package.__name__ + "."
        for module_name, _ in SPANS:
            importlib.import_module(prefix + module_name)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (m is package or name.startswith(prefix))]
        for (module_name, attr), span_name in SPANS.items():
            module = sys.modules[prefix + module_name]
            if attr.startswith("KnowledgeBase."):
                cls = module.KnowledgeBase
                method = attr.split(".", 1)[1]
                self._replace(cls, method, self._wrap(span_name, cls.__dict__[method]))
                continue
            original = vars(module)[attr]
            wrapper = self._wrap(span_name, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, name, wrapper)
        gc.callbacks.append(self._on_gc)

    def stop(self) -> None:
        """Undo every patch, most recent first, and stop timing GC."""
        for owner, name, value in reversed(self._patched):
            setattr(owner, name, value)
        self._patched.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _replace(self, owner, name, value) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self.stack
        counters = COUNTERS.get(name)
        clock = time.perf_counter_ns

        def spanned(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, self.phase, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counters is not None:
                span[5] = counters(args, result)
            return result

        return spanned

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        elif self._gc_start:
            self.gc_pause_ns[self.phase] += time.perf_counter_ns() - self._gc_start
            self.gc_collections[self.phase][info["generation"]] += 1
            self._gc_start = 0

    def self_times(self) -> list[int]:
        """Per span: duration minus the durations of its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        return own

    def by_name(self, phases: tuple[str, ...] | None = None) -> dict[str, list[tuple[list, int]]]:
        """Spans grouped by name, each with its self time, optionally by phase."""
        grouped: dict[str, list[tuple[list, int]]] = defaultdict(list)
        for span, own in zip(self.spans, self.self_times()):
            if phases is None or span[4] in phases:
                grouped[span[0]].append((span, own))
        return grouped

    def write(self, path) -> None:
        """Write spans as JSON lines: name, start/end ns, parent, phase, counters."""
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, phase, counts) in enumerate(self.spans):
                record = {"id": index, "name": name, "start_ns": start, "end_ns": end,
                          "parent": parent, "phase": phase}
                if counts:
                    record["counters"] = counts
                out.write(json.dumps(record, ensure_ascii=False) + "\n")
