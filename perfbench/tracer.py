"""In-memory span tracer installed from outside the program under test.

``Tracer.install`` replaces each named function, in every loaded ``heisim``
module that refers to it, with a wrapper that records a span: name, start,
end, parent span and report id. ``uninstall`` puts the originals back. A
name that no longer exists is listed in ``absent`` instead of failing, so
the benchmark keeps running across refactors of the program.

A span's self time is its duration minus the time its child spans cover.
Per-kind labels (``network.apply_gate.CNOT``) come from ``KIND_OF``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


def _gate_kind(args, kwargs):
    gate = args[1] if len(args) > 1 else kwargs.get("gate")
    return getattr(gate, "kind", None)


def _query_kind(args, kwargs):
    query = args[1] if len(args) > 1 else kwargs.get("query")
    return query.get("kind") if isinstance(query, dict) else None


# Functions whose spans are also split by the kind of their argument.
KIND_OF = {
    "network.apply_gate": _gate_kind,
    "runner._answer_query": _query_kind,
}


PACKAGE = "heisim"


class Tracer:
    def __init__(self, names):
        self.names = tuple(names)
        self.absent: list[str] = []
        self.spans: list[list] = []  # [name, start, end, parent, report]
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.report_id = None
        self._stack: list[list] = []  # [span index, time covered by children]
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        kind_of = KIND_OF.get(name)

        def traced(*args, **kwargs):
            kind = kind_of(args, kwargs) if kind_of else None
            label = f"{name}.{kind}" if kind else name
            parent = self._stack[-1][0] if self._stack else None
            index = len(self.spans)
            span = [label, time.perf_counter(), None, parent, self.report_id]
            self.spans.append(span)
            self._stack.append([index, 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                _, covered = self._stack.pop()
                duration = span[2] - span[1]
                if self._stack:
                    self._stack[-1][1] += duration
                for key in ((name, label) if kind else (name,)):
                    self.self_s[key] += duration - covered
                    self.total_s[key] += duration
                    self.calls[key] += 1

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        for name in self.names:
            module_name, _, attr = name.rpartition(".")
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(module, attr, None) if module else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, report in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "report": report})
                         + "\n")
