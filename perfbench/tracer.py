"""Outside-in tracing of nilmod's layers for the traced benchmark run.

`Tracer.install` wraps the public functions and methods of each layer
module, plus the arithmetic dunders and constructors of its classes,
and rebinds every alias another nilmod module took with
`from .x import f`, so calls made inside the library are seen too.
Each call made while an operation runs becomes one span
(name, start, end, parent, op id) kept in memory; self time is the
span's duration minus the time its child spans cover.  `uninstall`
puts every original back, so untraced runs carry no wrapper at all.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter

LAYERS = ("exactalg", "multipoly", "modcore", "embed", "diffop", "cli")
# Dunders worth a span: constructors (FDModule/PolySubmodule validation)
# and the arithmetic every layer leans on.
TRACED_DUNDERS = ("__init__", "__add__", "__sub__", "__mul__", "__rmul__", "__neg__")
# Per-scalar helpers (millions of calls) stay unwrapped; their time counts
# as their caller's self time.
UNTRACED = {"as_fraction", "vector", "format_rational", "parse_rational", "grlex_key"}


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.stack: list[int] = []
        self.op = None  # the op id spans are attributed to; None = not recording
        self.bits: dict = {}  # (layer, op id) -> largest bit length seen
        self._saved: list = []  # (owner, attribute, original) to restore

    # --- installation -------------------------------------------------

    def install(self) -> None:
        originals: dict[int, object] = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"{self.package}.{layer}"]
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and name not in UNTRACED):
                    wrapper = self._wrap(f"{layer}.{name}", layer, obj)
                    originals[id(obj)] = wrapper
                    self._set(mod, name, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
        # Rebind `from .x import f` aliases in every nilmod module.
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == self.package or modname.startswith(self.package + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and obj is not wrapper:
                    self._set(mod, name, wrapper)

    def _wrap_class(self, layer: str, cls) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in TRACED_DUNDERS:
                continue
            label = f"{layer}.{cls.__name__}.{name}"
            if isinstance(raw, classmethod):
                self._set(cls, name, classmethod(self._wrap(label, layer, raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._set(cls, name, staticmethod(self._wrap(label, layer, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, name, self._wrap(label, layer, raw))

    def _set(self, owner, name, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    # --- recording ----------------------------------------------------

    def _wrap(self, label: str, layer: str, fn):
        tracer = self
        spans, stack = self.spans, self.stack
        observe = self._observe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                observe(layer, out)
                return out
            finally:
                spans[index] = (label, start, perf_counter(), parent, tracer.op)
                stack.pop()

        return wrapper

    def _observe(self, layer: str, out) -> None:
        """Track coefficient growth from returned matrices, subspaces and
        polynomials."""
        if layer == "exactalg":
            rows = getattr(out, "entries", None) or getattr(out, "basis", None)
            b = max((_bits(x) for row in rows for x in row), default=0) if rows else 0
        elif layer == "multipoly":
            terms = getattr(out, "terms", None)
            b = max(_bits(c) for c in terms.values()) if terms else 0
        else:
            return
        key = (layer, self.op)
        if b > self.bits.get(key, 0):
            self.bits[key] = b

    def max_bits_over(self, ops: set) -> dict:
        out = {"exactalg": 0, "multipoly": 0}
        for (layer, op), b in self.bits.items():
            if op in ops:
                out[layer] = max(out[layer], b)
        return out

    def reset_stack(self) -> None:
        """Drop frames left open by an op interrupted at its deadline."""
        self.stack.clear()

    # --- results ------------------------------------------------------

    def summary(self, ops: set) -> dict:
        """Per span name over the spans of `ops`: calls, total and self
        seconds."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: dict[str, dict] = {}
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            label, start, end, _, op = span
            if op not in ops:
                continue
            row = out.setdefault(label, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def write(self, path: Path, summary: dict) -> None:
        """The per-name summary as one JSON line, then one tab-separated
        line per span: name, start, end, parent index, op id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"summary": summary}) + "\n")
            fh.writelines(
                f"{s[0]}\t{s[1]:.9f}\t{s[2]:.9f}\t{s[3]}\t{s[4]}\n" for s in self.spans if s is not None
            )
