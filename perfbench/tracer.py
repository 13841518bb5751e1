"""In-memory span tracer that wraps gaquot's public functions.

install() replaces every public module-level function of the layer
modules, plus a few hot methods, at every binding site in the loaded
gaquot package (so `from .groebner import buchberger` inside families,
derivations and cli is wrapped as well); uninstall() puts the originals
back.  Each call records a span [name, parent index, start, end, attrs]
in memory; summarize() turns a batch of spans into per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import defaultdict

LAYER_MODULES = ("poly", "groebner", "linalg", "derivations", "families", "cli")

# Methods traced besides the module-level functions: (module, class, method).
METHODS = (("poly", "Polynomial", "__mul__"), ("poly", "Polynomial", "substitute"),
           ("derivations", "Derivation", "apply"))

# grevlex_key is the monomial sort key, called millions of times per run from
# inside the reduction loop; a span per call would measure the tracer.
SKIP = frozenset({"poly.grevlex_key"})


def _attrs_normal_form(args, kwargs, result):
    return {"in_terms": len(args[0].terms)}


def _attrs_buchberger(args, kwargs, result):
    return {"out_size": len(result.basis),
            "out_terms": sum(len(g.terms) for g in result.basis)}


def _attrs_membership(args, kwargs, result):
    return {"member": int(result[0])}


def _attrs_kernel_linear(args, kwargs, result):
    return {"kept": len(result)}


def _attrs_nullspace(args, kwargs, result):
    return {"cells": len(args[0]) * args[1]}


# Work counts taken from the arguments and result of a call.
ATTRS = {
    "groebner.normal_form": _attrs_normal_form,
    "groebner.buchberger": _attrs_buchberger,
    "groebner.subalgebra_membership": _attrs_membership,
    "derivations.kernel_linear": _attrs_kernel_linear,
    "linalg.nullspace": _attrs_nullspace,
}


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def _targets(self):
        """Original function -> span name."""
        targets = {}
        for short in LAYER_MODULES:
            module = importlib.import_module(f"gaquot.{short}")
            for attr, obj in vars(module).items():
                name = f"{short}.{attr}"
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == module.__name__ and name not in SKIP):
                    targets[obj] = name
        for short, cls, method in METHODS:
            owner = getattr(sys.modules[f"gaquot.{short}"], cls)
            targets[vars(owner)[method]] = f"{short}.{cls}.{method}"
        return targets

    def install(self):
        targets = self._targets()
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        owners = [m for n, m in sorted(sys.modules.items())
                  if n == "gaquot" or n.startswith("gaquot.")]
        for short, cls, _ in METHODS:
            owners.append(getattr(sys.modules[f"gaquot.{short}"], cls))
        owners = list({id(o): o for o in owners}.values())
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(owner, attr, wrappers[obj])
                    self._patches.append((owner, attr, obj))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self):
        """The spans recorded so far, which are then forgotten."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[1] >= 0:
            children[span[1]].append(index)
    result = []
    for index, (_, _, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted((spans[c][2], spans[c][3]) for c in children[index]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


def _has_ancestor(spans, index, names):
    parent = spans[index][1]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][1]
    return False


KERNEL_METHODS = frozenset({"derivations.kernel_linear", "derivations.kernel_saturation"})


def summarize(spans, factors=None):
    """Per span name: calls, self_s, total_s (outermost spans only, so
    recursion is not counted twice) and the summed work counts.  Adds
    subalgebra membership time under the kernel methods and the kernel
    candidate count, both taken from the span tree.  factors, one per
    span, scale its times (see Meter in run.py)."""
    stats = defaultdict(lambda: defaultdict(float))
    factors = factors or [1.0] * len(spans)
    for index, (span, own, factor) in enumerate(zip(spans, self_times(spans), factors)):
        name, parent, start, end, attrs = span
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += own * factor
        if not _has_ancestor(spans, index, {name}):
            entry["total_s"] += (end - start) * factor
        for key, value in (attrs or {}).items():
            entry[key] += value
        if name == "groebner.subalgebra_membership":
            if parent >= 0 and spans[parent][0] == "derivations.kernel_linear":
                stats["derivations.kernel_linear"]["candidates"] += 1
            if _has_ancestor(spans, index, KERNEL_METHODS) \
                    and not _has_ancestor(spans, index, {name}):
                entry["under_kernel_s"] += (end - start) * factor
    return {name: dict(entry) for name, entry in stats.items()}
