"""Per-layer spans recorded from outside the package.

Each traced function of a twistlab module is replaced by a wrapper that opens
a span on entry and closes it in ``finally``, so an operation stopped by the
time limit still leaves a well-formed trace.  The package binds names with
``from .x import f``, so a wrapper is installed in every ``twistlab.*``
namespace that holds the original function object, not only in its home
module.  Counters are read from arguments and return values after the span
has closed; the time spent reading them is subtracted from every enclosing
span, so it counts against no layer.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = (
    "exact", "presentations", "surfaces", "words", "systems",
    "metaplectic", "invariants", "schema", "cli",
)


def _snf_counters(args, result, add):
    a = args[0]
    add("exact.snf.cells", a.rows * a.cols)
    add("exact.snf.max_dim", max(a.rows, a.cols), reduce=max)
    bits = 0
    for m in (result.left, result.right):
        for row in m.entries:
            for x in row:
                if x and abs(x).bit_length() > bits:
                    bits = abs(x).bit_length()
    add("exact.snf.max_bits", bits, reduce=max)


def _build_counters(args, result, add):
    add("systems.crossings", result.crossings)
    add("systems.curves", len(result.system.curves))


def _abelianize_counters(args, result, add):
    add("presentations.relator_letters", sum(len(r) for r in args[0].relators))


# layer -> {span name: attribute in the layer's module ("Class.method" for
# methods), optional counter reader}.  Every function that another layer or
# the benchmark calls is listed, so each layer's time lands in its own spans;
# helpers called only from inside their own layer need no span.
TRACED: Dict[str, Dict[str, Tuple[str, Optional[Callable]]]] = {
    "exact": {
        "snf": ("smith_normal_form", _snf_counters),
        "rank_q": ("rank_over_rationals", None),
        "inverse": ("inverse_unimodular", None),
        "matmul": ("IntMatrix.__mul__", None),
        "apply": ("IntMatrix.apply", None),
    },
    "presentations": {
        "abelianize": ("abelianize", _abelianize_counters),
        "rs_cover": ("reidemeister_schreier_double_cover", None),
        "lift": ("lift_loop", None),
        "deck": ("DoubleCover.deck_matrix", None),
        "quotient": ("quotient_by_normal_closure", None),
        "parse_word": ("parse_word", None),
    },
    "surfaces": {
        "transvection": ("twist_transvection", None),
        "pairing": ("intersection_pairing", None),
        "symplectic_j": ("symplectic_j", None),
        "is_symplectic": ("is_symplectic", None),
    },
    "words": {
        "evaluate": ("evaluate_homological", None),
        "is_positive": ("is_positive", None),
    },
    "systems": {
        "build": ("build_geometric_presentation", _build_counters),
        "verify": ("verify_geometric_presentation", None),
    },
    "metaplectic": {
        "maslov": ("maslov_index", None),
        "multiply": ("multiply", None),
        "evaluate": ("evaluate_meta_word", None),
        "boundary": ("boundary_multiplicity", None),
        "szpiro": ("szpiro_check", None),
        "search": ("search_positive_identity", None),
        "parse": ("parse_meta_word", None),
    },
    "invariants": {
        "report": ("invariant_report", None),
        "signature": ("signature", None),
        "verify": ("Factorization.verify_homological", None),
    },
    "schema": {
        "load_json": ("load_json", None),
        "factorization": ("factorization_from_dict", None),
        "presentation": ("presentation_from_dict", None),
        "curve_system": ("curve_system_to_dict", None),
    },
    "cli": {
        "main": ("main", None),
    },
}


class Tracer:
    """Spans and counters of one traced phase, kept in memory."""

    def __init__(self):
        self.spans: List[tuple] = []  # (op, id, parent, name, start, duration)
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        self._stack: List[list] = []  # [id, name, start, excluded at start, child time]
        self._excluded = 0.0  # clock time spent reading counters
        self._next_id = 0
        self._op = -1
        self._restore: List[Tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self):
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "twistlab" or name.startswith("twistlab."))
        }
        for layer, functions in TRACED.items():
            home = modules[f"twistlab.{layer}"]
            for span, (attr, counters) in functions.items():
                name = f"{layer}.{span}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    self._replace(cls, meth, self._wrap(name, getattr(cls, meth), counters))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(name, original, counters)
                for mod in modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, key, wrapper)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def _replace(self, owner, key, value):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, name: str, fn: Callable, counters: Optional[Callable]) -> Callable:
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name)
            result = done = None
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                leave(frame, counters if done else None, args, result)

        return traced

    # -- spans -------------------------------------------------------------

    def begin_op(self, op: int):
        self._op = op
        self._stack.clear()

    def end_op(self):
        # frames left open by an interrupt inside the tracer itself
        while self._stack:
            self._leave(self._stack[-1], None, (), None)

    def _enter(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter(), self._excluded, 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, counters, args, result):
        end = time.perf_counter()
        if not self._stack or self._stack[-1] is not frame:
            return
        self._stack.pop()
        span_id, name, start, excluded0, child = frame
        duration = end - start - (self._excluded - excluded0)
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[4] += duration
        self.spans.append((self._op, span_id, parent[0] if parent else None, name, start, duration))
        if counters is not None:
            counters(args, result, self.add)
            self._excluded += time.perf_counter() - end

    def add(self, key: str, value: float, reduce: Callable = None):
        if reduce is None:
            self.counters[key] = self.counters.get(key, 0) + value
        else:
            self.counters[key] = reduce(self.counters.get(key, value), value)

    # -- results -----------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, t in self.self_s.items():
            out[name.split(".")[0]] += t
        return out

    def write(self, path: str):
        with gzip.open(path, "wt") as fh:
            fh.write('["op", "id", "parent", "name", "start_s", "duration_s"]\n')
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
