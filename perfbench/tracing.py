"""Per-layer tracing of cb_lab, installed from outside the library.

The tracer replaces each traced public function with a wrapper in every
``cb_lab`` module namespace that binds it (modules import names directly,
e.g. ``campaign`` does ``from .cb import is_cb``), and replaces traced
methods on their class.  Each call records a span: name, start, end, parent
span and item id.  Spans stay in memory and are written out at the end; the
per-function call counts and self times are accumulated as spans close.
Self time is a span's duration minus the durations of its wrapped children,
so the self times of all spans add up to the time spent inside top-level
spans.

Two ``FieldSpec`` methods are only counted, not timed: they run tens of
millions of times per pass, and a span around each would swamp the numbers.

Only public names are wrapped; nothing inside ``src/`` is modified.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# layer -> traced public names, as "function" or "Class.method".
SPANNED = {
    "linalg": ("rref", "kernel", "reduce_against", "in_row_space", "dot", "rank"),
    "forms": ("evaluation_row", "eval_matrix"),
    "projective": ("span", "intersect", "is_split", "merge_intersecting"),
    "cb": ("is_cb", "excise"),
    "cover": ("candidate_flats", "exists_cover", "min_cover"),
    "generators": (
        "generate",
        "gen_rnc",
        "gen_skew_lines",
        "gen_two_plane_conics",
        "gen_plane_curve_ci",
        "gen_elliptic_quartic",
    ),
    "matroid": ("Matroid.from_points", "Matroid.rank", "flats", "is_mcb", "exists_flat_cover"),
    "campaign": ("run_campaign",),
}
COUNTED = {"fields": ("FieldSpec.mul", "FieldSpec.add")}

# Derived per-layer metrics beyond .calls / .self_s, with their units.
EXTRA = {
    "linalg.rref.rows": "count",
    "cb.is_cb.true_ratio": "ratio",
    "cover.candidate_flats.flats": "count",
    "cover.exists_cover.nodes": "count",
    "cover.exists_cover.found_ratio": "ratio",
    "matroid.rank.oracle_ratio": "ratio",
    "campaign.discarded_per_trial": "1/trial",
}

# Whole-pass figures of the traced run: item seconds of the traced pass, the
# part of them outside any wrapped call, and the tracing overhead.
TRACE_TOTALS = ("trace.traced_s", "trace.outside_s", "trace.overhead_s")


def span_name(layer: str, target: str) -> str:
    return f"{layer}.{target.rsplit('.', 1)[-1]}"


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, targets in SPANNED.items():
        for target in targets:
            name = span_name(layer, target)
            units[f"{name}.calls"] = "count"
            units[f"{name}.self_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    for layer, targets in COUNTED.items():
        for target in targets:
            units[f"{span_name(layer, target)}.calls"] = "count"
    units.update(EXTRA)
    for name in TRACE_TOTALS:
        units[name] = "s"
    return units


def resolve(layer: str, target: str):
    """(owner, attribute, current value) of one traced name in cb_lab."""
    module = sys.modules[f"cb_lab.{layer}"]
    if "." in target:
        cls_name, attr = target.split(".")
        owner = getattr(module, cls_name)
        return owner, attr, owner.__dict__[attr]
    return module, target, getattr(module, target)


def lib_modules():
    """Every imported cb_lab module, the package included."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "cb_lab" or name.startswith("cb_lab."))]


class Tracer:
    """Spans around cb_lab's public functions; install() patches, uninstall() restores."""

    def __init__(self):
        self.names = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = []
        self.self_s = []
        self.counts = {}
        self.extra = {"rows": 0, "cb_true": 0, "flats": 0, "nodes": 0, "found": 0,
                      "discarded": 0, "trials": 0}
        self.item = -1
        self._stack = [-1]
        self._child = [0.0]
        self._undo = []

    # -- installation -----------------------------------------------------

    def install(self):
        modules = lib_modules()
        for layer, targets in SPANNED.items():
            for target in targets:
                self._patch(modules, layer, target, self._spanned)
        for layer, targets in COUNTED.items():
            for target in targets:
                self._patch(modules, layer, target, self._counted)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, modules, layer, target, make):
        owner, attr, original = resolve(layer, target)
        name = span_name(layer, target)
        if isinstance(original, classmethod):
            self._set(owner, attr, original, classmethod(make(name, original.__func__)))
        elif isinstance(owner, type):
            self._set(owner, attr, original, make(name, original))
        else:
            wrapper = make(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, original, wrapper)

    def _set(self, owner, attr, original, wrapper):
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _counted(self, name, fn):
        self.counts[name] = 0
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    def _spanned(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        observe = _OBSERVERS.get(name)
        extra = self.extra
        stack, child = self._stack, self._child
        calls, self_s = self.calls, self.self_s
        add_name, add_parent = self.span_name.append, self.span_parent.append
        add_item, add_start = self.span_item.append, self.span_start.append
        add_end, ends = self.span_end.append, self.span_end

        def spanned(*args, **kwargs):
            idx = len(ends)
            add_name(nid)
            add_parent(stack[-1])
            add_item(self.item)
            add_end(0.0)
            stack.append(idx)
            child.append(0.0)
            start = perf_counter()
            add_start(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                ends[idx] = end
                stack.pop()
                dur = end - start
                self_s[nid] += dur - child.pop()
                child[-1] += dur
                calls[nid] += 1
            if observe is not None:
                observe(extra, args, result)
            return result

        return spanned

    # -- results ------------------------------------------------------------

    @property
    def spanned_s(self) -> float:
        """Total duration of top-level spans (equals the sum of all self times)."""
        return self._child[0]

    def _oracle_calls(self) -> int:
        """linalg.rank spans whose parent span belongs to the matroid layer."""
        rank_id = self.names.index("linalg.rank")
        matroid_ids = {i for i, n in enumerate(self.names) if n.startswith("matroid.")}
        names = self.span_name
        return sum(1 for nid, parent in zip(names, self.span_parent)
                   if nid == rank_id and parent >= 0 and names[parent] in matroid_ids)

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced since install()."""
        calls = dict(zip(self.names, self.calls))
        selfs = dict(zip(self.names, self.self_s))
        out = {}
        for layer, targets in SPANNED.items():
            layer_self = 0.0
            for target in targets:
                name = span_name(layer, target)
                out[f"{name}.calls"] = calls[name]
                out[f"{name}.self_s"] = selfs[name]
                layer_self += selfs[name]
            out[f"{layer}.self_s"] = layer_self
        for name, n in self.counts.items():
            out[f"{name}.calls"] = n
        ex = self.extra
        out["linalg.rref.rows"] = ex["rows"]
        out["cb.is_cb.true_ratio"] = _ratio(ex["cb_true"], calls["cb.is_cb"])
        out["cover.candidate_flats.flats"] = ex["flats"]
        out["cover.exists_cover.nodes"] = ex["nodes"]
        out["cover.exists_cover.found_ratio"] = _ratio(ex["found"], calls["cover.exists_cover"])
        out["matroid.rank.oracle_ratio"] = _ratio(self._oracle_calls(), calls["matroid.rank"])
        out["campaign.discarded_per_trial"] = _ratio(ex["discarded"], ex["trials"])
        return out

    def write(self, path):
        """Spans as a JSON header line followed by the raw column arrays."""
        columns = (self.span_name, self.span_parent, self.span_item,
                   self.span_start, self.span_end)
        header = {
            "names": self.names,
            "spans": len(self.span_end),
            "columns": [["name", "H"], ["parent", "i"], ["item", "i"],
                        ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in columns:
                col.tofile(fh)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _observe_rref(extra, args, result):
    extra["rows"] += len(args[0])


def _observe_is_cb(extra, args, result):
    extra["cb_true"] += bool(result.verdict)


def _observe_candidate_flats(extra, args, result):
    extra["flats"] += len(result)


def _observe_exists_cover(extra, args, result):
    extra["nodes"] += result.nodes_explored
    extra["found"] += bool(result.found)


def _observe_run_campaign(extra, args, result):
    extra["discarded"] += result.summary["discarded_draws"]
    extra["trials"] += result.summary["records"]


_OBSERVERS = {
    "linalg.rref": _observe_rref,
    "cb.is_cb": _observe_is_cb,
    "cover.candidate_flats": _observe_candidate_flats,
    "cover.exists_cover": _observe_exists_cover,
    "campaign.run_campaign": _observe_run_campaign,
}
