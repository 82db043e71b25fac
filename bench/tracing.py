"""Span tracing of flatdetect, installed from outside the package.

A ``Tracer`` wraps each function in TARGETS in a wrapper that records a
span (name, start, end, parent span, operation) and, for a few targets,
work counters read from the arguments and the result; ``install`` and
``uninstall`` swap the wrappers in and out.  Functions imported with
``from .x import y`` are bound in several module namespaces, so every
binding of the original object is replaced.  A target that no longer exists
makes ``Tracer()`` raise, so a renamed layer cannot read as an idle one.

Spans are kept in flat arrays while the traced pass runs and written as
gzip-compressed JSON lines by ``write_jsonl`` afterwards.
"""

from __future__ import annotations

import functools
import gzip
import importlib
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "flatdetect"
MODULES = ("cli", "presentation", "repvar", "families", "charforms", "detect")


def _count_contract(counters, args, result):
    counters["charforms.contract_z.terms_scanned"] += len(args[0]._terms)
    counters["contract_z.matched"] += len(result._terms)


def _count_matrix(counters, args, result):
    counters["detect.matrix_entries"] += sum(len(row) for row in result.matrix)
    counters["matrix.nonzero"] += sum(e != 0 for row in result.matrix for e in row)


def _count_solve(counters, args, result):
    counters["repvar.solve.iterations"] += result.iterations
    counters["solve.converged"] += bool(result.converged)


# (module, attribute, span name, counter hook).  The family constructors
# share one span name: together they are the build layer.
TARGETS = (
    ("cli", "run", "cli.run", None),
    ("cli", "parse_expression", "cli.parse_expression", None),
    ("cli", "build_family", "cli.build_family", None),
    ("cli", "_emit", "cli.emit", None),
    ("presentation", "parse_presentation", "presentation.parse_presentation", None),
    ("presentation", "evaluate_word", "presentation.evaluate_word", None),
    ("repvar", "relator_defect", "repvar.relator_defect", None),
    ("repvar", "RepPoint.unitarity_defect", "repvar.unitarity_defect", None),
    ("repvar", "solve_representation", "repvar.solve_representation", _count_solve),
    ("families", "character_family_Zn", "families.build", None),
    ("families", "trivial_family", "families.build", None),
    ("families", "tensor_families", "families.build", None),
    ("families", "extend_free_product", "families.build", None),
    ("families", "disjoint_union", "families.build", None),
    ("families", "direct_sum", "families.build", None),
    ("families", "pullback_family", "families.build", None),
    ("families", "induce_family", "families.build", None),
    ("families", "Family.evaluate", "families.evaluate", None),
    ("families", "verify_family", "families.verify_family", None),
    ("families", "holonomy_loop", "families.holonomy_loop", None),
    ("charforms", "MultiForm.__mul__", "charforms.multiform_mul", None),
    ("charforms", "MultiForm.subst_z", "charforms.subst_z", None),
    ("charforms", "MultiForm.contract_z", "charforms.contract_z", _count_contract),
    ("charforms", "winding_number", "charforms.winding_number", None),
    ("detect", "detection_matrix", "detect.detection_matrix", _count_matrix),
    ("detect", "slant_contract", "detect.slant_contract", None),
    ("detect", "rational_homology", "detect.rational_homology", None),
    ("detect", "numeric_detection_report", "detect.numeric_detection_report", None),
    ("detect", "DetectionReport.to_json_dict", "detect.to_json_dict", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))

# per-layer metrics reported from a traced pass: name -> unit
LAYER_METRICS = {
    "cli.run.self_s": "s",
    "cli.parse_expression.self_s": "s",
    "cli.build_family.self_s": "s",
    "cli.emit.self_s": "s",
    "presentation.parse_presentation.calls": "count",
    "presentation.parse_presentation.self_s": "s",
    "presentation.evaluate_word.calls": "count",
    "presentation.evaluate_word.self_s": "s",
    "repvar.relator_defect.calls": "count",
    "repvar.relator_defect.self_s": "s",
    "repvar.unitarity_defect.calls": "count",
    "repvar.unitarity_defect.self_s": "s",
    "repvar.solve_representation.calls": "count",
    "repvar.solve_representation.self_s": "s",
    "repvar.solve.iterations": "count",
    "repvar.solve.converged_ratio": "ratio",
    "families.build.self_s": "s",
    "families.evaluate.calls": "count",
    "families.evaluate.self_s": "s",
    "families.verify_family.calls": "count",
    "families.verify_family.self_s": "s",
    "families.points_verified": "count",
    "families.holonomy_loop.calls": "count",
    "families.holonomy_loop.self_s": "s",
    "families.loop_points": "count",
    "charforms.multiform_mul.calls": "count",
    "charforms.multiform_mul.self_s": "s",
    "charforms.subst_z.calls": "count",
    "charforms.subst_z.self_s": "s",
    "charforms.contract_z.calls": "count",
    "charforms.contract_z.self_s": "s",
    "charforms.contract_z.terms_scanned": "count",
    "charforms.contract_z.match_ratio": "ratio",
    "charforms.winding_number.calls": "count",
    "charforms.winding_number.self_s": "s",
    "detect.detection_matrix.calls": "count",
    "detect.detection_matrix.self_s": "s",
    "detect.slant_contract.calls": "count",
    "detect.slant_contract.self_s": "s",
    "detect.rational_homology.self_s": "s",
    "detect.matrix_entries": "count",
    "detect.matrix_nonzero_ratio": "ratio",
    "detect.to_json_dict.self_s": "s",
    "detect.numeric_detection_report.calls": "count",
    "detect.numeric_detection_report.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    """Useful over attempted; 0.0 when nothing was attempted."""
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.names = array("i")
        self.parents = array("q")
        self.ops = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.current = -1
        self.op = -1
        self.counters = dict.fromkeys(
            ("charforms.contract_z.terms_scanned", "contract_z.matched",
             "detect.matrix_entries", "matrix.nonzero",
             "repvar.solve.iterations", "solve.converged"), 0)
        self._patches = self._targets()

    # -- installation ------------------------------------------------------

    def _targets(self):
        """(owner, attribute, original, wrapper) for every binding to patch."""
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        patches = []
        for mod_name, attr, span, hook in TARGETS:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            owner_name, _, meth = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                if meth not in vars(owner):
                    raise AttributeError(f"{mod_name}.{attr} no longer exists")
                orig = vars(owner)[meth]
                patches.append((owner, meth, orig, self._wrap(orig, span, hook)))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(orig, span, hook)
            patches += [(m, name, orig, wrapper)
                        for m in modules
                        for name, value in vars(m).items() if value is orig]
        return patches

    def install(self) -> None:
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, orig, _ in self._patches:
            setattr(owner, name, orig)

    def _wrap(self, fn, span: str, hook):
        name_id = self.name_ids[span]
        names, parents, ops = self.names, self.parents, self.ops
        starts, ends, counters = self.starts, self.ends, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.current
            sid = len(names)
            names.append(name_id)
            parents.append(parent)
            ops.append(self.op)
            ends.append(0.0)
            self.current = sid
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                self.current = parent
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    # -- results -------------------------------------------------------------

    def _arrays(self):
        names = np.frombuffer(self.names, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        dur = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        child = np.zeros(len(dur))
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        return names, parents, dur, dur - child

    def summary(self, untraced_op_s: float) -> tuple[dict, dict]:
        """Per-layer metrics (LAYER_METRICS) and each span name's share of
        the traced operation time."""
        names, parents, dur, self_t = self._arrays()
        ids = self.name_ids
        calls = np.bincount(names, minlength=len(ids))
        self_s = np.bincount(names, weights=self_t, minlength=len(ids))
        op_s = float(dur[names == ids["cli.run"]].sum())
        parent_names = np.where(parents >= 0, names[np.maximum(parents, 0)], -1)
        evaluate = names == ids["families.evaluate"]
        c = self.counters
        values = {}
        for metric in LAYER_METRICS:
            span, _, field = metric.rpartition(".")
            if span in ids and field == "calls":
                values[metric] = int(calls[ids[span]])
            elif span in ids and field == "self_s":
                values[metric] = float(self_s[ids[span]])
        values.update({
            "repvar.solve.iterations": c["repvar.solve.iterations"],
            "repvar.solve.converged_ratio": _ratio(
                c["solve.converged"], values["repvar.solve_representation.calls"]),
            "families.points_verified": int(
                (evaluate & (parent_names == ids["families.verify_family"])).sum()),
            "families.loop_points": int(
                (evaluate & (parent_names == ids["families.holonomy_loop"])).sum()),
            "charforms.contract_z.terms_scanned": c["charforms.contract_z.terms_scanned"],
            "charforms.contract_z.match_ratio": _ratio(
                c["contract_z.matched"], c["charforms.contract_z.terms_scanned"]),
            "detect.matrix_entries": c["detect.matrix_entries"],
            "detect.matrix_nonzero_ratio": _ratio(
                c["matrix.nonzero"], c["detect.matrix_entries"]),
            "trace.overhead_ratio": _ratio(op_s, untraced_op_s),
        })
        missing = set(LAYER_METRICS) - set(values)
        if missing:
            raise KeyError(f"per-layer metrics without a source: {sorted(missing)}")
        shares = {name: _ratio(float(self_s[i]), op_s) for name, i in ids.items()}
        return values, shares

    def write_jsonl(self, path) -> None:
        """Write every span as one JSON object per line, gzip-compressed."""
        origin = self.starts[0] if self.starts else 0.0
        rows = zip(range(len(self.names)), self.parents, self.ops, self.names,
                   self.starts, self.ends)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.writelines(
                f'{{"id": {i}, "parent": {p}, "op": {op}, "name": "{SPAN_NAMES[n]}", '
                f'"start": {t0 - origin:.9f}, "end": {t1 - origin:.9f}}}\n'
                for i, p, op, n, t0, t1 in rows
            )
