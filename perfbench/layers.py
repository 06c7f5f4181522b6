"""Per-layer tracing from outside the program: spans around its public functions.

``Tracer.install()`` wraps every public module-level function of the seven
layer modules of ``lspectra`` and four methods.  Each call records a span
(group, start, end, parent span, op id) in memory; ``summary()`` turns them
into calls and self time per group, where self time is a span's duration
minus the part covered by its child spans.  Callers bind names at import time
(``from .abelian import solve``), so every module-level binding of a wrapped
function is replaced, not only the one in the defining module.  Nothing under
``src/`` changes.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("cli", "ltables", "graded", "abelian", "chain", "poincare", "forms")

# Named groups; any other public function of a layer falls into "<layer>.other"
# (all of cli is one group, "cli": argparse, JSON load and emit).
GROUPS = {
    "abelian.snf": ("smith_normal_form", "kernel_basis", "solve", "cokernel", "cokernel_with_gens"),
    "abelian.groups": ("hom_group", "ext_group", "extension_candidates", "map_kernel_group",
                       "map_cokernel_group", "maps_exact", "lattice_canonical"),
    "graded.anderson_dual": ("anderson_dual",),
    "graded.check_exact": ("check_exact",),
    "graded.cofibre_of_mult": ("cofibre_of_mult",),
    "graded.double_dual_check": ("double_dual_check",),
    "ltables.verify_presentation": ("verify_presentation",),
    "ltables.table": ("table",),
    "ltables.mult_by": ("mult_by",),
    "chain.tensor": ("tensor",),
    "chain.cone": ("cone",),
    "poincare.linking_form": ("linking_form",),
    "poincare.tensor_structured": ("tensor_structured",),
    "forms.check_quadratic": ("check_quadratic",),
    "forms.nondegenerate": ("nondegenerate",),
    "forms.gauss_sum": ("gauss_sum",),
    "forms.brown_kervaire": ("brown_kervaire",),
}
METHODS = {
    "ltables.reduce": ("ltables", "RingPresentation", "reduce"),
    "chain.homology_with_gens": ("chain", "IntComplex", "homology_with_gens"),
    "forms.linkingform_init": ("forms", "LinkingForm", "__init__"),
    "poincare.structured_init": ("poincare", "StructuredComplex", "__init__"),
}
# Monomial helpers run about a million times inside RingPresentation.reduce;
# their time stays in ltables.reduce.
UNWRAPPED = {"ltables": ("mono", "mono_mul", "mono_divides", "mono_div")}


COUNTERS = {
    "abelian.snf.max_dim": "count",
    "abelian.snf.max_bits": "bits",
    "abelian.intmatrix.created": "count",
    "abelian.fgab.created": "count",
    "ltables.reduce.terms_in": "count",
    "poincare.linking_form.order": "count",
    "forms.check_quadratic.pairs": "count",
    "trace.spans": "count",
}
# Groups no workload reaches, printed in the table but left out of the reported
# metrics: cone runs only inside poincare_check, which no CLI verb calls, and
# forms.other is signature and arf, verbs no workload runs.
UNREPORTED = ("chain.cone", "forms.other")


def group_names():
    """Every group a summary reports, in layer order."""
    names = list(GROUPS) + list(METHODS)
    names += ["cli"] + [f"{layer}.other" for layer in LAYERS if layer != "cli"]
    return sorted(set(names), key=lambda n: (LAYERS.index(n.split(".")[0]), n))


def _bits(values):
    return max((abs(v).bit_length() for v in values), default=0)


def _matrix_bits(m):
    return _bits(v for row in m.entries for v in row)


def _snf_output_bits(result):
    """Largest entry bit length in returned transforms, solutions and generators."""
    if result is None:
        return 0
    if hasattr(result, "U"):  # SnfResult
        return max(_matrix_bits(result.U), _matrix_bits(result.V))
    if hasattr(result, "entries"):  # kernel basis
        return _matrix_bits(result)
    if isinstance(result, list):  # solution vector
        return _bits(result)
    if isinstance(result, tuple):  # (group, gens, orders)
        return _bits(v for g in result[1] for v in g)
    return 0  # a bare cokernel group carries no coefficients


class Tracer:
    def __init__(self):
        self.spans = []  # [group, start, end, parent span index, op id]
        self.stack = [-1]
        self.op = -1
        self.counts = defaultdict(int)

    # -- installation ----------------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"lspectra.{layer}") for layer in LAYERS}
        group_of = {fn: g for g, fns in GROUPS.items() for fn in fns}
        hooks = {
            "abelian.snf": self._snf_hook,
            "ltables.reduce": lambda args, _: self._add("ltables.reduce.terms_in", len(args[1])),
            "poincare.linking_form": lambda _, r: self._add(
                "poincare.linking_form.order", r.group.order()),
            "forms.check_quadratic": lambda args, _: self._add(
                "forms.check_quadratic.pairs", args[0].group.order() ** 2),
        }
        for layer, mod in modules.items():
            skip = UNWRAPPED.get(layer, ())
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or name in skip or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                group = "cli" if layer == "cli" else group_of.get(name, f"{layer}.other")
                self._rebind(modules.values(), fn, self._wrap(fn, group, hooks.get(group)))
        for group, (layer, cls_name, attr) in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            setattr(cls, attr, self._wrap(getattr(cls, attr), group, hooks.get(group)))
        abelian = modules["abelian"]
        abelian.IntMatrix.__init__ = self._counted(
            abelian.IntMatrix.__init__, "abelian.intmatrix.created")
        abelian.FgAbGroup.__post_init__ = self._counted(
            abelian.FgAbGroup.__post_init__, "abelian.fgab.created")

    @staticmethod
    def _rebind(modules, original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def _wrap(self, fn, group, hook):
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [group, 0.0, 0.0, stack[-1], tracer.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _counted(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _add(self, key, value):
        self.counts[key] += value

    def _snf_hook(self, args, result):
        counts, a = self.counts, args[0]
        counts["abelian.snf.max_dim"] = max(counts["abelian.snf.max_dim"], a.rows, a.cols)
        counts["abelian.snf.max_bits"] = max(counts["abelian.snf.max_bits"],
                                             _snf_output_bits(result))

    # -- results ---------------------------------------------------------------

    def summary(self):
        """{metric: value} for every group's calls and self_s, plus the counters."""
        covered = [0.0] * len(self.spans)
        for group, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = dict.fromkeys(group_names(), 0)
        self_s = dict.fromkeys(group_names(), 0.0)
        for i, (group, start, end, _, _) in enumerate(self.spans):
            calls[group] += 1
            self_s[group] += end - start - covered[i]
        out = {}
        for group in calls:
            out[f"{group}.calls"] = calls[group]
            out[f"{group}.self_s"] = self_s[group]
        for key in COUNTERS:
            out[key] = self.counts[key]
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path):
        """All spans as gzipped TSV: op, group, start, end, parent span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("op\tgroup\tstart\tend\tparent\n")
            for group, start, end, parent, op in self.spans:
                fh.write(f"{op}\t{group}\t{start:.9f}\t{end:.9f}\t{parent}\n")


PER_LAYER = {
    **{f"{g}.{m}": unit for g in group_names() if g not in UNREPORTED
       for m, unit in (("calls", "count"), ("self_s", "s"))},
    **COUNTERS,
    "trace.overhead": "ratio",
}
