"""Outside-in tracing of orbitbnf's public functions.

``Tracer.install`` replaces each traced function in *every* ``orbitbnf``
module namespace that holds it (modules bind kernels with
``from .words import ...``, so patching the defining module alone would miss
those calls) and refuses to run if any namespace still holds an original.
Eigen-solves are numpy calls inside ``orbitbnf.oracle``; they are seen through
an overlay on that module's ``np`` name.

A span is ``(name, start, end, parent index, op id)``; spans stay in memory
and are written out when the run ends.  Counters are kept at the same
boundaries.  Counts of work (term pairs, output terms, matrix sizes) are
computed from operand and result sizes, not measured.
"""

import json
import sys
import time
from collections import defaultdict

import numpy as np


def _count_product(c, parent, args, out):
    c["words.normal_order_product.pairs"] += len(args[0]) * len(args[1])
    c["words.normal_order_product.terms_out"] += len(out)


def _count_commutator(c, parent, args, out):
    if parent == "quantum.exp_conjugate":
        c["quantum.exp_conjugate.commutators"] += 1


def _pair_counter(name):
    def count(c, parent, args, out):
        c[f"{name}.pairs"] += len(args[0]) * len(args[1])

    return count


def _count_matrix(c, parent, args, out):
    n = out.shape[0]
    c["oracle.assemble_matrix.dim_sum"] += n
    c["oracle.assemble_matrix.bytes"] += 16 * n * n  # dense complex128


def _count_eigensolve(c, parent, args, out):
    n = args[0].shape[0]
    c["oracle.eigensolve.n3"] += n**3
    if parent == "oracle.quasi_eigenvalues":
        c["oracle.quasi_eigenvalues.computed"] += n


def _count_window(c, parent, args, out):
    c["oracle.quasi_eigenvalues.returned"] += len(out)


# (module, function, workloads on which the layer is heavy, counter)
TRACED = (
    ("words", "normal_order_product", ("nf-routes", "word-algebra"), _count_product),
    ("words", "commutator_over_ihbar", ("nf-routes", "word-algebra"), _count_commutator),
    ("words", "apply_to_basis", ("oracle-window",), None),
    ("series", "poisson_bracket", ("nf-routes",), _pair_counter("series.poisson_bracket")),
    ("series", "moyal_bracket", ("nf-routes",), _pair_counter("series.moyal_bracket")),
    ("quantum", "birkhoff_quantum", ("nf-routes", "oracle-window"), None),
    ("quantum", "exp_conjugate", ("nf-routes",), None),
    ("quantum", "solve_homological_quantum", ("nf-routes", "word-algebra"), None),
    ("classical", "birkhoff_classical", ("nf-routes",), None),
    ("classical", "birkhoff_semiclassical", ("nf-routes",), None),
    ("classical", "lie_conjugate", ("nf-routes",), None),
    ("classical", "solve_homological_classical", ("nf-routes", "word-algebra"), None),
    ("bridge", "weyl_symbol_of_word", ("nf-routes",), None),
    ("bridge", "relate_normal_forms", ("nf-routes",), None),
    ("traces", "forward_trace_expansion", ("oracle-window",), None),
    ("traces", "psi_kernel", ("oracle-window",), None),
    ("oracle", "assemble_matrix", ("oracle-window",), _count_matrix),
    ("oracle", "quasi_eigenvalues", ("oracle-window",), _count_window),
    ("oracle", "numeric_trace", ("oracle-window",), None),
)
EIGENSOLVE = "oracle.eigensolve"  # numpy.linalg.eigh / eigvalsh called from orbitbnf.oracle
EIGENSOLVE_HEAVY = ("oracle-window",)

# Per-layer metrics in report order: (name, unit).  "*.computed" units mark
# counts derived from operand sizes.
PER_LAYER = (
    ("words.normal_order_product.calls", "count"),
    ("words.normal_order_product.self_s", "s"),
    ("words.normal_order_product.pairs", "count.computed"),
    ("words.normal_order_product.terms_out", "count.computed"),
    ("words.normal_order_product.yield", "ratio.computed"),
    ("words.commutator_over_ihbar.calls", "count"),
    ("words.commutator_over_ihbar.self_s", "s"),
    ("words.apply_to_basis.calls", "count"),
    ("words.apply_to_basis.self_s", "s"),
    ("series.poisson_bracket.calls", "count"),
    ("series.poisson_bracket.self_s", "s"),
    ("series.poisson_bracket.pairs", "count.computed"),
    ("series.moyal_bracket.calls", "count"),
    ("series.moyal_bracket.self_s", "s"),
    ("series.moyal_bracket.pairs", "count.computed"),
    ("quantum.birkhoff_quantum.s", "s"),
    ("quantum.exp_conjugate.calls", "count"),
    ("quantum.exp_conjugate.self_s", "s"),
    ("quantum.exp_conjugate.commutators", "count"),
    ("quantum.solve_homological_quantum.calls", "count"),
    ("quantum.solve_homological_quantum.self_s", "s"),
    ("classical.birkhoff_classical.s", "s"),
    ("classical.birkhoff_semiclassical.s", "s"),
    ("classical.lie_conjugate.calls", "count"),
    ("classical.lie_conjugate.self_s", "s"),
    ("classical.solve_homological_classical.calls", "count"),
    ("classical.solve_homological_classical.self_s", "s"),
    ("bridge.weyl_symbol_of_word.s", "s"),
    ("bridge.relate_normal_forms.s", "s"),
    ("traces.forward_trace_expansion.s", "s"),
    ("traces.psi_kernel.calls", "count"),
    ("traces.psi_kernel.self_s", "s"),
    ("oracle.assemble_matrix.calls", "count"),
    ("oracle.assemble_matrix.self_s", "s"),
    ("oracle.assemble_matrix.dim_sum", "count.computed"),
    ("oracle.assemble_matrix.bytes", "B.computed"),
    ("oracle.eigensolve.calls", "count"),
    ("oracle.eigensolve.s", "s"),
    ("oracle.eigensolve.n3", "count.computed"),
    ("oracle.quasi_eigenvalues.calls", "count"),
    ("oracle.quasi_eigenvalues.self_s", "s"),
    ("oracle.quasi_eigenvalues.kept_frac", "ratio.computed"),
    ("oracle.numeric_trace.calls", "count"),
    ("oracle.numeric_trace.self_s", "s"),
    ("bench.trace.spans", "count"),
    ("bench.trace.overhead_frac", "ratio"),
)


class TraceBlindError(RuntimeError):
    """The tracer would miss calls it is meant to record."""


class _Overlay:
    """Stand-in for a module: the given attributes, the rest from the module."""

    def __init__(self, module, **attrs):
        self._module = module
        self.__dict__.update(attrs)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.op_id = None
        self._stack = []  # (span index, name) of the calls in progress
        self._patched = []  # (namespace, attribute, original)

    def _wrap(self, name, fn, count):
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            parent, parent_name = stack[-1] if stack else (-1, None)
            index = len(spans)
            spans.append(None)  # filled when the call returns
            stack.append((index, name))
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if count is not None:
                count(counters, parent_name, args, out)
            return out

        return traced

    def install(self):
        """Patch every orbitbnf namespace; raise TraceBlindError if one is missed."""
        modules = {n: m for n, m in sys.modules.items() if n == "orbitbnf" or n.startswith("orbitbnf.")}
        originals = {}
        for mod, fn_name, _heavy, count in TRACED:
            original = getattr(modules[f"orbitbnf.{mod}"], fn_name)
            originals[id(original)] = (original, self._wrap(f"{mod}.{fn_name}", original, count))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, originals[id(value)][1])
        oracle = modules["orbitbnf.oracle"]
        linalg = _Overlay(
            np.linalg,
            eigh=self._wrap(EIGENSOLVE, np.linalg.eigh, _count_eigensolve),
            eigvalsh=self._wrap(EIGENSOLVE, np.linalg.eigvalsh, _count_eigensolve),
        )
        self._patched.append((oracle, "np", oracle.np))
        oracle.np = _Overlay(np, linalg=linalg)
        wrappers = {id(wrapper) for _original, wrapper in originals.values()}
        for mod, fn_name, _heavy, _count in TRACED:
            if id(getattr(modules[f"orbitbnf.{mod}"], fn_name)) not in wrappers:
                raise TraceBlindError(f"orbitbnf.{mod}.{fn_name} was not patched")
        for name, module in modules.items():
            for attr, value in vars(module).items():
                if id(value) in originals and originals[id(value)][0] is value:
                    raise TraceBlindError(f"{name}.{attr} still holds the untraced function")

    def uninstall(self):
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def metrics(self, workload, overhead_frac):
        """Per-layer values by name; raise TraceBlindError if a layer that is
        heavy on this workload recorded no calls."""
        calls = defaultdict(int)
        total = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        for (name, start, end, _parent, _op), inner in zip(self.spans, child):
            self_s[name] += end - start - inner
        heavy = [(f"{mod}.{fn}", hv) for mod, fn, hv, _c in TRACED] + [(EIGENSOLVE, EIGENSOLVE_HEAVY)]
        blind = [name for name, hv in heavy if workload in hv and not calls[name]]
        if blind:
            raise TraceBlindError(f"no calls recorded on {workload} for: {', '.join(blind)}")
        c = self.counters
        values = {}
        for metric, _unit in PER_LAYER:
            layer, quantity = metric.rsplit(".", 1)
            if quantity == "calls":
                values[metric] = calls[layer]
            elif quantity == "self_s":
                values[metric] = self_s[layer]
            elif quantity == "s":
                values[metric] = total[layer]
            elif metric in c:
                values[metric] = c[metric]
        pairs = c["words.normal_order_product.pairs"]
        values["words.normal_order_product.yield"] = (
            c["words.normal_order_product.terms_out"] / pairs if pairs else 0.0
        )
        computed = c["oracle.quasi_eigenvalues.computed"]
        values["oracle.quasi_eigenvalues.kept_frac"] = (
            c["oracle.quasi_eigenvalues.returned"] / computed if computed else 0.0
        )
        values["bench.trace.spans"] = len(self.spans)
        values["bench.trace.overhead_frac"] = overhead_frac
        for metric, _unit in PER_LAYER:
            values.setdefault(metric, 0)
        return values

    def write(self, path, counters_path):
        """Spans as JSON lines (times relative to the first span), then counters."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps([name, round(start - t0, 9), round(end - t0, 9), parent, op]) + "\n"
                )
        with open(counters_path, "w") as fh:
            json.dump(dict(self.counters), fh, indent=1, sort_keys=True)
