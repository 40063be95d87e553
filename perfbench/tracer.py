"""Layer tracing from outside the program.

``Tracer.install`` wraps the public functions of each pintbasis module and
rebinds every name that refers to them in every loaded pintbasis module
(``factor_mod_p`` is bound in basis, newton and quartic as well as in
factor), so calls made through any module are seen.  Spans are kept in
memory with their parent; self time is a span's duration minus its direct
children.  ``uninstall`` puts the original functions back.

The arith module is left unwrapped: its helpers run once per coefficient,
so their time counts as self time of whichever layer called them.
"""

import json
import sys
from collections import Counter
from time import perf_counter_ns

LAYERS = ("cli", "intpoly", "fq", "factor", "newton", "basis", "quartic", "order2", "oracle")
GUARDS = ("factor.integer_roots", "factor.is_irreducible_quartic", "factor.is_irreducible")
CHECKS = ("oracle.disc_identity_check", "oracle.is_ring_closed")

# per_layer metrics of BENCHMARK.json, in its order
METRICS = (
    ("cli.self_ms", "ms"), ("intpoly.discriminant.calls", "count"),
    ("intpoly.discriminant.ms", "ms"), ("fq.factor_fqpoly.calls", "count"),
    ("fq.factor_fqpoly.ms", "ms"), ("fq.elem.calls", "count"),
    ("factor.factor_mod_p.calls", "count"), ("factor.factor_mod_p.ms", "ms"),
    ("factor.guard.calls", "count"), ("factor.guard.ms", "ms"),
    ("newton.phi_expand.calls", "count"), ("newton.phi_expand.ms", "ms"),
    ("newton.is_phi_regular.calls", "count"), ("newton.is_phi_regular.ms", "ms"),
    ("basis.triangularize.calls", "count"), ("basis.triangularize.ms", "ms"),
    ("basis.decomposition_type.ms", "ms"), ("quartic.make_context.calls", "count"),
    ("quartic.iteration_steps", "count"), ("quartic.self_ms", "ms"),
    ("order2.ms", "ms"), ("oracle.saturate.ms", "ms"),
    ("oracle.is_integral.calls", "count"), ("oracle.is_integral.hit_ratio", "ratio"),
    ("oracle.checks.ms", "ms"), ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    def __init__(self):
        # span: [name, parent index or -1, start ns, end ns, returned True]
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, perf_counter_ns(), 0, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = perf_counter_ns()
            span[4] = result is True
            return result

        return traced

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        mods = {name.split(".")[-1]: mod for name, mod in list(sys.modules.items())
                if name.startswith("pintbasis.") and mod is not None}
        wrappers = {}
        for layer in LAYERS:
            mod = mods[layer]
            for attr, fn in vars(mod).items():
                if (callable(fn) and not isinstance(fn, type) and not attr.startswith("_")
                        and getattr(fn, "__module__", None) == mod.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        step = mods["quartic"].IterationStep
        wrappers[id(step)] = (step, self._count("quartic.iteration_steps", step))
        for mod in list(mods.values()) + [sys.modules["pintbasis"]]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patch(mod, attr, wrappers[id(value)][1])
        self._patch(mods["intpoly"].IntPoly, "discriminant",
                    self._wrap("intpoly.discriminant", mods["intpoly"].IntPoly.discriminant))
        self._patch(mods["fq"].FqField, "elem",
                    self._count("fq.elem.calls", mods["fq"].FqField.elem))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summary -----------------------------------------------------------

    def metrics(self, operations, overhead_ratio):
        """The per_layer metrics, each per operation."""
        spans = self.spans
        dur = [s[3] - s[2] for s in spans]
        child = [0] * len(spans)
        for i, s in enumerate(spans):
            if s[1] >= 0:
                child[s[1]] += dur[i]

        def outermost(i, group):
            j = spans[i][1]
            while j >= 0:
                if spans[j][0] in group:
                    return False
                j = spans[j][1]
            return True

        def total_ms(group):
            return sum(dur[i] for i, s in enumerate(spans)
                       if s[0] in group and outermost(i, group)) / 1e6

        def calls(group, outer=False):
            return sum(1 for i, s in enumerate(spans)
                       if s[0] in group and (not outer or outermost(i, group)))

        def self_ms(layer):
            return sum(dur[i] - child[i] for i, s in enumerate(spans)
                       if s[0].split(".")[0] == layer) / 1e6

        order2 = {s[0] for s in spans if s[0].startswith("order2.")}
        integral = [s for s in spans if s[0] == "oracle.is_integral"]
        raw = {
            "cli.self_ms": self_ms("cli"),
            "intpoly.discriminant.calls": calls({"intpoly.discriminant"}),
            "intpoly.discriminant.ms": total_ms({"intpoly.discriminant"}),
            "fq.factor_fqpoly.calls": calls({"fq.factor_fqpoly"}),
            "fq.factor_fqpoly.ms": total_ms({"fq.factor_fqpoly"}),
            "fq.elem.calls": self.counts["fq.elem.calls"],
            "factor.factor_mod_p.calls": calls({"factor.factor_mod_p"}),
            "factor.factor_mod_p.ms": total_ms({"factor.factor_mod_p"}),
            "factor.guard.calls": calls(set(GUARDS), outer=True),
            "factor.guard.ms": total_ms(set(GUARDS)),
            "newton.phi_expand.calls": calls({"newton.phi_expand"}),
            "newton.phi_expand.ms": total_ms({"newton.phi_expand"}),
            "newton.is_phi_regular.calls": calls({"newton.is_phi_regular"}),
            "newton.is_phi_regular.ms": total_ms({"newton.is_phi_regular"}),
            "basis.triangularize.calls": calls({"basis.triangularize"}),
            "basis.triangularize.ms": total_ms({"basis.triangularize"}),
            "basis.decomposition_type.ms": total_ms({"basis.decomposition_type"}),
            "quartic.make_context.calls": calls({"quartic.make_context"}),
            "quartic.iteration_steps": self.counts["quartic.iteration_steps"],
            "quartic.self_ms": self_ms("quartic"),
            "order2.ms": total_ms(order2),
            "oracle.saturate.ms": total_ms({"oracle.saturate"}),
            "oracle.is_integral.calls": len(integral),
            "oracle.checks.ms": total_ms(set(CHECKS)),
        }
        out = {name: value / operations for name, value in raw.items()}
        out["oracle.is_integral.hit_ratio"] = (
            sum(1 for s in integral if s[4]) / len(integral) if integral else 0.0)
        out["trace.overhead_ratio"] = overhead_ratio
        return {name: {"value": out[name], "unit": unit} for name, unit in METRICS}

    def write(self, path):
        """One JSON line per span: name, parent index, start and end (ns)."""
        with open(path, "w") as fh:
            for name, parent, start, end, _ in self.spans:
                fh.write(json.dumps([name, parent, start, end]) + "\n")
