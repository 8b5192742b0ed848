"""Tracing for the benchmark's traced run, installed from outside wqsym.

Every traced function is replaced, for the duration of the run, by a
wrapper at each place it is looked up: modules bind names with
``from .words import ...``, so the wrapper goes into every wqsym module
that holds the function, and methods are replaced on their class.

Each wrapper opens a span around the call.  Spans nest through a stack;
when a span closes, its duration minus the durations of the spans it
contains is added to its function's self time.  Only these aggregates are
kept: the morphisms workload makes millions of calls, too many to hold one
record per span in memory.
"""
from __future__ import annotations

import builtins
import json
import sys
import time

_MISSING = object()


class Stat:
    """What one traced function did: calls, self time, and one extra count
    (outputs produced, nonzero results or useful serializations)."""

    __slots__ = ("calls", "self_s", "out", "keys")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.out = 0
        self.keys = set()

    def ratio(self):
        return self.out / self.calls if self.calls else 0.0


def _distinct(stat, args, result):
    stat.keys.add(args)


def _size(stat, args, result):
    stat.out += len(result)


def _nonzero(stat, args, result):
    stat.out += bool(result)


def _useful(stat, args, result):
    stat.out += 1


# (span name, module, attribute, observer).  An attribute "Class.method"
# is replaced on the class; any other is replaced in every wqsym module
# that binds the same function object.
TARGETS = [
    ("words.shifted_quasi_shuffle", "wqsym.words", "shifted_quasi_shuffle", _distinct),
    ("words.standardize", "wqsym.words", "standardize", None),
    ("words.quasi_shuffle", "wqsym.words", "quasi_shuffle", _size),
    ("lincomb.lincomb_to_json", "wqsym.lincomb", "lincomb_to_json", None),
    ("lincomb.tensor_bilinear", "wqsym.lincomb", "tensor_bilinear", None),
    ("lincomb.tensor_bimap", "wqsym.lincomb", "tensor_bimap", None),
    ("lincomb.lc_mul", "wqsym.lincomb", "lc_mul", None),
    ("lincomb.map_basis", "wqsym.lincomb", "LinComb.map_basis", None),
    ("compositions.star_product", "wqsym.compositions", "star_product", None),
    ("compositions.refinement_terms", "wqsym.compositions", "refinement_terms", None),
    ("hopf.rqsym_product_f", "wqsym.hopf", "rqsym_product_f", None),
    ("hopf.f_to_m_cached", "wqsym.hopf", "f_to_m_cached", None),
    ("hopf.m_to_f_cached", "wqsym.hopf", "m_to_f_cached", None),
    ("hopf.antipode", "wqsym.hopf", "HopfContext.antipode", None),
    ("hopf.verify_hopf", "wqsym.hopf", "verify_hopf", None),
    ("morphisms.phi2", "wqsym.morphisms", "phi2", _nonzero),
    ("morphisms.verify_morphism_laws", "wqsym.morphisms", "verify_morphism_laws", None),
    ("morphisms.verify_annihilation", "wqsym.morphisms", "verify_annihilation", None),
    ("ppartitions.Series.mul", "wqsym.ppartitions", "Series.__mul__", None),
    ("ppartitions.gamma", "wqsym.ppartitions", "gamma", None),
    ("ppartitions.enumerate_ppartitions", "wqsym.ppartitions", "enumerate_ppartitions", _size),
    ("ppartitions.expand_f", "wqsym.ppartitions", "expand_f", None),
    ("ppartitions.verify_gamma_identities", "wqsym.ppartitions",
     "verify_gamma_identities", None),
    ("cli.main", "wqsym.cli", "main", None),
    ("cli.argparse", "wqsym.cli", "build_parser", None),
    ("cli.argparse", "wqsym.cli", "_Parser.parse_args", None),
]

# Reported metrics: (name, span, field, unit).  Every name is printed on
# every workload, as 0 where the workload never calls the function.
METRICS = [
    ("words.shifted_quasi_shuffle.calls", "words.shifted_quasi_shuffle", "calls", "count"),
    ("words.shifted_quasi_shuffle.distinct", "words.shifted_quasi_shuffle", "distinct", "count"),
    ("words.shifted_quasi_shuffle.self_s", "words.shifted_quasi_shuffle", "self_s", "s"),
    ("words.standardize.calls", "words.standardize", "calls", "count"),
    ("words.standardize.self_s", "words.standardize", "self_s", "s"),
    ("words.quasi_shuffle.calls", "words.quasi_shuffle", "calls", "count"),
    ("words.quasi_shuffle.words_out", "words.quasi_shuffle", "out", "count"),
    ("words.quasi_shuffle.self_s", "words.quasi_shuffle", "self_s", "s"),
    ("lincomb.lincomb_to_json.calls", "lincomb.lincomb_to_json", "calls", "count"),
    ("lincomb.lincomb_to_json.self_s", "lincomb.lincomb_to_json", "self_s", "s"),
    ("lincomb.serialize.useful_ratio", "lincomb.lincomb_to_json", "ratio", "ratio"),
    ("lincomb.tensor_bilinear.self_s", "lincomb.tensor_bilinear", "self_s", "s"),
    ("lincomb.tensor_bimap.self_s", "lincomb.tensor_bimap", "self_s", "s"),
    ("lincomb.lc_mul.self_s", "lincomb.lc_mul", "self_s", "s"),
    ("lincomb.map_basis.self_s", "lincomb.map_basis", "self_s", "s"),
    ("compositions.star_product.calls", "compositions.star_product", "calls", "count"),
    ("compositions.star_product.self_s", "compositions.star_product", "self_s", "s"),
    ("compositions.refinement_terms.calls", "compositions.refinement_terms", "calls", "count"),
    ("compositions.refinement_terms.self_s", "compositions.refinement_terms", "self_s", "s"),
    ("hopf.rqsym_product_f.calls", "hopf.rqsym_product_f", "calls", "count"),
    ("hopf.rqsym_product_f.self_s", "hopf.rqsym_product_f", "self_s", "s"),
    ("hopf.f_to_m_cached.calls", "hopf.f_to_m_cached", "calls", "count"),
    ("hopf.f_to_m_cached.self_s", "hopf.f_to_m_cached", "self_s", "s"),
    ("hopf.m_to_f_cached.calls", "hopf.m_to_f_cached", "calls", "count"),
    ("hopf.m_to_f_cached.self_s", "hopf.m_to_f_cached", "self_s", "s"),
    ("hopf.coproduct.calls", "hopf.coproduct", "calls", "count"),
    ("hopf.coproduct.self_s", "hopf.coproduct", "self_s", "s"),
    ("hopf.antipode.calls", "hopf.antipode", "calls", "count"),
    ("hopf.antipode.self_s", "hopf.antipode", "self_s", "s"),
    ("hopf.verify_hopf.self_s", "hopf.verify_hopf", "self_s", "s"),
    ("morphisms.phi2.calls", "morphisms.phi2", "calls", "count"),
    ("morphisms.phi2.self_s", "morphisms.phi2", "self_s", "s"),
    ("morphisms.phi2.nonzero_ratio", "morphisms.phi2", "ratio", "ratio"),
    ("morphisms.verify_morphism_laws.self_s", "morphisms.verify_morphism_laws", "self_s", "s"),
    ("morphisms.verify_annihilation.self_s", "morphisms.verify_annihilation", "self_s", "s"),
    ("ppartitions.Series.init.calls", "ppartitions.Series.init", "calls", "count"),
    ("ppartitions.Series.mul.self_s", "ppartitions.Series.mul", "self_s", "s"),
    ("ppartitions.gamma.calls", "ppartitions.gamma", "calls", "count"),
    ("ppartitions.gamma.self_s", "ppartitions.gamma", "self_s", "s"),
    ("ppartitions.enumerate_ppartitions.calls", "ppartitions.enumerate_ppartitions", "calls", "count"),
    ("ppartitions.enumerate_ppartitions.partitions_out", "ppartitions.enumerate_ppartitions",
     "out", "count"),
    ("ppartitions.enumerate_ppartitions.self_s", "ppartitions.enumerate_ppartitions", "self_s", "s"),
    ("ppartitions.expand_f.calls", "ppartitions.expand_f", "calls", "count"),
    ("ppartitions.expand_f.self_s", "ppartitions.expand_f", "self_s", "s"),
    ("ppartitions.verify_gamma_identities.self_s", "ppartitions.verify_gamma_identities",
     "self_s", "s"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
    ("cli.argparse.self_s", "cli.argparse", "self_s", "s"),
    ("cli.output.self_s", "cli.output", "self_s", "s"),
]


class Tracer:
    """Installs the wrappers, collects the per-span aggregates, and puts
    every replaced attribute back on uninstall."""

    def __init__(self):
        self.stats = {}
        self._stack = []
        self._patched = []

    def stat(self, name):
        if name not in self.stats:
            self.stats[name] = Stat()
        return self.stats[name]

    def span(self, name, fn, observe=None):
        """A wrapper that times fn as a span called name."""
        stat = self.stat(name)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.self_s += elapsed - stack.pop()
                stat.calls += 1
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(stat, args, result)
            return result

        return wrapper

    def _set(self, owner, attr, value):
        old = owner.__dict__.get(attr, _MISSING)
        self._patched.append((owner, attr, old))
        setattr(owner, attr, value)

    def _replace_everywhere(self, name, orig, observe):
        for modname, mod in list(sys.modules.items()):
            if modname != "wqsym" and not modname.startswith("wqsym."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    # only output printed by the CLI makes a serialization useful
                    site_observe = observe
                    if name == "lincomb.lincomb_to_json" and modname == "wqsym.cli":
                        site_observe = _useful
                    self._set(mod, attr, self.span(name, orig, site_observe))

    def install(self):
        from wqsym import hopf, ppartitions, cli

        for name, modname, attr, observe in TARGETS:
            mod = sys.modules[modname]
            if "." in attr:
                clsname, method = attr.split(".")
                cls = getattr(mod, clsname)
                self._set(cls, method, self.span(name, getattr(cls, method), observe))
            else:
                self._replace_everywhere(name, getattr(mod, attr), observe)

        # ctx.coproduct is a per-instance attribute: wrap it as each
        # context is built
        init = hopf.HopfContext.__init__
        span = self.span

        def context_init(ctx, *args, **kwargs):
            init(ctx, *args, **kwargs)
            ctx.coproduct = span("hopf.coproduct", ctx.coproduct)

        self._set(hopf.HopfContext, "__init__", context_init)

        series_init = ppartitions.Series.__init__
        series_stat = self.stat("ppartitions.Series.init")

        def counted_init(series, *args, **kwargs):
            series_stat.calls += 1
            series_init(series, *args, **kwargs)

        self._set(ppartitions.Series, "__init__", counted_init)

        # the CLI's own output: json.dumps (looked up on the json module)
        # and print (a builtin, shadowed by a global of the cli module)
        self._set(json, "dumps", self.span("cli.output", json.dumps))
        self._set(cli, "print", self.span("cli.output", builtins.print))

    def uninstall(self):
        while self._patched:
            owner, attr, old = self._patched.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def metrics(self):
        out = {}
        for name, span, field, unit in METRICS:
            stat = self.stats.get(span, Stat())
            if field == "distinct":
                value = len(stat.keys)
            elif field == "ratio":
                value = stat.ratio()
            else:
                value = getattr(stat, field)
            out[name] = {"value": value, "unit": unit}
        return out
