"""Spans around calls into weylkit's public functions, recorded from outside.

The benchmark does not instrument ``src/``.  Instead, for a traced pass it
replaces each public function (or method of a public class) with a wrapper,
at every weylkit module that binds it by name: ``homology`` imports ``rref``
from ``linalg_fp`` and ``norm`` imports ``exact_div`` from ``commpoly``, so
both bindings are wrapped.  Calls that resolve through a module global or a
class attribute therefore pass through the wrapper too.

Spans are aggregated as they close (self time, inclusive time, call count per
name) instead of being kept one by one: one norm-mult round makes about
600,000 ``CommPoly.__mul__`` calls, and storing each span would move
the very memory metric the benchmark reports.  A span's self time is its
duration minus the time covered by the spans it encloses.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """Installs wrappers, aggregates spans and counters, and removes them."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.touched = set()  # presentations multiplied in during the current op
        self._stack = []  # one [child seconds] cell per open span
        self._depth = defaultdict(int)
        self._undo = []

    # -- installing ----------------------------------------------------------

    def _span(self, name, fn, after=None):
        stack, depth = self._stack, self._depth
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls

        def wrapper(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            depth[name] += 1
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                stack.pop()
                depth[name] -= 1
                if stack:
                    stack[-1][0] += dt
                self_s[name] += dt - cell[0]
                if not depth[name]:
                    incl_s[name] += dt
                calls[name] += 1
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def function(self, module, attr, name, after=None):
        """Wrap a function at every weylkit module that binds it by name."""
        original = getattr(module, attr)
        wrapped = self._span(name, original, after)
        for modname, mod in list(sys.modules.items()):
            if mod is not None and (modname == "weylkit" or modname.startswith("weylkit.")):
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- the weylkit layers --------------------------------------------------

    def install(self):
        """Wrap the public names whose self time and counts the benchmark
        reports (see README.md for which end-to-end metric each moves)."""
        from weylkit import cli, commpoly, findim, homology, linalg_fp, localring, norm
        from weylkit import presentations, weylalg

        count = self.counts

        def det_size(args, result):
            count["norm.det_matrix_dim_sum"] += len(args[0])

        def norm_terms(args, result):
            count["commpoly.norm_terms"] += len(result.terms)

        def rank_sum(args, result):
            count["homology.resolution_rank_sum"] += sum(result.ranks)

        self.function(norm, "det_poly", "norm.det_poly", det_size)
        self.function(norm, "left_mult_matrix", "norm.left_mult_matrix")
        self.function(norm, "reduced_norm", "norm.reduced_norm", norm_terms)
        self.function(norm, "twist_membership", "norm.twist_membership")
        self.function(commpoly, "exact_div", "commpoly.exact_div")
        CommPoly, Presentation = commpoly.CommPoly, presentations.Presentation
        mul = self._span("commpoly.mul", vars(CommPoly)["__mul__"])
        self._patch(CommPoly, "__mul__", mul)
        self._patch(CommPoly, "__rmul__", mul)
        self._patch(Presentation, "multiply", self._multiply(vars(Presentation)["multiply"]))
        self.function(presentations, "check_confluence", "presentations.check_confluence")
        for constructor in ("weyl_presentation", "localized_weyl", "boundary_chart_presentation"):
            self.function(weylalg, constructor, "weylalg.build")
        self.function(localring, "jacobson_radical", "localring.jacobson_radical")
        FinDimAlgebra = findim.FinDimAlgebra
        self._patch(FinDimAlgebra, "elements", self._elements(vars(FinDimAlgebra)["elements"]))
        self._patch(FinDimAlgebra, "two_sided_ideal", self._span(
            "findim.two_sided_ideal", vars(FinDimAlgebra)["two_sided_ideal"]))
        self.function(linalg_fp, "rref", "linalg_fp.rref")
        self.function(
            homology, "minimal_projective_resolution", "homology.resolution", rank_sum
        )
        self.function(homology, "ext_groups", "homology.ext_groups")
        self.function(homology, "auslander_probe", "homology.auslander_probe")
        self.function(cli, "run", "cli.run")

    def _multiply(self, original):
        """Presentation.multiply, split by whether the call wrote to the
        rewrite caches (cold) or was served from them (warm)."""
        cold = self._span("presentations.multiply_cold", original)
        warm = self._span("presentations.multiply_warm", original)
        touched = self.touched

        def multiply(P, a, b):
            touched.add(P)
            # multiply looks up each pair of top-level monomials in the cache
            # and writes only on a miss, so probing those pairs decides it.
            cache = P._mono_mul_cache
            if all((ma, mb) in cache for ma in a.terms for mb in b.terms):
                return warm(P, a, b)
            return cold(P, a, b)

        multiply.__wrapped__ = original
        return multiply

    def _elements(self, original):
        count = self.counts

        def elements(A):
            for x in original(A):
                count["findim.elements_enumerated"] += 1
                yield x

        elements.__wrapped__ = original
        return elements

    # -- per op --------------------------------------------------------------

    def end_op(self):
        """Record the rewrite-cache size of the presentations the op used."""
        entries = sum(len(P._mono_mul_cache) + len(P._mono_gen_cache) for P in self.touched)
        self.counts["presentations.cache_entries"] = max(
            self.counts["presentations.cache_entries"], entries
        )
        self.touched.clear()
