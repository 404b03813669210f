"""Spans around the calls into each zetawave module, installed from outside.

Each wrapper replaces a name in the module that looks it up at call time
(for example `zetawave.spectra.eta` or `zetawave.waveform.chi`), so the
package source is untouched.  A span records its name, start, end, parent
span and request id; spans stay in memory until the run ends.  Self time
is a span's duration minus the time its child spans cover.  Work counts
are exact and depend only on the requests, so two traced runs of the same
request list report the same counts.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

import zetawave.cli
import zetawave.oracles
import zetawave.specfun
import zetawave.spectra
import zetawave.verify
import zetawave.waveform
from zetawave.errors import DomainError, NonConvergenceError, OverflowRangeError

FAILURES = (NonConvergenceError, OverflowRangeError, DomainError)
ROOT = "cli.main"


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index, request id]
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._request: Optional[int] = None
        self._paused = False
        self._varphi_zero = zetawave.waveform.varphi_zero

    # spans -------------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, time.perf_counter(), None, parent, tracer._request]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except FAILURES:
                tracer.counts[name + ".failed"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                tracer._paused = True
                try:
                    count(tracer.counts, args, result)
                finally:
                    tracer._paused = False
            return result

        return traced

    def request(self, request_id: int, fn: Callable, *args):
        """Run one request under a root span."""
        self._request = request_id
        try:
            return self.wrap(ROOT, fn)(*args)
        finally:
            self._request = None

    # installation ------------------------------------------------------------

    def install(self) -> None:
        cli = zetawave.cli
        spectra = zetawave.spectra
        waveform = zetawave.waveform
        verify = zetawave.verify
        plan = [
            (cli, "scan_zeros", "spectra.scan_zeros", _count_zeros),
            (cli, "convergence_study", "spectra.convergence_study", None),
            (cli, "run_checks", "verify.run_checks", None),
            (cli, "psi_boundary", "waveform.psi_boundary", self._count_unbacked),
            (cli, "psi_boundary_limit", "waveform.psi_boundary_limit", None),
            (cli, "psi_full", "waveform.psi_full", None),
            (spectra, "eta", "specfun.eta", None),
            (spectra, "eta_grid", "specfun.eta_grid", _count_grid),
            (spectra, "_bare_overlaps", "waveform.bare_overlaps", None),
            (spectra, "_euler_accelerated", "waveform.euler", _count_terms),
            (spectra, "_euler_accelerated_rows", "waveform.euler", _count_terms),
            (spectra, "psi_boundary", "waveform.psi_boundary", self._count_unbacked),
            (spectra, "psi_boundary_limit", "waveform.psi_boundary_limit", None),
            (spectra, "tilde_expansion_check", "waveform.tilde_expansion_check", None),
            (waveform, "eta", "specfun.eta", None),
            (waveform, "chi", "specfun.chi", _count_elements("specfun.chi.elements", 1)),
            (waveform, "bessel_i0_scaled", "specfun.bessel_i0_scaled", _count_elements("specfun.bessel_i0_scaled.elements", 0)),
            (waveform, "gamma_complex", "specfun.gamma_complex", None),
            (waveform, "_bare_overlaps", "waveform.bare_overlaps", None),
            (waveform, "_euler_accelerated", "waveform.euler", _count_terms),
            (waveform, "_euler_accelerated_rows", "waveform.euler", _count_terms),
            (waveform, "_boundary_eta_scale", "waveform.boundary_eta_scale", None),
            (waveform, "_inner_profile", "waveform.inner_profile", None),
            (waveform, "psi_boundary", "waveform.psi_boundary", self._count_unbacked),
            (zetawave.specfun, "eta", "specfun.eta", None),
            (zetawave.oracles, "chi", "specfun.chi", _count_elements("specfun.chi.elements", 1)),
            (verify, "eta", "specfun.eta", None),
            (verify, "chi", "specfun.chi", _count_elements("specfun.chi.elements", 1)),
            (verify, "gamma_complex", "specfun.gamma_complex", None),
            (verify, "zeta", "specfun.zeta", None),
            (verify, "laguerre", "specfun.laguerre", None),
            (verify, "scan_zeros", "spectra.scan_zeros", _count_zeros),
            (verify, "_euler_accelerated", "waveform.euler", _count_terms),
            (verify, "mehler_closed", "waveform.mehler_closed", None),
            (verify, "mehler_series", "waveform.mehler_series", _count_mehler),
            (verify, "overlap_s1", "waveform.overlap_s1", None),
            (verify, "phi_confined", "waveform.phi_confined", None),
            (verify, "psi_boundary_batch", "waveform.psi_boundary", self._count_unbacked_batch),
            (verify, "psi_boundary_limit", "waveform.psi_boundary_limit", None),
            (verify, "integrate_halfline", "quad.integrate_halfline", _count_panels),
            (verify, "eta_naive", "oracles.eta_naive", None),
            (verify, "apply_number_operator", "oracles.apply_number_operator", None),
            (verify, "apply_bk_operator", "oracles.apply_bk_operator", None),
        ]
        for module, attr, name, count in plan:
            setattr(module, attr, self.wrap(name, getattr(module, attr), count))
        spectra._finite_series_tools = self._finite_tools(spectra._finite_series_tools)
        # run_checks walks its registry, so each check is wrapped in place
        registry = verify._REGISTRY
        for i, (check, fn, tol) in enumerate(registry):
            registry[i] = (check, self.wrap("verify." + check, fn), tol)

    # counters that need the tracer ---------------------------------------------

    def _count_unbacked(self, counts: Counter, args: tuple, sample) -> None:
        counts["waveform.psi_boundary.samples"] += 1
        scaled = abs(sample.value / self._varphi_zero(sample.s))
        counts["waveform.psi_boundary.unbacked"] += int(sample.error > scaled)

    def _count_unbacked_batch(self, counts: Counter, args: tuple, result) -> None:
        values, err = result
        for s, value in zip(args[0], values):
            counts["waveform.psi_boundary.samples"] += 1
            counts["waveform.psi_boundary.unbacked"] += int(err > abs(value / self._varphi_zero(s)))

    def _finite_tools(self, fn: Callable) -> Callable:
        """The finite scan evaluates its grid through a returned closure; count its points."""
        traced = self.wrap("spectra.finite_series_tools", fn)

        def tools(*args, **kwargs):
            value, grid = traced(*args, **kwargs)

            def counted_grid(ts):
                self.counts["spectra.grid_points"] += len(ts)
                return grid(ts)

            return value, counted_grid

        return tools

    # summary -----------------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s: Dict[str, float] = defaultdict(float)
        total_s: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            total_s[name] += end - start
            calls[name] += 1
        return {
            "self_s": dict(self_s),
            "total_s": dict(total_s),
            "calls": dict(calls),
            "counts": dict(self.counts),
        }


def _count_zeros(counts: Counter, args: tuple, records) -> None:
    counts["spectra.zeros"] += len(records)
    counts["spectra.newton_iters"] += sum(r.iterations for r in records)


def _count_grid(counts: Counter, args: tuple, values) -> None:
    counts["specfun.eta_grid.points"] += len(values)
    counts["spectra.grid_points"] += len(values)


def _count_terms(counts: Counter, args: tuple, result) -> None:
    counts["waveform.euler.terms"] += int(np.size(args[0]))


def _count_elements(key: str, position: int) -> Callable:
    def count(counts: Counter, args: tuple, result) -> None:
        counts[key] += int(np.size(args[position]))

    return count


def _count_mehler(counts: Counter, args: tuple, result) -> None:
    counts["waveform.mehler_series.terms"] += result.terms_used


def _count_panels(counts: Counter, args: tuple, result) -> None:
    counts["quad.integrate_halfline.panels"] += result.panels_used
