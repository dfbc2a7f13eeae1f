"""Per-layer tracing from outside the program.

Timing wrappers go around the public functions and methods each ``matent``
module exports (and ``MatrixTuple``'s validation hook). A wrapper replaces the original on every ``matent`` module (and
class) attribute that holds it, i.e. wherever its callers look it up, so
``matent.maxent.estimate_log_I`` and ``matent.orbital.estimate_log_I`` are
both traced. Per (span, parent span) the wrappers keep the call count and the
busy time in memory; a span's self time is its busy time minus the busy time
of the spans it called. Wrappers draw no random numbers and change no
argument or result, so a traced pass writes the same bytes as an untraced
one. A name the program no longer has is skipped and listed in ``missing``.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

Hook = Optional[Callable[[Dict[str, float], str, tuple, object], None]]


def _step_span(args: tuple) -> str:
    # n = 1 chains sweep the eigenvalue gas; n >= 2 chains take matrix steps
    return "sampler.gas_sweep" if getattr(args[0], "spectral", False) else "sampler.matrix_step"


def _after_step(counts, span, args, result) -> None:
    if span == "sampler.gas_sweep":
        counts["gas_sites"] += args[0].model.N
    else:
        counts["matrix_accepted"] += float(result)


def _after_chain(counts, span, args, result) -> None:
    counts["chain_ess"] += float(result[1].ess)


def _after_fit(counts, span, args, result) -> None:
    counts["fits"] += 1
    counts["sa_iters"] += result.iterations
    counts["fits_converged"] += bool(result.converged)


def _after_haar_batch(counts, span, args, result) -> None:
    counts["haar"] += result.shape[0]


def _after_haar(counts, span, args, result) -> None:
    counts["haar"] += 1


# (defining module, attribute or Class.method, span name, hook after a call)
TARGETS: List[Tuple[str, str, Union[str, Callable[[tuple], str]], Hook]] = [
    ("matent.sampler", "ChainEngine.step", _step_span, _after_step),
    # called once per TI node by the annealing sweep
    ("matent.sampler", "ChainEngine.set_beta", "sampler.set_beta", None),
    ("matent.sampler", "estimate_log_I", "sampler.ti", None),
    ("matent.sampler", "mcmc_chain", "sampler.chain", _after_chain),
    ("matent.maxent", "fit_projection", "maxent.fit", _after_fit),
    ("matent.maxent", "one_variable_chi_reference", "maxent.reference", None),
    ("matent.ncpoly", "NcPoly.evaluate", "ncpoly.evaluate", None),
    ("matent.ncpoly", "trace_moment", "ncpoly.trace_moment", None),
    ("matent.matrices", "haar_unitary_batch", "matrices.haar_batch", _after_haar_batch),
    ("matent.matrices", "haar_unitary", "matrices.haar", _after_haar),
    ("matent.matrices", "MatrixTuple.__post_init__", "matrices.tuple", None),
    ("matent.orbital", "orbital_entropy", "orbital.entropy", None),
    ("matent.orbital", "talagrand_report", "orbital.talagrand", None),
    ("matent.moments", "empirical_moments", "moments.empirical", None),
    ("matent.moments", "free_product_moments", "moments.free_product", None),
    ("matent.estimates", "mean_with_batch_stderr", "estimates.batch_mean", None),
    ("matent.cli", "write_outputs", "cli.write", None),
]


class Tracer:
    """Installs the timing wrappers, keeps their spans and counts, restores."""

    def __init__(self) -> None:
        # (span, parent span) -> [calls, busy seconds, busy seconds of children]
        self.spans: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Dict[str, float] = defaultdict(float)
        self.missing: List[str] = []
        self._stack: List[list] = []
        self._patched: List[Tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, span, after: Hook) -> Callable:
        stack, spans, counts = self._stack, self.spans, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = span(args) if callable(span) else span
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += busy
                rec = spans[(name, parent)]
                rec[0] += 1
                rec[1] += busy
                rec[2] += frame[1]
            if after is not None:
                after(counts, name, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "matent" or name.startswith("matent."))]
        for module_name, attr, span, after in TARGETS:
            owner = sys.modules.get(module_name)
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                orig = vars(cls).get(method) if cls is not None else None
                if orig is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(cls, method, self._wrap(orig, span, after))
                self._patched.append((cls, method, orig))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(orig, span, after)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, orig))

    def restore(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- aggregation -------------------------------------------------------

    def calls(self, name: str, parent: Optional[str] = None) -> float:
        return float(sum(r[0] for (s, p), r in self.spans.items()
                         if s == name and (parent is None or p == parent)))

    def busy(self, name: str, parent: Optional[str] = None) -> float:
        return sum((r[1] for (s, p), r in self.spans.items()
                    if s == name and (parent is None or p == parent)), 0.0)

    def self_time(self, prefix: str) -> float:
        return sum((r[1] - r[2] for (s, _), r in self.spans.items() if s.startswith(prefix)), 0.0)


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, in the units of :data:`UNITS`."""
    c = t.counts
    gas_s = t.busy("sampler.gas_sweep")
    matrix_s = t.busy("sampler.matrix_step")
    steps = t.calls("sampler.matrix_step")
    ti_s = t.busy("sampler.ti")
    nodes = t.calls("sampler.set_beta", "sampler.ti")
    fit_s = t.busy("maxent.fit")
    haar_s = t.busy("matrices.haar_batch") + t.busy("matrices.haar")
    inner = t.calls("matrices.haar_batch", "orbital.entropy")
    inner_s = t.busy("orbital.entropy") - t.busy("sampler.chain", "orbital.entropy")
    tuples = t.calls("matrices.tuple")
    return {
        "sampler.gas_sweeps": t.calls("sampler.gas_sweep"),
        "sampler.gas_s": gas_s,
        "sampler.gas_site_us": _per(gas_s * 1e6, c["gas_sites"]),
        "sampler.matrix_steps": steps,
        "sampler.matrix_s": matrix_s,
        "sampler.matrix_step_us": _per(matrix_s * 1e6, steps),
        "sampler.accept_frac": _per(c["matrix_accepted"], steps),
        "sampler.ti_s": ti_s,
        "sampler.ti_nodes": nodes,
        "sampler.ti_node_ms": _per(ti_s * 1e3, nodes),
        "sampler.chains": t.calls("sampler.chain"),
        "sampler.chain_ess_per_s": _per(c["chain_ess"], t.busy("sampler.chain")),
        "maxent.fits": c["fits"],
        "maxent.fit_s": fit_s,
        "maxent.solve_s": _per(fit_s, c["fits"]),
        "maxent.self_s": t.self_time("maxent.fit"),
        "maxent.sa_iters": c["sa_iters"],
        "maxent.converged_frac": _per(c["fits_converged"], c["fits"]),
        "maxent.reference_s": t.busy("maxent.reference"),
        "ncpoly.evaluate_calls": t.calls("ncpoly.evaluate"),
        "ncpoly.evaluate_us": _per(t.busy("ncpoly.evaluate") * 1e6, t.calls("ncpoly.evaluate")),
        "ncpoly.trace_moment_calls": t.calls("ncpoly.trace_moment"),
        "ncpoly.trace_moment_us": _per(t.busy("ncpoly.trace_moment") * 1e6,
                                       t.calls("ncpoly.trace_moment")),
        "matrices.haar_unitaries": c["haar"],
        "matrices.haar_us": _per(haar_s * 1e6, c["haar"]),
        # the orbital inner sampler's batches, s_in unitaries per block group
        "matrices.haar_batch_ms": _per(t.busy("matrices.haar_batch", "orbital.entropy") * 1e3,
                                       inner),
        "matrices.tuples": tuples,
        "matrices.tuple_us": _per(t.busy("matrices.tuple") * 1e6, tuples),
        "orbital.self_s": t.self_time("orbital."),
        "orbital.inner_batches": inner,
        "orbital.inner_batch_ms": _per(inner_s * 1e3, inner),
        "moments.empirical_s": t.busy("moments.empirical"),
        "moments.free_product_s": t.busy("moments.free_product"),
        "estimates.s": t.busy("estimates.batch_mean"),
        "cli.write_s": t.busy("cli.write"),
    }


# units of every per-layer metric the benchmark reports, in report order;
# cli.<op>_s, cli.bytes, the cost rows and trace.* come from the pass itself
UNITS: Dict[str, str] = {
    "sampler.gas_sweeps": "count", "sampler.gas_s": "s", "sampler.gas_site_us": "us",
    "sampler.matrix_steps": "count", "sampler.matrix_s": "s",
    "sampler.matrix_step_us": "us", "sampler.accept_frac": "ratio",
    "sampler.ti_s": "s", "sampler.ti_nodes": "count", "sampler.ti_node_ms": "ms",
    "sampler.chains": "count", "sampler.chain_ess_per_s": "1/s",
    "maxent.fits": "count", "maxent.fit_s": "s", "maxent.solve_s": "s",
    "maxent.self_s": "s", "maxent.sa_iters": "count", "maxent.converged_frac": "ratio",
    "maxent.reference_s": "s",
    "ncpoly.evaluate_calls": "count", "ncpoly.evaluate_us": "us",
    "ncpoly.trace_moment_calls": "count", "ncpoly.trace_moment_us": "us",
    "matrices.haar_unitaries": "count", "matrices.haar_us": "us",
    "matrices.haar_batch_ms": "ms", "matrices.tuples": "count", "matrices.tuple_us": "us",
    "orbital.self_s": "s", "orbital.inner_batches": "count", "orbital.inner_batch_ms": "ms",
    "moments.empirical_s": "s", "moments.free_product_s": "s", "estimates.s": "s",
    "cli.write_s": "s", "cli.bytes": "bytes",
    "maxent.cost_s_nat2": "s.nat2", "orbital.cost_s_nat2": "s.nat2",
    "trace.wall_s": "s", "trace.overhead_frac": "ratio",
}
