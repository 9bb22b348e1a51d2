"""Span recorder for the traced benchmark run.

Spans wrap public functions of lentparticle at stable boundaries; the
package's own files are left untouched.  A wrapped function is rebound in
every ``lentparticle`` module that imported it, so calls made through any
of those names are recorded.  Spans are aggregated in memory per name:
calls, inclusive (busy) time, self time (busy minus child spans), failures
and per-span counters.  Span times are process CPU times.  A boundary that no longer exists is recorded as
absent and its metrics read 0 rather than failing the run.
"""

from __future__ import annotations

import functools
import math
import sys
from time import process_time


class Stat:
    __slots__ = ("calls", "busy", "self", "failed", "count")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self = 0.0
        self.failed = 0
        self.count = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.stack: list[float] = []  # child time of each open span
        self.root_s = 0.0             # time covered by top-level spans
        self.active = False
        self.absent: list[str] = []

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def wrap(self, name, fn, count=None):
        """Return ``fn`` recorded as span ``name`` while the tracer is active.

        ``name`` may be a function of the call's positional arguments;
        ``count(args, kwargs, result)`` adds to the span's counter.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            stack.append(0.0)
            t0 = process_time()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(name, args, t0, failed=True)
                raise
            st = tracer._close(name, args, t0, failed=False)
            if count is not None:
                st.count += count(args, kwargs, result)
            return result

        return wrapper

    def _close(self, name, args, t0, failed):
        dt = process_time() - t0
        child = self.stack.pop()
        st = self.stat(name(args) if callable(name) else name)
        st.calls += 1
        st.busy += dt
        st.self += dt - child
        st.failed += failed
        if self.stack:
            self.stack[-1] += dt
        else:
            self.root_s += dt
        return st

    def patch_function(self, module: str, attr: str, name: str, count=None, factory=None):
        """Rebind ``module.attr`` wherever lentparticle holds that object."""
        mod = sys.modules.get(module)
        orig = getattr(mod, attr, None)
        if orig is None:
            self.absent.append(name)
            return
        new = factory(orig) if factory is not None else self.wrap(name, orig, count)
        for mname, m in list(sys.modules.items()):
            if (mname == "lentparticle" or mname.startswith("lentparticle.")) \
                    and getattr(m, attr, None) is orig:
                setattr(m, attr, new)

    def patch_method(self, module: str, cls: str, attr: str, name, count=None):
        klass = getattr(sys.modules.get(module), cls, None)
        orig = getattr(klass, attr, None) if klass is not None else None
        if orig is None:
            self.absent.append(name if isinstance(name, str) else f"{cls}.{attr}")
            return
        setattr(klass, attr, self.wrap(name, orig, count))


def _plain_rows(args, kwargs, result) -> int:
    """Grid rows of the re-solve behind ``SdeFunctional.value(config)``."""
    functional, config = args[0], args[1]
    n_reg = max(1, math.ceil(config.horizon / functional.step - 1e-12))
    return n_reg + 1 + int((config.times <= config.horizon).sum())


def _gamma_of_span(args) -> str:
    return "scenarios.closed_form" if args[0].closed_form_gamma is not None else "scenarios.gamma_of"


def install(tracer: Tracer) -> None:
    """Wrap the stable boundaries of every layer (see NOTES.md)."""
    import lentparticle  # noqa: F401  (loads every submodule)
    import lentparticle.cli  # noqa: F401

    pm, sde, lpm = "lentparticle.poisson_measure", "lentparticle.sde_engine", "lentparticle.lent_particle"
    sc, dc = "lentparticle.scenarios", "lentparticle.density_criteria"

    tracer.patch_method(sc, "Scenario", "pipeline", "sde_engine.flows",
                        count=lambda a, k, r: r[2].times.shape[0])
    tracer.patch_method(lpm, "SdeFunctional", "value", "sde_engine.plain", count=_plain_rows)
    tracer.patch_method(sc, "Scenario", "gamma_of", _gamma_of_span,
                        count=lambda a, k, r: a[1].n_atoms)
    tracer.patch_method("lentparticle.bottom_structure", "BottomStructure", "weight",
                        "bottom_structure.weight")

    atoms = lambda a, k, r: len(r.per_jump_terms)
    tracer.patch_function(pm, "simulate_configuration", "poisson_measure.simulate",
                          count=lambda a, k, r: r.n_atoms)
    tracer.patch_function(lpm, "gamma_flow", "lent_particle.gamma_flow", count=atoms)
    tracer.patch_function(lpm, "gamma_flow_left", "lent_particle.gamma_flow", count=atoms)
    tracer.patch_function(lpm, "gamma_generic", "lent_particle.gamma_generic",
                          count=lambda a, k, r: a[1].n_atoms)
    tracer.patch_function(lpm, "gamma_rho_mc", "lent_particle.rho_mc",
                          count=lambda a, k, r: k["M"] if "M" in k else a[3])
    tracer.patch_function("lentparticle.rng", "stream", "rng.stream")
    tracer.patch_function(sde, "mark_integral", "poisson_measure.mark_integral")
    tracer.patch_function(dc, "rank_diagnostic", "density_criteria.rank_diagnostic",
                          count=lambda a, k, r: int(r.indeterminate))
    tracer.patch_function(dc, "monte_carlo_rank_stats", "density_criteria.rank_stats")
    tracer.patch_function("lentparticle.cli", "main", "cli")

    def traced_compiler(compile_coefficient):
        @functools.wraps(compile_coefficient)
        def compile_traced(*args, **kwargs):
            return tracer.wrap("expressions.coefficient", compile_coefficient(*args, **kwargs))
        return compile_traced

    tracer.patch_function("lentparticle.cli", "compile_coefficient", "expressions.coefficient",
                          factory=traced_compiler)


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


# (span, field, metric suffix, unit).  Fields: "calls" and "count" (the span's
# counter) per job, "busy" and "self" in reference seconds per job, "rate" the
# counter over busy time.
_SPAN_METRICS = [
    ("sde_engine.flows", "calls", "calls", "count"),
    ("sde_engine.flows", "count", "rows", "count"),
    ("sde_engine.flows", "busy", "busy_s", "s"),
    ("sde_engine.flows", "rate", "rows_per_s", "rows/s"),
    ("sde_engine.plain", "calls", "calls", "count"),
    ("sde_engine.plain", "busy", "busy_s", "s"),
    ("sde_engine.plain", "rate", "rows_per_s", "rows/s"),
    ("lent_particle.gamma_flow", "calls", "calls", "count"),
    ("lent_particle.gamma_flow", "busy", "busy_s", "s"),
    ("lent_particle.gamma_flow", "rate", "atoms_per_s", "atoms/s"),
    ("lent_particle.gamma_generic", "self", "self_s", "s"),
    ("lent_particle.rho_mc", "busy", "busy_s", "s"),
    ("lent_particle.rho_mc", "rate", "draws_per_s", "draws/s"),
    ("rng.stream", "calls", "calls", "count"),
    ("rng.stream", "busy", "busy_s", "s"),
    ("bottom_structure.weight", "calls", "calls", "count"),
    ("bottom_structure.weight", "busy", "busy_s", "s"),
    ("scenarios.closed_form", "self", "self_s", "s"),
    ("scenarios.closed_form", "rate", "atoms_per_s", "atoms/s"),
    ("poisson_measure.simulate", "busy", "busy_s", "s"),
    ("poisson_measure.simulate", "rate", "atoms_per_s", "atoms/s"),
    ("density_criteria.rank_diagnostic", "calls", "calls", "count"),
    ("density_criteria.rank_diagnostic", "busy", "busy_s", "s"),
    ("density_criteria.rank_stats", "self", "self_s", "s"),
    ("poisson_measure.mark_integral", "calls", "calls", "count"),
    ("poisson_measure.mark_integral", "busy", "busy_s", "s"),
    ("expressions.coefficient", "calls", "calls", "count"),
    ("expressions.coefficient", "busy", "busy_s", "s"),
    ("cli", "self", "self_s", "s"),
]


def layer_metrics(tracer: Tracer, n_jobs: int, traced_cpu_s: float, traced_s: float,
                  untraced_s: float, cli_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per traced job unless the name says otherwise.

    Span times are CPU times; like ``job_s`` they are reported in reference
    seconds (see speed.py), rescaled by the traced jobs' overall factor
    ``traced_s / traced_cpu_s``.  ``traced_s`` and ``untraced_s`` are the
    reference-second totals of the same jobs run with and without spans.
    """
    scale = _rate(traced_s, traced_cpu_s)
    s = tracer.stat
    out = {}
    for span, field, suffix, unit in _SPAN_METRICS:
        st = s(span)
        if field == "rate":
            value = _rate(st.count, st.busy * scale)
        elif field in ("busy", "self"):
            value = getattr(st, field) * scale / n_jobs
        else:
            value = getattr(st, field) / n_jobs
        out[f"{span}.{suffix}"] = (value, unit)
    diag, quad = s("density_criteria.rank_diagnostic"), s("poisson_measure.mark_integral")
    rows = s("sde_engine.flows").count + s("sde_engine.plain").count
    out.update({
        "lent_particle.gamma_generic.resolves_per_atom": (
            _rate(s("sde_engine.plain").calls, s("lent_particle.gamma_generic").count), "ratio"),
        "density_criteria.rank_diagnostic.indeterminate_ratio": (_rate(diag.count, diag.calls), "ratio"),
        "poisson_measure.mark_integral.calls_per_row": (_rate(quad.calls, rows), "ratio"),
        "cli.bytes_written": (cli_bytes / n_jobs, "B"),
    })
    for layer in LAYERS:
        failed = sum(st.failed for n, st in tracer.stats.items()
                     if n == layer or n.startswith(layer + "."))
        out[f"{layer}.failed"] = (failed / n_jobs, "count")
    unattributed = max(traced_cpu_s - tracer.root_s, 0.0) + sum(s(n).self for n in ENTRY_SPANS)
    out["unattributed_s"] = (unattributed * scale / n_jobs, "s")
    out["unattributed_share"] = (_rate(unattributed, traced_cpu_s), "ratio")
    out["trace_overhead_ratio"] = (_rate(traced_s, untraced_s), "ratio")
    return out


# Spans around a job's own entry call (the driver loop of monte_carlo_rank_stats,
# the CLI).  Their self time is job time that no layer below the entry
# accounts for, so it counts as unattributed along with time outside every span.
ENTRY_SPANS = ("density_criteria.rank_stats", "cli")

LAYERS = ("poisson_measure", "bottom_structure", "sde_engine", "lent_particle",
          "density_criteria", "scenarios", "expressions", "rng", "cli")
