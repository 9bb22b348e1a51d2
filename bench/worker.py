"""Run one benchmark workload in this process and print its result as JSON.

Started by ``run.py`` with the checkout as working directory and the
thread-pinned environment it builds.  ``--setup-only`` measures set-up and
exits; otherwise the workload's jobs run for the given number of seconds.

Times are reference seconds (see speed.py): the process's CPU time, rescaled
by the speed of its core while the region ran.  CPU and wall times go into
the info line; wall times include the probe's pauses.

Every run starts with an untimed warm-up run of job 0, so that lazy set-up
and caches settle before timing; timed job 0 must then reproduce its output
digest (determinism gate).

Untraced run: jobs 0, 1, ... are timed until the budget is spent.

Traced run: the first half of the budget times jobs untraced, then the same
jobs (same seeds) run again with spans recorded.  The traced/untraced time
ratio is the tracing overhead, and the two digests of each job must match.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path

import speed
import workloads

MIN_JOBS = 3


def job_seed(workload: str, seed: int, index: int) -> int:
    """63-bit seed of job ``index``; a pure function of the workload seed."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


class Job:
    def __init__(self, index, clock, items, errors, digest=None, bytes_written=0):
        self.index = index
        self.seconds = clock.seconds
        self.cpu = clock.cpu
        self.wall = clock.wall
        self.items = items
        self.errors = errors
        self.digest = digest
        self.bytes_written = bytes_written

    @property
    def failed(self) -> int:
        return self.items if self.errors else 0


class Runner:
    def __init__(self, workload, state, seed: int, probe: speed.Probe):
        self.wl = workload
        self.state = state
        self.seed = seed
        self.probe = probe

    def run_job(self, index: int, tracer=None) -> Job:
        wl, state = self.wl, self.state
        prep = wl.prepare(state, job_seed(wl.name, self.seed, index))
        clock = speed.Clock(self.probe)
        if tracer is not None:
            tracer.active = True
        try:
            with clock:
                out = wl.job(state, prep)
        except Exception as exc:  # a raising job is a failed job, not a crashed run
            return Job(index, clock, wl.nominal_items(state, prep),
                       [f"job raised {type(exc).__name__}: {exc}"])
        finally:
            if tracer is not None:
                tracer.active = False
        try:
            items = wl.items(state, prep, out)
            errors = wl.check(state, prep, out)
            digest = wl.digest(state, prep, out)
            written = wl.bytes_written(out) if hasattr(wl, "bytes_written") else 0
        except Exception as exc:
            return Job(index, clock, wl.nominal_items(state, prep),
                       [f"output check raised {type(exc).__name__}: {exc}"])
        finally:
            if hasattr(wl, "cleanup"):
                wl.cleanup(prep)
        return Job(index, clock, items, errors, digest, written)

    def run_for(self, budget: float) -> tuple[Job, list[Job]]:
        """Warm-up, then jobs 0, 1, ... until another job of the last one's length would overrun."""
        warm = self.run_job(0)
        jobs = [gate_determinism(warm, self.run_job(0))]
        total = jobs[0].wall
        while len(jobs) < MIN_JOBS or total + jobs[-1].wall <= budget:
            jobs.append(self.run_job(len(jobs)))
            total += jobs[-1].wall
        return warm, jobs


def gate_determinism(first: Job, again: Job) -> Job:
    if first.digest is not None and again.digest is not None and again.digest != first.digest:
        again.errors.append(f"job {first.index}: outputs differ between two runs of the same seed")
    return again


def machine_info() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),  # the worker and its probe
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in sorted(os.environ) if k.endswith("_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    root = Path.cwd()
    out_root = root / ".bench_out" / f"{args.workload}-{os.getpid()}"
    sys.path.insert(0, str(root / "src"))
    wl = workloads.make(args.workload, out_root)
    probe = speed.Probe()
    try:
        with speed.Clock(probe) as setup:
            import lentparticle as lp

            state = wl.setup(lp)
        if not Path(lp.__file__).resolve().is_relative_to((root / "src").resolve()):
            raise SystemExit(f"imported lentparticle from {lp.__file__}, not from this checkout")
        result = {"setup_s": setup.seconds, "setup_cpu_s": setup.cpu, "setup_wall_s": setup.wall}
        if args.setup_only:
            print(json.dumps(result))
            return 0
        runner = Runner(wl, state, args.seed, probe)
        if args.trace:
            import tracing

            warm, untraced = runner.run_for(args.seconds / 2.0)
            tracer = tracing.Tracer()
            tracing.install(tracer)
            traced = [gate_determinism(j, runner.run_job(j.index, tracer)) for j in untraced]
            jobs = [warm] + untraced + traced
            result["layers"] = tracing.layer_metrics(
                tracer, len(traced),
                traced_cpu_s=sum(j.cpu for j in traced),
                traced_s=sum(j.seconds for j in traced),
                untraced_s=sum(j.seconds for j in untraced),
                cli_bytes=sum(j.bytes_written for j in traced),
            )
            result["absent"] = tracer.absent
            timed = untraced
        else:
            warm, timed = runner.run_for(args.seconds)
            jobs = [warm] + timed
        result.update({
            "job_s": [j.seconds for j in timed],
            "job_rates": [j.items / j.seconds for j in timed],
            "job_cpu_s": [j.cpu for j in timed],
            "job_wall_s": [j.wall for j in timed],
            "attempted": sum(j.items for j in jobs),
            "failed": sum(j.failed for j in jobs),
            "errors": [e for j in jobs for e in j.errors][:20],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "info": machine_info(),
        })
        print(json.dumps(result))
        return 0
    finally:
        probe.close()
        shutil.rmtree(out_root, ignore_errors=True)
        try:
            out_root.parent.rmdir()
        except OSError:  # absent, or another run is using it
            pass


if __name__ == "__main__":
    sys.exit(main())
