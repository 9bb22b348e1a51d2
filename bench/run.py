"""Benchmark of the lentparticle pipeline.

Usage, from the root of a checkout:

    python3 bench/run.py --workload rank-pipeline --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn, printing two lines for each.

Each workload runs in a child process of its own (so peak RSS is per
workload), with BLAS/OpenMP pinned to one thread and lentparticle imported
from ``src/`` of the checkout.  Set-up is measured in that child and in
``SETUP_PROBES`` extra children that only set up; ``setup_s`` is the median.

A workload's last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it records the machine (nproc, Python, numpy, scipy, BLAS) and the job times.
Exits non-zero without a result when the checkout holds no ``src/lentparticle``
or a child fails.  A child that overruns its time limit is stopped, and the
workload's result line then reads ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 2
# Set-up takes about a second.  With the timed child's 160 s this keeps a
# run within three minutes; runs of more than 40 s get four times their budget.
SETUP_TIMEOUT_S = 8.0
CHILD_TIMEOUT_S = 160.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(argv: list[str], env: dict, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark child {argv} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(res: dict, setup_s: float) -> dict:
    attempted = res["attempted"]
    return {
        "setup_s": (setup_s, "s"),
        "job_s": (statistics.median(res["job_s"]), "s"),
        "items_per_s": (statistics.median(res["job_rates"]), "items/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "passed_ratio": ((attempted - res["failed"]) / attempted, "ratio"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, env: dict) -> None:
    """Run one workload and print its info line and its result line."""
    common = ["--workload", name, "--seed", str(seed)]
    try:
        setups = [run_child(common + ["--setup-only"], env, SETUP_TIMEOUT_S)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        res = run_child(common + ["--seconds", str(seconds), "--trace", str(trace)],
                        env, max(CHILD_TIMEOUT_S, 4.0 * seconds))
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        print(json.dumps({"workload": name, "seed": seed, "trace": trace,
                          "errors": [f"child overran its {exc.timeout:.0f} s limit"]}))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}),
              flush=True)
        return
    setups.append(res["setup_s"])
    metrics = res["layers"] if trace else end_to_end(res, statistics.median(setups))
    print(json.dumps({
        "workload": name, "seed": seed, "trace": trace,
        "jobs": len(res["job_s"]), "job_s": res["job_s"], "job_cpu_s": res["job_cpu_s"],
        "job_wall_s": res["job_wall_s"], "setup_samples_s": setups,
        "setup_cpu_s": res["setup_cpu_s"], "setup_wall_s": res["setup_wall_s"],
        "absent": res.get("absent", []), "errors": res["errors"], "machine": res["info"],
    }))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m: {"value": value, "unit": unit} for m, (value, unit) in metrics.items()},
    }), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lentparticle" / "__init__.py").is_file():
        print(f"error: {root} holds no src/lentparticle to benchmark", file=sys.stderr)
        return 2
    env = child_env(root)
    for name in workloads.NAMES if args.workload == "all" else (args.workload,):
        run_workload(name, args.seed, args.seconds, args.trace, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
