"""ramseykit benchmark: end-to-end metrics per workload, or a traced layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout holding `src/ramseykit`; the package is imported from
source.  Without `--workload` every workload runs, one after another.

Each workload runs in fresh interpreters started by this script (stdlib
only, no threads, one child at a time):

* `--trace 0`: five set-up probes (interpreter start, `import ramseykit`,
  input generation), then one measuring child that runs as many passes over
  the workload's job list as fit in `--seconds`.  Each job's median time
  over the passes, in reference seconds (speed.py), gives the job-list
  profile: wall_s is its sum (the job list's time to solution), job_p50_s
  its median, job_tail_s its value at the highest percentile with ten jobs
  above it.  Also setup_s (median set-up probe, in reference seconds) and
  peak_rss_mb.
* `--trace 1`: one untraced pass and one traced pass, each in its own child.
  Reports the per-layer metrics of the traced pass, and the tracing overhead
  as traced minus untraced pass time.  The two passes must give identical
  answers (per-job digests), which also checks that running the ledger
  closure one pass at a time gives the single-call fact list.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  Jobs with a wrong answer, a wrong exit code or an exception count
as failed.  Exits 2 without a result when the source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
WORKLOADS = ("certify", "sat-search", "ledger-derive", "ledger-session")
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170.0  # every run must end within 180 s


class ChildFailed(RuntimeError):
    pass


def git_sha() -> str:
    """HEAD of the checkout's .git, read directly; 'unknown' outside git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]),
                      encoding="utf-8") as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def run_child(workload: str, seed: int, mode: str, workdir: str,
              deadline: float, seconds: float = 0.0,
              spans: str | None = None) -> tuple[dict, float]:
    """Run worker.py in a fresh interpreter; return its JSON and wall time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--dir", workdir, "--seconds", str(seconds)]
    if spans:
        cmd += ["--spans", spans]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("out of time before starting a child")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} {mode}: timed out") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} {mode}: exit {proc.returncode}\n"
                          f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def tail(times: list[float]) -> float:
    """Job time at the highest percentile with at least ten jobs above it
    (the maximum when there are ten jobs or fewer)."""
    ordered = sorted(times)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def job_profile(job_times: list[float], probe_times: list[float],
                passes: int) -> list[float]:
    """Each job's median time over the run's passes, in reference seconds,
    in job-list order.

    Each time is scaled by the reference probes taken just before and just
    after it (speed.py), which removes the host's changes of speed; the
    median per job then removes bursts that hit a job but not its probes.
    """
    n = len(job_times) // passes
    scaled = [speed.scale(job_times[p * n + j], probe_times[p * (n + 1) + j],
                          probe_times[p * (n + 1) + j + 1])
              for p in range(passes) for j in range(n)]
    return [statistics.median(scaled[j::n]) for j in range(n)]


def end_to_end(workload: str, seed: int, seconds: float,
               deadline: float) -> tuple[dict, dict]:
    probes = []
    for k in range(SETUP_PROBES):
        workdir = os.path.join(WORK, f"{workload}-{os.getpid()}-setup{k}")
        before = speed.probe()
        elapsed = run_child(workload, seed, "setup", workdir, deadline)[1]
        probes.append(speed.scale(elapsed, before, speed.probe()))
    workdir = os.path.join(WORK, f"{workload}-{os.getpid()}-run")
    out, _ = run_child(workload, seed, "run", workdir, deadline, seconds)
    profile = job_profile(out["job_times"], out["probe_times"],
                          len(out["pass_times"]))
    metrics = {
        "wall_s": (sum(profile), "s"),
        "job_p50_s": (statistics.median(profile), "s"),
        "job_tail_s": (tail(profile), "s"),
        "setup_s": (statistics.median(probes), "s"),
        "peak_rss_mb": (out["peak_rss_kb"] / 1024.0, "MB"),
    }
    info = {"passes": len(out["pass_times"]), "jobs_per_pass": len(profile),
            "tail_rank": max(len(profile) - 10, 1),
            "raw_wall_s": sum(out["pass_times"]) / len(out["pass_times"]),
            "probe_p50_s": statistics.median(out["probe_times"]),
            "reference_s": speed.REFERENCE_S, "numpy": out["numpy"]}
    return metrics, {**out, "info": info}


def traced(workload: str, seed: int, deadline: float) -> tuple[dict, dict]:
    plain, _ = run_child(workload, seed, "run",
                         os.path.join(WORK, f"{workload}-{os.getpid()}-plain"),
                         deadline)
    spans = os.path.join(WORK, f"{workload}.spans.jsonl")
    out, _ = run_child(workload, seed, "trace",
                       os.path.join(WORK, f"{workload}-{os.getpid()}-trace"),
                       deadline, spans=spans)
    if out["digests"] != plain["digests"]:
        out["failures"].append("traced answers differ from untraced answers")
    wall_plain, wall_traced = plain["pass_times"][0], out["pass_times"][0]
    layers = out["layers"]
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    layers["trace.wall_s"] = wall_traced
    layers["trace.overhead_s"] = wall_traced - wall_plain
    layers["trace.accounted_ratio"] = self_total / wall_traced
    metrics = {k: (v, unit_of(k)) for k, v in layers.items()}
    info = {"jobs": len(out["job_times"]), "untraced_wall_s": wall_plain,
            "spans_file": os.path.relpath(spans, ROOT),
            "numpy": out["numpy"]}
    return metrics, {**out, "info": info}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 env: dict) -> dict:
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    os.makedirs(WORK, exist_ok=True)
    if trace:
        metrics, out = traced(workload, seed, deadline)
    else:
        metrics, out = end_to_end(workload, seed, seconds, deadline)
    failures = out["failures"]
    print(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                      **env, **out["info"]}))
    for name, (value, unit) in metrics.items():
        print(f"{workload:15s} {name:32s} {value:14.6f} {unit}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    return {
        "correct": not failures,
        "attempted": len(out["job_times"]),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="one workload (default: all, one after another)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "ramseykit", "cli.py")):
        print(f"error: no ramseykit source tree under {ROOT}/src",
              file=sys.stderr)
        return 2
    env = {"git_sha": git_sha(), "python": sys.version.split()[0],
           "nproc": os.cpu_count(), "loadavg": os.getloadavg()}
    results = []
    for workload in ([args.workload] if args.workload else WORKLOADS):
        try:
            results.append(run_workload(workload, args.seed, args.seconds,
                                        bool(args.trace), env))
        except ChildFailed as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
