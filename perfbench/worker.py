"""Run one workload in this interpreter; print one JSON result line.

    python3 perfbench/worker.py --workload NAME --seed N --dir DIR \
        --mode setup|run|trace [--seconds S]

`setup` only writes the inputs.  `run` runs passes over the job list, back
to back (one client, closed loop), as many as fit in `--seconds`, at least
one.  `trace` runs one pass with the layer tracer installed.  Answer
checks and result digests run between jobs, outside the timed region; so do
a full collection before each job and the reference-speed probes (see
speed.py) taken before each job and after each pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import sys
import time

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def run_passes(plan, seconds: float, tracer=None) -> dict:
    """Run passes over the plan's jobs; return raw job times, pass times,
    failures, the first pass's answer digests and the reference probes.

    `probe_times` holds one probe before each job and one after the last
    job of each pass: `len(plan.jobs) + 1` per pass.
    """
    job_times: list[float] = []
    probe_times: list[float] = []
    pass_times: list[float] = []
    failures: list[str] = []
    digests: list[str] = []
    start = time.perf_counter()
    while True:
        plan.reset()
        pass_time = 0.0
        for job in plan.jobs:
            # Each job starts with the collector's counters reset, as a
            # command in a fresh process would; otherwise the seeded job
            # order decides which jobs pay for collections that earlier
            # jobs' garbage triggers.
            gc.collect()
            probe_times.append(speed.probe())
            if tracer is not None:
                tracer.job, tracer.active = job.name, True
            error = None
            t0 = time.perf_counter()
            try:
                result = job.run()
            except Exception as e:  # a crashing job is a failed job
                result, error = None, e
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.job, tracer.active = None, False
            job_times.append(elapsed)
            pass_time += elapsed
            try:
                if error is not None:
                    raise error
                job.check(result)
                if not pass_times:
                    digests.append(job.digest(result))
            except Exception as e:
                failures.append(f"{job.name}: {type(e).__name__}: {e}")
            del result
        probe_times.append(speed.probe())
        pass_times.append(pass_time)
        # stop when another pass would overrun the run's time
        mean_pass = (time.perf_counter() - start) / len(pass_times)
        if tracer is not None or (time.perf_counter() - start + mean_pass
                                  > seconds):
            break
    return {"job_times": job_times, "probe_times": probe_times,
            "pass_times": pass_times, "failures": failures,
            "digests": digests}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--mode", choices=["setup", "run", "trace"],
                   required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--spans", help="file the trace mode writes spans to")
    args = p.parse_args()

    import numpy

    import layertrace
    import workloads

    os.makedirs(args.dir, exist_ok=True)
    os.chdir(args.dir)
    plan = workloads.WORKLOADS[args.workload](random.Random(args.seed))
    if args.mode == "setup":
        print(json.dumps({"setup": "done"}))
        return 0
    tracer = layertrace.install() if args.mode == "trace" else None
    out = run_passes(plan, args.seconds, tracer)
    if tracer is not None:
        if args.spans:
            tracer.dump(args.spans)
        out["layers"] = layertrace.layer_metrics(tracer.spans)
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["numpy"] = numpy.__version__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
