"""flosim benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; flosim is imported from ./src.
The seed generates the workload's input files under .perfbench_out/.
Every measurement runs in fresh interpreters started from here, one at
a time, with BLAS capped at BLAS_THREADS threads:

  --trace 0  several setup-only interpreters, then one interpreter that
             runs untraced jobs in a closed loop for S seconds.  Prints
             the end-to-end metrics.
  --trace 1  one interpreter: untraced jobs for S/2 seconds, then whole
             traced passes over the input pool.  Prints the per-layer
             metrics and the tracing overhead; the spans are written to
             .perfbench_out/<workload>-seed<N>-trace1-spans.npz.

Readable lines come first; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  A full record with
provenance and raw samples goes to .perfbench_out/.  Exits non-zero
without a result when a process fails, e.g. when ./src/flosim is absent.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import numpy as np

import tracing
import workloads
from worker import REFERENCE_CAL_S, Calibration

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")

BLAS_THREADS = 1
WORKER_TIMEOUT_S = 150
# The untraced run is split into this many fresh interpreters run one
# after another.  Each measures its own setup, so the setup samples are
# spread over the run like the job samples; the host's speed drifts
# over seconds, and samples taken close together would all share it.
SEGMENTS = {"parity_sum": 4, "single_det": 6, "oracle_check": 6, "analysis": 6}
# The host speed for a setup sample is the mean of the calibration kernel
# timed here, just before the interpreter starts, and in the interpreter
# right after its setup.
PRE_SETUP_CAL_S = 0.03
P90_MIN_JOBS = 100  # at least 10 samples beyond the 90th percentile

END_TO_END = {
    "setup_s": "s",
    "job_s_p50": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def provenance():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        # The ceiling keeps git from reporting an enclosing repository's
        # commit when the checkout itself is not a repository.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "flosim", "*.py"))):
        with open(path, "rb") as handle:
            digest.update(os.path.basename(path).encode() + b"\0" + handle.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_worker(plan_path, mode, seconds=0.0, start=0):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    proc = subprocess.run(
        [sys.executable, WORKER, plan_path, mode, repr(seconds), str(start)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker {mode} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(values):
    return float(statistics.median(values))


def rescaled(times, cals):
    """Times rescaled to the reference host speed (see worker.py)."""
    return [t * REFERENCE_CAL_S / c for t, c in zip(times, cals)]


def end_to_end(workload, plan_path, seconds):
    k = SEGMENTS[workload]
    calibrate = Calibration()
    procs = []
    setup_cals = []
    for i in range(k):
        before = calibrate(PRE_SETUP_CAL_S)
        procs.append(run_worker(plan_path, "run", seconds / k, i))
        setup_cals.append((before + procs[-1]["setup_cal_s"]) / 2)
    raw = [t for p in procs for t in p["job_s"]]
    cals = [c for p in procs for c in p["cal_s"]]
    times = rescaled(raw, cals)
    raw_setup = [p["setup_s"] for p in procs]
    setups = rescaled(raw_setup, setup_cals)
    metrics = {
        "setup_s": median(setups),
        "job_s_p50": median(times),
        "jobs_per_s": len(times) / sum(times),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in procs),
    }
    notes = {
        "setup_s": f"median of {k} fresh interpreters: import flosim.cli + warm-up job",
        "job_s_p50": f"{len(times)} timed jobs from {k} interpreters, warm-ups excluded",
        "jobs_per_s": "jobs / summed job time; closed loop, one job in flight",
        "peak_rss_mb": "largest ru_maxrss of the measuring interpreters",
        "times": f"rescaled to a host where the calibration kernel takes "
                 f"{REFERENCE_CAL_S * 1e3:g} ms; raw wall times below",
    }
    extra = {
        "raw.setup_s": median(raw_setup),
        "raw.job_s_p50": median(raw),
        "raw.jobs_per_s": len(raw) / sum(raw),
        "host.cal_s_p50": median(cals),
    }
    if len(times) >= P90_MIN_JOBS:
        extra["job_s_p90"] = float(statistics.quantiles(times, n=10)[-1])
    else:
        extra["job_s_p90"] = f"not reported: {len(times)} jobs < {P90_MIN_JOBS}"
    samples = {"job_s": raw, "cal_s": cals, "setup_s": raw_setup, "setup_cal_s": setup_cals}
    return procs, metrics, notes, extra, samples


def per_layer(workload, plan_path, seconds):
    main = run_worker(plan_path, "trace", seconds)
    untraced = median(rescaled(main["untraced_job_s"], main["untraced_cal_s"]))
    traced = median(rescaled(main["traced_job_s"], main["traced_cal_s"]))
    layers = dict(main["layers"])
    layers["trace.job_s_p50_untraced"] = untraced
    layers["trace.job_s_p50_traced"] = traced
    layers["trace.overhead_s"] = traced - untraced
    metrics = {name: layers[name] for name, _ in tracing.PER_LAYER}
    notes = {
        "trace": f"{len(main['untraced_job_s'])} untraced jobs, then "
                 f"{len(main['traced_job_s'])} traced jobs in whole passes over the "
                 "input pool; layer values are per traced job",
        "times": f"rescaled to a host where the calibration kernel takes "
                 f"{REFERENCE_CAL_S * 1e3:g} ms",
    }
    samples = {k: main[k] for k in ("untraced_job_s", "untraced_cal_s",
                                    "traced_job_s", "traced_cal_s")}
    return [main], metrics, notes, {}, samples


def transcript_mismatches(procs):
    """Inputs whose transcript differs between interpreters."""
    seen = {}
    bad = set()
    for p in procs:
        for index, digest in p["transcripts"].items():
            if seen.setdefault(index, digest) != digest:
                bad.add(index)
    return sorted(bad)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "flosim", "cli.py")):
        print(f"no flosim sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    try:
        entries = workloads.generate(args.workload, args.seed, work)
        plan_path = os.path.join(work, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as handle:
            json.dump({
                "workload": args.workload,
                "src": SRC,
                "entries": entries,
                "spans_path": os.path.join(OUT, f"{tag}-spans.npz"),
            }, handle)
        run_worker(plan_path, "prime")
        measure = per_layer if args.trace else end_to_end
        procs, metrics, notes, extra, samples = measure(args.workload, plan_path, args.seconds)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p["attempted"] for p in procs)
    failed = sum(p["failed"] for p in procs)
    errors = [e for p in procs for e in p["errors"]]
    for index in transcript_mismatches(procs):
        failed += 1
        errors.append(f"input {index}: transcript differs between interpreters")
    correct = failed == 0

    units = dict(tracing.PER_LAYER) if args.trace else END_TO_END
    prov = provenance()
    print(f"# perfbench {tag} seconds={args.seconds:g}")
    print("# " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"# inputs: {workloads.SIZES[args.workload]}")
    for name, value in metrics.items():
        print(f"{name:52s} {value:.6g} {units[name]}")
    for name, value in extra.items():
        print(f"{name:52s} {value}")
    for name, note in notes.items():
        print(f"# {name}: {note}")
    print(f"# failed_frac = {failed}/{attempted} = {failed / attempted:.6g}")
    for err in errors:
        print(f"# error: {err}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": prov,
        "inputs": workloads.SIZES[args.workload],
        "metrics": metrics, "extra": extra, "notes": notes, "samples": samples,
        "attempted": attempted, "failed": failed, "errors": errors,
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
