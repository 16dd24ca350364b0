"""One benchmark process: set up flosim, run jobs in a closed loop.

    python3 worker.py PLAN.json MODE SECONDS START

MODE is one of
  prime  import flosim.cli once, so compiled bytecode exists;
  run    setup, then untraced jobs for SECONDS;
  trace  setup, untraced jobs for SECONDS/2, then whole traced passes
         over the input pool for at least SECONDS/2.
Setup is the import plus one warm-up job on pool entry START; the loop
continues with the next entries, cycling through the pool.

Jobs call flosim.cli.main(argv) in this process with stdout captured:
one job in flight, the next starts when the previous returns.  Only the
CLI calls are timed; correctness checks run between jobs.  After setup
and after every job a fixed numpy kernel that does not touch flosim is
timed too, so the caller can rescale each time by the host's speed at
that moment.  The result is one JSON object on stdout.

Nothing but the standard library is imported before the setup clock
starts, so setup_s covers importing flosim.cli (numpy included) and the
warm-up job.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import resource
import sys
import time

MAX_ERRORS = 5
# Times are rescaled to a host on which the calibration kernel takes
# this long: a time t measured while the kernel took c reads t * REF / c.
REFERENCE_CAL_S = 0.002
# After a job the kernel repeats for this share of the job's time, so a
# long job's speed estimate is not one 2 ms glimpse.
CAL_SHARE = 0.01


class Calibration:
    """A fixed numpy kernel, timed to track the host's current speed.

    Small complex matrix products and determinants under Python call
    overhead, the mix flosim's own kernels spend their time in.  It
    never calls flosim, so a change to flosim cannot change it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.det = np.linalg.det
        self.mats = [rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
                     for _ in range(8)]

    def __call__(self, min_s=0.0):
        """Mean time of one kernel pass, repeating passes for at least min_s."""
        t0 = time.perf_counter()
        passes = 0
        while True:
            for _ in range(25):
                for m in self.mats:
                    self.det(m.conj().T @ m)
            passes += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= min_s:
                return elapsed / passes


def _run_job(cli, entry):
    """Run one job's invocations; returns ([(code, stdout)], seconds, stderr)."""
    results = []
    stderr = []
    t0 = time.perf_counter()
    for argv in entry["argv"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # an uncaught error is a failed job
                code = 1
                err.write(f"{type(exc).__name__}: {exc}\n")
        results.append((code, out.getvalue()))
        stderr.append(err.getvalue())
    return results, time.perf_counter() - t0, "".join(stderr)


class JobLoop:
    """Runs jobs, checks each one and tallies failures.

    check(entry, results) returns a job's error strings; calibrate(min_s)
    times the calibration kernel.
    """

    def __init__(self, cli, entries, check, calibrate):
        self.cli = cli
        self.entries = entries
        self.check = check
        self.calibrate = calibrate
        self.last_cal = calibrate()
        self.cal_s = []
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, entry, results, stderr):
        errors = self.check(entry, results)
        transcript = "\x00".join(out for _, out in results)
        first = self.reference.setdefault(entry["index"], transcript)
        if transcript != first:
            errors.append("transcript differs from an earlier run of the same input")
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS:
                detail = f" (stderr: {stderr.strip()[:200]})" if stderr.strip() else ""
                self.errors.append(f"input {entry['index']}: {'; '.join(errors)}{detail}")

    def job(self, index):
        """Run, calibrate and check one job; returns its wall time.

        The job's calibration time, the mean of the kernel timed just
        before and just after it, is appended to cal_s.
        """
        entry = self.entries[index % len(self.entries)]
        results, seconds, stderr = _run_job(self.cli, entry)
        cal = self.calibrate(CAL_SHARE * seconds)
        self.cal_s.append((self.last_cal + cal) / 2)
        self.last_cal = cal
        self.record(entry, results, stderr)
        return seconds

    def for_seconds(self, seconds, start):
        """Closed loop until `seconds` of wall time pass; returns job times."""
        times = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            times.append(self.job(start + len(times)))
        return times

    def digests(self):
        """sha256 of each input's transcript, for comparing across processes."""
        return {i: hashlib.sha256(t.encode()).hexdigest() for i, t in self.reference.items()}

    def whole_passes(self, seconds, tracer):
        """Whole traced passes over the pool until `seconds` pass (at least one)."""
        times = []
        deadline = time.perf_counter() + seconds
        while not times or time.perf_counter() < deadline:
            for i in range(len(self.entries)):
                tracer.job = len(times)
                times.append(self.job(i))
        return times


def main(argv):
    plan_path, mode, seconds, start = argv
    seconds, start = float(seconds), int(start)
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    src = plan["src"]
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import flosim.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"flosim imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 1
    if mode == "prime":
        print(json.dumps({}))
        return 0
    warm_entry = plan["entries"][start % len(plan["entries"])]
    warm_results, _, warm_err = _run_job(cli, warm_entry)
    setup_s = time.perf_counter() - t0

    import workloads

    calibrate = Calibration()
    setup_cal = calibrate(CAL_SHARE * setup_s)
    check = functools.partial(workloads.check_job, plan["workload"])
    loop = JobLoop(cli, plan["entries"], check, calibrate)
    loop.record(warm_entry, warm_results, warm_err)
    out = {"setup_s": setup_s, "setup_cal_s": setup_cal}
    if mode == "run":
        out["job_s"] = loop.for_seconds(seconds, start + 1)
        out["cal_s"] = loop.cal_s
    elif mode == "trace":
        import tracing

        out["untraced_job_s"] = loop.for_seconds(seconds / 2, start + 1)
        out["untraced_cal_s"] = loop.cal_s
        loop.cal_s = []
        tracer = tracing.Tracer()
        with tracer:
            times = loop.whole_passes(seconds / 2, tracer)
        tracer.write(plan["spans_path"])
        out["traced_job_s"] = times
        out["traced_cal_s"] = loop.cal_s
        out["layers"] = tracing.layer_metrics(
            tracer.names, tracer.spans(), tracer.raised, times,
            [REFERENCE_CAL_S / c for c in loop.cal_s],
        )
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 1
    out.update(
        transcripts=loop.digests(),
        attempted=loop.attempted,
        failed=loop.failed,
        errors=loop.errors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
