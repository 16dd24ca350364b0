"""Timing shims for the traced run.

A Tracer replaces each listed public flosim function, on every flosim
module namespace that binds it, with a wrapper that records one span
per call: name, start, end, parent span and job id, plus two work
counts taken from the arguments and the result.  Spans live in flat
arrays in memory and are written out once, when the run ends.  Nothing
under src/ is edited; restore() puts the original function objects
back.

Layer metrics are computed from the spans: self time is a span's
duration minus the durations of its direct child spans.
"""

import functools
import sys
import time
from array import array

import numpy as np

# (module, function) pairs wrapped in the traced run.
TARGETS = (
    ("linalg", "determinant"),
    ("linalg", "one_body_unitary"),
    ("linalg", "complement_basis"),
    ("linalg", "pfaffian"),
    ("linalg", "antisym_canonical"),
    ("slater", "slater_overlap"),
    ("slater", "evolve"),
    ("slater", "decompose_mode"),
    ("slater", "rotate_in_first"),
    ("slater", "measure_mode"),
    ("multislater", "sum_norm"),
    ("multislater", "apply_two_mode_projector"),
    ("multislater", "measure_two_mode"),
    ("multislater", "evolve_sum"),
    ("multislater", "measure_mode_sum"),
    ("multislater", "two_fermion_w"),
    ("multislater", "generic_p1_study"),
    ("fock", "expand"),
    ("fock", "expand_sum"),
    ("fock", "two_mode_projector_apply"),
    ("fock", "creation_op_apply"),
    ("fock", "annihilation_op_apply"),
    ("fock", "fidelity"),
    ("simulate", "simulate_sampled"),
    ("simulate", "simulate_exact_branch"),
    ("bands", "measure_origin"),
    ("bands", "w_orbital"),
    ("circuits", "load_circuit"),
    ("cli", "main"),
)

MODULES = ("linalg", "slater", "multislater", "fock", "simulate", "bands", "circuits", "cli")


def _calls_self(*names):
    return tuple((f"{n}.{stat}", unit) for n in names
                 for stat, unit in (("calls", "count/job"), ("self_s", "s/job")))


# Reported layer metrics and their units, in the order printed.  Every
# value is per traced job except the ratios and the trace.* job times.
PER_LAYER = (
    ("multislater.sum_norm.calls", "count/job"),
    ("multislater.sum_norm.self_s", "s/job"),
    ("multislater.sum_norm.incl_s", "s/job"),
    ("multislater.sum_norm.pairs", "count/job"),
    ("multislater.sum_norm.flops_computed", "flop/job"),
    ("multislater.sum_norm.job_share", "ratio"),
    *_calls_self("slater.slater_overlap", "linalg.determinant",
                 "multislater.apply_two_mode_projector"),
    ("multislater.apply_two_mode_projector.terms_in", "count/job"),
    ("multislater.apply_two_mode_projector.terms_out", "count/job"),
    *_calls_self("multislater.measure_two_mode"),
    ("multislater.measure_two_mode.kept_frac", "ratio"),
    *_calls_self("multislater.evolve_sum"),
    ("multislater.evolve_sum.terms", "count/job"),
    *_calls_self("multislater.measure_mode_sum", "slater.evolve", "slater.decompose_mode",
                 "slater.rotate_in_first", "slater.measure_mode",
                 "linalg.one_body_unitary", "linalg.complement_basis",
                 "circuits.load_circuit", "fock.expand", "fock.expand_sum",
                 "fock.two_mode_projector_apply", "fock.creation_op_apply",
                 "fock.annihilation_op_apply", "fock.fidelity",
                 "bands.measure_origin", "bands.w_orbital",
                 "linalg.pfaffian", "linalg.antisym_canonical",
                 "multislater.two_fermion_w", "multislater.generic_p1_study"),
    ("simulate.simulate_sampled.self_s", "s/job"),
    ("simulate.simulate_exact_branch.self_s", "s/job"),
    ("cli.main.self_s", "s/job"),
    *((f"{m}.raised", "count/job") for m in MODULES),
    ("trace.job_s_p50_untraced", "s"),
    ("trace.job_s_p50_traced", "s"),
    ("trace.overhead_s", "s"),
)


def _sum_norm_work(args, kwargs, result):
    """(pairs, computed flops) of one sum_norm call.

    Each of the T^2 pairs forms an N x N Gram matrix from D-long columns
    (D N^2 complex multiply-adds) and takes its determinant by LU
    (N^3 / 3 of them); a complex multiply-add is 8 real flops.
    """
    s = args[0]
    t, d, n = s.term_count, s.modes, s.electrons
    pairs = t * t
    return pairs, pairs * (8.0 * d * n * n + 8.0 * n**3 / 3.0)


def _terms_in_out(args, kwargs, result):
    return args[0].term_count, result.term_count


def _measure_work(args, kwargs, result):
    return args[0].term_count, result[2].term_count


# Work counts recorded per span, by traced name.
WORK = {
    "multislater.sum_norm": _sum_norm_work,
    "multislater.apply_two_mode_projector": _terms_in_out,
    "multislater.evolve_sum": _terms_in_out,
    "multislater.measure_two_mode": _measure_work,
}


class Tracer:
    """Span recorder that wraps flosim functions while installed."""

    def __init__(self):
        self.names = [f"{m}.{f}" for m, f in TARGETS]
        self._name = array("h")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._job = array("i")
        self._work_a = array("d")
        self._work_b = array("d")
        self._stack = [-1]
        self.job = -1
        self.raised = {m: 0 for m in MODULES}
        self._patched = []

    def _wrap(self, fn, nid, module):
        work = WORK.get(self.names[nid])
        clock = time.perf_counter
        stack = self._stack
        names, starts, ends = self._name, self._start, self._end
        parents, jobs, work_a, work_b = self._parent, self._job, self._work_a, self._work_b
        raised = self.raised

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(self.job)
            work_a.append(0.0)
            work_b.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[sid] = clock()
                raised[module] += 1
                raise
            else:
                ends[sid] = clock()
                if work is not None:
                    work_a[sid], work_b[sid] = work(args, kwargs, result)
                return result
            finally:
                stack.pop()

        return wrapper

    def install(self):
        """Wrap every target on every loaded flosim module that binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if name == "flosim" or name.startswith("flosim.")]
        for nid, (module, func) in enumerate(TARGETS):
            original = getattr(sys.modules[f"flosim.{module}"], func)
            wrapper = self._wrap(original, nid, module)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def restore(self):
        """Put every original function object back."""
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def spans(self):
        """The recorded spans as numpy arrays, one entry per call.

        The arrays are views of the recording buffers; record no more
        spans while they are alive.
        """
        return {
            "name": np.frombuffer(self._name, dtype=np.int16),
            "start": np.frombuffer(self._start, dtype=np.float64),
            "end": np.frombuffer(self._end, dtype=np.float64),
            "parent": np.frombuffer(self._parent, dtype=np.int32),
            "job": np.frombuffer(self._job, dtype=np.int32),
            "work_a": np.frombuffer(self._work_a, dtype=np.float64),
            "work_b": np.frombuffer(self._work_b, dtype=np.float64),
        }

    def write(self, path):
        np.savez(path, names=np.array(self.names), **self.spans())


def layer_metrics(names, spans, raised, job_s, speed):
    """Per-job layer metrics from recorded spans.

    `job_s` holds the traced jobs' wall times, indexed by span job id;
    each span's time is multiplied by its job's `speed` factor, the same
    host-speed rescaling the job times get.  Counts and times are
    divided by the number of jobs.
    """
    jobs = len(job_s)
    speed = np.asarray(speed, dtype=float)
    k = len(names)
    name = spans["name"]
    dur = (spans["end"] - spans["start"]) * speed[spans["job"]]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_t = dur - child
    calls = np.bincount(name, minlength=k)
    self_s = np.bincount(name, weights=self_t, minlength=k)
    incl_s = np.bincount(name, weights=dur, minlength=k)
    work_a = np.bincount(name, weights=spans["work_a"], minlength=k)
    work_b = np.bincount(name, weights=spans["work_b"], minlength=k)
    idx = {n: i for i, n in enumerate(names)}

    out = {}
    for i, n in enumerate(names):
        out[f"{n}.calls"] = calls[i] / jobs
        out[f"{n}.self_s"] = self_s[i] / jobs
        out[f"{n}.incl_s"] = incl_s[i] / jobs
    sn = idx["multislater.sum_norm"]
    out["multislater.sum_norm.pairs"] = work_a[sn] / jobs
    out["multislater.sum_norm.flops_computed"] = work_b[sn] / jobs
    out["multislater.sum_norm.job_share"] = incl_s[sn] / float(np.dot(job_s, speed))
    ap = idx["multislater.apply_two_mode_projector"]
    out["multislater.apply_two_mode_projector.terms_in"] = work_a[ap] / jobs
    out["multislater.apply_two_mode_projector.terms_out"] = work_b[ap] / jobs
    out["multislater.evolve_sum.terms"] = work_a[idx["multislater.evolve_sum"]] / jobs
    # kept_frac: post-state terms over the terms the three projections
    # produced.  In measure_two_mode the projections are its
    # apply_two_mode_projector children and the post-state is its result.
    # The exact-branch rule (nogo) projects through the private
    # simulate._group_probabilities, so there the projections are children
    # of simulate_exact_branch, three per measure2 step, and each step
    # keeps the single determinant.
    mt = idx["multislater.measure_two_mode"]
    eb = idx["simulate.simulate_exact_branch"]
    parent_name = np.full(len(name), -1)
    parent_name[has_parent] = name[parent[has_parent]]
    projections = name == ap
    in_measure = projections & (parent_name == mt)
    in_exact = projections & (parent_name == eb)
    kept = work_b[mt] + in_exact.sum() / 3
    produced = spans["work_b"][in_measure | in_exact].sum()
    out["multislater.measure_two_mode.kept_frac"] = kept / produced if produced else 0.0
    for module, count in raised.items():
        out[f"{module}.raised"] = count / jobs
    return {key: float(value) for key, value in out.items()}
