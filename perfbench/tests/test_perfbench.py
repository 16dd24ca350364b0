"""Tests of the benchmark itself: inputs, shims, checks, metric names.

    python3 -m pytest perfbench/tests -q
"""

import functools
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import flosim  # noqa: E402
import flosim.cli  # noqa: E402

# The same structure as workloads.SIZES at a size that runs in seconds.
TINY = {
    "parity_sum": {"modes": 6, "electrons": 3, "rounds": 3, "pool": 2},
    "single_det": {"modes": 8, "electrons": 4, "steps": 12, "pool": 2},
    "oracle_check": {"modes": 6, "electrons": 3, "pool": 3},
    "analysis": {"sites": 11, "electrons": 5, "state_modes": (4, 10),
                 "state_terms": 3, "angle_electrons": 2, "pool": 2},
}


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    """Tiny input sizes, and run records written under tmp_path."""
    for workload, size in TINY.items():
        monkeypatch.setitem(workloads.SIZES, workload, size)
    monkeypatch.setattr(run, "OUT", str(tmp_path / "out"))
    return tmp_path


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            out[name] = handle.read()
    return out


def _strip_paths(plan, directory):
    return json.loads(json.dumps(plan).replace(directory, "<dir>"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    a, b, c = (str(tmp_path / x) for x in "abc")
    plan_a = workloads.generate(workload, 5, a)
    plan_b = workloads.generate(workload, 5, b)
    workloads.generate(workload, 6, c)
    assert _files(a) == _files(b)
    assert _strip_paths(plan_a, a) == _strip_paths(plan_b, b)
    assert _files(a) != _files(c)


def _bindings():
    out = {}
    for name, mod in sys.modules.items():
        if name == "flosim" or name.startswith("flosim."):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(name, attr)] = value
    return out


def test_shims_wrap_every_binding_and_restore_originals():
    before = _bindings()
    originals = {
        "sum_norm": flosim.multislater.sum_norm,
        "slater_overlap": flosim.slater.slater_overlap,
    }
    tracer = tracing.Tracer()
    with tracer:
        for mod in (flosim.multislater, flosim.simulate, flosim.cli, flosim):
            assert mod.sum_norm is not originals["sum_norm"]
        for mod in (flosim.slater, flosim.multislater, flosim):
            assert mod.slater_overlap is not originals["slater_overlap"]
        tracer.job = 0
        state = flosim.SlaterSum.from_state(flosim.standard_state(4, 2))
        flosim.multislater.sum_norm(state)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    spans = tracer.spans()
    names = [tracer.names[i] for i in spans["name"]]
    assert names[0] == "multislater.sum_norm"
    assert "slater.slater_overlap" in names and "linalg.determinant" in names
    assert spans["parent"][0] == -1
    assert all(p >= 0 for p in spans["parent"][1:])
    assert (spans["end"] >= spans["start"]).all()
    layers = tracing.layer_metrics(tracer.names, spans, tracer.raised, [1.0], [1.0])
    assert layers["multislater.sum_norm.calls"] == 1
    assert layers["multislater.sum_norm.pairs"] == 1
    assert layers["multislater.sum_norm.self_s"] <= layers["multislater.sum_norm.incl_s"]


def test_shims_count_exceptions_and_still_restore():
    original = flosim.linalg.pfaffian
    tracer = tracing.Tracer()
    with pytest.raises(flosim.OddDimension):
        with tracer:
            flosim.linalg.pfaffian([[0.0]])
    assert flosim.linalg.pfaffian is original
    assert tracer.raised["linalg"] == 1


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_passes_its_checks(workload, trace, tiny, capsys):
    code = run.main(["--workload", workload, "--seed", "2", "--seconds", "1",
                     "--trace", str(trace)])
    result = _last_json(capsys.readouterr().out)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    tag = f"{workload}-seed2-trace{trace}"
    assert os.path.isfile(tiny / "out" / f"{tag}.json")
    if trace:
        assert os.path.isfile(tiny / "out" / f"{tag}-spans.npz")
    if trace and workload in ("single_det", "parity_sum"):
        kept = result["metrics"]["multislater.measure_two_mode.kept_frac"]["value"]
        assert 0.0 < kept <= 1.0


def _tiny_job(workload, directory):
    entries = workloads.generate(workload, 1, str(directory))
    results, _, _ = worker._run_job(flosim.cli, entries[0])
    return entries[0], results


def _tiny_parity_job(tmp_path):
    entries = workloads.generate("parity_sum", 1, str(tmp_path))
    results, _, _ = worker._run_job(flosim.cli, entries[0])
    loop = worker.JobLoop(
        flosim.cli, entries, functools.partial(workloads.check_job, "parity_sum"),
        lambda min_s=0.0: 0.002,
    )
    return loop, entries[0], results


def test_corrupted_transcript_counts_as_failed(tiny, tmp_path):
    loop, entry, results = _tiny_parity_job(tmp_path)
    loop.record(entry, results, "")
    assert (loop.attempted, loop.failed) == (1, 0)

    code, out = results[0]
    corrupted = [(code, out.replace("terms=4", "terms=5"))]
    assert out != corrupted[0][1]
    loop.record(entry, corrupted, "")
    assert (loop.attempted, loop.failed) == (2, 1)
    assert "does not double" in loop.errors[0]


def test_changed_but_valid_transcript_counts_as_failed(tiny, tmp_path):
    loop, entry, results = _tiny_parity_job(tmp_path)
    loop.record(entry, results, "")
    code, out = results[0]
    loop.record(entry, [(code, out + "\n")], "")
    assert (loop.attempted, loop.failed) == (2, 1)
    assert "differs" in loop.errors[0]


def test_nonzero_exit_counts_as_failed(tiny, tmp_path):
    _, entry, results = _tiny_parity_job(tmp_path)
    errors = workloads.check_job("parity_sum", entry, [(3, results[0][1])])
    assert errors == ["simulate: exit code 3"]


def test_single_det_check_catches_inconsistent_probability(tiny, tmp_path):
    entry, results = _tiny_job("single_det", tmp_path)
    assert workloads.check_job("single_det", entry, results) == []
    code, out = results[0]
    lines = out.splitlines()
    k = next(i for i, ln in enumerate(lines) if ln.startswith("# trajectory probability"))
    lines[k] = "# trajectory probability = 5.000000000000e-01"
    errors = workloads.check_job("single_det", entry, [(code, "\n".join(lines))])
    assert any("trajectory probability" in e for e in errors)


def test_slater_rank_check_needs_pfaffian_for_even_dimension(tiny, tmp_path):
    entry, results = _tiny_job("analysis", tmp_path)
    assert workloads.check_job("analysis", entry, results) == []
    code, out = results[1]
    assert "|Pf| = " in out
    dropped = "\n".join(ln for ln in out.splitlines() if not ln.startswith("|Pf|"))
    errors = workloads.check_job("analysis", entry, [results[0], (code, dropped), *results[2:]])
    assert any("no |Pf| line" in e for e in errors)


def test_benchmark_json_matches_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WHY[w["name"]] for w in spec["workloads"])
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_missing_sources_exit_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    code = run.main(["--workload", "analysis", "--seed", "1", "--seconds", "1"])
    captured = capsys.readouterr()
    assert code != 0
    assert captured.out == ""
