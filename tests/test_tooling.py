"""The benchmark's traced run (perfbench/tracing.py) wraps flosim
functions that it looks up by module and name, so a refactor that
moves or renames one of them crashes `perfbench/run.py --trace 1`, and
one that routes work around them zeroes their counters.  This reads the
tracer's TARGETS without importing or changing it."""

import ast
import importlib
import importlib.util
from pathlib import Path
from unittest import mock

import numpy as np

from flosim import cli, simulate
from flosim.simulate import MeasureOne, MeasureTwo, simulate_sampled

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
CORPUS = ROOT / "tools" / "corpus.py"


def tracer_targets():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} assigns no TARGETS")


def test_every_traced_name_is_bound_in_its_module():
    targets = tracer_targets()
    assert targets
    missing = [
        f"flosim.{module}.{name}"
        for module, name in targets
        if not callable(getattr(importlib.import_module(f"flosim.{module}"), name, None))
    ]
    assert missing == []


def test_sampled_measurements_go_through_the_traced_names():
    """simulate_sampled's sampled and forced steps of both kinds call the
    names simulate binds, which the tracer wraps; a call straight into a
    private body would leave their counters at 0."""
    e = np.eye(4, dtype=complex)
    kap, lam = (e[:, 0] + e[:, 2]) / np.sqrt(2), (e[:, 1] - e[:, 3]) / np.sqrt(2)
    circuit = [
        MeasureOne(kap, policy="forced", outcome=1),
        MeasureOne(kap, policy="sample"),
        MeasureTwo(kap, lam, "012", policy="forced", outcome="1"),
        MeasureTwo(kap, lam, "012", policy="sample"),
    ]
    one = mock.Mock(wraps=simulate.measure_mode_sum)
    two = mock.Mock(wraps=simulate.measure_two_mode)
    with mock.patch.object(simulate, "measure_mode_sum", one), \
            mock.patch.object(simulate, "measure_two_mode", two):
        transcript, _ = simulate_sampled(circuit, 4, 2, seed=5)
    assert len(transcript.rows) == 4
    assert one.call_count == 2 and two.call_count == 2


def test_corpus_captures_each_run_as_the_cli_prints_it(tmp_path, monkeypatch, capsys):
    """tools/corpus.py lists its 266 runs and records each run's exit
    code, stdout and stderr under a source tree.  Two of them run here,
    under the working tree only: an oracle-checked run and one refused
    with exit code 1."""
    spec = importlib.util.spec_from_file_location("corpus", CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    argvs = corpus.invocations(tmp_path)
    assert len(argvs) == 266
    picked = [
        ["simulate", "circuits/generic_p1.json", "--seed", "3", "--oracle-check"],
        ["simulate", "tests/data/parity_deep.json", "--seed", "3", "--oracle-check"],
    ]
    assert all(argv in argvs for argv in picked)
    monkeypatch.chdir(ROOT)
    expected = []
    for argv in picked:
        code = cli.main(argv)
        expected.append([code, *capsys.readouterr()])
    assert [code for code, _, _ in expected] == [0, 1]
    assert corpus.run_tree(ROOT / "src", picked) == expected
