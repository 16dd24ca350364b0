"""The benchmark's traced run (perfbench/tracing.py) wraps flosim
functions that it looks up by module and name, so a refactor that
moves or renames one of them crashes `perfbench/run.py --trace 1`, and
one that routes work around them zeroes their counters.  This reads the
tracer's TARGETS without importing or changing it."""

import ast
import importlib
import importlib.util
import json
import os
import shutil
from pathlib import Path
from unittest import mock

import numpy as np

from flosim import cli, multislater, simulate
from flosim.circuits import load_circuit
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
    """tools/corpus.py lists its 458 runs and records each run's exit
    code, stdout and stderr under a source tree.  Two of them run here,
    under the working tree only: an oracle-checked run and one refused
    with exit code 1."""
    spec = importlib.util.spec_from_file_location("corpus", CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    argvs = corpus.invocations(tmp_path)
    assert len(argvs) == 458
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


def test_corpus_rank_states_print_the_slater_numbers_of_their_moduli(tmp_path, capsys):
    """The corpus's slater-rank state files: equal pair moduli all count,
    a zero pair and a modulus 5e-10 do not, one of 2e-9 does, and odd D
    prints no Pfaffian."""
    spec = importlib.util.spec_from_file_location("corpus", CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    want = {"repeated": 4, "zero-pair": 2, "odd": 3, "above": 2, "below": 1, "both": 3}
    paths = corpus.rank_states(tmp_path)
    assert len(paths) == 12
    for path in paths:
        assert cli.main(["slater-rank", path]) == 0
        out = capsys.readouterr().out
        name = Path(path).stem.rsplit("-", 1)[0]
        assert out.endswith(f"Slater number = {want[name]}\n")
        assert ("Pfaffian = n/a" in out) == (name == "odd")


# One-ulp mutations, each a line written before a return (the line that
# follows it here): simulate_exact_branch moves the real part of its
# final state's amplitude, fock's dense rotation moves the amplitude of
# the entry with every mode filled, 0 when N < D, to the smallest
# subnormal.  Neither moves a printed digit.  (One inside evolve_sum
# would reach the sampled run's judge, whose deviation line prints it.)
ULP_MUTATIONS = {
    "simulate.py": (
        "    final.amps = (complex(np.nextafter(final.amps[0].real, np.inf), final.amps[0].imag),)\n",
        "    return transcript, SlaterState._checked(final.orbitals[0], final.amps[0] * final.coeffs[0])\n",
    ),
    "fock.py": (
        "    out[-1] = np.nextafter(out[-1].real, np.inf)\n",
        "            out[basis] = _accumulate(out[basis], amps[basis[chunk]], _scaled(1.0, minors))\n"
        "    return FockVector._checked(d, out)\n",
    ),
}


def test_corpus_bit_mode_reports_a_one_ulp_change(tmp_path):
    """tools/corpus.py --bits compares digests of the runs' exact numbers:
    a tree with the ULP_MUTATIONS prints what this tree prints, but its
    nogo run's final state and its oracle judge's dense vectors differ."""
    spec = importlib.util.spec_from_file_location("corpus", CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    mutated = tmp_path / "src"
    shutil.copytree(ROOT / "src", mutated, ignore=shutil.ignore_patterns("__pycache__"))
    for name, (mutation, before) in ULP_MUTATIONS.items():
        path = mutated / "flosim" / name
        text = path.read_text(encoding="utf-8")
        assert text.count(before) == 1
        last = before.splitlines(keepends=True)[-1]
        path.write_text(text.replace(before, before.replace(last, mutation + last)), encoding="utf-8")
    runs = [["nogo", "circuits/nogo_demo.json"],
            ["simulate", "circuits/generic_p1.json", "--seed", "3", "--oracle-check"]]
    differing = corpus.compare(ROOT / "src", mutated, runs, bits=True)
    assert [argv for argv, _, _ in differing] == runs
    for _, base, head in differing:
        assert base[0] == 0 and base[:3] == head[:3] and base[3] != head[3]
        assert corpus.digits_only(base, head)


def test_corpus_classifies_a_run_that_differs_in_digits_only():
    """A run differs in digits only when its exit code is the same and
    its stdout and stderr match once every printed real is masked: a
    one-ulp change that moves the last printed digit of p and the
    oracle trailer is digits only; a changed outcome label, terms=
    count, exit code or message is not."""
    spec = importlib.util.spec_from_file_location("corpus", CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    row = "step=1 kind=measure2 outcome={} p={} cumulative=9.004742287683e-01 terms={}\n"
    trailer = "# oracle max probability deviation = {}\n# oracle min fidelity = 1.000000000000\n"
    base = [0, row.format("02", "9.004742287683e-01", 2) + trailer.format("4.441e-16"), ""]
    ulp = [0, row.format("02", "9.004742287684e-01", 2) + trailer.format("9.992e-16"), ""]
    assert corpus.digits_only(base, ulp)
    assert corpus.digits_only(base + ["digest a"], ulp + ["digest b"])
    for changed in (
        [0, row.format("1", "9.004742287683e-01", 2) + trailer.format("4.441e-16"), ""],
        [0, row.format("02", "9.004742287683e-01", 4) + trailer.format("4.441e-16"), ""],
        [1, base[1], ""],
        [0, base[1], "ImpossibleOutcome: outcome 1 has probability below 1e-12\n"],
    ):
        assert not corpus.digits_only(base, changed)
    noise = [1, "", "ImpossibleOutcome: outcome 1 has probability 7.582e-17\n"]
    assert corpus.digits_only(noise, [1, "", noise[2].replace("7.582e-17", "2.220e-16")])


def test_circuitgen_covers_every_step_form_and_parses(tmp_path):
    """tools/circuitgen.py's corpus circuits depend only on (seed, index),
    load as circuits, and reach every step kind, rotation form, mode
    form, grouping and policy, at N = 0, N = D and in between."""
    spec = importlib.util.spec_from_file_location("circuitgen", ROOT / "tools" / "circuitgen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    assert gen.POLICIES == simulate.POLICIES
    assert gen.LABELS == {
        name: tuple(multislater.group_label(g) for g in groups)
        for name, groups in multislater.GROUPINGS.items()
    }
    paths = gen.write_circuits(14, 60, tmp_path)
    assert gen.random_circuit(14, 59) == json.loads(Path(paths[-1]).read_text())
    seen = set()
    for path in paths:
        doc = json.loads(Path(path).read_text())
        circuit = load_circuit(path)
        assert (circuit.modes, circuit.electrons) == (doc["modes"], doc["electrons"])
        d, n = doc["modes"], doc["electrons"]
        seen.add(("fill", "0" if n == 0 else "D" if n == d else "some"))
        for step in doc["steps"]:
            keys = set(step) - {"kind", "policy", "outcome", "grouping", "tau", "theta", "phi"}
            for key in keys:
                seen.add((step["kind"], key, type(step[key]).__name__))
            seen.add(("policy", step.get("policy")))
            seen.add(("grouping", step.get("grouping")))
    wanted = {
        ("rotate", "modes", "list"), ("rotate", "unitary", "list"),
        ("rotate", "generator", "list"),
        ("measure1", "mode", "int"), ("measure1", "vector", "list"),
        ("measure2", "first", "int"), ("measure2", "first", "list"),
        *(("policy", p) for p in simulate.POLICIES),
        *(("grouping", g) for g in multislater.GROUPINGS),
        *(("fill", f) for f in ("0", "D", "some")),
    }
    assert wanted <= seen


def test_corpus_reports_each_trees_oracle_worst_case(monkeypatch, capsys):
    """Beside the differing runs, tools/corpus.py prints per tree the
    largest `oracle max probability deviation` and the smallest `oracle
    min fidelity` over its runs, so a re-record shows the judge's worst
    case; runs without the trailer do not count."""
    spec = importlib.util.spec_from_file_location("corpus", CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)

    def trailer(dev, fid):
        return f"# oracle max probability deviation = {dev}\n# oracle min fidelity = {fid}\n"

    trees = {
        "BASE": [[0, "x\n" + trailer("4.441e-16", "1.000000000000"), ""],
                 [1, "", "ImpossibleOutcome: outcome 1\n"],
                 [0, trailer("2.220e-15", "0.999999999998"), ""]],
        "HEAD": [[0, "x\n" + trailer("6.661e-16", "1.000000000000"), ""],
                 [1, "", "ImpossibleOutcome: outcome 1\n"],
                 [0, trailer("1.110e-15", "0.999999999999"), ""]],
    }
    assert corpus.accuracy(trees["BASE"]) == (2.22e-15, 0.999999999998, 2)
    assert corpus.accuracy([[0, "no trailer\n", ""]])[2] == 0
    argvs = [["simulate", "a.json"], ["simulate", "b.json"], ["nogo", "c.json"]]
    monkeypatch.setattr(corpus, "invocations", lambda pool_dir: argvs)
    monkeypatch.setattr(corpus, "run_tree", lambda src, runs, bits=False: trees[src])
    assert corpus.main(["BASE", "HEAD"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-3:] == [
        "base: over 2 oracle-checked runs, max probability deviation 2.220e-15, "
        "min fidelity 0.999999999998",
        "head: over 2 oracle-checked runs, max probability deviation 1.110e-15, "
        "min fidelity 0.999999999999",
        "2 of 3 runs differ: 2 digits only, 0 otherwise",
    ]
    # the fidelities 0.999999999998 and 0.999999999999 of c.json
    assert out[-4] == "largest digits-only difference 1.000e-12, in nogo c.json"
    trees["HEAD"][1] = [1, "", "ImpossibleOutcome: outcome 0\n"]
    assert corpus.main(["BASE", "HEAD"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["3 of 3 runs differ: 2 digits only, 1 otherwise",
                        "  otherwise: simulate b.json"]


def test_corpus_bit_mode_counts_unprinted_changes_as_bits_only(monkeypatch, capsys):
    """Under --bits, a run whose exit code, stdout and stderr match and
    whose digest alone differs counts as bits only, apart from a run
    whose printed digits moved and from one that differs otherwise."""
    spec = importlib.util.spec_from_file_location("corpus", CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    row = "step=1 kind=measure2 outcome=02 p={} cumulative=1.0 terms=2\n"
    same = [0, row.format("9.004742287683e-01"), "", "a"]
    trees = {
        "BASE": [same, same, same, same],
        "HEAD": [same, [0, same[1], "", "b"], [0, row.format("9.004742287684e-01"), "", "b"],
                 [1, same[1], "", "b"]],
    }
    argvs = [["nogo", f"{name}.json"] for name in "abcd"]
    monkeypatch.setattr(corpus, "invocations", lambda pool_dir: argvs)
    monkeypatch.setattr(corpus, "run_tree", lambda src, runs, bits=False: trees[src])
    assert corpus.main(["--bits", "BASE", "HEAD"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["3 of 4 runs differ: 1 digits only, 1 bits only, 1 otherwise",
                        "  otherwise: nogo d.json"]
    assert out[-5] == "largest digits-only difference 1.000e-13, in nogo c.json"


def test_corpus_reports_the_largest_digits_only_difference():
    """Over the runs that differ in digits only, tools/corpus.py finds
    the largest absolute difference between paired printed numbers and
    the run that shows it; a run that differs otherwise, or only in its
    digest, moves nothing."""
    spec = importlib.util.spec_from_file_location("corpus", CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    row = "step=1 kind=measure2 outcome=02 p={} cumulative={} terms=2\n"
    base = [0, row.format("9.004742287683e-01", "9.004742287683e-01"), "", "a"]
    differing = [
        (["simulate", "a.json"], base,
         [0, row.format("9.004742287684e-01", "9.004742287683e-01"), "", "b"]),
        (["simulate", "b.json"], base,
         [0, row.format("9.004742287683e-01", "9.004742287686e-01"), "", "b"]),
        (["nogo", "c.json"], base, [0, base[1], "", "b"]),
        (["simulate", "d.json"], base, [1, row.format("1.0", "1.0"), "", "b"]),
    ]
    largest, where = corpus.largest_digit_change(differing)
    assert where == ["simulate", "b.json"]
    assert abs(largest - 3e-13) < 1e-15
    assert corpus.largest_digit_change(differing[2:]) == (0.0, None)


def test_corpus_names_pool_runs_relative_to_the_root(tmp_path, monkeypatch, capsys):
    """tools/corpus.py writes its generated inputs under POOL_DIR, a path
    relative to the checkout's root, keeps them after it exits, and
    prints each differing run by those relative names, so the run
    re-runs from the root exactly as printed."""
    spec = importlib.util.spec_from_file_location("corpus", CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    assert not Path(corpus.POOL_DIR).is_absolute()
    pool = os.path.relpath(tmp_path / "pool", ROOT)
    monkeypatch.setattr(corpus, "POOL_DIR", pool)
    picked = ["simulate", f"{pool}/parity_sum/213/circuit-2.json", "--seed", "1896205"]

    def run_tree(src, argvs, bits=False):
        assert picked in argvs
        return [[0, "same\n", ""] if src == "BASE" or argv != picked else [0, "moved\n", ""]
                for argv in argvs]

    monkeypatch.setattr(corpus, "run_tree", run_tree)
    assert corpus.main(["BASE", "HEAD"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == " ".join(picked)
    assert out[-2:] == ["1 of 458 runs differ: 0 digits only, 1 otherwise",
                        "  otherwise: " + " ".join(picked)]
    monkeypatch.chdir(ROOT)
    assert cli.main(out[0].split()) == 0
    assert capsys.readouterr().out.count("kind=measure2") == 8


def test_every_tolerance_is_stated_in_the_errors_table():
    """Every float constant in src/flosim with 0 < |x| < 1e-5, a
    tolerance, floor or rounding allowance, is written in errors.py's
    table, so each value has one place and the modules read it there."""
    outside = []
    for path in sorted((ROOT / "src" / "flosim").glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, float) \
                    and 0 < abs(node.value) < 1e-5:
                outside.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert outside == []
