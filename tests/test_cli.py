"""End-to-end checks for the command-line front end and circuit files."""

import argparse
import copy
import dataclasses
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flosim import circuits, cli, fock, linalg, multislater, slater
from flosim.bands import LatticeConfig, closed_form_w0, measure_origin
from flosim.circuits import (
    _matrix_from_json,
    _vector_from_json,
    load_circuit,
    pair_rotation,
    parse_circuit,
)
from flosim.errors import NotHermitian, NotUnitary, ParseError
from flosim.simulate import Rotate, sampled_steps, simulate_exact_branch

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "circuits").glob("*.json"))
EXAMPLE_IDS = [p.stem for p in EXAMPLES]
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
# Every measurement policy on a multi-term sum: a sampled parity step,
# then exact measure2 (grouping 012), exact and sampled measure1, and a
# forced 01/2 step.
POLICY_MIX = GOLDEN.parent / "policy_mix.json"
# Six rounds of a dense rotation and a sampled parity step on D=8, N=4,
# doubling the sum to 64 terms, then a sampled measure1 and a 012
# measure2 on it.
PARITY_DEEP = GOLDEN.parent / "parity_deep.json"
BANDS_101 = ["bands", "--sites", "101", "--electrons", "51"]
# The `analysis` commands: the filled-band origin measurement at the
# benchmark's size and at 15/7, and slater-rank on two-electron sums of
# four determinants (D = 8 and 12) and on the two-rotation study state.
ANALYSIS = {
    "bands_101_51_outcome0": BANDS_101 + ["--outcome", "0"],
    "bands_101_51_outcome1": BANDS_101 + ["--outcome", "1"],
    "bands_101_51_seed7": BANDS_101 + ["--seed", "7"],
    "bands_15_7": ["bands", "--sites", "15", "--electrons", "7"],
    "rank_d8": ["slater-rank", GOLDEN.parent / "rank_d8.json"],
    "rank_d12": ["slater-rank", GOLDEN.parent / "rank_d12.json"],
    "rank_angles": ["slater-rank", "--angles", "0.7", "0.4", "1.1", "--electrons", "4"],
}


def run_cli(argv, capsys):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def minimal_doc(steps, modes=4, electrons=2):
    return json.dumps({"modes": modes, "electrons": electrons, "steps": steps})


@pytest.mark.parametrize(
    ("argv", "name"),
    [(["simulate", p, "--seed", "7"], f"simulate_{p.stem}") for p in EXAMPLES]
    + [(["nogo", ROOT / "circuits" / "nogo_demo.json"], "nogo_nogo_demo")]
    + [(["simulate", POLICY_MIX, "--seed", "7"], "simulate_policy_mix")]
    + [(["simulate", PARITY_DEEP, "--seed", "7"], "simulate_parity_deep")]
    + [
        (["simulate", p, "--seed", "3", "--oracle-check"], f"oracle_{p.stem}")
        for p in EXAMPLES + [POLICY_MIX]
    ]
    + [(argv, name) for name, argv in ANALYSIS.items()],
    ids=[f"simulate-{i}" for i in EXAMPLE_IDS]
    + ["nogo-nogo_demo", "simulate-policy_mix", "simulate-parity_deep"]
    + [f"oracle-{i}" for i in EXAMPLE_IDS + ["policy_mix"]]
    + [name.replace("_", "-", 1) for name in ANALYSIS],
)
def test_golden_transcript(argv, name, capsys):
    """Transcripts stay byte-identical to the recorded ones.

    tests/data/golden holds the stdout of `flosim <argv>`; regenerate a
    file only for an intended change of the transcript format or numbers.
    The oracle_* files pin the oracle trailer lines, which print the
    dense oracle's probability deviation to three digits near 1e-16.
    The bands_* files pin every digit of the W-orbital profile, as the
    W kernel's one product rounds it, and of the closed form; the rank_*
    files the printed w, whose diagonal is exactly 0, and its Pfaffian.
    """
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    assert out.encode("utf-8") == (GOLDEN / f"{name}.txt").read_bytes()


class TestCircuitFormat:
    def test_examples_exist(self):
        assert len(EXAMPLES) == 4

    def test_shorthand_keeps_its_block_and_pair(self):
        """The shorthand parses to its 2x2 block on its pair of sites, in
        the order given; no D x D matrix is built."""
        circ = parse_circuit(
            minimal_doc(
                [{"kind": "rotate", "modes": [3, 1], "theta": 0.7, "phi": 0.3}]
            )
        )
        step = circ.steps[0]
        assert step.pair == (3, 1)
        u = step.resolve()
        assert u.tobytes() == pair_rotation(0.7, 0.3).tobytes()
        assert np.allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    def test_mode_index_becomes_basis_vector(self):
        circ = parse_circuit(
            minimal_doc([{"kind": "measure1", "mode": 2, "policy": "sample"}])
        )
        assert np.array_equal(circ.steps[0].kappa, np.eye(4)[2])

    def test_bare_reals_and_pairs_agree(self):
        as_pairs = parse_circuit(
            minimal_doc(
                [
                    {
                        "kind": "measure1",
                        "vector": [[0.6, 0], [0.8, 0], [0, 0], [0, 0]],
                        "policy": "sample",
                    }
                ]
            )
        )
        as_reals = parse_circuit(
            minimal_doc(
                [{"kind": "measure1", "vector": [0.6, 0.8, 0, 0], "policy": "sample"}]
            )
        )
        assert np.array_equal(as_pairs.steps[0].kappa, as_reals.steps[0].kappa)

    def test_vector_renormalization_warns(self):
        doc = minimal_doc(
            [{"kind": "measure1", "vector": [2, 0, 0, 0], "policy": "sample"}]
        )
        with pytest.warns(UserWarning, match="renormalizing"):
            circ = parse_circuit(doc)
        assert np.allclose(circ.steps[0].kappa, np.eye(4)[0], atol=1e-15)

    @pytest.mark.parametrize(
        "text",
        [
            "{ not json",
            '{"modes": 4, "steps": []}',
            '{"modes": 4, "electrons": 2, "steps": [], "extra": 1}',
            '{"modes": 4, "electrons": 5, "steps": []}',
            minimal_doc([{"kind": "warp"}]),
            minimal_doc([{"kind": "rotate"}]),
            minimal_doc([{"kind": "rotate", "unitary": [[1, 0], [0, 1]]}]),
            minimal_doc([{"kind": "rotate", "modes": [0, 0], "theta": 0.5}]),
            minimal_doc([{"kind": "rotate", "modes": [0, 9], "theta": 0.5}]),
            minimal_doc([{"kind": "measure1", "policy": "sample"}]),
            minimal_doc([{"kind": "measure1", "mode": 1, "vector": [1, 0, 0, 0]}]),
            minimal_doc([{"kind": "measure1", "mode": 1, "policy": "forced"}]),
            minimal_doc([{"kind": "measure1", "mode": 1, "outcome": 2}]),
            minimal_doc([{"kind": "measure1", "vector": [0, 0, 0, 0]}]),
            minimal_doc([{"kind": "measure1", "vector": [float("nan"), 0, 0, 0]}]),
            minimal_doc([{"kind": "measure2", "first": 0, "second": 1,
                          "grouping": "0|1|2"}]),
            minimal_doc([{"kind": "measure2", "first": 0, "second": 1,
                          "grouping": "01/2", "outcome": "0"}]),
        ],
    )
    def test_bad_documents_raise_single_line_parse_errors(self, text):
        with pytest.raises(ParseError) as err:
            parse_circuit(text)
        assert "\n" not in str(err.value)

    def test_json_error_reports_position(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_circuit("{ not json")


def reference_matrix_from_json(value, shape, where):
    """The per-entry walk that _matrix_from_json runs only on failure;
    kept as the reference for values and messages."""
    rows, cols = shape
    if not isinstance(value, list) or len(value) != rows:
        raise ParseError(f"{where}: expected {rows} rows")
    mat = np.zeros((rows, cols), dtype=complex)
    for i, row in enumerate(value):
        mat[i] = _vector_from_json(row, cols, f"{where}[{i}]")
    return mat


def parsed_or_error(parse, value, shape):
    try:
        mat = parse(value, shape, "m")
    except ParseError as exc:
        return str(exc)
    assert mat.dtype == complex and mat.shape == shape and mat.flags.c_contiguous
    return mat.tobytes()


JSON_ENTRY = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, 0.0, -0.0]),
)


class TestMatrixEntries:
    """Matrices parse as one float array; the per-entry walk runs only
    when that fails and names the first bad entry."""

    @staticmethod
    def unitary_error(rows):
        with pytest.raises(ParseError) as err:
            parse_circuit(minimal_doc([{"kind": "rotate", "unitary": rows}], 2, 1))
        return str(err.value)

    @pytest.mark.parametrize(
        ("rows", "message"),
        [
            ([[1, 0], [True, 1]], "[1][0]: expected a number or an [re, im] pair, got True"),
            ([[[1, 0], [0, 0]], [[0, 0], [False, 1]]],
             "[1][1]: expected a number or an [re, im] pair, got [False, 1]"),
            ([[1, 0], [0]], "[1]: expected a list of 2 entries"),
            ([[1, 0], [0, 1, 0]], "[1]: expected a list of 2 entries"),
            ([[1, 0], [0, float("nan")]], "[1]: non-finite entry"),
            ([[[1, 0], [0, float("inf")]], [[0, 0], [1, 0]]], "[0]: non-finite entry"),
            ([[1, [0, [1, 0]]], [0, 1]],
             "[0][1]: expected a number or an [re, im] pair, got [0, [1, 0]]"),
            ([[[1, 0, 0], [0, 0]], [[0, 0], [1, 0]]],
             "[0][0]: expected a number or an [re, im] pair, got [1, 0, 0]"),
            ([[1, 0]], ": expected 2 rows"),
            ([[1, 0], [0, 1], [0, 0]], ": expected 2 rows"),
            ([[1, "0"], [0, 1]], "[0][1]: expected a number or an [re, im] pair, got '0'"),
            ([[1, None], [0, 1]], "[0][1]: expected a number or an [re, im] pair, got None"),
            # the first bad entry wins: a type error before a NaN in its row
            ([[float("nan"), True], [0, 1]],
             "[0][1]: expected a number or an [re, im] pair, got True"),
            ([[float("nan"), 0], [True, 1]], "[0]: non-finite entry"),
            ([[1, 0], [0, 10**400]], "[1][1]: integer out of float range"),
            ([[[1, 0], [0, 0]], [[0, -(10**400)], [1, 0]]], "[1][0]: integer out of float range"),
        ],
        ids=["bool", "bool-in-pair", "short-row", "long-row", "nan", "inf-pair",
             "mixed-in-pair", "pair-length", "few-rows", "many-rows",
             "string", "null", "type-before-nan", "nan-before-later-row",
             "huge-int", "huge-int-in-pair"],
    )
    def test_errors_name_the_first_bad_entry(self, rows, message):
        assert self.unitary_error(rows) == f"step 0.unitary{message}"
        assert parsed_or_error(_matrix_from_json, rows, (2, 2)) == parsed_or_error(
            reference_matrix_from_json, rows, (2, 2)
        )

    @pytest.mark.parametrize("key", ["theta", "phi"])
    def test_an_angle_beyond_float_range_is_a_parse_error(self, key):
        step = {"kind": "rotate", "modes": [0, 1], "theta": 0.5, key: 10**400}
        with pytest.raises(ParseError, match=f"^step 0.{key}: integer out of float range$"):
            parse_circuit(minimal_doc([step]))

    def test_only_lists_are_rows(self):
        """np.array would read a tuple row; the walk names it."""
        with pytest.raises(ParseError, match=r"^m\[1\]: expected a list of 2 entries$"):
            _matrix_from_json([[1, 0], (0, 1)], (2, 2), "m")

    def test_rows_mixing_bare_and_pair_entries_parse(self):
        rows = [[1, [0.0, -1.5]], [[2, 3], -0.0]]
        mat = _matrix_from_json(rows, (2, 2), "m")
        assert mat.tobytes() == reference_matrix_from_json(rows, (2, 2), "m").tobytes()
        assert mat.tolist() == [[1, -1.5j], [2 + 3j, 0]]

    @settings(derandomize=True, database=None, deadline=None, max_examples=120)
    @given(data=st.data(), rows=st.integers(0, 5), cols=st.integers(0, 5),
           form=st.sampled_from(["bare", "pairs", "mixed"]))
    def test_values_match_the_entry_walk(self, data, rows, cols, form):
        def entry():
            if form == "bare" or (form == "mixed" and data.draw(st.booleans())):
                return data.draw(JSON_ENTRY)
            return [data.draw(JSON_ENTRY), data.draw(JSON_ENTRY)]

        value = json.loads(json.dumps([[entry() for _ in range(cols)] for _ in range(rows)]))
        assert parsed_or_error(_matrix_from_json, value, (rows, cols)) == (
            parsed_or_error(reference_matrix_from_json, value, (rows, cols))
        )


class TestSimulateCommand:
    def test_rotation_only_has_no_measurement_rows(self, capsys):
        code, out, err = run_cli(
            ["simulate", ROOT / "circuits" / "rotation_only.json", "--seed", "7"],
            capsys,
        )
        assert code == 0 and err == ""
        assert not [l for l in out.splitlines() if l.startswith("step=")]
        assert "# final terms = 1" in out

    def test_generic_measurement_doubles_terms(self, capsys):
        code, out, _ = run_cli(
            ["simulate", ROOT / "circuits" / "generic_p1.json", "--seed", "7"],
            capsys,
        )
        assert code == 0
        rows = [l for l in out.splitlines() if l.startswith("step=")]
        assert len(rows) == 1
        assert "outcome=1" in rows[0] and "terms=2" in rows[0]

    @pytest.mark.parametrize("path", EXAMPLES, ids=EXAMPLE_IDS)
    def test_seed_7_twice_is_byte_identical(self, path, capsys):
        first = run_cli(["simulate", path, "--seed", "7"], capsys)
        second = run_cli(["simulate", path, "--seed", "7"], capsys)
        assert first == second
        assert first[0] == 0

    def test_transcript_rows_are_greppable(self, capsys):
        _, out, _ = run_cli(
            ["simulate", ROOT / "circuits" / "parity_chain.json", "--seed", "7"],
            capsys,
        )
        pattern = re.compile(
            r"^step=\d+ kind=measure[12] outcome=\S+ "
            r"p=\d\.\d{12}e[+-]\d{2} cumulative=\d\.\d{12}e[+-]\d{2} terms=\d+$"
        )
        rows = [l for l in out.splitlines() if l.startswith("step=")]
        assert rows and all(pattern.match(l) for l in rows)
        assert "# seed = 7 rng = numpy-default-pcg64" in out

    @pytest.mark.parametrize("path", EXAMPLES, ids=EXAMPLE_IDS)
    def test_oracle_check_passes_on_examples(self, path, capsys):
        code, out, err = run_cli(
            ["simulate", path, "--seed", "3", "--oracle-check"], capsys
        )
        assert code == 0 and err == ""
        dev_line = [
            l for l in out.splitlines() if l.startswith("# oracle max probability")
        ]
        assert len(dev_line) == 1
        assert float(dev_line[0].rsplit("=", 1)[1]) <= 1e-8
        fid_line = [l for l in out.splitlines() if l.startswith("# oracle min fid")]
        assert float(fid_line[0].rsplit("=", 1)[1]) >= 1 - 1e-8

    def test_oracle_check_judges_the_run_without_rerunning_it(self, capsys):
        """--oracle-check makes exactly as many Slater-sum step calls as
        the plain run, counted through every flosim module's binding of
        them: the dense oracle judges the run's own steps."""
        names = ("evolve_sum", "measure_mode_sum", "measure_two_mode")

        def counted(real, calls):
            def call(*args, **kwargs):
                calls[real.__name__] += 1
                return real(*args, **kwargs)
            return call

        def step_calls(argv):
            calls = Counter()
            modules = [
                m for k, m in sys.modules.items() if k.startswith("flosim.") and m is not multislater
            ]
            with ExitStack() as stack:
                for module in modules:
                    for real in (getattr(multislater, name) for name in names):
                        if getattr(module, real.__name__, None) is real:
                            stack.enter_context(
                                mock.patch.object(module, real.__name__, counted(real, calls))
                            )
                code, _, _ = run_cli(argv, capsys)
            assert code == 0
            return calls

        argv = ["simulate", POLICY_MIX, "--seed", "7"]
        plain = step_calls(argv)
        assert set(plain) == set(names)
        assert step_calls(argv + ["--oracle-check"]) == plain

    def test_oracle_judge_reads_the_recorded_p_and_state(self):
        """The judge compares the run's own records with the dense vector:
        a recorded p shifted by 1e-3 shows as that deviation, and the last
        record carrying its predecessor's state as a low fidelity."""
        circuit = load_circuit(POLICY_MIX)
        records = list(sampled_steps(circuit.steps, circuit.modes, circuit.electrons, seed=7))
        dev, fid = cli._oracle_judge(circuit.steps, records)
        assert dev <= 1e-12 and fid >= 1 - 1e-12
        k = next(k for k, (_, _, row, _) in enumerate(records) if row is not None)
        idx, u, row, state = records[k]
        shifted = list(records)
        shifted[k] = (idx, u, dataclasses.replace(row, probability=row.probability + 1e-3), state)
        assert cli._oracle_judge(circuit.steps, shifted)[0] == pytest.approx(1e-3, rel=1e-9)
        stale = records[:-1] + [(*records[-1][:3], records[-2][3])]
        assert cli._oracle_judge(circuit.steps, stale)[1] < 0.5

    def test_oracle_judge_keeps_the_minimum_fidelity(self):
        """A middle record carrying its predecessor's state shows as the
        judge's fidelity though every later step matches: the judge keeps
        the least fidelity of all its steps, not the last step's."""
        circuit = load_circuit(POLICY_MIX)
        records = list(sampled_steps(circuit.steps, circuit.modes, circuit.electrons, seed=7))
        k = 4  # after step 3, the exact 012 measure2
        assert (records[k][0], records[k][2].outcome) == (3, "0")
        stale = records[:k] + [(*records[k][:3], records[k - 1][3])] + records[k + 1:]
        dev, fid = cli._oracle_judge(circuit.steps, stale)
        assert dev <= 1e-12 and fid < 0.5

    def test_oracle_judge_checks_no_mode(self, monkeypatch, capsys):
        """The run checks every measured mode at its step and ends before
        the judge starts, so the judge checks none again: check_mode and
        check_modes, counted through every flosim module's binding of
        them, are called by the run and never while _oracle_judge runs."""
        calls = Counter()
        judging = []
        reals = (slater.check_mode, slater.check_modes)

        def counted(real):
            def call(*args, **kwargs):
                calls[real.__name__, bool(judging)] += 1
                return real(*args, **kwargs)
            return call

        for name, module in list(sys.modules.items()):
            for real in reals:
                if name.startswith("flosim") and getattr(module, real.__name__, None) is real:
                    monkeypatch.setattr(module, real.__name__, counted(real))
        judge = cli._oracle_judge

        def watched(steps, records):
            judging.append(True)
            return judge(steps, records)

        monkeypatch.setattr(cli, "_oracle_judge", watched)
        code, _, err = run_cli(["simulate", POLICY_MIX, "--seed", "7", "--oracle-check"], capsys)
        assert (code, err) == (0, "")
        assert judging and calls["check_modes", False] > 0
        assert not [key for key in calls if key[1]]

    def _empty_mode_records(self):
        """A run's records on standard_state(4, 2) with its measure1 of the
        empty mode 3 rewritten to outcome 1 at p = 0.5: an outcome the
        dense vector gives p = 0."""
        circuit = parse_circuit(minimal_doc([{"kind": "measure1", "mode": 3}]))
        records = list(sampled_steps(circuit.steps, 4, 2, seed=1))
        idx, u, row, state = records[1]
        assert (row.outcome, row.probability) == ("0", 1.0)
        wrong = dataclasses.replace(row, outcome="1", probability=0.5, cumulative=0.5)
        return circuit, [records[0], (idx, u, wrong, state)]

    def test_oracle_judge_fails_an_outcome_of_dense_probability_0(self):
        circuit, records = self._empty_mode_records()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli._oracle_judge(circuit.steps, records) == (0.5, 0.0)

    def test_oracle_check_reports_an_outcome_of_dense_probability_0(self, tmp_path, capsys):
        """The transcript and both trailers print, then exit code 3 with
        one stderr line and no RuntimeWarning."""
        _, records = self._empty_mode_records()
        path = tmp_path / "empty_mode.json"
        path.write_text(minimal_doc([{"kind": "measure1", "mode": 3}]))
        with mock.patch.object(cli, "sampled_steps", lambda *a, **k: iter(records)), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["simulate", path, "--oracle-check"], capsys)
        assert code == 3
        assert out.splitlines()[-4:] == [
            "step=0 kind=measure1 outcome=1 p=5.000000000000e-01 "
            "cumulative=5.000000000000e-01 terms=1",
            "# final terms = 1",
            "# oracle max probability deviation = 5.000e-01",
            "# oracle min fidelity = 0.000000000000",
        ]
        assert err == "OracleCheckFailed: probability deviation 5.000e-01, fidelity 0.000000000000\n"

    def test_oracle_check_rejects_wide_circuits(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        path.write_text(minimal_doc([], modes=7, electrons=1))
        code, _, err = run_cli(["simulate", path, "--oracle-check"], capsys)
        assert code == 1
        assert err.startswith("BadConfig:")

    def test_oracle_cap_checked_before_simulating(self, tmp_path, capsys):
        """A 7-mode parity circuit that would hit the term cap of 1 is
        refused by the oracle's mode cap first, with nothing printed."""
        gen = (np.ones((7, 7)) + np.diag(np.arange(7.0))).tolist()
        steps = [
            {"kind": "rotate", "tau": 0.9, "generator": gen},
            {"kind": "measure2", "first": 0, "second": 1, "grouping": "02/1",
             "policy": "forced", "outcome": "02"},
        ]
        path = tmp_path / "wide_parity.json"
        path.write_text(minimal_doc(steps, modes=7, electrons=3))
        argv = ["simulate", path, "--oracle-check", "--max-terms", "1"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("BadConfig:") and err.count("\n") == 1
        code, _, err = run_cli(argv[:2] + argv[3:], capsys)
        assert code == 4 and err.startswith("TermCapExceeded:")

    def test_term_cap_exit_code(self, capsys):
        code, _, err = run_cli(
            [
                "simulate",
                ROOT / "circuits" / "parity_chain.json",
                "--max-terms",
                "4",
            ],
            capsys,
        )
        assert code == 4
        assert err.startswith("TermCapExceeded:")
        assert err.count("\n") == 1

    def test_non_unitary_rotation_of_a_sum_exit_code(self, tmp_path, capsys):
        """A two-term sum is rotated with one check of the matrix, which
        fails with the per-term message and exit code."""
        steps = [
            {"kind": "rotate", "modes": [0, 2], "theta": 0.7, "phi": 0.3},
            {"kind": "rotate", "modes": [1, 3], "theta": 0.5, "phi": 0.2},
            {"kind": "measure2", "first": 0, "second": 1, "grouping": "02/1",
             "policy": "forced", "outcome": "1"},
            {"kind": "rotate", "unitary": np.diag([1.001, 1, 1, 1]).tolist()},
        ]
        path = tmp_path / "non_unitary.json"
        path.write_text(minimal_doc(steps))
        code, out, err = run_cli(["simulate", path, "--seed", "1"], capsys)
        assert code == 1
        assert err == "NotUnitary: deviation from unitarity 2.001e-03\n"

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        code, _, err = run_cli(["simulate", path], capsys)
        assert code == 1
        assert err.startswith("ParseError:")
        assert err.count("\n") == 1


class TestNogoCommand:
    def test_single_determinant_throughout(self, capsys):
        code, out, err = run_cli(
            ["nogo", ROOT / "circuits" / "nogo_demo.json"], capsys
        )
        assert code == 0 and err == ""
        rows = [l for l in out.splitlines() if l.startswith("step=")]
        assert rows
        assert all("terms=1" in l for l in rows)
        assert any(l.startswith("# trajectory probability =") for l in out.splitlines())

    def test_runs_are_identical(self, capsys):
        first = run_cli(["nogo", ROOT / "circuits" / "nogo_demo.json"], capsys)
        second = run_cli(["nogo", ROOT / "circuits" / "nogo_demo.json"], capsys)
        assert first == second

    def test_parity_grouping_rejected(self, capsys):
        code, _, err = run_cli(
            ["nogo", ROOT / "circuits" / "parity_chain.json"], capsys
        )
        assert code == 2
        assert err.startswith("ParityGroupingUnsupported:")
        assert "parity" in err
        assert err.count("\n") == 1

    def test_only_a_sampled_run_imports_numpy_random(self):
        """sampled_steps makes its generator only for a circuit with a
        sampled step: a nogo run, in a fresh process, leaves numpy.random
        unimported, while a sampled simulate run imports it and prints
        its golden transcript unchanged."""
        script = ("import sys; from flosim.cli import main; code = main(sys.argv[1:]); "
                  "print('numpy.random' in sys.modules, file=sys.stderr); sys.exit(code)")
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        runs = [(["nogo", ROOT / "circuits" / "nogo_demo.json"], "nogo_nogo_demo", b"False"),
                (["simulate", POLICY_MIX, "--seed", "7"], "simulate_policy_mix", b"True")]
        for argv, name, loaded in runs:
            run = subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                                 capture_output=True, env=env, check=False)
            assert (run.returncode, run.stderr.strip()) == (0, loaded)
            assert run.stdout == (GOLDEN / f"{name}.txt").read_bytes()

    def test_no_run_imports_numpy_ma(self):
        """numpy.ma's first import takes 9-18 ms on a 2-core Xeon, and
        np.unique makes one: an oracle-checked simulate, a nogo, a bands
        and a slater-rank run, in one fresh process, leave it unimported
        and print their golden transcripts."""
        script = ("import json, sys; from flosim.cli import main; "
                  "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
                  "print(codes, 'numpy.ma' in sys.modules, file=sys.stderr)")
        demo = ROOT / "circuits" / "nogo_demo.json"
        runs = [(["simulate", demo, "--seed", "3", "--oracle-check"], "oracle_nogo_demo"),
                (["nogo", demo], "nogo_nogo_demo"),
                (ANALYSIS["bands_15_7"], "bands_15_7"),
                (ANALYSIS["rank_d8"], "rank_d8")]
        argvs = json.dumps([[str(a) for a in argv] for argv, _ in runs])
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        run = subprocess.run([sys.executable, "-c", script, argvs],
                             capture_output=True, env=env, check=True)
        assert run.stderr.strip() == b"[0, 0, 0, 0] False"
        assert run.stdout == b"".join((GOLDEN / f"{name}.txt").read_bytes() for _, name in runs)


# Rotations that fail their step's unitarity check: the shorthand with a
# NaN or infinite theta (cos and sin give a NaN block) and a finite
# unitary-form rotation that is not unitary.
BAD_ROTATIONS = {
    "theta-nan": ({"kind": "rotate", "modes": [0, 2], "theta": float("nan")},
                  "deviation from unitarity nan"),
    "theta-inf": ({"kind": "rotate", "modes": [3, 1], "theta": float("inf"), "phi": 0.2},
                  "deviation from unitarity nan"),
    "unitary": ({"kind": "rotate", "unitary": (2 * np.eye(4)).tolist()},
                "deviation from unitarity 6.000e+00"),
}
COMMANDS = (["nogo"], ["simulate", "--seed", "3"], ["simulate", "--seed", "3", "--oracle-check"])
# Generator rotations whose exp(-i b tau) comes out NaN: a NaN or an
# infinite tau, and a Hermitian generator whose 1e308 entry overflows in
# (b + b^H) / 2.
NAN_GENERATORS = {
    "tau-nan": {"kind": "rotate", "generator": np.eye(4).tolist(), "tau": float("nan")},
    "tau-inf": {"kind": "rotate", "generator": np.eye(4).tolist(), "tau": float("inf")},
    "overflow": {"kind": "rotate", "generator": np.diag([1e308, 1.0, 0.0, 0.0]).tolist(),
                 "tau": 0.4},
}


class TestRotationChecks:
    """A rotation's unitary is checked once, by its own step, in both
    executors: the shorthand's 2x2 block, a unitary-form rotation whole.
    A failing one exits 1 with one NotUnitary line, and an earlier step's
    error still wins; the oracle judge reuses the run's check."""

    @staticmethod
    def run(tmp_path, capsys, steps, command):
        path = tmp_path / "circuit.json"
        path.write_text(minimal_doc(steps))
        return run_cli([command[0], path, *command[1:]], capsys)

    @pytest.mark.parametrize("command", COMMANDS, ids=["nogo", "simulate", "oracle"])
    @pytest.mark.parametrize("kind", list(BAD_ROTATIONS))
    def test_fails_at_its_own_step(self, kind, command, tmp_path, capsys):
        bad, message = BAD_ROTATIONS[kind]
        steps = [{"kind": "measure1", "mode": 0}, bad, {"kind": "measure1", "mode": 1}]
        assert self.run(tmp_path, capsys, steps, command) == (1, "", f"NotUnitary: {message}\n")
        circuit = parse_circuit(minimal_doc(steps))
        seen = []
        with pytest.raises(NotUnitary, match=f"^{re.escape(message)}$"):
            for idx, *_ in sampled_steps(circuit.steps, 4, 2, seed=3):
                seen.append(idx)
        assert seen == [None, 0]
        simulate_exact_branch(circuit.steps[:1], 4, 2)
        with pytest.raises(NotUnitary, match=f"^{re.escape(message)}$"):
            simulate_exact_branch(circuit.steps[:2], 4, 2)

    @pytest.mark.parametrize("command", COMMANDS, ids=["nogo", "simulate", "oracle"])
    @pytest.mark.parametrize("kind", list(NAN_GENERATORS))
    def test_nan_generator_unitary_fails_in_one_line(self, kind, command, tmp_path, capsys):
        """An infinite tau or an overflowing generator entry fails as a NaN
        tau does: exit 1 and one NotUnitary line, with no RuntimeWarning
        printed before it."""
        steps = [{"kind": "measure1", "mode": 0}, NAN_GENERATORS[kind]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = self.run(tmp_path, capsys, steps, command)
        assert got == (1, "", "NotUnitary: deviation from unitarity nan\n")
        assert caught == []

    @pytest.mark.parametrize("command", COMMANDS, ids=["nogo", "simulate", "oracle"])
    @pytest.mark.parametrize(
        "first,second",
        [("unitary", "theta-nan"), ("theta-nan", "unitary"),
         ("unitary", "theta-inf"), ("theta-inf", "unitary")],
    )
    def test_an_earlier_rotation_error_wins(self, first, second, command, tmp_path, capsys):
        steps = [BAD_ROTATIONS[first][0], BAD_ROTATIONS[second][0]]
        want = f"NotUnitary: {BAD_ROTATIONS[first][1]}\n"
        assert self.run(tmp_path, capsys, steps, command) == (1, "", want)

    @pytest.mark.parametrize("command", COMMANDS, ids=["nogo", "simulate", "oracle"])
    def test_an_earlier_impossible_outcome_wins(self, command, tmp_path, capsys):
        """Mode 3 of the standard state is empty: simulate fails the forced
        outcome 1 at step 0, while nogo steers past it to the rotation."""
        steps = [{"kind": "measure1", "mode": 3, "policy": "forced", "outcome": 1},
                 BAD_ROTATIONS["theta-nan"][0]]
        code, out, err = self.run(tmp_path, capsys, steps, command)
        assert (code, out, err.count("\n")) == (1, "", 1)
        if command[0] == "nogo":
            assert err == "NotUnitary: deviation from unitarity nan\n"
        else:
            assert err.startswith("ImpossibleOutcome: outcome 1 has probability")

    @pytest.mark.parametrize("seed", range(6))
    def test_oracle_judges_shorthand_rotations(self, seed, tmp_path, capsys):
        """At D = 6 a run of shorthand rotations, both site orders and
        phi != 0, with measure1, 012 and parity measure2 steps passes the
        judge, which embeds each recorded 2x2 block in the identity."""
        def rot(i, j, theta, phi):
            return {"kind": "rotate", "modes": [i, j], "theta": theta, "phi": phi}

        steps = [
            rot(0, 3, 0.7, 0.3), rot(4, 1, 1.1, -0.8), rot(2, 5, 0.4, 1.3),
            {"kind": "measure1", "mode": 3},
            rot(5, 0, 0.9, 0.6),
            {"kind": "measure2", "first": 1, "second": 4, "grouping": "012"},
            rot(3, 2, 1.3, -0.2), rot(1, 0, 0.5, 2.1),
            {"kind": "measure2", "first": 0, "second": 5, "grouping": "02/1"},
            rot(4, 5, 0.8, -1.4), rot(2, 1, 1.2, 0.9),
            {"kind": "measure2", "first": 2, "second": 3, "grouping": "02/1"},
            {"kind": "measure1", "mode": 0},
        ]
        path = tmp_path / "circuit.json"
        path.write_text(minimal_doc(steps, modes=6, electrons=3))
        code, out, err = run_cli(["simulate", path, "--seed", seed, "--oracle-check"], capsys)
        assert (code, err) == (0, "")
        trailer = out.splitlines()[-2:]
        assert float(trailer[0].rsplit(" = ", 1)[1]) <= 1e-13
        assert trailer[1] == "# oracle min fidelity = 1.000000000000"

    def test_each_unitary_is_checked_once_per_run(self, tmp_path, capsys, monkeypatch):
        """Under --oracle-check the run's evolve_sum checks each rotation,
        the shorthand on its block alone, and the judge checks none again."""
        rng = np.random.default_rng(153)
        u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        steps = [
            {"kind": "rotate", "modes": [3, 1], "theta": 0.7, "phi": 0.3},
            {"kind": "rotate", "unitary": [[[z.real, z.imag] for z in row] for row in u]},
            {"kind": "rotate", "generator": np.diag([0.5, 1.0, -0.2, 0.0]).tolist(), "tau": 0.4},
            {"kind": "measure1", "mode": 1},
        ]
        calls = []
        real = slater.check_unitary
        for module in (slater, multislater, fock):
            monkeypatch.setattr(
                module, "check_unitary",
                lambda v, d, pair=None: calls.append(pair) or real(v, d, pair),
            )
        code, out, _ = self.run(tmp_path, capsys, steps, COMMANDS[2])
        assert code == 0 and "# oracle min fidelity = 1.0" in out
        assert calls == [(3, 1), None, None]


class TestGeneratorChecks:
    """A file's generator is checked for Hermiticity when it loads: a
    non-Hermitian one is a ParseError naming its step, at the tolerance
    and with the measure that one_body_unitary applies to an API-built
    Rotate at its step."""

    @staticmethod
    def generator(asymmetry):
        b = np.zeros((4, 4))
        b[0, 1], b[1, 0] = 1.0 + asymmetry, 1.0
        return b

    def steps(self, asymmetry):
        return [{"kind": "measure1", "mode": 0},
                {"kind": "rotate", "generator": self.generator(asymmetry).tolist(), "tau": 0.3}]

    @pytest.mark.parametrize("command", COMMANDS, ids=["nogo", "simulate", "oracle"])
    def test_non_hermitian_generator_fails_at_load(self, command, tmp_path, capsys):
        path = tmp_path / "circuit.json"
        b = np.zeros((4, 4))
        b[0, 1] = 1.0
        path.write_text(minimal_doc([{"kind": "measure1", "mode": 0},
                                     {"kind": "rotate", "generator": b.tolist(), "tau": 0.3}]))
        want = ("ParseError: step 1.generator: deviation from Hermiticity 1.414e+00 "
                "exceeds 1.0e-10\n")
        assert run_cli([command[0], path, *command[1:]], capsys) == (1, "", want)

    @pytest.mark.parametrize("command", COMMANDS, ids=["nogo", "simulate", "oracle"])
    def test_each_generator_is_measured_once_per_run(self, command, tmp_path, capsys,
                                                     monkeypatch):
        """The loader measures each generator's Hermiticity, and nothing
        after it does: hermitian_fault, counted through every flosim
        module's binding, is called once per generator of the file."""
        rng = np.random.default_rng(154)
        steps = []
        for _ in range(3):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            b = (m + m.conj().T) / 2
            steps += [{"kind": "rotate", "generator": [[[z.real, z.imag] for z in row] for row in b],
                       "tau": 0.4},
                      {"kind": "measure1", "mode": 1}]
        real = linalg.hermitian_fault
        calls = []
        for name, module in list(sys.modules.items()):
            if name.startswith("flosim") and getattr(module, "hermitian_fault", None) is real:
                monkeypatch.setattr(module, "hermitian_fault",
                                    lambda a: calls.append(a.shape) or real(a))
        path = tmp_path / "circuit.json"
        path.write_text(minimal_doc(steps))
        code, _, err = run_cli([command[0], path, *command[1:]], capsys)
        assert (code, err) == (0, "")
        assert calls == [(4, 4)] * 3

    def test_the_tolerance_is_one_body_unitarys(self):
        """An entry 0.5e-10 off its mirror (a deviation of 7.1e-11) loads
        and runs, 2e-10 off (2.8e-10) fails at load, and an API-built
        Rotate of it fails at its own step, NotHermitian."""
        circuit = parse_circuit(minimal_doc(self.steps(0.5e-10)))
        assert len(list(sampled_steps(circuit.steps, 4, 2, seed=1))) == 3
        with pytest.raises(ParseError, match=r"^step 1\.generator: deviation from Hermiticity "
                           r"2\.828e-10 exceeds 1\.0e-10$"):
            parse_circuit(minimal_doc(self.steps(2e-10)))
        steps = [*parse_circuit(minimal_doc(self.steps(0.0))).steps[:1],
                 Rotate(generator=self.generator(2e-10), tau=0.3)]
        seen = []
        with pytest.raises(NotHermitian, match="^deviation from Hermiticity 2.828e-10 exceeds"):
            for idx, *_ in sampled_steps(steps, 4, 2, seed=1):
                seen.append(idx)
        assert seen == [None, 0]


class TestBandsCommand:
    def test_csv_shape_and_content(self, tmp_path, capsys):
        out_path = tmp_path / "bands.csv"
        code, _, err = run_cli(
            [
                "bands", "--sites", "15", "--electrons", "7",
                "--outcome", "1", "--out", out_path,
            ],
            capsys,
        )
        assert code == 0 and err == ""
        raw = out_path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("utf-8").splitlines()
        comments = [l for l in lines if l.startswith("#")]
        data = [l for l in lines if not l.startswith("#")]
        assert "# probability = 0.4666666666666667" in comments
        assert "# outcome = 1" in comments
        header = "x,density_before,density_after,orbital_re,orbital_im,closed_form"
        assert data[0] == header
        assert len(data) == 16
        assert all(len(l.split(",")) == 6 for l in data[1:])
        xs = [int(l.split(",")[0]) for l in data[1:]]
        assert xs == list(range(-7, 8))

    def test_outcome_one_pins_origin(self, tmp_path, capsys):
        out_path = tmp_path / "bands.csv"
        run_cli(
            [
                "bands", "--sites", "15", "--electrons", "7",
                "--outcome", "1", "--out", out_path,
            ],
            capsys,
        )
        rows = {
            int(l.split(",")[0]): l.split(",")
            for l in out_path.read_text().splitlines()
            if not l.startswith("#") and not l.startswith("x,")
        }
        origin = rows[0]
        assert abs(float(origin[2]) - 1.0) <= 1e-10
        assert abs(float(origin[1]) - 7 / 15) <= 1e-12

    def test_outcome_zero_empties_origin(self, capsys):
        code, out, _ = run_cli(
            ["bands", "--sites", "15", "--electrons", "7", "--outcome", "0"], capsys
        )
        assert code == 0
        assert "# probability = 0.5333333333333333" in out
        rows = {
            int(l.split(",")[0]): l.split(",")
            for l in out.splitlines()
            if l and not l.startswith("#") and not l.startswith("x,")
        }
        origin = rows[0]
        magnitude = abs(complex(float(origin[3]), float(origin[4])))
        assert magnitude <= 1e-12

    def test_sampled_outcome_is_deterministic(self, capsys):
        argv = ["bands", "--sites", "9", "--electrons", "3", "--seed", "5"]
        first = run_cli(argv, capsys)
        second = run_cli(argv, capsys)
        assert first == second
        assert first[0] == 0
        outcome_line = [
            l for l in first[1].splitlines() if l.startswith("# outcome =")
        ]
        assert outcome_line[0].rsplit("=", 1)[1].strip() in ("0", "1")

    def test_bad_lattice_exit_code(self, capsys):
        code, _, err = run_cli(
            ["bands", "--sites", "14", "--electrons", "7"], capsys
        )
        assert code == 1
        assert err.startswith("BadConfig:")

    @pytest.mark.parametrize("sites, electrons", [(101, 51), (15, 7)])
    @pytest.mark.parametrize("outcome", [0, 1])
    def test_rows_match_the_per_row_formatter(self, sites, electrons, outcome, capsys):
        """The CSV rows, formatted from whole columns, are the bytes of
        the per-cell formatter over the same profile."""
        cfg = LatticeConfig(sites, electrons)
        profile = measure_origin(cfg, outcome)[2]
        closed = closed_form_w0(cfg, profile.x)
        want = []
        for r in range(sites):
            orb = profile.first_orbital[r]
            cells = [str(int(profile.x[r])), repr(float(profile.density_before[r])),
                     repr(float(profile.density_after[r])), repr(float(orb.real)),
                     repr(float(orb.imag)), repr(float(closed[r]))]
            want.append(",".join(cells))
        argv = ["bands", "--sites", sites, "--electrons", electrons, "--outcome", outcome]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[-sites:] == want


# The orbitals of two determinants on disjoint pairs of 4 modes.
DISJOINT = ([[1, 0], [0, 1], [0, 0], [0, 0]], [[0, 0], [0, 0], [1, 0], [0, 1]])


class TestSlaterRankCommand:
    def _value(self, out, key):
        line = [l for l in out.splitlines() if l.startswith(key + " = ")]
        assert len(line) == 1
        return line[0].split(" = ", 1)[1]

    def test_peak_angles_report_unit_closed_form(self, capsys):
        code, out, err = run_cli(
            ["slater-rank", "--angles", "0", "1.5707963", "0.7853982"], capsys
        )
        assert code == 0 and err == ""
        assert abs(float(self._value(out, "closed form")) - 1.0) <= 1e-6
        assert int(self._value(out, "Slater number")) <= 1

    def test_degenerate_angles_stay_single(self, capsys):
        code, out, _ = run_cli(["slater-rank", "--angles", "0", "0", "0"], capsys)
        assert code == 0
        assert int(self._value(out, "Slater number")) <= 1

    def test_generic_angles_reach_two(self, capsys):
        code, out, _ = run_cli(
            ["slater-rank", "--angles", "0.9", "0.8", "0.6"], capsys
        )
        assert code == 0
        assert int(self._value(out, "Slater number")) == 2
        assert float(self._value(out, "closed form")) > 0.1
        assert out.startswith("w =")

    def test_single_determinant_file(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(
            json.dumps(
                {
                    "modes": 4,
                    "electrons": 2,
                    "orbitals": [[1, 0], [0, 1], [0, 0], [0, 0]],
                }
            )
        )
        code, out, err = run_cli(["slater-rank", path], capsys)
        assert code == 0 and err == ""
        assert int(self._value(out, "Slater number")) == 1
        assert self._value(out, "closed form") == "n/a"

    def test_two_term_file_reaches_two(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(
            json.dumps(
                {
                    "modes": 4,
                    "electrons": 2,
                    "terms": [
                        {
                            "coefficient": [0.8, 0],
                            "orbitals": [[1, 0], [0, 1], [0, 0], [0, 0]],
                        },
                        {
                            "coefficient": [0, 0.6],
                            "orbitals": [[0, 0], [0, 0], [1, 0], [0, 1]],
                        },
                    ],
                }
            )
        )
        code, out, _ = run_cli(["slater-rank", path], capsys)
        assert code == 0
        assert int(self._value(out, "Slater number")) == 2

    def test_odd_mode_file_skips_pfaffian(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(
            json.dumps(
                {
                    "modes": 3,
                    "electrons": 2,
                    "orbitals": [[1, 0], [0, 1], [0, 0]],
                }
            )
        )
        code, out, _ = run_cli(["slater-rank", path], capsys)
        assert code == 0
        assert self._value(out, "Pfaffian") == "n/a (odd mode count)"
        assert int(self._value(out, "Slater number")) == 1

    @pytest.mark.parametrize("angle", ["inf", "nan", "1e400"])
    def test_non_finite_angle_is_a_usage_error(self, angle, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["slater-rank", "--angles", "0.1", angle, "0.2"])
        assert exc.value.code == 2
        shown = "inf" if angle == "1e400" else angle
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            f"error: argument --angles: must be finite, got {shown}"
        )

    def test_negative_infinite_angle_is_a_usage_error(self, capsys):
        """-inf reaches the angle type like inf, which refuses it."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["slater-rank", "--angles", "0.1", "0.2", "-inf"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "error: argument --angles: must be finite, got -inf"
        )
        with pytest.raises(argparse.ArgumentTypeError, match="must be finite, got -inf"):
            cli._finite_float("-inf")

    @pytest.mark.parametrize(
        ("written", "plain"),
        [(["-1e-3", "0.2", "0.3"], ["-0.001", "0.2", "0.3"]),
         (["0.7", "-4E-1", "-1.1e0"], ["0.7", "-0.4", "-1.1"])],
    )
    def test_negative_angles_with_an_exponent_run(self, written, plain, capsys):
        """argparse takes only plain negative numbers such as -0.001 for
        values; an angle written with an exponent means the same."""
        got = run_cli(["slater-rank", "--angles", *written, "--electrons", "4"], capsys)
        want = run_cli(["slater-rank", "--angles", *plain, "--electrons", "4"], capsys)
        assert got == want and got[0] == 0 and got[2] == ""

    @pytest.mark.parametrize("word", ["-abc", "-x1"])
    def test_negative_non_numbers_stay_a_usage_error(self, word, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["slater-rank", "--angles", word, "0.2", "0.3"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "error: argument --angles: expected 3 arguments"
        )

    def test_finite_and_abc_angles_keep_their_meaning(self, capsys):
        code, out, _ = run_cli(["slater-rank", "--angles", "0.9", "0.8", "0.6"], capsys)
        assert code == 0 and out.endswith("Slater number = 2\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["slater-rank", "--angles", "abc", "0", "0"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "error: argument --angles: invalid float value: 'abc'"
        )

    def test_requires_exactly_one_input(self, tmp_path, capsys):
        code, _, err = run_cli(["slater-rank"], capsys)
        assert code == 1
        assert err.startswith("ParseError:")
        path = tmp_path / "state.json"
        path.write_text("{}")
        code, _, err = run_cli(
            ["slater-rank", path, "--angles", "0", "0", "0"], capsys
        )
        assert code == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_coefficient_exits_1(self, bad, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(
            json.dumps(
                {
                    "modes": 4,
                    "electrons": 2,
                    "terms": [
                        {
                            "coefficient": [bad, 0.0],
                            "orbitals": [[1, 0], [0, 1], [0, 0], [0, 0]],
                        },
                        {
                            "coefficient": [0.6, 0.0],
                            "orbitals": [[0, 0], [0, 0], [1, 0], [0, 1]],
                        },
                    ],
                }
            )
        )
        code, out, err = run_cli(["slater-rank", path], capsys)
        assert code == 1 and out == ""
        assert err.startswith("FlosimError: term 0: coefficient")
        assert err.count("\n") == 1

    def test_non_orthonormal_file_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(
            json.dumps(
                {
                    "modes": 4,
                    "electrons": 2,
                    "orbitals": [[1, 1], [0, 1], [0, 0], [0, 0]],
                }
            )
        )
        code, _, err = run_cli(["slater-rank", path], capsys)
        assert code == 1
        assert err.startswith("ParseError:")

    def test_overflowing_orbitals_file_is_a_parse_error(self, tmp_path, capsys):
        """Finite entries whose Gram product overflows fail the
        orthonormality check in one stderr line, with no RuntimeWarning."""
        path = tmp_path / "state.json"
        path.write_text(
            json.dumps({"modes": 3, "electrons": 2, "orbitals": [[[1e200, 1e200]] * 2] * 3})
        )
        code, out, err = run_cli(["slater-rank", path], capsys)
        assert (code, out) == (1, "")
        assert err == (
            "ParseError: orbitals: orbital columns not orthonormal, deviation nan\n"
        )


    @pytest.mark.parametrize("coefficients", [[1.0], [1.0, 2.0]], ids=["one", "two"])
    def test_overflowing_norm_keeps_the_state(self, coefficients, tmp_path, capsys):
        """Coefficients of 1e200 square past float range in the norm; the
        file still reads as the same state as with coefficients of 1."""
        orbitals = [[[1, 0], [0, 1], [0, 0], [0, 0]], [[0, 0], [0, 0], [1, 0], [0, 1]]]
        outs = []
        for scale in (1.0, 1e200):
            terms = [{"coefficient": c * scale, "orbitals": orb}
                     for c, orb in zip(coefficients, orbitals)]
            path = tmp_path / "state.json"
            path.write_text(json.dumps({"modes": 4, "electrons": 2, "terms": terms}))
            code, out, err = run_cli(["slater-rank", path], capsys)
            assert (code, err) == (0, "")
            outs.append(out)
        assert outs[1] == outs[0]
        assert int(self._value(outs[1], "Slater number")) == len(coefficients)

    @pytest.mark.parametrize(
        ("doc", "message"),
        [
            ({"terms": [{"coeficient": [0.5, 0], "orbitals": DISJOINT[0]}]},
             "terms[0]: unknown keys ['coeficient']"),
            ({"terms": [{"orbitals": DISJOINT[0]},
                        {"coefficient": 1, "orbitals": DISJOINT[1], "amplitude": 2}]},
             "terms[1]: unknown keys ['amplitude']"),
            ({"orbitals": DISJOINT[0], "amplitud": [0, 1]},
             "top level: unknown keys ['amplitud']"),
            ({"orbitals": DISJOINT[0], "terms": [{"orbitals": DISJOINT[1]}]},
             "state file takes 'orbitals' or 'terms', not both"),
            ({"amplitude": 0.5, "terms": [{"orbitals": DISJOINT[1]}]},
             "'amplitude' goes with 'orbitals'; a term takes 'coefficient'"),
        ],
        ids=["misspelled-coefficient", "term-amplitude", "top-level", "orbitals-and-terms",
             "amplitude-and-terms"],
    )
    def test_unknown_and_conflicting_keys_are_one_parse_error(
        self, doc, message, tmp_path, capsys
    ):
        """A key the format does not define is refused, not ignored: a
        misspelled coefficient read as 1 would analyse the wrong state."""
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"modes": 4, "electrons": 2, **doc}))
        assert run_cli(["slater-rank", path], capsys) == (1, "", f"ParseError: {message}\n")

    @pytest.mark.parametrize(
        ("first", "second", "message"),
        [
            (DISJOINT[0], [[1, 0], [0, 1], [0, 0]], "terms[1].orbitals: expected 4 rows"),
            ([[1, 1], [0, 1], [0, 0], [0, 0]], [[1, 0], [0, 1], [0, 0]],
             "terms[0].orbitals: orbital columns not orthonormal, deviation 1.732e+00"),
            (DISJOINT[0], [[1, 1], [0, 1], [0, 0], [0, 0]],
             "terms[1].orbitals: orbital columns not orthonormal, deviation 1.732e+00"),
            ([[1, 1], [0, 1], [0, 0], [0, 0]], [[2, 0], [0, 1], [0, 0], [0, 0]],
             "terms[0].orbitals: orbital columns not orthonormal, deviation 1.732e+00"),
        ],
        ids=["malformed-second", "bad-first-before-malformed", "bad-second", "both-bad"],
    )
    def test_first_failing_term_is_named(self, first, second, message, tmp_path, capsys):
        """The terms are checked as one stack, and the first failing term
        in file order names the error, whatever each one's fault."""
        path = tmp_path / "state.json"
        terms = [{"orbitals": first}, {"coefficient": [0, 1], "orbitals": second}]
        path.write_text(json.dumps({"modes": 4, "electrons": 2, "terms": terms}))
        assert run_cli(["slater-rank", path], capsys) == (1, "", f"ParseError: {message}\n")

    @pytest.mark.parametrize(
        ("dims", "message"),
        [
            ({"modes": True, "electrons": 1}, "modes: expected an integer, got True"),
            ({"modes": 4, "electrons": -1}, "electrons: -1 is below 0"),
            ({"modes": 2, "electrons": 3}, "electrons: 3 is above 2"),
            ({"modes": 4}, "missing top-level key 'electrons'"),
        ],
        ids=["bool-modes", "negative-electrons", "too-many-electrons", "missing"],
    )
    def test_bad_dimensions_are_one_parse_error(self, dims, message, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({**dims, "orbitals": [[1.0]]}))
        assert run_cli(["slater-rank", path], capsys) == (1, "", f"ParseError: {message}\n")


class TestInputBoundary:
    """Whatever the input, main ends in one stderr line and an exit code:
    an unreadable input file or --out path and an input too large to
    allocate exit 1, a negative --seed or a --max-terms below 1 is a
    usage error like --seed abc (exit 2)."""

    @staticmethod
    def _unreadable(kind, tmp_path):
        if kind == "missing":
            return tmp_path / "missing.json"
        if kind == "directory":
            return tmp_path
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"modes": 4, "note": "\xe9"}')
        return path

    @pytest.mark.parametrize("command", ["simulate", "nogo", "slater-rank"])
    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_unreadable_input_file(self, command, kind, tmp_path, capsys):
        path = self._unreadable(kind, tmp_path)
        code, out, err = run_cli([command, path], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"ParseError: cannot read {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "circuits/generic_p1.json", "--seed", "-1"],
            ["bands", "--sites", "5", "--electrons", "3", "--seed", "-2"],
        ],
    )
    def test_negative_seed_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.splitlines()[-1].endswith(
            f"error: argument --seed: must be non-negative, got {argv[-1]}"
        )

    def test_seed_zero_and_abc_keep_their_meaning(self, capsys):
        code, out, _ = run_cli(["bands", "--sites", "5", "--electrons", "3", "--seed", "0"], capsys)
        assert code == 0 and "# seed = 0 rng = numpy-default-pcg64\n" in out
        with pytest.raises(SystemExit) as exc:
            cli.main(["bands", "--sites", "5", "--electrons", "3", "--seed", "abc"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "error: argument --seed: invalid int value: 'abc'"
        )

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_term_cap_below_1_is_a_usage_error(self, cap, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "circuits/generic_p1.json", "--max-terms", cap])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            f"error: argument --max-terms: must be positive, got {cap}"
        )

    def test_term_cap_1_and_abc_keep_their_meaning(self, capsys):
        argv = ["simulate", ROOT / "circuits" / "generic_p1.json", "--max-terms"]
        code, _, err = run_cli(argv + ["1"], capsys)
        assert code == 4 and err == "TermCapExceeded: 2 terms exceed the cap of 1\n"
        with pytest.raises(SystemExit) as exc:
            cli.main([str(a) for a in argv] + ["abc"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "error: argument --max-terms: invalid int value: 'abc'"
        )

    @pytest.mark.parametrize("command", ["simulate", "nogo"])
    @pytest.mark.parametrize("grouping", ["012", "02/1"])
    def test_measure2_naming_one_site_twice_fails_at_load(self, command, grouping, tmp_path,
                                                          capsys):
        """A measure2 whose first and second are one site index is a
        ParseError naming its step, raised on load, before any step runs:
        so nogo on a parity step exits 1, not 2."""
        steps = [{"kind": "rotate", "modes": [0, 2], "theta": 0.7},
                 {"kind": "measure2", "first": 1, "second": 1, "grouping": grouping}]
        path = tmp_path / "circuit.json"
        path.write_text(minimal_doc(steps))
        want = "ParseError: step 1: 'first' and 'second' name the same site 1\n"
        assert run_cli([command, path], capsys) == (1, "", want)

    @pytest.mark.parametrize("argv", [["simulate"], ["nogo"], ["simulate", "--oracle-check"]],
                             ids=["simulate", "nogo", "oracle"])
    @pytest.mark.parametrize("value", [[0], {"a": 1}], ids=["list", "object"])
    @pytest.mark.parametrize(
        ("key", "step", "choices"),
        [("kind", {}, "['measure1', 'measure2', 'rotate']"),
         ("grouping", {"kind": "measure2", "first": 0, "second": 1},
          "['0/12', '01/2', '012', '02/1']")],
        ids=["kind", "grouping"],
    )
    def test_unhashable_kind_or_grouping_is_a_parse_error(self, argv, value, key, step, choices,
                                                          tmp_path, capsys):
        """A list or an object where a step's kind or grouping names one
        of a fixed set is a ParseError naming its step, not a crash."""
        path = tmp_path / "circuit.json"
        path.write_text(minimal_doc([{"kind": "rotate", "modes": [0, 2], "theta": 0.7},
                                     {**step, key: value}]))
        want = f"ParseError: step 1.{key}: expected one of {choices}, got {value!r}\n"
        assert run_cli([argv[0], path, *argv[1:]], capsys) == (1, "", want)

    @pytest.mark.parametrize("command", ["simulate", "nogo"])
    @pytest.mark.parametrize("second", [1, [0, 1, 0, 0]])
    def test_measure2_vectors_keep_the_run_time_check(self, command, second, tmp_path, capsys):
        """Where first or second is a vector, the run checks the pair."""
        steps = [{"kind": "measure2", "first": [0, 1, 0, 0], "second": second}]
        path = tmp_path / "circuit.json"
        path.write_text(minimal_doc(steps))
        want = "ModesNotOrthogonal: <kappa|lambda> = 1.000e+00\n"
        assert run_cli([command, path], capsys) == (1, "", want)

    @pytest.mark.parametrize("command", ["simulate", "nogo"])
    def test_renormalization_warning_is_one_line(self, command, tmp_path, capsys):
        """A vector of norm 2 prints one stderr line and no source line;
        stdout and the exit code are those of its unit vector."""
        step = {"kind": "measure1", "vector": [2, 0, 0, 0]}
        path, unit = tmp_path / "circuit.json", tmp_path / "unit.json"
        path.write_text(minimal_doc([step]))
        unit.write_text(minimal_doc([{**step, "vector": [1, 0, 0, 0]}]))
        code, out, err = run_cli([command, path], capsys)
        assert err == "warning: step 0.vector: renormalizing a vector of norm 2\n"
        assert (code, out, "") == run_cli([command, unit], capsys)

    def test_other_warnings_keep_their_filters(self, tmp_path, capsys, monkeypatch):
        """Only a UserWarning raised while loading is reformatted: another
        category reaches Python's display, and its error filter (tier 1
        turns RuntimeWarning into an error) still raises."""
        def warning_load(path):
            warnings.warn("a user warning")
            warnings.warn("a runtime warning", RuntimeWarning)
            return load_circuit(path)

        monkeypatch.setattr(cli, "load_circuit", warning_load)
        path = ROOT / "circuits" / "nogo_demo.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(["nogo", path], capsys)
        assert [(w.category, str(w.message)) for w in caught] == [
            (RuntimeWarning, "a runtime warning")]
        assert (code, err) == (0, "warning: a user warning\n")
        assert out.encode("utf-8") == (GOLDEN / "nogo_nogo_demo.txt").read_bytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="a runtime warning"):
                cli.main(["nogo", str(path)])
        assert capsys.readouterr().err == "warning: a user warning\n"

    @pytest.mark.parametrize("command", ["simulate", "nogo", "slater-rank"])
    def test_an_input_too_large_to_allocate_is_one_line(self, command, tmp_path, capsys):
        """10^7 electrons on 10^7 modes, or the study state's 10^7 + 2
        modes, take a first array of 1.4 PiB, past a 64-bit host's 128 TiB
        address space, so it fails at once: one MemoryError line, exit 1."""
        path = tmp_path / "huge.json"
        path.write_text(minimal_doc([], modes=10**7, electrons=10**7))
        argv = [command, path]
        if command == "slater-rank":
            argv = [command, "--angles", "0.3", "0.4", "0.5", "--electrons", 10**7]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("MemoryError: Unable to allocate ") and err.count("\n") == 1

    def test_unwritable_out_path(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(
            ["bands", "--sites", "5", "--electrons", "3", "--out", out_path], capsys
        )
        assert (code, out) == (1, "")
        assert err.startswith(f"FlosimError: cannot write {out_path}: ")
        assert err.count("\n") == 1


def _circuitgen():
    spec = importlib.util.spec_from_file_location("circuitgen", ROOT / "tools" / "circuitgen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


# The valid documents the fuzz mutates: the example circuits and
# tools/circuitgen.py circuits of seed 34, in both policy forms.
FUZZ_DOCUMENTS = [json.loads(p.read_text()) for p in EXAMPLES] + [
    _circuitgen().random_circuit(34, i, sample=i % 2 == 1) for i in range(8)
]
# Every key the file grammar names, circuit or state, and the odd values
# a node may take: none of the file's number ranges, and every name of a
# step kind, grouping or policy.
FUZZ_KEYS = sorted(set().union(circuits._TOP_KEYS, circuits._STATE_KEYS, circuits._TERM_KEYS,
                               *circuits._STEP_KEYS.values()))
FUZZ_VALUES = [
    None, True, False, math.inf, -math.inf, math.nan, 1e30, -1e30, -1, 0, 2, "", "x",
    *sorted(circuits._STEP_KEYS), "02/1", "0/12", "exact", "forced", [], [None], [0, 1],
    [[1, 0], [0, 1]], {}, {"kind": [1]},
]


def _node_paths(node, path=()):
    """The path of node and of every node below it, as keys and indices."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(
        node, list) else ()
    for key, child in items:
        yield from _node_paths(child, path + (key,))


@st.composite
def fuzzed_documents(draw):
    """A valid circuit document with 1 to 3 nodes set to an odd value,
    deleted, or given a key of the grammar.  Half the picks are among the
    nodes down to a step's values, which matrix entries would outnumber."""
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_DOCUMENTS)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_node_paths(doc))
        shallow = [path for path in paths if len(path) <= 3]
        path = draw(st.sampled_from(shallow) | st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]] if path else doc
        action = draw(st.sampled_from(["set", "delete", "add"]))
        value = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))  # shares no node
        if action == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(FUZZ_KEYS))] = value
        elif action == "delete" and path:
            del parent[path[-1]]
        elif path:
            parent[path[-1]] = value
    return doc


class TestBoundaryFuzz:
    """Mutated circuit documents through simulate, nogo and simulate
    --oracle-check, in process: each run exits 0 to 4 with at most one
    stderr line besides warning lines, and no traceback."""

    COMMANDS = (["simulate", "--seed", "3"], ["nogo"],
                ["simulate", "--seed", "3", "--oracle-check"])

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(fuzzed_documents())
    def test_every_mutated_document_ends_in_one_line_and_a_code(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "circuit.json"
            path.write_text(json.dumps(doc))
            for command in self.COMMANDS:
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main([command[0], str(path), *command[1:]])
                lines = [line for line in err.getvalue().splitlines()
                         if not line.startswith("warning: ")]
                assert code in range(5), (command, code, err.getvalue())
                assert len(lines) <= 1, (command, err.getvalue())
                assert "Traceback" not in err.getvalue() + out.getvalue()


class TestParser:
    """main reuses one parser per process; its help, usage errors and
    exit code 2 are those of a freshly built parser."""

    @staticmethod
    def exit_and_output(parse, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    def test_main_does_not_rebuild_the_parser(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        with mock.patch.object(
            argparse.ArgumentParser, "add_subparsers", side_effect=AssertionError
        ):
            code, out, _ = run_cli(["bands", "--sites", "3", "--electrons", "1"], capsys)
        assert code == 0 and out.startswith("# sites = 3 electrons = 1\n")

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["--help"],
            ["bands", "--help"],
            ["bands", "--sites", "5"],
            ["bands", "--sites", "5", "--electrons", "3", "--outcome", "2"],
            ["simulate"],
            ["warp"],
        ],
    )
    def test_help_and_usage_errors_match_a_fresh_parser(self, argv, capsys):
        fresh = cli.build_parser.__wrapped__()
        want = self.exit_and_output(fresh.parse_args, argv, capsys)
        for _ in range(2):
            assert self.exit_and_output(cli.main, argv, capsys) == want
        assert want[0] == (0 if "--help" in argv else 2)
