"""End-to-end checks for the command-line front end and circuit files."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import rng_for

from flosim import cli
from flosim.circuits import (
    load_circuit,
    pair_rotation,
    parse_circuit,
    serialize_circuit,
)
from flosim.errors import ParseError
from flosim.simulate import MeasureOne, MeasureTwo, Rotate

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
    ],
    ids=[f"simulate-{i}" for i in EXAMPLE_IDS]
    + ["nogo-nogo_demo", "simulate-policy_mix", "simulate-parity_deep"]
    + [f"oracle-{i}" for i in EXAMPLE_IDS + ["policy_mix"]],
)
def test_golden_transcript(argv, name, capsys):
    """Transcripts stay byte-identical to the recorded ones.

    tests/data/golden holds the stdout of `flosim <argv>`; regenerate a
    file only for an intended change of the transcript format or numbers.
    The oracle_* files pin the oracle trailer lines, which print the
    dense oracle's probability deviation to three digits near 1e-16.
    """
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    assert out.encode("utf-8") == (GOLDEN / f"{name}.txt").read_bytes()


class TestCircuitFormat:
    def test_examples_exist(self):
        assert len(EXAMPLES) == 4

    @pytest.mark.parametrize("path", EXAMPLES, ids=EXAMPLE_IDS)
    def test_round_trip(self, path):
        first = load_circuit(path)
        second = parse_circuit(serialize_circuit(first))
        assert second.modes == first.modes
        assert second.electrons == first.electrons
        assert len(second.steps) == len(first.steps)
        for a, b in zip(first.steps, second.steps):
            assert type(a) is type(b)
            if isinstance(a, Rotate):
                assert np.allclose(a.resolve(), b.resolve(), atol=1e-12)
            elif isinstance(a, MeasureOne):
                assert np.allclose(a.kappa, b.kappa, atol=1e-12)
                assert (a.policy, a.outcome) == (b.policy, b.outcome)
            else:
                assert np.allclose(a.kappa, b.kappa, atol=1e-12)
                assert np.allclose(a.lam, b.lam, atol=1e-12)
                assert (a.grouping, a.policy, a.outcome) == (
                    b.grouping,
                    b.policy,
                    b.outcome,
                )

    def test_round_trip_is_exact_for_random_entries(self):
        rng = rng_for(170)
        vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        vec = vec / np.linalg.norm(vec)
        doc = minimal_doc(
            [
                {
                    "kind": "measure1",
                    "vector": [[z.real, z.imag] for z in vec],
                    "policy": "sample",
                }
            ]
        )
        first = parse_circuit(doc)
        second = parse_circuit(serialize_circuit(first))
        assert np.array_equal(first.steps[0].kappa, second.steps[0].kappa)

    def test_shorthand_expands_to_embedded_block(self):
        circ = parse_circuit(
            minimal_doc(
                [{"kind": "rotate", "modes": [1, 3], "theta": 0.7, "phi": 0.3}]
            )
        )
        u = circ.steps[0].resolve()
        expected = np.eye(4, dtype=complex)
        expected[np.ix_([1, 3], [1, 3])] = pair_rotation(0.7, 0.3)
        assert np.allclose(u, expected, atol=1e-15)
        assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)

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
