"""The dense oracle judges random circuits end to end.

tools/circuitgen.py's corpus circuits of seed 14, in their sample-policy
form (every measurement sampled, so no run ends on an impossible
outcome or a refused exact parity step), run through `simulate
--oracle-check` under two seeds.  Each has at most 6 modes.  Among them
are parity and merged groupings followed by more measurements, so the
judge checks probability passes over split-made sums, each of which
carries its norm from the measurement before.  The 120 runs take about 0.35 s on a 2-core Xeon; their budget
is 2 s.
"""

import importlib.util
import json
from pathlib import Path

from flosim import cli

ROOT = Path(__file__).resolve().parents[1]
SEED, COUNT = 14, 60
RUN_SEEDS = ("3", "7")
JUDGE_TOL = 1e-12
DEV = "# oracle max probability deviation = "
FID = "# oracle min fidelity = "


def _circuitgen():
    spec = importlib.util.spec_from_file_location("circuitgen", ROOT / "tools" / "circuitgen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _followed_groupings(doc):
    """The groupings of the measure2 steps that another measurement follows."""
    steps = doc["steps"]
    last = max((k for k, step in enumerate(steps) if step["kind"] != "rotate"), default=-1)
    return {step["grouping"] for k, step in enumerate(steps[:last]) if step["kind"] == "measure2"}


def test_sampled_random_circuits_pass_the_oracle_judge(tmp_path, capsys):
    gen = _circuitgen()
    paths = gen.write_circuits(SEED, COUNT, tmp_path, sample=True)
    docs = [json.loads(Path(path).read_text()) for path in paths]
    assert all(doc["modes"] <= 6 for doc in docs)
    assert all(step.get("policy", "sample") == "sample" and "outcome" not in step
               for doc in docs for step in doc["steps"])
    # The same circuits as the corpus's, policies apart.
    plain = gen.random_circuit(SEED, 3)
    assert [{k: v for k, v in step.items() if k not in ("policy", "outcome")}
            for step in plain["steps"]] == [{k: v for k, v in step.items() if k != "policy"}
                                           for step in docs[3]["steps"]]
    followed = set().union(*map(_followed_groupings, docs))
    assert {"02/1", "01/2", "0/12", "012"} <= followed
    most_terms = 0
    for path in paths:
        for seed in RUN_SEEDS:
            assert cli.main(["simulate", path, "--seed", seed, "--oracle-check"]) == 0
            out = capsys.readouterr().out.splitlines()
            dev = float(next(line for line in out if line.startswith(DEV))[len(DEV):])
            fid = float(next(line for line in out if line.startswith(FID))[len(FID):])
            assert dev <= JUDGE_TOL, (path, seed, dev)
            assert fid >= 1 - JUDGE_TOL, (path, seed, fid)
            terms = [int(line.rsplit("terms=", 1)[1]) for line in out if "terms=" in line]
            most_terms = max([most_terms, *terms])
    assert most_terms >= 4
