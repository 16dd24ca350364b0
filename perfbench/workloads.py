"""Seeded input generators and per-job correctness checks.

Each workload turns a benchmark seed into a pool of input files (circuit
JSON or two-electron state JSON) and a list of jobs.  A job is a list of
`flosim` invocations, each an argv list; the program sees only these
files and the per-job --seed derived from the benchmark seed.  Jobs
cycle through the pool, so every input repeats and its transcript can
be compared byte for byte with the first one.

The checks read the transcripts the CLI printed and return a list of
error strings; an empty list means the job passed.
"""

import json
import os
import re

import numpy as np

WORKLOADS = ("parity_sum", "single_det", "oracle_check", "analysis")

# One-line rationale per workload; BENCHMARK.json carries the same text.
WHY = {
    "parity_sum": "parity measurements double T to 256, so sum_norm pairwise overlaps dominate: the paper's breakdown regime",
    "single_det": "T stays 1 at D=64: per-step determinant kernels, per-call validation and circuit parsing do the work",
    "oracle_check": "the only workload where the dense fock oracle runs; multislater sums stay small",
    "analysis": "the only workload reaching bands, the Pfaffian (both branches) and antisym_canonical",
}

# Input shapes measured by the benchmark.
SIZES = {
    "parity_sum": {"modes": 12, "electrons": 6, "rounds": 8, "pool": 3},
    "single_det": {"modes": 64, "electrons": 32, "steps": 50, "pool": 8},
    "oracle_check": {"modes": 6, "electrons": 3, "pool": 24},
    "analysis": {"sites": 101, "electrons": 51, "state_modes": (8, 12),
                 "state_terms": 6, "angle_electrons": 4, "pool": 4},
}

ORACLE_TOL = 1e-8
PROB_SLACK = 1e-10  # printed probabilities may round a hair above 1
CUMULATIVE_RTOL = 1e-9  # cumulative vs product of the 13-digit printed p values
PF_DET_RTOL = 1e-6  # w is printed with 10 significant digits
RANK_TOL = 1e-6

_ROW = re.compile(
    r"^step=(\d+) kind=(\w+) outcome=(\d+) p=(\S+) cumulative=(\S+) terms=(\d+)$"
)


def cli_seed(seed, index):
    """Per-job --seed passed to the CLI for pool entry `index`."""
    return (seed * 7919 + index * 104729) % (2**31 - 1)


def _cj(z):
    return [float(z.real), float(z.imag)]


def _matrix_json(m):
    return [[_cj(z) for z in row] for row in m]


def _hermitian(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / 2


def _dense_rotation(rng, d):
    return {"kind": "rotate", "generator": _matrix_json(_hermitian(rng, d)),
            "tau": float(rng.uniform(0.5, 1.5))}


def _pair(rng, d):
    i, j = rng.choice(d, size=2, replace=False)
    return int(i), int(j)


def _measure2(rng, d, grouping):
    i, j = _pair(rng, d)
    return {"kind": "measure2", "first": i, "second": j,
            "grouping": grouping, "policy": "sample"}


def _parity_circuit(rng, size):
    d = size["modes"]
    steps = []
    for _ in range(size["rounds"]):
        steps.append(_dense_rotation(rng, d))
        steps.append(_measure2(rng, d, "02/1"))
    return {"modes": d, "electrons": size["electrons"], "steps": steps}


def _single_det_circuit(rng, size):
    """One dense rotation, then shorthand rotations and measurements.

    The three kinds, and the three groupings among the measure2 steps,
    come in equal shares in a random order, so every circuit of a size
    costs about the same.  Groupings exclude parity, so the exact-branch
    rule always has a determinant-preserving branch and T stays 1.
    """
    d = size["modes"]
    rest = size["steps"] - 1
    kinds = [("rotate", "measure1", "measure2")[k % 3] for k in range(rest)]
    groupings = [("012", "01/2", "0/12")[k % 3] for k in range(kinds.count("measure2"))]
    rng.shuffle(kinds)
    rng.shuffle(groupings)
    steps = [_dense_rotation(rng, d)]
    for kind in kinds:
        if kind == "rotate":
            i, j = _pair(rng, d)
            steps.append({"kind": "rotate", "modes": [i, j],
                          "theta": float(rng.uniform(0.2, 1.3)),
                          "phi": float(rng.uniform(0.0, 6.2))})
        elif kind == "measure1":
            steps.append({"kind": "measure1", "mode": int(rng.integers(d)),
                          "policy": "sample"})
        else:
            steps.append(_measure2(rng, d, groupings.pop()))
    return {"modes": d, "electrons": size["electrons"], "steps": steps}


# oracle_check's measure2 groupings: parity plus two of the other three,
# one triple per pool entry in turn, so all four groupings appear.  Each
# grouping is forced to its multi-term outcome, so every triple fixes
# the term count (12, 12 or 18 at the end) and a pool of a multiple of
# three inputs costs the same whatever the seed.
ORACLE_TRIPLES = (("012", "02/1", "01/2"), ("0/12", "02/1", "012"),
                  ("01/2", "02/1", "0/12"))
ORACLE_OUTCOME = {"012": "1", "01/2": "01", "0/12": "12", "02/1": "1"}


def _oracle_circuit(rng, size, index):
    """Four dense rotations, one measure1, three measure2 over all groupings."""
    d = size["modes"]
    forced = []
    for grouping in ORACLE_TRIPLES[index % len(ORACLE_TRIPLES)]:
        step = _measure2(rng, d, grouping)
        step.update(policy="forced", outcome=ORACLE_OUTCOME[grouping])
        forced.append(step)
    steps = [
        _dense_rotation(rng, d),
        forced[0],
        _dense_rotation(rng, d),
        {"kind": "measure1", "mode": int(rng.integers(d)), "policy": "sample"},
        _dense_rotation(rng, d),
        forced[1],
        _dense_rotation(rng, d),
        forced[2],
    ]
    return {"modes": d, "electrons": size["electrons"], "steps": steps}


def _two_electron_state(rng, d, terms):
    out = []
    for _ in range(terms):
        a = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
        q, _ = np.linalg.qr(a)
        coeff = complex(rng.standard_normal() + 1j * rng.standard_normal())
        out.append({"coefficient": _cj(coeff), "orbitals": _matrix_json(q)})
    return {"modes": d, "electrons": 2, "terms": out}


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def generate(workload, seed, outdir):
    """Write the input pool for one workload and return its job plan.

    The plan is a list with one entry per pool index:
    {"index": i, "argv": [argv, ...], "expect": {...}}, where "expect"
    holds what the checks need to know about the inputs.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    size = SIZES[workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    os.makedirs(outdir, exist_ok=True)
    plan = []
    for i in range(size["pool"]):
        jseed = str(cli_seed(seed, i))
        if workload == "analysis":
            argv = [["bands", "--sites", str(size["sites"]),
                     "--electrons", str(size["electrons"]), "--seed", jseed]]
            for d in size["state_modes"]:
                path = os.path.join(outdir, f"state-{i}-d{d}.json")
                _write_json(path, _two_electron_state(rng, d, size["state_terms"]))
                argv.append(["slater-rank", path])
            angles = [repr(float(a)) for a in rng.uniform(0.2, 1.3, size=3)]
            argv.append(["slater-rank", "--angles", *angles,
                         "--electrons", str(size["angle_electrons"])])
            expect = {"sites": size["sites"], "electrons": size["electrons"]}
        else:
            if workload == "oracle_check":
                doc = _oracle_circuit(rng, size, i)
            elif workload == "parity_sum":
                doc = _parity_circuit(rng, size)
            else:
                doc = _single_det_circuit(rng, size)
            path = os.path.join(outdir, f"circuit-{i}.json")
            _write_json(path, doc)
            if workload == "single_det":
                argv = [["nogo", path]]
            else:
                argv = [["simulate", path, "--seed", jseed]]
                if workload == "oracle_check":
                    argv[0].append("--oracle-check")
            expect = {"rounds": size.get("rounds"),
                      "measurements": sum(s["kind"] != "rotate" for s in doc["steps"])}
        plan.append({"index": i, "argv": argv, "expect": expect})
    return plan


# ---------------------------------------------------------------- checks


def _rows(text):
    rows = []
    for line in text.splitlines():
        m = _ROW.match(line)
        if m:
            rows.append({"p": float(m.group(4)), "cumulative": float(m.group(5)),
                         "terms": int(m.group(6))})
    return rows


def _comment(text, key):
    prefix = f"# {key} = "
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def _check_cumulative(rows):
    errors = []
    running = 1.0
    for k, row in enumerate(rows):
        running *= row["p"]
        if abs(row["cumulative"] - running) > CUMULATIVE_RTOL * abs(running):
            errors.append(f"row {k}: cumulative {row['cumulative']!r} != product of p {running!r}")
    return errors


def _check_parity(out, expect):
    errors = []
    rows = _rows(out)
    rounds = expect["rounds"]
    if [r["terms"] for r in rows] != [2 ** (k + 1) for k in range(rounds)]:
        errors.append(f"terms column {[r['terms'] for r in rows]} does not double to 2^{rounds}")
    errors += _check_cumulative(rows)
    if _comment(out, "final terms") != str(2**rounds):
        errors.append(f"final terms {_comment(out, 'final terms')} != {2**rounds}")
    return errors


def _check_single_det(out, expect):
    """Probabilities in (0, 1] and consistent with the printed products.

    `nogo` keeps one SlaterState by construction and prints
    `# final terms = 1` as a constant, so that line is not checked.
    """
    errors = []
    rows = _rows(out)
    if len(rows) != expect["measurements"]:
        errors.append(f"{len(rows)} rows for {expect['measurements']} measurements")
    for k, row in enumerate(rows):
        if not 0.0 < row["p"] <= 1.0 + PROB_SLACK:
            errors.append(f"row {k}: p={row['p']!r} outside (0, 1]")
    errors += _check_cumulative(rows)
    total = _comment(out, "trajectory probability")
    if total is None:
        errors.append("trajectory probability line missing")
    elif rows and abs(float(total) - rows[-1]["cumulative"]) > (
        CUMULATIVE_RTOL * rows[-1]["cumulative"]
    ):
        errors.append(f"trajectory probability {total} != last cumulative "
                      f"{rows[-1]['cumulative']!r}")
    return errors


def _check_oracle(out, expect):
    errors = []
    if len(_rows(out)) != expect["measurements"]:
        errors.append(f"{len(_rows(out))} rows for {expect['measurements']} measurements")
    dev = _comment(out, "oracle max probability deviation")
    fid = _comment(out, "oracle min fidelity")
    if dev is None or fid is None:
        return errors + ["oracle lines missing"]
    if not float(dev) <= ORACLE_TOL:
        errors.append(f"oracle deviation {dev} > {ORACLE_TOL}")
    if not float(fid) >= 1.0 - ORACLE_TOL:
        errors.append(f"oracle fidelity {fid} < 1 - {ORACLE_TOL}")
    return errors


def _check_bands(out, expect):
    d, n = expect["sites"], expect["electrons"]
    outcome = _comment(out, "outcome")
    prob = _comment(out, "probability")
    if outcome not in ("0", "1") or prob is None:
        return ["bands outcome or probability line missing"]
    want = n / d if outcome == "1" else 1.0 - n / d
    errors = []
    if abs(float(prob) - want) > 1e-12:
        errors.append(f"bands probability {prob} != {want!r} for outcome {outcome}")
    rows = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    if len(rows) != d + 1:
        errors.append(f"bands CSV has {len(rows) - 1} site rows, expected {d}")
    return errors


def _check_slater_rank(out):
    lines = out.splitlines()
    if not lines or lines[0] != "w =":
        return ["slater-rank output does not start with 'w ='"]
    w_rows = []
    for line in lines[1:]:
        if not line.startswith("  "):
            break
        w_rows.append([complex(tok) for tok in line.split()])
    w = np.array(w_rows)
    fields = dict(ln.split(" = ", 1) for ln in lines[len(w_rows) + 1:] if " = " in ln)
    errors = []
    if w.shape[0] % 2 == 0 and "|Pf|" not in fields:
        errors.append(f"no |Pf| line for an even dimension {w.shape[0]}")
    elif "|Pf|" in fields:
        pf_sq = float(fields["|Pf|"]) ** 2
        det = abs(np.linalg.det(w))
        if abs(pf_sq - det) > PF_DET_RTOL * det + 1e-14:
            errors.append(f"|Pf|^2={pf_sq!r} != |det w|={det!r}")
    rank = int(np.linalg.matrix_rank(w, tol=RANK_TOL))
    if fields.get("Slater number") != str(rank // 2):
        errors.append(f"Slater number {fields.get('Slater number')} != rank(w)/2 = {rank // 2}")
    return errors


def check_job(workload, entry, results):
    """Errors for one job; `results` holds (exit code, stdout) per invocation."""
    errors = []
    for argv, (code, out) in zip(entry["argv"], results):
        if code != 0:
            errors.append(f"{argv[0]}: exit code {code}")
            continue
        if workload == "parity_sum":
            errors += _check_parity(out, entry["expect"])
        elif workload == "single_det":
            errors += _check_single_det(out, entry["expect"])
        elif workload == "oracle_check":
            errors += _check_oracle(out, entry["expect"])
        elif argv[0] == "bands":
            errors += _check_bands(out, entry["expect"])
        else:
            errors += _check_slater_rank(out)
    if len(results) != len(entry["argv"]):
        errors.append(f"{len(results)} results for {len(entry['argv'])} invocations")
    return errors
