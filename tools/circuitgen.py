"""Seeded random circuit documents for the byte-identity corpus.

    python3 tools/circuitgen.py [--sample] SEED COUNT OUT_DIR

writes COUNT circuit files OUT_DIR/random_<SEED>_<i>.json and prints
their paths.  Circuit i depends only on (SEED, i).  Each has 3 to 6
modes, 0 to all of them filled, and 2 to 8 steps drawn from every step
kind: rotations by the two-site shorthand, a unitary or a generator;
single-mode measurements of a site index or a vector; two-mode
measurements of two sites or two orthonormal vectors under every
grouping; each measurement under the sample, forced or exact policy.
Forced outcomes are drawn blind, so some runs end on an outcome of
probability 0, and exact parity steps are refused; those exits are
part of what the corpus compares.

--sample writes OUT_DIR/sampled_<SEED>_<i>.json instead: circuit
(SEED, i) with every measurement under the sample policy, which never
picks an outcome of probability 0, so every run ends and the oracle
judge checks each of its steps.
"""

import json
import os
import sys

import numpy as np

# The groupings' outcome labels and the policies of flosim's circuit
# format, as flosim.multislater.GROUPINGS and flosim.simulate.POLICIES
# define them.
LABELS = {"012": ("0", "1", "2"), "01/2": ("01", "2"), "0/12": ("0", "12"), "02/1": ("02", "1")}
POLICIES = ("sample", "forced", "exact")


def _pairs(values):
    """A complex array as nested [re, im] pairs."""
    if np.ndim(values) == 0:
        return [float(values.real), float(values.imag)]
    return [_pairs(v) for v in values]


def _orthonormal(rng, d, k):
    """k orthonormal random complex vectors of length d, as columns."""
    q, r = np.linalg.qr(rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _rotate(rng, d):
    form = rng.choice(("modes", "unitary", "generator"))
    if form == "modes":
        i, j = rng.choice(d, 2, replace=False)
        return {"kind": "rotate", "modes": [int(i), int(j)],
                "theta": float(rng.uniform(0, np.pi)), "phi": float(rng.uniform(-np.pi, np.pi))}
    if form == "unitary":
        return {"kind": "rotate", "unitary": _pairs(_orthonormal(rng, d, d))}
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return {"kind": "rotate", "generator": _pairs((a + a.conj().T) / 2),
            "tau": float(rng.uniform(0.2, 1.5))}


def _measure(rng, d, sample):
    policy = str(rng.choice(POLICIES, p=(0.5, 0.25, 0.25)))
    vectors = rng.random() < 0.5
    if rng.random() < 0.4:
        step = {"kind": "measure1"}
        if vectors:
            step["vector"] = _pairs(_orthonormal(rng, d, 1)[:, 0])
        else:
            step["mode"] = int(rng.integers(d))
        outcome = int(rng.integers(2))
    else:
        grouping = str(rng.choice(list(LABELS)))
        if vectors:
            first, second = (_pairs(col) for col in _orthonormal(rng, d, 2).T)
        else:
            first, second = (int(i) for i in rng.choice(d, 2, replace=False))
        step = {"kind": "measure2", "first": first, "second": second, "grouping": grouping}
        outcome = str(rng.choice(LABELS[grouping]))
    step["policy"] = "sample" if sample else policy
    if step["policy"] == "forced":
        step["outcome"] = outcome
    return step


def random_circuit(seed, index, sample=False):
    """Circuit `index` of the seed's sequence, as a JSON-ready dict; with
    sample, the same circuit with every measurement's policy "sample"."""
    rng = np.random.default_rng([seed, index])
    d = int(rng.integers(3, 7))
    n = int(rng.integers(0, d + 1))
    steps = [
        _rotate(rng, d) if rng.random() < 0.45 else _measure(rng, d, sample)
        for _ in range(int(rng.integers(2, 9)))
    ]
    return {"modes": d, "electrons": n, "steps": steps}


def write_circuits(seed, count, out_dir, sample=False):
    """Write circuits 0..count-1 of the seed under out_dir, with sample
    their sample-policy forms; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    stem = "sampled" if sample else "random"
    for index in range(count):
        path = os.path.join(out_dir, f"{stem}_{seed}_{index}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(random_circuit(seed, index, sample), handle)
        paths.append(path)
    return paths


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    sample = args[:1] == ["--sample"]
    args = args[sample:]
    if len(args) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in write_circuits(int(args[0]), int(args[1]), args[2], sample):
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
