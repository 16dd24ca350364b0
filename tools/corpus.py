"""Byte-identity corpus: run the same flosim invocations against two
source trees and print every run whose stdout, stderr or exit code
differs.

    python3 tools/corpus.py [--bits] BASE_SRC [HEAD_SRC]

Each argument is a directory holding the `flosim` package; HEAD_SRC
defaults to this checkout's src.  Another commit's tree can be had with
`git archive REV | tar -x -C DIR`, then DIR/src.  Every tree runs all
invocations in one fresh interpreter, in process through
flosim.cli.main, from this checkout's root with BLAS at one thread.
Exits 1 if any run differs.  Each differing run is classified: it
differs in digits only when its exit code is the same and its stdout
and stderr match once every numeric literal with a fraction or an
exponent is masked (integers such as outcome labels, step indices and
`terms=` counts are not masked).  The last lines print how many runs
differ in digits only and how many otherwise, then list the latter;
with --bits, a run whose exit code, stdout and stderr are the same and
only its digest differs counts as bits only, apart from digits only.
Before them, one line gives the size of the digits-only change: the
largest absolute difference between paired numeric literals over those
runs, and the run that shows it.
For each tree it also prints the oracle judge's worst case over all
its `--oracle-check` runs: the largest `oracle max probability
deviation` and the smallest `oracle min fidelity` they print.

--bits also compares, per run, a SHA-256 digest of the numbers the
transcript prints rounded: every transcript row's probability and
cumulative probability and the final state's coefficients, amplitudes
and orbital bytes (`simulate` and `nogo`), both dense vectors of each
fidelity the `--oracle-check` judge takes, and the w matrix of
`slater-rank`.  So a change in the last bit of a kernel shows even
where the printed digits hide it.

The corpus, 458 runs, all on this checkout's inputs:
  - circuits/*.json, tests/data/policy_mix.json and parity_deep.json
    under `simulate --seed 3/7/11`, plain and with --oracle-check, and
    under `nogo`;
  - policy_mix.json under `simulate --seed 7..26 --oracle-check`;
  - the benchmark's input pools of every workload (`parity_sum`,
    `single_det`, `oracle_check` and `analysis`) at seeds 201-203 and
    213, which perfbench/workloads.py writes under POOL_DIR;
  - 60 random circuits of tools/circuitgen.py (seed 14), written under
    POOL_DIR, under `simulate --seed 3/7 --oracle-check` and under
    `nogo`;
  - 12 two-electron state files (RANK_STATES at seeds 0 and 1), written
    under POOL_DIR, under `slater-rank`: their w have repeated pair
    moduli, a zero pair, odd D, and pairs of modulus near 2e-9 and
    5e-10, either side of the Slater number's threshold 1e-9.

POOL_DIR, `.corpus_out/` at this checkout's root, is written again on
every comparison and kept afterwards; runs name its files relative to
the root, so a listed run re-runs as printed from there, e.g.
`PYTHONPATH=src python3 -m flosim.cli simulate
.corpus_out/parity_sum/213/circuit-2.json --seed 1896205`.
"""

import contextlib
import difflib
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
POOL_DIR = ".corpus_out"  # the generated inputs, relative to ROOT
CIRCUITS = (
    *sorted(p.relative_to(ROOT).as_posix() for p in ROOT.glob("circuits/*.json")),
    "tests/data/policy_mix.json",
    "tests/data/parity_deep.json",
)
POOL_SEEDS = (201, 202, 203, 213)
POOL_WORKLOADS = ("oracle_check", "parity_sum", "single_det", "analysis")
RANDOM_SEED, RANDOM_COUNT = 14, 60
# (name, D, coefficients): a state file sums coefficient k times the
# determinant of columns 2k, 2k+1 of a random unitary, so each pair of
# its normalized w has modulus |coefficient| / (2 norm); 4e-9 and 1e-9
# give 2e-9 and 5e-10 beside a pair of modulus 0.5.
RANK_SEEDS = (0, 1)
RANK_STATES = (
    ("repeated", 8, (1.0, 1.0, 1.0, 0.5)),
    ("zero-pair", 6, (1.0, 0.6)),
    ("odd", 7, (1.0, 0.8, 0.3)),
    ("above", 6, (1.0, 4e-9)),
    ("below", 6, (1.0, 1e-9)),
    ("both", 8, (1.0, 0.5, 4e-9, 1e-9)),
)
SHOWN_DIFF_LINES = 20
ORACLE_DEV = "# oracle max probability deviation = "
ORACLE_FID = "# oracle min fidelity = "
# A printed real: digits with a fraction, an exponent or both.
NUMBER = re.compile(r"[-+]?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)")


def invocations(pool_dir):
    """The corpus as a list of argv lists; writes the pools under pool_dir."""
    runs = []
    for path in CIRCUITS:
        for seed in ("3", "7", "11"):
            runs.append(["simulate", path, "--seed", seed])
            runs.append(["simulate", path, "--seed", seed, "--oracle-check"])
        runs.append(["nogo", path])
    for seed in range(7, 27):
        runs.append(["simulate", "tests/data/policy_mix.json", "--seed", str(seed),
                     "--oracle-check"])
    workloads = _load(ROOT / "perfbench" / "workloads.py")
    for workload in POOL_WORKLOADS:
        for seed in POOL_SEEDS:
            plan = workloads.generate(workload, seed, os.path.join(pool_dir, workload, str(seed)))
            runs += [argv for job in plan for argv in job["argv"]]
    circuitgen = _load(ROOT / "tools" / "circuitgen.py")
    for path in circuitgen.write_circuits(RANDOM_SEED, RANDOM_COUNT, os.path.join(pool_dir, "random")):
        for seed in ("3", "7"):
            runs.append(["simulate", path, "--seed", seed, "--oracle-check"])
        runs.append(["nogo", path])
    runs += [["slater-rank", path] for path in rank_states(os.path.join(pool_dir, "rank"))]
    return runs


def rank_states(outdir):
    """Write the RANK_STATES files under outdir; returns their paths."""
    os.makedirs(outdir, exist_ok=True)
    paths = []
    for seed in RANK_SEEDS:
        rng = np.random.default_rng(seed)
        for name, d, coeffs in RANK_STATES:
            u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
            phases = np.exp(2j * np.pi * rng.random(len(coeffs)))
            terms = [{"coefficient": _pair(c * p),
                      "orbitals": [[_pair(z) for z in row] for row in u[:, 2 * k : 2 * k + 2]]}
                     for k, (c, p) in enumerate(zip(coeffs, phases))]
            paths.append(os.path.join(outdir, f"{name}-{seed}.json"))
            with open(paths[-1], "w", encoding="utf-8") as handle:
                json.dump({"modes": d, "electrons": 2, "terms": terms}, handle)
    return paths


def _pair(z):
    return [float(z.real), float(z.imag)]


def _load(path):
    """The module in the file path, imported under its stem."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hook(namespace, name, record):
    """Replace namespace.name by a wrapper that passes each call's
    arguments and result to record."""
    real = getattr(namespace, name)

    def hooked(*args, **kwargs):
        result = real(*args, **kwargs)
        record(args, result)
        return result

    setattr(namespace, name, hooked)


def _bit_hooks(cli):
    """Hook the names cli runs through so that each run's exact numbers
    are gathered; returns the list they are appended to, as bytes."""
    seen = []

    def rows(transcript):
        seen.extend(float(x).hex().encode() for r in transcript.rows
                    for x in (r.probability, r.cumulative))

    def sampled(_, result):
        transcript, final = result
        rows(transcript)
        for numbers in (final.coeffs, final.amps):
            seen.append(np.array(numbers, dtype=complex).tobytes())
        seen.append(np.asarray(final.orbitals).tobytes())

    def exact(_, result):
        transcript, final = result
        rows(transcript)
        seen.append(np.array(final.amplitude, dtype=complex).tobytes())
        seen.append(np.asarray(final.orbitals).tobytes())

    def fidelity(args, _):
        seen.extend(v.amplitudes.tobytes() for v in args)

    def w_matrix(args, _):
        seen.append(np.asarray(args[0]).tobytes())

    _hook(cli, "transcript_of", sampled)
    _hook(cli, "simulate_exact_branch", exact)
    _hook(cli.fock, "fidelity", fidelity)
    _hook(cli, "slater_number_two_fermion", w_matrix)
    return seen


def _run_here(src, argvs, bits=False):
    """Run every argv through src's flosim.cli.main in this process;
    returns [exit code, stdout, stderr] per run, and with bits the
    _bit_hooks digest as a fourth entry."""
    sys.path.insert(0, src)
    from flosim import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"flosim was imported from {cli.__file__}, not from {src}")
    seen = _bit_hooks(cli) if bits else None
    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an escaped error is a result to compare too
                code = "uncaught"
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        results.append([code, out.getvalue(), err.getvalue()])
        if bits:
            results[-1].append(hashlib.sha256(b"|".join(seen)).hexdigest())
            seen.clear()
    return results


def run_tree(src, argvs, bits=False):
    """[exit code, stdout, stderr] of every argv under the tree src, from
    one fresh interpreter; with bits, the digest of _bit_hooks too."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    mode = "--run-here-bits" if bits else "--run-here"
    proc = subprocess.run(
        [sys.executable, __file__, mode, os.path.abspath(src)],
        input=json.dumps(argvs), capture_output=True, text=True, cwd=ROOT,
        env=env, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"the run under {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def compare(base_src, head_src, argvs, bits=False):
    """The runs that differ: (argv, base result, head result) triples."""
    return _differing(argvs, run_tree(base_src, argvs, bits), run_tree(head_src, argvs, bits))


def _differing(argvs, base, head):
    return [(argv, b, h) for argv, b, h in zip(argvs, base, head) if b != h]


def _masked(text):
    return NUMBER.sub("#", text)


def digits_only(base, head):
    """Whether two results of one run differ in printed digits only:
    the same exit code, and the same stdout and stderr once every
    numeric literal with a fraction or an exponent is masked."""
    return base[0] == head[0] and all(
        _masked(b) == _masked(h) for b, h in zip(base[1:3], head[1:3])
    )


def largest_digit_change(differing):
    """(largest |base - head| over the paired numeric literals of the
    stdout and stderr of the differing runs that differ in digits only,
    that run's argv); (0.0, None) when no printed number moves."""
    largest, where = 0.0, None
    for argv, base, head in differing:
        if not digits_only(base, head):
            continue
        for b, h in zip(base[1:3], head[1:3]):
            for x, y in zip(NUMBER.findall(b), NUMBER.findall(h)):
                if abs(float(x) - float(y)) > largest:
                    largest, where = abs(float(x) - float(y)), argv
    return largest, where


def accuracy(results):
    """The oracle judge's worst case over a tree's results: (largest
    printed max probability deviation, smallest printed min fidelity,
    number of runs that print them); NaN for both when none does."""
    devs, fids = [], []
    for _, out, *_ in results:
        for line in out.splitlines():
            if line.startswith(ORACLE_DEV):
                devs.append(float(line[len(ORACLE_DEV):]))
            elif line.startswith(ORACLE_FID):
                fids.append(float(line[len(ORACLE_FID):]))
    return max(devs, default=float("nan")), min(fids, default=float("nan")), len(devs)


def _report(argv, base, head):
    lines = [" ".join(argv)]
    for name, b, h in zip(("exit code", "stdout", "stderr", "bits"), base, head):
        if b == h:
            continue
        if name in ("exit code", "bits"):
            lines.append(f"  {name} {b!r} -> {h!r}")
            continue
        diff = difflib.unified_diff(
            b.splitlines(), h.splitlines(), "base " + name, "head " + name, lineterm=""
        )
        lines += ["  " + line for line in list(diff)[:SHOWN_DIFF_LINES]]
    return "\n".join(lines)


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if args[:1] in (["--run-here"], ["--run-here-bits"]) and len(args) == 2:
        bits = args[0] == "--run-here-bits"
        json.dump(_run_here(args[1], json.load(sys.stdin), bits), sys.stdout)
        return 0
    bits = args[:1] == ["--bits"]
    if bits:
        args = args[1:]
    if not 1 <= len(args) <= 2 or args[0].startswith("-"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base_src, head_src = args[0], args[1] if len(args) == 2 else str(ROOT / "src")
    with contextlib.chdir(ROOT):
        argvs = invocations(POOL_DIR)
    trees = {"base": run_tree(base_src, argvs, bits), "head": run_tree(head_src, argvs, bits)}
    differing = _differing(argvs, trees["base"], trees["head"])
    for run in differing:
        print(_report(*run))
    largest, where = largest_digit_change(differing)
    print(f"largest digits-only difference {largest:.3e}"
          + (f", in {' '.join(where)}" if where else ""))
    for name, results in trees.items():
        dev, fid, checked = accuracy(results)
        print(f"{name}: over {checked} oracle-checked runs, max probability deviation "
              f"{dev:.3e}, min fidelity {fid:.12f}")
    other = [argv for argv, base, head in differing if not digits_only(base, head)]
    unprinted = sum(base[:3] == head[:3] for _, base, head in differing)
    print(f"{len(differing)} of {len(argvs)} runs differ: "
          f"{len(differing) - len(other) - unprinted} digits only, "
          + (f"{unprinted} bits only, " if bits else "") + f"{len(other)} otherwise")
    for argv in other:
        print("  otherwise: " + " ".join(argv))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
