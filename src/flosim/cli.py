"""Command-line front end.

Subcommands:

    flosim simulate <circuit.json> [--seed S] [--oracle-check] [--max-terms N]
    flosim nogo <circuit.json>
    flosim bands --sites D --electrons N [--outcome 0|1|sample] [--seed S] [--out F]
    flosim slater-rank (<state.json> | --angles THETA PHI XI [--electrons N])

Transcripts go to stdout as plain text: comment lines prefixed '# ',
then one row per measurement.  Outputs are byte-identical for identical
inputs and seeds.  A failure prints one stderr line and exits with its
error class's exit_code (errors.py); an input too large to allocate
exits 1.
"""

import argparse
import functools
import sys
import warnings

import numpy as np

from . import fock
from .bands import LatticeConfig, closed_form_w0, measure_origin
from .circuits import load_circuit, load_state_sum
from .errors import ORACLE_TOL, BadConfig, FlosimError, OracleCheckFailed, ParseError
from .linalg import pfaffian
from .multislater import (
    DEFAULT_MAX_TERMS,
    generic_p1_study,
    slater_number_two_fermion,
    two_fermion_w,
)
from .simulate import MeasureOne, sampled_steps, simulate_exact_branch, transcript_of

RNG_NAME = "numpy-default-pcg64"
ORACLE_MODE_CAP = 6


def _row_line(row):
    return (
        f"step={row.step} kind={row.kind} outcome={row.outcome} "
        f"p={row.probability:.12e} cumulative={row.cumulative:.12e} "
        f"terms={row.terms}"
    )


def _print_lines(lines, path=None):
    """Write lines to stdout, or to the file path: FlosimError if unwritable."""
    if path is None:
        sys.stdout.writelines(line + "\n" for line in lines)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(line + "\n" for line in lines)
    except OSError as exc:
        raise FlosimError(f"cannot write {path}: {exc}") from exc


def _loaded(loader, path):
    """loader(path), each UserWarning it raises printed to stderr as one
    line, "warning: <message>", with no source line; other categories
    keep Python's filters and display."""
    show = warnings.showwarning

    def one_line(message, category, *args, **kwargs):
        if issubclass(category, UserWarning):
            print(f"warning: {message}", file=sys.stderr)
        else:
            show(message, category, *args, **kwargs)

    with warnings.catch_warnings():  # restores showwarning on the way out
        warnings.showwarning = one_line
        return loader(path)


def _oracle_judge(steps, records):
    """Judge a sampled run on the dense reference, step by step.

    records are the run's own simulate.sampled_steps records.  The dense
    vector starts from the run's start state, takes each rotation's
    recorded unitary, a pair rotation's 2x2 block embedded in the D x D
    identity, and projects on each measurement's recorded outcome.
    Returns (max deviation of the recorded probabilities, min fidelity of
    the recorded states) over every step.  A recorded outcome the dense
    vector gives p = 0 has no dense post-state: the judge counts its
    deviation, takes fidelity 0 and follows the run no further.  Every
    recorded state is expanded before the loop, in one fock.expand_sums
    pass; those past such a stop go unused.

    A measurement step takes one fock._group_projection of its recorded
    group, on its modes (kappa,) or (kappa, lam).  It checks no mode: the
    run checked the same vectors at their step, and cmd_simulate ends the
    run before judging it.
    """
    records = list(records)
    expanded = fock.expand_sums(state for *_, state in records)
    max_dev = 0.0
    min_fid = 1.0
    for (idx, u, row, _), recorded in zip(records, expanded):
        if idx is None:
            vec = recorded
            continue
        if u is not None:
            pair = steps[idx].pair
            if pair is not None:  # the shorthand's 2x2 block, embedded in the identity
                block, u = u, np.eye(vec.modes, dtype=complex)
                u[np.ix_(pair, pair)] = block
            vec = fock._rotated(vec, u)  # the run's evolve_sum checked u
        else:
            step, d = steps[idx], vec.modes
            modes = [step.kappa] if isinstance(step, MeasureOne) else [step.kappa, step.lam]
            modes = [np.asarray(m, dtype=complex) for m in modes]
            total = fock._group_projection(vec.amplitudes, d, modes, map(int, row.outcome))
            p_oracle = float(np.linalg.norm(total)) ** 2
            max_dev = max(max_dev, abs(row.probability - p_oracle))
            if p_oracle == 0.0:
                return max_dev, 0.0
            # no entry exceeds the norm sqrt(p), so the quotient is finite
            vec = fock.FockVector._checked(d, total / np.sqrt(p_oracle))
        min_fid = min(min_fid, fock.fidelity(recorded, vec))
    return max_dev, min_fid


def cmd_simulate(args):
    circuit = _loaded(load_circuit, args.path)
    if args.oracle_check and circuit.modes > ORACLE_MODE_CAP:
        raise BadConfig(
            f"the oracle check handles at most {ORACLE_MODE_CAP} modes, "
            f"got {circuit.modes}"
        )
    records = sampled_steps(
        circuit.steps,
        circuit.modes,
        circuit.electrons,
        seed=args.seed,
        max_terms=args.max_terms,
    )
    if args.oracle_check:
        # the whole run first, so that a simulation error wins over the judge
        records = list(records)
    transcript, final = transcript_of(records)
    lines = [
        "# flosim transcript",
        "# command = simulate",
        f"# modes = {circuit.modes} electrons = {circuit.electrons} "
        f"steps = {len(circuit.steps)}",
        f"# seed = {args.seed} rng = {RNG_NAME}",
        f"# max terms = {args.max_terms}",
    ]
    lines += [_row_line(row) for row in transcript.rows]
    lines.append(f"# final terms = {final.term_count}")
    failure = None
    if args.oracle_check:
        max_dev, min_fid = _oracle_judge(circuit.steps, records)
        lines.append(f"# oracle max probability deviation = {max_dev:.3e}")
        lines.append(f"# oracle min fidelity = {min_fid:.12f}")
        if max_dev > ORACLE_TOL or min_fid < 1.0 - ORACLE_TOL:
            failure = OracleCheckFailed(
                f"probability deviation {max_dev:.3e}, fidelity {min_fid:.12f}"
            )
    _print_lines(lines)
    if failure is not None:
        raise failure
    return 0


def cmd_nogo(args):
    circuit = _loaded(load_circuit, args.path)
    transcript, final = simulate_exact_branch(
        circuit.steps, circuit.modes, circuit.electrons
    )
    lines = [
        "# flosim transcript",
        "# command = nogo",
        f"# modes = {circuit.modes} electrons = {circuit.electrons} "
        f"steps = {len(circuit.steps)}",
    ]
    lines += [_row_line(row) for row in transcript.rows]
    lines.append("# final terms = 1")
    lines.append(
        f"# trajectory probability = {transcript.cumulative_probability:.12e}"
    )
    _print_lines(lines)
    return 0


def cmd_bands(args):
    cfg = LatticeConfig(args.sites, args.electrons)
    lines = [f"# sites = {cfg.sites} electrons = {cfg.electrons}"]
    if args.outcome == "sample":
        rng = np.random.default_rng(args.seed)
        outcome = 1 if rng.random() < cfg.filling else 0
        lines.append(f"# seed = {args.seed} rng = {RNG_NAME}")
    else:
        outcome = int(args.outcome)
    probability, _, profile = measure_origin(cfg, outcome)
    lines.append(f"# outcome = {outcome}")
    lines.append(f"# probability = {probability!r}")
    lines.append("x,density_before,density_after,orbital_re,orbital_im,closed_form")
    closed = closed_form_w0(cfg, profile.x)
    orb = profile.first_orbital
    columns = (profile.density_before, profile.density_after, orb.real, orb.imag, closed)
    for x, *cells in zip(profile.x.tolist(), *(c.tolist() for c in columns)):
        lines.append(",".join([str(x), *map(repr, cells)]))
    _print_lines(lines, args.out)
    return 0


def _format_complex(z):
    z = complex(z)
    return f"{z.real:+.9e}{z.imag:+.9e}j"


def cmd_slater_rank(args):
    if (args.path is None) == (args.angles is None):
        raise ParseError("give exactly one of a state file or --angles")
    if args.angles is not None:
        theta, phi, xi = args.angles
        w, pf, closed = generic_p1_study(theta, phi, xi, args.electrons)
        closed_text = repr(float(closed))
    else:
        ssum = _loaded(load_state_sum, args.path)
        w = two_fermion_w(ssum)
        pf = pfaffian(w) if w.shape[0] % 2 == 0 else None
        closed_text = "n/a"
    print("w =")
    for row in np.asarray(w):
        print("  " + "  ".join(_format_complex(z) for z in row))
    if pf is None:
        print("Pfaffian = n/a (odd mode count)")
    else:
        print(f"Pfaffian = {_format_complex(pf)}")
        print(f"|Pf| = {abs(complex(pf))!r}")
    print(f"closed form = {closed_text}")
    print(f"Slater number = {slater_number_two_fermion(w)}")
    return 0


def _int_at_least(low, words):
    """An argparse type: an integer of at least low, else a usage error
    saying it must be `words`."""

    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {words}, got {value}")
        return value

    parse.__name__ = "int"  # so that "abc" still reads "invalid int value: 'abc'"
    return parse


_seed = _int_at_least(0, "non-negative")  # as numpy's generator takes
_term_cap = _int_at_least(1, "positive")  # a cap below 1 fails every run


def _finite_float(text):
    """An argparse type: a finite float, else a usage error."""
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


_finite_float.__name__ = "float"  # so that "abc" still reads "invalid float value: 'abc'"


# one parser per process: parse_args leaves it unchanged
@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="flosim",
        description="Determinant-based simulation of fermionic linear optics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a circuit on a determinant sum")
    p_sim.add_argument("path", help="circuit file")
    p_sim.add_argument("--seed", type=_seed, default=0)
    p_sim.add_argument(
        "--oracle-check",
        action="store_true",
        help="judge each step of the run on the dense reference (needs at most 6 modes)",
    )
    p_sim.add_argument("--max-terms", type=_term_cap, default=DEFAULT_MAX_TERMS)
    p_sim.set_defaults(func=cmd_simulate)

    p_nogo = sub.add_parser(
        "nogo", help="run a circuit keeping a single determinant throughout"
    )
    p_nogo.add_argument("path", help="circuit file")
    p_nogo.set_defaults(func=cmd_nogo)

    p_bands = sub.add_parser(
        "bands", help="filled-band origin measurement on a ring lattice"
    )
    p_bands.add_argument("--sites", type=int, required=True)
    p_bands.add_argument("--electrons", type=int, required=True)
    p_bands.add_argument("--outcome", choices=("0", "1", "sample"), default="sample")
    p_bands.add_argument("--seed", type=_seed, default=0)
    p_bands.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_bands.set_defaults(func=cmd_bands)

    p_rank = sub.add_parser(
        "slater-rank", help="rank report for a two-electron state"
    )
    p_rank.add_argument("path", nargs="?", default=None, help="state file")
    p_rank.add_argument(
        "--angles",
        nargs=3,
        type=_finite_float,
        default=None,
        metavar=("THETA", "PHI", "XI"),
        help="build the two-rotation study state from three angles",
    )
    p_rank.add_argument("--electrons", type=int, default=2)
    p_rank.set_defaults(func=cmd_slater_rank)

    return parser


def _negative_angles(argv):
    """argv with a space put before each of the three values after
    slater-rank's --angles that begins with '-' and that float() reads:
    argparse takes only plain negative numbers such as -0.5 for values,
    so it would read -1e-3 as an option, while float() skips the space."""
    argv = list(argv)
    if argv[:1] == ["slater-rank"] and "--angles" in argv:
        at = argv.index("--angles") + 1
        for i, text in enumerate(argv[at : at + 3], start=at):
            try:
                float(text)
            except ValueError:
                continue
            if text.startswith("-"):
                argv[i] = " " + text
    return argv


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_negative_angles(argv))
    try:
        return args.func(args)
    except FlosimError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:  # numpy names the array it could not allocate
        print(f"MemoryError: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
