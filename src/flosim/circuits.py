"""Load and save circuit description files, and load state files.

A circuit file is a JSON document with three top-level keys::

    {
      "modes": 4,
      "electrons": 2,
      "steps": [
        {"kind": "rotate", "modes": [0, 2], "theta": 0.7, "phi": 0.3},
        {"kind": "rotate", "unitary": [[...], ...]},
        {"kind": "rotate", "generator": [[...], ...], "tau": 0.4},
        {"kind": "measure1", "mode": 1, "policy": "sample"},
        {"kind": "measure2", "first": 0, "second": 1,
         "grouping": "012", "policy": "forced", "outcome": "1"}
      ]
    }

Complex entries are written as two-element [real, imaginary] arrays; a
bare number is read as a real entry.  Mode arguments of measurement
steps are either an integer site index or an explicit length-D vector,
which is normalized on load.  The two-mode rotate shorthand with
"modes", "theta" and an optional "phi" is the 2x2 block

    [[cos(theta),                -i sin(theta) e^{-i phi}],
     [-i sin(theta) e^{i phi},    cos(theta)             ]]

acting on the named pair of sites and leaving every other site alone.
It parses to that block and its pair (Rotate.on_pair); no D x D matrix
is built, and its step updates the pair's two rows of every term.  A
generator with its time loads as its unitary exp(-i g tau).

Mode indices are 0-based everywhere.
"""

import json
import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import RENORMALIZE_WARN, ZERO_STATE_TOL, ParseError
from .linalg import hermitian_fault, one_body_unitaries
from .multislater import DEFAULT_MAX_TERMS, GROUPINGS, SlaterSum, group_label, scale_sum
from .simulate import POLICIES, MeasureOne, MeasureTwo, Rotate
from .slater import measured_gram_err, orthonormal_fault

_TOP_KEYS = {"modes", "electrons", "steps"}
_STATE_KEYS = {"modes", "electrons", "orbitals", "amplitude", "terms"}
_TERM_KEYS = {"orbitals", "coefficient"}
_STEP_KEYS = {
    "rotate": {"kind", "unitary", "generator", "tau", "modes", "theta", "phi"},
    "measure1": {"kind", "mode", "vector", "policy", "outcome"},
    "measure2": {"kind", "first", "second", "grouping", "policy", "outcome"},
}


@dataclass(frozen=True)
class Circuit:
    """A parsed circuit document: mode count, electron count, steps."""

    modes: int
    electrons: int
    steps: tuple


def _complex_from_json(value, where):
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    if not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in parts):
        raise ParseError(f"{where}: expected a number or an [re, im] pair, got {value!r}")
    return complex(*(_require_real(p, where) for p in parts))


def _vector_from_json(value, length, where):
    if not isinstance(value, list) or len(value) != length:
        raise ParseError(f"{where}: expected a list of {length} entries")
    vec = np.array(
        [_complex_from_json(v, f"{where}[{i}]") for i, v in enumerate(value)]
    )
    if not np.all(np.isfinite(vec.view(float))):
        raise ParseError(f"{where}: non-finite entry")
    return vec


def _array_from_json(value, shape):
    """The matrix as one complex array, or None unless every row is a
    list of `cols` finite bare ints/floats or of `cols` such [re, im]
    pairs.

    The leaves are gathered into one flat list, type-checked and
    converted in one np.array call: bools, strings, None and nested
    lists are other types, ragged rows other lengths, and an int beyond
    float range fails the conversion.
    """
    cols = shape[1]
    if set(map(type, value)) != {list} or set(map(len, value)) != {cols}:
        return None
    leaves = list(chain.from_iterable(value))
    pairs = set(map(type, leaves)) == {list}
    if pairs:
        if set(map(len, leaves)) != {2}:
            return None
        leaves = list(chain.from_iterable(leaves))
    if not set(map(type, leaves)) <= {int, float}:
        return None
    try:
        arr = np.array(leaves, dtype=float)
    except OverflowError:
        return None
    if not np.isfinite(arr).all():
        return None
    if pairs:
        return arr.view(complex).reshape(shape)
    return arr.reshape(shape).astype(complex)


def _matrix_from_json(value, shape, where):
    rows, cols = shape
    if not isinstance(value, list) or len(value) != rows:
        raise ParseError(f"{where}: expected {rows} rows")
    mat = _array_from_json(value, shape)
    if mat is not None:
        return mat
    # the entry walk names the first bad entry, and reads rows that mix
    # bare numbers and [re, im] pairs
    mat = np.zeros((rows, cols), dtype=complex)
    for i, row in enumerate(value):
        mat[i] = _vector_from_json(row, cols, f"{where}[{i}]")
    return mat


def _require_int(value, where, low=None, high=None):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    if low is not None and value < low:
        raise ParseError(f"{where}: {value} is below {low}")
    if high is not None and value > high:
        raise ParseError(f"{where}: {value} is above {high}")
    return value


def _require_real(value, where):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"{where}: expected a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"{where}: integer out of float range") from None


def _check_keys(obj, allowed, where):
    extra = set(obj) - allowed
    if extra:
        raise ParseError(f"{where}: unknown keys {sorted(extra)}")


def _mode_argument(step, key, d, where):
    """Read a measurement mode given as a site index or a vector."""
    if key not in step:
        raise ParseError(f"{where}: missing {key!r}")
    value = step[key]
    if isinstance(value, int) and not isinstance(value, bool):
        _require_int(value, f"{where}.{key}", low=0, high=d - 1)
        vec = np.zeros(d, dtype=complex)
        vec[value] = 1.0
        return vec
    vec = _vector_from_json(value, d, f"{where}.{key}")
    nrm = np.linalg.norm(vec)
    if nrm == 0:
        raise ParseError(f"{where}.{key}: zero vector")
    if abs(nrm - 1) > RENORMALIZE_WARN:
        warnings.warn(f"{where}.{key}: renormalizing a vector of norm {nrm:.6g}")
    return vec / nrm


def pair_rotation(theta, phi=0.0):
    """The 2x2 unitary of the two-site rotate shorthand.  An infinite angle
    gives NaN entries without a warning: the step's unitarity check
    rejects them."""
    with np.errstate(invalid="ignore"):
        c = np.cos(theta)
        s = np.sin(theta)
        return np.array(
            [
                [c, -1j * s * np.exp(-1j * phi)],
                [-1j * s * np.exp(1j * phi), c],
            ]
        )


def _parse_rotate(step, d, where):
    forms = [k for k in ("unitary", "generator", "modes") if k in step]
    if len(forms) != 1:
        raise ParseError(
            f"{where}: give exactly one of 'unitary', 'generator'+'tau', "
            "or 'modes'+'theta'"
        )
    form = forms[0]
    if form == "unitary":
        mat = _matrix_from_json(step["unitary"], (d, d), f"{where}.unitary")
        return Rotate(unitary=mat)
    if form == "generator":
        if "tau" not in step:
            raise ParseError(f"{where}: 'generator' needs 'tau'")
        mat = _matrix_from_json(step["generator"], (d, d), f"{where}.generator")
        if fault := hermitian_fault(mat):
            raise ParseError(f"{where}.generator: {fault}")
        return Rotate(generator=mat, tau=_require_real(step["tau"], f"{where}.tau"))
    pair = step["modes"]
    if not isinstance(pair, list) or len(pair) != 2:
        raise ParseError(f"{where}.modes: expected a pair of site indices")
    i = _require_int(pair[0], f"{where}.modes[0]", low=0, high=d - 1)
    j = _require_int(pair[1], f"{where}.modes[1]", low=0, high=d - 1)
    if i == j:
        raise ParseError(f"{where}.modes: indices must differ")
    if "theta" not in step:
        raise ParseError(f"{where}: 'modes' needs 'theta'")
    theta = _require_real(step["theta"], f"{where}.theta")
    phi = _require_real(step.get("phi", 0.0), f"{where}.phi")
    return Rotate.on_pair(d, i, j, pair_rotation(theta, phi))


def _parse_policy(step, where):
    policy = step.get("policy", "sample")
    if policy not in POLICIES:
        raise ParseError(f"{where}.policy: expected one of {POLICIES}, got {policy!r}")
    return policy


def _parse_measure1(step, d, where):
    if ("mode" in step) == ("vector" in step):
        raise ParseError(f"{where}: give exactly one of 'mode' or 'vector'")
    key = "mode" if "mode" in step else "vector"
    kappa = _mode_argument(step, key, d, where)
    policy = _parse_policy(step, where)
    outcome = step.get("outcome")
    if outcome is not None:
        _require_int(outcome, f"{where}.outcome", low=0, high=1)
    if policy == "forced" and outcome is None:
        raise ParseError(f"{where}: forced policy needs 'outcome'")
    return MeasureOne(kappa=kappa, policy=policy, outcome=outcome)


def _parse_measure2(step, d, where):
    kappa = _mode_argument(step, "first", d, where)
    lam = _mode_argument(step, "second", d, where)
    sites = step["first"], step["second"]
    if all(type(k) is int for k in sites) and sites[0] == sites[1]:
        # a vector on either side keeps the run's orthogonality check
        raise ParseError(f"{where}: 'first' and 'second' name the same site {sites[0]}")
    grouping = step.get("grouping", "012")
    if not isinstance(grouping, str) or grouping not in GROUPINGS:
        raise ParseError(
            f"{where}.grouping: expected one of {sorted(GROUPINGS)}, got {grouping!r}"
        )
    policy = _parse_policy(step, where)
    outcome = step.get("outcome")
    if outcome is not None:
        labels = [group_label(g) for g in GROUPINGS[grouping]]
        if outcome not in labels:
            raise ParseError(
                f"{where}.outcome: grouping {grouping!r} yields {labels}, "
                f"got {outcome!r}"
            )
    if policy == "forced" and outcome is None:
        raise ParseError(f"{where}: forced policy needs 'outcome'")
    return MeasureTwo(
        kappa=kappa, lam=lam, grouping=grouping, policy=policy, outcome=outcome
    )


_STEP_PARSERS = {
    "rotate": _parse_rotate,
    "measure1": _parse_measure1,
    "measure2": _parse_measure2,
}


def _read_text(path):
    """The text of a UTF-8 input file, or one ParseError line."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _document(text):
    """The JSON object a circuit or state document holds."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"bad JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    return doc


def _header(doc, allowed, required):
    """(modes, electrons) of a circuit or state document whose top-level
    keys are among allowed and include each of required, in turn."""
    _check_keys(doc, allowed, "top level")
    for key in required:
        if key not in doc:
            raise ParseError(f"missing top-level key {key!r}")
    d = _require_int(doc["modes"], "modes", low=1)
    return d, _require_int(doc["electrons"], "electrons", low=0, high=d)


def parse_circuit(text):
    """Parse a circuit document from a JSON string.

    Every generator rotation, checked by _parse_rotate, loads as its
    unitary: one one_body_unitaries call takes them all, bit for bit
    each step's own one_body_unitary.
    """
    doc = _document(text)
    d, n = _header(doc, _TOP_KEYS, ("modes", "electrons", "steps"))
    if not isinstance(doc["steps"], list):
        raise ParseError("steps: expected a list")
    steps = []
    for idx, step in enumerate(doc["steps"]):
        where = f"step {idx}"
        if not isinstance(step, dict):
            raise ParseError(f"{where}: expected an object")
        kind = step.get("kind")
        if not isinstance(kind, str) or kind not in _STEP_PARSERS:
            raise ParseError(
                f"{where}.kind: expected one of {sorted(_STEP_PARSERS)}, got {kind!r}"
            )
        _check_keys(step, _STEP_KEYS[kind], where)
        try:
            steps.append(_STEP_PARSERS[kind](step, d, where))
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from exc
    gens = [i for i, step in enumerate(steps) if getattr(step, "generator", None) is not None]
    if gens:
        unitaries = one_body_unitaries(np.stack([steps[i].generator for i in gens]),
                                       [steps[i].tau for i in gens])
        for i, u in zip(gens, unitaries):
            steps[i] = Rotate(unitary=u)
    return Circuit(modes=d, electrons=n, steps=tuple(steps))


def load_circuit(path):
    """Parse a circuit document from a file."""
    return parse_circuit(_read_text(path))


def _check_term_stack(stack, wheres):
    """Raise ParseError for the first term of a (T, D, N) stack of state
    file orbitals that the SlaterState constructor would refuse, named by
    its key in wheres; else return the largest deviation."""
    fault, top = orthonormal_fault(stack)
    if fault is not None:
        i, message = fault
        raise ParseError(f"{wheres[i]}: {message}")
    return top


def load_state_sum(path):
    """Read a state file, normalized: "modes", "electrons" and exactly one
    of "orbitals" (with an optional "amplitude") and "terms" (each with
    "orbitals" and an optional "coefficient"); any other key is an error.
    Every term's orbitals are parsed into one (T, D, N) stack and checked
    by one orthonormality check, which also sets the sum's Gram bound;
    the first failing term in file order raises, named by its key
    ("orbitals" or "terms[i].orbitals").  A sum whose norm overflows is
    first divided by its largest |c a|."""
    doc = _document(_read_text(path))
    d, n = _header(doc, _STATE_KEYS, ("modes", "electrons"))
    if "orbitals" in doc and "terms" in doc:
        raise ParseError("state file takes 'orbitals' or 'terms', not both")
    raw_terms = []
    if "orbitals" in doc:
        amp = _complex_from_json(doc.get("amplitude", 1.0), "amplitude")
        raw_terms.append((amp, doc["orbitals"], "orbitals"))
    elif "terms" in doc:
        if "amplitude" in doc:
            raise ParseError("'amplitude' goes with 'orbitals'; a term takes 'coefficient'")
        if not isinstance(doc["terms"], list) or not doc["terms"]:
            raise ParseError("terms: expected a nonempty list")
        for i, term in enumerate(doc["terms"]):
            if not isinstance(term, dict) or "orbitals" not in term:
                raise ParseError(f"terms[{i}]: expected an object with 'orbitals'")
            _check_keys(term, _TERM_KEYS, f"terms[{i}]")
            coeff = _complex_from_json(term.get("coefficient", 1.0), f"terms[{i}].coefficient")
            raw_terms.append((coeff, term["orbitals"], f"terms[{i}].orbitals"))
    else:
        raise ParseError("state file needs 'orbitals' or 'terms'")
    stack = np.empty((len(raw_terms), d, n), dtype=complex)
    wheres = [where for *_, where in raw_terms]
    for i, (_, rows, where) in enumerate(raw_terms):
        try:
            stack[i] = _matrix_from_json(rows, (d, n), where)
        except ParseError:
            _check_term_stack(stack[:i], wheres)  # an earlier term's fault comes first
            raise
    gram_err = measured_gram_err(_check_term_stack(stack, wheres), d, n)
    coeffs = [c for c, *_ in raw_terms]
    ssum = SlaterSum._stacked(coeffs, [1.0 + 0.0j] * len(coeffs), stack, DEFAULT_MAX_TERMS,
                              gram_err=gram_err)
    if not np.isfinite(ssum.norm_sq):  # |c|^2 overflowed, so c / max |c| first
        factor = 1.0 / max(abs(c) for c in ssum.coeffs)
        ssum = SlaterSum._stacked([c * factor for c in ssum.coeffs], ssum.amps, ssum.orbitals,
                                  DEFAULT_MAX_TERMS, gram_err=gram_err)
    nrm = np.sqrt(ssum.norm_sq)  # sum_norm(ssum): sqrt undoes the square exactly
    if nrm < ZERO_STATE_TOL:
        raise ParseError("state file describes a zero state")
    return scale_sum(ssum, 1.0 / nrm)
