"""Single Slater determinant states and their elementary operations.

A state is a D x N matrix of orthonormal orbital columns plus a complex
global amplitude.  One-body evolution rotates the columns, single-mode
occupation measurements use the in/out decomposition of the measured
mode against the filled span, and every operation keeps the state in
determinant form.

Convention, locked by a golden test against the dense simulator: a
single-particle unitary V acts on an orbital column c as V @ c, and mode
index m corresponds to component m of a column (0-based).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadDimensions,
    BadIndexSet,
    DimensionMismatch,
    FlosimError,
    ImpossibleOutcome,
    ModesNotOrthogonal,
    NotInSpan,
    NotUnitary,
)
from .linalg import complement_basis, determinant, row_norms

ORTHO_TOL = 1e-10
UNITARY_TOL = 1e-10
SPAN_TOL = 1e-9
PROB_FLOOR = 1e-12
ORTHOGONAL_TOL = 1e-10  # largest |<kappa|lambda>| for two measured modes
ABSENT_TOL = 1e-12
REORTH_TOL = 1e-4  # below this beta, resid / beta loses orthogonality to the span
MODE_NORM_TOL = ORTHO_TOL / 4  # a split child's Gram error is about twice its mode's norm error


@dataclass(frozen=True)
class SlaterState:
    """An N-electron determinant on D modes, times a global amplitude."""

    orbitals: np.ndarray
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        orb = np.asarray(self.orbitals, dtype=complex)
        if orb.ndim != 2:
            raise BadDimensions(f"orbitals must be a matrix, got ndim {orb.ndim}")
        if orb.shape[1] > orb.shape[0]:
            raise BadDimensions(
                f"cannot fill {orb.shape[1]} orbitals with only {orb.shape[0]} modes"
            )
        check_orthonormal(orb[None])
        object.__setattr__(self, "orbitals", orb)
        object.__setattr__(self, "amplitude", complex(self.amplitude))

    @classmethod
    def _checked(cls, orbitals, amplitude):
        """A state whose orbitals passed check_orthonormal or are a row of
        a sum's stack, skipping the checks; amplitude must already be a
        Python complex."""
        state = object.__new__(cls)
        object.__setattr__(state, "orbitals", orbitals)
        object.__setattr__(state, "amplitude", amplitude)
        return state

    @property
    def modes(self):
        return self.orbitals.shape[0]

    @property
    def electrons(self):
        return self.orbitals.shape[1]


@dataclass(frozen=True)
class ModeDecomposition:
    """Split of a mode vector against a determinant's filled span.

    kappa = alpha * in_orbital + beta * out_orbital with alpha, beta real
    and nonnegative; a component is None when its coefficient vanishes.
    """

    alpha: float
    beta: float
    in_orbital: np.ndarray | None
    out_orbital: np.ndarray | None


def check_orthonormal(orbitals):
    """The constructor's check on each state of a (T, D, N) stack: raise for
    the first with a non-finite entry or a deviation ||Phi^H Phi - 1||_F
    (np.linalg.norm's, bit for bit) above ORTHO_TOL."""
    t, _, n = orbitals.shape
    safe = orbitals
    if not np.isfinite(orbitals).all():
        # Zeroed, as their Gram would warn; deviation sqrt(N) then fails them.
        safe = np.where(np.isfinite(orbitals).all(axis=(1, 2))[:, None, None], orbitals, 0)
    gram = (safe.conj().transpose(0, 2, 1) @ safe).reshape(t, n * n)
    gram[:, :: n + 1] -= 1.0  # Phi^H Phi - 1, as subtracting np.eye(n) rounds
    dev = row_norms(gram)
    if (dev > ORTHO_TOL).any():
        i = (dev > ORTHO_TOL).argmax()
        if not np.isfinite(orbitals[i]).all():
            raise FlosimError("orbital entries must be finite")
        raise FlosimError(f"orbital columns not orthonormal, deviation {dev[i]:.3e}")


def check_mode(v, d):
    """Validate a mode vector: length d, finite, unit norm; returns it as ndarray."""
    vec = np.asarray(v, dtype=complex)
    if vec.ndim != 1 or vec.shape[0] != d:
        raise DimensionMismatch(f"mode vector has shape {vec.shape}, expected ({d},)")
    norm = np.linalg.norm(vec)
    if not abs(norm - 1.0) <= MODE_NORM_TOL:
        raise FlosimError(f"mode vector norm {norm:.12f} is not 1")
    return vec


def check_modes(d, *vecs):
    """check_mode on each measured mode vector in turn; two of them, kappa
    then lambda, must also be orthogonal.  Returns the checked vectors."""
    out = tuple(check_mode(v, d) for v in vecs)
    if len(out) == 2 and (ip := abs(np.vdot(*out))) > ORTHOGONAL_TOL:
        raise ModesNotOrthogonal(f"<kappa|lambda> = {ip:.3e}")
    return out


def standard_state(d, n):
    """The determinant filling the first n standard modes out of d."""
    if d < 1 or n < 0 or n > d:
        raise BadDimensions(f"need 0 <= electrons <= modes with modes >= 1, got ({d}, {n})")
    return SlaterState(np.eye(d, n, dtype=complex), 1.0)


def check_unitary(v, d):
    """Validate a finite one-body unitary on d modes; returns it as ndarray."""
    mat = np.asarray(v, dtype=complex)
    if mat.shape != (d, d):
        raise DimensionMismatch(f"unitary has shape {mat.shape}, state has {d} modes")
    if not np.isfinite(mat).all():
        # an inf entry would make the product warn before this raise
        raise NotUnitary("deviation from unitarity nan")
    dev = np.linalg.norm(mat.conj().T @ mat - np.eye(d))
    if not dev <= UNITARY_TOL:
        raise NotUnitary(f"deviation from unitarity {dev:.3e}")
    return mat


def evolve(s, v):
    """Apply a one-body unitary: every orbital column c becomes v @ c."""
    return SlaterState(check_unitary(v, s.modes) @ s.orbitals, s.amplitude)


def decompose_mode(s, kappa):
    """Write kappa as alpha * in + beta * out relative to the filled span."""
    kap = check_mode(kappa, s.modes)
    coeffs = s.orbitals.conj().T @ kap
    alpha = float(np.linalg.norm(coeffs))
    inside = s.orbitals @ coeffs
    resid = kap - inside
    beta = float(np.linalg.norm(resid))
    if ABSENT_TOL < beta < REORTH_TOL:
        # kappa - inside cancels to a residual of relative error about
        # eps / beta along the span; project that part out once more.
        resid = resid - s.orbitals @ (s.orbitals.conj().T @ resid)
        beta = float(np.linalg.norm(resid))
    in_orb = inside / alpha if alpha > ABSENT_TOL else None
    out_orb = resid / beta if beta > ABSENT_TOL else None
    return ModeDecomposition(alpha=alpha, beta=beta, in_orbital=in_orb, out_orbital=out_orb)


def rotate_in_first(s, in_orbital):
    """Re-express the same state so its first orbital is in_orbital.

    The basis change within the filled span is special-unitary, so the
    represented state, global phase included, is untouched: any tiny
    determinant residue of the constructed change of basis is divided
    out of the amplitude.
    """
    t = check_mode(in_orbital, s.modes)
    n = s.electrons
    c = s.orbitals.conj().T @ t
    resid = np.linalg.norm(t - s.orbitals @ c) if n else 1.0
    if n == 0 or resid > SPAN_TOL:
        raise NotInSpan(f"vector is {resid:.3e} away from the filled span")
    c = c / np.linalg.norm(c)
    if n == 1:
        basis_change = c.reshape(1, 1)
    else:
        comp = complement_basis([c], n)
        basis_change = np.column_stack([c.reshape(-1, 1), comp])
        basis_change[:, -1] /= determinant(basis_change)
    d_resid = determinant(basis_change)
    return SlaterState(s.orbitals @ basis_change, s.amplitude / d_resid)


def split_mode(s, vec):
    """Both single-mode occupation projections of s on the mode vector vec
    (an ndarray, as check_mode returns it), from one decomposition and
    one rotation of the filled span.

    Returns (decompose_mode(s, vec), [zero, one]).  Each projection is
    (scale, new_state) with projector(s) == scale * new_state, or None
    when it vanishes; new_state keeps unit norm.  Outcome 1 replaces the
    first orbital by vec, outcome 0 by the in-span vector orthogonal to
    vec.
    """
    dec = decompose_mode(s, vec)
    if dec.in_orbital is None:
        return dec, [(1.0, s), None]
    rot = rotate_in_first(s, dec.in_orbital)
    rest = rot.orbitals[:, 1:]
    one = SlaterState(np.column_stack([vec.reshape(-1, 1), rest]), rot.amplitude)
    if dec.out_orbital is None:
        return dec, [None, (dec.alpha, one)]
    perp = dec.beta * dec.in_orbital - dec.alpha * dec.out_orbital
    zero = SlaterState(np.column_stack([perp.reshape(-1, 1), rest]), rot.amplitude)
    return dec, [(dec.beta, zero), (dec.alpha, one)]


def measure_mode(s, kappa, forced=None, rng=None):
    """Measure the occupation of mode kappa.

    Returns (outcome, probability, post).  The post state is split_mode's
    projection of that outcome, renormalized, so it stays a single
    determinant.  Pass forced=0 or forced=1 to steer the branch, or a
    numpy Generator as rng to sample.
    """
    kap = check_mode(kappa, s.modes)
    if s.electrons == 0:
        if forced == 1:
            raise ImpossibleOutcome("the vacuum never reports an occupied mode")
        return 0, 1.0, s
    dec, children = split_mode(s, kap)
    p1 = dec.alpha ** 2
    p0 = dec.beta ** 2
    if forced is None:
        if rng is None:
            raise ValueError("measure_mode needs forced=0/1 or an rng to sample")
        outcome = 1 if rng.random() < p1 else 0
    else:
        outcome = int(forced)
        if outcome not in (0, 1):
            raise ValueError(f"forced outcome must be 0 or 1, got {forced}")
    prob = p1 if outcome == 1 else p0
    if prob < PROB_FLOOR:
        raise ImpossibleOutcome(f"outcome {outcome} has probability {prob:.3e}")
    return outcome, prob, children[outcome][1]


def annihilate(s, mode):
    """Apply the annihilation operator of the given mode vector.

    The result has one electron fewer and amplitude scaled by the
    overlap of the mode with the filled span; annihilating a mode with
    no filled component returns a zero-amplitude state.
    """
    kap = check_mode(mode, s.modes)
    if s.electrons == 0:
        return SlaterState(s.orbitals, 0.0)
    one = split_mode(s, kap)[1][1]
    if one is None:
        return SlaterState(s.orbitals[:, : s.electrons - 1], 0.0)
    alpha, occupied = one
    return SlaterState(occupied.orbitals[:, 1:], occupied.amplitude * alpha)


def slater_overlap(s1, s2):
    """Inner product <s1|s2> including both amplitudes."""
    if s1.modes != s2.modes:
        raise DimensionMismatch(f"{s1.modes} modes vs {s2.modes}")
    if s1.electrons != s2.electrons:
        return 0.0 + 0.0j
    gram = s1.orbitals.conj().T @ s2.orbitals
    return np.conj(s1.amplitude) * s2.amplitude * determinant(gram)


def occupation_amplitude(s, occupied):
    """Amplitude of the occupation-number basis state with the given modes filled.

    occupied is a strictly increasing sequence of 0-based mode indices of
    length equal to the electron count.
    """
    idx = list(occupied)
    if len(idx) != s.electrons:
        raise BadIndexSet(f"need exactly {s.electrons} indices, got {len(idx)}")
    if any(not isinstance(i, (int, np.integer)) for i in idx):
        raise BadIndexSet("indices must be integers")
    if any(i < 0 or i >= s.modes for i in idx):
        raise BadIndexSet(f"indices must lie in 0..{s.modes - 1}")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise BadIndexSet("indices must be strictly increasing")
    return s.amplitude * determinant(s.orbitals[idx, :])
