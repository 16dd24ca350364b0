"""Single Slater determinant states and their elementary operations.

A state is a D x N matrix of orthonormal orbital columns plus a complex
global amplitude.  One-body evolution rotates the columns, and every
operation keeps the state in determinant form.  split_pair is the one
split kernel: it rotates each filled span of a stack by Householder
reflectors, one per measured mode (one mode or two), and reads every
occupation projection off the rotated span.  Single-mode measurement and
annihilation take it on one state; decompose_mode and rotate_in_first
stay as the per-term references the tests hold it to.

Inputs are validated where they enter: the constructor, check_mode(s),
check_unitary and the public per-state evolve, decompose_mode and
rotate_in_first.  Inside a step nothing re-checks what a checked input
already guarantees.  split_pair checks the leaves it builds, and the
rotated span only when the stack's carried Gram bound (gram_err) cannot
show that it passes: the leaf check measures the bound, and a rotation
adds its unitary's measured deviation and a rounding allowance
(rotated_gram_err), so a run's split takes one Gram product.

Convention, locked by a golden test against the dense simulator: a
single-particle unitary V acts on an orbital column c as V @ c, and mode
index m corresponds to component m of a column (0-based).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ABSENT_TOL, MODE_NORM_TOL, ORTHO_TOL, ORTHOGONAL_TOL, PROB_FLOOR, SPAN_TOL, UNIT_ROUND,
    UNITARY_TOL,
    BadDimensions, BadIndexSet, DimensionMismatch, FlosimError, ImpossibleOutcome,
    ModesNotOrthogonal, NotInSpan, NotUnitary,
)
from .linalg import determinant, row_norms


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


def orthonormal_fault(orbitals):
    """(fault, top) for a (T, D, N) stack: fault is (i, message) for the
    first state with a non-finite entry or a deviation ||Phi^H Phi - 1||_F
    (np.linalg.norm's, bit for bit) above ORTHO_TOL or not finite, message
    what the constructor raises for it, or None if every state passes;
    top is the largest deviation, 0 for no state."""
    t, _, n = orbitals.shape
    # A non-finite entry or an overflowing Gram product makes the
    # deviation inf or NaN, which fails the state without a warning.
    with np.errstate(all="ignore"):
        gram = (orbitals.conj().transpose(0, 2, 1) @ orbitals).reshape(t, n * n)
        gram[:, :: n + 1] -= 1.0  # Phi^H Phi - 1, as subtracting np.eye(n) rounds
        dev = row_norms(gram)
    top = float(dev.max(initial=0.0))  # NaN if any deviation is
    if top <= ORTHO_TOL:
        return None, top
    i = int((~(dev <= ORTHO_TOL)).argmax())
    if not np.isfinite(orbitals[i]).all():
        return (i, "orbital entries must be finite"), top
    return (i, f"orbital columns not orthonormal, deviation {dev[i]:.3e}"), top


def check_orthonormal(orbitals):
    """The constructor's check on each state of a (T, D, N) stack: raise
    FlosimError for the first that orthonormal_fault finds, else return
    the largest deviation."""
    fault, top = orthonormal_fault(orbitals)
    if fault is not None:
        raise FlosimError(fault[1])
    return top


# Rounding allowances of a stack's carried Gram bound (SlaterSum.gram_err).
# The bound b of a (T, D, N) stack keeps b >= G + gram_round(D, N), G
# the exact max ||Phi^H Phi - 1||_F of the stored stack, so it bounds
# every measurement of it too.  Each allowance is a worst-case bound
# from Higham, Accuracy and Stability of Numerical Algorithms (2nd ed.,
# 2002): a complex inner product of length m errs by at most
# sqrt(2) gamma_(m+2) |x|^T |y| (section 3.6), gamma_k = k u / (1 - k u)
# <= 1.01 k u, whatever the summation order or FMA; times a margin of
# at least 1.39.  Each holds for deviations up to 1e-6, far past ORTHO_TOL,
# beyond which the next split measures anyway.


def gram_round(d, n):
    """How far a measured deviation (orthonormal_fault's) of a D x N
    matrix may be from its exact one: 2 (D + 2) N u.

    Each Gram entry errs by at most sqrt(2) gamma_(D+2) |phi_i| |phi_j|,
    so the error matrix has Frobenius norm at most sqrt(2) gamma_(D+2)
    trace(Phi^H Phi) <= sqrt(2) gamma_(D+2) N (1 + G).  Subtracting 1 from
    a diagonal entry in [1/2, 2] is exact (Sterbenz), and the norm of N^2
    complex entries adds a relative gamma_(2 N^2 + 1) of a deviation G of
    at most 1e-6: below (D + 2) N u / 100 as N <= D.  Sum: at most
    1.44 (D + 2) N u."""
    return 2.0 * (d + 2) * n * UNIT_ROUND


def measured_gram_err(top, d, n):
    """The carried bound of a (T, D, N) stack whose largest measured
    deviation is top: the exact one is within gram_round of top, and a
    later measurement within gram_round of that."""
    return top + 2.0 * gram_round(d, n)


def rotated_gram_err(bound, dev, k, n):
    """The carried bound after a unitary V on k rows (k = D, or 2 for a
    pair block) acts on a stack of N columns and bound b:
    b + (dev + gram_round(k, k) + 4 (k + 2) sqrt(k N) u) (1 + b), dev the
    deviation check_unitary measured on V.

    In exact arithmetic (V Phi)^H V Phi - 1 = (Phi^H Phi - 1) +
    Phi^H (V^H V - 1) Phi, and ||Phi||_2^2 <= 1 + G, so the deviation grows
    by at most (1 + G) ||V^H V - 1||_F, which V's measured dev bounds
    within gram_round(k, k) (a pair block's equals its embedding's).
    The computed product is V Phi + E with |E| <= sqrt(2) gamma_(k+2)
    |V| |Phi|, so ||E||_F <= sqrt(2) gamma_(k+2) ||V||_F ||Phi||_F, about
    sqrt(2) gamma_(k+2) sqrt(k N (1 + G)), and E adds at most
    2 ||V Phi||_2 ||E||_F + ||E||_F^2 <= 2.86 (k + 2) sqrt(k N) (1 + G) u.
    An unknown bound (inf) stays inf."""
    product = 4.0 * (k + 2) * math.sqrt(k * n) * UNIT_ROUND
    return bound + (dev + gram_round(k, k) + product) * (1.0 + bound)


def reflect_round(n):
    """What split_pair's two Householder updates may add to the deviation
    of a span of N columns: 40 (N + 3) sqrt(N) u, times 1 + G.

    _reflect applies 1 - s w w^H, w = c + ph e1, |w|^2 in [2, 4], s = 2 /
    |w|^2, to each row x of the span (Higham's lemmas 19.2-19.3, in the
    form computed here): x w errs by sqrt(2) gamma_(N+2) |x| |w|, s by
    gamma_(2N+1), the product p s w_j by sqrt(2) gamma_2 + u and the
    subtraction by u, so with s |w|^2 = 2 the row errs by at most
    (7 N + 17) u |x| against the exactly unitary reflector of the
    computed w; scaling the first column by the computed unit ph (|ph| = 1
    within 3 u) errs by 6 u of that column.  The two updates, the second
    on N - 1 columns, so err by at most (14 N + 39) sqrt(N (1 + G)) u in
    Frobenius norm, and an error E adds at most 2 ||Phi||_2 ||E||_F +
    ||E||_F^2 to the exact rotation's deviation, the span's own."""
    return 40.0 * (n + 3) * math.sqrt(n) * UNIT_ROUND


def check_mode(v, d, tol=MODE_NORM_TOL):
    """Validate a mode vector: length d, finite, norm within tol of 1;
    returns it as ndarray."""
    vec = np.asarray(v, dtype=complex)
    if vec.ndim != 1 or vec.shape[0] != d:
        raise DimensionMismatch(f"mode vector has shape {vec.shape}, expected ({d},)")
    norm = np.linalg.norm(vec)
    if not abs(norm - 1.0) <= tol:
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


def check_unitary(v, d, pair=None):
    """Validate a finite one-body unitary on d modes; returns (matrix,
    dev), the matrix as ndarray and dev its measured ||V^H V - 1||_F.

    With pair (i, j), v is the 2x2 block of a rotation acting on sites i
    and j alone, as the two-site rotate shorthand keeps it
    (simulate.Rotate.on_pair): i and j must be two sites of d, and the
    block is checked at O(1) cost.
    """
    mat = np.asarray(v, dtype=complex)
    if mat.shape != ((d, d) if pair is None else (2, 2)):
        whole = "" if pair is None else ", and a pair rotation takes a 2x2 block"
        raise DimensionMismatch(f"unitary has shape {mat.shape}, state has {d} modes{whole}")
    if pair is not None and not (len(set(pair)) == 2 and all(0 <= k < d for k in pair)):
        sites = ", ".join(map(str, pair))
        raise DimensionMismatch(f"pair ({sites}) does not name two sites of {d} modes")
    if not np.isfinite(mat).all():
        # an inf entry would make the product warn before this raise
        raise NotUnitary("deviation from unitarity nan")
    dev = np.linalg.norm(mat.conj().T @ mat - np.eye(len(mat)))
    if not dev <= UNITARY_TOL:
        raise NotUnitary(f"deviation from unitarity {dev:.3e}")
    return mat, float(dev)


def rotate_orbitals(mat, orbitals, pair=None):
    """A checked unitary mat applied to the orbital columns of a (D, N)
    matrix or a (T, D, N) stack: mat @ orbitals.  With pair (i, j), mat
    is its 2x2 block: rows i and j become mat @ those rows, and every
    other row is copied as it is."""
    if pair is None:
        return mat @ orbitals
    rows = list(pair)
    out = orbitals.copy()
    out[..., rows, :] = mat @ orbitals[..., rows, :]
    return out


def evolve(s, v, pair=None):
    """Apply a one-body unitary: every orbital column c becomes v @ c.
    pair is check_unitary's."""
    rotated = rotate_orbitals(check_unitary(v, s.modes, pair)[0], s.orbitals, pair)
    check_orthonormal(rotated[None])
    return SlaterState._checked(rotated, s.amplitude)


def decompose_mode(s, kappa):
    """Write kappa as alpha * in + beta * out relative to the filled span."""
    kap = check_mode(kappa, s.modes)
    coeffs = s.orbitals.conj().T @ kap
    alpha = float(np.linalg.norm(coeffs))
    inside = s.orbitals @ coeffs
    # kappa - inside keeps a part along the span (cancellation, and alpha
    # times the orbitals' Gram error) that out = resid / beta would grow by
    # 1 / beta at every split; projecting once more leaves second order.
    resid = kap - inside
    resid = resid - s.orbitals @ (s.orbitals.conj().T @ resid)
    beta = float(np.linalg.norm(resid))
    in_orb = inside / alpha if alpha > ABSENT_TOL else None
    out_orb = resid / beta if beta > ABSENT_TOL else None
    return ModeDecomposition(alpha=alpha, beta=beta, in_orbital=in_orb, out_orbital=out_orb)


def rotate_in_first(s, in_orbital):
    """Re-express the same state so its first orbital is in_orbital, by
    split_pair's first reflector (_reflect).  The basis change's determinant,
    a phase known in closed form, is divided out of the amplitude, so the
    represented state, global phase included, is untouched.

    The target's norm is checked at ORTHO_TOL, not a measured mode's
    MODE_NORM_TOL: decompose_mode's in_orbital is built from the span,
    and a span the constructor accepts (Gram deviation up to ORTHO_TOL)
    leaves it a unit vector only to about ORTHO_TOL / 2."""
    t = check_mode(in_orbital, s.modes, ORTHO_TOL)
    n = s.electrons
    c = s.orbitals.conj().T @ t
    resid = np.linalg.norm(t - s.orbitals @ c) if n else 1.0
    if n == 0 or resid > SPAN_TOL:
        raise NotInSpan(f"vector is {resid:.3e} away from the filled span")
    rot, ph = _reflect(np.ascontiguousarray(s.orbitals)[None], (c / np.linalg.norm(c))[None])
    return SlaterState(rot[0], s.amplitude / complex(ph[0]))


def _reflect(phi, c):
    """Each span of a (T, D, N) stack phi rotated to put phi c first, for
    unit rows c of span coordinates: (rot, ph), rot = phi H diag(-ph, 1,
    ..., 1) with H = 1 - 2 w w^H / |w|^2 the Householder reflector of
    w = c + ph e1, ph = c0 / |c0| (1 when c0 = 0).  H c = -ph e1, so rot's
    first column is phi c and the basis change has determinant ph."""
    c0 = c[:, 0]
    ph = np.ones_like(c0)
    np.divide(c0, abs(c0), out=ph, where=c0 != 0.0)
    w = c.copy()
    w[:, 0] += ph
    scale = 2.0 / (np.vecdot(w.real, w.real) + np.vecdot(w.imag, w.imag))
    pw = (phi @ w[:, :, None])[:, :, 0] * scale[:, None]
    rot = phi - pw[:, :, None] * w.conj()[:, None, :]
    rot[:, :, 0] *= -ph[:, None]
    return rot, ph


# The (lambda, kappa) occupations of each total occupation's leaves, in
# the order split_pair lists them.
PAIR_PATTERNS = {0: ((0, 0),), 1: ((1, 0), (0, 1)), 2: ((1, 1),)}


def _reflect_onto(phi, vec):
    """Each span of a (T, D, N) stack phi rotated by _reflect to put
    vec's normalized in-span part first: (rot, ph, alpha) with alpha the
    norm of vec's span coordinates, or 0 where that is at most ABSENT_TOL
    (or NaN) and the span is left as it is, ph = 1.  The target, phi's
    in-span part over alpha, is built from the span, so it is not checked
    again: an orthonormal span keeps it a unit vector in the span, and
    one that is not fails split_pair's check of the rotated span, whose
    Gram deviation a unitary change of basis keeps."""
    phi_h = phi.conj().transpose(0, 2, 1)
    coeffs = phi_h @ vec
    alpha = _norms(coeffs)
    present = alpha > ABSENT_TOL
    every = present.all()  # then the same values without the mask's calls
    inside = phi @ coeffs[:, :, None]
    target = inside / (alpha if every else np.where(present, alpha, np.inf))[:, None, None]
    c = (phi_h @ target)[:, :, 0]
    norms = row_norms(c)
    if not every:
        c[~present], norms[~present] = 0.0, 1.0
        alpha = np.where(present, alpha, 0.0)
    rot, ph = _reflect(phi, c / norms[:, None])
    return rot, ph, alpha


def _outside(q, q_h, x):
    """The columns of each x of a (T, D, m) stack projected out of the
    span of its q (q_h its conjugate transpose) twice, as decompose_mode
    projects its residual."""
    for _ in range(2):
        x = x - q @ (q_h @ x)
    return x


def _norms(x):
    """The norms of x's rows: one complex vecdot, a third of row_norms'
    time on strided rows, rounding unlike np.linalg.norm."""
    return np.sqrt(np.vecdot(x, x).real)


def _unit(x, norms):
    """x's rows over their norms, where a norm is above ABSENT_TOL."""
    return x / np.where(norms > ABSENT_TOL, norms, 1.0)[:, None]


def split_pair(amps, orbitals, lam, kap, want, gram_err=math.inf):
    """The occupation projections of every state of a (T, D, N) orbital
    stack on the orthogonal modes lam and kap, or on kap alone when lam
    is None, from one rotation of each span, building only the leaves of
    the total occupations in want (increasing).  Returns (leaves, stack,
    bound): per outcome of want a list of (term, scale, amplitude,
    pattern), pattern the leaf's (lambda, kappa) occupations (lambda's
    0 when lam is None), pattern by pattern, (1, 0) before (0, 1), then
    by term, and the leaves' orbitals as the stack's rows in that order,
    each pattern's one slice, and the leaves' carried Gram bound
    (measured_gram_err); a state's projection is the sum of its scaled
    leaves.

    Two reflectors (_reflect_onto) rotate the span to [f0, f1, R], R
    orthogonal to both modes, f0 = a lam + b kap + o0 and f1 = c kap +
    o1 with a, c >= 0.  The leaves of f0 ^ f1 are (1, 1): a c [lam, kap,
    R]; (1, 0): a |o1| [lam, o1^, R]; (0, 1): |u| [kap, u^, R] with u =
    b o1 - c o0; (0, 0): |o0| |o1'| [o0^, o1'^, R] with o1' o1 out of o0;
    x^ = x / |x|.  N = 1 has no f1: a [lam], |b| [b^ kap], |o0| [o0^].
    kap alone takes the first reflector only, f0 = a kap + o0, and its
    leaves are (0, 1): a [kap, R] and (0, 0): |o0| [o0^, R].  N = 0
    leaves each state as its (0, 0) leaf.  Each new column is projected
    out of [lam, kap, R] twice, a leaf of scale at most ABSENT_TOL is not
    built, and the amplitude divides by the reflector phases.

    check_orthonormal runs on the stack of leaves, and first on the
    rotated span unless gram_err, the stack's carried bound
    (SlaterSum.gram_err; inf when unknown), shows that it passes: the
    rotation keeps the span's deviation up to reflect_round.  Each raises
    for the first state that fails it, so a stack of unknown or too large
    a bound raises as if every split measured its span.  A reflector's
    target, built from its span, is not checked (_reflect_onto).
    """
    t, d, n = orbitals.shape
    if n == 0:
        kept = list(range(t)) if 0 in want else []
        return ([[(i, 1.0, amps[i], (0, 0)) for i in kept] if o == 0 else [] for o in want],
                orbitals[kept], 0.0)
    modes = (kap,) if lam is None else (lam, kap)
    k = len(modes)
    two = k == 2 and n > 1  # a second reflector, and f1
    rot, ph, a = _reflect_onto(orbitals, modes[0])
    ph2 = [1.0] * t
    if two:
        rot[:, :, 1:], ph2, c = _reflect_onto(rot[:, :, 1:], kap)
        ph2 = ph2.tolist()
    if not gram_err + reflect_round(n) * (1.0 + gram_err) <= ORTHO_TOL:
        check_orthonormal(rot)
    q = np.empty((t, d, max(n, k)), dtype=complex)
    q[:, :, :k], q[:, :, k:] = np.transpose(modes), rot[:, :, k:]
    # Per pattern its scales and the columns (index, rows) its leaves put
    # in place of those of [lam, kap, R]; rows are per state or one vector.
    leaf = {(1, 1): (a * c, ())} if two else {}
    if want != (k,):  # outcome k alone, every mode filled, needs no new column
        q_h = q.conj().transpose(0, 2, 1)
        b = np.vecdot(kap, rot[:, :, 0])  # kap^H f0, row by row
        o = _outside(q, q_h, rot[:, :, :k])
        o0, o1 = o[:, :, 0], o[:, :, -1]
        n0 = _norms(o0)
        u0 = _unit(o0, n0)
    if lam is None:
        leaf[0, 1] = (a, ())
        if 0 in want:
            leaf[0, 0] = (n0, ((0, u0),))
    elif n == 1 and want != (2,):
        leaf[1, 0] = (a, ())
        leaf[0, 1] = (abs(b), ((0, _unit(b[:, None] * kap, abs(b))),))
        leaf[0, 0] = (n0, ((0, u0),))
    if two and 1 in want:
        n1 = _norms(o1)
        leaf[1, 0] = (a * n1, ((1, _unit(o1, n1)),))
        u = _outside(q, q_h, (b[:, None] * o1 - c[:, None] * o0)[:, :, None])[:, :, 0]
        nu = _norms(u)
        leaf[0, 1] = (nu, ((0, kap), (1, _unit(u, nu))))
    if two and 0 in want:
        # o1 projected out of [o0^, lam, kap, R] twice
        q0 = np.empty((t, d, q.shape[2] + 1), dtype=complex)
        q0[:, :, 0], q0[:, :, 1:] = u0, q
        p = _outside(q0, q0.conj().transpose(0, 2, 1), o1[:, :, None])[:, :, 0]
        n1p = _norms(p)
        leaf[0, 0] = (np.where(n0 > ABSENT_TOL, n0 * n1p, 0.0), ((0, u0), (1, _unit(p, n1p))))
    # Per pattern, in listing order, its scales and the terms whose leaf is
    # built; one index gathers the stack, and each pattern fills its slice.
    scales = {p: leaf[p][0].tolist() for o in want for p in PAIR_PATTERNS[o] if p in leaf}
    terms = {p: [i for i, x in enumerate(sc) if x > ABSENT_TOL] for p, sc in scales.items()}
    stack = q[[i for lanes in terms.values() for i in lanes], :, :n]
    start = 0
    for p, lanes in terms.items():
        rows, start = slice(start, start + len(lanes)), start + len(lanes)
        for col, value in leaf[p][1]:
            stack[rows, :, col] = value if value.ndim == 1 else value[lanes]
    bound = measured_gram_err(check_orthonormal(stack), d, n)
    amps = [amp / d0 / d1 for amp, d0, d1 in zip(amps, ph.tolist(), ph2)]
    return [[(i, scales[p][i], amps[i], p) for p in PAIR_PATTERNS[o] if p in terms
             for i in terms[p]] for o in want], stack, bound


def measure_mode(s, kappa, forced=None, rng=None):
    """Measure the occupation of mode kappa.

    Returns (outcome, probability, post).  The post state is that
    outcome's split_pair leaf, renormalized, so it stays a single
    determinant, and the probability its scale squared.  Pass forced=0
    or forced=1 to steer the branch, or a numpy Generator as rng to
    sample.
    """
    kap = check_mode(kappa, s.modes)
    if s.electrons == 0:
        if forced == 1:
            raise ImpossibleOutcome("the vacuum never reports an occupied mode")
        return 0, 1.0, s
    orbitals = np.ascontiguousarray(s.orbitals)[None]
    leaves, stack, _ = split_pair([s.amplitude], orbitals, None, kap, (0, 1))
    probs = [out[0][1] ** 2 if out else 0.0 for out in leaves]
    if forced is None:
        if rng is None:
            raise ValueError("measure_mode needs forced=0/1 or an rng to sample")
        outcome = 1 if rng.random() < probs[1] else 0
    else:
        outcome = int(forced)
        if outcome not in (0, 1):
            raise ValueError(f"forced outcome must be 0 or 1, got {forced}")
    prob = probs[outcome]
    if prob < PROB_FLOOR:
        raise ImpossibleOutcome(f"outcome {outcome} has probability below {PROB_FLOOR:g}")
    row = len(leaves[0]) * outcome  # outcome 1's leaf follows outcome 0's
    return outcome, prob, SlaterState._checked(stack[row], leaves[outcome][0][2])


def annihilate(s, mode):
    """Apply the annihilation operator of the given mode vector.

    The result has one electron fewer and amplitude scaled by the
    overlap of the mode with the filled span: split_pair's outcome-1 leaf
    without its first column, the mode.  Annihilating a mode with no
    filled component returns a zero-amplitude state.
    """
    kap = check_mode(mode, s.modes)
    if s.electrons == 0:
        return SlaterState(s.orbitals, 0.0)
    orbitals = np.ascontiguousarray(s.orbitals)[None]
    (ones,), stack, _ = split_pair([s.amplitude], orbitals, None, kap, (1,))
    if not ones:
        return SlaterState(s.orbitals[:, : s.electrons - 1], 0.0)
    ((_, alpha, amp, _),) = ones
    return SlaterState(stack[0, :, 1:], amp * alpha)


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
