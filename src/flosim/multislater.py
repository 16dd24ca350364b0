"""Sums of Slater determinants, two-mode charge measurements, and the
Slater-rank machinery for two-fermion states.

A two-mode measurement asks for the total occupation (0, 1 or 2) of two
orthogonal modes.  Outcomes 0 and 2 map each determinant to at most one
determinant; outcome 1 is a sum of two projector products and can double
the term count, which is why sums are needed at all.  Merged-outcome
groupings concatenate the projected term lists; the {0,2} vs {1} parity
grouping is the one that forces genuine growth.

Projections are applied in exact operator form, term by term, so the
relative phases between determinants are preserved to machine precision.
"""

import cmath
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadContext,
    DimensionMismatch,
    FlosimError,
    ImpossibleOutcome,
    ModesNotOrthogonal,
    TermCapExceeded,
    WrongParticleNumber,
)
from .linalg import PAIR_THRESHOLD, antisym_canonical, pfaffian, require_finite, row_norms
from .slater import (
    ABSENT_TOL,
    ORTHO_TOL,
    ORTHOGONAL_TOL,
    PROB_FLOOR,
    REORTH_TOL,
    SPAN_TOL,
    SlaterState,
    check_mode,
    check_unitary,
    decompose_mode,
    evolve,
    rotate_in_first,
    annihilate,
    standard_state,
    valid_stack,
)

PRUNE_TOL = 1e-12
DEFAULT_MAX_TERMS = 1024
SPLIT_BATCH = 32  # most terms per stacked split, bounding its scratch arrays

GROUPINGS = {
    "012": ((0,), (1,), (2,)),
    "01/2": ((0, 1), (2,)),
    "0/12": ((0,), (1, 2)),
    "02/1": ((0, 2), (1,)),
}


def group_label(group):
    return "".join(str(o) for o in group)


@dataclass(frozen=True)
class SlaterSum:
    """A linear combination of determinants with identical D and N.

    Terms whose total weight |coefficient * amplitude| is at or below
    the prune tolerance are dropped on construction; a non-finite
    coefficient raises FlosimError and exceeding max_terms raises
    TermCapExceeded.  modes/electrons may be given explicitly for
    the empty (zero-state) sum.
    """

    terms: tuple = field(default=())
    modes: int | None = None
    electrons: int | None = None
    max_terms: int = DEFAULT_MAX_TERMS

    def __post_init__(self):
        kept = []
        for i, (coeff, state) in enumerate(self.terms):
            coeff = complex(coeff)
            if not cmath.isfinite(coeff):
                raise FlosimError(f"term {i}: coefficient {coeff} is not finite")
            if abs(coeff * state.amplitude) > PRUNE_TOL:
                kept.append((coeff, state))
        modes = self.modes
        electrons = self.electrons
        for _, state in kept:
            if modes is None:
                modes = state.modes
            if electrons is None:
                electrons = state.electrons
            if state.modes != modes or state.electrons != electrons:
                raise DimensionMismatch(
                    "all terms of a sum must share the same modes and electrons"
                )
        if modes is None or electrons is None:
            raise DimensionMismatch("an empty sum needs explicit modes and electrons")
        if len(kept) > self.max_terms:
            raise TermCapExceeded(f"{len(kept)} terms exceed the cap of {self.max_terms}")
        object.__setattr__(self, "terms", tuple(kept))
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "electrons", electrons)

    @classmethod
    def from_state(cls, state, max_terms=DEFAULT_MAX_TERMS):
        return cls(((1.0 + 0.0j, state),), state.modes, state.electrons, max_terms)

    @property
    def term_count(self):
        return len(self.terms)


def _overlap_total(s):
    """Sum of conj(c_i) c_j <Phi_i|Phi_j> over all ordered term pairs.

    Bitwise equal to the double loop over slater_overlap in row-major
    pair order.  Row i takes one stacked Gram product against every term
    and one batched determinant; both round exactly like the per-pair
    calls.  Pair weights use Python's scalar complex multiply in the
    order (conj(c_i) c_j) ((conj(a_i) a_j) det_ij), since numpy's
    vectorized complex multiply rounds differently, and are added one
    after another, not by np.sum's pairwise tree.  Hermitian symmetry is
    not used: with pivoting, det(G^H) is not bitwise conj(det G).
    """
    if not s.terms:
        return 0.0 + 0.0j
    coeffs = [c for c, _ in s.terms]
    amps = [st.amplitude for _, st in s.terms]
    psi = np.array([st.orbitals for _, st in s.terms])
    # Slot 0 carries the running total, slots 1.. the current row's weights.
    acc = np.zeros(len(coeffs) + 1, dtype=complex)
    for c, st in s.terms:
        gram = st.orbitals.conj().T @ psi
        require_finite(gram)
        dets = np.linalg.det(gram).tolist()
        ci, ai = c.conjugate(), st.amplitude.conjugate()
        acc[1:] = [ci * cj * (ai * aj * d) for cj, aj, d in zip(coeffs, amps, dets)]
        acc[0] = np.add.accumulate(acc)[-1]
    return complex(acc[0])


def sum_norm(s):
    """Norm of the represented state, via pairwise determinant overlaps.

    Costs O(T^2 (D N^2 + N^3)) for T terms of N electrons on D modes.
    """
    return float(np.sqrt(max(_overlap_total(s).real, 0.0)))


def scale_sum(s, factor):
    return SlaterSum(
        tuple((c * factor, st) for c, st in s.terms), s.modes, s.electrons, s.max_terms
    )


def evolve_sum(s, v):
    """Rotate every term by v: one unitarity check, then one stacked matmul
    per batch of SPLIT_BATCH terms, bitwise the per-term evolve."""
    if not s.terms:
        return s
    mat = check_unitary(v, s.modes)
    terms = []
    for start in range(0, len(s.terms), SPLIT_BATCH):
        batch = s.terms[start : start + SPLIT_BATCH]
        rotated = mat @ np.array([st.orbitals for _, st in batch])
        if not valid_stack(rotated):
            # Term by term, the first failing state raises its own message.
            terms = [(c, evolve(st, mat)) for c, st in s.terms]
            break
        terms.extend(
            (c, SlaterState._checked(orb, st.amplitude))
            for (c, st), orb in zip(batch, rotated)
        )
    return SlaterSum(tuple(terms), s.modes, s.electrons, s.max_terms)


def _split(state, vec):
    """Both single-mode occupation projections [zero, one] of a determinant,
    from one decomposition and one rotation of the filled span.

    Each entry is (scale, new_state) with projector(state) == scale *
    new_state, or None when it vanishes; new_state keeps unit norm.
    """
    dec = decompose_mode(state, vec)
    if dec.in_orbital is None:
        return [(1.0, state), None]
    rot = rotate_in_first(state, dec.in_orbital)
    rest = rot.orbitals[:, 1:]
    one = SlaterState(np.column_stack([vec.reshape(-1, 1), rest]), rot.amplitude)
    if dec.out_orbital is None:
        return [None, (dec.alpha, one)]
    perp = dec.beta * dec.in_orbital - dec.alpha * dec.out_orbital
    zero = SlaterState(np.column_stack([perp.reshape(-1, 1), rest]), rot.amplitude)
    return [(dec.beta, zero), (dec.alpha, one)]


def _split_each(states, vec):
    return [_split(st, vec) for st in states]


class _StackCheckFailed(FlosimError):
    """A state in a stacked split failed a check; the caller redoes the
    split term by term, where the first failing term raises."""


def _split_stack(states, vec):
    """_split of every state on the same mode vector, bit for bit.

    Batches of up to SPLIT_BATCH terms go through one stacked
    decomposition and rotation each (_split_batch).  A lone term, or
    terms with at most one electron (no rotation to share), take _split,
    which costs less there.
    """
    if len(states) < 2 or states[0].electrons <= 1:
        return _split_each(states, vec)
    out = []
    for start in range(0, len(states), SPLIT_BATCH):
        out.extend(_split_batch(states[start : start + SPLIT_BATCH], vec))
    return out


def _split_batch(states, vec):
    """decompose_mode, rotate_in_first and _split's two children for a
    stack of states with N >= 2, each step one stacked numpy call.

    Stacked gemv, matmul, svd and det, broadcast divisions and row_norms
    round like their per-slice calls, so every result is bitwise _split's.
    Every check _split makes (the mode norm, NotInSpan, determinant and
    constructor finiteness, orthonormality) runs once per stack with the
    same tolerance and raises _StackCheckFailed.  Terms whose orbitals are
    not C-contiguous (BLAS rounds other layouts differently) or whose beta
    falls in the re-orthogonalization band take _split itself.
    """
    phi = np.array([st.orbitals for st in states])
    phi_h = phi.conj().transpose(0, 2, 1)
    coeffs = phi_h @ vec
    alpha = row_norms(coeffs)
    inside = (phi @ coeffs[:, :, None])[:, :, 0]
    resid = vec - inside
    beta = row_norms(resid)
    alphas, betas = alpha.tolist(), beta.tolist()
    contiguous = np.array([st.orbitals.flags.c_contiguous for st in states])
    per_term = ~contiguous | ((ABSENT_TOL < beta) & (beta < REORTH_TOL))
    lanes = np.flatnonzero(~per_term & (alpha > ABSENT_TOL))
    out = [[(1.0, st), None] for st in states]
    if lanes.size:
        rows = _rows(lanes, len(states))
        phi, phi_h, a, b = phi[rows], phi_h[rows], alpha[rows, None], beta[rows, None]
        in_orb = inside[rows] / a
        # rotate_in_first(state, in_orb)
        c = phi_h @ in_orb[:, :, None]
        off_norm = abs(row_norms(in_orb) - 1.0) > ORTHO_TOL
        if off_norm.any() or (row_norms(in_orb - (phi @ c)[:, :, 0]) > SPAN_TOL).any():
            raise _StackCheckFailed
        c = c[:, :, 0] / row_norms(c[:, :, 0])[:, None]
        # complement_basis([c], n): the last n - 1 rows of the svd's vh.
        comp = np.linalg.svd(c.conj()[:, None, :], full_matrices=True)[2][:, 1:]
        change = np.concatenate([c[:, :, None], comp.conj().transpose(0, 2, 1)], axis=2)
        if not np.isfinite(change).all():
            raise _StackCheckFailed
        change[:, :, -1] /= np.linalg.det(change)[:, None]
        if not np.isfinite(change).all():
            raise _StackCheckFailed
        dets = np.linalg.det(change).tolist()
        rot = phi @ change
        # Drop the stacks no longer needed before checking and building
        # the children, so the batch's peak memory stays low.
        del phi, phi_h, comp, change
        if not valid_stack(rot):
            raise _StackCheckFailed
        # The children share the rotated span's other orbitals.
        vecs = np.broadcast_to(vec[:, None], (len(lanes), len(vec), 1))
        one = np.concatenate([vecs, rot[:, :, 1:]], axis=2)
        has_out = b[:, 0] > ABSENT_TOL
        k = _rows(np.flatnonzero(has_out), len(lanes))
        out_orb = resid[rows][k] / b[k]
        perp = b[k] * in_orb[k] - a[k] * out_orb
        zero = np.concatenate([perp[:, :, None], rot[k, :, 1:]], axis=2)
        del rot
        if not (valid_stack(one) and valid_stack(zero)):
            raise _StackCheckFailed
        zeros = iter(zero)
        for i, orb, d, out_too in zip(lanes.tolist(), one, dets, has_out.tolist()):
            amp = states[i].amplitude / d
            out[i] = [
                (betas[i], SlaterState._checked(next(zeros), amp)) if out_too else None,
                (alphas[i], SlaterState._checked(orb, amp)),
            ]
    for i in np.flatnonzero(per_term).tolist():
        out[i] = _split(states[i], vec)
    return out


def _rows(index, size):
    """index, or a full slice when it selects all size rows, so that
    indexing returns views instead of copies."""
    return slice(None) if index.size == size else index


def _single_mode_sums(s, kappa):
    """Projections of a sum on occupations 0 and 1 of kappa, one split per term."""
    kap = check_mode(kappa, s.modes)
    states = [st for _, st in s.terms]
    try:
        splits = _split_stack(states, kap)
    except (FlosimError, ValueError):
        # Term by term, the first failing term raises its own error.
        splits = _split_each(states, kap)
    out = ([], [])
    for (coeff, _), pair in zip(s.terms, splits):
        for want, res in enumerate(pair):
            if res is not None:
                out[want].append((coeff * res[0], res[1]))
    return [SlaterSum(tuple(t), s.modes, s.electrons, s.max_terms) for t in out]


def _tree(terms, kap, lamv, split):
    """Leaves of the split tree: every term split on lambda, then every
    child on kappa, each level one call of split over the whole list."""
    by_lam = split([st for _, st in terms], lamv)
    # Lambda occupied first, so outcome 1 lists (1, 0) before (0, 1).
    children = [
        (coeff * res[0], i, res[1])
        for (coeff, _), pair in zip(terms, by_lam)
        for i in (1, 0)
        if (res := pair[i]) is not None
    ]
    by_kap = split([child for _, _, child in children], kap)
    out = ([], [], [])
    for (coeff, i, _), pair in zip(children, by_kap):
        for j, res in enumerate(pair):
            if res is not None:
                out[i + j].append((coeff * res[0], res[1]))
    return out


def _two_mode_terms(s, kappa, lam):
    """Term lists of the projections on total occupation 0, 1 and 2.

    Each term is split on lambda once and each surviving child on kappa
    once, so three decompositions per term serve all three outcomes.
    """
    kap = check_mode(kappa, s.modes)
    lamv = check_mode(lam, s.modes)
    ip = abs(np.vdot(kap, lamv))
    if ip > ORTHOGONAL_TOL:
        raise ModesNotOrthogonal(f"<kappa|lambda> = {ip:.3e}")
    try:
        return _tree(s.terms, kap, lamv, _split_stack)
    except (FlosimError, ValueError):
        # Term by term, both levels per term, the first failing check
        # raises as it always has.
        out = ([], [], [])
        for term in s.terms:
            for leaves, more in zip(out, _tree((term,), kap, lamv, _split_each)):
                leaves.extend(more)
        return out


def apply_two_mode_projector(s, kappa, lam, outcome):
    """Project a sum onto total occupation `outcome` of two orthogonal modes.

    The result is the exact unnormalized projected state.  Outcomes 0 and
    2 keep at most one term per input term; outcome 1 produces up to two.
    """
    terms = _two_mode_terms(s, kappa, lam)
    if outcome not in (0, 1, 2):
        raise ValueError(f"outcome must be 0, 1 or 2, got {outcome}")
    return SlaterSum(tuple(terms[int(outcome)]), s.modes, s.electrons, s.max_terms)


def two_mode_groups(s, kappa, lam, grouping):
    """Unnormalized projected sum of each outcome group, keyed by label.

    The sums of outcomes 0, 1 and 2 are built, pruned and capped, in that
    order; a merged group concatenates the terms of its member outcomes.
    """
    if grouping not in GROUPINGS:
        raise ValueError(f"unknown grouping {grouping!r}")
    shape = (s.modes, s.electrons, s.max_terms)
    sums = [SlaterSum(tuple(t), *shape) for t in _two_mode_terms(s, kappa, lam)]
    return {
        group_label(g): SlaterSum(tuple(t for o in g for t in sums[o].terms), *shape)
        for g in GROUPINGS[grouping]
    }


def _pick(labels, sums, forced, rng):
    """Index and probability of the chosen outcome among projected sums.

    Only the groups the pick reads are normed: the forced one alone, or,
    when sampling, each group in order up to the one the draw falls in.
    """
    if forced is not None:
        label = str(forced)
        if label not in labels:
            raise ValueError(f"outcome {label!r} is not one of {labels}")
        idx = labels.index(label)
        return idx, sum_norm(sums[idx]) ** 2
    if rng is None:
        raise ValueError("need a forced outcome or an rng to sample")
    u = rng.random()
    acc = 0.0
    for idx, projected in enumerate(sums):
        prob = sum_norm(projected) ** 2
        acc += prob
        if u < acc:
            break
    return idx, prob


def measure_two_mode(s, kappa, lam, grouping, forced=None, rng=None):
    """Measure total occupation of two orthogonal modes under a grouping.

    grouping is one of "012", "01/2", "0/12", "02/1".  Returns
    (label, probability, post) with post renormalized; merged groups
    concatenate the term lists of their member projections.
    """
    table = two_mode_groups(s, kappa, lam, grouping)
    labels = list(table)
    idx, prob = _pick(labels, list(table.values()), forced, rng)
    return labels[idx], prob, collapse(table[labels[idx]], prob, repr(labels[idx]))


def project_single_mode(s, kappa, outcome):
    """Exact unnormalized single-mode occupation projector on a sum."""
    sums = _single_mode_sums(s, kappa)
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    return sums[int(outcome)]


def collapse(projected, prob, label):
    """Renormalize the projection of a chosen outcome of probability prob.

    Raises ImpossibleOutcome when prob is below PROB_FLOOR.
    """
    if prob < PROB_FLOOR:
        raise ImpossibleOutcome(f"outcome {label} has probability {prob:.3e}")
    return scale_sum(projected, 1.0 / np.sqrt(prob))


def single_mode_branches(s, kappa):
    """Unnormalized projections of a sum on occupations 0 and 1 of kappa,
    and their probabilities, as two lists indexed by outcome."""
    projected = _single_mode_sums(s, kappa)
    return projected, [sum_norm(p) ** 2 for p in projected]


def measure_mode_sum(s, kappa, forced=None, rng=None):
    """Single-mode occupation measurement applied to a whole sum.

    Returns (outcome, probability, post) exactly like measure_mode but
    with SlaterSum states on both ends.
    """
    projected = _single_mode_sums(s, kappa)
    idx, prob = _pick(["0", "1"], projected, forced, rng)
    return idx, prob, collapse(projected[idx], prob, idx)


def reduce_to_two_fermion(s, kappa, lam):
    """Annihilate the standard context modes 2..N-1, leaving two fermions.

    Assumes the usual standard form: the interesting physics lives on
    modes {0, 1, N, N+1} and the context modes 2..N-1 are filled and
    orthogonal to both measured modes.
    """
    n = s.electrons
    if n < 2:
        raise WrongParticleNumber(f"reduction needs at least 2 electrons, got {n}")
    kap = check_mode(kappa, s.modes)
    lamv = check_mode(lam, s.modes)
    context = slice(2, n)
    overlap = max(
        float(np.max(np.abs(kap[context]), initial=0.0)),
        float(np.max(np.abs(lamv[context]), initial=0.0)),
    )
    if overlap > 1e-10:
        raise BadContext(
            f"measured modes overlap the context modes 2..{n - 1} by {overlap:.3e}"
        )
    current = s
    electrons = n
    for m in range(n - 1, 1, -1):
        e_m = np.zeros(s.modes, dtype=complex)
        e_m[m] = 1.0
        terms = tuple((c, annihilate(st, e_m)) for c, st in current.terms)
        electrons -= 1
        current = SlaterSum(terms, s.modes, electrons, s.max_terms)
    return current


def two_fermion_w(s):
    """Antisymmetric amplitude matrix w of a two-fermion sum.

    w[i, j] is half the occupation amplitude on the pair (i, j) with
    i < j, so that sum_ij w_ij a_i^dag a_j^dag |0> reproduces the state.
    """
    if s.electrons != 2:
        raise WrongParticleNumber(f"w is defined for 2 electrons, got {s.electrons}")
    w = np.zeros((s.modes, s.modes), dtype=complex)
    for coeff, state in s.terms:
        u = state.orbitals[:, 0]
        v = state.orbitals[:, 1]
        w += coeff * state.amplitude * (np.outer(u, v) - np.outer(v, u))
    return w / 2.0


def slater_number_two_fermion(w):
    """Number of determinants needed for a two-fermion state: rank(w)/2."""
    _, pairs = antisym_canonical(w)
    return sum(1 for z in pairs if abs(z) > PAIR_THRESHOLD)


def generic_p1_study(theta, phi, xi, n=2):
    """Work the two-mode outcome-1 projection of a filled standard state.

    Builds the measured modes from the three angles on a lattice of
    D = n + 2 modes, projects the n-electron standard determinant onto
    total occupation 1, normalizes, reduces to two fermions and extracts
    the 4x4 w matrix on the active modes {0, 1, n, n+1}.

    Returns (w, pf, closed_form) where pf is the computed Pfaffian of w
    and closed_form evaluates sin^2(phi) sin(2 xi) / (2 f_S f_C), the
    reference expression this construction is usually quoted with.
    """
    if n < 2:
        raise WrongParticleNumber(f"the study needs at least 2 electrons, got {n}")
    d = n + 2
    e = np.eye(d, dtype=complex)
    kap = np.cos(theta) * e[:, 0] + np.sin(theta) * e[:, n]
    lam = np.cos(phi) * (-np.sin(theta) * e[:, 0] + np.cos(theta) * e[:, n]) + np.sin(
        phi
    ) * (np.cos(xi) * e[:, 1] + np.sin(xi) * e[:, n + 1])
    start = SlaterSum.from_state(standard_state(d, n))
    proj = apply_two_mode_projector(start, kap, lam, 1)
    nrm = sum_norm(proj)
    if nrm > PRUNE_TOL:
        proj = scale_sum(proj, 1.0 / nrm)
    red = reduce_to_two_fermion(proj, kap, lam)
    w_full = two_fermion_w(red)
    active = [0, 1, n, n + 1]
    w = w_full[np.ix_(active, active)]
    pf = pfaffian(w)
    f_c = np.sqrt(np.cos(phi) ** 2 + np.cos(xi) ** 2 * np.sin(phi) ** 2)
    f_s = np.sqrt(np.cos(phi) ** 2 + np.sin(xi) ** 2 * np.sin(phi) ** 2)
    if f_s * f_c < 1e-15:
        closed_form = 0.0
    else:
        closed_form = float(np.sin(phi) ** 2 * np.sin(2 * xi) / (2 * f_s * f_c))
    return w, pf, closed_form
