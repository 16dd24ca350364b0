"""Sums of Slater determinants, two-mode charge measurements, and the
Slater-rank machinery for two-fermion states.

A two-mode measurement asks for the total occupation (0, 1 or 2) of two
orthogonal modes.  Outcomes 0 and 2 map each determinant to at most one
determinant; outcome 1 is a sum of two projector products and can double
the term count, which is why sums are needed at all.  Merged-outcome
groupings concatenate the projected term lists; the {0,2} vs {1} parity
grouping is the one that forces genuine growth.

Each term is split once by the one split kernel (slater.split_pair), in
one call over the sum's stack: two Householder reflectors rotate its
span to [f0, f1, R], f0 = a lam + b kappa + o0 and f1 = c kappa + o1
with R orthogonal to both modes, and the leaves of the (lambda, kappa)
occupations (1, 1), (1, 0), (0, 1) and (0, 0) are a c [lam, kappa, R],
a |o1| [lam, o1^, R], |u| [kappa, u^, R] with u = b o1 - c o0, and
|o0| |o1'| [o0^, o1'^, R].  A single-mode
measurement of a sum takes the same kernel on kappa alone, its first
reflector only, f0 = a kappa + o0 and leaves a [kappa, R] and
|o0| [o0^, R], through the same call, group builder and measure body.

A sum carries its norm squared n and a bound on n's error: a run starts
at amplitude 1, rotations keep n and a measurement divides the kept group
by the root of its probability, so only a sum that enters (the public
constructor, a state file) or is projected with no probability (the
projectors) takes sum_norm, the x = 0 slice of the pass with no measured
mode.  Every outcome probability comes from n and one pass over the term
pairs (_expectations) for the slices x != 0: each term is Q-applied once
per map Q = 1 - x M M^H, and the rows go ROW_BLOCK at a time, each
block's N x N overlaps from one stacked product and one batched det.  A
probability that takes n takes its error too, and a post divides it by
p, so a pass whose sum's bound is past NORM_TOL n measures n again, as
its x = 0 slice.

A sum carries a bound on its stack's Gram deviation in the same way
(SlaterSum.gram_err): a split's check of the leaves it builds measures
it, and a rotation widens it by its unitary's measured deviation and the
product's rounding, so a split measures the span it rotates only when
the bound cannot show that it passes (slater.split_pair).

Projections are applied in exact operator form, term by term, so the
relative phases between determinants are preserved to machine precision.
"""

import cmath
from itertools import accumulate

import numpy as np

from .errors import (
    ABSENT_TOL, CLOSED_FORM_FLOOR, NORM_TOL, ORTHOGONAL_TOL, PAIR_THRESHOLD, PASS_ROUND,
    PROB_FLOOR, PRUNE_TOL,
    BadContext, DimensionMismatch, FlosimError, ImpossibleOutcome, TermCapExceeded,
    WrongParticleNumber,
)
from .linalg import antisymmetric_part, pair_floor, pfaffian, require_finite
from .slater import (
    PAIR_PATTERNS,
    SlaterState,
    check_mode,
    check_modes,
    check_unitary,
    rotate_orbitals,
    rotated_gram_err,
    split_pair,
    standard_state,
)

DEFAULT_MAX_TERMS = 1024
ROW_BLOCK = 4  # rows per product of the probability pass (_expectations)

GROUPINGS = {
    "012": ((0,), (1,), (2,)),
    "01/2": ((0, 1), (2,)),
    "0/12": ((0,), (1, 2)),
    "02/1": ((0, 2), (1,)),
}
ONE_MODE = ((0,), (1,))  # the outcome groups of a single-mode measurement


def group_label(group):
    return "".join(str(o) for o in group)


def _kept(coeffs, amps):
    """Indices and complex coefficients of the terms whose weight |c a| is
    above PRUNE_TOL, and the summed weight of the others; a non-finite c
    or a NaN weight raises FlosimError."""
    keep, kept, lost = [], [], 0.0
    for i, (coeff, amp) in enumerate(zip(coeffs, amps)):
        coeff = complex(coeff)
        if not cmath.isfinite(coeff):
            raise FlosimError(f"term {i}: coefficient {coeff} is not finite")
        weight = coeff * amp
        if abs(weight) > PRUNE_TOL:
            keep.append(i)
            kept.append(coeff)
        elif weight != weight:
            raise FlosimError(f"term {i}: coefficient * amplitude is {weight}")
        else:
            lost += abs(weight)
    return keep, kept, lost


class SlaterSum:
    """A linear combination of determinants with identical D and N, stored
    once: one Python complex per term in coeffs and in amps (apart, as the
    kernels multiply them in a fixed order), one read-only C-contiguous
    (T, D, N) orbital stack, norm_sq, the norm squared of the state,
    norm_err, a bound on how far norm_sq is from it, and gram_err, a bound
    on max_t ||Phi_t^H Phi_t - 1||_F over the stack and on any measurement
    of it (slater.gram_round), inf when unknown.

    Terms whose total weight |coefficient * amplitude| is at or below
    the prune tolerance are dropped on construction; a non-finite
    coefficient or a NaN weight raises FlosimError and exceeding
    max_terms raises TermCapExceeded.  modes/electrons may be given
    explicitly for the empty (zero-state) sum.

    Every constructor sets norm_sq: this one by one sum_norm of the
    pruned sum, from_state as |a|^2; scale_sum multiplies it and its
    bound by |f|^2, evolve_sum keeps both, and a measured post carries 1
    within the bound _probabilities gives.  Pruning leaves norm_sq and
    widens the bound by what the dropped weight w may change: 2 w |psi|
    + w^2.

    Every constructor sets gram_err too: this one and from_state as inf,
    so the next split measures the span it rotates; a split's leaves
    (the projectors, a measured post) and a state file carry the bound
    their check measured (slater.measured_gram_err); evolve_sum adds its
    unitary's deviation and rounding (slater.rotated_gram_err); and
    scale_sum, pruning and reduce_to_two_fermion keep it.
    """

    __slots__ = ("coeffs", "amps", "orbitals", "max_terms", "norm_sq", "norm_err", "gram_err")

    def __init__(self, terms=(), modes=None, electrons=None, max_terms=DEFAULT_MAX_TERMS):
        terms = tuple(terms)
        keep, coeffs, _ = _kept([c for c, _ in terms], [st.amplitude for _, st in terms])
        states = [terms[i][1] for i in keep]
        modes = states[0].modes if modes is None and states else modes
        electrons = states[0].electrons if electrons is None and states else electrons
        if any((st.modes, st.electrons) != (modes, electrons) for st in states):
            raise DimensionMismatch("all terms of a sum must share the same modes and electrons")
        if modes is None or electrons is None:
            raise DimensionMismatch("an empty sum needs explicit modes and electrons")
        orbitals = _stack([st.orbitals for st in states], modes, electrons)
        self._store(coeffs, [st.amplitude for st in states], orbitals, max_terms, None, 0.0,
                    np.inf)

    @classmethod
    def _stacked(cls, coeffs, amps, orbitals, max_terms, norm_sq=None, norm_err=0.0,
                 gram_err=np.inf):
        """The kernels' constructor: the sum of coeffs[i] (amps[i],
        orbitals[i]) over a C-contiguous (T, D, N) stack it takes over,
        pruned and capped as the public one does, of norm squared
        norm_sq within norm_err, as its caller knows them, or measured
        when norm_sq is None, and of Gram bound gram_err, unknown unless
        given."""
        keep, coeffs, lost = _kept(coeffs, amps)
        if len(keep) < len(amps):
            amps, orbitals = [amps[i] for i in keep], orbitals[keep]
            if norm_sq is not None:
                norm_err += 2.0 * lost * np.sqrt(norm_sq) + lost**2
        s = object.__new__(cls)
        s._store(coeffs, amps, orbitals, max_terms, norm_sq, norm_err, gram_err)
        return s

    def _store(self, coeffs, amps, orbitals, max_terms, norm_sq, norm_err, gram_err):
        """Every sum's cap check, then its fields; with norm_sq None, one
        sum_norm sets it, within the pass's rounding."""
        if len(coeffs) > max_terms:
            raise TermCapExceeded(f"{len(coeffs)} terms exceed the cap of {max_terms}")
        orbitals.flags.writeable = False
        self.coeffs, self.amps, self.orbitals = tuple(coeffs), tuple(amps), orbitals
        self.max_terms, self.gram_err = max_terms, gram_err
        if norm_sq is None:
            norm_sq, norm_err = sum_norm(self) ** 2, PASS_ROUND * _mass(self)
        self.norm_sq, self.norm_err = norm_sq, norm_err

    @classmethod
    def from_state(cls, state, max_terms=DEFAULT_MAX_TERMS):
        """The one-term sum of state, of norm squared |a|^2."""
        orbitals = _stack([state.orbitals], state.modes, state.electrons)
        return cls._stacked([1.0 + 0.0j], [state.amplitude], orbitals, max_terms,
                            abs(state.amplitude) ** 2)

    modes = property(lambda self: self.orbitals.shape[1])
    electrons = property(lambda self: self.orbitals.shape[2])
    term_count = property(lambda self: len(self.coeffs))

    @property
    def terms(self):
        """(coefficient, SlaterState) pairs over the stack's rows, built anew."""
        return tuple(
            (c, SlaterState._checked(orb, a))
            for c, a, orb in zip(self.coeffs, self.amps, self.orbitals)
        )


def _mass(s):
    """The sum of the terms' |c a|^2: n where they are orthogonal, more
    where they cancel, and the scale of a pass's rounding either way."""
    return sum(w * w for w in (abs(c * a) for c, a in zip(s.coeffs, s.amps)))


def _stack(rows, d, n):
    """The (T, D, N) stack of T orbital matrices, copied in C order."""
    return np.array(rows, dtype=complex).reshape(len(rows), d, n)


def sum_norm(s):
    """Norm of the represented state, measured: the square root of the
    x = 0 slice of the probability pass (_expectations) with no measured
    mode.  Costs O(T^2 (D N^2 + N^3)) for T terms of N electrons on D
    modes; a run's steps carry the norm (SlaterSum.norm_sq) instead.  A
    weight |c a|^2 past float range makes it inf or NaN without a
    warning, for the caller to rescale.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        (sq,) = _expectations(s, np.zeros((s.modes, 0)), (0,))
    return float(np.sqrt(max(sq, 0.0)))


def _expectations(s, m, xs):
    """Re <psi|G(1 - x M M^H)|psi> for each x of xs, G(Q) being the Fock
    map of the one-body map Q and m's columns orthonormal modes: the norm
    squared (x = 0, sum_norm's), the weight with m's modes empty (1),
    their parity (2).
    Pair (i, j) is det(Phi_i^H Q Phi_j) and pair (j, i) its conjugate, so
    only j > i is summed.  Stored stacks are orthonormal, so pair (i, i)
    is det(1_k - x B_i B_i^H), B_i = M^H Phi_i, k <= 2 (Sylvester): one
    term takes no N x N det.

    Q is Hermitian, so pair (i, j) is det((Q Phi_i)^H Phi_j): once per
    pass every term is Q-applied for every x, conj(Phi - x M B).  The
    rows go in stored order, ROW_BLOCK at a time: one stacked product
    puts every later term's rows against the block's Q-applied terms for
    every x, contiguous N x N blocks that one batched det takes.  The
    weights conj(w_i) w_j come from one strictly upper-triangular
    matrix, so the pairs in a block's own triangle (j <= i) weigh 0.
    """
    phis = s.orbitals
    t, d, n = phis.shape
    weights = np.array([c * a for c, a in zip(s.coeffs, s.amps)])
    scale = np.array(xs, dtype=float)[:, None, None]
    b = m.conj().T @ phis
    require_finite(b)
    own = np.eye(m.shape[1]) - scale[:, None] * (b @ b.conj().transpose(0, 2, 1))
    totals = np.linalg.det(own) @ (weights.conj() * weights)
    if t < 2:
        return totals.real.tolist()
    # qs[x, i] = conj(Q_x Phi_i); rows i n ... i n + n - 1 of rows hold Phi_i^T.
    qs = (phis - scale[:, None] * (m @ b)).conj()
    rows = phis.transpose(0, 2, 1).reshape(t * n, d)
    span = np.arange(t)
    pair_w = np.outer(weights.conj(), weights)
    pair_w *= span[:, None] < span  # in place: the pass holds one T x T matrix
    pairs = np.zeros(len(xs), dtype=complex)  # the sum over i < j of each x's pairs
    for i in range(0, t - 1, ROW_BLOCK):
        last = min(i + ROW_BLOCK, t - 1)
        # Block (x, r, j) is ((Q_x Phi_i+r)^H Phi_i+1+j)^T: the same det.
        q = qs[:, i:last]
        g = rows[(i + 1) * n :] @ q
        dets = np.linalg.det(g.reshape(*q.shape[:2], t - i - 1, n, n))
        pairs += dets.reshape(len(xs), -1) @ pair_w[i:last, i + 1 :].ravel()
    return (totals + 2.0 * pairs).real.tolist()


def scale_sum(s, factor):
    """factor times s, of norm squared |factor|^2 times s's, bound and all,
    and of s's Gram bound."""
    coeffs, sq = [c * factor for c in s.coeffs], abs(factor) ** 2
    return SlaterSum._stacked(coeffs, s.amps, s.orbitals, s.max_terms, s.norm_sq * sq,
                              s.norm_err * sq, s.gram_err)


def evolve_sum(s, v, pair=None):
    """evolve on every term: one unitarity check and one stacked product.
    A D x D unitary or a generator's multiplies the whole stack; with pair
    (i, j), v is the 2x2 block of a rotation of those two sites
    (check_unitary's pair), and only rows i and j of every term change
    (rotate_orbitals); the norm stays.  The rotated stack is not checked:
    its Gram bound b grows to rotated_gram_err's b + dev (1 + b) plus
    rounding, dev the unitary's measured deviation, and the next split
    measures the span it rotates only when that bound cannot show it
    passes; a term that came in off orthonormal, of unknown bound, fails
    that check."""
    mat, dev = check_unitary(v, s.modes, pair)
    bound = rotated_gram_err(s.gram_err, dev, len(mat), s.electrons)
    return SlaterSum._stacked(s.coeffs, s.amps, rotate_orbitals(mat, s.orbitals, pair),
                              s.max_terms, s.norm_sq, s.norm_err, bound)


def _group_terms(s, vecs, group):
    """(coeffs, amps, stack, lost, gram_err) of the unnormalized
    projection of s on one outcome group of the measured modes vecs
    ((lambda, kappa) or (kappa,)), named by its label ("02") or outcomes
    ((0, 2)): one split_pair call over the whole stack, given s's Gram
    bound, which builds only the group's leaves, listed by outcome, then
    pattern by pattern, (1, 0) before (0, 1), then by term, and measures
    their bound.  A term's leaf that is not built had a scale
    of at most ABSENT_TOL, so lost, ABSENT_TOL times the weight |c a| of
    each term per group pattern it has no leaf of, bounds what they
    weigh."""
    group = tuple(map(int, group))
    lam, kap = (None, *vecs)[-2:]  # lam None for one mode
    try:
        leaves, stack, gram_err = split_pair(s.amps, s.orbitals, lam, kap, group, s.gram_err)
    except (FlosimError, ValueError):
        # Term by term, each span measured, so that the first failing
        # term's error wins.
        for i in range(s.term_count):
            split_pair(s.amps[i : i + 1], s.orbitals[i : i + 1], lam, kap, group)
        raise
    leaves = [leaf for out in leaves for leaf in out]
    slots = sum(sum(p) <= s.electrons and (lam is not None or not p[0])
                for o in group for p in PAIR_PATTERNS[o])
    weights = [abs(c * a) for c, a in zip(s.coeffs, s.amps)]
    lost = ABSENT_TOL * max(slots * sum(weights) - sum(weights[i] for i, *_ in leaves), 0.0)
    coeffs = [s.coeffs[i] * scale for i, scale, _, _ in leaves]
    return coeffs, [amp for *_, amp, _ in leaves], stack, lost, gram_err


def _group_sum(s, vecs, group):
    """_group_terms as a sum whose norm one sum_norm measures: a projector's."""
    coeffs, amps, stack, _, gram_err = _group_terms(s, vecs, group)
    return SlaterSum._stacked(coeffs, amps, stack, s.max_terms, gram_err=gram_err)


def _post(s, terms, norm, err):
    """_group_terms' terms divided by norm, in one construction: a post of
    norm squared 1, within err / norm^2, err bounding norm^2's error, and
    what the unbuilt leaves may take, lost / norm: 2 lost / norm + its
    square; its Gram bound is the leaves'."""
    coeffs, amps, stack, lost, gram_err = terms
    factor = 1.0 / norm
    lost *= factor
    return SlaterSum._stacked([c * factor for c in coeffs], amps, stack, s.max_terms, 1.0,
                              err * factor**2 + 2.0 * lost + lost**2, gram_err)


def apply_two_mode_projector(s, kappa, lam, outcome):
    """Project a sum onto total occupation `outcome` of two orthogonal modes.

    The result is the exact unnormalized projected state, from one split
    of each term's span (split_pair): outcome 0 keeps its (0, 0) leaf
    |o0| |o1'| [o0^, o1'^, R], outcome 2 its (1, 1) leaf a c [lam, kappa,
    R], and outcome 1 its (1, 0) leaf a |o1| [lam, o1^, R] and then its
    (0, 1) leaf |u| [kappa, u^, R].  So outcomes 0 and 2 keep at most one
    term per input term, and outcome 1 up to two.
    """
    if outcome not in (0, 1, 2):
        raise ValueError(f"outcome must be 0, 1 or 2, got {outcome}")
    return _group_sum(s, check_modes(s.modes, kappa, lam)[::-1], (outcome,))


def project_single_mode(s, kappa, outcome):
    """Exact unnormalized single-mode occupation projector on a sum."""
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    return _group_sum(s, check_modes(s.modes, kappa), (outcome,))


def _probabilities(s, vecs, groups):
    """(probs, errs): each group's probability, in order, for the measured
    modes vecs ((lambda, kappa) or (kappa,)), and a bound on its error.
    They come from the norm squared n and the pass's weight p0 with every
    measured mode empty and parity par: outcome 0 has p0 and the other
    outcomes n - p0; of two modes, outcome 1 has (n - par)/2, outcomes 0
    and 2 (n + par)/2 and outcome 2 that minus p0.  Each is clamped at 0,
    as sum_norm clamps.  n is s's own unless its bound is past NORM_TOL n,
    when the pass takes its x = 0 slice too; a probability's bound is its
    share of n's (0, 1/2 or 1) plus the pass's rounding.  Nothing is
    projected."""
    m = np.column_stack(vecs)
    one, parity = groups in (ONE_MODE, GROUPINGS["0/12"]), groups == GROUPINGS["02/1"]
    xs = (1,) if one else (2,) if parity else (2, 1)
    n, err = s.norm_sq, s.norm_err
    rounding = PASS_ROUND * _mass(s)
    if err > NORM_TOL * n:
        n, *vals = _expectations(s, m, (0, *xs))
        err = rounding
    else:
        vals = _expectations(s, m, xs)
    if one:
        (p0,) = vals
        probs, shares = [p0, n - p0], (0.0, 1.0)
    elif parity:
        (par,) = vals
        probs, shares = [(n + par) / 2, (n - par) / 2], (0.5, 0.5)
    else:
        par, p0 = vals
        p2 = (n + par) / 2 - p0
        table = {(0,): p0, (1,): (n - par) / 2, (2,): p2, (0, 1): n - p2}
        probs, shares = [table[g] for g in groups], [0.5 * (g != (0,)) for g in groups]
    errs = [share * err + rounding for share in shares]
    return [max(p, 0.0) for p in probs], errs


def _pick(labels, probs, forced, rng, total):
    """Index of the chosen outcome: the forced label, or where one draw
    u total, u in [0, 1), falls among the probabilities taken in label
    order, total being what they add up to (the sum's norm squared)."""
    if forced is not None:
        label = str(forced)
        if label not in labels:
            raise ValueError(f"outcome {label!r} is not one of {labels}")
        return labels.index(label)
    if rng is None:
        raise ValueError("need a forced outcome or an rng to sample")
    u = rng.random() * total
    return next((i for i, acc in enumerate(accumulate(probs)) if u < acc), len(probs) - 1)


def _measure(s, vecs, groups, forced, rng):
    """Measure the modes vecs ((lambda, kappa) or (kappa,)) under groups: every
    group's probability, the pick, the PROB_FLOOR check, and only then the
    chosen group, built and renormalized.  Returns (index, p, post)."""
    probs, errs = _probabilities(s, vecs, groups)
    labels = [group_label(g) for g in groups]
    i = _pick(labels, probs, forced, rng, s.norm_sq)
    if probs[i] < PROB_FLOOR:
        shown = labels[i] if len(vecs) == 1 else repr(labels[i])
        raise ImpossibleOutcome(f"outcome {shown} has probability below {PROB_FLOOR:g}")
    return i, probs[i], _post(s, _group_terms(s, vecs, groups[i]), np.sqrt(probs[i]), errs[i])


def measure_two_mode(s, kappa, lam, grouping, forced=None, rng=None):
    """Measure total occupation of two orthogonal modes under a grouping.

    grouping is one of "012", "01/2", "0/12", "02/1".  Returns
    (label, probability, post) with post renormalized; merged groups
    concatenate their outcomes' terms.  Only the chosen group is built.
    """
    if grouping not in GROUPINGS:
        raise ValueError(f"unknown grouping {grouping!r}")
    groups = GROUPINGS[grouping]
    i, prob, post = _measure(s, check_modes(s.modes, kappa, lam)[::-1], groups, forced, rng)
    return group_label(groups[i]), prob, post


def measure_mode_sum(s, kappa, forced=None, rng=None):
    """Single-mode occupation measurement applied to a whole sum.

    Returns (outcome, probability, post) exactly like measure_mode but
    with SlaterSum states on both ends.
    """
    return _measure(s, check_modes(s.modes, kappa), ONE_MODE, forced, rng)


def reduce_to_two_fermion(s, kappa, lam):
    """Annihilate the standard context modes 2..N-1, leaving two fermions.

    Assumes the usual standard form: the interesting physics lives on
    modes {0, 1, N, N+1} and the context modes 2..N-1 are filled and
    orthogonal to both measured modes.  Each takes one split_pair of all
    terms on that mode alone and keeps the outcome-1 leaves without their
    first column, the mode: annihilate, bit for bit.  A filled mode's
    annihilation keeps the norm, so the reduced sum carries s's.  What is
    left is not checked again: its Gram matrix is a principal block of
    the leaf stack's, which the split has just checked, so it keeps the
    leaves' bound.  Two electrons come back as s.
    """
    n = s.electrons
    if n < 2:
        raise WrongParticleNumber(f"reduction needs at least 2 electrons, got {n}")
    kap = check_mode(kappa, s.modes)
    lamv = check_mode(lam, s.modes)
    overlap = float(np.max(np.abs(np.stack([kap, lamv])[:, 2:n]), initial=0.0))
    if overlap > ORTHOGONAL_TOL:
        raise BadContext(
            f"measured modes overlap the context modes 2..{n - 1} by {overlap:.3e}"
        )
    current = s
    for m in range(n - 1, 1, -1):
        e_m = np.zeros(s.modes, dtype=complex)
        e_m[m] = 1.0
        (ones,), stack, gram_err = split_pair(current.amps, current.orbitals, None, e_m, (1,),
                                              current.gram_err)
        reduced = np.ascontiguousarray(stack[:, :, 1:])
        coeffs = [current.coeffs[i] for i, *_ in ones]
        amps = [amp * alpha for _, alpha, amp, _ in ones]
        current = SlaterSum._stacked(coeffs, amps, reduced, s.max_terms, s.norm_sq,
                                     current.norm_err, gram_err)
    return current


def two_fermion_w(s):
    """Antisymmetric amplitude matrix w of a two-fermion sum.

    w[i, j] is half the occupation amplitude on the pair (i, j) with
    i < j, so that sum_ij w_ij a_i^dag a_j^dag |0> reproduces the state.
    With U and V the terms' first and second orbitals as columns and
    c_t a_t their weights (Python products), uv = (U * weights) V^T is one
    product and w = (uv - uv^T) / 2, so w is exactly antisymmetric with a
    zero diagonal.
    """
    if s.electrons != 2:
        raise WrongParticleNumber(f"w is defined for 2 electrons, got {s.electrons}")
    weights = np.array([c * a for c, a in zip(s.coeffs, s.amps)], dtype=complex)
    u, v = s.orbitals[:, :, 0].T, s.orbitals[:, :, 1]
    uv = (u * weights) @ v
    return (uv - uv.T) / 2.0


def slater_number_two_fermion(w):
    """Number of determinants needed for a two-fermion state: rank(w)/2,
    from one SVD.  Singular values of an antisymmetric w come in equal
    pairs, the moduli of antisym_canonical's 2x2 blocks; every other one
    counts above PAIR_THRESHOLD and pair_floor of the largest."""
    sv = np.linalg.svd(antisymmetric_part(w, "antisym_canonical"), compute_uv=False)
    floor = max(PAIR_THRESHOLD, pair_floor(sv.max(initial=0.0)))
    return int(np.count_nonzero(sv[::2] > floor))


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
    nrm = np.sqrt(proj.norm_sq)  # sum_norm(proj), as the projector measured it
    if nrm > PRUNE_TOL:
        proj = scale_sum(proj, 1.0 / nrm)
    red = reduce_to_two_fermion(proj, kap, lam)
    w_full = two_fermion_w(red)
    active = [0, 1, n, n + 1]
    w = w_full[np.ix_(active, active)]
    pf = pfaffian(w)
    f_c = np.sqrt(np.cos(phi) ** 2 + np.cos(xi) ** 2 * np.sin(phi) ** 2)
    f_s = np.sqrt(np.cos(phi) ** 2 + np.sin(xi) ** 2 * np.sin(phi) ** 2)
    if f_s * f_c < CLOSED_FORM_FLOOR:
        closed_form = 0.0
    else:
        closed_form = float(np.sin(phi) ** 2 * np.sin(2 * xi) / (2 * f_s * f_c))
    return w, pf, closed_form
