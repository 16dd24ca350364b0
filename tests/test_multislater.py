"""Tests for determinant sums: two-mode measurements in all four
groupings, reduction to two fermions, and the Pfaffian rank machinery.

Every projection path is cross-checked against the dense oracle, and
the Pfaffian of the outcome-1 state is pinned against a closed form
that was itself verified by brute-force enumeration.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    random_complex,
    random_mode,
    random_orthogonal_pair,
    random_orthonormal_columns,
    random_unitary,
    rng_for,
)

from flosim.errors import (
    BadContext,
    DimensionMismatch,
    FlosimError,
    ImpossibleOutcome,
    ModesNotOrthogonal,
    NonSquare,
    NotAntisymmetric,
    NotInSpan,
    NotUnitary,
    OddDimension,
    TermCapExceeded,
    WrongParticleNumber,
)
from flosim.circuits import load_state_sum
from flosim.slater import (
    ABSENT_TOL,
    PAIR_PATTERNS,
    PROB_FLOOR,
    SlaterState,
    annihilate,
    check_orthonormal,
    decompose_mode,
    evolve,
    measure_mode,
    rotate_in_first,
    slater_overlap,
    split_pair,
    standard_state,
)
from flosim.multislater import (
    GROUPINGS,
    ONE_MODE,
    SlaterSum,
    _expectations,
    _group_sum,
    _probabilities,
    apply_two_mode_projector,
    evolve_sum,
    generic_p1_study,
    group_label,
    measure_mode_sum,
    measure_two_mode,
    project_single_mode,
    reduce_to_two_fermion,
    scale_sum,
    slater_number_two_fermion,
    sum_norm,
    two_fermion_w,
)
from flosim import errors, fock, linalg, multislater, slater

REORTH_TOL = 1e-4  # below this beta, one projection alone loses orthogonality to the span


def random_state(rng, d, n):
    return SlaterState(random_orthonormal_columns(rng, d, n))


def standard_mode(d, m):
    v = np.zeros(d, dtype=complex)
    v[m] = 1.0
    return v


def random_two_term_sum(rng, d, n):
    """A normalized generic two-determinant superposition."""
    s1 = SlaterState(random_orthonormal_columns(rng, d, n))
    s2 = SlaterState(random_orthonormal_columns(rng, d, n))
    raw = SlaterSum(((0.8, s1), (0.6j, s2)))
    return scale_sum(raw, 1.0 / sum_norm(raw))


def study_modes(theta, phi, xi, n):
    """The measured-mode pair used by generic_p1_study, rebuilt here so
    oracle checks do not share code with the implementation."""
    d = n + 2
    e = np.eye(d, dtype=complex)
    kap = np.cos(theta) * e[:, 0] + np.sin(theta) * e[:, n]
    lam = np.cos(phi) * (
        -np.sin(theta) * e[:, 0] + np.cos(theta) * e[:, n]
    ) + np.sin(phi) * (np.cos(xi) * e[:, 1] + np.sin(xi) * e[:, n + 1])
    return kap, lam


class TestSlaterSumType:
    def test_from_state(self):
        s = SlaterSum.from_state(standard_state(4, 2))
        assert s.term_count == 1
        assert s.modes == 4 and s.electrons == 2

    def test_prunes_negligible_terms(self):
        st = standard_state(4, 2)
        s = SlaterSum(((1.0, st), (1e-13, st)))
        assert s.term_count == 1

    def test_rejects_mixed_shapes(self):
        with pytest.raises(DimensionMismatch):
            SlaterSum(((1.0, standard_state(4, 2)), (1.0, standard_state(4, 3))))
        with pytest.raises(DimensionMismatch):
            SlaterSum(((1.0, standard_state(4, 2)), (1.0, standard_state(5, 2))))

    def test_empty_sum_needs_dimensions(self):
        with pytest.raises(DimensionMismatch):
            SlaterSum(())
        z = SlaterSum((), modes=4, electrons=2)
        assert z.term_count == 0 and z.modes == 4

    def test_term_cap(self):
        rng = rng_for(50)
        terms = tuple(
            (1.0, SlaterState(random_orthonormal_columns(rng, 4, 2))) for _ in range(3)
        )
        with pytest.raises(TermCapExceeded):
            SlaterSum(terms, max_terms=2)

    @pytest.mark.parametrize(
        "bad",
        [float("nan"), complex(float("nan"), 0.0), complex(0.0, float("nan"))],
    )
    def test_rejects_nan_coefficient(self, bad):
        """A NaN weight fails the prune comparison, so it must be caught
        before pruning rather than dropped as negligible."""
        st_ = standard_state(4, 2)
        with pytest.raises(FlosimError, match="term 1: coefficient .* is not finite"):
            SlaterSum(((1.0, st_), (bad, st_)))

    @pytest.mark.parametrize(
        "bad", [float("inf"), complex(0.0, float("-inf")), complex(float("inf"), 1.0)]
    )
    def test_rejects_infinite_coefficient(self, bad):
        st_ = standard_state(4, 2)
        with pytest.raises(FlosimError, match="term 0: coefficient .* is not finite") as err:
            SlaterSum(((bad, st_),))
        assert "\n" not in str(err.value)

    def test_rejects_nan_amplitude_in_a_mixed_sum(self):
        """A NaN weight fails the prune comparison, so the term used to be
        dropped silently, leaving a one-term sum of norm 1."""
        st_ = standard_state(4, 2)
        nan_state = SlaterState(st_.orbitals, float("nan"))
        with pytest.raises(FlosimError) as err:
            SlaterSum(((1.0, st_), (1.0, nan_state)))
        assert str(err.value) == "term 1: coefficient * amplitude is (nan+nanj)"

    def test_rejects_nan_amplitude_alone(self):
        """With only the NaN term the sum used to come out empty."""
        st_ = standard_state(4, 2)
        with pytest.raises(FlosimError, match=r"^term 0: coefficient \* amplitude is"):
            SlaterSum(((0.5, SlaterState(st_.orbitals, complex(0.0, float("nan")))),))

    def test_zero_coefficient_on_infinite_amplitude_is_nan(self):
        st_ = standard_state(4, 2)
        with pytest.raises(FlosimError, match=r"^term 0: coefficient \* amplitude is"):
            SlaterSum(((0.0, SlaterState(st_.orbitals, float("inf"))),))

    def test_negligible_weights_are_still_pruned(self):
        st_ = standard_state(4, 2)
        s = SlaterSum(((1.0, st_), (1e-300, st_), (0.0, st_)))
        assert s.term_count == 1


def reference_overlap_total(s):
    """The per-pair double loop over slater_overlap: the reference for
    sum_norm, the probability pass's x = 0 slice."""
    acc = 0.0 + 0.0j
    for ci, si in s.terms:
        for cj, sj in s.terms:
            acc += np.conj(ci) * cj * slater_overlap(si, sj)
    return acc


def reference_sum_norm(s):
    return float(np.sqrt(max(reference_overlap_total(s).real, 0.0)))


def bits(z):
    """Exact bit pattern of a complex number, signed zeros included."""
    z = complex(z)
    return z.real.hex(), z.imag.hex()


# Per-term recipes: "phase" draws independent phases for coefficient and
# amplitude, "real"/"imag" use signed real or imaginary coefficients,
# "zero" has amplitude 0 and "repeat" reuses the previous orbitals.
TERM_KINDS = ("phase", "real", "imag", "zero", "repeat")


@st.composite
def sum_recipes(draw):
    t = draw(st.sampled_from([0, 1, 2, 3, 17]))
    n = draw(st.sampled_from([0, 1, 3]))
    d = draw(st.integers(max(n, 1), 8))
    kinds = draw(st.lists(st.sampled_from(TERM_KINDS), min_size=t, max_size=t))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    terms = []
    orbitals = random_orthonormal_columns(rng, d, n)
    for kind in kinds:
        if kind != "repeat":
            orbitals = random_orthonormal_columns(rng, d, n)
        size = float(rng.uniform(0.1, 2.0))
        sign = float(rng.choice([-1.0, 1.0]))
        amp = np.exp(1j * rng.uniform(0, 2 * np.pi))
        if kind == "real":
            coeff, amp = sign * size, sign
        elif kind == "imag":
            coeff = sign * size * 1j
        else:
            coeff = size * np.exp(1j * rng.uniform(0, 2 * np.pi))
        if kind == "zero":
            amp = 0.0
        terms.append((coeff, SlaterState(orbitals, amp)))
    return d, n, tuple(terms)


class TestSumNormKernel:
    """sum_norm, the x = 0 slice of the probability pass with no measured
    mode, against the per-pair double loop over slater_overlap."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(sum_recipes())
    def test_within_1e_13_of_the_pairwise_loop(self, recipe):
        d, n, terms = recipe
        s = SlaterSum(terms, d, n)
        want = reference_sum_norm(s)
        assert abs(sum_norm(s) - want) <= 1e-13 * want
        # The pass also matches on terms the constructor would prune,
        # zero amplitudes included.
        raw = SlaterSum((), d, n)
        object.__setattr__(raw, "coeffs", tuple(complex(c) for c, _ in terms))
        object.__setattr__(raw, "amps", tuple(x.amplitude for _, x in terms))
        object.__setattr__(raw, "orbitals", stack_of([x for _, x in terms], d, n))
        (got,) = _expectations(raw, np.zeros((d, 0)), (0,))
        want = reference_overlap_total(raw).real
        assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("group", [(0, 2), (1,), (0, 1, 2)])
    def test_sectored_sum_takes_the_norm_slice_alone(self, group):
        """A two-mode group lists its leaves pattern by pattern (their
        span_pattern), each pattern's terms consecutive; the pass over its
        x = 0 slice alone takes every pair, across patterns too, and
        agrees with the full pass, with the pairwise loop and with the
        norm the group measured."""
        rng = rng_for(204)
        terms = tuple((random_complex(rng), random_state(rng, 6, 3)) for _ in range(3))
        kap, lam = random_orthogonal_pair(rng, 6)
        s = _group_sum(SlaterSum(terms), (lam, kap), group)
        patterns = [span_pattern(orb, lam, kap) for orb in s.orbitals]
        assert len(set(patterns)) >= 2
        assert_runs_distinct(patterns)
        m = np.column_stack([lam, kap])
        (alone,) = _expectations(s, m, (0,))
        full = _expectations(s, m, (0, 1, 2))[0]
        want = reference_overlap_total(s).real
        assert abs(alone - want) <= 1e-13 * want and abs(full - want) <= 1e-13 * want
        assert abs(sum_norm(s) - np.sqrt(want)) <= 1e-13 * np.sqrt(want)
        assert abs(s.norm_sq - want) <= 1e-13 * want


class TestSumNorm:
    def test_single_term(self):
        assert sum_norm(SlaterSum.from_state(standard_state(4, 2))) == pytest.approx(1.0)

    def test_split_coefficients(self):
        st = standard_state(4, 2)
        s = SlaterSum(((0.5, st), (0.5, st)))
        assert sum_norm(s) == pytest.approx(1.0, abs=1e-12)

    def test_matches_oracle_norm(self):
        rng = rng_for(51)
        terms = tuple(
            (c, SlaterState(random_orthonormal_columns(rng, 5, 2)))
            for c in (0.7, -0.2 + 0.4j, 0.1j)
        )
        s = SlaterSum(terms)
        assert sum_norm(s) == pytest.approx(fock.norm(fock.expand_sum(s)), abs=1e-9)


class TestEvolveSum:
    def test_matches_oracle(self):
        rng = rng_for(52)
        from conftest import random_hermitian
        from flosim.linalg import one_body_unitary

        s = random_two_term_sum(rng, 5, 2)
        b = random_hermitian(rng, 5)
        tau = 0.61
        evolved = evolve_sum(s, one_body_unitary(b, tau))
        assert evolved.term_count == s.term_count
        fast = fock.expand_sum(evolved)
        slow = fock.one_body_apply(fock.expand_sum(s), b, tau)
        assert np.allclose(fast.amplitudes, slow.amplitudes, atol=1e-9)
        assert sum_norm(evolved) == pytest.approx(sum_norm(s), abs=1e-10)

    @pytest.mark.parametrize("t", [1, 2, 17])
    @pytest.mark.parametrize("n", [0, 1, 3, 6])
    def test_bitwise_equal_to_per_term_evolve(self, t, n):
        """The stacked matmul rounds like evolve on each term, whatever
        the memory layout of the term's orbitals."""
        rng = rng_for(53 + 7 * t + n)
        d = 6
        u = random_unitary(rng, d)
        kinds = ("generic", "fortran", "view")
        terms = tuple(
            (random_complex(rng), SlaterState(kernel_orbitals(rng, kinds[i % 3], u, n)))
            for i in range(t)
        )
        s = SlaterSum(terms, d, n)
        v = random_unitary(rng, d)
        want = terms_bits([(c, evolve(state, v)) for c, state in s.terms])
        assert terms_bits(evolve_sum(s, v).terms) == want

    def test_bad_rotation_raises_as_per_term(self):
        """Also on the empty sum, whose rotation has no term to check."""
        s = random_two_term_sum(rng_for(54), 5, 2)
        empty = SlaterSum((), 5, 2)
        bads = (np.diag([1, 1, 1, 1, 1.001]), np.eye(4), np.eye(5)[:, :4], 5 * np.eye(5))
        for bad in bads:
            want = raised(evolve, s.terms[0][1], bad)
            assert want[0] in (NotUnitary, DimensionMismatch)
            assert raised(evolve_sum, s, bad) == want
            assert raised(evolve_sum, empty, bad) == want

    def test_off_orthonormal_term_raises_as_per_term(self):
        """Term 3, built off orthonormal through the bypass, fails evolve.
        evolve_sum checks the unitary alone: its rows are v @ orbitals bit
        for bit, and the sum's next measurement raises term 3's error, from
        the split's check of the rotated span, as term 3 split alone does."""
        rng = rng_for(55)
        u = random_unitary(rng, 7)
        terms = [(1.0, random_state(rng, 7, 3)) for _ in range(5)]
        terms[3] = (1.0, off_orthonormal_state(u, 3, (0, 1, 2), 1e-8))
        s = SlaterSum(tuple(terms), 7, 3)
        v = random_unitary(rng, 7)
        want = raised(lambda: [evolve(state, v) for _, state in s.terms])
        assert want[0] is FlosimError and "not orthonormal" in want[1]
        got = evolve_sum(s, v)
        assert got.orbitals.tobytes() == (v @ s.orbitals).tobytes()
        kap = random_mode(rng, 7)
        ref = raised(lambda: [split_pair([a], orb[None], None, kap, (0, 1))
                              for a, orb in zip(got.amps, got.orbitals)])
        assert ref == raised(split_pair, got.amps[3:4], got.orbitals[3:4], None, kap, (0, 1))
        assert ref[0] is FlosimError and ref[1].startswith("orbital columns not orthonormal")
        for outcome in (0, 1):
            assert raised(measure_mode_sum, got, kap, outcome) == ref


def reference_term_project(state, kap, want):
    """One single-mode projection with its own decomposition and
    rotation, as each outcome was projected before the split tree; kept
    as the reference for the one split kernel, within 1e-12 in the dense
    vector."""
    if state.electrons == 0:
        return (1.0, state) if want == 0 else None
    dec = decompose_mode(state, kap)
    if want == 1:
        if dec.in_orbital is None:
            return None
        rot = rotate_in_first(state, dec.in_orbital)
        new = SlaterState(
            np.column_stack([kap.reshape(-1, 1), rot.orbitals[:, 1:]]), rot.amplitude
        )
        return dec.alpha, new
    if dec.in_orbital is None:
        return 1.0, state
    if dec.out_orbital is None:
        return None
    rot = rotate_in_first(state, dec.in_orbital)
    perp = dec.beta * dec.in_orbital - dec.alpha * dec.out_orbital
    new = SlaterState(
        np.column_stack([perp.reshape(-1, 1), rot.orbitals[:, 1:]]), rot.amplitude
    )
    return dec.beta, new


def reference_apply_branch(coeff, state, sequence):
    for vec, want in sequence:
        res = reference_term_project(state, vec, want)
        if res is None:
            return None
        coeff = coeff * res[0]
        state = res[1]
    return coeff, state


# (lambda, kappa) occupations of the branches of each total occupation.
REFERENCE_BRANCHES = {0: ((0, 0),), 1: ((1, 0), (0, 1)), 2: ((1, 1),)}


def reference_two_mode_terms(s, kap, lam, outcome):
    """Projected terms of one outcome, every branch projected on its own."""
    out = []
    for coeff, state in s.terms:
        for want_lam, want_kap in REFERENCE_BRANCHES[outcome]:
            seq = ((lam, want_lam), (kap, want_kap))
            res = reference_apply_branch(coeff, state, seq)
            if res is not None:
                out.append(res)
    return out


def reference_single_leaves(s, kap, want):
    """Projected terms of one single-mode outcome, term by term."""
    terms = []
    for coeff, state in s.terms:
        res = reference_term_project(state, kap, want)
        if res is not None:
            terms.append((coeff * res[0], res[1]))
    return terms


def kernel_leaves(s, vecs, want, size=1):
    """split_pair's leaves of the sum s on the outcomes in want of the
    measured modes vecs ((lambda, kappa) or (kappa,)), one call per batch
    of size terms (by default per term, unstacked), as (coefficient,
    SlaterState) lists per total occupation, each listed as one call on
    the whole stack lists it: pattern by pattern, (1, 0) before (0, 1),
    then by term.  These are the leaves _group_sum stacks, before it
    prunes them."""
    out = [[], [], []]
    lam, kap = (None, *vecs)[-2:]
    for start in range(0, s.term_count, size):
        rows = slice(start, start + size)
        leaves, stack, _ = split_pair(s.amps[rows], s.orbitals[rows], lam, kap, want)
        built = iter(stack)
        for o, got in zip(want, leaves):
            out[o] += [((p == (0, 1), start + i),
                        (s.coeffs[start + i] * scale, SlaterState._checked(next(built), amp)))
                       for i, scale, amp, p in got]
    return [[leaf for _, leaf in sorted(leaves, key=lambda x: x[0])] for leaves in out]


def kernel_single_mode(s, vec, want):
    """One single-mode outcome of s built term by term (kernel_leaves),
    then pruned and capped as a sum."""
    terms = kernel_leaves(s, (vec,), (want,))[want]
    return SlaterSum(tuple(terms), s.modes, s.electrons, s.max_terms)


def kernel_tree(s, kap, lam):
    """Every two-mode leaf of s, term by term: split_pair on each term
    alone with every outcome wanted."""
    return kernel_leaves(s, (lam, kap), ALL_OUTCOMES)


def dense_close(terms, want, d, n):
    """The sums of two lists of (coefficient, SlaterState) terms agree
    within 1e-12 in every Fock amplitude."""
    got = fock.expand_sum(SlaterSum(tuple(terms), d, n)).amplitudes
    ref = fock.expand_sum(SlaterSum(tuple(want), d, n)).amplitudes
    return np.max(np.abs(got - ref), initial=0.0) <= 1e-12


def stack_of(states, d, n):
    """The states' orbitals as one C-contiguous (T, D, N) stack."""
    return np.array([st_.orbitals for st_ in states], dtype=complex).reshape(len(states), d, n)


def state_bits(state):
    return bits(state.amplitude), state.orbitals.shape, state.orbitals.tobytes()


def terms_bits(terms):
    return [(bits(c), state_bits(st)) for c, st in terms]


def _unit_in(rng, basis):
    v = basis @ random_complex(rng, basis.shape[1])
    return v / np.linalg.norm(v)


def _orthogonalized(v, w):
    w = w - v * np.vdot(v, w)
    return w / np.linalg.norm(w)


# Where the measured pair sits relative to the first term's filled span:
# anywhere, inside it, orthogonal to it, kappa inside and lambda outside,
# or on two standard sites.  A placement the shape cannot host falls
# back to "generic".
PLACEMENTS = ("generic", "in_span", "out_of_span", "straddle", "standard")
# "same_span" rotates the previous term's orbitals within their span, so
# a mode placed against the first term's span keeps its place for the
# terms that follow it that way.
SPLIT_TERM_KINDS = ("fresh", "same_span", "repeat", "standard")


@st.composite
def projection_recipes(draw, placement):
    d = draw(st.integers(2, 8))
    fill = draw(st.sampled_from(("empty", "full", "part", "part", "part")))
    n = {"empty": 0, "full": d}.get(fill)
    if n is None:
        n = draw(st.integers(1, d - 1))
    t = draw(st.integers(0, 9))
    kinds = draw(st.lists(st.sampled_from(SPLIT_TERM_KINDS), min_size=t, max_size=t))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    first = random_orthonormal_columns(rng, d, n)
    orbitals = first
    terms = []
    for i, kind in enumerate(kinds):
        if kind == "standard":
            orbitals = np.eye(d, n, dtype=complex)
        elif kind == "same_span" and n:
            orbitals = orbitals @ random_unitary(rng, n)
        elif kind == "fresh" and i:
            orbitals = random_orthonormal_columns(rng, d, n)
        amp = np.exp(1j * rng.uniform(0, 2 * np.pi))
        coeff = rng.uniform(0.1, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        terms.append((coeff, SlaterState(orbitals, amp)))
    span = terms[0][1].orbitals if terms else first
    # Orthonormal basis of the complement of the span.
    m = random_complex(rng, d, d - n)
    comp = np.linalg.qr(m - span @ (span.conj().T @ m))[0]
    kap, lam = random_orthogonal_pair(rng, d)
    if placement == "in_span" and n:
        kap = _unit_in(rng, span)
        lam = _orthogonalized(kap, _unit_in(rng, span) if n > 1 else lam)
    elif placement == "out_of_span" and n < d:
        kap = _unit_in(rng, comp)
        lam = _orthogonalized(kap, _unit_in(rng, comp) if d - n > 1 else lam)
    elif placement == "straddle" and 0 < n < d:
        kap, lam = _unit_in(rng, span), _unit_in(rng, comp)
    elif placement == "standard":
        i, j = rng.choice(d, size=2, replace=False)
        kap, lam = np.eye(d, dtype=complex)[:, i], np.eye(d, dtype=complex)[:, j]
    return d, n, tuple(terms), kap, lam


class TestSplitTree:
    """The one split kernel (split_pair), on two modes or one, stacked
    against its per-term, unstacked call, bit for bit, and against the
    per-outcome projection chain it replaces within 1e-12 in the dense
    vector; measure_mode, annihilate and the single-mode sum split post
    the kernel's per-term leaves bit for bit: coefficients,
    probabilities, amplitudes and orbital bytes of every term."""

    @pytest.mark.parametrize("placement", PLACEMENTS)
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(data=st.data())
    def test_bitwise_equal_to_projection_chain(self, placement, data):
        d, n, terms, kap, lam = data.draw(projection_recipes(placement))
        s = SlaterSum(terms, d, n)
        per_term = kernel_tree(s, kap, lam)
        stacked = kernel_leaves(s, (lam, kap), ALL_OUTCOMES, max(1, s.term_count))
        groups = two_mode_groups(s, kap, lam, "012")
        for outcome in (0, 1, 2):
            ref = per_term[outcome]
            assert terms_bits(stacked[outcome]) == terms_bits(ref)
            alone = kernel_leaves(s, (lam, kap), (outcome,), max(1, s.term_count))
            assert terms_bits(alone[outcome]) == terms_bits(ref)
            ref_sum = SlaterSum(tuple(ref), d, n).terms
            got = apply_two_mode_projector(s, kap, lam, outcome).terms
            assert terms_bits(got) == terms_bits(ref_sum)
            assert terms_bits(groups[str(outcome)].terms) == terms_bits(ref_sum)
            assert dense_close(ref, reference_two_mode_terms(s, kap, lam, outcome), d, n)
        for vec in (kap, lam):
            for want in (0, 1):
                ref = kernel_leaves(s, (vec,), (want,))[want]
                got = project_single_mode(s, vec, want).terms
                assert terms_bits(got) == terms_bits(SlaterSum(tuple(ref), d, n).terms)
                leaves = kernel_leaves(s, (vec,), (want,), max(1, s.term_count))[want]
                assert terms_bits(leaves) == terms_bits(ref)
                assert dense_close(ref, reference_single_leaves(s, vec, want), d, n)
                for _, state in terms:
                    check_measure_mode(state, vec, want)
            for _, state in terms:
                check_annihilate(state, vec)


def check_measure_mode(state, vec, want):
    """measure_mode forced to `want` posts the kernel's leaf of that
    outcome (kernel_splits on the one state), with probability its
    squared scale, bit for bit, or raises when that leaf is not built or
    falls below PROB_FLOOR.  The leaf is the reference projection within
    1e-12 in the dense vector."""
    leaf = kernel_splits([state], state.modes, state.electrons, vec)[0][want]
    old = reference_term_project(state, vec, want)
    assert dense_close([leaf] if leaf else [], [old] if old else [], *state.orbitals.shape)
    if leaf is None or leaf[0] ** 2 < PROB_FLOOR:
        with pytest.raises(ImpossibleOutcome):
            measure_mode(state, vec, forced=want)
        return
    outcome, prob, post = measure_mode(state, vec, forced=want)
    assert outcome == want
    assert state_bits(post) == state_bits(leaf[1])
    assert float(prob).hex() == float(leaf[0] ** 2).hex()


def check_annihilate(state, vec):
    """annihilate drops the first orbital, vec, of the kernel's outcome-1
    leaf (kernel_splits on the one state) and scales its amplitude by the
    leaf's scale, bit for bit; that is the reference projection's
    annihilation within 1e-12 in the dense vector."""
    got = annihilate(state, vec)
    one = kernel_splits([state], state.modes, state.electrons, vec)[0][1]
    if one is None:
        assert got.amplitude == 0.0
        assert got.electrons == max(state.electrons - 1, 0)
        return
    scale, occupied = one
    want = SlaterState(occupied.orbitals[:, 1:], occupied.amplitude * scale)
    assert state_bits(got) == state_bits(want)
    old_scale, old = reference_term_project(state, vec, 1)
    old = SlaterState(old.orbitals[:, 1:], old.amplitude * old_scale)
    assert dense_close([(1.0, got)], [(1.0, old)], state.modes, state.electrons - 1)


def split_bits(pair):
    return [None if r is None else (float(r[0]).hex(), state_bits(r[1])) for r in pair]


def reference_split(state, vec):
    """[zero, one] of reference_term_project, outcome 1 built first as a
    split checks its children, so a failing state raises what it raises."""
    one = reference_term_project(state, vec, 1)
    return [reference_term_project(state, vec, 0), one]


ALL_OUTCOMES = (0, 1, 2)


def outcome_probs(s, kap, lam, grouping):
    """_probabilities of a two-mode measurement, keyed by group label."""
    groups = GROUPINGS[grouping]
    return dict(zip(map(group_label, groups), _probabilities(s, (lam, kap), groups)[0]))


def two_mode_groups(s, kap, lam, grouping):
    """Every group sum of a grouping from every leaf of every term
    (kernel_tree): the sums of outcomes 0, 1 and 2 built, pruned and
    capped in that order, then a merged group concatenating its
    outcomes' terms.  The library built every group this way before it
    built only the chosen one; it stays here as the reference for that
    group."""
    shape = (s.modes, s.electrons, s.max_terms)
    sums = [SlaterSum(tuple(t), *shape) for t in kernel_tree(s, kap, lam)]
    return {
        group_label(g): SlaterSum(tuple(t for o in g for t in sums[o].terms), *shape)
        for g in GROUPINGS[grouping]
    }


NEAR_EPS = 1e-9  # inside the re-orthogonalization band of decompose_mode
# Terms placed against the measured mode u[:, 0]: a random span, a span
# holding the mode, one orthogonal to it and one NEAR_EPS from it, whose
# residual the kernel projects out twice.  A kind the shape cannot host
# falls back to "generic".  kernel_orbitals also stores random spans in Fortran
# order ("fortran") or as a strided column view ("view"); a sum stores
# both as C-contiguous rows (TestStoredLayout).
KERNEL_TERM_KINDS = ("generic", "in_span", "orthogonal", "near_span")


def kernel_orbitals(rng, kind, u, n):
    d = u.shape[0]
    vec, comp = u[:, 0], u[:, 1:]
    if kind == "in_span" and n:
        rest = comp @ random_orthonormal_columns(rng, d - 1, n - 1)
        return np.column_stack([vec, rest]) @ random_unitary(rng, n)
    if kind == "orthogonal" and n < d:
        return comp @ random_orthonormal_columns(rng, d - 1, n)
    if kind == "near_span" and 0 < n < d:
        w = comp @ random_unitary(rng, d - 1)
        phi = np.sqrt(1 - NEAR_EPS**2) * vec - NEAR_EPS * w[:, 0]
        return np.column_stack([phi, w[:, 1:n]]) @ random_unitary(rng, n)
    orbitals = random_orthonormal_columns(rng, d, n)
    if kind == "fortran":
        return np.asfortranarray(orbitals)
    if kind == "view":
        return np.column_stack([orbitals, orbitals[:, :1]])[:, :n]
    return orbitals


@st.composite
def kernel_stacks(draw, t=None, n=None, kinds=KERNEL_TERM_KINDS):
    """(D, N, terms, vec, lam) for t terms of N electrons, each drawn when
    not given; a given N gets D > N, so that every kind fits."""
    d = draw(st.integers(1 if n is None else n + 1, 8))
    n = draw(st.integers(0, d)) if n is None else n
    t = draw(st.sampled_from([0, 1, 2, 17, 64])) if t is None else t
    kinds = draw(st.lists(st.sampled_from(kinds), min_size=t, max_size=t))
    contiguous_mode = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = random_unitary(rng, d)
    terms = []
    for kind in kinds:
        amp = rng.uniform(0.0, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        coeff = rng.uniform(0.1, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        terms.append((coeff, SlaterState(kernel_orbitals(rng, kind, u, n), amp)))
    vec = np.ascontiguousarray(u[:, 0]) if contiguous_mode else u[:, 0]
    lam = u[:, 1] if d > 1 else None
    return d, n, tuple(terms), vec, lam


def kernel_splits(states, d, n, vec, batch=None):
    """split_pair on vec alone over the states' stack, one call per batch
    of batch states (one call by default): per state its [zero, one]
    leaves, each (scale, SlaterState) or None when it is not built."""
    amps = [state.amplitude for state in states]
    stack = stack_of(states, d, n)
    size = batch or max(1, len(states))
    out = [[None, None] for _ in states]
    for start in range(0, len(states), size):
        rows = slice(start, start + size)
        leaves, built, _ = split_pair(amps[rows], stack[rows], None, vec, (0, 1))
        built = iter(built)
        for outcome, got in enumerate(leaves):
            for i, scale, amp, _ in got:
                out[start + i][outcome] = (scale, SlaterState._checked(next(built), amp))
    return out


def splits_bits(splits):
    return [split_bits(pair) for pair in splits]


def check_reference_splits(states, vec, splits):
    """Each state's [zero, one] leaves have decompose_mode's beta and
    alpha as scales within 1e-14, and are reference_split's projections
    within 1e-12 in the dense vector; a leaf that is not built has a
    reference scale within 1e-14 of ABSENT_TOL or below."""
    for state, pair in zip(states, splits):
        dec = decompose_mode(state, vec)
        for leaf, old, scale in zip(pair, reference_split(state, vec), (dec.beta, dec.alpha)):
            if leaf is None:
                assert scale <= ABSENT_TOL + 1e-14
            else:
                assert abs(leaf[0] - scale) <= 1e-14
            assert dense_close([leaf] if leaf else [], [old] if old else [],
                               *state.orbitals.shape)


class TestSplitKernel:
    """The one kernel on one mode, stacked against its per-term call, bit
    for bit: scales, amplitudes and orbital bytes, for every batch size,
    one state, N = 0 and 1, and the re-orthogonalization band; and
    against decompose_mode and the per-term projection chain it replaced
    (check_reference_splits)."""

    @pytest.mark.parametrize("batch", [1, 7, 32])
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(recipe=kernel_stacks())
    def test_bitwise_equal_to_per_term_projection(self, batch, recipe):
        d, n, terms, vec, lam = recipe
        states = [state for _, state in terms]
        splits = kernel_splits(states, d, n, vec)
        ref = splits_bits(kernel_splits(states, d, n, vec, 1))
        assert splits_bits(splits) == ref
        assert splits_bits(kernel_splits(states, d, n, vec, batch)) == ref
        check_reference_splits(states, vec, splits)
        s = SlaterSum(terms, d, n)
        for want in (0, 1):
            got = kernel_leaves(s, (vec,), (want,), batch)[want]
            assert terms_bits(got) == terms_bits(kernel_leaves(s, (vec,), (want,))[want])
        if lam is not None:
            for got, want in zip(kernel_leaves(s, (lam, vec), ALL_OUTCOMES, batch),
                                 kernel_tree(s, vec, lam)):
                assert terms_bits(got) == terms_bits(want)
            for outcome in ALL_OUTCOMES:
                got = apply_two_mode_projector(s, vec, lam, outcome).terms
                want = two_mode_groups(s, vec, lam, "012")[str(outcome)].terms
                assert terms_bits(got) == terms_bits(want)

    @pytest.mark.parametrize("t,n", [(1, None), (None, 0), (None, 1), (1, 0), (1, 1)])
    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(data=st.data())
    def test_one_state_and_at_most_one_electron(self, t, n, data):
        """A lone state is a (1, D, N) stack, N = 0 passes every state
        through as its outcome-0 leaf and N = 1 rotates by the normalized
        c alone."""
        d, n, terms, vec, _ = data.draw(kernel_stacks(t, n))
        states = [state for _, state in terms]
        splits = kernel_splits(states, d, n, vec)
        assert splits_bits(splits) == splits_bits(kernel_splits(states, d, n, vec, 1))
        check_reference_splits(states, vec, splits)
        if n == 0:
            assert splits_bits(splits) == [split_bits([(1.0, st_), None]) for st_ in states]

    @pytest.mark.parametrize(
        "t,n,kinds",
        [(None, None, KERNEL_TERM_KINDS), (None, 0, KERNEL_TERM_KINDS),
         (None, 1, KERNEL_TERM_KINDS), (17, 3, ("near_span",))],
        ids=["any", "n0", "n1", "band"],
    )
    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(data=st.data())
    def test_one_outcome_builds_its_leaves_bit_for_bit(self, t, n, kinds, data):
        """want=(0,) or (1,) gives want=(0, 1)'s leaves of that outcome
        byte for byte, and no other: over random spans, spans holding vec
        (no outcome-0 leaf), spans orthogonal to it (no outcome-1 leaf),
        N = 0 and 1, and the re-orthogonalization band."""
        d, n, terms, vec, _ = data.draw(kernel_stacks(t, n, kinds))
        amps = [state.amplitude for _, state in terms]
        stack = stack_of([state for _, state in terms], d, n)

        def leaf_bits(leaves):
            return [(i, scale.hex(), bits(amp), p) for i, scale, amp, p in leaves]

        both, built, _ = split_pair(amps, stack, None, vec, (0, 1))
        rows = (built[: len(both[0])], built[len(both[0]) :])
        for want in (0, 1):
            (alone,), got, _ = split_pair(amps, stack, None, vec, (want,))
            assert leaf_bits(alone) == leaf_bits(both[want])
            assert (got.shape, got.tobytes()) == (rows[want].shape, rows[want].tobytes())

    @pytest.mark.parametrize("t,n", [(1, 1), (2, 2), (17, 3)])
    @settings(derandomize=True, database=None, deadline=None, max_examples=20)
    @given(data=st.data())
    def test_re_orthogonalization_band(self, t, n, data):
        """Every state lies NEAR_EPS from vec, so its outcome-0 scale falls
        in the band where the new column is projected out a second time."""
        d, n, terms, vec, _ = data.draw(kernel_stacks(t, n, ("near_span",)))
        states = [state for _, state in terms]
        splits = kernel_splits(states, d, n, vec)
        assert splits_bits(splits) == splits_bits(kernel_splits(states, d, n, vec, 1))
        check_reference_splits(states, vec, splits)
        assert all(ABSENT_TOL < zero[0] < REORTH_TOL for zero, _ in splits)


class TestStoredLayout:
    """A sum stores its orbitals once, as a read-only C-contiguous
    (T, D, N) stack.  Built from Fortran-ordered or strided-view states,
    it holds their entries in C order, so every kernel rounds as on the
    sum of their C-contiguous copies."""

    @pytest.mark.parametrize("kind", ["fortran", "view"])
    def test_rounds_like_its_c_contiguous_copy(self, kind):
        rng = rng_for(131)
        d, n = 7, 3
        u = random_unitary(rng, d)
        terms = tuple(
            (random_complex(rng), SlaterState(kernel_orbitals(rng, kind, u, n)))
            for _ in range(5)
        )
        assert not any(st_.orbitals.flags.c_contiguous for _, st_ in terms)
        copies = tuple(
            (c, SlaterState(np.ascontiguousarray(st_.orbitals), st_.amplitude))
            for c, st_ in terms
        )
        s, ref = SlaterSum(terms), SlaterSum(copies)
        assert s.orbitals.shape == (5, d, n)
        assert s.orbitals.flags.c_contiguous and not s.orbitals.flags.writeable
        assert terms_bits(s.terms) == terms_bits(ref.terms)
        assert sum_norm(s).hex() == sum_norm(ref).hex()
        v = random_unitary(rng, d)
        assert terms_bits(evolve_sum(s, v).terms) == terms_bits(evolve_sum(ref, v).terms)
        kap, lam = u[:, 0], u[:, 4]
        for grouping, label in (("02/1", "1"), ("02/1", "02"), ("012", "0")):
            got = measure_two_mode(s, kap, lam, grouping, forced=label)
            want = measure_two_mode(ref, kap, lam, grouping, forced=label)
            assert got[1].hex() == want[1].hex()
            assert terms_bits(got[2].terms) == terms_bits(want[2].terms)


class TestStoredForm:
    """coeffs, amps and the orbital stack are the sum; .terms is a view."""

    @staticmethod
    def _parity_grown(rng, d, n, rounds):
        s = SlaterSum.from_state(SlaterState(random_orthonormal_columns(rng, d, n)))
        for _ in range(rounds):
            kap, lam = random_orthogonal_pair(rng, d)
            s = measure_two_mode(s, kap, lam, "02/1", forced="1")[2]
        return s

    def test_terms_view_reads_the_stack(self):
        s = self._parity_grown(rng_for(132), 6, 3, 2)
        assert s.term_count == len(s.coeffs) == len(s.amps) == s.orbitals.shape[0] >= 2
        assert (s.modes, s.electrons) == (6, 3)
        for (c, state), c_row, a, orb in zip(s.terms, s.coeffs, s.amps, s.orbitals):
            assert np.shares_memory(state.orbitals, s.orbitals)
            assert (c, state.amplitude) == (c_row, a)
            assert state.orbitals.tobytes() == orb.tobytes()
        with pytest.raises(ValueError):
            s.terms[0][1].orbitals[0, 0] = 2.0
        empty = SlaterSum((), 5, 2)
        assert empty.orbitals.shape == (0, 5, 2) and empty.terms == ()

    def test_parity_grown_measurement_builds_no_per_term_state(self, monkeypatch):
        """measure_two_mode on a parity-grown sum (T >= 2, N >= 2, generic
        modes) builds no SlaterState, public or _checked, and splits no
        term through a one-state split (measure_mode, annihilate)."""
        rng = rng_for(133)
        s = self._parity_grown(rng, 6, 3, 2)
        assert s.term_count >= 2
        built = []
        post_init, checked = SlaterState.__post_init__, SlaterState._checked
        monkeypatch.setattr(
            SlaterState, "__post_init__", lambda self: built.append("public") or post_init(self)
        )
        monkeypatch.setattr(
            SlaterState, "_checked",
            classmethod(lambda cls, orb, amp: built.append("checked") or checked(orb, amp)),
        )
        assert not hasattr(multislater, "measure_mode")
        unused = mock.Mock(side_effect=AssertionError("a term took a one-state split"))
        monkeypatch.setattr(slater, "measure_mode", unused)
        monkeypatch.setattr(slater, "annihilate", unused)
        kap, lam = random_orthogonal_pair(rng, 6)
        for grouping, label in (("02/1", "1"), ("02/1", "02"), ("012", "1")):
            post = measure_two_mode(s, kap, lam, grouping, forced=label)[2]
            assert post.term_count >= s.term_count
        assert built == []


def off_orthonormal_state(u, n, span, delta):
    """Orbitals u[:, span[0]], u[:, span[1]] and u[:, span[2]] + delta *
    u[:, span[1]], plus further columns of u, bypassing the constructor.
    A split on a mode of this span passes the mode and span checks; its
    rotated span then fails the orthonormality check, deviation about
    sqrt(2) delta."""
    cols = [u[:, k] for k in span[:n]]
    cols[2] = cols[2] + delta * cols[1]
    return SlaterState._checked(np.column_stack(cols), 1.0 + 0.0j)


def unequal_norm_state(eps):
    """Orthogonal orbitals sqrt(1 + eps) e0 and sqrt(1 - eps) e1 on 4
    modes, bypassing the constructor, and a mode on e0 and e1 weighted so
    that its in-span vector keeps unit norm: a split on it passes the
    mode-norm check and fails NotInSpan, about eps from the span."""
    phi = np.zeros((4, 2), dtype=complex)
    phi[0, 0], phi[1, 1] = np.sqrt(1 + eps), np.sqrt(1 - eps)
    kap = np.array([np.sqrt((1 - eps) / 2), np.sqrt((1 + eps) / 2), 0, 0], dtype=complex)
    return SlaterState._checked(phi, 1.0 + 0.0j), kap


def raised(fn, *args):
    with pytest.raises(Exception) as err:
        fn(*args)
    return type(err.value), str(err.value)


class TestStackedChecks:
    """A state failing a check inside a stack raises exactly what the
    per-term path (reference_split on each term in turn) raises: the same
    class, the same message, from the same first failing term."""

    @staticmethod
    def _sum(rng, d, n, t, bad):
        u = random_unitary(rng, d)
        terms = [(1.0, random_state(rng, d, n)) for _ in range(t)]
        for index, span, delta in bad:
            terms[index] = (0.5, off_orthonormal_state(u, n, span, delta))
        return u, SlaterSum(tuple(terms), d, n)

    @pytest.mark.parametrize("t,index", [(2, 0), (2, 1), (17, 8), (40, 39)])
    def test_off_orthonormal_term(self, t, index):
        d, n = 7, 3
        u, s = self._sum(rng_for(90 + t), d, n, t, [(index, (0, 1, 2), 1e-8)])
        kap, lam = u[:, 0], u[:, 5]
        ref = raised(lambda: [reference_split(state, kap) for _, state in s.terms])
        assert ref[0] is FlosimError and "not orthonormal" in ref[1]
        assert raised(measure_mode, s.terms[index][1], kap, 0) == ref
        tree_ref = raised(kernel_tree, s, kap, lam)
        assert tree_ref[0] is FlosimError and "not orthonormal" in tree_ref[1]
        for want in (0, 1):
            assert raised(project_single_mode, s, kap, want) == ref
            assert raised(measure_mode_sum, s, kap, want) == ref
        assert raised(_group_sum, s, (lam, kap), ALL_OUTCOMES) == tree_ref
        assert raised(measure_two_mode, s, kap, lam, "02/1", "02") == tree_ref

    def test_first_failing_term_wins_across_checks(self):
        """Term 3 fails the check of its rotated span (lambda misses its
        span), and so does term 5, whose lambda target rotate_in_first
        would reject by its norm: a split's reflector targets are not
        checked.  Term 3's error comes first, term by term and in the
        stacked check alike."""
        d, n = 8, 3
        bad = [(3, (0, 1, 2), 1e-8), (5, (1, 4, 3), 1e-4)]
        u, s = self._sum(rng_for(93), d, n, 12, bad)
        kap, lam = u[:, 0], u[:, 4]
        ref = raised(kernel_tree, s, kap, lam)
        one = [s.amps[3]], s.orbitals[3:4], lam, kap, ALL_OUTCOMES
        assert ref == raised(split_pair, *one)
        assert ref[0] is FlosimError and "not orthonormal" in ref[1]
        five_state = SlaterState._checked(s.orbitals[5], s.amps[5])
        assert raised(reference_term_project, five_state, lam, 1)[1].startswith("mode vector norm")
        five = raised(split_pair, [s.amps[5]], s.orbitals[5:6], lam, kap, ALL_OUTCOMES)
        assert five[0] is FlosimError and five[1].startswith("orbital columns not orthonormal")
        assert raised(split_pair, s.amps, s.orbitals, lam, kap, ALL_OUTCOMES) == ref
        assert raised(_group_sum, s, (lam, kap), ALL_OUTCOMES) == ref

    @pytest.mark.parametrize(
        "span,delta,error",
        [
            ((0, 1, 2), 1e-8, (FlosimError, "orbital columns not orthonormal")),
            ((0, 1, 2), 1e-2, (FlosimError, "orbital columns not orthonormal")),
            ((1, 0, 2), 1e-2, (FlosimError, "mode vector norm")),
            ((1, 2, 0), 1e-4, (FlosimError, "mode vector norm")),
            (None, 1e-6, (NotInSpan, "vector is 1.000e-06 away")),
        ],
    )
    def test_one_term_stack_raises_the_reference_error(self, span, delta, error):
        """reference_term_project rejects each failing state with error,
        from rotate_in_first's mode-norm and span checks to the
        constructor's orthonormality check.  A (1, D, N) stack of it
        raises FlosimError from the check of its rotated span, which is
        the reference's class and message where that is the
        orthonormality check: a split's reflector targets, built from the
        span, are not checked."""
        if span is None:
            state, kap = unequal_norm_state(delta)
        else:
            u = random_unitary(rng_for(97), 7)
            state, kap = off_orthonormal_state(u, 3, span, delta), u[:, 0]
        ref = raised(reference_term_project, state, kap, 1)
        assert ref[0] is error[0] and ref[1].startswith(error[1])
        stack = np.ascontiguousarray(state.orbitals)[None]
        rotated = raised(check_orthonormal, slater._reflect_onto(stack, kap)[0])
        assert rotated[0] is FlosimError
        assert rotated[1].startswith("orbital columns not orthonormal")
        if ref[1].startswith("orbital"):
            assert rotated == ref
        assert raised(split_pair, [state.amplitude], stack, None, kap, (0, 1)) == rotated
        assert raised(measure_mode, state, kap, 0) == rotated
        # kap as split_pair's lambda, with a kappa off the span
        other = standard_mode(4, 3) if span is None else u[:, 6]
        got = raised(split_pair, [state.amplitude], stack, kap, other, ALL_OUTCOMES)
        assert got[0] is FlosimError and got[1].startswith("orbital columns not orthonormal")

    def test_nan_term_splits_as_per_term(self):
        """A NaN orbital makes alpha NaN, so the span is not rotated, and
        the check of the rotated span rejects it, stacked as per term, on
        one mode as on two; the norm rejects it before any split."""
        d, n = 6, 3
        rng = rng_for(94)
        u = random_unitary(rng, d)
        orbitals = random_orthonormal_columns(rng, d, n)
        orbitals[2, 1] = np.nan
        terms = [(1.0, random_state(rng, d, n)) for _ in range(5)]
        terms[2] = (0.5, SlaterState._checked(orbitals, 1.0 + 0.0j))
        s = SlaterSum(tuple(terms), d, n)
        kap, lam = u[:, 0], u[:, 1]
        ref = raised(kernel_tree, s, kap, lam)
        assert ref == (FlosimError, "orbital entries must be finite")
        assert raised(_group_sum, s, (lam, kap), ALL_OUTCOMES) == ref
        for want in (0, 1):
            assert raised(kernel_leaves, s, (kap,), (want,), s.term_count) == ref
            assert raised(_group_sum, s, (kap,), (want,)) == ref
        assert raised(measure_two_mode, s, kap, lam, "012", "0") == (
            ValueError,
            "matrix entries must be finite",
        )


class TestConstructorTolerance:
    """A state the constructor accepts is measured.  One orbital scaled by
    1 + 3e-11 leaves a Gram deviation of 6.0e-11, within ORTHO_TOL; a
    split's reflector target along that orbital has norm 1 + 3e-11, which
    a check at MODE_NORM_TOL (ORTHO_TOL / 4) would reject.  Probabilities
    agree with the dense state's within 1e-10, the state's own distance
    from a normalized one."""

    @staticmethod
    def _scaled_state():
        u = random_unitary(rng_for(98), 6)
        phi = u[:, :3].copy()
        phi[:, 0] *= 1 + 3e-11
        return u, SlaterState(phi)

    def test_scaled_orbital_measures_as_the_dense_state(self):
        u, state = self._scaled_state()
        s = SlaterSum.from_state(state)
        v = fock.expand(state)
        mass = fock.norm(v) ** 2
        kap = (u[:, 0] + u[:, 4]) / np.sqrt(2)
        lam = (u[:, 1] - u[:, 5]) / np.sqrt(2)
        p1 = fock.norm(fock.annihilation_op_apply(v, kap)) ** 2 / mass
        for outcome, want in ((0, 1 - p1), (1, p1)):
            assert measure_mode(state, kap, forced=outcome)[1] == pytest.approx(want, abs=1e-10)
            got, prob, post = measure_mode_sum(s, kap, forced=outcome)
            assert (got, prob) == (outcome, pytest.approx(want, abs=1e-10))
            assert post.term_count == project_single_mode(s, kap, outcome).term_count == 1
        for label in ("0", "1", "2"):
            projected = fock.two_mode_projector_apply(v, kap, lam, int(label))
            got, prob, post = measure_two_mode(s, kap, lam, "012", forced=label)
            assert prob == pytest.approx(fock.norm(projected) ** 2 / mass, abs=1e-10)
            assert fock.fidelity(fock.expand_sum(post), projected) >= 1 - 1e-12

    def test_scaled_orbital_rotates_in_its_decomposition_target(self):
        """rotate_in_first takes every in_orbital decompose_mode returns
        for the state (norm 1 + 3e-11 along the scaled orbital), and the
        rotated state has the same dense vector; so does the per-term
        reference projection built on them."""
        u, state = self._scaled_state()
        v = fock.expand(state)
        kap = (u[:, 0] + u[:, 4]) / np.sqrt(2)
        for vec in (kap, u[:, 0], (u[:, 1] - u[:, 5]) / np.sqrt(2)):
            dec = decompose_mode(state, vec)
            rot = rotate_in_first(state, dec.in_orbital)
            assert np.linalg.norm(rot.orbitals[:, 0] - dec.in_orbital) < 1e-10
            assert np.max(np.abs(fock.expand(rot).amplitudes - v.amplitudes)) < 1e-10
        p1 = fock.norm(fock.annihilation_op_apply(v, kap)) ** 2 / fock.norm(v) ** 2
        for outcome, want in ((0, 1 - p1), (1, p1)):
            scale, new = reference_term_project(state, kap, outcome)
            assert scale ** 2 == pytest.approx(want, abs=1e-10)
            dense = fock.expand(measure_mode(state, kap, forced=outcome)[2])
            assert fock.fidelity(fock.expand(new), dense) >= 1 - 1e-12


@st.composite
def pruned_tree_cases(draw, t):
    """(sum, kappa, lambda) of t terms on D from 2 to 8 modes, N drawn
    from 0 to D with N <= 1 and N = D often, terms placed against kappa
    as the kernel tests place them (per-term lanes included), and the
    pair a random orthonormal pair or two standard sites."""
    d = draw(st.integers(2, 8))
    n = draw(st.sampled_from([0, 1, 1, d, *range(d + 1)]))
    kinds = draw(st.lists(st.sampled_from(KERNEL_TERM_KINDS), min_size=t, max_size=t))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = random_unitary(rng, d)
    if draw(st.booleans()):
        i, j = rng.choice(d, size=2, replace=False)
        u = np.eye(d, dtype=complex)[:, [i, j, *np.setdiff1d(range(d), [i, j])]]
    terms = []
    for kind in kinds:
        amp = rng.uniform(0.1, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        coeff = rng.uniform(0.1, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        terms.append((coeff, SlaterState(kernel_orbitals(rng, kind, u, n), amp)))
    return SlaterSum(tuple(terms), d, n), u[:, 0], u[:, 1]


class TestPrunedTree:
    """A measurement builds only the leaves of its chosen group.  Each
    group built alone is bitwise the full tree's group (two_mode_groups),
    in every grouping, and each single-mode outcome the per-term
    projection (kernel_single_mode): coefficients, amplitudes and
    orbital bytes."""

    # t = 1 is a one-state stack.
    @pytest.mark.parametrize("t", [1, 2, 9, 33])
    @settings(derandomize=True, database=None, deadline=None, max_examples=20)
    @given(data=st.data())
    def test_chosen_group_alone_matches_full_tree(self, t, data):
        s, kap, lam = data.draw(pruned_tree_cases(t))
        self._check_groups(s, kap, lam)

    @staticmethod
    def _check_groups(s, kap, lam):
        for grouping in GROUPINGS:
            full = two_mode_groups(s, kap, lam, grouping)
            probs = outcome_probs(s, kap, lam, grouping)
            for label, group in full.items():
                got = _group_sum(s, (lam, kap), label)
                assert terms_bits(got.terms) == terms_bits(group.terms)
                if probs[label] >= PROB_FLOOR:
                    post = measure_two_mode(s, kap, lam, grouping, forced=label)[2]
                    want = scale_sum(group, 1.0 / np.sqrt(probs[label]))
                    assert terms_bits(post.terms) == terms_bits(want.terms)
            if grouping == "012":
                for outcome in ALL_OUTCOMES:
                    got = apply_two_mode_projector(s, kap, lam, outcome)
                    assert terms_bits(got.terms) == terms_bits(full[str(outcome)].terms)
        for vec in (kap, lam):
            probs = _probabilities(s, (vec,), ONE_MODE)[0]
            for outcome in (0, 1):
                want = kernel_single_mode(s, vec, outcome)
                got = _group_sum(s, (vec,), (outcome,))
                assert terms_bits(got.terms) == terms_bits(want.terms)
                if probs[outcome] >= PROB_FLOOR:
                    post = measure_mode_sum(s, vec, forced=outcome)[2]
                    want = scale_sum(want, 1.0 / np.sqrt(probs[outcome]))
                    assert terms_bits(post.terms) == terms_bits(want.terms)

    def test_failing_term_raises_its_error_in_every_group(self):
        """Term 3 lies orthogonal to lambda and fails the check of its
        rotated span.  Every two-mode group rotates every term's span, so
        each falls back term by term and raises term 3's error, as every
        leaf of the full tree does.  Measured alone, kappa splits term 3
        and raises its error in both outcomes; lambda misses its span,
        which is checked unrotated and raises the same error, as per
        term."""
        d, n = 8, 3
        u, s = TestStackedChecks._sum(rng_for(95), d, n, 12, [(3, (0, 1, 2), 1e-8)])
        kap, lam = u[:, 0], u[:, 4]
        ref = raised(kernel_tree, s, kap, lam)
        assert ref[0] is FlosimError and "not orthonormal" in ref[1]
        single_ref = raised(reference_split, s.terms[3][1], kap)
        for grouping, groups in GROUPINGS.items():
            for label in map(group_label, groups):
                assert raised(_group_sum, s, (lam, kap), label) == ref
                assert raised(measure_two_mode, s, kap, lam, grouping, label) == ref
        for outcome in (0, 1):
            assert raised(_group_sum, s, (kap,), (outcome,)) == single_ref
            assert raised(measure_mode_sum, s, kap, outcome) == single_ref
            assert raised(_group_sum, s, (lam,), (outcome,)) == ref
            assert raised(kernel_single_mode, s, lam, outcome) == ref

    def test_each_outcome_alone_builds_only_its_leaves(self, monkeypatch):
        """On one generic determinant each outcome takes one split of its
        one term, which checks the rotated span and then only that
        outcome's leaves: one for outcome 0 or 2, (1, 0) and (0, 1) for
        outcome 1.  No leaf of another outcome is built or checked."""
        rng = rng_for(96)
        s = SlaterSum.from_state(random_state(rng, 6, 3))
        kap, lam = random_orthogonal_pair(rng, 6)
        tree = kernel_tree(s, kap, lam)
        assert [len(leaves) for leaves in tree] == [1, 2, 1]
        split, checked = [], []
        real_split, real_check = multislater.split_pair, slater.check_orthonormal
        monkeypatch.setattr(
            multislater, "split_pair", lambda *a: split.append(len(a[0])) or real_split(*a)
        )
        monkeypatch.setattr(
            slater, "check_orthonormal", lambda orb: checked.append(orb.copy()) or real_check(orb)
        )
        for outcome, count in ((0, 1), (1, 2), (2, 1)):
            split.clear()
            checked.clear()
            got = apply_two_mode_projector(s, kap, lam, outcome)
            assert split == [1]
            assert [c.shape for c in checked] == [(1, 6, 3), (count, 6, 3)]
            assert checked[1].tobytes() == got.orbitals.tobytes()
            assert terms_bits(got.terms) == terms_bits(tree[outcome])
            others = {st_.orbitals.tobytes() for o in ALL_OUTCOMES if o != outcome
                      for _, st_ in tree[o]}
            assert not others & {leaf.tobytes() for c in checked for leaf in c}

    @pytest.mark.parametrize("kind", ["one", "two"])
    def test_floor_is_checked_before_building(self, kind):
        """A forced outcome of probability 0 raises ImpossibleOutcome
        before any term is split: mode 0 is filled and mode 2 empty, so
        outcome 0 of mode 0 and group 02 of the pair are impossible."""
        s = SlaterSum.from_state(standard_state(4, 2), max_terms=1)
        e = np.eye(4, dtype=complex)
        unused = mock.Mock(side_effect=AssertionError("a term was split"))
        with mock.patch.object(multislater, "split_pair", unused):
            if kind == "one":
                with pytest.raises(ImpossibleOutcome, match=r"^outcome 0 has probability"):
                    measure_mode_sum(s, e[:, 0], forced=0)
            else:
                with pytest.raises(ImpossibleOutcome, match=r"^outcome '02' has probability"):
                    measure_two_mode(s, e[:, 0], e[:, 2], "02/1", forced="02")
        unused.assert_not_called()


def test_impossible_outcome_names_the_floor_not_the_noise():
    """A forced outcome whose probability is rounding noise (about
    1e-17 here) raises with PROB_FLOOR in its message, so a change in
    the last bits of a kernel leaves the message as it was: one state,
    a sum, and a pair whose outcome 2 is that unlikely."""
    eps = 3e-9
    e = np.eye(4, dtype=complex)
    kap = np.sqrt(1 - eps**2) * e[:, 3] + eps * e[:, 0]
    state = standard_state(4, 2)
    assert 1e-18 < decompose_mode(state, kap).alpha ** 2 < 1e-16
    s = SlaterSum.from_state(state)
    for measure in (measure_mode, measure_mode_sum):
        with pytest.raises(ImpossibleOutcome) as err:
            measure(state if measure is measure_mode else s, kap, forced=1)
        assert str(err.value) == "outcome 1 has probability below 1e-12"
    with pytest.raises(ImpossibleOutcome) as err:
        measure_two_mode(s, kap, e[:, 1], "012", forced="2")
    assert str(err.value) == "outcome '2' has probability below 1e-12"


def eager_pick(sums, rng):
    """The sampled pick as it was before lazy norms: every group normed
    first, then one draw."""
    probs = [sum_norm(g) ** 2 for g in sums]
    u = rng.random()
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if u < acc:
            return i, p
    return len(probs) - 1, probs[-1]


def spy_norm_calls(monkeypatch):
    """Records, from this call on, every sum passed to multislater.sum_norm."""
    calls = []
    real = multislater.sum_norm

    def counting(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(multislater, "sum_norm", counting)
    return calls


def parity_grown_sum(rng, d, n, rounds):
    """A normalized sum after `rounds` rotations each followed by one
    parity group, so that sibling terms are exactly orthogonal."""
    s = SlaterSum.from_state(standard_state(d, n))
    for _ in range(rounds):
        s = evolve_sum(s, random_unitary(rng, d))
        kap, lam = random_orthogonal_pair(rng, d)
        groups = two_mode_groups(s, kap, lam, "02/1")
        norms = {label: sum_norm(g) for label, g in groups.items()}
        label = max(norms, key=norms.get) if rng.random() < 0.5 else min(norms, key=norms.get)
        if norms[label] < 1e-3:
            label = max(norms, key=norms.get)
        s = scale_sum(groups[label], 1.0 / norms[label])
    return s


def assert_close_probability(got, want):
    assert abs(got - want) <= 1e-13 + 1e-12 * want, (got, want)


class TestUnnormalizedPick:
    """A sampled measurement draws against the sum's own norm squared, so
    an unnormalized sum picks each outcome by its share of it."""

    def test_certain_outcome_of_a_sum_of_norm_squared_one_quarter(self):
        e = np.eye(4, dtype=complex)
        s = SlaterSum([(0.5, standard_state(4, 2))])
        assert s.norm_sq == 0.25
        for k in range(20):
            outcome, p, _ = measure_mode_sum(s, e[:, 3], rng=np.random.default_rng(k))
            assert (outcome, p) == (0, 0.25)
            label, p, _ = measure_two_mode(s, e[:, 2], e[:, 3], "012", rng=np.random.default_rng(k))
            assert (label, p) == ("0", 0.25)

    def test_outcomes_follow_their_share(self):
        """Half of a norm-squared-4 sum lies on each outcome of mode 0: 400
        draws pick each about half the time."""
        e = np.eye(2, dtype=complex)
        s = SlaterSum([(np.sqrt(2), SlaterState(e[:, :1])), (np.sqrt(2), SlaterState(e[:, 1:]))])
        rng = np.random.default_rng(5)
        ones = sum(measure_mode_sum(s, e[:, 0], rng=rng)[0] for _ in range(400))
        assert 150 < ones < 250


class TestLazyPick:
    """Outcome probabilities come from one pass over the measured sum's
    own term pairs; no projected group is normed."""

    def test_measurements_call_sum_norm_zero_times(self, monkeypatch):
        rng = rng_for(71)
        d = 6
        s = parity_grown_sum(rng, d, 3, 2)
        kap, lam = random_orthogonal_pair(rng, d)
        # Opened once s is built: the reference groups' constructor measures.
        norm_calls = spy_norm_calls(monkeypatch)
        for grouping, groups in GROUPINGS.items():
            for group in groups:
                measure_two_mode(s, kap, lam, grouping, forced=group_label(group))
            for seed in range(5):
                measure_two_mode(s, kap, lam, grouping, rng=rng_for(seed))
        for outcome in (0, 1):
            measure_mode_sum(s, kap, forced=outcome)
        for seed in range(5):
            measure_mode_sum(s, kap, rng=rng_for(seed))
        assert norm_calls == []

    @pytest.mark.parametrize("grouping", sorted(GROUPINGS))
    def test_sampled_pick_matches_eager_reference(self, grouping):
        rng = rng_for(72)
        d = 5
        s = parity_grown_sum(rng, d, 2, 3)
        kap, lam = random_orthogonal_pair(rng, d)
        table = two_mode_groups(s, kap, lam, grouping)
        labels = list(table)
        picked = set()
        for seed in range(50):
            got_rng, eager = rng_for(seed), rng_for(seed)
            label, prob, _ = measure_two_mode(s, kap, lam, grouping, rng=got_rng)
            idx, ref_prob = eager_pick(list(table.values()), eager)
            assert label == labels[idx]
            assert got_rng.bit_generator.state == eager.bit_generator.state
            assert_close_probability(prob, ref_prob)
            picked.add(label)
        assert len(picked) > 1
        for label, group in table.items():
            prob = measure_two_mode(s, kap, lam, grouping, forced=label)[1]
            assert_close_probability(prob, sum_norm(group) ** 2)

    def test_sampled_single_mode_matches_eager_reference(self):
        rng = rng_for(73)
        d = 5
        s = parity_grown_sum(rng, d, 2, 3)
        kap = random_orthogonal_pair(rng, d)[0]
        branches = [project_single_mode(s, kap, outcome) for outcome in (0, 1)]
        picked = set()
        for seed in range(50):
            got_rng, eager = rng_for(seed), rng_for(seed)
            outcome, prob, _ = measure_mode_sum(s, kap, rng=got_rng)
            idx, ref_prob = eager_pick(branches, eager)
            assert outcome == idx
            assert got_rng.bit_generator.state == eager.bit_generator.state
            assert_close_probability(prob, ref_prob)
            picked.add(outcome)
        assert picked == {0, 1}
        for outcome, branch in enumerate(branches):
            prob = measure_mode_sum(s, kap, forced=outcome)[1]
            assert_close_probability(prob, sum_norm(branch) ** 2)

    def test_cap_applies_to_the_kept_group_only(self):
        """The term cap binds the sum a measurement keeps.  Outcome 1 of
        this two-term sum has four terms, over the cap of 2: it raises when
        projected on its own or inside group 02, but measuring outcome 0
        never builds it."""
        rng = rng_for(74)
        d = 5
        s = SlaterSum(random_two_term_sum(rng, d, 2).terms, max_terms=2)
        kap, lam = random_orthogonal_pair(rng, d)
        assert apply_two_mode_projector(s, kap, lam, 0).term_count == 2
        with pytest.raises(TermCapExceeded):
            apply_two_mode_projector(s, kap, lam, 1)
        label, prob, post = measure_two_mode(s, kap, lam, "012", forced="0")
        want = scale_sum(apply_two_mode_projector(s, kap, lam, 0), 1.0 / np.sqrt(prob))
        assert label == "0" and terms_bits(post.terms) == terms_bits(want.terms)
        with pytest.raises(TermCapExceeded):
            measure_two_mode(s, kap, lam, "02/1", forced="02")


@st.composite
def measured_sums(draw):
    """(sum, kappa, lambda): D from 2 to 12, N from 0 to D (0 and D in
    one case of three), a sum grown by up to five parity steps, and measured modes that are
    either two standard sites or a random orthonormal pair."""
    d = draw(st.integers(2, 12))
    fill = draw(st.sampled_from(["empty", "full", "some", "some", "some", "some"]))
    n = {"empty": 0, "full": d}[fill] if fill != "some" else draw(st.integers(1, d - 1))
    rounds = draw(st.integers(0, 5))
    rng = rng_for(draw(st.integers(0, 2**32 - 1)))
    s = parity_grown_sum(rng, d, n, rounds)
    if draw(st.booleans()):
        i, j = rng.choice(d, size=2, replace=False)
        return s, standard_mode(d, i), standard_mode(d, j)
    return s, *random_orthogonal_pair(rng, d)


def assert_probabilities_match_norms(s, kap, lam):
    """Every grouping's and both single-mode probabilities against
    sum_norm(group) ** 2, and every possible post-state normalized."""
    for grouping in GROUPINGS:
        groups = two_mode_groups(s, kap, lam, grouping)
        probs = outcome_probs(s, kap, lam, grouping)
        assert list(probs) == list(groups)
        for label, group in groups.items():
            assert_close_probability(probs[label], sum_norm(group) ** 2)
            if probs[label] >= PROB_FLOOR:
                post = measure_two_mode(s, kap, lam, grouping, forced=label)[2]
                assert abs(sum_norm(post) - 1.0) <= 1e-12
    probs = _probabilities(s, (kap,), ONE_MODE)[0]
    for outcome in (0, 1):
        branch = project_single_mode(s, kap, outcome)
        assert_close_probability(probs[outcome], sum_norm(branch) ** 2)
        if probs[outcome] >= PROB_FLOOR:
            post = measure_mode_sum(s, kap, forced=outcome)[2]
            assert abs(sum_norm(post) - 1.0) <= 1e-12


class TestOutcomeProbabilities:
    """Outcome probabilities of both measurement kinds, judged by norming
    the full split tree's groups (the two_mode_groups reference)."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(measured_sums())
    def test_match_group_norms(self, case):
        assert_probabilities_match_norms(*case)

    @pytest.mark.parametrize("seed", [81, 82, 83])
    def test_large_single_determinant(self, seed):
        rng = rng_for(seed)
        s = SlaterSum.from_state(random_state(rng, 64, 32))
        assert_probabilities_match_norms(s, *random_orthogonal_pair(rng, 64))

    def test_empty_sum_has_zero_probabilities(self):
        s = SlaterSum((), 4, 2)
        kap, lam = standard_mode(4, 0), standard_mode(4, 1)
        for grouping in GROUPINGS:
            assert _probabilities(s, (lam, kap), GROUPINGS[grouping])[0] == [0.0] * len(
                GROUPINGS[grouping]
            )
        assert _probabilities(s, (kap,), ONE_MODE)[0] == [0.0, 0.0]


class TestApplyTwoModeProjector:
    def test_both_filled(self):
        s = SlaterSum.from_state(standard_state(4, 2))
        kap, lam = standard_mode(4, 0), standard_mode(4, 1)
        out2 = apply_two_mode_projector(s, kap, lam, 2)
        assert out2.term_count == 1
        assert sum_norm(out2) == pytest.approx(1.0, abs=1e-12)
        assert sum_norm(apply_two_mode_projector(s, kap, lam, 0)) == pytest.approx(
            0.0, abs=1e-12
        )
        assert sum_norm(apply_two_mode_projector(s, kap, lam, 1)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_both_empty(self):
        s = SlaterSum.from_state(standard_state(4, 2))
        kap, lam = standard_mode(4, 2), standard_mode(4, 3)
        out0 = apply_two_mode_projector(s, kap, lam, 0)
        assert out0.term_count == 1
        assert sum_norm(out0) == pytest.approx(1.0, abs=1e-12)

    def test_bad_outcome_raises_before_any_split(self):
        s = SlaterSum.from_state(standard_state(4, 2))
        kap, lam = standard_mode(4, 0), standard_mode(4, 1)
        unused = mock.Mock(side_effect=AssertionError("projections were built"))
        with mock.patch.object(multislater, "_group_sum", unused), \
                mock.patch.object(multislater, "split_pair", unused):
            for outcome in (3, -1, "1", None):
                with pytest.raises(ValueError, match="outcome must be 0, 1 or 2"):
                    apply_two_mode_projector(s, kap, lam, outcome)
            for outcome in (2, -1, "0", None):
                with pytest.raises(ValueError, match="outcome must be 0 or 1"):
                    project_single_mode(s, kap, outcome)
        unused.assert_not_called()

    def test_one_in_span_eigenstate(self):
        """kappa filled, lambda empty: an occupation-1 eigenstate."""
        s = SlaterSum.from_state(
            SlaterState(np.column_stack([standard_mode(4, 0), standard_mode(4, 2)]))
        )
        kap, lam = standard_mode(4, 0), standard_mode(4, 1)
        out1 = apply_two_mode_projector(s, kap, lam, 1)
        assert sum_norm(out1) == pytest.approx(1.0, abs=1e-12)
        fid = fock.fidelity(fock.expand_sum(out1), fock.expand_sum(s))
        assert fid == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonorthogonal(self):
        s = SlaterSum.from_state(standard_state(4, 2))
        kap = standard_mode(4, 0)
        with pytest.raises(ModesNotOrthogonal):
            apply_two_mode_projector(s, kap, kap, 1)

    @pytest.mark.parametrize("outcome", [0, 1, 2])
    @pytest.mark.parametrize("seed", [60, 61, 62])
    def test_matches_oracle_single_term(self, seed, outcome):
        rng = rng_for(seed)
        d, n = 5, 2
        s = SlaterSum.from_state(SlaterState(random_orthonormal_columns(rng, d, n)))
        kap, lam = random_orthogonal_pair(rng, d)
        fast = fock.expand_sum(apply_two_mode_projector(s, kap, lam, outcome))
        slow = fock.two_mode_projector_apply(fock.expand_sum(s), kap, lam, outcome)
        assert np.allclose(fast.amplitudes, slow.amplitudes, atol=1e-9)

    @pytest.mark.parametrize("outcome", [0, 1, 2])
    def test_matches_oracle_two_terms(self, outcome):
        rng = rng_for(63 + outcome)
        d = 5
        s = random_two_term_sum(rng, d, 3)
        kap, lam = random_orthogonal_pair(rng, d)
        fast = fock.expand_sum(apply_two_mode_projector(s, kap, lam, outcome))
        slow = fock.two_mode_projector_apply(fock.expand_sum(s), kap, lam, outcome)
        assert np.allclose(fast.amplitudes, slow.amplitudes, atol=1e-9)

    def test_term_count_law(self):
        rng = rng_for(64)
        d = 6
        s = random_two_term_sum(rng, d, 3)
        kap, lam = random_orthogonal_pair(rng, d)
        for outcome, cap in [(0, 2), (2, 2), (1, 4)]:
            out = apply_two_mode_projector(s, kap, lam, outcome)
            assert out.term_count <= cap


class TestMeasureTwoMode:
    def test_certain_outcome(self):
        s = SlaterSum.from_state(standard_state(4, 2))
        kap, lam = standard_mode(4, 0), standard_mode(4, 1)
        label, prob, post = measure_two_mode(s, kap, lam, "012", forced="2")
        assert label == "2"
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert sum_norm(post) == pytest.approx(1.0, abs=1e-10)
        with pytest.raises(ImpossibleOutcome):
            measure_two_mode(s, kap, lam, "012", forced="0")

    def test_parity_on_eigenstate(self):
        s = SlaterSum.from_state(
            SlaterState(np.column_stack([standard_mode(4, 0), standard_mode(4, 2)]))
        )
        kap, lam = standard_mode(4, 0), standard_mode(4, 1)
        label, prob, post = measure_two_mode(s, kap, lam, "02/1", forced="1")
        assert label == "1"
        assert prob == pytest.approx(1.0, abs=1e-10)
        fid = fock.fidelity(fock.expand_sum(post), fock.expand_sum(s))
        assert fid == pytest.approx(1.0, abs=1e-10)

    def test_generic_outcome_one_doubles(self):
        rng = rng_for(65)
        d = 4
        s = SlaterSum.from_state(SlaterState(random_orthonormal_columns(rng, d, 2)))
        kap, lam = random_orthogonal_pair(rng, d)
        label, prob, post = measure_two_mode(s, kap, lam, "012", forced="1")
        assert post.term_count == 2
        assert sum_norm(post) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("grouping", sorted(GROUPINGS))
    def test_probabilities_sum_to_one(self, grouping):
        rng = rng_for(66)
        d = 5
        s = random_two_term_sum(rng, d, 2)
        kap, lam = random_orthogonal_pair(rng, d)
        total = 0.0
        for group in GROUPINGS[grouping]:
            label = "".join(str(o) for o in group)
            try:
                _, prob, _ = measure_two_mode(s, kap, lam, grouping, forced=label)
            except ImpossibleOutcome:
                prob = 0.0
            total += prob
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("grouping", sorted(GROUPINGS))
    def test_matches_oracle_probability_and_post(self, grouping):
        rng = rng_for(67)
        d = 5
        s = random_two_term_sum(rng, d, 2)
        kap, lam = random_orthogonal_pair(rng, d)
        vec = fock.expand_sum(s)
        for group in GROUPINGS[grouping]:
            label = "".join(str(o) for o in group)
            acc = np.zeros_like(vec.amplitudes)
            for o in group:
                acc = acc + fock.two_mode_projector_apply(vec, kap, lam, o).amplitudes
            oracle_prob = float(np.linalg.norm(acc) ** 2)
            if oracle_prob < 1e-12:
                with pytest.raises(ImpossibleOutcome):
                    measure_two_mode(s, kap, lam, grouping, forced=label)
                continue
            _, prob, post = measure_two_mode(s, kap, lam, grouping, forced=label)
            assert prob == pytest.approx(oracle_prob, abs=1e-9)
            fid = fock.fidelity(
                fock.expand_sum(post), fock.FockVector(d, acc / np.sqrt(oracle_prob))
            )
            assert fid >= 1 - 1e-9

    def test_bad_inputs(self):
        s = SlaterSum.from_state(standard_state(4, 2))
        kap, lam = standard_mode(4, 0), standard_mode(4, 1)
        with pytest.raises(ValueError):
            measure_two_mode(s, kap, lam, "0/1/2", forced="0")
        with pytest.raises(ValueError):
            measure_two_mode(s, kap, lam, "012", forced="3")
        with pytest.raises(ValueError):
            measure_two_mode(s, kap, lam, "012")

    def test_sampling_deterministic(self):
        rng = rng_for(68)
        d = 5
        s = random_two_term_sum(rng, d, 2)
        kap, lam = random_orthogonal_pair(rng, d)
        runs1 = [measure_two_mode(s, kap, lam, "012", rng=rng_for(k))[0] for k in range(12)]
        runs2 = [measure_two_mode(s, kap, lam, "012", rng=rng_for(k))[0] for k in range(12)]
        assert runs1 == runs2

    def test_term_cap_propagates(self):
        rng = rng_for(69)
        d = 4
        st = SlaterState(random_orthonormal_columns(rng, d, 2))
        s = SlaterSum(((1.0, st),), max_terms=1)
        kap, lam = random_orthogonal_pair(rng, d)
        with pytest.raises(TermCapExceeded):
            measure_two_mode(s, kap, lam, "012", forced="1")


class TestMeasureModeSum:
    def test_single_term_agrees_with_engine(self):
        rng = rng_for(70)
        d = 5
        st = SlaterState(random_orthonormal_columns(rng, d, 3))
        kap = random_mode(rng, d)
        for outcome in (0, 1):
            _, p_engine, post_engine = measure_mode(st, kap, forced=outcome)
            _, p_sum, post_sum = measure_mode_sum(
                SlaterSum.from_state(st), kap, forced=outcome
            )
            assert p_sum == pytest.approx(p_engine, abs=1e-12)
            fid = fock.fidelity(fock.expand_sum(post_sum), fock.expand(post_engine))
            assert fid == pytest.approx(1.0, abs=1e-10)

    def test_two_terms_match_oracle(self):
        rng = rng_for(71)
        d = 5
        s = random_two_term_sum(rng, d, 2)
        kap = random_mode(rng, d)
        vec = fock.expand_sum(s)
        occupied = fock.creation_op_apply(fock.annihilation_op_apply(vec, kap), kap)
        empty = fock.FockVector(d, vec.amplitudes - occupied.amplitudes)
        for outcome, oracle_vec in [(1, occupied), (0, empty)]:
            p_oracle = fock.norm(oracle_vec) ** 2
            _, prob, post = measure_mode_sum(s, kap, forced=outcome)
            assert prob == pytest.approx(p_oracle, abs=1e-9)
            fid = fock.fidelity(fock.expand_sum(post), oracle_vec)
            assert fid >= 1 - 1e-9

    def test_impossible_forced(self):
        s = SlaterSum.from_state(standard_state(4, 2))
        with pytest.raises(ImpossibleOutcome):
            measure_mode_sum(s, standard_mode(4, 3), forced=1)

    def test_builds_only_its_outcome(self):
        """One SlaterSum for the kept outcome's projection, renormalized as
        it is built; the other outcome is never built."""
        rng = rng_for(75)
        s = random_two_term_sum(rng, 5, 2)
        kap = random_mode(rng, 5)
        for outcome in (0, 1):
            with mock.patch.object(SlaterSum, "_stacked", wraps=SlaterSum._stacked) as built:
                _, prob, post = measure_mode_sum(s, kap, forced=outcome)
            assert built.call_count == 1
            want = scale_sum(project_single_mode(s, kap, outcome), 1.0 / np.sqrt(prob))
            assert terms_bits(post.terms) == terms_bits(want.terms)


class TestNearSpanMode:
    """A measured mode within eps of the filled span leaves a residual
    whose direction cancels badly; both measurements must still build
    their outcome-0 branch and agree with the dense oracle."""

    @pytest.mark.parametrize("eps", [1e-13, 1e-11, 1e-9, 1e-7, 1e-5])
    def test_certain_outcome_matches_oracle(self, eps):
        rng = rng_for(72)
        d = 6
        u = random_unitary(rng, d)
        state = SlaterState(u[:, :3])
        chi = u[:, 3:] @ random_mode(rng, 3)
        kap = np.sqrt(1 - eps**2) * u[:, 0] + eps * chi
        kap /= np.linalg.norm(kap)
        # lam lies outside the span and is orthogonal to chi, hence to kap.
        lam = u[:, 3] - chi * np.vdot(chi, u[:, 3])
        lam /= np.linalg.norm(lam)
        s = SlaterSum.from_state(state)
        vec = fock.expand(state)

        _, prob, post = measure_mode_sum(s, kap, forced=1)
        occupied = fock.creation_op_apply(fock.annihilation_op_apply(vec, kap), kap)
        assert prob == pytest.approx(fock.norm(occupied) ** 2, abs=1e-12)
        assert sum_norm(post) == pytest.approx(1.0, abs=1e-10)

        _, prob, post = measure_two_mode(s, kap, lam, "012", forced="1")
        oracle = fock.two_mode_projector_apply(vec, kap, lam, 1)
        assert prob == pytest.approx(fock.norm(oracle) ** 2, abs=1e-12)
        assert sum_norm(post) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("eps", [1e-11, 1e-9, 1e-7])
    def test_out_orbital_is_orthogonal_to_span(self, eps):
        rng = rng_for(73)
        u = random_unitary(rng, 6)
        state = SlaterState(u[:, :3])
        kap = np.sqrt(1 - eps**2) * u[:, 0] + eps * (u[:, 3:] @ random_mode(rng, 3))
        dec = decompose_mode(state, kap / np.linalg.norm(kap))
        assert dec.beta == pytest.approx(eps, rel=1e-6)
        assert np.linalg.norm(state.orbitals.conj().T @ dec.out_orbital) < 1e-14


class TestReduceToTwoFermion:
    def test_two_electron_input_unchanged(self):
        rng = rng_for(72)
        s = random_two_term_sum(rng, 5, 2)
        kap, lam = random_orthogonal_pair(rng, 5)
        out = reduce_to_two_fermion(s, kap, lam)
        assert out.term_count == s.term_count
        fid = fock.fidelity(fock.expand_sum(out), fock.expand_sum(s))
        assert fid == pytest.approx(1.0, abs=1e-12)

    def test_four_electron_case_matches_oracle(self):
        """Rotate only within the non-context modes so the standard-form
        precondition holds, then compare against the oracle's
        annihilation chain for modes 3 then 2."""
        rng = rng_for(73)
        d, n = 6, 4
        active = [0, 1, 4, 5]
        small = random_unitary(rng, 4)
        v = np.eye(d, dtype=complex)
        v[np.ix_(active, active)] = small
        s0 = SlaterState(v @ np.eye(d, n))
        kap = np.zeros(d, dtype=complex)
        lam = np.zeros(d, dtype=complex)
        pair = random_orthogonal_pair(rng, 4)
        kap[active] = pair[0]
        lam[active] = pair[1]
        s = apply_two_mode_projector(SlaterSum.from_state(s0), kap, lam, 1)
        reduced = reduce_to_two_fermion(s, kap, lam)
        assert reduced.electrons == 2
        vec = fock.expand_sum(s)
        chain = fock.annihilation_op_apply(vec, standard_mode(d, 3))
        chain = fock.annihilation_op_apply(chain, standard_mode(d, 2))
        assert np.allclose(
            fock.expand_sum(reduced).amplitudes, chain.amplitudes, atol=1e-9
        )

    def test_context_overlap_rejected(self):
        s = SlaterSum.from_state(standard_state(6, 4))
        kap = standard_mode(6, 2)
        lam = standard_mode(6, 5)
        with pytest.raises(BadContext):
            reduce_to_two_fermion(s, kap, lam)

    def test_too_few_electrons(self):
        s = SlaterSum.from_state(standard_state(4, 1))
        kap, lam = standard_mode(4, 0), standard_mode(4, 1)
        with pytest.raises(WrongParticleNumber):
            reduce_to_two_fermion(s, kap, lam)


class TestTwoFermionW:
    def test_single_determinant(self):
        w = two_fermion_w(SlaterSum.from_state(standard_state(4, 2)))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 1], expected[1, 0] = 0.5, -0.5
        assert np.allclose(w, expected, atol=1e-12)

    def test_zero_state(self):
        w = two_fermion_w(SlaterSum((), modes=4, electrons=2))
        assert np.allclose(w, 0.0)

    def test_amplitude_identity(self):
        """The Fock amplitude on an ordered pair {i < j} is 2 w_ij."""
        rng = rng_for(74)
        s = random_two_term_sum(rng, 5, 2)
        w = two_fermion_w(s)
        assert np.linalg.norm(w + w.T) <= 1e-10
        vec = fock.expand_sum(s)
        for i in range(5):
            for j in range(i + 1, 5):
                mask = (1 << i) | (1 << j)
                assert abs(vec.amplitudes[mask] - 2 * w[i, j]) <= 1e-10

    def test_wrong_particle_number(self):
        with pytest.raises(WrongParticleNumber):
            two_fermion_w(SlaterSum.from_state(standard_state(4, 3)))

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(d=st.integers(2, 12), t=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_exactly_antisymmetric_and_the_outer_product_loop(self, d, t, seed):
        """w is one product, so w = -w^T exactly (signed zeros aside) with
        a zero diagonal; it matches the loop of outer products u v^T -
        v u^T per term within rounding."""
        rng = np.random.default_rng(seed)
        terms = [(complex(c), SlaterState(random_orthonormal_columns(rng, d, 2), complex(a)))
                 for c, a in zip(random_complex(rng, t), random_complex(rng, t))]
        s = SlaterSum(terms, d, 2)
        w = two_fermion_w(s)
        assert np.array_equal(w, -w.T)
        assert not np.diagonal(w).any()
        want = np.zeros((d, d), dtype=complex)
        for c, st_ in s.terms:
            u, v = st_.orbitals[:, 0], st_.orbitals[:, 1]
            want += c * st_.amplitude * (np.outer(u, v) - np.outer(v, u))
        want /= 2.0
        scale = sum(abs(c * st_.amplitude) for c, st_ in s.terms)
        assert np.abs(w - want).max() <= 1e-14 * scale


class TestSlaterNumber:
    def test_single_determinant(self):
        w = two_fermion_w(SlaterSum.from_state(standard_state(4, 2)))
        assert slater_number_two_fermion(w) == 1

    def test_zero_matrix(self):
        assert slater_number_two_fermion(np.zeros((4, 4))) == 0

    def test_two_disjoint_determinants(self):
        s1 = standard_state(4, 2)
        s2 = SlaterState(np.eye(4, dtype=complex)[:, [2, 3]])
        s = SlaterSum(((1 / np.sqrt(2), s1), (1 / np.sqrt(2), s2)))
        w = two_fermion_w(s)
        assert slater_number_two_fermion(w) == 2

    def test_annihilation_does_not_increase_rank(self):
        """Dropping one electron from a sum of at most two determinants
        leaves a two-fermion state needing at most two determinants."""
        rng = rng_for(75)
        d = 6
        single = SlaterSum.from_state(SlaterState(random_orthonormal_columns(rng, d, 3)))
        double = random_two_term_sum(rng, d, 3)
        for s, bound in [(single, 1), (double, 2)]:
            mode = random_mode(rng, d)
            terms = tuple((c, annihilate(st, mode)) for c, st in s.terms)
            dropped = SlaterSum(terms, modes=d, electrons=2)
            w = two_fermion_w(dropped)
            assert slater_number_two_fermion(w) <= bound


def reference_slater_number(w):
    """The pair count of the canonical-form deflation, which
    slater_number_two_fermion took before it counted singular values."""
    return sum(1 for z in linalg.antisym_canonical(w)[1] if abs(z) > errors.PAIR_THRESHOLD)


def pair_blocks(zs, d):
    """The d x d matrix with one block [[0, z], [-z, 0]] per z of zs on
    the diagonal, then zeros."""
    blocks = np.zeros((d, d), dtype=complex)
    for r, z in enumerate(zs):
        blocks[2 * r, 2 * r + 1], blocks[2 * r + 1, 2 * r] = z, -z
    return blocks


@st.composite
def paired_matrices(draw):
    """(w, moduli): w = U B U^T for a random unitary U and B holding one
    2x2 block [[0, z], [-z, 0]] per modulus |z|, the rest zero.  Moduli
    repeat, sit at 2e-9 and 5e-10 either side of PAIR_THRESHOLD, or are
    0; with scale 1e4 the large ones grow, so that the relative floor
    1e-12 max(1, top) rises above the small ones."""
    d = draw(st.integers(1, 12))
    moduli = draw(st.lists(st.sampled_from([1.0, 0.5, 2e-9, 5e-10, 0.0]), max_size=d // 2))
    scale = draw(st.sampled_from([1.0, 1e4]))
    moduli = [m * scale if m >= 0.5 else m for m in moduli]
    rng = rng_for(draw(st.integers(0, 2**16)))
    blocks = pair_blocks(moduli * np.exp(2j * np.pi * rng.random(len(moduli))), d)
    u = random_unitary(rng, d)
    return u @ blocks @ u.T, moduli


class TestSlaterNumberFromSingularValues:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(case=paired_matrices())
    @example(case=(np.zeros((5, 5)), []))
    @example(case=(np.zeros((0, 0)), []))
    @example(case=(pair_blocks([1e4, 2e-9], 4), [1e4, 2e-9]))
    @example(case=(pair_blocks([1.0, 1.0, 0.0], 7), [1.0, 1.0, 0.0]))
    def test_counts_the_pairs_above_both_floors(self, case):
        """The count is of the moduli above PAIR_THRESHOLD and above
        1e-12 max(1, top), and equals the canonical deflation's count."""
        w, moduli = case
        floor = max(errors.PAIR_THRESHOLD, 1e-12 * max([1.0, *moduli]))
        want = sum(1 for m in moduli if m > floor)
        got = slater_number_two_fermion(w)
        assert type(got) is int
        assert got == want
        assert got == reference_slater_number(w)

    @pytest.mark.parametrize("bad, cls, message", [
        (np.ones((2, 3)), NonSquare, "antisym_canonical needs a square matrix, got shape (2, 3)"),
        (np.ones(3), ValueError, "expected a matrix, got array of ndim 1"),
        (np.array([[0.0, np.nan], [-1.0, 0.0]]), ValueError, "matrix entries must be finite"),
        (np.eye(2), NotAntisymmetric, "deviation from antisymmetry 2.828e+00 exceeds 1.0e-10"),
        (np.array([[0.0, 1.0], [-1.0 + 1e-9, 0.0]]), NotAntisymmetric,
         "deviation from antisymmetry 1.414e-09 exceeds 1.0e-10"),
    ])
    def test_errors_are_the_canonical_forms(self, bad, cls, message):
        for fn in (slater_number_two_fermion, linalg.antisym_canonical):
            with pytest.raises(cls) as raised_:
                fn(bad)
            assert type(raised_.value) is cls
            assert str(raised_.value) == message

    @pytest.mark.parametrize("bad, cls, message", [
        (np.ones((2, 3)), NonSquare, "pfaffian needs a square matrix, got shape (2, 3)"),
        (np.eye(3), OddDimension, "Pfaffian needs even dimension, got 3"),
        (np.eye(2), NotAntisymmetric, "deviation from antisymmetry 2.828e+00 exceeds 1.0e-10"),
    ])
    def test_pfaffian_checks_in_the_same_order(self, bad, cls, message):
        with pytest.raises(cls) as raised_:
            linalg.pfaffian(bad)
        assert type(raised_.value) is cls
        assert str(raised_.value) == message


def reference_reduction(s, kappa, lam):
    """reduce_to_two_fermion as annihilate on every term, mode by mode,
    each step a new SlaterSum: the chain the stacked split replaces."""
    current = s
    for m in range(s.electrons - 1, 1, -1):
        e_m = standard_mode(s.modes, m)
        terms = tuple((c, annihilate(st, e_m)) for c, st in current.terms)
        current = SlaterSum(terms, s.modes, m, s.max_terms)
    return current


def sum_bits(s):
    return ([bits(c) for c in s.coeffs], [bits(a) for a in s.amps], s.orbitals.tobytes(),
            s.orbitals.shape)


class TestStackedReduction:
    def test_bitwise_equal_to_the_annihilate_chain(self):
        """Terms with every context mode filled, random ones, one with no
        component of mode 4 (pruned at the first step) and one holding
        mode 4 but not mode 3 (pruned at the second)."""
        rng = rng_for(82)
        d, n = 7, 5
        active = [0, 1, 5, 6]
        v = np.eye(d, dtype=complex)
        v[np.ix_(active, active)] = random_unitary(rng, 4)
        no_4 = np.zeros((d, n), dtype=complex)
        no_4[[0, 1, 2, 3, 5, 6], :] = random_orthonormal_columns(rng, 6, n)
        no_3 = np.zeros((d, n), dtype=complex)
        no_3[4, 0] = 1.0
        no_3[[0, 1, 2, 5, 6], 1:] = random_orthonormal_columns(rng, 5, n - 1)
        states = [v @ np.eye(d, n), random_orthonormal_columns(rng, d, n), no_4, no_3,
                  random_orthonormal_columns(rng, d, n)]
        s = SlaterSum(tuple((complex(c), SlaterState(orb))
                            for c, orb in zip(random_complex(rng, len(states)), states)))
        kap, lam = np.zeros(d, dtype=complex), np.zeros(d, dtype=complex)
        kap[active], lam[active] = random_orthogonal_pair(rng, 4)
        want = reference_reduction(s, kap, lam)
        got = reduce_to_two_fermion(s, kap, lam)
        assert got.term_count == want.term_count == 3
        assert sum_bits(got) == sum_bits(want)
        assert got.orbitals.flags.c_contiguous and not got.orbitals.flags.writeable
        assert two_fermion_w(got).tobytes() == two_fermion_w(want).tobytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(angles=st.lists(st.floats(-3.2, 3.2), min_size=3, max_size=3),
           n=st.integers(2, 6))
    @example(angles=[0.4, 0.8, 0.0], n=3)
    @example(angles=[0.0, np.pi / 2, np.pi / 4], n=4)
    def test_generic_p1_study_is_unchanged(self, angles, n):
        got = generic_p1_study(*angles, n)
        with mock.patch.object(multislater, "reduce_to_two_fermion", reference_reduction):
            want = generic_p1_study(*angles, n)
        assert got[0].tobytes() == want[0].tobytes()
        assert bits(got[1]) == bits(want[1])
        assert bits(got[2]) == bits(want[2])
        assert slater_number_two_fermion(got[0]) == reference_slater_number(want[0])


class TestGenericP1Study:
    def test_returns_antisymmetric_4x4(self):
        w, pf, closed = generic_p1_study(0.7, 0.9, 0.5)
        assert w.shape == (4, 4)
        assert np.linalg.norm(w + w.T) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pfaffian_value_pinned(self, n):
        """|Pf| of the normalized outcome-1 state, verified independently
        by brute-force enumeration: |sin^2(phi) sin(2 xi) sin(2 theta)|
        divided by 16 p1."""
        rng = rng_for(76 + n)
        for _ in range(8):
            theta, phi, xi = rng.uniform(0.15, np.pi / 2 - 0.15, size=3)
            w, pf, closed = generic_p1_study(theta, phi, xi, n)
            kap, lam = study_modes(theta, phi, xi, n)
            vec = fock.expand(standard_state(n + 2, n))
            p1 = fock.norm(fock.two_mode_projector_apply(vec, kap, lam, 1)) ** 2
            expected = abs(
                np.sin(phi) ** 2 * np.sin(2 * xi) * np.sin(2 * theta)
            ) / (16 * p1)
            assert abs(pf) == pytest.approx(expected, abs=1e-9)

    def test_degenerate_lines(self):
        cases = [
            (0.4, 0.8, 0.0),
            (1.1, 0.6, np.pi / 2),
            (0.9, 0.0, 0.7),
            (0.0, np.pi / 2, 0.0),
        ]
        for theta, phi, xi in cases:
            w, pf, closed = generic_p1_study(theta, phi, xi)
            assert closed == pytest.approx(0.0, abs=1e-12)
            assert abs(pf) <= 1e-9
            assert slater_number_two_fermion(w) <= 1

    def test_closed_form_reference_value(self):
        """The quoted reference expression at (0, pi/2, pi/4) evaluates
        to 1; the state actually projected there is a single determinant
        with vanishing Pfaffian."""
        w, pf, closed = generic_p1_study(0.0, np.pi / 2, np.pi / 4)
        assert closed == pytest.approx(1.0, abs=1e-12)
        assert abs(pf) <= 1e-9
        assert slater_number_two_fermion(w) <= 1

    def test_generic_angles_give_rank_two(self):
        rng = rng_for(80)
        for _ in range(6):
            theta = rng.uniform(0.3, 1.2)
            phi = rng.uniform(0.3, np.pi / 2)
            xi = rng.uniform(0.2, np.pi / 2 - 0.2)
            w, pf, closed = generic_p1_study(theta, phi, xi)
            count = slater_number_two_fermion(w)
            svd_rank = int(np.sum(np.linalg.svd(w, compute_uv=False) > 1e-9))
            assert count == 2
            assert svd_rank == 2 * count

    def test_outcome_one_post_state_slater_number_two(self):
        """Full pipeline: measure outcome 1, reduce, count determinants."""
        rng = rng_for(81)
        theta, phi, xi = 0.7, 1.0, 0.6
        n = 3
        d = n + 2
        kap, lam = study_modes(theta, phi, xi, n)
        s = SlaterSum.from_state(standard_state(d, n))
        label, prob, post = measure_two_mode(s, kap, lam, "012", forced="1")
        assert post.term_count == 2
        reduced = reduce_to_two_fermion(post, kap, lam)
        w = two_fermion_w(reduced)
        assert slater_number_two_fermion(w) == 2


def span_pattern(orbitals, lam, kap):
    """The (lambda, kappa) occupations of a leaf, read off its span,
    which holds each measured mode or is orthogonal to it."""
    return tuple(round(np.linalg.norm(orbitals.conj().T @ vec) ** 2) for vec in (lam, kap))


def assert_runs_distinct(patterns):
    """Each pattern's terms are consecutive: no pattern starts two runs."""
    runs = [p for k, p in enumerate(patterns) if k == 0 or patterns[k - 1] != p]
    assert len(runs) == len(set(runs))


def assert_norm_carried(s):
    """The norm squared s carries against one sum_norm of it."""
    assert abs(s.norm_sq - sum_norm(s) ** 2) <= 1e-13, (s.norm_sq, sum_norm(s) ** 2)


class TestLeafPatterns:
    """The order of a sum's terms by the (lambda, kappa) patterns read
    off their spans: a two-mode group lists its leaves pattern by
    pattern, and rotation (of the terms and the modes alike), scaling
    and pruning keep that order.  Every construction carries its norm."""

    @staticmethod
    def _sum(rng, d=6, n=3, t=4):
        terms = tuple((complex(c), random_state(rng, d, n)) for c in rng.uniform(0.5, 1.5, t))
        return SlaterSum(terms, d, n)

    def test_two_mode_groups_list_their_leaves_pattern_by_pattern(self):
        rng = rng_for(201)
        s = self._sum(rng)
        kap, lam = random_orthogonal_pair(rng, s.modes)
        for groups in GROUPINGS.values():
            for group in groups:
                got = _group_sum(s, (lam, kap), group)
                leaves = split_pair(s.amps, s.orbitals, lam, kap, group)[0]
                patterns = tuple(span_pattern(orb, lam, kap) for orb in got.orbitals)
                assert patterns == tuple(p for out in leaves for *_, p in out)
                assert set(patterns) == {p for o in group for p in PAIR_PATTERNS[o]}
                assert_runs_distinct(patterns)
        post = measure_two_mode(s, kap, lam, "02/1", forced="1")[2]
        patterns = [span_pattern(orb, lam, kap) for orb in post.orbitals]
        assert set(patterns) == {(1, 0), (0, 1)} and post.norm_sq == 1.0
        assert_runs_distinct(patterns)

    def test_rotation_scaling_and_pruning_keep_the_order(self):
        rng = rng_for(202)
        s = self._sum(rng)
        kap, lam = random_orthogonal_pair(rng, s.modes)
        group = _group_sum(s, (lam, kap), (0, 2))
        patterns = [span_pattern(orb, lam, kap) for orb in group.orbitals]
        assert len(set(patterns)) == 2
        u = random_unitary(rng, s.modes)
        rotated = evolve_sum(group, u)
        assert [span_pattern(orb, u @ lam, u @ kap) for orb in rotated.orbitals] == patterns
        assert rotated.norm_sq == group.norm_sq
        scaled = scale_sum(group, 0.5j)
        assert [span_pattern(orb, lam, kap) for orb in scaled.orbitals] == patterns
        assert scaled.norm_sq == group.norm_sq / 4
        assert scale_sum(group, 0.0).term_count == 0
        # Every other term's weight at the prune tolerance: those go, the norm stays.
        coeffs = [c * (1e-13 if i % 2 else 1.0) for i, c in enumerate(group.coeffs)]
        pruned = SlaterSum._stacked(coeffs, group.amps, group.orbitals, group.max_terms,
                                    group.norm_sq)
        assert [span_pattern(orb, lam, kap) for orb in pruned.orbitals] == patterns[::2]
        assert pruned.norm_sq == group.norm_sq

    def test_other_constructions_carry_their_norm(self, tmp_path):
        rng = rng_for(203)
        d, n = 6, 4
        e = np.eye(d, dtype=complex)
        # Modes on {0, 1, N, N + 1}, off the context modes 2..N-1.
        kap, lam = (e[:, 0] + e[:, n]) / np.sqrt(2), (e[:, 1] - e[:, n + 1]) / np.sqrt(2)
        start = SlaterSum.from_state(standard_state(d, n))
        assert start.norm_sq == 1.0
        projected = apply_two_mode_projector(start, kap, lam, 1)
        assert [span_pattern(orb, lam, kap) for orb in projected.orbitals] == [(1, 0), (0, 1)]
        assert_norm_carried(projected)
        assert_norm_carried(reduce_to_two_fermion(projected, kap, lam))
        mode = random_mode(rng, d)
        for outcome in (0, 1):
            assert_norm_carried(project_single_mode(projected, mode, outcome))
            assert_norm_carried(measure_mode_sum(projected, mode, forced=outcome)[2])
        assert_norm_carried(SlaterSum(projected.terms, d, n))
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"modes": d, "electrons": n, "terms": [
            {"coefficient": [(c * st_.amplitude).real, (c * st_.amplitude).imag],
             "orbitals": [[[z.real, z.imag] for z in row] for row in st_.orbitals]}
            for c, st_ in projected.terms]}))
        loaded = load_state_sum(path)
        assert loaded.term_count == 2 and abs(loaded.norm_sq - 1.0) <= 1e-15
        assert_norm_carried(loaded)


SECTOR_PATTERNS = ((1, 0), (0, 1), (0, 0))


def pattern_span(rng, u, n, pattern):
    """An n-electron span holding u[:, a] where pattern[a] is 1 and
    orthogonal to it where 0, for the two old modes u[:, 0], u[:, 1]."""
    held = [u[:, a] for a in (0, 1) if pattern[a]]
    rest = u[:, 2:] @ random_orthonormal_columns(rng, u.shape[0] - 2, n - len(held))
    return np.column_stack([*held, rest]) @ random_unitary(rng, n)


def reference_expectations(s, m, xs):
    """Re of the sum over every ordered pair (i, j) of conj(w_i) w_j
    det(Phi_i^H (1 - x M M^H) Phi_j), one det per pair."""
    weights = [c * a for c, a in zip(s.coeffs, s.amps)]
    out = []
    for x in xs:
        q = np.eye(s.modes) - x * (m @ m.conj().T)
        total = sum(np.conj(wi) * wj * np.linalg.det(pi.conj().T @ q @ pj)
                    for wi, pi in zip(weights, s.orbitals)
                    for wj, pj in zip(weights, s.orbitals))
        out.append(total.real)
    return out


def sector_sum(rng, u, n, keys):
    """A sum whose term j spans SECTOR_PATTERNS[keys[j]] of the modes
    u[:, 0], u[:, 1], or a random span where keys[j] is None, with
    random coefficients and amplitudes, its norm measured."""
    t, d = len(keys), u.shape[0]
    orbitals = np.array([random_orthonormal_columns(rng, d, n) if k is None
                         else pattern_span(rng, u, n, SECTOR_PATTERNS[k]) for k in keys],
                        dtype=complex).reshape(t, d, n)
    coeffs = list(rng.uniform(0.5, 1.5, t) * np.exp(2j * np.pi * rng.random(t)))
    amps = list(np.exp(2j * np.pi * rng.random(t)))
    return SlaterSum._stacked(coeffs, amps, orbitals, 64, None)


def assert_pass_matches_the_per_pair_loop(rng, s):
    """The slices the library asks for, the norm's (0,) and a
    measurement's (1,), (2,) or (2, 1), and all three at once, against
    the per-pair loop, relative to the norm squared."""
    for k in (1, 2):
        m = random_orthonormal_columns(rng, s.modes, k)
        norm_sq = reference_expectations(s, m, (0,))[0]
        for xs in ((0,), (1,), (2,), (2, 1), (0, 2, 1)):
            got, want = _expectations(s, m, xs), reference_expectations(s, m, xs)
            assert len(got) == len(xs)
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12 * norm_sq


class TestExpectationsAcrossBlocks:
    """The probability pass against a per-pair det loop, at term counts
    below, at and across the row blocks, over random spans, spans of one
    pattern, spans of three patterns in contiguous runs whose ends fall
    inside a block, and as the two-mode split lists terms that come to
    it interleaved by pattern: each pattern's terms consecutive."""

    @pytest.mark.parametrize("layout", ["none", "one", "contiguous", "interleaved"])
    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 9, 14])
    def test_matches_the_per_pair_loop(self, t, layout):
        rng = rng_for(300 + t)
        d, n = 7, 3
        u = random_unitary(rng, d)
        if layout == "interleaved":
            # Each term lies in one pattern, so the split keeps it whole.
            source = sector_sum(rng, u, n, [j % 3 for j in range(t)])
            s = _group_sum(source, (u[:, 0], u[:, 1]), (0, 1))
            patterns = [span_pattern(orb, u[:, 0], u[:, 1]) for orb in s.orbitals]
            assert s.term_count == t and sorted(patterns) == sorted(
                SECTOR_PATTERNS[j % 3] for j in range(t))
            assert_runs_distinct(patterns)
        else:
            keys = {"none": [None] * t, "one": [0] * t,
                    "contiguous": [j * 3 // t for j in range(t)]}[layout]
            s = sector_sum(rng, u, n, keys)
            assert s.term_count == t
            if layout != "none":
                assert [span_pattern(orb, u[:, 0], u[:, 1]) for orb in s.orbitals] == [
                    SECTOR_PATTERNS[k] for k in keys]
        assert_pass_matches_the_per_pair_loop(rng, s)

    @pytest.mark.parametrize("op", ["scale", "evolve", "rotate_pair", "prune"])
    def test_sum_operations_keep_each_sector_consecutive(self, op):
        """A split-made sum, then scaled, evolved by a D x D unitary,
        rotated on two sites or pruned of its whole middle pattern and one
        more term, keeps its leaves' patterns (of the modes rotated with
        it) in their order, each pattern's terms consecutive, and carries
        its norm; its pass still matches the per-pair loop."""
        rng = rng_for(320)
        d, n, t = 7, 3, 9
        u = random_unitary(rng, d)
        source = sector_sum(rng, u, n, [j % 3 for j in range(t)])
        s = _group_sum(source, (u[:, 0], u[:, 1]), (0, 1))
        patterns = [span_pattern(orb, u[:, 0], u[:, 1]) for orb in s.orbitals]
        assert [p for k, p in enumerate(patterns) if k == 0 or patterns[k - 1] != p] == [
            (0, 0), (1, 0), (0, 1)]
        keep, v = range(t), np.eye(d, dtype=complex)
        if op == "scale":
            got = scale_sum(s, 0.5 - 0.25j)
        elif op == "evolve":
            v = random_unitary(rng, d)
            got = evolve_sum(s, v)
        elif op == "rotate_pair":
            block = random_unitary(rng, 2)
            v[np.ix_((1, 4), (1, 4))] = block
            got = evolve_sum(s, block, (1, 4))
        else:
            keep = [0, 1, 6, 7, 8]
            coeffs = [c if i in keep else 0.0 for i, c in enumerate(s.coeffs)]
            got = SlaterSum._stacked(coeffs, s.amps, s.orbitals, s.max_terms, None)
        moved = [span_pattern(orb, v @ u[:, 0], v @ u[:, 1]) for orb in got.orbitals]
        assert moved == [patterns[i] for i in keep]
        assert_runs_distinct(moved)
        assert_norm_carried(got)
        assert_pass_matches_the_per_pair_loop(rng, got)
