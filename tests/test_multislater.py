"""Tests for determinant sums: two-mode measurements in all four
groupings, reduction to two fermions, and the Pfaffian rank machinery.

Every projection path is cross-checked against the dense oracle, and
the Pfaffian of the outcome-1 state is pinned against a closed form
that was itself verified by brute-force enumeration.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    NotUnitary,
    TermCapExceeded,
    WrongParticleNumber,
)
from flosim.slater import (
    SlaterState,
    annihilate,
    decompose_mode,
    evolve,
    measure_mode,
    rotate_in_first,
    slater_overlap,
    standard_state,
)
from flosim.multislater import (
    GROUPINGS,
    SlaterSum,
    _overlap_total,
    _split,
    _split_batch,
    _split_stack,
    _two_mode_terms,
    apply_two_mode_projector,
    evolve_sum,
    generic_p1_study,
    group_label,
    measure_mode_sum,
    measure_two_mode,
    project_single_mode,
    reduce_to_two_fermion,
    scale_sum,
    single_mode_branches,
    slater_number_two_fermion,
    sum_norm,
    two_fermion_w,
    two_mode_groups,
)
from flosim import fock, multislater


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


def reference_overlap_total(s):
    """The per-pair double loop over slater_overlap that sum_norm's
    batched kernel replaces; kept as the bitwise reference."""
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
    """sum_norm's batched kernel against the per-pair double loop,
    bit for bit (the transcripts print 13 digits of its square)."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(sum_recipes())
    def test_bitwise_equal_to_pairwise_loop(self, recipe):
        d, n, terms = recipe
        s = SlaterSum(terms, d, n)
        assert bits(_overlap_total(s)) == bits(reference_overlap_total(s))
        assert sum_norm(s).hex() == reference_sum_norm(s).hex()
        # The kernel also matches on terms the constructor would prune,
        # zero amplitudes included.
        raw = SlaterSum((), d, n)
        object.__setattr__(raw, "terms", tuple((complex(c), x) for c, x in terms))
        assert bits(_overlap_total(raw)) == bits(reference_overlap_total(raw))


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
        with mock.patch.object(multislater, "SPLIT_BATCH", 7):
            assert terms_bits(evolve_sum(s, v).terms) == want

    def test_bad_rotation_raises_as_per_term(self):
        s = random_two_term_sum(rng_for(54), 5, 2)
        for bad in (np.diag([1, 1, 1, 1, 1.001]), np.eye(4), np.eye(5)[:, :4]):
            want = raised(evolve, s.terms[0][1], bad)
            assert want[0] in (NotUnitary, DimensionMismatch)
            assert raised(evolve_sum, s, bad) == want

    def test_off_orthonormal_term_raises_as_per_term(self):
        rng = rng_for(55)
        u = random_unitary(rng, 7)
        terms = [(1.0, random_state(rng, 7, 3)) for _ in range(5)]
        terms[3] = (1.0, off_orthonormal_state(u, 3, (0, 1, 2), 1e-8))
        s = SlaterSum(tuple(terms), 7, 3)
        v = random_unitary(rng, 7)
        want = raised(lambda: [evolve(state, v) for _, state in s.terms])
        assert want[0] is FlosimError and "not orthonormal" in want[1]
        assert raised(evolve_sum, s, v) == want
        # The failing term sits in the second batch.
        with mock.patch.object(multislater, "SPLIT_BATCH", 2):
            assert raised(evolve_sum, s, v) == want


def reference_term_project(state, kap, want):
    """One single-mode projection with its own decomposition and
    rotation, as each outcome was projected before the split tree; kept
    as the bitwise reference for _split and the two-mode tree."""
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


def reference_single_mode(s, kap, want):
    terms = []
    for coeff, state in s.terms:
        res = reference_term_project(state, kap, want)
        if res is not None:
            terms.append((coeff * res[0], res[1]))
    return SlaterSum(tuple(terms), s.modes, s.electrons, s.max_terms)


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
    """The shared split tree and _split against the per-outcome
    projection chain they replace, bit for bit: coefficients,
    amplitudes and orbital bytes of every term."""

    @pytest.mark.parametrize("placement", PLACEMENTS)
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(data=st.data())
    def test_bitwise_equal_to_projection_chain(self, placement, data):
        d, n, terms, kap, lam = data.draw(projection_recipes(placement))
        s = SlaterSum(terms, d, n)
        tree = _two_mode_terms(s, kap, lam)
        groups = two_mode_groups(s, kap, lam, "012")
        for outcome in (0, 1, 2):
            ref = reference_two_mode_terms(s, kap, lam, outcome)
            assert terms_bits(tree[outcome]) == terms_bits(ref)
            ref_sum = SlaterSum(tuple(ref), d, n).terms
            got = apply_two_mode_projector(s, kap, lam, outcome).terms
            assert terms_bits(got) == terms_bits(ref_sum)
            assert terms_bits(groups[str(outcome)].terms) == terms_bits(ref_sum)
        for vec in (kap, lam):
            branches, _ = single_mode_branches(s, vec)
            for want in (0, 1):
                ref = reference_single_mode(s, vec, want).terms
                got = project_single_mode(s, vec, want).terms
                assert terms_bits(got) == terms_bits(ref)
                assert terms_bits(branches[want].terms) == terms_bits(ref)
                for _, state in terms:
                    new = _split(state, vec)[want]
                    old = reference_term_project(state, vec, want)
                    assert (new is None) == (old is None)
                    if new is not None:
                        assert float(new[0]).hex() == float(old[0]).hex()
                        assert state_bits(new[1]) == state_bits(old[1])


def split_bits(pair):
    return [None if r is None else (float(r[0]).hex(), state_bits(r[1])) for r in pair]


def reference_split(state, vec):
    return [reference_term_project(state, vec, want) for want in (0, 1)]


def reference_tree(s, kap, lam, split=reference_split):
    """_two_mode_terms term by term, both tree levels per term, as the
    leaves were listed before the stacked kernel."""
    out = ([], [], [])
    for coeff, state in s.terms:
        by_lam = split(state, lam)
        for i in (1, 0):
            if by_lam[i] is not None:
                scale, child = by_lam[i]
                for j, res in enumerate(split(child, kap)):
                    if res is not None:
                        out[i + j].append((coeff * scale * res[0], res[1]))
    return out


NEAR_EPS = 1e-9  # inside the re-orthogonalization band of decompose_mode
# Terms placed against the measured mode u[:, 0]: a random span, a span
# holding the mode, one orthogonal to it, one NEAR_EPS from it, and
# random spans stored in Fortran order or as a strided column view,
# which the kernel hands to _split.  A kind the shape cannot host falls
# back to "generic".
KERNEL_TERM_KINDS = ("generic", "in_span", "orthogonal", "near_span", "fortran", "view")


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
def kernel_stacks(draw):
    d = draw(st.integers(1, 8))
    n = draw(st.integers(0, d))
    t = draw(st.sampled_from([0, 1, 2, 17, 64]))
    kinds = draw(st.lists(st.sampled_from(KERNEL_TERM_KINDS), min_size=t, max_size=t))
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


class TestSplitKernel:
    """The stacked split against the per-term projection, bit for bit:
    scales, amplitudes and orbital bytes, for every batch size."""

    @pytest.mark.parametrize("batch", [1, 7, multislater.SPLIT_BATCH])
    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(recipe=kernel_stacks())
    def test_bitwise_equal_to_per_term_projection(self, batch, recipe):
        d, n, terms, vec, lam = recipe
        states = [state for _, state in terms]
        ref = [split_bits(reference_split(state, vec)) for state in states]
        with mock.patch.object(multislater, "SPLIT_BATCH", batch):
            assert [split_bits(p) for p in _split_stack(states, vec)] == ref
            if states and n >= 2:
                assert [split_bits(p) for p in _split_batch(states, vec)] == ref
            if lam is not None:
                s = SlaterSum(terms, d, n)
                tree = _two_mode_terms(s, vec, lam)
                for got, want in zip(tree, reference_tree(s, vec, lam)):
                    assert terms_bits(got) == terms_bits(want)


def off_orthonormal_state(u, n, span, delta):
    """Orbitals u[:, span[0]], u[:, span[1]] and u[:, span[2]] + delta *
    u[:, span[1]], plus further columns of u, bypassing the constructor.
    A split on a mode of this span passes the mode and span checks; its
    rotated span then fails the orthonormality check, deviation about
    sqrt(2) delta."""
    cols = [u[:, k] for k in span[:n]]
    cols[2] = cols[2] + delta * cols[1]
    return SlaterState._checked(np.column_stack(cols), 1.0 + 0.0j)


def raised(fn, *args):
    with pytest.raises(Exception) as err:
        fn(*args)
    return type(err.value), str(err.value)


class TestStackedChecks:
    """A state failing a check inside a stack raises exactly what the
    per-term path (_split on each term in turn) raises: the same class,
    the same message, from the same first failing term."""

    def _sum(self, rng, d, n, t, bad):
        u = random_unitary(rng, d)
        terms = [(1.0, random_state(rng, d, n)) for _ in range(t)]
        for index, span, delta in bad:
            terms[index] = (0.5, off_orthonormal_state(u, n, span, delta))
        return u, SlaterSum(tuple(terms), d, n)

    @pytest.mark.parametrize("batch", [7, multislater.SPLIT_BATCH])
    @pytest.mark.parametrize("t,index", [(2, 0), (2, 1), (17, 8), (40, 39)])
    def test_off_orthonormal_term(self, batch, t, index):
        d, n = 7, 3
        u, s = self._sum(rng_for(90 + t), d, n, t, [(index, (0, 1, 2), 1e-8)])
        kap, lam = u[:, 0], u[:, 5]
        ref = raised(lambda: [_split(state, kap) for _, state in s.terms])
        assert ref[0] is FlosimError and "not orthonormal" in ref[1]
        tree_ref = raised(reference_tree, s, kap, lam, _split)
        with mock.patch.object(multislater, "SPLIT_BATCH", batch):
            for want in (0, 1):
                assert raised(project_single_mode, s, kap, want) == ref
            assert raised(_two_mode_terms, s, kap, lam) == tree_ref
            assert raised(two_mode_groups, s, kap, lam, "02/1") == tree_ref

    @pytest.mark.parametrize("batch", [7, multislater.SPLIT_BATCH])
    def test_first_failing_term_wins_across_tree_levels(self, batch):
        """Term 3 fails only when its child is split on kappa (lambda is
        orthogonal to its span), term 5 already on lambda.  Term by term,
        term 3's error comes first, though the stacked lambda level meets
        term 5 first."""
        d, n = 8, 3
        bad = [(3, (0, 1, 2), 1e-8), (5, (4, 1, 3), 3e-8)]
        u, s = self._sum(rng_for(93), d, n, 12, bad)
        kap, lam = u[:, 0], u[:, 4]
        ref = raised(reference_tree, s, kap, lam, _split)
        assert ref == raised(_split, s.terms[3][1], kap)
        assert ref != raised(_split, s.terms[5][1], lam)
        with mock.patch.object(multislater, "SPLIT_BATCH", batch):
            assert raised(_two_mode_terms, s, kap, lam) == ref

    def test_nan_term_passes_through_as_per_term(self):
        """A NaN orbital makes alpha NaN, so the per-term split leaves the
        term untouched; the stack does the same, and the norm rejects it."""
        d, n = 6, 3
        rng = rng_for(94)
        u = random_unitary(rng, d)
        orbitals = random_orthonormal_columns(rng, d, n)
        orbitals[2, 1] = np.nan
        terms = [(1.0, random_state(rng, d, n)) for _ in range(5)]
        terms[2] = (0.5, SlaterState._checked(orbitals, 1.0 + 0.0j))
        s = SlaterSum(tuple(terms), d, n)
        kap, lam = u[:, 0], u[:, 1]
        tree = _two_mode_terms(s, kap, lam)
        for got, want in zip(tree, reference_tree(s, kap, lam)):
            assert terms_bits(got) == terms_bits(want)
        assert any(st_ is terms[2][1] for _, st_ in tree[0])
        assert raised(measure_two_mode, s, kap, lam, "012", "0") == (
            ValueError,
            "matrix entries must be finite",
        )


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


@pytest.fixture
def norm_calls(monkeypatch):
    """Records every sum passed to multislater.sum_norm."""
    calls = []
    real = multislater.sum_norm

    def counting(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(multislater, "sum_norm", counting)
    return calls


class TestLazyPick:
    def test_forced_pick_norms_only_the_forced_group(self, norm_calls):
        rng = rng_for(71)
        d = 6
        s = random_two_term_sum(rng, d, 3)
        kap, lam = random_orthogonal_pair(rng, d)
        for grouping, groups in GROUPINGS.items():
            for group in groups:
                norm_calls.clear()
                measure_two_mode(s, kap, lam, grouping, forced=group_label(group))
                assert len(norm_calls) == 1
        for outcome in (0, 1):
            norm_calls.clear()
            measure_mode_sum(s, kap, forced=outcome)
            assert len(norm_calls) == 1

    @pytest.mark.parametrize("grouping", sorted(GROUPINGS))
    def test_sampled_pick_matches_eager_reference(self, grouping, norm_calls):
        rng = rng_for(72)
        d = 5
        s = random_two_term_sum(rng, d, 2)
        kap, lam = random_orthogonal_pair(rng, d)
        table = two_mode_groups(s, kap, lam, grouping)
        labels = list(table)
        picked = set()
        for seed in range(50):
            lazy, eager = rng_for(seed), rng_for(seed)
            norm_calls.clear()
            label, prob, _ = measure_two_mode(s, kap, lam, grouping, rng=lazy)
            idx, ref_prob = eager_pick(list(table.values()), eager)
            assert (label, prob.hex()) == (labels[idx], ref_prob.hex())
            assert lazy.bit_generator.state == eager.bit_generator.state
            # Groups after the chosen one are never normed.
            assert len(norm_calls) == idx + 1
            picked.add(label)
        assert len(picked) > 1

    def test_sampled_single_mode_matches_eager_reference(self):
        rng = rng_for(73)
        d = 5
        s = random_two_term_sum(rng, d, 2)
        kap = random_orthogonal_pair(rng, d)[0]
        branches, _ = single_mode_branches(s, kap)
        picked = set()
        for seed in range(50):
            lazy, eager = rng_for(seed), rng_for(seed)
            outcome, prob, _ = measure_mode_sum(s, kap, rng=lazy)
            idx, ref_prob = eager_pick(branches, eager)
            assert (outcome, prob.hex()) == (idx, ref_prob.hex())
            assert lazy.bit_generator.state == eager.bit_generator.state
            picked.add(outcome)
        assert picked == {0, 1}

    @pytest.mark.parametrize(("grouping", "label"), [("012", "0"), ("02/1", "02")])
    def test_cap_on_an_unchosen_outcome_still_raises(self, grouping, label):
        rng = rng_for(74)
        d = 5
        s = SlaterSum(random_two_term_sum(rng, d, 2).terms, max_terms=2)
        kap, lam = random_orthogonal_pair(rng, d)
        assert apply_two_mode_projector(s, kap, lam, 0).term_count == 2
        with pytest.raises(TermCapExceeded):
            apply_two_mode_projector(s, kap, lam, 1)
        with pytest.raises(TermCapExceeded):
            measure_two_mode(s, kap, lam, grouping, forced=label)
        with pytest.raises(TermCapExceeded):
            measure_two_mode(s, kap, lam, grouping, rng=rng_for(0))


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
