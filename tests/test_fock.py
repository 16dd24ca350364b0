"""Tests for the dense occupation-basis oracle: operator algebra,
projector identities, evolution blocks, and the decohering channel."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unittest import mock

from conftest import (
    random_complex,
    random_hermitian,
    random_mode,
    random_orthogonal_pair,
    random_orthonormal_columns,
    random_unitary,
    rng_for,
)

from flosim.errors import (
    DimensionMismatch,
    FlosimError,
    ModesNotOrthogonal,
    NotHermitian,
    NotUnitary,
    TooManyModes,
    ZeroVector,
)
from flosim.linalg import one_body_unitary
from flosim.multislater import SlaterSum
from flosim.slater import SlaterState, standard_state
from flosim import fock


def standard_mode(d, m):
    v = np.zeros(d, dtype=complex)
    v[m] = 1.0
    return v


def op_matrix(d, apply_fn):
    """Dense matrix of a linear map given by its action on basis vectors."""
    dim = 1 << d
    mat = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        mat[:, col] = apply_fn(fock.basis_vector(d, col)).amplitudes
    return mat


class TestCreationAnnihilation:
    def test_creation_string_sign_convention(self):
        """Building up modes 0 then 1 in descending application order
        gives +1 on the two-bit mask; the swapped order gives -1."""
        d = 3
        e0, e1 = standard_mode(d, 0), standard_mode(d, 1)
        plus = fock.creation_op_apply(fock.creation_op_apply(fock.vacuum(d), e1), e0)
        assert plus.amplitudes[0b011] == pytest.approx(1.0)
        minus = fock.creation_op_apply(fock.creation_op_apply(fock.vacuum(d), e0), e1)
        assert minus.amplitudes[0b011] == pytest.approx(-1.0)

    def test_double_creation_vanishes(self):
        d = 3
        e0 = standard_mode(d, 0)
        once = fock.creation_op_apply(fock.vacuum(d), e0)
        twice = fock.creation_op_apply(once, e0)
        assert np.allclose(twice.amplitudes, 0.0)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_standard_mode_anticommutators(self, d):
        for i in range(d):
            ci = op_matrix(d, lambda v, i=i: fock.creation_op_apply(v, standard_mode(d, i)))
            ai = ci.conj().T
            for j in range(d):
                cj = op_matrix(
                    d, lambda v, j=j: fock.creation_op_apply(v, standard_mode(d, j))
                )
                aj = cj.conj().T
                acc = ai @ aj + aj @ ai
                assert np.linalg.norm(acc) <= 1e-12
                mixed = ai @ cj + cj @ ai
                expected = np.eye(1 << d) if i == j else 0.0
                assert np.linalg.norm(mixed - expected) <= 1e-12

    def test_mode_vector_anticommutator(self):
        rng = rng_for(30)
        d = 4
        u = random_mode(rng, d)
        v = random_mode(rng, d)
        a_u = op_matrix(d, lambda x: fock.annihilation_op_apply(x, u))
        c_v = op_matrix(d, lambda x: fock.creation_op_apply(x, v))
        acc = a_u @ c_v + c_v @ a_u
        assert np.linalg.norm(acc - np.vdot(u, v) * np.eye(1 << d)) <= 1e-10

    def test_annihilation_is_adjoint_of_creation(self):
        rng = rng_for(31)
        d = 4
        mode = random_mode(rng, d)
        cmat = op_matrix(d, lambda x: fock.creation_op_apply(x, mode))
        amat = op_matrix(d, lambda x: fock.annihilation_op_apply(x, mode))
        assert np.linalg.norm(amat - cmat.conj().T) <= 1e-12


class TestExpand:
    def test_standard_state(self):
        v = fock.expand(standard_state(3, 2))
        expected = np.zeros(8, dtype=complex)
        expected[0b011] = 1.0
        assert np.allclose(v.amplitudes, expected)

    def test_vacuum(self):
        v = fock.expand(standard_state(3, 0))
        assert v.amplitudes[0] == 1.0
        assert np.linalg.norm(v.amplitudes[1:]) == 0.0

    def test_norm_equals_amplitude(self):
        rng = rng_for(32)
        s = SlaterState(random_orthonormal_columns(rng, 5, 2), 0.25j)
        assert fock.norm(fock.expand(s)) == pytest.approx(0.25, abs=1e-9)

    def test_matches_creation_string(self):
        """Expanding equals applying the orbital creation operators in
        descending order to the vacuum."""
        rng = rng_for(33)
        d, n = 5, 3
        s = SlaterState(random_orthonormal_columns(rng, d, n))
        built = fock.vacuum(d)
        for col in reversed(range(n)):
            built = fock.creation_op_apply(built, s.orbitals[:, col])
        assert np.allclose(fock.expand(s).amplitudes, built.amplitudes, atol=1e-10)

    def test_mode_cap(self):
        with pytest.raises(TooManyModes):
            fock.expand(standard_state(13, 1))


def laplace_minors(a):
    """{rows: minor of a[rows, :k]} for every row set of k <= N rows of a
    (D, N) matrix, in a Python loop over row sets: each k-row minor
    expanded along column k - 1 over the (k - 1)-row minors, its k terms
    formed as one 1-D numpy product, signed (-1)^(j+k-1) by negation and
    added one after another.  The loop fock._minors' stacked recursion
    replaces, kept as the bitwise reference."""
    d, n = a.shape
    minors = {(r,): a[r, 0] for r in range(d)}
    for k in range(2, n + 1):
        for rows in itertools.combinations(range(d), k):
            entries = np.array([a[r, k - 1] for r in rows])
            subs = np.array([minors[rows[:j] + rows[j + 1:]] for j in range(k)])
            terms = entries * subs
            total = terms[0] if k % 2 else -terms[0]
            for j in range(1, k):
                total = total + (terms[j] if (j + k) % 2 else -terms[j])
            minors[rows] = total
    return minors


def reference_expand(s):
    """One minor per row set in a Python loop: the expansion that
    fock.expand's stacked minors replace, kept as the bitwise reference."""
    amps = np.zeros(1 << s.modes, dtype=complex)
    if s.amplitude != 0.0:
        minors = laplace_minors(s.orbitals) if s.electrons else None
        for rows in itertools.combinations(range(s.modes), s.electrons):
            mask = 0
            for i in rows:
                mask |= 1 << i
            amps[mask] = s.amplitude * minors[rows] if s.electrons else s.amplitude
    return fock.FockVector(s.modes, amps)


def reference_unitary_apply(vec, u):
    """One expansion per occupied basis mask, in ascending mask order:
    the rotation that fock.unitary_apply's compound matrices replace."""
    d = vec.modes
    out = np.zeros_like(vec.amplitudes)
    for mask in range(1 << d):
        amp = vec.amplitudes[mask]
        if amp == 0:
            continue
        if mask == 0:
            out[0] += amp
            continue
        cols = [m for m in range(d) if (mask >> m) & 1]
        image = reference_expand(SlaterState(u[:, cols], 1.0))
        out += amp * image.amplitudes
    return fock.FockVector(d, out)


def reference_expand_sum(ssum):
    """One expansion per term, scaled by its coefficient and added in term
    order over full-length vectors: the loop fock.expand_sum replaces."""
    total = np.zeros(1 << ssum.modes, dtype=complex)
    for coeff, amp, orbitals in zip(ssum.coeffs, ssum.amps, ssum.orbitals):
        term = reference_expand(SlaterState._checked(orbitals, amp)).amplitudes
        total = total + coeff * term
    return fock.FockVector(ssum.modes, total)


def reference_ladder_apply(amps, d, vec, create):
    """a_vec^dag (create) or a_vec with every mask and sign array rebuilt
    on the call: the walk the cached ladder tables replace."""
    masks = np.arange(1 << d)
    pops = np.array([bin(int(mask)).count("1") for mask in masks])
    out = np.zeros_like(amps)
    for m in range(d):
        coef = vec[m] if create else np.conj(vec[m])
        if coef == 0.0:
            continue
        bit = 1 << m
        src = masks[((masks & bit) != 0) != create]
        signs = 1.0 - 2.0 * (pops[src & (bit - 1)] % 2)
        out[src ^ bit] += coef * signs * amps[src]
    return out


def reference_two_mode_projector(v, kap, lam, outcome):
    """fock.two_mode_projector_apply's operator products on the uncached walk."""
    d = v.modes

    def cre(vec, a):
        return reference_ladder_apply(a, d, vec, True)

    def ann(vec, a):
        return reference_ladder_apply(a, d, vec, False)

    a = v.amplitudes
    if outcome == 0:
        return ann(kap, cre(kap, ann(lam, cre(lam, a))))
    if outcome == 2:
        return cre(kap, ann(kap, cre(lam, ann(lam, a))))
    return ann(kap, cre(kap, cre(lam, ann(lam, a)))) + cre(kap, ann(kap, ann(lam, cre(lam, a))))


def _unitary(rng, d, kind):
    """A Haar-ish unitary, or a phased permutation or the identity, whose
    minors are exact zeros and units (signed zeros included)."""
    if kind == "haar":
        return random_unitary(rng, d)
    if kind == "identity":
        return np.eye(d, dtype=complex)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, d))
    return np.eye(d, dtype=complex)[:, rng.permutation(d)] * phases


@st.composite
def expand_recipes(draw):
    d = draw(st.integers(1, 6))
    n = draw(st.integers(0, d))
    kind = draw(st.sampled_from(("zero", "unit", "generic")))
    basis = draw(st.sampled_from(("haar", "identity", "permutation")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amp = {"zero": 0.0, "unit": 1.0, "generic": complex(*rng.standard_normal(2))}[kind]
    return SlaterState(_unitary(rng, d, basis)[:, :n], amp)


@st.composite
def rotation_recipes(draw):
    """A unitary and a vector with any mix of particle-number blocks."""
    d = draw(st.integers(1, 6))
    basis = draw(st.sampled_from(("haar", "identity", "permutation")))
    kind = draw(st.sampled_from(("dense", "sparse", "one_block", "basis_state")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = random_complex(rng, 1 << d)
    if kind == "sparse":
        amps[rng.random(1 << d) < 0.5] = 0.0
    elif kind == "one_block":
        amps[fock._popcounts(d) != rng.integers(0, d + 1)] = 0.0
    elif kind == "basis_state":
        amps = np.zeros(1 << d, dtype=complex)
        amps[rng.integers(0, 1 << d)] = 1.0
    return fock.FockVector(d, amps), _unitary(rng, d, basis)


@st.composite
def sum_recipes(draw):
    """A determinant sum of 0 to 20 terms with generic weights, and the
    MINOR_BATCH to expand it under."""
    d = draw(st.integers(1, 7))
    n = draw(st.integers(0, d))
    t = draw(st.integers(0, 20))
    basis = draw(st.sampled_from(("haar", "identity", "permutation")))
    batch = draw(st.sampled_from((1, 7, 50, fock.MINOR_BATCH)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = random_complex(rng, 2, t) * 10.0 ** rng.integers(-3, 2, (2, t))
    terms = [
        (complex(c), SlaterState(_unitary(rng, d, basis)[:, :n], complex(a)))
        for c, a in weights.T
    ]
    return SlaterSum(terms, d, n), batch


@st.composite
def sums_recipes(draw):
    """One to five sums of one D and N, of 0 to 12 terms each, and the
    MINOR_BATCH to expand them under."""
    d = draw(st.integers(1, 6))
    n = draw(st.integers(0, d))
    counts = draw(st.lists(st.integers(0, 12), min_size=1, max_size=5))
    basis = draw(st.sampled_from(("haar", "identity", "permutation")))
    batch = draw(st.sampled_from((1, 7, 50, fock.MINOR_BATCH)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [random_sum(rng, d, n, t, basis) for t in counts], batch


def random_sum(rng, d, n, t, basis="haar"):
    """A sum of t terms with generic weights over 1e-3 to 10."""
    weights = random_complex(rng, 2, t) * 10.0 ** rng.integers(-3, 2, (2, t))
    terms = [
        (complex(c), SlaterState(_unitary(rng, d, basis)[:, :n], complex(a)))
        for c, a in weights.T
    ]
    return SlaterSum(terms, d, n)


@st.composite
def ladder_recipes(draw):
    """A vector and an orthonormal mode pair, standard or generic."""
    d = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = random_complex(rng, 1 << d)
    if draw(st.booleans()):
        amps[rng.random(1 << d) < 0.5] = 0.0
    if draw(st.booleans()):
        kap, lam = random_orthogonal_pair(rng, d)
    else:
        i, j = rng.choice(d, 2, replace=False)
        kap, lam = standard_mode(d, i), standard_mode(d, j)
    return fock.FockVector(d, amps), kap, lam


class TestDenseKernels:
    """The stacked and cached kernels against the loops they replace, bit
    for bit (the oracle trailers print probability deviations near 1e-16)."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(expand_recipes())
    def test_expand_bitwise_equal_to_minor_loop(self, s):
        fast = fock.expand(s).amplitudes.tobytes()
        assert fast == reference_expand(s).amplitudes.tobytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(rotation_recipes())
    def test_unitary_apply_bitwise_equal_to_mask_loop(self, recipe):
        v, u = recipe
        fast = fock.unitary_apply(v, u).amplitudes.tobytes()
        assert fast == reference_unitary_apply(v, u).amplitudes.tobytes()

    @pytest.mark.parametrize("batch", [1, 7, 50])
    def test_unitary_apply_bitwise_equal_in_small_batches(self, batch, monkeypatch):
        """Splitting a block's minors over several _minors calls changes nothing."""
        monkeypatch.setattr(fock, "MINOR_BATCH", batch)
        rng = rng_for(39)
        for d in (5, 6):
            v = fock.FockVector(d, random_complex(rng, 1 << d))
            u = random_unitary(rng, d)
            fast = fock.unitary_apply(v, u).amplitudes.tobytes()
            assert fast == reference_unitary_apply(v, u).amplitudes.tobytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(sum_recipes())
    def test_expand_sum_bitwise_equal_to_term_loop(self, recipe):
        ssum, batch = recipe
        with mock.patch.object(fock, "MINOR_BATCH", batch):
            fast = fock.expand_sum(ssum).amplitudes.tobytes()
        assert fast == reference_expand_sum(ssum).amplitudes.tobytes()

    def test_expand_sum_adds_in_term_order(self):
        """Many terms on one basis mask (N = 0 and N = D) are added in
        term order: numpy would sum a lone column pairwise."""
        rng = rng_for(46)
        for d, n in ((3, 0), (3, 3)):
            coeffs = random_complex(rng, 40) * 10.0 ** rng.integers(-8, 8, 40)
            ssum = SlaterSum(
                [(complex(c), SlaterState(random_unitary(rng, d)[:, :n])) for c in coeffs], d, n
            )
            fast = fock.expand_sum(ssum).amplitudes.tobytes()
            assert fast == reference_expand_sum(ssum).amplitudes.tobytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(sums_recipes())
    def test_expand_sums_bitwise_equal_to_expand_sum_of_each(self, recipe):
        sums, batch = recipe
        with mock.patch.object(fock, "MINOR_BATCH", batch):
            fast = [v.amplitudes.tobytes() for v in fock.expand_sums(sums)]
        assert fast == [fock.expand_sum(s).amplitudes.tobytes() for s in sums]
        assert fast == [reference_expand_sum(s).amplitudes.tobytes() for s in sums]

    @pytest.mark.parametrize("batch", [1, 7, 50])
    @pytest.mark.parametrize("d,n", [(4, 2), (5, 0), (6, 3), (6, 6)])
    def test_expand_sums_streams_across_sums(self, d, n, batch, monkeypatch):
        """Sums of 3, 0, 5, 1 and 7 terms take ceil(16 / _chunk) _minors
        calls, which cut the stream of terms wherever the chunk ends, in
        a sum or between two, and still give each sum's expand_sum."""
        rng = rng_for(48)
        sums = [random_sum(rng, d, n, t) for t in (3, 0, 5, 1, 7)]
        want = [fock.expand_sum(s).amplitudes.tobytes() for s in sums]
        monkeypatch.setattr(fock, "MINOR_BATCH", batch)
        stacks = []
        real = fock._minors
        monkeypatch.setattr(fock, "_minors", lambda a: stacks.append(len(a)) or real(a))
        assert [v.amplitudes.tobytes() for v in fock.expand_sums(sums)] == want
        step = fock._chunk(d, n)
        assert stacks == ([] if n == 0 else [min(step, 16 - k) for k in range(0, 16, step)])

    def test_expand_sums_edge_cases(self):
        """No sums, a sum of no terms, and sums of two shapes."""
        assert fock.expand_sums([]) == []
        empty = SlaterSum([], 3, 1)
        (vec,) = fock.expand_sums([empty])
        assert vec.amplitudes.tobytes() == fock.expand_sum(empty).amplitudes.tobytes()
        assert not vec.amplitudes.any()
        rng = rng_for(49)
        with pytest.raises(DimensionMismatch):
            fock.expand_sums([random_sum(rng, 3, 1, 2), random_sum(rng, 3, 2, 2)])

    def test_expand_sums_scratch_is_capped(self):
        """Eight sums of 16 terms at D = 12, N = 6: the scratch stays at
        one _minors call's, beside the eight 64 KB vectors it returns."""
        rng = rng_for(50)
        sums = [
            SlaterSum([(1.0 + 0j, SlaterState(random_orthonormal_columns(rng, 12, 6)))
                       for _ in range(16)], 12, 6)
            for _ in range(8)
        ]
        fock.expand_sums(sums[:1])  # the cached index tables
        tracemalloc.start()
        try:
            fock.expand_sums(sums)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(ladder_recipes())
    def test_ladder_applies_bitwise_equal_to_uncached_walk(self, recipe):
        v, kap, lam = recipe
        a, d = v.amplitudes, v.modes
        pairs = [
            (fock.creation_op_apply(v, kap), reference_ladder_apply(a, d, kap, True)),
            (fock.annihilation_op_apply(v, lam), reference_ladder_apply(a, d, lam, False)),
        ]
        pairs += [
            (fock.two_mode_projector_apply(v, kap, lam, o), reference_two_mode_projector(v, kap, lam, o))
            for o in (0, 1, 2)
        ]
        for fast, ref in pairs:
            assert fast.amplitudes.tobytes() == ref.tobytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=15)
    @given(st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_minors_match_determinants(self, t, seed):
        """The recursion's minors are np.linalg.det of each row set's
        matrix within 1e-14, for every N at every D up to 10, on stacks
        of t Haar, identity and permutation bases."""
        rng = np.random.default_rng(seed)
        for d, basis in itertools.product(range(1, 11), ("haar", "identity", "permutation")):
            full = np.stack([_unitary(rng, d, basis) for _ in range(t)])
            for n in range(1, d + 1):
                stack = full[:, :, :n]
                dets = np.linalg.det(stack[:, fock._occupied_modes(d, n)])
                assert np.max(np.abs(fock._minors(stack) - dets)) < 1e-14

    def test_cached_laplace_tables_are_read_only(self):
        for key in ((6, 2), (6, 3), (9, 5)):
            table = fock._laplace_table(*key)
            assert fock._laplace_table(*key) is table
            for arr in table:
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = arr[1]

    def test_cached_ladder_tables_are_read_only(self):
        for key in ((4, 1, True), (4, 2, False)):
            table = fock._ladder_table(*key)
            assert fock._ladder_table(*key) is table
            for arr in table:
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = arr[1]

    def test_expand_sum_scratch_is_capped(self):
        """At D = 12, N = 6 and T = 64 an uncapped minor stack would take
        34 MB; MINOR_BATCH keeps the scratch to a few MB."""
        rng = rng_for(47)
        terms = [(1.0 + 0j, SlaterState(random_orthonormal_columns(rng, 12, 6))) for _ in range(64)]
        ssum = SlaterSum(terms, 12, 6)
        fock.expand_sum(SlaterSum(terms[:1], 12, 6))  # the cached index tables
        tracemalloc.start()
        try:
            fock.expand_sum(ssum)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @pytest.mark.parametrize("d", range(1, 7))
    def test_unitary_apply_matches_generator_evolution(self, d):
        rng = rng_for(40 + d)
        amps = random_complex(rng, 1 << d)
        v = fock.FockVector(d, amps / np.linalg.norm(amps))
        b = random_hermitian(rng, d)
        out = fock.unitary_apply(v, one_body_unitary(b, 0.7))
        ref = fock.one_body_apply(v, b, 0.7)
        assert np.max(np.abs(out.amplitudes - ref.amplitudes)) < 1e-12

    def test_unitary_apply_rejects_bad_unitaries(self):
        v = fock.vacuum(3)
        with pytest.raises(DimensionMismatch):
            fock.unitary_apply(v, np.eye(4))
        with pytest.raises(NotUnitary):
            fock.unitary_apply(v, 2 * np.eye(3))
        with pytest.raises(TooManyModes):
            fock.unitary_apply(fock.FockVector(13, np.zeros(1 << 13)), np.eye(13))


class TestOneBodyApply:
    def test_zero_generator(self):
        rng = rng_for(34)
        v = fock.FockVector(3, rng.standard_normal(8) + 1j * rng.standard_normal(8))
        out = fock.one_body_apply(v, np.zeros((3, 3)), 2.2)
        assert np.allclose(out.amplitudes, v.amplitudes, atol=1e-12)

    def test_single_mode_phase(self):
        eps, tau = 0.6, 1.7
        b = np.diag([eps, 0.0, 0.0])
        v = fock.basis_vector(3, 0b001)
        out = fock.one_body_apply(v, b, tau)
        assert out.amplitudes[0b001] == pytest.approx(np.exp(-1j * eps * tau))

    def test_norm_preserved(self):
        rng = rng_for(35)
        amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        amps /= np.linalg.norm(amps)
        v = fock.FockVector(4, amps)
        out = fock.one_body_apply(v, random_hermitian(rng, 4), 0.9)
        assert fock.norm(out) == pytest.approx(1.0, abs=1e-10)

    def test_number_conservation(self):
        rng = rng_for(36)
        d = 4
        amps = rng.standard_normal(1 << d) + 1j * rng.standard_normal(1 << d)
        v = fock.FockVector(d, amps)
        out = fock.one_body_apply(v, random_hermitian(rng, d), 1.3)
        counts = np.zeros(1 << d, dtype=int)
        for m in range(d):
            counts += (np.arange(1 << d) >> m) & 1
        for k in range(d + 1):
            sel = counts == k
            before = np.linalg.norm(v.amplitudes[sel])
            after = np.linalg.norm(out.amplitudes[sel])
            assert after == pytest.approx(before, abs=1e-10)

    def test_generator_apply_is_derivative(self):
        """exp(-i H t) for tiny t agrees with 1 - i H t to second order."""
        rng = rng_for(37)
        d = 3
        amps = rng.standard_normal(1 << d) + 1j * rng.standard_normal(1 << d)
        v = fock.FockVector(d, amps)
        b = random_hermitian(rng, d)
        t = 1e-5
        evolved = fock.one_body_apply(v, b, t)
        hv = fock.one_body_generator_apply(v, b)
        linear = v.amplitudes - 1j * t * hv.amplitudes
        assert np.allclose(evolved.amplitudes, linear, atol=1e-8)

    def test_rejects_nonhermitian(self):
        v = fock.vacuum(3)
        with pytest.raises(NotHermitian):
            fock.one_body_apply(v, np.triu(np.ones((3, 3)), 1), 1.0)


class TestTwoModeProjectors:
    def test_projector_completeness(self):
        rng = rng_for(38)
        d = 3
        kap, lam = random_orthogonal_pair(rng, d)
        mats = [
            op_matrix(d, lambda v, o=o: fock.two_mode_projector_apply(v, kap, lam, o))
            for o in (0, 1, 2)
        ]
        assert np.linalg.norm(sum(mats) - np.eye(1 << d)) <= 1e-10

    def test_idempotence_and_orthogonality(self):
        rng = rng_for(39)
        d = 4
        kap, lam = random_orthogonal_pair(rng, d)
        mats = [
            op_matrix(d, lambda v, o=o: fock.two_mode_projector_apply(v, kap, lam, o))
            for o in (0, 1, 2)
        ]
        for i, pi in enumerate(mats):
            assert np.linalg.norm(pi @ pi - pi) <= 1e-10
            assert np.linalg.norm(pi - pi.conj().T) <= 1e-10
            for j, pj in enumerate(mats):
                if i != j:
                    assert np.linalg.norm(pi @ pj) <= 1e-10

    def test_standard_mode_counts(self):
        kap = standard_mode(4, 0)
        lam = standard_mode(4, 1)
        two = fock.expand(standard_state(4, 2))
        for o, expected in [(0, 0.0), (1, 0.0), (2, 1.0)]:
            out = fock.two_mode_projector_apply(two, kap, lam, o)
            assert fock.norm(out) == pytest.approx(expected, abs=1e-12)

    def test_rejects_nonorthogonal_modes(self):
        v = fock.vacuum(3)
        kap = standard_mode(3, 0)
        with pytest.raises(ModesNotOrthogonal):
            fock.two_mode_projector_apply(v, kap, kap, 0)

    def test_rejects_bad_outcome(self):
        rng = rng_for(40)
        kap, lam = random_orthogonal_pair(rng, 3)
        with pytest.raises(ValueError):
            fock.two_mode_projector_apply(fock.vacuum(3), kap, lam, 3)

    # ladder applies per group: an operator product per outcome, or one
    # for the complement of a group of two with outcome 1
    GROUP_APPLIES = {(0,): 4, (1,): 8, (2,): 4, (0, 1): 4, (1, 2): 4, (0, 2): 8, (0, 1, 2): 0}

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.sampled_from(sorted(GROUP_APPLIES)))
    def test_group_projection_sums_its_outcomes(self, d, seed, group):
        """Every group of generic orthogonal modes is within 1e-12 of its
        outcomes' summed two_mode_projector_apply, a single outcome byte
        for byte, at the ladder applies GROUP_APPLIES counts."""
        rng = np.random.default_rng(seed)
        v = fock.FockVector(d, random_complex(rng, 1 << d))
        kap, lam = random_orthogonal_pair(rng, d)
        with mock.patch.object(fock, "_ladder_apply", wraps=fock._ladder_apply) as spy:
            out = fock._group_projection(v.amplitudes, d, (kap, lam), group)
        assert spy.call_count == self.GROUP_APPLIES[group]
        parts = [fock.two_mode_projector_apply(v, kap, lam, o).amplitudes for o in group]
        assert np.abs(out - sum(parts)).max() <= 1e-12
        if len(group) == 1:
            assert out.tobytes() == parts[0].tobytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.sampled_from([0, 1]))
    def test_one_mode_outcome_is_its_ladder_pair(self, d, seed, outcome):
        """The one-mode case (kap,) projects outcome 0 as a_k a_k^dag and
        outcome 1 as a_k^dag a_k, byte for byte the two _ladder_apply calls
        in that order, and their group {0, 1} is a copy of the vector."""
        rng = np.random.default_rng(seed)
        amps = random_complex(rng, 1 << d)
        kap = random_mode(rng, d)
        filled = outcome == 1
        want = fock._ladder_apply(fock._ladder_apply(amps, d, kap, not filled), d, kap, filled)
        with mock.patch.object(fock, "_ladder_apply", wraps=fock._ladder_apply) as spy:
            got = fock._group_projection(amps, d, (kap,), [outcome])
        assert spy.call_count == 2
        assert got.tobytes() == want.tobytes()
        both = fock._group_projection(amps, d, (kap,), [0, 1])
        assert both.tobytes() == amps.tobytes() and both is not amps


class TestDensityAndChannel:
    def test_vacuum_projector_fixed(self):
        rng = rng_for(41)
        d = 3
        rho = fock.density_from_vector(fock.vacuum(d))
        out = fock.trace_out_channel(rho, random_mode(rng, d))
        assert np.allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_occupation_eigenstate_fixed(self):
        d = 3
        zeta = standard_mode(d, 1)
        rho = fock.density_from_vector(fock.basis_vector(d, 0b010))
        out = fock.trace_out_channel(rho, zeta)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_trace_and_positivity_preserved(self):
        rng = rng_for(42)
        d = 4
        s = SlaterState(random_orthonormal_columns(rng, d, 2))
        rho = fock.density_from_vector(fock.expand(s))
        out = fock.trace_out_channel(rho, random_mode(rng, d))
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-9)
        evals = np.linalg.eigvalsh(out.matrix)
        assert evals.min() >= -1e-9

    def test_kills_coherence_between_occupations(self):
        """After the channel, the density commutes with the measured
        mode's number operator."""
        rng = rng_for(43)
        d = 3
        zeta = random_mode(rng, d)
        amps = rng.standard_normal(1 << d) + 1j * rng.standard_normal(1 << d)
        rho = fock.density_from_vector(fock.FockVector(d, amps), normalize=True)
        out = fock.trace_out_channel(rho, zeta)
        cmat = fock.creation_matrix(d, zeta)
        num = cmat @ cmat.conj().T
        comm = num @ out.matrix - out.matrix @ num
        assert np.linalg.norm(comm) <= 1e-9

    def test_density_cap(self):
        with pytest.raises(TooManyModes):
            fock.creation_matrix(9, standard_mode(9, 0))

    def test_zero_vector_density(self):
        v = fock.FockVector(2, np.zeros(4))
        with pytest.raises(ZeroVector):
            fock.density_from_vector(v, normalize=True)


class TestVectorUtilities:
    def test_fidelity_identities(self):
        rng = rng_for(44)
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v = fock.FockVector(3, amps)
        w = fock.FockVector(3, 1j * amps)
        assert fock.fidelity(v, v) == pytest.approx(1.0)
        assert fock.fidelity(v, w) == pytest.approx(1.0)
        b1 = fock.basis_vector(3, 1)
        b2 = fock.basis_vector(3, 2)
        assert fock.fidelity(b1, b2) == pytest.approx(0.0, abs=1e-12)

    def test_fidelity_zero_vector(self):
        v = fock.basis_vector(2, 1)
        z = fock.FockVector(2, np.zeros(4))
        with pytest.raises(ZeroVector):
            fock.fidelity(v, z)

    def test_inner_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fock.inner(fock.vacuum(2), fock.vacuum(3))


class TestFockVectorType:
    def test_public_constructor_rejects_bad_shape(self):
        with pytest.raises(DimensionMismatch, match=r"expected \(8,\)"):
            fock.FockVector(3, np.zeros(7))
        with pytest.raises(DimensionMismatch):
            fock.FockVector(2, np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("-inf"))])
    def test_public_constructor_rejects_nonfinite(self, bad):
        amps = np.zeros(4, dtype=complex)
        amps[3] = bad
        with pytest.raises(FlosimError, match="amplitudes must be finite"):
            fock.FockVector(2, amps)

    def test_kernel_results_skip_the_checks(self):
        """Vectors computed from validated inputs are built unchecked."""
        rng = rng_for(45)
        d = 4
        s = SlaterState(random_orthonormal_columns(rng, d, 2))
        kap, lam = random_orthogonal_pair(rng, d)
        check = mock.Mock(side_effect=AssertionError("re-checked"))
        with mock.patch.object(fock.FockVector, "__post_init__", check):
            v = fock.expand(s)
            fock.unitary_apply(v, random_unitary(rng, d))
            fock.creation_op_apply(fock.annihilation_op_apply(v, kap), kap)
            fock.two_mode_projector_apply(v, kap, lam, 1)
            fock.vacuum(d)
            fock.basis_vector(d, 3)
        check.assert_not_called()

    def test_expand_rejects_a_nonfinite_amplitude(self):
        s = SlaterState(np.eye(3, 2, dtype=complex), complex(float("inf"), 0.0))
        with pytest.raises(FlosimError, match="amplitudes must be finite"):
            fock.expand(s)
