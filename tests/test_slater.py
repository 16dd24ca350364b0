"""Tests for the single-determinant engine, cross-checked against the
dense occupation-basis simulator wherever an operator identity exists."""

import numpy as np
import pytest

from conftest import (
    random_hermitian,
    random_mode,
    random_orthonormal_columns,
    random_unitary,
    rng_for,
)

from flosim.errors import (
    BadDimensions,
    BadIndexSet,
    DimensionMismatch,
    FlosimError,
    ImpossibleOutcome,
    NotInSpan,
    NotUnitary,
)
from flosim.circuits import pair_rotation
from flosim.linalg import one_body_unitary
from flosim.multislater import SlaterSum, evolve_sum, measure_mode_sum
from flosim.simulate import Rotate
from flosim.slater import (
    SlaterState,
    annihilate,
    check_mode,
    check_orthonormal,
    check_unitary,
    decompose_mode,
    evolve,
    measure_mode,
    occupation_amplitude,
    rotate_in_first,
    slater_overlap,
    standard_state,
)
from flosim import fock


def random_state(rng, d, n):
    return SlaterState(random_orthonormal_columns(rng, d, n))


def number_projected(v, kap, outcome):
    """Exact single-mode occupation projector applied to a dense vector."""
    occupied = fock.creation_op_apply(fock.annihilation_op_apply(v, kap), kap)
    if outcome == 1:
        return occupied
    return fock.FockVector(v.modes, v.amplitudes - occupied.amplitudes)


class TestSlaterStateType:
    def test_standard_examples(self):
        vac = standard_state(3, 0)
        assert vac.electrons == 0
        assert vac.amplitude == 1.0
        two = standard_state(4, 2)
        assert np.allclose(two.orbitals, np.eye(4, 2))
        full = standard_state(5, 5)
        assert np.allclose(full.orbitals, np.eye(5))

    def test_bad_dimensions(self):
        with pytest.raises(BadDimensions):
            standard_state(2, 3)
        with pytest.raises(BadDimensions):
            standard_state(0, 0)
        with pytest.raises(BadDimensions):
            SlaterState(np.ones((2, 3)))

    def test_rejects_nonorthonormal(self):
        with pytest.raises(FlosimError):
            SlaterState(np.ones((3, 2)))

    def test_rejects_nonfinite(self):
        bad = np.eye(3, 2, dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(FlosimError):
            SlaterState(bad)

    def test_rejects_an_overflowing_gram(self):
        """Finite orbitals whose Gram product overflows have a NaN
        deviation, which fails the check (without a RuntimeWarning)."""
        with pytest.raises(FlosimError, match="^orbital columns not orthonormal, deviation nan$"):
            SlaterState(np.full((3, 2), 1e200 + 1e200j))


def raised_by(fn, *args):
    """(class, message) of what fn raises, or None."""
    try:
        fn(*args)
    except FlosimError as exc:
        return type(exc), str(exc)
    return None


class TestOrthonormalCheck:
    """check_orthonormal raises on a stack exactly what the constructor
    raises on its first failing slice: class and message, deviation
    digits included."""

    @pytest.mark.parametrize(
        "defect, valid",
        # A column overlap delta gives a deviation of about sqrt(2) delta,
        # so 7.0e-11 and 7.2e-11 straddle ORTHO_TOL = 1e-10.
        [(None, True), ("nan", False), ("inf", False), ("overflow", False), (7.0e-11, True),
         (7.2e-11, False), (1e-8, False)],
    )
    def test_agrees_with_constructor(self, defect, valid):
        rng = rng_for(24)
        stack = np.array([random_orthonormal_columns(rng, 6, 3) for _ in range(5)])
        if defect in ("nan", "inf"):
            stack[2, 4, 1] = float(defect)
        elif defect == "overflow":
            stack[2] = 1e200 + 1e200j
        elif defect is not None:
            stack[2, :, 2] += defect * stack[2, :, 1]
        per_slice = [raised_by(SlaterState, orbitals) for orbitals in stack]
        assert (per_slice == [None] * 5) is valid
        assert raised_by(check_orthonormal, stack) == next(filter(None, per_slice), None)

    @pytest.mark.parametrize("order", [("nan", 1e-8), (1e-8, "nan"), (3e-8, 1e-8)])
    def test_first_failing_state_wins(self, order):
        """Whichever check a state fails, the earliest failing state raises."""
        rng = rng_for(25)
        stack = np.array([random_orthonormal_columns(rng, 6, 3) for _ in range(5)])
        for index, defect in zip((1, 3), order):
            if defect == "nan":
                stack[index, 0, 0] = np.nan
            else:
                stack[index, :, 2] += defect * stack[index, :, 1]
        assert raised_by(check_orthonormal, stack) == raised_by(SlaterState, stack[1])


class TestInputChecks:
    """A mode vector's norm error reappears in every split child's Gram
    check, so check_mode admits only what the children can hold."""

    @staticmethod
    def stretched_mode(delta):
        return np.array([0.6, 0.0, 0.8, 0.0]) * (1 + delta)

    @pytest.mark.parametrize("delta", [3e-11, 5e-11, 8e-11])
    def test_rejects_a_norm_error_the_children_would_fail(self, delta):
        s = standard_state(4, 2)
        kap = self.stretched_mode(delta)
        message = f"mode vector norm {1 + delta:.12f} is not 1"
        for call in (
            lambda: check_mode(kap, 4),
            lambda: measure_mode(s, kap, forced=0),
            lambda: annihilate(s, kap),
            lambda: measure_mode_sum(SlaterSum.from_state(s), kap, forced=1),
        ):
            with pytest.raises(FlosimError) as err:
                call()
            assert str(err.value) == message

    def test_a_smaller_norm_error_measures(self):
        s = standard_state(4, 2)
        kap = self.stretched_mode(2e-11)
        check_mode(kap, 4)
        for outcome, want in ((0, 0.64), (1, 0.36)):
            assert measure_mode(s, kap, forced=outcome)[1] == pytest.approx(want)
            got = measure_mode_sum(SlaterSum.from_state(s), kap, forced=outcome)[1]
            assert got == pytest.approx(want)
        assert abs(annihilate(s, kap).amplitude) == pytest.approx(0.6)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_nonfinite_modes(self, bad):
        with pytest.raises(FlosimError, match="mode vector norm .* is not 1"):
            check_mode(np.array([1.0, 0.0, bad]), 3)

    def test_rejects_a_nan_unitary(self):
        u = np.eye(3, dtype=complex)
        u[1, 2] = float("nan")
        with pytest.raises(NotUnitary, match="deviation from unitarity nan"):
            check_unitary(u, 3)

    @pytest.mark.parametrize(
        "bad", [float("inf"), -float("inf"), complex(0.0, float("inf"))]
    )
    def test_rejects_an_infinite_unitary(self, bad):
        """An inf entry makes the Gram product warn, so it is rejected
        before the product, with the NaN message; tier 1 turns a
        RuntimeWarning into an error."""
        u = np.eye(3, dtype=complex)
        u[1, 2] = bad
        s = standard_state(3, 1)
        for call in (
            lambda: check_unitary(u, 3),
            lambda: evolve(s, u),
            lambda: evolve_sum(SlaterSum.from_state(s), u),
        ):
            with pytest.raises(NotUnitary) as err:
                call()
            assert str(err.value) == "deviation from unitarity nan"


class TestEvolve:
    def test_identity(self):
        rng = rng_for(10)
        s = random_state(rng, 4, 2)
        out = evolve(s, np.eye(4))
        assert np.allclose(out.orbitals, s.orbitals)
        assert out.amplitude == s.amplitude

    def test_two_mode_rotation_golden(self):
        """Locks the column convention: V acts on orbitals from the left."""
        t = 0.37
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        v = one_body_unitary(b, t)
        out = evolve(standard_state(2, 1), v)
        expected = np.array([np.cos(t), -1j * np.sin(t)])
        assert np.allclose(out.orbitals[:, 0], expected, atol=1e-12)

    @pytest.mark.parametrize("d,n", [(3, 1), (4, 2), (5, 3)])
    def test_matches_oracle_evolution(self, d, n):
        rng = rng_for(11 + d)
        s = random_state(rng, d, n)
        b = random_hermitian(rng, d)
        tau = 0.81
        fast = fock.expand(evolve(s, one_body_unitary(b, tau)))
        slow = fock.one_body_apply(fock.expand(s), b, tau)
        assert np.allclose(fast.amplitudes, slow.amplitudes, atol=1e-10)

    def test_composition(self):
        rng = rng_for(12)
        s = random_state(rng, 4, 2)
        v1 = random_unitary(rng, 4)
        v2 = random_unitary(rng, 4)
        chained = evolve(evolve(s, v1), v2)
        direct = evolve(s, v2 @ v1)
        assert abs(slater_overlap(chained, direct)) > 1 - 1e-9

    def test_keeps_columns_orthonormal(self):
        rng = rng_for(13)
        s = random_state(rng, 5, 3)
        out = evolve(s, random_unitary(rng, 5))
        gram = out.orbitals.conj().T @ out.orbitals
        assert np.linalg.norm(gram - np.eye(3)) <= 1e-10

    def test_rejects_nonunitary(self):
        with pytest.raises(NotUnitary):
            evolve(standard_state(3, 1), np.ones((3, 3)))

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionMismatch):
            evolve(standard_state(3, 1), np.eye(4))


class TestPairCheck:
    """check_unitary's pair: the rotate shorthand keeps a rotation of two
    sites as its 2x2 block, which is checked alone, and the step updates
    rows i and j of every term and copies every other row."""

    @staticmethod
    def embedded(d, pair, block):
        u = np.eye(d, dtype=complex)
        u[np.ix_(pair, pair)] = block
        return u

    @pytest.mark.parametrize("t", [1, 3])
    @pytest.mark.parametrize("d", [2, 5, 64])
    def test_updates_two_rows_as_the_dense_product(self, d, t):
        """Rows off the pair keep their bits; rows i and j agree with the
        embedded D x D product within 1e-15, for i < j and i > j; the
        terms' weights and the norm carry over."""
        rng = rng_for(150 + d + t)
        blocks = [pair_rotation(0.7, 0.4), pair_rotation(1e300, -2.5), random_unitary(rng, 2)]
        for n in sorted({0, 1, d // 2, d}):
            terms = [(complex(*rng.standard_normal(2)), random_state(rng, d, n)) for _ in range(t)]
            ssum = SlaterSum(terms, d, n)
            i, j = rng.choice(d, size=2, replace=False)
            for pair in ((min(i, j), max(i, j)), (max(i, j), min(i, j))):
                off = [k for k in range(d) if k not in pair]
                for block in blocks:
                    u = self.embedded(d, pair, block)
                    got, want = evolve_sum(ssum, block, pair), evolve_sum(ssum, u)
                    assert (got.coeffs, got.amps) == (ssum.coeffs, ssum.amps)
                    assert got.norm_sq == ssum.norm_sq
                    assert got.orbitals[:, off].tobytes() == ssum.orbitals[:, off].tobytes()
                    assert np.abs(got.orbitals - want.orbitals).max(initial=0.0) <= 1e-15
                    one = evolve(terms[0][1], block, pair)
                    assert one.orbitals.tobytes() == got.orbitals[0].tobytes()

    @pytest.mark.parametrize(
        ("block", "message"),
        [
            (pair_rotation(float("nan")), "deviation from unitarity nan"),
            (pair_rotation(float("inf")), "deviation from unitarity nan"),
            (np.diag([2.0, 1.0]), "deviation from unitarity 3.000e+00"),
        ],
        ids=["nan", "inf", "scaled"],
    )
    def test_rejects_what_the_full_check_rejects(self, block, message):
        u = self.embedded(5, (3, 0), block)
        s = standard_state(5, 2)
        for call in (
            lambda v, pair: check_unitary(v, 5, pair),
            lambda v, pair: evolve(s, v, pair),
            lambda v, pair: evolve_sum(SlaterSum.from_state(s), v, pair),
        ):
            for v, pair in ((block, (3, 0)), (u, None)):
                with pytest.raises(NotUnitary) as err:
                    call(v, pair)
                assert str(err.value) == message

    def test_keeps_the_shape_check(self):
        with pytest.raises(DimensionMismatch, match=r"^unitary has shape \(4, 4\), state has 5"):
            check_unitary(np.eye(4), 5, (0, 1))

    @pytest.mark.parametrize("pair", [(0, 5), (-1, 2), (2, 2)])
    def test_rejects_a_pair_off_the_sites(self, pair):
        with pytest.raises(DimensionMismatch, match=r"does not name two sites of 5 modes$"):
            evolve_sum(SlaterSum.from_state(standard_state(5, 2)), np.eye(2), pair)
        with pytest.raises(ValueError, match=r"does not name two sites of 5 modes$"):
            Rotate.on_pair(5, *pair, np.eye(2))


class TestDecomposeMode:
    def test_fully_inside(self):
        dec = decompose_mode(standard_state(3, 2), np.array([1.0, 0, 0]))
        assert dec.alpha == pytest.approx(1.0)
        assert dec.beta == pytest.approx(0.0, abs=1e-12)
        assert dec.out_orbital is None

    def test_fully_outside(self):
        dec = decompose_mode(standard_state(3, 2), np.array([0.0, 0, 1.0]))
        assert dec.alpha == pytest.approx(0.0, abs=1e-12)
        assert dec.beta == pytest.approx(1.0)
        assert dec.in_orbital is None

    def test_even_split(self):
        kap = np.array([1.0, 1.0]) / np.sqrt(2)
        dec = decompose_mode(standard_state(2, 1), kap)
        assert dec.alpha == pytest.approx(1 / np.sqrt(2))
        assert dec.beta == pytest.approx(1 / np.sqrt(2))

    def test_split_properties_random(self):
        rng = rng_for(14)
        for _ in range(5):
            s = random_state(rng, 5, 2)
            kap = random_mode(rng, 5)
            dec = decompose_mode(s, kap)
            assert dec.alpha >= 0 and dec.beta >= 0
            assert dec.alpha**2 + dec.beta**2 == pytest.approx(1.0, abs=1e-10)
            rebuilt = np.zeros(5, dtype=complex)
            if dec.in_orbital is not None:
                rebuilt = rebuilt + dec.alpha * dec.in_orbital
                proj = s.orbitals @ (s.orbitals.conj().T @ dec.in_orbital)
                assert np.linalg.norm(proj - dec.in_orbital) <= 1e-9
            if dec.out_orbital is not None:
                rebuilt = rebuilt + dec.beta * dec.out_orbital
                proj = s.orbitals @ (s.orbitals.conj().T @ dec.out_orbital)
                assert np.linalg.norm(proj) <= 1e-9
            assert np.allclose(rebuilt, kap, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            decompose_mode(standard_state(3, 1), np.array([1.0, 0]))


class TestRotateInFirst:
    def test_noop_when_already_first(self):
        rng = rng_for(15)
        s = random_state(rng, 4, 2)
        out = rotate_in_first(s, s.orbitals[:, 0])
        assert np.allclose(out.orbitals, s.orbitals, atol=1e-12)
        assert abs(out.amplitude - s.amplitude) <= 1e-12

    def test_standard_example(self):
        target = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        s = standard_state(3, 2)
        out = rotate_in_first(s, target)
        assert np.allclose(out.orbitals[:, 0], target, atol=1e-12)
        before = fock.expand(s)
        after = fock.expand(out)
        assert np.allclose(before.amplitudes, after.amplitudes, atol=1e-10)

    @pytest.mark.parametrize("d,n", [(4, 1), (4, 2), (5, 3), (6, 5)])
    def test_expansion_untouched(self, d, n):
        """The in-span basis change is special-unitary, so the dense
        expansion (global phase included) must come back bit for bit."""
        rng = rng_for(16 + 7 * d + n)
        s = random_state(rng, d, n)
        coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        target = s.orbitals @ (coeffs / np.linalg.norm(coeffs))
        out = rotate_in_first(s, target)
        assert np.allclose(out.orbitals[:, 0], target, atol=1e-10)
        assert np.allclose(
            fock.expand(s).amplitudes, fock.expand(out).amplitudes, atol=1e-10
        )

    def test_single_electron_phase(self):
        rng = rng_for(17)
        s = random_state(rng, 3, 1)
        target = np.exp(1.3j) * s.orbitals[:, 0]
        out = rotate_in_first(s, target)
        assert np.allclose(out.orbitals[:, 0], target, atol=1e-12)
        assert np.allclose(
            fock.expand(s).amplitudes, fock.expand(out).amplitudes, atol=1e-12
        )

    def test_out_of_span_rejected(self):
        with pytest.raises(NotInSpan):
            rotate_in_first(standard_state(3, 2), np.array([0.0, 0, 1.0]))

    def test_vacuum_rejected(self):
        with pytest.raises(NotInSpan):
            rotate_in_first(standard_state(3, 0), np.array([1.0, 0, 0]))


class TestMeasureMode:
    def test_filled_mode_certain(self):
        s = standard_state(3, 2)
        outcome, prob, post = measure_mode(s, np.array([1.0, 0, 0]), forced=1)
        assert outcome == 1
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(post.orbitals, s.orbitals, atol=1e-12)

    def test_empty_mode_certain(self):
        s = standard_state(3, 2)
        outcome, prob, post = measure_mode(s, np.array([0.0, 0, 1.0]), forced=0)
        assert outcome == 0
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(post.orbitals, s.orbitals) and post.amplitude == s.amplitude

    def test_vacuum_always_empty(self):
        s = standard_state(3, 0)
        outcome, prob, post = measure_mode(s, np.array([1.0, 0, 0]), forced=0)
        assert outcome == 0 and prob == 1.0 and post is s
        with pytest.raises(ImpossibleOutcome):
            measure_mode(s, np.array([1.0, 0, 0]), forced=1)

    def test_impossible_forced_outcome(self):
        s = standard_state(3, 2)
        with pytest.raises(ImpossibleOutcome):
            measure_mode(s, np.array([0.0, 0, 1.0]), forced=1)
        with pytest.raises(ImpossibleOutcome):
            measure_mode(s, np.array([1.0, 0, 0]), forced=0)

    def test_needs_forced_or_rng(self):
        rng = rng_for(18)
        s = random_state(rng, 4, 2)
        with pytest.raises(ValueError):
            measure_mode(s, random_mode(rng, 4))

    def test_probability_completeness(self):
        rng = rng_for(19)
        for _ in range(5):
            s = random_state(rng, 5, 3)
            kap = random_mode(rng, 5)
            _, p1, _ = measure_mode(s, kap, forced=1)
            _, p0, _ = measure_mode(s, kap, forced=0)
            assert p0 + p1 == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("outcome", [0, 1])
    @pytest.mark.parametrize("d,n", [(3, 1), (4, 2), (5, 3), (6, 4)])
    def test_matches_oracle_projection(self, d, n, outcome):
        """P_outcome |s> = sqrt(p) |post> exactly, relative phase included."""
        rng = rng_for(20 + 13 * d + n + outcome)
        s = random_state(rng, d, n)
        kap = random_mode(rng, d)
        _, prob, post = measure_mode(s, kap, forced=outcome)
        projected = number_projected(fock.expand(s), kap, outcome)
        assert fock.norm(projected) ** 2 == pytest.approx(prob, abs=1e-10)
        scaled = np.sqrt(prob) * fock.expand(post).amplitudes
        assert np.allclose(projected.amplitudes, scaled, atol=1e-10)

    def test_sampled_outcome_valid(self):
        rng = rng_for(21)
        s = random_state(rng, 4, 2)
        kap = random_mode(rng, 4)
        sampler = rng_for(99)
        outcome, prob, post = measure_mode(s, kap, rng=sampler)
        assert outcome in (0, 1)
        assert 0 < prob < 1
        gram = post.orbitals.conj().T @ post.orbitals
        assert np.linalg.norm(gram - np.eye(2)) <= 1e-10

    def test_sampling_is_deterministic_per_seed(self):
        rng = rng_for(22)
        s = random_state(rng, 5, 2)
        kap = random_mode(rng, 5)
        draws1 = [measure_mode(s, kap, rng=rng_for(seed))[0] for seed in range(20)]
        draws2 = [measure_mode(s, kap, rng=rng_for(seed))[0] for seed in range(20)]
        assert draws1 == draws2
        assert set(draws1) == {0, 1}


class TestAnnihilate:
    def test_empty_mode_gives_zero(self):
        out = annihilate(standard_state(3, 2), np.array([0.0, 0, 1.0]))
        assert out.amplitude == 0.0
        assert out.electrons == 1

    def test_single_electron_to_vacuum(self):
        out = annihilate(standard_state(3, 1), np.array([1.0, 0, 0]))
        assert out.electrons == 0
        assert abs(out.amplitude) == pytest.approx(1.0)

    def test_vacuum_stays_zero(self):
        out = annihilate(standard_state(3, 0), np.array([1.0, 0, 0]))
        assert out.amplitude == 0.0 and out.electrons == 0

    @pytest.mark.parametrize("d,n", [(4, 2), (5, 3), (6, 1)])
    def test_matches_oracle_operator(self, d, n):
        rng = rng_for(23 + d + n)
        s = random_state(rng, d, n)
        mode = random_mode(rng, d)
        fast = fock.expand(annihilate(s, mode))
        slow = fock.annihilation_op_apply(fock.expand(s), mode)
        assert np.allclose(fast.amplitudes, slow.amplitudes, atol=1e-10)

    def test_mixed_mode_example(self):
        mode = np.array([1.0, 1.0, 0, 0]) / np.sqrt(2)
        out = annihilate(standard_state(4, 2), mode)
        assert out.electrons == 1
        fast = fock.expand(out)
        slow = fock.annihilation_op_apply(fock.expand(standard_state(4, 2)), mode)
        assert np.allclose(fast.amplitudes, slow.amplitudes, atol=1e-10)


class TestSlaterOverlap:
    def test_self_overlap(self):
        rng = rng_for(24)
        s = random_state(rng, 4, 2)
        assert slater_overlap(s, s) == pytest.approx(1.0)

    def test_disjoint_support(self):
        s1 = standard_state(3, 2)
        swap = np.eye(3)[:, [2, 1, 0]]
        s2 = evolve(s1, swap)
        assert slater_overlap(s1, s2) == pytest.approx(0.0, abs=1e-12)

    def test_different_electron_counts(self):
        assert slater_overlap(standard_state(3, 1), standard_state(3, 2)) == 0.0

    def test_matches_oracle_inner_product(self):
        rng = rng_for(25)
        for _ in range(5):
            s1 = random_state(rng, 5, 3)
            s2 = random_state(rng, 5, 3)
            fast = slater_overlap(s1, s2)
            slow = fock.inner(fock.expand(s1), fock.expand(s2))
            assert abs(fast - slow) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            slater_overlap(standard_state(3, 1), standard_state(4, 1))


class TestOccupationAmplitude:
    def test_standard_sets(self):
        s = standard_state(4, 2)
        assert occupation_amplitude(s, [0, 1]) == pytest.approx(1.0)
        assert occupation_amplitude(s, [0, 2]) == pytest.approx(0.0, abs=1e-12)

    def test_completeness(self):
        rng = rng_for(26)
        s = evolve(standard_state(4, 2), random_unitary(rng, 4))
        total = 0.0
        import itertools

        for rows in itertools.combinations(range(4), 2):
            total += abs(occupation_amplitude(s, list(rows))) ** 2
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_bad_index_sets(self):
        s = standard_state(4, 2)
        with pytest.raises(BadIndexSet):
            occupation_amplitude(s, [0])
        with pytest.raises(BadIndexSet):
            occupation_amplitude(s, [1, 0])
        with pytest.raises(BadIndexSet):
            occupation_amplitude(s, [1, 1])
        with pytest.raises(BadIndexSet):
            occupation_amplitude(s, [0, 4])
        with pytest.raises(BadIndexSet):
            occupation_amplitude(s, [0.5, 1])


class TestMeasurementChains:
    def test_norm_preserved_through_chain(self):
        """A few rotations and measurements starting normalized keep
        the summed occupation probability at 1."""
        rng = rng_for(27)
        s = standard_state(5, 2)
        for step in range(3):
            s = evolve(s, random_unitary(rng, 5))
            outcome, prob, s = measure_mode(s, random_mode(rng, 5), rng=rng)
            assert 0 < prob <= 1 + 1e-12
            expansion = fock.expand(s)
            assert fock.norm(expansion) == pytest.approx(1.0, abs=1e-9)
