"""Tests for the circuit executor, sampled_steps, under every policy,
and for simulate_exact_branch (nogo), its run with every measurement on
the exact policy, replayed step by step against the dense oracle."""

import importlib.util
import json
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from conftest import (
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
    ImpossibleOutcome,
    ModesNotOrthogonal,
    NoAdmissibleBranch,
    NotHermitian,
    NotUnitary,
    ParityGroupingUnsupported,
)
from flosim.circuits import load_state_sum, parse_circuit
from flosim.slater import SlaterState, check_modes, standard_state
from flosim.multislater import (
    GROUPINGS,
    ONE_MODE,
    SlaterSum,
    _expectations,
    _probabilities,
    evolve_sum,
    measure_mode_sum,
    measure_two_mode,
    scale_sum,
    sum_norm,
)
from flosim.simulate import (
    MeasureOne,
    MeasureTwo,
    Rotate,
    Transcript,
    TranscriptRow,
    _steer,
    sampled_steps,
    simulate_exact_branch,
    simulate_sampled,
)
from flosim import circuits, fock, multislater, simulate, slater
from flosim.linalg import one_body_unitary

ROOT = Path(__file__).resolve().parents[1]


def standard_mode(d, m):
    v = np.zeros(d, dtype=complex)
    v[m] = 1.0
    return v


def generator_circuit(rng, d, depth, groupings, policy):
    """Random circuit using generator rotations so the oracle can replay."""
    steps = []
    for _ in range(depth):
        draw = rng.random()
        if draw < 0.4:
            steps.append(
                Rotate(
                    generator=random_hermitian(rng, d),
                    tau=float(rng.uniform(0.2, 1.4)),
                )
            )
        elif draw < 0.7:
            steps.append(MeasureOne(random_mode(rng, d), policy=policy))
        else:
            kap, lam = random_orthogonal_pair(rng, d)
            grouping = groupings[int(rng.integers(len(groupings)))]
            steps.append(MeasureTwo(kap, lam, grouping=grouping, policy=policy))
    return steps


def oracle_replay(circuit, d, n, rows):
    """Re-run a transcript on the dense oracle; returns per-row
    probabilities and the final normalized vector."""
    v = fock.expand(standard_state(d, n))
    probs = []
    row_iter = iter(rows)
    for step in circuit:
        if isinstance(step, Rotate):
            v = fock.one_body_apply(v, step.generator, step.tau)
            continue
        row = next(row_iter)
        if isinstance(step, MeasureOne):
            occupied = fock.creation_op_apply(
                fock.annihilation_op_apply(v, step.kappa), step.kappa
            )
            if row.outcome == "1":
                acc = occupied.amplitudes
            else:
                acc = v.amplitudes - occupied.amplitudes
        else:
            acc = np.zeros_like(v.amplitudes)
            for o in (0, 1, 2):
                if str(o) in row.outcome:
                    acc = acc + fock.two_mode_projector_apply(
                        v, step.kappa, step.lam, o
                    ).amplitudes
        p = float(np.linalg.norm(acc) ** 2)
        probs.append(p)
        v = fock.FockVector(d, acc / np.sqrt(p))
    return probs, v


class TestStepValidation:
    def test_rotate_needs_exactly_one_form(self):
        with pytest.raises(ValueError):
            Rotate()
        with pytest.raises(ValueError):
            Rotate(unitary=np.eye(3), generator=np.eye(3), tau=1.0)

    def test_forced_needs_outcome(self):
        kap = standard_mode(3, 0)
        with pytest.raises(ValueError):
            MeasureOne(kap, policy="forced")
        with pytest.raises(ValueError):
            MeasureTwo(kap, standard_mode(3, 1), policy="forced")

    def test_unknown_grouping_or_policy(self):
        kap, lam = standard_mode(3, 0), standard_mode(3, 1)
        with pytest.raises(ValueError):
            MeasureTwo(kap, lam, grouping="0|1|2")
        with pytest.raises(ValueError):
            MeasureOne(kap, policy="guess")


class TestExactBranch:
    def test_both_modes_filled_is_certain(self):
        circuit = [MeasureTwo(standard_mode(4, 0), standard_mode(4, 1))]
        transcript, final = simulate_exact_branch(circuit, 4, 2)
        row = transcript.rows[0]
        assert row.outcome == "2"
        assert row.probability == pytest.approx(1.0, abs=1e-12)
        assert row.terms == 1
        assert np.allclose(final.orbitals, standard_state(4, 2).orbitals)

    def test_one_electron_in_span_is_certain(self):
        circuit = [MeasureTwo(standard_mode(4, 0), standard_mode(4, 2))]
        transcript, final = simulate_exact_branch(circuit, 4, 2)
        row = transcript.rows[0]
        assert row.outcome == "1"
        assert row.probability == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(final.orbitals, standard_state(4, 2).orbitals)

    def test_generic_measurement_steers_to_single_term(self):
        rng = rng_for(90)
        kap, lam = random_orthogonal_pair(rng, 4)
        circuit = [
            Rotate(generator=random_hermitian(rng, 4), tau=0.9),
            MeasureTwo(kap, lam),
        ]
        transcript, final = simulate_exact_branch(circuit, 4, 2)
        row = transcript.rows[0]
        assert row.outcome in ("0", "2")
        assert 1e-12 < row.probability < 1
        assert final.electrons == 2
        gram = final.orbitals.conj().T @ final.orbitals
        assert np.linalg.norm(gram - np.eye(2)) <= 1e-10
        assert abs(abs(final.amplitude) - 1) <= 1e-9

    def test_parity_rejected_up_front(self):
        rng = rng_for(91)
        kap, lam = random_orthogonal_pair(rng, 4)
        circuit = [
            Rotate(generator=random_hermitian(rng, 4), tau=0.5),
            MeasureTwo(kap, lam, grouping="02/1"),
        ]
        with pytest.raises(ParityGroupingUnsupported) as err:
            simulate_exact_branch(circuit, 4, 2)
        assert "parity" in str(err.value)

    def test_single_mode_prefers_empty_branch(self):
        rng = rng_for(92)
        circuit = [
            Rotate(generator=random_hermitian(rng, 4), tau=1.1),
            MeasureOne(random_mode(rng, 4)),
        ]
        transcript, final = simulate_exact_branch(circuit, 4, 2)
        row = transcript.rows[0]
        assert row.outcome == "0"
        assert row.kind == "measure1"

    @pytest.mark.parametrize("seed", [93, 94, 95, 96])
    def test_trajectory_matches_oracle(self, seed):
        rng = rng_for(seed)
        d = int(rng.integers(3, 6))
        n = int(rng.integers(1, d))
        circuit = generator_circuit(
            rng, d, depth=5, groupings=["012", "01/2", "0/12"], policy="sample"
        )
        transcript, final = simulate_exact_branch(circuit, d, n)
        assert all(row.terms == 1 for row in transcript.rows)
        probs, v = oracle_replay(circuit, d, n, transcript.rows)
        for row, p_oracle in zip(transcript.rows, probs):
            assert row.probability == pytest.approx(p_oracle, abs=1e-9)
        assert fock.fidelity(fock.expand(final), v) >= 1 - 1e-9

    def test_cumulative_is_product(self):
        rng = rng_for(97)
        circuit = generator_circuit(
            rng, 5, depth=6, groupings=["012", "01/2", "0/12"], policy="sample"
        )
        transcript, _ = simulate_exact_branch(circuit, 5, 2)
        product = 1.0
        for row in transcript.rows:
            product *= row.probability
            assert row.cumulative == pytest.approx(product, abs=1e-9)
        assert transcript.cumulative_probability == pytest.approx(product, abs=1e-12)

    def test_initial_state_override(self):
        rng = rng_for(98)
        from conftest import random_orthonormal_columns

        init = SlaterState(random_orthonormal_columns(rng, 4, 2))
        transcript, final = simulate_exact_branch([], 4, 2, initial=init)
        assert transcript.rows == ()
        assert np.allclose(final.orbitals, init.orbitals)


class TestSampled:
    def test_rotation_only_has_no_rows(self):
        rng = rng_for(100)
        circuit = [Rotate(unitary=random_unitary(rng, 4)) for _ in range(3)]
        transcript, final = simulate_sampled(circuit, 4, 2, seed=1)
        assert transcript.rows == ()
        assert final.term_count == 1

    def test_determinism_per_seed(self):
        rng = rng_for(101)
        circuit = generator_circuit(
            rng, 4, depth=6, groupings=["012", "01/2", "0/12", "02/1"], policy="sample"
        )
        t1, f1 = simulate_sampled(circuit, 4, 2, seed=7)
        t2, f2 = simulate_sampled(circuit, 4, 2, seed=7)
        assert t1.rows == t2.rows
        assert all(
            np.allclose(a[1].orbitals, b[1].orbitals)
            for a, b in zip(f1.terms, f2.terms)
        )

    def test_forced_parity_chain_doubles(self):
        """Three forced even-parity measurements on generic states grow
        the term count to 8, and the oracle agrees with the result."""
        rng = rng_for(102)
        d, n = 6, 3
        circuit = []
        for _ in range(3):
            circuit.append(
                Rotate(generator=random_hermitian(rng, d), tau=float(rng.uniform(0.4, 1.2)))
            )
            kap, lam = random_orthogonal_pair(rng, d)
            circuit.append(
                MeasureTwo(kap, lam, grouping="02/1", policy="forced", outcome="02")
            )
        transcript, final = simulate_sampled(circuit, d, n, seed=3)
        counts = [row.terms for row in transcript.rows]
        assert counts == [2, 4, 8]
        probs, v = oracle_replay(circuit, d, n, transcript.rows)
        for row, p_oracle in zip(transcript.rows, probs):
            assert row.probability == pytest.approx(p_oracle, abs=1e-9)
        assert fock.fidelity(fock.expand_sum(final), v) >= 1 - 1e-9
        assert sum_norm(final) == pytest.approx(1.0, abs=1e-9)

    def test_forced_single_mode(self):
        rng = rng_for(103)
        circuit = [
            Rotate(generator=random_hermitian(rng, 4), tau=0.8),
            MeasureOne(random_mode(rng, 4), policy="forced", outcome=1),
        ]
        transcript, final = simulate_sampled(circuit, 4, 2, seed=0)
        assert transcript.rows[0].outcome == "1"
        assert final.term_count == 1

    def test_exact_policy_matches_exact_branch(self):
        rng = rng_for(104)
        d, n = 5, 2
        circuit = generator_circuit(
            rng, d, depth=6, groupings=["012", "01/2", "0/12"], policy="exact"
        )
        t_sampled, f_sampled = simulate_sampled(circuit, d, n, seed=11)
        t_exact, f_exact = simulate_exact_branch(circuit, d, n)
        assert [r.outcome for r in t_sampled.rows] == [r.outcome for r in t_exact.rows]
        assert all(row.terms == 1 for row in t_sampled.rows)
        for a, b in zip(t_sampled.rows, t_exact.rows):
            assert a.probability == pytest.approx(b.probability, abs=1e-10)
        fid = fock.fidelity(fock.expand_sum(f_sampled), fock.expand(f_exact))
        assert fid >= 1 - 1e-9

    def test_exact_policy_single_mode_on_sum_matches_forced(self):
        """On a multi-term sum with neither outcome certain, the exact
        policy's measure1 gives bitwise the probability and post state
        of measure_mode_sum forced onto the chosen outcome."""
        rng = rng_for(107)
        d, n = 6, 3
        u = random_unitary(rng, d)
        kap, lam = random_orthogonal_pair(rng, d)
        mode = random_mode(rng, d)
        circuit = [
            Rotate(unitary=u),
            MeasureTwo(kap, lam, grouping="02/1", policy="forced", outcome="02"),
            MeasureOne(mode, policy="exact"),
        ]
        transcript, final = simulate_sampled(circuit, d, n, seed=0)
        state = SlaterSum.from_state(standard_state(d, n))
        _, _, state = measure_two_mode(
            evolve_sum(state, u), kap, lam, "02/1", forced="02"
        )
        assert state.term_count == 2
        _, prob, post = measure_mode_sum(state, mode, forced=0)
        assert 1e-3 < prob < 1 - 1e-3
        row = transcript.rows[-1]
        assert (row.outcome, row.probability, row.terms) == ("0", prob, post.term_count)
        for (c1, s1), (c2, s2) in zip(final.terms, post.terms):
            assert c1 == c2 and s1.amplitude == s2.amplitude
            assert np.array_equal(s1.orbitals, s2.orbitals)

    def test_exact_policy_two_mode_on_sum_matches_forced(self):
        """On a multi-term sum with no certain outcome, the exact policy's
        measure2 gives bitwise the probability and post state of
        measure_two_mode forced onto the steered label."""
        rng = rng_for(108)
        d, n = 6, 3
        u, u2 = random_unitary(rng, d), random_unitary(rng, d)
        kap, lam = random_orthogonal_pair(rng, d)
        kap2, lam2 = random_orthogonal_pair(rng, d)
        circuit = [
            Rotate(unitary=u),
            MeasureTwo(kap, lam, grouping="02/1", policy="forced", outcome="02"),
            Rotate(unitary=u2),
            MeasureTwo(kap2, lam2, grouping="012", policy="exact"),
        ]
        transcript, final = simulate_sampled(circuit, d, n, seed=0)
        _, before = simulate_sampled(circuit[:3], d, n, seed=0)
        assert before.term_count == 2
        row = transcript.rows[-1]
        label, prob, post = measure_two_mode(
            before, kap2, lam2, "012", forced=row.outcome
        )
        assert 1e-3 < prob < 1 - 1e-3
        assert (row.outcome, row.probability, row.terms) == (label, prob, post.term_count)
        for (c1, s1), (c2, s2) in zip(final.terms, post.terms):
            assert c1 == c2 and s1.amplitude == s2.amplitude
            assert np.array_equal(s1.orbitals, s2.orbitals)

    def test_exact_policy_rejects_parity_step(self):
        rng = rng_for(105)
        kap, lam = random_orthogonal_pair(rng, 4)
        circuit = [MeasureTwo(kap, lam, grouping="02/1", policy="exact")]
        with pytest.raises(ParityGroupingUnsupported):
            simulate_sampled(circuit, 4, 2, seed=0)

    def test_exact_parity_is_rejected_before_any_step_with_one_message(self):
        """An exact parity step raises before the start record, ahead of
        an earlier step's impossible outcome, with the message nogo's
        run prints."""
        rng = rng_for(107)
        kap, lam = random_orthogonal_pair(rng, 4)
        empty = np.eye(4, dtype=complex)[:, 3]
        circuit = [MeasureOne(empty, policy="forced", outcome=1),
                   MeasureTwo(kap, lam, grouping="02/1", policy="exact")]
        with pytest.raises(ImpossibleOutcome):
            simulate_sampled(circuit[:1], 4, 2)
        messages = []
        for run in (lambda: next(sampled_steps(circuit, 4, 2)),
                    lambda: simulate_exact_branch(circuit, 4, 2)):
            with pytest.raises(ParityGroupingUnsupported) as err:
                run()
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("step 1: grouping '02/1' merges the even outcomes")

    def test_sampled_probabilities_match_oracle(self):
        rng = rng_for(106)
        d, n = 4, 2
        circuit = generator_circuit(
            rng, d, depth=6, groupings=["012", "01/2", "0/12", "02/1"], policy="sample"
        )
        transcript, final = simulate_sampled(circuit, d, n, seed=21)
        probs, v = oracle_replay(circuit, d, n, transcript.rows)
        for row, p_oracle in zip(transcript.rows, probs):
            assert row.probability == pytest.approx(p_oracle, abs=1e-9)
        assert fock.fidelity(fock.expand_sum(final), v) >= 1 - 1e-9

    def test_bad_step_type(self):
        with pytest.raises(TypeError):
            simulate_sampled(["rotate"], 3, 1, seed=0)
        with pytest.raises(TypeError):
            simulate_exact_branch(["rotate"], 3, 1)


NO_BRANCH = (
    "step {}: no certain outcome and every determinant-preserving branch has "
    "probability below 1e-12; the probabilities are inconsistent"
)


class TestKeptChildOnly:
    """nogo builds and checks only the child its step keeps: per split, the
    rotated span where the sum's Gram bound cannot show it passes, then
    the kept child, and no check after it; a certain step builds nothing,
    and a rotation checks nothing.  check_orthonormal is every split's and
    the constructor's orthonormality check."""

    @staticmethod
    def checked_stacks(monkeypatch):
        checked = []
        real = slater.check_orthonormal

        def counting(orbitals):
            checked.append(orbitals.copy())  # a split writes a kept child into its input
            return real(orbitals)

        monkeypatch.setattr(slater, "check_orthonormal", counting)
        return checked

    @pytest.mark.parametrize(("grouping", "label"), [("012", "0"), ("01/2", "2")])
    def test_measure2_outcome_0_or_2_checks_only_kept_children(
        self, grouping, label, monkeypatch
    ):
        rng = rng_for(151)
        d, n = 6, 3
        state = SlaterState(random_orthonormal_columns(rng, d, n))
        kap, lam = random_orthogonal_pair(rng, d)
        # every leaf, (0, 0), (1, 0), (0, 1) and (1, 1), built before counting
        _, every, _ = slater.split_pair(
            [state.amplitude], np.ascontiguousarray(state.orbitals)[None], lam, kap, (0, 1, 2)
        )
        checked = self.checked_stacks(monkeypatch)
        step = MeasureTwo(kap, lam, grouping, "exact")
        transcript, final = simulate_exact_branch([step], d, n, initial=state)
        assert transcript.rows[0].outcome == label and transcript.rows[0].probability < 0.99
        # the doubly rotated span, then the one kept leaf
        assert [c.shape for c in checked] == [(1, d, n)] * 2
        assert checked[-1][0].tobytes() == final.orbitals.tobytes()
        kept = -1 if label == "2" else 0
        assert len(every) == 4 and checked[1][0].tobytes() == every[kept].tobytes()
        discarded = {leaf.tobytes() for i, leaf in enumerate(every) if i != kept % 4}
        assert all(c[0].tobytes() not in discarded for c in checked)

    def test_measure1_checks_only_the_kept_child(self, monkeypatch):
        rng = rng_for(152)
        d, n = 6, 3
        state = SlaterState(random_orthonormal_columns(rng, d, n))
        kap = random_mode(rng, d)
        one = slater.split_pair([state.amplitude], state.orbitals[None], None, kap, (1,))[1][0]
        checked = self.checked_stacks(monkeypatch)
        transcript, final = simulate_exact_branch([MeasureOne(kap, "exact")], d, n, initial=state)
        assert transcript.rows[0].outcome == "0" and transcript.rows[0].probability < 0.99
        assert [c.shape for c in checked] == [(1, d, n)] * 2
        assert checked[-1][0].tobytes() == final.orbitals.tobytes()
        assert all(c[0].tobytes() != one.tobytes() for c in checked)

    def test_certain_measure1_builds_nothing(self, monkeypatch):
        start = standard_state(6, 3)
        checked = self.checked_stacks(monkeypatch)
        e = np.eye(6, dtype=complex)
        circuit = [MeasureOne(e[:, 0], "exact"), MeasureOne(e[:, 5], "exact")]
        transcript, final = simulate_exact_branch(circuit, 6, 3, initial=start)
        assert [row.outcome for row in transcript.rows] == ["1", "0"]
        assert checked == [] and np.array_equal(final.orbitals, np.eye(6, 3))

    def test_rotations_check_nothing_and_later_splits_check_only_their_leaf(self, monkeypatch):
        """A nogo run's rotations (whole, pair and generator) make no
        check_orthonormal call.  The first split makes two: its rotated
        span, as the start's Gram bound is unknown, then its one kept leaf.
        A later split checks its leaf alone: the leaf check and the
        rotations' unitarity checks bound the span it rotates."""
        rng = rng_for(153)
        d, n = 8, 4
        state = SlaterState(random_orthonormal_columns(rng, d, n))
        kap, lam = random_orthogonal_pair(rng, d)
        events = []
        real_split, real_check = multislater.split_pair, slater.check_orthonormal
        monkeypatch.setattr(
            multislater, "split_pair", lambda *a: events.append("split") or real_split(*a)
        )
        monkeypatch.setattr(
            slater, "check_orthonormal", lambda orb: events.append(orb.shape) or real_check(orb)
        )
        rotations = [
            Rotate(unitary=random_unitary(rng, d)),
            Rotate.on_pair(d, 2, 5, random_unitary(rng, 2)),
            Rotate(generator=random_hermitian(rng, d), tau=0.4),
        ]
        simulate_exact_branch(rotations * 3, d, n, initial=state)
        assert events == []
        circuit = [*rotations, MeasureOne(random_mode(rng, d), "exact"), *rotations,
                   MeasureTwo(kap, lam, "012", "exact"), *rotations]
        transcript, _ = simulate_exact_branch(circuit, d, n, initial=state)
        assert [row.probability < 0.99 for row in transcript.rows] == [True, True]
        assert events == ["split", (1, d, n), (1, d, n), "split", (1, d, n)]


class TestSteeringRule:
    """The exact policy's certainty-or-steer rule, as nogo and simulate run it.

    An initial amplitude of 1e-7 scales every outcome probability of the
    sum path and of two-mode steps to about 1e-14: no outcome is certain
    and no branch clears PROB_FLOOR, so the rule raises."""

    def faint(self, d, n):
        return SlaterState(random_orthonormal_columns(rng_for(110), d, n), 1e-7)

    @pytest.mark.parametrize("grouping", ["012", "01/2", "0/12"])
    def test_measure2_without_admissible_branch(self, grouping):
        d, n = 5, 2
        kap, lam = random_orthogonal_pair(rng_for(111), d)
        circuit = [Rotate(unitary=np.eye(d)), MeasureTwo(kap, lam, grouping, "exact")]
        init = self.faint(d, n)
        with pytest.raises(NoAdmissibleBranch) as nogo:
            simulate_exact_branch(circuit, d, n, initial=init)
        with pytest.raises(NoAdmissibleBranch) as exact:
            simulate_sampled(circuit, d, n, initial=init)
        assert str(nogo.value) == str(exact.value) == NO_BRANCH.format(1)

    @pytest.mark.parametrize("first", ["measure1", "measure2"])
    def test_first_uncertain_measurement_raises_in_both_executors(self, first):
        """nogo takes a single-mode probability from the state itself,
        amplitude included, as the exact policy does, so it raises at the
        first measurement of either kind.  (Its old rule read p = beta^2
        off the orbitals alone and steered this measure1 at p = 0.770.)"""
        d, n = 5, 2
        kap, lam = random_orthogonal_pair(rng_for(111), d)
        one = MeasureOne(random_mode(rng_for(112), d), policy="exact")
        two = MeasureTwo(kap, lam, "012", "exact")
        circuit = [one, two] if first == "measure1" else [two, one]
        init = self.faint(d, n)
        with pytest.raises(NoAdmissibleBranch) as nogo:
            simulate_exact_branch(circuit, d, n, initial=init)
        with pytest.raises(NoAdmissibleBranch) as exact:
            simulate_sampled(circuit, d, n, initial=init)
        assert str(nogo.value) == str(exact.value) == NO_BRANCH.format(0)

    def test_pruned_start_state_raises_one_line(self):
        """A start amplitude at or below PRUNE_TOL leaves no determinant
        for nogo to return."""
        init = SlaterState(np.eye(4, 2), 1e-13)
        with pytest.raises(FlosimError) as err:
            simulate_exact_branch([], 4, 2, initial=init)
        assert type(err.value) is FlosimError and "\n" not in str(err.value)

    @pytest.mark.parametrize(
        "probs,admissible,want",
        [
            ({"0": 1.0, "1": 1.0}, ("0", "1"), ("0", 1.0, True)),
            ({"0": 0.2, "1": 1 - 1e-10}, ("0", "1"), ("1", 1 - 1e-10, True)),
            ({"0": 0.5, "1": 0.5}, ("0", "1"), ("0", 0.5, False)),
            ({"0": 1e-12, "1": 0.3, "2": 0.7}, ("0", "2"), ("2", 0.7, False)),
        ],
    )
    def test_certain_then_first_admissible(self, probs, admissible, want):
        """The most probable label wins when certain, the earliest on a
        tie; else the first admissible label strictly above PROB_FLOOR."""
        assert _steer(0, probs, admissible) == want

    def test_certain_measure2_builds_nothing(self, monkeypatch):
        """A certain two-mode step records its row and leaves the state
        alone without splitting a single term, in nogo and simulate: the
        pair (0, 1) lies in the rotated filled span, (3, 4) outside it,
        and (2, 5) straddles it."""
        d, n = 6, 3
        e = np.eye(d, dtype=complex)
        rng = rng_for(113)
        u = np.eye(d, dtype=complex)
        u[np.ix_([0, 1], [0, 1])] = random_unitary(rng, 2)
        u[np.ix_([3, 4], [3, 4])] = random_unitary(rng, 2)
        steps = [("012", 0, 1, "2"), ("0/12", 3, 4, "0"), ("01/2", 2, 5, "01")]
        circuit = [Rotate(unitary=u)] + [
            MeasureTwo(e[:, i], e[:, j], grouping, "exact") for grouping, i, j, _ in steps
        ]
        rotated = SlaterSum.from_state(SlaterState(u @ np.eye(d, n)))
        rows, cumulative = [], 1.0
        for idx, (grouping, i, j, label) in enumerate(steps, start=1):
            prob = measure_two_mode(rotated, e[:, i], e[:, j], grouping, forced=label)[1]
            assert prob >= 1 - 1e-9
            cumulative *= prob
            rows.append(TranscriptRow(idx, "measure2", label, prob, cumulative, 1))
        calls = []
        for module, name in ((multislater, "split_pair"), (slater, "split_pair")):
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
            )
        nogo, state = simulate_exact_branch(circuit, d, n)
        exact, total = simulate_sampled(circuit, d, n, seed=0)
        assert calls == []
        assert list(nogo.rows) == list(exact.rows) == rows
        assert np.array_equal(state.orbitals, u @ np.eye(d, n))
        (coeff, term), = total.terms
        assert coeff == 1.0 and np.array_equal(term.orbitals, state.orbitals)

    def test_certain_measure1_on_a_sum_builds_nothing(self, monkeypatch):
        """A certain single-mode exact step of simulate_sampled records its
        row without splitting a term: mode 0 of the standard state is
        filled and mode 5 empty."""
        e = np.eye(6, dtype=complex)
        circuit = [MeasureOne(e[:, 0], policy="exact"), MeasureOne(e[:, 5], policy="exact")]
        calls = []
        for module, name in ((multislater, "split_pair"), (slater, "split_pair")):
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
            )
        transcript, final = simulate_sampled(circuit, 6, 3, seed=0)
        assert calls == []
        assert transcript.rows == (
            TranscriptRow(0, "measure1", "1", 1.0, 1.0, 1),
            TranscriptRow(1, "measure1", "0", 1.0, 1.0, 1),
        )
        (coeff, term), = final.terms
        assert coeff == 1.0 and np.array_equal(term.orbitals, np.eye(6, 3))

    def test_near_certain_outcome_steers(self):
        """Outcome 1 at p = 1 - 1e-6 lies outside CERTAINTY_TOL (1e-9) of
        1, so the exact measure1 steers to the first admissible label,
        "0" at p = 1e-6, in both executors, and its post state is the
        dense projection within 1e-10."""
        eps = 1e-6
        kap = np.sqrt(1 - eps) * standard_mode(4, 0) + np.sqrt(eps) * standard_mode(4, 2)
        circuit = [MeasureOne(kap, policy="exact")]
        *_, (_, _, row, post) = sampled_steps(circuit, 4, 2)
        assert row.outcome == "0" and row.probability == pytest.approx(eps, rel=1e-8)
        assert simulate_exact_branch(circuit, 4, 2)[0].rows == (row,)
        start = fock.expand(standard_state(4, 2))
        dense = fock.annihilation_op_apply(fock.creation_op_apply(start, kap), kap).amplitudes
        dense /= np.linalg.norm(dense)
        assert np.abs(fock.expand_sum(post).amplitudes - dense).max() <= 1e-10

    def test_vacuum_measure1_is_certain_in_both_executors(self):
        """The vacuum reports occupation 0 with probability exactly 1,
        though this mode vector's squared norm rounds to 1 - 2**-52."""
        kap = np.full(2, 1 / np.sqrt(2), dtype=complex)
        assert np.linalg.norm(kap) ** 2 != 1.0
        circuit = [MeasureOne(kap, policy="exact")]
        nogo, _ = simulate_exact_branch(circuit, 2, 0)
        exact, _ = simulate_sampled(circuit, 2, 0)
        assert nogo.rows == exact.rows == (TranscriptRow(0, "measure1", "0", 1.0, 1.0, 1),)


def generated_circuits(seed=14, count=60):
    """The circuits of tools/circuitgen.py's seed (the corpus's random
    set) that measure no parity grouping."""
    spec = importlib.util.spec_from_file_location("circuitgen", ROOT / "tools" / "circuitgen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    circuits = [parse_circuit(json.dumps(gen.random_circuit(seed, i))) for i in range(count)]
    return [c for c in circuits
            if not any(getattr(step, "grouping", None) == "02/1" for step in c.steps)]


def run_bits(run, circuit):
    """run's rows and final state, amplitude and orbitals as bytes, or
    the class and message of what it raised."""
    try:
        transcript, final = run(circuit.steps, circuit.modes, circuit.electrons)
    except Exception as exc:  # a failure is a result to compare too
        return type(exc), str(exc)
    if isinstance(final, SlaterSum):
        (coeff,), (amp,), (orbitals,) = final.coeffs, final.amps, final.orbitals
        amplitude = amp * coeff
    else:
        amplitude, orbitals = final.amplitude, final.orbitals
    return transcript.rows, np.complex128(amplitude).tobytes(), orbitals.tobytes()


def test_nogo_is_the_exact_policy_bit_for_bit():
    """simulate_exact_branch gives, bit for bit, the rows and final state
    of simulate_sampled on the same steps with every policy set to
    "exact", and raises the same class and message when a run fails."""
    steered = []
    for circuit in generated_circuits():
        exact = [replace(step, policy="exact") if hasattr(step, "policy") else step
                 for step in circuit.steps]
        nogo = run_bits(simulate_exact_branch, circuit)
        assert nogo == run_bits(simulate_sampled, replace(circuit, steps=exact))
        rows = nogo[0] if isinstance(nogo[0], tuple) else ()
        steered += [row.kind for row in rows if row.probability < 1 - 1e-9]
    assert {"measure1", "measure2"} <= set(steered)


ALL_GROUPINGS = ("012", "01/2", "0/12", "02/1")


def record_bits(record):
    """A sampled_steps record with every array and complex as its bytes."""
    idx, u, row, state = record
    terms = [
        (np.complex128(c).tobytes(), np.complex128(t.amplitude).tobytes(), t.orbitals.tobytes())
        for c, t in state.terms
    ]
    return idx, None if u is None else u.tobytes(), row, terms


def policy_circuit(rng, d):
    """Random rotations and measurements of both kinds on d modes, with
    every grouping and a policy of sample, exact or forced per step.  The
    steps to force come back as sampled ones with their indices."""
    steps, to_force = [], []
    for idx in range(int(rng.integers(4, 9))):
        if rng.random() < 0.35:
            tau = float(rng.uniform(0.2, 1.4))
            steps.append(Rotate(generator=random_hermitian(rng, d), tau=tau))
            continue
        policy = ("sample", "forced", "exact")[int(rng.integers(3))]
        if rng.random() < 0.35:
            step = MeasureOne(random_mode(rng, d))
        else:
            kap, lam = random_orthogonal_pair(rng, d)
            step = MeasureTwo(kap, lam, ALL_GROUPINGS[int(rng.integers(4))])
            if step.grouping == "02/1" and policy == "exact":
                policy = "sample"
        if policy == "forced":
            to_force.append(idx)
        steps.append(replace(step, policy="exact") if policy == "exact" else step)
    return steps, to_force


def forced_to(steps, indices, rows):
    """steps with each step at indices forced to its row's outcome."""
    labels = {row.step: row.outcome for row in rows}
    out = list(steps)
    for idx in indices:
        label = labels[idx]
        out[idx] = replace(
            out[idx], policy="forced",
            outcome=int(label) if isinstance(out[idx], MeasureOne) else label,
        )
    return out


class TestSampledSteps:
    def test_records_are_the_run(self):
        """sampled_steps yields the start, then per step its index, a
        rotation's resolved unitary or a measurement's row, and the state
        after it; simulate_sampled returns those rows and the last state."""
        circuit = generator_circuit(rng_for(120), 4, 8, ALL_GROUPINGS, "sample")
        records = list(sampled_steps(circuit, 4, 2, seed=3))
        assert [r[0] for r in records] == [None, *range(len(circuit))]
        assert record_bits(records[0]) == record_bits(
            (None, None, None, SlaterSum.from_state(standard_state(4, 2)))
        )
        for (idx, u, row, _), step in zip(records[1:], circuit):
            if isinstance(step, Rotate):
                assert row is None and np.array_equal(u, step.resolve())
            else:
                assert u is None and row.step == idx and row.kind == step.kind
        transcript, final = simulate_sampled(circuit, 4, 2, seed=3)
        assert transcript.rows == tuple(r[2] for r in records if r[2] is not None)
        assert record_bits((0, None, None, final))[3] == record_bits(records[-1])[3]

    def test_forced_rerun_is_bitwise_equal(self):
        """Forcing every sampled measurement to the label it drew re-runs
        the same trajectory bit for bit: each step's row (label, p,
        cumulative, terms), unitary, coefficients, amplitudes and
        orbitals.  Random circuits on D <= 6 mix sampled, forced and exact
        steps over all four groupings."""
        rng = rng_for(121)
        seen = set()
        for k in range(30):
            d = int(rng.integers(3, 7))
            n = int(rng.integers(1, d))
            steps, to_force = policy_circuit(rng, d)
            drawn = simulate_sampled(steps, d, n, seed=k)[0].rows
            steps = forced_to(steps, to_force, drawn)
            run = list(sampled_steps(steps, d, n, seed=k))
            sampled = [i for i, s in enumerate(steps) if getattr(s, "policy", "") == "sample"]
            rows = [r[2] for r in run if r[2] is not None]
            rerun = sampled_steps(forced_to(steps, sampled, rows), d, n, seed=k + 1)
            assert [record_bits(r) for r in run] == [record_bits(r) for r in rerun]
            seen |= {(getattr(s, "grouping", "1"), s.policy) for s in steps if hasattr(s, "policy")}
        assert {g for g, _ in seen} == {"1", *ALL_GROUPINGS}
        assert {p for _, p in seen} == {"sample", "forced", "exact"}

    @pytest.mark.parametrize(
        "kind,calls", [("measure2", 2), ("measure1", 1), ("exact", 2), ("nogo", 2)]
    )
    def test_measured_modes_are_checked_by_the_measure_call(self, kind, calls, monkeypatch):
        """A step checks each measured mode once, at the measure call: a
        forced measure_two_mode / measure_mode_sum checks kappa (and
        lambda), and so does an exact measure2 (simulate's "exact" policy
        and nogo); the split kernel checks no mode vector.  The
        executors' own checks made these 6, 4, 8 and 7, and the per-term
        split lanes' 4, 3, 6 and 6."""
        e = np.eye(4, dtype=complex)
        kap, lam = (e[:, 0] + e[:, 2]) / np.sqrt(2), (e[:, 1] - e[:, 3]) / np.sqrt(2)
        if kind == "measure2":
            step = MeasureTwo(kap, lam, "012", policy="forced", outcome="1")
        elif kind == "measure1":
            step = MeasureOne(kap, policy="forced", outcome=1)
        else:
            step = MeasureTwo(kap, lam, "012", policy="exact")
        real = slater.check_mode
        counter = mock.Mock(wraps=real)
        for module in (slater, multislater, simulate, fock):
            if getattr(module, "check_mode", None) is real:
                monkeypatch.setattr(module, "check_mode", counter)
        run = simulate_exact_branch if kind == "nogo" else simulate_sampled
        run([step], 4, 2, initial=standard_state(4, 2))
        assert counter.call_count == calls

    @pytest.mark.parametrize("run", ["simulate_sampled", "simulate_exact_branch"])
    def test_exact_parity_rejection_comes_before_the_mode_checks(self, run):
        """An exact measure2 on a circuit's modes raises what it always
        has: parity wins over equal modes, which any other grouping
        rejects as not orthogonal."""
        e = np.eye(4, dtype=complex)
        execute = getattr(simulate, run)
        for grouping, error in (("02/1", ParityGroupingUnsupported), ("012", ModesNotOrthogonal)):
            step = MeasureTwo(e[:, 1], e[:, 1], grouping, policy="exact")
            with pytest.raises(error):
                execute([step], 4, 2)


class TestGeneratorBatch:
    """parse_circuit loads every generator rotation as its unitary, from
    one stacked call, bit for bit each step's own one_body_unitary; an
    API-built generator resolves at its step, and one that fails a check
    raises there."""

    def test_one_stacked_call_gives_each_steps_unitary(self, monkeypatch):
        rng = rng_for(122)
        generators = [(random_hermitian(rng, 5), float(rng.uniform(0.2, 1.4))) for _ in range(6)]
        steps = [{"kind": "rotate", "generator": [[[z.real, z.imag] for z in row] for row in b],
                  "tau": tau} for b, tau in generators]
        measurements = [{"kind": "measure1", "mode": 3},
                        {"kind": "measure2", "first": 0, "second": 4, "grouping": "02/1"},
                        {"kind": "measure2", "first": 1, "second": 2, "grouping": "01/2"}]
        steps[2:2] = measurements[:2]
        steps.append(measurements[2])
        want = [one_body_unitary(b, tau).tobytes() for b, tau in generators]
        stacks = []
        real = circuits.one_body_unitaries
        monkeypatch.setattr(circuits, "one_body_unitaries",
                            lambda bs, taus: stacks.append(len(bs)) or real(bs, taus))
        loaded = parse_circuit(json.dumps({"modes": 5, "electrons": 2, "steps": steps})).steps
        assert stacks == [len(generators)]
        rotations = [step for step in loaded if isinstance(step, Rotate)]
        assert [step.generator for step in rotations] == [None] * len(generators)
        assert [step.resolve().tobytes() for step in rotations] == want
        monkeypatch.setattr(simulate, "one_body_unitary", None)  # no step resolves its own
        records = list(sampled_steps(loaded, 5, 2, seed=4))
        assert [u.tobytes() for _, u, row, _ in records[1:] if row is None] == want
        parse_circuit(json.dumps({"modes": 5, "electrons": 2, "steps": measurements}))
        assert stacks == [len(generators)]

    def test_an_earlier_impossible_outcome_wins(self):
        """Mode 3 of the standard state is empty: the forced outcome 1 at
        step 0 fails before the non-Hermitian generator of step 1."""
        b = np.zeros((4, 4), dtype=complex)
        b[0, 1] = 1.0
        circuit = [MeasureOne(standard_mode(4, 3), policy="forced", outcome=1),
                   Rotate(generator=b, tau=0.3)]
        with pytest.raises(ImpossibleOutcome):
            list(sampled_steps(circuit, 4, 2))
        with pytest.raises(NotHermitian, match="^deviation from Hermiticity 1.414e"):
            list(sampled_steps(circuit[1:], 4, 2))

    def test_a_nan_unitary_fails_at_its_step(self):
        """[good, NaN-tau, good] generators: the run yields its start and
        step 0, then step 1's evolve_sum rejects the NaN unitary."""
        rng = rng_for(123)
        circuit = [Rotate(generator=random_hermitian(rng, 4), tau=tau)
                   for tau in (0.5, float("nan"), 0.8)]
        seen = []
        with pytest.raises(NotUnitary, match="^deviation from unitarity nan$"):
            for idx, *_ in sampled_steps(circuit, 4, 2):
                seen.append(idx)
        assert seen == [None, 0]

    @pytest.mark.parametrize(
        "generator,error",
        [(np.eye(3), DimensionMismatch), (np.diag([np.inf, 0, 0, 0]), ValueError),
         ([[1.0, 0.0], [0.0]], ValueError)],
        ids=["wrong-size", "non-finite", "ragged"],
    )
    def test_a_generator_left_out_fails_at_its_step(self, generator, error):
        """A 3 x 3 generator on 4 modes, one with an infinite entry, or one
        numpy cannot read is left out of the batch and fails at its own
        step, after the step before it."""
        circuit = [Rotate(generator=random_hermitian(rng_for(124), 4), tau=0.7),
                   Rotate(generator=generator, tau=0.4)]
        seen = []
        with pytest.raises(error):
            for idx, *_ in sampled_steps(circuit, 4, 2):
                seen.append(idx)
        assert seen == [None, 0]

    def test_an_int_tau_resolves_at_its_step(self):
        step = Rotate(generator=random_hermitian(rng_for(125), 4), tau=1)
        (_, (_, u, _, _)) = sampled_steps([step], 4, 2)
        assert u.tobytes() == step.resolve().tobytes()


def pass_probabilities(s, vecs, groups):
    """_probabilities with the norm squared n taken from the same pass as
    p0 and the parity, not carried: the x = 0 slice over every pair."""
    n, par, p0 = _expectations(s, np.column_stack(vecs), (0, 2, 1))
    if groups in (ONE_MODE, GROUPINGS["0/12"]):
        probs = [p0, n - p0]
    elif groups == GROUPINGS["02/1"]:
        probs = [(n + par) / 2, (n - par) / 2]
    else:
        p2 = (n + par) / 2 - p0
        table = {(0,): p0, (1,): (n - par) / 2, (2,): p2, (0, 1): n - p2}
        probs = [table[g] for g in groups]
    return [max(p, 0.0) for p in probs]


def parity_chain(rng, d, rounds):
    """rounds times a random D x D rotation, then a sampled parity
    measurement of two random orthonormal modes: T doubles per round."""
    steps = []
    for _ in range(rounds):
        steps.append(Rotate(unitary=random_unitary(rng, d)))
        steps.append(MeasureTwo(*random_orthogonal_pair(rng, d), "02/1"))
    return steps


class TestCarriedNorm:
    """A sum carries its norm squared and a bound on its error: from_state
    sets |a|^2, rotations keep it, scaling multiplies it by |f|^2 and a
    measured or steered post carries 1.  Every step of a run stays within
    1e-13 of one sum_norm of its sum, and each measurement's probabilities
    within 1e-13 + 1e-12 p of those whose n the pass itself takes.
    Pruning and unbuilt leaves widen the bound by what they may take."""

    @staticmethod
    def assert_run_carries_its_norm(steps, d, n, seed):
        records = list(sampled_steps(steps, d, n, seed=seed))
        for (_, _, _, before), (idx, _, row, after) in zip(records, records[1:]):
            assert abs(after.norm_sq - sum_norm(after) ** 2) <= 1e-13, (idx, after.norm_sq)
            step = steps[idx]
            if row is None:
                continue
            if isinstance(step, MeasureTwo):
                vecs, groups = check_modes(d, step.kappa, step.lam)[::-1], GROUPINGS[step.grouping]
            else:
                vecs, groups = check_modes(d, step.kappa), ONE_MODE
            got = _probabilities(before, vecs, groups)[0]
            for p, want in zip(got, pass_probabilities(before, vecs, groups)):
                assert abs(p - want) <= 1e-13 + 1e-12 * want, (idx, p, want)
        return records[-1][3]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_parity_chains(self, seed):
        rng = rng_for(2600 + seed)
        final = self.assert_run_carries_its_norm(parity_chain(rng, 12, 6), 12, 6, seed)
        assert final.term_count == 64

    def test_mixed_grouping_circuits(self):
        """tools/circuitgen.py's circuits of seed 14 in their sample-policy
        form, and circuits of every grouping under the sample, forced and
        exact policies (policy_circuit), whose exact steps steer."""
        spec = importlib.util.spec_from_file_location("circuitgen", ROOT / "tools" / "circuitgen.py")
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        for i in range(60):
            circuit = parse_circuit(json.dumps(gen.random_circuit(14, i, sample=True)))
            self.assert_run_carries_its_norm(circuit.steps, circuit.modes, circuit.electrons, i)
        rng = rng_for(2611)
        for k in range(20):
            d = int(rng.integers(3, 7))
            n = int(rng.integers(1, d))
            steps, to_force = policy_circuit(rng, d)
            drawn = simulate_sampled(steps, d, n, seed=k)[0].rows
            self.assert_run_carries_its_norm(forced_to(steps, to_force, drawn), d, n, k)

    def test_boundary_constructions(self, tmp_path):
        rng = rng_for(2612)
        d, n = 6, 3
        a = 0.8 * np.exp(0.3j)
        one = SlaterSum.from_state(SlaterState(random_orthonormal_columns(rng, d, n), a))
        assert one.norm_sq == abs(a) ** 2
        terms = [(complex(*rng.standard_normal(2)), SlaterState(random_orthonormal_columns(rng, d, n)))
                 for _ in range(4)]
        s = SlaterSum(terms, d, n)
        f = 0.3 - 1.1j
        for got in (one, s, scale_sum(s, f)):
            assert abs(got.norm_sq - sum_norm(got) ** 2) <= 1e-13 * max(1.0, got.norm_sq)
        assert scale_sum(s, f).norm_sq == s.norm_sq * abs(f) ** 2
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"modes": d, "electrons": n, "terms": [
            {"coefficient": [c.real, c.imag],
             "orbitals": [[[z.real, z.imag] for z in row] for row in st_.orbitals]}
            for c, st_ in terms]}))
        loaded = load_state_sum(path)
        assert abs(loaded.norm_sq - 1.0) <= 1e-15 and abs(sum_norm(loaded) ** 2 - 1.0) <= 1e-13

    def test_pruning_widens_the_bound_by_what_it_drops(self):
        """A term scaled to at most PRUNE_TOL goes; norm_sq stays |f|^2 n,
        and the bound grows by 2 w |psi| + w^2 for the dropped weight w,
        which covers the norm the pruned sum has."""
        rng = rng_for(2613)
        d, n = 6, 3
        terms = [(1.0, SlaterState(random_orthonormal_columns(rng, d, n))),
                 (2.0e-12, SlaterState(random_orthonormal_columns(rng, d, n)))]
        s = SlaterSum(terms, d, n)
        pruned = scale_sum(s, 0.4)
        assert pruned.term_count == 1 and pruned.norm_sq == s.norm_sq * abs(0.4) ** 2
        assert 6.3e-13 < pruned.norm_err - s.norm_err * abs(0.4) ** 2 < 6.5e-13  # 2 (0.8e-12) 0.4
        assert abs(pruned.norm_sq - sum_norm(pruned) ** 2) <= pruned.norm_err

    def test_unbuilt_leaves_widen_the_post_bound(self):
        """Term a's span holds mode 0 at 9e-13, below ABSENT_TOL, so its
        outcome-1 leaf is not built, though it overlaps term b's: the
        post of p = 0.04 misses 2 (9e-13) (0.2) / p of its norm squared,
        which its bound must take in."""
        d, n, eps, sin = 6, 3, 9e-13, 0.2
        e = np.eye(d, dtype=complex)
        a = np.column_stack([e[:, 1] + eps * e[:, 0], e[:, 2], e[:, 3]])
        a[:, 0] /= np.linalg.norm(a[:, 0])
        b = np.column_stack([np.sqrt(1 - sin**2) * e[:, 1] + sin * e[:, 0], e[:, 2], e[:, 3]])
        s = SlaterSum([(1.0, SlaterState(a)), (1.0, SlaterState(b))], d, n)
        post = measure_mode_sum(s, e[:, 0], forced=1)[2]
        assert post.term_count == 1
        missed = abs(post.norm_sq - sum_norm(post) ** 2)
        assert 5e-12 < missed <= post.norm_err


def dense_probability(s, vecs, group):
    """The group's weight in the dense vector of s, from the oracle's own
    annihilator (one mode) or two-mode projector."""
    v = fock.expand_sum(s)
    if len(vecs) == 1:
        return fock.norm(fock.annihilation_op_apply(v, vecs[0])) ** 2
    lam, kap = vecs
    return sum(fock.norm(fock.two_mode_projector_apply(v, kap, lam, o)) ** 2 for o in group)


class TestForcedLowProbabilityChains:
    """A chain of rotations and measurements forced into outcomes of
    probability 0.03 to 0.3 divides any error in the carried norm by p at
    every step.  The bounds must follow: each step's probability stays
    within its bound of the dense oracle's, the post's norm_sq within
    norm_err of the dense norm, and the bounds stay small because a pass
    measures n again once the carried bound passes NORM_TOL n."""

    @staticmethod
    def run_chain(rng, s, steps, pick):
        """Apply random rotations until pick(t) names the modes, groups and
        group index of a low-probability outcome, then force it; steps times."""
        taken = 0
        while taken < steps:
            t = evolve_sum(s, random_unitary(rng, s.modes))
            chosen = pick(t)
            if chosen is None:
                continue
            vecs, groups, i = chosen
            probs, errs = _probabilities(t, vecs, groups)
            mass = multislater._mass(t)
            assert abs(probs[i] - dense_probability(t, vecs, groups[i])) <= errs[i]
            assert errs[i] <= 2e-13 * max(1.0, mass), (taken, errs[i], mass)
            label = multislater.group_label(groups[i])
            if len(vecs) == 1:
                _, p, s = measure_mode_sum(t, vecs[0], forced=int(label))
            else:
                _, p, s = measure_two_mode(t, vecs[1], vecs[0], {
                    g: k for k, g in GROUPINGS.items()}[groups], forced=label)
            assert p == probs[i]
            dense = fock.norm(fock.expand_sum(s)) ** 2
            assert abs(s.norm_sq - dense) <= s.norm_err, (taken, s.norm_sq, dense, s.norm_err)
            taken += 1
        return s

    def test_single_mode_outcome_one(self):
        rng = rng_for(2614)
        d, n = 6, 3
        s = SlaterSum.from_state(SlaterState(random_orthonormal_columns(rng, d, n)))
        for _ in range(2):
            s = measure_two_mode(s, *random_orthogonal_pair(rng, d), "02/1", rng=rng)[2]
        assert s.term_count == 4

        def pick(t):
            kap = random_mode(rng, d)
            p1 = _probabilities(t, (kap,), ONE_MODE)[0][1]
            return ((kap,), ONE_MODE, 1) if 0.05 <= p1 <= 0.3 else None

        assert self.run_chain(rng, s, 25, pick).term_count == 4

    def test_parity_less_likely_outcome(self):
        rng = rng_for(2615)
        d, n = 6, 3
        s = SlaterSum.from_state(SlaterState(random_orthonormal_columns(rng, d, n)))

        def pick(t):
            kap, lam = random_orthogonal_pair(rng, d)
            groups = GROUPINGS["02/1"]
            probs = _probabilities(t, (lam, kap), groups)[0]
            i = int(np.argmin(probs))
            return ((lam, kap), groups, i) if 0.03 <= probs[i] <= 0.3 else None

        assert self.run_chain(rng, s, 8, pick).term_count == 256

    def test_mixed_groupings(self):
        rng = rng_for(2616)
        d, n = 6, 3
        s = SlaterSum.from_state(SlaterState(random_orthonormal_columns(rng, d, n)))
        s = measure_two_mode(s, *random_orthogonal_pair(rng, d), "02/1", rng=rng)[2]
        order = iter(["012", "0/12", "01/2", "02/1", "012", "0/12", "01/2"] * 2)
        grouping = next(order)

        def pick(t):
            nonlocal grouping
            kap, lam = random_orthogonal_pair(rng, d)
            groups = GROUPINGS[grouping]
            probs = _probabilities(t, (lam, kap), groups)[0]
            i = int(np.argmin(probs))
            if not 0.03 <= probs[i] <= 0.3:
                return None
            grouping = next(order)
            return (lam, kap), groups, i

        self.run_chain(rng, s, 12, pick)
