"""The dense oracle against the closed forms on the Slater side.

The split kernel rotates each filled span by Householder reflectors
whose determinants they know in closed form, the two-mode split reads
its four leaves off the doubly rotated span, and the probability pass
takes each term's own pair as a k x k determinant by Sylvester's
identity.  None rounds like the route it replaced, so each is held
here to the Fock-space operators it stands for, on random stacks of at
most 6 modes: the single-mode split's children to the dense single-mode
projectors, every two-mode leaf to the dense product of its two
occupation projectors and every group to fock.two_mode_projector_apply,
and the expectations to <psi|G(1 - x M M^H)|psi> with the product of
(1 - x n_a) over the measured modes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_complex, random_orthonormal_columns, random_unitary

from flosim import fock
from flosim.circuits import pair_rotation
from flosim.multislater import GROUPINGS, SlaterSum, _expectations, _group_sum, evolve_sum
from flosim.simulate import MeasureOne, MeasureTwo, Rotate, simulate_exact_branch
from flosim.slater import (
    ABSENT_TOL,
    SlaterState,
    decompose_mode,
    rotate_in_first,
    split_pair,
)

ORACLE_TOL = 1e-12
REORTH_TOL = 1e-4  # below this beta, one projection alone loses orthogonality to the span
NEAR_EPS = 1e-9  # a residual beta inside the re-orthogonalization band
# How each state's span sits against the measured mode u[:, 0]: at
# random, holding it (beta = 0), orthogonal to it (alpha = 0), NEAR_EPS
# from it, or spanned by standard sites with the mode's component on the
# first orbital exactly 0 (so the reflector's c0 = 0).
KINDS = ("generic", "in_span", "orthogonal", "near_span", "c0_zero")


def _orbitals(rng, kind, u, n):
    """A D x N orthonormal span of the given kind against u[:, 0]; a kind
    the shape cannot host falls back to a random span."""
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
    zero = np.flatnonzero(vec == 0.0)
    if kind == "c0_zero" and n >= 2 and zero.size:
        # Standard sites, the first one where the mode vanishes.
        others = rng.permutation(np.setdiff1d(np.arange(d), zero[:1]))
        sites = [zero[0], *others[: n - 1]]
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        return np.eye(d, dtype=complex)[:, sites] * phases
    return random_orthonormal_columns(rng, d, n)


@st.composite
def stacks(draw, max_terms):
    """(D, N, amps, orbitals, u): 1 to max_terms states of N electrons on
    D <= 6 modes, N = 1 and N = D drawn often, each placed by a kind of
    KINDS, and u a unitary whose first column is the measured mode."""
    d = draw(st.integers(1, 6))
    n = draw(st.sampled_from([1, d, *range(d + 1)]))
    t = draw(st.integers(1, max_terms))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=t, max_size=t))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = random_unitary(rng, d)
    if "c0_zero" in kinds and n >= 2:
        # A measured mode on every site but one, which a c0_zero span
        # takes as its first orbital's site.
        vec = random_complex(rng, d)
        vec[rng.integers(d)] = 0.0
        u = np.linalg.qr(np.column_stack([vec, random_complex(rng, d, d - 1)]))[0]
    amps = [complex(rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            for _ in range(t)]
    orbitals = np.array([_orbitals(rng, kind, u, n) for kind in kinds]).reshape(t, d, n)
    return d, n, amps, orbitals, u


def _dense(amp, orbitals):
    return fock.expand(SlaterState._checked(orbitals, amp)).amplitudes


def _number(vec, v):
    """n_vec v = a_vec^dag a_vec v on a FockVector."""
    return fock.creation_op_apply(fock.annihilation_op_apply(v, vec), vec)


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(case=stacks(max_terms=3))
def test_split_children_are_the_dense_projections(case):
    """Each state's children from split_pair on vec alone are its dense
    projections n_vec psi (outcome 1) and psi - n_vec psi (outcome 0); a
    child that is not built has a vanishing projection.  rotate_in_first,
    which shares the reflector, leaves the dense vector as it was."""
    d, n, amps, orbitals, u = case
    vec = u[:, 0]
    leaves, stack, _ = split_pair(amps, orbitals, None, vec, (0, 1))
    built = iter(stack)
    children = [[None, None] for _ in amps]
    for outcome, out in enumerate(leaves):
        for term, scale, amp, _ in out:
            children[term][outcome] = (scale, amp, next(built))
    for amp, orb, pair in zip(amps, orbitals, children):
        psi = fock.FockVector(d, _dense(amp, orb))
        one = _number(vec, psi).amplitudes
        dense = (psi.amplitudes - one, one)
        for child, want in zip(pair, dense):
            got = 0.0 if child is None else child[0] * _dense(child[1], child[2])
            assert np.max(np.abs(got - want)) <= ORACLE_TOL
        dec = decompose_mode(SlaterState._checked(orb, amp), vec)
        if pair[0] is not None and ABSENT_TOL < pair[0][0] < REORTH_TOL:
            # the band was reached, and projected again as decompose_mode projects
            assert abs(dec.beta - pair[0][0]) <= 1e-15
        if dec.in_orbital is not None:
            rot = rotate_in_first(SlaterState._checked(orb, amp), dec.in_orbital)
            assert np.max(np.abs(rot.orbitals[:, 0] - dec.in_orbital)) <= ORACLE_TOL
            moved = _dense(rot.amplitude, rot.orbitals) - psi.amplitudes
            assert np.max(np.abs(moved)) <= ORACLE_TOL


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(case=stacks(max_terms=4), k=st.sampled_from([2, 1]), data=st.data())
def test_expectations_are_the_dense_ones(case, k, data):
    """_expectations over x = 0, 1, 2 of a sum of the drawn terms equals
    <psi|prod_a (1 - x n_a)|psi> over its k <= 2 measured modes, the
    first of them the mode the terms are placed against."""
    d, n, amps, orbitals, u = case
    k = min(k, d)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    coeffs = [complex(c) for c in rng.uniform(0.3, 1.0, len(amps))
              * np.exp(1j * rng.uniform(0, 2 * np.pi, len(amps)))]
    terms = [(c, SlaterState._checked(orb, a)) for c, a, orb in zip(coeffs, amps, orbitals)]
    s = SlaterSum(terms, d, n)
    _assert_dense_expectations(s, u[:, :k])


def _assert_dense_expectations(s, m):
    """_expectations of s over x = 0, 1, 2 is <psi|prod_a (1 - x n_a)|psi>
    over the columns a of m, within ORACLE_TOL, and the slices a
    measurement takes without the norm's, (1,), (2,) and (2, 1), are
    those of the joint pass within 1e-15 of the norm squared."""
    psi = fock.expand_sum(s)
    got = _expectations(s, m, (0, 1, 2))
    for xs in ((1,), (2,), (2, 1)):
        alone = _expectations(s, m, xs)
        assert max(abs(a - got[x]) for a, x in zip(alone, xs)) <= 1e-15 * max(1.0, got[0])
    for x, value in zip((0, 1, 2), got):
        image = psi
        for a in range(m.shape[1]):
            image = fock.FockVector(s.modes, image.amplitudes
                                    - x * _number(m[:, a], image).amplitudes)
        assert abs(value - fock.inner(psi, image).real) <= ORACLE_TOL


# Where a span sits against the measured pair lam = u[:, 0], kap =
# u[:, 1]: at random, holding one of them or both, orthogonal to one
# or both, or NEAR_EPS from holding lam or kap, so that leaves with
# lam or kap empty get scales near NEAR_EPS.  A kind the shape cannot
# host falls back to a random span.
PAIR_KINDS = ("generic", "both_in", "lam_in", "kap_in", "lam_out", "kap_out", "both_out",
              "near_lam", "near_kap", "near_lam", "near_kap")


def _pair_orbitals(rng, kind, u, n):
    d = u.shape[0]
    lam, kap, comp = u[:, 0], u[:, 1], u[:, 2:]
    inside = {"both_in": [lam, kap], "lam_in": [lam], "kap_in": [kap]}.get(kind)
    if inside is not None and len(inside) <= n <= d - 2 + len(inside):
        rest = comp @ random_orthonormal_columns(rng, d - 2, n - len(inside))
        return np.column_stack([*inside, rest]) @ random_unitary(rng, n)
    outside = {"lam_out": u[:, 1:], "kap_out": u[:, [0, *range(2, d)]], "both_out": comp}.get(kind)
    if outside is not None and n <= outside.shape[1]:
        return outside @ random_orthonormal_columns(rng, outside.shape[1], n)
    if kind in ("near_lam", "near_kap") and 0 < n < d:
        vec, others = (lam, u[:, 1:]) if kind == "near_lam" else (kap, u[:, [0, *range(2, d)]])
        rest = others @ random_unitary(rng, d - 1)
        first = np.sqrt(1 - NEAR_EPS**2) * vec - NEAR_EPS * rest[:, 0]
        return np.column_stack([first, rest[:, 1:n]]) @ random_unitary(rng, n)
    return random_orthonormal_columns(rng, d, n)


@st.composite
def pair_stacks(draw):
    """(D, N, amps, orbitals, u): 1 to 3 states of N electrons on 2 <= D
    <= 6 modes, N = 0, 1, 2, D - 1 and D drawn often, each placed by a
    kind of PAIR_KINDS against the measured pair u[:, 0], u[:, 1]."""
    d = draw(st.integers(2, 6))
    n = draw(st.sampled_from([0, 1, 2, d - 1, d, *range(1, d)]))
    t = draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from(PAIR_KINDS), min_size=t, max_size=t))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = random_unitary(rng, d)
    amps = [complex(rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            for _ in range(t)]
    orbitals = np.array([_pair_orbitals(rng, kind, u, n) for kind in kinds]).reshape(t, d, n)
    return d, n, amps, orbitals, u


# The unique groups of all groupings.
GROUPS = sorted({group for groups in GROUPINGS.values() for group in groups})


@settings(derandomize=True, database=None, deadline=None, max_examples=70)
@given(case=pair_stacks())
def test_two_mode_leaves_are_the_dense_projections(case):
    """Each state's split_pair leaves are its dense projections, one per
    (lambda, kappa) occupation pattern, the product of n or 1 - n of each
    mode; a leaf that is not built has a vanishing projection.  A leaf's
    pattern, which split_pair lists with it, is the one read off its
    span, which holds each measured mode or is orthogonal to it, and the
    leaves come in split_pair's order: by outcome, then pattern by
    pattern, then by term.  Each group of every grouping,
    built alone from the stack, is fock.two_mode_projector_apply of the
    sum of the states."""
    d, n, amps, orbitals, u = case
    lam, kap = u[:, 0], u[:, 1]
    leaves, stack, _ = split_pair(amps, orbitals, lam, kap, (0, 1, 2))
    built = iter(stack)
    found = {}
    for outcome, out in enumerate(leaves):
        for term, scale, amp, pattern in out:
            orb = next(built)
            spanned = tuple(round(np.linalg.norm(orb.conj().T @ vec) ** 2) for vec in (lam, kap))
            assert spanned == pattern
            assert sum(pattern) == outcome and (term, pattern) not in found
            found[term, pattern] = scale * _dense(amp, orb)
    assert next(built, None) is None
    # by outcome, then by pattern, (1, 0) before (0, 1), then by term
    assert list(found) == sorted(found, key=lambda k: (sum(k[1]), k[1] == (0, 1), k[0]))
    for term, (amp, orb) in enumerate(zip(amps, orbitals)):
        psi = fock.FockVector(d, _dense(amp, orb))
        for pattern in ((0, 0), (1, 0), (0, 1), (1, 1)):
            image = psi
            for vec, occupied in zip((lam, kap), pattern):
                number = _number(vec, image).amplitudes
                image = fock.FockVector(d, number if occupied else image.amplitudes - number)
            got = found.get((term, pattern), 0.0)
            assert np.max(np.abs(got - image.amplitudes)) <= ORACLE_TOL
    coeffs = [1.0 + 0.0j] * len(amps)
    s = SlaterSum([(c, SlaterState._checked(orb, a)) for c, a, orb in zip(coeffs, amps, orbitals)],
                  d, n)
    psi = fock.expand_sum(s)
    dense = [fock.two_mode_projector_apply(psi, kap, lam, o).amplitudes for o in (0, 1, 2)]
    for group in GROUPS:
        got = fock.expand_sum(_group_sum(s, (lam, kap), group)).amplitudes
        assert np.max(np.abs(got - sum(dense[o] for o in group))) <= ORACLE_TOL


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(case=pair_stacks(), group=st.sampled_from(GROUPS), k=st.sampled_from([2, 1]),
       one_mode=st.sampled_from([None, 0, 1]), data=st.data())
def test_expectations_of_split_made_sums_are_the_dense_ones(case, group, k, one_mode, data):
    """A group of a two-mode split, then rotated, and then, if one_mode
    is set, that outcome of a single-mode split of a new mode:
    _expectations over new measured modes equals the dense
    <psi|G(1 - x M M^H)|psi> at x = 0, 1, 2.  The two-mode group lists
    its leaves pattern by pattern, each (lambda, kappa) pattern, read off
    the rotated span against the rotated modes, on consecutive terms."""
    d, n, amps, orbitals, u = case
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    coeffs = [complex(c) for c in rng.uniform(0.3, 1.0, len(amps))
              * np.exp(1j * rng.uniform(0, 2 * np.pi, len(amps)))]
    s = SlaterSum([(c, SlaterState._checked(orb, a)) for c, a, orb in zip(coeffs, amps, orbitals)],
                  d, n)
    v = random_unitary(rng, d)
    split = evolve_sum(_group_sum(s, (u[:, 0], u[:, 1]), group), v)
    patterns = [tuple(round(np.linalg.norm(orb.conj().T @ (v @ u[:, a])) ** 2) for a in (0, 1))
                for orb in split.orbitals]
    assert all(sum(p) in group for p in patterns)
    runs = [p for k, p in enumerate(patterns) if k == 0 or patterns[k - 1] != p]
    assert len(runs) == len(set(runs))
    if one_mode is not None:
        split = _group_sum(split, (random_orthonormal_columns(rng, d, 1)[:, 0],), (one_mode,))
    _assert_dense_expectations(split, random_orthonormal_columns(rng, d, min(k, d)))


def _deep_circuit(rng, d, rounds, generic):
    """rounds times: a shorthand rotation of two random sites, then a
    measure1 and a 012 measure2, of random sites (the shorthand's modes)
    or of generic random modes."""
    steps = []
    for _ in range(rounds):
        i, j = rng.choice(d, size=2, replace=False)
        steps.append(Rotate.on_pair(d, i, j, pair_rotation(*rng.uniform(0, 2 * np.pi, 2))))
        if generic:
            modes = random_orthonormal_columns(rng, d, 3)
        else:
            modes = np.eye(d, dtype=complex)[:, rng.choice(d, size=3, replace=False)]
        steps.append(MeasureOne(modes[:, 0]))
        steps.append(MeasureTwo(modes[:, 1], modes[:, 2], "012"))
    return steps


@pytest.mark.parametrize("seed", [0, 16])
@pytest.mark.parametrize("generic", [False, True], ids=["sites", "generic"])
def test_deep_exact_branch_run_keeps_its_orbitals_orthonormal(generic, seed):
    """3,000 steps of the single-determinant executor at D = 16, N = 8
    end within 1e-14 of orthonormal.  Each split projects its residual
    twice; projected once, the out orbital passed the orbitals' Gram
    error on to the child 1 / beta larger, and these runs failed the
    orthonormality check within a few hundred steps.  Nothing
    re-orthonormalizes the orbitals, and the deviation shows no growth:
    30,000-step runs of seeds 0 and 16 stayed between 4.6e-16 and
    1.24e-15 at every 6,000th step.  The runs of seeds 0-19 end at most
    at 9.4e-16 (generic) and 1.3e-15 (sites), seed 16 at 7.0e-16 and
    8.9e-16, seed 0 at 5.3e-16 and 9.3e-16, so the bound is over seven
    times the worst seen.  Seed 0's
    site run stopped at step 1,466 with NoAdmissibleBranch while a
    steered one-term branch was divided by sqrt(p), whose absolute
    rounding a small p makes relative; it is divided by its own weight."""
    d, n = 16, 8
    circuit = _deep_circuit(np.random.default_rng(seed), d, 1000, generic)
    transcript, final = simulate_exact_branch(circuit, d, n)
    assert len(transcript.rows) == 2000
    dev = np.linalg.norm(final.orbitals.conj().T @ final.orbitals - np.eye(n))
    assert dev < 1e-14
