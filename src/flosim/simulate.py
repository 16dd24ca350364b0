"""Circuit execution.

sampled_steps is the one step loop.  It carries a full SlaterSum,
supports every grouping including parity, and yields every step's
record.  Each measurement has a policy: "sample" draws its outcome from
a seeded generator, "forced" takes the step's own, and "exact" follows
the efficient classical procedure, recording an outcome that is already
certain or steering into a branch whose projector preserves determinant
form (_steer).  simulate_sampled collects a run's records;
simulate_exact_branch runs every measurement on "exact" and returns the
one determinant that policy keeps.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CERTAINTY_TOL, PASS_ROUND, PROB_FLOOR, PRUNE_TOL,
    FlosimError, NoAdmissibleBranch, ParityGroupingUnsupported,
)
from .linalg import one_body_unitary
from .multislater import (
    DEFAULT_MAX_TERMS,
    GROUPINGS,
    ONE_MODE,
    SlaterSum,
    _group_terms,
    _post,
    _probabilities,
    evolve_sum,
    group_label,
    measure_mode_sum,
    measure_two_mode,
)
from .slater import SlaterState, check_modes, standard_state

PARITY_GROUPING = "02/1"

POLICIES = ("sample", "forced", "exact")


@dataclass(frozen=True)
class Rotate:
    """One-body rotation: a D x D unitary, a generator and a time, or a
    rotation of two sites.

    pair (i, j), with a unitary only, says the unitary is the 2x2 block
    of a rotation acting on sites i and j alone, the identity on every
    other site (Rotate.on_pair builds one so).  Its step checks that block
    (check_unitary's pair) and updates rows i and j of every term.
    """

    unitary: np.ndarray | None = None
    generator: np.ndarray | None = None
    tau: float | None = None
    pair: tuple | None = None

    def __post_init__(self):
        has_u = self.unitary is not None
        has_g = self.generator is not None and self.tau is not None
        if has_u == has_g:
            raise ValueError("give either a unitary or a generator with tau")
        if self.pair is not None and not has_u:
            raise ValueError("a pair needs a unitary")

    @classmethod
    def on_pair(cls, d, i, j, block):
        """The 2x2 unitary block acting on sites i and j of d, the identity
        on every other site, kept as the block and its pair."""
        if not (0 <= i < d and 0 <= j < d) or i == j:
            raise ValueError(f"pair ({i}, {j}) does not name two sites of {d} modes")
        return cls(unitary=block, pair=(i, j))

    def resolve(self):
        """The step's unitary: its own, or its generator's
        one_body_unitary, checked there and raising at this call."""
        if self.unitary is not None:
            return np.asarray(self.unitary, dtype=complex)
        return one_body_unitary(self.generator, self.tau)


@dataclass(frozen=True)
class MeasureOne:
    """Single-mode occupation measurement."""

    kind = "measure1"
    kappa: np.ndarray
    policy: str = "sample"
    outcome: int | None = None

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.policy == "forced" and self.outcome is None:
            raise ValueError("forced measurement needs an outcome")


@dataclass(frozen=True)
class MeasureTwo:
    """Two-mode total-occupation measurement under a grouping."""

    kind = "measure2"
    kappa: np.ndarray
    lam: np.ndarray
    grouping: str = "012"
    policy: str = "sample"
    outcome: str | None = None

    def __post_init__(self):
        if self.grouping not in GROUPINGS:
            raise ValueError(f"unknown grouping {self.grouping!r}")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.policy == "forced" and self.outcome is None:
            raise ValueError("forced measurement needs an outcome")


@dataclass(frozen=True)
class TranscriptRow:
    step: int
    kind: str
    outcome: str
    probability: float
    cumulative: float
    terms: int


@dataclass(frozen=True)
class Transcript:
    rows: tuple

    @property
    def cumulative_probability(self):
        return self.rows[-1].cumulative if self.rows else 1.0


def _steer(idx, probs, admissible):
    """The certainty-or-steer rule of the exact policy.

    probs maps every outcome label to its probability, in label order;
    admissible lists, in preference order, the labels whose projector
    keeps a single determinant.  Returns (label, probability, certain):
    the most probable label (the earliest on a tie) when it lies within
    CERTAINTY_TOL of 1, else the first admissible label above
    PROB_FLOOR.  Raises NoAdmissibleBranch when there is neither.
    """
    best = max(probs, key=probs.get)
    if probs[best] >= 1 - CERTAINTY_TOL:
        return best, probs[best], True
    for label in admissible:
        if probs[label] > PROB_FLOOR:
            return label, probs[label], False
    raise NoAdmissibleBranch(
        f"step {idx}: no certain outcome and every determinant-preserving "
        f"branch has probability below {PROB_FLOOR:g}; the probabilities are inconsistent"
    )


def _steer_modes(idx, s, vecs, groups):
    """The exact policy's step on a sum s measuring the modes vecs
    ((lambda, kappa) or (kappa,)) under groups: (label, p, post or None
    if certain).  Admissible are the single outcomes with every measured
    mode empty or every one filled, whose projectors keep one determinant,
    lowest label first.  Only the steered group is built, and nothing
    when certain.  A group of one term is divided by its weight |c a|, as
    sqrt(p) carries the pass's absolute rounding, relative at small p."""
    labels = [group_label(g) for g in groups]
    probs, errs = (dict(zip(labels, v)) for v in _probabilities(s, vecs, groups))
    admissible = [label for label, g in zip(labels, groups) if g in ((0,), (len(vecs),))]
    label, prob, certain = _steer(idx, probs, admissible)
    if certain:
        return label, prob, None
    terms = _group_terms(s, vecs, label)
    if len(terms[0]) == 1:  # the one term's own weight, exact to its rounding
        weight = abs(terms[0][0] * terms[1][0])
        return label, prob, _post(s, terms, weight, PASS_ROUND * weight**2)
    return label, prob, _post(s, terms, np.sqrt(prob), errs[label])


def simulate_exact_branch(circuit, d, n, initial=None):
    """Run a circuit keeping one Slater determinant throughout:
    sampled_steps with every measurement's policy set to "exact".

    An outcome with probability within CERTAINTY_TOL of 1 is recorded without
    touching the state; otherwise the lowest-labeled branch whose
    projector preserves determinant form (total occupation 0 or 2, or
    either single-mode outcome) is taken and renormalized (_steer).
    Circuits containing the parity grouping are rejected before any step
    runs (sampled_steps).

    Returns (transcript, final SlaterState).
    """
    exact = [replace(step, policy="exact") if isinstance(step, (MeasureOne, MeasureTwo)) else step
             for step in circuit]
    transcript, final = transcript_of(sampled_steps(exact, d, n, initial=initial))
    if not final.term_count:
        raise FlosimError(f"no determinant is left: the start amplitude is at most {PRUNE_TOL:g}")
    # a checked start or split leaf, rotated since only by checked unitaries
    return transcript, SlaterState._checked(final.orbitals[0], final.amps[0] * final.coeffs[0])


def sampled_steps(circuit, d, n, seed=0, initial=None, max_terms=DEFAULT_MAX_TERMS):
    """Run a circuit on a full determinant sum, sampling outcomes.

    Yields (index, unitary, row, state): first (None, None, None, start),
    then per step its index, a rotation's resolved unitary (a pair
    rotation's 2x2 block) or a measurement's TranscriptRow, and the sum
    after it.  Policies:
    "sample" draws from the seeded generator, "forced" takes the step's
    outcome, "exact" records a certain outcome or steers into a
    determinant-preserving branch (_steer_modes).  All four
    groupings are supported; parity measurements grow the term count and
    may hit the cap.  An exact-policy parity step, which has no such
    branch, raises ParityGroupingUnsupported before any step runs.

    Every rotation resolves at its step (Rotate.resolve): a loaded
    generator is already its unitary (circuits.parse_circuit), and an
    API-built one resolves, and a faulty one raises, at its own step,
    after every earlier step's error.  evolve_sum checks each unitary
    where it is applied.
    """
    for idx, step in enumerate(circuit):
        exact = isinstance(step, MeasureTwo) and step.policy == "exact"
        if exact and step.grouping == PARITY_GROUPING:
            raise ParityGroupingUnsupported(
                f"step {idx}: grouping '02/1' merges the even outcomes; no "
                "branch of the parity measurement preserves a single "
                "determinant, so the exact-branch simulation does not apply"
            )
    # Only a sampled step draws, so other runs never import numpy.random.
    sampled = any(getattr(step, "policy", None) == "sample" for step in circuit)
    rng = np.random.default_rng(seed) if sampled else None
    start = initial if initial is not None else standard_state(d, n)
    state = SlaterSum.from_state(start, max_terms=max_terms)
    yield None, None, None, state
    cumulative = 1.0
    for idx, step in enumerate(circuit):
        if isinstance(step, Rotate):
            u = step.resolve()
            state = evolve_sum(state, u, step.pair)
            yield idx, u, None, state
            continue
        if not isinstance(step, (MeasureOne, MeasureTwo)):
            raise TypeError(f"step {idx}: not a circuit step: {step!r}")
        if step.policy != "exact":
            forced = step.outcome if step.policy == "forced" else None
            if isinstance(step, MeasureOne):
                outcome, prob, state = measure_mode_sum(state, step.kappa, forced=forced, rng=rng)
                label = str(outcome)
            else:
                label, prob, state = measure_two_mode(
                    state, step.kappa, step.lam, step.grouping, forced=forced, rng=rng
                )
        else:
            two = isinstance(step, MeasureTwo)
            vecs = check_modes(d, step.kappa, *([step.lam] if two else []))[::-1]
            groups = GROUPINGS[step.grouping] if two else ONE_MODE
            label, prob, post = _steer_modes(idx, state, vecs, groups)
            state = state if post is None else post
        cumulative *= prob
        row = TranscriptRow(idx, step.kind, label, prob, cumulative, state.term_count)
        yield idx, None, row, state


def transcript_of(records):
    """(Transcript, final state) of a run's sampled_steps records."""
    rows = []
    for _, _, row, state in records:
        if row is not None:
            rows.append(row)
    return Transcript(tuple(rows)), state


def simulate_sampled(circuit, d, n, seed=0, initial=None, max_terms=DEFAULT_MAX_TERMS):
    """sampled_steps' run, collected: (transcript, final SlaterSum)."""
    return transcript_of(sampled_steps(circuit, d, n, seed, initial, max_terms))
