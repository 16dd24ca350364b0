"""Circuit execution.

Two executors share one circuit vocabulary.  simulate_exact_branch
follows the efficient classical procedure: it keeps a single Slater
determinant and, at every measurement, either records an outcome that
is already certain or steers into a branch whose projector preserves
determinant form.  simulate_sampled is the reference executor: it
carries a full SlaterSum, supports every grouping including parity,
and draws outcomes from a seeded generator.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    NoAdmissibleBranch,
    ParityGroupingUnsupported,
)
from .linalg import one_body_unitary
from .multislater import (
    DEFAULT_MAX_TERMS,
    GROUPINGS,
    SlaterSum,
    collapse,
    evolve_sum,
    measure_mode_sum,
    measure_two_mode,
    scale_sum,
    single_mode_branches,
    sum_norm,
    two_mode_groups,
)
from .slater import (
    PROB_FLOOR,
    SlaterState,
    check_mode,
    decompose_mode,
    evolve,
    measure_mode,
    standard_state,
)

CERTAINTY_TOL = 1e-9
PARITY_GROUPING = "02/1"

# Groups whose projector maps one determinant to one determinant, per
# grouping tag, in the branch-preference order (lowest label first).
SINGLE_TERM_GROUPS = {
    "012": ("0", "2"),
    "01/2": ("2",),
    "0/12": ("0",),
    PARITY_GROUPING: (),
}

POLICIES = ("sample", "forced", "exact")


@dataclass(frozen=True)
class Rotate:
    """One-body rotation, given directly or as a generator and a time."""

    unitary: np.ndarray | None = None
    generator: np.ndarray | None = None
    tau: float | None = None

    def __post_init__(self):
        has_u = self.unitary is not None
        has_g = self.generator is not None and self.tau is not None
        if has_u == has_g:
            raise ValueError("give either a unitary or a generator with tau")

    def resolve(self):
        if self.unitary is not None:
            return np.asarray(self.unitary, dtype=complex)
        return one_body_unitary(self.generator, self.tau)


@dataclass(frozen=True)
class MeasureOne:
    """Single-mode occupation measurement."""

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


def _group_probabilities(s, kappa, lam, grouping):
    """Probability and unnormalized projected sum per outcome label."""
    groups = two_mode_groups(s, kappa, lam, grouping)
    return {label: (sum_norm(g) ** 2, g) for label, g in groups.items()}


def _certain_label(table):
    for label, (prob, _) in table.items():
        if prob >= 1 - CERTAINTY_TOL:
            return label
    return None


def simulate_exact_branch(circuit, d, n, initial=None):
    """Run a circuit keeping one Slater determinant throughout.

    Measurement branches are chosen by the certainty-or-steer rule:
    an outcome with probability within 1e-9 of 1 is recorded without
    touching the state; otherwise the lowest-labeled branch whose
    projector preserves determinant form (total occupation 0 or 2, or
    either single-mode outcome) is taken and renormalized.  Circuits
    containing the parity grouping are rejected up front.

    Returns (transcript, final SlaterState).
    """
    steps = list(circuit)
    for idx, step in enumerate(steps):
        if isinstance(step, MeasureTwo) and step.grouping == PARITY_GROUPING:
            raise ParityGroupingUnsupported(
                f"step {idx}: grouping '02/1' merges the even outcomes; no "
                "branch of the parity measurement preserves a single "
                "determinant, so the exact-branch simulation does not apply"
            )
    state = initial if initial is not None else standard_state(d, n)
    rows = []
    cumulative = 1.0
    for idx, step in enumerate(steps):
        if isinstance(step, Rotate):
            state = evolve(state, step.resolve())
            continue
        if isinstance(step, MeasureOne):
            kap = check_mode(step.kappa, d)
            if state.electrons == 0:
                p0, p1 = 1.0, 0.0
            else:
                dec = decompose_mode(state, kap)
                p0, p1 = dec.beta**2, dec.alpha**2
            if p0 >= 1 - CERTAINTY_TOL or p1 >= 1 - CERTAINTY_TOL:
                label, prob = ("0", p0) if p0 >= p1 else ("1", p1)
            else:
                outcome = 0 if p0 > PROB_FLOOR else 1
                _, prob, state = measure_mode(state, kap, forced=outcome)
                label = str(outcome)
            cumulative *= prob
            rows.append(TranscriptRow(idx, "measure1", label, prob, cumulative, 1))
            continue
        if isinstance(step, MeasureTwo):
            kap = check_mode(step.kappa, d)
            lam = check_mode(step.lam, d)
            table = _group_probabilities(
                SlaterSum.from_state(state), kap, lam, step.grouping
            )
            label = _certain_label(table)
            if label is not None:
                prob = table[label][0]
            else:
                label = None
                for candidate in SINGLE_TERM_GROUPS[step.grouping]:
                    if table[candidate][0] > PROB_FLOOR:
                        label = candidate
                        break
                if label is None:
                    raise NoAdmissibleBranch(
                        f"step {idx}: no certain outcome and every "
                        "determinant-preserving branch has probability "
                        "below 1e-12; the probabilities are inconsistent"
                    )
                prob, combined = table[label]
                coeff, term = scale_sum(combined, 1.0 / np.sqrt(prob)).terms[0]
                state = SlaterState(term.orbitals, term.amplitude * coeff)
            cumulative *= prob
            rows.append(TranscriptRow(idx, "measure2", label, prob, cumulative, 1))
            continue
        raise TypeError(f"step {idx}: not a circuit step: {step!r}")
    return Transcript(tuple(rows)), state


def simulate_sampled(circuit, d, n, seed=0, initial=None, max_terms=DEFAULT_MAX_TERMS):
    """Run a circuit on a full determinant sum, sampling outcomes.

    Per-step policies: "sample" draws from the seeded generator,
    "forced" takes the step's outcome, "exact" applies the same branch
    rule as simulate_exact_branch.  All four groupings are supported;
    parity measurements grow the term count and may hit the cap.

    Returns (transcript, final SlaterSum).
    """
    rng = np.random.default_rng(seed)
    start = initial if initial is not None else standard_state(d, n)
    state = SlaterSum.from_state(start, max_terms=max_terms)
    rows = []
    cumulative = 1.0
    for idx, step in enumerate(circuit):
        if isinstance(step, Rotate):
            state = evolve_sum(state, step.resolve())
            continue
        if isinstance(step, MeasureOne):
            kap = check_mode(step.kappa, d)
            if step.policy == "forced":
                _, prob, state = measure_mode_sum(state, kap, forced=step.outcome)
                label = str(int(step.outcome))
            elif step.policy == "sample":
                outcome, prob, state = measure_mode_sum(state, kap, rng=rng)
                label = str(outcome)
            else:
                projected, (p0, p1) = single_mode_branches(state, kap)
                if p0 >= 1 - CERTAINTY_TOL or p1 >= 1 - CERTAINTY_TOL:
                    label, prob = ("0", p0) if p0 >= p1 else ("1", p1)
                else:
                    outcome = 0 if p0 > PROB_FLOOR else 1
                    prob = (p0, p1)[outcome]
                    state = collapse(projected[outcome], prob, outcome)
                    label = str(outcome)
            cumulative *= prob
            rows.append(
                TranscriptRow(idx, "measure1", label, prob, cumulative, state.term_count)
            )
            continue
        if isinstance(step, MeasureTwo):
            kap = check_mode(step.kappa, d)
            lam = check_mode(step.lam, d)
            if step.policy == "forced":
                label, prob, state = measure_two_mode(
                    state, kap, lam, step.grouping, forced=step.outcome
                )
            elif step.policy == "sample":
                label, prob, state = measure_two_mode(
                    state, kap, lam, step.grouping, rng=rng
                )
            else:
                if step.grouping == PARITY_GROUPING:
                    raise ParityGroupingUnsupported(
                        f"step {idx}: the exact-branch rule has no "
                        "determinant-preserving outcome for the parity "
                        "grouping '02/1'"
                    )
                table = _group_probabilities(state, kap, lam, step.grouping)
                label = _certain_label(table)
                if label is not None:
                    prob = table[label][0]
                else:
                    label = next(
                        (
                            c
                            for c in SINGLE_TERM_GROUPS[step.grouping]
                            if table[c][0] > PROB_FLOOR
                        ),
                        None,
                    )
                    if label is None:
                        raise NoAdmissibleBranch(
                            f"step {idx}: no certain outcome and no admissible "
                            "determinant-preserving branch"
                        )
                    prob, combined = table[label]
                    state = collapse(combined, prob, repr(label))
            cumulative *= prob
            rows.append(
                TranscriptRow(idx, "measure2", label, prob, cumulative, state.term_count)
            )
            continue
        raise TypeError(f"step {idx}: not a circuit step: {step!r}")
    return Transcript(tuple(rows)), state
