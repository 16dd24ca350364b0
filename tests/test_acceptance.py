"""Acceptance suite: nine numbered criteria, one report line each.

Every test records a single [PASS]/[FAIL] line that the conftest
terminal-summary hook replays after the run, so the verdicts are
visible in any pytest invocation.  Criteria 3 and 7 each contain a
closed-form claim that the implementation reproduces honestly but that
disagrees with the exact computation; those asserts are last in their
tests, after the parts that hold, and fail with the measured numbers.
The analysis lives in the project notes, not here.
"""

import time

import numpy as np
import pytest
import conftest
from conftest import (
    random_antisymmetric,
    random_hermitian,
    random_orthogonal_pair,
    random_orthonormal_columns,
    rng_for,
)

from flosim import fock
from flosim.bands import LatticeConfig, closed_form_w0, fermi_sea, measure_origin, w_orbital
from flosim.cli import _oracle_judge
from flosim.errors import ImpossibleOutcome, ParityGroupingUnsupported
from flosim.linalg import one_body_unitary, pfaffian
from flosim.multislater import (
    GROUPINGS,
    SlaterSum,
    evolve_sum,
    generic_p1_study,
    group_label,
    measure_mode_sum,
    measure_two_mode,
    project_single_mode,
    slater_number_two_fermion,
    sum_norm,
)
from flosim.simulate import (
    MeasureOne,
    MeasureTwo,
    Rotate,
    sampled_steps,
    simulate_exact_branch,
    simulate_sampled,
)
from flosim.slater import SlaterState, measure_mode, slater_overlap, standard_state

ALL_GROUPINGS = tuple(sorted(GROUPINGS))
ADMISSIBLE_GROUPINGS = ("012", "01/2", "0/12")


def report(number, text, ok):
    verdict = "PASS" if ok else "FAIL"
    line = f"[{verdict}] criterion {number}: {text}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


def random_sweep_circuit(rng):
    """One random circuit for the oracle sweep: 3..6 modes, depth 6 at
    most, rotations plus both measurement kinds over all groupings."""
    d = int(rng.integers(3, 7))
    n = int(rng.integers(1, d))
    depth = int(rng.integers(1, 7))
    steps = []
    for _ in range(depth):
        kind = rng.random()
        if kind < 0.4:
            steps.append(
                Rotate(generator=random_hermitian(rng, d), tau=float(rng.uniform(0.2, 1.5)))
            )
        elif kind < 0.65:
            kappa, _ = random_orthogonal_pair(rng, d)
            steps.append(MeasureOne(kappa=kappa, policy="sample"))
        else:
            kappa, lam = random_orthogonal_pair(rng, d)
            grouping = ALL_GROUPINGS[int(rng.integers(len(ALL_GROUPINGS)))]
            steps.append(
                MeasureTwo(kappa=kappa, lam=lam, grouping=grouping, policy="sample")
            )
    return d, n, steps


def dense_group_project(vec, kappa, lam, label):
    total = np.zeros_like(vec.amplitudes)
    for digit in label:
        part = fock.two_mode_projector_apply(vec, kappa, lam, int(digit))
        total += part.amplitudes
    return fock.FockVector(vec.modes, total)


def pair_w_from_amplitudes(vec):
    """Antisymmetric pair matrix of a two-particle Fock vector."""
    d = vec.modes
    w = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(i + 1, d):
            amp = vec.amplitudes[(1 << i) | (1 << j)]
            w[i, j] = amp / 2.0
            w[j, i] = -amp / 2.0
    return w


def test_criterion_1_oracle_equivalence_sweep():
    rng = rng_for(9001)
    start = time.perf_counter()
    worst_dev = 0.0
    worst_fid = 1.0
    groupings_seen = set()
    for k in range(200):
        d, n, steps = random_sweep_circuit(rng)
        for step in steps:
            if isinstance(step, MeasureTwo):
                groupings_seen.add(step.grouping)
        records = list(sampled_steps(steps, d, n, seed=9100 + k))
        dev, fid = _oracle_judge(steps, records)
        worst_dev = max(worst_dev, dev)
        worst_fid = min(worst_fid, fid)
    elapsed = time.perf_counter() - start
    ok = worst_dev <= 1e-9 and worst_fid >= 1 - 1e-9 and elapsed < 120
    report(
        1,
        "sampled probabilities and post states match the dense reference "
        f"(max dev {worst_dev:.2e}, min fidelity {worst_fid:.12f}, {elapsed:.1f}s)",
        ok,
    )
    assert groupings_seen == set(ALL_GROUPINGS)
    assert worst_dev <= 1e-9
    assert worst_fid >= 1 - 1e-9
    assert elapsed < 120


def test_criterion_2_state_validity_on_the_fast_path():
    rng = rng_for(9001)
    sample_rng = rng_for(9002)
    worst_residual = 0.0
    single_steps_ok = True
    for _ in range(200):
        d, n, steps = random_sweep_circuit(rng)
        state = SlaterSum.from_state(standard_state(d, n))
        seen_two_mode = False
        for step in steps:
            before = state.term_count
            if isinstance(step, Rotate):
                state = evolve_sum(state, step.resolve())
                if state.term_count != before:
                    single_steps_ok = False
            elif isinstance(step, MeasureOne):
                _, _, state = measure_mode_sum(state, step.kappa, rng=sample_rng)
                if state.term_count > before:
                    single_steps_ok = False
            else:
                seen_two_mode = True
                _, _, state = measure_two_mode(
                    state, step.kappa, step.lam, step.grouping, rng=sample_rng
                )
            if not seen_two_mode and state.term_count != 1:
                single_steps_ok = False
            for coeff, term in state.terms:
                gram = term.orbitals.conj().T @ term.orbitals
                residual = np.linalg.norm(gram - np.eye(term.electrons))
                worst_residual = max(worst_residual, residual)
                assert np.isfinite(coeff) and np.isfinite(term.amplitude)
    ok = worst_residual <= 1e-10 and single_steps_ok
    report(
        2,
        "fast-path states stay valid determinant sums "
        f"(worst orthonormality residual {worst_residual:.2e})",
        ok,
    )
    assert single_steps_ok
    assert worst_residual <= 1e-10


def test_criterion_3_two_electron_pfaffian_formula():
    rng = rng_for(9003)
    degenerate_ok = True
    for _ in range(30):
        theta = float(rng.uniform(0, 2 * np.pi))
        shape = int(rng.integers(3))
        if shape == 0:
            phi, xi = 0.0, float(rng.uniform(0, 2 * np.pi))
        elif shape == 1:
            phi, xi = float(rng.uniform(0, 2 * np.pi)), 0.0
        else:
            phi, xi = float(rng.uniform(0, 2 * np.pi)), np.pi / 2
        n = int(rng.integers(2, 5))
        w, pf, _ = generic_p1_study(theta, phi, xi, n)
        if abs(pf) > 1e-9 or slater_number_two_fermion(w) > 1:
            degenerate_ok = False
    _, pf_peak, closed_peak = generic_p1_study(0.0, np.pi / 2, np.pi / 4, 2)
    triples = []
    for k in range(100):
        theta = float(rng.uniform(0, 2 * np.pi))
        phi = float(rng.uniform(0, 2 * np.pi))
        xi = float(rng.uniform(0, 2 * np.pi))
        n = 2 + k % 3
        _, pf, closed = generic_p1_study(theta, phi, xi, n)
        triples.append((theta, phi, xi, n, abs(pf), closed))
    formula_dev = max(abs(apf - abs(closed)) for *_, apf, closed in triples)
    ok = (
        degenerate_ok
        and formula_dev <= 1e-9
        and abs(abs(pf_peak) - 1.0) <= 1e-9
    )
    report(
        3,
        "normalized pair Pfaffian matches its closed form "
        f"(degenerate lines ok, max formula deviation {formula_dev:.3e}, "
        f"|Pf| at the peak angles {abs(pf_peak):.3e})",
        ok,
    )
    assert degenerate_ok
    assert abs(closed_peak - 1.0) <= 1e-9
    worst = max(triples, key=lambda t: abs(t[4] - abs(t[5])))
    theta, phi, xi, n, apf, closed = worst
    assert formula_dev <= 1e-9, (
        f"|Pf(w)| = {apf:.9e} but the closed form gives {abs(closed):.9e} "
        f"at theta={theta:.6f} phi={phi:.6f} xi={xi:.6f} n={n} "
        f"(deviation {abs(apf - abs(closed)):.3e})"
    )
    assert abs(abs(pf_peak) - 1.0) <= 1e-9, (
        f"|Pf(w)| at (0, pi/2, pi/4) is {abs(pf_peak):.9e}, not 1"
    )


def test_criterion_4_generic_rank_doubling():
    rng = rng_for(9004)
    counts = set()
    min_pair = np.inf
    for k in range(100):
        while True:
            phi = float(rng.uniform(0, 2 * np.pi))
            xi = float(rng.uniform(0, 2 * np.pi))
            if abs(np.sin(phi)) > 0.1 and abs(np.sin(2 * xi)) > 0.1:
                break
        theta = float(rng.uniform(0, 2 * np.pi))
        n = 2 + k % 3
        w, _, _ = generic_p1_study(theta, phi, xi, n)
        canonical = slater_number_two_fermion(w)
        singulars = np.linalg.svd(w, compute_uv=False)
        svd_rank = int(np.sum(singulars > 1e-9))
        assert svd_rank % 2 == 0
        counts.add((canonical, svd_rank // 2))
        min_pair = min(min_pair, singulars[singulars > 1e-9].min())
    ok = counts == {(2, 2)}
    report(
        4,
        "generic outcome-1 post states have rank exactly two "
        f"(canonical and singular-value counts agree, margin {min_pair:.2e})",
        ok,
    )
    assert counts == {(2, 2)}
    assert min_pair > 1e-6


def random_admissible_circuit(rng):
    d = int(rng.integers(3, 7))
    n = int(rng.integers(1, d))
    depth = int(rng.integers(1, 7))
    steps = []
    for _ in range(depth):
        kind = rng.random()
        if kind < 0.4:
            steps.append(
                Rotate(generator=random_hermitian(rng, d), tau=float(rng.uniform(0.2, 1.5)))
            )
        elif kind < 0.65:
            kappa, _ = random_orthogonal_pair(rng, d)
            steps.append(MeasureOne(kappa=kappa))
        else:
            kappa, lam = random_orthogonal_pair(rng, d)
            grouping = ADMISSIBLE_GROUPINGS[int(rng.integers(3))]
            steps.append(MeasureTwo(kappa=kappa, lam=lam, grouping=grouping))
    return d, n, steps


def test_criterion_5_single_determinant_branch_simulation():
    rng = rng_for(9005)
    worst_dev = 0.0
    all_single = True
    for _ in range(50):
        d, n, steps = random_admissible_circuit(rng)
        transcript, final = simulate_exact_branch(steps, d, n)
        if any(row.terms != 1 for row in transcript.rows):
            all_single = False
        assert isinstance(final, SlaterState)
        rows = {row.step: row for row in transcript.rows}
        vec = fock.expand(standard_state(d, n))
        for idx, step in enumerate(steps):
            if isinstance(step, Rotate):
                u = step.resolve()
                image = np.zeros_like(vec.amplitudes)
                for mask in range(1 << d):
                    if vec.amplitudes[mask] == 0:
                        continue
                    cols = [m for m in range(d) if (mask >> m) & 1]
                    if not cols:
                        image[0] += vec.amplitudes[mask]
                        continue
                    piece = fock.expand(SlaterState(u[:, cols], 1.0))
                    image += vec.amplitudes[mask] * piece.amplitudes
                vec = fock.FockVector(d, image)
                continue
            row = rows[idx]
            if isinstance(step, MeasureOne):
                if row.outcome == "1":
                    proj = fock.creation_op_apply(
                        fock.annihilation_op_apply(vec, step.kappa), step.kappa
                    )
                else:
                    proj = fock.annihilation_op_apply(
                        fock.creation_op_apply(vec, step.kappa), step.kappa
                    )
            else:
                proj = dense_group_project(vec, step.kappa, step.lam, row.outcome)
            p_oracle = fock.norm(proj) ** 2
            worst_dev = max(worst_dev, abs(row.probability - p_oracle))
            vec = fock.FockVector(d, proj.amplitudes / np.sqrt(p_oracle))
    d, n = 4, 2
    kappa, lam = random_orthogonal_pair(rng, d)
    parity_steps = [
        Rotate(generator=random_hermitian(rng, d), tau=0.7),
        MeasureTwo(kappa=kappa, lam=lam, grouping="02/1"),
    ]
    with pytest.raises(ParityGroupingUnsupported):
        simulate_exact_branch(parity_steps, d, n)
    ok = all_single and worst_dev <= 1e-9
    report(
        5,
        "chosen-branch runs keep one determinant and match the dense "
        f"reference (max probability deviation {worst_dev:.2e}); the parity "
        "grouping is rejected",
        ok,
    )
    assert all_single
    assert worst_dev <= 1e-9


def test_criterion_6_parity_growth():
    rng = rng_for(9006)
    d, n = 6, 3
    kappa = np.eye(d, dtype=complex)[0]
    lam = np.eye(d, dtype=complex)[1]
    generators = [random_hermitian(rng, d) for _ in range(4)]
    steps = []
    for h in generators:
        steps.append(Rotate(generator=h, tau=0.8))
        steps.append(
            MeasureTwo(kappa=kappa, lam=lam, grouping="02/1", policy="forced", outcome="02")
        )
    transcript, final = simulate_sampled(steps, d, n, seed=0)
    counts = [row.terms for row in transcript.rows]
    vec = fock.expand(standard_state(d, n))
    for h in generators:
        vec = fock.one_body_apply(vec, h, 0.8)
        proj = dense_group_project(vec, kappa, lam, "02")
        vec = fock.FockVector(d, proj.amplitudes / fock.norm(proj))
    fid = fock.fidelity(fock.expand_sum(final), vec)
    ok = counts == [2, 4, 8, 16] and fid >= 1 - 1e-9
    report(
        6,
        f"parity chain term counts {counts}, final fidelity to the dense "
        f"reference {fid:.12f}",
        ok,
    )
    assert counts == [2, 4, 8, 16]
    assert fid >= 1 - 1e-9


def test_criterion_7_filled_band_origin_measurement():
    cfg = LatticeConfig(15, 7)
    nu = 7 / 15
    p_occupied, _, _ = measure_origin(cfg, 1)
    p_dev = abs(p_occupied - nu)

    p_empty, post0, _ = measure_origin(cfg, 0)
    first = post0.orbitals[:, 0]
    origin_magnitude = abs(first[0])
    reference = -np.sqrt(nu / (1 - nu)) * np.eye(15, dtype=complex)[:, 0]
    reference += w_orbital(cfg, 0) / np.sqrt(1 - nu)
    formula_dev = float(np.max(np.abs(first - reference)))

    sea = fermi_sea(cfg)
    origin_mode = np.eye(15, dtype=complex)[:, 0]
    _, _, generic_post = measure_mode(sea, origin_mode, forced=0)
    engine_overlap = abs(slater_overlap(post0, generic_post))

    w0_origin_dev = abs(w_orbital(cfg, 0)[0] - np.sqrt(nu))

    big = LatticeConfig(105, 21)
    xs = np.arange(-20, 21)
    exact = w_orbital(big, 0)[np.mod(xs, 105)]
    closed = closed_form_w0(big, xs)
    sinc_dev = float(np.max(np.abs(exact - closed)))

    ok = (
        p_dev <= 1e-12
        and origin_magnitude <= 1e-12
        and formula_dev <= 1e-10
        and w0_origin_dev <= 1e-12
        and sinc_dev <= 1e-6
    )
    report(
        7,
        f"origin measurement at 15/7: p dev {p_dev:.2e}, empty-branch origin "
        f"amplitude {origin_magnitude:.2e}, orbital formula dev {formula_dev:.2e}; "
        f"large-lattice closed form dev {sinc_dev:.3e}",
        ok,
    )
    assert p_dev <= 1e-12
    assert origin_magnitude <= 1e-12
    assert formula_dev <= 1e-10
    assert engine_overlap >= 1 - 1e-10
    assert w0_origin_dev <= 1e-12
    worst_x = int(xs[int(np.argmax(np.abs(exact - closed)))])
    assert sinc_dev <= 1e-6, (
        f"exact first orbital and sin(pi nu x)/(pi sqrt(nu) x) disagree by "
        f"{sinc_dev:.3e} at x={worst_x} on the 105-site lattice"
    )


def test_criterion_8_dephasing_channel_mixture():
    rng = rng_for(9008)
    d = 4
    state = SlaterState(random_orthonormal_columns(rng, d, 2))
    kappa, lam = random_orthogonal_pair(rng, d)
    vec = fock.expand(state)
    projected = fock.two_mode_projector_apply(vec, kappa, lam, 1)
    rho = fock.density_from_vector(projected, normalize=True)
    rho = fock.trace_out_channel(rho, kappa)
    rho = fock.trace_out_channel(rho, lam)

    trace = float(np.trace(rho.matrix).real)
    evals, evecs = np.linalg.eigh(rho.matrix)
    min_eval = float(evals.min())
    numbers = []
    ranks = []
    popcounts = np.array([bin(m).count("1") for m in range(1 << d)])
    for i in np.nonzero(evals > 1e-9)[0]:
        v = evecs[:, i]
        sectors = {int(c) for c in popcounts[np.abs(v) > 1e-9]}
        numbers.append(sectors)
        w = pair_w_from_amplitudes(fock.FockVector(d, v))
        ranks.append(slater_number_two_fermion(w))
    ok = (
        abs(trace - 1.0) <= 1e-9
        and min_eval >= -1e-10
        and all(s == {2} for s in numbers)
        and all(r == 1 for r in ranks)
    )
    report(
        8,
        "dephasing the measured pair leaves a mixture of single "
        f"determinants (trace {trace:.12f}, {len(ranks)} eigenvectors, "
        f"ranks {sorted(set(ranks))})",
        ok,
    )
    assert abs(trace - 1.0) <= 1e-9
    assert min_eval >= -1e-10
    assert len(ranks) >= 2
    assert all(s == {2} for s in numbers)
    assert all(r == 1 for r in ranks)


def test_criterion_9_algebraic_suites():
    rng = rng_for(9009)
    pf_dev = 0.0
    for dim in range(2, 9):
        for _ in range(5):
            a = random_antisymmetric(rng, dim)
            det = np.linalg.det(a)
            if dim % 2 == 1:
                pf_dev = max(pf_dev, abs(det))
                continue
            pf = pfaffian(a)
            rel = abs(pf**2 - det) / max(1.0, abs(det))
            pf_dev = max(pf_dev, rel)

    anti_dev = 0.0
    for d in range(2, 6):
        dim = 1 << d
        cmats = [fock.creation_matrix(d, np.eye(d, dtype=complex)[:, m]) for m in range(d)]
        for i in range(d):
            for j in range(d):
                anti = cmats[i] @ cmats[j] + cmats[j] @ cmats[i]
                anti_dev = max(anti_dev, float(np.abs(anti).max()))
                mixed = cmats[i] @ cmats[j].conj().T + cmats[j].conj().T @ cmats[i]
                target = np.eye(dim) if i == j else np.zeros((dim, dim))
                anti_dev = max(anti_dev, float(np.abs(mixed - target).max()))

    proj_dev = 0.0
    d = 4
    dim = 1 << d
    kappa, lam = random_orthogonal_pair(rng, d)
    total = np.zeros((dim, dim), dtype=complex)
    for outcome in (0, 1, 2):
        mat = np.zeros((dim, dim), dtype=complex)
        for col in range(dim):
            basis = np.zeros(dim, dtype=complex)
            basis[col] = 1.0
            out = fock.two_mode_projector_apply(fock.FockVector(d, basis), kappa, lam, outcome)
            mat[:, col] = out.amplitudes
        total += mat
    proj_dev = float(np.abs(total - np.eye(dim)).max())

    prob_dev = 0.0
    for trial in range(10):
        d = int(rng.integers(3, 7))
        n = int(rng.integers(1, d))
        base = SlaterState(random_orthonormal_columns(rng, d, n))
        state = SlaterSum.from_state(base)
        state = evolve_sum(state, one_body_unitary(random_hermitian(rng, d), 0.9))
        if trial % 2:
            kap2, lam2 = random_orthogonal_pair(rng, d)
            label, _, state = measure_two_mode(state, kap2, lam2, "02/1", forced=None, rng=rng)
        kappa, lam = random_orthogonal_pair(rng, d)
        p0 = sum_norm(project_single_mode(state, kappa, 0)) ** 2
        p1 = sum_norm(project_single_mode(state, kappa, 1)) ** 2
        prob_dev = max(prob_dev, abs(p0 + p1 - 1.0))
        for grouping in ALL_GROUPINGS:
            labels = [group_label(g) for g in GROUPINGS[grouping]]
            total_p = 0.0
            for want in labels:
                try:
                    _, p, _ = measure_two_mode(state, kappa, lam, grouping, forced=want)
                except ImpossibleOutcome:
                    p = 0.0
                total_p += p
            prob_dev = max(prob_dev, abs(total_p - 1.0))

    ok = pf_dev <= 1e-8 and anti_dev <= 1e-12 and proj_dev <= 1e-10 and prob_dev <= 1e-9
    report(
        9,
        f"algebraic suites hold (Pf^2=det rel {pf_dev:.2e}, anticommutators "
        f"{anti_dev:.2e}, projector completeness {proj_dev:.2e}, probability "
        f"completeness {prob_dev:.2e})",
        ok,
    )
    assert pf_dev <= 1e-8
    assert anti_dev <= 1e-12
    assert proj_dev <= 1e-10
    assert prob_dev <= 1e-9
