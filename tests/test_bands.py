"""Tests for the lattice demo: plane waves, the Fermi sea as a true
ground state, W orbitals, origin measurements, and exchange holes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_orthonormal_columns, rng_for

from flosim.errors import BadConfig, ImpossibleOutcome, IndexOutOfRange
from flosim.bands import (
    BandProfile,
    LatticeConfig,
    centered_positions,
    closed_form_w0,
    fermi_sea,
    measure_origin,
    plane_wave,
    w_orbital,
)
from flosim.slater import SlaterState, measure_mode, slater_overlap
from flosim import bands, fock


def hopping_generator(d):
    """Nearest-neighbor hopping with periodic wrap, strength -1."""
    b = np.zeros((d, d))
    for x in range(d):
        b[x, (x + 1) % d] = -1.0
        b[(x + 1) % d, x] = -1.0
    return b


class TestLatticeConfig:
    def test_valid(self):
        cfg = LatticeConfig(15, 7)
        assert cfg.filling == pytest.approx(7 / 15)

    @pytest.mark.parametrize("d,n", [(14, 7), (15, 6), (15, 0), (5, 7), (0, 1)])
    def test_invalid(self, d, n):
        with pytest.raises(BadConfig):
            LatticeConfig(d, n)


class TestPlaneWave:
    def test_uniform_at_zero_momentum(self):
        v = plane_wave(5, 0)
        assert np.allclose(v, np.full(5, 1 / np.sqrt(5)))

    def test_unit_norm(self):
        for n in range(-4, 5):
            assert np.linalg.norm(plane_wave(9, n)) == pytest.approx(1.0, abs=1e-12)

    def test_pairwise_orthogonality(self):
        d = 9
        waves = [plane_wave(d, n) for n in range(-4, 5)]
        gram = np.array([[np.vdot(a, b) for b in waves] for a in waves])
        assert np.linalg.norm(gram - np.eye(d)) <= 1e-12

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            plane_wave(9, 5)
        with pytest.raises(IndexOutOfRange):
            plane_wave(9, -5)


class TestFermiSea:
    def test_single_electron(self):
        sea = fermi_sea(LatticeConfig(3, 1))
        assert sea.electrons == 1
        assert np.allclose(sea.orbitals[:, 0], np.full(3, 1 / np.sqrt(3)))

    def test_momentum_window(self):
        cfg = LatticeConfig(15, 7)
        sea = fermi_sea(cfg)
        for col, n in enumerate(range(-3, 4)):
            assert np.allclose(sea.orbitals[:, col], plane_wave(15, n), atol=1e-12)

    def test_orthonormal(self):
        sea = fermi_sea(LatticeConfig(9, 5))
        gram = sea.orbitals.conj().T @ sea.orbitals
        assert np.linalg.norm(gram - np.eye(5)) <= 1e-12

    def test_minimizes_hopping_energy(self):
        """No random determinant with the same electron count undercuts
        the sea's expectation of the hopping Hamiltonian."""
        rng = rng_for(110)
        d, n = 9, 3
        b = hopping_generator(d)

        def energy(state):
            vec = fock.expand(state)
            hv = fock.one_body_generator_apply(vec, b)
            return fock.inner(vec, hv).real

        sea_energy = energy(fermi_sea(LatticeConfig(d, n)))
        for _ in range(200):
            trial = SlaterState(random_orthonormal_columns(rng, d, n))
            assert energy(trial) >= sea_energy - 1e-9


class TestWOrbitals:
    def test_origin_amplitude(self):
        cfg = LatticeConfig(15, 7)
        w0 = w_orbital(cfg, 0)
        assert abs(w0[0] - np.sqrt(cfg.filling)) <= 1e-12

    def test_orthonormal_family(self):
        cfg = LatticeConfig(15, 7)
        cols = np.column_stack([w_orbital(cfg, s) for s in range(7)])
        gram = cols.conj().T @ cols
        assert np.linalg.norm(gram - np.eye(7)) <= 1e-10

    def test_spans_the_sea(self):
        cfg = LatticeConfig(9, 5)
        sea = fermi_sea(cfg).orbitals
        cols = np.column_stack([w_orbital(cfg, s) for s in range(5)])
        p_sea = sea @ sea.conj().T
        p_w = cols @ cols.conj().T
        assert np.linalg.norm(p_sea - p_w) <= 1e-10

    def test_out_of_range(self):
        cfg = LatticeConfig(9, 5)
        with pytest.raises(IndexOutOfRange):
            w_orbital(cfg, 5)
        with pytest.raises(IndexOutOfRange):
            w_orbital(cfg, -1)

    def test_closed_form_is_large_lattice_limit(self):
        """The ratio exact/closed is (pi x/D)/sin(pi x/D): the deviation
        at D = 105 sits near 1.9e-3 for |x| <= 20 and shrinks with D."""
        big = LatticeConfig(105, 21)
        w0 = w_orbital(big, 0)
        x = centered_positions(105)
        window = np.abs(x) <= 20
        exact = np.real(w0[np.mod(x, 105)])[window]
        assert np.max(np.abs(np.imag(w0))) <= 1e-12
        closed = closed_form_w0(big, x[window].astype(float))
        dev_big = np.max(np.abs(exact - closed))
        assert 1e-4 < dev_big < 2.5e-3

        small = LatticeConfig(15, 3)
        w0_small = w_orbital(small, 0)
        xs = centered_positions(15)
        exact_small = np.real(w0_small[np.mod(xs, 15)])
        closed_small = closed_form_w0(small, xs.astype(float))
        dev_small = np.max(np.abs(exact_small - closed_small))
        assert dev_big < dev_small

    def test_closed_form_scalar_and_origin(self):
        cfg = LatticeConfig(15, 3)
        assert closed_form_w0(cfg, 0) == pytest.approx(np.sqrt(1 / 5), abs=1e-12)
        assert isinstance(closed_form_w0(cfg, 3), float)


class TestMeasureOrigin:
    def test_occupied_probability_and_density(self):
        cfg = LatticeConfig(15, 7)
        prob, post, profile = measure_origin(cfg, 1)
        assert prob == pytest.approx(7 / 15, abs=1e-12)
        at_origin = profile.x == 0
        assert profile.density_after[at_origin][0] == pytest.approx(1.0, abs=1e-10)
        assert abs(profile.first_orbital[at_origin][0]) == pytest.approx(1.0, abs=1e-12)
        assert np.sum(profile.density_after) == pytest.approx(7.0, abs=1e-10)
        assert np.allclose(profile.density_before, 7 / 15)

    def test_empty_outcome_orbital(self):
        cfg = LatticeConfig(15, 7)
        nu = cfg.filling
        prob, post, profile = measure_origin(cfg, 0)
        assert prob == pytest.approx(8 / 15, abs=1e-12)
        at_origin = profile.x == 0
        assert abs(profile.first_orbital[at_origin][0]) <= 1e-12
        origin = np.zeros(15, dtype=complex)
        origin[0] = 1.0
        reference = -np.sqrt(nu / (1 - nu)) * origin + np.sqrt(1 / (1 - nu)) * w_orbital(
            cfg, 0
        )
        assert np.linalg.norm(post.orbitals[:, 0] - reference) <= 1e-10

    @pytest.mark.parametrize("outcome", [0, 1])
    def test_agrees_with_generic_measurement(self, outcome):
        cfg = LatticeConfig(9, 3)
        origin = np.zeros(9, dtype=complex)
        origin[0] = 1.0
        prob, post, _ = measure_origin(cfg, outcome)
        generic_outcome, generic_prob, generic_post = measure_mode(
            fermi_sea(cfg), origin, forced=outcome
        )
        assert prob == pytest.approx(generic_prob, abs=1e-12)
        assert abs(slater_overlap(post, generic_post)) >= 1 - 1e-10

    def test_full_band_cannot_answer_zero(self):
        with pytest.raises(ImpossibleOutcome):
            measure_origin(LatticeConfig(5, 5), 0)

    def test_bad_outcome(self):
        with pytest.raises(ValueError):
            measure_origin(LatticeConfig(5, 3), 2)

    def test_profile_table_shape(self):
        cfg = LatticeConfig(15, 7)
        _, _, profile = measure_origin(cfg, 1)
        assert isinstance(profile, BandProfile)
        assert profile.x.tolist() == list(range(-7, 8))
        assert len(profile.first_orbital) == 15
        assert len(profile.density_before) == 15
        assert len(profile.density_after) == 15


def reference_plane_wave(d, n):
    """One plane wave per call, as bands built them before the
    plane-wave matrix; kept as the bitwise reference."""
    x = np.arange(d)
    return np.exp(2j * np.pi * n * x / d) / np.sqrt(d)


def reference_w_orbital(cfg, s):
    """The one-orbital loop over plane-wave calls that bands' W kernel
    replaces; kept as the reference, which the kernel's product matches
    in rounding only (W_TOL)."""
    n_el = cfg.electrons
    half_n = (n_el - 1) // 2
    acc = np.zeros(cfg.sites, dtype=complex)
    for n in range(-half_n, half_n + 1):
        acc += np.exp(2j * np.pi * n * s / n_el) * reference_plane_wave(cfg.sites, n)
    return acc / np.sqrt(n_el)


def reference_measure_origin(cfg, outcome):
    """measure_origin's post-state orbitals built column by column."""
    d, n = cfg.sites, cfg.electrons
    nu = cfg.filling
    origin = np.zeros(d, dtype=complex)
    origin[0] = 1.0
    w_cols = [reference_w_orbital(cfg, s) for s in range(n)]
    if outcome == 1:
        first = origin
    else:
        first = -np.sqrt(nu / (1 - nu)) * origin + w_cols[0] / np.sqrt(1 - nu)
    return np.column_stack([first] + w_cols[1:])


@st.composite
def lattices(draw, max_sites):
    """Odd D up to max_sites; N = 1 and N = D in one case of three each."""
    d = 2 * draw(st.integers(0, (max_sites - 1) // 2)) + 1
    odd = st.integers(0, (d - 1) // 2).map(lambda k: 2 * k + 1)
    n = draw(st.one_of(st.just(1), st.just(d), odd))
    return LatticeConfig(d, n)


# The W kernel's product sums over the momenta in BLAS's order, not
# the loop's; entries are at most 1 in modulus, and the largest gap seen
# up to D = 1001 was 5.3e-15.
W_TOL = 1e-14


class TestWKernel:
    """All W orbitals come from one product of the phase grid and the
    plane-wave matrix, equal to the one-orbital loop within W_TOL; the
    plane waves and the Fermi sea stay bit for bit."""

    def test_phase_grid_matches_python_complex_phases(self):
        """Every odd N at D up to 51, and some at D = 101 and 201: the W
        rows equal, bit for bit, the same product whose phases exponentiate
        Python's complex scalars 2j*pi*n*s/N."""
        sizes = [(d, n) for d in (1, 3, 5, 11, 21, 51) for n in range(1, d + 1, 2)]
        sizes += [(101, n) for n in (1, 3, 49, 51, 99, 101)]
        sizes += [(201, n) for n in (1, 101, 199, 201)]
        for d, n_el in sizes:
            cfg = LatticeConfig(d, n_el)
            momenta = bands._momenta(n_el)
            for labels in (range(n_el), [n_el - 1, 0]):
                phases = np.exp(np.array([[2j * np.pi * n * s / n_el for s in labels]
                                          for n in momenta]))
                want = (phases.T @ bands._plane_waves(d, momenta)) / np.sqrt(n_el)
                assert bands._w_rows(cfg, labels).tobytes() == want.tobytes(), (d, n_el)

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(cfg=lattices(301), data=st.data())
    def test_rows_match_the_one_orbital_loop(self, cfg, data):
        d, n_el = cfg.sites, cfg.electrons
        waves = bands._plane_waves(d, bands._momenta(n_el))
        for row, n in zip(waves, bands._momenta(n_el)):
            want = reference_plane_wave(d, n).tobytes()
            assert row.tobytes() == want
            assert plane_wave(d, n).tobytes() == want
        w = bands._w_rows(cfg, range(n_el))
        drawn = data.draw(st.lists(st.integers(0, n_el - 1), max_size=3))
        labels = {0, n_el - 1, *drawn}
        for s in sorted(labels):
            want = reference_w_orbital(cfg, s)
            assert np.abs(w[s] - want).max() <= W_TOL
            assert np.abs(w_orbital(cfg, s) - want).max() <= W_TOL
        sea = fermi_sea(cfg).orbitals
        assert sea.flags.c_contiguous
        assert sea.tobytes() == np.column_stack(list(waves)).tobytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(cfg=lattices(41), outcome=st.sampled_from([0, 1]))
    def test_post_state_matches_column_by_column(self, cfg, outcome):
        if outcome == 0 and cfg.electrons == cfg.sites:
            with pytest.raises(ImpossibleOutcome):
                measure_origin(cfg, outcome)
            return
        _, post, profile = measure_origin(cfg, outcome)
        assert post.orbitals.flags.c_contiguous
        want = reference_measure_origin(cfg, outcome)
        assert np.abs(post.orbitals - want).max() <= W_TOL

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(cfg=lattices(1001))
    def test_closed_form_array_matches_scalar_calls(self, cfg):
        x = centered_positions(cfg.sites)
        scalars = [closed_form_w0(cfg, int(xi)) for xi in x]
        assert closed_form_w0(cfg, x).tobytes() == np.array(scalars).tobytes()


class TestExchangeHole:
    """The density change relative to the uniform sea: outcome 1 piles
    1 - nu onto the origin and digs the exchange hole around it, outcome 0
    empties the origin and pushes that weight outward."""

    def test_occupied_outcome_shape(self):
        cfg = LatticeConfig(15, 7)
        nu = cfg.filling
        profile = measure_origin(cfg, 1)[2]
        x, change = profile.x, profile.density_after - profile.density_before
        at = {int(xi): c for xi, c in zip(x, change)}
        assert at[0] == pytest.approx(1 - nu, abs=1e-10)
        assert at[1] < 0 and at[-1] < 0
        assert np.sum(change) == pytest.approx(0.0, abs=1e-10)

    def test_empty_outcome_shape(self):
        cfg = LatticeConfig(15, 7)
        nu = cfg.filling
        profile = measure_origin(cfg, 0)[2]
        x, change = profile.x, profile.density_after - profile.density_before
        at = {int(xi): c for xi, c in zip(x, change)}
        assert at[0] == pytest.approx(-nu, abs=1e-10)
        assert at[1] > 0 and at[-1] > 0
        assert np.sum(change) == pytest.approx(0.0, abs=1e-10)

    def test_outcomes_oppose_near_origin(self):
        cfg = LatticeConfig(9, 3)
        up, down = (measure_origin(cfg, o)[2] for o in (1, 0))
        up, down = (p.density_after - p.density_before for p in (up, down))
        center = (9 - 1) // 2
        for offset in (-1, 0, 1):
            assert up[center + offset] * down[center + offset] < 0
