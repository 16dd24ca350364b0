"""One-dimensional tight-binding lattice at partial filling.

The ground state fills the plane waves inside the Fermi wavenumber.
Measuring the site occupation at the origin collapses that sea onto
states built from the W orbitals, the discrete Fourier transforms of
the filled plane waves over N evenly spaced centers.  Both measurement
outcomes have closed-form post states, and the site-density profiles
show the exchange hole around the detection point.

Site coordinates are reported centered, x in [-(D-1)/2, (D-1)/2], which
requires D odd; N is kept odd so the filled k-grid is symmetric too.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadConfig, ImpossibleOutcome, IndexOutOfRange
from .slater import SlaterState


@dataclass(frozen=True)
class LatticeConfig:
    """An odd-size periodic chain holding an odd number of electrons."""

    sites: int
    electrons: int

    def __post_init__(self):
        d, n = self.sites, self.electrons
        if d < 1 or d % 2 == 0:
            raise BadConfig(f"site count must be odd and positive, got {d}")
        if n < 1 or n % 2 == 0:
            raise BadConfig(f"electron count must be odd and positive, got {n}")
        if n > d:
            raise BadConfig(f"cannot place {n} electrons on {d} sites")

    @property
    def filling(self):
        return self.electrons / self.sites


def centered_positions(d):
    """Site coordinates in measurement-centered order, ascending."""
    half = (d - 1) // 2
    return np.arange(-half, half + 1)


def plane_wave(d, n):
    """Momentum orbital with k = 2 pi n / d, components e^{ikx}/sqrt(d)."""
    if d < 1 or d % 2 == 0:
        raise BadConfig(f"plane waves need an odd site count, got {d}")
    half = (d - 1) // 2
    if not -half <= n <= half:
        raise IndexOutOfRange(f"momentum index {n} outside [-{half}, {half}]")
    return _plane_waves(d, [n])[0]


def _momenta(n_el):
    """Momentum indices of the N filled plane waves, ascending."""
    half_n = (n_el - 1) // 2
    return range(-half_n, half_n + 1)


def _plane_waves(d, momenta):
    """Row r is the plane wave e^{2 pi i n x / d}/sqrt(d), x = 0..d-1, of
    momentum index n = momenta[r]."""
    n = np.array(momenta)[:, None]
    x = np.arange(d)
    return np.exp(2j * np.pi * n * x / d) / np.sqrt(d)


def fermi_sea(cfg):
    """Ground state of nearest-neighbor hopping: the |n| smallest momenta."""
    waves = _plane_waves(cfg.sites, _momenta(cfg.electrons))
    return SlaterState(waves.T.copy())


def _w_rows(cfg, labels):
    """The W orbitals W_s for s in labels, one per row: the phase grid
    times the plane-wave matrix, one product over the momenta.

    The phase arguments 2 pi i n s / N are one complex array of real
    part 0 and imaginary part ((2 pi n) s) / N in float64: the float
    sequence of Python's 2j*pi*n*s/N, whose divide by a real int divides
    the imaginary part exactly, where numpy's complex divide would
    multiply by a reciprocal.  The product's summation order is BLAS's,
    so a row agrees with the one-orbital loop over momenta in rounding
    only.
    """
    n_el = cfg.electrons
    momenta = np.array(_momenta(n_el))
    waves = _plane_waves(cfg.sites, momenta)
    args = np.zeros((len(momenta), len(labels)), dtype=complex)
    args.imag = (2 * np.pi * momenta[:, None]) * np.array(labels) / n_el
    phases = np.exp(args)
    return (phases.T @ waves) / np.sqrt(n_el)


def w_orbital(cfg, s):
    """The s-th localized combination of the filled plane waves.

    W_s = (1/sqrt(N)) sum_n e^{2 pi i n s / N} |k_n>, an orthonormal
    family for s = 0..N-1 spanning exactly the Fermi-sea space.  W_0
    peaks at the origin with amplitude sqrt(filling) there.  It is the
    W kernel's row for the one label s.
    """
    n_el = cfg.electrons
    if not 0 <= s < n_el:
        raise IndexOutOfRange(f"orbital label {s} outside 0..{n_el - 1}")
    return _w_rows(cfg, [s])[0]


def closed_form_w0(cfg, x):
    """Large-lattice form sin(pi nu x)/(pi sqrt(nu) x) of the W_0 profile.

    Takes a scalar or array of site coordinates; the removable x = 0
    value is sqrt(nu).  The exact finite-lattice orbital approaches this
    as the site count grows at fixed filling.
    """
    nu = cfg.filling
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.full(arr.shape, np.sqrt(nu))
    nz = arr != 0
    out[nz] = np.sin(np.pi * nu * arr[nz]) / (np.pi * np.sqrt(nu) * arr[nz])
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class BandProfile:
    """Per-site table, ordered by centered coordinate."""

    x: np.ndarray
    first_orbital: np.ndarray
    density_before: np.ndarray
    density_after: np.ndarray


def _site_density(orbitals):
    return np.sum(np.abs(orbitals) ** 2, axis=1)


def measure_origin(cfg, outcome):
    """Collapse the Fermi sea on the occupation of the origin site.

    Returns (probability, post, profile).  Outcome 1 localizes one
    electron at the origin next to the remaining W orbitals; outcome 0
    replaces W_0 by the in-span vector orthogonal to the origin, which
    vanishes there.  Both constructions are exact, no generic
    measurement machinery involved.
    """
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    d, n = cfg.sites, cfg.electrons
    nu = cfg.filling
    origin = np.zeros(d, dtype=complex)
    origin[0] = 1.0
    if outcome == 0 and n == d:
        raise ImpossibleOutcome("a completely filled band always answers 1")
    # row s holds W_s; W_0 is replaced by the post state's first orbital
    w = _w_rows(cfg, range(n))
    if outcome == 1:
        probability = n / d
        w[0] = origin
    else:
        probability = 1.0 - n / d
        w[0] = -np.sqrt(nu / (1 - nu)) * origin + w[0] / np.sqrt(1 - nu)
    post = SlaterState(w.T.copy())
    # row r of the profile describes centered coordinate x[r]; sites maps
    # it back to the storage index of the orbital arrays
    x = centered_positions(d)
    sites = np.mod(x, d)
    before = np.full(d, nu)
    after = _site_density(post.orbitals)[sites]
    profile = BandProfile(
        x=x,
        first_orbital=post.orbitals[sites, 0],
        density_before=before,
        density_after=after,
    )
    return probability, post, profile

