"""Dense occupation-number-basis simulator used as ground truth.

A many-body basis state is an integer bitmask: bit m (bit 0 least
significant) holds the occupation of mode m.  The creation string
a_0^dag a_1^dag ... a_{N-1}^dag |0> has amplitude +1 on the mask with
the lowest N bits set, and a_m^dag acting on a mask carries the sign
(-1)^(number of occupied modes below m).  That single choice anchors
every sign convention in the package.

A determinant's amplitudes are its row-set minors (Terhal & DiVincenzo):
_minors takes all C(D, N) of them by one Laplace recursion over the
subset lattice, each k-row minor from k minors one row smaller, and
expand, expand_sums and unitary_apply share it.  expand_sums expands a
list of sums in one streamed pass, its calls cut across the sums'
edges; expand_sum is its one-sum case.

A measurement outcome group of one mode or of two orthogonal modes is
projected by one kernel, _group_projection, from ladder-operator
products; the public two_mode_projector_apply is its checked
one-outcome two-mode case.

Dense vectors are capped at 12 modes and density matrices at 8, which
keeps everything desk sized.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, product
from math import comb

import numpy as np

from .errors import (
    DENSITY_HERMITIAN_TOL,
    DimensionMismatch, FlosimError, NotHermitian, TooManyModes, ZeroVector,
)
from .linalg import hermitian_fault
from .slater import check_mode, check_modes, check_unitary

VECTOR_MODE_CAP = 12
DENSITY_MODE_CAP = 8
MINOR_BATCH = 4096  # most minors in one layer of a _minors call: caps its scratch


@dataclass(frozen=True)
class FockVector:
    """Amplitudes over all 2^modes occupation basis states."""

    modes: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (1 << self.modes,):
            raise DimensionMismatch(
                f"amplitude vector has shape {amps.shape}, expected ({1 << self.modes},)"
            )
        if not np.all(np.isfinite(amps)):
            raise FlosimError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _checked(cls, modes, amplitudes):
        """A vector computed from validated inputs, skipping the checks."""
        vec = object.__new__(cls)
        object.__setattr__(vec, "modes", modes)
        object.__setattr__(vec, "amplitudes", amplitudes)
        return vec


@dataclass(frozen=True)
class FockDensity:
    """Dense density matrix over the occupation basis (Hermitian)."""

    modes: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        dim = 1 << self.modes
        if mat.shape != (dim, dim):
            raise DimensionMismatch(
                f"density matrix has shape {mat.shape}, expected ({dim}, {dim})"
            )
        if not np.all(np.isfinite(mat)):
            raise FlosimError("density entries must be finite")
        dev = np.linalg.norm(mat - mat.conj().T)
        if dev > DENSITY_HERMITIAN_TOL:
            raise NotHermitian(f"density deviates from Hermiticity by {dev:.3e}")
        object.__setattr__(self, "matrix", mat)


def _check_vector_cap(d):
    if d > VECTOR_MODE_CAP:
        raise TooManyModes(f"dense vectors support at most {VECTOR_MODE_CAP} modes, got {d}")


def _check_density_cap(d):
    if d > DENSITY_MODE_CAP:
        raise TooManyModes(
            f"dense density matrices support at most {DENSITY_MODE_CAP} modes, got {d}"
        )


@lru_cache(maxsize=None)
def _popcounts(d):
    masks = np.arange(1 << d)
    counts = np.zeros(1 << d, dtype=np.int64)
    for m in range(d):
        counts += (masks >> m) & 1
    counts.setflags(write=False)
    return counts


@lru_cache(maxsize=None)
def _masks_by_weight(d):
    counts = _popcounts(d)
    return tuple(np.flatnonzero(counts == k) for k in range(d + 1))


@lru_cache(maxsize=None)
def _occupied_modes(d, k):
    """(C(d, k), k) array: the set bits of each weight-k mask, ascending."""
    rows = [[m for m in range(d) if (mask >> m) & 1] for mask in _masks_by_weight(d)[k]]
    out = np.array(rows, dtype=np.intp).reshape(len(rows), k)
    out.setflags(write=False)
    return out


def _scaled(amp, z):
    """amp * z entrywise, rounded as the scalar complex product.

    numpy's vectorized complex multiply may fuse multiply-adds and so
    differ in the last bit from the scalar a * b; spelling out the real
    and imaginary parts keeps every entry equal to the scalar product.
    """
    a, b = amp.real, amp.imag
    zr, zi = z.real, z.imag
    out = np.empty_like(z)
    out.real = a * zr - b * zi
    out.imag = a * zi + b * zr
    return out


def vacuum(d):
    _check_vector_cap(d)
    amps = np.zeros(1 << d, dtype=complex)
    amps[0] = 1.0
    return FockVector._checked(d, amps)


def basis_vector(d, mask):
    _check_vector_cap(d)
    amps = np.zeros(1 << d, dtype=complex)
    amps[mask] = 1.0
    return FockVector._checked(d, amps)


@lru_cache(maxsize=None)
def _ladder_table(d, m, create):
    """Read-only (src, dst, signs) of a_m^dag (create) or a_m on d modes:
    the operator sends mask src to dst = src with bit m flipped, times
    sign = (-1)^(occupied modes below m)."""
    masks = np.arange(1 << d)
    bit = 1 << m
    src = masks[((masks & bit) != 0) != create]
    table = (src, src ^ bit, 1.0 - 2.0 * (_popcounts(d)[src & (bit - 1)] % 2))
    for arr in table:
        arr.setflags(write=False)
    return table


def _ladder(d, vec, create):
    """The walk of a_vec^dag (create) or a_vec over the basis masks.

    Yields, per mode m that vec touches, (coefficient, src, dst, signs)
    with m's cached table, where the coefficient is vec[m] or its
    conjugate.
    """
    for m in range(d):
        coef = vec[m] if create else np.conj(vec[m])
        if coef != 0.0:
            yield (coef, *_ladder_table(d, m, create))


def _ladder_apply(amps, d, vec, create):
    out = np.zeros_like(amps)
    for coef, src, dst, signs in _ladder(d, vec, create):
        out[dst] += coef * signs * amps[src]
    return out


def creation_op_apply(v, mode):
    """Apply a_mode^dag, the creation operator of an arbitrary mode vector."""
    vec = check_mode(mode, v.modes)
    return FockVector._checked(v.modes, _ladder_apply(v.amplitudes, v.modes, vec, True))


def annihilation_op_apply(v, mode):
    """Apply a_mode, the annihilation operator of an arbitrary mode vector."""
    vec = check_mode(mode, v.modes)
    return FockVector._checked(v.modes, _ladder_apply(v.amplitudes, v.modes, vec, False))


def _accumulate(total, scales, images):
    """total + scales[0] * images[0] + scales[1] * images[1] + ...,
    entrywise and added in row order, each product as numpy's vectorized
    scalar-times-array multiply rounds it.

    numpy adds the rows of a 2-D reduce one after another, but sums a
    single column pairwise; reducing the float view (real and imaginary
    parts side by side) keeps at least two columns.
    """
    rows = np.empty((len(images) + 1, len(total)), dtype=complex)
    rows[0] = total
    np.multiply(scales[:, None], images, out=rows[1:])
    return np.add.reduce(rows.view(float), axis=0).view(complex)


@lru_cache(maxsize=None)
def _laplace_table(d, k):
    """Read-only (rows, sub, signs) of _minors' step k >= 2 on d rows:
    the k-row minor of the first k columns on the i-th weight-k row set
    r_0 < ... < r_{k-1} is sum_j signs[j] a[rows[j, i], k-1] M[sub[j, i]],
    with rows[j, i] = r_j, sub[j, i] the position of r without r_j among
    the weight-(k-1) row sets, M their minors of the first k - 1
    columns, and signs[j] = (-1)^(j+k-1)."""
    rows = np.ascontiguousarray(_occupied_modes(d, k).T)
    sub = np.searchsorted(_masks_by_weight(d)[k - 1], _masks_by_weight(d)[k] ^ (1 << rows))
    table = (rows, sub, 1.0 - 2.0 * ((np.arange(k) + k - 1) % 2))
    for arr in table:
        arr.setflags(write=False)
    return table


def _minors(a):
    """(T, C(D, N)) row-set minors det(a[t][r, :]) of a (T, D, N) stack,
    N >= 1, over the weight-N row sets r in ascending mask order.

    One Laplace recursion over the subset lattice: column 0's entries are
    the one-row minors, and step k expands every k-row minor of the first
    k columns along column k - 1 over the (k-1)-row minors just taken
    (_laplace_table).  So each minor is shared by every row set above
    it, where a factorization per minor took C(D, N) N^3 / 3.  A step
    forms its k terms as one contiguous (k, C(D, k), T) product, which
    numpy's vectorized complex multiply rounds the same whatever the
    shape, and adds them in j order, the sign applied by negating the
    first term or subtracting a later one.  The inputs have orthonormal
    columns, so by Hadamard's bound no minor exceeds 1 in modulus and
    each step adds k rounded products: the error stays O(N^2 eps)
    absolute.
    """
    d, n = a.shape[1:]
    cols = a.transpose(2, 1, 0)
    minors = cols[0]
    for k in range(2, n + 1):
        rows, sub, signs = _laplace_table(d, k)
        terms = cols[k - 1].take(rows, axis=0)
        terms *= minors.take(sub, axis=0)
        minors = terms[0]
        if signs[0] < 0:
            np.negative(minors, out=minors)
        for term, sign in zip(terms[1:], signs[1:]):
            (np.add if sign > 0 else np.subtract)(minors, term, out=minors)
    return minors.T


def _chunk(d, n):
    """Matrices per _minors call: the recursion's widest layer, C(D, k)
    minors at k = min(N, D // 2), times the matrices stays within
    MINOR_BATCH, or one matrix."""
    return max(1, MINOR_BATCH // comb(d, min(n, d // 2)))


def _scaled_minors(n, amps, orbitals):
    """(T, C(D, N)) rows: row t is amps[t] * det(orbitals[t][r, :]) over
    the weight-n row sets r in ascending mask order, each minor from
    _minors and the amplitude's product rounded as the scalar complex
    product (the N = 0 "minor" is the amplitude itself)."""
    if n == 0:
        return amps[:, None].copy()
    return _scaled(amps[:, None], _minors(orbitals))


def _finite_amps(d, amps):
    """amps as a complex array, after the mode cap; FlosimError unless
    every one is finite."""
    _check_vector_cap(d)
    amps = np.asarray(amps, dtype=complex)
    if not np.all(np.isfinite(amps)):
        raise FlosimError("amplitudes must be finite")
    return amps


def expand(s):
    """Expand a SlaterState into the occupation basis.

    The amplitude on a sorted index set is the state's amplitude times
    the determinant of the selected orbital rows, which reproduces the
    creation-operator ordering convention above: the one-term case of
    expand_sums' rows, without a coefficient.
    """
    d, n = s.modes, s.electrons
    amp = _finite_amps(d, [s.amplitude])
    out = np.zeros(1 << d, dtype=complex)
    if amp[0] != 0.0:
        out[_masks_by_weight(d)[n]] = _scaled_minors(n, amp, s.orbitals[None])[0]
    return FockVector._checked(d, out)


def expand_sum(ssum):
    """Expand a determinant sum, sum_t coeff_t * expand(term_t): the
    one-sum case of expand_sums."""
    return expand_sums([ssum])[0]


def expand_sums(sums):
    """[expand_sum(s) for s in sums], bit for bit, from one streamed pass
    over sums of one mode count D and electron count N.

    The sums' terms are walked in order, as one stream, and cut into
    _minors calls of _chunk(D, N) terms, so that a call may span the end
    of one sum and the start of the next, and its widest recursion layer
    stays within MINOR_BATCH minors; only one call's orbitals are
    concatenated at a time.  Each term's row of minors is scaled by its
    amplitude (entry by entry) and by its coefficient, and added to its
    sum's running total in term order, so every total is bit for bit
    the term-by-term loop 0 + c_0 x_0 + c_1 x_1 + ...: _minors rounds
    each matrix the same in any batch, and a sum's first row in a call
    takes its running total (0 at its first term) in one add, then the
    rest follow it in an axis-0 reduce, one row after another, so a sum
    cut at a call's edge adds the same sequence.  Only the weight-N
    entries are touched, as every other entry of that loop stays +0.
    """
    sums = list(sums)
    if not sums:
        return []
    d, n = sums[0].modes, sums[0].electrons
    if any((s.modes, s.electrons) != (d, n) for s in sums):
        raise DimensionMismatch("expand_sums needs sums of one mode and electron count")
    amps = _finite_amps(d, [amp for s in sums for amp in s.amps])
    coeffs = np.array([coeff for s in sums for coeff in s.coeffs], dtype=complex)
    begins = list(accumulate((s.term_count for s in sums), initial=0))
    totals = np.zeros((len(sums), comb(d, n)), dtype=complex)
    step = _chunk(d, n)
    for start in range(0, len(amps), step):
        stop = min(start + step, len(amps))
        # (sum, its first and end row) of each sum with terms in the call
        pieces = [(k, max(begins[k], start) - start, min(begins[k + 1], stop) - start)
                  for k in range(bisect_right(begins, start) - 1, bisect_left(begins, stop))
                  if begins[k] < begins[k + 1]]
        orbitals = np.concatenate([sums[k].orbitals[start + a - begins[k] : start + b - begins[k]]
                                   for k, a, b in pieces])
        rows = np.empty((stop - start, totals.shape[1]), dtype=complex)
        np.multiply(coeffs[start:stop, None], _scaled_minors(n, amps[start:stop], orbitals),
                    out=rows)
        ks, firsts, _ = zip(*pieces)
        rows[list(firsts)] += totals[list(ks)]
        for k, a, b in pieces:
            totals[k] = np.add.reduce(rows[a:b].view(float), axis=0).view(complex)
    out = np.zeros((len(sums), 1 << d), dtype=complex)
    out[:, _masks_by_weight(d)[n]] = totals
    return [FockVector._checked(d, vec) for vec in out]


def unitary_apply(v, u):
    """Apply the one-body unitary u (a_j^dag -> sum_i u_ij a_i^dag) densely.

    Basis mask c of weight k maps to the determinant of its columns of
    u, whose amplitude on mask r is the minor det(u[rows_r, cols_c]): a
    column of the k-th compound matrix of u.  Only the blocks v occupies
    are visited.  A block's minors come from _minors over the stack of
    the column sets v occupies, u[:, cols_c], in chunks whose widest
    recursion layer holds at most MINOR_BATCH minors, and each chunk's
    amplitude-scaled images are added to the block's entries
    only, in ascending mask order.  That is the same sum, bit for bit, as
    one pass of full-length images over all masks in ascending order: an
    image is zero off its own block, and adding a signed zero cannot
    change an entry that started at +0.
    """
    _check_vector_cap(v.modes)
    return _rotated(v, check_unitary(u, v.modes)[0])


def _rotated(v, mat):
    """unitary_apply's kernel, for a unitary mat that check_unitary has
    already passed against v's modes."""
    d = v.modes
    amps = v.amplitudes
    out = np.zeros_like(amps)
    out[0] += amps[0]  # the vacuum is invariant
    sectors = np.bincount(_popcounts(d)[amps != 0], minlength=d + 1)
    for k in range(1, d + 1):
        if not sectors[k]:
            continue
        basis = _masks_by_weight(d)[k]
        occ = _occupied_modes(d, k)
        present = np.flatnonzero(amps[basis])
        step = _chunk(d, k)
        for start in range(0, len(present), step):
            chunk = present[start : start + step]
            minors = _minors(mat[:, occ[chunk]].transpose(1, 0, 2))
            # _scaled(1.0, .) rounds the images as expand rounds 1.0 * det
            out[basis] = _accumulate(out[basis], amps[basis[chunk]], _scaled(1.0, minors))
    return FockVector._checked(d, out)


def _hermitian_checked(b, d):
    mat = np.asarray(b, dtype=complex)
    if mat.shape != (d, d):
        raise DimensionMismatch(f"generator has shape {mat.shape}, expected ({d}, {d})")
    if fault := hermitian_fault(mat):
        raise NotHermitian(f"generator {fault}")
    return (mat + mat.conj().T) / 2


def _block_hamiltonian(d, k, b):
    basis = _masks_by_weight(d)[k]
    index = {int(mask): pos for pos, mask in enumerate(basis)}
    pops = _popcounts(d)
    h = np.zeros((len(basis), len(basis)), dtype=complex)
    for pos, mask in enumerate(basis):
        mask = int(mask)
        for j in range(d):
            bit_j = 1 << j
            if not mask & bit_j:
                continue
            sign_j = -1.0 if pops[mask & (bit_j - 1)] % 2 else 1.0
            inter = mask ^ bit_j
            for i in range(d):
                bit_i = 1 << i
                if inter & bit_i:
                    continue
                if b[i, j] == 0.0:
                    continue
                sign_i = -1.0 if pops[inter & (bit_i - 1)] % 2 else 1.0
                h[index[inter | bit_i], pos] += b[i, j] * sign_j * sign_i
    return basis, h


def one_body_generator_apply(v, b):
    """Apply the many-body operator sum_ij b_ij a_i^dag a_j once."""
    _check_vector_cap(v.modes)
    mat = _hermitian_checked(b, v.modes)
    out = np.zeros_like(v.amplitudes)
    for k in range(v.modes + 1):
        basis = _masks_by_weight(v.modes)[k]
        if not v.amplitudes[basis].any():  # the block maps zero to zero
            continue
        out[basis] = _block_hamiltonian(v.modes, k, mat)[1] @ v.amplitudes[basis]
    return FockVector(v.modes, out)


def one_body_apply(v, b, tau):
    """Evolve a dense vector under exp(-i tau sum_ij b_ij a_i^dag a_j).

    The exponential is taken per particle-number block, so particle
    number is conserved by construction.
    """
    _check_vector_cap(v.modes)
    mat = _hermitian_checked(b, v.modes)
    out = v.amplitudes.copy()
    for k in range(v.modes + 1):
        basis, h = _block_hamiltonian(v.modes, k, mat)
        evals, vecs = np.linalg.eigh(h)
        comp = vecs.conj().T @ out[basis]
        out[basis] = vecs @ (np.exp(-1j * evals * tau) * comp)
    return FockVector(v.modes, out)


def _group_projection(amps, d, modes, group):
    """amps projected onto total occupation in group, a collection of
    outcomes 0 to len(modes), of the modes (kap,) or (kap, lam): the one
    projection kernel.  Unchecked: the modes must be mode vectors
    check_modes has passed for d modes (unit and orthogonal).

    A mode's occupation projector is a_k a_k^dag (empty) or a_k^dag a_k
    (filled), two ladder applies, and a single outcome sums the products
    over the fillings of the modes with that many filled, the last
    mode's projector applied first (two_mode_projector_apply lists
    them): 2 applies for either one-mode outcome, 4 for P0 and P2 and 8
    for P1.  As P0 + P1 + P2 = 1 on orthonormal modes, {0, 1} is
    amps - P2 amps and {1, 2} is amps - P0 amps, 4 applies each; {0, 2}
    is P0 amps + P2 amps, and every outcome together is a copy of amps.
    """

    def single(outcome):
        images = []
        for filling in product((False, True), repeat=len(modes)):
            if sum(filling) == outcome:
                a = amps
                for vec, filled in zip(modes[::-1], filling[::-1]):
                    a = _ladder_apply(_ladder_apply(a, d, vec, not filled), d, vec, filled)
                images.append(a)
        return sum(images[1:], images[0])

    group = sorted(set(group))
    if group == list(range(len(modes) + 1)):
        return amps.copy()
    if group in ([0, 1], [1, 2]):
        return amps - single(2 if group[0] == 0 else 0)
    return sum(map(single, group[1:]), single(group[0]))


def two_mode_projector_apply(v, kappa, lam, outcome):
    """Project onto total occupation 0, 1 or 2 of two orthogonal modes.

    The projectors are built operator by operator:
      P0 = a_k a_k^dag a_l a_l^dag
      P2 = a_k^dag a_k a_l^dag a_l
      P1 = a_k a_k^dag a_l^dag a_l + a_k^dag a_k a_l a_l^dag
    This is the checked one-outcome (kap, lam) case of _group_projection.
    """
    kap, lamv = check_modes(v.modes, kappa, lam)
    if outcome not in (0, 1, 2):
        raise ValueError(f"outcome must be 0, 1 or 2, got {outcome}")
    out = _group_projection(v.amplitudes, v.modes, (kap, lamv), [outcome])
    return FockVector._checked(v.modes, out)


def creation_matrix(d, mode):
    """Dense matrix of a_mode^dag on the full Fock space."""
    _check_density_cap(d)
    vec = check_mode(mode, d)
    mat = np.zeros((1 << d, 1 << d), dtype=complex)
    for coef, src, dst, signs in _ladder(d, vec, True):
        mat[dst, src] += coef * signs
    return mat


def density_from_vector(v, normalize=False):
    """Rank-one density matrix |v><v| (optionally normalized to trace 1)."""
    _check_density_cap(v.modes)
    amps = v.amplitudes
    if normalize:
        norm = np.linalg.norm(amps)
        if norm == 0.0:
            raise ZeroVector("cannot normalize the zero vector")
        amps = amps / norm
    return FockDensity(v.modes, np.outer(amps, np.conj(amps)))


def trace_out_channel(rho, zeta):
    """Decohere mode zeta: rho -> A1 rho A1^dag + A2 rho A2^dag.

    A1 = a_z a_z^dag and A2 = a_z^dag a_z are the Kraus operators of the
    channel that measures the occupation of zeta and forgets the result.
    Trace and positivity are preserved.
    """
    _check_density_cap(rho.modes)
    cmat = creation_matrix(rho.modes, zeta)
    amat = cmat.conj().T
    a1 = amat @ cmat
    a2 = cmat @ amat
    out = a1 @ rho.matrix @ a1.conj().T + a2 @ rho.matrix @ a2.conj().T
    return FockDensity(rho.modes, out)


def inner(v1, v2):
    """<v1|v2> on the occupation basis."""
    if v1.modes != v2.modes:
        raise DimensionMismatch(f"{v1.modes} modes vs {v2.modes}")
    return complex(np.vdot(v1.amplitudes, v2.amplitudes))


def norm(v):
    return float(np.linalg.norm(v.amplitudes))


def fidelity(v1, v2):
    """|<v1|v2>| with both vectors normalized; insensitive to global phase."""
    if v1.modes != v2.modes:
        raise DimensionMismatch(f"{v1.modes} modes vs {v2.modes}")
    n1 = np.linalg.norm(v1.amplitudes)
    n2 = np.linalg.norm(v2.amplitudes)
    if n1 == 0.0 or n2 == 0.0:
        raise ZeroVector("fidelity of a zero vector is undefined")
    return float(abs(np.vdot(v1.amplitudes, v2.amplitudes)) / (n1 * n2))
