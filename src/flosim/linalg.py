"""Dense complex linear algebra shared by the whole package.

Everything here operates on plain numpy arrays and returns new arrays;
inputs are never modified.  Sizes stay small (a few dozen modes at most),
so the implementations favour clarity and testability over speed.
"""

import numpy as np

from .errors import (
    ANTISYM_TOL, HERMITIAN_TOL, PAIR_REL_TOL, RANK_TOL, TOPSPACE_TOL,
    NonSquare, NotAntisymmetric, NotHermitian, OddDimension, RankDeficient,
)


def as_complex_matrix(m):
    """Coerce to a 2-d complex ndarray and reject non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {a.ndim}")
    require_finite(a)
    return a


def require_finite(a):
    """Reject an array holding NaN or infinite entries."""
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")


def row_norms(x):
    """np.linalg.norm of every row of a 2-d complex array, bit for bit.

    norm adds two real dot products over the strided .real and .imag
    views; np.vecdot on the same views rounds the same way, while
    norm(axis=1), einsum and contiguous .real copies do not.
    """
    re, im = x.real, x.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def _require_square(a, what):
    if a.shape[0] != a.shape[1]:
        raise NonSquare(f"{what} needs a square matrix, got shape {a.shape}")


def orthonormalize(cols):
    """Orthonormalize the columns of a matrix, keeping the column span.

    The change of basis is upper triangular with positive real diagonal,
    so the first output column is the normalized first input column and
    every prefix of the output spans the matching prefix of the input.

    Raises RankDeficient when the smallest singular value is at or below
    RANK_TOL.
    """
    a = as_complex_matrix(cols)
    if a.shape[1] == 0:
        return a.copy()
    smallest = np.linalg.svd(a, compute_uv=False)[-1]
    if smallest <= RANK_TOL:
        raise RankDeficient(
            f"smallest singular value {smallest:.3e} is at or below {RANK_TOL:.1e}"
        )
    q, r = np.linalg.qr(a)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases[np.newaxis, :]


def determinant(m):
    """Determinant of a square complex matrix (1 for the 0x0 matrix)."""
    a = as_complex_matrix(m)
    _require_square(a, "determinant")
    if a.shape[0] == 0:
        return 1.0 + 0.0j
    return complex(np.linalg.det(a))


def hermitian_fault(a):
    """The fault of a square complex matrix whose deviation ||a - a^H||_F
    exceeds HERMITIAN_TOL, as one message, else None: every generator
    check's one comparison."""
    dev = np.linalg.norm(a - a.conj().T)
    if dev > HERMITIAN_TOL:
        return f"deviation from Hermiticity {dev:.3e} exceeds {HERMITIAN_TOL:.1e}"
    return None


def one_body_unitaries(bs, taus):
    """exp(-i b_k tau_k) of a (K, D, D) stack of Hermitian b_k and K
    times tau_k: one eigendecomposition, one phase product and one
    matmul for the whole stack, unchecked.

    numpy's stacked eigh and matmul call LAPACK and BLAS once per
    matrix, and the phase product works entry by entry, so each unitary
    is bit for bit the one the stack of that matrix alone gives.
    """
    # An overflow or an infinite tau gives, silently, a NaN that check_unitary rejects.
    with np.errstate(all="ignore"):
        sym = (bs + bs.conj().swapaxes(-1, -2)) / 2
        evals, vecs = np.linalg.eigh(sym)
        phases = np.exp(-1j * evals * np.asarray(taus)[:, np.newaxis])
        return (vecs * phases[:, np.newaxis, :]) @ vecs.conj().swapaxes(-1, -2)


def one_body_unitary(b, tau):
    """exp(-i b tau) for Hermitian b, via eigendecomposition: the
    one-matrix case of one_body_unitaries, after its checks (finite,
    square, Hermitian within HERMITIAN_TOL).

    This is the single-particle evolution matrix of a quadratic
    Hamiltonian held constant for a time tau.
    """
    a = as_complex_matrix(b)
    _require_square(a, "one_body_unitary")
    if fault := hermitian_fault(a):
        raise NotHermitian(fault)
    return one_body_unitaries(a[np.newaxis], [tau])[0]


def antisymmetric_part(w, what, even=False):
    """(w - w^T) / 2 of a finite square (its error naming `what`), with
    even even-dimensional, antisymmetric to ANTISYM_TOL matrix w."""
    a = as_complex_matrix(w)
    _require_square(a, what)
    if even and a.shape[0] % 2 != 0:
        raise OddDimension(f"Pfaffian needs even dimension, got {a.shape[0]}")
    dev = np.linalg.norm(a + a.T)
    if dev > ANTISYM_TOL:
        raise NotAntisymmetric(f"deviation from antisymmetry {dev:.3e} exceeds {ANTISYM_TOL:.1e}")
    return (a - a.T) / 2


def pair_floor(largest):
    """The relative floor of a pair modulus: PAIR_REL_TOL max(1, largest)."""
    return PAIR_REL_TOL * max(1.0, largest)


def _pfaffian_expansion(a, idx=None):
    # First-row expansion over rows and columns idx of a (default all):
    # Pf = sum_j (-1)^j A[i0, j] Pf(idx without i0, j), signs starting
    # positive at the second index.  Minors index a; none is copied.
    idx = tuple(range(a.shape[0])) if idx is None else idx
    if not idx:
        return 1.0 + 0.0j
    if len(idx) == 2:
        return a[idx]
    acc = 0.0 + 0.0j
    first, rest = idx[0], idx[1:]
    for pos, j in enumerate(rest):
        if a[first, j] == 0.0:
            continue
        sign = 1.0 if pos % 2 == 0 else -1.0
        acc += sign * a[first, j] * _pfaffian_expansion(a, rest[:pos] + rest[pos + 1:])
    return acc


def _pfaffian_elimination(a):
    # Skew-symmetric Gaussian elimination with partial pivoting.  Each
    # 2x2 block contributes its off-diagonal entry; row/column swaps
    # flip the sign.
    a = a.copy()
    n = a.shape[0]
    pf = 1.0 + 0.0j
    for k in range(0, n - 1, 2):
        col = np.abs(a[k + 1:, k])
        p = k + 1 + int(np.argmax(col))
        if np.abs(a[p, k]) == 0.0:
            return 0.0 + 0.0j
        if p != k + 1:
            a[[k + 1, p], :] = a[[p, k + 1], :]
            a[:, [k + 1, p]] = a[:, [p, k + 1]]
            pf = -pf
        pf *= a[k, k + 1]
        for i in range(k + 2, n):
            f = a[i, k] / a[k + 1, k]
            a[i, :] -= f * a[k + 1, :]
            a[:, i] -= f * a[:, k + 1]
            g = a[i, k + 1] / a[k, k + 1]
            a[i, :] -= g * a[k, :]
            a[:, i] -= g * a[:, k]
    return pf


def pfaffian(w):
    """Pfaffian of an even-dimensional antisymmetric matrix.

    Satisfies pfaffian(w)**2 == determinant(w).  Small matrices use the
    combinatorial first-row expansion; larger ones use skew elimination
    with partial pivoting.
    """
    a = antisymmetric_part(w, "pfaffian", even=True)
    if a.shape[0] <= 8:
        return complex(_pfaffian_expansion(a))
    return complex(_pfaffian_elimination(a))


def complement_basis(vectors, dim):
    """Orthonormal basis of the orthogonal complement of the given vectors.

    vectors is a sequence of length-dim arrays assumed orthonormal; the
    result has shape (dim, dim - len(vectors)).
    """
    vecs = [np.asarray(v, dtype=complex) for v in vectors]
    if not vecs:
        return np.eye(dim, dtype=complex)
    m = np.conj(np.array(vecs))
    _, _, vh = np.linalg.svd(m, full_matrices=True)
    return vh.conj().T[:, len(vecs):]


def antisym_canonical(w):
    """Bring an antisymmetric matrix to its paired canonical form.

    Returns (U, pairs) with U unitary such that U w U^T is block
    diagonal: one 2x2 block [[0, z], [-z, 0]] per entry z of pairs
    (ordered by descending modulus), followed by zeros.  The moduli
    |z| are the doubly degenerate singular values of w.

    The construction walks down the singular values of w, one SVD of w
    restricted to the complement of the rows found so far per pair: a
    top right singular vector v1 is paired with v2 = -conj(w v1)/|w v1|,
    which is automatically orthogonal to v1 and closes a 2x2 block
    exactly.  Singular values within TOPSPACE_TOL of the top one,
    relative, count as its space; pairs at or below pair_floor of the
    largest end the walk.
    """
    a = antisymmetric_part(w, "antisym_canonical")
    n = a.shape[0]
    if n == 0:
        return np.eye(0, dtype=complex), []
    floor = pair_floor(float(np.linalg.norm(a, 2)))

    rows = []
    pairs = []
    while n - len(rows) >= 2:
        comp = complement_basis(rows, n)
        _, sv, vh = np.linalg.svd(a @ comp, full_matrices=False)
        if sv[0] <= floor:
            break
        topspace = vh[sv >= sv[0] * (1 - TOPSPACE_TOL)].conj().T
        # Deterministic representative of the top singular space: project
        # the standard basis vectors and keep the first sizable one.
        proj = topspace @ (topspace.conj().T @ comp.conj().T)
        norms = np.linalg.norm(proj, axis=0)
        j = int(np.argmax(norms >= 0.5 * norms.max()))
        v1 = comp @ (proj[:, j] / norms[j])
        u = a @ v1
        sigma = float(np.linalg.norm(u))
        if sigma <= floor:
            break
        v2 = -np.conj(u) / sigma
        for r in rows + [v1]:
            v2 -= np.vdot(r, v2) * r
        v2 /= np.linalg.norm(v2)
        z = complex(v1 @ a @ v2)
        rows.extend([v1, v2])
        pairs.append(z)
    comp = complement_basis(rows, n)
    rows.extend(comp[:, j] for j in range(comp.shape[1]))
    return np.array(rows), pairs
