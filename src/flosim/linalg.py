"""Dense complex linear algebra shared by the whole package.

Everything here operates on plain numpy arrays and returns new arrays;
inputs are never modified.  Sizes stay small (a few dozen modes at most),
so the implementations favour clarity and testability over speed.
"""

import numpy as np

from .errors import (
    NonSquare,
    NotAntisymmetric,
    NotHermitian,
    OddDimension,
    RankDeficient,
)

# Default tolerances, overridable per call where it matters.
RANK_TOL = 1e-10
HERMITIAN_TOL = 1e-10
ANTISYM_TOL = 1e-10
PAIR_THRESHOLD = 1e-9


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
    views; 1 x L by L x 1 matmuls on the same views round the same way,
    while norm(axis=1), einsum and contiguous .real copies do not.
    """
    re, im = x.real, x.imag
    squares = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
    return np.sqrt(squares[:, 0, 0])


def _require_square(a, what):
    if a.shape[0] != a.shape[1]:
        raise NonSquare(f"{what} needs a square matrix, got shape {a.shape}")


def orthonormalize(cols, rank_tol=RANK_TOL):
    """Orthonormalize the columns of a matrix, keeping the column span.

    The change of basis is upper triangular with positive real diagonal,
    so the first output column is the normalized first input column and
    every prefix of the output spans the matching prefix of the input.

    Raises RankDeficient when the smallest singular value is at or below
    rank_tol.
    """
    a = as_complex_matrix(cols)
    if a.shape[1] == 0:
        return a.copy()
    smallest = np.linalg.svd(a, compute_uv=False)[-1]
    if smallest <= rank_tol:
        raise RankDeficient(
            f"smallest singular value {smallest:.3e} is at or below {rank_tol:.1e}"
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


def one_body_unitary(b, tau, herm_tol=HERMITIAN_TOL):
    """exp(-i b tau) for Hermitian b, via eigendecomposition.

    This is the single-particle evolution matrix of a quadratic
    Hamiltonian held constant for a time tau.
    """
    a = as_complex_matrix(b)
    _require_square(a, "one_body_unitary")
    dev = np.linalg.norm(a - a.conj().T)
    if dev > herm_tol:
        raise NotHermitian(f"deviation from Hermiticity {dev:.3e} exceeds {herm_tol:.1e}")
    sym = (a + a.conj().T) / 2
    evals, vecs = np.linalg.eigh(sym)
    return (vecs * np.exp(-1j * evals * tau)[np.newaxis, :]) @ vecs.conj().T


def _check_antisymmetric(a, tol):
    dev = np.linalg.norm(a + a.T)
    if dev > tol:
        raise NotAntisymmetric(f"deviation from antisymmetry {dev:.3e} exceeds {tol:.1e}")


def _pfaffian_expansion(a):
    # First-row expansion: Pf(A) = sum_j (-1)^j A[0, j] Pf(A without rows/cols 0, j)
    # with alternating signs starting positive at j = 1.
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n == 2:
        return a[0, 1]
    acc = 0.0 + 0.0j
    rest = list(range(1, n))
    for pos, j in enumerate(rest):
        if a[0, j] == 0.0:
            continue
        others = rest[:pos] + rest[pos + 1:]
        sign = 1.0 if pos % 2 == 0 else -1.0
        acc += sign * a[0, j] * _pfaffian_expansion(a[np.ix_(others, others)])
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


def pfaffian(w, antisym_tol=ANTISYM_TOL):
    """Pfaffian of an even-dimensional antisymmetric matrix.

    Satisfies pfaffian(w)**2 == determinant(w).  Small matrices use the
    combinatorial first-row expansion; larger ones use skew elimination
    with partial pivoting.
    """
    a = as_complex_matrix(w)
    _require_square(a, "pfaffian")
    n = a.shape[0]
    if n % 2 != 0:
        raise OddDimension(f"Pfaffian needs even dimension, got {n}")
    _check_antisymmetric(a, antisym_tol)
    a = (a - a.T) / 2
    if n <= 8:
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


def antisym_canonical(w, antisym_tol=ANTISYM_TOL):
    """Bring an antisymmetric matrix to its paired canonical form.

    Returns (U, pairs) with U unitary such that U w U^T is block
    diagonal: one 2x2 block [[0, z], [-z, 0]] per entry z of pairs
    (ordered by descending modulus), followed by zeros.  The moduli
    |z| are the doubly degenerate singular values of w.

    The construction walks down the spectrum of w^dagger w: the top
    eigenvector v1 is paired with v2 = -conj(w v1)/|w v1|, which is
    automatically orthogonal to v1 and closes a 2x2 block exactly.
    """
    a = as_complex_matrix(w)
    _require_square(a, "antisym_canonical")
    _check_antisymmetric(a, antisym_tol)
    a = (a - a.T) / 2
    n = a.shape[0]
    if n == 0:
        return np.eye(0, dtype=complex), []
    h = a.conj().T @ a
    top = float(np.linalg.eigvalsh(h)[-1])
    sigma_max = np.sqrt(max(top, 0.0))
    floor = 1e-12 * max(1.0, sigma_max)

    rows = []
    pairs = []
    while n - len(rows) >= 2:
        comp = complement_basis(rows, n)
        hred = comp.conj().T @ h @ comp
        hred = (hred + hred.conj().T) / 2
        evals, evecs = np.linalg.eigh(hred)
        lam = float(evals[-1])
        if lam <= floor * floor:
            break
        window = max(1e-15, 1e-10 * lam)
        topspace = evecs[:, evals >= lam - window]
        # Deterministic representative of the top eigenspace: project the
        # standard basis vectors and keep the first sizable one.
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
