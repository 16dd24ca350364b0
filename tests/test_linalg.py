import numpy as np
import pytest

from flosim import linalg
from flosim.errors import (
    NonSquare,
    NotAntisymmetric,
    NotHermitian,
    OddDimension,
    RankDeficient,
)

from conftest import (
    random_antisymmetric,
    random_complex,
    random_hermitian,
    random_unitary,
    rng_for,
)


def span_projector(m):
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    cols = u[:, s > 1e-10]
    return cols @ cols.conj().T


class TestOrthonormalize:
    def test_identity_fixed_point(self):
        eye = np.eye(4, dtype=complex)
        np.testing.assert_allclose(linalg.orthonormalize(eye), eye, atol=1e-14)

    def test_single_column_normalized(self):
        col = np.array([[2.0], [0.0], [0.0]], dtype=complex)
        out = linalg.orthonormalize(col)
        np.testing.assert_allclose(out, [[1.0], [0.0], [0.0]], atol=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_full_rank(self, seed):
        rng = rng_for(seed)
        a = random_complex(rng, 6, 3)
        q = linalg.orthonormalize(a)
        assert np.linalg.norm(q.conj().T @ q - np.eye(3)) <= 1e-12
        assert np.linalg.norm(span_projector(q) - span_projector(a)) <= 1e-10

    def test_transform_is_upper_triangular_with_positive_diagonal(self):
        # Prefix spans must agree and the first column must be a positive
        # multiple of the first input column.
        rng = rng_for(3)
        a = random_complex(rng, 5, 3)
        q = linalg.orthonormalize(a)
        for k in range(1, 4):
            assert np.linalg.norm(
                span_projector(q[:, :k]) - span_projector(a[:, :k])
            ) <= 1e-10
        ratio = np.vdot(a[:, 0], q[:, 0])
        assert ratio.real > 0
        assert abs(ratio.imag) <= 1e-12 * abs(ratio)

    def test_idempotent(self):
        rng = rng_for(4)
        a = random_complex(rng, 6, 4)
        q1 = linalg.orthonormalize(a)
        q2 = linalg.orthonormalize(q1)
        assert np.linalg.norm(q2 - q1) <= 1e-12

    def test_rank_deficient_raises(self):
        a = np.ones((4, 2), dtype=complex)
        with pytest.raises(RankDeficient):
            linalg.orthonormalize(a)

    def test_zero_columns_passthrough(self):
        a = np.zeros((3, 0), dtype=complex)
        assert linalg.orthonormalize(a).shape == (3, 0)


class TestRowNorms:
    def test_bitwise_equal_to_norm(self):
        """row_norms(x)[i] is np.linalg.norm(x[i]) bit for bit."""
        rng = rng_for(31)
        for length in list(range(1, 70)) + [127, 128, 255, 1000, 4096]:
            x = random_complex(rng, 9, length) * 10.0 ** rng.uniform(-8, 8, (9, 1))
            got = [v.hex() for v in linalg.row_norms(x).tolist()]
            assert got == [float(np.linalg.norm(row)).hex() for row in x]


class TestDeterminant:
    def test_identity(self):
        assert linalg.determinant(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert linalg.determinant(np.diag([2.0, 3.0])) == pytest.approx(6.0)

    def test_empty_matrix_is_one(self):
        assert linalg.determinant(np.zeros((0, 0))) == pytest.approx(1.0)

    def test_non_square_raises(self):
        with pytest.raises(NonSquare):
            linalg.determinant(np.zeros((2, 3)))

    def test_unitary_has_unit_modulus(self):
        u = random_unitary(rng_for(5), 5)
        assert abs(abs(linalg.determinant(u)) - 1.0) <= 1e-10


class TestOneBodyUnitary:
    def test_zero_generator(self):
        v = linalg.one_body_unitary(np.zeros((3, 3)), 1.7)
        np.testing.assert_allclose(v, np.eye(3), atol=1e-14)

    def test_zero_time(self):
        b = random_hermitian(rng_for(6), 4)
        np.testing.assert_allclose(linalg.one_body_unitary(b, 0.0), np.eye(4), atol=1e-14)

    def test_diagonal_generator(self):
        v = linalg.one_body_unitary(np.diag([1.0, 2.0]), np.pi)
        np.testing.assert_allclose(v, np.diag([-1.0, 1.0]), atol=1e-12)

    @pytest.mark.parametrize("tau", [0.37, 2.0])
    def test_unitary_and_inverse(self, tau):
        b = random_hermitian(rng_for(7), 4)
        v = linalg.one_body_unitary(b, tau)
        assert np.linalg.norm(v.conj().T @ v - np.eye(4)) <= 1e-10
        np.testing.assert_allclose(v @ linalg.one_body_unitary(b, -tau), np.eye(4), atol=1e-10)

    def test_group_property(self):
        b = random_hermitian(rng_for(8), 5)
        v1 = linalg.one_body_unitary(b, 0.4)
        v2 = linalg.one_body_unitary(b, 1.1)
        v12 = linalg.one_body_unitary(b, 1.5)
        assert np.linalg.norm(v1 @ v2 - v12) <= 1e-9

    def test_not_hermitian_raises(self):
        with pytest.raises(NotHermitian):
            linalg.one_body_unitary(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)

    @pytest.mark.parametrize("d", [2, 6, 12, 64])
    def test_stack_bitwise_equal_to_one_body_unitary(self, d):
        """The stacked kernel gives each matrix's one_body_unitary, bit for
        bit, NaN and infinite taus (NaN unitaries) among the others."""
        rng = rng_for(60 + d)
        bs = np.stack([random_hermitian(rng, d) for _ in range(5)])
        taus = [0.4, float("nan"), -1.3, float("inf"), 2.0]
        got = linalg.one_body_unitaries(bs, taus)
        assert got.shape == (5, d, d)
        for u, b, tau in zip(got, bs, taus):
            assert u.tobytes() == linalg.one_body_unitary(b, tau).tobytes()
        assert np.isnan(got[1]).all() and np.isnan(got[3]).all()


class TestPfaffian:
    def test_elementary_block(self):
        w = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert linalg.pfaffian(w) == pytest.approx(1.0)

    def test_zero_matrix(self):
        assert linalg.pfaffian(np.zeros((4, 4))) == pytest.approx(0.0)

    def test_four_by_four_formula(self):
        rng = rng_for(9)
        w = random_antisymmetric(rng, 4)
        expected = w[0, 1] * w[2, 3] - w[0, 2] * w[1, 3] + w[0, 3] * w[1, 2]
        assert linalg.pfaffian(w) == pytest.approx(expected)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_square_equals_determinant(self, n):
        rng = rng_for(10 + n)
        w = random_antisymmetric(rng, n)
        pf = linalg.pfaffian(w)
        det = linalg.determinant(w)
        assert abs(pf * pf - det) <= 1e-8 * max(1.0, abs(det))

    def test_block_diagonal_product(self):
        blocks = [1.5, -0.5 + 2.0j, 3.0j]
        w = np.zeros((6, 6), dtype=complex)
        for r, z in enumerate(blocks):
            w[2 * r, 2 * r + 1] = z
            w[2 * r + 1, 2 * r] = -z
        assert linalg.pfaffian(w) == pytest.approx(np.prod(blocks))

    def test_odd_dimension_raises(self):
        with pytest.raises(OddDimension):
            linalg.pfaffian(np.zeros((3, 3)))

    def test_not_antisymmetric_raises(self):
        with pytest.raises(NotAntisymmetric):
            linalg.pfaffian(np.eye(4))

    def test_large_elimination_path_with_pivoting(self):
        # Leading entries engineered small so pivoting has to act.
        rng = rng_for(11)
        w = random_antisymmetric(rng, 10)
        w[0, 1] = w[1, 0] = 0.0
        w = (w - w.T) / 2
        pf = linalg.pfaffian(w)
        det = linalg.determinant(w)
        assert abs(pf * pf - det) <= 1e-8 * max(1.0, abs(det))


def reference_pfaffian_expansion(a):
    """The first-row expansion as it was written before minors became
    index tuples: every minor a fresh np.ix_ copy."""
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
        acc += sign * a[0, j] * reference_pfaffian_expansion(a[np.ix_(others, others)])
    return acc


def complex_bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


class TestPfaffianExpansion:
    """The expansion over index tuples makes the same products in the same
    order as the copying reference, so every result is bit for bit."""

    @pytest.mark.parametrize("n", [0, 2, 4, 6, 8])
    def test_bitwise_equal_to_copying_reference(self, n):
        rng = rng_for(20 + n)
        for trial in range(40):
            w = random_antisymmetric(rng, n)
            if n and trial % 2:
                # Exact zeros in row 0 and deeper rows take the skip.
                mask = np.triu(rng.random((n, n)) < 0.35, 1)
                mask[0, rng.integers(1, n)] = True
                w[mask | mask.T] = 0.0
            a = (w - w.T) / 2
            want = reference_pfaffian_expansion(a)
            got = linalg._pfaffian_expansion(a)
            assert type(got) is type(want)
            assert complex_bits(got) == complex_bits(want)
            assert complex_bits(linalg.pfaffian(w)) == complex_bits(want)


class TestAntisymCanonical:
    def test_elementary_block_identity_transform(self):
        w = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        u, pairs = linalg.antisym_canonical(w)
        np.testing.assert_allclose(u, np.eye(2), atol=1e-12)
        assert len(pairs) == 1
        assert pairs[0] == pytest.approx(1.0)

    def test_zero_matrix_has_no_pairs(self):
        u, pairs = linalg.antisym_canonical(np.zeros((4, 4)))
        assert pairs == []
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 4, 5, 6, 7])
    def test_reconstruction_and_rank(self, n):
        rng = rng_for(20 + n)
        w = random_antisymmetric(rng, n)
        u, pairs = linalg.antisym_canonical(w)
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-10
        canon = np.zeros((n, n), dtype=complex)
        for r, z in enumerate(pairs):
            canon[2 * r, 2 * r + 1] = z
            canon[2 * r + 1, 2 * r] = -z
        assert np.linalg.norm(u @ w @ u.T - canon) <= 1e-8
        moduli = [abs(z) for z in pairs]
        assert moduli == sorted(moduli, reverse=True)
        svals = np.linalg.svd(w, compute_uv=False)
        rank = int(np.sum(svals > 1e-9))
        assert sum(1 for z in pairs if abs(z) > 1e-9) == rank // 2

    def test_degenerate_pairs(self):
        # Two equal blocks: the singular values are fourfold degenerate.
        w = np.zeros((4, 4), dtype=complex)
        w[0, 1], w[1, 0] = 1.0, -1.0
        w[2, 3], w[3, 2] = 1.0, -1.0
        u, pairs = linalg.antisym_canonical(w)
        assert len(pairs) == 2
        canon = np.zeros((4, 4), dtype=complex)
        for r, z in enumerate(pairs):
            canon[2 * r, 2 * r + 1] = z
            canon[2 * r + 1, 2 * r] = -z
        assert np.linalg.norm(u @ w @ u.T - canon) <= 1e-8

    def test_rank_two_matrix(self):
        rng = rng_for(30)
        x = random_complex(rng, 6)
        y = random_complex(rng, 6)
        w = np.outer(x, y) - np.outer(y, x)
        u, pairs = linalg.antisym_canonical(w)
        assert sum(1 for z in pairs if abs(z) > 1e-9) == 1

    def test_not_antisymmetric_raises(self):
        with pytest.raises(NotAntisymmetric):
            linalg.antisym_canonical(np.eye(2))


def test_complement_basis_spans_the_rest():
    rng = rng_for(31)
    q = np.linalg.qr(random_complex(rng, 5, 2))[0]
    comp = linalg.complement_basis([q[:, 0], q[:, 1]], 5)
    assert comp.shape == (5, 3)
    assert np.linalg.norm(comp.conj().T @ comp - np.eye(3)) <= 1e-12
    assert np.linalg.norm(q.conj().T @ comp) <= 1e-12
