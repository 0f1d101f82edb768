import mpmath as mp
import numpy as np
import pytest

from bitorsion.complexes import BilinearStructure, GradedComplex
from bitorsion.errors import DegenerateFormError, DimensionError, InvalidMatrixError
from bitorsion.morse import CriticalForms
from bitorsion.numkernel import (
    as_cmatrix,
    check_symmetric_form,
    lu_det,
    scaled_cmatrix,
    schur_decomposition,
)


def _random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _cofactor_det(a):
    """Brute-force cofactor expansion, the independent determinant oracle."""
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * _cofactor_det(minor)
    return total


class TestLuDet:
    def test_identity(self):
        assert lu_det(np.eye(3)) == 1

    def test_diagonal(self):
        assert lu_det(np.diag([2.0, 3.0j])) == pytest.approx(6j)

    def test_cofactor_oracle(self):
        rng = np.random.default_rng(42)
        a = _random_matrix(rng, 5)
        expected = _cofactor_det(a)
        assert lu_det(a) == pytest.approx(expected, rel=1e-12)

    def test_matches_eigenvalue_product(self):
        rng = np.random.default_rng(3)
        for n in range(4, 9):
            a = _random_matrix(rng, n)
            prod = np.prod(np.linalg.eigvals(a))
            assert lu_det(a) == pytest.approx(prod, rel=1e-8)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            lu_det(np.ones((2, 3)))

    @pytest.mark.parametrize("n", range(1, 65))
    def test_bit_equal_to_lu_factor_formula(self, n):
        """What the pivot-product formula's bits guaranteed and numpy's
        sign·exp(Σ log|u_ii|) keeps: random, row-permuted and reversed matrices
        give one value times the permutation's sign, an independent determinant
        agrees with it to 1e-12, and a zero row or two equal integer columns
        give exactly 0. The name is the one this test had when it compared bits."""
        rng = np.random.default_rng(1000 + n)
        a = _random_matrix(rng, n)
        singular = a.copy()
        singular[-1] = 0.0
        ints = rng.integers(-3, 4, (n, n)).astype(complex)
        ints[:, 0] = ints[:, -1] if n > 1 else 0.0  # two equal columns: exactly singular
        det = lu_det(a)
        for perm in (rng.permutation(n), np.arange(n)[::-1]):
            assert lu_det(a[perm]) == pytest.approx(_permutation_sign(perm) * det, rel=1e-12)
        assert lu_det(singular) == 0.0
        assert lu_det(ints) == 0.0
        if n <= 6:
            assert det == pytest.approx(_cofactor_det(a), rel=1e-12)
        elif n in (8, 16, 32):
            with mp.workdps(30):
                exact = mp.det(mp.matrix([[mp.mpc(x) for x in row] for row in a.tolist()]))
            assert det == pytest.approx(complex(exact), rel=1e-12)


def _permutation_sign(perm):
    """(-1) to the number of inversions of ``perm``."""
    return (-1) ** sum(int(np.count_nonzero(perm[i + 1:] < perm[i])) for i in range(len(perm)))


def _schur_eigenvalues(a):
    return np.sort_complex(schur_decomposition(a).eigenvalues)


def _disk_subspace(a, radius):
    """Leading Schur vectors of the eigenvalues inside |z| <= radius."""
    dec, sdim = schur_decomposition(a, sort=lambda z: abs(z) <= radius)
    return dec.q[:, :sdim]


class TestEigenvalues:
    """Eigenvalues as the diagonal of the complex Schur form."""

    def test_triangular(self):
        ev = _schur_eigenvalues(np.diag([1.0, 2.0 + 1.0j]))
        assert np.allclose(ev, [1.0, 2.0 + 1.0j])

    def test_companion(self):
        # z^2 - 3z + 2 = (z-1)(z-2)
        comp = np.array([[0.0, -2.0], [1.0, 3.0]])
        assert np.allclose(_schur_eigenvalues(comp), [1.0, 2.0])

    def test_char_poly_oracle(self):
        """Multiset matches the roots of the Faddeev-LeVerrier characteristic polynomial."""
        rng = np.random.default_rng(11)
        a = _random_matrix(rng, 6)
        # Faddeev-LeVerrier: c_k coefficients of det(zI - A)
        n = 6
        coeffs = [1.0 + 0.0j]
        m = np.zeros_like(a)
        for k in range(1, n + 1):
            m = a @ m + coeffs[-1] * np.eye(n)
            coeffs.append(-np.trace(a @ m) / k)
        roots = np.roots(coeffs)
        got = _schur_eigenvalues(a)
        want = np.sort_complex(roots)
        assert np.max(np.abs(got - want)) < 1e-8 * np.max(np.abs(want))


class TestSchur:
    def test_backward_stability_dim_200(self):
        rng = np.random.default_rng(5)
        a = _random_matrix(rng, 200)
        dec = schur_decomposition(a)
        assert np.max(np.abs(dec.q.conj().T @ dec.q - np.eye(200))) < 1e-12
        resid = np.linalg.norm(dec.q @ dec.t @ dec.q.conj().T - a)
        assert resid <= 1e-10 * np.linalg.norm(a)


class TestInvariantSubspace:
    """Sorted Schur vectors span the invariant subspace behind a disk cut."""

    def test_diagonal_disk(self):
        v = _disk_subspace(np.diag([0.1, 5.0]), 1.0)
        assert v.shape == (2, 1)
        assert abs(abs(v[0, 0]) - 1.0) < 1e-12

    def test_jordan_block(self):
        j = np.array([[0.5, 1.0], [0.0, 0.5]])
        v = _disk_subspace(j, 1.0)
        assert v.shape == (2, 2)

    def test_dimension_matches_count(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = _random_matrix(rng, 7)
            ev = np.linalg.eigvals(a)
            if min(abs(abs(z) - 1.5) for z in ev) < 1e-6:
                continue
            v = _disk_subspace(a, 1.5)
            assert v.shape[1] == np.sum(np.abs(ev) <= 1.5)
            # invariance: m V = V (V* m V)
            compressed = v.conj().T @ a @ v
            defect = np.linalg.norm(a @ v - v @ compressed)
            assert defect <= 1e-8 * np.linalg.norm(a)


class TestCheckSymmetricForm:
    def test_isotropic_form_accepted(self):
        """Complex symmetric forms may have isotropic directions; only symmetry
        and nondegeneracy are required."""
        check_symmetric_form(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), "g")
        check_symmetric_form(np.zeros((0, 0), dtype=complex), "g")

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateFormError, match="^g degenerate$"):
            check_symmetric_form(np.zeros((2, 2), dtype=complex), "g")

    def test_asymmetric_rejected(self):
        with pytest.raises(DegenerateFormError, match="^g not symmetric$"):
            check_symmetric_form(np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex), "g")

    def test_stack_names_first_failing_matrix(self):
        """A stack (k, n, n) is checked at once, but the message names the
        first matrix that fails, its symmetry tested before its determinant."""
        names = [f"g{j}" for j in range(5)]
        asym = np.array([[1.0, 2.0], [0.0, 1.0]])
        forms = np.stack([np.eye(2, dtype=complex)] * 5)
        third_asym = forms.copy()
        third_asym[2], third_asym[3], third_asym[4] = asym, 0.0, asym
        with pytest.raises(DegenerateFormError, match="^g2 not symmetric$"):
            check_symmetric_form(third_asym, names)
        third_degenerate = forms.copy()
        third_degenerate[2], third_degenerate[3] = 0.0, asym
        with pytest.raises(DegenerateFormError, match="^g2 degenerate$"):
            check_symmetric_form(third_degenerate, names)
        check_symmetric_form(forms, names)
        check_symmetric_form(np.zeros((0, 2, 2), dtype=complex), [])

    def test_stack_refuses_overflowing_determinant(self):
        """A stacked form whose LU product overflows is refused as not finite,
        as one matrix alone is; a degenerate matrix ahead of it is named first."""
        rng = np.random.default_rng(0)
        a = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        g = a + a.T  # |det g| is about 1e332
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidMatrixError, match="matrix 0 in the stack is not finite"):
                check_symmetric_form(np.stack([g, g]), ["x", "y"])
            with pytest.raises(DegenerateFormError, match="^x degenerate$"):
                check_symmetric_form(np.stack([np.zeros_like(g), g]), ["x", "y"])

    def test_shared_by_both_form_containers(self):
        asym = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(DegenerateFormError, match="^gram\\[1\\] not symmetric$"):
            BilinearStructure((np.eye(2), asym))
        with pytest.raises(DegenerateFormError, match="^critical form at m0 degenerate$"):
            CriticalForms({"m0": np.zeros((1, 1))})


class TestScaledCmatrix:
    """One pass over |a| gives the scale and the finiteness test, with the
    checks, errors and messages of ``as_cmatrix``."""

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(1.0, np.nan),
                                       complex(0.0, -np.inf), complex(np.inf, np.nan)])
    def test_non_finite_entry_refused_like_as_cmatrix(self, entry):
        a = np.eye(3, dtype=complex)
        a[1, 2] = entry
        for check in (as_cmatrix, scaled_cmatrix):
            with pytest.raises(InvalidMatrixError, match=r"^gram\[0\] contains non-finite entries$"):
                check(a, square=True, name="gram[0]")
        with pytest.raises(InvalidMatrixError, match="non-finite"):
            BilinearStructure((a,))
        with pytest.raises(InvalidMatrixError, match=r"^differential\[0\] contains non-finite"):
            GradedComplex((3, 3), (a,))

    def test_scale_is_the_largest_modulus(self):
        a = np.array([[1.0, -3.0 + 4.0j], [2.0j, 0.5]])
        checked, scale = scaled_cmatrix(a)
        assert checked.dtype == complex and scale == 5.0
        assert scaled_cmatrix(np.zeros((0, 3)))[1] == 0.0

    def test_overflowing_modulus_is_finite(self):
        """A finite entry whose modulus overflows has scale inf and passes, as
        it passes ``as_cmatrix``; the Gram check then refuses its determinant."""
        a = np.array([[1.5e308 + 1.5e308j, 0.0], [0.0, 1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert scaled_cmatrix(a)[1] == np.inf
            as_cmatrix(a)
            with pytest.raises(InvalidMatrixError, match="determinant is not finite"):
                BilinearStructure((a,))

    @pytest.mark.parametrize("m, square, message", [
        (np.ones(3), False, "must be 2-dimensional"),
        (np.ones((2, 3)), True, "must be square"),
    ])
    def test_shape_errors_as_before(self, m, square, message):
        for check in (as_cmatrix, scaled_cmatrix):
            with pytest.raises(DimensionError, match=message):
                check(m, square=square)
