import numpy as np
import pytest

from bitorsion.acceptance import _wedge_oracle_torsion
from bitorsion.complexes import (
    BilinearStructure,
    CohomologyData,
    GradedComplex,
    _project_to_cocycles,
    _split,
    anomaly_ratio,
    cohomology,
    random_bilinear_structure,
    random_graded_complex,
    torsion_form,
    transform_structure,
)
from bitorsion.config import DEFAULT_TOL
from bitorsion.errors import ChainComplexError, ConditioningError, InvalidMatrixError, ShapeError
from bitorsion.morse import CriticalForms, make_circle_morse, milnor_torsion
from bitorsion.numkernel import lu_det


def two_term(a):
    return GradedComplex((1, 1), (np.array([[a]], dtype=complex),))


def _random_symmetric(rng, n):
    """a + aᵀ for a complex Gaussian n×n matrix a."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.T


class TestCohomology:
    def test_acyclic_two_term(self):
        h = cohomology(two_term(1.0))
        assert h.dims == (0, 0)

    def test_zero_differentials(self):
        c = GradedComplex((2, 3), (np.zeros((3, 2)),))
        h = cohomology(c)
        assert h.dims == (2, 3)

    def test_circle_trivial_holonomy(self):
        # 1x1 coboundary 1 - lam at lam = 1 vanishes: dims (1, 1)
        c = two_term(0.0)
        assert cohomology(c).dims == (1, 1)

    def test_representatives_are_cocycles(self):
        rng = np.random.default_rng(1)
        c = random_graded_complex(rng, dims=(2, 3, 2))
        h = cohomology(c)
        for i, basis in enumerate(h.bases):
            image = c.differential(i) @ basis
            if image.size:
                assert np.max(np.abs(image)) < 1e-9


class TestTorsionForm:
    def test_two_term_convention(self):
        """Pinned: 0 -> C --3--> C -> 0 with unit forms gives 1/9."""
        c = two_term(3.0)
        value = torsion_form(c, BilinearStructure.standard(c.dims), cohomology(c))
        assert value == pytest.approx(1.0 / 9.0)

    def test_zero_differential_identity_forms(self):
        c = GradedComplex((2, 2), (np.zeros((2, 2)),))
        h = CohomologyData((np.eye(2, dtype=complex), np.eye(2, dtype=complex)))
        value = torsion_form(c, BilinearStructure.standard(c.dims), h)
        assert value == pytest.approx(1.0)

    @pytest.mark.parametrize("degree", [0, 1])
    def test_h_scaling(self, degree):
        """Scaling one h generator by s in degree i multiplies by s^{2(-1)^i}."""
        c = GradedComplex((2, 2), (np.zeros((2, 2)),))
        b = BilinearStructure.standard(c.dims)
        base_h = [np.eye(2, dtype=complex), np.eye(2, dtype=complex)]
        s = 1.7 - 0.4j
        scaled = [m.copy() for m in base_h]
        scaled[degree][:, 0] *= s
        t0 = torsion_form(c, b, CohomologyData(tuple(base_h)))
        t1 = torsion_form(c, b, CohomologyData(tuple(scaled)))
        assert t1 / t0 == pytest.approx(s ** (2 * (-1) ** degree), rel=1e-10)

    def test_gram_scaling_on_zero_differentials(self):
        """Scaling every G_i by t multiplies by prod t^{(-1)^i dim H^i}."""
        rng = np.random.default_rng(5)
        dims = (2, 3, 1)
        c = GradedComplex(dims, (np.zeros((3, 2)), np.zeros((1, 3))))
        b = random_bilinear_structure(rng, dims)
        h = cohomology(c)
        t = 1.3 + 0.2j
        scaled = BilinearStructure(tuple(t * g for g in b.grams))
        t0 = torsion_form(c, b, h)
        t1 = torsion_form(c, scaled, h)
        expected = t ** sum((-1) ** i * d for i, d in enumerate(h.dims))
        assert t1 / t0 == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("seed", range(12))
    def test_choice_independence(self, seed):
        rng = np.random.default_rng(400 + seed)
        c = random_graded_complex(rng)
        b = random_bilinear_structure(rng, c.dims)
        h = cohomology(c)
        base = torsion_form(c, b, h)
        for trial in range(2):
            other = torsion_form(c, b, h, rng=np.random.default_rng(900 + 10 * seed + trial))
            assert abs(other - base) <= 1e-10 * abs(base)

    def test_wrong_h_dims_rejected(self):
        c = two_term(2.0)
        bad = CohomologyData((np.ones((1, 1), dtype=complex), np.zeros((1, 0))))
        with pytest.raises(ShapeError):
            torsion_form(c, BilinearStructure.standard(c.dims), bad)

    @pytest.mark.parametrize("c, grams, match", [
        (GradedComplex((2, 2), (1e160 * np.eye(2),)), (np.eye(2), 1e10 * np.eye(2)),
         "non-finite entries"),
        (two_term(1e200), (np.eye(1), np.eye(1)), "non-finite entries"),
        (GradedComplex((256,), ()), (_random_symmetric(np.random.default_rng(0), 256),),
         "determinant is not finite"),
    ], ids=["gram_1e330", "gram_1e400", "det_n256"])
    def test_overflowing_gram_refused(self, c, grams, match):
        """A torsion Gram whose entries or whose LU product overflow is refused,
        never returned as nan or inf."""
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidMatrixError, match=match):
                torsion_form(c, BilinearStructure(grams), cohomology(c))

    def test_non_cocycle_rejected(self):
        c = GradedComplex((2, 1), (np.array([[1.0, 0.0]]),))
        # representative with a component outside the kernel
        bad = CohomologyData((np.array([[1.0], [0.5]], dtype=complex), np.zeros((1, 0))))
        with pytest.raises(ShapeError):
            torsion_form(c, BilinearStructure.standard(c.dims), bad)


class TestOneSplitPerDifferential:
    """One full SVD per nonempty differential and complex gives image, lift and
    kernel to cohomology and torsion_form alike; cohomology adds one SVD per
    degree whose kernel meets a nonzero image."""

    @pytest.fixture
    def svd_calls(self, monkeypatch):
        """One entry per numpy SVD from here on."""
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        return calls

    def test_milnor_torsion_of_circle(self, svd_calls):
        ms = make_circle_morse(5, 3.0)
        value = milnor_torsion(ms, CriticalForms.standard(ms))
        assert len(svd_calls) <= 2
        assert value == pytest.approx((1 - 3.0) ** -2, rel=1e-12)

    def test_cohomology_and_torsion(self, svd_calls):
        rng = np.random.default_rng(0)  # ranks (5, 1, 3): every differential is nonzero
        c = random_graded_complex(rng, dims=(6, 6, 6, 6))
        b = random_bilinear_structure(rng, c.dims)
        h = cohomology(c)
        value = torsion_form(c, b, h)
        assert len(svd_calls) <= 6
        assert h.dims == (1, 0, 2, 3)
        oracle = _wedge_oracle_torsion(c, b, h)
        assert abs(value - oracle) <= 1e-9 * abs(oracle)


def _reference_torsion(c, b, h):
    """torsion_form with fresh splits and the determinant and scale test
    written out: validated ``lu_det`` of v^T G v, refused when |det| <=
    nondegeneracy_rel * max|gram|^n."""
    split = {i: _split(c.differential(i)) for i in range(-1, c.degree_count)}
    result = 1.0 + 0.0j
    for i, n_i in enumerate(c.dims):
        if n_i == 0:
            continue
        boundary = c.differential(i - 1) @ split[i - 1][1]
        v = np.hstack([boundary, _project_to_cocycles(h.bases[i], split[i][2]), split[i][1]])
        gram = v.T @ b.grams[i] @ v
        det = lu_det(gram)
        scale = np.maximum(np.max(np.abs(gram), axis=(-2, -1)), 1e-300)
        if np.abs(det) <= DEFAULT_TOL.nondegeneracy_rel * scale ** n_i:
            raise ConditioningError(f"degree {i}: torsion Gram numerically singular")
        result = result * det if i % 2 == 0 else result / det
    return result


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except ConditioningError as exc:
        return f"ConditioningError: {exc}"


class TestFinitePathUnchanged:
    """The cached splits and the scalar nondegeneracy test change no bit of a
    torsion or a cohomology basis, and no refusal."""

    @pytest.mark.parametrize("block", range(4))
    def test_torsion_bit_identical(self, block):
        for seed in range(50 * block, 50 * block + 50):
            rng = np.random.default_rng(seed)
            c = random_graded_complex(rng)
            b = random_bilinear_structure(rng, c.dims)
            h = cohomology(c)
            assert _outcome(torsion_form, c, b, h) == _outcome(_reference_torsion, c, b, h)
            warm = cohomology(c)  # from the splits cached by the first call
            assert all(np.array_equal(x, y) for x, y in zip(h.bases, warm.bases))

    @pytest.mark.parametrize("seed", range(10))
    def test_same_refusals(self, seed):
        """At dims (6, 6, 6, 6) seeds 1, 3 and 7 are refused at degree 1 on a
        well-conditioned Gram (a known false refusal), the others are not."""
        rng = np.random.default_rng(seed)
        c = random_graded_complex(rng, dims=(6, 6, 6, 6))
        b = random_bilinear_structure(rng, c.dims)
        h = cohomology(c)
        got = _outcome(torsion_form, c, b, h)
        assert got == _outcome(_reference_torsion, c, b, h)
        refused = got == "ConditioningError: degree 1: torsion Gram numerically singular"
        assert refused == (seed in (1, 3, 7))

    def test_bases_do_not_alias_the_cache(self):
        c = random_graded_complex(np.random.default_rng(0), dims=(6, 6, 6, 6))
        first = cohomology(c)
        kept = [b.copy() for b in first.bases]
        for b in first.bases:
            b[...] = 0.0
        assert all(np.array_equal(x, y) for x, y in zip(cohomology(c).bases, kept))


class TestAnomaly:
    def test_identity_automorphisms(self):
        c = two_term(2.0)
        assert anomaly_ratio(c, [np.eye(1), np.eye(1)]) == pytest.approx(1.0)

    def test_single_degree_det_two(self):
        c = GradedComplex((2,), ())
        a0 = np.array([[2.0, 0.0], [0.0, 1.0]])
        assert anomaly_ratio(c, [a0]) == pytest.approx(4.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_recompute_matches_prediction(self, seed):
        rng = np.random.default_rng(50 + seed)
        c = random_graded_complex(rng, max_degrees=3)
        b = random_bilinear_structure(rng, c.dims)
        autos = [
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) + 2 * np.eye(d)
            for d in c.dims
        ]
        h = cohomology(c)
        ratio = torsion_form(c, transform_structure(b, autos), h) / torsion_form(c, b, h)
        assert ratio == pytest.approx(anomaly_ratio(c, autos), rel=1e-9)


class TestDirectSum:
    @pytest.mark.parametrize("seed", range(5))
    def test_torsion_multiplicative(self, seed):
        """torsion(c + c') = torsion(c) torsion(c') for block direct sums."""
        rng = np.random.default_rng(600 + seed)
        k = int(rng.integers(2, 4))
        c1 = random_graded_complex(rng, dims=tuple(int(rng.integers(1, 3)) for _ in range(k)))
        c2 = random_graded_complex(rng, dims=tuple(int(rng.integers(1, 3)) for _ in range(k)))
        b1 = random_bilinear_structure(rng, c1.dims)
        b2 = random_bilinear_structure(rng, c2.dims)

        dims = tuple(d1 + d2 for d1, d2 in zip(c1.dims, c2.dims))
        diffs = []
        for i in range(k - 1):
            d = np.zeros((dims[i + 1], dims[i]), dtype=complex)
            d[: c1.dims[i + 1], : c1.dims[i]] = c1.differential(i)
            d[c1.dims[i + 1]:, c1.dims[i]:] = c2.differential(i)
            diffs.append(d)
        grams = []
        for i in range(k):
            g = np.zeros((dims[i], dims[i]), dtype=complex)
            g[: c1.dims[i], : c1.dims[i]] = b1.grams[i]
            g[c1.dims[i]:, c1.dims[i]:] = b2.grams[i]
            grams.append(g)
        big = GradedComplex(dims, tuple(diffs))
        big_b = BilinearStructure(tuple(grams))

        t1 = torsion_form(c1, b1, cohomology(c1))
        t2 = torsion_form(c2, b2, cohomology(c2))
        t = torsion_form(big, big_b, cohomology(big))
        assert t == pytest.approx(t1 * t2, rel=1e-8)


class TestValidation:
    def test_d_squared_enforced(self):
        with pytest.raises(ChainComplexError):
            GradedComplex((1, 1, 1), (np.array([[1.0]]), np.array([[1.0]])))

    def test_differential_shapes(self):
        with pytest.raises(Exception):
            GradedComplex((2, 2), (np.zeros((3, 2)),))
