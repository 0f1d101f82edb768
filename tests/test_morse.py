from dataclasses import replace

import numpy as np
import pytest

from bitorsion.complexes import GradedComplex, cohomology
from bitorsion.errors import (
    ChainComplexError,
    DegenerateFormError,
    DimensionError,
    HolonomyError,
    InvalidMatrixError,
    ShapeError,
)
from bitorsion.morse import (
    CriticalForms,
    CriticalPoint,
    Instanton,
    MorseSystem,
    build_thom_smale,
    circle_loop,
    make_circle_morse,
    milnor_anomaly_check,
    milnor_torsion,
)
from bitorsion.numkernel import lu_det
from bitorsion.turaev import EulerStructure, Representation, turaev_torsion


def _random_forms(rng, ms):
    forms = {}
    for p in ms.points:
        a = rng.standard_normal((ms.rank, ms.rank)) + 1j * rng.standard_normal((ms.rank, ms.rank))
        forms[p.label] = a + a.T + 3 * np.eye(ms.rank)
    return CriticalForms(forms)


class TestBuild:
    def test_circle_coboundary_entry(self):
        """One min, one max, transports identity and lam: coboundary 1 - lam (up to sign)."""
        lam = 0.3 + 0.7j
        ms = make_circle_morse(1, lam)
        comp, structure = build_thom_smale(ms, CriticalForms.standard(ms))
        assert comp.dims == (1, 1)
        entry = comp.differential(0)[0, 0]
        assert abs(entry**2 - (1 - lam) ** 2) < 1e-12

    def test_rank_two_no_instantons(self):
        """Zero differential: torsion reduces to prod det(b_x)^{(-1)^{ind}}."""
        points = (CriticalPoint("m", 0), CriticalPoint("M", 1))
        ms = MorseSystem(points, (), rank=2)
        rng = np.random.default_rng(3)
        forms = {}
        for lab in ("m", "M"):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            forms[lab] = a + a.T + 3 * np.eye(2)
        cf = CriticalForms(forms)
        value = milnor_torsion(ms, cf)
        expected = np.linalg.det(forms["m"]) / np.linalg.det(forms["M"])
        assert value == pytest.approx(expected, rel=1e-10)

    def test_trivial_holonomy_not_acyclic(self):
        ms = make_circle_morse(1, 1.0)
        comp, _ = build_thom_smale(ms, CriticalForms.standard(ms))
        assert cohomology(comp).dims == (1, 1)

    def test_dims_are_rank_times_counts(self):
        for rank, n in [(1, 2), (2, 3)]:
            hol = np.eye(rank) * 2.0
            ms = make_circle_morse(n, hol)
            comp, _ = build_thom_smale(ms, CriticalForms.standard(ms))
            assert comp.dims == (rank * n, rank * n)

    def test_inconsistent_instantons_rejected(self):
        """A system with degree-2 points whose d^2 != 0 names the offending pair."""
        points = (
            CriticalPoint("a", 0),
            CriticalPoint("b", 1),
            CriticalPoint("c", 2),
        )
        one = np.eye(1)
        instantons = (
            Instanton("b", "a", +1, one),
            Instanton("c", "b", +1, one),
        )
        ms = MorseSystem(points, instantons, rank=1)
        with pytest.raises(ChainComplexError) as info:
            build_thom_smale(ms, CriticalForms.standard(ms))
        assert info.value.offending_pair is not None


class TestStackedChecks:
    """Forms and holonomies are checked as stacks; the first failure is named."""

    def test_third_of_five_forms_asymmetric(self):
        labels = [f"m{j}" for j in range(5)]
        forms = {lab: np.eye(2) for lab in labels}
        forms["m2"] = np.array([[1.0, 2.0], [0.0, 1.0]])
        forms["m3"] = np.zeros((2, 2))
        with pytest.raises(DegenerateFormError, match="^critical form at m2 not symmetric$"):
            CriticalForms(forms)
        forms["m2"], forms["m3"] = np.zeros((2, 2)), np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(DegenerateFormError, match="^critical form at m2 degenerate$"):
            CriticalForms(forms)

    def test_fourth_of_five_forms_degenerate(self):
        forms = {f"m{j}": np.eye(3) for j in range(5)}
        forms["m3"] = np.diag([1.0, 1.0, 1e-13])
        forms["m4"] = np.zeros((3, 3))
        with pytest.raises(DegenerateFormError, match="^critical form at m3 degenerate$"):
            CriticalForms(forms)

    def test_overflowing_form_is_not_called_degenerate(self):
        """1e200 I has a determinant that overflows, not a degenerate one: the
        refusal says so instead of calling the form degenerate."""
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidMatrixError, match="matrix 1 in the stack is not finite"):
                CriticalForms({"a": np.eye(2), "b": 1e200 * np.eye(2)})

    def test_forms_of_different_shapes_refused(self):
        with pytest.raises(DimensionError, match="differ in shape"):
            CriticalForms({"m": np.eye(1), "M": np.eye(2)})

    def test_form_shape_must_match_rank(self):
        ms = make_circle_morse(1, 2.0)
        forms = CriticalForms({p.label: np.eye(2) for p in ms.points})
        with pytest.raises(DimensionError, match="^critical form at m0 has shape"):
            build_thom_smale(ms, forms)

    def test_second_holonomy_singular(self):
        points = (CriticalPoint("m0", 0), CriticalPoint("m1", 0), CriticalPoint("M0", 1))
        hols = [np.eye(2), np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros((2, 2))]
        instantons = tuple(Instanton("M0", tgt, sign, h) for tgt, sign, h in
                           zip(("m0", "m1", "m0"), (1, -1, 1), hols))
        with pytest.raises(HolonomyError, match="^instanton M0->m1 holonomy singular$"):
            MorseSystem(points, instantons, rank=2)
        MorseSystem(points, instantons[:1], rank=2)


class TestOneComplexPerSystem:
    """A Morse system assembles its Thom-Smale complex once, whatever the forms;
    the values are those of a freshly built system, bit for bit."""

    @pytest.fixture
    def builds(self, monkeypatch):
        count = [0]
        check = GradedComplex.__post_init__

        def counting(self):
            count[0] += 1
            check(self)

        monkeypatch.setattr(GradedComplex, "__post_init__", counting)
        return count

    def test_turaev_calls_build_one_complex(self, builds):
        rep = Representation({"g": np.array([[3.0]])}, 1)
        ms = make_circle_morse(1, 3.0)
        calls = [(EulerStructure("m0", {"m0": k, "M0": k}), [[1.0 + 0.5j * k]]) for k in range(12)]
        values = [turaev_torsion(ms, rep, e, b0) for e, b0 in calls]
        assert builds[0] == 1
        for (e, b0), value in zip(calls, values):
            assert value == turaev_torsion(make_circle_morse(1, 3.0), rep, e, b0)

    def test_milnor_calls_with_different_forms_build_one_complex(self, builds):
        rng = np.random.default_rng(5)
        hol = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) + 2 * np.eye(2)
        ms = make_circle_morse(2, hol)
        f0, f1 = _random_forms(rng, ms), _random_forms(rng, ms)
        values = [milnor_torsion(ms, f0), milnor_torsion(ms, f1)]
        assert builds[0] == 1
        assert values[0] != values[1]
        assert values == [milnor_torsion(make_circle_morse(2, hol), f) for f in (f0, f1)]

    def test_replaced_system_builds_its_own(self, builds):
        ms = make_circle_morse(1, 3.0)
        forms = CriticalForms.standard(ms)
        assert milnor_torsion(ms, forms) == pytest.approx(0.25, rel=1e-12)
        seam = replace(ms.instantons[-1], holonomy=np.array([[5.0]]))
        moved = replace(ms, instantons=ms.instantons[:-1] + (seam,))
        assert milnor_torsion(moved, forms) == pytest.approx(1.0 / 16.0, rel=1e-12)
        assert milnor_torsion(ms, forms) == pytest.approx(0.25, rel=1e-12)
        assert builds[0] == 2

    def test_missing_or_misshapen_form_raises_on_every_call(self, builds):
        ms = make_circle_morse(2, 3.0)
        missing = CriticalForms({lab: np.eye(1) for lab in ("m0", "M0", "m1")})
        misshapen = CriticalForms({p.label: np.eye(2) for p in ms.points})
        for _ in range(2):
            with pytest.raises(ShapeError, match="^no critical form supplied for M1$"):
                milnor_torsion(ms, missing)
            with pytest.raises(DimensionError, match="^critical form at m0 has shape"):
                milnor_torsion(ms, misshapen)
        assert builds[0] == 1

    def test_inconsistent_system_raises_on_every_call(self):
        points = (CriticalPoint("a", 0), CriticalPoint("b", 1), CriticalPoint("c", 2))
        one = np.eye(1)
        ms = MorseSystem(points, (Instanton("b", "a", +1, one), Instanton("c", "b", +1, one)))
        for _ in range(2):
            with pytest.raises(ChainComplexError) as info:
                milnor_torsion(ms, CriticalForms.standard(ms))
            assert info.value.offending_pair == ("a", "c")


class TestMilnorTorsion:
    def test_circle_lam_three(self):
        ms = make_circle_morse(1, 3.0)
        assert milnor_torsion(ms, CriticalForms.standard(ms)) == pytest.approx(0.25)

    def test_circle_lam_two(self):
        ms = make_circle_morse(1, 2.0)
        assert milnor_torsion(ms, CriticalForms.standard(ms)) == pytest.approx(1.0)

    def test_circle_lam_one_standard_h(self):
        ms = make_circle_morse(1, 1.0)
        assert milnor_torsion(ms, CriticalForms.standard(ms)) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_rank_one_family(self, seed):
        """milnor(N=1, lam) = (1 - lam)^{-2} for seeded lam with |1-lam| > 0.1."""
        rng = np.random.default_rng(777 + seed)
        while True:
            lam = rng.uniform(0.3, 2.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            if abs(1 - lam) > 0.1:
                break
        ms = make_circle_morse(1, lam)
        value = milnor_torsion(ms, CriticalForms.standard(ms))
        assert value == pytest.approx(1.0 / (1.0 - lam) ** 2, rel=1e-12)

    def test_cross_n_equality(self):
        lam = 3.0
        v1 = milnor_torsion(make_circle_morse(1, lam), CriticalForms.standard(make_circle_morse(1, lam)))
        v2 = milnor_torsion(make_circle_morse(2, lam), CriticalForms.standard(make_circle_morse(2, lam)))
        assert v1 == pytest.approx(v2, rel=1e-12)


class TestAnomaly:
    def test_equal_forms(self):
        ms = make_circle_morse(1, 2.0)
        cf = CriticalForms.standard(ms)
        assert milnor_anomaly_check(ms, cf, cf) == pytest.approx(1.0)

    def test_single_minimum_scaling(self):
        """Scaling b at one index-0 point by 4 predicts ratio 4."""
        ms = make_circle_morse(1, 3.0)
        cf0 = CriticalForms.standard(ms)
        cf1 = CriticalForms({"m0": np.array([[4.0]]), "M0": np.array([[1.0]])})
        assert milnor_anomaly_check(ms, cf0, cf1) == pytest.approx(4.0)
        ratio = milnor_torsion(ms, cf1) / milnor_torsion(ms, cf0)
        assert ratio == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_rank_two_recomputation(self, seed):
        rng = np.random.default_rng(31 + seed)
        hol = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) + 2 * np.eye(2)
        ms = make_circle_morse(2, hol)

        def forms():
            out = {}
            for p in ms.points:
                a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                out[p.label] = a + a.T + 3 * np.eye(2)
            return CriticalForms(out)

        f0, f1 = forms(), forms()
        predicted = milnor_anomaly_check(ms, f0, f1)
        ratio = milnor_torsion(ms, f1) / milnor_torsion(ms, f0)
        assert ratio == pytest.approx(predicted, rel=1e-9)


    @pytest.mark.parametrize("rank, pairs", [(1, 1), (1, 3), (2, 2), (3, 1)])
    def test_stacked_matches_pointwise(self, rank, pairs):
        """One stacked solve and determinant give, bit for bit, the product of
        the per-point determinants of b_x^{-1} b1_x."""
        rng = np.random.default_rng(10 * rank + pairs)
        hol = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
        ms = make_circle_morse(pairs, hol + 2 * np.eye(rank))
        f0, f1 = _random_forms(rng, ms), _random_forms(rng, ms)
        want = 1.0 + 0.0j
        for p in ms.points:
            det = lu_det(np.linalg.solve(f0.forms[p.label], f1.forms[p.label]))
            want = want * det if p.index % 2 == 0 else want / det
        assert milnor_anomaly_check(ms, f0, f1) == want

    def test_refuses_forms_the_torsion_refuses(self):
        """Forms that are not rank x rank, or a set without a point's form, are
        refused as ``milnor_torsion`` refuses them, by type, naming the shape or
        the point, in either argument."""
        ms = make_circle_morse(1, 3.0)
        unit = CriticalForms.standard(ms)
        wide = CriticalForms({p.label: np.eye(2) for p in ms.points})
        partial = CriticalForms({"m0": np.eye(1)})
        for forms, error, message in ((wide, DimensionError, "^critical form at m0 has shape"),
                                      (partial, ShapeError, "^no critical form supplied for M0$")):
            for call in (lambda: milnor_torsion(ms, forms),
                         lambda: milnor_anomaly_check(ms, forms, unit),
                         lambda: milnor_anomaly_check(ms, unit, forms)):
                with pytest.raises(error, match=message):
                    call()


class TestMakeCircleMorse:
    def test_counts(self):
        ms = make_circle_morse(3, 2.0)
        assert ms.morse_counts() == [3, 3]
        assert ms.euler_characteristic() == 0

    def test_single_seam_holonomy(self):
        lam = 5.0
        ms = make_circle_morse(2, lam)
        nontrivial = [i for i in ms.instantons if abs(i.holonomy[0, 0] - 1.0) > 1e-14]
        assert len(nontrivial) == 1
        assert nontrivial[0].holonomy[0, 0] == pytest.approx(lam)

    def test_invalid_inputs(self):
        with pytest.raises(DimensionError):
            make_circle_morse(0, 2.0)
        with pytest.raises(HolonomyError):
            make_circle_morse(1, 0.0)

    def test_d_squared_zero_every_generated_system(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            lam = rng.standard_normal() + 1j * rng.standard_normal() + 2.0
            ms = make_circle_morse(n, lam, seam_arc=int(rng.integers(0, 2 * n)))
            build_thom_smale(ms, CriticalForms.standard(ms))  # validates d^2 = 0

    def test_global_sign_flip_invariance(self):
        """Flipping every instanton sign leaves the (squared) torsion unchanged."""
        lam = 0.4 + 1.2j
        ms = make_circle_morse(2, lam)
        flipped = MorseSystem(
            ms.points,
            tuple(Instanton(i.source, i.target, -i.sign, i.holonomy) for i in ms.instantons),
            rank=ms.rank,
            geometry=ms.geometry,
        )
        v0 = milnor_torsion(ms, CriticalForms.standard(ms))
        v1 = milnor_torsion(flipped, CriticalForms.standard(flipped))
        assert v1 == pytest.approx(v0, rel=1e-12)


class TestCircleLoop:
    @pytest.mark.parametrize("holonomy", [3.0, np.array([[2.0, 1.0], [0.5, 3.0 + 1.0j]])],
                             ids=["rank_one", "rank_two"])
    def test_clockwise_transport_inverted(self, holonomy):
        """The seam block sits on arc ``seam_arc``: an odd arc's instanton flows
        counterclockwise (sign +1) and the loop is the block, an even arc's flows
        clockwise (sign -1) and the loop is the block's inverse."""
        block = np.asarray(holonomy, dtype=complex).reshape(np.shape(holonomy) or (1, 1))
        for arc in range(4):
            ms = make_circle_morse(2, holonomy, seam_arc=arc)
            want = block if arc % 2 else np.linalg.inv(block)
            assert np.max(np.abs(circle_loop(ms) - want)) <= 1e-15 * np.max(np.abs(want))

    def test_transports_in_tuple_order(self):
        """Two non-commuting transports: the loop is a b^{-1}, not b^{-1} a."""
        a = np.array([[1.0, 2.0], [0.0, 1.0]])
        b = np.array([[1.0, 0.0], [3.0, 1.0]])
        ms = MorseSystem((CriticalPoint("m0", 0), CriticalPoint("M0", 1)),
                         (Instanton("M0", "m0", 1, a), Instanton("M0", "m0", -1, b)), rank=2)
        assert np.array_equal(circle_loop(ms), a @ np.linalg.inv(b))
        assert not np.allclose(a @ np.linalg.inv(b), np.linalg.inv(b) @ a)

    def test_no_instantons(self):
        ms = MorseSystem((CriticalPoint("m0", 0), CriticalPoint("M0", 1)), (), rank=2)
        assert np.array_equal(circle_loop(ms), np.eye(2))
