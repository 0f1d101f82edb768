import numpy as np
import pytest

from bitorsion.errors import EulerCharacteristicError, PresentationError, ShapeError
from bitorsion.morse import CriticalPoint, MorseSystem, circle_loop, make_circle_morse
from bitorsion.turaev import (
    EulerStructure,
    IntPoly,
    KnotPresentation,
    Representation,
    _fox_row,
    _poly_det,
    euler_class_circle,
    fox_alexander,
    knot_from_braid,
    parse_word,
    turaev_torsion,
)

LAM = 3.0


def rep():
    return Representation({"g": np.array([[LAM]])}, 1)


class TestEulerClass:
    def test_canonical_n1(self):
        ms = make_circle_morse(1, LAM)
        assert euler_class_circle(ms, EulerStructure("m0", {})) == 0

    def test_index_one_winding(self):
        """Winding the maximum's spider once shifts the class by (-1)^1."""
        ms = make_circle_morse(1, LAM)
        assert euler_class_circle(ms, EulerStructure("m0", {"M0": 1})) == -1

    def test_canonical_n2(self):
        ms = make_circle_morse(2, LAM)
        assert euler_class_circle(ms, EulerStructure("m0", {})) == 0

    @pytest.mark.parametrize("e, label", [
        (EulerStructure("zz", {}), "zz"),
        (EulerStructure("m0", {"M1": 1}), "M1"),
        (EulerStructure("m0", {"M0": 1, "m1": 0}), "m1"),
    ], ids=["base_point", "winding", "zero_winding"])
    def test_unknown_label_refused(self, e, label):
        """A base point or winding label that is not a point of the system is
        a ShapeError naming it, from the class and the torsion alike, not a
        KeyError or a winding silently dropped."""
        ms = make_circle_morse(1, LAM)
        with pytest.raises(ShapeError, match=repr(label)):
            euler_class_circle(ms, e)
        with pytest.raises(ShapeError, match=repr(label)):
            turaev_torsion(ms, rep(), e, [[1.0]])

    @pytest.mark.parametrize("seam_arc", [0, 1, 2, 3])
    def test_torsion_shifts_by_the_class(self, seam_arc):
        """On two pairs, any seam arc, base point and windings: the torsion is
        loop^(-2c) times one constant, c the class the same spiders give."""
        ms = make_circle_morse(2, LAM, seam_arc=seam_arc)
        loop = circle_loop(ms)[0, 0]
        r = Representation({"g": [[loop]]}, 1)
        values = {}
        for point in ("m0", "M0", "m1", "M1"):
            for windings in ({}, {"M1": 1}, {"m0": -1, "M0": 2}, {"m1": 2}):
                e = EulerStructure(point, windings)
                cls = euler_class_circle(ms, e)
                values[point, str(windings)] = turaev_torsion(ms, r, e, [[1.0]]) * loop ** (2 * cls)
        first = next(iter(values.values()))
        assert all(v == pytest.approx(first, rel=1e-12) for v in values.values())


class TestTuraevTorsion:
    def test_reduces_to_milnor(self):
        ms = make_circle_morse(1, LAM)
        value = turaev_torsion(ms, rep(), EulerStructure("m0", {}), [[1.0]])
        assert value == pytest.approx(1.0 / (1.0 - LAM) ** 2)

    def test_b0_independence(self):
        ms = make_circle_morse(1, LAM)
        e = EulerStructure("m0", {})
        v1 = turaev_torsion(ms, rep(), e, [[1.0]])
        v9 = turaev_torsion(ms, rep(), e, [[9.0]])
        vc = turaev_torsion(ms, rep(), e, [[2.0 - 1.5j]])
        assert v9 == pytest.approx(v1, rel=1e-12)
        assert vc == pytest.approx(v1, rel=1e-12)

    def test_euler_structure_shift(self):
        """Shifting the class multiplies the rank-one torsion by lam^{2 k s}, s = -1."""
        ms = make_circle_morse(1, LAM)
        base = turaev_torsion(ms, rep(), EulerStructure("m0", {}), [[1.0]])
        moved = turaev_torsion(ms, rep(), EulerStructure("m0", {"M0": 1}), [[1.0]])
        cls = euler_class_circle(ms, EulerStructure("m0", {"M0": 1}))
        assert moved / base == pytest.approx(LAM ** (-2 * cls), rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_choice_independence(self, seed):
        """Re-choices at fixed class: global shifts, compensating bumps, random b0."""
        rng = np.random.default_rng(1000 + seed)
        ms = make_circle_morse(1, LAM)
        base = turaev_torsion(ms, rep(), EulerStructure("m0", {}), [[1.0]])
        t = int(rng.integers(-3, 4))
        e = EulerStructure("m0", {"m0": t, "M0": t})
        assert euler_class_circle(ms, e) == 0
        b0 = complex(rng.standard_normal() + 1j * rng.standard_normal() + 3.0)
        value = turaev_torsion(ms, rep(), e, [[b0]])
        assert value == pytest.approx(base, rel=1e-12)

    def test_cross_morse_invariance(self):
        ms1 = make_circle_morse(1, LAM)
        ms2 = make_circle_morse(2, LAM)
        e1, e2 = EulerStructure("m0", {}), EulerStructure("m0", {})
        assert euler_class_circle(ms1, e1) == euler_class_circle(ms2, e2) == 0
        v1 = turaev_torsion(ms1, rep(), e1, [[1.0]])
        v2 = turaev_torsion(ms2, rep(), e2, [[1.0]])
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_rank_two(self):
        hol = np.diag([2.0, 3.0])
        ms = make_circle_morse(1, hol)
        r = Representation({"g": hol}, 2)
        value = turaev_torsion(ms, r, EulerStructure("m0", {}), np.eye(2))
        assert value == pytest.approx(1.0 / ((1 - 2.0) ** 2 * (1 - 3.0) ** 2), rel=1e-12)

    def test_chi_nonzero_rejected(self):
        points = (CriticalPoint("a", 0),)
        ms = MorseSystem(points, (), rank=1)
        with pytest.raises(EulerCharacteristicError):
            turaev_torsion(ms, rep(), EulerStructure("a", {}), [[1.0]])

    def test_non_circle_system_rejected(self):
        from bitorsion.errors import UnsupportedSystemError

        points = (CriticalPoint("a", 0), CriticalPoint("b", 1))
        ms = MorseSystem(points, (), rank=1)  # no geometry attached
        with pytest.raises(UnsupportedSystemError):
            euler_class_circle(ms, EulerStructure("a", {}))


TREFOIL = KnotPresentation(("a", "b", "c"), ("a b A C", "b c B A"))


class TestFoxAlexander:
    def test_unknot(self):
        assert str(fox_alexander(KnotPresentation(("a",), ()))) == "1"

    def test_trefoil_hand_oracle(self):
        """Fox rows computed by hand: (1-t, t, -1) and (-1, 1-t, t); minor det t^2 - t + 1."""
        delta = fox_alexander(TREFOIL)
        assert str(delta) == "t^2 - t + 1"
        assert delta(1) == 1

    def test_figure_eight(self):
        fig8 = knot_from_braid([1, -2, 1, -2], 3)
        delta = fox_alexander(fig8)
        assert str(delta) == "t^2 - 3*t + 1"
        assert delta(1) == -1

    def test_braid_trefoil_matches_wirtinger(self):
        assert fox_alexander(knot_from_braid([1, 1, 1], 2)) == fox_alexander(TREFOIL)

    def test_corpus_properties(self):
        """Delta(1) = +-1 and palindromicity across a 10-knot corpus."""
        corpus = [
            KnotPresentation(("a",), ()),
            TREFOIL,
            knot_from_braid([1, -2, 1, -2], 3),
            knot_from_braid([1] * 5, 2),
            knot_from_braid([1, 1, 1, 2, -1, 2], 3),
            knot_from_braid([1, 1, 1, -2, 1, -2], 3),
            knot_from_braid([1, 1, -2, 1, -2, -2], 3),
            knot_from_braid([1] * 7, 2),
            knot_from_braid([1, 1, 1, 2, 2, 2], 3),
            knot_from_braid([1, 1, 1, 2, 1, 1, 1, 2], 3),
        ]
        assert len(corpus) == 10
        for pres in corpus:
            delta = fox_alexander(pres)
            assert delta(1) in (1, -1)
            assert delta.normalized() == delta.reversed_var().normalized()

    def test_deficiency_enforced(self):
        with pytest.raises(PresentationError):
            KnotPresentation(("a", "b"), ())

    def test_exponent_sum_enforced(self):
        with pytest.raises(PresentationError):
            KnotPresentation(("a", "b"), ("a b",))

    def test_relators_parsed_once(self):
        """``letters`` is each relator as ``parse_word`` reads it, with no part
        in equality, the hash or the repr: two presentations of one word list
        are equal however they were made."""
        pres = knot_from_braid([1, -2, 1, -2], 3)
        assert pres.letters == tuple(tuple(parse_word(w, pres.generators))
                                     for w in pres.relators)
        same = KnotPresentation(list(pres.generators), list(pres.relators))
        assert same == pres and hash(same) == hash(pres) and repr(same) == repr(pres)
        assert "letters" not in repr(pres)

    def test_link_closure_rejected(self):
        with pytest.raises(PresentationError):
            knot_from_braid([1, 1], 2)  # Hopf link

    def test_vanished_minor_rejected(self):
        """A relator whose Fox row vanishes leaves a zero minor: refused, not returned."""
        with pytest.raises(PresentationError, match="minor vanished"):
            fox_alexander(KnotPresentation(("a", "b"), ("a A",)))

    @pytest.mark.parametrize("p,q", [(2, q) for q in range(3, 26, 2)]
                             + [(3, 13), (4, 7), (5, 6), (2, 51), (3, 25), (7, 8), (2, 101)])
    def test_torus_knot_closed_form(self, p, q):
        """Delta (t^p - 1)(t^q - 1) = (t^pq - 1)(t - 1) for the torus knot T(p, q)."""
        word = [i for _ in range(q) for i in range(1, p)]
        delta = fox_alexander(knot_from_braid(word, p))

        def t_minus_one(k):
            return IntPoly({k: 1, 0: -1})

        assert delta * t_minus_one(p) * t_minus_one(q) == t_minus_one(p * q) * t_minus_one(1)


def _reduced_burau(generator, strands, t):
    """Reduced Burau matrix of sigma_i^{+-1}, (strands - 1) x (strands - 1)."""
    i = abs(generator)
    m = np.eye(strands - 1)
    m[i - 1, i - 1] = -t
    if i > 1:
        m[i - 1, i - 2] = t
    if i < strands - 1:
        m[i - 1, i] = 1.0
    return m if generator > 0 else np.linalg.inv(m)


def _random_knot_braids(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        strands = int(rng.integers(3, 6))
        word = [int(rng.choice([-1, 1]) * rng.integers(1, strands))
                for _ in range(int(rng.integers(strands, 15)))]
        try:
            out.append((word, knot_from_braid(word, strands), strands))
        except PresentationError:  # the closure is a link
            continue
    return out


class TestBurauOracle:
    @pytest.mark.parametrize("word,pres,strands", _random_knot_braids(20, 7))
    def test_matches_reduced_burau(self, word, pres, strands):
        """det(I - B(beta)) = +-t^k Delta(t) (1 + t + ... + t^{n-1}), no Fox calculus.

        The unit +-t^k is read off at t = 2 and must then hold at t = 0.6 and -1.3.
        """
        delta = fox_alexander(pres)

        def ratio(t):
            burau = np.eye(strands - 1)
            for s in word:
                burau = burau @ _reduced_burau(s, strands, t)
            return np.linalg.det(np.eye(strands - 1) - burau) / (
                delta(t) * sum(t**j for j in range(strands)))

        sign, k = np.sign(ratio(2.0)), np.log2(abs(ratio(2.0)))
        assert k == pytest.approx(round(k), abs=1e-9)
        for t in (0.6, -1.3):
            assert ratio(t) == pytest.approx(sign * t ** round(k), rel=1e-9)


# the 22 torus knots and the ten-knot corpus (braid word, strands) of the benchmark
TORUS_KNOTS = (
    (2, 3), (2, 5), (2, 7), (2, 9), (2, 11), (2, 13), (2, 15), (2, 17), (2, 19), (2, 21),
    (2, 23), (2, 25), (3, 4), (3, 5), (3, 7), (3, 8), (3, 10), (3, 11), (3, 13), (4, 5),
    (4, 7), (5, 6),
)
CORPUS_BRAIDS = (
    ("trefoil", (1, 1, 1), 2), ("figure-eight", (1, -2, 1, -2), 3),
    ("cinquefoil", (1,) * 5, 2), ("5_2", (1, 1, 1, 2, -1, 2), 3),
    ("6_2", (1, 1, 1, -2, 1, -2), 3), ("6_3", (1, 1, -2, 1, -2, -2), 3),
    ("7_1", (1,) * 7, 2), ("granny", (1, 1, 1, 2, 2, 2), 3),
    ("8_19", (1, 1, 1, 2, 1, 1, 1, 2), 3),
)
DET_CASES = (
    [(f"T({p},{q})", knot_from_braid([i for _ in range(q) for i in range(1, p)], p))
     for p, q in TORUS_KNOTS]
    + [("unknot", KnotPresentation(("a",), ()))]
    + [(name, knot_from_braid(list(word), strands)) for name, word, strands in CORPUS_BRAIDS]
    + [(f"braid{k}", pres) for k, (_, pres, _) in enumerate(_random_knot_braids(20, 7))]
    # no unit entry in its Fox minor: the whole 1x1 block goes to Bareiss
    + [("two-generator-trefoil", KnotPresentation(("a", "b"), ("a b a B A B",)))]
)


class TestPolyDetSign:
    @pytest.mark.parametrize("pres", [pres for _, pres in DET_CASES],
                             ids=[name for name, _ in DET_CASES])
    def test_matches_float_det(self, pres):
        """The unnormalized Fox-minor determinant, sign and unit t^k included."""
        n = len(pres.generators)
        minor = [_fox_row(parse_word(w, pres.generators), n)[1:] for w in pres.relators]
        det = _poly_det(minor)
        for t in (2.0, -1.3):
            values = np.array([[sum(c * t**e for e, c in a.items()) for a in row]
                               for row in minor]).reshape(n - 1, n - 1)
            assert det(t) == pytest.approx(np.linalg.det(values), rel=1e-9)

    def test_zero_pivot_row_swap(self):
        """No unit entry, zero first pivot: Bareiss swaps rows and flips the sign."""
        mat = [[{}, {0: 1, 1: 1}], [{0: 2}, {1: 3}]]
        assert _poly_det(mat) == IntPoly({0: -2, 1: -2})
