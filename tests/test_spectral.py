import itertools
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bitorsion.circle as circle_module
from bitorsion.circle import (
    ChannelOperators,
    CircleModel,
    TrigPoly,
    build_discrete,
    exact_spectrum_circle,
    log_band_torsions,
    make_circle_model,
    modes_inside_cut,
    require_acyclic,
    witten_deform,
    zeta_det_exact,
)
from bitorsion.cli import main
from bitorsion.config import DEFAULT_TOL
from bitorsion.errors import (
    AmbiguousCutError,
    BitorsionError,
    DimensionError,
    InvalidMatrixError,
    ResolutionError,
    ThetaNotZeroError,
    ZeroModeError,
)
from bitorsion.numkernel import schur_decomposition
from bitorsion.serialize import load_circle_model
from bitorsion.spectral import (
    band_sweep,
    bz_compare,
    conjugation_isospectral_check,
    milnor_from_model,
    model_critical_forms,
    morse_from_potential,
    rs_torsion,
    small_spectrum_dims,
    spectral_cut,
    theorem33_experiment,
)
from bitorsion.turaev import EulerStructure, Representation, euler_class_circle, turaev_torsion

# cos theta + 0.3 sin 2 theta, whose critical points are not symmetric: a
# density wrong near them moves the discrete rs by 5% at lam = 2
ASYMMETRIC = TrigPoly(cos_coeffs=((1, 1.0),), sin_coeffs=((2, 0.3),))
COS = TrigPoly.cos(1.0, 1)
TWO_PI = 2 * np.pi
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _ulps_from_one(ulps):
    """The float ``ulps`` steps above 1, or below it for a negative count."""
    lam = 1.0
    for _ in range(abs(ulps)):
        lam = np.nextafter(lam, 2.0 if ulps > 0 else 0.0)
    return float(lam)


class TestRsTorsion:
    def test_cut_independence(self):
        """Prop-style: identical across admissible cuts."""
        model = make_circle_model(2.0, f=("cos", 1))
        vals = [rs_torsion(model, cut=a) for a in (0.0, 0.5, 2.0, 5.0)]
        for v in vals[1:]:
            assert abs(v - vals[0]) <= 1e-10 * abs(vals[0])

    def test_exact_value(self):
        lam = 2.0
        model = make_circle_model(lam)
        assert rs_torsion(model) == pytest.approx(lam / (1 - lam) ** 2)

    def test_gy_matches_exact(self):
        model = make_circle_model(2.0)
        assert rs_torsion(model, method="gy") == pytest.approx(
            rs_torsion(model, method="exact"), rel=1e-9
        )

    def test_trivial_holonomy_finite(self):
        """Zero-mode bookkeeping: above a positive cut the value at holonomy 1
        is the primed closed form 1 / L^2."""
        for length in (TWO_PI, 3.0):
            assert rs_torsion(CircleModel(1.0, length=length), cut=0.5) == 1.0 / complex(length**2)

    def test_discrete_method(self):
        model = make_circle_model(2.0, phi=("sin", 0.3), f=("cos", 1))
        ref = rs_torsion(make_circle_model(2.0))
        got = rs_torsion(model, cut=0.5, method="discrete")
        assert abs(got - ref) <= 1e-9 * abs(ref)

    @pytest.mark.parametrize("cut", [0.0, 0.5, 2.0, 5.0])
    @pytest.mark.parametrize("lam, phi, potential, t_param", [
        (2.0, TrigPoly.sin(0.3), COS, 0.0),
        (1.1, TrigPoly.cos(0.4), ASYMMETRIC, 3.0),
        (0.5, TrigPoly.sin(0.3), ASYMMETRIC, 0.0),
        (-2.0, TrigPoly.sin(0.9), COS, 3.0),
        (0.4 - 0.8j, TrigPoly.cos(0.4), ASYMMETRIC, 3.0),
        (np.exp(0.9j), TrigPoly.sin(2.0), COS, 3.0),
    ], ids=["real", "near_one_flat_T3", "half_flat", "negative_T3", "complex_flat_T3",
            "unitary_T3"])  # the "flat" ids are the asymmetric potential
    def test_discrete_matches_exact_at_every_cut(self, lam, phi, potential, t_param, cut):
        """det K in closed form does not depend on the cut, and neither does
        the value: it is the exact one at every cut, wavy, asymmetric and
        deformed densities included."""
        model = witten_deform(CircleModel(lam, phi=phi, potential=potential), t_param)
        want = rs_torsion(model, cut=cut, method="exact")
        got = rs_torsion(model, cut=cut, method="discrete")
        assert abs(got - want) <= 1e-11 * abs(want)

    @pytest.mark.parametrize("phi", [TrigPoly.sin(0.3), TrigPoly.cos(0.4)], ids=["sin", "cos"])
    @pytest.mark.parametrize("lam", [2.0, 0.5 + 0.8j, np.diag([2.0, 0.4 + 0.3j])],
                             ids=["2", "0.5+0.8i", "diag(2,0.4+0.3i)"])
    def test_methods_agree_on_asymmetric_potential(self, lam, phi):
        """The smooth density phi - T f on cos theta + 0.3 sin 2 theta: gy and
        discrete are the exact value, deformed or not."""
        model = CircleModel(lam, phi=phi, potential=ASYMMETRIC)
        for t_param in (0.0, 3.0):
            deformed = witten_deform(model, t_param)
            want = rs_torsion(deformed, method="exact")
            assert abs(rs_torsion(deformed, method="gy") - want) <= 1e-12 * abs(want)
            assert abs(rs_torsion(deformed, method="discrete") - want) <= 1e-11 * abs(want)

    def test_discrete_refuses_k_out_of_range(self):
        """At T = 20000, e^{T f} leaves double range: det K is refused by name
        with the grid, not returned as nan, and so is the full spectrum.
        At T = 300 and 1000 K stays in range and the value is exact."""
        model = make_circle_model(2.0, f=("cos", 1))
        for t_param in (300.0, 1000.0):
            assert rs_torsion(witten_deform(model, t_param), method="discrete") == \
                pytest.approx(2.0, rel=1e-11)
        deep = witten_deform(model, 20000.0)
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            with pytest.raises(InvalidMatrixError, match="32-point grid"):
                rs_torsion(deep, method="discrete")
            disc = build_discrete(deep, 64)
            with pytest.raises(InvalidMatrixError, match="64-point grid"):
                disc.channels[0].log_det()
            with pytest.raises(InvalidMatrixError, match="64-point grid"):
                disc.eigenvalues()

    @pytest.mark.parametrize("t_param, gate", [
        (10.0, 8e-14), (300.0, 3.4e-12), (1000.0, 1.2e-11), (3000.0, 3e-11),
    ])
    def test_discrete_error_grows_with_deformation(self, t_param, gate):
        """The discrete value's error grows like eps N T: log det K holds a sum
        of N terms T (f(node) - f(mid)) that cancels to 0, and its rounding
        stays. On one well at holonomy 2 the relative errors are 4.3e-14,
        1.7e-12, 6.4e-12 and 1.6e-11 at T = 10, 300, 1000 and 3000; each gate
        is under twice its value."""
        model = witten_deform(make_circle_model(2.0, f=("cos", 1)), t_param)
        exact = rs_torsion(model, method="exact")
        assert abs(rs_torsion(model, method="discrete") - exact) <= gate * abs(exact)

    def test_discrete_refuses_trivial_holonomy(self):
        """det K = 0 at holonomy 1 whatever the density, so model and reference
        cancel only when phi = 0: the method refuses instead of returning a
        value, and so does gy, whose monodromy determinant is 0, at any cut,
        on a rank-two model's trivial channel too."""
        for holonomy in (1.0, np.diag([2.0, 1.0])):
            model = make_circle_model(holonomy, phi=("sin", 0.3), f=("cos", 1))
            for method, cut in itertools.product(("discrete", "gy"), (0.0, 0.5, 2.0)):
                with pytest.raises(ZeroModeError):
                    rs_torsion(model, cut=cut, method=method)

    @pytest.mark.parametrize("lam", [1 + 1e-13, 1 - 1e-13, 1 + 1e-12, 1 - 1e-12, 1 + 1e-10,
                                     1 - 1e-10, np.exp(1e-12j)],
                             ids=["+1e-13", "-1e-13", "+1e-12", "-1e-12", "+1e-10", "-1e-10",
                                  "unitary_1e-12"])
    def test_discrete_near_trivial_holonomy(self, lam):
        """Just outside the lam = 1 refusal det K carries the factor 1 - lam
        exactly: a telescoped product of rounded k_upper / k_diag ratios would
        lose about 4e-15 / |lam - 1| of the value."""
        model = make_circle_model(lam, phi=("sin", 0.3), f=("cos", 1))
        want = rs_torsion(model, cut=0.5, method="exact")
        got = rs_torsion(model, cut=0.5, method="discrete")
        assert abs(got - want) <= 1e-11 * abs(want)

    @pytest.mark.parametrize("cut", [0.0, 0.5, 2.0, 5.0])
    @pytest.mark.parametrize("holonomy", [2.0, 0.4 - 0.8j, np.exp(0.9j), -1.0,
                                          np.array([[2.0, 1.0], [0.5, 3.0]])],
                             ids=["2", "complex", "unitary", "-1", "rank_two"])
    def test_exact_is_the_closed_form(self, holonomy, cut):
        """The exact value is 1 / zeta_det_exact(lam, L, cut=0.0) per channel,
        bit for bit at every admissible cut, multiplied in channel order."""
        model = make_circle_model(holonomy, f=("cos", 1))
        want = 1.0 + 0.0j
        for lam in model.channel_holonomies():
            want *= 1.0 / zeta_det_exact(lam, model.length, cut=0.0)
        assert rs_torsion(model, cut=cut, method="exact") == want

    @pytest.mark.parametrize("cut", [0.5, 2.0, 5.0])
    @pytest.mark.parametrize("holonomy", [2.0, 0.4 - 0.8j, np.diag([2.0, 0.5 + 0.8j])],
                             ids=["2", "complex", "rank_two"])
    def test_gy_and_discrete_ignore_the_cut(self, holonomy, cut):
        """A cut with modes inside changes no route's value: gy and discrete
        return their cut-0 values bit for bit, which are the exact one."""
        model = make_circle_model(holonomy, phi=("sin", 0.3), f=("cos", 1))
        want = rs_torsion(model, method="exact")
        for method in ("gy", "discrete"):
            got = rs_torsion(model, cut=cut, method=method)
            assert got == rs_torsion(model, method=method)
            assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("ulps", [1, 10, 44, -1, -10, -44])
    def test_ulps_from_trivial_holonomy(self, ulps):
        """Only holonomy 1 itself is refused: k ulp away each route carries the
        factor 1 - lam exactly and gives lam / (1 - lam)^2, about 1e31."""
        lam = _ulps_from_one(ulps)
        want = lam / (1.0 - lam) ** 2
        model = make_circle_model(lam, f=("cos", 1))
        for method in ("exact", "gy", "discrete"):
            assert abs(rs_torsion(model, method=method) - want) <= 1e-12 * want

    def test_rank_two_product(self):
        model = CircleModel(np.diag([2.0, 3.0]))
        expected = (2.0 / (1 - 2.0) ** 2) * (3.0 / (1 - 3.0) ** 2)
        assert rs_torsion(model) == pytest.approx(expected)

    def test_non_diagonal_holonomy(self):
        """A non-diagonal holonomy goes through the channel split."""
        from dataclasses import replace

        rng = np.random.default_rng(5)
        p = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) + 2 * np.eye(2)
        lam_mat = p @ np.diag([2.0, 0.5 + 0.8j]) @ np.linalg.inv(p)
        model = replace(make_circle_model(2.0, f=("cos", 1)), holonomy=lam_mat)
        expected = (2.0 / (1 - 2.0) ** 2) * ((0.5 + 0.8j) / (1 - (0.5 + 0.8j)) ** 2)
        assert rs_torsion(model) == pytest.approx(expected, rel=1e-10)
        assert bz_compare(model) == pytest.approx(1.0, abs=1e-10)


def _rs_per_channel_model(model, cut, method):
    """rs_torsion's exact and gy routes one channel model at a time
    (``CircleModel.channels``), refusals in the same order."""
    positive_cut = bool(cut and cut > 0)
    out = 1.0 + 0.0j
    for sub in model.channels():
        lam = complex(sub.holonomy)
        if positive_cut:
            modes_inside_cut(exact_spectrum_circle(lam, sub.length), cut)
        if method != "exact" or not positive_cut:
            require_acyclic(lam)
        out *= 1.0 / zeta_det_exact(lam, sub.length, cut=0.0)
    return out


def _rs_outcome(fn):
    try:
        value = fn()
    except BitorsionError as exc:
        return type(exc), str(exc)
    return complex, (value.real.hex(), value.imag.hex())


# e^{-2 pi}, e^{-pi sqrt 2}: on L = 2 pi eigenvalues 2 and 5, and 0.5, sit on a cut
_ON_CUT = (np.exp(-TWO_PI), np.exp(-np.pi * np.sqrt(2.0)))
_ROT2 = np.array([[2.0, 1.0], [1.0, 3.0]])
_ROT3 = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
_CLOSED_FORM_HOLONOMIES = [
    2.0, 0.5 + 0.8j, np.exp(0.7j), -2.0, 1.0, *_ON_CUT, _ROT2,
    _ROT2 @ np.diag([2.0, 0.5 + 0.8j]) @ np.linalg.inv(_ROT2),
    _ROT2 @ np.diag([_ON_CUT[0], -2.0]) @ np.linalg.inv(_ROT2),
    np.diag([1.0, 2.0]),
    _ROT3 @ np.diag([2.0, 0.5 + 0.8j, np.exp(0.7j)]) @ np.linalg.inv(_ROT3),
    np.diag([_ON_CUT[1], 3.0, 0.5 + 0.8j]),
]


class TestClosedFormRs:
    """The exact and gy routes read only ``channel_holonomies()`` and L."""

    @pytest.mark.parametrize("method", ["exact", "gy"])
    @pytest.mark.parametrize("length", [TWO_PI, 3.0], ids=["2pi", "3"])
    def test_product_over_holonomies(self, monkeypatch, method, length):
        """Bit for bit the product of 1 / zeta_det_exact(lam, L, cut=0.0) over
        the channel holonomies, at ranks 1 to 3; every refusal at cuts 0.5,
        2 and 5 is the per-channel-model route's, message included; and no
        CircleModel is constructed."""
        models = [CircleModel(h, length=length, potential=COS) for h in _CLOSED_FORM_HOLONOMIES]
        want = {}
        for i, model in enumerate(models):
            for cut in (None, 0.0, 0.5, 2.0, 5.0):
                want[i, cut] = _rs_outcome(lambda: _rs_per_channel_model(model, cut, method))
        constructed = []
        post_init = CircleModel.__post_init__
        monkeypatch.setattr(CircleModel, "__post_init__",
                            lambda self: constructed.append(self) or post_init(self))
        got = {}
        for i, model in enumerate(models):
            for cut in (None, 0.0, 0.5, 2.0, 5.0):
                got[i, cut] = _rs_outcome(lambda: rs_torsion(model, cut=cut, method=method))
        assert not constructed
        assert got == want
        for i, model in enumerate(models):
            lams = model.channel_holonomies()
            if 1.0 in lams:
                continue
            product = 1.0 + 0.0j
            for lam in lams:
                product *= 1.0 / zeta_det_exact(lam, length, cut=0.0)
            assert got[i, 0.0] == (complex, (product.real.hex(), product.imag.hex()))
        if length == TWO_PI:  # the eigenvalues on the cut circle are refused
            refused = {cut for (_, cut), (kind, _) in got.items() if kind is AmbiguousCutError}
            assert refused == {0.5, 2.0, 5.0}


class TestAnomalyInvariance:
    def test_gy_route(self):
        """The monodromy growth factor exp(-2 int phi') is exactly 1 for a
        periodic density, so gy is the exact value bit for bit, next to
        lam = 1 included. A 1024-point trapezoid sum of phi' rounds to about
        -1.3e-16 on 0.3 sin theta; divided by |1 - lam| it put gy 2.2e-8 off
        at 1 + 1e-8, 2.2e-4 at 1 - 1e-12 and 0.29 at 1 - 1e-15."""
        rotation = np.array([[2.0, 1.0], [1.0, 3.0]])
        rotated = rotation @ np.diag([2.0, 0.5 + 0.8j]) @ np.linalg.inv(rotation)
        for phi in (TrigPoly.sin(0.3), TrigPoly.cos(1.0)):
            for lam in (1 - 1e-15, 1 - 1e-12, 1 + 1e-8, 2.0, 0.5 + 0.8j, np.exp(0.7j), rotated):
                model = CircleModel(lam, phi=phi, potential=COS)
                assert rs_torsion(model, method="gy") == rs_torsion(model)


class TestSmallSpectrum:
    def test_witten_counts_single_well(self):
        """The eigensolver counts one band eigenvalue; the minors of K measure
        it, and it shrinks from T = 5 to T = 10."""
        model = make_circle_model(2.0, f=("cos", 1))
        r10 = small_spectrum_dims(model, 10.0, 256)
        assert r10.counts == (1, 1)
        (b5,), (b10,) = band_sweep(model, [5.0, 10.0], 256)
        assert b10.log_torsion > b5.log_torsion

    def test_undeformed_counts_via_exact_oracle(self):
        """T = 0 band count from the closed-form family: one mode inside 0.5."""
        from bitorsion.circle import exact_spectrum_circle

        fam = exact_spectrum_circle(2.0)
        expected = len(fam.modes_in_disk(0.5))
        assert expected == 1
        rep = small_spectrum_dims(make_circle_model(2.0, f=("cos", 1)), 0.0, 128, threshold=0.5)
        assert rep.counts == (expected, expected)

    def test_threshold_hugging_raises(self):
        """At T = 0 the n = +-1 modes sit at 1.012: threshold 1 is unresolved."""
        model = make_circle_model(2.0, f=("cos", 1))
        with pytest.raises(ResolutionError):
            small_spectrum_dims(model, 0.0, 128, threshold=1.0)

    def test_two_wells(self):
        model = make_circle_model(2.0, f=("cos", 2))
        rep = small_spectrum_dims(model, 12.0, 256)
        assert rep.counts == (2, 2)

    @pytest.mark.parametrize("kind", ["real", "complex", "unitary", "rank_two"])
    def test_floor_bounds_dense_rounding(self, kind):
        """From T = 15 the band eigenvalues are far below rounding, so the dense
        branch (N <= DENSE_BAND_MAX_N) places each one at several
        eps ||K^T K||_1 an eigenvalue, its rounding floor: it still counts
        them, one per well and channel."""
        for wells in (1, 2, 3):
            model = make_circle_model(HOLONOMIES[kind], f=("cos", wells))
            for n_grid in (32, 48, 64):
                for t_param in (15.0, 20.0, 25.0):
                    rep = small_spectrum_dims(model, t_param, n_grid)
                    assert rep.counts == (model.rank * wells,) * 2

    def test_out_of_range_k_refused(self):
        """At N = 64 and T = 20000 e^{T f} leaves double range in K itself: the
        cut refuses K by name instead of factoring it."""
        model = make_circle_model(2.0, f=("cos", 1))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidMatrixError, match="64-point grid"):
                small_spectrum_dims(model, 20000.0, 64)

    def test_zero_entry_refused(self):
        ch = build_discrete(witten_deform(make_circle_model(2.0, f=("cos", 1)), 5.0), 64).channels[0]
        k_upper = ch.k_upper.copy()
        k_upper[7] = 0.0
        with pytest.raises(InvalidMatrixError, match="64-point grid"):
            spectral_cut(replace(ch, k_upper=k_upper), 1.0)

    @pytest.mark.parametrize("t_param, threshold, wells", [
        (5.0, 1.0, 1), (5.0, 1.0, 2), (0.0, 0.5, 1),
    ], ids=["T5_one_well", "T5_two_wells", "T0_half"])
    @pytest.mark.parametrize("kind", ["real", "complex", "unitary", "rank_two"])
    def test_report_matches_dense_oracle(self, kind, t_param, threshold, wells):
        """Counts and large-band minimum against the full dense spectra of
        every channel, at N = 64 (the dense branch of ``small_band``) and
        N = 128 (ARPACK)."""
        model = make_circle_model(HOLONOMIES[kind], f=("cos", wells))
        for n_grid in (64, 128):
            rep = small_spectrum_dims(model, t_param, n_grid, threshold=threshold)
            counts, large_min, radius = [0, 0], np.inf, 0.0
            for ch in build_discrete(witten_deform(model, t_param), n_grid).channels:
                k = _dense_k(ch)
                for degree, ev in enumerate((ch.eigenvalues(), np.linalg.eigvals(k @ k.T))):
                    inside = np.abs(ev) <= threshold
                    counts[degree] += int(np.sum(inside))
                    large_min = min(large_min, np.min(np.abs(ev[~inside])))
                    radius = max(radius, np.max(np.abs(ev)))
            assert rep.counts == tuple(counts)
            assert abs(rep.large_band_min - large_min) <= 1e-13 * radius


class TestConjugation:
    def test_zero_deformation(self):
        model = make_circle_model(2.0, f=("cos", 1))
        assert conjugation_isospectral_check(model, 0.0, 64) < 1e-12

    def test_matched_stencil_similarity(self):
        """The conjugated factor is the deformed one to rounding, deep in the
        deformation, on a wavy density over an asymmetric potential and for a
        non-diagonal holonomy."""
        model = make_circle_model(2.0, f=("cos", 1))
        assert conjugation_isospectral_check(model, 5.0, 128) < 1e-13
        assert conjugation_isospectral_check(model, 40.0, 128) < 1e-13
        for phi in (TrigPoly.sin(0.3), TrigPoly.cos(0.4)):
            asymmetric = CircleModel(0.5, phi=phi, potential=ASYMMETRIC)
            assert conjugation_isospectral_check(asymmetric, 10.0, 128) < 1e-13
        rank_two = make_circle_model(HOLONOMIES["rank_two"], f=("cos", 1))
        assert conjugation_isospectral_check(rank_two, 10.0, 128) < 1e-13

    @pytest.mark.parametrize("t_param, n_grid", [(1000.0, 64), (1000.0, 512), (2000.0, 64),
                                                 (2000.0, 512), (20000.0, 64)])
    def test_factors_out_of_range_refused(self, t_param, n_grid):
        """e^{+-T f} overflows for T beyond about 709 on cos potentials, and
        the conjugated entries become nan; at T = 20000 and N = 64 K itself
        does. A nan gap is refused by T, never compared away as 0.0."""
        model = make_circle_model(2.0, f=("cos", 1))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidMatrixError, match=f"T={t_param}"):
                conjugation_isospectral_check(model, t_param, n_grid)

    @pytest.mark.parametrize("t_param", [5.0, 10.0])
    @pytest.mark.parametrize("holonomy", [np.exp(0.7j), np.diag([2.0, np.exp(2.5j)])],
                             ids=["unitary", "rank_two"])
    def test_pairing_is_one_to_one(self, holonomy, t_param):
        """Spectra with a unitary channel hold near-degenerate pairs that a
        (Re, Im)-sorted pairing crosses; the factors have no pairing to get wrong."""
        model = make_circle_model(holonomy, f=("cos", 1))
        assert conjugation_isospectral_check(model, t_param, 64) < 1e-10

    def test_mismatched_stencil_surfaces_error(self, monkeypatch):
        """The check can fail: with the gradient term taken as a pointwise
        midpoint multiplier, the "conjugated" operator is no similarity of
        the deformed one, and the mismatch exceeds criterion 10's 1e-10 gate."""
        model = make_circle_model(2.0, f=("cos", 1))
        t_param = 5.0

        def node_stencil(ch, left, right):
            grad = model.potential.derivative(ch.mids, model.length)
            return replace(ch, k_diag=ch.k_diag + t_param * grad)

        monkeypatch.setattr(ChannelOperators, "conjugated", node_stencil)
        assert conjugation_isospectral_check(model, t_param, 128) > 1e-10

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_similarity_fault_surfaces_error(self, monkeypatch, kind):
        """A fault in ``conjugated`` that is itself a similarity keeps the
        spectrum but not the factor: negating every k_upper on an even grid
        is S K S with S = diag((-1)^i)."""
        conjugated = ChannelOperators.conjugated

        def flipped(ch, left, right):
            out = conjugated(ch, left, right)
            return replace(out, k_upper=-out.k_upper)

        monkeypatch.setattr(ChannelOperators, "conjugated", flipped)
        model = make_circle_model(HOLONOMIES[kind], f=("cos", 1))
        assert conjugation_isospectral_check(model, 5.0, 128) > 1e-10


class TestOneSpectrumPerChannel:
    """K^T K and K K^T share one spectrum, so the Witten counts solve each
    channel once, and the conjugation check compares factors, solving none."""

    @pytest.fixture
    def solves(self, monkeypatch):
        """The number of ``small_band`` and ``eigenvalues`` calls, by method."""
        calls = {"small_band": 0, "eigenvalues": 0}
        for name in calls:
            method = getattr(ChannelOperators, name)

            def counted(ch, *args, _method=method, _name=name):
                calls[_name] += 1
                return _method(ch, *args)

            monkeypatch.setattr(ChannelOperators, name, counted)
        return calls

    @pytest.mark.parametrize("kind", ["real", "complex", "unitary", "rank_two"])
    def test_small_spectrum_dims(self, solves, kind):
        model = make_circle_model(HOLONOMIES[kind], f=("cos", 1))
        assert small_spectrum_dims(model, 5.0, 64).counts == (model.rank, model.rank)
        assert solves == {"small_band": model.rank, "eigenvalues": 0}

    @pytest.mark.parametrize("kind", ["real", "complex", "unitary", "rank_two"])
    def test_conjugation_check(self, solves, kind):
        model = make_circle_model(HOLONOMIES[kind], f=("cos", 1))
        assert conjugation_isospectral_check(model, 5.0, 64) < 1e-10
        assert solves == {"small_band": 0, "eigenvalues": 0}


class TestDeRham:
    def test_milnor_from_model_value(self):
        lam = 2.0
        assert milnor_from_model(make_circle_model(lam, f=("cos", 1))) == pytest.approx(
            lam / (1 - lam) ** 2
        )

    def test_morse_from_potential_two_wells(self):
        ms = morse_from_potential(make_circle_model(2.0, f=("cos", 2)))
        assert ms.morse_counts() == [2, 2]

    @pytest.mark.parametrize("length", [2 * np.pi, 3.0])
    def test_default_layout_is_cos_theta(self, length):
        """Without a potential the system is cos theta's, laid out in closed form:
        the minimum at L / 2, the maximum at L, lam on the closing seam."""
        model = CircleModel(0.5 + 0.8j, length=length)
        ms = morse_from_potential(model)
        scanned = morse_from_potential(replace(model, potential=TrigPoly.cos(1.0, 1)))
        assert ms.geometry == scanned.geometry
        assert ms.geometry.positions == {"m0": length / 2, "M0": length}
        assert all(a.sign == b.sign and np.array_equal(a.holonomy, b.holonomy)
                   for a, b in zip(ms.instantons, scanned.instantons, strict=True))


def _mp_smallest_eigenvalues(ch, count):
    """The ``count`` smallest eigenvalues of a channel's K^T K at the working
    precision, by modulus, by inverse subspace iteration from a seeded start.
    Each step applies (K^T K)^{-1} as two O(N) cyclic bidiagonal solves, with
    K^T and then K, and a Rayleigh-Ritz step on the ``count``-dimensional
    subspace follows: symmetric for a real channel, and for a complex one,
    whose K^T K is complex symmetric, not Hermitian, on the Hermitian
    projection of an orthonormal basis. Once no Ritz value moves by more than
    1e-6 of itself in a step, each basis vector takes Rayleigh-quotient
    inverse iteration instead: (K^T K - mu I)^{-1} with its own Ritz value
    mu, one O(N) cyclic tridiagonal solve (Thomas, the corner entries by
    Sherman-Morrison). It stops when every Ritz pair has
    ||K^T K v - mu v|| <= 1e-150 ||K^T K||_1; no minor of K is formed."""
    real = not (np.any(ch.k_diag.imag) or np.any(ch.k_upper.imag))
    if real:
        a = [mpmath.mpf(float(x.real)) for x in ch.k_diag]
        b = [mpmath.mpf(float(x.real)) for x in ch.k_upper]
    else:
        a = [mpmath.mpc(complex(x)) for x in ch.k_diag]
        b = [mpmath.mpc(complex(x)) for x in ch.k_upper]
    n = len(a)

    def dot(x, y):
        if real:
            return mpmath.fsum(xi * yi for xi, yi in zip(x, y))
        return mpmath.fsum(mpmath.conj(xi) * yi for xi, yi in zip(x, y))

    def combine(vecs, coeffs, col):
        return [mpmath.fsum(coeffs[j, col] * v[i] for j, v in enumerate(vecs)) for i in range(n)]

    def laplacian(x):  # K^T (K x); K[i, i] = a_i, K[i, i + 1 mod N] = b_i
        kx = [a[i] * x[i] + b[i] * x[(i + 1) % n] for i in range(n)]
        return [a[j] * kx[j] + b[j - 1] * kx[j - 1] for j in range(n)]

    def solve_kt(y):  # a_j z_j + b_{j-1} z_{j-1} = y_j: z_j = p_j + q_j z_{N-1}
        p, q = [y[0] / a[0]], [-b[-1] / a[0]]
        for j in range(1, n):
            p.append((y[j] - b[j - 1] * p[-1]) / a[j])
            q.append(-b[j - 1] * q[-1] / a[j])
        wrap = p[-1] / (1 - q[-1])
        return [pj + qj * wrap for pj, qj in zip(p, q)]

    def solve_k(z):  # a_i x_i + b_i x_{i+1} = z_i: x_i = p_i + q_i x_0
        p, q = [z[-1] / a[-1]], [-b[-1] / a[-1]]
        for i in range(n - 2, -1, -1):
            p.append((z[i] - b[i] * p[-1]) / a[i])
            q.append(-b[i] * q[-1] / a[i])
        wrap = p[-1] / (1 - q[-1])
        return [pi + qi * wrap for pi, qi in zip(reversed(p), reversed(q))]

    # K^T K: diagonal a_j^2 + b_{j-1}^2, coupling a_j b_j of j and j + 1 (mod N)
    diag = [a[j] ** 2 + b[j - 1] ** 2 for j in range(n)]
    coupling = [a[j] * b[j] for j in range(n)]

    def solve_shifted(y, mu):
        """(K^T K - mu I) x = y. The corner coupling c = coupling[N-1] is the
        rank-one term u v^T with u = (g, 0, ..., 0, c), v = (1, 0, ..., 0, c / g),
        g = -(diag[0] - mu); the tridiagonal rest, its first and last diagonal
        entries less g and c^2 / g, is solved by Thomas for y and u at once."""
        corner = coupling[-1]
        g = -(diag[0] - mu)
        main = [d - mu for d in diag]
        main[0] -= g
        main[-1] -= corner * corner / g
        u = [g] + [0] * (n - 2) + [corner]
        pivots, xs, zs = [main[0]], [y[0]], [u[0]]
        for i in range(1, n):
            w = coupling[i - 1] / pivots[-1]
            pivots.append(main[i] - w * coupling[i - 1])
            xs.append(y[i] - w * xs[-1])
            zs.append(u[i] - w * zs[-1])
        xs[-1], zs[-1] = xs[-1] / pivots[-1], zs[-1] / pivots[-1]
        for i in range(n - 2, -1, -1):
            xs[i] = (xs[i] - coupling[i] * xs[i + 1]) / pivots[i]
            zs[i] = (zs[i] - coupling[i] * zs[i + 1]) / pivots[i]
        factor = (xs[0] + corner * xs[-1] / g) / (1 + zs[0] + corner * zs[-1] / g)
        return [xi - factor * zi for xi, zi in zip(xs, zs)]

    norm1 = max(abs(a[i]) ** 2 + abs(b[i - 1]) ** 2 + abs(a[i] * b[i])
                + abs(a[i - 1] * b[i - 1]) for i in range(n))
    rng = np.random.default_rng(0)
    basis = [[mpmath.mpf(float(x)) for x in rng.standard_normal(n)] for _ in range(count)]
    mus = shifts = None
    for _ in range(100):
        if shifts is None:
            basis = [solve_k(solve_kt(v)) for v in basis]
        else:
            basis = [solve_shifted(v, mu) for v, mu in zip(basis, shifts)]
        for _ in range(2):  # Gram-Schmidt, twice
            for i, v in enumerate(basis):
                for u in basis[:i]:
                    c = dot(u, v)
                    v = [vi - c * ui for vi, ui in zip(v, u)]
                norm = mpmath.sqrt(abs(dot(v, v)))
                basis[i] = [vi / norm for vi in v]
        images = [laplacian(v) for v in basis]
        projection = mpmath.matrix([[dot(u, w) for w in images] for u in basis])
        previous = mus
        mus, vecs = mpmath.eigsy(projection) if real else mpmath.eig(projection)
        basis = [combine(basis, vecs, c) for c in range(count)]
        images = [combine(images, vecs, c) for c in range(count)]
        residual = max(mpmath.sqrt(sum(abs(w - mus[c] * v) ** 2
                                       for v, w in zip(basis[c], images[c])))
                       / mpmath.sqrt(abs(dot(basis[c], basis[c]))) for c in range(count))
        if residual <= mpmath.mpf("1e-150") * norm1:
            return sorted((mus[c] for c in range(count)), key=abs)
        if shifts is not None or (previous is not None and all(
                min(abs(mu - old) for old in previous) <= 1e-6 * abs(mu) for mu in mus)):
            shifts = [mus[c] for c in range(count)]
    raise AssertionError("inverse subspace iteration did not converge")


class TestTheorem33:
    @pytest.mark.parametrize("shift", [0.3, -0.3])
    def test_rotation_invariance(self, shift):
        """At s = -0.3 the scan of cos(theta - s) starts at a minimum, at +0.3
        at a maximum: both sweeps tend to 1 alike."""
        pot = TrigPoly(cos_coeffs=((1, np.cos(shift)),), sin_coeffs=((1, np.sin(shift)),))
        rows = theorem33_experiment(CircleModel(2.0, potential=pot), [10.0, 40.0, 160.0], 1024)
        assert [round(r.ratio.real, 4) for r in rows] == [1.0154, 1.0038, 1.0009]
        assert all(abs(r.ratio.imag) < 1e-12 for r in rows)

    def test_near_trivial_holonomy(self):
        """The Milnor side reads lam on the seam, not the rounded 1 / lam: the
        rows at 1 - 1e-15 are those at 1 - 1e-12, where the rounding is 1000
        times smaller, to 1e-9."""
        far, near = (theorem33_experiment(make_circle_model(1.0 - eps, f=("cos", 1)),
                                          [4.0, 10.0, 20.0], 64) for eps in (1e-12, 1e-15))
        for a, b in zip(far, near, strict=True):
            assert abs(b.ratio / a.ratio - 1.0) <= 1e-9

    def test_trend_single_case(self):
        model = make_circle_model(2.0, f=("cos", 1))
        rows = theorem33_experiment(model, [4.0, 8.0], 256)
        assert rows[0].band_dims == (1, 1)
        assert rows[1].abs_log_ratio < rows[0].abs_log_ratio
        assert abs(rows[1].ratio - 1.0) < 0.05

    def test_unresolved_gap_raises(self):
        """T = 0 sits outside the asymptotic regime: modes hug the threshold."""
        model = make_circle_model(2.0, f=("cos", 1))
        with pytest.raises(ResolutionError):
            theorem33_experiment(model, [0.0], 128)

    def test_morse_data_built_once_per_channel(self, monkeypatch):
        """The Morse side does not depend on T: a three-value sweep of a rank-2
        model scans the critical points once, for both channels, and its rows
        are the rows of three single-T runs, bit for bit."""
        def model():
            return make_circle_model(np.diag([2.0, 3.0]), f=("cos", 1))

        t_values = [4.0, 6.0, 8.0]
        singles = [theorem33_experiment(model(), [t], 128)[0] for t in t_values]
        calls = []
        scan = circle_module._critical_points
        monkeypatch.setattr(circle_module, "_critical_points",
                            lambda *args: calls.append(1) or scan(*args))
        rows = theorem33_experiment(model(), t_values, 128)
        assert len(calls) == 1
        assert rows == singles

    def test_wavy_sweep_scans_once(self, monkeypatch):
        """On a wavy density the deformed operators read phi - T f and never the
        critical points: a three-value sweep scans once, for the Morse data, and
        its rows are those of single-T runs."""
        def model():
            return make_circle_model(0.5, phi=("sin", 0.3), f=("cos", 1))

        t_values = [4.0, 8.0, 12.0]
        singles = [theorem33_experiment(model(), [t], 128)[0] for t in t_values]
        calls = []
        scan = circle_module._critical_points
        monkeypatch.setattr(circle_module, "_critical_points",
                            lambda *args: calls.append(1) or scan(*args))
        rows = theorem33_experiment(model(), t_values, 128)
        assert len(calls) == 1
        assert rows == singles

    @pytest.mark.parametrize("wells, t_values", [(1, (4.0, 30.0, 40.0, 60.0)), (2, (20.0, 40.0))],
                             ids=["one_well", "two_wells"])
    def test_matches_high_precision_oracle(self, wells, t_values):
        """Deep in the deformation the band eigenvalue of K^T K is far below
        eps ||L|| (about 2e-69 at T = 40). The oracle takes it from a 200-digit
        inverse subspace iteration on the same K and scales it as the
        experiment does. At T = 4, e_{N-1} / det(K)^2 alone is 6.8e-8 above
        1 / mu_1: the Newton correction must close that."""
        model = make_circle_model(2.0, f=("cos", wells))
        rows = theorem33_experiment(model, list(t_values), 64)
        milnor = milnor_from_model(model)
        with mpmath.workdps(200):
            for row in rows:
                ch = build_discrete(witten_deform(model, row.t_param), 64).channels[0]
                band = _mp_smallest_eigenvalues(ch, wells)
                # chi = 0, chi' = -wells, Tr_s[f] = -2 wells for cos(wells theta),
                # and prod_x |f''(x)|^{1/2} = wells^{2 wells} over the 2 wells points
                scale = (mpmath.mpf(row.t_param) / mpmath.pi) ** wells * mpmath.exp(
                    -4 * wells * mpmath.mpf(row.t_param)) * wells ** (2 * wells)
                want = complex(scale / mpmath.fprod(band)) / milnor
                assert row.band_dims == (wells, wells)
                assert abs(row.ratio - want) <= 1e-8 * abs(want)

    def test_no_eigensolve(self, monkeypatch):
        """The band torsion comes from the minors of K: no small band is asked for."""
        def refuse(*args):
            raise AssertionError("small_band called")

        monkeypatch.setattr(ChannelOperators, "small_band", refuse)
        for holonomy in (2.0, np.exp(1j * np.pi / 5), np.diag([2.0, 3.0])):
            rows = theorem33_experiment(make_circle_model(holonomy, f=("cos", 1)), [4.0, 40.0], 64)
            assert rows[1].abs_log_ratio < rows[0].abs_log_ratio

    @pytest.mark.parametrize("holonomy", [2.0, 0.5 + 0.8j, np.diag([2.0, 3.0])],
                             ids=["real", "complex", "rank_two"])
    def test_one_kernel_call_per_channel(self, monkeypatch, holonomy):
        """A five-value sweep stacks its K per channel: one transfer-trace call
        per channel, the moduli of a complex channel riding in it."""
        model = make_circle_model(holonomy, f=("cos", 1))
        t_values = [4.0, 10.0, 20.0, 30.0, 40.0]
        singles = [theorem33_experiment(model, [t], 64)[0] for t in t_values]
        calls = []
        kernel = circle_module._log_transfer_trace
        monkeypatch.setattr(circle_module, "_log_transfer_trace",
                            lambda *args: calls.append(1) or kernel(*args))
        rows = theorem33_experiment(model, t_values, 64)
        assert len(calls) == model.rank
        assert rows == singles

    @pytest.mark.parametrize("potential, want", [
        (TrigPoly.cos(1.0, 1), 0.150),
        (TrigPoly.cos(1.0, 2), 0.263),
        (TrigPoly.cos(1.0, 3), 0.384),
        (TrigPoly.cos(2.0, 1), 0.075),
        (TrigPoly(cos_coeffs=((1, 1.0),), sin_coeffs=((2, 0.3),)), 0.197),
    ], ids=["cos", "cos_2", "cos_3", "2cos", "asymmetric"])
    def test_hessian_factor_limit(self, potential, want):
        """With prod_x (T |f''(x)| / pi)^{1/2} the ratio tends to 1 at a rate
        c_1 / T on every potential, not to prod_x |f''(x)|^{-1/2} (1/16 for
        two wells): T log|ratio| at T = 160 is the continuum value, which
        N = 512 and N = 4096 give alike to 5 digits."""
        row = theorem33_experiment(CircleModel(2.0, potential=potential), [160.0], 512)[0]
        assert abs(160.0 * np.log(abs(row.ratio)) - want) <= 1e-3

    @pytest.mark.parametrize("kind", ["real", "complex", "unitary", "rank_two"])
    def test_two_wells_tend_to_one(self, kind):
        """Two wells at N = 512: |log ratio| halves as T doubles, at every holonomy."""
        model = make_circle_model(HOLONOMIES[kind], f=("cos", 2))
        logs = [r.abs_log_ratio for r in theorem33_experiment(model, [10.0, 20.0, 40.0], 512)]
        assert logs[2] < 0.015
        assert all(0.45 < b / a < 0.55 for a, b in zip(logs, logs[1:]))

    def test_empty_and_generator_sweeps(self):
        model = make_circle_model(2.0, f=("cos", 1))
        assert theorem33_experiment(model, [], 64) == []
        rows = theorem33_experiment(model, (t for t in (4.0, 10.0)), 64)
        assert rows == theorem33_experiment(model, [4.0, 10.0], 64)

    @pytest.mark.parametrize("t_values, message", [
        ([4, 0, 10], "band unresolved at T=0: Newton gap ratio 3.7e-02, noise floor 2.2e-16, "
                     "gate 1e-04; raise T for the gap, lower it for the floor, or refine the grid"),
        ([4, -1], "band unresolved at T=-1: Newton gap ratio 5.7e-03, noise floor 2.2e-16, "
                  "gate 1e-04; raise T for the gap, lower it for the floor, or refine the grid"),
    ], ids=["zero", "negative"])
    def test_refusals_in_sweep_order(self, t_values, message):
        """The checks run in T order after the one kernel call: the first T
        that fails is refused, with its own text."""
        with pytest.raises(ResolutionError) as info:
            theorem33_experiment(make_circle_model(2.0, f=("cos", 1)), t_values, 64)
        assert str(info.value) == message

    def test_overflowing_grid_refused_in_order(self):
        """At N = 64 and T = 20000, e^{T f} leaves double range in K itself:
        the sweep refuses that T by name, after the earlier T's checks."""
        model = make_circle_model(2.0, f=("cos", 1))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidMatrixError, match=r"64-point grid .* at T=20000\.0"):
                theorem33_experiment(model, [4.0, 20000.0], 64)
            with pytest.raises(ResolutionError, match="at T=0"):
                theorem33_experiment(model, [0.0, 20000.0], 64)

    def test_deep_deformation_without_warnings(self):
        """N = 64, T = 8000: K is finite, and the sweep returns its row with
        the band of one well and no RuntimeWarning (b / a overflowed)."""
        model = make_circle_model(2.0, f=("cos", 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = theorem33_experiment(model, [4.0, 8000.0], 64)
        assert rows[1].band_dims == (1, 1) and np.isfinite(rows[1].abs_log_ratio)

    def test_finite_and_decreasing_at_large_t(self):
        model = make_circle_model(2.0, f=("cos", 1))
        rows = theorem33_experiment(model, [40.0, 60.0, 100.0, 200.0], 64)
        logs = [r.abs_log_ratio for r in rows]
        assert all(np.isfinite(logs)) and all(b < a for a, b in zip(logs, logs[1:]))
        assert all(r.gap_ratio <= DEFAULT_TOL.band_torsion_rel for r in rows)


class TestCutErrors:
    def test_eigenvalue_on_cut_rejected(self):
        """|mu_{+-1}| = 1.0122 at holonomy 2: a cut there is ambiguous. One cut
        rule: the three methods and the primed determinant all refuse it, and
        a cut half a clearance away too."""
        from bitorsion.circle import exact_spectrum_circle
        from bitorsion.errors import AmbiguousCutError

        model = make_circle_model(2.0, phi=("sin", 0.3), f=("cos", 1))
        mu_1 = abs(exact_spectrum_circle(2.0).mu(1))
        assert round(mu_1, 4) == 1.0122
        for cut in (mu_1, mu_1 + 0.5 * DEFAULT_TOL.cut_clearance):
            for method in ("exact", "gy", "discrete"):
                with pytest.raises(AmbiguousCutError):
                    rs_torsion(model, cut=cut, method=method)
            with pytest.raises(AmbiguousCutError):
                zeta_det_exact(2.0, cut=cut)


class TestZeroModeRule:
    """Holonomy 1 is refused by one rule, on every route that reads det K or
    the monodromy: a ZeroModeError, not a nan or 0 with RuntimeWarnings."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_refused_without_warnings(self, tmp_path, capsys):
        from bitorsion.circle import gelfand_yaglom_det

        model = make_circle_model(1.0, f=("cos", 1))
        ch = build_discrete(witten_deform(model, 5.0), 64).channels[0]
        calls = (lambda: next(band_sweep(model, [5.0], 64)), ch.log_det,
                 lambda: log_band_torsions(ch.k_diag, ch.k_upper, ch.lam, 1),
                 lambda: gelfand_yaglom_det(model), lambda: rs_torsion(model))
        for call in calls:
            with pytest.raises(ZeroModeError):
                call()
        path = tmp_path / "lam1.json"
        path.write_text(json.dumps({"lambda": [1.0, 0.0], "f": {"kind": "cos", "wells": 1}}))
        assert main(["spectral", str(path), "--op", "witten", "--T", "5", "--grid", "64"]) == 1
        assert "ZeroModeError" in capsys.readouterr().err


HOLOMORPHY_NODES = 64
WAVY = TrigPoly.sin(0.3)


def _holomorphic_outputs(lam):
    """Every analytic output of one holonomy that is holomorphic in it: rs in
    its three methods on a wavy phi and on the asymmetric potential deformed
    by T = 3, the zeta determinant, and the Milnor torsion and comparison
    ratio on the asymmetric potential (each model shares its potential's one
    critical-point scan)."""
    wavy = CircleModel(lam, phi=WAVY)
    deformed = witten_deform(CircleModel(lam, potential=ASYMMETRIC), 3.0)
    out = [rs_torsion(model, method=method) for model in (wavy, deformed)
           for method in ("exact", "gy", "discrete")]
    morse = CircleModel(lam, potential=ASYMMETRIC)
    return np.array(out + [zeta_det_exact(lam), milnor_from_model(morse), bz_compare(morse)])


def _circle_nodes(centre, radius):
    return centre + radius * np.exp(2j * np.pi * np.arange(HOLOMORPHY_NODES) / HOLOMORPHY_NODES)


class TestHolomorphy:
    """An independent oracle for the closed forms: each analytic output is
    holomorphic in the holonomy away from 0, 1 and the branch cut of log lam
    (Burghelea-Haller). On a circle inside such a disc the trapezoid rule on
    M = 64 nodes converges geometrically (Trefethen-Weideman 2014), so the
    mean of f equals f at the centre (mean value), and the mean of f e^{it}
    is 0 (Cauchy's theorem), which a harmonic but conjugated f does not
    satisfy."""

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(modulus=st.floats(0.2, 5.0), angle=st.floats(-0.9 * np.pi, 0.9 * np.pi))
    def test_mean_value_on_discs(self, modulus, angle):
        centre = modulus * np.exp(1j * angle)
        clear = min(abs(centre), abs(centre - 1.0),
                    abs(centre.imag) if centre.real < 0 else np.inf)
        assume(clear > 0.1)
        nodes = _circle_nodes(centre, 0.5 * clear)
        values = np.array([_holomorphic_outputs(lam) for lam in nodes])
        want = _holomorphic_outputs(centre)
        scale = np.abs(want)
        phases = np.exp(2j * np.pi * np.arange(HOLOMORPHY_NODES) / HOLOMORPHY_NODES)
        assert np.all(np.abs(values.mean(axis=0) - want) <= 1e-12 * scale)
        assert np.all(np.abs((values * phases[:, None]).mean(axis=0)) <= 1e-12 * scale)

    @pytest.mark.parametrize("holonomy, channels", [
        (np.eye(1), 1), (np.array([[1.0, 1.0], [0.0, 1.0]]), 2)], ids=["rank_one", "jordan"])
    def test_double_pole_at_trivial_holonomy(self, holonomy, channels):
        """Around lam = 1 the torsion lam / (1 - lam)^2 winds -2 per channel:
        the argument principle counts a double pole and no zero."""
        for method in ("exact", "gy", "discrete"):
            values = [rs_torsion(CircleModel(lam * holonomy, phi=WAVY), method=method)
                      for lam in _circle_nodes(1.0, 0.1)]
            steps = np.angle(np.roll(values, -1) / np.array(values))
            assert round(np.sum(steps) / (2 * np.pi), 9) == -2 * channels


def _jordan_cases():
    """(holonomy, its exact eigenvalues): [[b, c], [0, b + d]] across scales
    and near-defects, a conjugated 2 x 2 Jordan block and a 3 x 3 one."""
    cases, ids = [], []
    for base, name in ((2.0, "2"), (0.5 + 0.8j, "0.5+0.8i")):
        for c in (1e-4, 1.0, 1e4):
            for d in (0.0, 1e-12, 1e-8):
                cases.append((np.array([[base, c], [0.0, base + d]], dtype=complex),
                              [base, base + d]))
                ids.append(f"{name}-c{c:g}-d{d:g}")
    p = np.array([[1.0, 2.0], [0.5, -1.0]])
    cases.append((p @ np.array([[2.0, 1.0], [0.0, 2.0]]) @ np.linalg.inv(p), [2.0, 2.0]))
    cases.append((np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]]), [2.0] * 3))
    return pytest.mark.parametrize("holonomy, eigenvalues", cases,
                                   ids=ids + ["conjugated", "jordan_3x3"])


class TestJordanHolonomy:
    """Every rank-r value is a product over the holonomy's eigenvalues, a
    symmetric function of them: a Jordan or near-defective holonomy needs no
    eigenvectors, and gives the diagonal holonomy's values."""

    @_jordan_cases()
    def test_torsion_and_comparison(self, holonomy, eigenvalues):
        """The oracle is det H / det(1 - H)^2 from LAPACK's determinants, with
        no eigensolve."""
        model = make_circle_model(holonomy, phi=("sin", 0.3), f=("cos", 1))
        eye = np.eye(len(holonomy))
        want = np.linalg.det(holonomy) / np.linalg.det(eye - holonomy) ** 2
        for method in ("exact", "discrete"):
            assert abs(rs_torsion(model, method=method) - want) <= 1e-12 * abs(want)
        zero_phi = make_circle_model(holonomy, f=("cos", 1))
        assert abs(bz_compare(zero_phi) - 1.0) <= 1e-12

    @_jordan_cases()
    def test_theorem33_matches_diagonal(self, holonomy, eigenvalues):
        rows = theorem33_experiment(make_circle_model(holonomy, f=("cos", 1)), [10.0], 512)
        want = theorem33_experiment(make_circle_model(np.diag(eigenvalues), f=("cos", 1)),
                                    [10.0], 512)
        assert rows[0].band_dims == want[0].band_dims
        assert abs(rows[0].ratio - want[0].ratio) <= 1e-12 * abs(want[0].ratio)


class TestBzCompare:
    @pytest.mark.parametrize("lam", [2.0, np.exp(1j * np.pi / 5)])
    def test_unity(self, lam):
        model = make_circle_model(lam, f=("cos", 1))
        assert abs(bz_compare(model) - 1.0) < 1e-8

    def test_trivial_holonomy_rejected(self):
        with pytest.raises(ZeroModeError):
            bz_compare(make_circle_model(1.0, f=("cos", 1)))

    def test_nonzero_theta_rejected(self):
        model = make_circle_model(2.0, phi=("sin", 0.3), f=("cos", 1))
        with pytest.raises(ThetaNotZeroError):
            bz_compare(model)

    @pytest.mark.parametrize("phi", [("sin", 0.0), ("sin", -0.0)])
    def test_zero_amplitude_phi_is_constant(self, phi):
        """A density written with amplitude 0 is the zero density: the ratio is
        that of no phi, not a ThetaNotZeroError."""
        zero = bz_compare(make_circle_model(2.0, f=("cos", 1)))
        assert bz_compare(make_circle_model(2.0, phi=phi, f=("cos", 1))) == zero

    @pytest.mark.parametrize("wells", [1, 2, 3])
    @pytest.mark.parametrize("lam", [2.0, 0.5 + 0.8j, np.exp(1j), np.diag([2.0, 0.4 + 0.3j])],
                             ids=["2", "0.5+0.8i", "e^i", "diag(2,0.4+0.3i)"])
    def test_rotation_invariance(self, lam, wells):
        """cos(k theta - s) is a rigid rotation of cos(k theta): the ratio stays 1
        whether the scan of [0, L) starts at a minimum or at a maximum."""
        for s in np.linspace(-np.pi, np.pi, 13):
            pot = TrigPoly(cos_coeffs=((wells, np.cos(s)),), sin_coeffs=((wells, np.sin(s)),))
            assert abs(bz_compare(CircleModel(lam, potential=pot)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("holonomy", [2.0, 0.5 + 0.8j, np.diag([2.0, 3.0])],
                             ids=["2", "0.5+0.8i", "diag(2,3)"])
    def test_no_potential_scans_nothing(self, monkeypatch, holonomy):
        """A model without a potential compares on cos theta's closed-form
        layout: three calls scan no critical points, and each value is that of
        the model given cos theta, bit for bit."""
        model = CircleModel(holonomy, length=3.0, phi=TrigPoly(const=0.3))
        methods = ("exact", "gy", "discrete")
        want = [bz_compare(replace(model, potential=TrigPoly.cos(1.0, 1)), method=m)
                for m in methods]
        calls = []
        scan = circle_module._critical_points
        monkeypatch.setattr(circle_module, "_critical_points",
                            lambda *args: calls.append(1) or scan(*args))
        assert [bz_compare(model, method=m) for m in methods] == want
        assert calls == []

    @pytest.mark.parametrize("f", [("cos", 1), None], ids=["cos", "no_potential"])
    @pytest.mark.parametrize("lam", [1 + 1e-15, 1 - 1e-15, 1 + 1e-12, 1 - 1e-12, 1 - 1e-8,
                                     *map(_ulps_from_one, (1, -1, 10, -10))])
    def test_near_trivial_holonomy(self, lam, f):
        """One well near lam = 1: the Milnor side reads lam itself on the seam,
        never the rounded 1 / lam, and gy is the closed form, so the ratio is 1
        to rounding in every method."""
        model = make_circle_model(lam, f=f)
        for method in ("exact", "gy", "discrete"):
            assert abs(bz_compare(model, method=method) - 1.0) <= 1e-13

    @pytest.mark.parametrize("wells", [2, 3])
    @pytest.mark.parametrize("offset", [1e-10, -1e-10, 5e-12, -5e-12])
    def test_near_trivial_holonomy_refused(self, offset, wells):
        """Near lam = 1 the rank cut finds cohomology in the Thom-Smale complex
        while the analytic side is still acyclic: the comparison refuses
        instead of dividing the acyclic value by the non-acyclic one."""
        with pytest.raises(ZeroModeError):
            bz_compare(make_circle_model(1.0 + offset, f=("cos", wells)))


class TestTwoBandStructure:
    def test_band_separation_grows(self):
        model = make_circle_model(2.0, f=("cos", 1))
        t_values = (5.0, 10.0, 20.0)
        reports = [small_spectrum_dims(model, t, 256) for t in t_values]
        bands = [np.exp(-reading.log_torsion) for reading, in band_sweep(model, t_values, 256)]
        mins = [r.large_band_min for r in reports]
        assert bands[0] > bands[1] > bands[2] > 0
        assert mins[0] < mins[1] < mins[2]

    def test_spectral_cut_dims(self):
        model = make_circle_model(2.0, f=("cos", 1))
        from bitorsion.circle import witten_deform

        ch = build_discrete(witten_deform(model, 8.0), 256).channels[0]
        cut = spectral_cut(ch, 1.0)
        assert cut.band.size == 1
        k = _dense_k(ch)
        # each degree's full spectrum is an oracle for the one band
        for dense in (ch.eigenvalues(), np.linalg.eigvals(k @ k.T)):
            inside = np.abs(dense) <= 1.0
            scale = np.max(np.abs(dense))
            assert np.sum(inside) == 1
            assert abs(cut.band[0] - dense[inside][0]) <= 1e-10 * scale
            assert np.min(np.abs(dense[~inside])) > 10.0
            assert abs(cut.large_band_min - np.min(np.abs(dense[~inside]))) <= 1e-10 * scale

    def test_invariant_subspace_on_witten_laplacian(self):
        """The unit-disk band of the deformed Laplacian has Morse-count dimension,
        in the sorted Schur form and in the cut alike, and the closed-form band
        torsion is 1 / (mu_1 mu_2) of the 200-digit oracle. The Schur invariant
        subspace's own value reads 1.1-1.45e-8 off in the log, by the last bits
        of the matrix: it stays an oracle of the dimension only."""
        model = make_circle_model(2.0, f=("cos", 2))
        ch = build_discrete(witten_deform(model, 10.0), 256).channels[0]
        assert spectral_cut(ch, 1.0).band.size == 2  # M_0 = M_1 for two wells
        k = _dense_k(ch)
        _, sdim = schur_decomposition(k.T @ k, sort=lambda z: abs(z) <= 1.0)
        assert sdim == 2
        with mpmath.workdps(200):
            want = -mpmath.log(mpmath.fprod(_mp_smallest_eigenvalues(ch, 2)))
            got = log_band_torsions(ch.k_diag, ch.k_upper, ch.lam, 2)[0][2]
            assert abs(got - want) <= 1e-12


class TestWittenBandRow:
    """The CLI ``witten`` op's ``witten_band`` row: mu_1 ... mu_k over the
    channels from ``band_sweep``, gated on the Newton ratio and noise floor."""

    @staticmethod
    def _row(tmp_path, capsys, holonomy, t_param, n_grid=512):
        path = tmp_path / "circle.json"
        path.write_text(json.dumps({"lambda": [holonomy.real, holonomy.imag],
                                    "f": {"kind": "cos", "wells": 1}}))
        assert main(["spectral", str(path), "--op", "witten", "--T", str(t_param),
                     "--grid", str(n_grid)]) == 0
        row = capsys.readouterr().out.splitlines()[-1].split(",")
        assert row[0] == "witten_band" and float(row[4]) == DEFAULT_TOL.band_torsion_rel
        channel = build_discrete(witten_deform(load_circle_model(str(path))[0], t_param),
                                 n_grid).channels[0]
        with mpmath.workdps(200):
            want = complex(mpmath.fprod(_mp_smallest_eigenvalues(channel, 1)))
        return complex(float(row[2]), float(row[3])), row[5], want

    @pytest.mark.parametrize("holonomy", [2.0, 0.5 + 0.8j], ids=["2", "0.5+0.8i"])
    @pytest.mark.parametrize("t_param", [5.0, 10.0, 20.0])
    def test_matches_high_precision_oracle(self, tmp_path, capsys, holonomy, t_param):
        """At T = 5, 10 and 20 the band eigenvalue (1.6e-9, 6.7e-18 and 5.7e-35
        at holonomy 2) is the 200-digit one of the same K to 1e-12, and the row
        passes; an eigensolver places it only to about 1e-12 absolute."""
        got, ok, want = self._row(tmp_path, capsys, complex(holonomy), t_param)
        assert abs(got - want) <= 1e-12 * abs(want)
        assert ok == "True"

    @pytest.mark.parametrize("holonomy", [2.0, 0.5 + 0.8j], ids=["2", "0.5+0.8i"])
    def test_unresolved_band_fails(self, tmp_path, capsys, holonomy):
        """At T = 2 the Newton ratio r = mu_1 / mu_2 is 1.6e-4 (holonomy 2) and
        3.2e-4, above the 1e-4 gate: the row fails, and its value is the
        oracle's only up to the relative O(r^2) the gate bounds."""
        got, ok, want = self._row(tmp_path, capsys, complex(holonomy), 2.0)
        assert ok == "False"
        assert 1e-10 < abs(got / want - 1.0) <= 1e-6

    def test_sweep_needs_a_potential(self):
        with pytest.raises(DimensionError):
            next(band_sweep(make_circle_model(2.0), [5.0], 64))


_ROTATION = np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex)
HOLONOMIES = {
    "real": 2.0,
    "complex": 0.5 + 0.8j,
    "unitary": np.exp(1j * np.pi / 5),
    "rank_two": _ROTATION @ np.diag([2.0, 0.5 + 0.8j]) @ np.linalg.inv(_ROTATION),
}


def _dense_k(ch):
    """The channel's K as a dense matrix; the seam entry lands at (N-1, 0)."""
    n = ch.n_grid
    k = np.diag(ch.k_diag)
    k[np.arange(n), (np.arange(n) + 1) % n] = ch.k_upper
    return k


def _schur_band_torsion(ch, basis):
    """1 / prod(band eigenvalues) from a basis V of the band's invariant subspace
    of K^T K, as det(V^T V) / det((K V)^T (K V)). Deep in the deformation the
    band eigenvalue on the Schur diagonal is rounding (about eps ||L||), while
    K V keeps it to high relative accuracy."""
    image = _dense_k(ch) @ basis
    return np.linalg.det(basis.T @ basis) / np.linalg.det(image.T @ image)


def _cut_outcome(ch, threshold):
    """``spectral_cut``'s band and large-band minimum, or its refusal's type."""
    try:
        cut = spectral_cut(ch, threshold)
    except BitorsionError as exc:
        return type(exc)
    return cut.band, cut.large_band_min


class TestDenseBandBranch:
    """Up to DENSE_BAND_MAX_N points the small band is the dense spectrum.
    ARPACK, the branch above it, run on the same channels with the constant
    patched to 0, gives the same counts and refusals, and the same band and
    large-band minimum to 1e-10 ||L||_1."""

    @pytest.mark.parametrize("kind", ["real", "complex", "unitary", "rank_two"])
    @pytest.mark.parametrize("n_grid", [32, 48, 64])
    def test_arpack_branch_agrees(self, monkeypatch, n_grid, kind):
        rng = np.random.default_rng(n_grid)
        modulus, phase = rng.uniform(1.3, 3.0), rng.uniform(0.3, np.pi)
        holonomy = {"real": modulus, "complex": modulus * np.exp(1j * phase),
                    "unitary": np.exp(1j * phase),
                    "rank_two": _ROTATION @ np.diag([modulus, np.exp(1j * phase)])
                    @ np.linalg.inv(_ROTATION)}[kind]
        assert n_grid <= circle_module.DENSE_BAND_MAX_N
        refusals = 0
        for wells in (1, 2, 3):
            model = make_circle_model(holonomy, f=("cos", wells))
            for t_param in (0.0, 2.0, 5.0, 10.0, 12.0, 20.0):
                for ch in build_discrete(witten_deform(model, t_param), n_grid).channels:
                    norm1 = np.linalg.norm(_dense_k(ch).T @ _dense_k(ch), 1)
                    for threshold in (0.5, 1.0):
                        dense = _cut_outcome(ch, threshold)
                        monkeypatch.setattr(circle_module, "DENSE_BAND_MAX_N", 0)
                        arpack = _cut_outcome(ch, threshold)
                        monkeypatch.undo()
                        if isinstance(dense, type):
                            assert arpack is dense
                            refusals += 1
                            continue
                        (band, large_min), (arpack_band, arpack_min) = dense, arpack
                        assert band.size == arpack_band.size
                        gaps = np.abs(band[:, None] - arpack_band[None, :])
                        if band.size:
                            assert max(gaps.min(axis=0).max(), gaps.min(axis=1).max()) <= (
                                1e-10 * norm1)
                        assert abs(large_min - arpack_min) <= 1e-10 * norm1
        assert refusals < 36 * (2 if kind == "rank_two" else 1)  # most cases are compared


class TestRealChannelRoute:
    """A real channel's small band is symmetric: ``eigvalsh`` up to
    DENSE_BAND_MAX_N, Lanczos on a banded Cholesky factor above it. Neither
    reaches the non-symmetric solvers, and the cut's counts, refusals, band
    and large-band minimum are those of the full banded spectrum
    (``eigenvalues``), the band and minimum to 1e-12 ||L||_1. Where
    eps ||L||_1 reaches the cut's clearance (N = 16 at T = 40, ||L||_1 up to
    8e20 on two and three wells), every eigensolver reads the band as
    rounding, and the cut refuses with ResolutionError."""

    @pytest.mark.parametrize("n_grid", [16, 64, 65, 128, 512, 4096])
    def test_matches_banded_spectrum(self, monkeypatch, n_grid):
        import scipy.sparse.linalg

        def refuse(*args, **kwargs):
            raise AssertionError("a real channel reached a non-symmetric eigensolver")

        models = [make_circle_model(lam, f=("cos", wells))
                  for wells, lam in ((1, 2.0), (2, 0.3), (3, np.diag([2.0, 3.0])))]
        if n_grid == 4096:  # the full spectrum takes 0.4 s a channel here
            models = models[:1]
        radius = 1.0
        clearance = DEFAULT_TOL.threshold_margin * radius
        compared, unresolvable = 0, set()
        for model in models:
            for t_param in (0.5, 5.0, 10.0, 40.0):
                for ch in build_discrete(witten_deform(model, t_param), n_grid).channels:
                    assert ch.is_real()
                    a, b = ch.k_diag.real, ch.k_upper.real  # the row sums of |K^T K|
                    norm1 = np.max(a ** 2 + np.roll(b, 1) ** 2 + np.abs(a * b)
                                   + np.abs(np.roll(a * b, 1)))
                    with monkeypatch.context() as patch:
                        patch.setattr(scipy.sparse.linalg, "eigs", refuse)
                        patch.setattr(np.linalg, "eigvals", refuse)
                        got = _cut_outcome(ch, radius)
                    if np.finfo(float).eps * norm1 >= clearance:
                        assert got is ResolutionError
                        unresolvable.add((n_grid, t_param))
                        continue
                    spectrum = ch.eigenvalues()
                    mags = np.abs(spectrum)
                    if np.any(np.abs(mags - radius) < clearance):
                        assert got is ResolutionError
                        continue
                    band, large_min = got
                    want = np.sort(spectrum[mags <= radius].real)
                    assert band.size == want.size
                    assert np.all(np.abs(np.sort(band.real) - want) <= 1e-12 * norm1)
                    assert abs(large_min - np.min(mags[mags > radius])) <= 1e-12 * norm1
                    compared += 1
        assert unresolvable == ({(16, 40.0)} if n_grid == 16 else set())
        assert compared >= (4 if n_grid == 4096 else 10)

    def test_refusal_names_grid_and_floor(self):
        """Three wells at T = 40 on 16 points: ||K^T K||_1 is 8e20, and the
        cut refuses before any eigensolve."""
        model = make_circle_model(2.0, f=("cos", 3))
        ch, = build_discrete(witten_deform(model, 40.0), 16).channels
        with pytest.raises(ResolutionError, match=r"N = 16: eps \|\|K\^T K\|\|_1 = 1\.8e\+05"):
            spectral_cut(ch, 1.0)


class TestSmallBand:
    """The O(N) small band and the closed-form band torsion against the dense
    sorted-Schur oracle."""

    @pytest.mark.parametrize("t_param", [0.0, 4.0, 10.0])
    @pytest.mark.parametrize("wells", [1, 2])
    @pytest.mark.parametrize("kind", sorted(HOLONOMIES))
    def test_matches_dense_oracle(self, kind, wells, t_param):
        # at T = 0 the band holds n = 0 and the exactly degenerate n = +-1 pair
        radius = 2.0 if t_param == 0.0 else 1.0
        model = make_circle_model(HOLONOMIES[kind], f=("cos", wells))
        for ch in build_discrete(witten_deform(model, t_param), 128).channels:
            band = spectral_cut(ch, radius).band
            k = _dense_k(ch)
            for degree, lap in enumerate((k.T @ k, k @ k.T)):  # the one band is both degrees'
                dec, sdim = schur_decomposition(lap, sort=lambda z: abs(z) <= radius)
                assert band.size == sdim == (3 if t_param == 0.0 else wells)
                gap = np.max(np.abs(np.sort_complex(band) - np.sort_complex(dec.eigenvalues[:sdim])))
                assert gap <= 1e-10 * np.linalg.norm(lap, 2)
                if degree == 0 and t_param > 0.0:
                    # e_k(1 / mu) against 1 / prod(band): the relative gap is the Newton ratio
                    logs, floor = log_band_torsions(ch.k_diag, ch.k_upper, ch.lam, wells)
                    want = _schur_band_torsion(ch, dec.q[:, :sdim])
                    assert abs(np.exp(logs[wells]) / want - 1.0) <= 1e-5
                    assert floor <= 1e-15

    def test_deep_deformation_never_untyped(self):
        """At T = 40 the band eigenvalue is zero to rounding, yet the result is
        there: the 200-digit oracle gives |log ratio| 0.0037571."""
        model = make_circle_model(2.0, f=("cos", 1))
        rows = theorem33_experiment(model, [40.0], 64)
        assert rows[0].band_dims == (1, 1)
        assert rows[0].abs_log_ratio == pytest.approx(0.0037571, abs=1e-7)

    def test_large_grid_without_dense_storage(self):
        """N = 65536: a dense N x N complex copy would need 64 GiB. The child
        process caps its address space at 4 GiB, so any such copy fails. The
        small band and the theorem-3.3 row both come out."""
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
            "from bitorsion import make_circle_model, witten_deform, build_discrete\n"
            "from bitorsion.spectral import spectral_cut, theorem33_experiment\n"
            "model = make_circle_model(2.0, f=('cos', 1))\n"
            "ch = build_discrete(witten_deform(model, 20.0), 65536).channels[0]\n"
            "row = theorem33_experiment(model, [20.0], 65536)[0]\n"
            "print(spectral_cut(ch, 1.0).band.size, row.band_dims, row.abs_log_ratio < 0.01)\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "1 (1, 1) True"


def _rotations(lam):
    """cos(k (theta - s)) for k = 1, 2, 3 and 13 rotations s in [-pi, pi]."""
    for wells in (1, 2, 3):
        for shift in np.linspace(-np.pi, np.pi, 13):
            yield CircleModel(lam, potential=TrigPoly(cos_coeffs=((wells, np.cos(wells * shift)),),
                                                      sin_coeffs=((wells, np.sin(wells * shift)),)))


class TestTuraevOnModelSystems:
    """Turaev torsion of the model's own Thom-Smale system, laid out in one way
    whichever point the scan of [0, L) meets first: lam on the counterclockwise
    closing instanton, so one Euler class labelling serves every rotation."""

    @pytest.mark.parametrize("lam", [2.0, 0.5 + 0.8j, np.exp(0.7j)], ids=["2", "0.5+0.8i", "e^0.7i"])
    def test_every_rotation(self, lam):
        """All 39 layouts return, over windings -1, 0 and 1 on the base point,
        and turaev over rs at Euler class c is lam^{-(2c+1)} at every rotation
        and well count, for a scan from a minimum and from a maximum alike."""
        starts, classes = set(), set()
        for model in _rotations(lam):
            ms = morse_from_potential(model)
            first = ms.points[0].label
            starts.add(model.critical_points()[0][1])
            rs = rs_torsion(model)
            for winding in (-1, 0, 1):
                e = EulerStructure(first, {first: winding})
                value = turaev_torsion(ms, Representation({"g": [[lam]]}, 1), e, [[1.0]])
                c = euler_class_circle(ms, e)
                classes.add(c)
                assert abs(value / rs * lam ** (2 * c + 1) - 1.0) <= 1e-13
        assert starts == {0, 1}
        assert classes == {-1, 0, 1}

    @pytest.mark.parametrize("lam", [2.0, 0.5 + 0.8j, np.exp(0.7j), np.diag([2.0, 0.4 + 0.3j]),
                                     np.array([[1.0, 2.0], [0.5, 3.0]])],
                             ids=["2", "0.5+0.8i", "e^0.7i", "diag(2,0.4+0.3i)", "[[1,2],[.5,3]]"])
    def test_one_layout(self, lam):
        """Every channel's system has lam on its last instanton, the closing arc
        M_{n-1} -> m0 with sign +1, bit for bit, and the identity elsewhere; the
        positions increase within one period, and the seam lies strictly inside
        the closing arc; also on the closed-form layout of a model without f."""
        for model in (*_rotations(lam), CircleModel(lam, length=3.0)):
            for sub in model.channels():
                ms = morse_from_potential(sub)
                *inner, seam = ms.instantons
                positions = [ms.geometry.positions[p.label] for p in ms.points]
                assert (seam.source, seam.target, seam.sign) == (ms.points[-1].label, "m0", 1)
                assert np.array_equal(seam.holonomy, [[sub.holonomy]])
                assert all(np.array_equal(ins.holonomy, [[1.0]]) for ins in inner)
                assert np.all(np.diff(positions) > 0)
                assert positions[-1] - positions[0] < sub.length
                assert positions[-1] < ms.geometry.seam_angle < positions[0] + sub.length

    @pytest.mark.parametrize("lam, wells, shift, want", [
        (0.5 + 0.8j, 1, 3, -0.4923620754955183 + 1.0099734881959348j),
        (np.exp(0.7j), 2, 9, -1.6262317174419727 + 1.369756079541892j),
    ], ids=["0.5+0.8i", "e^0.7i"])
    def test_min_first_values_kept(self, lam, wells, shift, want):
        """A scan that starts at a minimum puts lam on the counterclockwise
        closing instanton: the value is the one the unoriented check gave."""
        s = np.linspace(-np.pi, np.pi, 13)[shift]
        model = CircleModel(lam, potential=TrigPoly(cos_coeffs=((wells, np.cos(wells * s)),),
                                                    sin_coeffs=((wells, np.sin(wells * s)),)))
        ms = morse_from_potential(model)
        assert model.critical_points()[0][1] == 0
        value = turaev_torsion(ms, Representation({"g": [[lam]]}, 1),
                               EulerStructure("m0", {"m0": 0}), [[1]])
        assert value == want


DENSITY_MODELS = {  # "flat_windows" is the asymmetric potential
    "flat_windows": lambda: CircleModel(2.0, phi=TrigPoly.sin(0.3), potential=ASYMMETRIC),
    "deformed": lambda: witten_deform(make_circle_model(0.5 + 0.8j, phi=("sin", 0.2),
                                                        f=("cos", 1)), 7.0),
    "rank_two": lambda: make_circle_model(np.diag([2.0, 0.5 + 0.8j]), phi=("sin", 0.3),
                                          f=("cos", 1)),
    "length_3": lambda: make_circle_model(np.exp(0.7j), length=3.0, phi=("sin", 0.3),
                                          f=("cos", 3)),
}


class TestLogDensity:
    """The model's log-density phi_eff(x) - (log lam / L) x has one home,
    ``CircleModel.log_density``; the discrete operators and the critical forms
    read it."""

    @pytest.mark.parametrize("name", sorted(DENSITY_MODELS))
    def test_discrete_operator_reads_it(self, name):
        """K[m, m] = -e^{l(mid_m) - l(node_m)} / h and K[m, m+1] =
        e^{l(mid_m) - l(node_m+1)} / h, the seam entry times lam, bit for bit."""
        model, n = DENSITY_MODELS[name](), 64
        for sub, ch in zip(model.channels(), build_discrete(model, n).channels, strict=True):
            h = sub.length / n
            nodes = np.arange(n) * h
            at_nodes, at_mids = sub.log_density(nodes), sub.log_density(nodes + 0.5 * h)
            k_upper = np.exp(at_mids - np.roll(at_nodes, -1)) / h
            k_upper[-1] = sub.holonomy * np.exp(at_mids[-1] - at_nodes[0]) / h
            assert np.array_equal(ch.k_diag, -np.exp(at_mids - at_nodes) / h)
            assert np.array_equal(ch.k_upper, k_upper)

    @pytest.mark.parametrize("name", sorted(DENSITY_MODELS))
    def test_critical_forms_read_it(self, name):
        for sub in DENSITY_MODELS[name]().channels():
            ms = morse_from_potential(sub)
            forms = model_critical_forms(sub, ms).forms
            for label, x in ms.geometry.positions.items():
                assert forms[label][0, 0] == np.exp(2.0 * sub.log_density(x))

    def test_closed_form(self):
        """phi - T f - (log lam / L) x on a deformed model, from its formula."""
        lam, x = 0.5 + 0.8j, np.linspace(0.0, 2 * np.pi, 9)
        want = 0.2 * np.sin(x) - 7.0 * np.cos(x) - np.log(lam) * x / (2 * np.pi)
        assert np.max(np.abs(DENSITY_MODELS["deformed"]().log_density(x) - want)) <= 1e-14

    def test_rank_two_refused(self):
        with pytest.raises(DimensionError, match="rank-one"):
            DENSITY_MODELS["rank_two"]().log_density(0.0)
