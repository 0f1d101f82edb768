import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import bitorsion.circle as circle_module
from bitorsion.circle import (
    ChannelOperators,
    CircleModel,
    SpectralCut,
    build_discrete,
    make_circle_model,
    witten_deform,
)
from bitorsion.errors import (
    BitorsionError,
    ResolutionError,
    ThetaNotZeroError,
    ZeroModeError,
)
from bitorsion.numkernel import schur_decomposition
from bitorsion.spectral import (
    _band_torsion_discrete,
    bz_compare,
    conjugation_isospectral_check,
    milnor_from_model,
    morse_from_potential,
    rs_torsion,
    small_spectrum_dims,
    spectral_cut,
    theorem33_experiment,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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
        """Zero-mode bookkeeping: band holds one mode per degree, value finite."""
        model = make_circle_model(1.0)
        value = rs_torsion(model, cut=0.5)
        assert np.isfinite(value) and value != 0

    def test_discrete_method(self):
        model = make_circle_model(2.0, phi=("sin", 0.3), f=("cos", 1))
        ref = rs_torsion(make_circle_model(2.0))
        got = rs_torsion(model, cut=0.5, method="discrete")
        assert abs(got - ref) <= 1e-9 * abs(ref)

    @pytest.mark.parametrize("cut", [0.0, 0.5, 2.0, 5.0])
    @pytest.mark.parametrize("lam, amp, flat, t_param", [
        (2.0, 0.3, False, 0.0),
        (1.1, 2.0, True, 3.0),
        (0.5, 0.9, True, 0.0),
        (-2.0, 0.9, False, 3.0),
        (0.4 - 0.8j, 0.3, True, 3.0),
        (np.exp(0.9j), 2.0, False, 3.0),
    ], ids=["real", "near_one_flat_T3", "half_flat", "negative_T3", "complex_flat_T3",
            "unitary_T3"])
    def test_discrete_matches_exact_at_every_cut(self, lam, amp, flat, t_param, cut):
        """det K in closed form does not depend on the cut, and neither does
        the value: it is the exact one at every cut, wavy, flat-window and
        deformed densities included."""
        model = make_circle_model(lam, phi=("sin", amp), f=("cos", 1), flat_windows=flat)
        model = witten_deform(model, t_param)
        want = rs_torsion(model, cut=cut, method="exact")
        got = rs_torsion(model, cut=cut, method="discrete")
        assert abs(got - want) <= 1e-11 * abs(want)

    def test_discrete_refuses_trivial_holonomy(self):
        """det K = 0 at holonomy 1 whatever the density, so model and reference
        cancel only when phi = 0: the method refuses instead of returning a
        value."""
        model = make_circle_model(1.0, phi=("sin", 0.3), f=("cos", 1))
        with pytest.raises(ZeroModeError):
            rs_torsion(model, cut=0.5, method="discrete")

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

    def test_rank_two_product(self):
        model = CircleModel(np.diag([2.0, 3.0]))
        expected = (2.0 / (1 - 2.0) ** 2) * (3.0 / (1 - 3.0) ** 2)
        assert rs_torsion(model) == pytest.approx(expected)

    def test_non_diagonal_holonomy(self):
        """A diagonalizable non-diagonal holonomy goes through the channel split."""
        from dataclasses import replace

        rng = np.random.default_rng(5)
        p = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) + 2 * np.eye(2)
        lam_mat = p @ np.diag([2.0, 0.5 + 0.8j]) @ np.linalg.inv(p)
        model = replace(make_circle_model(2.0, f=("cos", 1)), holonomy=lam_mat)
        expected = (2.0 / (1 - 2.0) ** 2) * ((0.5 + 0.8j) / (1 - (0.5 + 0.8j)) ** 2)
        assert rs_torsion(model) == pytest.approx(expected, rel=1e-10)
        assert bz_compare(model) == pytest.approx(1.0, abs=1e-10)


class TestAnomalyInvariance:
    def test_gy_route(self):
        base = rs_torsion(make_circle_model(2.0), method="exact")
        wavy = rs_torsion(make_circle_model(2.0, phi=("sin", 0.3)), method="gy")
        assert abs(wavy - base) <= 1e-6 * abs(base)


class TestSmallSpectrum:
    def test_witten_counts_single_well(self):
        model = make_circle_model(2.0, f=("cos", 1))
        r10 = small_spectrum_dims(model, 10.0, 256)
        assert r10.counts == (1, 1)
        r5 = small_spectrum_dims(model, 5.0, 256)
        assert abs(r10.band_trace) < abs(r5.band_trace)

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

    @pytest.mark.parametrize("t_param, threshold, wells", [
        (5.0, 1.0, 1), (5.0, 1.0, 2), (0.0, 0.5, 1),
    ], ids=["T5_one_well", "T5_two_wells", "T0_half"])
    @pytest.mark.parametrize("kind", ["real", "complex", "unitary", "rank_two"])
    def test_report_matches_dense_oracle(self, kind, t_param, threshold, wells):
        """Counts, band trace and large-band minimum against the full dense
        spectra of every channel at N = 128."""
        model = make_circle_model(HOLONOMIES[kind], f=("cos", wells))
        rep = small_spectrum_dims(model, t_param, 128, threshold=threshold)
        counts, trace, large_min, radius = [0, 0], 0.0 + 0.0j, np.inf, 0.0
        for ch in build_discrete(witten_deform(model, t_param), 128).channels:
            for degree in (0, 1):
                ev = ch.eigenvalues(degree)
                inside = np.abs(ev) <= threshold
                counts[degree] += int(np.sum(inside))
                trace += np.sum(ev[inside])
                large_min = min(large_min, np.min(np.abs(ev[~inside])))
                radius = max(radius, np.max(np.abs(ev)))
        assert rep.counts == tuple(counts)
        assert abs(rep.band_trace - trace) <= 1e-13 * radius
        assert abs(rep.large_band_min - large_min) <= 1e-13 * radius


class TestConjugation:
    def test_zero_deformation(self):
        model = make_circle_model(2.0, f=("cos", 1))
        assert conjugation_isospectral_check(model, 0.0, 64) < 1e-12

    def test_matched_stencil_similarity(self):
        model = make_circle_model(2.0, f=("cos", 1))
        assert conjugation_isospectral_check(model, 5.0, 128) < 1e-10

    @pytest.mark.parametrize("t_param", [5.0, 10.0])
    @pytest.mark.parametrize("holonomy", [np.exp(0.7j), np.diag([2.0, np.exp(2.5j)])],
                             ids=["unitary", "rank_two"])
    def test_pairing_is_one_to_one(self, holonomy, t_param):
        """Spectra with a unitary channel hold near-degenerate pairs that a
        (Re, Im)-sorted pairing crosses; a one-use matching does not."""
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


class TestDeRham:
    def test_milnor_from_model_value(self):
        lam = 2.0
        assert milnor_from_model(make_circle_model(lam, f=("cos", 1))) == pytest.approx(
            lam / (1 - lam) ** 2
        )

    def test_morse_from_potential_two_wells(self):
        ms = morse_from_potential(make_circle_model(2.0, f=("cos", 2)))
        assert ms.morse_counts() == [2, 2]


class TestTheorem33:
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

    def test_flat_windows_keep_wells(self):
        """Plateauing phi near critical points must not flatten the T f wells."""
        model = make_circle_model(2.0, phi=("sin", 0.25), f=("cos", 1), flat_windows=True)
        rows = theorem33_experiment(model, [4.0, 8.0], 256)
        assert rows[0].band_dims == (1, 1)
        assert rows[1].abs_log_ratio < rows[0].abs_log_ratio

    def test_morse_data_built_once_per_channel(self, monkeypatch):
        """The Morse side does not depend on T: a three-value sweep of a rank-2
        model scans each channel's critical points once, and its rows are the
        rows of three single-T runs, bit for bit."""
        model = make_circle_model(np.diag([2.0, 3.0]), f=("cos", 1))
        t_values = [4.0, 6.0, 8.0]
        singles = [theorem33_experiment(model, [t], 128)[0] for t in t_values]
        calls = []
        scan = circle_module._critical_points
        monkeypatch.setattr(circle_module, "_critical_points",
                            lambda *args: calls.append(1) or scan(*args))
        rows = theorem33_experiment(model, t_values, 128)
        assert len(calls) == 2
        assert rows == singles

    def test_flat_windows_found_once_per_sweep(self, monkeypatch):
        """A Witten-deformed flat-window model keeps its parent's windows: a
        three-value sweep scans once for the Morse data and once for the
        windows, not once more per T, and its rows are those of single-T runs."""
        model = make_circle_model(0.5, phi=("sin", 0.3), f=("cos", 1), flat_windows=True)
        t_values = [4.0, 8.0, 12.0]
        singles = [theorem33_experiment(model, [t], 128)[0] for t in t_values]
        calls = []
        scan = circle_module._critical_points
        monkeypatch.setattr(circle_module, "_critical_points",
                            lambda *args: calls.append(1) or scan(*args))
        rows = theorem33_experiment(model, t_values, 128)
        assert len(calls) == 2
        assert rows == singles


class TestCutErrors:
    def test_eigenvalue_on_cut_rejected(self):
        """|mu_{+-1}| = 1.0122 at holonomy 2: a cut there is ambiguous."""
        from bitorsion.circle import exact_spectrum_circle
        from bitorsion.errors import AmbiguousCutError

        model = make_circle_model(2.0)
        bad_cut = abs(exact_spectrum_circle(2.0).mu(1))
        with pytest.raises(AmbiguousCutError):
            rs_torsion(model, cut=bad_cut)


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


class TestTwoBandStructure:
    def test_band_separation_grows(self):
        model = make_circle_model(2.0, f=("cos", 1))
        reports = [small_spectrum_dims(model, t, 256) for t in (5.0, 10.0, 20.0)]
        traces = [abs(r.band_trace) for r in reports]
        mins = [r.large_band_min for r in reports]
        assert traces[1] < traces[0]
        assert mins[0] < mins[1] < mins[2]

    def test_spectral_cut_dims(self):
        model = make_circle_model(2.0, f=("cos", 1))
        from bitorsion.circle import witten_deform

        ch = build_discrete(witten_deform(model, 8.0), 256).channels[0]
        cut = spectral_cut(ch, 1.0)
        assert cut.dims == (1, 1)
        for degree, band in ((0, cut.eigenvalues0), (1, cut.eigenvalues1)):
            dense = ch.eigenvalues(degree)  # the full spectrum as the oracle
            inside = np.abs(dense) <= 1.0
            assert np.sum(inside) == 1
            assert abs(band[0] - dense[inside][0]) <= 1e-10 * np.max(np.abs(dense))
            assert np.min(np.abs(dense[~inside])) > 10.0

    def test_invariant_subspace_on_witten_laplacian(self):
        """Unit-disk invariant subspace of the deformed Laplacian has Morse-count dimension."""
        from bitorsion.circle import witten_deform

        model = make_circle_model(2.0, f=("cos", 2))
        ch = build_discrete(witten_deform(model, 10.0), 256).channels[0]
        cut = spectral_cut(ch, 1.0)
        basis = cut.basis0
        assert basis.shape[1] == 2  # M_0 for two wells
        lap = ch.sym_laplacian(0)
        image = lap @ basis
        residual = image - basis @ (basis.conj().T @ image)
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(lap)


_ROTATION = np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex)
HOLONOMIES = {
    "real": 2.0,
    "complex": 0.5 + 0.8j,
    "unitary": np.exp(1j * np.pi / 5),
    "rank_two": _ROTATION @ np.diag([2.0, 0.5 + 0.8j]) @ np.linalg.inv(_ROTATION),
}


class TestSmallBand:
    """The O(N) small band against the dense sorted-Schur oracle."""

    @pytest.mark.parametrize("t_param", [0.0, 4.0, 10.0])
    @pytest.mark.parametrize("wells", [1, 2])
    @pytest.mark.parametrize("kind", sorted(HOLONOMIES))
    def test_matches_dense_oracle(self, kind, wells, t_param):
        # at T = 0 the band holds n = 0 and the exactly degenerate n = +-1 pair
        radius = 2.0 if t_param == 0.0 else 1.0
        model = make_circle_model(HOLONOMIES[kind], f=("cos", wells))
        for ch in build_discrete(witten_deform(model, t_param), 128).channels:
            cut = spectral_cut(ch, radius)
            bases = []
            for degree, band in ((0, cut.eigenvalues0), (1, cut.eigenvalues1)):
                lap = ch.sym_laplacian(degree)
                dec, sdim = schur_decomposition(lap, sort=lambda z: abs(z) <= radius)
                bases.append(dec.q[:, :sdim])
                assert band.size == sdim == (3 if t_param == 0.0 else wells)
                gap = np.max(np.abs(np.sort_complex(band) - np.sort_complex(dec.eigenvalues[:sdim])))
                assert gap <= 1e-10 * np.linalg.norm(lap, 2)
            oracle = SpectralCut(radius, None, None, bases[0], bases[1], None)
            want = _band_torsion_discrete(ch, oracle)
            assert abs(_band_torsion_discrete(ch, cut) - want) <= 1e-10 * abs(want)

    def test_deep_deformation_never_untyped(self):
        """At T = 40 the band eigenvalue is zero to rounding; a shift at 0 would
        make the sparse LU raise an untyped 'exactly singular' error."""
        model = make_circle_model(2.0, f=("cos", 1))
        try:
            rows = theorem33_experiment(model, [40.0], 64)
        except BitorsionError:
            return
        assert rows[0].band_dims == (1, 1) and np.isfinite(rows[0].abs_log_ratio)

    def test_large_grid_without_dense_storage(self):
        """N = 65536: a dense N x N complex copy would need 64 GiB. The child
        process caps its address space at 4 GiB, so any such copy fails."""
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
            "from bitorsion import make_circle_model, witten_deform, build_discrete\n"
            "from bitorsion.spectral import spectral_cut\n"
            "model = witten_deform(make_circle_model(2.0, f=('cos', 1)), 20.0)\n"
            "ch = build_discrete(model, 65536).channels[0]\n"
            "print(spectral_cut(ch, 1.0).dims)\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "(1, 1)"
