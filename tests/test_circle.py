import os
import subprocess
import sys
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import bitorsion
import bitorsion.circle as circle_module
from bitorsion import spectral
from bitorsion.circle import (
    CircleModel,
    KSweep,
    TrigPoly,
    _critical_points,
    assemble_k,
    build_discrete,
    exact_spectrum_circle,
    gelfand_yaglom_det,
    log_band_torsions,
    make_circle_model,
    witten_deform,
    zeta_det_exact,
)
from bitorsion.errors import (
    BitorsionError,
    DimensionError,
    GridError,
    HolonomyError,
    InvalidMatrixError,
    SchemaError,
    ZeroModeError,
)
from bitorsion.serialize import load_circle_model
from bitorsion.spectral import (
    band_sweep,
    bz_compare,
    conjugation_isospectral_check,
    rs_torsion,
    small_spectrum_dims,
    theorem33_experiment,
)

TWO_PI = 2 * np.pi
# cos theta + 0.3 sin 2 theta, whose critical points are not symmetric: a
# density wrong near them moves the discrete rs by 5% at lam = 2
ASYMMETRIC = TrigPoly(cos_coeffs=((1, 1.0),), sin_coeffs=((2, 0.3),))
_ROTATION = np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex)


class TestBuildDiscrete:
    def test_kernel_multiplicity_at_trivial_holonomy(self):
        disc = build_discrete(CircleModel(1.0), 8)
        ev = disc.eigenvalues()
        assert np.sum(np.abs(ev) < 1e-10) == 1

    def test_lowest_eigenvalue_matches_continuum(self):
        """Unitary holonomy e^{i pi/3}: lowest magnitude (2 pi / L)^2 (1/6)^2 to 1%."""
        lam = np.exp(1j * np.pi / 3)
        target = (1.0 / 6.0) ** 2
        errs = {}
        for n in (64, 128):
            disc = build_discrete(CircleModel(lam), n)
            ev = disc.eigenvalues()
            low = ev[np.argmin(np.abs(ev))]
            errs[n] = abs(abs(low) - target)
        assert errs[64] < 0.01 * target
        # refining N by 2 improves accuracy about 4x
        assert errs[64] / errs[128] > 3.0

    def test_adjoint_identity_exact(self):
        """<du, v>_b = <u, d*_b v>_b as a matrix identity, any density.

        K is built from local exponent gaps; the oracle takes the log density
        log_w = phi_eff(x) - x log(lam) / L from the model, exponentiates the
        Gram roots G^{1/2} = (h e^{2 log_w})^{1/2} separately and forms
        G1^{1/2} d G0^{-1/2}. With d*_b = G0^{-1} d^T G1, agreement is the
        statement that K^T K is similar to d*_b d."""
        model = CircleModel(0.7 + 1.1j, phi=TrigPoly.sin(0.3))
        for ch in build_discrete(model, 32).channels:
            log_w0, log_w1 = (model.phi_value(x) - x * np.log(ch.lam) / model.length
                              for x in (ch.nodes, ch.mids))
            root0, root1 = np.exp(log_w0), np.exp(log_w1)  # the h^{1/2} cancel
            h = model.length / ch.n_grid
            diag = -root1 / root0 / h
            upper = (root1 / np.roll(root0, -1) / h).astype(complex)
            upper[-1] *= ch.lam
            scale = max(np.max(np.abs(ch.k_diag)), np.max(np.abs(ch.k_upper)))
            assert np.max(np.abs(diag - ch.k_diag)) < 1e-12 * scale
            assert np.max(np.abs(upper - ch.k_upper)) < 1e-12 * scale

    def test_closed_form_family(self):
        """phi = 0 spectrum is (2 cos(2 pi z/N) - 2 cos(2 pi n/N)) / h^2 exactly."""
        lam = 2.0
        n_grid = 32
        disc = build_discrete(CircleModel(lam), n_grid)
        h = TWO_PI / n_grid
        z = np.log(lam) / (2j * np.pi)
        ns = np.arange(-n_grid // 2, n_grid // 2)
        pred = (2 * np.cos(2 * np.pi * z / n_grid) - 2 * np.cos(2 * np.pi * ns / n_grid)) / h**2
        pred = np.array(sorted(pred, key=lambda t: (t.real, t.imag)))
        got = disc.eigenvalues()
        assert np.max(np.abs(got - pred)) < 1e-10 * np.max(np.abs(pred))

    def test_grid_too_small(self):
        with pytest.raises(GridError):
            build_discrete(CircleModel(2.0), 4)

    @pytest.mark.parametrize("n_grid", [64, 128])
    @pytest.mark.parametrize("t_param", [0.0, 5.0, 10.0])
    @pytest.mark.parametrize("wells", [1, 2])
    @pytest.mark.parametrize("holonomy", [
        2.0, 0.5 + 0.8j, np.exp(1j * np.pi / 5),
        _ROTATION @ np.diag([2.0, 0.5 + 0.8j]) @ np.linalg.inv(_ROTATION),
    ], ids=["real", "complex", "unitary", "rank_two"])
    def test_supersymmetry(self, holonomy, wells, t_param, n_grid):
        """K^T K and K K^T share one spectrum, multiplicities included: the
        spectrum of the operators and the dense spectrum of each channel's
        K K^T pair one to one to rounding, which is what lets the spectral
        routines work on K^T K alone."""
        model = make_circle_model(holonomy, f=("cos", wells))
        disc = build_discrete(witten_deform(model, t_param), n_grid)
        e0 = disc.eigenvalues()
        e1 = np.concatenate([np.linalg.eigvals(k @ k.T) for k in map(_dense_k, disc.channels)])
        radius = max(np.max(np.abs(e0)), np.max(np.abs(e1)))
        dist = np.abs(e0[:, None] - e1[None, :])
        assert np.max(dist[linear_sum_assignment(dist)]) <= 1e-13 * radius

    def test_sector_condition(self):
        """|phi| <= 0.3: eigenvalues with |mu| > 1 stay in a narrow angle."""
        model = CircleModel(np.exp(0.4j), phi=TrigPoly.sin(0.3))
        disc = build_discrete(model, 64)
        ev = disc.eigenvalues()
        big = ev[np.abs(ev) > 1.0]
        assert np.max(np.abs(np.angle(big))) < 0.5

    def test_rank_two_block_structure(self):
        disc = build_discrete(CircleModel(np.diag([2.0, 3.0])), 16)
        assert len(disc.channels) == 2
        assert disc.eigenvalues().shape == (32,)

    def test_grading_preserved(self):
        """The square of the odd operator [[0, K^T], [K, 0]] is block-diagonal by
        degree, with the two degree Laplacians as its blocks. ``sym_laplacian``
        writes K^T K's entries out from K's diagonals, each within one rounding
        of the matrix product's."""
        for holonomy in (2.0, 0.5 + 0.8j):
            ch = build_discrete(CircleModel(holonomy, phi=TrigPoly.sin(0.2)), 16).channels[0]
            k = _dense_k(ch)
            zero = np.zeros_like(k)
            odd = np.block([[zero, k.T], [k, zero]])
            full = odd @ odd
            n = k.shape[0]
            assert np.max(np.abs(full[:n, n:])) == 0.0
            assert np.max(np.abs(full[n:, :n])) == 0.0
            assert np.array_equal(full[:n, :n], k.T @ k)
            assert np.array_equal(full[n:, n:], k @ k.T)
            lap, product = ch.sym_laplacian(), full[:n, :n]
            assert np.array_equal(lap == 0, product == 0)
            assert np.all(np.abs(lap - product) <= np.finfo(float).eps * np.abs(product))


def _dense_k(ch):
    """The channel's K as a dense matrix; the seam entry lands at (N-1, 0)."""
    n = ch.n_grid
    k = np.zeros((n, n), dtype=complex)
    k[np.arange(n), np.arange(n)] = ch.k_diag
    k[np.arange(n), (np.arange(n) + 1) % n] = ch.k_upper
    return k


def _dense_spectrum(lap):
    """The oracle: LAPACK's general eigensolver on a dense Laplacian, (Re, Im)-sorted."""
    ev = np.linalg.eigvals(lap)
    return ev[np.lexsort((ev.imag, ev.real))]


# "flat_windows" is the asymmetric potential, where windows freezing phi went wrong
_REAL_MODELS = {
    "one_well": lambda: make_circle_model(2.0, f=("cos", 1)),
    "two_wells_wavy": lambda: make_circle_model(2.0, phi=("sin", 0.3), f=("cos", 2)),
    "flat_windows": lambda: CircleModel(0.5, phi=TrigPoly.sin(0.3), potential=ASYMMETRIC),
    "rank_two": lambda: make_circle_model(np.diag([2.0, 3.0]), phi=("sin", 0.2), f=("cos", 1)),
}


class TestRealSpectrum:
    """Real channels take the symmetric band solver; complex ones the dense one."""

    @pytest.mark.parametrize("kind", sorted(_REAL_MODELS))
    @pytest.mark.parametrize("t_param", [0.0, 5.0, 10.0])
    @pytest.mark.parametrize("n_grid", [8, 9, 64, 257])
    def test_matches_dense_oracle(self, kind, t_param, n_grid):
        model = witten_deform(_REAL_MODELS[kind](), t_param)
        for ch in build_discrete(model, n_grid).channels:
            assert not np.any(ch.k_diag.imag) and not np.any(ch.k_upper.imag)
            got, k = ch.eigenvalues(), _dense_k(ch)
            assert got.shape == (n_grid,) and not np.any(got.imag)
            for lap in (k.T @ k, k @ k.T):  # each degree's dense spectrum is an oracle
                want = _dense_spectrum(lap)
                assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    def test_complex_channel_stays_dense(self):
        """A unitary holonomy gives a complex-symmetric Laplacian: the spectrum
        is the dense eigensolver's, bit for bit."""
        model = make_circle_model(np.exp(1j * np.pi / 3), phi=("sin", 0.3), f=("cos", 1))
        ch = build_discrete(model, 64).channels[0]
        assert np.array_equal(ch.eigenvalues(), _dense_spectrum(ch.sym_laplacian()))

    def test_complex_channel_refused_above_dense_bound(self):
        """N x N complex storage alone is 256 MiB just past the bound: the
        spectrum is refused before any of it is allocated."""
        n_grid = circle_module.DENSE_MAX_N + 1
        ch = build_discrete(CircleModel(np.exp(1j * np.pi / 3)), n_grid).channels[0]
        with pytest.raises(GridError):
            ch.eigenvalues()

    def test_large_grid_without_dense_storage(self):
        """N = 8192: one dense N x N complex Laplacian needs 1 GiB, and the child
        process caps its whole address space at 1 GiB. The spectrum of the
        phi = 0 model is the closed-form family."""
        n_grid = 8192
        code = (
            f"n = {n_grid}\n"
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (n * n * 16, n * n * 16))\n"
            "import numpy as np\n"
            "from bitorsion import CircleModel, build_discrete\n"
            "ev = build_discrete(CircleModel(2.0), n).channels[0].eigenvalues()\n"
            "h, z = 2 * np.pi / n, np.log(2.0) / (2j * np.pi)\n"
            "pred = np.sort((2 * np.cos(2 * np.pi * z / n)\n"
            "                - 2 * np.cos(2 * np.pi * np.arange(n) / n)).real / h**2)\n"
            "print(ev.size, np.max(np.abs(ev - pred)) / np.max(np.abs(pred)))\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        src = os.path.dirname(os.path.dirname(bitorsion.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=120)
        assert out.returncode == 0, out.stderr
        size, rel_err = out.stdout.split()
        assert int(size) == n_grid
        assert float(rel_err) < 1e-10


class TestLogBandTorsion:
    """Sums of squared minors against the characteristic polynomial of the
    dense K^T K. The diagonals are random up to the one constraint, kept by
    ``conjugated``, that makes det K = (1 - lam) prod k_diag."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n_grid", [9, 16, 33])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_characteristic_polynomial(self, kind, n_grid, k):
        rng = np.random.default_rng(n_grid + 10 * k)
        draw = ((lambda: rng.uniform(0.5, 2.0, n_grid) * rng.choice([-1.0, 1.0], n_grid))
                if kind == "real" else
                (lambda: rng.uniform(0.5, 2.0, n_grid) * np.exp(2j * np.pi * rng.random(n_grid))))
        lam = 2.0 if kind == "real" else 0.5 + 0.8j
        ch = build_discrete(CircleModel(lam), n_grid).channels[0].conjugated(draw(), draw())
        rows = np.arange(n_grid)
        dense = np.zeros((n_grid, n_grid), dtype=complex)
        dense[rows, rows] = ch.k_diag
        dense[rows, (rows + 1) % n_grid] = ch.k_upper
        coeffs = np.poly(np.linalg.eigvals(dense.T @ dense))  # coeffs[m] = (-1)^m e_m
        want = [(-1) ** m * coeffs[n_grid - m] / coeffs[n_grid] for m in range(k + 2)]
        logs, floor = log_band_torsions(ch.k_diag, ch.k_upper, ch.lam, k)
        assert logs.shape == (k + 2,) and logs[0] == 0.0
        assert np.max(np.abs(np.exp(logs) / want - 1.0)) <= 1e-10
        # positive terms leave eps; random phases cancel a little
        eps = np.finfo(float).eps
        assert floor == eps if kind == "real" else eps <= floor < 1e-11

    def test_large_grid_in_linear_memory(self):
        """N = 65536 at T = 40: log(e_{N-1} / det(K)^2) = 158.15275476 on every
        grid, the value at N = 512 to 1e-9 (the band eigenvalue is e^-158)."""
        import tracemalloc

        model = witten_deform(make_circle_model(2.0, f=("cos", 1)), 40.0)
        coarse = build_discrete(model, 512).channels[0]
        want = log_band_torsions(coarse.k_diag, coarse.k_upper, coarse.lam, 1)[0][1]
        ch = build_discrete(model, 65536).channels[0]
        tracemalloc.start()
        try:
            got = log_band_torsions(ch.k_diag, ch.k_upper, ch.lam, 1)[0][1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2048 * 65536
        assert abs(got - want) < 1e-9 and abs(want - 158.15275476) < 1e-8


    def test_deep_deformation_takes_ratios_as_logs(self):
        """N = 64, T = 8000: K is finite, but b / a overflows. The factors are
        taken as log b - log a, so no warning is raised, and e_{N-1} / det(K)^2
        is the 40-digit product of K's own factors."""
        model = witten_deform(make_circle_model(2.0, f=("cos", 1)), 8000.0)
        ch = build_discrete(model, 64).channels[0]
        assert np.isfinite(ch.k_diag).all() and np.isfinite(ch.k_upper).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logs, floor = log_band_torsions(ch.k_diag, ch.k_upper, ch.lam, 1)
        with mp.workdps(40):
            a = [mp.mpf(v) for v in ch.k_diag.real]
            b = [mp.mpf(v) for v in ch.k_upper.real]
            log_x = [-2 * mp.log(abs(v)) for v in a]
            log_r = [2 * (mp.log(abs(u)) - mp.log(abs(v))) for u, v in zip(b, a)]
            want = _transfer_trace_oracle(log_x, log_r, 3)[1] / (1 - mp.mpf(2)) ** 2
            assert abs(logs[1] - mp.log(want)) <= 1e-12 * abs(mp.log(want))
        assert floor == np.finfo(float).eps

    @pytest.mark.parametrize("entry", [0.0, np.inf, np.nan], ids=["zero", "inf", "nan"])
    def test_entry_out_of_range_refused(self, entry):
        ch = build_discrete(make_circle_model(2.0), 16).channels[0]
        k_diag = ch.k_diag.copy()
        k_diag[3] = entry
        with pytest.raises(InvalidMatrixError, match="16-point grid"):
            log_band_torsions(k_diag, ch.k_upper, ch.lam, 1)


def _transfer_trace_oracle(log_x, log_r, size):
    """Coefficients of x^0, ..., x^(size-1) of tr prod_i [[1 + x X_i, R_i],
    [x X_i, R_i]], X = e^{log_x}, R = e^{log_r}, in the current mpmath
    precision: the truncated 2 x 2 polynomial factors multiplied out one by
    one, with no logs and no blocks."""
    one, zero = mp.mpf(1), mp.mpf(0)
    p00, p01 = [one] + [zero] * (size - 1), [zero] * size
    p10, p11 = [zero] * size, [one] + [zero] * (size - 1)
    for lx, lr in zip(log_x, log_r):
        big_x, big_r = mp.exp(mp.mpmathify(lx)), mp.exp(mp.mpmathify(lr))

        def times_x(c):
            return [zero] + [big_x * v for v in c[:-1]]

        s00, s01, s10, s11 = times_x(p00), times_x(p01), times_x(p10), times_x(p11)
        p00, p01, p10, p11 = (
            [u + v + w for u, v, w in zip(p00, s00, s01)],
            [(u + v) * big_r for u, v in zip(p00, p01)],
            [u + v + w for u, v, w in zip(p10, s10, s11)],
            [(u + v) * big_r for u, v in zip(p10, p11)],
        )
    return [u + v for u, v in zip(p00, p11)]


# per-factor |Re log| scales whose block sizes run through every power of two
# from 512 down to 1 (B (l + ln 3) <= 700, l the largest |Re log|)
_KERNEL_SCALES = (0.1, 1.0, 3.0, 8.0, 20.0, 40.0, 80.0, 150.0, 300.0, 900.0)


def _kernel_inputs(n_factors, kind, seed):
    """Seeded factor logs, one (log_x, log_r) pair per scale, uniform in
    [-scale, scale], with random phases on a complex kind."""
    rng = np.random.default_rng(seed)
    out = []
    for scale in _KERNEL_SCALES:
        logs = rng.uniform(-scale, scale, (2, n_factors))
        if kind == "complex":
            logs = logs + 1j * rng.uniform(-np.pi, np.pi, (2, n_factors))
        out.append(logs)
    return out


class TestTransferTrace:
    """``circle._log_transfer_trace`` against a 40-digit mpmath product of the
    truncated 2 x 2 polynomial factors, with no logs and no blocks. A double
    log of modulus |L| carries about eps |L| of its own, so each coefficient's
    log is checked to 1e-12 max(1, |L|)."""

    @staticmethod
    def _assert_matches_oracle(log_x, log_r, size, kind):
        got = circle_module._log_transfer_trace(log_x, log_r, size)
        with mp.workdps(40):
            want = _transfer_trace_oracle(log_x.tolist(), log_r.tolist(), size)
            for g, w in zip(got.tolist(), want):
                if w == 0:
                    assert np.real(g) == -np.inf
                    continue
                gap = mp.mpmathify(g) - mp.log(w)
                if kind == "complex":  # logs agree modulo 2 pi i
                    gap = mp.mpc(gap.real, (gap.imag + mp.pi) % (2 * mp.pi) - mp.pi)
                assert abs(gap) <= 1e-12 * max(1.0, abs(mp.re(mp.log(w))))

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("n_factors", [1, 3, 7, 64, 100, 1000])
    def test_matches_high_precision_product(self, n_factors, kind):
        padded = 1 << (n_factors - 1).bit_length()
        blocks = set()
        for i, (log_x, log_r) in enumerate(_kernel_inputs(n_factors, kind, n_factors)):
            ell = max(np.max(np.abs(log_x.real)), np.max(np.abs(log_r.real)))
            blocks.add(circle_module._block_size(ell, padded))
            self._assert_matches_oracle(log_x, log_r, 2 + i % 5, kind)
        assert blocks == {1 << j for j in range(min(10, padded.bit_length()))}

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("n_factors", [1, 7, 100])
    def test_zero_entry(self, n_factors, kind):
        """A zero X (log -inf) is exact: its item takes the log-space tree."""
        log_x, log_r = _kernel_inputs(n_factors, kind, 5)[1]
        log_x[n_factors // 2] = -np.inf
        self._assert_matches_oracle(log_x, log_r, 4, kind)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("n_factors", [3, 64, 1000])
    def test_batch_is_bit_equal_to_single_calls(self, n_factors, kind):
        """Items with different block sizes, stacked two deep, give the values
        of their own calls bit for bit."""
        logs = np.array(_kernel_inputs(n_factors, kind, 11))
        logs[3, 0, 1] = -np.inf
        stacked = logs.reshape(2, 5, 2, n_factors)
        batched = circle_module._log_transfer_trace(stacked[:, :, 0], stacked[:, :, 1], 4)
        assert batched.shape == (2, 5, 4)
        singles = [circle_module._log_transfer_trace(lx, lr, 4) for lx, lr in logs]
        np.testing.assert_array_equal(batched.reshape(10, 4), np.array(singles))

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("n_factors", [7, 100, 1000])
    def test_linear_stage_stays_in_range(self, n_factors, kind):
        """Every block size the bound allows multiplies with no overflow,
        underflow or invalid operation."""
        padded = 1 << (n_factors - 1).bit_length()
        for log_x, log_r in _kernel_inputs(n_factors, kind, 3):
            ell = max(np.max(np.abs(log_x.real)), np.max(np.abs(log_r.real)))
            block = circle_module._block_size(ell, padded)
            if block == 1:
                continue
            with np.errstate(all="raise"):
                coeffs = circle_module._block_products(log_x[None], log_r[None], 6, padded, block)
            assert coeffs.shape == (1, padded // block, 2, 2, 6)


_LOG_DET_MODELS = {  # (phi, potential, T); "flat_windows" is the asymmetric potential
    "wavy": (TrigPoly.sin(0.3), TrigPoly.cos(1.0, 1), 0.0),
    "flat_windows": (TrigPoly.cos(0.4), ASYMMETRIC, 0.0),
    "deformed": (TrigPoly.sin(0.3), TrigPoly.cos(1.0, 1), 3.0),
}


class TestLogDet:
    """log det K against LAPACK's dense determinant, never through the
    model/reference ratio of the discrete rs method, where a sign error in
    det K cancels. |prod k_upper| / |prod k_diag| = |lam|, so lam = 2 and
    lam = 0.5 put the larger product on either side."""

    @pytest.mark.parametrize("kind", sorted(_LOG_DET_MODELS))
    @pytest.mark.parametrize("lam", [2.0, 0.5, -2.0, 0.4 - 0.8j, np.exp(0.9j), 1.1],
                             ids=["2", "0.5", "-2", "complex", "unitary", "1.1"])
    @pytest.mark.parametrize("n_grid", [8, 9, 32, 33, 64])
    def test_matches_dense_det(self, kind, lam, n_grid):
        phi, potential, t_param = _LOG_DET_MODELS[kind]
        model = witten_deform(CircleModel(lam, phi=phi, potential=potential), t_param)
        ch = build_discrete(model, n_grid).channels[0]
        rows = np.arange(n_grid)
        k = np.zeros((n_grid, n_grid), dtype=complex)
        k[rows, rows] = ch.k_diag
        k[rows, (rows + 1) % n_grid] = ch.k_upper
        want = np.linalg.det(k)
        assert abs(np.exp(ch.log_det()) - want) <= 1e-11 * abs(want)

    @pytest.mark.parametrize("lam", [2.0, 0.4 - 0.8j], ids=["real", "complex"])
    def test_large_grid_in_linear_memory(self, lam):
        """N = 65536, where log|det K| is about 6e5 and a dense K would take
        64 GiB: the traced peak stays under 64 bytes per node. The telescoping
        k_upper / k_diag products give det K = (1 - lam) prod k_diag."""
        import tracemalloc

        n_grid = 65536
        model = make_circle_model(lam, phi=("sin", 0.3), f=("cos", 1))
        ch = build_discrete(model, n_grid).channels[0]
        tracemalloc.start()
        try:
            got = ch.log_det()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * n_grid
        want = np.log(complex(1.0 - lam)) + np.sum(np.log(ch.k_diag))
        assert abs(want.real) > 5e5
        diff = got - want
        diff -= TWO_PI * 1j * round(diff.imag / TWO_PI)
        assert abs(diff) < 1e-9


class TestExactSpectrum:
    def test_trivial_holonomy(self):
        fam = exact_spectrum_circle(1.0)
        assert fam.mu(0) == 0
        assert fam.mu(1) == pytest.approx(1.0)
        assert len(fam.modes_in_disk(0.5)) == 1  # the zero mode

    def test_antiperiodic_no_zero_mode(self):
        fam = exact_spectrum_circle(-1.0)
        assert fam.z == pytest.approx(0.5)
        mods = [abs(fam.mu(n)) for n in range(-4, 5)]
        assert min(mods) > 0.2

    def test_agrees_with_discrete_low_spectrum(self):
        lam = 2.0
        fam = exact_spectrum_circle(lam)
        disc = build_discrete(CircleModel(lam), 256)
        ev = disc.eigenvalues()
        for n in (0, 1, -1, 2):
            mu = fam.mu(n)
            gap = np.min(np.abs(ev - mu))
            assert gap < 5e-4 * max(abs(mu), 1.0)

    def test_zero_holonomy_rejected(self):
        with pytest.raises(HolonomyError):
            exact_spectrum_circle(0.0)

    @pytest.mark.parametrize("lam", [complex("nan"), complex(2.0, float("nan")), float("inf"),
                                     complex(float("-inf"), 1.0)],
                             ids=["nan", "nan_imag", "inf", "minus_inf"])
    def test_non_finite_holonomy_rejected(self, lam):
        """A non-finite scalar holonomy is refused like 0, not carried into a nan
        spectrum, determinant or torsion; a dict document reaches it too."""
        for call in (lambda: exact_spectrum_circle(lam), lambda: zeta_det_exact(lam),
                     lambda: zeta_det_exact(lam, cut=0.5), lambda: CircleModel(lam),
                     lambda: make_circle_model(lam, f=("cos", 1)),
                     lambda: load_circle_model({"lambda": [lam.real, lam.imag]
                                                if isinstance(lam, complex) else lam})):
            with pytest.raises(HolonomyError, match="holonomy must be finite"):
                call()

    @pytest.mark.parametrize("length", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
    def test_circumference_must_be_finite_and_positive(self, length):
        with pytest.raises(DimensionError, match="circumference must be finite and positive"):
            CircleModel(2.0, length=length)
        with pytest.raises(DimensionError, match="circumference must be finite and positive"):
            load_circle_model({"lambda": 2.0, "L": length})

    def test_singular_holonomy_matrix_rejected(self):
        """Refused on its exact LU determinant, 0: the smallest eigenvalue of
        this rank-one holonomy reads 1.2e-32, not 0."""
        with pytest.raises(HolonomyError, match="singular"):
            make_circle_model(np.array([[1, 2], [2, 4]]), f=("cos", 1))


def _zeta_det_oracle(lam, length=TWO_PI):
    """Independent Hurwitz-style continuation of the eigenvalue zeta function."""
    mp.mp.dps = 25
    lam = mp.mpc(lam)
    z = mp.log(lam) / (2j * mp.pi)

    def head(s, terms=50):
        tot = mp.zeta(2 * s)
        c = mp.mpf(1)
        for k in range(1, terms):
            c = c * (s + k - 1) / k
            tot += c * z ** (2 * k) * mp.zeta(2 * s + 2 * k)
        return tot

    eps = mp.mpf(10) ** -12

    def zeta_full(s):
        return (2 * mp.pi / length) ** (-2 * s) * (2 * head(s) + (-(z**2)) ** (-s))

    dz = (zeta_full(eps) - zeta_full(-eps)) / (2 * eps)
    return complex(mp.e ** (-dz))


class TestZetaDet:
    def test_antiperiodic_value(self):
        """lam = -1: |det| = 4, the classical antiperiodic magnitude; sign from
        the pinned continuation (det' = (1-lam)^2 / lam)."""
        value = zeta_det_exact(-1.0)
        assert value == pytest.approx(-4.0)
        assert abs(value) == pytest.approx(4.0)

    def test_lam_two_value(self):
        """det' ~ (1-lam)(1-1/lam) up to the pinned normalization (factor -1)."""
        value = zeta_det_exact(2.0)
        assert value == pytest.approx(0.5)
        classical = (1 - 2.0) * (1 - 0.5)
        assert value / classical == pytest.approx(-1.0)

    @pytest.mark.parametrize("lam", [2.0, -1.0, 0.5 + 0.8j, np.exp(2j * np.pi / 7)])
    def test_hurwitz_continuation_oracle(self, lam):
        oracle = _zeta_det_oracle(lam)
        assert zeta_det_exact(lam) == pytest.approx(oracle, rel=1e-10)

    def test_conjugation_symmetry(self):
        lam = 0.6 + 0.9j
        assert zeta_det_exact(np.conj(lam)) == pytest.approx(np.conj(zeta_det_exact(lam)))

    def test_zero_mode_requires_cut(self):
        with pytest.raises(ZeroModeError):
            zeta_det_exact(1.0)
        assert zeta_det_exact(1.0, cut=0.5) == pytest.approx(TWO_PI**2)

    def test_cut_divides_band_eigenvalues(self):
        lam = 2.0
        fam = exact_spectrum_circle(lam)
        full = zeta_det_exact(lam)
        primed = zeta_det_exact(lam, cut=2.0)
        removed = np.prod([mu for _, mu in fam.modes_in_disk(2.0)])
        assert primed == pytest.approx(full / removed, rel=1e-12)


class TestGelfandYaglom:
    def test_matches_zeta_constant_density(self):
        for lam in (2.0, 0.5 + 0.8j, -1.5):
            model = CircleModel(lam)
            assert gelfand_yaglom_det(model) == pytest.approx(
                zeta_det_exact(lam), rel=1e-9
            )

    def test_variable_density_finite_and_invariant(self):
        model = CircleModel(2.0, phi=TrigPoly.sin(0.3))
        value = gelfand_yaglom_det(model)
        assert value == pytest.approx(zeta_det_exact(2.0), rel=1e-9)

    def test_rank_two_is_the_channel_product(self):
        """A rank-2 model, its holonomy H not diagonal, takes the product over
        its channels: (1 - lam)^2 / lam per eigenvalue, so the value is
        det(1 - H)^2 / det H, taken here from numpy's det with no eigensolve."""
        rotation = np.array([[2.0, 1.0], [1.0, 3.0]])
        holonomy = rotation @ np.diag([2.0, 0.5 + 0.8j]) @ np.linalg.inv(rotation)
        model = CircleModel(holonomy, phi=TrigPoly.sin(0.3))
        want = 1.0 + 0.0j
        for sub in model.channels():
            want *= gelfand_yaglom_det(sub)
        value = gelfand_yaglom_det(model)
        assert value == want
        oracle = np.linalg.det(np.eye(2) - holonomy) ** 2 / np.linalg.det(holonomy)
        assert abs(value - oracle) <= 1e-12 * abs(oracle)

    @pytest.mark.parametrize("holonomy", [1 - 1e-15, 1 - 1e-12, 1 + 1e-8, 2.0, 0.5 + 0.8j,
                                          np.exp(0.7j), np.diag([2.0, 0.5 + 0.8j])])
    def test_reads_no_density(self, monkeypatch, holonomy):
        """The growth factor exp(-2 int phi_eff') is exactly 1 for a periodic
        density, so the value is zeta_det_exact's per channel, bit for bit on a
        wavy, deformed model, and no density is evaluated."""
        def unread(*args):
            raise AssertionError("the density was evaluated")

        for name in ("value", "derivative"):
            monkeypatch.setattr(TrigPoly, name, unread)
        model = witten_deform(CircleModel(holonomy, phi=TrigPoly.sin(0.3),
                                          potential=ASYMMETRIC), 3.0)
        want = 1.0 + 0.0j
        for lam in model.channel_holonomies():
            want *= zeta_det_exact(lam)
        assert gelfand_yaglom_det(model) == want

    def test_doubled_circumference(self):
        model = CircleModel(2.0, length=2 * TWO_PI)
        assert gelfand_yaglom_det(model) == pytest.approx(
            zeta_det_exact(2.0, length=2 * TWO_PI), rel=1e-9
        )

    @pytest.mark.parametrize("module", ["scipy.integrate", "scipy.linalg", "scipy.sparse"])
    def test_import_leaves_scipy_out(self, module):
        """The monodromy is closed-form, and LAPACK, ARPACK and the oracle's null
        space are imported where they are called: importing the package loads
        none of these modules."""
        code = f"import sys, bitorsion; print({module!r} in sys.modules)"
        src = os.path.dirname(os.path.dirname(bitorsion.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"


class TestTrigPoly:
    @pytest.mark.parametrize("poly, constant", [
        (TrigPoly.zero(), True),
        (TrigPoly(const=0.7), True),
        (TrigPoly.sin(0.0), True),
        (TrigPoly.cos(0.0, 3), True),
        (TrigPoly(cos_coeffs=((1, 0.0),), sin_coeffs=((2, 0.0),)), True),
        (TrigPoly.sin(0.3), False),
        (TrigPoly.cos(1e-300, 2), False),
        (TrigPoly(cos_coeffs=((1, 0.0),), sin_coeffs=((2, 0.3),)), False),
    ])
    def test_is_constant_reads_the_coefficients(self, poly, constant):
        """Constant exactly when every cos and sin coefficient is zero, the
        test ``sup_norm_bound`` makes for a zero phi."""
        assert poly.is_constant() is constant
        assert poly.is_constant() == (poly.sup_norm_bound() == abs(poly.const))


class TestRealCoefficients:
    @pytest.mark.parametrize("poly", [
        TrigPoly(sin_coeffs=((1, 0.3 + 0.2j),)),
        TrigPoly(const=np.complex128(0.1)),
        TrigPoly(cos_coeffs=((1, 1.0), (2, np.complex64(0.5))), sin_coeffs=((1, 0.2),)),
    ], ids=["sin", "const", "cos_complex64"])
    @pytest.mark.parametrize("name", ["phi", "potential"])
    def test_complex_coefficient_refused(self, name, poly):
        """The discrete and Milnor routes read phi and the potential as real,
        and would drop an imaginary part with only a ComplexWarning: the model
        refuses a complex coefficient by name, also through ``replace``."""
        with pytest.raises(SchemaError, match=f"^{name} has a non-real coefficient") as info:
            CircleModel(2.0, **{name: poly})
        assert info.value.field == name
        with pytest.raises(SchemaError):
            replace(make_circle_model(2.0, f=("cos", 1)), **{name: poly})


class TestWittenDeform:
    def test_zero_deformation_identity(self):
        model = make_circle_model(2.0, f=("cos", 1))
        assert witten_deform(model, 0.0) is model

    def test_deformation_shifts_phi(self):
        model = make_circle_model(2.0, phi=("sin", 0.2), f=("cos", 1))
        deformed = witten_deform(model, 10.0)
        xs = np.arange(8) * (TWO_PI / 8)
        expected = model.phi.value(xs) - 10.0 * model.potential.value(xs)
        assert np.allclose(deformed.phi_value(xs), expected)

    def test_composes_additively(self):
        model = make_circle_model(2.0, f=("cos", 1))
        once = witten_deform(witten_deform(model, 4.0), 6.0)
        direct = witten_deform(model, 10.0)
        xs = np.arange(8) * (TWO_PI / 8)
        assert np.allclose(once.phi_value(xs), direct.phi_value(xs))


def _reference_k(model, t_param, n_grid):
    """(lam, k_diag, k_upper) of each channel of witten_deform(model, t_param),
    one channel model at a time, from its log_density at the nodes and
    midpoints, the seam entry a scalar product: K as a per-T assembly forms it."""
    out = []
    for sub in witten_deform(model, t_param).channels():
        lam = complex(sub.holonomy)
        h = sub.length / n_grid
        nodes = np.arange(n_grid) * h
        log_w0, log_w1 = sub.log_density(nodes), sub.log_density(nodes + 0.5 * h)
        gap_upper = np.exp(log_w1 - np.roll(log_w0, -1))
        k_upper = (gap_upper / h).astype(complex)
        k_upper[-1] = lam * gap_upper[-1] / h
        out.append((lam, (-np.exp(log_w1 - log_w0) / h).astype(complex), k_upper))
    return out


def _reference_sweep(model, n_grid, t_values):
    """``assemble_k``'s KSweep stacked from ``_reference_k``, one row per T."""
    per_t = [_reference_k(model, t_param, n_grid) for t_param in t_values]
    h = model.length / n_grid
    nodes = np.arange(n_grid) * h
    channels = tuple((rows[0][0], np.array([r[1] for r in rows]), np.array([r[2] for r in rows]))
                     for rows in zip(*per_t))
    return KSweep(n_grid=n_grid, nodes=nodes, mids=nodes + 0.5 * h, channels=channels)


def _outcome(fn):
    """repr of fn's value, exact for floats, or its error's type and message."""
    try:
        return repr(fn())
    except BitorsionError as exc:
        return f"{type(exc).__name__}: {exc}"


_SWEEP_HOLONOMIES = {
    "real": 2.0, "complex": 0.5 + 0.8j, "unitary": np.exp(0.7j), "negative": -2.0,
    "rank_two": _ROTATION @ np.diag([2.0, 0.5 + 0.8j]) @ np.linalg.inv(_ROTATION),
}
_SWEEP_T = (0.0, 0.5, 4.0, 10.0, 40.0)


def _sweep_models(holonomy):
    """phi = 0 and 0.3 sin theta, one to three wells, L = 2 pi and 3."""
    return [make_circle_model(holonomy, length, phi, ("cos", wells))
            for phi in (("zero", 0.0), ("sin", 0.3)) for wells in (1, 2, 3)
            for length in (TWO_PI, 3.0)]


class TestAssembleK:
    """``assemble_k`` forms every channel's K at every T of a sweep from one
    evaluation of phi and f. Each row is the per-T assembly's K byte for
    byte, and the routines that read it give the values they give on the
    per-T K. The seam entry is a scalar product per row: numpy's complex
    array multiply rounds differently, which these rows see."""

    @pytest.mark.parametrize("n_grid", [16, 64, 65, 512])
    @pytest.mark.parametrize("holonomy", list(_SWEEP_HOLONOMIES.values()),
                             ids=list(_SWEEP_HOLONOMIES))
    def test_rows_are_the_per_t_k(self, holonomy, n_grid):
        models = _sweep_models(holonomy)
        models.append(witten_deform(models[-1], 3.0))  # a sweep from a deformed model
        for model in models:
            sweep = assemble_k(model, n_grid, _SWEEP_T)
            assert sweep.n_grid == n_grid and len(sweep.channels) == model.rank
            for i, t_param in enumerate(_SWEEP_T):
                ref = _reference_k(model, t_param, n_grid)
                built = build_discrete(witten_deform(model, t_param), n_grid).channels
                for (lam, k_diag, k_upper), (ref_lam, ref_diag, ref_upper), ch in zip(
                        sweep.channels, ref, built):
                    assert lam == ref_lam == ch.lam
                    assert k_diag[i].tobytes() == ref_diag.tobytes() == ch.k_diag.tobytes()
                    assert k_upper[i].tobytes() == ref_upper.tobytes() == ch.k_upper.tobytes()

    @pytest.mark.parametrize("n_grid", [16, 64, 65, 512])
    @pytest.mark.parametrize("holonomy", list(_SWEEP_HOLONOMIES.values()),
                             ids=list(_SWEEP_HOLONOMIES))
    def test_readers_match_the_per_t_k(self, monkeypatch, holonomy, n_grid):
        """``band_sweep``, ``theorem33_experiment`` and
        ``conjugation_isospectral_check`` return, value for value and refusal
        for refusal, what they return on a sweep stacked from per-T K."""
        models = _sweep_models(holonomy)
        calls = [
            *(lambda m=m: list(band_sweep(m, _SWEEP_T, n_grid)) for m in models),
            *(lambda m=m: theorem33_experiment(m, (4.0, 10.0, 20.0), n_grid) for m in models),
            *(lambda m=m, t=t: conjugation_isospectral_check(m, t, n_grid)
              for m in models for t in (0.0, 5.0, 10.0)),
        ]
        got = [_outcome(fn) for fn in calls]
        monkeypatch.setattr(spectral, "assemble_k", _reference_sweep)
        assert got == [_outcome(fn) for fn in calls]

    def test_sweep_needs_a_potential(self):
        model = CircleModel(2.0)
        assert assemble_k(model, 16, (0.0,)).operators(0).channels[0].k_diag.shape == (16,)
        with pytest.raises(DimensionError):
            assemble_k(model, 16, (0.0, 1.0))
        with pytest.raises(GridError):
            assemble_k(make_circle_model(2.0, f=("cos", 1)), 4, (1.0,))


class TestCriticalPointScans:
    """The potential's critical points are scanned for Morse data only, once
    per potential object: no density, operator or determinant reads them."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """One entry per critical-point scan."""
        calls = []
        scan = circle_module._critical_points
        monkeypatch.setattr(circle_module, "_critical_points",
                            lambda *args: calls.append(1) or scan(*args))
        return calls

    def test_operators_scan_nothing(self, calls):
        model = make_circle_model(2.0, phi=("sin", 0.3), f=("cos", 2))
        build_discrete(model, 64)
        build_discrete(witten_deform(model, 10.0), 64)
        gelfand_yaglom_det(model)
        assert calls == []

    def test_deformations_scan_nothing(self, calls):
        model = make_circle_model(2.0, phi=("sin", 0.3), f=("cos", 1))
        for t_param in (4.0, 8.0, 12.0):
            small_spectrum_dims(model, t_param, 64)
        conjugation_isospectral_check(model, 5.0, 64)
        conjugation_isospectral_check(model, 10.0, 64)
        assert calls == []

    @pytest.mark.parametrize("method", ["gy", "discrete"])
    def test_torsion_scans_nothing(self, calls, method):
        model = make_circle_model(np.diag([2.0, 3.0]), phi=("sin", 0.3), f=("cos", 1))
        rs_torsion(model, method=method)
        assert calls == []

    def test_comparison_scans_once(self, calls):
        """bz_compare's Milnor side, on both channels of a rank-2 model, shares
        one scan."""
        model = make_circle_model(np.diag([2.0, 3.0]), f=("cos", 1))
        assert abs(bz_compare(model, method="discrete") - 1.0) < 1e-10
        assert len(calls) == 1


def _critical_points_scalar(pot, length):
    """The scalar scan-and-bisect loop, the reference for count and indices."""
    n_scan = 4096
    xs = np.linspace(0.0, length, n_scan, endpoint=False)
    der = pot.derivative(xs, length)
    crits = []
    for i in range(n_scan):
        a, b = xs[i], xs[i + 1] if i + 1 < n_scan else length
        fa, fb = der[i], der[(i + 1) % n_scan]
        if fa == 0.0:
            crits.append(a)
            continue
        if fa * fb < 0:
            lo, hi, flo = a, b, fa
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                fm = pot.derivative(mid, length)
                if flo * fm <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            crits.append(0.5 * (lo + hi))
    return sorted(
        (float(x % length), 0 if pot.second_derivative(x, length) > 0 else 1) for x in crits
    )


def _oracle_gap(pot, length, x):
    """Distance from x to the zero of f' next to it, found by 50-digit
    ``mpmath.findroot`` on f' written from the coefficients of ``pot``."""
    with mp.workdps(50):
        big_l = mp.mpf(length)

        def der(t):
            theta, scale = 2 * mp.pi * t / big_l, 2 * mp.pi / big_l
            return (sum(-mp.mpf(c) * k * scale * mp.sin(k * theta) for k, c in pot.cos_coeffs)
                    + sum(mp.mpf(c) * k * scale * mp.cos(k * theta) for k, c in pot.sin_coeffs))

        return float(abs(mp.findroot(der, mp.mpf(x)) - mp.mpf(x)))


def _assert_matches_oracles(pot, length, got):
    """Count and indices of the scalar bisection; positions within two float
    spacings of L of the true zeros."""
    assert [i for _, i in got] == [i for _, i in _critical_points_scalar(pot, length)]
    for x, _ in got:
        assert _oracle_gap(pot, length, x) <= 2 * np.spacing(length)


class TestCriticalPoints:
    @pytest.mark.parametrize("pot", [
        TrigPoly.cos(1.0, 1), TrigPoly.cos(1.0, 2), TrigPoly.cos(0.7, 3),
        TrigPoly(cos_coeffs=((1, 1.0),), sin_coeffs=((2, 0.3),)),
        TrigPoly(const=0.5, cos_coeffs=((2, 0.4),), sin_coeffs=((1, -1.0), (3, 0.2))),
    ], ids=["one_well", "two_wells", "three_wells", "asymmetric", "mixed"])
    def test_model_scales_the_potential_scan(self, pot):
        """A model's critical points are its potential's one scan in theta,
        times L / 2 pi: bit for bit the scan at L = 2 pi, and within one float
        spacing of L of a scan at L itself, with the same indices."""
        scan = CircleModel(2.0, potential=pot).critical_points()
        assert scan == tuple(_critical_points(pot, TWO_PI))
        for length in (1.0, 3.0, 10.0, 100.0):
            got = CircleModel(2.0, length=length, potential=pot).critical_points()
            want = _critical_points(pot, length)
            assert [i for _, i in got] == [i for _, i in want]
            assert max(abs(g - w) for (g, _), (w, _) in zip(got, want)) <= np.spacing(length)

    @pytest.mark.parametrize("pot", [
        TrigPoly.cos(1.0, 1), TrigPoly.cos(1.0, 2), TrigPoly.cos(0.7, 3),
        TrigPoly(cos_coeffs=((1, 1.0),), sin_coeffs=((2, 0.3),)),
    ], ids=["one_well", "two_wells", "three_wells", "asymmetric"])
    @pytest.mark.parametrize("length", [TWO_PI, 3.7])
    def test_matches_scalar_bisection(self, pot, length):
        """The scalar loop's count and indices, and positions at the true zeros."""
        _assert_matches_oracles(pot, length, _critical_points(pot, length))

    @pytest.mark.parametrize("wells", range(1, 6))
    def test_bisection_stops_at_fixed_point(self, wells, monkeypatch):
        """The Newton polish stops once it moves no point, at most six
        evaluations of f' after the scan."""
        pot = TrigPoly.cos(1.0, wells)
        calls = []
        derivative = TrigPoly.derivative
        monkeypatch.setattr(TrigPoly, "derivative",
                            lambda self, x, length=TWO_PI: calls.append(1)
                            or derivative(self, x, length))
        got = _critical_points(pot, TWO_PI)
        assert len(calls) <= 1 + 6  # the scan, then the Newton steps
        monkeypatch.undo()
        _assert_matches_oracles(pot, TWO_PI, got)

    @pytest.mark.parametrize("shift", [0.0, 0.3], ids=["on_scan_point", "between"])
    def test_degenerate_zero_refused(self, shift):
        """f = cos u + c cos 2u, u = theta - shift: f' = -sin u (1 + 4c cos u).
        At c = 1/4 its zero at u = pi is cubic and is refused, whether the scan
        lands on it or Newton, converging only linearly, has to find it. At
        c = 0.2499999 it is simple, f'' = 4e-7 there, and is kept with the
        bisection's indices."""
        def pot(c):
            return TrigPoly(
                cos_coeffs=((1, np.cos(shift)), (2, c * np.cos(2 * shift))),
                sin_coeffs=((1, np.sin(shift)), (2, c * np.sin(2 * shift))) if shift else ())
        with pytest.raises(DimensionError, match="degenerate critical point"):
            _critical_points(pot(0.25), TWO_PI)
        got = _critical_points(pot(0.2499999), TWO_PI)
        assert got[1][0] == pytest.approx(np.pi + shift, abs=1e-8)
        assert [i for _, i in got] == [i for _, i in _critical_points_scalar(pot(0.2499999), TWO_PI)]
