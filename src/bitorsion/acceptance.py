"""The acceptance suite: every comparison theorem as an executable criterion.

Each criterion returns an AcceptanceResult with the measured worst deviation
and its gate; ``run_all`` powers both the command line (``verify all``) and
the pytest acceptance module, so the two surfaces cannot drift apart.
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from .circle import CircleModel, TrigPoly, make_circle_model
from .complexes import (
    anomaly_ratio,
    cohomology,
    random_bilinear_structure,
    random_graded_complex,
    torsion_form,
    transform_structure,
)
from .config import DEFAULT_TOL
from .morse import CriticalForms, make_circle_morse, milnor_anomaly_check, milnor_torsion
from .spectral import (
    band_sweep,
    bz_compare,
    conjugation_isospectral_check,
    rs_torsion,
    small_spectrum_dims,
    theorem33_experiment,
)
from .turaev import (
    EulerStructure,
    Representation,
    euler_class_circle,
    fox_alexander,
    knot_from_braid,
    turaev_torsion,
)

__all__ = ["AcceptanceResult", "CRITERIA", "run_all"]


@dataclass(frozen=True)
class AcceptanceResult:
    number: int
    name: str
    passed: bool
    worst: float
    tolerance: float
    seconds: float
    detail: str = ""


def _result(number, name, worst, tolerance, t0, detail=""):
    return AcceptanceResult(
        number=number, name=name, passed=bool(worst <= tolerance),
        worst=float(worst), tolerance=float(tolerance),
        seconds=time.perf_counter() - t0, detail=detail,
    )


def criterion_1_finite_anomaly(seed=2024):
    """100 random complexes: torsion ratio equals prod det(A_i)^{2(-1)^i}."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        c = random_graded_complex(rng, max_total=12)
        b = random_bilinear_structure(rng, c.dims)
        # one draw holds each degree's real then imaginary part, in degree order
        draw = rng.standard_normal(sum(2 * d * d for d in c.dims))
        autos, start = [], 0
        for d in c.dims:
            re, im = draw[start:start + 2 * d * d].reshape(2, d, d)
            autos.append(re + 1j * im + 2.0 * np.eye(d))
            start += 2 * d * d
        h = cohomology(c)
        base = torsion_form(c, b, h)
        moved = torsion_form(c, transform_structure(b, autos), h)
        predicted = anomaly_ratio(c, autos)
        worst = max(worst, abs(moved / base - predicted) / abs(predicted))
    return _result(1, "finite-complex anomaly law", worst, 1e-9, t0)


def _wedge_oracle_torsion(c, b, h):
    """Independent torsion evaluation: explicit top-exterior-power arithmetic.

    Builds the determinant-line generator with lifts chosen by Gauss-Jordan
    row reduction, one per differential, and kernels from numpy's SVD cut at
    rcond * s_0 with rcond = 1e-10, the null space ``scipy.linalg.null_space``
    returns; it pairs top wedges through the full Gram pairing matrix, entry
    by entry, and calls no production helper (``complexes._split``,
    ``cohomology``, ``nondegenerate_det``).
    """

    def kernel(d):
        # the right-singular vectors past the rank cut
        if not d.size:
            return np.eye(d.shape[1], dtype=complex)
        _, s, vh = np.linalg.svd(d)
        return vh[np.count_nonzero(s > s[0] * 1e-10):].conj().T

    def rref_lift(d):
        # pivot columns by Gauss-Jordan elimination: a lift basis transverse to ker
        m, n = d.shape
        if d.size == 0:
            return np.zeros((n, 0), dtype=complex)
        a = d.copy()
        floor = 1e-10 * max(np.max(np.abs(d)), 1e-300)
        piv_cols = []
        r = 0
        for j in range(n):
            k = int(np.argmax(np.abs(a[r:, j]))) + r
            if abs(a[k, j]) < floor:
                continue
            a[[r, k]] = a[[k, r]]
            a[r] = a[r] / a[r, j]
            others = np.arange(m) != r
            a[others] -= np.outer(a[others, j], a[r])
            piv_cols.append(j)
            r += 1
            if r == m:
                break
        return np.eye(n, dtype=complex)[:, piv_cols]

    lifts = [rref_lift(c.differential(i)) for i in range(c.degree_count)]
    value = 1.0 + 0.0j
    for i in range(c.degree_count):
        n_i = c.dims[i]
        if n_i == 0:
            continue
        boundary = (
            c.differential(i - 1) @ lifts[i - 1]
            if i > 0 and lifts[i - 1].shape[1]
            else np.zeros((n_i, 0), dtype=complex)
        )
        ker = kernel(c.differential(i))
        reps = ker @ (ker.conj().T @ h.bases[i]) if h.bases[i].shape[1] else h.bases[i]
        v = np.hstack([boundary, reps, lifts[i]])
        # wedge pairing: b_Lambda(v_1 ^ ... ^ v_n, u_1 ^ ... ^ u_n) = det(v_a^T G u_b),
        # each entry (v_a^T G) v_b with the row v_a^T G made once per a
        rows = [v[:, a] @ b.grams[i] for a in range(n_i)]
        pairing = np.array([[row @ v[:, bb] for bb in range(n_i)] for row in rows])
        det = np.linalg.det(pairing)
        value = value * det if i % 2 == 0 else value / det
    return value


def criterion_2_bruteforce_oracle(seed=55):
    """All complex shapes of total dim <= 6 vs the exterior-power oracle."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)

    def compositions(total):
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in compositions(total - first):
                yield (first,) + rest

    worst = 0.0
    count = 0
    for total in range(1, 7):
        for dims in compositions(total):
            c = random_graded_complex(rng, dims=dims)
            b = random_bilinear_structure(rng, c.dims)
            h = cohomology(c)
            main = torsion_form(c, b, h)
            oracle = _wedge_oracle_torsion(c, b, h)
            worst = max(worst, abs(main - oracle) / max(abs(oracle), 1e-300))
            count += 1
    return _result(2, "brute-force exterior-power oracle", worst, 1e-10, t0,
                   detail=f"{count} complexes")


def criterion_3_milnor_anomaly(seed=77):
    """50 Morse systems with random form changes follow the anomaly law."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        rank = int(rng.integers(1, 3))
        while True:
            hol = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
            hol += 2.0 * np.eye(rank)
            if abs(np.linalg.det(hol - np.eye(rank))) > 0.1 and abs(np.linalg.det(hol)) > 0.1:
                break
        ms = make_circle_morse(n, hol, seam_arc=int(rng.integers(0, 2 * n)))
        # both form sets in one draw: per set and point, a real then an imaginary part
        draw = rng.standard_normal((2, len(ms.points), 2, rank, rank))
        a = draw[:, :, 0] + 1j * draw[:, :, 1]
        forms = a + np.swapaxes(a, -2, -1) + 2.0 * np.eye(rank)
        labels = [p.label for p in ms.points]
        f0, f1 = (CriticalForms(dict(zip(labels, f))) for f in forms)
        tor0 = milnor_torsion(ms, f0)
        tor1 = milnor_torsion(ms, f1)
        predicted = milnor_anomaly_check(ms, f0, f1)
        worst = max(worst, abs(tor1 / tor0 - predicted) / abs(predicted))
    return _result(3, "Milnor anomaly law", worst, 1e-9, t0)


def criterion_4_turaev_independence(seed=99):
    """Choice-independence at fixed Euler class; N=1 vs N=2 agreement."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    lam = 3.0
    rep = Representation({"g": np.array([[lam]])}, 1)
    ms1 = make_circle_morse(1, lam)
    base = turaev_torsion(ms1, rep, EulerStructure("m0", {}), [[1.0]])
    for _ in range(10):
        shift = int(rng.integers(-2, 3))
        b0 = complex(rng.standard_normal() + 1j * rng.standard_normal() + 3.0)
        # global winding shifts and compensating pair bumps fix the class
        bump = int(rng.integers(0, 3))
        e = EulerStructure("m0", {"m0": shift + bump, "M0": shift + bump})
        assert euler_class_circle(ms1, e) == 0
        val = turaev_torsion(ms1, rep, e, [[b0]])
        worst = max(worst, abs(val - base) / abs(base))
    ms2 = make_circle_morse(2, lam)
    e2 = EulerStructure("m0", {})
    assert euler_class_circle(ms2, e2) == 0
    val2 = turaev_torsion(ms2, rep, e2, [[1.0]])
    worst = max(worst, abs(val2 - base) / abs(base))
    return _result(4, "Turaev choice-independence", worst, 1e-12, t0)


def criterion_5_alexander():
    """Pinned polynomials plus Delta(1) = +-1 and palindromicity on a corpus."""
    t0 = time.perf_counter()
    from .turaev import KnotPresentation

    failures = []
    trefoil = KnotPresentation(("a", "b", "c"), ("a b A C", "b c B A"))
    if str(fox_alexander(trefoil)) != "t^2 - t + 1":
        failures.append("trefoil")
    unknot = KnotPresentation(("a",), ())
    if str(fox_alexander(unknot)) != "1":
        failures.append("unknot")
    fig8 = knot_from_braid([1, -2, 1, -2], 3)
    if str(fox_alexander(fig8)) != "t^2 - 3*t + 1":
        failures.append("figure-eight")

    corpus = {
        "unknot": unknot,
        "trefoil": trefoil,
        "figure-eight": fig8,
        "cinquefoil": knot_from_braid([1] * 5, 2),
        "5_2": knot_from_braid([1, 1, 1, 2, -1, 2], 3),
        "6_2": knot_from_braid([1, 1, 1, -2, 1, -2], 3),
        "6_3": knot_from_braid([1, 1, -2, 1, -2, -2], 3),
        "7_1": knot_from_braid([1] * 7, 2),
        "granny": knot_from_braid([1, 1, 1, 2, 2, 2], 3),
        "8_19": knot_from_braid([1, 1, 1, 2, 1, 1, 1, 2], 3),
    }
    for name, pres in corpus.items():
        delta = fox_alexander(pres)
        if delta(1) not in (1, -1):
            failures.append(f"{name}: Delta(1) = {delta(1)}")
        if delta.normalized() != delta.reversed_var().normalized():
            failures.append(f"{name}: not palindromic")
    worst = float(len(failures))
    return _result(5, "Alexander polynomials", worst, 0.0, t0, detail="; ".join(failures))


def _seeded_lambdas(seed, count=20):
    rng = np.random.default_rng(seed)
    lams = []
    while len(lams) < count:
        if len(lams) % 2 == 0:
            lam = np.exp(1j * rng.uniform(0, 2 * np.pi))  # unitary
        else:
            lam = rng.uniform(0.4, 2.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        if abs(1 - lam) > 0.1:
            lams.append(complex(lam))
    return lams


def criterion_6_main_comparison(seed=123):
    """bz_compare = 1 (exact method) for 20 seeded holonomies.

    The calibration anchor at holonomy 2 runs first: it freezes the frozen
    determinant and transport conventions (any drift shows up here before
    the sweep). Every model shares its potential, and one critical-point scan.
    """
    t0 = time.perf_counter()
    anchor = make_circle_model(2.0, f=("cos", 1))
    worst = abs(bz_compare(anchor) - 1.0)
    for lam in _seeded_lambdas(seed):
        worst = max(worst, abs(bz_compare(replace(anchor, holonomy=lam)) - 1.0))
    return _result(6, "main comparison (analytic = combinatorial)", worst, 1e-8, t0)


def criterion_7_cut_independence():
    """rs_torsion equal across cuts 0.5, 2, 5 (exact method)."""
    t0 = time.perf_counter()
    model = make_circle_model(2.0, f=("cos", 1))
    vals = [rs_torsion(model, cut=a, method="exact") for a in (0.5, 2.0, 5.0)]
    ref = vals[0]
    worst = max(abs(v - ref) / abs(ref) for v in vals)
    return _result(7, "spectral-cut independence", worst, 1e-10, t0)


def criterion_8_anomaly_invariance():
    """The discrete rs on a wavy density equals the closed form on phi = 0: a
    mean-zero and a mean-nonzero density, and a rotated rank-two holonomy at L = 3."""
    t0 = time.perf_counter()
    rotation = np.array([[2.0, 1.0], [1.0, 3.0]])
    wavy = TrigPoly(0.2, ((2, 0.25),), ((3, -0.15),))
    cases = (
        CircleModel(2.0, phi=TrigPoly.sin(0.3)),
        CircleModel(0.5 + 0.8j, phi=wavy),
        CircleModel(rotation @ np.diag([2.0, 0.5 + 0.8j]) @ np.linalg.inv(rotation), 3.0, wavy),
    )
    worst = 0.0
    for model in cases:
        ref = rs_torsion(replace(model, phi=TrigPoly.zero()), method="exact")
        worst = max(worst, abs(rs_torsion(model, method="discrete") - ref) / abs(ref))
    return _result(8, "odd-dim anomaly invariance", worst, 1e-9, t0)


def criterion_9_witten_clustering():
    """Small-band counts, linear large-band growth, and band decay: mu_1 from
    ``band_sweep`` (an eigensolver reads rounding at T >= 10), Newton ratios gated."""
    t0 = time.perf_counter()
    failures = []
    m1 = make_circle_model(2.0, f=("cos", 1))
    m2 = make_circle_model(2.0, f=("cos", 2))
    ts = np.array([5.0, 10.0, 20.0])
    reports = [small_spectrum_dims(m1, t, 512) for t in ts]
    if reports[1].counts != (1, 1):
        failures.append(f"counts {reports[1].counts} != (1,1) at T=10")
    r12 = small_spectrum_dims(m2, 12.0, 512)
    if r12.counts != (2, 2):
        failures.append(f"counts {r12.counts} != (2,2) for two wells at T=12")
    readings = [reading for reading, in band_sweep(m1, ts, 512)]
    band = np.exp([-r.log_torsion for r in readings])  # a real channel: the logs are real
    if not np.all(np.diff(band) < 0):
        failures.append(f"band eigenvalue {band} did not decrease over T=5,10,20")
    if not all(r.resolved for r in readings):
        failures.append(f"Newton gap ratio {max(abs(r.newton) for r in readings):.1e} or "
                        "noise floor above the band torsion gate")
    mins = np.array([r.large_band_min for r in reports])
    slope = np.polyfit(ts, mins, 1)[0]
    r_squared = np.corrcoef(ts, mins)[0, 1] ** 2  # that of the least-squares line
    if not (slope > 0 and r_squared > 0.9):
        failures.append(f"large-band growth slope={slope:.3f} R2={r_squared:.3f}")
    worst = float(len(failures))
    return _result(9, "Witten spectral clustering", worst, 0.0, t0, detail="; ".join(failures))


def criterion_10_conjugation():
    """Relative factor mismatch of the conjugated operators, both (T, N) grids."""
    t0 = time.perf_counter()
    model = make_circle_model(2.0, f=("cos", 1))
    worst = 0.0
    for t_param in (5.0, 10.0):
        for n_grid in (128, 256):
            worst = max(worst, conjugation_isospectral_check(model, t_param, n_grid))
    return _result(10, "conjugation isospectrality", worst, 1e-10, t0)


def criterion_11_thm33_trend():
    """|log scaled ratio| at T=10 below its T=4 value for three representations."""
    t0 = time.perf_counter()
    failures = []
    cases = {
        "lam=2": make_circle_model(2.0, f=("cos", 1)),
        "lam=e^{i pi/5}": make_circle_model(np.exp(1j * np.pi / 5), f=("cos", 1)),
        "diag(2,3)": make_circle_model(np.diag([2.0, 3.0]), f=("cos", 1)),
    }
    detail = []
    for name, model in cases.items():
        rows = theorem33_experiment(model, [4.0, 10.0], 512)
        lo, hi = rows[1].abs_log_ratio, rows[0].abs_log_ratio
        detail.append(f"{name}: |log| {hi:.4f} -> {lo:.4f}")
        if not lo < hi:
            failures.append(name)
    worst = float(len(failures))
    return _result(11, "deformation-limit trend", worst, 0.0, t0, detail="; ".join(detail))


def criterion_12_modulus_one(seed=321):
    """|bz_compare| = 1 for unitary and non-unitary holonomies, on one cos theta."""
    t0 = time.perf_counter()
    worst = 0.0
    model = make_circle_model(2.0, f=("cos", 1))
    for lam in _seeded_lambdas(seed, count=8):
        worst = max(worst, abs(abs(bz_compare(replace(model, holonomy=lam))) - 1.0))
    return _result(12, "modulus-one comparison", worst, 1e-8, t0)


CRITERIA = (
    criterion_1_finite_anomaly,
    criterion_2_bruteforce_oracle,
    criterion_3_milnor_anomaly,
    criterion_4_turaev_independence,
    criterion_5_alexander,
    criterion_6_main_comparison,
    criterion_7_cut_independence,
    criterion_8_anomaly_invariance,
    criterion_9_witten_clustering,
    criterion_10_conjugation,
    criterion_11_thm33_trend,
    criterion_12_modulus_one,
)


def run_all(report=print):
    """Run every criterion; returns the list of results (all must pass)."""
    import scipy.sparse.linalg  # noqa: F401  loaded before the timers start, not in criterion 9

    results = []
    for crit in CRITERIA:
        res = crit()
        results.append(res)
        if report is not None:
            status = "pass" if res.passed else "FAIL"
            report(
                f"[{status}] {res.number:2d} {res.name:40s} "
                f"worst={res.worst:.3e} tol={res.tolerance:.1e} ({res.seconds:.2f}s)"
                + (f"  {res.detail}" if res.detail else "")
            )
    return results
