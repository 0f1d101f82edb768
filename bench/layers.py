"""Per-layer times of the circle kernel at several grid sizes, as JSON.

    python3 bench/layers.py --sizes 512 4096 65536 [--repeats 5] [--src DIR]

The model is the one-well cos potential at holonomy 2, deformed to T = 10,
with threshold 1. Each layer's time is the best of ``--repeats`` calls:
assembly (``build_discrete``), the small band (``ChannelOperators.small_band``),
``spectral_cut``, ``small_spectrum_dims``, the full spectrum
(``ChannelOperators.eigenvalues``) and ``ChannelOperators.log_det``. The
``complex`` rows time ``small_spectrum_dims`` and
``conjugation_isospectral_check`` at holonomy 0.5 + 0.8i, the benchmark's
complex regime, at N = 64, 128 and 256, where the full spectrum is a dense
complex eigensolve. Outside the size sweep, ``rs_torsion_discrete_s`` times
one discrete ``rs_torsion`` call on acceptance criterion 8's model
(phi = 0.3 sin, cut 0.5), whose grid is fixed. The ``band`` rows time the
band torsion of the same model, and of its copy at holonomy 0.5 + 0.8i, at
every size and at T = 10, 40, 200 and 640:
``circle.log_band_torsions`` against ``spectral_cut``; a path that refuses
a case gets its error's name. The ``crossover`` rows time ``spectral_cut``
at T = 10 on real one-well, complex one-well and complex two-well channels
at N = 32 to 128, best of 25 interleaved calls on each branch of
``small_band``: the dense spectrum (``circle.DENSE_BAND_MAX_N`` patched to
N) and ARPACK (patched to 0). Their ``dense_band_max_n`` is the largest N
at which the dense branch is faster on all three, the value
``DENSE_BAND_MAX_N`` takes from them; a tree without the constant gets no
rows. The ``thm33_sweep`` rows time ``theorem33_experiment`` over five T
(4, 10, 40, 160, 640) at N = 64, 512 and 4096, on one well at holonomy 2
(rank 1 real), 0.5 + 0.8i (rank 1 complex) and a non-diagonal rank-2
holonomy with eigenvalues 2 and 0.5 + 0.8i. The ``rs_closed`` rows time
one closed-form ``rs_torsion`` call (method "exact") at cuts 0, 0.5, 2 and
5 on the one-well model at holonomy 2 and at that rank-2 holonomy, best of
25: per-call overhead, since the value is a product over the holonomy's
eigenvalues. The ``crit`` rows time the
critical-point search ``circle._critical_points`` of cos(k theta), k = 1 to 5
wells, at L = 2 pi. ``--src`` is the ``src``
directory of the tree to time (default: this checkout); a tree whose
``small_band`` and ``eigenvalues`` still take a degree is timed at degree 0.
Run with ``OPENBLAS_NUM_THREADS=1`` to match the benchmark's single BLAS
thread.
"""

import argparse
import inspect
import json
import math
import os
import sys
import time

import numpy as np

T_PARAM = 10.0
THRESHOLD = 1.0
BAND_T = (10.0, 40.0, 200.0, 640.0)
COMPLEX_HOLONOMY = 0.5 + 0.8j
SWEEP_T = (4.0, 10.0, 40.0, 160.0, 640.0)
SWEEP_SIZES = (64, 512, 4096)
COMPLEX_SIZES = (64, 128, 256)
CROSSOVER_SIZES = (32, 48, 64, 80, 96, 128)
CROSSOVER_REPEATS = 25
CRIT_WELLS = range(1, 6)
RS_CUTS = (0.0, 0.5, 2.0, 5.0)
RS_REPEATS = 25
TWO_PI = 2.0 * math.pi


def best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--sizes", type=int, nargs="+", default=[512, 4096, 65536])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--src", default=os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                                      "..", "src"))
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from bitorsion import build_discrete, circle, make_circle_model, rs_torsion, witten_deform
    from bitorsion.circle import ChannelOperators, TrigPoly, _critical_points, log_band_torsions
    from bitorsion.errors import BitorsionError
    from bitorsion.spectral import (
        conjugation_isospectral_check,
        small_spectrum_dims,
        spectral_cut,
        theorem33_experiment,
    )

    model = make_circle_model(2.0, f=("cos", 1))
    deformed = witten_deform(model, T_PARAM)
    bound = 1.1 * THRESHOLD  # the threshold and its 10% margin
    degree = (0,) if "degree" in inspect.signature(ChannelOperators.eigenvalues).parameters else ()

    small_spectrum_dims(model, T_PARAM, 64)  # loads every module before timing
    rows = []
    for n in args.sizes:
        ch = build_discrete(deformed, n).channels[0]
        rows.append({
            "N": n,
            "build_discrete_s": best_of(args.repeats, lambda: build_discrete(deformed, n)),
            "small_band_s": best_of(args.repeats, lambda: ch.small_band(*degree, bound)),
            "spectral_cut_s": best_of(args.repeats, lambda: spectral_cut(ch, THRESHOLD)),
            "small_spectrum_dims_s": best_of(args.repeats, lambda: small_spectrum_dims(
                model, T_PARAM, n, threshold=THRESHOLD)),
            "eigenvalues_s": best_of(args.repeats, lambda: ch.eigenvalues(*degree)),
            "log_det_s": best_of(args.repeats, ch.log_det),
        })

    def timed(fn):
        try:
            return best_of(args.repeats, fn)
        except BitorsionError as exc:
            return type(exc).__name__

    complex_model = make_circle_model(COMPLEX_HOLONOMY, f=("cos", 1))
    band_rows = []
    for holonomy, band_model in ((2.0, model), (COMPLEX_HOLONOMY, complex_model)):
        for t_param in BAND_T:
            for n in args.sizes:
                ch = build_discrete(witten_deform(band_model, t_param), n).channels[0]
                band_rows.append({
                    "holonomy": str(holonomy), "N": n, "T": t_param,
                    "log_band_torsion_s": timed(
                        lambda: log_band_torsions(ch.k_diag, ch.k_upper, ch.lam, 1)),
                    "spectral_cut_s": timed(lambda: spectral_cut(ch, THRESHOLD)),
                })
    rotation = np.array([[2.0, 1.0], [1.0, 3.0]])
    sweep_models = {
        "rank 1 real": model,
        "rank 1 complex": complex_model,
        "rank 2": make_circle_model(rotation @ np.diag([2.0, COMPLEX_HOLONOMY])
                                    @ np.linalg.inv(rotation), f=("cos", 1)),
    }
    sweep_rows = [{"model": name, "N": n, "theorem33_experiment_s": timed(
        lambda: theorem33_experiment(sweep_model, SWEEP_T, n))}
        for name, sweep_model in sweep_models.items() for n in SWEEP_SIZES]
    rs_rows = [{"model": name, "cut": cut, "rs_torsion_exact_s": best_of(
        RS_REPEATS, lambda: rs_torsion(sweep_models[name], cut=cut))}
        for name in ("rank 1 real", "rank 2") for cut in RS_CUTS]
    complex_rows = [{
        "N": n,
        "small_spectrum_dims_s": best_of(args.repeats, lambda: small_spectrum_dims(
            complex_model, T_PARAM, n, threshold=THRESHOLD)),
        "conjugation_isospectral_check_s": best_of(args.repeats, lambda: (
            conjugation_isospectral_check(complex_model, T_PARAM, n))),
    } for n in COMPLEX_SIZES]
    crossover_models = {
        "real 1-well": model,
        "complex 1-well": complex_model,
        "complex 2-well": make_circle_model(COMPLEX_HOLONOMY, f=("cos", 2)),
    }
    crossover_rows, dense_band_max_n = [], None
    if hasattr(circle, "DENSE_BAND_MAX_N"):
        committed = circle.DENSE_BAND_MAX_N
        for n in CROSSOVER_SIZES:
            row = {"N": n}
            for name, crossover_model in crossover_models.items():
                ch = build_discrete(witten_deform(crossover_model, T_PARAM), n).channels[0]
                best = {"dense": float("inf"), "arpack": float("inf")}
                for _ in range(CROSSOVER_REPEATS):  # interleaved: both see one host state
                    for branch, limit in (("dense", n), ("arpack", 0)):
                        circle.DENSE_BAND_MAX_N = limit
                        best[branch] = min(best[branch],
                                           best_of(1, lambda: spectral_cut(ch, THRESHOLD)))
                row.update({f"{name} {branch}_s": t for branch, t in best.items()})
            circle.DENSE_BAND_MAX_N = committed
            crossover_rows.append(row)
        faster = [row["N"] for row in crossover_rows if all(
            row[f"{name} dense_s"] < row[f"{name} arpack_s"] for name in crossover_models)]
        dense_band_max_n = max(faster, default=0)
    crit_rows = [{"wells": k, "critical_points_s": best_of(args.repeats, lambda: (
        _critical_points(TrigPoly.cos(1.0, k), TWO_PI)))} for k in CRIT_WELLS]
    wavy = make_circle_model(2.0, phi=("sin", 0.3), f=("cos", 1))
    rs_discrete_s = best_of(args.repeats, lambda: rs_torsion(wavy, cut=0.5, method="discrete"))
    json.dump({"model": {"holonomy": 2.0, "wells": 1, "T": T_PARAM, "threshold": THRESHOLD},
               "repeats": args.repeats, "rs_torsion_discrete_s": rs_discrete_s, "rows": rows,
               "band": band_rows,
               "thm33_sweep": {"T": SWEEP_T, "rows": sweep_rows},
               "rs_closed": {"repeats": RS_REPEATS, "rows": rs_rows},
               "complex": {"holonomy": str(COMPLEX_HOLONOMY), "T": T_PARAM,
                           "rows": complex_rows},
               "crossover": {"T": T_PARAM, "repeats": CROSSOVER_REPEATS,
                             "dense_band_max_n": dense_band_max_n, "rows": crossover_rows},
               "crit": {"length": TWO_PI, "rows": crit_rows}},
              sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
