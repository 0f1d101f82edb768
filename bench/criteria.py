"""Per-phase times of acceptance criteria 1-4, the finite-complex criteria, and
6, 7, 8, 9, 11 and 12, the analytic torsion, Witten and comparison criteria,
as JSON.

    python3 bench/criteria.py [--repeats 15] [--src DIR]

Each repeat draws every criterion's inputs afresh from the criterion's own
seed and then times each phase on them, so that no phase reads a cache an
earlier repeat filled (the SVD splits of a complex, a Morse system's
cochain complex). A phase's time is the best over the repeats, of the
whole loop over the criterion's inputs:

- criterion 1 (seed 2024, 100 complexes): ``inputs`` (the complex, its
  forms, the automorphisms and the transformed forms), ``cohomology``,
  ``torsion_form`` (the base and the moved torsion), ``anomaly``
  (``anomaly_ratio``);
- criterion 2 (seed 55, the 63 shapes of total dimension <= 6): ``inputs``,
  ``cohomology``, ``torsion_form``, ``oracle``
  (``acceptance._wedge_oracle_torsion``);
- criterion 3 (seed 77, 50 systems): ``inputs`` (holonomy, system and two
  form sets), ``milnor`` (the two ``milnor_torsion`` calls of each system),
  ``anomaly`` (``milnor_anomaly_check``);
- criterion 4 (seed 99): ``turaev`` (the 12 ``turaev_torsion`` calls on
  the one- and two-pair systems);
- criteria 6 (seed 123, 21 models) and 12 (seed 321, 8 models), one well
  each: ``inputs`` (one cos theta model and its ``replace`` per holonomy),
  ``rs_exact`` (``rs_torsion``), ``milnor`` (``milnor_from_model``, with
  the one critical-point scan of the shared potential), the two halves of
  ``bz_compare``;
- criterion 7: ``rs_exact`` (``rs_torsion`` at cuts 0.5, 2 and 5);
- criterion 8: ``inputs`` (the three wavy models and their phi = 0
  copies), ``rs_exact`` (``rs_torsion`` on the copies) and ``rs_discrete``
  (the discrete method on the wavy models);
- criterion 9: ``inputs`` (the one- and two-well models at holonomy 2),
  ``counts`` (the four ``small_spectrum_dims`` calls at N = 512: T = 5, 10
  and 20 on one well, T = 12 on two) and ``band`` (``band_sweep`` at
  T = 5, 10 and 20, N = 512);
- criterion 11: ``inputs`` (the three models), ``milnor``
  (``spectral._acyclic_milnor`` per channel, with each potential's scan)
  and ``band`` (``band_sweep`` at T = 4 and 10, N = 512), the two halves of
  ``theorem33_experiment``.

``total`` is the best time of the criterion function itself. The inputs
are drawn here in one fixed way for every tree; their values equal the
criterion's, whose draws give the same generator stream. ``--src`` is the
``src`` directory of the tree to time (default: this checkout). Run with
``OPENBLAS_NUM_THREADS=1`` to match the benchmark's single BLAS thread.
"""

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import replace

import numpy as np


def compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def clock(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--src", default=os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                                      "..", "src"))
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from bitorsion import acceptance
    from bitorsion.complexes import (
        anomaly_ratio,
        cohomology,
        random_bilinear_structure,
        random_graded_complex,
        torsion_form,
        transform_structure,
    )
    from bitorsion.morse import (
        CriticalForms,
        make_circle_morse,
        milnor_anomaly_check,
        milnor_torsion,
    )
    from bitorsion.circle import CircleModel, TrigPoly, make_circle_model
    from bitorsion.spectral import (
        _acyclic_milnor,
        band_sweep,
        milnor_from_model,
        rs_torsion,
        small_spectrum_dims,
    )
    from bitorsion.turaev import EulerStructure, Representation, turaev_torsion

    def inputs_1():
        rng = np.random.default_rng(2024)
        cases = []
        for _ in range(100):
            c = random_graded_complex(rng, max_total=12)
            b = random_bilinear_structure(rng, c.dims)
            draw = rng.standard_normal(sum(2 * d * d for d in c.dims))
            autos, start = [], 0
            for d in c.dims:
                re, im = draw[start:start + 2 * d * d].reshape(2, d, d)
                autos.append(re + 1j * im + 2.0 * np.eye(d))
                start += 2 * d * d
            cases.append((c, b, transform_structure(b, autos), autos))
        return cases

    def inputs_2():
        rng = np.random.default_rng(55)
        cases = []
        for total in range(1, 7):
            for dims in compositions(total):
                c = random_graded_complex(rng, dims=dims)
                cases.append((c, random_bilinear_structure(rng, c.dims)))
        return cases

    def inputs_3():
        rng = np.random.default_rng(77)
        cases = []
        for _ in range(50):
            n = int(rng.integers(1, 4))
            rank = int(rng.integers(1, 3))
            while True:
                hol = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
                hol += 2.0 * np.eye(rank)
                if abs(np.linalg.det(hol - np.eye(rank))) > 0.1 and abs(np.linalg.det(hol)) > 0.1:
                    break
            ms = make_circle_morse(n, hol, seam_arc=int(rng.integers(0, 2 * n)))
            draw = rng.standard_normal((2, len(ms.points), 2, rank, rank))
            a = draw[:, :, 0] + 1j * draw[:, :, 1]
            forms = a + np.swapaxes(a, -2, -1) + 2.0 * np.eye(rank)
            labels = [p.label for p in ms.points]
            cases.append((ms, *(CriticalForms(dict(zip(labels, f))) for f in forms)))
        return cases

    def inputs_4():
        rng = np.random.default_rng(99)
        calls = [(make_circle_morse(1, 3.0), EulerStructure("m0", {}), [[1.0]])]
        for _ in range(10):
            shift = int(rng.integers(-2, 3))
            b0 = complex(rng.standard_normal() + 1j * rng.standard_normal() + 3.0)
            bump = int(rng.integers(0, 3))
            windings = {"m0": shift + bump, "M0": shift + bump}
            calls.append((calls[0][0], EulerStructure("m0", windings), [[b0]]))
        calls.append((make_circle_morse(2, 3.0), EulerStructure("m0", {}), [[1.0]]))
        return calls

    rep = Representation({"g": np.array([[3.0]])}, 1)

    def phases_1():
        t = {}
        t["inputs"], cases = clock(inputs_1)
        t["cohomology"], hs = clock(lambda: [cohomology(c) for c, *_ in cases])
        t["torsion_form"], _ = clock(lambda: [
            (torsion_form(c, b, h), torsion_form(c, moved, h))
            for (c, b, moved, _), h in zip(cases, hs)])
        t["anomaly"], _ = clock(lambda: [anomaly_ratio(c, autos) for c, _, _, autos in cases])
        return t

    def phases_2():
        t = {}
        t["inputs"], cases = clock(inputs_2)
        t["cohomology"], hs = clock(lambda: [cohomology(c) for c, _ in cases])
        t["torsion_form"], _ = clock(lambda: [
            torsion_form(c, b, h) for (c, b), h in zip(cases, hs)])
        t["oracle"], _ = clock(lambda: [
            acceptance._wedge_oracle_torsion(c, b, h) for (c, b), h in zip(cases, hs)])
        return t

    def phases_3():
        t = {}
        t["inputs"], cases = clock(inputs_3)
        t["milnor"], _ = clock(lambda: [
            (milnor_torsion(ms, f0), milnor_torsion(ms, f1)) for ms, f0, f1 in cases])
        t["anomaly"], _ = clock(lambda: [milnor_anomaly_check(ms, f0, f1) for ms, f0, f1 in cases])
        return t

    def phases_4():
        t = {}
        t["inputs"], calls = clock(inputs_4)
        t["turaev"], _ = clock(lambda: [turaev_torsion(ms, rep, e, b0) for ms, e, b0 in calls])
        return t

    def comparison_phases(anchors, seed, count):
        def phases():
            t = {}
            def inputs():
                base = make_circle_model(2.0, f=("cos", 1))
                return [replace(base, holonomy=lam)
                        for lam in anchors + acceptance._seeded_lambdas(seed, count)]
            t["inputs"], models = clock(inputs)
            t["rs_exact"], _ = clock(lambda: [rs_torsion(m) for m in models])
            t["milnor"], _ = clock(lambda: [milnor_from_model(m) for m in models])
            return t
        return phases

    def phases_7():
        t = {}
        t["inputs"], model = clock(lambda: make_circle_model(2.0, f=("cos", 1)))
        t["rs_exact"], _ = clock(lambda: [rs_torsion(model, cut=a) for a in (0.5, 2.0, 5.0)])
        return t

    def phases_8():
        t = {}
        def inputs():
            rotation = np.array([[2.0, 1.0], [1.0, 3.0]])
            wavy = TrigPoly(0.2, ((2, 0.25),), ((3, -0.15),))
            models = [CircleModel(2.0, phi=TrigPoly.sin(0.3)), CircleModel(0.5 + 0.8j, phi=wavy),
                      CircleModel(rotation @ np.diag([2.0, 0.5 + 0.8j]) @ np.linalg.inv(rotation),
                                  3.0, wavy)]
            return [(m, replace(m, phi=TrigPoly.zero())) for m in models]
        t["inputs"], cases = clock(inputs)
        t["rs_exact"], _ = clock(lambda: [rs_torsion(flat) for _, flat in cases])
        t["rs_discrete"], _ = clock(lambda: [rs_torsion(m, method="discrete") for m, _ in cases])
        return t

    def phases_9():
        t = {}
        t["inputs"], (m1, m2) = clock(lambda: (make_circle_model(2.0, f=("cos", 1)),
                                               make_circle_model(2.0, f=("cos", 2))))
        ts = [5.0, 10.0, 20.0]
        t["counts"], _ = clock(lambda: ([small_spectrum_dims(m1, t_param, 512) for t_param in ts],
                                        small_spectrum_dims(m2, 12.0, 512)))
        t["band"], _ = clock(lambda: list(band_sweep(m1, ts, 512)))
        return t

    def phases_11():
        t = {}
        t["inputs"], models = clock(lambda: [
            make_circle_model(lam, f=("cos", 1))
            for lam in (2.0, np.exp(1j * np.pi / 5), np.diag([2.0, 3.0]))])
        t["milnor"], _ = clock(lambda: [_acyclic_milnor(sub) for m in models
                                        for sub in m.channels()])
        t["band"], _ = clock(lambda: [list(band_sweep(m, [4.0, 10.0], 512)) for m in models])
        return t

    criteria = {
        1: (phases_1, acceptance.criterion_1_finite_anomaly),
        2: (phases_2, acceptance.criterion_2_bruteforce_oracle),
        3: (phases_3, acceptance.criterion_3_milnor_anomaly),
        4: (phases_4, acceptance.criterion_4_turaev_independence),
        6: (comparison_phases([2.0], 123, 20), acceptance.criterion_6_main_comparison),
        7: (phases_7, acceptance.criterion_7_cut_independence),
        8: (phases_8, acceptance.criterion_8_anomaly_invariance),
        9: (phases_9, acceptance.criterion_9_witten_clustering),
        11: (phases_11, acceptance.criterion_11_thm33_trend),
        12: (comparison_phases([], 321, 8), acceptance.criterion_12_modulus_one),
    }
    for _, crit in criteria.values():  # loads every module before timing
        crit()
    out = {}
    for k, (phases, crit) in criteria.items():
        best = {}
        for _ in range(args.repeats):
            times = phases()
            times["total"], _ = clock(crit)
            for name, t in times.items():
                best[name] = min(best.get(name, float("inf")), t)
        out[str(k)] = {f"{name}_s": t for name, t in best.items()}

    print(json.dumps({
        "src": os.path.abspath(args.src),
        "repeats": args.repeats,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "criteria": out,
    }, indent=1))


if __name__ == "__main__":
    main()
