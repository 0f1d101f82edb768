"""Command-line front door.

Subcommands
-----------
  torsion finite <complex.json>              finite-complex bilinear torsion
  torsion morse <morse.json>                 Milnor torsion of a Morse system
  torsion turaev <morse.json> --euler SPEC   Turaev torsion at an Euler structure
  alexander <knot.json>                      Fox-calculus Alexander polynomial
  spectral <circle.json> --op OP             circle experiments
                                             (spectrum|zetadet|rstorsion|witten|thm33|bz)
  verify all                                 run the acceptance suite

Exit codes: 0 success, 1 numerical failure, 2 schema error. All numeric
output is deterministic; CSV columns are bit-stable.
"""

import argparse
import sys

import numpy as np

from .circle import build_discrete, exact_spectrum_circle, zeta_det_exact
from .complexes import cohomology, torsion_form
from .config import DEFAULT_TOL
from .errors import BitorsionError, SchemaError
from .morse import circle_loop, milnor_torsion
from .serialize import (
    load_circle_model,
    load_graded_complex,
    load_knot,
    load_morse_system,
    write_rows_csv,
)
from .spectral import (
    band_sweep,
    bz_compare,
    rs_torsion,
    small_spectrum_dims,
    theorem33_experiment,
)
from .turaev import (EulerStructure, Representation, ensure_circle_geometry, fox_alexander,
                     turaev_torsion)

HEADER = ["experiment", "params", "value_re", "value_im", "tolerance", "pass"]


def _emit(args, rows):
    text = write_rows_csv(rows, HEADER, out=args.out)
    if not args.out:
        sys.stdout.write(text)


def _cmd_torsion(args):
    if args.kind == "finite":
        complex_, structure, h = load_graded_complex(args.input)
        if h is None:
            h = cohomology(complex_)
        value = torsion_form(complex_, structure, h)
        print(f"torsion = {value.real:.12g} + {value.imag:.12g}i")
        _emit(args, [["torsion_finite", args.input, value, 1e-9, True]])
        return 0
    ms, forms = load_morse_system(args.input)
    if args.kind == "morse":
        value = milnor_torsion(ms, forms)
        print(f"milnor torsion = {value.real:.12g} + {value.imag:.12g}i")
        _emit(args, [["torsion_morse", args.input, value, 1e-9, True]])
        return 0
    # turaev
    windings = {}
    if args.euler:
        for part in args.euler.split(","):
            if not part:
                continue
            lab, _, w = part.partition("=")  # no "=": w is "", which int refuses
            try:
                windings[lab.strip()] = int(w)
            except ValueError:
                raise SchemaError(f"--euler expects label=winding[,label=winding...] with "
                                  f"integer windings, got {part!r}", field="--euler") from None
    ms = ensure_circle_geometry(ms)
    base = args.base_point or ms.points[0].label
    rep = Representation({"g": circle_loop(ms)}, ms.rank)
    b0 = np.eye(ms.rank, dtype=complex)
    value = turaev_torsion(ms, rep, EulerStructure(base, windings), b0)
    print(f"turaev torsion = {value.real:.12g} + {value.imag:.12g}i")
    _emit(args, [["torsion_turaev", f"{args.input};euler={args.euler or ''}", value,
                  1e-9, True]])
    return 0


def _cmd_alexander(args):
    pres = load_knot(args.input)
    delta = fox_alexander(pres)
    print(str(delta))
    # every knot's Alexander polynomial has |Delta(1)| = 1 and is palindromic
    ok = abs(delta(1)) == 1 and delta == delta.reversed_var()
    _emit(args, [["alexander", args.input, complex(delta(1)), 0.0, ok]])
    return 0


def _cmd_spectral(args):
    model, extras = load_circle_model(args.input)
    n_grid = args.grid or extras["N"]
    t_param = args.T if args.T is not None else extras["T"]
    rows = []
    if args.op == "spectrum":
        lam = model.channel_holonomies()[0]
        fam = exact_spectrum_circle(lam, model.length)
        ev = build_discrete(model, n_grid).eigenvalues()[:8]
        for k, mu in enumerate(ev):
            rows.append(["spectrum", f"n={k};N={n_grid}", complex(mu), 1e-6, True])
        print("lowest discrete eigenvalues:", ", ".join(f"{m:.6g}" for m in ev[:4]))
        print(f"exact family: mu_n = (2 pi / L)^2 (n^2 - z^2), z = {fam.z:.6g}")
    elif args.op == "zetadet":
        value = 1.0 + 0.0j
        for lam in model.channel_holonomies():
            value *= zeta_det_exact(lam, model.length,
                                    cut=args.cut if args.cut and args.cut > 0 else None)
        print(f"zeta determinant = {value.real:.12g} + {value.imag:.12g}i")
        rows.append(["zetadet", f"cut={args.cut}", value, 1e-9, True])
    elif args.op == "rstorsion":
        value = rs_torsion(model, cut=args.cut, method=args.method)
        print(f"rs torsion = {value.real:.12g} + {value.imag:.12g}i")
        rows.append(["rstorsion", f"cut={args.cut};method={args.method}", value, 1e-8, True])
    elif args.op == "witten":
        rep = small_spectrum_dims(model, t_param, n_grid)
        print(f"small-band counts {rep.counts}, large-band min {rep.large_band_min:.4f}")
        params = f"T={t_param};N={n_grid}"
        readings = next(band_sweep(model, [t_param], n_grid))
        morse = sum(r.morse_count for r in readings)  # rank x minima
        rows.append(["witten_counts", params, complex(*rep.counts), 0.0,
                     rep.counts == (morse, morse)])
        band = complex(np.exp(-sum(r.log_torsion for r in readings)))
        print(f"small band mu_1...mu_k = {band:.4e}, from the minors of K")
        rows.append(["witten_band", params, band, DEFAULT_TOL.band_torsion_rel,
                     all(r.resolved for r in readings)])
    elif args.op == "thm33":
        t_values = [float(t) for t in (args.T_list.split(",") if args.T_list else ["4", "10"])]
        gate = DEFAULT_TOL.band_torsion_rel
        for row in theorem33_experiment(model, t_values, n_grid):
            print(f"T={row.t_param:g}: scaled ratio {row.ratio:.8f} |log| {row.abs_log_ratio:.5f} "
                  f"gap ratio {row.gap_ratio:.1e}")
            ok = bool(np.isfinite(row.ratio)) and row.gap_ratio <= gate
            rows.append(["thm33", f"T={row.t_param};N={n_grid}", row.ratio, gate, ok])
    elif args.op == "bz":
        value = bz_compare(model, method=args.method, cut=args.cut)
        ok = abs(value - 1.0) <= 1e-8
        print(f"bz ratio = {value.real:.12g} + {value.imag:.12g}i "
              f"({'ok' if ok else 'OUTSIDE TOLERANCE'})")
        rows.append(["bz", f"method={args.method}", value, 1e-8, ok])
        _emit(args, rows)
        return 0 if ok else 1
    else:
        raise SchemaError(f"unknown spectral op '{args.op}'")
    _emit(args, rows)
    return 0


def _cmd_verify(args):
    from .acceptance import run_all

    results = run_all()
    rows = [
        [f"acceptance_{r.number}", r.name, complex(r.worst), r.tolerance, r.passed]
        for r in results
    ]
    _emit(args, rows)
    ok = all(r.passed for r in results)
    total = sum(r.seconds for r in results)
    print(f"{'all criteria pass' if ok else 'FAILURES PRESENT'} ({total:.1f}s total)")
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(prog="bitorsion", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default=None, help="write CSV rows to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p_torsion = sub.add_parser("torsion", help="finite, Morse, or Turaev torsion")
    p_torsion.add_argument("kind", choices=["finite", "morse", "turaev"])
    p_torsion.add_argument("input")
    p_torsion.add_argument("--euler", default=None, help="windings: label=w,label=w")
    p_torsion.add_argument("--base-point", default=None)
    p_torsion.set_defaults(func=_cmd_torsion)

    p_alex = sub.add_parser("alexander", help="Alexander polynomial of a knot presentation")
    p_alex.add_argument("input")
    p_alex.set_defaults(func=_cmd_alexander)

    p_spec = sub.add_parser("spectral", help="circle spectral experiments")
    p_spec.add_argument("input")
    p_spec.add_argument("--op", required=True,
                        choices=["spectrum", "zetadet", "rstorsion", "witten", "thm33", "bz"])
    p_spec.add_argument("--grid", type=int, default=None, help="grid size N")
    p_spec.add_argument("--T", type=float, default=None, help="deformation parameter")
    p_spec.add_argument("--T-list", dest="T_list", default=None, help="comma list of T values")
    p_spec.add_argument("--cut", type=float, default=0.0, help="spectral cut radius a")
    p_spec.add_argument("--method", default="exact", choices=["exact", "gy", "discrete"])
    p_spec.set_defaults(func=_cmd_spectral)

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("what", choices=["all"])
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}" + (f" (field: {exc.field})" if exc.field else ""),
              file=sys.stderr)
        return 2
    except BitorsionError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
