"""Times of the JSON loaders and of the small-matrix kernels they call, as JSON.

    python3 bench/loaders.py [--repeats 7] [--src DIR]

Documents are built as the benchmark's ``combinatorial`` workload builds them
(``perfbench/workloads.py``) and written to a temporary directory first:
``complex.json`` with four degrees of 16, 25, 40, 50 and 75, and
``morse.json`` with 32, 64 and 128 critical-point pairs at ranks 1 to 3,
each with its own critical forms. A loader row is the best of ``--repeats``
calls of ``load_graded_complex`` or ``load_morse_system`` on the file, next to
the best ``json.load`` of the same file and the best parse by the loader
itself, ``serialize._load_json`` (``parse_s``: orjson, or ``json.load`` in a
tree from before orjson). A ``CriticalForms`` row times the constructor on
the 2 x 128 forms of a 128-pair document at rank 1, 2 or 3, as
``load_morse_system`` calls it, each sample the mean of ``FORMS_CALLS``
calls. A kernel row is the best of ``--repeats`` samples of ``lu_det``,
``check_symmetric_form`` or ``nondegenerate_det`` at n = 1, 3 and 40, each
sample the mean of ``KERNEL_CALLS`` calls. The ``torsion_form`` row times it
in the same way on a complex of acceptance criterion 1's largest size (four
degrees of 3) whose cohomology has been taken, as criterion 1 calls it.
``--src`` is the ``src`` directory of the tree to time (default: this
checkout).
"""

import argparse
import json
import os
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
COMPLEX_SIZES = (16, 25, 40, 50, 75)
MORSE_CASES = tuple((pairs, rank) for pairs in (32, 64, 128) for rank in (1, 2, 3))
KERNEL_SIZES = (1, 3, 40)
KERNEL_CALLS = 200
FORMS_PAIRS = 128
FORMS_CALLS = 20
TORSION_DIMS = (3, 3, 3, 3)


def best_of(repeats, fn, calls=1):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - t0) / calls)
    return best


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--src", default=os.path.join(HERE, "..", "src"))
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    sys.path.insert(0, os.path.join(HERE, "..", "perfbench"))
    from bitorsion.complexes import (
        cohomology,
        random_bilinear_structure,
        random_graded_complex,
        torsion_form,
    )
    from bitorsion.errors import DegenerateFormError
    from bitorsion.morse import CriticalForms
    from bitorsion.numkernel import check_symmetric_form, lu_det, nondegenerate_det
    from bitorsion.serialize import _load_json, load_graded_complex, load_morse_system
    from workloads import (
        _mat,
        _matrix_holonomy,
        _morse_doc,
        _near_identity_symmetric,
        _random_complex,
        _scalar_holonomy,
    )

    rng = np.random.default_rng(10)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        def timed(kind, name, doc, loader):
            path = os.path.join(tmp, name + ".json")
            with open(path, "w") as fh:
                json.dump(doc, fh)

            def parse():
                with open(path) as fh:
                    json.load(fh)

            loader(path)  # loads every module before timing
            rows.append({"kind": kind, "doc": name, "bytes": os.path.getsize(path),
                         "json_load_s": best_of(args.repeats, parse),
                         "parse_s": best_of(args.repeats, lambda: _load_json(path, name)),
                         "load_s": best_of(args.repeats, lambda: loader(path))})

        for n in COMPLEX_SIZES:
            dims = (n,) * 4
            doc = {"dims": list(dims),
                   "differentials": [_mat(d) for d in _random_complex(rng, dims)],
                   "grams": [_mat(_near_identity_symmetric(rng, n, 0.6)) for _ in dims]}
            timed("load_graded_complex", f"complex.{n}x4", doc, load_graded_complex)
        for pairs, rank in MORSE_CASES:
            hol = (_matrix_holonomy(rng, rank) if rank > 1
                   else np.array([[_scalar_holonomy(rng, False)]]))
            forms = {f"{c}{k}": _near_identity_symmetric(rng, rank, 0.4)
                     for k in range(pairs) for c in ("m", "M")}
            timed("load_morse_system", f"milnor.p{pairs}.r{rank}",
                  _morse_doc(pairs, hol, forms), load_morse_system)

    for rank in (1, 2, 3):
        forms = {f"{c}{k}": _near_identity_symmetric(rng, rank, 0.4)
                 for k in range(FORMS_PAIRS) for c in ("m", "M")}
        rows.append({"kind": "CriticalForms", "pairs": FORMS_PAIRS, "rank": rank,
                     "s": best_of(args.repeats, lambda: CriticalForms(forms), FORMS_CALLS)})
    for n in KERNEL_SIZES:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        form = _near_identity_symmetric(rng, n, 0.4)
        rows.append({"kind": "lu_det", "n": n,
                     "s": best_of(args.repeats, lambda: lu_det(a), KERNEL_CALLS)})
        rows.append({"kind": "check_symmetric_form", "n": n,
                     "s": best_of(args.repeats, lambda: check_symmetric_form(form, "b"),
                                  KERNEL_CALLS)})
        rows.append({"kind": "nondegenerate_det", "n": n,
                     "s": best_of(args.repeats, lambda: nondegenerate_det(
                         form, DegenerateFormError, "b"), KERNEL_CALLS)})
    c = random_graded_complex(rng, dims=TORSION_DIMS)
    b = random_bilinear_structure(rng, c.dims)
    h = cohomology(c)
    rows.append({"kind": "torsion_form", "dims": list(TORSION_DIMS),
                 "s": best_of(args.repeats, lambda: torsion_form(c, b, h), KERNEL_CALLS)})
    total = sum(r.get("load_s", 0.0) for r in rows)
    json.dump({"repeats": args.repeats, "load_total_s": total, "rows": rows}, sys.stdout,
              indent=2)
    print()


if __name__ == "__main__":
    main()
