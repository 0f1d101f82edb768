"""Per-knot times of the Fox-calculus Alexander polynomial, as JSON.

    python3 bench/fox.py [--repeats 5] [--src DIR]

The knots are the 22 torus knots and the ten-knot corpus of the benchmark's
``combinatorial`` workload (``perfbench/workloads.py``) and four larger torus
knots, T(2,51), T(3,25), T(7,8) and T(2,101), each built by
``knot_from_braid`` outside the timed region; ``total_s`` sums the
benchmark's 32 knots only. Each row is the best of ``--repeats`` calls of
``fox_alexander``, with the minor's size and the polynomial's degree, and
``presentation_s``, the best of ``--repeats`` constructions of
``KnotPresentation(generators, relators)`` as ``serialize.load_knot`` makes
it: a tree that parses the relators there does that part of the work before
``fox_alexander`` is called. ``--src`` is the ``src`` directory of the tree
to time (default: this checkout).
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
LARGE_TORUS_KNOTS = ((2, 51), (3, 25), (7, 8), (2, 101))


def best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--src", default=os.path.join(HERE, "..", "src"))
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    sys.path.insert(0, os.path.join(HERE, "..", "perfbench"))
    from bitorsion.turaev import KnotPresentation, fox_alexander, knot_from_braid
    from workloads import CORPUS, TORUS_KNOTS

    def torus(p, q):
        return f"T{p}_{q}", knot_from_braid([i for _ in range(q) for i in range(1, p)], p)

    knots = [torus(p, q) for p, q in TORUS_KNOTS]
    knots += [(name, KnotPresentation(("a",), ()) if word is None
               else knot_from_braid(list(word), strands)) for name, word, strands in CORPUS]
    n_benchmark = len(knots)
    knots += [torus(p, q) for p, q in LARGE_TORUS_KNOTS]
    fox_alexander(knots[0][1])  # loads every module before timing
    rows = []
    for name, pres in knots:
        rows.append({
            "knot": name,
            "minor_size": len(pres.generators) - 1,
            "degree": fox_alexander(pres).max_exp(),
            "presentation_s": best_of(args.repeats, lambda: KnotPresentation(
                pres.generators, pres.relators)),
            "fox_alexander_s": best_of(args.repeats, lambda: fox_alexander(pres)),
        })
    total = sum(r["fox_alexander_s"] for r in rows[:n_benchmark])
    json.dump({"repeats": args.repeats, "total_s": total, "rows": rows}, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
