"""Fresh-interpreter start-up times of two trees, as JSON.

    python3 bench/startup.py --src DIR [--repeats 15]

Every CLI request is a new process, so its cost includes the interpreter
start and ``import bitorsion``. Each row is one Python snippet, run by a new
``python3 -c`` with ``PYTHONPATH`` set to this checkout's ``src`` and then
to ``DIR`` (the ``src`` directory of the other tree), alternating, with the
order swapped on every repeat. A row reports the median and quartiles of
``--repeats`` wall times per tree, from process start to exit, and whether
that tree's process had loaded scipy when it exited (``loads_scipy``, from
one untimed run).

Rows:
- ``import bitorsion``;
- each warm-up snippet of ``perfbench/workloads.py``'s ``WARMUP``, read from
  the file as written and prefixed with ``import bitorsion``, as
  ``perfbench/run.py`` times its ``setup_s``;
- CLI commands through ``bitorsion.cli.main``, on small documents written to
  a temporary directory.

One untimed run per row and tree comes first. Its exit code must be the
same on both trees; a row whose process fails is reported, not timed.
"""

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROBE = ("import atexit, sys\natexit.register(lambda: sys.stderr.write("
         "'\\nloads_scipy=%d\\n' % ('scipy' in sys.modules)))\n")

DOCS = {
    "complex": {"dims": [1, 1], "differentials": [[[[3.0, 0.0]]]]},
    "morse": {
        "rank": 1,
        "points": [{"id": "m0", "index": 0}, {"id": "M0", "index": 1}],
        "instantons": [{"from": "M0", "to": "m0", "sign": -1, "holonomy": [[[1, 0]]]},
                       {"from": "M0", "to": "m0", "sign": 1, "holonomy": [[[3, 0]]]}],
        "forms": {"m0": [[[1, 0]]], "M0": [[[1, 0]]]},
    },
    "knot": {"generators": ["a", "b", "c"], "relators": ["a b A C", "b c B A"]},
    "circle": {"lambda": [2.0, 0.0], "phi": {"kind": "sin", "amp": 0.3},
               "f": {"kind": "cos", "wells": 1}, "N": 64, "T": 5.0},
    # phi = 0: ``bz`` refuses the density above (theta != 0) before its Milnor side
    "flat": {"lambda": [2.0, 0.0], "f": {"kind": "cos", "wells": 1}, "N": 64},
}

COMMANDS = {
    "--help": ["--help"],
    "alexander": ["alexander", "{knot}"],
    "spectral zetadet": ["spectral", "{circle}", "--op", "zetadet"],
    "spectral rstorsion": ["spectral", "{circle}", "--op", "rstorsion"],
    "torsion finite": ["torsion", "finite", "{complex}"],
    "torsion morse": ["torsion", "morse", "{morse}"],
    "torsion turaev": ["torsion", "turaev", "{morse}", "--euler", "M0=1"],
    "spectral bz": ["spectral", "{flat}", "--op", "bz"],
    "spectral thm33": ["spectral", "{circle}", "--op", "thm33"],
    "spectral witten": ["spectral", "{circle}", "--op", "witten"],
    "spectral spectrum": ["spectral", "{circle}", "--op", "spectrum"],
    "verify all": ["verify", "all"],
}


def warmups():
    """``WARMUP`` of perfbench/workloads.py, read from its source: importing the
    module would import bitorsion from this process's path."""
    with open(os.path.join(ROOT, "perfbench", "workloads.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WARMUP" for t in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit("perfbench/workloads.py defines no WARMUP")


def snippets(tmp):
    paths = {}
    for name, doc in DOCS.items():
        paths[name] = os.path.join(tmp, name + ".json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    rows = {"import bitorsion": "import bitorsion\n"}
    for name, code in warmups().items():
        rows[f"warmup {name}"] = "import bitorsion\n" + code
    for name, argv in COMMANDS.items():
        argv = [a.format(**paths) for a in argv]
        rows[name] = f"import sys\nfrom bitorsion.cli import main\nsys.exit(main({argv!r}))\n"
    return rows


def run(code, src):
    """(wall seconds, exit code, stderr) of one fresh interpreter running ``code``."""
    env = dict(os.environ, PYTHONPATH=src)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, timeout=600,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    return time.perf_counter() - t0, proc.returncode, proc.stderr


def summary(times):
    q1, med, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_s": med, "q1_s": q1, "q3_s": q3, "n": len(times)}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True, help="src directory of the tree to compare")
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args()
    trees = {"this": os.path.join(ROOT, "src"), "src": os.path.abspath(args.src)}
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, code in snippets(tmp).items():
            row = {"row": name}
            for tree, src in trees.items():
                _, exit_code, err = run(PROBE + code, src)
                row[tree] = {"exit": exit_code, "loads_scipy": "loads_scipy=1" in err}
            if len({row[t]["exit"] for t in trees}) > 1 or row["this"]["exit"] not in (0, 1):
                row["error"] = "exit codes differ or the process failed"
                rows.append(row)
                continue
            times = {tree: [] for tree in trees}
            for rep in range(args.repeats):
                for tree in (trees if rep % 2 == 0 else reversed(list(trees))):
                    times[tree].append(run(code, trees[tree])[0])
            for tree in trees:
                row[tree].update(summary(times[tree]))
            rows.append(row)
            print(f"{name:24s} this {row['this']['median_s']:.3f} s "
                  f"(scipy {row['this']['loads_scipy']:d})  src {row['src']['median_s']:.3f} s "
                  f"(scipy {row['src']['loads_scipy']:d})", file=sys.stderr)
    json.dump({"python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
               "repeats": args.repeats, "src": trees["src"], "rows": rows},
              sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
