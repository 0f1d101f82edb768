"""The layer-timing scripts under ``bench/`` still run on this tree.

They import package internals by name (``spectral._acyclic_milnor``,
``serialize._load_json``, the benchmark's document builders), so a rename
only shows when someone next times a layer. Each script runs once here, in a
fresh interpreter with one BLAS thread and one repeat, and must exit 0 with
its JSON keys.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CRITERIA_PHASES = {
    "1": {"inputs", "cohomology", "torsion_form", "anomaly"},
    "2": {"inputs", "cohomology", "torsion_form", "oracle"},
    "3": {"inputs", "milnor", "anomaly"},
    "4": {"inputs", "turaev"},
    "6": {"inputs", "rs_exact", "milnor"},
    "7": {"inputs", "rs_exact"},
    "8": {"inputs", "rs_exact", "rs_discrete"},
    "9": {"inputs", "counts", "band"},
    "11": {"inputs", "milnor", "band"},
    "12": {"inputs", "rs_exact", "milnor"},
}


def run_script(name):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", name), "--repeats", "1",
         "--src", os.path.join(ROOT, "src")],
        capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_criteria():
    report = run_script("criteria.py")
    assert report["repeats"] == 1
    assert {k: set(v) for k, v in report["criteria"].items()} == {
        k: {f"{phase}_s" for phase in phases | {"total"}} for k, phases in CRITERIA_PHASES.items()}


def test_loaders():
    report = run_script("loaders.py")
    assert set(report) == {"repeats", "load_total_s", "rows"}
    assert {row["kind"] for row in report["rows"]} == {
        "load_graded_complex", "load_morse_system", "CriticalForms", "lu_det",
        "check_symmetric_form", "nondegenerate_det", "torsion_form", "write_rows_csv"}
    assert sorted(row["case"] for row in report["rows"] if row["kind"] == "write_rows_csv") == [
        "new", "rewrite"]


def test_fox():
    report = run_script("fox.py")
    assert set(report) == {"repeats", "total_s", "rows"}
    assert report["rows"] and all(
        set(row) == {"knot", "minor_size", "degree", "presentation_s", "fox_alexander_s"} for row in report["rows"])
