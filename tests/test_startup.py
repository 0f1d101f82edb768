"""Start-up cost: which requests load scipy or orjson, and the sites that import them late.

Every CLI request is a fresh process, and importing scipy.linalg costs more
than the package's own import. scipy is imported inside the function that
calls it, so these tests run fresh interpreters: the commands that never
reach scipy's LAPACK or ARPACK must leave scipy unloaded (a Witten count on
a grid of at most ``circle.DENSE_BAND_MAX_N`` points takes numpy's dense
eigensolver), and each late import must name the right module, giving the
same result as an in-process call.
"""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import bitorsion
from bitorsion.acceptance import criterion_2_bruteforce_oracle
from bitorsion.circle import build_discrete, make_circle_model
from bitorsion.numkernel import lu_det, schur_decomposition
from bitorsion.spectral import small_spectrum_dims

SRC = os.path.dirname(os.path.dirname(bitorsion.__file__))
SCIPY_LOADED = "any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"


def fresh(code):
    """stdout of ``code`` run by a new interpreter that imports this tree."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC})
    return out.stdout


@pytest.fixture
def docs(tmp_path):
    knot = tmp_path / "trefoil.json"
    knot.write_text(json.dumps({"generators": ["a", "b", "c"],
                                "relators": ["a b A C", "b c B A"]}))
    circle = tmp_path / "circle.json"
    circle.write_text(json.dumps({"lambda": [2.0, 0.0], "phi": {"kind": "sin", "amp": 0.3},
                                  "f": {"kind": "cos", "wells": 1}, "N": 64}))
    flat = tmp_path / "flat.json"  # φ = 0: bz refuses a density with θ ≠ 0
    flat.write_text(json.dumps({"lambda": [2.0, 0.0], "f": {"kind": "cos", "wells": 1},
                                "N": 64}))
    complex_ = tmp_path / "complex.json"
    complex_.write_text(json.dumps({"dims": [1, 1], "differentials": [[[[3.0, 0.0]]]]}))
    morse = tmp_path / "morse.json"
    morse.write_text(json.dumps({
        "rank": 1,
        "points": [{"id": "m0", "index": 0}, {"id": "M0", "index": 1}],
        "instantons": [{"from": "M0", "to": "m0", "sign": -1, "holonomy": [[[1, 0]]]},
                       {"from": "M0", "to": "m0", "sign": 1, "holonomy": [[[3, 0]]]}],
        "forms": {"m0": [[[1, 0]]], "M0": [[[1, 0]]]},
    }))
    return {"knot": str(knot), "circle": str(circle), "flat": str(flat),
            "complex": str(complex_), "morse": str(morse)}


class TestScipyFreeStart:
    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["alexander", "{knot}"],
        ["spectral", "{circle}", "--op", "zetadet"],
        ["spectral", "{circle}", "--op", "rstorsion"],
        ["torsion", "finite", "{complex}"],
        ["torsion", "morse", "{morse}"],
        ["torsion", "turaev", "{morse}", "--euler", "M0=1"],
        ["spectral", "{flat}", "--op", "bz"],
        ["spectral", "{circle}", "--op", "thm33"],
        ["spectral", "{circle}", "--op", "witten", "--T", "5"],
    ], ids=["help", "alexander", "zetadet", "rstorsion", "finite", "morse", "turaev", "bz",
            "thm33", "witten"])
    def test_command_leaves_scipy_out(self, docs, argv):
        argv = [a.format(**docs) for a in argv]
        code = ("import sys\nfrom bitorsion import cli\n"
                f"try:\n    code = cli.main({argv!r})\nexcept SystemExit as exc:\n"
                "    code = exc.code\n"
                f"print('exit', code, 'scipy', {SCIPY_LOADED})\n")
        assert fresh(code).splitlines()[-1] == "exit 0 scipy False"

    def test_verify_all_warmup_leaves_scipy_out(self):
        code = ("import sys\nfrom bitorsion import acceptance, cli\n"
                "cli.build_parser(); acceptance.criterion_7_cut_independence()\n"
                f"print({SCIPY_LOADED})\n")
        assert fresh(code).strip() == "False"

    @pytest.mark.parametrize("warmup", [
        "from bitorsion import make_circle_model\n"
        "from bitorsion.spectral import bz_compare\n"
        "bz_compare(make_circle_model(2.0, f=('cos', 1)))\n",
        "from bitorsion import CriticalForms, fox_alexander, knot_from_braid\n"
        "from bitorsion import make_circle_morse, milnor_torsion\n"
        "ms = make_circle_morse(2, 3.0); milnor_torsion(ms, CriticalForms.standard(ms))\n"
        "fox_alexander(knot_from_braid([1, 1, 1], 2))\n",
    ], ids=["circle-requests", "combinatorial"])
    def test_workload_warmup_leaves_scipy_out(self, warmup):
        """The first calls of the benchmark's circle and combinatorial workloads:
        a bz comparison, a Milnor torsion and a Fox determinant, with no scipy."""
        assert fresh(f"import sys\n{warmup}print({SCIPY_LOADED})\n").strip() == "False"


ORJSON_LOADED = "'orjson' in sys.modules"


class TestOrjsonAtFirstLoad:
    """orjson is imported by the first file a loader reads, inside
    ``serialize._load_json``: neither ``import bitorsion`` nor a benchmark
    workload's warm-up, which reads no file, loads it."""

    @pytest.mark.parametrize("warmup", [
        "import bitorsion\n",
        "from bitorsion import acceptance, cli, make_circle_model\n"
        "from bitorsion.spectral import conjugation_isospectral_check\n"
        "cli.build_parser(); acceptance.criterion_7_cut_independence()\n"
        "conjugation_isospectral_check(make_circle_model(2.0, f=('cos', 1)), 5.0, 16)\n",
        "from bitorsion import make_circle_model\n"
        "from bitorsion.spectral import bz_compare\n"
        "bz_compare(make_circle_model(2.0, f=('cos', 1)))\n",
        "from bitorsion import CriticalForms, fox_alexander, knot_from_braid\n"
        "from bitorsion import make_circle_morse, milnor_torsion\n"
        "ms = make_circle_morse(2, 3.0); milnor_torsion(ms, CriticalForms.standard(ms))\n"
        "fox_alexander(knot_from_braid([1, 1, 1], 2))\n",
    ], ids=["import", "verify-all", "circle-requests", "combinatorial"])
    def test_warmup_leaves_orjson_out(self, warmup):
        assert fresh(f"import sys\n{warmup}print({ORJSON_LOADED})\n").strip() == "False"

    def test_first_file_loads_orjson(self, docs):
        code = ("import sys\nfrom bitorsion import cli\n"
                f"code = cli.main(['torsion', 'finite', {docs['complex']!r}])\n"
                f"print('exit', code, 'orjson', {ORJSON_LOADED})\n")
        assert fresh(code).splitlines()[-1] == "exit 0 orjson True"


def _lazy_site_calls():
    """One call per function that imports scipy late, each result as a repr."""
    a = np.array([[2.0, 1.0, 0.5j], [1.0, -3.0, 0.25], [0.5, 4.0, 1.0 + 1.0j]])
    channel = build_discrete(make_circle_model(2.0, f=("cos", 1)), 32).channels[0]
    schur = schur_decomposition(a)
    model = make_circle_model(2.0, phi=("sin", 0.3), f=("cos", 1))
    return [
        repr(lu_det(a)),
        repr(channel.eigenvalues().tolist()),
        repr([schur.q.tolist(), schur.t.tolist(), schur.eigenvalues.tolist()]),
        repr(small_spectrum_dims(model, 5.0, 128)),  # above DENSE_BAND_MAX_N: ARPACK
        repr(dataclasses.replace(criterion_2_bruteforce_oracle(), seconds=0.0)),
    ]


def test_lazy_sites_from_a_cold_interpreter():
    """Each late import, made first in a process with no scipy loaded, gives the
    in-process result: a local import of the wrong name would raise there."""
    code = (
        "import sys, json\n"
        f"sys.path.insert(0, {os.path.dirname(__file__)!r})\n"
        "import numpy as np\n"
        f"assert not {SCIPY_LOADED}\n"
        "from test_startup import _lazy_site_calls\n"
        f"assert not {SCIPY_LOADED}\n"
        "print(json.dumps(_lazy_site_calls()))\n"
    )
    assert json.loads(fresh(code)) == _lazy_site_calls()
