import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bitorsion.serialize as serialize
from bitorsion.cli import main
from bitorsion.errors import HolonomyError, HomotopyClassError, SchemaError
from bitorsion.serialize import (
    decode_complex_number,
    decode_matrix,
    load_circle_model,
    load_graded_complex,
    load_knot,
    load_morse_system,
    write_rows_csv,
)
from bitorsion.morse import make_circle_morse
from bitorsion.turaev import (
    EulerStructure,
    Representation,
    ensure_circle_geometry,
    euler_class_circle,
    turaev_torsion,
)


@pytest.fixture
def two_term(tmp_path):
    doc = {"dims": [1, 1], "differentials": [[[[3.0, 0.0]]]]}
    path = tmp_path / "two_term_a3.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def trefoil(tmp_path):
    doc = {"generators": ["a", "b", "c"], "relators": ["a b A C", "b c B A"]}
    path = tmp_path / "trefoil.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def circle(tmp_path):
    doc = {
        "L": 6.283185307179586,
        "lambda": [2.0, 0.0],
        "phi": {"kind": "zero"},
        "f": {"kind": "cos", "wells": 1},
        "N": 128,
        "T": 5.0,
    }
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def morse(tmp_path):
    doc = {
        "rank": 1,
        "points": [{"id": "m0", "index": 0}, {"id": "M0", "index": 1}],
        "instantons": [
            {"from": "M0", "to": "m0", "sign": -1, "holonomy": [[[1, 0]]]},
            {"from": "M0", "to": "m0", "sign": 1, "holonomy": [[[3, 0]]]},
        ],
        "forms": {"m0": [[[1, 0]]], "M0": [[[1, 0]]]},
    }
    path = tmp_path / "morse.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestLoaders:
    def test_complex_roundtrip(self, two_term):
        complex_, structure, h = load_graded_complex(two_term)
        assert complex_.dims == (1, 1)
        assert complex_.differential(0)[0, 0] == 3.0
        assert h is None

    def test_morse_loads(self, morse):
        ms, forms = load_morse_system(morse)
        assert ms.rank == 1 and len(ms.instantons) == 2

    def test_knot_loads(self, trefoil):
        pres = load_knot(trefoil)
        assert pres.generators == ("a", "b", "c")

    def test_circle_loads(self, circle):
        model, extras = load_circle_model(circle)
        assert model.holonomy == 2.0
        assert extras["N"] == 128

    def test_schema_error_fields(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dims": [1, 1], "differentials": [[["oops"]]]}))
        with pytest.raises(SchemaError):
            load_graded_complex(str(bad))


def _decode_per_entry(obj, field="matrix"):
    """The entry-by-entry decoding, the oracle of ``decode_matrix``."""
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise SchemaError(f"{field}[{i}]: expected a list row", field=f"{field}[{i}]")
        rows.append([decode_complex_number(x, f"{field}[{i}][{j}]") for j, x in enumerate(row)])
    if any(len(r) != len(rows[0]) for r in rows):
        raise SchemaError(f"{field}: ragged rows", field=field)
    return np.array(rows, dtype=complex)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


_SPECIALS = st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan"), 1e-320])
_REALS = st.one_of(st.floats(), _SPECIALS, st.integers(-2**63, 2**64 - 1))
_PAIRS = st.lists(_REALS, min_size=2, max_size=2)


def _matrices(entries):
    return st.integers(1, 5).flatmap(lambda c: st.lists(
        st.lists(entries, min_size=c, max_size=c), min_size=1, max_size=5))


class TestDecodeMatrix:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_matrices(_REALS), _matrices(_PAIRS)))
    def test_bit_equal_to_per_entry_decoding(self, obj):
        """Numbers and [re, im] pairs, +-0.0, +-inf and NaN included: the same
        bits as decoding entry by entry."""
        fast, oracle = decode_matrix(obj), _decode_per_entry(obj)
        assert fast.dtype == complex and fast.shape == oracle.shape
        assert np.array_equal(_bits(fast), _bits(oracle))

    def test_well_formed_matrix_is_not_decoded_per_entry(self, monkeypatch):
        def refuse(obj, field="value"):
            raise AssertionError("decoded per entry")

        monkeypatch.setattr(serialize, "decode_complex_number", refuse)
        assert decode_matrix([[1, 2.5], [-0.0, 3]])[1, 0] == 0.0
        assert decode_matrix([[[1, 2], [3, float("inf")]]])[0, 1] == complex(3, float("inf"))

    @pytest.mark.parametrize("obj", [
        [[1.0, 2.0], [3.0]],
        [[1.0, [2.0, 0.0]]],
        [[[1.0, 0.0], 2.0]],
        [["1.5", 2.0]],
        [[["1.5", "2"], [3, 4]]],
        [[True, 2.0], [False, [1, 0]]],
        [[True, False]],
        [[[1.0], [2.0, 0.0]]],
        [[[1.0, 2.0, 3.0]]],
        [[None]],
        [(1.0, 2.0)],
        [[2**64]],
        [[[2**70, 1]]],
    ], ids=["ragged", "mixed", "mixed_pair_first", "string", "string_pair", "bool_mixed",
            "bool", "short_pair", "long_pair", "null", "tuple_row", "big_int", "big_int_pair"])
    def test_fallback_matches_per_entry_decoding(self, obj):
        """Anything but a plain numeric matrix is decoded entry by entry: the same
        value, or a SchemaError with the same message and field."""
        try:
            expected = _decode_per_entry(obj, "m")
        except SchemaError as exc:
            with pytest.raises(SchemaError) as info:
                decode_matrix(obj, "m")
            assert (str(info.value), info.value.field) == (str(exc), exc.field)
        else:
            assert np.array_equal(_bits(decode_matrix(obj, "m")), _bits(expected))


class TestCommands:
    def test_torsion_finite(self, two_term, capsys):
        assert main(["torsion", "finite", two_term]) == 0
        out = capsys.readouterr().out
        assert "0.111111111111" in out

    def test_torsion_morse(self, morse, capsys):
        assert main(["torsion", "morse", morse]) == 0
        assert "0.25" in capsys.readouterr().out

    def test_torsion_turaev(self, morse, capsys):
        assert main(["torsion", "turaev", morse, "--euler", "M0=1"]) == 0
        assert "2.25" in capsys.readouterr().out

    def test_torsion_turaev_clockwise_holonomy(self, morse, tmp_path):
        """The holonomy 3 on the sign -1 (clockwise) instanton: the
        counterclockwise loop is 1/3, and the command's value is the Turaev
        torsion at that representation. The representation 3 is refused."""
        with open(morse) as fh:
            doc = json.load(fh)
        doc["instantons"][0]["holonomy"], doc["instantons"][1]["holonomy"] = [[[3, 0]]], [[[1, 0]]]
        path = tmp_path / "clockwise.json"
        path.write_text(json.dumps(doc))
        assert main(["--out", str(tmp_path / "rows.csv"), "torsion", "turaev", str(path),
                     "--euler", "M0=1"]) == 0
        value = complex(*map(float, (tmp_path / "rows.csv").read_text().splitlines()[1]
                             .split(",")[2:4]))
        ms = ensure_circle_geometry(load_morse_system(str(path))[0])
        e = EulerStructure("m0", {"M0": 1})
        assert value == turaev_torsion(ms, Representation({"g": [[1 / 3]]}, 1), e, [[1.0]])
        with pytest.raises(HolonomyError):
            turaev_torsion(ms, Representation({"g": [[3.0]]}, 1), e, [[1.0]])

    @pytest.mark.parametrize("winding", [-1, 0, 1])
    def test_synthesized_seam_on_the_holonomy_arc(self, morse, tmp_path, winding):
        """The holonomy 3 on the clockwise instanton, arc 0: the synthesized
        seam lies on that arc, so a winding on M0 names the class and the value
        it names on ``make_circle_morse(1, 3, seam_arc=0)``."""
        with open(morse) as fh:
            doc = json.load(fh)
        doc["instantons"][0]["holonomy"], doc["instantons"][1]["holonomy"] = [[[3, 0]]], [[[1, 0]]]
        path = tmp_path / "clockwise.json"
        path.write_text(json.dumps(doc))
        synthesized = ensure_circle_geometry(load_morse_system(str(path))[0])
        laid_out = make_circle_morse(1, 3, seam_arc=0)
        e, rep = EulerStructure("m0", {"M0": winding}), Representation({"g": [[1 / 3]]}, 1)
        assert euler_class_circle(synthesized, e) == euler_class_circle(laid_out, e)
        assert (turaev_torsion(synthesized, rep, e, [[1.0]])
                == turaev_torsion(laid_out, rep, e, [[1.0]]))

    def test_synthesized_seam_defaults_to_closing_arc(self, morse):
        """The holonomy on the closing arc, or on no instanton: the seam is the
        closing arc's, as in ``make_circle_morse``'s default layout."""
        ms = load_morse_system(morse)[0]
        want = make_circle_morse(1, 3).geometry
        assert ensure_circle_geometry(ms).geometry == want
        trivial = replace(ms, instantons=tuple(replace(ins, holonomy=np.eye(1))
                                               for ins in ms.instantons))
        assert ensure_circle_geometry(trivial).geometry == want

    def test_alexander(self, trefoil, capsys):
        assert main(["alexander", trefoil]) == 0
        assert "t^2 - t + 1" in capsys.readouterr().out

    @pytest.mark.parametrize("relator,delta,ok", [
        ("a b a B A B", "t^2 - t + 1", "True"),
        ("a a B B", "t + 1", "False"),  # Delta(1) = 2: no knot group
        ("a a a B B B", "t^2 + t + 1", "False"),  # Delta(1) = 3
        ("a a b A B B", "t^2 - t - 1", "False"),  # Delta(1) = -1, not palindromic
    ], ids=["trefoil", "a2b-2", "a3b-3", "not-palindromic"])
    def test_alexander_pass_is_computed(self, tmp_path, capsys, relator, delta, ok):
        path = tmp_path / "pres.json"
        path.write_text(json.dumps({"generators": ["a", "b"], "relators": [relator]}))
        assert main(["alexander", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == delta
        assert out[-1].split(",")[-1] == ok

    def test_spectral_bz(self, circle, capsys):
        assert main(["spectral", circle, "--op", "bz"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_spectral_witten(self, circle, capsys):
        assert main(["spectral", circle, "--op", "witten", "--T", "5", "--grid", "128"]) == 0
        assert "(1, 1)" in capsys.readouterr().out

    @pytest.mark.parametrize("t_param, ok", [("5", "True"), ("20", "False")])
    def test_spectral_witten_band_trace_pass(self, circle, capsys, t_param, ok):
        """The band trace passes only above its rounding floor, which the
        tolerance column holds: at T = 20 the band eigenvalue is about 1e-34,
        and the trace an eigensolver reports is rounding."""
        assert main(["spectral", circle, "--op", "witten", "--T", t_param, "--grid", "512"]) == 0
        row = capsys.readouterr().out.splitlines()[-1].split(",")
        assert row[0] == "witten_band_trace" and row[5] == ok
        assert 1e-12 < float(row[4]) < 1e-10
        assert (abs(complex(float(row[2]), float(row[3]))) > float(row[4])) == (ok == "True")

    def test_spectral_thm33_pass_is_computed(self, circle, capsys):
        """The pass cell is a finite ratio with its Newton gap ratio inside the
        gate that the tolerance column holds; T = 0 has no gap and is refused."""
        assert main(["spectral", circle, "--op", "thm33", "--T-list", "4,40"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
                if line.startswith("thm33,")]
        assert [(r[4], r[5]) for r in rows] == [("0.0001", "True")] * 2
        assert main(["spectral", circle, "--op", "thm33", "--T-list", "0"]) == 1

    @pytest.mark.parametrize("ratio, gap, ok", [(1.01, 1e-3, "False"), (np.inf, 0.0, "False"),
                                                (1.01, 1e-5, "True")])
    def test_spectral_thm33_pass_cell(self, circle, capsys, monkeypatch, ratio, gap, ok):
        import bitorsion.cli as cli
        from bitorsion.spectral import Theorem33Row

        row = Theorem33Row(4.0, complex(ratio), 0.01, (1, 1), gap)
        monkeypatch.setattr(cli, "theorem33_experiment", lambda *args: [row])
        assert main(["spectral", circle, "--op", "thm33"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].split(",")[-1] == ok

    def test_spectral_zetadet(self, circle, capsys):
        assert main(["spectral", circle, "--op", "zetadet"]) == 0
        assert "0.5" in capsys.readouterr().out

    def test_missing_file_is_schema_error(self, capsys):
        assert main(["torsion", "finite", "/nonexistent/x.json"]) == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        doc = {"L": 6.283185307179586, "lambda": [1.0, 0.0], "f": {"kind": "cos", "wells": 1}}
        path = tmp_path / "lam1.json"
        path.write_text(json.dumps(doc))
        # holonomy 1 is non-acyclic: bz refuses with a numerical-failure exit
        assert main(["spectral", str(path), "--op", "bz"]) == 1

    def test_rstorsion_discrete_refuses_trivial_holonomy(self, tmp_path):
        """det K = 0 at holonomy 1: the discrete method exits with a numerical
        failure instead of printing a value."""
        doc = {"lambda": [1.0, 0.0], "phi": {"kind": "sin", "amp": 0.3},
               "f": {"kind": "cos", "wells": 1}}
        path = tmp_path / "lam1_wavy.json"
        path.write_text(json.dumps(doc))
        assert main(["spectral", str(path), "--op", "rstorsion", "--method", "discrete",
                     "--cut", "0.5"]) == 1

    def test_winding_density_rejected(self, tmp_path):
        """A log-density with winding would change the holonomy class: the
        loader refuses it, so no analytic method returns a value for it."""
        doc = {"lambda": [2.0, 0.0], "phi": {"kind": "winding", "amp": 1.0},
               "f": {"kind": "cos", "wells": 1}}
        path = tmp_path / "winding.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(HomotopyClassError):
            load_circle_model(str(path))
        assert main(["spectral", str(path), "--op", "rstorsion", "--method", "gy"]) == 1

    @pytest.mark.parametrize("argv,doc,field", [
        (["spectral", "{}", "--op", "zetadet"], {"lambda": [2.0, 0.0], "N": "abc"}, "N"),
        (["torsion", "finite", "{}"], {"dims": ["x"]}, "dims[0]"),
        (["torsion", "morse", "{}"], {"points": [{"id": "m0", "index": "zero"}]},
         "points[0].index"),
        (["spectral", "{}", "--op", "zetadet"], {"lambda": [2.0, 0.0], "phi": "sin"}, "phi"),
        (["torsion", "finite", "{}"], {"dims": 5}, "dims"),
        (["alexander", "{}"], {"generators": 5}, "generators"),
        (["torsion", "morse", "{}"], {"points": [5]}, "points[0]"),
        (["torsion", "morse", "{}"], {"points": [], "instantons": [5]}, "instantons[0]"),
        (["torsion", "morse", "{}"], {"points": [{"id": "m0", "index": 0}], "forms": [1]},
         "forms"),
        (["torsion", "morse", "{}"], [{"points": []}], "morse.json"),
        (["spectral", "{}", "--op", "zetadet"], {"lambda": [2.0, 0.0], "flat": "false"},
         "flat"),
        (["spectral", "{}", "--op", "zetadet"], {"lambda": [2.0, 0.0], "flat": 0}, "flat"),
        (["spectral", "{}", "--op", "zetadet"], {"lambda": [2.0, 0.0], "N": 64.9}, "N"),
        (["spectral", "{}", "--op", "zetadet"], {"lambda": [2.0, 0.0], "N": True}, "N"),
        (["spectral", "{}", "--op", "zetadet"], {"lambda": [2.0, 0.0], "N": "64"}, "N"),
        (["spectral", "{}", "--op", "zetadet"],
         {"lambda": [2.0, 0.0], "f": {"kind": "cos", "wells": 1.7}}, "f.wells"),
        (["spectral", "{}", "--op", "zetadet"],
         {"lambda": [2.0, 0.0], "f": {"kind": "cos", "wells": -1}}, "f.wells"),
        (["spectral", "{}", "--op", "zetadet"],
         {"lambda": [2.0, 0.0], "f": {"kind": "cos", "wells": 0}}, "f.wells"),
        (["spectral", "{}", "--op", "zetadet"], {"lambda": True}, "lambda"),
        (["torsion", "finite", "{}"], {"dims": [1.9, 1]}, "dims[0]"),
        (["torsion", "finite", "{}"], {"dims": [1, True]}, "dims[1]"),
        (["torsion", "morse", "{}"], {"rank": 1.0, "points": []}, "rank"),
        (["torsion", "morse", "{}"], {"points": [{"id": "m0", "index": False}]},
         "points[0].index"),
        (["torsion", "morse", "{}"],
         {"points": [{"id": "m0", "index": 0}, {"id": "M0", "index": 1}],
          "instantons": [{"from": "M0", "to": "m0", "sign": 1.0}]}, "instantons[0].sign"),
        (["spectral", "{}", "--op", "zetadet"], {"lambda": [2.0, 0.0], "T": True}, "T"),
        (["spectral", "{}", "--op", "zetadet"], {"lambda": [2.0, 0.0], "L": "6.28"}, "L"),
        (["spectral", "{}", "--op", "zetadet"],
         {"lambda": [2.0, 0.0], "phi": {"kind": "sin", "amp": True}}, "phi.amp"),
        (["spectral", "{}", "--op", "zetadet"], {"lambda": ["2", "0"]}, "lambda"),
        (["spectral", "{}", "--op", "zetadet"], {"lambda": [2.0, 0.0], "phi": {"kind": "cos"}},
         "phi.kind"),
        (["spectral", "{}", "--op", "zetadet"], {"lambda": [2.0, 0.0], "f": {"kind": "sin"}},
         "f.kind"),
    ], ids=["N", "dims", "index", "phi", "dims_array", "generators_array", "point_object",
            "instanton_object", "forms_object", "document_object", "flat_string",
            "flat_integer", "N_float", "N_bool", "N_string", "wells_float", "wells_negative",
            "wells_zero", "lambda_bool", "dims_float", "dims_bool", "rank_float",
            "index_bool", "sign_float", "T_bool", "L_string", "amp_bool",
            "lambda_pair_string", "phi_kind", "f_kind"])
    def test_malformed_field_is_schema_error(self, tmp_path, capsys, argv, doc, field):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main([a.format(path) for a in argv]) == 2
        assert f"(field: {field})" in capsys.readouterr().err

    def test_form_of_wrong_shape_is_refused(self, tmp_path, capsys):
        """A 2x2 critical form at rank 1 is a typed refusal naming the point."""
        doc = {"rank": 1, "points": [{"id": "m0", "index": 0}, {"id": "M0", "index": 1}],
               "instantons": [{"from": "M0", "to": "m0", "sign": -1},
                              {"from": "M0", "to": "m0", "sign": 1, "holonomy": [[3.0]]}],
               "forms": {"m0": [[1, 0], [0, 1]], "M0": [[1, 0], [0, 1]]}}
        path = tmp_path / "morse.json"
        path.write_text(json.dumps(doc))
        assert main(["torsion", "morse", str(path)]) == 1
        assert "DimensionError: critical form at m0" in capsys.readouterr().err

    def test_singular_holonomy_is_refused(self, tmp_path, capsys):
        doc = {"rank": 1, "points": [{"id": "m0", "index": 0}, {"id": "m1", "index": 0},
                                     {"id": "M0", "index": 1}],
               "instantons": [{"from": "M0", "to": "m0", "sign": -1},
                              {"from": "M0", "to": "m1", "sign": 1, "holonomy": [[[0, 0]]]}]}
        path = tmp_path / "morse.json"
        path.write_text(json.dumps(doc))
        assert main(["torsion", "morse", str(path)]) == 1
        assert "HolonomyError: instanton M0->m1 holonomy singular" in capsys.readouterr().err

    def test_csv_determinism(self, circle, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["--out", str(out1), "spectral", circle, "--op", "zetadet"]) == 0
        assert main(["--out", str(out2), "spectral", circle, "--op", "zetadet"]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestCsvWriter:
    def test_complex_columns_split(self):
        text = write_rows_csv([["exp", "p", 1.5 + 2.5j, 0.125, True]],
                              ["experiment", "params", "value_re", "value_im", "tol", "pass"])
        lines = text.strip().split("\n")
        assert lines[1] == "exp,p,1.5,2.5,0.125,True"
