import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bitorsion.serialize as serialize
from bitorsion.circle import build_discrete
from bitorsion.cli import main
from bitorsion.errors import (
    DegenerateFormError,
    DimensionError,
    HolonomyError,
    HomotopyClassError,
    InvalidMatrixError,
    SchemaError,
)
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


class _Num(str):
    """A JSON number written out as this text."""


def _dump(obj):
    """JSON text of ``obj``, whose numbers are ``_Num`` texts written as they are."""
    if isinstance(obj, _Num):
        return str(obj)
    if isinstance(obj, list):
        return "[" + ", ".join(map(_dump, obj)) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in obj.items()) + "}"
    return json.dumps(obj)


def _float_texts(floats):
    """Shortest round-trip and 17-significant-digit spellings of the floats."""
    return floats.flatmap(lambda x: st.sampled_from([_Num(repr(x)), _Num("%.17g" % x)]))


def _digits25(lead, exponents):
    """25-digit decimals ``lead``.ddd...e``exp``, either sign."""
    return st.builds(lambda sign, d, digits, e: _Num(f"{sign}{d}.{digits:025d}e{e}"),
                     st.sampled_from(["", "-"]), lead, st.integers(0, 10**25 - 1), exponents)


# |x| <= 0.1: +-0.0, subnormals and the smallest normal among them
_SMALL = st.one_of(
    _float_texts(st.floats(-0.1, 0.1)),
    _float_texts(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308])),
    _digits25(st.just(0), st.integers(-330, -1)),
)
# 2 <= |x| < 10: diagonals that keep a matrix of _SMALL entries nonsingular
_LARGE = st.one_of(_float_texts(st.floats(2.0, 9.5)), st.integers(2, 9).map(lambda k: _Num(k)),
                   _digits25(st.integers(2, 9), st.just(0)))
_ANY = st.one_of(_SMALL, _LARGE, _float_texts(st.floats(allow_nan=False, allow_infinity=False)),
                 st.integers(-2**63, 2**63 - 1).map(lambda k: _Num(k)))
_STYLES = st.sampled_from(["numbers", "pairs", "either"])
_BAD_ENTRIES = [_Num('"1.5"'), None, {}, [_Num("1")], [_Num("1"), _Num("2"), _Num("3")]]


@st.composite
def _json_matrix(draw, style, rows, cols, off, diag=None, symmetric=False):
    """A rows x cols matrix of numbers or of [re, im] pairs (``style`` "numbers",
    "pairs" or, drawn for each matrix, "either"), entries drawn from ``off`` and,
    on the diagonal, from ``diag``; a symmetric one repeats each entry across
    the diagonal, text and all."""
    pairs = style == "pairs" or (style == "either" and draw(st.booleans()))

    def entry(strategy):
        return [draw(strategy), draw(_SMALL)] if pairs else draw(strategy)

    m = [[None] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            m[i][j] = (entry(diag) if diag is not None and i == j
                       else m[j][i] if symmetric and j < i else entry(off))
    return m


def _mutated(draw, m):
    """``m`` with one flaw: a number written as a pair or a diagonal pair as its
    real part (mixed rows, still the same kind of matrix), a ragged row, an
    entry of a bad type, a row that is not a list, or no rows at all."""
    kind = draw(st.sampled_from(["mixed", "ragged", "bad", "row", "empty"]))
    m = [list(row) for row in m]
    i = draw(st.integers(0, len(m) - 1))
    j = min(i, len(m[i]) - 1)
    if kind == "mixed":
        m[i][j] = m[i][j][0] if isinstance(m[i][j], list) else [m[i][j], _Num("0")]
    elif kind == "ragged" and len(m) > 1:
        m[-1].pop()
    elif kind == "bad":
        m[i][draw(st.integers(0, len(m[i]) - 1))] = draw(st.sampled_from(_BAD_ENTRIES))
    elif kind == "row":
        m[i] = _Num("1")
    elif kind == "empty":
        m = []
    return m


def _with_one_flaw(draw, slots):
    """Half the documents as drawn; in the other half one matrix, of the
    ``(container, key)`` slots, gets one flaw (``_mutated``)."""
    if slots and draw(st.booleans()):
        container, key = draw(st.sampled_from(slots))
        container[key] = _mutated(draw, container[key])


def _oracle_matrix(obj, field):
    """``json.load``'s value of a matrix decoded entry by entry, as the loaders
    did one matrix at a time."""
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{field}: expected a nonempty row-major matrix", field=field)
    return _decode_per_entry(obj, field)


@st.composite
def _complex_doc(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    style = draw(_STYLES)
    diffs = [draw(_json_matrix(style, m, n, _ANY))]
    grams = [draw(_json_matrix(style, d, d, _SMALL, _LARGE, symmetric=True)) for d in (n, m)]
    _with_one_flaw(draw, [(diffs, 0), (grams, 0), (grams, 1)])
    return {"dims": [_Num(n), _Num(m)], "differentials": diffs, "grams": grams}


@st.composite
def _morse_doc(draw):
    pairs, rank, style = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(_STYLES)
    points, instantons, forms = [], [], {}
    for k in range(pairs):
        points += [{"id": f"m{k}", "index": _Num(0)}, {"id": f"M{k}", "index": _Num(1)}]
        for target, sign in ((f"m{k}", -1), (f"m{(k + 1) % pairs}", 1)):
            ins = {"from": f"M{k}", "to": target, "sign": _Num(sign)}
            if draw(st.integers(0, 4)):  # else the identity
                ins["holonomy"] = draw(_json_matrix(style, rank, rank, _SMALL, _LARGE))
            instantons.append(ins)
    for point in points:
        forms[point["id"]] = draw(_json_matrix(style, rank, rank, _SMALL, _LARGE,
                                               symmetric=True))
    _with_one_flaw(draw, [(ins, "holonomy") for ins in instantons if "holonomy" in ins]
                   + [(forms, label) for label in forms])
    return {"rank": _Num(rank), "points": points, "instantons": instantons, "forms": forms}


def _complex_oracle(doc):
    n, m = doc["dims"]
    diff = doc["differentials"][0]
    mats = [_oracle_matrix(diff, "differentials[0]") if diff else np.zeros((m, n), complex)]
    for i, g in enumerate(doc["grams"]):
        mats.append(_oracle_matrix(g, f"grams[{i}]") if g else np.eye(doc["dims"][i],
                                                                        dtype=complex))
    return mats


def _complex_loaded(path):
    complex_, structure, _ = load_graded_complex(path)
    return [*complex_.differentials, *structure.grams]


def _morse_oracle(doc):
    mats = [_oracle_matrix(ins["holonomy"], f"instantons[{i}].holonomy")
            if "holonomy" in ins else np.eye(doc["rank"], dtype=complex)
            for i, ins in enumerate(doc["instantons"])]
    return mats + [_oracle_matrix(f, f"forms[{k}]") for k, f in doc["forms"].items()]


def _morse_loaded(path):
    ms, forms = load_morse_system(path)
    return [ins.holonomy for ins in ms.instantons] + list(forms.forms.values())


class TestLoadersMatchJsonOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.tuples(_complex_doc(), st.just("complex")),
                     st.tuples(_morse_doc(), st.just("morse"))), st.data())
    def test_file_loads_bit_equal_to_json_and_per_entry_decoding(self, tmp_path_factory,
                                                                 case, data):
        """A seeded document written to a file: the loader's C parse and stacked
        decoding give every matrix bit for bit as ``json.load`` and entry-by-entry
        decoding do, or the same SchemaError, message and field."""
        doc, kind = case
        path = tmp_path_factory.mktemp("doc") / f"{kind}.json"
        path.write_text(_dump(doc))
        with open(path) as fh:
            parsed = json.load(fh)
        oracle, loaded = ((_complex_oracle, _complex_loaded) if kind == "complex"
                          else (_morse_oracle, _morse_loaded))
        try:
            expected = oracle(parsed)
        except SchemaError as exc:
            with pytest.raises(SchemaError) as info:
                loaded(str(path))
            assert (str(info.value), info.value.field) == (str(exc), exc.field)
            return
        got = loaded(str(path))
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert a.dtype == complex and a.shape == b.shape
            assert np.array_equal(_bits(a), _bits(b))

    def test_stack_is_one_asarray(self, monkeypatch):
        """A well-formed morse.json decodes its holonomies and its forms as two
        stacks, with no matrix decoded on its own."""
        def refuse(obj, field="matrix"):
            raise AssertionError(f"{field} decoded on its own")

        monkeypatch.setattr(serialize, "decode_matrix", refuse)
        doc = {"rank": 1, "points": [{"id": "m0", "index": 0}, {"id": "M0", "index": 1}],
               "instantons": [{"from": "M0", "to": "m0", "sign": -1, "holonomy": [[[1, 0]]]},
                              {"from": "M0", "to": "m0", "sign": 1, "holonomy": [[[3, 0]]]}],
               "forms": {"m0": [[1]], "M0": [[2.5]]}}
        ms, forms = load_morse_system(doc)
        assert ms.instantons[1].holonomy[0, 0] == 3.0
        assert forms.forms["M0"][0, 0] == 2.5
        doc["forms"] = {"m0": [[[1, -0.0]]], "M0": [[[2, 5e-324]]]}
        forms = load_morse_system(doc)[1]
        assert _bits(forms.forms["M0"]).tolist() == _bits(np.array([[2 + 5e-324j]])).tolist()


def _morse_case(hol=None, m0=None, big_m0=None, rank=1):
    """A two-point circle morse.json: the second instanton carries ``hol`` (by
    default 3) and the points the forms ``m0`` and ``big_m0`` (by default 1)."""
    eye = np.eye(rank).tolist()
    return {"rank": rank, "points": [{"id": "m0", "index": 0}, {"id": "M0", "index": 1}],
            "instantons": [{"from": "M0", "to": "m0", "sign": -1, "holonomy": eye},
                           {"from": "M0", "to": "m0", "sign": 1, "holonomy": hol or [[3]]}],
            "forms": {"m0": m0 or [[1]], "M0": big_m0 or [[1]]}}


def _two_pair_case(points=(), instantons=()):
    """A well-formed two-pair morse.json whose ``points`` and ``instantons``
    entries at the given positions are replaced: each argument is a sequence
    of (position, entry) pairs."""
    doc = {"points": [{"id": "m0", "index": 0}, {"id": "M0", "index": 1},
                      {"id": "m1", "index": 0}, {"id": "M1", "index": 1}],
           "instantons": [{"from": "M0", "to": "m0", "sign": -1},
                          {"from": "M0", "to": "m1", "sign": 1},
                          {"from": "M1", "to": "m1", "sign": -1},
                          {"from": "M1", "to": "m0", "sign": 1}]}
    for key, entries in (("points", points), ("instantons", instantons)):
        for i, entry in entries:
            doc[key][i] = entry
    return doc


_NAN, _INF = float("nan"), float("inf")


class TestLoaderRefusals:
    """The stacked checks refuse what the matrix-by-matrix ones did, with the
    same error and message, naming the same point or instanton."""

    @pytest.mark.parametrize("doc, error, message", [
        (_morse_case(big_m0=[[[_NAN, 0]]]), InvalidMatrixError,
         "form[M0] contains non-finite entries"),
        (_morse_case(m0=[[_INF]], big_m0=[[_NAN]]), InvalidMatrixError,
         "form[m0] contains non-finite entries"),
        (_morse_case(hol=[[_NAN]]), InvalidMatrixError, "holonomy contains non-finite entries"),
        (_morse_case(hol=[[[1, _INF]]]), InvalidMatrixError,
         "holonomy contains non-finite entries"),
        (_morse_case(m0=[[1, 0]], big_m0=[[1, 0]]), DimensionError,
         "form[m0] must be square, got shape (1, 2)"),
        (_morse_case(hol=[[1, 2]]), DimensionError, "holonomy must be square, got shape (1, 2)"),
        (_morse_case(hol=[[1, 0], [0, 1]]), DimensionError, "instanton holonomy has wrong rank"),
        (_morse_case(m0=[[1]], big_m0=[[1, 0], [0, 1]]), DimensionError,
         "critical forms differ in shape: [(1, 1), (2, 2)]"),
    ], ids=["nan_form", "first_nonfinite_form", "nan_holonomy", "inf_holonomy_pair",
            "nonsquare_form", "nonsquare_holonomy", "wrong_rank_holonomy", "shapes_differ"])
    def test_dict_document(self, doc, error, message):
        with pytest.raises(error) as info:
            load_morse_system(doc)
        assert str(info.value) == message

    @pytest.mark.parametrize("doc, error, message", [
        (_morse_case(rank=2, hol=[[1, 0], [0, 2]], m0=[[1, 0], [0, 1]], big_m0=[[1, 2], [0, 1]]),
         DegenerateFormError, "critical form at M0 not symmetric"),
        (_morse_case(rank=2, hol=[[1, 0], [0, 2]], m0=[[1, 0], [0, 1]], big_m0=[[1, 1], [1, 1]]),
         DegenerateFormError, "critical form at M0 degenerate"),
        (_morse_case(hol=[[[0, 0]]]), HolonomyError, "instanton M0->m0 holonomy singular"),
    ], ids=["asymmetric_form", "degenerate_form", "singular_holonomy"])
    def test_file(self, tmp_path, doc, error, message):
        path = tmp_path / "morse.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(error) as info:
            load_morse_system(str(path))
        assert str(info.value) == message

    @pytest.mark.parametrize("argv, text", [
        (["spectral", "{}", "--op", "rstorsion"], '{"lambda": [NaN, 0]}'),
        (["spectral", "{}", "--op", "zetadet"], '{"lambda": [2, 0], "L": Infinity}'),
        (["spectral", "{}", "--op", "zetadet"], '{"lambda": [-Infinity, 0]}'),
        (["torsion", "finite", "{}"], '{"dims": [1, 1], "differentials": [[[1e400]]]}'),
    ], ids=["nan", "infinity", "minus_infinity", "out_of_range"])
    def test_non_finite_literal_is_invalid_json(self, tmp_path, capsys, argv, text):
        """NaN, Infinity and 1e400 are not JSON numbers (RFC 8259): exit code 2."""
        path = tmp_path / "doc.json"
        path.write_text(text)
        assert main([a.format(path) for a in argv]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_integer_beyond_64_bits_is_refused_by_name(self, tmp_path, capsys):
        path = tmp_path / "complex.json"
        path.write_text('{"dims": [18446744073709551616, 1]}')
        assert main(["torsion", "finite", str(path)]) == 2
        assert "(field: dims[0])" in capsys.readouterr().err


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

    @pytest.mark.parametrize("argv", [["--euler", "M1=1"], ["--euler", "M0=1,zz=0"],
                                      ["--base-point", "zz"]],
                             ids=["winding", "second_winding", "base_point"])
    def test_torsion_turaev_unknown_label(self, morse, capsys, argv):
        """A label that is not a point of the system exits 1 with ShapeError;
        ``--euler M1=1`` on this one-pair system printed the class-0 value."""
        assert main(["torsion", "turaev", morse, *argv]) == 1
        assert "ShapeError" in capsys.readouterr().err

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

    @pytest.mark.parametrize("t_param, ok", [("5", "True"), ("20", "True"), ("2", "False")])
    def test_spectral_witten_band_pass(self, circle, capsys, t_param, ok):
        """The band mu_1 comes from the minors of K (``band_sweep``) and passes
        when its Newton ratio and noise floor are within the gate that the
        tolerance column holds: at T = 20 mu_1 is 5.7e-35, far below what an
        eigensolver resolves; at T = 2 the ratio mu_1 / mu_2 is 1.6e-4."""
        assert main(["spectral", circle, "--op", "witten", "--T", t_param, "--grid", "512"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[-2:]]
        assert [r[0] for r in rows] == ["witten_counts", "witten_band"]
        assert (rows[1][4], rows[1][5]) == ("0.0001", ok)
        assert 0.0 < float(rows[1][2]) < 1e-4 and float(rows[1][3]) == 0.0

    @pytest.mark.parametrize("holonomy, f, t_param, ok", [
        (2.0, {"kind": "cos", "wells": 1}, "10", "True"),
        (10.0, {"kind": "cos", "wells": 2}, "0", "False"),  # one eigenvalue within 1, two wells
    ], ids=["one_well_T10", "two_wells_T0"])
    def test_spectral_witten_counts_pass_is_computed(self, tmp_path, capsys, holonomy, f,
                                                     t_param, ok):
        """The counts pass when they equal rank x minima in each degree."""
        path = tmp_path / "circle.json"
        path.write_text(json.dumps({"lambda": [holonomy, 0.0], "f": f}))
        assert main(["spectral", str(path), "--op", "witten", "--T", t_param, "--grid", "64"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
                if line.startswith("witten")]
        assert rows[0][0] == "witten_counts" and rows[0][5] == ok
        assert [r[0] for r in rows[1:]] == ["witten_band"]

    def test_spectral_witten_refuses_without_potential(self, tmp_path, capsys):
        """Without a potential there is no deformation and no Morse count: the
        op exits 1 with DimensionError at every T, and writes no row."""
        path = tmp_path / "circle.json"
        for holonomy in (2.0, 10.0):
            path.write_text(json.dumps({"lambda": [holonomy, 0.0]}))
            for t_param in ("0", "10"):
                assert main(["spectral", str(path), "--op", "witten", "--T", t_param,
                             "--grid", "64"]) == 1
                out, err = capsys.readouterr()
                assert "DimensionError" in err and "witten" not in out

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

    def test_spectral_spectrum(self, tmp_path, capsys):
        """The 8 rows are the lowest discrete eigenvalues of K^T K, bit for bit."""
        path = tmp_path / "circle.json"
        path.write_text(json.dumps({"lambda": [2.0, 0.0], "f": {"kind": "cos", "wells": 1}}))
        assert main(["spectral", str(path), "--op", "spectrum", "--grid", "64"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
                if line.startswith("spectrum,")]
        want = build_discrete(load_circle_model(str(path))[0], 64).eigenvalues()[:8]
        assert [complex(float(r[2]), float(r[3])) for r in rows] == want.tolist()
        assert [r[1] for r in rows] == [f"n={k};N=64" for k in range(8)]
        assert float(rows[0][2]) == 0.012170135974131384

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
        (["spectral", "{}", "--op", "rstorsion"],
         {"lambda": [2.0, 0.0], "flat": True, "phi": {"kind": "sin", "amp": 0.3}}, "flat"),
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
        (["torsion", "morse", "{}"], _two_pair_case(points=[(2, {"index": 0})]), "id"),
        (["torsion", "morse", "{}"],
         _two_pair_case(points=[(1, {"id": "M0", "index": True})]), "points[1].index"),
        (["torsion", "morse", "{}"],
         _two_pair_case(instantons=[(1, {"from": "M0", "sign": 1})]), "to"),
        (["torsion", "morse", "{}"],
         _two_pair_case(instantons=[(2, {"from": "M1", "to": "m1", "sign": 1.0})]),
         "instantons[2].sign"),
        (["torsion", "morse", "{}"], _two_pair_case(instantons=[(3, ["M1", "m0", 1])]),
         "instantons[3]"),
        (["torsion", "turaev", "{}", "--euler", "M0=x"], _morse_case(), "--euler"),
        (["torsion", "turaev", "{}", "--euler", "M0"], _morse_case(), "--euler"),
    ], ids=["N", "dims", "index", "phi", "dims_array", "generators_array", "point_object",
            "instanton_object", "forms_object", "document_object", "flat_string",
            "flat_integer", "flat_nonzero_phi", "N_float", "N_bool", "N_string", "wells_float",
            "wells_negative", "wells_zero", "lambda_bool", "dims_float", "dims_bool", "rank_float",
            "index_bool", "sign_float", "T_bool", "L_string", "amp_bool",
            "lambda_pair_string", "phi_kind", "f_kind", "later_point_id", "later_index_bool",
            "later_instanton_to", "later_sign_float", "later_instanton_list", "euler_winding",
            "euler_no_winding"])
    def test_malformed_field_is_schema_error(self, tmp_path, capsys, argv, doc, field):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main([a.format(path) for a in argv]) == 2
        assert f"(field: {field})" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, where", [
        (_two_pair_case(points=[(2, {"index": 0})]), "'id' in points[2]"),
        (_two_pair_case(instantons=[(1, {"from": "M0", "sign": 1})]), "'to' in instantons[1]"),
    ], ids=["point_id", "instanton_to"])
    def test_missing_field_names_its_entry(self, tmp_path, capsys, doc, where):
        """A required key missing from an entry after well-formed ones: the
        message names that entry."""
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["torsion", "morse", str(path)]) == 2
        assert f"missing required field {where}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, phi", [
        (["--op", "bz"], {"kind": "zero"}),
        (["--op", "rstorsion", "--method", "exact", "--cut", "0.5"], {"kind": "zero"}),
        (["--op", "rstorsion", "--method", "gy"], {"kind": "zero"}),
        (["--op", "rstorsion", "--method", "discrete"], {"kind": "zero"}),
        (["--op", "rstorsion", "--method", "discrete"], {"kind": "sin", "amp": 0.0}),
        (["--op", "thm33", "--T-list", "4,10"], {"kind": "zero"}),
        (["--op", "witten", "--T", "10"], {"kind": "zero"}),
    ], ids=["bz", "rs_exact", "rs_gy", "rs_discrete", "rs_discrete_amp_0", "thm33", "witten"])
    def test_flat_with_zero_phi_changes_no_byte(self, tmp_path, argv, phi):
        """``flat`` is read for compatibility: with a zero phi (kind zero, or
        amplitude 0), true writes the CSV bytes of false."""
        out = {}
        for flat in (False, True):
            path = tmp_path / f"circle_{flat}.json"
            path.write_text(json.dumps({"lambda": [2.0, 0.0], "phi": phi, "N": 64, "flat": flat,
                                        "f": {"kind": "cos", "wells": 2}}))
            out[flat] = tmp_path / f"out_{flat}.csv"
            assert main(["--out", str(out[flat]), "spectral", str(path), *argv]) == 0
        assert out[True].read_bytes() == out[False].read_bytes()

    def test_zero_amplitude_phi_writes_the_zero_phi_bytes(self, tmp_path):
        """``spectral --op bz`` on a phi of amplitude 0 prints the CSV of the
        zero phi, not a ThetaNotZeroError."""
        out = {}
        for name, phi in (("zero", {"kind": "zero"}), ("amp0", {"kind": "sin", "amp": 0.0})):
            path = tmp_path / f"circle_{name}.json"
            path.write_text(json.dumps({"lambda": [2.0, 0.0], "phi": phi,
                                        "f": {"kind": "cos", "wells": 1}}))
            out[name] = tmp_path / f"out_{name}.csv"
            assert main(["--out", str(out[name]), "spectral", str(path), "--op", "bz"]) == 0
        assert out["amp0"].read_bytes() == out["zero"].read_bytes()

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
