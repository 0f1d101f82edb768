"""JSON input schemas and deterministic CSV output.

Complex numbers travel as [re, im] pairs in JSON and as split _re/_im columns
in CSV. Schema violations raise SchemaError carrying the offending field.

A file is read as bytes and parsed by orjson, imported at the first load, so
``import bitorsion`` does not load it. orjson keeps to RFC 8259: ``NaN``,
``Infinity`` and a number beyond double range such as ``1e400`` are invalid
JSON, and an integer beyond 64 bits arrives as a float, which an integer
field refuses. A dict document is taken as it is, non-finite numbers and all.
Each matrix is decoded by one ``np.asarray``, and so is each stack of
matrices in a ``morse.json``: the instanton holonomies and the critical forms.
A document that is not well formed is decoded entry by entry instead, so that
the SchemaError names the offending entry.

``write_rows_csv`` rewrites an existing output file in place and cuts it to
the new length, with no truncation to zero first; see its docstring for why
and for what a crash mid-rewrite leaves.
"""

import csv
import io
import os
import stat

import numpy as np

from .circle import make_circle_model
from .complexes import BilinearStructure, CohomologyData, GradedComplex
from .errors import SchemaError
from .morse import CriticalForms, CriticalPoint, Instanton, MorseSystem
from .turaev import KnotPresentation

__all__ = [
    "decode_complex_number",
    "decode_matrix",
    "load_graded_complex",
    "load_morse_system",
    "load_knot",
    "load_circle_model",
    "write_rows_csv",
    "format_complex",
]


def _is_number(obj):
    """A JSON number: an int or a float, not a bool."""
    return isinstance(obj, (int, float)) and not isinstance(obj, bool)


def decode_complex_number(obj, field="value"):
    if _is_number(obj):
        return complex(obj)
    if isinstance(obj, (list, tuple)) and len(obj) == 2 and all(map(_is_number, obj)):
        return complex(float(obj[0]), float(obj[1]))
    raise SchemaError(f"{field}: expected number or [re, im] pair, got {obj!r}", field=field)


def decode_matrix(obj, field="matrix"):
    """A row-major JSON matrix of numbers or of [re, im] pairs as complex128.

    A well-formed matrix is decoded by one ``np.asarray``; pairs are viewed as
    complex, bit for bit. Anything else goes entry by entry, so that the
    SchemaError names the offending entry.
    """
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{field}: expected a nonempty row-major matrix", field=field)
    if all(isinstance(row, list) for row in obj):
        a = _numeric_as_complex(obj, 2)
        if a is not None:
            return a
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise SchemaError(f"{field}[{i}]: expected a list row", field=f"{field}[{i}]")
        rows.append([decode_complex_number(x, f"{field}[{i}][{j}]") for j, x in enumerate(row)])
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise SchemaError(f"{field}: ragged rows", field=field)
    return np.array(rows, dtype=complex)


def _numeric_as_complex(obj, ndim):
    """``obj`` as complex128 by one ``np.asarray`` if it is an ``ndim``-dimensional
    array of numbers, or one of [re, im] pairs, viewed as complex bit for bit;
    else None."""
    try:
        a = np.asarray(obj)
    except ValueError:  # ragged rows, or numbers mixed with pairs
        return None
    if a.dtype.kind in "iuf":
        if a.ndim == ndim:
            return a.astype(complex)
        if a.ndim == ndim + 1 and a.shape[-1] == 2:
            return np.ascontiguousarray(a, dtype=float).view(complex)[..., 0]
    return None


def _decode_matrices(objs, field, keys):
    """JSON matrices as one complex128 stack (k, n, m) by one ``np.asarray``
    when every one is a nonempty list of list rows and all share one shape, of
    numbers or of pairs: each the value ``decode_matrix`` gives it, bit for bit.
    Otherwise a list of ``decode_matrix`` results, one matrix at a time, so that
    the SchemaError names the first offending matrix, ``field.format(key)``
    with its key from ``keys``."""
    if ({type(m) for m in objs} == {list} and all(objs)
            and {type(row) for m in objs for row in m} == {list}):
        a = _numeric_as_complex(objs, 3)
        if a is not None:
            return a
    return [decode_matrix(m, field.format(key)) for m, key in zip(objs, keys)]


def _scalar(obj, kind, field):
    """A JSON scalar of type ``kind`` (float, int or bool), else a SchemaError.
    A float field takes any JSON number; an int or bool field only its own
    type. ``int(64.9)``, ``float(True)``, ``float("6.28")`` and ``bool("false")``
    would all succeed with a wrong or unchecked value."""
    if type(obj) is kind or (kind is float and _is_number(obj)):
        return kind(obj)
    raise SchemaError(f"{field}: expected {kind.__name__}, got {obj!r}", field=field)


def _container(obj, kind, field):
    """A JSON array (``kind`` list) or object (``kind`` dict); any other value is a
    SchemaError."""
    if not isinstance(obj, kind):
        name = "array" if kind is list else "object"
        raise SchemaError(f"{field}: expected a JSON {name}, got {obj!r}", field=field)
    return obj


def _require(doc, key, where):
    if key not in doc:
        raise SchemaError(f"missing required field '{key}' in {where}", field=key)
    return doc[key]


def _load_json(path_or_doc, where):
    if isinstance(path_or_doc, dict):
        return path_or_doc
    import orjson  # late: a process that reads no file never imports it

    try:
        with open(path_or_doc, "rb") as fh:
            doc = orjson.loads(fh.read())
    except orjson.JSONDecodeError as exc:
        raise SchemaError(f"{where}: invalid JSON ({exc})", field=None) from exc
    except OSError as exc:
        raise SchemaError(f"{where}: cannot read ({exc})", field=None) from exc
    return _container(doc, dict, where)


def load_graded_complex(path_or_doc):
    """complex.json: { dims, differentials, grams, cohomology? }."""
    doc = _load_json(path_or_doc, "complex.json")
    dims_doc = _container(_require(doc, "dims", "complex.json"), list, "dims")
    dims = tuple(_scalar(d, int, f"dims[{i}]") for i, d in enumerate(dims_doc))
    diffs = []
    for i, entry in enumerate(_container(doc.get("differentials", []), list, "differentials")):
        if not entry:
            rows = dims[i + 1] if i + 1 < len(dims) else 0
            diffs.append(np.zeros((rows, dims[i]), dtype=complex))
        else:
            diffs.append(decode_matrix(entry, f"differentials[{i}]"))
    while len(diffs) < max(len(dims) - 1, 0):
        i = len(diffs)
        diffs.append(np.zeros((dims[i + 1], dims[i]), dtype=complex))
    complex_ = GradedComplex(dims, tuple(diffs))
    grams = doc.get("grams")
    if grams is None:
        structure = BilinearStructure.standard(dims)
    else:
        structure = BilinearStructure(
            tuple(decode_matrix(g, f"grams[{i}]") if g else np.eye(dims[i], dtype=complex)
                  for i, g in enumerate(_container(grams, list, "grams")))
        )
    h = None
    if doc.get("cohomology") is not None:
        h = CohomologyData(
            tuple(
                decode_matrix(b, f"cohomology[{i}]")
                if b else np.zeros((dims[i], 0), dtype=complex)
                for i, b in enumerate(_container(doc["cohomology"], list, "cohomology"))
            )
        )
    return complex_, structure, h


def _points(entries):
    """The CriticalPoints of a ``points`` array. When every entry is a dict
    with an ``id`` and an int ``index`` they are read in one pass; otherwise
    entry by entry, so that the SchemaError names the first offending field."""
    if all(type(p) is dict and "id" in p and type(p.get("index")) is int for p in entries):
        return [CriticalPoint(str(p["id"]), p["index"]) for p in entries]
    points = []
    for i, p in enumerate(entries):
        p = _container(p, dict, f"points[{i}]")
        points.append(CriticalPoint(str(_require(p, "id", f"points[{i}]")),
                                    _scalar(_require(p, "index", f"points[{i}]"), int,
                                            f"points[{i}].index")))
    return points


def _instanton_fields(entries):
    """(source, target, sign) and the holonomy document, None when absent, of
    each entry of an ``instantons`` array. When every entry is a dict with a
    ``from``, a ``to`` and an int ``sign`` they are read in one pass; otherwise
    entry by entry, so that the SchemaError names the first offending field."""
    if all(type(ins) is dict and "from" in ins and "to" in ins and type(ins.get("sign")) is int
           for ins in entries):
        return ([(str(ins["from"]), str(ins["to"]), ins["sign"]) for ins in entries],
                [ins.get("holonomy") for ins in entries])
    ends, hols = [], []
    for i, ins in enumerate(entries):
        ins = _container(ins, dict, f"instantons[{i}]")
        ends.append((str(_require(ins, "from", f"instantons[{i}]")),
                     str(_require(ins, "to", f"instantons[{i}]")),
                     _scalar(_require(ins, "sign", f"instantons[{i}]"), int,
                             f"instantons[{i}].sign")))
        hols.append(ins.get("holonomy"))
    return ends, hols


def load_morse_system(path_or_doc):
    """morse.json: { rank, points: [{id,index}], instantons: [...], forms: {id: [[..]]} }."""
    doc = _load_json(path_or_doc, "morse.json")
    rank = _scalar(doc.get("rank", 1), int, "rank")
    points = _points(_container(_require(doc, "points", "morse.json"), list, "points"))
    ends, hols = _instanton_fields(_container(doc.get("instantons", []), list, "instantons"))
    given = [i for i, hol in enumerate(hols) if hol is not None]
    decoded = _decode_matrices([hols[i] for i in given], "instantons[{}].holonomy", given)
    for i, mat in zip(given, decoded):
        hols[i] = mat
    instantons = tuple(Instanton(*end, np.eye(rank, dtype=complex) if hol is None else hol)
                       for end, hol in zip(ends, hols))
    ms = MorseSystem(tuple(points), instantons, rank=rank)
    forms_doc = doc.get("forms")
    if forms_doc:
        forms_doc = _container(forms_doc, dict, "forms")
        forms = CriticalForms(dict(zip(forms_doc, _decode_matrices(
            list(forms_doc.values()), "forms[{}]", forms_doc))))
    else:
        forms = CriticalForms.standard(ms)
    return ms, forms


def load_knot(path_or_doc):
    """knot.json: { generators: [...], relators: ["a b A B", ...] }."""
    doc = _load_json(path_or_doc, "knot.json")
    gens = tuple(str(g) for g in
                 _container(_require(doc, "generators", "knot.json"), list, "generators"))
    rels = tuple(str(r) for r in _container(doc.get("relators", []), list, "relators"))
    return KnotPresentation(gens, rels)


def load_circle_model(path_or_doc):
    """circle.json: { L, lambda, phi: {kind, amp}, f: {kind, wells}, N?, T?, flat? }."""
    doc = _load_json(path_or_doc, "circle.json")
    length = _scalar(doc.get("L", 2.0 * np.pi), float, "L")
    lam_doc = _require(doc, "lambda", "circle.json")
    if isinstance(lam_doc, list) and lam_doc and isinstance(lam_doc[0], list):
        lam = decode_matrix(lam_doc, "lambda")
    else:
        lam = decode_complex_number(lam_doc, "lambda")
    phi_doc = _container(doc.get("phi", {"kind": "zero"}), dict, "phi")
    phi = (str(phi_doc.get("kind", "zero")), _scalar(phi_doc.get("amp", 0.0), float, "phi.amp"))
    f_doc = _container(doc.get("f") or {}, dict, "f")
    f = ((str(f_doc.get("kind", "cos")), _scalar(f_doc.get("wells", 1), int, "f.wells"))
         if f_doc else None)
    if f and f[1] < 1:
        raise SchemaError(f"f.wells: expected at least 1, got {f[1]}", field="f.wells")
    flat = _scalar(doc.get("flat", False), bool, "flat")
    model = make_circle_model(lam, length=length, phi=phi, f=f)
    if flat and model.phi.sup_norm_bound() != 0.0:
        raise SchemaError("flat: flat windows were removed; true is accepted only with a zero phi",
                          field="flat")
    extras = {"N": _scalar(doc.get("N", 256), int, "N"),
              "T": _scalar(doc.get("T", 0.0), float, "T")}
    return model, extras


def format_complex(z):
    z = complex(z)
    return f"{z.real:.17g}", f"{z.imag:.17g}"


def write_rows_csv(rows, header, out=None):
    """Deterministic CSV: fixed header, %.17g complex columns, \n newlines.

    Returns the text and, given ``out``, writes it there in the encoding
    ``open(out, "w")`` uses. A regular file is overwritten in place: opened
    without truncation (a new one with the mode ``open`` gives under the
    umask), written from offset 0, then cut where the text ends. Truncating
    to zero first would make ext4 (``auto_da_alloc``) flush the file at
    close, and the next truncating open of the path wait for that flush;
    in a loop of small rewrites that wait was most of a write's time. A
    character device or FIFO (``/dev/stdout``, ``/dev/null``) is written
    without the cut. A write that raises leaves a regular file empty, as a
    failed truncating write would, and the error is raised.

    Neither form is atomic, and neither is promised: after a crash
    mid-rewrite the file may hold old bytes, new bytes or a mix. It is never
    cut to length zero on the way, which is the case ext4's flush on
    truncation guards against.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        flat = []
        for item in row:
            if isinstance(item, complex):
                flat.extend(format_complex(item))
            elif isinstance(item, float):
                flat.append(f"{item:.17g}")
            else:
                flat.append(str(item))
        writer.writerow(flat)
    text = buf.getvalue()
    if out:
        import locale  # the encoding ``open(out, "w")`` takes

        fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            regular = stat.S_ISREG(os.fstat(fd).st_mode)
            try:
                view = memoryview(text.encode(locale.getpreferredencoding(False)))
                end = len(view)
                while view:
                    view = view[os.write(fd, view):]
            except BaseException:
                if regular:
                    os.ftruncate(fd, 0)
                raise
            if regular:
                os.ftruncate(fd, end)
        finally:
            os.close(fd)
    return text
