"""Euler structures on the circle, Turaev torsion, and Fox-calculus Alexander polynomials.

An Euler structure here is combinatorial: a base point and, for each critical
point, a spider path recorded as a winding count (full loops prepended to the
direct counterclockwise path from the base point). The Turaev torsion parallel
transports a single reference form b0 from the base point along each spider
path and feeds the resulting critical forms to the Milnor torsion. With
vanishing Euler characteristic the value depends only on the Euler structure,
which on the circle is classified by one integer.

The Alexander polynomial is computed by Fox free differential calculus on a
deficiency-1 presentation, abelianized to Z[t, 1/t]; each relator is parsed
once, when the presentation is made. The determinant of its minor is taken
exactly in two stages: sparse elimination on unit pivots +-t^e, which needs
no division and removes one generator per pivot (Wirtinger and braid-closure
relators each have one), then fraction-free (Bareiss) elimination of the
small dense block that is left, each division an exact long division. The
Fox rows and the first stage work on plain {exponent: coefficient} dicts,
updated in place with zero terms dropped as they appear; the Bareiss block
and the result are IntPolys. It is normalized so the lowest exponent is zero
and the leading coefficient positive.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DimensionError,
    EulerCharacteristicError,
    HolonomyError,
    PresentationError,
    ShapeError,
    UnsupportedSystemError,
)
from .morse import (CircleGeometry, CriticalForms, MorseSystem, circle_layout, circle_loop,
                    milnor_torsion)
from .numkernel import as_cmatrix, lu_det

__all__ = [
    "Representation",
    "EulerStructure",
    "turaev_torsion",
    "euler_class_circle",
    "KnotPresentation",
    "fox_alexander",
    "knot_from_braid",
    "IntPoly",
]


@dataclass(frozen=True)
class Representation:
    """Fundamental-group representation: generator label -> invertible matrix."""

    images: dict
    rank: int

    def __post_init__(self):
        checked = {}
        for gen, m in self.images.items():
            a = as_cmatrix(m, square=True, name=f"rep[{gen}]")
            if a.shape != (self.rank, self.rank):
                raise DimensionError(f"rep[{gen}] has wrong size")
            if abs(lu_det(a)) == 0.0:
                raise HolonomyError(f"rep[{gen}] is singular")
            checked[gen] = a
        object.__setattr__(self, "images", checked)

    def loop(self):
        """Image of the distinguished circle generator."""
        if len(self.images) != 1:
            raise ShapeError("circle representation must have a single generator")
        return next(iter(self.images.values()))


@dataclass(frozen=True)
class EulerStructure:
    """Base point plus per-point spider windings (full loops before the direct path)."""

    base_point: str
    windings: dict


def ensure_circle_geometry(ms: MorseSystem):
    """Attach canonical circle geometry to a bare alternating min/max system.

    Points are laid out in their given order, minima on even slots, as
    ``make_circle_morse``'s ``circle_layout`` lays them. Arc j runs from slot
    j to slot j + 1 and, as ``circle_system`` orients it, holds the instanton
    M_{j/2} -> m_{j/2} with sign -1 when j is even and M_{(j-1)/2} -> the next
    m with sign +1 when j is odd. When exactly one instanton carries a
    non-identity transport and it is one of those, the seam lies inside its
    arc; otherwise, as for a trivial or spread holonomy, inside the closing
    arc.
    """
    if ms.geometry is not None:
        return ms
    mins = [p.label for p in ms.points if p.index == 0]
    maxs = [p.label for p in ms.points if p.index == 1]
    n = len(mins)
    if len(maxs) != n or not mins or ms.degree_count() != 2:
        raise UnsupportedSystemError(
            "cannot synthesize circle geometry: need equal counts of minima and maxima"
        )
    arcs = {}  # (source, target, sign) -> arc
    for k in range(n):
        arcs[maxs[k], mins[k], -1] = 2 * k
        arcs[maxs[k], mins[(k + 1) % n], 1] = 2 * k + 1
    transports = np.array([ins.holonomy for ins in ms.instantons]).reshape(-1, ms.rank, ms.rank)
    carriers = np.flatnonzero(np.any(transports != np.eye(ms.rank), axis=(1, 2)))
    seam_arc = 2 * n - 1
    if len(carriers) == 1:
        ins = ms.instantons[carriers[0]]
        seam_arc = arcs.get((ins.source, ins.target, ins.sign), seam_arc)
    positions, seam = circle_layout(n, seam_arc)
    labels = [label for pair in zip(mins, maxs) for label in pair]
    return replace(ms, geometry=CircleGeometry(dict(zip(labels, positions)), seam))


def _spider_powers(ms: MorseSystem, e: EulerStructure):
    """{label: windings + seam crossings}: the power of the loop that
    transports a form from the base point along each point's spider, the
    windings' full loops then the direct counterclockwise path. A base point
    or winding label that is not a point of the system is a ShapeError."""
    geom = ms.geometry
    if geom is None:
        raise UnsupportedSystemError("operation requires a circle-shaped Morse system")
    unknown = [lab for lab in (e.base_point, *e.windings) if lab not in geom.positions]
    if unknown:
        raise ShapeError(f"Euler structure names {unknown[0]!r}, not a point of the system")
    length, base = geom.circumference, geom.positions[e.base_point]
    seam = (geom.seam_angle - base) % length
    return {p.label: int(e.windings.get(p.label, 0))
            + int(0 < seam < (geom.positions[p.label] - base) % length) for p in ms.points}


def turaev_torsion(ms: MorseSystem, rep: Representation, e: EulerStructure, b0, h=None, rng=None):
    """Milnor torsion with forms transported from b0 along the spider paths.

    Requires chi = 0. The value depends only on (bundle, Euler structure,
    flow): base point, b0 and individual spider representatives may be
    re-chosen freely at fixed Euler class. The loop image must be the system's
    counterclockwise loop, ``circle_loop``: HolonomyError otherwise.
    """
    if ms.euler_characteristic() != 0:
        raise EulerCharacteristicError(
            f"Turaev torsion needs chi = 0, got {ms.euler_characteristic()}"
        )
    loop = rep.loop()
    if np.max(np.abs(circle_loop(ms) - loop)) > 1e-9 * max(np.max(np.abs(loop)), 1.0):
        raise HolonomyError("representation inconsistent with instanton holonomies")
    b0 = as_cmatrix(b0, square=True, name="b0")
    if b0.shape != (ms.rank, ms.rank):
        raise DimensionError("b0 has wrong rank")
    forms = {}
    for label, power in _spider_powers(ms, e).items():
        ginv = np.linalg.inv(np.linalg.matrix_power(loop, power))
        forms[label] = ginv.T @ b0 @ ginv
    return milnor_torsion(ms, CriticalForms(forms), h=h, rng=rng)


def euler_class_circle(ms: MorseSystem, e: EulerStructure):
    """Integer class of sum_x (-1)^{ind x} sigma_x in the Eul(S^1) ~ Z torsor.

    Measured as the signed multiplicity with which the spider chain covers
    the seam point; canonical spiders (zero windings, base at the first
    minimum, seam on the closing arc) represent class zero.
    """
    powers = _spider_powers(ms, e)
    return sum((-1) ** p.index * powers[p.label] for p in ms.points)


# ----------------------------------------------------------------------------
# Fox calculus
# ----------------------------------------------------------------------------


class IntPoly:
    """Sparse integer Laurent polynomial in one variable.

    The constructor converts every exponent and coefficient with ``int`` and
    drops zero coefficients. Sums, differences, products and exact quotients
    are built by ``_of``, since they are already dicts of ints with no zero
    coefficient.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {int(e): int(c) for e, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def _of(cls, coeffs):
        """The IntPoly holding ``coeffs`` itself, unchecked: int exponents and
        nonzero int coefficients."""
        p = object.__new__(cls)
        p.coeffs = coeffs
        return p

    @classmethod
    def const(cls, c):
        return cls({0: c})

    @classmethod
    def monomial(cls, e, c=1):
        return cls({e: c})

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            c += out.get(e, 0)
            if c:
                out[e] = c
            else:
                del out[e]
        return IntPoly._of(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            c = out.get(e, 0) - c
            if c:
                out[e] = c
            else:
                del out[e]
        return IntPoly._of(out)

    def __neg__(self):
        return IntPoly._of({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return IntPoly._of({e: c for e, c in out.items() if c})

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def is_zero(self):
        return not self.coeffs

    def __call__(self, t):
        return sum(c * t**e for e, c in self.coeffs.items())

    def min_exp(self):
        return min(self.coeffs) if self.coeffs else 0

    def max_exp(self):
        return max(self.coeffs) if self.coeffs else 0

    def exact_div(self, d):
        """Quotient by d of a division known to be exact: top-down long division."""
        rem = dict(self.coeffs)
        top = d.max_exp()
        lead = d.coeffs[top]
        out = {}
        for e in range(self.max_exp() - top, self.min_exp() - d.min_exp() - 1, -1):
            c = rem.get(e + top, 0) // lead
            if c:
                out[e] = c
                for de, dc in d.coeffs.items():
                    rem[e + de] = rem.get(e + de, 0) - c * dc
        return IntPoly._of(out)

    def shifted(self, k):
        return IntPoly({e + k: c for e, c in self.coeffs.items()})

    def reversed_var(self):
        """p(1/t), re-normalized to lowest exponent zero."""
        q = IntPoly({-e: c for e, c in self.coeffs.items()})
        return q.shifted(-q.min_exp())

    def normalized(self):
        """Lowest exponent zero, positive leading coefficient, content 1."""
        if self.is_zero():
            return IntPoly()
        p = self.shifted(-self.min_exp())
        from math import gcd
        g = 0
        for c in p.coeffs.values():
            g = gcd(g, abs(c))
        if g > 1:
            p = IntPoly({e: c // g for e, c in p.coeffs.items()})
        if p.coeffs[p.max_exp()] < 0:
            p = -p
        return p

    def __str__(self):
        if self.is_zero():
            return "0"
        terms = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            mono = "1" if e == 0 else ("t" if e == 1 else f"t^{e}")
            if e == 0:
                body = f"{abs(c)}"
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            terms.append(("- " if c < 0 else "+ ") + body)
        lead = terms[0][2:] if terms[0].startswith("+ ") else "-" + terms[0][2:]
        return " ".join([lead] + terms[1:])

    __repr__ = __str__


@dataclass(frozen=True)
class KnotPresentation:
    """Deficiency-1 group presentation; relators are words like 'a b A B'.

    Uppercase letters denote inverses. Every relator must have zero total
    exponent sum, which every conjugation relation x w y^-1 w^-1 satisfies.
    Each relator is parsed once, here: ``letters`` holds it as
    ((generator index, +-1), ...), and is not part of equality or the hash.
    """

    generators: tuple
    relators: tuple
    letters: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gens = tuple(self.generators)
        if len(set(gens)) != len(gens):
            raise PresentationError("duplicate generators")
        if len(self.relators) != max(len(gens) - 1, 0):
            raise PresentationError(
                f"deficiency-1 presentation needs {len(gens) - 1} relators, "
                f"got {len(self.relators)}"
            )
        index = {g: i for i, g in enumerate(gens)}
        letters = []
        for word in self.relators:
            parsed = tuple(_parse_word(word, index))
            if sum(s for _, s in parsed) != 0:
                raise PresentationError(f"relator '{word}' has nonzero exponent sum")
            letters.append(parsed)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "relators", tuple(self.relators))
        object.__setattr__(self, "letters", tuple(letters))


def parse_word(word, generators):
    """'a b A' -> [(idx_a, +1), (idx_b, +1), (idx_a, -1)]; whitespace optional for 1-char names."""
    return _parse_word(word, {g: i for i, g in enumerate(generators)})


def _parse_word(word, index):
    """``parse_word`` with the generator index {name: position} given."""
    stripped = word.strip()
    out = []
    for tok in stripped.split() if " " in stripped else stripped:
        i = index.get(tok)
        if i is not None:
            out.append((i, +1))
            continue
        low = tok.lower()
        i = index.get(low)
        if i is None or tok == low:
            raise PresentationError(f"unknown letter '{tok}' in word '{word}'")
        out.append((i, -1))
    return out


def _fox_row(letters, n_gens):
    """Abelianized Fox derivatives of one relator with respect to every
    generator, each an {exponent: coefficient} dict with no zero coefficient.

    d(uv)/dx = du/dx + u dv/dx with u abelianized to t^{exponent sum}.
    """
    row = [{} for _ in range(n_gens)]
    prefix = 0
    for g, s in letters:
        if s < 0:
            prefix -= 1
        entry = row[g]
        c = entry.get(prefix, 0) + s
        if c:
            entry[prefix] = c
        else:
            del entry[prefix]
        if s > 0:
            prefix += 1
    return row


def _is_unit(p):
    """True for the {exponent: coefficient} dict of +-t^e, a unit of Z[t, 1/t]."""
    return len(p) == 1 and abs(next(iter(p.values()))) == 1


def _poly_det(mat):
    """Exact determinant over Z[t, 1/t] of a square matrix of {exponent:
    coefficient} dicts, as an IntPoly, in two stages.

    Stage 1 copies each row into a column -> entry dict and, while some entry
    is a unit u = c t^e, pivots on the first one found: the other rows clear
    its column by row_r -= a_rj u^{-1} row_i (no division, u^{-1} = c t^{-e}),
    the determinant picks up (-1)^{i+j} u with i, j the pivot's current
    positions, and the pivot's row and column are dropped. The entries are
    updated in place, each zero term dropped as it appears. This is Tietze
    elimination: every Wirtinger relator has a unit entry in its new
    generator's column. Stage 2 runs Bareiss elimination on the IntPoly block
    that is left.
    """
    rows = [{j: dict(a) for j, a in enumerate(row) if a} for row in mat]
    live_rows = list(range(len(rows)))
    live_cols = list(range(len(rows)))
    sign, shift = 1, 0
    while True:
        pivot = next(((pi, j, u) for pi, i in enumerate(live_rows)
                      for j, u in rows[i].items() if _is_unit(u)), None)
        if pivot is None:
            break
        pi, j, u = pivot
        (e, c), = u.items()
        pj = live_cols.index(j)
        sign *= c * (-1) ** (pi + pj)
        shift += e
        prow = rows[live_rows.pop(pi)]
        del live_cols[pj], prow[j]
        for r in live_rows:
            row = rows[r]
            a = row.pop(j, None)
            if a is None:
                continue
            f = [(ea - e, ca * c) for ea, ca in a.items()]  # a_rj u^{-1}, as c = 1/c
            for k, v in prow.items():
                acc = row.get(k)
                if acc is None:
                    acc = row[k] = {}
                for ef, cf in f:
                    for ev, cv in v.items():
                        x = ef + ev
                        y = acc.get(x, 0) - cf * cv
                        if y:
                            acc[x] = y
                        else:
                            del acc[x]
                if not acc:
                    del row[k]
    block = [[IntPoly._of(rows[i].get(j, {})) for j in live_cols] for i in live_rows]
    det = _bareiss_det(block).shifted(shift)
    return det if sign > 0 else -det


def _bareiss_det(a):
    """Determinant of a dense IntPoly matrix by Bareiss elimination; 1 when empty.

    Sylvester's identity makes every division by the previous pivot exact;
    a zero column below the diagonal gives the zero determinant.
    """
    n = len(a)
    if n == 0:
        return IntPoly.const(1)
    sign = 1
    prev = IntPoly.const(1)
    for k in range(n - 1):
        if a[k][k].is_zero():
            for i in range(k + 1, n):
                if not a[i][k].is_zero():
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return IntPoly()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]).exact_div(prev)
        prev = a[k][k]
    return a[n - 1][n - 1] if sign > 0 else -a[n - 1][n - 1]


def fox_alexander(p: KnotPresentation):
    """Alexander polynomial via the Fox matrix with one column deleted.

    Returns the normalized IntPoly (lowest exponent 0, positive leading
    coefficient, integer content 1).
    """
    n = len(p.generators)
    if n == 0:
        raise PresentationError("presentation needs at least one generator")
    minor = [_fox_row(letters, n)[1:] for letters in p.letters]  # drop the first column
    det = _poly_det(minor)
    if det.is_zero():
        raise PresentationError("Alexander matrix minor vanished; not a knot presentation?")
    return det.normalized()


def knot_from_braid(word, strands):
    """Wirtinger-style presentation of the closure of a braid word.

    ``word`` lists nonzero integers: +i is the positive crossing of strands
    (i, i+1), -i the negative one. The closure must be a knot (single
    component). Generators are the diagram arcs; each crossing contributes a
    conjugation relator, closure identifications contribute the rest, and one
    redundant relator is dropped to reach deficiency 1.
    """
    k = int(strands)
    if k < 2:
        raise PresentationError("braid needs at least 2 strands")
    perm = list(range(k))
    for s in word:
        i = abs(int(s)) - 1
        if not 0 <= i < k - 1:
            raise PresentationError(f"crossing {s} out of range for {k} strands")
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    # single cycle check on the closure permutation
    seen, j, cnt = set(), 0, 0
    while j not in seen:
        seen.add(j)
        j = perm[j]
        cnt += 1
    if cnt != k:
        raise PresentationError("braid closure is a link, not a knot")

    arcs = [f"g{i}" for i in range(k)]
    current = list(arcs)
    gens = list(arcs)
    relators = []
    fresh = k
    for s in word:
        i = abs(int(s)) - 1
        a, b = current[i], current[i + 1]
        new = f"g{fresh}"
        fresh += 1
        gens.append(new)
        if s > 0:
            # strand i+1 passes over: arc a ends, new = b a b^{-1}
            relators.append(f"{b} {a} {_inv(b)} {_inv(new)}")
            current[i], current[i + 1] = b, new
        else:
            # strand i passes over: arc b ends, new = a^{-1} b a
            relators.append(f"{_inv(a)} {b} {a} {_inv(new)}")
            current[i], current[i + 1] = new, a
    closure = [f"{current[j]} {_inv(arcs[j])}" for j in range(k)]
    relators.extend(closure[:-1])  # drop one redundant relator
    return KnotPresentation(tuple(gens), tuple(relators))


def _inv(gen):
    return gen.upper() if gen == gen.lower() else gen.lower()
