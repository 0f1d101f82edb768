"""Thom-Smale cochain complexes of Morse systems with flat holonomies.

A MorseSystem records critical points with indices and instantons (gradient
lines between points of adjacent index) carrying a sign and a parallel
transport matrix. The dual cochain complex has C^i of dimension rank * M_i;
its coboundary block from a point x of index i to a point z of index i+1 is
the signed sum of transposed instanton transports, which in rank 1 reduces
to sum of n_gamma * tau_gamma. The critical-point bilinear forms sit
block-diagonally.

``circle_system`` lays out every circle: N minima and N maxima alternating, all
transports trivial except the seam arc's. ``make_circle_morse`` spaces them
evenly; its Milnor torsion is (1 - holonomy)^{-2} in rank one.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .complexes import BilinearStructure, CohomologyData, GradedComplex, cohomology, torsion_form
from .errors import (
    ChainComplexError,
    DimensionError,
    HolonomyError,
    InvalidMatrixError,
    ShapeError,
)
from .numkernel import as_cmatrix, check_symmetric_form

__all__ = [
    "CriticalPoint",
    "Instanton",
    "CircleGeometry",
    "MorseSystem",
    "CriticalForms",
    "build_thom_smale",
    "milnor_torsion",
    "milnor_anomaly_check",
    "circle_layout",
    "circle_system",
    "circle_loop",
    "make_circle_morse",
]


@dataclass(frozen=True)
class CriticalPoint:
    label: str
    index: int


@dataclass(frozen=True)
class Instanton:
    source: str        # higher-index endpoint
    target: str        # lower-index endpoint
    sign: int          # n_gamma in {+1, -1}
    holonomy: np.ndarray

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ShapeError(f"instanton sign must be +-1, got {self.sign}")
        # validated by MorseSystem, with every other holonomy, as one stack
        object.__setattr__(self, "holonomy", np.asarray(self.holonomy, dtype=complex))


@dataclass(frozen=True)
class CircleGeometry:
    """Placement data for circle-shaped systems: positions and the seam location."""

    positions: dict          # label -> position, increasing, less than one circumference apart
    seam_angle: float        # the holonomy-carrying cut, inside the seam arc
    circumference: float = 2.0 * np.pi


@dataclass(frozen=True)
class MorseSystem:
    points: tuple
    instantons: tuple
    rank: int = 1
    geometry: CircleGeometry | None = None

    def __post_init__(self):
        hols = [ins.holonomy for ins in self.instantons]
        try:
            stack = np.stack(hols) if hols else None
        except ValueError:  # holonomies of different shapes
            stack = None
        if stack is None or stack.ndim != 3 or stack.shape[1] != stack.shape[2] or (
                not np.isfinite(stack).all()):
            for hol in hols:  # the first one that is not a finite square matrix is refused
                as_cmatrix(hol, square=True, name="holonomy")
        labels = [p.label for p in self.points]
        if len(set(labels)) != len(labels):
            raise ShapeError("duplicate critical point labels")
        index = {p.label: p.index for p in self.points}
        for ins in self.instantons:
            if ins.source not in index or ins.target not in index:
                raise ShapeError(f"instanton endpoints {ins.source}->{ins.target} unknown")
            if index[ins.target] != index[ins.source] - 1:
                raise ShapeError(
                    f"instanton {ins.source}->{ins.target} violates the index relation"
                )
            if ins.holonomy.shape != (self.rank, self.rank):
                raise DimensionError("instanton holonomy has wrong rank")
        if self.instantons:
            # all holonomies in one batched determinant; the first singular one is named
            dets = np.linalg.det(stack)
            singular = np.flatnonzero(dets == 0.0)
            if singular.size:
                ins = self.instantons[singular[0]]
                raise HolonomyError(f"instanton {ins.source}->{ins.target} holonomy singular")

    def degree_count(self):
        return max(p.index for p in self.points) + 1 if self.points else 0

    def points_of_index(self, i):
        return [p for p in self.points if p.index == i]

    def morse_counts(self):
        counts = [0] * self.degree_count()
        for p in self.points:
            counts[p.index] += 1
        return counts

    def euler_characteristic(self):
        return sum((-1) ** p.index for p in self.points)

    @cached_property
    def cochain_complex(self):
        """The dual Thom-Smale cochain complex, assembled once per system: every
        torsion of the system, at any forms, shares it and the SVD splits it
        caches in turn. Raises ChainComplexError naming an offending (x, z)
        pair if the signed instanton data fails d^2 = 0; an error is not
        cached, so each access raises it again.
        """
        r = self.rank
        order = _ordered_labels(self)
        dims = tuple(r * len(labels) for labels in order)
        col_of = [{lab: j for j, lab in enumerate(labels)} for labels in order]
        index = {p.label: p.index for p in self.points}

        diffs = []
        for i in range(len(dims) - 1):
            d = np.zeros((dims[i + 1], dims[i]), dtype=complex)
            for ins in self.instantons:
                if index[ins.source] != i + 1:
                    continue
                row = col_of[i + 1][ins.source]
                col = col_of[i][ins.target]
                # dual complex: cochains pick up the transposed transport
                d[row * r:(row + 1) * r, col * r:(col + 1) * r] += ins.sign * ins.holonomy.T
            diffs.append(d)

        try:
            return GradedComplex(dims, tuple(diffs))
        except ChainComplexError as exc:
            i, _ = exc.offending_pair
            pair = (order[i][0] if order[i] else "?", order[i + 2][0] if order[i + 2] else "?")
            raise ChainComplexError(
                f"instanton data inconsistent: d^2 != 0 near degrees {i}..{i + 2}",
                offending_pair=pair,
            ) from exc


@dataclass(frozen=True)
class CriticalForms:
    """Map label -> symmetric nondegenerate rank x rank matrix b_x; all forms
    share one shape and are checked as one stack."""

    forms: dict

    def __post_init__(self):
        labels = list(self.forms)
        if not labels:
            return
        try:
            stack = np.asarray(list(self.forms.values()), dtype=complex)
        except (TypeError, ValueError):  # forms of different shapes, or not numbers
            stack = None
        if stack is None or stack.ndim != 3:
            # form by form, so that the first one that is not a matrix is named
            checked = [as_cmatrix(g, square=True, name=f"form[{label}]")
                       for label, g in self.forms.items()]
            shapes = {a.shape for a in checked}
            if len(shapes) > 1:
                raise DimensionError(f"critical forms differ in shape: {sorted(shapes)}")
            stack = np.stack(checked)
        square = stack.shape[1] == stack.shape[2]
        finite = np.isfinite(stack).all(axis=(1, 2))
        if not (square and finite.all()):
            first = int(np.argmin(finite)) if square else 0
            as_cmatrix(stack[first], square=True, name=f"form[{labels[first]}]")  # raises
        check_symmetric_form(stack, [f"critical form at {label}" for label in labels])
        object.__setattr__(self, "forms", dict(zip(labels, stack)))

    @classmethod
    def standard(cls, ms: MorseSystem):
        return cls({p.label: np.eye(ms.rank, dtype=complex) for p in ms.points})

    def blocks(self, labels, rank):
        """The forms at ``labels``: ShapeError names the first point with none, and
        DimensionError a shape not rank x rank (all share the first one's shape)."""
        missing = set(labels).difference(self.forms)
        if missing:
            raise ShapeError(f"no critical form supplied for {min(missing, key=labels.index)}")
        blocks = [self.forms[lab] for lab in labels]
        if blocks and blocks[0].shape != (rank, rank):
            raise DimensionError(f"critical form at {labels[0]} has shape {blocks[0].shape}, "
                                 f"expected rank x rank {(rank, rank)}")
        return blocks


def _ordered_labels(ms: MorseSystem):
    """Stable per-degree point ordering used for all matrix layouts."""
    return [[p.label for p in ms.points_of_index(i)] for i in range(ms.degree_count())]


def build_thom_smale(ms: MorseSystem, forms: CriticalForms):
    """The system's cochain complex (``MorseSystem.cochain_complex``, built once
    per system) and the block-diagonal bilinear structure of ``forms``.

    Raises ChainComplexError naming an offending (x, z) pair if the signed
    instanton data fails d^2 = 0, and ShapeError or DimensionError naming a
    point whose form is missing or not rank x rank, on every call.
    """
    complex_ = ms.cochain_complex
    r = ms.rank
    grams = []
    for labels, dim in zip(_ordered_labels(ms), complex_.dims):
        g = np.zeros((dim, dim), dtype=complex)
        for j, block in enumerate(forms.blocks(labels, r)):
            g[j * r:(j + 1) * r, j * r:(j + 1) * r] = block
        grams.append(g)
    return complex_, BilinearStructure(tuple(grams))


def milnor_torsion(ms: MorseSystem, forms: CriticalForms, h: CohomologyData | None = None,
                   rng=None):
    """Milnor symmetric bilinear torsion of the Thom-Smale pair.

    ``h`` may be omitted; the computed cohomology representatives are used,
    which matters only in the non-acyclic case.
    """
    complex_, structure = build_thom_smale(ms, forms)
    if h is None:
        h = cohomology(complex_)
    return torsion_form(complex_, structure, h, rng=rng)


def milnor_anomaly_check(ms: MorseSystem, forms: CriticalForms, forms1: CriticalForms):
    """Predicted torsion ratio prod_x det(b_x^{-1} b1_x)^{(-1)^{ind x}}, from one
    stacked solve and one stacked determinant over the points."""
    if not ms.points:
        return 1.0 + 0.0j
    labels = [p.label for p in ms.points]
    b0 = np.array(forms.blocks(labels, ms.rank), dtype=complex)
    b1 = np.array(forms1.blocks(labels, ms.rank), dtype=complex)
    quotients = np.linalg.solve(b0, b1)
    if not np.isfinite(quotients).all():
        raise InvalidMatrixError("matrix contains non-finite entries")
    ratio = 1.0 + 0.0j
    for p, det in zip(ms.points, np.linalg.det(quotients).tolist()):
        ratio = ratio * det if p.index % 2 == 0 else ratio / det
    return ratio


def circle_layout(pair_count, seam_arc):
    """Evenly spaced angles k pi / pair_count of the 2 pair_count points, and
    the seam angle at the middle of arc ``seam_arc``."""
    step = np.pi / pair_count
    return [k * step for k in range(2 * pair_count)], (seam_arc + 0.5) * step


def circle_system(block, positions, seam_arc, seam_angle, circumference=2.0 * np.pi):
    """Circle Thom-Smale system: point k at angle ``positions[k]``, minima m_{k/2}
    on even k and maxima M_{k/2} on odd k. Arc j runs counterclockwise from
    point j to point j+1 (mod 2n). Its instanton flows down from the maximum:
    clockwise on even arcs (M_k -> m_k, sign -1), counterclockwise on odd ones
    (M_k -> m_{k+1}, sign +1), so that trivial holonomy yields the constant
    cocycle. The seam at ``seam_angle`` lies in arc ``seam_arc``, whose
    instanton carries ``block``, the transport in the direction it crosses the
    seam: lam counterclockwise, lam^{-1} clockwise. Every other transport is
    the identity, and ``circle_loop`` reads the loop back in either case.
    """
    block = as_cmatrix(block, square=True, name="holonomy")
    eye = np.eye(block.shape[0], dtype=complex)
    size = len(positions)
    labels = [f"{'mM'[k % 2]}{k // 2}" for k in range(size)]
    instantons = []
    for j in range(size):
        maxi, mini = (j + 1, j) if j % 2 == 0 else (j, (j + 1) % size)
        instantons.append(Instanton(labels[maxi], labels[mini], 1 if j % 2 else -1,
                                    block if j == seam_arc else eye))
    geometry = CircleGeometry(dict(zip(labels, positions)), seam_angle, circumference)
    return MorseSystem(tuple(CriticalPoint(lab, k % 2) for k, lab in enumerate(labels)),
                       tuple(instantons), rank=block.shape[0], geometry=geometry)


def circle_loop(ms: MorseSystem):
    """Transport once counterclockwise around a circle system: the instanton
    transports in tuple order, each sign +1 (counterclockwise) one as it is and
    each sign -1 (clockwise) one inverted, as ``circle_system`` orients them."""
    inverses = np.linalg.inv(np.array([ins.holonomy for ins in ms.instantons],
                                      dtype=complex).reshape(-1, ms.rank, ms.rank))
    loop = np.eye(ms.rank, dtype=complex)
    for ins, inverse in zip(ms.instantons, inverses):
        loop = loop @ (ins.holonomy if ins.sign > 0 else inverse)
    return loop


def make_circle_morse(pair_count, holonomy, seam_arc=None):
    """Circle with ``pair_count`` minima and maxima alternating at angles
    k pi / pair_count (``circle_system``); the instanton of arc ``seam_arc``,
    by default the last one, closing through angle 2 pi, carries ``holonomy``.
    """
    n = int(pair_count)
    if n < 1:
        raise DimensionError("pair_count must be >= 1")
    hol = np.asarray(holonomy, dtype=complex)
    seam_arc = (2 * n - 1 if seam_arc is None else int(seam_arc)) % (2 * n)
    positions, seam_angle = circle_layout(n, seam_arc)
    return circle_system(hol.reshape(1, 1) if hol.ndim == 0 else hol, positions, seam_arc,
                         seam_angle)
