"""Symmetric bilinear torsion of a finite cochain complex.

A graded complex 0 -> C^0 -> ... -> C^n -> 0 with a nondegenerate complex
symmetric form on each degree induces, through the canonical isomorphism
between det C^* and det H^*, a bilinear value on the determinant line of
cohomology. That value is what ``torsion_form`` returns.

Convention (pinned, inherited by every other module): the two-term acyclic
complex 0 -> C --a--> C -> 0 with unit forms has torsion a^{-2}. Concretely
the generator lift e^0 contributes Gram 1 in degree 0 and its image a e^1
contributes Gram a^2 in degree 1, entering with exponent (-1)^1.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import DEFAULT_TOL
from .errors import (
    ChainComplexError,
    ConditioningError,
    DegenerateFormError,
    DimensionError,
    ShapeError,
)
from .numkernel import as_cmatrix, check_symmetric_form, lu_det, nondegenerate_det, scaled_cmatrix

__all__ = [
    "GradedComplex",
    "BilinearStructure",
    "CohomologyData",
    "cohomology",
    "torsion_form",
    "anomaly_ratio",
    "random_graded_complex",
    "random_bilinear_structure",
]


@dataclass(frozen=True)
class GradedComplex:
    """Finite cochain complex: per-degree dimensions and differentials d_i: C^i -> C^{i+1}."""

    dims: tuple
    differentials: tuple = field(default=())

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if any(d < 0 for d in dims):
            raise DimensionError("negative dimension in complex")
        diffs, scale = [], 0.0
        for i, d in enumerate(self.differentials):
            a, a_scale = scaled_cmatrix(d, name=f"differential[{i}]")
            want = (dims[i + 1], dims[i])
            if a.shape != want:
                raise DimensionError(
                    f"differential {i} has shape {a.shape}, expected {want}"
                )
            diffs.append(a)
            scale = max(scale, a_scale)
        if len(diffs) != max(len(dims) - 1, 0):
            raise DimensionError(
                f"expected {max(len(dims) - 1, 0)} differentials, got {len(diffs)}"
            )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "differentials", tuple(diffs))
        for i in range(len(diffs) - 1):
            if diffs[i].size and diffs[i + 1].size:
                dd = diffs[i + 1] @ diffs[i]
                if dd.size and np.max(np.abs(dd)) > DEFAULT_TOL.d_squared_rel * max(scale**2, 1e-300):
                    raise ChainComplexError(
                        f"d^2 != 0 between degrees {i} and {i + 2}", offending_pair=(i, i + 2)
                    )

    @property
    def degree_count(self):
        return len(self.dims)

    def differential(self, i):
        """d_i as a matrix, zero-shaped outside the stored range."""
        if 0 <= i < len(self.differentials):
            return self.differentials[i]
        rows = self.dims[i + 1] if 0 <= i + 1 < len(self.dims) else 0
        cols = self.dims[i] if 0 <= i < len(self.dims) else 0
        return np.zeros((rows, cols), dtype=complex)

    @cached_property
    def _splits(self):
        """``_split`` of each d_i, i = -1..n-1, made once per complex; callers only read it."""
        return {i: _split(self.differential(i)) for i in range(-1, self.degree_count)}


@dataclass(frozen=True)
class BilinearStructure:
    """Per-degree complex symmetric nondegenerate Gram matrices."""

    grams: tuple

    def __post_init__(self):
        checked = []
        for i, g in enumerate(self.grams):
            a, scale = scaled_cmatrix(g, square=True, name=f"gram[{i}]")
            check_symmetric_form(a, f"gram[{i}]", scale)
            checked.append(a)
        object.__setattr__(self, "grams", tuple(checked))

    @classmethod
    def standard(cls, dims):
        return cls(tuple(np.eye(d, dtype=complex) for d in dims))

    def matching(self, c: GradedComplex):
        return len(self.grams) == len(c.dims) and all(
            g.shape[0] == d for g, d in zip(self.grams, c.dims)
        )


@dataclass(frozen=True)
class CohomologyData:
    """Per-degree column bases of cocycle representatives for H^i."""

    bases: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "bases", tuple(np.asarray(b, dtype=complex) for b in self.bases)
        )

    @property
    def dims(self):
        return tuple(b.shape[1] for b in self.bases)


def _split(d):
    """(image, lift, kernel) of d from its full SVD, with one relative rank cut.

    ``image`` and ``kernel`` are orthonormal (Hermitian) bases of im d and
    ker d; ``lift`` holds the leading right-singular vectors, on which d is
    injective with image im d.
    """
    m, n = d.shape
    if not d.size:
        return (np.zeros((m, 0), dtype=complex), np.zeros((n, 0), dtype=complex),
                np.eye(n, dtype=complex))
    u, s, vh = np.linalg.svd(d)
    r = np.count_nonzero(s > DEFAULT_TOL.rank_rel * s[0])
    return u[:, :r], vh[:r].conj().T, vh[r:].conj().T


def _mixed(split, rng):
    """``split`` with its lift recombined by a random invertible matrix and
    smeared by kernel directions, exercising the claimed choice-independence
    of the torsion."""
    image, lift, ker = split
    r, k = lift.shape[1], ker.shape[1]
    if r:
        mix = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
        lift = lift @ (mix + 3.0 * np.eye(r))
        if k:
            noise = rng.standard_normal((k, r)) + 1j * rng.standard_normal((k, r))
            lift = lift + 0.5 * ker @ noise
    return image, lift, ker


def cohomology(c: GradedComplex):
    """Representative bases for H^i = ker d_i / im d_{i-1}, by rank-revealing SVD."""
    split = c._splits
    bases = []
    for i in range(c.degree_count):
        im, ker = split[i - 1][0], split[i][2]
        if im.shape[1] == 0 or ker.shape[1] == 0:
            bases.append(ker.copy())  # the caller's to keep: not a view of the cache
            continue
        # kernel components orthogonal to the coboundary image; the projected
        # columns have scale <= 1, so rank against floor 1
        u, s, _ = np.linalg.svd(ker - im @ (im.conj().T @ ker), full_matrices=False)
        bases.append(u[:, : np.count_nonzero(s > DEFAULT_TOL.rank_rel * max(s[0], 1.0))])
    return CohomologyData(tuple(bases))


def _project_to_cocycles(reps, ker):
    """Re-express representatives in the kernel, rejecting drifted input."""
    if reps.shape[1] == 0:
        return reps
    coeff = ker.conj().T @ reps
    proj = ker @ coeff
    scale = max(np.linalg.norm(reps), 1e-300)
    if np.linalg.norm(proj - reps) > DEFAULT_TOL.cocycle_rel * scale:
        raise ShapeError("cohomology representatives are not cocycles to tolerance")
    return proj


def torsion_form(c: GradedComplex, b: BilinearStructure, h: CohomologyData, rng=None):
    """b-value of the canonical determinant-line generator induced by h.

    Per degree i, assemble v_i = (d a~_{i-1} | h~_i | a~_i), where a~_i is a
    lift basis transverse to ker d_i and h~_i re-projects the supplied
    representatives into the kernel; return prod_i det(v_i^T G_i v_i)^{(-1)^i}.
    The result does not depend on the choice of lifts: every choice enters
    through a squared determinant.
    """
    if not b.matching(c):
        raise ShapeError("bilinear structure does not match the complex")
    if len(h.bases) != c.degree_count:
        raise ShapeError("cohomology data has wrong number of degrees")

    split = c._splits if rng is None else {i: _mixed(x, rng) for i, x in c._splits.items()}
    rank = {i: lift.shape[1] for i, (_, lift, _) in split.items()}
    expected = tuple(n_i - rank[i] - rank[i - 1] for i, n_i in enumerate(c.dims))
    if h.dims != expected:
        raise ShapeError(f"cohomology dims {h.dims} differ from computed {expected}")

    result = 1.0 + 0.0j
    for i, n_i in enumerate(c.dims):
        if n_i == 0:
            continue
        # the nonempty blocks of (d a~_{i-1} | h~_i | a~_i); they fill n_i columns
        blocks = []
        if rank[i - 1]:
            blocks.append(c.differential(i - 1) @ split[i - 1][1])
        if h.bases[i].shape[1]:
            blocks.append(_project_to_cocycles(h.bases[i], split[i][2]))
        if rank[i]:
            blocks.append(split[i][1])
        v = blocks[0] if len(blocks) == 1 else np.hstack(blocks)
        det = nondegenerate_det(v.T @ b.grams[i] @ v, ConditioningError,
                                f"degree {i}: torsion Gram numerically singular")
        result = result * det if i % 2 == 0 else result / det
    return result


def anomaly_ratio(c: GradedComplex, automorphisms):
    """Predicted torsion ratio prod_i det(A_i)^{2 (-1)^i} under b'(x,y) = b(Ax, Ay)."""
    if len(automorphisms) != c.degree_count:
        raise ShapeError("need one automorphism per degree")
    ratio = 1.0 + 0.0j
    for i, a in enumerate(automorphisms):
        a = as_cmatrix(a, square=True, name=f"automorphism[{i}]")
        if a.shape[0] != c.dims[i]:
            raise DimensionError(f"automorphism {i} has wrong size")
        det = lu_det(a)
        if det == 0:
            raise DegenerateFormError(f"automorphism {i} is singular")
        ratio = ratio * det**2 if i % 2 == 0 else ratio / det**2
    return ratio


def transform_structure(b: BilinearStructure, automorphisms):
    """The bilinear structure b'(x, y) = b(Ax, Ay), degreewise."""
    grams = tuple(
        np.asarray(a, dtype=complex).T @ g @ np.asarray(a, dtype=complex)
        for g, a in zip(b.grams, automorphisms)
    )
    return BilinearStructure(grams)


def random_graded_complex(rng, dims=None, max_degrees=4, max_total=10):
    """Seeded random complex with exact d^2 = 0 (conjugated normal form)."""
    if dims is None:
        k = int(rng.integers(2, max_degrees + 1))
        while True:
            dims = [int(rng.integers(1, 4)) for _ in range(k)]
            if sum(dims) <= max_total:
                break
    dims = list(dims)
    k = len(dims)
    ranks = []
    prev = 0
    for i in range(k - 1):
        cap = min(dims[i] - prev, dims[i + 1])
        r = int(rng.integers(0, cap + 1)) if cap > 0 else 0
        ranks.append(r)
        prev = r
    normal = []
    for i in range(k - 1):
        n = np.zeros((dims[i + 1], dims[i]), dtype=complex)
        r_in = ranks[i - 1] if i > 0 else 0
        for t in range(ranks[i]):
            n[t, r_in + t] = 1.0
        normal.append(n)
    us = []
    for d in dims:
        while True:
            u = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            if d == 0 or abs(np.linalg.det(u)) > 1e-3:
                break
        us.append(u)
    diffs = [us[i + 1] @ normal[i] @ np.linalg.inv(us[i]) for i in range(k - 1)]
    return GradedComplex(tuple(dims), tuple(diffs))


def random_bilinear_structure(rng, dims):
    """Seeded random symmetric nondegenerate Gram per degree."""
    grams = []
    for d in dims:
        while True:
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            g = a + a.T + 2.0 * np.eye(d)
            if d == 0 or abs(np.linalg.det(g)) > 1e-6:
                break
        grams.append(g)
    return BilinearStructure(tuple(grams))
