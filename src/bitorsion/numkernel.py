"""Dense complex linear algebra under a symmetric-bilinear regime.

Everything here treats matrices as plain ``numpy.ndarray`` of complex128.
Every determinant is numpy's partial-pivot LU (``np.linalg.det``), of one
matrix or of a stack. Only ``schur_decomposition`` calls scipy, imported
inside it, so neither ``import bitorsion`` nor a torsion loads scipy. The
bilinear-specific piece is the symmetry and nondegeneracy check every complex
symmetric form passes. ``lu_det`` validates its input with ``as_cmatrix``;
``check_symmetric_form`` and ``nondegenerate_det`` take arrays their callers
built or validated, with the max|a_jk| that ``scaled_cmatrix`` found where
the caller has it, and ``nondegenerate_det`` checks again that its matrix,
and then its determinant, are finite. The circle Laplacians are cyclic
tridiagonal and do not come here: ``circle.ChannelOperators`` takes their
determinants and band torsions in closed form from the two diagonals of K,
and their small eigenvalues, where counted, from numpy's dense eigensolvers
(symmetric for a real channel) on grids up to ``circle.DENSE_BAND_MAX_N``
and above it by ARPACK in shift-invert mode on LAPACK's banded Cholesky
factor (real channel) or a sparse LU (complex), scipy imported there. No
package code calls ``schur_decomposition``: it stays as the tests' dense
oracle and the benchmark tracer's probe, until a change to the benchmark
drops that probe.

The one structural difference from Hermitian numerics: pairings use the
transpose, never the conjugate transpose.
"""

import cmath
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .errors import (
    ConvergenceError,
    DegenerateFormError,
    DimensionError,
    InvalidMatrixError,
)

__all__ = [
    "as_cmatrix",
    "scaled_cmatrix",
    "lu_det",
    "check_symmetric_form",
    "nondegenerate_det",
    "SchurDecomposition",
    "schur_decomposition",
]


def as_cmatrix(m, square=False, name="matrix"):
    """Validate and return a complex128 2-D array (no NaN/inf admitted)."""
    return scaled_cmatrix(m, square, name)[0]


def scaled_cmatrix(m, square=False, name="matrix"):
    """(a, max|a_jk|) for ``as_cmatrix``'s validated complex128 2-D array ``a``;
    the scale is 0 for an empty matrix. One pass over |a| gives both the scale
    and the finiteness test: the maximum is NaN or inf exactly when an entry
    is not finite or a finite entry's modulus overflows, and only then are the
    entries tested one by one.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got ndim={a.ndim}")
    scale = np.abs(a).max() if a.size else 0.0
    if not np.isfinite(scale) and not np.isfinite(a).all():
        raise InvalidMatrixError(f"{name} contains non-finite entries")
    if square and a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    return a, scale


def lu_det(m):
    """det m by partial-pivot LU (``np.linalg.det``) once ``as_cmatrix`` has
    validated it; a singular matrix yields a zero pivot and exactly 0."""
    return complex(np.linalg.det(as_cmatrix(m, square=True)))


def check_symmetric_form(a, name, scale=None):
    """Raise DegenerateFormError unless ``a`` is symmetric and nondegenerate to
    tolerance. ``a`` is one square matrix and ``name`` leads the message, or a
    stack (k, n, n) and ``name`` holds its k names: the first matrix that fails
    is named, its symmetry tested before its determinant. Empty forms pass.
    ``scale`` is max|a_jk| of one matrix where the caller has it
    (``scaled_cmatrix``); both tests then take it instead of a new pass."""
    if not a.size:
        return
    if a.ndim == 2:
        if scale is None:
            scale = np.abs(a).max()
        if np.abs(a - a.T).max() > DEFAULT_TOL.symmetry_rel * max(scale, 1e-300):
            raise DegenerateFormError(f"{name} not symmetric")
        nondegenerate_det(a, DegenerateFormError, f"{name} degenerate", scale)
        return
    scale = np.maximum(np.max(np.abs(a), axis=(-2, -1)), 1e-300)
    asym = np.max(np.abs(a - np.swapaxes(a, -2, -1)), axis=(-2, -1)) > (
        DEFAULT_TOL.symmetry_rel * scale)
    first = np.argmax(asym) if asym.any() else len(name)
    # a degenerate matrix ahead of the first asymmetric one is named first
    nondegenerate_det(a[:first], DegenerateFormError, [f"{n} degenerate" for n in name[:first]])
    if first < len(name):
        raise DegenerateFormError(f"{name[first]} not symmetric")


def nondegenerate_det(a, error, message, scale=None):
    """det a by ``np.linalg.det``; raises ``error(message)`` when |det a| <=
    nondegeneracy_rel * max|a_jk|^n, the one nondegeneracy test of the
    package. ``a`` is not validated again: one square matrix gets its
    determinant, the value callers keep, and a test on scalars, and an entry
    or a determinant that is not finite (a torsion Gram or an LU product that
    overflowed) raises ``InvalidMatrixError``. A stack (k, n, n) is only
    tested, by one batched determinant; ``message`` then holds k strings. The
    first matrix that fails is refused: ``InvalidMatrixError`` if its
    determinant is not finite, else its message is raised. ``scale``, for one
    matrix, is its max|a_jk| where the caller has it.
    """
    if a.ndim == 2:
        if scale is None:
            scale = np.abs(a).max()  # inf also for finite parts whose modulus overflows
        if not np.isfinite(scale) and not np.isfinite(a).all():
            raise InvalidMatrixError("matrix contains non-finite entries")
        det = complex(np.linalg.det(a))
        if not cmath.isfinite(det):
            raise InvalidMatrixError("determinant is not finite: its LU product overflows")
        if abs(det) <= DEFAULT_TOL.nondegeneracy_rel * max(scale, 1e-300) ** a.shape[0]:
            raise error(message)
        return det
    det = np.linalg.det(a)
    scale = np.maximum(np.max(np.abs(a), axis=(-2, -1)), 1e-300)
    overflow = ~np.isfinite(det)
    failed = np.flatnonzero(
        overflow | (np.abs(det) <= DEFAULT_TOL.nondegeneracy_rel * scale ** a.shape[-1]))
    if failed.size and overflow[failed[0]]:
        raise InvalidMatrixError(f"determinant of matrix {failed[0]} in the stack is not "
                                 "finite: its LU product overflows")
    if failed.size:
        raise error(message[failed[0]])
    return det


@dataclass(frozen=True)
class SchurDecomposition:
    """Complex Schur form m = Q T Q^H with eigenvalues on diag(T)."""

    q: np.ndarray
    t: np.ndarray
    eigenvalues: np.ndarray


def schur_decomposition(m, sort=None):
    """Complex Schur form, optionally with eigenvalues satisfying ``sort`` leading."""
    import scipy.linalg as sla

    a = as_cmatrix(m, square=True)
    try:
        if sort is None:
            t, q = sla.schur(a, output="complex")
            sdim = None
        else:
            t, q, sdim = sla.schur(a, output="complex", sort=sort)
    except sla.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceError(f"Schur iteration failed to converge: {exc}") from exc
    dec = SchurDecomposition(q=q, t=t, eigenvalues=np.diag(t).copy())
    return (dec, sdim) if sort is not None else dec
