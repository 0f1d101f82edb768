"""Dense complex linear algebra under a symmetric-bilinear regime.

Everything here treats matrices as plain ``numpy.ndarray`` of complex128.
Factorizations are delegated to LAPACK through scipy (partial-pivot LU
determinants). scipy is imported at first use, inside the function that calls
it, so ``import bitorsion`` loads none of it. The bilinear-specific piece is
the symmetry and nondegeneracy check every complex symmetric form passes.
``lu_det`` validates its input with ``as_cmatrix``; ``check_symmetric_form``
and ``nondegenerate_det`` take arrays their callers built or validated, and
``nondegenerate_det`` checks one thing again, that its matrix is finite. The
circle Laplacians are cyclic tridiagonal and do not come here:
``circle.ChannelOperators`` takes their determinants and band torsions in
closed form from the two diagonals of K, and their small eigenvalues, where
counted, by sparse shift-invert Arnoldi. No package code calls
``schur_decomposition``: it stays as the tests' dense oracle and the
benchmark tracer's probe, until a change to the benchmark drops that probe.

The one structural difference from Hermitian numerics: pairings use the
transpose, never the conjugate transpose.
"""

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
    "lu_det",
    "check_symmetric_form",
    "nondegenerate_det",
    "SchurDecomposition",
    "schur_decomposition",
]


def as_cmatrix(m, square=False, name="matrix"):
    """Validate and return a complex128 2-D array (no NaN/inf admitted)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.view(float))):
        raise InvalidMatrixError(f"{name} contains non-finite entries")
    if square and a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    return a


def _lu_det(a):
    """det a by partial-pivot LU (LAPACK ``zgetrf``), permutation sign included."""
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    from scipy.linalg import lapack

    # a singular matrix legitimately yields a zero pivot and determinant zero
    lu, piv, _ = lapack.zgetrf(a)
    # piv records row swaps; each swap flips the sign.
    sign = -1.0 if np.count_nonzero(piv != np.arange(n)) % 2 else 1.0
    return complex(sign * lu.diagonal().prod())


def lu_det(m):
    """``_lu_det`` of ``m`` once ``as_cmatrix`` has validated it."""
    return _lu_det(as_cmatrix(m, square=True))


def check_symmetric_form(a, name):
    """Raise DegenerateFormError unless ``a`` is symmetric and nondegenerate to
    tolerance. ``a`` is one square matrix and ``name`` leads the message, or a
    stack (k, n, n) and ``name`` holds its k names: the first matrix that fails
    is named, its symmetry tested before its determinant. Empty forms pass."""
    if not a.size:
        return
    if a.ndim == 2:
        if np.abs(a - a.T).max() > DEFAULT_TOL.symmetry_rel * max(np.abs(a).max(), 1e-300):
            raise DegenerateFormError(f"{name} not symmetric")
        nondegenerate_det(a, DegenerateFormError, f"{name} degenerate")
        return
    scale = np.maximum(np.max(np.abs(a), axis=(-2, -1)), 1e-300)
    asym = np.max(np.abs(a - np.swapaxes(a, -2, -1)), axis=(-2, -1)) > (
        DEFAULT_TOL.symmetry_rel * scale)
    first = np.argmax(asym) if asym.any() else len(name)
    # a degenerate matrix ahead of the first asymmetric one is named first
    nondegenerate_det(a[:first], DegenerateFormError, [f"{n} degenerate" for n in name[:first]])
    if first < len(name):
        raise DegenerateFormError(f"{name[first]} not symmetric")


def nondegenerate_det(a, error, message):
    """det a; raises ``error(message)`` when |det a| <= nondegeneracy_rel *
    max|a_jk|^n, the one nondegeneracy test of the package. ``a`` is not
    validated again: one square matrix gets ``_lu_det``, the value callers
    keep, and a test on scalars, and an entry that is not finite (a torsion
    Gram that overflowed) raises ``InvalidMatrixError``. A stack (k, n, n) is
    only tested, by one batched ``np.linalg.det``; ``message`` then holds k
    strings and the first failing matrix's is raised.
    """
    if a.ndim == 2:
        scale = np.abs(a).max()  # inf also for finite parts whose modulus overflows
        if not np.isfinite(scale) and not np.isfinite(a).all():
            raise InvalidMatrixError("matrix contains non-finite entries")
        det = _lu_det(a)
        if abs(det) <= DEFAULT_TOL.nondegeneracy_rel * max(scale, 1e-300) ** a.shape[0]:
            raise error(message)
        return det
    det = np.linalg.det(a)
    scale = np.maximum(np.max(np.abs(a), axis=(-2, -1)), 1e-300)
    failed = np.flatnonzero(np.abs(det) <= DEFAULT_TOL.nondegeneracy_rel * scale ** a.shape[-1])
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
