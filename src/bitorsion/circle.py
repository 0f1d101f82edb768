"""The analytic side on the circle: models, discrete operators, spectra, determinants.

Geometry and conventions
------------------------
Sections of the flat line bundle with holonomy ``lam`` live on [0, L) in the
seam gauge: smooth functions with u(L) = lam * u(0), the jump sitting on the
"seam" edge between grid nodes N-1 and 0. The canonical reference bilinear
density spreads the compensating weight evenly: its log-density is -A x with
A = log(lam)/L, so the weight e^{-2Ax} jumps by lam^{-2} across the seam, as a
global pairing on the bundle squared requires. A periodic phi multiplies it
by e^{2 phi}; ``CircleModel.log_density`` is that sum, the one home of A. A phi
with winding would change the holonomy class: ``make_circle_model`` refuses it.

With that pairing the degree-0 Laplacian is -(u'' + (2 phi' - 2A) u') under
twisted boundary conditions. For phi = 0 its spectrum is exactly

    mu_n = (2 pi / L)^2 (n^2 - z^2),   z = log(lam) / (2 pi i),  n in Z,

realized discretely as (2 cos(2 pi z / N) - 2 cos(2 pi n / N)) / h^2 by the
staggered model below, with no discretization error in the family shape.

The zeta-regularized determinant of that family (single zeta function of the
listed eigenvalues, continued through the positive axis) evaluates to

    det' = (1 - lam)^2 / lam        (lam != 1),      det' = L^2 at lam = 1,

which is the classical det' ~ (1 - lam)(1 - 1/lam) up to the pinned sign
normalization; the Hurwitz-continuation oracle in the tests reproduces it,
and the monodromy (Gelfand-Yaglom) route is it for every periodic density.
Every determinant route refuses holonomy 1 by one rule (``require_acyclic``)
and an eigenvalue on a positive cut by another (``modes_inside_cut``).
"""

import cmath
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .config import DEFAULT_TOL
from .errors import (
    AmbiguousCutError,
    ConvergenceError,
    DimensionError,
    GridError,
    HolonomyError,
    HomotopyClassError,
    InvalidMatrixError,
    ResolutionError,
    SchemaError,
    ZeroModeError,
)
from .numkernel import as_cmatrix, lu_det

__all__ = [
    "TrigPoly",
    "CircleModel",
    "make_circle_model",
    "SpectrumFamily",
    "exact_spectrum_circle",
    "zeta_det_exact",
    "gelfand_yaglom_det",
    "witten_deform",
    "DiscreteOperators",
    "build_discrete",
    "SpectralCut",
]

TWO_PI = 2.0 * np.pi
DENSE_MAX_N = 4096  # largest grid whose complex channel takes a dense eigensolve
DENSE_BAND_MAX_N = 64  # largest grid whose small band is the dense spectrum (bench/layers.py)
LINEAR_LOG_RANGE = 700.0  # bound on |log| of what a linear block forms; log(max double) = 709.78
LOG_3 = float(np.log(3.0))


@dataclass(frozen=True)
class TrigPoly:
    """Real trigonometric polynomial in the angle theta = 2 pi x / L."""

    const: float = 0.0
    cos_coeffs: tuple = field(default_factory=tuple)  # ((k, coeff), ...)
    sin_coeffs: tuple = field(default_factory=tuple)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def cos(cls, amp=1.0, harmonic=1):
        return cls(cos_coeffs=((int(harmonic), float(amp)),))

    @classmethod
    def sin(cls, amp=1.0, harmonic=1):
        return cls(sin_coeffs=((int(harmonic), float(amp)),))

    def _theta(self, x, length):
        return TWO_PI * np.asarray(x, dtype=float) / length

    def value(self, x, length=TWO_PI):
        th = self._theta(x, length)
        out = self.const + np.zeros_like(th)
        for k, c in self.cos_coeffs:
            out = out + c * np.cos(k * th)
        for k, c in self.sin_coeffs:
            out = out + c * np.sin(k * th)
        return out

    def derivative(self, x, length=TWO_PI):
        """d/dx, closed form."""
        th = self._theta(x, length)
        scale = TWO_PI / length
        out = np.zeros_like(th)
        for k, c in self.cos_coeffs:
            out = out - c * k * scale * np.sin(k * th)
        for k, c in self.sin_coeffs:
            out = out + c * k * scale * np.cos(k * th)
        return out

    def second_derivative(self, x, length=TWO_PI):
        th = self._theta(x, length)
        scale = (TWO_PI / length) ** 2
        out = np.zeros_like(th)
        for k, c in self.cos_coeffs:
            out = out - c * k * k * scale * np.cos(k * th)
        for k, c in self.sin_coeffs:
            out = out - c * k * k * scale * np.sin(k * th)
        return out

    def is_constant(self):
        """No term with a nonzero coefficient: ``sin(0.0)`` is constant too."""
        return not any(c for _, c in self.cos_coeffs + self.sin_coeffs)

    def is_real(self):
        """No coefficient of a complex type."""
        for _, c in self.cos_coeffs + self.sin_coeffs:
            if isinstance(c, (complex, np.complexfloating)):
                return False
        return not isinstance(self.const, (complex, np.complexfloating))

    def sup_norm_bound(self):
        return abs(self.const) + sum(abs(c) for _, c in self.cos_coeffs) + sum(
            abs(c) for _, c in self.sin_coeffs
        )

    @cached_property
    def critical_angles(self):
        """(angle, morse_index) of the critical points in theta, scanned on first
        use, once per polynomial: every model that holds this object as its
        potential shares the scan."""
        return tuple(_critical_points(self, TWO_PI))


@dataclass(frozen=True)
class CircleModel:
    """Circle of circumference L with holonomy, bilinear log-density and Morse data.

    ``holonomy`` is a nonzero complex number or an invertible matrix; ``phi``
    multiplies the canonical reference density by e^{2 phi}; ``potential`` is
    the Morse function used by the Witten experiments. ``deform_t`` holds the
    Witten deformation parameter: the effective log-density is
    phi - deform_t * potential. A phi or potential with a complex coefficient
    is a SchemaError naming it: every route reads both as real.

    The model caches nothing: the critical points are scanned once per
    potential object (``TrigPoly.critical_angles``), so channels,
    deformations and any other ``replace`` of a model share its one scan.
    """

    holonomy: object
    length: float = TWO_PI
    phi: TrigPoly = field(default_factory=TrigPoly.zero)
    potential: TrigPoly | None = None
    deform_t: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.length) and self.length > 0):
            raise DimensionError(f"circumference must be finite and positive, got {self.length}")
        hol = np.asarray(self.holonomy, dtype=complex)
        if hol.ndim == 0:
            object.__setattr__(self, "holonomy", _scalar_holonomy(hol))
        else:
            hol = as_cmatrix(hol, square=True, name="holonomy")
            if lu_det(hol) == 0:
                raise HolonomyError("holonomy matrix is singular")
            object.__setattr__(self, "holonomy", hol)
        for name, poly in (("phi", self.phi), ("potential", self.potential)):
            if poly is not None and not poly.is_real():
                raise SchemaError(f"{name} has a non-real coefficient; it must be real", field=name)
        if not np.isfinite(self.phi.sup_norm_bound()):
            raise HomotopyClassError("log-density must be bounded")

    @property
    def rank(self):
        h = self.holonomy
        return 1 if np.ndim(h) == 0 else h.shape[0]

    def channel_holonomies(self):
        """The holonomy's eigenvalues, one per channel (rank-1: itself). Each rank-r
        value is a product over them, so a Jordan block needs no eigenvectors."""
        h = self.holonomy
        if np.ndim(h) == 0:
            return [complex(h)]
        return [complex(l) for l in np.linalg.eigvals(h)]

    def channels(self):
        """Rank-one models, one per holonomy eigenvalue; a scalar-holonomy model
        is its own channel. The channels hold this model's potential, and with
        it its one critical-point scan."""
        if np.ndim(self.holonomy) == 0:
            return [self]
        return [replace(self, holonomy=lam) for lam in self.channel_holonomies()]

    def phi_value(self, x):
        vals = self.phi.value(x, self.length)
        if self.deform_t != 0.0 and self.potential is not None:
            vals = vals - self.deform_t * self.potential.value(x, self.length)
        return vals

    def phi_derivative(self, x):
        der = self.phi.derivative(x, self.length)
        if self.deform_t != 0.0 and self.potential is not None:
            der = der - self.deform_t * self.potential.derivative(x, self.length)
        return der

    def log_density(self, x):
        """The rank-one model's log-density phi_eff(x) - (log lam / L) x: e^{2 phi}
        times the canonical reference e^{-2Ax}, where phi_eff is ``phi_value``."""
        if self.rank != 1:
            raise DimensionError("the log-density is per rank-one channel")
        slope = np.log(complex(self.holonomy)) / self.length
        return np.asarray(self.phi_value(x), dtype=float) - slope * x

    def critical_points(self):
        """(position, morse_index) of the potential's critical points: its
        cached angles times L / 2 pi, an exact 1.0 at L = 2 pi."""
        if self.potential is None:
            raise DimensionError("model has no Morse potential")
        scale = self.length / TWO_PI
        return tuple((x * scale, index) for x, index in self.potential.critical_angles)


def make_circle_model(holonomy, length=TWO_PI, phi=("zero", 0.0), f=None):
    """Factory mirroring the circle.json vocabulary.

    phi: ("zero", _) or ("sin", amp); f: ("cos", wells) or None. A
    ("winding", _) density is not periodic: it would change the holonomy
    class, and it is refused. Any other kind is a SchemaError naming
    ``phi.kind`` or ``f.kind``.
    """
    kind, amp = phi
    if kind == "zero":
        phi_poly = TrigPoly.zero()
    elif kind == "sin":
        phi_poly = TrigPoly.sin(amp)
    elif kind == "winding":
        raise HomotopyClassError("log-density with winding changes the holonomy class; rejected")
    else:
        raise SchemaError(f"phi.kind: unknown kind {kind!r}", field="phi.kind")
    pot = None
    if f is not None:
        fkind, wells = f
        if fkind != "cos":
            raise SchemaError(f"f.kind: unknown kind {fkind!r}", field="f.kind")
        pot = TrigPoly.cos(1.0, int(wells))
    # undeformed user densities must stay clear of degeneracy
    if np.exp(-2.0 * phi_poly.sup_norm_bound()) < DEFAULT_TOL.density_floor:
        raise HomotopyClassError("density e^{2 phi} too close to degenerate")
    return CircleModel(holonomy, length, phi_poly, pot)


def _critical_points(pot: TrigPoly, length):
    """Zeros of f' with indices from the sign of f''.

    f' is sampled on a fine grid; every sign change brackets one zero. From the
    secant through each bracket, Newton steps f'/f'' polish all zeros at once,
    each clipped to a bracket that shrinks with the sign of f' (a step held in
    place bisects), until none moves a point by more than its float spacing:
    1-3 evaluations at a simple zero, more at a degenerate one, which is refused.
    """
    n_scan = 4096
    xs = np.linspace(0.0, length, n_scan + 1)  # the last sample is L, the first again
    der = pot.derivative(xs[:-1], length)
    nxt = np.concatenate((der[1:], der[:1]))
    i = np.flatnonzero(der * nxt < 0)
    lo, hi, flo, fhi = xs[i], xs[i + 1], der[i], nxt[i]
    x = lo + (hi - lo) * (flo / (flo - fhi))
    with np.errstate(divide="ignore", invalid="ignore"):  # f'' = 0 is clipped or bisected
        for _ in range(80):
            fx = pot.derivative(x, length)
            left = flo * fx <= 0  # the zero lies in [lo, x]
            lo, hi, flo = np.where(left, lo, x), np.where(left, x, hi), np.where(left, flo, fx)
            newton = x - fx / pot.second_derivative(x, length)
            step = np.fmin(np.fmax(newton, lo), hi)  # clipped; a 0/0 step goes to lo
            step = np.where((step == x) & (newton != x), 0.5 * (lo + hi), step)
            x, last = step, x
            if (np.abs(x - last) <= np.spacing(last)).all():
                break
    crits = np.concatenate([xs[:-1][der == 0.0], x])
    curv = pot.second_derivative(crits, length)
    if np.any(np.abs(curv) < 1e-8):
        raise DimensionError("degenerate critical point in Morse potential")
    return sorted((float(x % length), 0 if c > 0 else 1) for x, c in zip(crits, curv))


# ----------------------------------------------------------------------------
# exact spectrum and determinants
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumFamily:
    """Closed-form spectrum mu_n = (2 pi / L)^2 (n^2 - z^2), n in Z."""

    holonomy: complex
    length: float
    z: complex

    def mu(self, n):
        return (TWO_PI / self.length) ** 2 * (n * n - self.z**2)

    def modes_in_disk(self, radius):
        """All (n, mu_n) with |mu_n| <= radius, n in Z (each n separately)."""
        out = []
        n_max = int(np.ceil(abs(self.z) + self.length / TWO_PI * np.sqrt(max(radius, 0.0)) + 2))
        for n in range(-n_max, n_max + 1):
            mu = self.mu(n)
            if abs(mu) <= radius:
                out.append((n, mu))
        return out


def _scalar_holonomy(lam):
    """``lam`` as a complex number; HolonomyError unless it is finite and nonzero."""
    lam = complex(lam)
    if lam == 0:
        raise HolonomyError("holonomy must be nonzero")
    if not cmath.isfinite(lam):
        raise HolonomyError(f"holonomy must be finite, got {lam}")
    return lam


def require_acyclic(lam):
    """ZeroModeError at holonomy exactly 1, where a channel has a zero mode (its
    cohomology); ``lam`` may be an array. Every other holonomy is computed: each
    determinant route carries the factor 1 - lam exactly, so a holonomy an ulp
    from 1 gives a large, correct value."""
    if np.count_nonzero(lam == 1.0):
        raise ZeroModeError("holonomy 1 has a zero mode: the channel is not acyclic")


def modes_inside_cut(fam, cut):
    """The eigenvalues of ``fam`` with |mu| <= cut, a positive cut; an eigenvalue
    within cut_clearance of the cut circle is an AmbiguousCutError."""
    clearance = DEFAULT_TOL.cut_clearance
    near = fam.modes_in_disk(cut + clearance)
    if any(abs(abs(mu) - cut) < clearance for _, mu in near):
        raise AmbiguousCutError(f"eigenvalue within {clearance:.1e} of cut {cut}")
    return [mu for _, mu in near if abs(mu) <= cut]


def exact_spectrum_circle(lam, length=TWO_PI):
    lam = _scalar_holonomy(lam)
    z = np.log(lam) / (2j * np.pi)  # principal branch, Im(log) in (-pi, pi]
    return SpectrumFamily(lam, float(length), complex(z))


def zeta_det_exact(lam, length=TWO_PI, cut=None):
    """Zeta-regularized determinant of the Laplacian family above ``cut``.

    With cut None it is the full determinant (1 - lam)^2 / lam, refused at
    holonomy 1 (``require_acyclic``). An explicit cut >= 0 asks for the primed
    determinant, whose value at holonomy 1 is the classical L^2; a positive
    cut divides out the nonzero eigenvalues inside it (``modes_inside_cut``
    refuses one on the cut circle). Degrees 0 and 1 carry the same family, so
    one value serves both. 1 / zeta_det_exact(lam, L, cut=0.0) is the
    Ray-Singer torsion lam / (1 - lam)^2, and 1 / L^2 at holonomy 1.
    """
    fam = exact_spectrum_circle(lam, length)
    lam = fam.holonomy
    if cut is None:
        require_acyclic(lam)
    base = complex(length**2) if lam == 1.0 else (1.0 - lam) ** 2 / lam
    if cut is None or cut <= 0:
        return base
    removed = 1.0 + 0.0j
    for mu in modes_inside_cut(fam, cut):
        if mu != 0:
            removed *= mu
    return base / removed


def gelfand_yaglom_det(model: CircleModel):
    """Functional determinant via the monodromy of the zero-eigenvalue ODE.

    The ODE is u'' + a1(x) u' = 0 with a1 = 2 phi_eff' - 2A, A = log(lam)/L.
    Its monodromy M over one period is upper triangular: the constants solve
    it, and the other solution has u'(L) = E u'(0) with
    E = exp(-int_0^L a1) = lam^2 exp(-2 int_0^L phi_eff'). Hence
    det(M - lam I) = (1 - lam)(E - lam), and -det(M - lam I) / lam^2, whose
    1/lam^2 is the first-order-coefficient (Forman) factor and whose sign is
    the classical periodic-problem normalization, is the determinant. phi_eff
    is periodic, so int_0^L phi_eff' is exactly 0 and E = lam^2: the value is
    zeta_det_exact's (1 - lam)^2 / lam per channel, whatever the density and
    the deformation, and it is taken in that form, reading no phi. Holonomy 1,
    where det(M - lam I) = 0, is refused (``require_acyclic``). Degrees 0 and
    1 share the value (the nonzero spectra coincide).
    """
    out = 1.0 + 0.0j
    for lam in model.channel_holonomies():
        out *= zeta_det_exact(lam, model.length)
    return out


def witten_deform(model: CircleModel, t_param):
    """Deformed model with density e^{-2 T f} b, i.e. log-density phi - T f.

    Deformations compose additively in T, in ``deform_t``. The deformed model
    holds the same potential, so it shares the potential's one critical-point
    scan.
    """
    if model.potential is None:
        raise DimensionError("witten_deform requires a Morse potential")
    if t_param == 0:
        return model
    return replace(model, deform_t=model.deform_t + float(t_param))


# ----------------------------------------------------------------------------
# discrete operators
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelOperators:
    """Rank-one staggered-grid operators for a single holonomy channel.

    The symmetrized difference K = G1^{1/2} d G0^{-1/2} is cyclic bidiagonal
    and is stored as its two diagonals; the Laplacians K^T K (degree 0) and
    K K^T (degree 1) are cyclic tridiagonal. K is square, so the two share
    one characteristic polynomial, and every spectral method here works on
    K^T K, whose entries ``laplacian_entries`` writes out. ``log_det`` gives
    log det K in closed form in O(N), and det L0 = det L1 = (det K)^2
    (``log_band_torsions`` takes the small band's torsion from the minors of
    K); ``small_band`` the small eigenvalues, from the dense spectrum up to
    DENSE_BAND_MAX_N and by sparse shift-invert Arnoldi in O(N) above it;
    ``eigenvalues`` the full spectrum, in O(N) memory for a real channel and
    from the dense N x N Laplacian for a complex one.
    """

    lam: complex
    n_grid: int
    nodes: np.ndarray
    mids: np.ndarray
    k_diag: np.ndarray      # K[m, m], from local exponent gaps
    k_upper: np.ndarray     # K[m, m+1 mod N]; the seam entry K[N-1, 0] carries lam

    def log_det(self):
        """log det K modulo 2 pi i, in closed form and in O(N).

        K is cyclic bidiagonal, so det K = prod a + (-1)^{N+1} prod b
        (a = k_diag, b = k_upper), the second term from the one cyclic
        permutation. For every K that ``_build_channel`` assembles or
        ``conjugated`` rescales, the ratios b / a telescope to (-1)^N lam,
        so det K = (1 - lam) prod a, and the value is taken in that form:
        near lam = 1 the factor 1 - lam is exact, where a rounded telescoped
        product would cancel. prod a overflows long before N = 65536, where
        log|det K| is about 6e5, so it is summed in log space. A zero or
        non-finite entry of K is an InvalidMatrixError, and holonomy 1, where
        det K = 0, a ZeroModeError."""
        _require_k_in_range(self.k_diag, self.k_upper)
        require_acyclic(self.lam)
        return complex(np.sum(np.log(self.k_diag)) + np.log(1.0 - self.lam))

    def conjugated(self, left, right):
        """These operators with K replaced by diag(left) K diag(right)."""
        return replace(self, k_diag=left * self.k_diag * right,
                       k_upper=left * self.k_upper * np.roll(right, -1))

    def sym_laplacian(self):
        """Dense K^T K, the Laplacian in symmetrized coordinates: similar to
        d*_b d, assembled at unit scale from ``laplacian_entries``. Its
        spectrum is also that of d d*_b."""
        n = self.n_grid
        rows, nxt = np.arange(n), (np.arange(n) + 1) % n
        diag, coupling = laplacian_entries(self.k_diag, self.k_upper)
        lap = np.zeros((n, n), dtype=complex)
        lap[rows, rows] = diag
        lap[rows, nxt] = lap[nxt, rows] = coupling
        return lap

    def eigenvalues(self):
        """The full spectrum of K^T K, shared by both degrees, (Re, Im)-sorted.

        A real channel (both diagonals of K exactly real, as for positive real
        holonomy) has a real symmetric Laplacian: its band form goes to LAPACK's
        symmetric band solver, in O(N) memory and O(N^2) time, which returns
        the values ascending. A complex channel's Laplacian is complex
        symmetric, not Hermitian, and takes a dense O(N^3) eigensolve, refused
        above DENSE_MAX_N. A zero or non-finite entry of K is an InvalidMatrixError."""
        _require_k_in_range(self.k_diag, self.k_upper)
        if not (np.any(self.k_diag.imag) or np.any(self.k_upper.imag)):
            from scipy.linalg import eigvals_banded

            return eigvals_banded(self._real_laplacian_band(), lower=True).astype(complex)
        if self.n_grid > DENSE_MAX_N:
            raise GridError(f"a complex channel's full spectrum is a dense eigensolve; "
                            f"N = {self.n_grid} exceeds {DENSE_MAX_N}")
        ev = np.linalg.eigvals(self.sym_laplacian())
        order = np.lexsort((ev.imag, ev.real))
        return ev[order]

    def _real_laplacian_band(self):
        """Lower band storage, half-width 2, of a real channel's K^T K.

        The cyclic coupling of ``laplacian_entries`` is a band once the nodes
        are interleaved as 0, N-1, 1, N-2, ...: every neighbour then sits one
        or two places away.
        """
        n = self.n_grid
        diag, coupling = laplacian_entries(self.k_diag.real, self.k_upper.real)
        order = np.empty(n, dtype=int)
        order[0::2] = np.arange((n + 1) // 2)
        order[1::2] = n - 1 - np.arange(n // 2)
        place = np.empty(n, dtype=int)
        place[order] = np.arange(n)
        here, there = place, np.roll(place, -1)  # the places of nodes i and i+1
        band = np.zeros((3, n))
        band[0, place] = diag
        band[np.abs(here - there), np.minimum(here, there)] = coupling
        return band

    def small_band(self, bound):
        """The eigenvalues of K^T K of smallest modulus.

        Returns every eigenvalue with |mu| <= bound and at least one beyond
        it, such that no eigenvalue left out has a smaller modulus than one
        returned; GridError when none lies beyond.

        Up to DENSE_BAND_MAX_N points that is the whole spectrum, from
        LAPACK's dense eigensolver: below that crossover it is faster than
        Arnoldi, needs no start vector and loads no scipy. Above it,
        shift-invert Arnoldi (ARPACK) runs on a sparse LU of L - sigma I with
        sigma = -bound/2, not 0: deep in the Witten deformation the band
        eigenvalue is zero to rounding and L itself factors as exactly
        singular. The k Ritz pairs nearest sigma, the farthest at distance r,
        hold every eigenpair with |mu - sigma| < r, hence every one with
        |mu| < r - |sigma|; k doubles until that disk holds a pair beyond the
        bound. A degenerate pair at distance r may be found only in part, so
        the disk is open. The start vector is fixed, so the result is
        reproducible. Either branch places an eigenvalue only to about
        eps ||K^T K||; ``log_band_torsions`` measures a deep band.
        """
        n = self.n_grid
        if n <= DENSE_BAND_MAX_N:
            try:
                vals = np.linalg.eigvals(self.sym_laplacian())
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(f"dense eigensolve failed: {exc}") from exc
            if not np.any(np.abs(vals) > bound):
                raise GridError(
                    f"|mu| <= {bound:.3e} holds all {n} eigenvalues; refine the grid")
            return vals
        # scipy is imported at first use, inside the function that calls it:
        # `import bitorsion` loads none of it
        from scipy.sparse import csc_matrix
        from scipy.sparse.linalg import ArpackError, LinearOperator, eigs, splu

        sigma = -0.5 * float(bound)
        diag, coupling = laplacian_entries(self.k_diag, self.k_upper)
        # column j of L - sigma I holds rows j - 1, j, j + 1 (mod N); the
        # conversion from coordinates sorts each column's indices
        rows = (np.arange(n)[:, None] + np.arange(-1, 2)) % n
        data = np.stack([np.roll(coupling, 1), diag - sigma, coupling], axis=1)
        shifted = csc_matrix((data.ravel(), (rows.ravel(), np.repeat(np.arange(n), 3))),
                             shape=(n, n))
        try:
            lu = splu(shifted)
        except RuntimeError as exc:
            raise ResolutionError(f"shift {sigma:.3e} is an eigenvalue to rounding: {exc}") from exc
        lap = LinearOperator((n, n), matvec=lambda x: shifted @ x + sigma * x, dtype=complex)
        op_inv = LinearOperator((n, n), matvec=lu.solve, dtype=complex)
        v0 = np.random.default_rng(0).standard_normal(n).astype(complex)
        n_pairs = min(6, n - 2)  # a band of up to three wells and the next pair: one run
        while True:
            try:
                vals = eigs(lap, k=n_pairs, sigma=sigma, OPinv=op_inv, v0=v0,
                            return_eigenvectors=False)
            except ArpackError as exc:
                raise ConvergenceError(f"shift-invert Arnoldi failed: {exc}") from exc
            known = np.abs(vals) < np.max(np.abs(vals - sigma)) - abs(sigma)
            if np.any(known & (np.abs(vals) > bound)):
                return vals[known]
            if n_pairs == n - 2:
                raise GridError(
                    f"|mu| <= {bound:.3e} holds nearly all {n} eigenvalues; refine the grid"
                )
            n_pairs = min(2 * n_pairs, n - 2)


def laplacian_entries(k_diag, k_upper):
    """The entries of K^T K from K's two diagonals a = k_diag, b = k_upper:
    the diagonal a_i^2 + b_{i-1}^2 and the coupling a_i b_i of nodes i and
    i + 1 (indices mod N). The only place they are written out."""
    return k_diag * k_diag + np.roll(k_upper * k_upper, 1), k_diag * k_upper


def log_band_torsions(k_diag, k_upper, lam, k):
    """log(e_{N-m}(K^T K) / det(K)^2), m = 0, ..., k + 1, and their relative
    noise floor, for each K of a stack: diagonals of shape (..., N), holonomy
    lam broadcasting against the leading axes. O(N k^2) time and O(N) memory
    per K, with no eigensolve, in one ``_log_transfer_trace`` call.

    With mu the eigenvalues of K^T K this is log e_m(1 / mu): entry k is the
    band torsion 1 / (mu_1 ... mu_k) up to a relative O(mu_k / mu_{k+1}).
    By Cauchy-Binet (transposed, so valid for bilinear K), e_{N-m} sums
    det(K_{R,S})^2 over m removed rows and columns. On the 2N-cycle of K's
    rows and columns a minor with m >= 1 has at most one matching, so
    e_{N-m} is the x^m coefficient of tr prod_i [[a_i^2 + x, b_i^2],
    [x, b_i^2]] (a = k_diag, b = k_upper). Its x^0 one is not det(K)^2 =
    (1 - lam)^2 prod a^2 (``ChannelOperators.log_det``), which divides the
    rest. The factors are divided by a_i^2 as logs, log b - log a, so no
    ratio overflows. The floor is eps * sum|term| / |sum term| at its
    largest: eps on a real stack (every entry real), and on a complex one
    from the moduli, which ride in the same kernel call. A K with a zero or
    non-finite entry has no logs: InvalidMatrixError; at holonomy 1 det K = 0
    divides nothing: ZeroModeError.
    """
    a, b = np.asarray(k_diag), np.asarray(k_upper)
    _require_k_in_range(a, b)
    require_acyclic(lam)
    log_a = np.log(a)
    log_x, log_r = -2.0 * log_a, 2.0 * (np.log(b) - log_a)
    log_det2 = 2.0 * np.log(1.0 - np.asarray(lam, dtype=complex))[..., None]
    if not (np.any(a.imag) or np.any(b.imag)):
        sums = _log_transfer_trace(log_x.real, log_r.real, k + 2)[..., 1:]
        log_det2, moduli = log_det2.real, sums
    else:
        both = _log_transfer_trace(np.stack([log_x, log_x.real + 0j]),
                                   np.stack([log_r, log_r.real + 0j]), k + 2)[..., 1:]
        sums, moduli = both[0], both[1].real
    floor = np.finfo(float).eps * np.max(np.exp(moduli - sums.real), axis=-1)
    return np.concatenate([np.zeros_like(sums[..., :1]), sums - log_det2], axis=-1), floor


def _k_in_range(k_diag, k_upper):
    """Whether every entry of K is finite and nonzero, per K of a stack."""
    ok = np.isfinite(k_diag) & np.isfinite(k_upper) & (k_diag != 0) & (k_upper != 0)
    return np.all(ok, axis=-1)


def _require_k_in_range(k_diag, k_upper):
    """InvalidMatrixError naming the grid unless every entry of every K of the
    stack is finite and nonzero, as it is until e^{T f} leaves double range."""
    if not _k_in_range(k_diag, k_upper).all():
        raise InvalidMatrixError(f"K on the {np.shape(k_diag)[-1]}-point grid has a zero or "
                                 "non-finite entry; refine the grid or lower T")


@dataclass(frozen=True)
class DiscreteOperators:
    """Per-channel staggered operators for a circle model on an N-point grid."""

    n_grid: int
    channels: tuple

    def eigenvalues(self):
        evs = [ch.eigenvalues() for ch in self.channels]
        ev = np.concatenate(evs)
        order = np.lexsort((ev.imag, ev.real))
        return ev[order]


def _build_channel(model: CircleModel, n_grid):
    lam = complex(model.holonomy)
    h = model.length / n_grid
    nodes = np.arange(n_grid) * h
    mids = nodes + 0.5 * h
    log_w0, log_w1 = model.log_density(nodes), model.log_density(mids)
    gap_upper = np.exp(log_w1 - np.roll(log_w0, -1))
    k_upper = (gap_upper / h).astype(complex)
    k_upper[-1] = lam * gap_upper[-1] / h  # the seam edge carries the holonomy
    return ChannelOperators(
        lam=lam, n_grid=n_grid, nodes=nodes, mids=mids,
        k_diag=(-np.exp(log_w1 - log_w0) / h).astype(complex), k_upper=k_upper,
    )


def build_discrete(model: CircleModel, n_grid):
    """Staggered-grid operators: nodes carry 0-forms, midpoints 1-forms.

    The forward difference carries the holonomy on the seam edge; the Grams
    are diagonal with each channel's density (``CircleModel.log_density``,
    reference winding included) and the grid measure, making the adjoint
    identity an exact matrix statement.
    """
    n_grid = int(n_grid)
    if n_grid < 8:
        raise GridError("grid too small: need N >= 8")
    return DiscreteOperators(n_grid=n_grid, channels=tuple(
        _build_channel(ch, n_grid) for ch in model.channels()))


@dataclass(frozen=True)
class SpectralCut:
    """Small-band data at |mu| <= a cut radius: the band eigenvalues, one array
    for both degrees (they share one spectrum), and the smallest modulus beyond."""

    band: np.ndarray
    large_band_min: float


def _log_transfer_trace(log_x, log_r, size):
    """Logs of the coefficients of x^0, ..., x^(size-1) in
    tr prod_i [[1 + x e^{log_x_i}, e^{log_r_i}], [x e^{log_x_i}, e^{log_r_i}]],
    for each item of the leading batch axes of log_x and log_r, shape (..., N).

    Identities pad the N factors to a power of two P, cut into blocks of B.
    A block's product is taken in the linear domain (``_block_products``), its
    coefficients' logs are taken, and neighbouring blocks then multiply
    pairwise in log space (``_log_tree``). B is the largest power of two up to
    P with B (l + ln 3) <= LINEAR_LOG_RANGE, l the largest |Re| of the item's
    factor logs and 0. Every term of a B-factor product is a product of B
    entries of modulus in [e^-l, e^l], and a coefficient sums at most 3^B of
    them, so all a block forms stays in the normal double range. An l beyond
    range, or a zero entry (log -inf), gives B = 1: the log-space tree then
    multiplies the factors themselves. Items are grouped by B, so a batched
    item's value is that of its own call, bit for bit.
    """
    batch, n = log_x.shape[:-1], log_x.shape[-1]
    log_x, log_r = log_x.reshape(-1, n), log_r.reshape(-1, n)
    padded = 1 << (n - 1).bit_length()
    blocks = np.array([_block_size(ell, padded) for ell in
                       np.max(np.maximum(abs(log_x.real), abs(log_r.real)), axis=-1).tolist()])
    out = np.empty((len(log_x), size), dtype=log_x.dtype)
    for block in set(blocks.tolist()):
        pick = blocks == block
        if block == 1:
            t = np.full((pick.sum(), padded, 2, 2, size + 1), -np.inf, dtype=log_x.dtype)
            t[..., 0, 0, 0] = 0.0
            t[:, n:, 1, 1, 0] = 0.0
            t[:, :n, 0, 0, 1] = t[:, :n, 1, 0, 1] = log_x[pick]
            t[:, :n, 0, 1, 0] = t[:, :n, 1, 1, 0] = log_r[pick]
        else:
            coeffs = _block_products(log_x[pick], log_r[pick], size, padded, block)
            t = np.full(coeffs.shape[:-1] + (size + 1,), -np.inf, dtype=log_x.dtype)
            with np.errstate(divide="ignore"):  # a zero coefficient is -inf
                t[..., :size] = np.log(coeffs)
        out[pick] = _log_tree(t, size)
    return out.reshape(batch + (size,))


def _block_size(ell, padded):
    """The largest power of two B <= padded with B (ell + ln 3) <= LINEAR_LOG_RANGE,
    or 1; a nan or infinite ell fits no block."""
    block = 1
    while 2 * block <= padded and 2 * block * (ell + LOG_3) <= LINEAR_LOG_RANGE:
        block *= 2
    return block


def _block_products(log_x, log_r, size, padded, block):
    """Coefficients of x^0, ..., x^(size-1) of each entry of the products of
    ``block`` consecutive factors, identities padding N to ``padded``: shape
    (items, padded / block, 2, 2, size).

    A 2 x 2 matrix of polynomials mod x^size is the 2 size-square matrix of
    lower-triangular Toeplitz blocks whose first columns hold the entries'
    coefficients; products correspond, so neighbours multiply pairwise with
    one ``np.matmul`` per level.
    """
    items, n = log_x.shape
    diag, sub = np.arange(size), np.arange(1, size)
    f = np.zeros((items, padded, 2 * size, 2 * size), dtype=log_x.dtype)
    f[:, :, diag, diag] = 1.0
    f[:, n:, size + diag, size + diag] = 1.0
    x, r = np.exp(log_x)[..., None], np.exp(log_r)[..., None]
    f[:, :n, sub, sub - 1] = f[:, :n, size + sub, sub - 1] = x
    f[:, :n, diag, size + diag] = f[:, :n, size + diag, size + diag] = r
    f = f.reshape(items, padded // block, block, 2 * size, 2 * size)
    while f.shape[2] > 1:
        f = f[:, :, 0::2] @ f[:, :, 1::2]
    cols = f[:, :, 0, :, ::size].reshape(items, padded // block, 2, size, 2)
    return cols.swapaxes(-1, -2)


def _log_tree(t, size):
    """The trace's coefficient logs from t, shape (items, blocks, 2, 2, size + 1):
    the logs of the blocks' entries' coefficients, plus a -inf one that pads
    the 2 (m + 1) terms of power m, left (l, p) times right (l, m - p).
    Neighbours multiply pairwise in O(log blocks) numpy calls."""
    m, term = np.indices((size, 2 * size))
    l, p = np.divmod(term, m + 1)
    left = np.where(l < 2, l * (size + 1) + p, size)
    right = np.where(l < 2, l * (size + 1) + m - p, 0)
    items = len(t)
    while t.shape[1] > 1:
        a = t[:, 0::2].reshape(items, -1, 2, 2 * size + 2)
        b = t[:, 1::2].swapaxes(2, 3).reshape(items, -1, 2, 2 * size + 2)
        t = np.full(a.shape[:2] + (2, 2, size + 1), -np.inf, dtype=t.dtype)
        t[..., :size] = _log_sum_exp(a[:, :, :, None, left] + b[:, :, None, :, right])
    return _log_sum_exp(np.stack([t[:, 0, 0, 0, :size], t[:, 0, 1, 1, :size]], axis=-1))


def _log_sum_exp(z):
    """log sum exp(z) over the last axis, real or complex; all -inf gives -inf."""
    top = np.maximum(z.real.max(axis=-1, keepdims=True), -1e300)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(z - top).sum(axis=-1)) + top[..., 0]
