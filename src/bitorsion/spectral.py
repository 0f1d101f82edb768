"""Spectral experiments on the circle: torsion, Witten deformation, comparisons.

On the circle the Ray-Singer torsion of a holonomy channel is a closed form,

    rs = lam / (1 - lam)^2,    and 1 / L^2 at lam = 1 above a positive cut,

holomorphic in lam (Burghelea-Haller, complex-valued Ray-Singer torsion). A
spectral cut splits it into the small band's torsion, the nonzero band
eigenvalues inverted (the supersymmetry pairing u, du makes the degree-1 band
Gram equal the degree-0 one column-scaled by the eigenvalues), times the
determinant above the cut, which holds the same eigenvalues once more; the
product is the closed form at every admissible cut. So ``rs_torsion`` takes
the closed form, and the cut only refuses: an eigenvalue on the cut circle
makes the split ambiguous.

On the grid the pairing is exact: K is square, so det(z - K K^T) = det(z - K^T K),
and every routine here works on K alone: a spectrum is that of K^T K, and the
conjugation check compares factors, not spectra.

Deep in the Witten deformation that product is far below eps ||L||, where an
eigensolver only counts the band. ``band_sweep`` reads its size in closed form
from the sums e_{N-m} of squared minors of K (``circle.log_band_torsions``,
one call per channel on the stacked K of a T sweep), and the Newton ratio
e_{N-k+1} e_{N-k-1} / e_{N-k}^2, about mu_k / mu_{k+1}, certifies the gap.

The combinatorial side is derived from the same model: ``morse_from_potential``
lays out the potential's critical points, or cos theta's in closed form on a
model without one, with ``morse.circle_system``, counterclockwise from the first
minimum: the closing arc's instanton is the seam and carries lam, never its
rounded inverse. ``bz_compare`` divides the analytic torsion by the Milnor
torsion of that system with the density e^{2 log_density} at the critical
points; in the zero relative-density regime the ratio is exactly one, at every
rotation of the potential.
"""

from dataclasses import dataclass, replace

import numpy as np

from .circle import (
    ChannelOperators,
    CircleModel,
    SpectralCut,
    TrigPoly,
    _k_in_range,
    _require_k_in_range,
    assemble_k,
    build_discrete,
    exact_spectrum_circle,
    log_band_torsions,
    modes_inside_cut,
    require_acyclic,
    zeta_det_exact,
)
from .config import DEFAULT_TOL
from .errors import (
    DimensionError,
    InvalidMatrixError,
    ResolutionError,
    ShapeError,
    ThetaNotZeroError,
    ZeroModeError,
)
from .complexes import CohomologyData
from .morse import CriticalForms, MorseSystem, circle_system, milnor_torsion

__all__ = [
    "spectral_cut",
    "rs_torsion",
    "small_spectrum_dims",
    "SmallSpectrumReport",
    "band_sweep",
    "BandReading",
    "conjugation_isospectral_check",
    "morse_from_potential",
    "model_critical_forms",
    "milnor_from_model",
    "theorem33_experiment",
    "Theorem33Row",
    "bz_compare",
]

DISCRETE_N = 32  # grid of the discrete rs method


# ----------------------------------------------------------------------------
# band extraction on the discrete operators
# ----------------------------------------------------------------------------


def spectral_cut(channel: ChannelOperators, radius):
    """The small band, the eigenvalues with |mu| <= radius, of both Laplacians.

    K^T K and K K^T share one spectrum, so one ``ChannelOperators.small_band``
    run finds every eigenvalue within the cut and its margin, and at least
    one beyond it; the smallest modulus beyond the cut is kept. An eigenvalue
    within the threshold margin (``threshold_margin`` times ``radius``) of the
    cut circle means the gap between the small and the large band is not
    resolved on this grid: ResolutionError. A K with a zero or non-finite
    entry, as e^{T f} leaves double range, is refused first with
    InvalidMatrixError naming the grid. The eigensolver places eigenvalues
    only to about eps ||K^T K||_1, so where that reaches the clearance every
    count it gives is rounding, and the cut refuses with ResolutionError
    naming N and that floor before any eigensolve (N = 16, T = 40 on three
    wells: 1.8e5). The norm is taken as || |K|^T |K| ||_1, equal to
    ||K^T K||_1 on a real channel and an upper bound on a complex one.
    """
    _require_k_in_range(channel.k_diag, channel.k_upper)
    clearance = DEFAULT_TOL.threshold_margin * radius
    # column j of |K|^T |K| (``laplacian_entries`` on |a|, |b|) sums
    # |a_j|^2 + |b_{j-1}|^2 + |a_j b_j| + |a_{j-1} b_{j-1}| = u_j + v_{j-1},
    # u = |a| (|a| + |b|), v = |b| (|a| + |b|): 4 us at N = 64 against the
    # entries' 12 us, in a cut of 0.2 ms there
    mod_a, mod_b = np.abs(channel.k_diag), np.abs(channel.k_upper)
    both = mod_a + mod_b
    u, v = mod_a * both, mod_b * both
    floor = np.finfo(float).eps * max(np.max(u[1:] + v[:-1]), u[0] + v[-1])
    if floor >= clearance:
        raise ResolutionError(
            f"N = {channel.n_grid}: eps ||K^T K||_1 = {floor:.1e} reaches the cut's clearance "
            f"{clearance:.1e}; the eigensolver cannot resolve the band on this grid")
    vals = channel.small_band(radius + clearance)
    mags = np.abs(vals)
    near = np.abs(mags - radius) < clearance
    if np.any(near):
        raise ResolutionError(
            f"gap unresolved: eigenvalue {vals[near][0]:.6e} within {clearance:.1e} of the cut"
        )
    inside = mags <= radius
    return SpectralCut(band=vals[inside], large_band_min=float(np.min(mags[~inside])))


# ----------------------------------------------------------------------------
# Ray-Singer bilinear torsion
# ----------------------------------------------------------------------------


def _rs_discrete_channel(channel_model):
    """(det K_ref / det K_model)^2 on one DISCRETE_N-point grid, the reference
    being the channel with phi = 0 and no deformation; both determinants come
    from ``log_det`` in closed form.

    K is cyclic bidiagonal, so det L1 = (det K)^2, and the ratio is the
    discrete Gelfand-Yaglom theorem's (Forman 1987; Kirsten-McKane 2003): 1
    up to rounding, since the anomaly of the odd-dimensional torsion
    vanishes. On wavy densities it is within 5e-13 of 1. Witten-deformed by
    T, log det K holds the sum of N terms T (f(node) - f(mid)) that cancels
    to 0, and its rounding stays in the value: the error grows like eps N T,
    4.3e-14 at T = 10 and 1.6e-11 at T = 3000 on one well at holonomy 2, and
    below 2 eps N max(T, 1) per channel on the wells and holonomies measured.
    """
    reference = replace(channel_model, phi=TrigPoly.zero(), deform_t=0.0)
    log_det_m = build_discrete(channel_model, DISCRETE_N).channels[0].log_det()
    log_det_r = build_discrete(reference, DISCRETE_N).channels[0].log_det()
    return np.exp(-2.0 * (log_det_m - log_det_r))


def rs_torsion(model: CircleModel, cut=0.0, method="exact"):
    """Ray-Singer symmetric bilinear torsion of the circle model: per channel
    the closed form lam / (1 - lam)^2, or 1 / L^2 at holonomy 1 above a
    positive cut, multiplied over the channels.

    methods: "exact" and "gy" are 1 / ``zeta_det_exact(lam, L, cut=0.0)``,
    which is also 1 / ``gelfand_yaglom_det`` (the monodromy route's growth
    factor is exactly 1 on a periodic density). They read only
    ``model.channel_holonomies()`` and ``model.length``, and construct no
    model. "discrete" multiplies each channel's value by the det K ratio of
    ``_rs_discrete_channel``, on that channel's own model
    (``CircleModel.channels``). The value does not depend on the cut, which
    only refuses: an eigenvalue within cut_clearance of a positive cut is an
    AmbiguousCutError for every method (``circle.modes_inside_cut``). Without
    a positive cut, holonomy 1 is a ZeroModeError (``circle.require_acyclic``),
    and "gy" and "discrete" refuse it at any cut, where their determinant is 0.
    """
    if method not in ("exact", "gy", "discrete"):
        raise DimensionError(f"unknown rs method '{method}'")
    positive_cut = bool(cut and cut > 0)
    discrete = method == "discrete"
    out = 1.0 + 0.0j
    for channel in model.channels() if discrete else model.channel_holonomies():
        lam = complex(channel.holonomy) if discrete else channel
        if positive_cut:
            modes_inside_cut(exact_spectrum_circle(lam, model.length), cut)
        if method != "exact" or not positive_cut:
            require_acyclic(lam)
        value = 1.0 / zeta_det_exact(lam, model.length, cut=0.0)
        out *= value * _rs_discrete_channel(channel) if discrete else value
    return out


# ----------------------------------------------------------------------------
# Witten experiments
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class SmallSpectrumReport:
    counts: tuple
    large_band_min: float


def small_spectrum_dims(model: CircleModel, t_param, n_grid, threshold=1.0):
    """Counts of eigenvalues with |mu| <= threshold per degree, and the
    smallest large-band magnitude (the two-band picture), from each channel's
    threshold cut of the model deformed by T (one ``circle.assemble_k`` row,
    no model copy); the degrees share one spectrum, so the counts are (c, c).
    A model without a potential has no deformation: DimensionError. The
    eigensolver counts the band but places its eigenvalues only to about
    eps ||K^T K||, above the band from T of about 10 on: ``band_sweep`` reads
    its size from the minors of K. An eigenvalue within the threshold margin
    raises ResolutionError."""
    if model.potential is None:
        raise DimensionError("witten_deform requires a Morse potential")
    count, large_min = 0, np.inf
    for ch in assemble_k(model, n_grid, (t_param,)).operators(0).channels:
        cut = spectral_cut(ch, threshold)
        count += int(cut.band.size)
        large_min = min(large_min, cut.large_band_min)
    return SmallSpectrumReport((count, count), large_min)


@dataclass(frozen=True)
class BandReading:
    """One channel's small band at one T, from the minors of K (``band_sweep``)."""

    morse_count: int  # k, the potential's number of minima
    dims: int  # the m <= k with |e_{N-m+1} / e_{N-m}|, about mu_m, at most 1
    newton: complex  # r = e_{N-k+1} e_{N-k-1} / e_{N-k}^2, about mu_k / mu_{k+1}
    floor: float  # the relative noise floor of the sums e_{N-m}
    log_torsion: complex  # log e_{N-k} (1 - r) / det(K)^2 = -log(mu_1 ... mu_k) + O(r^2)
    resolved: bool  # r and the floor within band_torsion_rel

    @classmethod
    def of(cls, logs, floor):
        """From ``log_band_torsions``' logs; nan log torsion on a real r >= 1."""
        k = logs.size - 2
        newton = np.exp(logs[k - 1] + logs[k + 1] - 2.0 * logs[k])
        with np.errstate(invalid="ignore"):
            log_torsion = logs[k] + np.log1p(-newton)
        dims = int(np.sum(np.abs(np.exp(logs[:k] - logs[1:k + 1])) <= 1.0))
        resolved = max(abs(newton), floor) <= DEFAULT_TOL.band_torsion_rel
        return cls(k, dims, newton, floor, log_torsion, resolved)


def band_sweep(model: CircleModel, t_values, n_grid):
    """Per T, in order, a ``BandReading`` of each channel, with no eigensolve.
    One ``circle.assemble_k`` call gives every channel's K at every T, with no
    model copy; then one ``log_band_torsions`` call per channel reads its
    stack, k the potential's number of minima. A K with a zero or non-finite
    entry, as e^{T f} leaves double range, raises InvalidMatrixError naming
    the grid and T once the sweep reaches that T, so a caller's refusal at an
    earlier T comes first."""
    t_values = list(t_values)
    if not t_values:
        return
    minima = sum(1 for _, index in model.critical_points() if index == 0)
    sweeps = []
    for lam, k_diag, k_upper in assemble_k(model, n_grid, t_values).channels:
        in_range = _k_in_range(k_diag, k_upper)
        usable = len(t_values) if in_range.all() else int(np.argmin(in_range))
        sweeps.append((usable, *log_band_torsions(k_diag[:usable], k_upper[:usable],
                                                  lam, minima)))
    for i, t_param in enumerate(t_values):
        if any(usable == i for usable, _, _ in sweeps):
            raise InvalidMatrixError(
                f"K on the {n_grid}-point grid has a zero or non-finite entry at "
                f"T={t_param}; refine the grid or lower T")
        yield tuple(BandReading.of(logs[i], floors[i]) for _, logs, floors in sweeps)


def conjugation_isospectral_check(model: CircleModel, t_param, n_grid):
    """Largest relative entry gap between the deformed factor and the conjugated one.

    The conjugation e^{-Tf} D^2_{b_T} e^{Tf} holds in the factor, entry by
    entry: K_T = diag(e^{-T f(mids)}) K_0 diag(e^{T f(nodes)}). The value is
    max |conj - K_T| / |K_T| over both diagonals of every channel (no entry
    of K is zero), in O(N) with no eigensolve. It is stronger than comparing
    spectra: equal factors make K^T K one matrix, while a fault in
    ``conjugated`` that is a similarity keeps the spectrum, as negating every
    ``k_upper`` on an even grid does (S K S with S = diag((-1)^i)). K_T and
    K_0 are the two rows of one ``circle.assemble_k`` call, with no model
    copy. Where e^{+-T f} or K_T leaves double range (T beyond about 709 on
    cos potentials), a gap would be nan: InvalidMatrixError, naming T.
    """
    if model.potential is None:
        raise DimensionError("conjugation check requires a Morse potential")
    worst = 0.0
    pair = assemble_k(model, n_grid, (t_param, 0.0))
    for ch_t, ch_0 in zip(pair.operators(0).channels, pair.operators(1).channels):
        f_nodes = model.potential.value(ch_0.nodes, model.length)
        f_mids = model.potential.value(ch_0.mids, model.length)
        # np.max carries a nan gap, so none is compared away
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            conj = ch_0.conjugated(np.exp(-float(t_param) * f_mids),
                                   np.exp(float(t_param) * f_nodes))
            gaps = [float(np.max(np.abs(got - want) / np.abs(want)))
                    for got, want in ((conj.k_diag, ch_t.k_diag), (conj.k_upper, ch_t.k_upper))]
        if not np.isfinite(gaps).all():
            raise InvalidMatrixError(
                f"conjugation at T={t_param} on the {n_grid}-point grid: e^(+-T f) or K_T "
                "leaves double range")
        worst = max(worst, *gaps)
    return worst


# ----------------------------------------------------------------------------
# the combinatorial side derived from the model
# ----------------------------------------------------------------------------


def morse_from_potential(model: CircleModel):
    """Thom-Smale system of the model's potential, laid out by ``circle_system``
    counterclockwise from its first minimum, within one period: a scan of
    [0, L) that starts at a maximum x moves it to x + L. The seam is the middle
    of the closing arc, whose counterclockwise instanton (arc 2n - 1, sign +1)
    carries lam. A model without a potential takes cos theta's layout in closed
    form, with no scan: the minimum at L / 2 and the maximum at L.
    """
    if model.rank != 1:
        raise DimensionError("morse_from_potential works per rank-one channel")
    crits = (model.critical_points() if model.potential is not None
             else ((0.5 * model.length, 0), (model.length, 1)))
    if crits and crits[0][1] == 1:
        crits = crits[1:] + ((crits[0][0] + model.length, 1),)
    if not crits or [ind for _, ind in crits] != [0, 1] * (len(crits) // 2):
        raise DimensionError("potential must have alternating minima and maxima")
    at = [x for x, _ in crits]
    return circle_system([[model.holonomy]], at, len(at) - 1,
                         0.5 * (at[-1] + at[0] + model.length), model.length)


def model_critical_forms(model: CircleModel, ms: MorseSystem):
    """The model's bilinear density e^{2 log_density} at the critical points; at a
    maximum moved to x + L, that is e^{2 log_density(x)} lam^{-2} on any branch."""
    return CriticalForms({p.label: np.array([[np.exp(2.0 * model.log_density(
        ms.geometry.positions[p.label]))]], dtype=complex) for p in ms.points})


def _acyclic_milnor(sub: CircleModel):
    """One channel's Thom-Smale system and Milnor torsion, taken acyclic as the
    analytic side takes it; a rank cut that finds cohomology is a ZeroModeError."""
    ms = morse_from_potential(sub)
    acyclic = CohomologyData(tuple(np.zeros((c, 0), dtype=complex) for c in ms.morse_counts()))
    try:
        return ms, milnor_torsion(ms, model_critical_forms(sub, ms), acyclic)
    except ShapeError as exc:
        raise ZeroModeError(f"|lam - 1| = {abs(complex(sub.holonomy) - 1.0):.1e}: the "
                            "Thom-Smale complex has numerical cohomology") from exc


def milnor_from_model(model: CircleModel):
    """Milnor torsion of the model-derived Thom-Smale pair (channel product)."""
    out = 1.0 + 0.0j
    for sub in model.channels():
        out *= _acyclic_milnor(sub)[1]
    return out


# ----------------------------------------------------------------------------
# theorem-level experiments
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class Theorem33Row:
    t_param: float
    ratio: complex
    abs_log_ratio: float
    band_dims: tuple
    gap_ratio: float  # the largest Newton ratio over the channels


def _counting_data(ms: MorseSystem, potential: TrigPoly, length):
    """Tr_s[f] = sum_x (-1)^{ind x} f(x), and the |f''(x)|, at the Morse positions."""
    positions = [ms.geometry.positions[p.label] for p in ms.points]
    trs = sum((-1) ** p.index * float(potential.value(x, length))
              for p, x in zip(ms.points, positions))
    return trs, np.abs(potential.second_derivative(np.array(positions), length))


def theorem33_experiment(model: CircleModel, t_values, n_grid):
    """Scaled band-torsion over Milnor-torsion ratios along a T sweep.

    ``band_sweep`` reads each channel's band at every T, in T order; band dims
    other than the Morse counts, or an unresolved band, raise ResolutionError,
    and a K out of double range InvalidMatrixError. The band torsion
    1 / (mu_1 ... mu_k) over the Milnor torsion of the model-derived
    Thom-Smale pair (its Morse data built once per channel) is scaled by
    prod_x (T |f''(x)| / pi)^{1/2} exp(2 Tr_s[f] T) per channel, x over its
    critical points and f'' read at the Morse positions, never fitted; all in
    logs. It tends to 1; rows record |log ratio| and the largest Newton ratio.
    """
    if model.potential is None:
        raise DimensionError("theorem33_experiment requires a Morse potential")
    t_values = list(t_values)
    channels = []
    for sub in model.channels():
        ms, milnor = _acyclic_milnor(sub)
        channels.append((np.log(milnor), _counting_data(ms, sub.potential, sub.length)))
    rows = []
    for t_param, readings in zip(t_values, band_sweep(model, t_values, n_grid)):
        log_ratio, gap, dims = 0.0, 0.0, 0
        for (log_milnor, (trs, hessians)), reading in zip(channels, readings):
            band, k = reading.dims, reading.morse_count
            if band != k:
                raise ResolutionError(
                    f"band dims {(band, band)} do not match Morse counts {(k, k)} at T={t_param}")
            if not reading.resolved:
                raise ResolutionError(
                    f"band unresolved at T={t_param}: Newton gap ratio {abs(reading.newton):.1e}, "
                    f"noise floor {reading.floor:.1e}, gate {DEFAULT_TOL.band_torsion_rel:.0e}; "
                    "raise T for the gap, lower it for the floor, or refine the grid")
            gap, dims = max(gap, float(abs(reading.newton))), dims + band
            log_ratio += (reading.log_torsion - log_milnor + 2.0 * trs * t_param
                          + 0.5 * np.sum(np.log(t_param * hessians / np.pi + 0j)))
        ratio = complex(np.exp(log_ratio))
        rows.append(Theorem33Row(float(t_param), ratio, float(abs(np.log(ratio))),
                                 (dims, dims), gap))
    return rows


def bz_compare(model: CircleModel, method="exact", cut=0.0):
    """Analytic torsion transported to the Thom-Smale line over Milnor torsion.

    Only valid in the zero relative-density regime (constant phi against the
    canonical reference); the acyclic transport on determinant lines is then
    canonical and the predicted value of the ratio is exactly 1. Near lam = 1
    it refuses, with ZeroModeError, where either side does.
    """
    if not model.phi.is_constant() or model.deform_t != 0.0:
        raise ThetaNotZeroError(
            "relative density form is nonzero; use the anomaly invariance test instead"
        )
    return rs_torsion(model, cut=cut, method=method) / milnor_from_model(model)
