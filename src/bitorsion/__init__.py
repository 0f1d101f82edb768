"""Complex-valued symmetric-bilinear torsions and their comparison theorems.

Layers, bottom up:

- ``numkernel``: dense complex linear algebra (LU determinants, the
  symmetric-form check).
- ``complexes``: torsion of a finite cochain complex with complex symmetric
  forms through the canonical determinant-line isomorphism.
- ``morse``: Thom-Smale cochain complexes of Morse systems with flat
  holonomies and their Milnor torsion.
- ``turaev``: Euler structures on the circle, Turaev torsion, Fox-calculus
  Alexander polynomials.
- ``circle`` / ``spectral``: the analytic side on the circle (non-self-adjoint
  Laplacians kept as the two diagonals of their cyclic bidiagonal factor,
  with small bands from the dense spectrum on small grids and by sparse
  shift-invert Arnoldi in O(N) on large ones, and the full spectra of real
  channels by a symmetric band eigensolve; zeta and
  monodromy determinants, Ray-Singer bilinear torsion, Witten deformation
  experiments, and the comparison against the combinatorial torsion).
- ``acceptance`` / ``cli``: the executable verification suite and its
  command-line front door.
"""

from .complexes import (
    BilinearStructure,
    CohomologyData,
    GradedComplex,
    anomaly_ratio,
    cohomology,
    torsion_form,
)
from .circle import (
    CircleModel,
    TrigPoly,
    build_discrete,
    exact_spectrum_circle,
    gelfand_yaglom_det,
    make_circle_model,
    witten_deform,
    zeta_det_exact,
)
from .morse import (
    CriticalForms,
    MorseSystem,
    build_thom_smale,
    make_circle_morse,
    milnor_anomaly_check,
    milnor_torsion,
)
from .spectral import (
    bz_compare,
    conjugation_isospectral_check,
    milnor_from_model,
    morse_from_potential,
    rs_torsion,
    small_spectrum_dims,
    theorem33_experiment,
)
from .turaev import (
    EulerStructure,
    KnotPresentation,
    Representation,
    euler_class_circle,
    fox_alexander,
    knot_from_braid,
    turaev_torsion,
)

__version__ = "0.1.0"
