"""Central numerical policy.

The torsion theory itself is exact linear algebra; every threshold below is
artifact policy, collected here so no module hides its own magic numbers.
Each field is read from ``DEFAULT_TOL`` where it is used; none is a per-call
argument.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # matrix kernel
    rank_rel: float = 1e-10           # numerical rank, relative to largest pivot
    symmetry_rel: float = 1e-12       # ||g - g^T|| <= symmetry_rel * ||g||
    nondegeneracy_rel: float = 1e-12  # |det g| floor, relative to scale
    cut_clearance: float = 1e-9       # min eigenvalue distance to a cut boundary

    # complexes
    d_squared_rel: float = 1e-12      # ||d.d|| <= d_squared_rel * scale
    cocycle_rel: float = 1e-10        # representative re-projection tolerance

    # circle spectral
    density_floor: float = 1e-10      # e^{2 phi} must stay above this
    threshold_margin: float = 0.10    # band counts need 10% clearance
    band_torsion_rel: float = 1e-4    # closed-form band torsion: Newton gap ratio, noise floor


DEFAULT_TOL = Tolerances()
