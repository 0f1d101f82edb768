"""Independent oracles for the benchmark's ops.

No expected value here comes from a bitorsion function: closed forms use
numpy determinants, and the knot oracles use this module's own integer
polynomial arithmetic.
"""

import math
from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one op's value.

    ``err``/``tol`` are set for numeric oracles (they feed the accuracy
    margin); ``defect`` names a documented seed defect when the failure
    matches one.
    """

    ok: bool
    err: float | None = None
    tol: float | None = None
    detail: str = ""
    defect: str | None = None

    def margin_decades(self):
        """log10(tol / err), with err floored at one ulp of the compared scale."""
        if self.err is None or self.tol is None:
            return None
        return math.log10(self.tol / max(self.err, EPS))


def perturbed(value, expected, perturb):
    """``value`` shifted by ``perturb`` times the expected scale (smoke-test hook)."""
    return complex(value) + perturb * max(abs(complex(expected)), 1.0)


def close(value, expected, tol, perturb=0.0, relative=True):
    """Numeric check: |value - expected| (relative to |expected|) within tol."""
    expected = complex(expected)
    value = perturbed(value, expected, perturb)
    err = abs(value - expected)
    if relative:
        err /= abs(expected)
    if not np.isfinite(err):
        return Verdict(False, math.inf, tol, f"non-finite value {value!r}")
    return Verdict(err <= tol, err, tol, f"value {value:.6g} expected {expected:.6g}")


def worst(verdicts):
    """Combine several numeric checks of one op: the one with the largest err/tol."""
    bad = [v for v in verdicts if not v.ok]
    if bad:
        return bad[0]
    return max(verdicts, key=lambda v: v.err / v.tol)


# ----------------------------------------------------------------------------
# closed forms
# ----------------------------------------------------------------------------


def rs_closed_form(holonomy):
    """Ray-Singer torsion on the circle: det H / det(1 - H)^2.

    The zeta determinant of each channel is (1 - lam)^2 / lam, and the
    torsion is its inverse; for a matrix holonomy the channel product is a
    determinant, so no diagonalization enters the oracle.
    """
    h = np.atleast_2d(np.asarray(holonomy, dtype=complex))
    one = np.eye(h.shape[0])
    return complex(np.linalg.det(h) / np.linalg.det(one - h) ** 2)


def milnor_closed_form(holonomy, forms, indices):
    """Milnor torsion of a circle Morse system: det(1 - H)^-2 times the anomaly.

    With unit forms the torsion is det(1 - H)^-2 for any number of pairs;
    changing the form at x to b_x multiplies it by det(b_x)^((-1)^ind x).
    """
    h = np.atleast_2d(np.asarray(holonomy, dtype=complex))
    value = complex(np.linalg.det(np.eye(h.shape[0]) - h)) ** -2
    for label, b in forms.items():
        d = complex(np.linalg.det(b))
        value = value * d if indices[label] % 2 == 0 else value / d
    return value


def turaev_closed_form(holonomy, euler_class):
    """Turaev torsion at Euler class c: det(1 - H)^-2 det(H)^(-2c).

    The spider transport at a point with total winding n multiplies its form
    by det(H)^(-2n); with Euler characteristic zero the reference form
    cancels and only the signed winding sum c survives.
    """
    h = np.atleast_2d(np.asarray(holonomy, dtype=complex))
    det_h = complex(np.linalg.det(h))
    return complex(np.linalg.det(np.eye(h.shape[0]) - h)) ** -2 * det_h ** (-2 * euler_class)


def anomaly_closed_form(automorphisms):
    """Finite-complex anomaly law: prod_i det(A_i)^(2 (-1)^i), by numpy.linalg.det."""
    ratio = 1.0 + 0.0j
    for i, a in enumerate(automorphisms):
        d = complex(np.linalg.det(a))
        ratio = ratio * d**2 if i % 2 == 0 else ratio / d**2
    return ratio


# ----------------------------------------------------------------------------
# integer polynomials (coefficient lists, lowest degree first)
# ----------------------------------------------------------------------------


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divexact(num, den):
    """Exact division of integer polynomials; raises if there is a remainder."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c, r = divmod(num[k + len(den) - 1], den[-1])
        if r:
            raise ArithmeticError("inexact polynomial division")
        q[k] = c
        for j, d in enumerate(den):
            num[k + j] -= c * d
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return q


def _t_power_minus_one(n):
    return [-1] + [0] * (n - 1) + [1]


def torus_alexander(p, q):
    """(t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)) as a coefficient list."""
    num = _poly_mul(_t_power_minus_one(p * q), _t_power_minus_one(1))
    den = _poly_mul(_t_power_minus_one(p), _t_power_minus_one(q))
    return _poly_divexact(num, den)


def normalize(coeffs):
    """Coefficient dict {exponent: c} -> list, lowest exponent 0, positive lead."""
    coeffs = {e: c for e, c in coeffs.items() if c}
    if not coeffs:
        return []
    lo, hi = min(coeffs), max(coeffs)
    out = [coeffs.get(e, 0) for e in range(lo, hi + 1)]
    g = 0
    for c in out:
        g = math.gcd(g, abs(c))
    out = [c // g for c in out]
    return out if out[-1] > 0 else [-c for c in out]


# Alexander polynomials from the Rolfsen knot table, for the corpus that the
# acceptance suite's criterion 5 uses (granny = trefoil # trefoil).
KNOT_TABLE = {
    "unknot": [1],
    "trefoil": [1, -1, 1],
    "figure-eight": [1, -3, 1],
    "cinquefoil": [1, -1, 1, -1, 1],
    "5_2": [2, -3, 2],
    "6_2": [1, -3, 3, -3, 1],
    "6_3": [1, -3, 5, -3, 1],
    "7_1": [1, -1, 1, -1, 1, -1, 1],
    "granny": [1, -2, 3, -2, 1],
    "8_19": [1, -1, 0, 1, 0, -1, 1],
}


def alexander_check(coeffs, expected=None, perturb=0.0):
    """Exact Alexander check: Delta(1) = +-1, palindromic, and equal to ``expected``.

    ``perturb`` shifts the constant coefficient by ``perturb`` (smoke-test
    hook); any non-integer or shifted coefficient fails.
    """
    poly = normalize(coeffs)
    if perturb:
        poly = [poly[0] + perturb] + poly[1:]
    problems = []
    if sum(poly) not in (1, -1):
        problems.append(f"Delta(1) = {sum(poly)}")
    if poly != poly[::-1]:
        problems.append("not palindromic")
    if expected is not None and poly != list(expected):
        problems.append(f"got {poly}, expected {list(expected)}")
    return Verdict(not problems, detail="; ".join(problems))
