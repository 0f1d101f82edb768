"""The acceptance gate: every comparison criterion at its stated tolerance.

Each test prints a one-line pass/fail record with the measured worst
deviation and runtime, and asserts both the criterion and its budget.
"""

from dataclasses import replace

import numpy as np
import pytest

from bitorsion import acceptance, circle, complexes, morse, spectral

BUDGETS = {
    1: 5.0,
    2: 5.0,
    3: 5.0,
    4: 5.0,
    5: 2.0,
    6: 10.0,
    7: 5.0,
    8: 60.0,
    9: 120.0,
    10: 60.0,
    11: 180.0,
    12: 5.0,
}


def _check(result):
    line = (
        f"criterion {result.number:2d} [{'pass' if result.passed else 'FAIL'}] "
        f"{result.name}: worst={result.worst:.3e} tol={result.tolerance:.1e} "
        f"({result.seconds:.2f}s)"
    )
    print(line)
    assert result.passed, f"{result.name}: {result.worst} > {result.tolerance} {result.detail}"
    assert result.seconds < BUDGETS[result.number], f"over budget: {result.seconds:.1f}s"


def test_01_finite_complex_anomaly():
    _check(acceptance.criterion_1_finite_anomaly())


def test_02_bruteforce_oracle():
    _check(acceptance.criterion_2_bruteforce_oracle())


def test_02_oracle_sees_a_degree_one_gram_fault(monkeypatch):
    """Criterion 2 fails when torsion_form scales the degree-1 Gram determinant
    by 1 + 1e-9: its worst value is that 1e-9, against a 1e-10 gate.
    Criterion 1 does not see the fault, because its ratio of two torsions
    of one complex cancels it."""
    exact = complexes.nondegenerate_det

    def scaled(a, error, message, *args):
        det = exact(a, error, message, *args)
        return det * (1.0 + 1e-9) if message.startswith("degree 1:") else det

    monkeypatch.setattr(complexes, "nondegenerate_det", scaled)
    result = acceptance.criterion_2_bruteforce_oracle()
    assert not result.passed
    assert result.worst == pytest.approx(1e-9, rel=1e-3)
    assert acceptance.criterion_1_finite_anomaly().passed


def test_03_milnor_anomaly():
    _check(acceptance.criterion_3_milnor_anomaly())


def test_03_anomaly_law_sees_swapped_forms(monkeypatch):
    """Criterion 3 fails when build_thom_smale swaps the forms of the minimum
    m0 and the maximum M0 (worst about 58). Criterion 4 does not see the
    fault, because both of its sides share it."""
    exact = morse.build_thom_smale

    def swapped(ms, forms):
        moved = dict(forms.forms)
        moved["m0"], moved["M0"] = forms.forms["M0"], forms.forms["m0"]
        return exact(ms, morse.CriticalForms(moved))

    monkeypatch.setattr(morse, "build_thom_smale", swapped)
    result = acceptance.criterion_3_milnor_anomaly()
    assert not result.passed
    assert result.worst > 1.0
    assert acceptance.criterion_4_turaev_independence().passed


def test_04_turaev_independence():
    _check(acceptance.criterion_4_turaev_independence())


def test_05_alexander_polynomials():
    _check(acceptance.criterion_5_alexander())


def test_06_main_comparison():
    _check(acceptance.criterion_6_main_comparison())


def test_07_cut_independence():
    _check(acceptance.criterion_7_cut_independence())


def test_08_anomaly_invariance():
    _check(acceptance.criterion_8_anomaly_invariance())


def test_08_discrete_cases_see_a_midpoint_fault(monkeypatch):
    """Criterion 8 reads at most 1e-13 against its 1e-9 gate, and fails when
    ``_build_channel`` scales K's diagonal by e^{1e-6 phi(mid)}: det K then moves
    by e^{1e-6 sum phi(mid)}, 1.28e-5 on the density whose mean is 0.2 and
    rounding on 0.3 sin theta, whose mean is 0."""
    clean = acceptance.criterion_8_anomaly_invariance()
    assert clean.passed and clean.worst <= 1e-13 and clean.tolerance == 1e-9
    exact = circle._build_channel

    def scaled(model, n_grid):
        ch = exact(model, n_grid)
        return replace(ch, k_diag=ch.k_diag * np.exp(1e-6 * model.phi_value(ch.mids)))

    monkeypatch.setattr(circle, "_build_channel", scaled)
    result = acceptance.criterion_8_anomaly_invariance()
    assert not result.passed
    assert result.worst > 1e-6


def test_09_witten_clustering():
    _check(acceptance.criterion_9_witten_clustering())


@pytest.mark.parametrize("fault, message", [
    ("rounding_band", "did not decrease"), ("closed_gap", "Newton gap ratio"),
], ids=["rounding_band", "closed_gap"])
def test_09_band_gates_can_fail(monkeypatch, fault, message):
    """Criterion 9 fails when the band eigenvalue from the minors stops
    decaying, as an eigensolver's reading does once it reaches rounding
    (7e-13 at T >= 10, N = 512), or when a Newton ratio exceeds the gate. The
    faults are injected where ``band_sweep`` looks up ``log_band_torsions``."""
    exact = spectral.log_band_torsions

    def faulty(k_diag, k_upper, lam, k):
        logs, floor = exact(k_diag, k_upper, lam, k)
        if fault == "rounding_band":
            logs[:, 1] = np.minimum(logs[:, 1], -np.log(7e-13))
        else:
            logs[:, 2] = 2.0 * logs[:, 1] + np.log(1e-3)
        return logs, floor

    monkeypatch.setattr(spectral, "log_band_torsions", faulty)
    result = acceptance.criterion_9_witten_clustering()
    assert not result.passed
    assert message in result.detail


def test_10_conjugation_isospectrality():
    _check(acceptance.criterion_10_conjugation())


def test_11_deformation_limit_trend():
    _check(acceptance.criterion_11_thm33_trend())


def test_12_modulus_one():
    _check(acceptance.criterion_12_modulus_one())
