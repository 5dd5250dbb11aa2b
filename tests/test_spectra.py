
import dataclasses

import numpy as np
import pytest

from qhjqes.families import IDENTITY, Circular, Hyperbolic, NonQESError, RadialSextic, Sextic, family_kind
from qhjqes.oracle import refine
from qhjqes.qmf import qmf
from qhjqes.series import Polynomial
from qhjqes import spectra
from qhjqes.spectra import (
    NonRealEnergyError,
    algebraic_states,
    eigenfunction_with_derivatives,
    gauge_from_residues,
    schrodinger_residual,
)

TWO_ROOT_TWO = 2.8284271247461903
QUARTER_ROOT_HALF = 0.8408964152537145  # 2**(-1/4)


# ------------------------------------------------------------------ gauges


def test_sextic_gauge_pure_quartic():
    fam = Sextic.on_condition(1.0, 0.0, 0)
    g = gauge_from_residues(fam)
    assert g.gauge_polynomial.coeffs == (0j, 0j, 0j, 0j, 0.25 + 0j)
    assert g.prefactors == ()
    # the odd sector's factor x lives in the moving polynomial, not in the gauge
    g_odd = gauge_from_residues(Sextic.on_condition(1.0, 0.0, 1))
    assert g_odd.prefactors == () and g_odd.parity == 1


def test_sextic_gauge_with_quadratic_part():
    fam = Sextic.on_condition(1.5, -0.7, 3)
    g = gauge_from_residues(fam)
    coeffs = g.gauge_polynomial.coeffs
    assert abs(coeffs[4] - 1.5 / 4) < 1e-12
    assert abs(coeffs[2] - (-0.7 / 2)) < 1e-12


def test_radial_gauge_prefactor_is_2s_minus_half():
    fam = RadialSextic(S=1.3, a=1.0, b=0.2, M=1)
    g = gauge_from_residues(fam)
    assert abs(g.prefactors[0][1] - (2 * 1.3 - 0.5)) < 1e-12


def test_chart_gauges():
    circ = Circular(S1=1.1, S2=0.9, q1=1.4, M=1)
    g = gauge_from_residues(circ)
    assert abs(g.prefactors[0][1] - (1.1 - 0.25)) < 1e-12
    assert abs(g.prefactors[1][1] - (0.9 - 0.25)) < 1e-12
    assert abs(g.gauge_polynomial.coeffs[1] - 1.4 / 2) < 1e-12
    hyp = Hyperbolic(S1=1.1, S2=0.9, q1=1.4, M=1)
    gh = gauge_from_residues(hyp)
    # in t = cosh x: cosh^(2 S1 - 1/2) x, and sinh^(2 S2 - 1/2) x split over t = 1 and t = -1
    assert abs(gh.prefactors[0][1] - (2 * 1.1 - 0.5)) < 1e-12
    assert abs(gh.prefactors[1][1] - (0.9 - 0.25)) < 1e-12
    assert abs(gh.prefactors[2][1] - (0.9 - 0.25)) < 1e-12
    assert abs(gh.gauge_polynomial.coeffs[2] - 1.4 / 2) < 1e-12


# ------------------------------------------------------- recursion matrices


def _recursion_matrix(gauge):
    """Dense H on the coefficients (c_0, c_1, ...) of P(v), v = z^k, from the recursion's band."""
    A2, B2, A1, B1, C1, A0, C0, top = spectra._band_numbers(gauge)
    j = np.arange(top + 1.0)
    sup, sub = j[1:] * (j[1:] - 1) * B2 + j[1:] * C1, j[:-1] * A1 + A0  # v^j to v^(j - 1), v^(j + 1)
    return np.diag(j * (j - 1) * A2 + j * B1 + C0) + np.diag(sup, 1) + np.diag(sub, -1)


def test_ground_sector_matrices_are_scalar_zero():
    m0 = _recursion_matrix(gauge_from_residues(Sextic.on_condition(1.0, 0.0, 0)))
    assert m0.shape == (1, 1) and m0[0, 0] == 0.0
    g1 = gauge_from_residues(Sextic.on_condition(1.0, 0.0, 1))
    m1 = _recursion_matrix(g1)
    assert m1.shape == (1, 1) and m1[0, 0] == 0.0
    assert g1.parity == 1


def test_n2_matrix_entries():
    g = gauge_from_residues(Sextic.on_condition(1.0, 0.0, 2))
    m = _recursion_matrix(g)
    assert m.tolist() == [[0.0, -2.0], [-4.0, 0.0]]
    assert g.parity == 0 and m.shape == (2, 2)  # the even powers x^0, x^2


def test_sector_dimensions():
    for n in range(7):
        g = gauge_from_residues(Sextic.on_condition(1.0, 0.5, n))
        m = _recursion_matrix(g)
        assert m.shape == (n // 2 + 1, n // 2 + 1)
        assert g.parity == n % 2


def test_off_condition_family_reports_residual():
    with pytest.raises(NonQESError, match="residual 0.05"):
        _recursion_matrix(gauge_from_residues(Sextic(-6.9, 0.0, 1.0)))


# ------------------------------------------------------------------ spectra


def test_scalar_spectrum():
    # the n = 0 recursion matrix is the scalar 0
    states = algebraic_states(Sextic.on_condition(1.0, 0.0, 0))
    assert [s.energy for s in states] == [0.0]


def test_two_level_spectrum_is_plus_minus_2root2():
    # the n = 2 recursion matrix is [[0, -2], [-4, 0]]
    e = [s.energy for s in algebraic_states(Sextic.on_condition(1.0, 0.0, 2))]
    assert abs(e[0] + TWO_ROOT_TWO) < 1e-12
    assert abs(e[1] - TWO_ROOT_TWO) < 1e-12


def test_complex_matrix_rejected(monkeypatch):
    # a2 = 4 v^2 - 4 v vanishes at v = 0 and v = 1; about both, the one off-diagonal product is -1,
    # so the recursion [[0, -1], [1, 0]] has energies +-i and no real symmetric form
    bands = (4.0, -4.0, 0.0, 0.0, -1.0, 1.0, 0.0, 1)
    monkeypatch.setattr(spectra, "_band_numbers", lambda gauge: bands)
    with pytest.raises(NonRealEnergyError, match="no real symmetric form"):
        algebraic_states(Sextic.on_condition(1.0, 0.0, 2))


def test_n2_state_polynomials():
    states = algebraic_states(Sextic.on_condition(1.0, 0.0, 2))
    low, high = states
    assert abs(low.energy + TWO_ROOT_TWO) < 1e-12
    roots_low = qmf(low).moving_zeros
    assert all(abs(abs(r.imag) - QUARTER_ROOT_HALF) < 1e-10 for r in roots_low)
    assert all(abs(r.real) < 1e-10 for r in roots_low)
    roots_high = qmf(high).moving_zeros
    assert all(abs(abs(r.real) - QUARTER_ROOT_HALF) < 1e-10 for r in roots_high)
    assert all(abs(r.imag) < 1e-10 for r in roots_high)


def test_degree_law():
    for n in range(6):
        for b in (0.0, 1.0):
            states = algebraic_states(Sextic.on_condition(1.0, b, n))
            assert len(states) == n // 2 + 1
            for s in states:
                assert s.gauge.parity + 2 * s.poly.degree == n == s.n_label == len(qmf(s).moving_zeros)


def test_parity_of_eigenfunctions():
    for n in (2, 3):
        for s in algebraic_states(Sextic.on_condition(1.0, 0.0, n)):
            full = eigenfunction_with_derivatives(s)
            sign = 1.0 if s.gauge.parity == 0 else -1.0
            for x in (0.3, 1.1, 2.4):
                psi, psi_minus = full(x)[0], full(-x)[0]
                assert abs(psi_minus - sign * psi) < 1e-12 * max(1.0, abs(psi))


def test_ground_state_value_at_origin():
    s = algebraic_states(Sextic.on_condition(1.0, 0.0, 0))[0]
    assert abs(eigenfunction_with_derivatives(s)(0.0)[0] - 1.0) < 1e-14


def test_eigen_identity_residuals_all_families():
    cases = [
        Sextic.on_condition(1.0, 0.5, 3),
        RadialSextic(S=1.25, a=1.0, b=0.5, M=2),
        Circular(S1=1.0, S2=1.2, q1=1.5, M=2),
        Hyperbolic(S1=1.0, S2=1.25, q1=1.0, M=2),
    ]
    for fam in cases:
        for s in algebraic_states(fam):
            assert schrodinger_residual(s) < 1e-8


_ARRAY_CASES = [
    Sextic.on_condition(1.0, 0.5, 4),
    Sextic.on_condition(1.5, -0.7, 5),
    RadialSextic(S=1.25, a=1.0, b=0.5, M=3),
    Circular(S1=1.0, S2=1.2, q1=1.0, M=3),
    Circular(S1=1.0, S2=1.2, q1=-2.0, M=3),
    Hyperbolic(S1=1.0, S2=1.25, q1=1.0, M=2),
]
_ARRAY_IDS = ["sextic-n4", "sextic-n5-odd", "radial", "circular-q1", "circular-q1-neg2", "hyperbolic"]


@pytest.mark.parametrize("family", _ARRAY_CASES, ids=_ARRAY_IDS)
def test_evaluator_on_an_array_matches_scalar_calls(family):
    zs = np.array([0.15, 0.6, 1.1, 1.45, 0.45 + 0.2j, 0.9 - 0.35j, 1.3 + 0.1j])
    for s in algebraic_states(family):
        f = eigenfunction_with_derivatives(s)
        on_array = f(zs)
        for i, z in enumerate(zs):
            for k, value in enumerate(f(z)):
                assert abs(on_array[k][i] - value) <= 1e-13 * abs(value), (s.index, z, k)


def _closed_form_psi(family, state, x):
    """psi on real x written from the family's parameters alone; P is evaluated at v - origin."""
    kind = family_kind(family)

    def poly(v):
        return state.poly(v - state.origin)

    if kind in ("sextic", "radial_sextic"):
        power = round((family.condition_value - 3.0) / 2.0) % 2 if kind == "sextic" else 2 * family.S - 0.5
        return x**power * np.exp(-family.a * x**4 / 4 - family.b * x**2 / 2) * poly(x * x)
    if kind == "circular":
        s, c = np.sin(x), np.cos(x)
        return s ** (2 * family.S1 - 0.5) * c ** (2 * family.S2 - 0.5) * np.exp(-family.q1 * s * s / 2) * poly(s * s)
    ch, sh = np.cosh(x), np.sinh(x)
    return ch ** (2 * family.S1 - 0.5) * sh ** (2 * family.S2 - 0.5) * np.exp(-family.q1 * ch * ch / 2) * poly(ch * ch)


def _residual_samples(state, n_samples=50):
    """The residual's samples: the gauge's window, inset by 2 % of its length at each end."""
    lo, hi = state.gauge.window
    return np.linspace(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), n_samples)


@pytest.mark.parametrize("family", _ARRAY_CASES, ids=_ARRAY_IDS)
def test_evaluator_matches_the_closed_forms_of_the_parameters(family):
    # equal up to the evaluator's constant scale, which keeps psi from overflowing
    for s in algebraic_states(family):
        xs = _residual_samples(s)
        expected = _closed_form_psi(family, s, xs)
        psi = eigenfunction_with_derivatives(s)(xs)[0]
        j = np.argmax(np.abs(expected))
        scale = psi[j] / expected[j]
        assert scale.real > 0 and abs(scale.imag) <= 1e-13 * scale.real, s.index
        assert np.max(np.abs(psi - scale * expected)) <= 1e-13 * np.max(np.abs(psi)), s.index


# Literal coefficients and origin of each family's top state: the census and
# the pole reports read these bits, so a change of the eigenfunction's
# representation must leave them as they are.
_PINNED_MOVING = [
    (Sextic.on_condition(1.0, 0.5, 4), "(((0.3127638023652865+0j), (-1.6704238086241725+0j), (1+0j)), 0.0)"),
    (Sextic.on_condition(1.5, -0.7, 5), "(((1.5096754599688984+0j), (-2.764564001944073+0j), (1+0j)), 0.0)"),
    (RadialSextic(S=1.25, a=1.0, b=0.5, M=2), "(((1.8812070696598853+0j), (-3.040123727053403+0j), (1+0j)), 0.0)"),
    (
        Circular(S1=1.0, S2=1.2, q1=-2.0, M=2),
        "(((0.23851408379342298+0j), (-1.0649545416906212+0j), (1+0j)), 0.0)",
    ),
    (Hyperbolic(S1=1.0, S2=1.25, q1=1.0, M=2), "(((20.727075944782847+0j), (-10.23442729202213+0j), (1+0j)), 1.0)"),
]


@pytest.mark.parametrize(
    "family,coeffs", _PINNED_MOVING, ids=["sextic-even", "sextic-odd", "radial", "circular-q1-neg", "hyperbolic"]
)
def test_moving_polynomial_is_pinned(family, coeffs):
    state = algebraic_states(family)[-1]
    assert repr((state.poly.coeffs, state.origin)) == coeffs


def _paper_matrix(family) -> np.ndarray:
    """The paper's closed-form recursions from the family's parameters: the reference for the derived matrix."""
    kind = family_kind(family)
    if kind in ("sextic", "radial_sextic"):
        a, b = family.a, family.b
        if kind == "sextic":
            n = round((family.condition_value - 3.0) / 2.0)
            mu, half = n % 2, n // 2
        else:
            mu, half = 2.0 * family.S - 0.5, family.M
        h = np.zeros((half + 1, half + 1))
        for i in range(half + 1):
            k = 2 * i
            h[i, i] = b * (2 * k + 2 * mu + 1)
            if i < half:
                h[i, i + 1] = -(k + 2) * (k + 1 + 2 * mu)
            if i > 0:
                h[i, i - 1] = 2.0 * a * (k - 2 - 2 * half)
        return h
    # the t = sin^2 x recursion; the hyperbolic one is its negative at the same parameters
    mu0, mu1, q1, m = family.S1 - 0.25, family.S2 - 0.25, family.q1, family.M
    g = -q1 / 2.0
    s0 = -4.0 * (mu0 + mu1) ** 2 + (8.0 * mu0 + 2.0) * g
    h = np.zeros((m + 1, m + 1))
    for k in range(m + 1):
        h[k, k] = 4.0 * k * (k - 1) - (8.0 * g - 8.0 * mu0 - 8.0 * mu1 - 4.0) * k - s0
        if k < m:
            h[k, k + 1] = -(k + 1) * (4.0 * k + 8.0 * mu0 + 2.0)
        if k > 0:
            h[k, k - 1] = -4.0 * q1 * (k - 1 - m)
    return h if kind == "circular" else -h


def _families_up_to_12():
    for size in range(13):
        yield Sextic.on_condition(1.3, -0.6, size)
        yield Sextic.on_condition(0.55, 0.9, size)
        yield RadialSextic(S=1.7, a=0.8, b=-0.4, M=size)
        yield Circular(S1=0.7, S2=1.45, q1=1.9, M=size)
        yield Circular(S1=1.6, S2=0.65, q1=-0.45, M=size)
        yield Hyperbolic(S1=1.2, S2=0.8, q1=0.6, M=size)


def test_derived_matrix_is_the_papers_recursion():
    for family in _families_up_to_12():
        derived, paper = _recursion_matrix(gauge_from_residues(family)), _paper_matrix(family)
        assert derived.shape == paper.shape, family
        assert np.max(np.abs(derived - paper)) <= 1e-14 * np.max(np.abs(paper)), family


@pytest.mark.parametrize(
    "family",
    [
        RadialSextic(S=1.25, a=1.0, b=0.5, M=3),
        Circular(S1=1.0, S2=1.2, q1=-1.5, M=3),
        Hyperbolic(S1=1.0, S2=1.25, q1=1.0, M=3),
    ],
    ids=["radial", "circular", "hyperbolic"],
)
def test_exponent_off_the_indicial_equation_is_refused(family):
    g = gauge_from_residues(family)
    (loc, e), *rest = g.prefactors
    with pytest.raises(ArithmeticError, match="indicial"):
        spectra._band_numbers(dataclasses.replace(g, prefactors=((loc, e + 0.1), *rest)))


_SEXTIC, _RADIAL = Sextic.on_condition(1.5, -0.7, 5), RadialSextic(S=1.25, a=1.0, b=0.5, M=3)
_CIRCULAR, _HYPERBOLIC = Circular(S1=1.0, S2=1.2, q1=-1.5, M=3), Hyperbolic(S1=1.0, S2=1.25, q1=1.0, M=3)


@pytest.mark.parametrize(
    "family,power",
    [(_SEXTIC, 4), (_SEXTIC, 2), (_RADIAL, 4), (_RADIAL, 2), (_CIRCULAR, 1), (_CIRCULAR, 2), (_HYPERBOLIC, 2),
     (_HYPERBOLIC, 1)],
    ids=["sextic-leading", "sextic-subleading", "radial-leading", "radial-subleading", "circular-leading",
         "circular-quadratic", "hyperbolic-leading", "hyperbolic-linear"],
)
def test_gauge_off_the_potential_is_refused(family, power):
    # G's z^power coefficient scaled by 1 + 1e-6, or set to 1e-6 of the leading one where it is zero;
    # circular G = g1 t has no term below its leading one that enters the operator, so it gains a t^2 one
    g = gauge_from_residues(family)
    coeffs = list(g.gauge_polynomial.coeffs) + [0j] * (power + 1 - len(g.gauge_polynomial.coeffs))
    coeffs[power] = coeffs[power] * (1 + 1e-6) if coeffs[power] else 1e-6 * g.gauge_polynomial.coeffs[-1]
    with pytest.raises(ArithmeticError, match="outside its band"):
        spectra._band_numbers(dataclasses.replace(g, gauge_polynomial=Polynomial(coeffs)))


class _BentSextic(Sextic):
    chart = dataclasses.replace(IDENTITY, Q=Polynomial([1.0, 1.0]))


def test_chart_whose_a2_leaves_its_band_is_refused():
    # a2 = -Q v'^2 reads the chart alone: Q = 1 + z on k = 2 gives -4 z^2 - 4 z^3, and no power of v = z^2 holds
    # z^3; the per-chart cache keeps no exception, so the second call refuses the chart again
    g = gauge_from_residues(Sextic.on_condition(1.0, 0.5, 2))
    bent = dataclasses.replace(g, ledger=dataclasses.replace(g.ledger, family=_BentSextic.on_condition(1.0, 0.5, 2)))
    for _ in range(2):
        with pytest.raises(ArithmeticError, match=r"a2 has a z\^3 term outside its band"):
            spectra._band_numbers(bent)


@pytest.mark.parametrize("family", _ARRAY_CASES, ids=_ARRAY_IDS)
def test_count_that_does_not_truncate_is_refused(family):
    # two more moving poles keep the sextic's parity; the sector then reaches one power of v further
    g = gauge_from_residues(family)
    with pytest.raises(NonQESError, match="does not truncate"):
        spectra._band_numbers(dataclasses.replace(g, ledger=dataclasses.replace(g.ledger, n=g.ledger.n + 2)))


def _residual_by_loop(state, n_samples=50):
    """The Schrödinger residual one sample at a time: the reference for the array version."""
    f = eigenfunction_with_derivatives(state)
    worst = peak = 0.0
    for x in _residual_samples(state, n_samples):
        psi, _, psi2 = f(complex(x))
        worst = max(worst, abs(-psi2 + (state.family.potential(float(x)) - state.energy) * psi))
        peak = max(peak, abs(psi))
    return worst / peak


@pytest.mark.parametrize("family", _ARRAY_CASES, ids=_ARRAY_IDS)
def test_residual_on_arrays_matches_the_loop(family):
    for s in algebraic_states(family):
        # both are divided by max |psi|, so this bound is relative to the wavefunction's scale
        assert abs(schrodinger_residual(s) - _residual_by_loop(s)) <= 1e-12


def test_residual_stays_finite_next_to_two_strong_walls():
    # sinh(x)^199.5 reaches 1e312 at x = 4.3 of the window [0, 5.23], where the gauge factor is 1e-15: psi is
    # formed from the sum of their logs, so neither factor overflows alone
    for s in algebraic_states(Hyperbolic(S1=1.1, S2=100.0, q1=0.05, M=4)):
        psi = eigenfunction_with_derivatives(s)(_residual_samples(s))[0]
        assert np.all(np.isfinite(psi)), s.index
        assert np.isfinite(schrodinger_residual(s)), s.index


# The n/M = 8..20 table of the planned verify-large workload: S1 = 1.1, S2 = 1.3; radial S = 1.1, a = 1, b = 0.5.
def _large_table(size):
    return [
        Sextic.on_condition(1.0, 0.5, size),
        RadialSextic(S=1.1, a=1.0, b=0.5, M=size),
        Circular(S1=1.1, S2=1.3, q1=1.0, M=size),
        Circular(S1=1.1, S2=1.3, q1=-2.0, M=size),
        Hyperbolic(S1=1.1, S2=1.3, q1=1.0, M=size),
    ]


@pytest.mark.parametrize("size", [8, 12, 16, 20])
def test_large_sizes_give_every_state(size):
    for family in _large_table(size):
        states = algebraic_states(family)
        assert len(states) == (size // 2 + 1 if family_kind(family) == "sextic" else size + 1)
        assert all(s2.energy > s1.energy for s1, s2 in zip(states, states[1:]))


@pytest.mark.parametrize("size", [16, 20])
def test_hyperbolic_spectrum_is_the_circular_one_negated(size):
    circular = np.array([s.energy for s in algebraic_states(Circular(S1=1.1, S2=1.3, q1=1.0, M=size))])
    hyperbolic = np.array([s.energy for s in algebraic_states(Hyperbolic(S1=1.1, S2=1.3, q1=1.0, M=size))])
    assert np.max(np.abs(hyperbolic + circular[::-1])) <= 1e-13 * np.max(np.abs(circular))


def test_radial_recursion_energy_count():
    fam = RadialSextic(S=1.25, a=1.0, b=0.5, M=2)
    states = algebraic_states(fam)
    assert len(states) == 3
    assert all(s.n_label == 4 for s in states)  # degree in x is 2M
    assert all(s2.energy > s1.energy for s1, s2 in zip(states, states[1:]))


# ------------------------------------------------------- oracle containment


@pytest.mark.parametrize(
    "family",
    [
        RadialSextic(S=1.25, a=1.0, b=0.5, M=2),
        Circular(S1=1.0, S2=1.2, q1=1.5, M=1),
        Hyperbolic(S1=1.0, S2=1.25, q1=1.0, M=2),
    ],
    ids=["radial", "circular", "hyperbolic"],
)
def test_algebraic_energies_inside_oracle_spectrum(family):
    states = algebraic_states(family)
    k = len(states) + 2
    spec = refine(family, k=k, tol=5e-5, domain=states[0].gauge.window)
    while spec.energies[-1] < max(s.energy for s in states) + 1.0 and k < 14:
        k += 2
        spec = refine(family, k=k, tol=5e-5, domain=states[0].gauge.window)
    for s in states:
        j = min(range(len(spec.energies)), key=lambda i: abs(spec.energies[i] - s.energy))
        assert abs(spec.energies[j] - s.energy) <= max(2 * spec.error_estimates[j], 1e-6)
