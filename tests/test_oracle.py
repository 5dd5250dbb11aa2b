
import numpy as np
import pytest

from qhjqes.families import Circular, Hyperbolic, RadialSextic, Sextic
from qhjqes.oracle import (
    Grid,
    OracleConvergenceError,
    discretize,
    low_spectrum,
    refine,
)
from qhjqes.spectra import algebraic_states

TWO_ROOT_TWO = 2.8284271247461903


def harmonic(x):
    return x * x


def test_grid_invariants():
    g = Grid(-1.0, 1.0, 100)
    assert abs(g.h - 2.0 / 101) < 1e-15
    assert len(g.points()) == 100
    with pytest.raises(ValueError):
        Grid(-1.0, 1.0, 50)
    with pytest.raises(ValueError):
        Grid(1.0, -1.0, 200)


def test_harmonic_sanity_levels():
    g = Grid(-10.0, 10.0, 2000)
    e = low_spectrum(*discretize(harmonic, g), 3)
    # exact spectrum is 2k + 1 in these units
    assert np.allclose(e, [1.0, 3.0, 5.0], atol=1e-3)


def test_sextic_contains_algebraic_pair():
    g = Grid(-6.0, 6.0, 4000)
    e = low_spectrum(*discretize(Sextic(-7.0, 0.0, 1.0), g), 6)
    assert min(abs(e - (-TWO_ROOT_TWO))) < 1e-4
    assert min(abs(e - TWO_ROOT_TWO)) < 1e-4


def test_sextic_exact_ground_state():
    g = Grid(-6.0, 6.0, 8192)
    e = low_spectrum(*discretize(Sextic(-3.0, 0.0, 1.0), g), 1)
    assert abs(e[0]) < 1e-5


def test_low_spectrum_2x2():
    e = low_spectrum(np.array([2.0, 2.0]), np.array([-1.0]), 2)
    assert np.allclose(e, [1.0, 3.0], atol=1e-12)


def test_low_spectrum_diagonal():
    e = low_spectrum(np.arange(1.0, 6.0), np.zeros(4), 3)
    assert np.allclose(e, [1.0, 2.0, 3.0], atol=1e-12)


def test_low_spectrum_k_out_of_range():
    with pytest.raises(ValueError):
        low_spectrum(np.ones(4), np.zeros(3), 5)


def _char_poly_roots(diag, off):
    """Brute-force eigenvalues via the determinant recurrence, for tiny n."""
    p_prev = np.poly1d([1.0])
    p = np.poly1d([-1.0, diag[0]])  # diag[0] - lambda
    for i in range(1, len(diag)):
        term = np.poly1d([-1.0, diag[i]]) * p - off[i - 1] ** 2 * p_prev
        p_prev, p = p, term
    return np.sort(np.real(np.roots(p)))


def test_low_spectrum_matches_characteristic_polynomial():
    rng = np.random.default_rng(31)
    for n in (3, 5, 8):
        diag = rng.normal(size=n)
        off = rng.normal(size=n - 1)
        got = low_spectrum(diag, off, n)
        want = _char_poly_roots(diag, off)
        assert np.max(np.abs(got - want)) < 1e-10


def test_refine_harmonic():
    spec = refine(harmonic, k=3, tol=1e-6, domain=(-10.0, 10.0))
    for e, exact, err in zip(spec.energies, (1.0, 3.0, 5.0), spec.error_estimates):
        assert abs(e - exact) < 1e-5
        assert err > 0


def test_refine_exact_sextic_ground():
    spec = refine(Sextic(-3.0, 0.0, 1.0), k=1, tol=1e-6)
    assert abs(spec.energies[0]) < 1e-5


def test_refine_radial_contains_algebraic_sector():
    fam = RadialSextic(S=1.25, a=1.0, b=0.5, M=2)
    states = algebraic_states(fam)
    spec = refine(fam, k=fam.M + 1, tol=5e-5)
    for s in states:
        dist = min(abs(o - s.energy) for o in spec.energies)
        assert dist <= 2 * max(spec.error_estimates)


def test_refine_certifies_slow_wall_convergence():
    # A small barrier exponent (psi ~ x^1.1 at the wall) makes the Dirichlet
    # offset error decay slowly; the certified estimates must still cover the
    # true error against the exact algebraic energies.
    fam = RadialSextic(S=0.8, a=1.0, b=0.0, M=1)
    states = algebraic_states(fam)
    spec = refine(fam, k=4, tol=5e-5)
    for s in states:
        j = min(range(len(spec.energies)), key=lambda i: abs(spec.energies[i] - s.energy))
        assert abs(spec.energies[j] - s.energy) <= spec.error_estimates[j]


@pytest.mark.parametrize(
    "family",
    [
        Circular(S1=0.62, S2=0.62, q1=1.0, M=2),
        Circular(S1=0.62, S2=1.1, q1=-1.5, M=3),
        Hyperbolic(S1=1.0, S2=0.55, q1=1.0, M=2),
        RadialSextic(S=0.76, a=1.0, b=0.5, M=2),
    ],
    ids=["circular", "circular-negative-q1", "hyperbolic", "radial"],
)
def test_refine_is_honest_at_small_indicial_exponents(family):
    # Wall exponents mu = 2S - 1/2 just above 1/2 leave an h^(2 mu + 1)
    # term next to the h^2 one; the estimates must still cover the error.
    states = algebraic_states(family)
    spec = refine(family, k=2 * len(states) + 4, tol=5e-5)
    for s in states:
        j = min(range(len(spec.energies)), key=lambda i: abs(spec.energies[i] - s.energy))
        assert abs(spec.energies[j] - s.energy) <= spec.error_estimates[j] <= 5e-5


def test_refine_bounds_a_wall_placed_off_the_singular_point():
    # Dirichlet walls at offset 1e-3 move these levels by 0.2-0.9; the
    # truncation check moves them onto the singular points and must see it.
    fam = Circular(S1=0.62, S2=0.61, q1=1.0, M=2)
    states = algebraic_states(fam)
    spec = refine(fam, k=2 * len(states) + 4, tol=5e-5, domain=(1e-3, np.pi / 2 - 1e-3))
    for s in states:
        j = min(range(len(spec.energies)), key=lambda i: abs(spec.energies[i] - s.energy))
        assert 0.1 < abs(spec.energies[j] - s.energy) <= spec.error_estimates[j]


def test_wall_free_operator_is_plain_finite_differences():
    fam = Sextic(-7.0, 0.0, 1.0)
    g = Grid(-6.0, 6.0, 500)
    diag, off = discretize(fam, g)
    inv_h2 = 1.0 / g.h**2
    assert np.array_equal(diag, 2.0 * inv_h2 + fam.potential(g.points()))
    assert np.array_equal(off, np.full(499, -inv_h2))


def test_refine_rejects_uncertifiable_tolerance():
    with pytest.raises(ValueError):
        refine(harmonic, k=1, tol=1e-9, domain=(-5.0, 5.0))


def test_refine_reports_nonconvergence_with_best():
    with pytest.raises(OracleConvergenceError) as info:
        refine(harmonic, k=3, tol=1e-8, domain=(-10.0, 10.0), n_start=128, n_max=512)
    assert info.value.best is not None


def test_second_order_convergence_slope():
    errors, hs = [], []
    for n in (1024, 2048, 4096):
        g = Grid(-10.0, 10.0, n)
        e0 = low_spectrum(*discretize(harmonic, g), 1)[0]
        errors.append(abs(e0 - 1.0))
        hs.append(g.h)
    slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    assert abs(slope - 2.0) <= 0.2


def test_dirichlet_walls_bound_from_above_and_improve_with_domain():
    values = []
    for L in (2.0, 2.5, 3.0, 4.0):
        n = int(4000 * L / 2.0)  # fixed resolution across domains
        g = Grid(-L, L, n)
        values.append(low_spectrum(*discretize(harmonic, g), 1)[0])
    assert values[0] > values[1] > values[2]
    assert all(v > 1.0 - 1e-6 for v in values)
