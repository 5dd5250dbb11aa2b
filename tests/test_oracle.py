
import re

import numpy as np
import pytest
from numpy.polynomial import legendre

from qhjqes import oracle
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
    assert (g.x_min, g.x_max, g.n_interior) == (-1.0, 1.0, 100)
    # one basis function per interior node: the Dirichlet ends carry none
    assert len(discretize(harmonic, g)) == 100
    for bad in ((-1.0, 1.0, 0), (-1.0, 1.0, 2.5), (1.0, -1.0, 20), (-1.0, float("inf"), 20)):
        with pytest.raises(ValueError):
            Grid(*bad)


def test_harmonic_sanity_levels():
    g = Grid(-10.0, 10.0, 96)
    e = low_spectrum(discretize(harmonic, g), 3)
    # exact spectrum is 2k + 1 in these units
    assert np.allclose(e, [1.0, 3.0, 5.0], atol=1e-3)


def test_sextic_contains_algebraic_pair():
    g = Grid(-6.0, 6.0, 128)
    e = low_spectrum(discretize(Sextic(-7.0, 0.0, 1.0), g), 6)
    assert min(abs(e - (-TWO_ROOT_TWO))) < 1e-4
    assert min(abs(e - TWO_ROOT_TWO)) < 1e-4


def test_sextic_exact_ground_state():
    g = Grid(-6.0, 6.0, 128)
    e = low_spectrum(discretize(Sextic(-3.0, 0.0, 1.0), g), 1)
    assert abs(e[0]) < 1e-5


def test_low_spectrum_2x2():
    e = low_spectrum(np.array([[2.0, -1.0], [-1.0, 2.0]]), 2)
    assert np.allclose(e, [1.0, 3.0], atol=1e-12)


def test_low_spectrum_diagonal():
    e = low_spectrum(np.diag([5.0, 3.0, 1.0, 4.0, 2.0]), 3)
    assert np.allclose(e, [1.0, 2.0, 3.0], atol=1e-12)


def test_low_spectrum_k_out_of_range():
    with pytest.raises(ValueError):
        low_spectrum(np.eye(4), 5)


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
        got = low_spectrum(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1), n)
        want = _char_poly_roots(diag, off)
        assert np.max(np.abs(got - want)) < 1e-10


def test_refine_harmonic():
    spec = refine(harmonic, k=3, tol=1e-6, domain=(-10.0, 10.0))
    for e, exact, err in zip(spec.energies, (1.0, 3.0, 5.0), spec.error_estimates):
        assert abs(e - exact) < 1e-5
        assert err > 0


def test_refine_exact_sextic_ground():
    spec = refine(Sextic(-3.0, 0.0, 1.0), k=1, tol=1e-6, domain=(-6.0, 6.0))
    assert abs(spec.energies[0]) < 1e-5


def test_refine_radial_contains_algebraic_sector():
    fam = RadialSextic(S=1.25, a=1.0, b=0.5, M=2)
    states = algebraic_states(fam)
    spec = refine(fam, k=fam.M + 1, tol=5e-5, domain=(0.0, 6.0))
    for s in states:
        dist = min(abs(o - s.energy) for o in spec.energies)
        assert dist <= 2 * max(spec.error_estimates)


def test_refine_certifies_slow_wall_convergence():
    # A small barrier exponent (psi ~ x^1.1 at the wall) makes the Dirichlet
    # offset error decay slowly; the certified estimates must still cover the
    # true error against the exact algebraic energies.
    fam = RadialSextic(S=0.8, a=1.0, b=0.0, M=1)
    states = algebraic_states(fam)
    spec = refine(fam, k=4, tol=5e-5, domain=(0.0, 6.0))
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
    spec = refine(family, k=2 * len(states) + 4, tol=5e-5, domain=states[0].gauge.window)
    for s in states:
        j = min(range(len(spec.energies)), key=lambda i: abs(spec.energies[i] - s.energy))
        assert abs(spec.energies[j] - s.energy) <= spec.error_estimates[j] <= 5e-5


def test_refine_refuses_a_domain_end_off_a_wall():
    # in the chart variable an end at distance d from a folded wall sits d^2 away from it, so an end
    # off the wall would leave a Dirichlet layer the ladder cannot resolve; it is refused instead
    fam = Circular(S1=0.62, S2=0.61, q1=1.0, M=2)
    for domain in ((1e-3, np.pi / 2 - 1e-3), (0.0, 2.0), (-1.0, np.pi / 2)):
        with pytest.raises(ValueError, match=r"interval \(0\.0, 1\.5707963267948966\)"):
            refine(fam, k=4, tol=5e-5, domain=domain)
        with pytest.raises(ValueError, match="interval"):
            discretize(fam, Grid(*domain, 20))
    # an end within 1e-12 of the wall is on it
    states = algebraic_states(fam)
    spec = refine(fam, k=2 * len(states) + 4, tol=5e-5, domain=(1e-13, np.pi / 2 - 1e-13))
    assert abs(spec.energies[0] - states[0].energy) <= spec.error_estimates[0]


def test_wall_free_operator_is_plain_lobatto():
    # w = 1: H is the Lobatto-Legendre kinetic matrix plus V at the interior
    # Lobatto nodes, the zeros of P'_{n+1} mapped onto the domain
    fam = Sextic(-7.0, 0.0, 1.0)
    g = Grid(-6.0, 6.0, 40)
    h = discretize(fam, g)
    free = discretize(lambda x: np.zeros_like(x), g)
    assert np.allclose(h, h.T, rtol=0.0, atol=1e-12 * np.abs(h).max())
    nodes = 6.0 * legendre.legroots(legendre.legder([0.0] * 41 + [1.0]))
    assert np.allclose(np.diag(h - free), fam.potential(nodes), rtol=1e-12, atol=1e-9)
    off_diagonal = ~np.eye(40, dtype=bool)
    assert np.array_equal(h[off_diagonal], free[off_diagonal])
    # the free kinetic matrix is the particle in the box [-6, 6]
    box = (np.pi * np.arange(1, 6) / 12.0) ** 2
    assert np.allclose(low_spectrum(free, 5), box, rtol=1e-12)


def test_refine_rejects_uncertifiable_tolerance():
    with pytest.raises(ValueError):
        refine(harmonic, k=1, tol=1e-9, domain=(-5.0, 5.0))


def test_refine_starts_at_a_node_per_level(monkeypatch):
    # 20 levels from a 16-node start: the first solve takes 20 nodes
    monkeypatch.setattr(oracle, "N_START", 16)
    spec = refine(harmonic, k=20, tol=1e-6, domain=(-10.0, 10.0))
    assert len(spec.energies) == 20


def test_refine_reports_nonconvergence_with_last_change(monkeypatch):
    # 16 and 24 nodes leave errors of 1e-2..3 on these levels; 36 is past N_MAX
    monkeypatch.setattr(oracle, "N_START", 16)
    monkeypatch.setattr(oracle, "N_MAX", 30)
    with pytest.raises(OracleConvergenceError) as info:
        refine(harmonic, k=3, tol=1e-8, domain=(-10.0, 10.0))
    last = re.search(r"last change ([0-9.e+-]+)\)", str(info.value))
    assert last and float(last.group(1)) > 1e-3


def test_exponential_convergence_rate():
    # every 8 more nodes divide the error by a factor that does not shrink:
    # an algebraic rate n^-p would give (1 + 8/n)^p, at most 3.2 here for p = 4
    errors = []
    for n in (24, 32, 40, 48):
        errors.append(abs(low_spectrum(discretize(harmonic, Grid(-10.0, 10.0, n)), 1)[0] - 1.0))
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert min(ratios) > 50.0
    assert all(b >= a for a, b in zip(ratios, ratios[1:]))


def test_dirichlet_walls_bound_from_above_and_improve_with_domain():
    values = []
    for L in (2.0, 2.5, 3.0, 4.0):
        n = int(48 * L / 2.0)  # fixed node density across domains
        g = Grid(-L, L, n)
        values.append(low_spectrum(discretize(harmonic, g), 1)[0])
    assert values[0] > values[1] > values[2]
    assert all(v > 1.0 - 1e-6 for v in values)


def test_derivative_matrix_stays_exact_next_to_a_strong_wall():
    # at radial S = 10 the wall's Jacobi exponent is 39; a negative-row-sum diagonal of D cancels
    # there, and ||H|| reaches 2e31 at N = 108 with levels near -1e11
    fam = RadialSextic(S=10.0, a=1.0, b=0.5, M=4)
    states = algebraic_states(fam)
    norms = []
    for n in (48, 72, 108):
        h = discretize(fam, Grid(*states[0].gauge.window, n))
        norms.append(float(np.max(np.sum(np.abs(h), axis=1))))
        levels = low_spectrum(h, len(states))
        assert np.all(np.isfinite(levels))
        assert np.max(np.abs(levels - [s.energy for s in states])) < 1e-6
    # the kinetic part grows like N^4 at most
    assert norms[-1] < (108 / 48) ** 4 * norms[0]


@pytest.mark.parametrize("s2,q1", [(60.0, 0.05), (100.0, 1.0), (100.0, 0.05)])
def test_grown_domain_is_refined_next_to_a_strong_wall(s2, q1):
    # one more unit of x is a factor e in t = cosh x, and the wall's Jacobi weight pushes the nodes to the far end:
    # the grown domain at the window's node density in x is off by 6e-3 (S2 = 60) or 2e4-3e4 (S2 = 100)
    fam = Hyperbolic(S1=1.1, S2=s2, q1=q1, M=4)
    states = algebraic_states(fam)
    spec = refine(fam, k=2 * len(states) + 4, tol=5e-5, domain=states[0].gauge.window)
    energies = np.array(spec.energies)
    for s in states:
        j = int(np.argmin(np.abs(energies - s.energy)))
        assert abs(energies[j] - s.energy) < 1e-8
        assert spec.error_estimates[j] < 1e-6


# family, domain (None: the gauge's window) and the (x_min, x_max, N) of every solve
_LADDERS = {
    "sextic": (Sextic(-7.0, 0.0, 1.0), None, [(-3.53125, 3.53125, n) for n in (48, 72)] + [(-4.53125, 4.53125, 93)]),
    "radial": (RadialSextic(S=1.1, a=1.0, b=0.5, M=2), None, [(0.0, 3.5625, 48), (0.0, 3.5625, 72), (0.0, 4.5625, 93)]),
    "circular": (Circular(S1=1.1, S2=1.3, q1=1.0, M=2), None, [(0.0, np.pi / 2, 48), (0.0, np.pi / 2, 72)]),
    "hyperbolic": (Hyperbolic(S1=1.1, S2=1.3, q1=1.0, M=2), None, [(0.0, 3.0, 48), (0.0, 3.0, 72), (0.0, 4.0, 96)]),
    "hyperbolic-strong-wall": (
        Hyperbolic(S1=1.1, S2=100.0, q1=1.0, M=4),
        None,
        [(0.0, 3.734375, n) for n in (48, 72, 108)] + [(0.0, 4.734375, n) for n in (137, 206, 309)],
    ),
    "sextic-short-box": (
        Sextic(-7.0, 0.0, 1.0),
        (-2.2, 2.2),
        [(-2.2, 2.2, 48), (-2.2, 2.2, 72), (-3.2, 3.2, 105), (-3.2, 3.2, 158)],
    ),
}


def _record_grids(monkeypatch):
    grids = []
    discretize_on = oracle.discretize

    def recording(family, grid):
        grids.append((grid.x_min, grid.x_max, grid.n_interior))
        return discretize_on(family, grid)

    monkeypatch.setattr(oracle, "discretize", recording)
    return grids


@pytest.mark.parametrize("case", list(_LADDERS))
def test_refine_solves_each_ladder_on_its_grids(monkeypatch, case):
    # the window converges at 72 nodes (108 next to the strong wall); the grown domain starts at the same density in
    # x and climbs by 1.5 while its shift and change are at least tol: next to the strong wall, where each unit of x
    # is a factor e in t = cosh x, and on the short box, which truncates the levels until its grown solve settles
    family, domain, ladder = _LADDERS[case]
    grids = _record_grids(monkeypatch)
    states = algebraic_states(family)
    refine(family, k=2 * len(states) + 4, tol=5e-5, domain=domain or states[0].gauge.window)
    assert grids == ladder


@pytest.mark.parametrize("n_max,grids,last", [(30, [16, 24], True), (20, [16], False)])
def test_refine_stops_its_ladder_at_n_max(monkeypatch, n_max, grids, last):
    # the next count, ceil(1.5 N), is solved only while it stays within N_MAX, read when refine is called;
    # a first solve with no refinement after it has no change to report
    monkeypatch.setattr(oracle, "N_START", 16)
    monkeypatch.setattr(oracle, "N_MAX", n_max)
    solved = _record_grids(monkeypatch)
    with pytest.raises(OracleConvergenceError, match=f"with up to {n_max} nodes") as info:
        refine(harmonic, k=3, tol=1e-8, domain=(-10.0, 10.0))
    assert solved == [(-10.0, 10.0, n) for n in grids]
    assert ("last change" in str(info.value)) is last
