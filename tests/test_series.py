import math
import warnings

import numpy as np
import pytest
from qhjqes import series
from qhjqes.series import (
    CircleContour,
    ContourPoleError,
    LaurentSeries,
    Polynomial,
    TruncationDepthError,
    contour_integral,
    poly_roots,
)

TWO_PI_I = 2j * math.pi


# --------------------------------------------------------- reliable windows


def test_empty_window_raises():
    with pytest.raises(TruncationDepthError):
        LaurentSeries({}, 3, 1)


# ---------------------------------------------------------------- residues
# The residue of a series is its coefficient at exponent -1.


def test_residue_simple():
    assert LaurentSeries({-1: 3.0, 0: 5.0}, -1, 0).coefficient(-1) == 3.0


def test_residue_of_double_pole_is_zero():
    assert LaurentSeries({-2: 1.0}, -2, 0).coefficient(-1) == 0.0


def test_residue_of_shifted_simple_pole():
    # -i/(y - 0.2) expanded about 0.2 is a single term at exponent -1
    s = LaurentSeries({-1: -1j}, -1, 0)
    assert s.coefficient(-1) == -1j


def test_residue_outside_window_raises():
    s = LaurentSeries({0: 1.0, 1: 2.0}, 0, 3)
    with pytest.raises(TruncationDepthError):
        s.coefficient(-1)


# -------------------------------------------------------------- poly roots


def test_roots_of_z2_plus_1():
    roots = poly_roots(Polynomial([1, 0, 1]))
    assert len(roots) == 2
    assert abs(roots[0][0] - (-1j)) < 1e-12
    assert abs(roots[1][0] - 1j) < 1e-12


def test_roots_match_quadratic_formula():
    # 1 + sqrt(2) z^2: the quadratic formula gives +-i * 2^(-1/4)
    r = 2.0 ** (-0.25)
    roots = poly_roots(Polynomial([1, 0, math.sqrt(2)]))
    expected = sorted([-1j * r, 1j * r], key=lambda z: (z.real, z.imag))
    for (got, mult), want in zip(roots, expected):
        assert mult == 1
        assert abs(got - want) < 1e-12


def test_roots_with_multiplicity():
    p = Polynomial(np.poly([1, 1, -2])[::-1])
    roots = poly_roots(p)
    assert [(round(r.real), m) for r, m in roots] == [(-2, 1), (1, 2)]


def test_roots_monic_reconstruction():
    rng = np.random.default_rng(11)
    for _ in range(20):
        deg = int(rng.integers(2, 9))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        p = Polynomial(list(coeffs / coeffs[-1]))
        roots = poly_roots(p)
        rebuilt = Polynomial(np.poly([r for r, m in roots for _ in range(m)])[::-1])
        err = max(abs(x - y) for x, y in zip(rebuilt.coeffs, p.coeffs))
        assert err < 1e-10 * max(1.0, max(abs(c) for c in p.coeffs))


def test_roots_of_unity_degree_24():
    roots = poly_roots(Polynomial([-1] + [0] * 23 + [1]))
    assert len(roots) == 24 and all(m == 1 for _, m in roots)
    for k in range(24):
        want = np.exp(2j * math.pi * k / 24)
        assert min(abs(r - want) for r, _ in roots) < 1e-13


# Twelve simple real roots 0.05 + 0.08 k, k = 0..11, close enough together
# that the bare companion eigenvalues are off by about 7e-9.
CLUSTERED_ROOTS = 0.05 + 0.08 * np.arange(12)


def test_real_polynomial_has_exactly_real_roots():
    roots = poly_roots(Polynomial(np.polynomial.polynomial.polyfromroots(CLUSTERED_ROOTS)))
    assert [m for _, m in roots] == [1] * 12
    assert all(r.imag == 0.0 for r, _ in roots)


def test_newton_step_refines_companion_roots():
    roots = poly_roots(Polynomial(np.polynomial.polynomial.polyfromroots(CLUSTERED_ROOTS)))
    assert max(abs(r - w) for (r, _), w in zip(roots, CLUSTERED_ROOTS)) < 2e-9


def test_roots_of_zero_polynomial_raise():
    with pytest.raises(ValueError):
        poly_roots(Polynomial([0]))
    with pytest.raises(ValueError):
        poly_roots(Polynomial([3.0]))


def test_roots_at_origin_are_exact():
    roots = poly_roots(Polynomial([0, 0, 0, 2.0]))
    assert roots == [(0j, 3)]


# ------------------------------------------------------------- quadrature


def test_contour_simple_pole():
    val = contour_integral(lambda z: 1.0 / z, CircleContour(0, 1.0), 64)
    assert abs(val - TWO_PI_I) < 1e-12


def test_contour_analytic_integrand_vanishes():
    val = contour_integral(lambda z: z, CircleContour(0, 1.0), 64)
    assert abs(val) < 1e-12


def test_contour_shifted_pole():
    val = contour_integral(lambda z: -1j / (z - 0.3), CircleContour(0.3, 0.1), 2048)
    assert abs(val - TWO_PI_I * (-1j)) < 1e-10


def test_contour_random_rationals_match_partial_fractions():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n_poles = int(rng.integers(1, 5))
        poles = 0.6 * (rng.uniform(-1, 1, n_poles) + 1j * rng.uniform(-1, 1, n_poles))
        res = rng.normal(size=n_poles) + 1j * rng.normal(size=n_poles)

        def f(z):
            return sum(r / (z - p) for r, p in zip(res, poles)) + 0.7 * z**2 - 1.1

        val = contour_integral(f, CircleContour(0, 1.0), 256)
        assert abs(val - TWO_PI_I * res.sum()) < 1e-10 * max(1.0, abs(res.sum()))


def test_contour_pole_on_node_raises():
    # the integrand sees the whole node array, so a pole on a node is an
    # inf/nan from numpy (no RuntimeWarning may escape) or a ZeroDivisionError
    # from scalar arithmetic; both are a ContourPoleError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContourPoleError):
            contour_integral(lambda z: 1.0 / (z - 1.0), CircleContour(0, 1.0), 64)
        with pytest.raises(ContourPoleError):
            contour_integral(lambda z: (z - 1.0) / (z - 1.0), CircleContour(0, 1.0), 64)
        with pytest.raises(ContourPoleError):
            contour_integral(lambda z: z / (complex(z[0]) - 1.0), CircleContour(0, 1.0), 64)


def test_unit_roots_are_built_once_and_read_only():
    roots = series._unit_roots(64)
    assert series._unit_roots(64) is roots
    with pytest.raises(ValueError):
        roots[0] = 0.0


def test_cached_contour_rule_gives_the_bits_of_the_uncached_formula():
    f = lambda z: np.exp(z) / (z - 0.2 + 0.1j) ** 2 + 1.0 / z  # noqa: E731
    contour, n = CircleContour(0.1 - 0.05j, 0.7), 2048
    theta = 2.0 * np.pi * np.arange(n) / n
    nodes = contour.center + contour.radius * np.exp(1j * theta)
    dz = 1j * contour.radius * np.exp(1j * theta)
    expected = complex(np.sum(f(nodes) * dz) * (2.0 * np.pi / n))
    assert contour_integral(f, contour, n) == expected


def test_contour_rejects_few_points():
    with pytest.raises(ValueError):
        contour_integral(lambda z: z, CircleContour(0, 1.0), 8)
