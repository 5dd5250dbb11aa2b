import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhjqes.series import (
    CircleContour,
    ContourPoleError,
    LaurentSeries,
    Polynomial,
    TruncationDepthError,
    contour_integral,
    poly_roots,
    residue,
    series_derivative,
    series_product,
)

TWO_PI_I = 2j * math.pi


# ---------------------------------------------------------------- products


def test_product_of_inverse_monomials():
    inv_y = LaurentSeries.exact({-1: 1.0})
    prod = series_product(inv_y, inv_y)
    assert prod.coeffs == {-2: 1.0 + 0j}


def test_square_of_y_plus_inverse():
    s = LaurentSeries.exact({1: 1.0, -1: 1.0})
    sq = series_product(s, s)
    assert sq.coeffs == {2: 1 + 0j, 0: 2 + 0j, -2: 1 + 0j}


def test_product_matches_naive_convolution():
    rng = np.random.default_rng(7)
    for _ in range(20):
        lo_a, lo_b = rng.integers(-4, 1, size=2)
        terms_a = {int(lo_a + k): complex(*rng.normal(size=2)) for k in range(8)}
        terms_b = {int(lo_b + k): complex(*rng.normal(size=2)) for k in range(8)}
        a = LaurentSeries(terms_a, int(lo_a), int(lo_a) + 7)
        b = LaurentSeries(terms_b, int(lo_b), int(lo_b) + 7)
        prod = series_product(a, b)
        # independent oracle: double-loop convolution over the stored terms
        naive = {}
        for i, ca in terms_a.items():
            for j, cb in terms_b.items():
                naive[i + j] = naive.get(i + j, 0j) + ca * cb
        scale = max(abs(v) for v in naive.values())
        for k in range(prod.lo, prod.hi + 1):
            assert abs(prod.coefficient(k) - naive.get(k, 0j)) <= 1e-14 * scale


def test_empty_window_raises():
    with pytest.raises(TruncationDepthError):
        LaurentSeries({}, 3, 1)


def test_product_window_tightening():
    a = LaurentSeries({-1: 1.0, 0: 1.0, 1: 1.0}, -1, 1)
    b = LaurentSeries.exact({0: 1.0, 2: 3.0})
    prod = series_product(a, b)
    assert prod.lo == -1 and prod.hi == 1
    with pytest.raises(TruncationDepthError):
        prod.coefficient(2)


# ------------------------------------------------------------- derivatives


def test_derivative_of_inverse():
    d = series_derivative(LaurentSeries.exact({-1: 1.0}))
    assert d.coeffs == {-2: -1 + 0j}


def test_derivative_of_cube():
    d = series_derivative(LaurentSeries.exact({3: 1.0}))
    assert d.coeffs == {2: 3 + 0j}


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(3)
    terms = {int(k): complex(*rng.normal(size=2)) for k in range(-3, 5)}
    s = LaurentSeries(terms, -3, 4)
    d = series_derivative(s)
    y, h = 0.3, 2e-4
    fd = (
        -s.evaluate(y + 2 * h)
        + 8 * s.evaluate(y + h)
        - 8 * s.evaluate(y - h)
        + s.evaluate(y - 2 * h)
    ) / (12 * h)
    assert abs(d.evaluate(y) - fd) < 1e-8


def test_derivative_shifts_window():
    s = LaurentSeries({0: 2.0, 3: 1.0}, 0, 3)
    d = series_derivative(s)
    assert d.window == (-1, 2)


# ---------------------------------------------------------------- residues


def test_residue_simple():
    assert residue(LaurentSeries.exact({-1: 3.0, 0: 5.0})) == 3.0


def test_residue_of_double_pole_is_zero():
    assert residue(LaurentSeries.exact({-2: 1.0})) == 0.0


def test_residue_of_shifted_simple_pole():
    # -i/(y - 0.2) expanded about 0.2 is a single term at exponent -1
    s = LaurentSeries.exact({-1: -1j})
    assert residue(s) == -1j


def test_residue_outside_window_raises():
    s = LaurentSeries({0: 1.0, 1: 2.0}, 0, 3)
    with pytest.raises(TruncationDepthError):
        residue(s)


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
    p = Polynomial.from_roots([1, 1, -2])
    roots = poly_roots(p)
    assert [(round(r.real), m) for r, m in roots] == [(-2, 1), (1, 2)]


def test_roots_monic_reconstruction():
    rng = np.random.default_rng(11)
    for _ in range(20):
        deg = int(rng.integers(2, 9))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        p = Polynomial(list(coeffs)).monic()
        roots = poly_roots(p)
        rebuilt = Polynomial.from_roots(
            [r for r, m in roots for _ in range(m)]
        )
        err = max(abs(x - y) for x, y in zip(rebuilt.coeffs, p.coeffs))
        assert err < 1e-10 * max(1.0, max(abs(c) for c in p.coeffs))


def test_roots_of_unity_degree_24():
    roots = poly_roots(Polynomial([-1] + [0] * 23 + [1]))
    assert len(roots) == 24 and all(m == 1 for _, m in roots)
    for k in range(24):
        want = np.exp(2j * math.pi * k / 24)
        assert min(abs(r - want) for r, _ in roots) < 1e-13


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
    val = contour_integral(lambda z: -1j / (z - 0.3), CircleContour(0.3, 0.1))
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


def test_contour_rejects_few_points():
    with pytest.raises(ValueError):
        contour_integral(lambda z: z, CircleContour(0, 1.0), 8)


# ------------------------------------------------- algebraic property tests

finite_complex = st.complex_numbers(
    min_magnitude=0, max_magnitude=4, allow_nan=False, allow_infinity=False
)
series_terms = st.dictionaries(st.integers(-3, 4), finite_complex, min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(series_terms, series_terms)
def test_product_commutes(ta, tb):
    a, b = LaurentSeries.exact(ta), LaurentSeries.exact(tb)
    ab, ba = series_product(a, b), series_product(b, a)
    keys = set(ab.coeffs) | set(ba.coeffs)
    scale = max([abs(v) for v in ab.coeffs.values()] + [1.0])
    assert all(abs(ab.coeffs.get(k, 0j) - ba.coeffs.get(k, 0j)) <= 1e-14 * scale for k in keys)


@settings(max_examples=40, deadline=None)
@given(series_terms, series_terms, series_terms)
def test_product_associates(ta, tb, tc):
    a, b, c = (LaurentSeries.exact(t) for t in (ta, tb, tc))
    left = series_product(series_product(a, b), c)
    right = series_product(a, series_product(b, c))
    keys = set(left.coeffs) | set(right.coeffs)
    scale = max([abs(v) for v in left.coeffs.values()] + [1.0])
    assert all(
        abs(left.coeffs.get(k, 0j) - right.coeffs.get(k, 0j)) <= 1e-13 * scale for k in keys
    )


@settings(max_examples=60, deadline=None)
@given(series_terms, series_terms)
def test_leibniz_rule(ta, tb):
    a, b = LaurentSeries.exact(ta), LaurentSeries.exact(tb)
    lhs = series_derivative(series_product(a, b))
    rhs_terms = {}
    for part in (
        series_product(series_derivative(a), b),
        series_product(a, series_derivative(b)),
    ):
        for k, v in part.coeffs.items():
            rhs_terms[k] = rhs_terms.get(k, 0j) + v
    keys = set(lhs.coeffs) | set(rhs_terms)
    scale = max([abs(v) for v in rhs_terms.values()] + [1.0])
    assert all(abs(lhs.coeffs.get(k, 0j) - rhs_terms.get(k, 0j)) <= 1e-13 * scale for k in keys)
