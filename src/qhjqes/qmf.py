"""Momentum-function pole census and contour verification for algebraic states.

The momentum function p = -i psi'/psi of a closed-form state is assembled
analytically (log-derivative of the stored factors; no numerical
differentiation). Its simple poles at the zeros of the polynomial factor are
the moving poles; this module measures their residues by contour quadrature,
counts them two independent ways, and checks the counting laws:

* every simple moving pole carries residue -i times the chart weight;
* a contour hugging the real axis picks up exactly the real zeros;
* a large contour, after removing the fixed-pole contributions, counts all
  moving poles - and must agree with the argument principle applied to the
  polynomial factor alone.

For the polynomial families the census lives in the x plane; for the
trigonometric and hyperbolic families it lives in the chart plane
(t = sin^2 x, t = cosh x), where the momentum is single valued.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .families import family_kind
from .series import CircleContour, Polynomial, contour_integral, poly_roots, sample_finite
from .spectra import AlgebraicState, moving_polynomial

__all__ = [
    "CensusReport",
    "DegenerateZeroError",
    "NoSeparatingContourError",
    "PoleReport",
    "QmfEvaluator",
    "global_pole_count",
    "infinity_order_check",
    "pole_reports",
    "qmf",
    "quantization_check",
    "residue_at_zero",
    "zero_census",
]

_REAL_AXIS_TOL = 1e-9


class DegenerateZeroError(ValueError):
    """A wavefunction zero of multiplicity >= 2 was encountered."""


class NoSeparatingContourError(ValueError):
    """A complex zero sits too close to the real axis to draw the contour."""


@dataclass(frozen=True)
class QmfEvaluator:
    """Analytic momentum function of one algebraic state.

    ``evaluation`` maps a point of the census plane to p (or the reduced
    chart momentum q), elementwise when given an ndarray of points; its
    moving-pole part is P'/P from the coefficients of ``moving_poly``.
    ``moving_zeros`` holds the zeros of ``moving_poly`` with multiplicities,
    as ``poly_roots`` returns them, solved once when the evaluator is built;
    they place contours and name poles but never enter ``evaluation``.
    ``moving_residue`` is the exact residue every simple moving pole must
    carry; ``measure`` converts chart residues to quantization units, so
    measure * moving_residue = -i always.
    """

    state: AlgebraicState
    evaluation: Callable[[complex], complex]
    census_variable: str
    moving_poly: Polynomial
    moving_zeros: tuple[tuple[complex, int], ...]
    fixed_singularities: tuple[tuple[complex, complex], ...]  # (location, residue)
    measure: float
    moving_residue: complex

    def __call__(self, z: complex) -> complex:
        return self.evaluation(z)


@dataclass(frozen=True)
class PoleReport:
    location: complex
    multiplicity: int
    measured_residue: complex
    kind: str  # "fixed" | "moving"
    axis: str  # "real" | "complex"


@dataclass(frozen=True)
class CensusReport:
    n_real: int
    n_complex: int
    total: int
    quantization_value: float
    global_count: float
    zeros: tuple[complex, ...]


def qmf(state: AlgebraicState) -> QmfEvaluator:
    """Analytic log-derivative momentum of a state, poles and all."""
    kind = family_kind(state.family)
    pol = moving_polynomial(state)
    dpol = pol.derivative()
    zeros = tuple(poly_roots(pol)) if pol.degree else ()
    gauge = state.gauge

    if kind in ("sextic", "radial_sextic"):
        mu = gauge.prefactor_exponent if kind == "radial_sextic" else 0.0
        gd = gauge.gauge_polynomial.derivative()

        def evaluation(z):
            val = dpol(z) / pol(z) - gd(z)
            if mu:
                val = val + mu / z
            return -1j * val

        fixed = ((0j, -1j * mu),) if mu else ()
        return QmfEvaluator(state, evaluation, "x", pol, zeros, fixed, 1.0, -1j)

    if kind == "circular":
        (p0, mu0), (p1, mu1) = gauge.prefactors
        slope = -gauge.gauge_polynomial.coeffs[1]

        def evaluation(t):
            return -2j * (mu0 / t + mu1 / (t - 1.0) + slope + dpol(t) / pol(t))

        fixed = ((0j, -2j * mu0), (1 + 0j, -2j * mu1))
        return QmfEvaluator(state, evaluation, "t", pol, zeros, fixed, 0.5, -2j)

    # hyperbolic, census in t = cosh x; the stored polynomial lives in s = t^2
    (p0, mu0), (p1, mu1) = gauge.prefactors
    kappa = 2.0 * gauge.gauge_polynomial.coeffs[1]

    def evaluation(t):
        return -1j * (
            2.0 * mu0 / t
            + 2.0 * mu1 * t / (t * t - 1.0)
            - kappa * t
            + dpol(t) / pol(t)
        )

    fixed = ((0j, -2j * mu0), (1 + 0j, -1j * mu1), (-1 + 0j, -1j * mu1))
    return QmfEvaluator(state, evaluation, "t", pol, zeros, fixed, 1.0, -1j)


def _classified_zeros(e: QmfEvaluator):
    real, cplx = [], []
    for z, mult in e.moving_zeros:
        if mult > 1:
            raise DegenerateZeroError(f"degenerate zero at {z} (multiplicity {mult})")
        threshold = _REAL_AXIS_TOL * (1.0 + abs(z))
        if 0.1 * threshold < abs(z.imag) < 10.0 * threshold:
            warnings.warn(
                f"zero at {z} sits near the real-axis classification threshold",
                stacklevel=3,
            )
        if abs(z.imag) < threshold:
            real.append(z)
        else:
            cplx.append(z)
    return real, cplx


def _stadium_integral(f, x_lo: float, x_hi: float, h: float, n_nodes: int = 48) -> complex:
    """Counterclockwise integral over a stadium around [x_lo, x_hi] of half-height h.

    Right arc, upper side, left arc and lower side each use n_nodes-point
    Gauss-Legendre, and ``f`` is called once on all their nodes. The
    straight sides are split into panels no longer than the pole clearance
    h, so accuracy does not degrade when the stadium is flat.
    """
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    n_panels = min(1000, max(1, math.ceil((x_hi - x_lo) / h)))

    def arc(center: float, a0: float, a1: float):
        half = (a1 - a0) / 2.0
        ray = h * np.exp(1j * ((a0 + a1) / 2.0 + half * x))
        return center + ray, half * w * 1j * ray  # weights carry dz/dangle

    def side(z_from: complex, z_to: complex):
        p = np.arange(n_panels)
        a = z_from + (z_to - z_from) * (p / n_panels)
        b = z_from + (z_to - z_from) * ((p + 1) / n_panels)
        half = ((b - a) / 2.0)[:, None]
        return (((a + b) / 2.0)[:, None] + half * x).ravel(), (half * w).ravel()

    pieces = [
        arc(x_hi, -math.pi / 2, math.pi / 2),
        side(complex(x_hi, h), complex(x_lo, h)),
        arc(x_lo, math.pi / 2, 3 * math.pi / 2),
        side(complex(x_lo, -h), complex(x_hi, -h)),
    ]
    nodes = np.concatenate([n for n, _ in pieces])
    weights = np.concatenate([wt for _, wt in pieces])
    return complex(np.sum(weights * sample_finite(f, nodes)))


def residue_at_zero(e: QmfEvaluator, z0: complex, n_points: int = 2048) -> complex:
    """(1/2 pi i) times the small-circle integral of the momentum around z0."""
    z0 = complex(z0)
    others = [z for z, _ in e.moving_zeros if abs(z - z0) > 1e-12]
    others += [loc for loc, _ in e.fixed_singularities if abs(loc - z0) > 1e-12]
    radius = 0.1
    if others:
        radius = min(radius, 0.5 * min(abs(z0 - z) for z in others))
    integral = contour_integral(e.evaluation, CircleContour(z0, radius), n_points)
    return integral / (2j * math.pi)


def quantization_check(e: QmfEvaluator) -> float:
    """(measure / 2 pi) times the momentum integral around the real moving poles.

    The contour is one stadium per cluster of real zeros between fixed
    singular points, with half-height below half the distance to the nearest
    complex zero and to the nearest fixed point. States with no real zeros
    return 0. Rounding the result to the nearest integer is exact within the
    documented tolerance.
    """
    real, cplx = _classified_zeros(e)
    if not real:
        return 0.0
    h = 0.5
    if cplx:
        h = min(h, 0.5 * min(abs(z.imag) for z in cplx))
        if h < 1e-6:
            gap = min(abs(z.imag) for z in cplx)
            raise NoSeparatingContourError(
                f"no separating contour: a complex zero sits {gap:.3g} from the real axis"
            )
    walls = sorted(loc.real for loc, _ in e.fixed_singularities)

    def wall_interval(x: float) -> int:
        return sum(1 for w in walls if w < x)

    groups: dict[int, list[float]] = {}
    for z in real:
        groups.setdefault(wall_interval(z.real), []).append(z.real)

    total = 0j
    for xs in groups.values():
        x_lo, x_hi = min(xs), max(xs)
        h_g = h
        for w in walls:
            gap = min(abs(x_lo - w), abs(x_hi - w))
            h_g = min(h_g, 0.5 * gap)
        total += _stadium_integral(e.evaluation, x_lo, x_hi, h_g)
    value = e.measure * total / (2.0 * math.pi)
    if abs(value.imag) > 1e-8 * (1.0 + abs(value)):
        raise ArithmeticError(f"quantization integral is not real: {value}")
    return value.real


def global_pole_count(e: QmfEvaluator, n_points: int = 4096) -> float:
    """Total moving-pole count from a large contour, checked two ways.

    Route one subtracts the exact fixed-pole contributions from the raw
    momentum integral; route two applies the argument principle to the
    polynomial factor alone. The two must agree to 1e-10.
    """
    extent = [abs(z) for z, _ in e.moving_zeros] + [abs(loc) for loc, _ in e.fixed_singularities]
    radius = 2.0 * (1.0 + (max(extent) if extent else 0.0))
    circle = CircleContour(0j, radius)

    raw = contour_integral(e.evaluation, circle, n_points)
    fixed = sum(res for _, res in e.fixed_singularities)
    route1 = e.measure * raw / (2.0 * math.pi) - 1j * e.measure * fixed

    dpol = e.moving_poly.derivative()
    if e.moving_poly.degree == 0:
        route2 = 0j
    else:
        route2 = contour_integral(
            lambda z: dpol(z) / e.moving_poly(z), circle, n_points
        ) / (2j * math.pi)

    if abs(route1 - route2) > 1e-10 * (1.0 + abs(route1)):
        raise ArithmeticError(
            f"count routes disagree: ledger {route1}, argument principle {route2}"
        )
    if abs(route1.imag) > 1e-8 * (1.0 + abs(route1)):
        raise ArithmeticError(f"global count is not real: {route1}")
    return route1.real


def zero_census(state: AlgebraicState) -> CensusReport:
    """Full census: locations, real/complex split, and both counting checks."""
    e = qmf(state)
    real, cplx = _classified_zeros(e)
    return CensusReport(
        n_real=len(real),
        n_complex=len(cplx),
        total=len(real) + len(cplx),
        quantization_value=quantization_check(e),
        global_count=global_pole_count(e),
        zeros=tuple(sorted(real + cplx, key=lambda z: (z.real, z.imag))),
    )


def pole_reports(state: AlgebraicState) -> tuple[PoleReport, ...]:
    """Measured residues of every moving pole and every fixed pole."""
    e = qmf(state)
    reports = []
    for z, mult in e.moving_zeros:
        axis = "real" if abs(z.imag) < _REAL_AXIS_TOL * (1 + abs(z)) else "complex"
        reports.append(
            PoleReport(z, mult, residue_at_zero(e, z), "moving", axis)
        )
    for loc, _ in e.fixed_singularities:
        reports.append(
            PoleReport(loc, 1, residue_at_zero(e, loc), "fixed", "real")
        )
    return tuple(reports)


def infinity_order_check(e: QmfEvaluator, ray_angle: float = 0.37) -> dict:
    """Fit the growth of p along a ray with 10 <= |z| <= 100.

    Only meaningful for the polynomial (sextic-type) families, whose momentum
    grows like a finite power; the fitted exponent must be 3 and the
    coefficient i*sqrt(gamma). A bad fit means the growth is not a finite
    power and raises.
    """
    if e.census_variable != "x":
        raise ValueError("infinity order check applies to the polynomial families")
    radii = np.geomspace(10.0, 100.0, 24)
    direction = np.exp(1j * ray_angle)
    vals = e.evaluation(radii * direction)
    logs_r, logs_p = np.log(radii), np.log(np.abs(vals))
    slope, intercept = np.polyfit(logs_r, logs_p, 1)
    fit_residual = float(np.max(np.abs(logs_p - (slope * logs_r + intercept))))
    if fit_residual > 0.5:
        raise ArithmeticError(f"unexpected growth: power-law fit residual {fit_residual:.3g}")
    z_big = radii[-1] * direction  # |z| = 100, the last node of the ray
    coefficient = vals[-1] / z_big**3
    return {"exponent": float(slope), "coefficient": complex(coefficient)}
