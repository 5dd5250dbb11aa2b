"""Momentum-function pole census and contour verification for algebraic states.

The momentum function p = -i psi'/psi of a closed-form state is assembled
analytically (log-derivative of the stored factors; no numerical
differentiation). Its simple poles at the zeros of the polynomial factor are
the moving poles; this module measures their residues by contour quadrature
and checks the counting laws:

* every simple moving pole carries residue -i times the chart weight;
* a contour hugging the real axis picks up exactly the real zeros;
* a large contour, after removing the exact fixed-pole contributions, counts
  all moving poles.

The census lives in the plane of the ledger's chart variable: x for the
polynomial families, t = sin^2 x or t = cosh x for the trigonometric and
hyperbolic ones, where the momentum is single valued.
Residues are integrated in rho = z - z0 with P re-expanded at z0; the
stadium and the global circle use P's stored monomial coefficients.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .series import CircleContour, Polynomial, contour_integral, poly_roots, sample_finite
from .spectra import AlgebraicState

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
    moving-pole part is P'/P from the coefficients of the state's P.
    ``moving_zeros`` holds its zeros, all simple, sorted by (re, im), solved
    and split into ``real_zeros`` and ``complex_zeros`` once when the
    evaluator is built; they place contours and name poles but never enter
    ``evaluation``. ``local(z0)`` maps an ndarray of rho to p at z0 + rho,
    with P re-expanded at z0. ``singular_points`` holds the moving zeros and
    the fixed-pole locations in one array.
    ``moving_residue`` is the exact residue every simple moving pole must
    carry; ``measure`` converts chart residues to quantization units, so
    measure * moving_residue = -i always.
    """

    state: AlgebraicState
    evaluation: Callable[[complex | np.ndarray], complex | np.ndarray]
    local: Callable[[complex], Callable[[np.ndarray], np.ndarray]]
    census_variable: str
    moving_zeros: tuple[complex, ...]
    real_zeros: tuple[complex, ...]
    complex_zeros: tuple[complex, ...]
    fixed_singularities: tuple[tuple[complex, complex], ...]  # (location, residue)
    singular_points: np.ndarray = field(compare=False)
    measure: float
    moving_residue: complex

    def __call__(self, z: complex | np.ndarray) -> complex | np.ndarray:
        return self.evaluation(z)


@dataclass(frozen=True)
class PoleReport:
    location: complex
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
    """Analytic log-derivative momentum of a state, poles and all.

    One formula for every family, read from the state's ledger:
    ``p(z) = sum_{k=lo}^{0} c_k z^(-k) + sum_i res_i / (z - z_i) + (-i/measure) P'(z)/P(z)``,
    the principal part of the infinity series, the selected fixed-pole
    residues, and one pole of residue -i/measure at each zero of z^parity
    P(z^k - origin). The census variable z and the measure are the ledger's
    chart. One Horner pass over P's own coefficients at u = z^k - origin
    gives P and dP/du. ``local(z0)`` runs it on P Taylor-shifted to
    u0 = z0^k - origin (repeated synthetic division) at w = z^k - z0^k, which
    is rho or rho (2 z0 + rho), and adds each pole as res / ((z0 - loc) + rho).
    A degenerate zero raises ``DegenerateZeroError``.
    """
    ledger = state.gauge.ledger
    zeros, real, cplx = _classified_zeros(state)
    ser = ledger.infinity_series
    principal = Polynomial([ser.coefficient(-j) for j in range(1 - ser.lo)])
    fixed = ledger.fixed_residues
    chart = ledger.family.chart
    moving = -1j / chart.measure
    poles = fixed + ((0j, moving),) * state.gauge.parity  # z^parity's zero is a moving pole at 0
    coeffs, origin, two = state.poly.coeffs, state.origin, chart.reduced_power == 2

    def momentum(cs, w, z, rho, gaps):  # P's coefficients cs taken in w; each pole adds res / (gap + rho)
        p = d = 0j
        for c in reversed(cs):  # in place: d = d w + p, p = p w + c
            d *= w
            d += p
            p *= w
            p += c
        d /= p  # in place too: fewer node-sized temporaries for the allocator to return and fault back in
        d *= 2 * moving * z if two else moving  # dv/dz = 2z or 1
        d += principal(z)
        for gap, res in gaps:
            d += res / (gap + rho)
        return d

    negated = [(-loc, res) for loc, res in poles]  # -loc + z is z - loc, bit for bit

    def evaluation(z):
        return momentum(coeffs, (z * z if two else z) - origin, z, z, negated)

    def local(z0):
        u0 = (z0 * z0 if two else z0) - origin
        shifted = list(coeffs)  # Taylor shift: shifted[j] becomes the w^j coefficient of P(u0 + w)
        for i in range(len(shifted) - 1):
            for j in range(len(shifted) - 2, i - 1, -1):
                shifted[j] += u0 * shifted[j + 1]
        gaps = [(z0 - loc, res) for loc, res in poles]
        return lambda rho: momentum(shifted, rho * (2 * z0 + rho) if two else rho, z0 + rho, rho, gaps)

    points = np.array(zeros + tuple(loc for loc, _ in fixed), dtype=complex)
    return QmfEvaluator(
        state, evaluation, local, chart.variable, zeros, real, cplx, fixed, points, chart.measure, moving
    )


def _classified_zeros(state: AlgebraicState):
    """Zeros of z^parity P(z^k - origin) by (re, im), the real ones and the complex ones; a repeated zero raises."""
    zeros, k = [0j] * state.gauge.parity, state.family.chart.reduced_power
    for u, mult in poly_roots(state.poly) if state.poly.degree else ():
        r = u + state.origin if k == 1 else cmath.sqrt(u + state.origin)
        zeros += ([r] if k == 1 else [r, -r + 0j]) * mult
    zeros.sort(key=lambda z: (z.real, z.imag))
    real, cplx = [], []
    for z, after in zip(zeros, zeros[1:] + [None]):
        if z == after:
            raise DegenerateZeroError(f"degenerate zero at {z}")
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
    return tuple(zeros), tuple(real), tuple(cplx)


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the n_nodes-point Gauss-Legendre rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _stadium_integral(f, runs) -> complex:
    """Counterclockwise integral over one stadium per run (x_lo, x_hi, h), around [x_lo, x_hi] with half-height h.

    Right arc, upper side, left arc and lower side each use 48-point
    Gauss-Legendre, and ``f`` is called once on the nodes of every stadium.
    The rule is built once and shared by every call. The straight sides are
    split into panels no longer than the stadium's h, so accuracy does not
    degrade when it is flat; a run that needs more than 1000 panels raises.
    """
    x, w = _gauss_legendre(48)

    def arc(center: float, h: float, a0: float, a1: float):
        half = (a1 - a0) / 2.0
        ray = h * np.exp(1j * ((a0 + a1) / 2.0 + half * x))
        return center + ray, half * w * 1j * ray  # weights carry dz/dangle

    def side(z_from: complex, z_to: complex, n_panels: int):
        p = np.arange(n_panels)
        a = z_from + (z_to - z_from) * (p / n_panels)
        b = z_from + (z_to - z_from) * ((p + 1) / n_panels)
        half = ((b - a) / 2.0)[:, None]
        return (((a + b) / 2.0)[:, None] + half * x).ravel(), (half * w).ravel()

    pieces = []
    for x_lo, x_hi, h in runs:
        n_panels = max(1, math.ceil((x_hi - x_lo) / h))
        if n_panels > 1000:
            raise NoSeparatingContourError(
                f"no separating contour: a run of zeros spans {x_hi - x_lo:.3g} with clearance {h:.3g}, > 1000 panels"
            )
        pieces += [
            arc(x_hi, h, -math.pi / 2, math.pi / 2),
            side(complex(x_hi, h), complex(x_lo, h), n_panels),
            arc(x_lo, h, math.pi / 2, 3 * math.pi / 2),
            side(complex(x_lo, -h), complex(x_hi, -h), n_panels),
        ]
    nodes, weights = (np.concatenate(column) for column in zip(*pieces))
    return complex(np.sum(weights * sample_finite(f, nodes)))


def residue_at_zero(e: QmfEvaluator, z0: complex) -> complex:
    """(1/2 pi i) times the integral of the momentum around z0, on a 64-node circle in rho = z - z0.

    The radius is 0.1 or half the distance to the nearest other singular
    point, so the trapezoidal error falls like 2^-64 (Trefethen & Weideman,
    SIAM Rev. 56, 385 (2014)). ``e.local(z0)`` does not cancel near the zero;
    its rounding perturbs P, not the count of zeros in the disc.
    """
    z0 = complex(z0)
    distance = np.abs(e.singular_points - z0)
    radius = 0.5 * float(np.min(distance, where=distance > 1e-12, initial=0.2))
    return contour_integral(e.local(z0), CircleContour(0j, radius), 64) / (2j * math.pi)


def quantization_check(e: QmfEvaluator) -> float:
    """(measure / 2 pi) times the momentum integral around the real moving poles.

    One stadium per run of real zeros: a run ends where the next zero lies
    more than 2 h away or past a fixed singular point, with h = 0.5 or half
    the nearest complex zero's distance from the axis. A stadium's
    half-height is h, or half its ends' distance to the nearest fixed point.
    States with no real zeros return 0. Rounding the result to the nearest
    integer is exact within the documented tolerance.
    """
    real, cplx = e.real_zeros, e.complex_zeros
    if not real:
        return 0.0
    gap = min((abs(z.imag) for z in cplx), default=1.0)
    if gap < 2e-6:
        raise NoSeparatingContourError(f"no separating contour: a complex zero sits {gap:.3g} from the real axis")
    h = 0.5 * min(1.0, gap)
    fixed = [loc.real for loc, _ in e.fixed_singularities]
    runs = []
    for x in (z.real for z in real):  # ascending: the zeros are sorted by (re, im)
        if runs and x - runs[-1][1] <= 2.0 * h and not any(runs[-1][1] < w < x for w in fixed):
            runs[-1][1] = x
        else:
            runs.append([x, x])
    runs = [(lo, hi, min([h] + [0.5 * min(abs(lo - w), abs(hi - w)) for w in fixed])) for lo, hi in runs]
    value = e.measure * _stadium_integral(e.evaluation, runs) / (2.0 * math.pi)
    if abs(value.imag) > 1e-8 * (1.0 + abs(value)):
        raise ArithmeticError(f"quantization integral is not real: {value}")
    return value.real


def global_pole_count(e: QmfEvaluator) -> float:
    """Total moving-pole count from a large contour.

    The exact fixed-pole contributions are subtracted from the raw momentum
    integral; what is left, in quantization units, counts the moving poles.
    """
    extent = [abs(z) for z in e.moving_zeros] + [abs(loc) for loc, _ in e.fixed_singularities]
    radius = 2.0 * (1.0 + (max(extent) if extent else 0.0))
    raw = contour_integral(e.evaluation, CircleContour(0j, radius), 4096)
    fixed = sum(res for _, res in e.fixed_singularities)
    count = e.measure * raw / (2.0 * math.pi) - 1j * e.measure * fixed
    if abs(count.imag) > 1e-8 * (1.0 + abs(count)):
        raise ArithmeticError(f"global count is not real: {count}")
    return count.real


def zero_census(e: QmfEvaluator) -> CensusReport:
    """Full census: locations, real/complex split, and both counting checks."""
    return CensusReport(
        n_real=len(e.real_zeros),
        n_complex=len(e.complex_zeros),
        total=len(e.moving_zeros),
        quantization_value=quantization_check(e),
        global_count=global_pole_count(e),
        zeros=e.moving_zeros,
    )


def pole_reports(e: QmfEvaluator, moving_residues: list[complex]) -> tuple[PoleReport, ...]:
    """Every moving pole with its residue as the caller measured it, one per
    zero of ``moving_zeros``, then every fixed pole with its residue measured here."""
    reports = [
        PoleReport(z, res, "moving", "real" if z in e.real_zeros else "complex")
        for z, res in zip(e.moving_zeros, moving_residues, strict=True)
    ]
    reports += [PoleReport(loc, residue_at_zero(e, loc), "fixed", "real") for loc, _ in e.fixed_singularities]
    return tuple(reports)


def infinity_order_check(e: QmfEvaluator) -> dict:
    """Fit the growth of p along a ray with r0 <= |z| <= 10 r0.

    Only meaningful for the polynomial (sextic-type) families, whose momentum
    grows like the leading term c_lo z^(-lo) of the ledger's infinity series;
    the fitted exponent must be -lo and the coefficient c_lo. The ray starts
    where that term outgrows the rest of the principal part, at
    r0 = 10 max(1, max_k |c_k / c_lo|^(1 / (k - lo))) over lo < k <= 0. A bad
    fit means the growth is not a finite power and raises.
    """
    if e.census_variable != "x":
        raise ValueError("infinity order check applies to the polynomial families")
    ser = e.state.gauge.ledger.infinity_series
    lead = ser.coefficient(ser.lo)
    r0 = 10.0 * max([1.0] + [abs(ser.coefficient(k) / lead) ** (1.0 / (k - ser.lo)) for k in range(ser.lo + 1, 1)])
    radii = np.geomspace(r0, 10.0 * r0, 24)
    direction = np.exp(0.37j)
    vals = e.evaluation(radii * direction)
    logs_r, logs_p = np.log(radii), np.log(np.abs(vals))
    slope, intercept = np.polyfit(logs_r, logs_p, 1)
    fit_residual = float(np.max(np.abs(logs_p - (slope * logs_r + intercept))))
    if fit_residual > 0.5:
        raise ArithmeticError(f"unexpected growth: power-law fit residual {fit_residual:.3g}")
    z_big = radii[-1] * direction  # |z| = 10 r0, the last node of the ray
    coefficient = vals[-1] / z_big ** (-ser.lo)
    return {"exponent": float(slope), "coefficient": complex(coefficient)}
