"""Laurent-series arithmetic, polynomial root finding, and circle quadrature.

This is the numeric kernel for the rest of the package. Everything runs in
double-precision complex arithmetic: Python ``complex`` for single values and
``complex128`` numpy arrays where a whole contour or a whole set of root
approximations is handled at once (``Polynomial.__call__`` runs Horner on
either). Values are immutable after construction, and every operation is a
pure function of its inputs, so all of it is safe to share across concurrent
work.

A ``LaurentSeries`` carries an explicit reliability window: arithmetic tracks
which exponents of the result are still trustworthy, and asking for anything
outside that window raises instead of silently returning garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

__all__ = [
    "DEFAULT_QUADRATURE_POINTS",
    "ROOT_CLUSTER_TOL",
    "CircleContour",
    "ContourPoleError",
    "LaurentSeries",
    "Polynomial",
    "TruncationDepthError",
    "contour_integral",
    "poly_roots",
    "residue",
    "sample_finite",
    "series_derivative",
    "series_product",
]

#: Default node count for circle quadrature; override per call if needed.
DEFAULT_QUADRATURE_POINTS = 2048

#: Roots closer than this (scaled by 1 + |z|) are merged into one root
#: with a multiplicity.
ROOT_CLUSTER_TOL = 1e-7

_ROOT_BACKWARD_TOL = 1e-10
_ABERTH_MAX_ITER = 400
#: An Aberth step below this multiple of |z| is rounding noise.
_ABERTH_ROUNDING_STEP = 4.0 * np.finfo(float).eps
#: A step that no longer shrinks is a stall once it is below this (scaled by 1 + |z|).
_ABERTH_STALL_STEP = 1e-8


class TruncationDepthError(ValueError):
    """Requested coefficients lie outside a series' reliable window."""


class ContourPoleError(ValueError):
    """An integrand evaluation on a quadrature node was not finite."""


def _as_finite_complex(z, what: str) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"non-finite {what}: {z!r}")
    return z


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial ``sum(c[k] * z**k)``, ascending degree.

    Trailing zero coefficients are trimmed so the leading coefficient is
    nonzero unless the polynomial is identically zero.
    """

    coeffs: tuple[complex, ...]

    def __init__(self, coeffs: Iterable[complex]):
        cs = [_as_finite_complex(c, "polynomial coefficient") for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [0j]
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def from_roots(cls, roots: Iterable[complex]) -> "Polynomial":
        p = cls([1])
        for r in roots:
            p = p * cls([-complex(r), 1])
        return p

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0j,)

    def __call__(self, z):
        """Horner evaluation at a scalar or, elementwise, at an ndarray."""
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial([0])
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Polynomial":
        lead = self.coeffs[-1]
        if lead == 0:
            raise ValueError("zero polynomial cannot be made monic")
        return Polynomial([c / lead for c in self.coeffs])

    def shifted(self, z0: complex) -> "Polynomial":
        """Coefficients of ``p(z + z0)``."""
        n = self.degree
        out = [0j] * (n + 1)
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            for k in range(j + 1):
                out[k] += c * math.comb(j, k) * z0 ** (j - k)
        return Polynomial(out)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return Polynomial(
            [(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n)]
        )

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-1) * other

    def __neg__(self) -> "Polynomial":
        return (-1) * self

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial([0])
            out = [0j] * (self.degree + other.degree + 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        return Polynomial([complex(other) * c for c in self.coeffs])

    __rmul__ = __mul__


@dataclass(frozen=True)
class LaurentSeries:
    """Finite Laurent data: exponent -> coefficient plus a reliability window.

    ``lo``/``hi`` bound the exponents whose coefficients can be trusted;
    ``None`` means unbounded on that side (an exact finite expression such as
    a Laurent polynomial). Exponents inside the window but absent from the
    map are exact zeros. Zero coefficients are not stored.
    """

    coeffs: Mapping[int, complex]
    lo: int | None = None
    hi: int | None = None

    def __init__(self, coeffs: Mapping[int, complex], lo: int | None = None, hi: int | None = None):
        cleaned = {}
        for k, v in coeffs.items():
            v = _as_finite_complex(v, "series coefficient")
            if v != 0:
                cleaned[int(k)] = v
        if lo is not None and hi is not None and hi < lo:
            raise TruncationDepthError("insufficient truncation depth: empty window")
        for k in cleaned:
            if (lo is not None and k < lo) or (hi is not None and k > hi):
                raise ValueError(f"stored exponent {k} outside window ({lo}, {hi})")
        object.__setattr__(self, "coeffs", cleaned)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def exact(cls, terms: Mapping[int, complex]) -> "LaurentSeries":
        return cls(terms, None, None)

    @property
    def window(self) -> tuple[int | None, int | None]:
        return (self.lo, self.hi)

    def min_exponent(self) -> int:
        """Smallest exponent that can carry a nonzero coefficient."""
        if self.coeffs:
            low = min(self.coeffs)
            return low if self.lo is None else min(low, self.lo)
        if self.lo is not None:
            return self.lo
        return 0

    def coefficient(self, k: int) -> complex:
        if (self.lo is not None and k < self.lo) or (self.hi is not None and k > self.hi):
            raise TruncationDepthError(
                f"exponent {k} outside the reliable window ({self.lo}, {self.hi})"
            )
        return self.coeffs.get(k, 0j)

    def evaluate(self, z: complex) -> complex:
        return sum(c * z**k for k, c in self.coeffs.items())


def series_product(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Cauchy product with the window tightened to the mutually valid range.

    Unknown coefficients above ``hi`` of one factor pollute the product from
    ``hi + min_exponent(other)`` upward, so the result window stops there.
    """
    his = []
    if a.hi is not None:
        his.append(a.hi + b.min_exponent())
    if b.hi is not None:
        his.append(b.hi + a.min_exponent())
    hi = min(his) if his else None
    lo = None
    if a.lo is not None or b.lo is not None:
        lo = a.min_exponent() + b.min_exponent()
    if hi is not None and lo is not None and hi < lo:
        raise TruncationDepthError("insufficient truncation depth")
    out: dict[int, complex] = {}
    for i, ca in a.coeffs.items():
        for j, cb in b.coeffs.items():
            k = i + j
            if hi is not None and k > hi:
                continue
            out[k] = out.get(k, 0j) + ca * cb
    return LaurentSeries(out, lo, hi)


def series_derivative(a: LaurentSeries) -> LaurentSeries:
    """Term-wise derivative; the window shifts down by one."""
    out = {k - 1: k * c for k, c in a.coeffs.items() if k != 0}
    lo = None if a.lo is None else a.lo - 1
    hi = None if a.hi is None else a.hi - 1
    return LaurentSeries(out, lo, hi)


def residue(a: LaurentSeries) -> complex:
    """Coefficient at exponent -1; errors if -1 is outside the window."""
    return a.coefficient(-1)


def poly_roots(p: Polynomial, tol: float = _ROOT_BACKWARD_TOL) -> list[tuple[complex, int]]:
    """All roots with multiplicities via the Aberth-Ehrlich iteration.

    Deterministic and dependency-free: initial guesses sit on the circle of
    radius ``1 + max|c_k / c_lead|`` at fixed angles. Each approximation
    stops moving once its own step is at rounding level or has stalled, and
    the iteration ends when all have stopped (or after 400 sweeps; Bini,
    Numer. Algorithms 13 (1996)). Converged roots closer than
    ``ROOT_CLUSTER_TOL`` (scaled by 1 + |z|) are merged into a single root
    with a multiplicity. Output is sorted lexicographically by
    ``(re, im)`` and every reported root satisfies the documented backward
    error bound ``|p(r)| <= tol * sum |c_k r^k|`` (per cluster, to the power
    of its multiplicity).
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no well-defined roots")
    if p.degree < 1:
        raise ValueError("polynomial of degree >= 1 required")

    coeffs = list(p.coeffs)
    mult_at_zero = 0
    while coeffs[0] == 0:
        coeffs.pop(0)
        mult_at_zero += 1

    found: list[complex] = []
    deg = len(coeffs) - 1
    if deg >= 1:
        c = np.array(coeffs, dtype=complex)
        c = c / c[-1]
        if deg == 1:
            found = [complex(-c[0])]
        else:
            radius = 1.0 + float(np.max(np.abs(c[:-1])))
            angles = 2.0 * np.pi * np.arange(deg) / deg + 0.4
            z = radius * np.exp(1j * angles)
            monic = Polynomial(c)
            dmonic = monic.derivative()
            # A root is frozen once its step is at rounding level, or once the
            # step stops shrinking while already small (it has reached the
            # accuracy the conditioning allows); frozen roots still repel the
            # active ones through the Aberth sum.
            active = np.arange(deg)
            last_step = np.full(deg, np.inf)
            for _ in range(_ABERTH_MAX_ITER):
                za = z[active]
                pv = monic(za)
                dv = dmonic(za)
                dv = np.where(dv == 0, 1e-300, dv)
                w = pv / dv
                diff = za[:, None] - z[None, :]
                diff[np.arange(len(active)), active] = np.inf
                s = np.sum(1.0 / diff, axis=1)
                denom = 1.0 - w * s
                denom = np.where(denom == 0, 1e-300, denom)
                delta = w / denom
                z[active] = za - delta
                step = np.abs(delta)
                size = np.abs(z[active])
                frozen = (step <= _ABERTH_ROUNDING_STEP * size) | (
                    (step >= last_step[active]) & (step <= _ABERTH_STALL_STEP * (1.0 + size))
                )
                last_step[active] = step
                active = active[~frozen]
                if not len(active):
                    break
            found = [complex(r) for r in z]

    clusters: list[list[complex]] = []
    for r in sorted(found, key=lambda v: (v.real, v.imag)):
        for cl in clusters:
            if abs(r - cl[0]) <= ROOT_CLUSTER_TOL * (1.0 + abs(cl[0])):
                cl.append(r)
                break
        else:
            clusters.append([r])

    result: list[tuple[complex, int]] = []
    if mult_at_zero:
        result.append((0j, mult_at_zero))
    for cl in clusters:
        center = complex(sum(cl) / len(cl))
        result.append((center, len(cl)))

    scale = sum(abs(co) for co in p.coeffs)
    for r, m in result:
        bound = tol * sum(abs(co) * abs(r) ** k for k, co in enumerate(p.coeffs))
        if abs(p(r)) > max(bound, tol * scale) and m == 1:
            raise ArithmeticError(
                f"root finder failed the backward error bound at {r!r}: |p(r)|={abs(p(r)):.3e}"
            )
    result.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return result


@dataclass(frozen=True)
class CircleContour:
    """Counterclockwise circle |z - center| = radius."""

    center: complex
    radius: float

    def __post_init__(self):
        _as_finite_complex(self.center, "contour center")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("contour radius must be positive and finite")


def contour_integral(
    f: Callable[[np.ndarray], np.ndarray],
    contour: CircleContour,
    n_points: int = DEFAULT_QUADRATURE_POINTS,
) -> complex:
    """Trapezoidal quadrature of the raw integral ``∮ f dz`` over the circle.

    ``f`` is called once, on the ndarray of all ``n_points`` nodes, and must
    return the array of its values there. Exponentially convergent when ``f``
    is analytic in an annulus around the circle. The caller applies any
    ``1/(2 pi)`` or ``1/(2 pi i)`` factor.
    """
    if n_points < 16:
        raise ValueError("n_points must be at least 16")
    theta = 2.0 * np.pi * np.arange(n_points) / n_points
    nodes = contour.center + contour.radius * np.exp(1j * theta)
    vals = sample_finite(f, nodes)
    dz = 1j * contour.radius * np.exp(1j * theta)
    return complex(np.sum(vals * dz) * (2.0 * np.pi / n_points))


def sample_finite(f: Callable[[np.ndarray], np.ndarray], nodes: np.ndarray) -> np.ndarray:
    """``f`` on an ndarray of quadrature nodes, in one call.

    A pole on a node shows up as a non-finite value (numpy's floating-point
    warnings are silenced for the call) or as a ``ZeroDivisionError`` from
    scalar arithmetic inside ``f``; either raises ``ContourPoleError``.
    """
    try:
        with np.errstate(all="ignore"):
            vals = np.asarray(f(nodes), dtype=complex)
    except ZeroDivisionError:
        raise ContourPoleError("pole on contour: division by zero at a node") from None
    finite = np.isfinite(vals)
    if not finite.all():
        z = complex(nodes.flat[np.argmin(finite)])
        raise ContourPoleError(f"pole on contour: f({z!r}) is not finite")
    return vals
