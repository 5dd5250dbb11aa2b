"""Laurent-series coefficients, polynomial root finding, and circle quadrature.

This is the numeric kernel for the rest of the package. Everything runs in
double-precision complex arithmetic: Python ``complex`` for single values and
``complex128`` numpy arrays where a whole contour or a whole set of roots is
handled at once (``Polynomial.__call__`` runs Horner on either). Roots are the
eigenvalues of numpy's companion matrix, refined by one Newton step. The
unit roots of the circle rule depend only on the node count, so each count's
array is built once per process and kept read-only. Values are immutable
after construction, and every operation is a pure function of its inputs, so
all of it is safe to share across concurrent work.

A ``LaurentSeries`` carries an explicit reliability window: asking for a
coefficient outside that window raises instead of silently returning
garbage.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

__all__ = [
    "ROOT_CLUSTER_TOL",
    "CircleContour",
    "ContourPoleError",
    "LaurentSeries",
    "Polynomial",
    "TruncationDepthError",
    "contour_integral",
    "poly_roots",
    "sample_finite",
]

#: Roots closer than this (scaled by 1 + |z|) are merged into one root
#: with a multiplicity.
ROOT_CLUSTER_TOL = 1e-7


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

    def __mul__(self, scalar: complex) -> "Polynomial":
        """The polynomial scaled by a number."""
        return Polynomial([complex(scalar) * c for c in self.coeffs])

    __rmul__ = __mul__


@dataclass(frozen=True)
class LaurentSeries:
    """Finite Laurent data: exponent -> coefficient plus a reliability window.

    ``lo``/``hi`` bound the exponents whose coefficients can be trusted.
    Exponents inside the window but absent from the map are exact zeros.
    Zero coefficients are not stored.
    """

    coeffs: Mapping[int, complex]
    lo: int
    hi: int

    def __init__(self, coeffs: Mapping[int, complex], lo: int, hi: int):
        cleaned = {}
        for k, v in coeffs.items():
            v = _as_finite_complex(v, "series coefficient")
            if v != 0:
                cleaned[int(k)] = v
        if hi < lo:
            raise TruncationDepthError("insufficient truncation depth: empty window")
        for k in cleaned:
            if not lo <= k <= hi:
                raise ValueError(f"stored exponent {k} outside window ({lo}, {hi})")
        object.__setattr__(self, "coeffs", cleaned)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def coefficient(self, k: int) -> complex:
        if not self.lo <= k <= self.hi:
            raise TruncationDepthError(
                f"exponent {k} outside the reliable window ({self.lo}, {self.hi})"
            )
        return self.coeffs.get(k, 0j)


def poly_roots(p: Polynomial) -> list[tuple[complex, int]]:
    """All roots with multiplicities: companion-matrix eigenvalues plus one Newton step.

    The roots are the eigenvalues of the companion matrix
    (``np.polynomial.polynomial.polyroots``), which are backward stable
    (Edelman & Murakami, Math. Comp. 64 (1995)); a real p is passed as real
    coefficients, so its real roots have an imaginary part of exactly 0 and
    its complex roots come as exact conjugate pairs. One Newton step on the
    monic polynomial then refines each root (a step that is not finite is
    skipped). Roots closer than ``ROOT_CLUSTER_TOL`` (scaled by
    1 + |z|) are merged into a single root with a multiplicity. Output is
    sorted lexicographically by ``(re, im)`` and every simple root satisfies
    the backward error bound ``|p(r)| <= 1e-10 * max(sum |c_k r^k|, sum |c_k|)``.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no well-defined roots")
    if p.degree < 1:
        raise ValueError("polynomial of degree >= 1 required")

    c = np.array(p.coeffs)
    c = c / c[-1]
    if not c.imag.any():
        c = c.real
    z = np.polynomial.polynomial.polyroots(c)
    monic = Polynomial(c)
    with np.errstate(all="ignore"):
        step = monic(z) / monic.derivative()(z)
    found = [complex(r) for r in np.where(np.isfinite(step), z - step, z)]

    clusters: list[list[complex]] = []
    for r in sorted(found, key=lambda v: (v.real, v.imag)):
        for cl in clusters:
            if abs(r - cl[0]) <= ROOT_CLUSTER_TOL * (1.0 + abs(cl[0])):
                cl.append(r)
                break
        else:
            clusters.append([r])

    result = [(complex(sum(cl) / len(cl)), len(cl)) for cl in clusters]

    scale = sum(abs(co) for co in p.coeffs)
    for r, m in result:
        bound = 1e-10 * max(scale, sum(abs(co) * abs(r) ** k for k, co in enumerate(p.coeffs)))
        if abs(p(r)) > bound and m == 1:
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


@functools.lru_cache(maxsize=8)
def _unit_roots(n_points: int) -> np.ndarray:
    """Read-only ``exp(2 pi i k / n_points)`` for k = 0 .. n_points - 1."""
    roots = np.exp(1j * (2.0 * np.pi * np.arange(n_points) / n_points))
    roots.flags.writeable = False
    return roots


def contour_integral(
    f: Callable[[np.ndarray], np.ndarray],
    contour: CircleContour,
    n_points: int,
) -> complex:
    """Trapezoidal quadrature of the raw integral ``∮ f dz`` over the circle.

    ``f`` is called once, on the ndarray of all ``n_points`` nodes, and must
    return the array of its values there. Exponentially convergent when ``f``
    is analytic in an annulus around the circle. The caller applies any
    ``1/(2 pi)`` or ``1/(2 pi i)`` factor. The nodes are the cached unit
    roots of ``n_points`` scaled and shifted onto the circle.
    """
    if n_points < 16:
        raise ValueError("n_points must be at least 16")
    roots = _unit_roots(n_points)
    nodes = contour.center + contour.radius * roots
    vals = sample_finite(f, nodes)
    dz = 1j * contour.radius * roots
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
