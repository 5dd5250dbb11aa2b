"""The four confining 1-D potential families and the data that fixes each one's Riccati equation.

Units are hbar = 2m = 1 throughout, so the eigenproblem is
``-psi'' + V(x) psi = E psi``. Each family is a frozen record of its
parameters, validated at construction.

One Riccati equation serves every family; what sets a family apart is its
chart and its potential in the chart, the normal form of a one-dimensional
QES operator (Gonzalez-Lopez, Kamran & Olver, Commun. Math. Phys. 153, 117
(1993)). So all the pipeline knows of a family is data on it, and no module
branches on which family it has. A :class:`PotentialFamily` declares ``chart``;
``potential_in_chart``, V as real numerator and denominator coefficients in the
chart variable; ``interval``, its x-interval; ``singular_points``, V's poles in
ledger order; ``moving_weight``, moving poles per unit of n; and the closed
forms of ``solve_ledger`` and ``ledger_check``. Derived from these, once per
instance: ``potential``, V(x), and ``walls`` ``(position, z0, e)`` at each
finite end of the interval, z0 its image in the chart and e the exponent of
psi ~ |z - z0|^e there, read from V's 1/(x - position)^2 coefficient.
``FAMILIES`` maps config names to classes; ``family_kind`` is its inverse.
No family carries a closed form of its gauge: ``spectra.algebraic_states``
refuses one whose conjugated potential leaves the tridiagonal band, an exact check.

No other module knows the sextic's solvability condition: ``Sextic.on_condition``
builds a sextic on it, and ``Sextic.solve_ledger`` refuses one off it with
:class:`NonQESError`, the one refusal every command records.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .series import Polynomial

__all__ = [
    "FAMILIES",
    "HYPER",
    "IDENTITY",
    "TRIG",
    "ChartSpec",
    "Circular",
    "Hyperbolic",
    "NonQESError",
    "PotentialFamily",
    "RadialSextic",
    "Sextic",
    "family_kind",
]


class NonQESError(ValueError):
    """The ledger does not close on an integer moving-pole count."""


@dataclass(frozen=True, eq=False)
class ChartSpec:
    """A coordinate chart together with its momentum reduction.

    ``variable`` names the chart variable z, which is also the census
    variable of the momentum poles. ``measure`` is the constant m in
    ``p dx = m * q dz`` for the reduced momentum q, so a pole of q with
    residue r contributes ``i * m * r`` to ``(1/2pi) ∮ p dx``. ``Q`` is
    (dz/dx)^2 as a polynomial in z, so d^2z/dx^2 = Q'(z)/2. The charts:

    * identity, z = x, Q = 1, no reduction (the polynomial families);
    * trig, t = sin^2 x, Q = 4t(1-t), p = sqrt(t(1-t)) q, so p dx = q dt / 2;
    * hyper, t = cosh x, Q = t^2 - 1, p = sqrt(t^2-1) q, so p dx = q dt.

    A state's polynomial P lives in v = z^k, with k = ``reduced_power`` 1
    or 2 (v = x^2, sin^2 x or cosh^2 x). ``coordinates`` maps x, one point or an
    ndarray, to (z, dz/dx, d^2z/dx^2); it stays out of the repr, whose
    function address would differ from process to process. Charts compare
    and hash by identity, so the engine's per-chart cache is cheap.
    """

    variable: str
    measure: float
    Q: Polynomial
    reduced_power: int
    coordinates: Callable[[np.ndarray], tuple] = field(repr=False)

    def riccati_weights(self) -> tuple[Polynomial, Polynomial, Polynomial]:
        """(W, U numerator, U denominator) of q^2 + W q' + U q = R in this chart.

        W = -i/m is constant and U = W Q'/(2Q); every family shares them.
        """
        w = Polynomial([-1j / self.measure])
        return w, w.coeffs[0] * self.Q.derivative(), 2 * self.Q


def _identity_coordinates(x):
    return x, np.ones_like(x), np.zeros_like(x)


def _trig_coordinates(x):
    return np.sin(x) ** 2, np.sin(2 * x), 2 * np.cos(2 * x)


def _hyper_coordinates(x):
    return np.cosh(x), np.sinh(x), np.cosh(x)


IDENTITY = ChartSpec("x", 1.0, Polynomial([1]), 2, _identity_coordinates)
TRIG = ChartSpec("t", 0.5, Polynomial([0, 4, -4]), 1, _trig_coordinates)
HYPER = ChartSpec("t", 1.0, Polynomial([-1, 0, 1]), 2, _hyper_coordinates)


@functools.lru_cache(maxsize=16)
def _geometry(chart: ChartSpec, den: tuple, interval: tuple, singular_points: tuple) -> tuple:
    """S = den / Q (descending, as ``np.polyval`` takes it) and (x0, z0, k, fold) at each finite end x0 of the
    interval, z0 the singular point nearest z(x0). V's 1/(x - x0)^2 coefficient there is k num(z0): k = 2 / (S''(z0)
    Q(z0)^2) and fold = 1 where Q(z0) != 0; where the chart folds, Q(z0) = 0, z - z0 = Q'(z0) (x - x0)^2 / 4 + ...,
    k = 4 / (S(z0) Q'(z0)^2) and fold = 2. None of it reads num, so it is built once per chart, denominator and
    interval."""
    q = np.real(chart.Q.coeffs)[::-1]
    s, rest = np.polydiv(np.real(den)[::-1], q)
    if np.any(rest):
        raise ValueError(f"V's denominator {den} is not a multiple of the chart's Q")
    ends = []
    for x0 in interval:
        if math.isinf(x0):
            continue
        z = chart.coordinates(x0)[0]
        z0 = min(singular_points, key=lambda p: abs(p - z)).real
        q0 = np.polyval(q, z0)
        if q0:
            ends.append((float(x0), z0, 2.0 / (np.polyval(np.polyder(s, 2), z0) * q0 * q0), 1))
        else:
            ends.append((float(x0), z0, 4.0 / (np.polyval(s, z0) * np.polyval(np.polyder(q), z0) ** 2), 2))
    return tuple(s), tuple(ends)


class PotentialFamily:
    """A family's declared data, and V(x) and its walls derived from it once per instance; see the module."""

    @functools.cached_property
    def _factored(self) -> tuple:
        """(num, S, ends): V's numerator, and ``_geometry``'s S = den / Q and ends."""
        num, den = self.potential_in_chart
        return (np.array(num, dtype=float)[::-1],) + _geometry(self.chart, den, self.interval, self.singular_points)

    def potential(self, x):
        """V(x) = num(z) / (S(z) z'^2): z'^2 carries Q's zeros, so nothing cancels next to a wall."""
        num, s, _ = self._factored
        z, dz, _ = self.chart.coordinates(x)
        return np.polyval(num, z) / (np.polyval(s, z) * dz * dz)

    @functools.cached_property
    def walls(self) -> tuple:
        """``(position, z0, e)`` at each finite end of ``interval``: psi ~ |z - z0|^e there, e = mu / fold with
        mu = 1/2 + sqrt(1/4 + c) the larger root of mu (mu - 1) = c, c = k num(z0); see ``_geometry``."""
        num, _, ends = self._factored
        return tuple((x0, z0, (0.5 + math.sqrt(0.25 + k * np.polyval(num, z0))) / fold) for x0, z0, k, fold in ends)


def _check_finite(**values: float) -> None:
    for name, v in values.items():
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


def _check_count(m) -> None:
    if m < 0 or m != int(m):
        raise ValueError("M must be a nonnegative integer")


class _CountedByM(PotentialFamily):
    """A family whose parameters fix the moving-pole count: the ledger must return n = M."""

    def solve_ledger(self, j_value: float, n_value: float, n: int | None, require_integer: bool) -> dict:
        """The balance as M = n; a count other than M raises even when ``require_integer`` is false."""
        if n != self.M:
            raise NonQESError(f"non-QES parameterization: ledger count {n_value!r} does not equal M={self.M}")
        return {"lhs_value": n_value, "rhs_form": "M=n", "n_value": n_value}

    @property
    def ledger_check(self) -> tuple[str, int, float]:
        """(check name, closed-form value, tolerance) for the ledger's solved count."""
        return "ledger_count_equals_M", self.M, 1e-9


@dataclass(frozen=True)
class Sextic(PotentialFamily):
    """Even sextic oscillator V(x) = alpha x^2 + beta x^4 + gamma x^6 on the line."""

    alpha: float
    beta: float
    gamma: float

    chart = IDENTITY
    interval = (-math.inf, math.inf)
    singular_points = ()
    moving_weight = 1

    def __post_init__(self):
        _check_finite(alpha=self.alpha, beta=self.beta, gamma=self.gamma)
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")

    @classmethod
    def on_condition(cls, a: float, b: float, n: int) -> "Sextic":
        """The sextic on its condition at count n: gamma = a^2, beta = 2ab, alpha = b^2 - a(3 + 2n), a > 0."""
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise ValueError(f"n must be a nonnegative integer, got {n!r}")
        if a <= 0:
            raise ValueError("sextic parameterization requires a > 0")
        return cls(alpha=b * b - a * (3.0 + 2.0 * n), beta=2.0 * a * b, gamma=a * a)

    @property
    def a(self) -> float:
        """Leading gauge coefficient, gamma = a**2 with a > 0."""
        return math.sqrt(self.gamma)

    @property
    def b(self) -> float:
        """Subleading gauge coefficient, beta = 2 a b."""
        return self.beta / (2.0 * self.a)

    @property
    def condition_value(self) -> float:
        """(1/sqrt(gamma)) * (beta^2/(4 gamma) - alpha); solvable iff = 3 + 2n."""
        return (self.b * self.b - self.alpha) / self.a

    @property
    def potential_in_chart(self) -> tuple[tuple, tuple]:
        return (0, 0, self.alpha, 0, self.beta, 0, self.gamma), (1,)

    def solve_ledger(self, j_value: float, n_value: float, n: int | None, require_integer: bool) -> dict:
        """The balance as the closed form 2 J + 3 = 3 + 2n, J the large-contour value.

        The parameters do not fix n, so a count off the nonnegative integers
        raises only when ``require_integer`` asks for one, with its distance
        from the nearest of them as the residual.
        """
        lhs = 2.0 * j_value + 3.0
        if require_integer and n is None:
            raise NonQESError(
                f"non-QES parameterization: condition value {lhs:.12g} is not 3 + 2n for a nonnegative integer n "
                f"(residual {abs(n_value - max(0, round(n_value))):.3g}), so the recursion does not truncate"
            )
        return {"lhs_value": lhs, "rhs_form": "3+2n", "n_value": n_value}

    @property
    def ledger_check(self) -> tuple[str, float, float]:
        """(check name, closed-form value, tolerance) for the ledger's condition value."""
        target = self.condition_value
        return "condition_matches_closed_form", target, 1e-10 * max(1.0, abs(target))


@dataclass(frozen=True)
class RadialSextic(_CountedByM):
    """Sextic oscillator with a centrifugal barrier on the half line x > 0.

    V(x) = g/x^2 + c2 x^2 + 2ab x^4 + a^2 x^6 with g = 4(S-1/4)(S-3/4) and
    c2 = b^2 - 4a(S + 1/2 + M). The barrier strength requires 4S > 3.
    """

    S: float
    a: float
    b: float
    M: int

    chart = IDENTITY
    interval = (0.0, math.inf)
    singular_points = (0j,)
    moving_weight = 2  # P(x^2) has its zeros in pairs +-x

    def __post_init__(self):
        _check_finite(S=self.S, a=self.a, b=self.b)
        if not 4.0 * self.S > 3.0:
            raise ValueError("RadialSextic requires 4S > 3")
        if not self.a > 0:
            raise ValueError("RadialSextic requires a > 0")
        _check_count(self.M)

    @property
    def g(self) -> float:
        return 4.0 * (self.S - 0.25) * (self.S - 0.75)

    @property
    def c2(self) -> float:
        return self.b * self.b - 4.0 * self.a * (self.S + 0.5 + self.M)

    @property
    def potential_in_chart(self) -> tuple[tuple, tuple]:
        return (self.g, 0, 0, 0, self.c2, 0, 2.0 * self.a * self.b, 0, self.a * self.a), (0, 0, 1)


@dataclass(frozen=True)
class _TwoWall(_CountedByM):
    """The parameters the trigonometric and hyperbolic families share.

    A = 4(S1-1/4)(S1-3/4), B = 4(S2-1/4)(S2-3/4), C = q1^2 + 4q1(S1+S2+M) and
    D = q1^2 are the couplings of their potentials.
    """

    S1: float
    S2: float
    q1: float
    M: int

    def __post_init__(self):
        _check_finite(S1=self.S1, S2=self.S2, q1=self.q1)
        if not (2.0 * self.S1 > 1.0 and 2.0 * self.S2 > 1.0):
            raise ValueError(f"{type(self).__name__} requires 2*S1 > 1 and 2*S2 > 1")
        self._check_q1()
        _check_count(self.M)

    @property
    def A(self) -> float:
        return 4.0 * (self.S1 - 0.25) * (self.S1 - 0.75)

    @property
    def B(self) -> float:
        return 4.0 * (self.S2 - 0.25) * (self.S2 - 0.75)

    @property
    def C(self) -> float:
        return self.q1**2 + 4.0 * self.q1 * (self.S1 + self.S2 + self.M)

    @property
    def D(self) -> float:
        return self.q1**2


@dataclass(frozen=True)
class Circular(_TwoWall):
    """Trigonometric double-wall family on (0, pi/2).

    V(x) = A/sin^2 x + B/cos^2 x + C sin^2 x - D sin^4 x. The signs of the C
    and D terms are fixed by requiring a normalizable polynomial sector:
    with them, the gauge factor exp(-q1 sin^2 x / 2) truncates the series
    sector at degree M and the residue ledger closes.
    """

    chart = TRIG
    interval = (0.0, math.pi / 2)
    singular_points = (0j, 1 + 0j)
    moving_weight = 1

    def _check_q1(self):
        if self.q1 == 0:
            raise ValueError("Circular requires q1 != 0 (the sin^4 coupling)")

    @property
    def potential_in_chart(self) -> tuple[tuple, tuple]:
        A, B, C, D = self.A, self.B, self.C, self.D
        return (A, B - A, C, -(C + D), D), (0, 1, -1)


@dataclass(frozen=True)
class Hyperbolic(_TwoWall):
    """Hyperbolic confining family on the half line x > 0.

    V(x) = -A/cosh^2 x + B/sinh^2 x - C cosh^2 x + D cosh^4 x. Normalizability
    of the gauge factor exp(-q1 cosh^2 x / 2) requires q1 > 0.
    """

    chart = HYPER
    interval = (0.0, math.inf)
    singular_points = (0j, 1 + 0j, -1 + 0j)
    moving_weight = 2  # P(cosh^2 x) has its zeros in pairs +-t

    def _check_q1(self):
        if not self.q1 > 0:
            raise ValueError("Hyperbolic requires q1 > 0")

    @property
    def potential_in_chart(self) -> tuple[tuple, tuple]:
        A, B, C, D = self.A, self.B, self.C, self.D
        return (A, 0, B - A, 0, C, 0, -(C + D), 0, D), (0, 0, -1, 0, 1)


FAMILIES = {"sextic": Sextic, "radial_sextic": RadialSextic, "circular": Circular, "hyperbolic": Hyperbolic}
_KINDS = {cls: name for name, cls in FAMILIES.items()}


def family_kind(family: PotentialFamily) -> str:
    """The config name of a family instance, the label reports carry."""
    try:
        return _KINDS[type(family)]
    except KeyError:
        raise TypeError(f"not a potential family: {family!r}") from None
