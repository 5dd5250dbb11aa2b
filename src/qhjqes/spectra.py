"""Algebraic (polynomial x gauge) sector of a solvable family instance.

The gauge, prefactors and G, is read from the ledger in its chart variable z
(x, t = sin^2 x or t = cosh x), and P lives in v = z^k, the chart's reduced
power (x^2, sin^2 x or cosh^2 x). Conjugated by the gauge, H maps
polynomials in v to polynomials in v and closes on those of the ledger's
degree. Its recursion, derived from the chart, the potential in the chart
and the gauge alone, is a real symmetric eigenproblem for P in u = v - v0,
v0 a zero of a2. One formula in z evaluates every family's eigenfunction
with analytic derivatives, and the chart's map carries it to x over the
gauge's window.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import engine
from .families import NonQESError, PotentialFamily
from .series import Polynomial

__all__ = [
    "AlgebraicState",
    "GaugeSpec",
    "NonRealEnergyError",
    "algebraic_states",
    "eigenfunction_with_derivatives",
    "gauge_from_residues",
    "schrodinger_residual",
]

_ROUNDING = 1e-10  # relative size of a number that exact arithmetic would make zero


class NonRealEnergyError(ArithmeticError):
    """Neither zero of a2 gives the recursion positive off-diagonal products: no real symmetric form."""


@dataclass(frozen=True)
class GaugeSpec:
    """Prefactor exponents and gauge polynomial of the algebraic ansatz.

    Both are in the ledger's chart variable z. ``prefactors`` holds one
    ``(location, exponent)`` per fixed pole of the ledger, the exponent being
    i * measure times the selected momentum residue there.
    ``gauge_polynomial`` is G(z) with ``psi`` carrying ``exp(-G)``; it
    integrates the principal part of the momentum at infinity. ``parity``,
    the moving polynomial's power of z, is n_label mod k, as n_label = parity +
    k deg P. ``ledger`` is the quantization ledger all three were read from.
    """

    prefactors: tuple[tuple[complex, float], ...]
    gauge_polynomial: Polynomial
    parity: int
    ledger: engine.QuantizationLedger

    @functools.cached_property
    def window(self) -> tuple[float, float]:
        """The x-interval where the states live, read from the family's interval and the gauge, never from P or E.

        A finite end of the family's ``interval`` (a wall) stays. Each open end is the first point, 1/64 apart, outward
        from the other end (or 0) where log |exp(-G) prod_i (z - z_i)^e_i| + n_label log max(|z|, 1), n_label the
        states' degree in z, falls 36 below its running peak: every well lies inside. The residual and oracle use it.
        """
        family = self.ledger.family
        ends = [end if np.isfinite(end) else None for end in family.interval]
        start = next((end for end in ends if end is not None), 0.0)
        n_label = family.moving_weight * self.ledger.n
        for side, n in itertools.product((0, 1), 256 * 2 ** np.arange(13)):
            if ends[side] is None:
                x = start + (2 * side - 1) * np.arange(n) / 64.0
                z = family.chart.coordinates(x)[0]
                with np.errstate(all="ignore"):
                    log_f = n_label * np.log(np.maximum(np.abs(z), 1.0)) - self.gauge_polynomial(z).real
                    log_f = sum((e * np.log(np.abs(z - c)) for c, e in self.prefactors), log_f)
                fallen = np.flatnonzero(log_f < np.maximum.accumulate(log_f) - 36.0)  # e^-36 is 2e-16
                ends[side] = float(x[fallen[0]]) if fallen.size else None
        if None in ends:
            raise ArithmeticError("the gauge does not decay within |x| = 16384: the states have no window")
        return ends[0], ends[1]

    @functools.cached_property
    def gauge_derivatives(self) -> tuple[Polynomial, Polynomial]:
        """G' and G''."""
        g1 = self.gauge_polynomial.derivative()
        return g1, g1.derivative()

    @functools.cached_property
    def wall_factors(self) -> tuple[tuple[complex, float, float], ...]:
        """(z_k, e_k, sigma_k) per prefactor; sigma_k = -1 where the window lies below z_k, so sigma_k (z - z_k) > 0."""
        inside = self.ledger.family.chart.coordinates(np.mean(self.window))[0].real  # a point of the interval, in z
        return tuple((loc, e, 1.0 if inside > loc.real else -1.0) for loc, e in self.prefactors)

    def log_envelope(self, z):
        """-G + sum_k e_k log(sigma_k (z - z_k)) at z, one point or an ndarray."""
        with np.errstate(divide="ignore", invalid="ignore"):  # on a wall: log 0 = -inf, e times it -inf + nan i
            return -self.gauge_polynomial(z) + sum(e * np.log(sigma * (z - loc)) for loc, e, sigma in self.wall_factors)

    @functools.cached_property
    def log_peak(self) -> float:
        """The largest real part of ``log_envelope`` on 65 evenly spaced samples of the window."""
        z = self.ledger.family.chart.coordinates(np.linspace(*self.window, 65).astype(complex))[0]
        return float(np.max(np.real(self.log_envelope(z))))


@dataclass(frozen=True)
class AlgebraicState:
    """One closed-form eigenpair of a solvable family instance.

    ``poly`` is P, monic in u = z^k - ``origin``, the zero of a2 about which
    the recursion was symmetrized; ``n_label`` = parity + k deg P counts the
    zeros of z^parity P(u) in the census variable z (x for the polynomial
    families, the chart variable for the others): the moving poles.
    """

    family: PotentialFamily
    energy: float
    poly: Polynomial
    origin: float
    gauge: GaugeSpec
    n_label: int
    index: int


def _real_part(z: complex, what: str) -> float:
    if abs(z.imag) > 1e-9 * (1.0 + abs(z)):
        raise ArithmeticError(f"{what} is not real: {z}")
    return z.real


def gauge_from_residues(family: PotentialFamily) -> GaugeSpec:
    """Read prefactors and gauge from the ledger's selected branches, not from fits.

    Every exponent comes from a fixed-pole residue. The gauge polynomial
    integrates the principal part of the momentum at infinity,
    ``G'(z) = -i * measure * sum_{k <= 0} c_k z^(-k)`` in the census
    variable z. ``algebraic_states`` checks both against the potential (in
    ``_band_numbers``). A family off its solvability condition raises the
    ledger's ``families.NonQESError``.
    """
    ledger = engine.quantization_ledger(family)
    ser, measure = ledger.infinity_series, family.chart.measure
    g = [0.0] + [
        _real_part(-1j * measure * ser.coefficient(1 - j) / j, "gauge coefficient")
        for j in range(1, 2 - ser.lo)
    ]
    prefactors = tuple(
        (loc, _real_part(1j * measure * res, "prefactor exponent")) for loc, res in ledger.fixed_residues
    )
    return GaugeSpec(prefactors, Polynomial(g), family.moving_weight * ledger.n % family.chart.reduced_power, ledger)


def _mul(*factors) -> np.ndarray:
    return functools.reduce(np.convolve, factors) if factors else np.ones(1)


def _der(p: np.ndarray) -> np.ndarray:
    return p[1:] * np.arange(1, len(p)) if len(p) > 1 else 0 * p


def _sum(*terms: np.ndarray) -> np.ndarray:
    return np.array([sum(c) for c in itertools.zip_longest(*terms, fillvalue=0.0)])


def _band(name: str, terms: tuple, divisor: np.ndarray, k: int, lo: int, hi: int) -> np.ndarray:
    """v^0 .. v^hi of sum(terms) / divisor, v = z^k; a remainder or a term off v^lo .. v^hi raises."""
    rounding = _ROUNDING * max(np.max(np.abs(t)) for t in terms)
    quotient, rest = np.polynomial.polynomial.polydiv(_sum(*terms), divisor)
    if np.max(np.abs(rest)) > rounding:
        raise ArithmeticError("the gauge's exponents miss an indicial equation: the conjugated operator has poles")
    coeffs = np.append(quotient, np.zeros(k * (hi + 1)))
    outside = coeffs.copy()
    outside[k * lo : k * (hi + 1) : k] = 0.0
    j = int(np.argmax(np.abs(outside)))
    if abs(outside[j]) > rounding:
        raise ArithmeticError(f"the gauge does not fit the potential: {name} has a z^{j} term outside its band")
    return coeffs[: k * (hi + 1) : k]


@functools.lru_cache(maxsize=16)
def _chart_terms(chart) -> tuple:
    """v' = k z^(k - 1), and (B2, A2) of a2 = -Q v'^2 = A2 v^2 + B2 v, once per chart; a2 off that band raises."""
    k = chart.reduced_power
    v1 = k * np.eye(k)[-1]
    _, B2, A2 = _band("a2", (-_mul(np.real(chart.Q.coeffs), v1, v1),), np.ones(1), k, 1, 2)
    return v1, B2, A2


def _band_numbers(gauge: GaugeSpec) -> tuple:
    """(A2, B2, A1, B1, C1, A0, C0, top): the band of H on the coefficients of P(v), v = z^k, after its refusals.

    With psi = F P(v), F = exp(-G) prod_i (z - z_i)^e_i (z^parity one more
    factor at 0) and L = F'/F, H = -Q d^2/dz^2 - (Q'/2) d/dz + V becomes
    a2 P_vv + a1 P_v + a0 P: a2 = -Q v'^2, a1 = -(2 Q L + Q'/2) v' - Q v'',
    a0 = V - Q (L^2 + L') - Q' L / 2 (Turbiner, Commun. Math. Phys. 118, 467
    (1988)), built exactly over D = prod_i (z - z_i) and V's denominator. A
    remainder raises ``ArithmeticError``: an exponent misses its indicial
    equation. Their band, a2 = A2 v^2 + B2 v, a1 = A1 v^2 + B1 v + C1 and
    a0 = A0 v + C0, maps v^j to j (j - 1) B2 + j C1 times v^(j - 1),
    j (j - 1) A2 + j B1 + C0 times v^j and j A1 + A0 times v^(j + 1), on
    v^0 .. v^top, top = n_label // k. Any other term (an odd power of z
    when k = 2, or v off the band) raises ``ArithmeticError`` too: the gauge
    does not fit the potential. Unless the entry from v^top to v^(top + 1)
    then vanishes, the ledger's n does not truncate: ``families.NonQESError``.
    The gauge is real, its poles being the family's real singular points.
    """
    family, k = gauge.ledger.family, gauge.ledger.family.chart.reduced_power
    factors = gauge.prefactors + (((0.0, gauge.parity),) if gauge.parity else ())
    lin = [np.array([-loc.real, 1.0]) for loc, _ in factors]
    d, q = _mul(*lin), np.real(family.chart.Q.coeffs)
    # N = D L = -G' D + sum_i e_i D / (z - z_i)
    g1 = _der(np.real(gauge.gauge_polynomial.coeffs))
    n_l = _sum(-_mul(g1, d), *(e * _mul(*lin[:i], *lin[i + 1 :]) for i, (_, e) in enumerate(factors)))
    num, den = (np.array(c, dtype=float) for c in family.potential_in_chart)
    v1, B2, A2 = _chart_terms(family.chart)
    a1 = (-_mul(_sum(2 * _mul(q, n_l), _mul(_der(q), d) / 2), v1), -_mul(q, _der(v1), d))
    C1, B1, A1 = _band("a1", a1, d, k, 0, 2)
    # D^2 (Q (L^2 + L') + Q' L / 2) = Q (N^2 + D N' - D' N) + Q' N D / 2
    w = _sum(_mul(q, _sum(_mul(n_l, n_l), _mul(d, _der(n_l)), -_mul(_der(d), n_l))), _mul(_der(q), n_l, d) / 2)
    C0, A0 = _band("a0", (_mul(num, d, d), -_mul(den, w)), _mul(den, d, d), k, 0, 1)
    top = family.moving_weight * gauge.ledger.n // k
    if abs(top * A1 + A0) > _ROUNDING * ((top + 1) * abs(A1) + abs(A0)):
        raise NonQESError(f"the recursion does not truncate: v^{top} maps to v^{top + 1} by {top * A1 + A0:.3g}")
    return A2, B2, A1, B1, C1, A0, C0, top


def algebraic_states(family: PotentialFamily) -> tuple[AlgebraicState, ...]:
    """All algebraic eigenpairs of the instance, ascending in energy.

    ``_band_numbers``' band moves exactly to u = v - v0, v0 the zero of
    a2 at which every off-diagonal product is positive; scaled in logs, it
    is a symmetric J, and ``np.linalg.eigh(J)`` gives P monic in u. Raises
    ``families.NonQESError`` when the recursion does not truncate and
    :class:`NonRealEnergyError` when neither zero gives positive products.
    """
    gauge = gauge_from_residues(family)
    A2, B2, A1, B1, C1, A0, C0, top = _band_numbers(gauge)
    j, sub = np.arange(top + 1.0), np.arange(top) * A1 + A0  # u^j to u^(j + 1), as in v
    for v0 in (0.0, -B2 / A2) if A2 else (0.0,):  # a2 = A2 v^2 + B2 v
        sup = j[1:] * ((j[1:] - 1) * (2 * A2 * v0 + B2) + (A1 * v0 + B1) * v0 + C1)  # u^j to u^(j - 1)
        if np.all(sup * sub > 0):
            break
    else:
        raise NonRealEnergyError("the recursion has no real symmetric form: an off-diagonal product is not positive")
    diag = j * ((j - 1) * A2 + 2 * A1 * v0 + B1) + A0 * v0 + C0
    energies, vecs = np.linalg.eigh(np.diag(diag) + np.diag(np.sqrt(sup * sub), -1), UPLO="L")
    # T = S J S^-1 with S_j / S_(j - 1) = sub / sqrt(sup sub), so P's coefficients are S y
    log_s = np.concatenate(([0.0], np.cumsum(0.5 * np.log(sub / sup))))
    coeffs = vecs * (np.exp(log_s - log_s[-1]) * np.concatenate(([1.0], np.cumprod(np.sign(sub)))))[:, None]
    n_label = family.moving_weight * gauge.ledger.n
    return tuple(
        AlgebraicState(family, float(e), Polynomial(c / c[-1]), float(v0), gauge, n_label, i)
        for i, (e, c) in enumerate(zip(energies, coeffs.T))
    )


def eigenfunction_with_derivatives(state: AlgebraicState) -> Callable[[complex | np.ndarray], tuple]:
    """Closed-form evaluator x -> (psi, psi', psi'') in the physical variable.

    In the chart variable z, ``psi = F M`` with ``log F`` the gauge's ``log_envelope`` less its ``log_peak``,
    taken by one ``exp``, so neither the gauge factor nor a strong wall's power overflows alone, and
    M = z^parity P(z^k - origin); the gauge holds, once per instance, all that reads neither P nor E.
    With ``L = F'/F = -G' + sum_k e_k / (z - z_k)``, ``psi_z = F (L M + M')`` and
    ``psi_zz = F ((L^2 + L') M + 2 L M' + M'')``; the chart's map then gives the x-derivatives by the chain rule.

    ``x`` is one point or an ndarray of points; each of the three values is then a complex number or a complex
    ndarray of x's shape, computed elementwise in one call.
    """
    gauge = state.gauge
    coordinates = state.family.chart.coordinates
    (g1, g2), log_peak = gauge.gauge_derivatives, gauge.log_peak
    p = state.poly
    p1 = p.derivative()
    p2 = p1.derivative()
    two, origin, parity = state.family.chart.reduced_power == 2, state.origin, state.gauge.parity

    def evaluate(x):
        z, dz, d2z = coordinates(np.asarray(x, dtype=complex))
        f = np.exp(gauge.log_envelope(z) - log_peak)
        log_d = -g1(z)
        log_d2 = -g2(z)
        for loc, e, _ in gauge.wall_factors:
            d = z - loc
            log_d = log_d + e / d
            log_d2 = log_d2 - e / (d * d)
        u = (z * z if two else z) - origin
        mz, m1z, m2z = p(u), p1(u), p2(u)
        if two:  # v = z^2: M' = 2z P', M'' = 4z^2 P'' + 2 P'
            m1z, m2z = 2 * z * m1z, 4 * z * z * m2z + 2 * m1z
        if parity:
            mz, m1z, m2z = z * mz, mz + z * m1z, 2 * m1z + z * m2z
        psi_z = f * (log_d * mz + m1z)
        psi_zz = f * ((log_d * log_d + log_d2) * mz + 2 * log_d * m1z + m2z)
        return f * mz, psi_z * dz, psi_zz * dz * dz + psi_z * d2z

    return evaluate


def schrodinger_residual(state: AlgebraicState) -> float:
    """max |-psi'' + (V - E) psi| / max |psi| over the gauge's window.

    The evaluator and the potential are each called once, on 50 evenly spaced
    samples inset by 2 % of the window's length at each end, since the
    unfactored residual cancels next to a wall.
    """
    lo, hi = state.gauge.window
    xs = np.linspace(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), 50)
    with np.errstate(all="ignore"):
        psi, _, psi2 = eigenfunction_with_derivatives(state)(xs)
        worst = float(np.max(np.abs(-psi2 + (state.family.potential(xs) - state.energy) * psi)))
        peak = float(np.max(np.abs(psi)))
        return worst / peak if peak > 0 else worst
