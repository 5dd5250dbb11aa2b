"""Algebraic (polynomial x gauge) sector of a solvable family instance.

When the solvability condition holds, substituting
``psi = (prefactors) * P * exp(-G)`` into the eigenproblem closes a finite
recursion on the coefficients of P. The finite matrix of that recursion is
built here; its eigenpairs are the algebraic energies and states, and the
closed-form eigenfunctions can be evaluated (with analytic derivatives)
anywhere in the complex plane.

The gauge (prefactors and G) lives in the ledger's chart variable z: x for
the polynomial families, t = sin^2 x for the trigonometric family and
t = cosh x for the hyperbolic one. P is stored in v = z^k, the chart's
reduced power: x^2 (the sextic's parity sectors and the radial family),
sin^2 x and cosh^2 x. One formula in z evaluates every family's
eigenfunction, and the chart's map carries it to x. The closed forms the
gauge is checked against, the parity of the moving polynomial and the sample
window are the family's own data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import engine
from .families import PotentialFamily
from .series import Polynomial

__all__ = [
    "AlgebraicState",
    "GaugeSpec",
    "NonRealEnergyError",
    "algebraic_states",
    "eigenfunction_with_derivatives",
    "gauge_from_residues",
    "moving_polynomial",
    "recursion_matrix",
    "schrodinger_residual",
]

_REAL_TOL = 1e-10


class NonRealEnergyError(ArithmeticError):
    """An algebraic energy came out complex beyond tolerance."""


@dataclass(frozen=True)
class GaugeSpec:
    """Prefactor exponents and gauge polynomial of the algebraic ansatz.

    Both are in the ledger's chart variable z. ``prefactors`` holds one
    ``(location, exponent)`` per fixed pole of the ledger, the exponent being
    i * measure times the selected momentum residue there.
    ``gauge_polynomial`` is G(z) with ``psi`` carrying ``exp(-G)``; it
    integrates the principal part of the momentum at infinity. ``parity``,
    decided by the family, is the moving polynomial's power of z: n % 2 for
    the sextic, 0 otherwise. ``ledger`` is the quantization ledger all three
    were read from.
    """

    prefactors: tuple[tuple[complex, float], ...]
    gauge_polynomial: Polynomial
    parity: int
    ledger: engine.QuantizationLedger


@dataclass(frozen=True)
class AlgebraicState:
    """One closed-form eigenpair of a solvable family instance.

    ``poly`` is monic in the reduced variable; ``n_label`` is the degree of
    the full polynomial factor in the census variable (x for the polynomial
    families, the chart variable for the others), i.e. the total number of
    moving poles of the momentum function.
    """

    family: PotentialFamily
    energy: float
    poly: Polynomial
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
    variable z. The family's ``gauge_parity`` checks its closed forms
    against them and returns the parity. A family off its solvability
    condition, whose recursion does not truncate, raises the ledger's
    ``families.NonQESError``.
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
    return GaugeSpec(prefactors, Polynomial(g), family.gauge_parity(g, prefactors, ledger.n), ledger)


def _chart_matrix(mu0: float, mu1: float, q1: float, m_count: int) -> np.ndarray:
    """Recursion matrix for the t = sin^2 x machine (also reused negated)."""
    g = -q1 / 2.0
    s0 = -4.0 * (mu0 + mu1) ** 2 + (8.0 * mu0 + 2.0) * g
    dim = m_count + 1
    h = np.zeros((dim, dim))
    for k in range(dim):
        h[k, k] = 4.0 * k * (k - 1) - (8.0 * g - 8.0 * mu0 - 8.0 * mu1 - 4.0) * k - s0
        if k + 1 < dim:
            h[k, k + 1] = -(k + 1) * (4.0 * k + 8.0 * mu0 + 2.0)
        if k - 1 >= 0:
            h[k, k - 1] = -4.0 * q1 * (k - 1 - m_count)
    return h


def recursion_matrix(gauge: GaugeSpec) -> np.ndarray:
    """Dense real matrix of the finite coefficient recursion on (c_0, c_1, ...).

    Its eigenpairs are the algebraic energies and states; the ledger's chart
    picks the recursion and its n makes it truncate. On the identity chart
    it acts on P(x^2) with x^mu at the origin: mu is the radial family's
    closed form 2S - 1/2 at a fixed pole there, else the gauge's parity,
    which the sextic decides.
    """
    ledger = gauge.ledger
    family, n, chart = ledger.family, ledger.n, ledger.family.chart
    if chart.Q.degree == 0:
        a, b = family.a, family.b
        mu = family.mu if gauge.prefactors else gauge.parity
        half = family.moving_weight * n // 2
        dim = half + 1
        h = np.zeros((dim, dim))
        for i in range(dim):
            k = 2 * i
            h[i, i] = b * (2 * k + 2 * mu + 1)
            if i + 1 < dim:
                h[i, i + 1] = -(k + 2) * (k + 1 + 2 * mu)
            if i - 1 >= 0:
                h[i, i - 1] = 2.0 * a * (k - 2 - 2 * half)
        return h

    (_, mu0), (_, mu1) = gauge.prefactors[:2]
    if chart.Q(0) == 0:  # Q = 4t(1 - t): the t = sin^2 x recursion
        return _chart_matrix(mu0, mu1, family.q1, n)
    # Q = t^2 - 1: the recursion acts on P(s), s = t^2, which is quadratic at
    # t = 0, and is the trigonometric one negated
    return -_chart_matrix(mu0 / 2.0, mu1, family.q1, n)


def algebraic_states(family: PotentialFamily) -> tuple[AlgebraicState, ...]:
    """All algebraic eigenpairs of the instance, ascending in energy.

    Raises ``families.NonQESError`` when the recursion does not truncate
    and :class:`NonRealEnergyError` when an energy or an eigenvector comes
    out complex.
    """
    gauge = gauge_from_residues(family)
    w, vecs = np.linalg.eig(recursion_matrix(gauge))
    scale = max(1.0, float(np.max(np.abs(w))))
    if np.max(np.abs(w.imag)) > _REAL_TOL * scale:
        raise NonRealEnergyError(f"non-real algebraic energy: {w}")
    energies = w.real
    order = np.argsort(energies)
    n_label = family.moving_weight * gauge.ledger.n

    states = []
    for out_idx, j in enumerate(order):
        vec = vecs[:, j]
        top = vec[-1]
        if abs(top) < 1e-13:
            raise ArithmeticError("leading recursion coefficient vanished; cannot normalize")
        vec = vec / top
        if np.max(np.abs(vec.imag)) > 1e-8 * np.max(np.abs(vec)):
            raise NonRealEnergyError("eigenvector of the recursion is not real")
        states.append(
            AlgebraicState(
                family=family,
                energy=float(energies[j]),
                poly=Polynomial([float(c) for c in vec.real]),
                gauge=gauge,
                n_label=n_label,
                index=out_idx,
            )
        )
    return tuple(states)


def moving_polynomial(state: AlgebraicState) -> Polynomial:
    """Full polynomial factor z^parity * P(z^k) in the census variable (its zeros are the moving poles).

    k is the chart's reduced power and the parity is the gauge's.
    """
    k = state.family.chart.reduced_power
    q = state.poly.coeffs
    offset = state.gauge.parity
    full = [0j] * (k * (len(q) - 1) + offset + 1)
    for j, c in enumerate(q):
        full[k * j + offset] = c
    return Polynomial(full)


def eigenfunction_with_derivatives(state: AlgebraicState) -> Callable[[complex | np.ndarray], tuple]:
    """Closed-form evaluator x -> (psi, psi', psi'') in the physical variable.

    In the chart variable z, ``psi = F M`` with ``F = exp(-G) prod_k
    (sigma_k (z - z_k))^e_k`` from the gauge and M the moving polynomial;
    sigma_k = -1 where the physical interval lies below z_k, so the base is
    positive there. With ``L = F'/F = -G' + sum_k e_k / (z - z_k)``,
    ``psi_z = F (L M + M')`` and ``psi_zz = F ((L^2 + L') M + 2 L M' + M'')``;
    the chart's map then gives the x-derivatives by the chain rule.

    ``x`` is one point or an ndarray of points; each of the three values is
    then a complex number or a complex ndarray of x's shape, computed
    elementwise in one call.
    """
    gauge = state.gauge
    coordinates = state.family.chart.coordinates
    g = gauge.gauge_polynomial
    g1 = g.derivative()
    g2 = g1.derivative()
    m = moving_polynomial(state)
    m1 = m.derivative()
    m2 = m1.derivative()
    lo, hi = state.family.sample_window
    inside = coordinates(0.5 * (lo + hi))[0].real  # a point of the physical interval, in z
    factors = [(loc, e, 1.0 if inside > loc.real else -1.0) for loc, e in gauge.prefactors]

    def evaluate(x):
        z, dz, d2z = coordinates(np.asarray(x, dtype=complex))
        f = np.exp(-g(z))
        log_d = -g1(z)
        log_d2 = -g2(z)
        for loc, e, sigma in factors:
            d = z - loc
            f = f * (sigma * d) ** e
            log_d = log_d + e / d
            log_d2 = log_d2 - e / (d * d)
        mz, m1z, m2z = m(z), m1(z), m2(z)
        psi_z = f * (log_d * mz + m1z)
        psi_zz = f * ((log_d * log_d + log_d2) * mz + 2 * log_d * m1z + m2z)
        return f * mz, psi_z * dz, psi_zz * dz * dz + psi_z * d2z

    return evaluate


def schrodinger_residual(state: AlgebraicState) -> float:
    """max |-psi'' + (V - E) psi| / max |psi| over the family's sample window.

    The evaluator and the potential are each called once, on 50 evenly spaced samples.
    """
    xs = np.linspace(*state.family.sample_window, 50)
    psi, _, psi2 = eigenfunction_with_derivatives(state)(xs)
    worst = float(np.max(np.abs(-psi2 + (state.family.potential(xs) - state.energy) * psi)))
    peak = float(np.max(np.abs(psi)))
    return worst / peak if peak > 0 else worst
