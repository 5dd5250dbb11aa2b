"""Algebraic (polynomial x gauge) sector of a solvable family instance.

When the solvability condition holds, substituting
``psi = (prefactors) * P * exp(-G)`` into the eigenproblem closes a finite
recursion on the coefficients of P. The finite matrix of that recursion is
built here; its eigenpairs are the algebraic energies and states, and the
closed-form eigenfunctions can be evaluated (with analytic derivatives)
anywhere in the complex plane.

Reduced polynomial variables per family: u = x^2 for the sextic (parity
sectors) and the radial family, t = sin^2 x for the trigonometric family,
and s = cosh^2 x for the hyperbolic one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import engine
from .families import PotentialFamily, family_kind
from .series import Polynomial

__all__ = [
    "AlgebraicState",
    "GaugeSpec",
    "NonRealEnergyError",
    "QESConditionError",
    "algebraic_states",
    "eigenfunction_with_derivatives",
    "gauge_from_residues",
    "moving_polynomial",
    "recursion_matrix",
    "schrodinger_residual",
]

_REAL_TOL = 1e-10


class QESConditionError(ValueError):
    """The coefficient recursion does not truncate for these parameters."""


class NonRealEnergyError(ArithmeticError):
    """An algebraic energy came out complex beyond tolerance."""


@dataclass(frozen=True)
class GaugeSpec:
    """Prefactor exponents and gauge polynomial of the algebraic ansatz.

    ``prefactors`` maps singular points of the gauge variable to the local
    exponent there (each equals i * measure times the selected momentum
    residue, halved at a point where the gauge variable is quadratic in the
    census variable). ``gauge_polynomial`` is G with ``psi`` carrying
    ``exp(-G)``; its leading term reproduces the selected infinity branch.
    ``sector`` is ``even``/``odd`` for the sextic (the parity of n),
    ``radial`` or ``chart`` otherwise. ``ledger`` is the quantization ledger
    all three were read from.
    """

    prefactors: tuple[tuple[complex, float], ...]
    gauge_polynomial: Polynomial
    sector: str
    ledger: engine.QuantizationLedger

    @property
    def prefactor_exponent(self) -> float:
        """Exponent at the first (origin-side) prefactor point; 0 if none."""
        return self.prefactors[0][1] if self.prefactors else 0.0


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
    variable z; the hyperbolic family keeps G and its prefactors in
    s = t^2 = cosh^2 x. Closed-form consistency with the family parameters
    is asserted. A sextic off its solvability condition raises
    :class:`QESConditionError`.
    """
    kind = family_kind(family)
    ledger = engine.quantization_ledger(family, require_integer=False)
    if ledger.n is None:  # only a sextic; the other families raise NonQESError in the ledger
        nu = ledger.solved_condition["n_value"]
        raise QESConditionError(
            f"recursion does not truncate: condition value {ledger.solved_condition['lhs_value']:.12g} "
            f"is not 3 + 2n for a nonnegative integer n (residual {abs(nu - round(nu)):.3g})"
        )
    ser, measure = ledger.infinity_series, ledger.chart.measure
    g = [0.0] + [
        _real_part(-1j * measure * ser.coefficient(1 - j) / j, "gauge coefficient")
        for j in range(1, 2 - ser.lo)
    ]
    exponents = [_real_part(1j * measure * res, "prefactor exponent") for _, res in ledger.fixed_residues]
    if kind in ("sextic", "radial_sextic") and abs(4 * g[4] - family.a) > 1e-12 * (1 + family.a):
        raise ArithmeticError("gauge does not reproduce the selected infinity branch")
    sector = "chart"
    if kind == "sextic":
        # the sextic has no fixed pole; the odd sector carries the factor x
        sector, exponents = ("odd", [1.0]) if ledger.n % 2 else ("even", [])
    elif kind == "radial_sextic":
        sector = "radial"
        if abs(exponents[0] - family.mu) > 1e-10 * (1 + abs(exponents[0])):
            raise ArithmeticError("origin exponent disagrees with 2S - 1/2")
    elif kind == "hyperbolic":
        # s = t^2 is quadratic at t = 0 and simple at t = 1; G is even in t
        exponents, g = [exponents[0] / 2.0, exponents[1]], g[::2]
    return GaugeSpec(tuple(zip((0j, 1 + 0j), exponents)), Polynomial(g), sector, ledger)


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

    Its eigenpairs are the algebraic energies and states. The sextic acts on
    the powers of x of the gauge's parity sector; the ledger's n makes the
    recursion truncate for every family.
    """
    family, n = gauge.ledger.family, gauge.ledger.n
    kind = family_kind(family)
    if kind == "sextic":
        a, b = family.a, family.b
        ks = range(n % 2, n + 1, 2)
        dim = len(ks)
        h = np.zeros((dim, dim))
        for i, k in enumerate(ks):
            h[i, i] = b * (2 * k + 1)
            if i + 1 < dim:
                h[i, i + 1] = -(k + 2) * (k + 1)
            if i - 1 >= 0:
                h[i, i - 1] = 2.0 * a * (k - 2 - n)
        return h

    if kind == "radial_sextic":
        a, b, mu = family.a, family.b, family.mu
        ks = range(0, 2 * n + 1, 2)
        dim = len(ks)
        h = np.zeros((dim, dim))
        for i, k in enumerate(ks):
            h[i, i] = b * (2 * k + 2 * mu + 1)
            if i + 1 < dim:
                h[i, i + 1] = -(k + 2) * (k + 1 + 2 * mu)
            if i - 1 >= 0:
                h[i, i - 1] = 2.0 * a * (k - 2 - 2 * n)
        return h

    (_, mu0), (_, mu1) = gauge.prefactors
    h = _chart_matrix(mu0, mu1, family.q1, n)
    return -h if kind == "hyperbolic" else h


def algebraic_states(family: PotentialFamily) -> tuple[AlgebraicState, ...]:
    """All algebraic eigenpairs of the instance, ascending in energy.

    Raises :class:`QESConditionError` when the recursion does not truncate
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
    n_label = gauge.ledger.per_n_weight * gauge.ledger.n

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
    """Full polynomial factor in the census variable (its zeros are the moving poles)."""
    kind = family_kind(state.family)
    q = state.poly.coeffs
    if kind == "circular":
        return Polynomial(q)
    offset = 1 if state.gauge.sector == "odd" else 0
    full = [0j] * (2 * (len(q) - 1) + offset + 1)
    for j, c in enumerate(q):
        full[2 * j + offset] = c
    return Polynomial(full)


def _power_triple(z: np.ndarray, mu: float):
    """(z^mu, its first and second derivatives), elementwise on complex z."""
    if mu == 0:
        return (np.ones_like(z), np.zeros_like(z), np.zeros_like(z))
    if mu == 1:
        return (z, np.ones_like(z), np.zeros_like(z))
    return (z**mu, mu * z ** (mu - 1), mu * (mu - 1) * z ** (mu - 2))


def _poly_triple(p: Polynomial, z: np.ndarray):
    return (p(z), p.derivative()(z), p.derivative().derivative()(z))


def _mul_triples(a, b):
    return (a[0] * b[0], a[1] * b[0] + a[0] * b[1], a[2] * b[0] + 2 * a[1] * b[1] + a[0] * b[2])


def _chart_psi_triple(state: AlgebraicState, t: np.ndarray, sign_one_minus: bool):
    """(psi, dpsi/dt, d2psi/dt2) of the chart-variable closed form."""
    (p0, mu0), (p1, mu1) = state.gauge.prefactors
    gp = state.gauge.gauge_polynomial
    f0 = _power_triple(t - p0, mu0)
    if sign_one_minus:
        base = _power_triple(1.0 - t, mu1)
        f1 = (base[0], -base[1], base[2])
    else:
        f1 = _power_triple(t - p1, mu1)
    gval = gp(t)
    gder = gp.derivative()(t)
    gsec = gp.derivative().derivative()(t)
    e = np.exp(-gval)
    fe = (e, -gder * e, (gder * gder - gsec) * e)
    fq = _poly_triple(state.poly, t)
    out = _mul_triples(_mul_triples(f0, f1), _mul_triples(fe, fq))
    return out


def eigenfunction_with_derivatives(state: AlgebraicState) -> Callable[[complex | np.ndarray], tuple]:
    """Closed-form evaluator z -> (psi, psi', psi'') in the physical variable.

    ``z`` is one point or an ndarray of points; each of the three values is
    then a complex number or a complex ndarray of z's shape, computed
    elementwise in one call.
    """
    kind = family_kind(state.family)
    if kind in ("sextic", "radial_sextic"):
        mu = state.gauge.prefactor_exponent
        q = state.poly
        qd = q.derivative()
        qdd = qd.derivative()
        gp = state.gauge.gauge_polynomial
        gd = gp.derivative()
        gdd = gd.derivative()

        def evaluate(z):
            z = np.asarray(z, dtype=complex)
            u = z * z
            fq = (q(u), 2 * z * qd(u), 2 * qd(u) + 4 * u * qdd(u))
            fp = _power_triple(z, mu)
            gder = gd(z)
            e = np.exp(-gp(z))
            fe = (e, -gder * e, (gder * gder - gdd(z)) * e)
            psi = _mul_triples(_mul_triples(fp, fq), fe)
            return psi

        return evaluate

    if kind == "circular":

        def evaluate(z):
            z = np.asarray(z, dtype=complex)
            t = np.sin(z) ** 2
            pt = _chart_psi_triple(state, t, sign_one_minus=True)
            tp = np.sin(2 * z)
            tpp = 2 * np.cos(2 * z)
            return (pt[0], pt[1] * tp, pt[2] * tp * tp + pt[1] * tpp)

        return evaluate

    def evaluate(z):
        z = np.asarray(z, dtype=complex)
        s = np.cosh(z) ** 2
        ps = _chart_psi_triple(state, s, sign_one_minus=False)
        sp = np.sinh(2 * z)
        spp = 2 * np.cosh(2 * z)
        return (ps[0], ps[1] * sp, ps[2] * sp * sp + ps[1] * spp)

    return evaluate


_SAMPLE_WINDOWS = {
    "sextic": (-4.0, 4.0),
    "radial_sextic": (0.05, 4.0),
    "circular": (0.02, math.pi / 2 - 0.02),
    "hyperbolic": (0.05, 3.0),
}


def schrodinger_residual(state: AlgebraicState, n_samples: int = 50) -> float:
    """max |-psi'' + (V - E) psi| / max |psi| over the family's sample window.

    The evaluator and the potential are each called once, on all samples.
    """
    lo, hi = _SAMPLE_WINDOWS[family_kind(state.family)]
    xs = np.linspace(lo, hi, n_samples)
    psi, _, psi2 = eigenfunction_with_derivatives(state)(xs)
    worst = float(np.max(np.abs(-psi2 + (state.family.potential(xs) - state.energy) * psi)))
    peak = float(np.max(np.abs(psi)))
    return worst / peak if peak > 0 else worst
