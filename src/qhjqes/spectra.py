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

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import engine
from .families import PotentialFamily, Sextic, family_kind
from .series import Polynomial

__all__ = [
    "AlgebraicState",
    "GaugeSpec",
    "NonRealEnergyError",
    "QESConditionError",
    "RecursionMatrix",
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

    ``prefactors`` maps singular points of the chart variable to the local
    exponent there (each equals i times the selected momentum residue, times
    1/2 in the charts that are quadratic maps of x). ``gauge_polynomial`` is
    G with ``psi`` carrying ``exp(-G)``; its leading term reproduces the
    selected infinity branch.
    """

    variable: str
    prefactors: tuple[tuple[complex, float], ...]
    gauge_polynomial: Polynomial
    sector: str

    @property
    def prefactor_exponent(self) -> float:
        """Exponent at the first (origin-side) prefactor point; 0 if none."""
        return self.prefactors[0][1] if self.prefactors else 0.0


@dataclass(frozen=True)
class RecursionMatrix:
    """Dense real matrix whose eigenpairs are the algebraic energies/states."""

    entries: np.ndarray
    dimension: int
    sector: str
    basis_exponents: tuple[int, ...]


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
    sector: str
    gauge: GaugeSpec
    n_label: int
    index: int
    multiplicity: int = 1


def _real_part(z: complex, what: str, scale: float = 1.0) -> float:
    if abs(z.imag) > 1e-9 * (scale + abs(z)):
        raise ArithmeticError(f"{what} is not real: {z}")
    return z.real


def _sextic_n(family: Sextic) -> int:
    nu = family.qes_n
    n = int(round(nu))
    if n < 0 or abs(nu - n) > 1e-9:
        raise QESConditionError(
            f"recursion does not truncate: condition value {family.condition_value:.12g} "
            f"is not 3 + 2n for a nonnegative integer n (residual {abs(nu - n):.3g})"
        )
    return n


def gauge_from_residues(family: PotentialFamily, sector: str | None = None) -> GaugeSpec:
    """Derive prefactors and gauge from the selected branches, not from fits.

    Every exponent comes from a fixed-pole residue and the gauge polynomial
    from the infinity expansion on the physical branch; closed-form
    consistency with the family parameters is asserted.
    """
    kind = family_kind(family)
    if kind in ("sextic", "radial_sextic"):
        r_inf = engine.riccati_in_chart(family, engine.INVERSION)
        sel = engine.select_physical_branch(
            engine.infinity_branch_candidates(r_inf), family, "infinity"
        )
        ser = engine.infinity_expansion(r_inf, sel)
        b3 = ser.coefficient(-3)
        b1 = ser.coefficient(-1)
        g4 = _real_part(-1j * b3 / 4.0, "quartic gauge coefficient")
        g2 = _real_part(-1j * b1 / 2.0, "quadratic gauge coefficient")
        gauge_poly = Polynomial([0.0, 0.0, g2, 0.0, g4])
        if abs(4 * g4 - family.a) > 1e-12 * (1 + family.a):
            raise ArithmeticError("gauge does not reproduce the selected infinity branch")
        if kind == "sextic":
            n = _sextic_n(family)
            parity = "even" if n % 2 == 0 else "odd"
            if sector is None:
                sector = parity
            if sector not in ("even", "odd"):
                raise ValueError(f"unknown sextic sector {sector!r}")
            mu = 0.0 if sector == "even" else 1.0
            prefactors = ((0j, mu),) if mu else ()
            return GaugeSpec("x", prefactors, gauge_poly, sector)
        r_id = engine.riccati_in_chart(family, engine.IDENTITY)
        fsel = engine.select_physical_branch(
            engine.fixed_pole_residues(r_id, 0), family, 0
        )
        mu = _real_part(1j * fsel.leading_coefficient, "origin exponent")
        if abs(mu - family.mu) > 1e-10 * (1 + abs(mu)):
            raise ArithmeticError("origin exponent disagrees with 2S - 1/2")
        return GaugeSpec("x", ((0j, mu),), gauge_poly, "radial")

    if kind == "circular":
        r_t = engine.riccati_in_chart(family, engine.TRIG)
        sel = engine.select_physical_branch(
            engine.infinity_branch_candidates(r_t), family, "infinity"
        )
        slope = _real_part(1j * sel.leading_coefficient / 2.0, "gauge slope")
        mus = []
        for z0 in (0j, 1 + 0j):
            fsel = engine.select_physical_branch(
                engine.fixed_pole_residues(r_t, z0), family, z0
            )
            mus.append(_real_part(1j * fsel.leading_coefficient / 2.0, "chart exponent"))
        return GaugeSpec(
            "t",
            ((0j, mus[0]), (1 + 0j, mus[1])),
            Polynomial([0.0, -slope]),
            "chart",
        )

    r_t = engine.riccati_in_chart(family, engine.HYPER)
    sel = engine.select_physical_branch(
        engine.infinity_branch_candidates(r_t), family, "infinity"
    )
    kappa = _real_part(-1j * sel.leading_coefficient, "gauge curvature")
    f0 = engine.select_physical_branch(engine.fixed_pole_residues(r_t, 0), family, 0)
    mu0 = _real_part(1j * f0.leading_coefficient, "chart exponent") / 2.0
    f1 = engine.select_physical_branch(engine.fixed_pole_residues(r_t, 1), family, 1)
    mu1 = _real_part(1j * f1.leading_coefficient, "chart exponent")
    return GaugeSpec(
        "s",
        ((0j, mu0), (1 + 0j, mu1)),
        Polynomial([0.0, kappa / 2.0]),
        "chart",
    )


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


def recursion_matrix(family: PotentialFamily, sector: str | None = None) -> RecursionMatrix:
    """Finite coefficient recursion acting on (c_0, c_1, ...).

    Raises :class:`QESConditionError` when the recursion does not truncate:
    for the sextic that means the closed-form condition fails (or the wrong
    parity sector was requested); the other families truncate by
    construction.
    """
    kind = family_kind(family)
    if kind == "sextic":
        n = _sextic_n(family)
        parity = "even" if n % 2 == 0 else "odd"
        if sector is None:
            sector = parity
        if sector not in ("even", "odd"):
            raise ValueError(f"unknown sextic sector {sector!r}")
        if sector != parity:
            raise QESConditionError(
                f"recursion does not truncate in the {sector} sector: n = {n} has "
                f"{parity} parity"
            )
        a, b = family.a, family.b
        ks = tuple(range(n % 2, n + 1, 2))
        dim = len(ks)
        h = np.zeros((dim, dim))
        for i, k in enumerate(ks):
            h[i, i] = b * (2 * k + 1)
            if i + 1 < dim:
                h[i, i + 1] = -(k + 2) * (k + 1)
            if i - 1 >= 0:
                h[i, i - 1] = 2.0 * a * (k - 2 - n)
        return RecursionMatrix(h, dim, sector, ks)

    if kind == "radial_sextic":
        if sector not in (None, "radial"):
            raise ValueError(f"unknown radial sector {sector!r}")
        a, b, mu, m_count = family.a, family.b, family.mu, family.M
        ks = tuple(range(0, 2 * m_count + 1, 2))
        dim = len(ks)
        h = np.zeros((dim, dim))
        for i, k in enumerate(ks):
            h[i, i] = b * (2 * k + 2 * mu + 1)
            if i + 1 < dim:
                h[i, i + 1] = -(k + 2) * (k + 1 + 2 * mu)
            if i - 1 >= 0:
                h[i, i - 1] = 2.0 * a * (k - 2 - 2 * m_count)
        return RecursionMatrix(h, dim, "radial", ks)

    gauge = gauge_from_residues(family)
    mu0 = gauge.prefactors[0][1]
    mu1 = gauge.prefactors[1][1]
    if sector not in (None, "chart"):
        raise ValueError(f"unknown chart sector {sector!r}")
    h = _chart_matrix(mu0, mu1, family.q1, family.M)
    if kind == "hyperbolic":
        h = -h
    return RecursionMatrix(h, family.M + 1, "chart", tuple(range(family.M + 1)))


def algebraic_states(family: PotentialFamily) -> tuple[AlgebraicState, ...]:
    """All algebraic eigenpairs of the instance, ascending in energy.

    Raises :class:`QESConditionError` when the recursion does not truncate
    and :class:`NonRealEnergyError` when an energy or an eigenvector comes
    out complex.
    """
    kind = family_kind(family)
    matrix = recursion_matrix(family)
    gauge = gauge_from_residues(family, matrix.sector if kind == "sextic" else None)
    w, vecs = np.linalg.eig(matrix.entries)
    scale = max(1.0, float(np.max(np.abs(w))))
    if np.max(np.abs(w.imag)) > _REAL_TOL * scale:
        raise NonRealEnergyError(f"non-real algebraic energy: {w}")
    energies = w.real
    order = np.argsort(energies)

    if kind == "sextic":
        n_label = _sextic_n(family)
    elif kind == "circular":
        n_label = family.M
    else:
        n_label = 2 * family.M

    states = []
    for out_idx, j in enumerate(order):
        vec = vecs[:, j]
        top = vec[-1]
        if abs(top) < 1e-13:
            raise ArithmeticError("leading recursion coefficient vanished; cannot normalize")
        vec = vec / top
        if np.max(np.abs(vec.imag)) > 1e-8 * np.max(np.abs(vec)):
            raise NonRealEnergyError("eigenvector of the recursion is not real")
        mult = int(np.sum(np.abs(energies - energies[j]) <= _REAL_TOL * scale))
        states.append(
            AlgebraicState(
                family=family,
                energy=float(energies[j]),
                poly=Polynomial([float(c) for c in vec.real]),
                sector=matrix.sector,
                gauge=gauge,
                n_label=n_label,
                index=out_idx,
                multiplicity=mult,
            )
        )
    return tuple(states)


def moving_polynomial(state: AlgebraicState) -> Polynomial:
    """Full polynomial factor in the census variable (its zeros are the moving poles)."""
    kind = family_kind(state.family)
    q = state.poly.coeffs
    if kind == "circular":
        return Polynomial(q)
    offset = 1 if (kind == "sextic" and state.sector == "odd") else 0
    full = [0j] * (2 * (len(q) - 1) + offset + 1)
    for j, c in enumerate(q):
        full[2 * j + offset] = c
    return Polynomial(full)


def _power_triple(z: complex, mu: float):
    if mu == 0:
        return (1.0 + 0j, 0j, 0j)
    if mu == 1:
        return (z, 1.0 + 0j, 0j)
    f = z**mu
    return (f, mu * z ** (mu - 1), mu * (mu - 1) * z ** (mu - 2))


def _poly_triple(p: Polynomial, z: complex):
    return (p(z), p.derivative()(z), p.derivative().derivative()(z))


def _mul_triples(a, b):
    return (a[0] * b[0], a[1] * b[0] + a[0] * b[1], a[2] * b[0] + 2 * a[1] * b[1] + a[0] * b[2])


def _chart_psi_triple(state: AlgebraicState, t: complex, sign_one_minus: bool):
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
    e = cmath.exp(-gval)
    fe = (e, -gder * e, (gder * gder - gsec) * e)
    fq = _poly_triple(state.poly, t)
    out = _mul_triples(_mul_triples(f0, f1), _mul_triples(fe, fq))
    return out


def eigenfunction_with_derivatives(state: AlgebraicState) -> Callable[[complex], tuple]:
    """Closed-form evaluator z -> (psi, psi', psi'') in the physical variable."""
    kind = family_kind(state.family)
    if kind in ("sextic", "radial_sextic"):
        mu = state.gauge.prefactor_exponent
        q = state.poly
        qd = q.derivative()
        qdd = qd.derivative()
        gp = state.gauge.gauge_polynomial
        gd = gp.derivative()
        gdd = gd.derivative()

        def evaluate(z: complex):
            z = complex(z)
            u = z * z
            fq = (q(u), 2 * z * qd(u), 2 * qd(u) + 4 * u * qdd(u))
            fp = _power_triple(z, mu)
            gder = gd(z)
            e = cmath.exp(-gp(z))
            fe = (e, -gder * e, (gder * gder - gdd(z)) * e)
            psi = _mul_triples(_mul_triples(fp, fq), fe)
            return psi

        return evaluate

    if kind == "circular":

        def evaluate(z: complex):
            z = complex(z)
            t = cmath.sin(z) ** 2
            pt = _chart_psi_triple(state, t, sign_one_minus=True)
            tp = cmath.sin(2 * z)
            tpp = 2 * cmath.cos(2 * z)
            return (pt[0], pt[1] * tp, pt[2] * tp * tp + pt[1] * tpp)

        return evaluate

    def evaluate(z: complex):
        z = complex(z)
        s = cmath.cosh(z) ** 2
        ps = _chart_psi_triple(state, s, sign_one_minus=False)
        sp = cmath.sinh(2 * z)
        spp = 2 * cmath.cosh(2 * z)
        return (ps[0], ps[1] * sp, ps[2] * sp * sp + ps[1] * spp)

    return evaluate


_SAMPLE_WINDOWS = {
    "sextic": (-4.0, 4.0),
    "radial_sextic": (0.05, 4.0),
    "circular": (0.02, math.pi / 2 - 0.02),
    "hyperbolic": (0.05, 3.0),
}


def schrodinger_residual(state: AlgebraicState, n_samples: int = 50) -> float:
    """max |-psi'' + (V - E) psi| / max |psi| over the family's sample window."""
    kind = family_kind(state.family)
    lo, hi = _SAMPLE_WINDOWS[kind]
    f = eigenfunction_with_derivatives(state)
    xs = np.linspace(lo, hi, n_samples)
    worst = 0.0
    peak = 0.0
    for x in xs:
        psi, _, psi2 = f(complex(x))
        v = state.family.potential(float(x))
        res = abs(-psi2 + (v - state.energy) * psi)
        worst = max(worst, res)
        peak = max(peak, abs(psi))
    return worst / peak if peak > 0 else worst
