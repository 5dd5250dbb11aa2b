"""Riccati data in each family's chart, infinity matching, branch selection, and the ledger.

The momentum function p = -i psi'/psi of a bound state satisfies the Riccati
equation ``p^2 - i p' = E - V``. Each family carries one chart (z = x for
the polynomial families, t = sin^2 x or t = cosh x for the bounded/hyperbolic
ones) and its potential in it, V = num/den, as data (see ``families``, where
``ChartSpec`` and the charts live). Writing p = m q dz/dx, with m
the chart's measure and Q(z) = (dz/dx)^2 a polynomial, gives for the reduced
momentum q

    q^2 + W q' + U q = R(z; E),    W = -i/m,  U = W Q'/(2Q),
    R = (E - V)/(m^2 Q) = (E den - num)/(m^2 Q den),

so W and U come from the chart alone and R is one formula in the family's
data. Infinity is reached from any chart by transporting the equation to
w = 1/z. The pipeline implemented here:

1. ``riccati_in_chart``    - build R and the fixed poles for a family in its chart;
2. ``_localize_at_infinity`` - expand the equation at w = 0 and match a
                             Laurent ansatz for q order by order; the leading
                             coefficient obeys a quadratic, giving two branches;
3. ``fixed_pole_residues`` - the analogous local quadratic at a double pole
                             of R (a singular point of the potential);
4. ``select_physical_branch`` - keep the branch whose wavefunction decays,
                             where the interval reaches infinity;
5. ``quantization_ledger`` - balance the large-contour value from step 2
                             against fixed-pole contributions plus one unit
                             per moving pole, and solve the balance for the
                             family parameters.

Energy enters R only through the numerator term E den, so the ledger's
window stops below the first coefficient of q that E reaches
(``_localize_at_infinity``).

All functions are pure and deterministic.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from typing import Union

import numpy as np

from .families import ChartSpec, PotentialFamily
from .series import LaurentSeries, Polynomial

__all__ = [
    "BranchCandidate",
    "BranchRuleError",
    "LedgerEntry",
    "MatchingFailure",
    "QuantizationLedger",
    "RiccatiData",
    "fixed_pole_residues",
    "quantization_ledger",
    "riccati_in_chart",
    "select_physical_branch",
]


class MatchingFailure(ValueError):
    """The order-by-order matching could not be carried out consistently."""


class BranchRuleError(ValueError):
    """Neither or both branch candidates satisfy the physical selection rule."""


@dataclass(frozen=True)
class RiccatiData:
    """The right-hand side R of q^2 + W q' + U q = R for one family in its chart.

    R is stored as ``(rhs_num_const + E * rhs_num_energy) / rhs_den`` with the
    energy E symbolic; it enters linearly and only through the numerator.
    W and U depend on the chart alone (``chart.riccati_weights()``).
    ``fixed_poles`` lists the finite chart locations of the potential's
    singular points (double poles of R).
    """

    chart: ChartSpec
    rhs_num_const: Polynomial
    rhs_num_energy: Polynomial
    rhs_den: Polynomial
    fixed_poles: tuple[complex, ...]


@dataclass(frozen=True)
class BranchCandidate:
    """One root of a local quadratic for a leading coefficient or residue."""

    label: str
    leading_coefficient: complex
    location: Union[str, complex]


@dataclass(frozen=True)
class LedgerEntry:
    source: str
    value: complex
    detail: str = ""


@dataclass(frozen=True)
class QuantizationLedger:
    """Itemized residue bookkeeping and the solved solvability condition.

    ``infinity_branches`` is the candidate pair at infinity in the family's
    chart and ``selected_branch`` the label of the physical one.

    It also describes every singularity of the momentum q in the chart
    variable z, with ``p dx = chart.measure * q dz``: ``infinity_series`` is
    q at infinity on the selected branch in powers of w = 1/z (its orders
    <= 0 are the principal part), ``fixed_residues`` holds ``(location,
    selected residue)`` per fixed pole, and every moving pole has residue
    ``-i / chart.measure``.
    """

    family: PotentialFamily
    entries: tuple[LedgerEntry, ...]
    solved_condition: dict
    n: int | None
    balance_residual: float
    infinity_branches: tuple[BranchCandidate, BranchCandidate]
    selected_branch: str
    infinity_series: LaurentSeries
    fixed_residues: tuple[tuple[complex, complex], ...]


def riccati_in_chart(family: PotentialFamily) -> RiccatiData:
    """Reduced Riccati data for ``family`` in its chart.

    With V = num/den in the chart variable (``family.potential_in_chart``),
    R = (E den - num)/(m^2 Q den). Subtracting each real coefficient from
    0.0 keeps negative zeros out of the numerator.
    """
    num, den = family.potential_in_chart
    energy, rhs_den = _denominators(family.chart, den)
    return RiccatiData(family.chart, Polynomial([0.0 - c for c in num]), energy, rhs_den, family.singular_points)


@functools.lru_cache(maxsize=16)
def _denominators(chart: ChartSpec, den: tuple) -> tuple[Polynomial, Polynomial]:
    """E's numerator den and R's denominator m^2 Q den, built once per chart; + 0.0 clears negative zeros."""
    m2q = [chart.measure**2 * c.real for c in chart.Q.coeffs]
    return Polynomial(den), Polynomial(np.convolve(m2q, den) + 0.0)


def _series_inverse(d: np.ndarray, n: int) -> np.ndarray:
    """First n coefficients of 1/d(w) as a power series; d[0] != 0."""
    inv = np.zeros(n, dtype=complex)
    inv[0] = 1.0 / d[0]
    for m in range(1, n):
        s = 0j
        for j in range(1, min(m, len(d) - 1) + 1):
            s += d[j] * inv[m - j]
        inv[m] = -s / d[0]
    return inv


def _laurent_rational(num: Polynomial, den: Polynomial, shift: int, hi: int) -> dict[int, complex]:
    """Laurent coefficients of ``w**shift * num(w)/den(w)`` about w = 0, through order ``hi >= shift``.

    Needs den(0) != 0, which holds for a denominator reversed about its own degree.
    """
    if num.is_zero:
        return {}
    n_terms = hi - shift + 1
    invd = _series_inverse(np.array(den.coeffs, dtype=complex), n_terms)
    prod = np.convolve(np.array(num.coeffs, dtype=complex), invd)[:n_terms]
    return {shift + j: complex(prod[j]) for j in range(len(prod)) if prod[j] != 0}


def _reversed_poly(p: Polynomial, degree: int) -> Polynomial:
    """Coefficients of ``w**degree * p(1/w)`` (reversal w.r.t. ``degree >= deg p``)."""
    cs = [0j] * (degree + 1)
    for j, c in enumerate(p.coeffs):
        cs[degree - j] = c
    return Polynomial(cs)


@dataclass(frozen=True)
class _LocalEquation:
    """q^2 + W q' + U q = R, all expanded about the local origin."""

    w_coeffs: dict[int, complex]
    u_coeffs: dict[int, complex]
    r_coeffs: dict[int, complex]
    leading_order: int  # m, with q = c_m w^m + ...
    depth: int  # number of coefficients of q to match
    energy_order: int  # lowest order of E in R, left out of r_coeffs


def _localize_at_infinity(r: RiccatiData) -> _LocalEquation:
    """Expand the chart equation about the image of x = infinity.

    The equation is transported to w = 1/z, under which q'(z) becomes
    ``-w**2 * d/dw`` of the transported momentum. R starts at order
    ``deg rhs_den - deg numerator`` there: the reversed denominator and the
    reversed numerator of top degree have nonzero constant terms. ``depth``
    (the number of coefficients of q to match) is the pole order of q at
    w = 0 plus 3.

    By the same argument E first enters R at ``energy_order = deg rhs_den -
    deg rhs_num_energy``. R is expanded without E's part, exact below that
    order.
    """
    dn = max(r.rhs_num_const.degree, r.rhs_num_energy.degree)
    dd = r.rhs_den.degree
    m2 = dd - dn
    if m2 % 2 != 0:
        raise MatchingFailure(f"odd leading order {m2} on the right-hand side")
    m = m2 // 2
    depth = max(0, -m2) + 3
    hi = m2 + depth + 2
    r_coeffs = _laurent_rational(_reversed_poly(r.rhs_num_const, dn), _reversed_poly(r.rhs_den, dd), m2, hi)
    w, u_num, u_den = r.chart.riccati_weights()
    un, ud = u_num.degree, u_den.degree
    u_coeffs = _laurent_rational(_reversed_poly(u_num, un), _reversed_poly(u_den, ud), ud - un, hi + 2)
    return _LocalEquation({2: -w.coeffs[0]}, u_coeffs, r_coeffs, m, depth, dd - r.rhs_num_energy.degree)


def _match_local(eq: _LocalEquation, lead: complex, n_coeffs: int) -> dict[int, complex]:
    """Solve q^2 + W q' + U q = R order by order from the leading power up; ``lead`` is a root from ``_branch_pair``."""
    m = eq.leading_order
    lead = complex(lead)
    coeffs = {m: lead}
    for new in range(m + 1, m + n_coeffs):
        s = new + m
        total = 0j
        for i in range(m, s - m + 1):
            j = s - i
            if j < m or i == new or j == new:
                continue
            total += coeffs[i] * coeffs[j]
        for k, ck in coeffs.items():
            wk = eq.w_coeffs.get(s - k + 1)
            if wk and k != 0:
                total += ck * (k * wk)
            uk = eq.u_coeffs.get(s - k)
            if uk:
                total += ck * uk
        lin = 2.0 * lead + new * eq.w_coeffs.get(m + 1, 0j) + eq.u_coeffs.get(m, 0j)
        if lin == 0:
            raise MatchingFailure(f"matching failure at order {s}: resonant linear coefficient")
        coeffs[new] = (eq.r_coeffs.get(s, 0j) - total) / lin
    return coeffs


def _branch_pair(eq: _LocalEquation) -> tuple[BranchCandidate, BranchCandidate]:
    if eq.energy_order == 2 * eq.leading_order:
        raise MatchingFailure("energy enters the leading matching order")
    root = cmath.sqrt(eq.r_coeffs.get(2 * eq.leading_order, 0j))
    if root == 0:
        raise MatchingFailure("degenerate leading coefficient (vanishing top term)")
    return (
        BranchCandidate("+", root, "infinity"),
        BranchCandidate("-", -root, "infinity"),
    )


def _expansion(eq: _LocalEquation, branch: BranchCandidate) -> LaurentSeries:
    """q through ``depth`` coefficients, or up to the first one that E reaches (order ``energy_order - m``)."""
    m = eq.leading_order
    hi = min(m + eq.depth - 1, eq.energy_order - m - 1)
    return LaurentSeries(_match_local(eq, branch.leading_coefficient, hi - m + 1), m, hi)


def fixed_pole_residues(r: RiccatiData, pole: complex) -> tuple[BranchCandidate, BranchCandidate]:
    """Both roots of the residue quadratic of the momentum at a fixed pole.

    At a double pole z0 of R the ansatz q ~ rho/(z - z0) balances the most
    singular power when ``rho^2 + (U_res - W(z0)) rho - R2 = 0``, with U_res
    the residue of U at z0 and R2 the double-pole coefficient of R.
    """
    pole = complex(pole)
    slope = r.rhs_den.derivative()
    half_curvature = slope.derivative()(pole) / 2.0
    scale = max(abs(c) for c in r.rhs_den.coeffs)
    if abs(r.rhs_den(pole)) > 1e-12 * scale or abs(slope(pole)) > 1e-12 * scale or half_curvature == 0:
        raise ValueError(f"right-hand side does not have a double pole at {pole}")
    if abs(r.rhs_num_energy(pole)) > 1e-12:
        raise MatchingFailure("energy enters the fixed-pole residue quadratic")
    r2 = r.rhs_num_const(pole) / half_curvature
    w, u_num, u_den = r.chart.riccati_weights()
    w0 = w(pole)  # by Horner, which gives the real part +0 that bare -1j / measure does not
    u_res = 0j
    if abs(u_den(pole)) <= 1e-12 * max(1.0, max(abs(c) for c in u_den.coeffs)):
        # A simple zero of Q, where U = W Q'/(2Q) has a simple pole.
        u_res = u_num(pole) / u_den.derivative()(pole)
    b = u_res - w0
    disc = cmath.sqrt(b * b + 4.0 * r2)
    return (
        BranchCandidate("+", (-b + disc) / 2.0, pole),
        BranchCandidate("-", (-b - disc) / 2.0, pole),
    )


def _implied_exponent(candidate: BranchCandidate, chart: ChartSpec) -> float:
    """Local wavefunction exponent in the physical variable implied by a residue.

    psi ~ (z - z0)^(i m rho) for a residue rho of q, and z - z0 is quadratic
    in x where Q = (dz/dx)^2 vanishes, which doubles the exponent there.
    """
    factor = chart.measure * (2.0 if chart.Q(candidate.location) == 0 else 1.0)
    lam = 1j * candidate.leading_coefficient * factor
    if abs(lam.imag) > 1e-9 * (1.0 + abs(lam)):
        raise BranchRuleError(f"residue {candidate.leading_coefficient} implies a non-real exponent")
    return lam.real


def select_physical_branch(
    pair: tuple[BranchCandidate, BranchCandidate], family: PotentialFamily
) -> BranchCandidate:
    """Pick the square-integrable branch out of a candidate pair, at the location both carry.

    At infinity the rule is decay of the implied gauge factor. It decides
    only where the interval reaches infinity; on a bounded one both branches
    are normalizable, so this raises ``BranchRuleError`` and
    ``quantization_ledger`` applies the count rule. At a fixed pole
    the candidate with the larger implied local exponent is kept (for a
    repulsive wall that is the one with psi -> 0; in the borderline attractive
    range it is the principal, limit-circle choice).
    """
    a, b = pair
    if a.location != b.location:
        raise ValueError("candidates were produced at two locations")
    if a.location == "infinity":
        if not any(map(cmath.isinf, family.interval)):
            raise BranchRuleError("both branches at infinity are normalizable on a bounded interval")
        da = (1j * a.leading_coefficient).real < 0
        db = (1j * b.leading_coefficient).real < 0
        if da == db:
            raise BranchRuleError("branch rule indeterminate: decay test does not split the pair")
        return a if da else b

    ea = _implied_exponent(a, family.chart)
    eb = _implied_exponent(b, family.chart)
    if abs(ea - eb) <= 1e-12 * (1.0 + abs(ea) + abs(eb)):
        raise BranchRuleError("branch rule indeterminate: degenerate local exponents")
    return a if ea > eb else b


def quantization_ledger(family: PotentialFamily, require_integer: bool = True) -> QuantizationLedger:
    """Assemble and balance the residue ledger; solve it for the QES condition.

    The infinity entry is ``i * measure * c1`` with c1 the first positive
    Laurent coefficient of the reduced momentum on the physical branch. Each
    fixed pole contributes ``i * measure * residue`` of its selected branch.
    What remains must be the moving-pole count, n times the family's
    ``moving_weight``: 1 for the sextic and trigonometric families, 2 for the
    mirror-symmetric radial and hyperbolic ones. The family's
    ``solve_ledger`` reads the balance as its closed form: for the sextic it
    constrains (alpha, beta, gamma); for the other three it returns M = n
    identically.

    Decay picks the branch at infinity where ``interval`` is unbounded. On a
    bounded one both branches are normalizable, and the physical one leaves
    the larger count of moving poles, that is of nodes (Leacock & Padgett,
    Phys. Rev. Lett. 50, 3 (1983)); the circular family's other leaves -(2 S1 + 2 S2 + M).

    No command passes ``require_integer=False``; it stays as the tests'
    reference for the condition value of a sextic off its condition, and the
    acceptance suite's criterion 2 reads the branch pair at infinity of
    off-condition sextics through it.
    """
    r = riccati_in_chart(family)
    chart = r.chart
    eq = _localize_at_infinity(r)
    pair = _branch_pair(eq)
    if any(map(cmath.isinf, family.interval)):
        sel = select_physical_branch(pair, family)
        ser = _expansion(eq, sel)
    else:  # the fixed poles take the same share on both branches, so the larger count has the larger i c1
        sel, ser = max(((c, _expansion(eq, c)) for c in pair), key=lambda cs: (1j * cs[1].coefficient(1)).real)
    c1 = ser.coefficient(1)
    j_value = 1j * chart.measure * c1
    if abs(j_value.imag) > 1e-10 * (1.0 + abs(j_value)):
        raise MatchingFailure(f"large-contour value is not real: {j_value}")

    entries = [
        LedgerEntry(
            "infinity",
            j_value,
            f"i * {chart.measure:g} * c1 with branch {sel.label} (leading {sel.leading_coefficient:.6g})",
        )
    ]

    fixed_total = 0j
    fixed_residues = []
    for z0 in r.fixed_poles:
        fpair = fixed_pole_residues(r, z0)
        fsel = select_physical_branch(fpair, family)
        contrib = 1j * chart.measure * fsel.leading_coefficient
        fixed_total += contrib
        fixed_residues.append((z0, fsel.leading_coefficient))
        entries.append(
            LedgerEntry(
                f"fixed pole at {chart.variable} = {z0.real:g}",
                contrib,
                f"i * {chart.measure:g} * residue, residue {fsel.leading_coefficient:.6g}",
            )
        )

    per_n = family.moving_weight
    moving = j_value - fixed_total
    if abs(moving.imag) > 1e-10 * (1.0 + abs(moving)):
        raise MatchingFailure(f"moving-pole total is not real: {moving}")
    moving_total = moving.real
    n_value = moving_total / per_n
    n_int = int(round(n_value))
    n_out = n_int if abs(n_value - n_int) <= 1e-9 and n_int >= 0 else None
    solved = family.solve_ledger(j_value.real, n_value, n_out, require_integer)
    entries.append(
        LedgerEntry(
            "moving poles",
            complex(moving_total),
            f"{per_n} poles per quantum number n" if per_n > 1 else "n poles, one unit each",
        )
    )
    balance = 0.0
    if n_out is not None:
        balance = abs(j_value - (fixed_total + per_n * n_out))
    return QuantizationLedger(
        family=family,
        entries=tuple(entries),
        solved_condition=solved,
        n=n_out,
        balance_residual=balance,
        infinity_branches=pair,
        selected_branch=sel.label,
        infinity_series=ser,
        fixed_residues=tuple(fixed_residues),
    )

