"""Riccati data per chart, infinity matching, branch selection, and the ledger.

The momentum function p = -i psi'/psi of a bound state satisfies the Riccati
equation ``p^2 - i p' = E - V``. In a chart where the point at infinity is
reachable (inversion y = 1/x for the polynomial families, t = sin^2 x or
t = cosh x for the bounded/hyperbolic ones) the reduced momentum obeys

    q^2 + W(z) q' + U(z) q = R(z; E),

with rational W, U, R. The pipeline implemented here:

1. ``riccati_in_chart``    - build (W, U, R) for a family in a chart;
2. ``infinity_expansion``  - match a Laurent ansatz for q order by order at
                             the image of infinity; the leading coefficient
                             obeys a quadratic, giving two branches;
3. ``fixed_pole_residues`` - the analogous local quadratic at a double pole
                             of R (a singular point of the potential);
4. ``select_physical_branch`` - keep the branch whose wavefunction decays;
5. ``quantization_ledger`` - balance the large-contour value from step 2
                             against fixed-pole contributions plus one unit
                             per moving pole, and solve the balance for the
                             family parameters.

Energy is carried through the matching as a symbolic linear unknown. For all
four families it stays out of the coefficients the ledger consumes; the
matcher checks that rather than assuming it.

All functions are pure and deterministic.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .families import (
    Circular,
    Hyperbolic,
    PotentialFamily,
    RadialSextic,
    Sextic,
    family_kind,
)
from .series import LaurentSeries, Polynomial

__all__ = [
    "HYPER",
    "IDENTITY",
    "INVERSION",
    "TRIG",
    "BranchCandidate",
    "BranchRuleError",
    "ChartSpec",
    "LedgerEntry",
    "MatchingFailure",
    "NonQESError",
    "QuantizationLedger",
    "RiccatiData",
    "default_matching_depth",
    "fixed_pole_residues",
    "infinity_branch_candidates",
    "infinity_expansion",
    "qes_parameterize",
    "quantization_ledger",
    "riccati_in_chart",
    "select_physical_branch",
]


class MatchingFailure(ValueError):
    """The order-by-order matching could not be carried out consistently."""


class BranchRuleError(ValueError):
    """Neither or both branch candidates satisfy the physical selection rule."""


class NonQESError(ValueError):
    """The ledger does not close on an integer moving-pole count."""


@dataclass(frozen=True)
class ChartSpec:
    """A coordinate chart together with its momentum reduction.

    ``measure`` is the constant m in ``p dx = m * q dz`` for the reduced
    momentum q in the chart variable z, so a pole of q with residue r
    contributes ``i * m * r`` to ``(1/2pi) ∮ p dx``. The charts:

    * identity, z = x, no reduction;
    * inversion, y = 1/x, no momentum reduction;
    * trig, t = sin^2 x, p = sqrt(t(1-t)) q, so p dx = q dt / 2;
    * hyper, t = cosh x, p = sqrt(t^2-1) q, so p dx = q dt.
    """

    name: str
    variable: str
    measure: float


IDENTITY = ChartSpec("identity", "x", 1.0)
INVERSION = ChartSpec("inversion", "y", 1.0)
TRIG = ChartSpec("trig", "t", 0.5)
HYPER = ChartSpec("hyper", "t", 1.0)


@dataclass(frozen=True)
class RiccatiData:
    """The reduced Riccati equation q^2 + W q' + U q = R in one chart.

    R is stored as ``(rhs_num_const + E * rhs_num_energy) / rhs_den`` with the
    energy E symbolic; it enters linearly and only through the numerator.
    ``fixed_poles`` lists the finite chart locations of the potential's
    singular points (double poles of R).
    """

    chart: ChartSpec
    rhs_num_const: Polynomial
    rhs_num_energy: Polynomial
    rhs_den: Polynomial
    weight_num: Polynomial
    weight_den: Polynomial
    linear_num: Polynomial
    linear_den: Polynomial
    fixed_poles: tuple[complex, ...]


@dataclass(frozen=True)
class BranchCandidate:
    """One root of a local quadratic for a leading coefficient or residue."""

    label: str
    leading_coefficient: complex
    location: Union[str, complex]
    decay_flag: bool | None = None


@dataclass(frozen=True)
class LedgerEntry:
    source: str
    value: complex
    detail: str = ""


@dataclass(frozen=True)
class QuantizationLedger:
    """Itemized residue bookkeeping and the solved solvability condition.

    ``infinity_branches`` is the candidate pair at infinity in the ledger's
    chart and ``selected_branch`` the label of the physical one it used.

    It also describes every singularity of the momentum q in the census
    variable z (x, or the chart variable t), with ``p dx = measure * q dz``:
    ``infinity_series`` is q at infinity on the selected branch in powers of
    y = 1/x or w = 1/t (its orders <= 0 are the principal part),
    ``fixed_residues`` holds ``(location, selected residue)`` per fixed pole,
    and every moving pole has residue ``-i / measure``.
    """

    family: PotentialFamily
    entries: tuple[LedgerEntry, ...]
    solved_condition: dict
    n: int | None
    per_n_weight: int
    balance_residual: float
    infinity_branches: tuple[BranchCandidate, BranchCandidate]
    selected_branch: str
    measure: float
    infinity_series: LaurentSeries
    fixed_residues: tuple[tuple[complex, complex], ...]


_ONE = Polynomial([1])
_ZERO = Polynomial([0])


def riccati_in_chart(family: PotentialFamily, chart: ChartSpec) -> RiccatiData:
    """Reduced Riccati data for ``family`` in ``chart``.

    Charts are restricted to the pairings that make sense: the polynomial
    families use the identity or inversion chart, the trigonometric family
    the trig chart, and the hyperbolic family the hyper chart.
    """
    kind = family_kind(family)
    if kind == "sextic" and chart is IDENTITY:
        al, be, ga = family.alpha, family.beta, family.gamma
        return RiccatiData(
            chart=IDENTITY,
            rhs_num_const=Polynomial([0, 0, -al, 0, -be, 0, -ga]),
            rhs_num_energy=_ONE,
            rhs_den=_ONE,
            weight_num=Polynomial([-1j]),
            weight_den=_ONE,
            linear_num=_ZERO,
            linear_den=_ONE,
            fixed_poles=(),
        )
    if kind == "sextic" and chart is INVERSION:
        al, be, ga = family.alpha, family.beta, family.gamma
        return RiccatiData(
            chart=INVERSION,
            rhs_num_const=Polynomial([-ga, 0, -be, 0, -al]),
            rhs_num_energy=Polynomial([0] * 6 + [1]),
            rhs_den=Polynomial([0] * 6 + [1]),
            weight_num=Polynomial([0, 0, 1j]),
            weight_den=_ONE,
            linear_num=_ZERO,
            linear_den=_ONE,
            fixed_poles=(),
        )
    if kind == "radial_sextic" and chart is IDENTITY:
        g, c2, a, b = family.g, family.c2, family.a, family.b
        return RiccatiData(
            chart=IDENTITY,
            rhs_num_const=Polynomial([-g, 0, 0, 0, -c2, 0, -2 * a * b, 0, -a * a]),
            rhs_num_energy=Polynomial([0, 0, 1]),
            rhs_den=Polynomial([0, 0, 1]),
            weight_num=Polynomial([-1j]),
            weight_den=_ONE,
            linear_num=_ZERO,
            linear_den=_ONE,
            fixed_poles=(0j,),
        )
    if kind == "radial_sextic" and chart is INVERSION:
        g, c2, a, b = family.g, family.c2, family.a, family.b
        return RiccatiData(
            chart=INVERSION,
            rhs_num_const=Polynomial([-a * a, 0, -2 * a * b, 0, -c2, 0, 0, 0, -g]),
            rhs_num_energy=Polynomial([0] * 6 + [1]),
            rhs_den=Polynomial([0] * 6 + [1]),
            weight_num=Polynomial([0, 0, 1j]),
            weight_den=_ONE,
            linear_num=_ZERO,
            linear_den=_ONE,
            fixed_poles=(),
        )
    if kind == "circular" and chart is TRIG:
        A, B, C, D = family.A, family.B, family.C, family.D
        return RiccatiData(
            chart=TRIG,
            rhs_num_const=Polynomial([-A, A - B, -C, C + D, -D]),
            rhs_num_energy=Polynomial([0, 1, -1]),
            rhs_den=Polynomial([0, 0, 1, -2, 1]),
            weight_num=Polynomial([-2j]),
            weight_den=_ONE,
            linear_num=Polynomial([-1j, 2j]),
            linear_den=Polynomial([0, 1, -1]),
            fixed_poles=(0j, 1 + 0j),
        )
    if kind == "hyperbolic" and chart is HYPER:
        A, B, C, D = family.A, family.B, family.C, family.D
        return RiccatiData(
            chart=HYPER,
            rhs_num_const=Polynomial([-A, 0, A - B, 0, -C, 0, C + D, 0, -D]),
            rhs_num_energy=Polynomial([0, 0, -1, 0, 1]),
            rhs_den=Polynomial([0, 0, 1, 0, -2, 0, 1]),
            weight_num=Polynomial([-1j]),
            weight_den=_ONE,
            linear_num=Polynomial([0, -1j]),
            linear_den=Polynomial([-1, 0, 1]),
            fixed_poles=(0j, 1 + 0j, -1 + 0j),
        )
    raise ValueError(f"incompatible chart/family pairing: {kind} in chart {chart.name!r}")


# ----------------------------------------------------------------------
# Energy-linear arithmetic for the matcher.


@dataclass(frozen=True)
class _AffineE:
    """A value c + e*E with the energy E kept symbolic (linear only)."""

    c: complex
    e: complex = 0j

    def __add__(self, other: "_AffineE") -> "_AffineE":
        return _AffineE(self.c + other.c, self.e + other.e)

    def __sub__(self, other: "_AffineE") -> "_AffineE":
        return _AffineE(self.c - other.c, self.e - other.e)

    def times(self, other: "_AffineE") -> "_AffineE":
        if self.e != 0 and other.e != 0:
            raise MatchingFailure(
                "energy would enter the matching nonlinearly; reduce the depth"
            )
        return _AffineE(self.c * other.c, self.c * other.e + self.e * other.c)

    def scaled(self, z: complex) -> "_AffineE":
        return _AffineE(self.c * z, self.e * z)

    def over(self, z: complex) -> "_AffineE":
        return _AffineE(self.c / z, self.e / z)


_AFFINE_ZERO = _AffineE(0j, 0j)


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
    """Laurent coefficients of ``w**shift * num(w)/den(w)`` about w = 0, through order ``hi``."""
    if num.is_zero:
        return {}
    dc = list(den.coeffs)
    k = 0
    while dc[0] == 0:
        dc.pop(0)
        k += 1
    base = shift - k
    n_terms = hi - base + 1
    if n_terms <= 0:
        return {}
    invd = _series_inverse(np.array(dc, dtype=complex), n_terms)
    prod = np.convolve(np.array(num.coeffs, dtype=complex), invd)[:n_terms]
    return {base + j: complex(prod[j]) for j in range(len(prod)) if prod[j] != 0}


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
    r_coeffs: dict[int, _AffineE]
    leading_order: int  # m, with q = c_m w^m + ...


def _localize_at_infinity(r: RiccatiData, depth: int) -> _LocalEquation:
    """Expand the chart equation about the image of x = infinity.

    For the inversion chart that image is already the chart origin; for the
    trig/hyper charts the equation is first transported to w = 1/t, under
    which q'(t) becomes ``-w**2 * d/dw`` of the transported momentum.
    """
    if r.chart is INVERSION:
        num_c, num_e, den = r.rhs_num_const, r.rhs_num_energy, r.rhs_den
        rhs_shift = 0
        w_num, w_den, w_shift = r.weight_num, r.weight_den, 0
        u_num, u_den, u_shift = r.linear_num, r.linear_den, 0
    elif r.chart in (TRIG, HYPER):
        dn, dd = r.rhs_num_const.degree, r.rhs_den.degree
        dn = max(dn, r.rhs_num_energy.degree)
        num_c = _reversed_poly(r.rhs_num_const, dn)
        num_e = _reversed_poly(r.rhs_num_energy, dn)
        den = _reversed_poly(r.rhs_den, dd)
        rhs_shift = dd - dn
        wn, wd = r.weight_num.degree, r.weight_den.degree
        w_num = -1 * _reversed_poly(r.weight_num, wn)
        w_den = _reversed_poly(r.weight_den, wd)
        w_shift = 2 + wd - wn
        un, ud = r.linear_num.degree, r.linear_den.degree
        u_num = _reversed_poly(r.linear_num, un)
        u_den = _reversed_poly(r.linear_den, ud)
        u_shift = ud - un
    else:
        raise ValueError("infinity expansion needs the inversion, trig, or hyper chart")

    probe_r = _laurent_rational(num_c, den, rhs_shift, 4)
    probe_e = _laurent_rational(num_e, den, rhs_shift, 4)
    orders = [k for k, v in probe_r.items() if v != 0] + [k for k, v in probe_e.items() if v != 0]
    if not orders:
        raise MatchingFailure("right-hand side vanishes; nothing to match")
    m2 = min(orders)
    if m2 % 2 != 0:
        raise MatchingFailure(f"odd leading order {m2} on the right-hand side")
    m = m2 // 2

    hi = 2 * m + depth + 2
    r_c = _laurent_rational(num_c, den, rhs_shift, hi)
    r_e = _laurent_rational(num_e, den, rhs_shift, hi)
    r_coeffs = {k: _AffineE(r_c.get(k, 0j), r_e.get(k, 0j)) for k in set(r_c) | set(r_e)}
    w_coeffs = _laurent_rational(w_num, w_den, w_shift, hi + 2)
    u_coeffs = _laurent_rational(u_num, u_den, u_shift, hi + 2)
    return _LocalEquation(w_coeffs, u_coeffs, r_coeffs, m)


def default_matching_depth(r: RiccatiData) -> int:
    """Number of expansion coefficients to match: highest pole order plus 3."""
    eq = _localize_at_infinity(r, 1)
    pole_order = max(0, -2 * eq.leading_order)
    return pole_order + 3


def _match_local(eq: _LocalEquation, lead: complex, n_coeffs: int) -> dict[int, _AffineE]:
    """Solve q^2 + W q' + U q = R order by order from the leading power up."""
    m = eq.leading_order
    coeffs: dict[int, _AffineE] = {m: _AffineE(complex(lead))}
    lead2 = _AffineE(complex(lead)).times(_AffineE(complex(lead)))
    r2m = eq.r_coeffs.get(2 * m, _AFFINE_ZERO)
    resid = lead2 - r2m
    scale = max(1.0, abs(r2m.c))
    if abs(resid.c) > 1e-10 * scale or resid.e != 0:
        raise MatchingFailure(f"matching failure at order {2 * m}: leading quadratic off by {resid.c:.3e}")

    for new in range(m + 1, m + n_coeffs):
        s = new + m
        total = _AFFINE_ZERO
        for i in range(m, s - m + 1):
            j = s - i
            if j < m or i == new or j == new:
                continue
            total = total + coeffs[i].times(coeffs[j])
        for k, ck in coeffs.items():
            wk = eq.w_coeffs.get(s - k + 1)
            if wk and k != 0:
                total = total + ck.scaled(k * wk)
            uk = eq.u_coeffs.get(s - k)
            if uk:
                total = total + ck.scaled(uk)
        lin = 2.0 * lead + new * eq.w_coeffs.get(m + 1, 0j) + eq.u_coeffs.get(m, 0j)
        if lin == 0:
            raise MatchingFailure(f"matching failure at order {s}: resonant linear coefficient")
        rhs = eq.r_coeffs.get(s, _AFFINE_ZERO) - total
        coeffs[new] = rhs.over(lin)
    return coeffs


def infinity_branch_candidates(r: RiccatiData) -> tuple[BranchCandidate, BranchCandidate]:
    """The two admissible leading coefficients of the momentum at infinity."""
    eq = _localize_at_infinity(r, 1)
    r2m = eq.r_coeffs.get(2 * eq.leading_order, _AFFINE_ZERO)
    if r2m.e != 0:
        raise MatchingFailure("energy enters the leading matching order")
    root = cmath.sqrt(r2m.c)
    if root == 0:
        raise MatchingFailure("degenerate leading coefficient (vanishing top term)")
    return (
        BranchCandidate("+", root, "infinity"),
        BranchCandidate("-", -root, "infinity"),
    )


def infinity_expansion(
    r: RiccatiData,
    branch: BranchCandidate,
    depth: int | None = None,
    energy: float | None = None,
) -> LaurentSeries:
    """Laurent coefficients of the reduced momentum at the image of infinity.

    With ``energy=None`` the energy stays symbolic and the returned window is
    capped just below the first energy-dependent coefficient (everything the
    ledger consumes sits below that). Passing a concrete ``energy`` returns
    the full requested depth.

    The exponents are powers of the local variable: the inversion-chart
    variable y itself, or w = 1/t for the trig/hyper charts.
    """
    if depth is None:
        depth = default_matching_depth(r)
    eq = _localize_at_infinity(r, depth)
    pole_order = max(0, -2 * eq.leading_order)
    if depth < pole_order + 2:
        raise ValueError(f"depth must be at least {pole_order + 2} for this equation")
    coeffs = _match_local(eq, branch.leading_coefficient, depth)

    m = eq.leading_order
    hi = m + depth - 1
    if energy is not None:
        values = {k: v.c + v.e * energy for k, v in coeffs.items()}
        return LaurentSeries(values, m, hi)
    for k in sorted(coeffs):
        if coeffs[k].e != 0:
            hi = k - 1
            break
    values = {k: v.c for k, v in coeffs.items() if k <= hi}
    return LaurentSeries(values, m, hi)


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
    wden = r.weight_den(pole)
    if wden == 0:
        raise ValueError("derivative weight is singular at the requested pole")
    w0 = r.weight_num(pole) / wden
    u_res = 0j
    if abs(r.linear_den(pole)) <= 1e-12 * max(1.0, max(abs(c) for c in r.linear_den.coeffs)):
        dden = r.linear_den.derivative()(pole)
        if dden == 0:
            raise ValueError("linear weight has a higher-order pole at the requested point")
        u_res = r.linear_num(pole) / dden
    b = u_res - w0
    disc = cmath.sqrt(b * b + 4.0 * r2)
    return (
        BranchCandidate("+", (-b + disc) / 2.0, pole),
        BranchCandidate("-", (-b - disc) / 2.0, pole),
    )


def _implied_exponent(candidate: BranchCandidate, family: PotentialFamily) -> float:
    """Local wavefunction exponent in the physical variable implied by a residue."""
    z0 = candidate.location
    factor = 1.0
    if family_kind(family) == "hyperbolic" and z0 in (1 + 0j, -1 + 0j):
        # t = cosh x is quadratic around t = +-1, doubling the exponent.
        factor = 2.0
    lam = 1j * candidate.leading_coefficient * factor
    if abs(lam.imag) > 1e-9 * (1.0 + abs(lam)):
        raise BranchRuleError(f"residue {candidate.leading_coefficient} implies a non-real exponent")
    return lam.real


def select_physical_branch(
    pair: tuple[BranchCandidate, BranchCandidate],
    family: PotentialFamily,
    location: Union[str, complex],
) -> BranchCandidate:
    """Pick the square-integrable branch out of a candidate pair.

    At infinity the rule is decay of the implied gauge factor; for the
    trigonometric family, whose chart variable never reaches infinity on the
    physical interval, the branch is fixed instead by requiring the gauge
    slope -q1/2 that admits a terminating polynomial sector. At a fixed pole
    the candidate with the larger implied local exponent is kept (for a
    repulsive wall that is the one with psi -> 0; in the borderline attractive
    range it is the principal, limit-circle choice).
    """
    a, b = pair
    if location == "infinity":
        if a.location != "infinity" or b.location != "infinity":
            raise ValueError("candidates were not produced at infinity")
        kind = family_kind(family)
        if kind == "circular":
            target = 1j * family.q1
            da = abs(a.leading_coefficient - target) < 1e-9 * (1 + abs(target))
            db = abs(b.leading_coefficient - target) < 1e-9 * (1 + abs(target))
        else:
            da = (1j * a.leading_coefficient).real < 0
            db = (1j * b.leading_coefficient).real < 0
        if da == db:
            raise BranchRuleError("branch rule indeterminate: decay test does not split the pair")
        chosen, other = (a, b) if da else (b, a)
        return replace(chosen, decay_flag=True)

    z0 = complex(location)
    if a.location != z0 or b.location != z0:
        raise ValueError("candidates were not produced at the requested pole")
    ea = _implied_exponent(a, family)
    eb = _implied_exponent(b, family)
    if abs(ea - eb) <= 1e-12 * (1.0 + abs(ea) + abs(eb)):
        raise BranchRuleError("branch rule indeterminate: degenerate local exponents")
    chosen = a if ea > eb else b
    return replace(chosen, decay_flag=True)


_MOVING_WEIGHT = {"sextic": 1, "radial_sextic": 2, "circular": 1, "hyperbolic": 2}


def quantization_ledger(family: PotentialFamily, require_integer: bool = True) -> QuantizationLedger:
    """Assemble and balance the residue ledger; solve it for the QES condition.

    The infinity entry is ``i * measure * c1`` with c1 the first positive
    Laurent coefficient of the reduced momentum on the physical branch. Each
    fixed pole contributes ``i * measure * residue`` of its selected branch.
    What remains must be the moving-pole count: n for the sextic and
    trigonometric families, 2n for the mirror-symmetric radial and hyperbolic
    ones. For the sextic the balance constrains (alpha, beta, gamma); for the
    other three it returns M = n identically.
    """
    kind = family_kind(family)
    if kind in ("sextic", "radial_sextic"):
        r_inf = riccati_in_chart(family, INVERSION)
    elif kind == "circular":
        r_inf = riccati_in_chart(family, TRIG)
    else:
        r_inf = riccati_in_chart(family, HYPER)

    pair = infinity_branch_candidates(r_inf)
    sel = select_physical_branch(pair, family, "infinity")
    ser = infinity_expansion(r_inf, sel)
    c1 = ser.coefficient(1)
    j_value = 1j * r_inf.chart.measure * c1
    if abs(j_value.imag) > 1e-10 * (1.0 + abs(j_value)):
        raise MatchingFailure(f"large-contour value is not real: {j_value}")

    entries = [
        LedgerEntry(
            "infinity",
            j_value,
            f"i * {r_inf.chart.measure:g} * c1 with branch {sel.label} (leading {sel.leading_coefficient:.6g})",
        )
    ]

    if kind == "radial_sextic":
        fp_sources = [(riccati_in_chart(family, IDENTITY), 0j)]
    elif kind in ("circular", "hyperbolic"):
        fp_sources = [(r_inf, z0) for z0 in r_inf.fixed_poles]
    else:
        fp_sources = []

    fixed_total = 0j
    fixed_residues = []
    for rdata, z0 in fp_sources:
        fpair = fixed_pole_residues(rdata, z0)
        fsel = select_physical_branch(fpair, family, z0)
        contrib = 1j * rdata.chart.measure * fsel.leading_coefficient
        fixed_total += contrib
        fixed_residues.append((z0, fsel.leading_coefficient))
        entries.append(
            LedgerEntry(
                f"fixed pole at {rdata.chart.variable} = {z0.real:g}",
                contrib,
                f"i * {rdata.chart.measure:g} * residue, residue {fsel.leading_coefficient:.6g}",
            )
        )

    per_n = _MOVING_WEIGHT[kind]
    moving = j_value - fixed_total
    if abs(moving.imag) > 1e-10 * (1.0 + abs(moving)):
        raise MatchingFailure(f"moving-pole total is not real: {moving}")
    moving_total = moving.real
    n_value = moving_total / per_n
    n_int = int(round(n_value))
    is_integer = abs(n_value - n_int) <= 1e-9 and n_int >= 0

    if kind == "sextic":
        solved = {
            "lhs_value": 2.0 * j_value.real + 3.0,
            "rhs_form": "3+2n",
            "n_value": n_value,
        }
        if require_integer and not is_integer:
            raise NonQESError(
                f"non-QES parameterization: condition value {solved['lhs_value']:.12g} "
                f"is not 3 + 2n for a nonnegative integer n"
            )
    else:
        solved = {"lhs_value": n_value, "rhs_form": "M=n", "n_value": n_value}
        if not is_integer or n_int != family.M:
            raise NonQESError(
                f"non-QES parameterization: ledger count {n_value!r} does not equal M={family.M}"
            )

    n_out = n_int if is_integer else None
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
        per_n_weight=per_n,
        balance_residual=balance,
        infinity_branches=pair,
        selected_branch=sel.label,
        measure=r_inf.chart.measure,
        infinity_series=ser,
        fixed_residues=tuple(fixed_residues),
    )


def qes_parameterize(template: str, n: int, **params) -> PotentialFamily:
    """Construct a family instance that satisfies its QES condition exactly.

    ``template`` is one of ``sextic`` (free params a > 0 and b, giving
    gamma = a^2, beta = 2ab, alpha = b^2 - a(3 + 2n)), ``radial_sextic``
    (S, a, b), ``circular`` (S1, S2, q1), or ``hyperbolic`` (S1, S2, q1);
    the last three simply set M = n.
    """
    if n < 0 or n != int(n):
        raise ValueError("n must be a nonnegative integer")
    n = int(n)
    if template == "sextic":
        a = float(params.pop("a"))
        b = float(params.pop("b", 0.0))
        if params:
            raise ValueError(f"unknown parameters for sextic: {sorted(params)}")
        if a <= 0:
            raise ValueError("sextic parameterization requires a > 0")
        return Sextic(alpha=b * b - a * (3.0 + 2.0 * n), beta=2.0 * a * b, gamma=a * a)
    if template == "radial_sextic":
        return RadialSextic(S=float(params.pop("S")), a=float(params.pop("a")),
                            b=float(params.pop("b", 0.0)), M=n)
    if template == "circular":
        return Circular(S1=float(params.pop("S1")), S2=float(params.pop("S2")),
                        q1=float(params.pop("q1")), M=n)
    if template == "hyperbolic":
        return Hyperbolic(S1=float(params.pop("S1")), S2=float(params.pop("S2")),
                          q1=float(params.pop("q1")), M=n)
    raise ValueError(f"unknown family template: {template!r}")
