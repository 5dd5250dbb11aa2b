import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from qhjqes import engine
from qhjqes.engine import (
    BranchRuleError,
    MatchingFailure,
    fixed_pole_residues,
    quantization_ledger,
    riccati_in_chart,
    select_physical_branch,
)
from qhjqes.families import HYPER, IDENTITY, TRIG, Circular, Hyperbolic, NonQESError, RadialSextic, Sextic
from qhjqes.series import Polynomial
from test_families import ReflectedCircular


def _sextic(alpha=-7.0, beta=0.0, gamma=1.0):
    return Sextic(alpha, beta, gamma)


def _with_energy(r, energy):
    """The Riccati data with the number ``energy`` folded into R's E-free numerator."""
    num = np.polynomial.polynomial.polyadd(r.rhs_num_const.coeffs, (energy * r.rhs_num_energy).coeffs)
    return dataclasses.replace(r, rhs_num_const=Polynomial(num))


# ------------------------------------------------------------ chart data


def test_sextic_identity_rhs():
    r = riccati_in_chart(_sextic(-2.0, 3.0, 4.0))
    # E - alpha x^2 - beta x^4 - gamma x^6 over 1
    assert r.rhs_den.coeffs == (1 + 0j,)
    assert r.rhs_num_const.coeffs == (0j, 0j, 2 + 0j, 0j, -3 + 0j, 0j, -4 + 0j)
    assert r.rhs_num_energy.coeffs == (1 + 0j,)
    assert r.fixed_poles == ()
    for chart in (IDENTITY, TRIG, HYPER):
        w, _, _ = chart.riccati_weights()
        assert w.coeffs == (-1j / chart.measure,)


def test_radial_identity_rhs():
    fam = RadialSextic(S=1.0, a=2.0, b=3.0, M=1)
    r = riccati_in_chart(fam)
    # E - g/x^2 - c2 x^2 - 2ab x^4 - a^2 x^6 over x^2
    num = r.rhs_num_const.coeffs
    assert num[0] == -fam.g
    assert num[4] == -fam.c2
    assert num[6] == -2 * fam.a * fam.b
    assert num[8] == -fam.a**2
    assert r.fixed_poles == (0j,)


def test_circular_rhs_pole_structure():
    fam = Circular(S1=1.0, S2=1.5, q1=1.0, M=1)
    r = riccati_in_chart(fam)
    # denominator t^2 (1-t)^2: double poles at t = 0 and t = 1
    den = r.rhs_den
    assert abs(den(0)) == 0 and abs(den.derivative()(0)) == 0
    assert abs(den(1)) < 1e-14 and abs(den.derivative()(1)) < 1e-14
    assert abs(den.derivative().derivative()(0)) > 0
    # the t = 0 double-pole coefficient is -A
    assert abs(r.rhs_num_const(0) - (-fam.A)) < 1e-14


@pytest.mark.parametrize("chart", [IDENTITY, TRIG, HYPER], ids=["identity", "trig", "hyper"])
def test_chart_q_matches_coordinates(chart):
    # Q(z(x)) = z'(x)^2 and z''(x) = Q'(z(x))/2 tie the evaluator's map to the Riccati data.
    x = np.concatenate([np.linspace(-2.3, 2.3, 17), np.array([0.4 + 0.3j, -1.1 + 0.7j, 2.0 - 0.5j])])
    z, dz, d2z = chart.coordinates(x)
    dq = chart.Q.derivative()
    for got, want in ((chart.Q(z), dz**2), (dq(z) / 2.0, d2z)):
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


# ------------------------------------------------------- infinity matching


def test_leading_candidates_for_gamma_4():
    pair = quantization_ledger(Sextic(-1.0, 0.0, 4.0), require_integer=False).infinity_branches
    leads = sorted((c.leading_coefficient for c in pair), key=lambda z: z.imag)
    assert abs(leads[0] + 2j) < 1e-14
    assert abs(leads[1] - 2j) < 1e-14


def test_second_coefficient_vanishes():
    rng = np.random.default_rng(5)
    for _ in range(10):
        fam = Sextic(*rng.uniform(-3, 3, 2), rng.uniform(0.2, 5))
        ser = quantization_ledger(fam, require_integer=False).infinity_series
        assert ser.coefficient(-2) == 0


def test_subleading_solves_linear_relation():
    # gamma = 1, beta = 2 on the +i branch, which decays: b1 = -beta / (2 b3) = i
    led = quantization_ledger(Sextic(-5.0, 2.0, 1.0), require_integer=False)
    plus = led.infinity_branches[0]
    assert plus.leading_coefficient == 1j and led.selected_branch == plus.label
    assert abs(led.infinity_series.coefficient(-1) - 1j) < 1e-14


def test_energy_stays_out_of_ledger_coefficients():
    r = riccati_in_chart(_sextic())
    led = quantization_ledger(_sextic())
    branch = next(c for c in led.infinity_branches if c.label == led.selected_branch)
    symbolic = led.infinity_series
    for energy in (0.0, 5.0, -17.0):
        concrete = engine._expansion(engine._localize_at_infinity(_with_energy(r, energy)), branch)
        assert (concrete.lo, concrete.hi) == (symbolic.lo, symbolic.hi)
        for k in range(symbolic.lo, symbolic.hi + 1):
            assert abs(symbolic.coefficient(k) - concrete.coefficient(k)) < 1e-14


@pytest.mark.parametrize(
    "fam,hi",
    [
        (_sextic(), 2),
        (Sextic(-4.0, 2.0, 1.0), 2),
        (RadialSextic(S=1.25, a=1.0, b=0.5, M=2), 2),
        (Circular(S1=1.1, S2=0.9, q1=1.4, M=1), 1),
        (Hyperbolic(S1=1.1, S2=0.9, q1=1.4, M=1), 2),
        (ReflectedCircular(Circular(1.1, 0.9, 1.4, 1)), 1),
    ],
    ids=["readme_sextic", "sextic", "radial_sextic", "circular", "hyperbolic", "reflected_circular"],
)
def test_energy_enters_above_ledger_window(fam, hi):
    # the window's end comes from degrees alone; two concrete energies must
    # first disagree on the coefficient just above it, on both branches
    r = riccati_in_chart(fam)
    eq = engine._localize_at_infinity(r)
    led = quantization_ledger(fam, require_integer=False)
    assert led.infinity_series.hi == hi
    for branch in led.infinity_branches:
        assert engine._expansion(eq, branch).hi == hi
        low, high = (
            engine._expansion(
                dataclasses.replace(engine._localize_at_infinity(_with_energy(r, e)), energy_order=eq.energy_order + 1),
                branch,
            )
            for e in (0.0, 10.0)
        )
        assert low.hi == high.hi == hi + 1
        gap = [abs(low.coefficient(k) - high.coefficient(k)) for k in range(low.lo, hi + 2)]
        assert max(gap[:-1]) <= 1e-12 and gap[-1] > 1e-6


def test_energy_in_the_leading_order_is_a_matching_failure():
    # bounded V = z^2/(1 + z^2) on the identity chart: R -> E - 1 at infinity,
    # so E already sits in the quadratic for the leading coefficient
    fam = SimpleNamespace(chart=IDENTITY, potential_in_chart=((0, 0, 1), (1, 0, 1)), singular_points=())
    with pytest.raises(MatchingFailure, match="energy enters the leading matching order"):
        quantization_ledger(fam, require_integer=False)


# ------------------------------------------------------ branch selection


def test_sextic_selects_decaying_branch():
    rng = np.random.default_rng(9)
    for gamma in rng.uniform(0.2, 9, 6):
        fam = Sextic(-1.0, 0.0, float(gamma))
        led = quantization_ledger(fam, require_integer=False)
        pair = led.infinity_branches
        sel = select_physical_branch(pair, fam)
        assert sel.label == led.selected_branch
        assert abs(sel.leading_coefficient - 1j * math.sqrt(gamma)) < 1e-12
        rejected = [c for c in pair if c.label != sel.label][0]
        assert (1j * rejected.leading_coefficient).real > 0  # growth


def test_radial_fixed_pole_pair_and_selection():
    fam = RadialSextic(S=1.0, a=1.0, b=0.0, M=0)
    r = riccati_in_chart(fam)
    pair = fixed_pole_residues(r, 0)
    leads = sorted((c.leading_coefficient for c in pair), key=lambda z: z.imag)
    assert abs(leads[0] - (-1.5j)) < 1e-14
    assert abs(leads[1] - 0.5j) < 1e-14
    sel = select_physical_branch(pair, fam)
    assert abs(sel.leading_coefficient - (-1.5j)) < 1e-14


def test_radial_pair_formula_generic_s():
    rng = np.random.default_rng(13)
    for s_val in rng.uniform(0.8, 3.0, 8):
        fam = RadialSextic(S=float(s_val), a=1.0, b=0.0, M=0)
        r = riccati_in_chart(fam)
        got = sorted(
            (c.leading_coefficient for c in fixed_pole_residues(r, 0)),
            key=lambda z: z.imag,
        )
        assert abs(got[1] - 0.5j * (4 * s_val - 3)) < 1e-12
        assert abs(got[0] + 0.5j * (4 * s_val - 1)) < 1e-12
        # Vieta on r^2 + i r + g = 0
        assert abs(got[0] + got[1] + 1j) < 1e-12
        assert abs(got[0] * got[1] - fam.g) < 1e-12 * (1 + abs(fam.g))


def test_circular_origin_residues_match_indicial_exponents():
    fam = Circular(S1=1.0, S2=1.3, q1=1.0, M=1)
    r = riccati_in_chart(fam)
    pair = fixed_pole_residues(r, 0)
    sel = select_physical_branch(pair, fam)
    # selected residue -i(2 S1 - 1/2); exponent lam = i*residue solves lam(lam-1) = A
    assert abs(sel.leading_coefficient - (-1j * (2 * fam.S1 - 0.5))) < 1e-12
    for cand in pair:
        lam = 1j * cand.leading_coefficient
        assert abs(lam * (lam - 1) - fam.A) < 1e-12


def test_degenerate_exponents_rejected():
    # A = -1/4 makes both indicial exponents coincide
    fam = Circular(S1=0.5 + 1e-14, S2=1.0, q1=1.0, M=0)
    r = riccati_in_chart(fam)
    pair = fixed_pole_residues(r, 0)
    with pytest.raises(BranchRuleError, match="indeterminate"):
        select_physical_branch(pair, fam)


def test_branch_rule_takes_a_pair_from_one_place():
    # the rule reads its location off the candidates, so they must agree on it
    fam = RadialSextic(S=1.0, a=1.0, b=0.0, M=0)
    r = riccati_in_chart(fam)
    at_infinity, at_origin = quantization_ledger(fam).infinity_branches[0], fixed_pole_residues(r, 0)[0]
    for mixed in ((at_infinity, at_origin), (at_origin, at_infinity)):
        with pytest.raises(ValueError, match="candidates were produced at two locations"):
            select_physical_branch(mixed, fam)


# ---------------------------------------------------------------- ledgers


def test_sextic_ledger_example():
    led = quantization_ledger(_sextic())
    assert led.n == 2
    assert abs(led.solved_condition["lhs_value"] - 7.0) < 1e-12
    assert led.solved_condition["rhs_form"] == "3+2n"
    assert led.balance_residual < 1e-10


def test_sextic_ledger_matches_closed_form_on_random_draws():
    rng = np.random.default_rng(17)
    for _ in range(25):
        fam = Sextic(rng.uniform(-10, 10), rng.uniform(-5, 5), rng.uniform(0.1, 10))
        led = quantization_ledger(fam, require_integer=False)
        lhs = led.solved_condition["lhs_value"]
        assert abs(lhs - fam.condition_value) <= 1e-10 * max(1.0, abs(fam.condition_value))


def test_radial_ledger_itemization():
    led = quantization_ledger(RadialSextic(S=1.0, a=1.0, b=0.5, M=3))
    assert led.n == 3
    assert led.solved_condition["rhs_form"] == "M=n"
    by_source = {e.source: e.value for e in led.entries}
    assert abs(by_source["infinity"] - 7.5) < 1e-12  # 2S + 2M - 1/2
    assert abs(by_source["fixed pole at x = 0"] - 1.5) < 1e-12  # 2S - 1/2
    assert abs(by_source["moving poles"] - 6.0) < 1e-12  # 2n
    assert "-1.5" in [e for e in led.entries if "fixed" in e.source][0].detail


def test_chart_family_ledgers_close_on_m():
    rng = np.random.default_rng(19)
    for _ in range(10):
        m_val = int(rng.integers(0, 5))
        circ = Circular(
            S1=float(rng.uniform(0.6, 2.0)),
            S2=float(rng.uniform(0.6, 2.0)),
            q1=float(rng.uniform(0.3, 2.5)) * (1 if rng.random() < 0.5 else -1),
            M=m_val,
        )
        hyp = Hyperbolic(
            S1=float(rng.uniform(0.6, 2.0)),
            S2=float(rng.uniform(0.6, 2.0)),
            q1=float(rng.uniform(0.3, 2.5)),
            M=m_val,
        )
        for fam in (circ, hyp):
            led = quantization_ledger(fam)
            assert led.n == m_val
            assert led.balance_residual < 1e-10


def test_ledger_balances_on_solvable_sextic_draws():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(0, 7))
        fam = Sextic.on_condition(float(rng.uniform(0.3, 3.0)), float(rng.uniform(-2.0, 2.0)), n)
        led = quantization_ledger(fam)
        assert led.n == n
        assert led.balance_residual < 1e-10


# Literal ledgers, one per family: a change of chart or of the transport to
# infinity must leave every entry, series coefficient and residue as it is.
_PINNED_LEDGERS = [
    (
        Sextic(-4.0, 2.0, 1.0),
        "(LedgerEntry(source='infinity', value=(1+0j), detail='i * 1 * c1 with branch + (leading 0+1j)'), "
        "LedgerEntry(source='moving poles', value=(1+0j), detail='n poles, one unit each'))",
        "{-3: 1j, -1: 1j, 1: -1j}", -3, 2,
        "()",
    ),
    (
        RadialSextic(S=1.25, a=1.0, b=0.5, M=2),
        "(LedgerEntry(source='infinity', value=(6+0j), detail='i * 1 * c1 with branch + (leading 0+1j)'), "
        "LedgerEntry(source='fixed pole at x = 0', value=(2-0j), detail='i * 1 * residue, residue -0-2j'), "
        "LedgerEntry(source='moving poles', value=(4+0j), detail='2 poles per quantum number n'))",
        "{-3: 1j, -1: 0.5j, 1: -6j}", -3, 2,
        "((0j, (-0-2j)),)",
    ),
    (
        Circular(S1=1.1, S2=0.9, q1=1.4, M=1),
        "(LedgerEntry(source='infinity', value=(2.5+0j), detail='i * 0.5 * c1 with branch + (leading 0+1.4j)'), "
        "LedgerEntry(source='fixed pole at t = 0', value=(0.8500000000000001-0j), "
        "detail='i * 0.5 * residue, residue -0-1.7j'), "
        "LedgerEntry(source='fixed pole at t = 1', value=(0.65+0j), detail='i * 0.5 * residue, residue 0-1.3j'), "
        "LedgerEntry(source='moving poles', value=(1+0j), detail='n poles, one unit each'))",
        "{0: 1.4j, 1: -5j}", 0, 1,
        "((0j, (-0-1.7000000000000002j)), ((1+0j), -1.3j))",
    ),
    (
        Hyperbolic(S1=1.1, S2=0.9, q1=1.4, M=1),
        "(LedgerEntry(source='infinity', value=(5+0j), detail='i * 1 * c1 with branch + (leading 0+1.4j)'), "
        "LedgerEntry(source='fixed pole at t = 0', value=(1.7000000000000002-0j), "
        "detail='i * 1 * residue, residue -0-1.7j'), "
        "LedgerEntry(source='fixed pole at t = 1', value=(0.65-0j), detail='i * 1 * residue, residue -0-0.65j'), "
        "LedgerEntry(source='fixed pole at t = -1', value=(0.65-0j), detail='i * 1 * residue, residue -0-0.65j'), "
        "LedgerEntry(source='moving poles', value=(2+0j), detail='2 poles per quantum number n'))",
        "{-1: 1.4j, 1: -5j}", -1, 2,
        "((0j, (-0-1.7000000000000002j)), ((1+0j), (-0-0.65j)), ((-1+0j), (-0-0.65j)))",
    ),
]


@pytest.mark.parametrize("fam,entries,coeffs,lo,hi,fixed", _PINNED_LEDGERS,
                         ids=["sextic", "radial_sextic", "circular", "hyperbolic"])
def test_ledger_is_pinned(fam, entries, coeffs, lo, hi, fixed):
    led = quantization_ledger(fam)
    assert repr(led.entries) == entries
    assert repr(led.infinity_series.coeffs) == coeffs
    assert (led.infinity_series.lo, led.infinity_series.hi) == (lo, hi)
    assert repr(led.fixed_residues) == fixed


@pytest.mark.parametrize("fam", [row[0] for row in _PINNED_LEDGERS], ids=["sextic", "radial_sextic", "circular", "hyperbolic"])
def test_ledger_repr_holds_no_address(fam):
    # the chart's coordinate map stays out of the repr, so a ledger reads the same in every process
    assert "0x" not in repr(quantization_ledger(fam))


# Both candidates of every residue quadratic, by repr (signed zeros included):
# U = W Q'/(2Q) feeds the linear term of each fixed-pole quadratic, so the way
# W and U are formed must leave these as they are. The last field is the
# ledger those candidates lead to, by repr: the infinity series (sorted
# coefficients, lo, hi), the entry values and the fixed residues.
_PINNED_CANDIDATES = [
    (
        Sextic(-4.0, 2.0, 1.0),
        "(1j, (-0-1j))",
        "()",
        "(([(-3, 1j), (-1, 1j), (1, -1j)], -3, 2), ((1+0j), (1+0j)), ())",
    ),
    (
        RadialSextic(S=1.25, a=1.0, b=0.5, M=2),
        "(1j, (-0-1j))",
        "((1j, (-0-2j)),)",
        "(([(-3, 1j), (-1, 0.5j), (1, -6j)], -3, 2), ((6+0j), (2-0j), (4+0j)), ((0j, (-0-2j)),))",
    ),
    (
        Circular(S1=1.1, S2=0.9, q1=1.4, M=1),
        "(1.4j, (-0-1.4j))",
        "((0.7000000000000002j, (-0-1.7000000000000002j)), (0.30000000000000004j, -1.3j))",
        "(([(0, 1.4j), (1, -5j)], 0, 1), ((2.5+0j), (0.8500000000000001-0j), (0.65+0j), (1+0j)), "
        "((0j, (-0-1.7000000000000002j)), ((1+0j), -1.3j)))",
    ),
    (
        Hyperbolic(S1=1.1, S2=0.9, q1=1.4, M=1),
        "(1.4j, (-0-1.4j))",
        "((0.7000000000000002j, (-0-1.7000000000000002j)), (0.15000000000000002j, (-0-0.65j)), "
        "(0.15000000000000002j, (-0-0.65j)))",
        "(([(-1, 1.4j), (1, -5j)], -1, 2), ((5+0j), (1.7000000000000002-0j), (0.65-0j), (0.65-0j), (2+0j)), "
        "((0j, (-0-1.7000000000000002j)), ((1+0j), (-0-0.65j)), ((-1+0j), (-0-0.65j))))",
    ),
]


@pytest.mark.parametrize("fam,infinity,fixed,ledger", _PINNED_CANDIDATES,
                         ids=["sextic", "radial_sextic", "circular", "hyperbolic"])
def test_candidates_are_pinned(fam, infinity, fixed, ledger):
    r = riccati_in_chart(fam)
    led = quantization_ledger(fam)
    assert repr(tuple(c.leading_coefficient for c in led.infinity_branches)) == infinity
    pairs = tuple(tuple(c.leading_coefficient for c in fixed_pole_residues(r, z0)) for z0 in r.fixed_poles)
    assert repr(pairs) == fixed
    ser = led.infinity_series
    assert repr(((sorted(ser.coeffs.items()), ser.lo, ser.hi), tuple(e.value for e in led.entries),
                 led.fixed_residues)) == ledger


@pytest.mark.parametrize("fam", [row[0] for row in _PINNED_CANDIDATES],
                         ids=["sextic", "radial_sextic", "circular", "hyperbolic"])
def test_ledger_localizes_at_infinity_once(fam, monkeypatch):
    calls = []
    localize = engine._localize_at_infinity
    monkeypatch.setattr(engine, "_localize_at_infinity", lambda *a, **k: calls.append(a) or localize(*a, **k))
    quantization_ledger(fam)
    assert len(calls) == 1


def test_non_qes_sextic_rejected():
    with pytest.raises(NonQESError, match="not 3 \\+ 2n"):
        quantization_ledger(Sextic(-4.0, 0.0, 1.0))


def test_scale_invariance_of_condition_value():
    rng = np.random.default_rng(29)
    fam = Sextic(-4.4, 1.3, 2.2)
    base = quantization_ledger(fam, require_integer=False).solved_condition["lhs_value"]
    for lam in rng.uniform(0.5, 2.0, 8):
        scaled = Sextic(fam.alpha / lam**4, fam.beta / lam**6, fam.gamma / lam**8)
        val = quantization_ledger(scaled, require_integer=False).solved_condition["lhs_value"]
        assert abs(val - base) <= 1e-12 * max(1.0, abs(base))


# ---------------------------------------------------------- parameterize


def test_parameterize_sextic_examples():
    fam = Sextic.on_condition(1.0, 0.0, 0)
    assert (fam.alpha, fam.beta, fam.gamma) == (-3.0, 0.0, 1.0)
    fam2 = Sextic.on_condition(1.0, 0.0, 2)
    assert fam2.alpha == -7.0


def test_parameterize_round_trips_through_ledger():
    fam = RadialSextic(S=1.2, a=0.7, b=-0.3, M=4)
    assert fam.M == 4
    assert quantization_ledger(fam).n == 4
    circ = Circular(S1=1.0, S2=1.0, q1=0.9, M=3)
    assert quantization_ledger(circ).n == 3


def test_parameterize_rejects_bad_input():
    with pytest.raises(ValueError):
        Sextic.on_condition(1.0, 0.0, -1)
    with pytest.raises(ValueError):
        Sextic.on_condition(-1.0, 0.0, 1)
    with pytest.raises(ValueError, match="n must be"):
        Sextic.on_condition(1.0, 0.0, True)
    with pytest.raises(ValueError, match="n must be"):
        Sextic.on_condition(1.0, 0.0, 2.0)
