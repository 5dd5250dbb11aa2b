"""A family is data: its chart, its potential in the chart and its interval fix everything the pipeline does with it."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from qhjqes import engine
from qhjqes.engine import BranchRuleError, quantization_ledger, riccati_in_chart, select_physical_branch
from qhjqes.families import TRIG, ChartSpec, Circular, Hyperbolic, PotentialFamily, RadialSextic, Sextic, family_kind
from qhjqes.oracle import refine
from qhjqes.spectra import algebraic_states, gauge_from_residues, schrodinger_residual


def _cos2_coordinates(x):
    return np.cos(x) ** 2, -np.sin(2 * x), -2 * np.cos(2 * x)


@dataclass(frozen=True)
class ReflectedCircular(PotentialFamily):
    """Circular's potential reflected by x -> pi/2 - x, on the chart t = cos^2 x.

    V(x) = A/cos^2 x + B/sin^2 x + C cos^2 x - D cos^4 x is Circular's V in
    t, with the same Q = 4t(1 - t) and measure. It declares only its chart,
    the potential in the chart, its singular points, its interval and the
    ledger's closed forms; V(x) and the walls are derived, and the library
    does not know the class. Its one field is the Circular instance whose
    data it shares, so it has no parameter of its own that the library could read.
    """

    circular: Circular

    chart = ChartSpec("t", TRIG.measure, TRIG.Q, TRIG.reduced_power, _cos2_coordinates)
    interval = Circular.interval
    singular_points = Circular.singular_points
    moving_weight = Circular.moving_weight

    potential_in_chart = property(lambda self: self.circular.potential_in_chart)
    ledger_check = property(lambda self: self.circular.ledger_check)

    def solve_ledger(self, *args):
        return self.circular.solve_ledger(*args)


def _closed_form_potential(family, x):
    """V(x) transcribed by hand, independently of ``potential_in_chart``."""
    if isinstance(family, Sextic):
        return family.alpha * x**2 + family.beta * x**4 + family.gamma * x**6
    if isinstance(family, RadialSextic):
        return family.g / x**2 + family.c2 * x**2 + 2.0 * family.a * family.b * x**4 + family.a**2 * x**6
    if isinstance(family, Hyperbolic):
        ch2, sh2 = np.cosh(x) ** 2, np.sinh(x) ** 2
        return -family.A / ch2 + family.B / sh2 - family.C * ch2 + family.D * ch2 * ch2
    circular = family if isinstance(family, Circular) else family.circular
    s2, c2 = np.sin(x) ** 2, np.cos(x) ** 2
    if isinstance(family, ReflectedCircular):
        s2, c2 = c2, s2
    return circular.A / s2 + circular.B / c2 + circular.C * s2 - circular.D * s2 * s2


_FAMILIES = [
    Sextic(-7.0, 0.0, 1.0),
    Sextic(-3.3, 1.7, 2.2),
    RadialSextic(S=1.25, a=1.0, b=0.5, M=2),
    RadialSextic(S=0.8, a=2.3, b=-1.1, M=5),
    Circular(S1=1.1, S2=0.9, q1=1.4, M=1),
    Circular(S1=0.62, S2=1.7, q1=-2.3, M=6),
    Hyperbolic(S1=1.1, S2=0.9, q1=1.4, M=1),
    Hyperbolic(S1=0.7, S2=1.6, q1=0.4, M=4),
    ReflectedCircular(Circular(S1=1.0, S2=1.3, q1=-1.5, M=3)),
]
_IDS = [f"{type(f).__name__}-{i}" for i, f in enumerate(_FAMILIES)]


@pytest.mark.parametrize("family", _FAMILIES, ids=_IDS)
def test_potential_in_chart_is_the_potential(family):
    # V(x), derived from the potential in the chart, is the closed form over the family's own interval
    lo, hi = (min(max(end, -3.0), 3.0) for end in family.interval)
    xs = np.linspace(lo, hi, 402)[1:-1]
    v = _closed_form_potential(family, xs)
    assert np.all(np.abs(family.potential(xs) - v) <= 1e-10 * (1.0 + np.abs(v)))
    # and stays so at 1e-6 from a wall, where num/den would compute 1 - sin^2 x or cosh x - 1
    for end, inward in zip(family.interval, (1e-6, -1e-6)):
        if math.isfinite(end):
            v = _closed_form_potential(family, end + inward)
            assert abs(family.potential(end + inward) - v) <= 1e-12 * abs(v)


def test_walls_are_derived_from_the_chart_and_the_interval():
    # each wall's position, its image z0 in the chart and the exponent e of psi ~ |z - z0|^e are the closed forms:
    # x^(2S - 1/2) at the radial wall; on the trigonometric chart sin^(2 S1 - 1/2) x = t^(S1 - 1/4) and
    # cos^(2 S2 - 1/2) x = (1 - t)^(S2 - 1/4); on the hyperbolic one sinh^(2 S2 - 1/2) x ~ (t - 1)^(S2 - 1/4)
    def expected(family):
        if isinstance(family, RadialSextic):
            return [(0.0, 0.0, 2.0 * family.S - 0.5)]
        if isinstance(family, Circular):
            return [(0.0, 0.0, family.S1 - 0.25), (math.pi / 2, 1.0, family.S2 - 0.25)]
        if isinstance(family, Hyperbolic):
            return [(0.0, 1.0, family.S2 - 0.25)]
        if isinstance(family, ReflectedCircular):
            return [(0.0, 1.0, family.circular.S2 - 0.25), (math.pi / 2, 0.0, family.circular.S1 - 0.25)]
        return []

    for family in _FAMILIES:
        assert [w[:2] for w in family.walls] == [w[:2] for w in expected(family)]
        for (_, _, e), (_, _, target) in zip(family.walls, expected(family)):
            assert abs(e - target) <= 1e-12 * target
        if family.walls:
            # V alone gives the exponents that the ledger's fixed-pole residues give the gauge
            prefactors = dict(gauge_from_residues(family).prefactors)
            for _, z0, e in family.walls:
                assert abs(prefactors[z0] - e) <= 1e-12 * e


@pytest.mark.parametrize("family", _FAMILIES, ids=_IDS)
def test_singular_points_are_the_zeros_of_the_denominator(family):
    # declared, not derived: deriving them would add a root solve to every ledger
    zeros = {complex(z) for z in np.roots(family.potential_in_chart[1][::-1])}
    assert tuple(sorted(zeros, key=lambda z: (abs(z), -z.real))) == family.singular_points


@pytest.mark.parametrize("m_count,q1", [(0, 1.2), (1, -0.7), (2, 2.5), (3, -1.5), (4, 0.9)])
def test_a_family_defined_as_data_runs_through_the_pipeline(m_count, q1):
    s1, s2 = 1.0, 1.3
    family = ReflectedCircular(Circular(s1, s2, q1, m_count))
    with pytest.raises(TypeError):
        family_kind(family)  # the library cannot be dispatching on the class
    ledger = quantization_ledger(family)
    assert ledger.n == m_count and ledger.balance_residual < 1e-10
    states = algebraic_states(family)
    energies = [s.energy for s in states]
    # the same Riccati data in t as Circular's, so the same recursion bit for bit
    assert energies == [s.energy for s in algebraic_states(Circular(s1, s2, q1, m_count))]
    dual = Circular(s2, s1, -q1, m_count)
    shift = family.circular.C - family.circular.D
    shifted = [s.energy + shift for s in algebraic_states(dual)]
    scale = max(abs(e) for e in energies)
    assert max(abs(a - b) for a, b in zip(energies, shifted)) <= 1e-13 * scale
    for s in states:
        assert schrodinger_residual(s) < 1e-9, s.index


def test_a_family_defined_as_data_meets_the_oracle():
    family = ReflectedCircular(Circular(S1=1.0, S2=1.3, q1=-1.5, M=2))
    states = algebraic_states(family)
    spec = refine(family, k=2 * len(states) + 4, tol=5e-5, domain=states[0].gauge.window)
    for s in states:
        j = min(range(len(spec.energies)), key=lambda i: abs(spec.energies[i] - s.energy))
        assert abs(spec.energies[j] - s.energy) <= spec.error_estimates[j] <= 5e-5


def test_window_is_read_from_the_walls_and_the_gauge():
    # an end on a wall stays on it; an open end is where the gauge's envelope has fallen e^-36 below its peak
    for family in (Circular(S1=1.1, S2=0.9, q1=1.4, M=1), ReflectedCircular(Circular(S1=1.0, S2=1.3, q1=-1.5, M=3))):
        assert gauge_from_residues(family).window == (0.0, math.pi / 2)
    for family in (RadialSextic(S=1.25, a=1.0, b=0.5, M=2), Hyperbolic(S1=1.1, S2=0.9, q1=1.4, M=1)):
        lo, hi = gauge_from_residues(family).window
        assert lo == 0.0 and hi > 1.0
    lo, hi = gauge_from_residues(Sextic.on_condition(1.0, 0.5, 2)).window
    assert lo == -hi and hi > 1.0
    # the wells of exp(-x^4/4 + 50 x^2) sit at |x| = 10
    lo, hi = gauge_from_residues(Sextic.on_condition(1.0, -100.0, 0)).window
    assert lo == -hi and hi > 10.0


def _spectrum(family) -> np.ndarray:
    # energies only: the duality is a statement about energies, not about the eigenvectors
    return np.array([s.energy for s in algebraic_states(family)])


def test_q1_duality_of_the_circular_family():
    # x -> pi/2 - x maps Circular(S1, S2, q1) onto Circular(S2, S1, -q1) plus the constant C - D
    rng = np.random.default_rng(41)
    for _ in range(120):
        m_count = int(rng.integers(0, 11))
        s1, s2 = (float(s) for s in rng.uniform(0.55, 2.5, 2))
        q1 = float(rng.uniform(0.1, 4.0)) * (1 if rng.random() < 0.5 else -1)
        family = Circular(s1, s2, q1, m_count)
        energies = _spectrum(family)
        dual = _spectrum(Circular(s2, s1, -q1, m_count)) + family.C - family.D
        assert np.max(np.abs(energies - dual)) <= 1e-13 * np.max(np.abs(energies)), (s1, s2, q1, m_count)


def test_hyperbolic_spectrum_is_the_circular_one_negated():
    # x -> pi/2 + ix maps H_circular to -H_hyperbolic at the same (S1, S2, q1, M); nothing negates by hand
    rng = np.random.default_rng(43)
    for _ in range(100):
        m_count = int(rng.integers(0, 11))
        s1, s2 = (float(s) for s in rng.uniform(0.55, 2.5, 2))
        q1 = float(rng.uniform(0.1, 4.0))
        circular = _spectrum(Circular(s1, s2, q1, m_count))
        hyperbolic = _spectrum(Hyperbolic(s1, s2, q1, m_count))
        assert np.max(np.abs(hyperbolic + circular[::-1])) <= 1e-13 * np.max(np.abs(circular)), (s1, s2, q1, m_count)


@pytest.mark.parametrize(
    "s1,s2,q1,m_count",
    [(1.1, 0.95, 1.4, 1), (1.0, 1.2, -2.0, 2), (0.7, 1.65, 0.5, 3), (1.3, 1.35, -0.8, 0), (0.9, 1.15, 2.0, 0)],
)
def test_the_rejected_circular_branch_has_no_moving_pole_count(s1, s2, q1, m_count):
    # On t in [0, 1] both branches at infinity are normalizable. The one the
    # ledger rejects leaves -(2 S1 + 2 S2 + M) moving poles: negative,
    # and not an integer here; the one it keeps leaves M.
    family = Circular(s1, s2, q1, m_count)
    r = riccati_in_chart(family)
    ledger = quantization_ledger(family)
    assert ledger.n == m_count
    rejected = next(c for c in ledger.infinity_branches if c.label != ledger.selected_branch)
    j_value = 1j * family.chart.measure * engine._expansion(engine._localize_at_infinity(r), rejected).coefficient(1)
    fixed = sum(e.value for e in ledger.entries if e.source.startswith("fixed"))
    count = (j_value - fixed).real / family.moving_weight
    assert count < 0 and abs(count - round(count)) > 0.05
    assert abs(count + 2 * s1 + 2 * s2 + m_count) < 1e-12
    # a decay test would have kept the rejected branch exactly when q1 < 0, so the public rule refuses here
    assert ((1j * rejected.leading_coefficient).real < 0) == (q1 < 0)
    with pytest.raises(BranchRuleError, match="bounded interval"):
        select_physical_branch(ledger.infinity_branches, family)


@pytest.mark.parametrize(
    "family",
    _FAMILIES + [Circular(1.1, 1.3, 0.8, 0), Circular(1.1, 1.3, -0.8, 0)],
    ids=_IDS + ["Circular-M0-positive-q1", "Circular-M0-negative-q1"],
)
def test_the_public_branch_rule_at_infinity_is_the_ledgers(family):
    # decay where the interval reaches infinity; on a bounded one the count rule, which only the ledger applies
    ledger = quantization_ledger(family, require_integer=False)
    if all(map(math.isfinite, family.interval)):
        with pytest.raises(BranchRuleError):
            select_physical_branch(ledger.infinity_branches, family)
    else:
        assert select_physical_branch(ledger.infinity_branches, family).label == ledger.selected_branch
