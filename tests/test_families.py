"""A family is data: its chart and its potential in the chart fix everything the pipeline does with it."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from qhjqes.engine import (
    infinity_branch_candidates,
    infinity_expansion,
    quantization_ledger,
    riccati_in_chart,
    select_physical_branch,
)
from qhjqes.families import TRIG, ChartSpec, Circular, Hyperbolic, RadialSextic, Sextic, family_kind
from qhjqes.oracle import refine
from qhjqes.series import Polynomial
from qhjqes.spectra import algebraic_states, gauge_from_residues, recursion_matrix, schrodinger_residual


def _cos2_coordinates(x):
    return np.cos(x) ** 2, -np.sin(2 * x), -2 * np.cos(2 * x)


def _sin_wall(x):
    s, c = np.sin(x), np.cos(x)
    return s, c, -s


def _cos_wall(x):
    s, c = np.sin(x), np.cos(x)
    return c, -s, -c


@dataclass(frozen=True)
class ReflectedCircular:
    """Circular's potential reflected by x -> pi/2 - x, on the chart t = cos^2 x.

    V(x) = A/cos^2 x + B/sin^2 x + C cos^2 x - D cos^4 x is Circular's V in
    t, with the same Q = 4t(1 - t) and measure. Only the chart's map, V(x)
    and the oracle's walls are its own; the library does not know the class.
    Its one field is the Circular instance whose data it shares, so it has
    no parameter of its own that the library could read.
    """

    circular: Circular

    chart = ChartSpec("t", TRIG.measure, TRIG.Q, TRIG.reduced_power, _cos2_coordinates)
    singular_points = Circular.singular_points
    moving_weight = Circular.moving_weight

    infinity_target = property(lambda self: self.circular.infinity_target)
    potential_in_chart = property(lambda self: self.circular.potential_in_chart)
    ledger_check = property(lambda self: self.circular.ledger_check)

    def solve_ledger(self, *args):
        return self.circular.solve_ledger(*args)

    @property
    def walls(self):
        # x = 0 is t = 1, where B sits; x = pi/2 is t = 0, where A sits
        c = self.circular
        return ((0.0, c.B, _sin_wall), (math.pi / 2, c.A, _cos_wall))

    def potential(self, x):
        c = self.circular
        s2, c2 = np.sin(x) ** 2, np.cos(x) ** 2
        return c.A / c2 + c.B / s2 + c.C * c2 - c.D * c2 * c2


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
    # the Riccati data and the oracle read two copies of V; they must be one function.
    # (0.02, pi/2 - 0.02) lies inside every family's physical interval.
    xs = np.linspace(0.02, np.pi / 2 - 0.02, 400)
    z = family.chart.coordinates(xs)[0]
    num, den = family.potential_in_chart
    v_chart = Polynomial(num)(z) / Polynomial(den)(z)
    v = family.potential(xs)
    assert np.all(np.abs(v_chart - v) <= 1e-10 * (1.0 + np.abs(v)))


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
    # eigenvalues only: the duality is a statement about energies, not about normalizing the eigenvectors
    return np.sort(np.linalg.eigvals(recursion_matrix(gauge_from_residues(family))).real)


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
    "s1,s2,q1,m_count", [(1.1, 0.95, 1.4, 1), (1.0, 1.2, -2.0, 2), (0.7, 1.65, 0.5, 3), (1.3, 1.35, -0.8, 0)]
)
def test_the_rejected_circular_branch_has_no_moving_pole_count(s1, s2, q1, m_count):
    # On t in [0, 1] both branches at infinity are normalizable. The one the
    # circular rule rejects leaves -(2 S1 + 2 S2 + M) moving poles: negative,
    # and not an integer here.
    family = Circular(s1, s2, q1, m_count)
    r = riccati_in_chart(family)
    pair = infinity_branch_candidates(r)
    chosen = select_physical_branch(pair, family)
    rejected = next(c for c in pair if c.label != chosen.label)
    j_value = 1j * family.chart.measure * infinity_expansion(r, rejected).coefficient(1)
    ledger = quantization_ledger(family)
    fixed = sum(e.value for e in ledger.entries if e.source.startswith("fixed"))
    count = (j_value - fixed).real / family.moving_weight
    assert count < 0 and abs(count - round(count)) > 0.05
    assert abs(count + 2 * s1 + 2 * s2 + m_count) < 1e-12
    # a decay test would have kept the rejected branch exactly when q1 < 0
    assert ((1j * rejected.leading_coefficient).real < 0) == (q1 < 0)
