
import math

import numpy as np
import pytest

import qhjqes.qmf as qmf_module
from qhjqes import engine
from qhjqes.families import Circular, Hyperbolic, RadialSextic, Sextic, family_kind
from qhjqes.qmf import (
    DegenerateZeroError,
    NoSeparatingContourError,
    global_pole_count,
    infinity_order_check,
    pole_reports,
    qmf,
    quantization_check,
    residue_at_zero,
    zero_census,
)
from qhjqes.series import Polynomial
from qhjqes.spectra import algebraic_states, eigenfunction_with_derivatives

QUARTER_ROOT_HALF = 0.8408964152537145


def _pole_reports(e):
    """The pole reports with each moving residue measured as the CLI measures it."""
    return pole_reports(e, [residue_at_zero(e, z) for z in e.moving_zeros])


def _sextic_states(n, b=0.0):
    return algebraic_states(Sextic.on_condition(1.0, b, n))


# ----------------------------------------------------------- the evaluator


def test_ground_state_momentum_is_i_z_cubed():
    e = qmf(_sextic_states(0)[0])
    assert abs(e(1.0) - 1j) < 1e-14
    for z in (0.5, 1.5 + 0.3j, -2.0):
        assert abs(e(z) - 1j * z**3) < 1e-12 * max(1.0, abs(z) ** 3)


def test_first_excited_momentum_has_origin_pole():
    e = qmf(_sextic_states(1)[0])
    for z in (0.4, 1.2 - 0.5j):
        assert abs(e(z) - (-1j / z + 1j * z**3)) < 1e-12


def test_schwarz_reflection():
    for state in _sextic_states(2) + algebraic_states(
        RadialSextic(S=1.25, a=1.0, b=0.5, M=1)
    ):
        e = qmf(state)
        for z in (0.7 + 0.4j, -1.1 + 0.2j, 0.25 - 1.3j):
            lhs = e(z.conjugate())
            rhs = -e(z).conjugate()
            assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(rhs))


def test_array_evaluation_matches_scalar(monkeypatch):
    from qhjqes.families import Circular, Hyperbolic

    rng = np.random.default_rng(5)
    nodes = rng.uniform(-1.5, 1.5, 40) + 1j * rng.uniform(0.05, 1.0, 40)
    nodes = np.concatenate([nodes, nodes.conj()])
    states = [
        _sextic_states(3, b=1.0)[1],
        algebraic_states(RadialSextic(S=1.25, a=1.0, b=0.5, M=2))[1],
        algebraic_states(Circular(S1=1.0, S2=1.2, q1=1.5, M=3))[1],
        algebraic_states(Hyperbolic(S1=1.0, S2=1.25, q1=1.0, M=2))[1],
    ]
    real_roots = qmf_module.poly_roots
    for state in states:
        e = qmf(state)
        vals = e.evaluation(nodes)
        scalar = np.array([e.evaluation(complex(z)) for z in nodes])
        assert np.max(np.abs(vals - scalar) / np.abs(scalar)) < 1e-13
        # p'/p comes from the coefficients of the moving polynomial, never from the
        # stored zeros: an evaluator built on wrong zeros evaluates the same
        monkeypatch.setattr(
            qmf_module, "poly_roots", lambda pol: [(z + 0.01, m) for z, m in real_roots(pol)]
        )
        shifted = qmf(state)
        monkeypatch.setattr(qmf_module, "poly_roots", real_roots)
        assert shifted.moving_zeros != e.moving_zeros
        assert np.array_equal(shifted.evaluation(nodes), vals)


_CHARTS = {
    "x": (lambda z: z, lambda z: 1.0),
    "circular": (lambda z: np.sin(z) ** 2, lambda z: np.sin(2 * z)),
    "hyperbolic": (np.cosh, np.sinh),
}


@pytest.mark.parametrize(
    "family",
    [
        Sextic.on_condition(1.0, 0.5, 2),
        Sextic.on_condition(1.5, -0.7, 3),
        RadialSextic(S=1.25, a=1.0, b=0.5, M=2),
        Circular(S1=1.0, S2=1.2, q1=-1.5, M=3),
        Hyperbolic(S1=1.0, S2=1.25, q1=1.0, M=2),
    ],
    ids=["sextic-even", "sextic-odd", "radial", "circular", "hyperbolic"],
)
def test_momentum_is_the_log_derivative_read_from_the_ledger(family):
    t, dt = _CHARTS.get(family_kind(family), _CHARTS["x"])
    for state in algebraic_states(family):
        e = qmf(state)
        assert e.fixed_singularities == state.gauge.ledger.fixed_residues
        assert e.measure * e.moving_residue == -1j
        psi = eigenfunction_with_derivatives(state)
        for z in (0.45 + 0.2j, 0.9 - 0.35j, 1.3 + 0.1j):
            value, derivative, _ = psi(z)
            expected = -1j * derivative / value
            assert abs(e.measure * e(t(z)) * dt(z) - expected) < 1e-12 * abs(expected)


def test_one_ledger_per_algebraic_states(monkeypatch):
    real_ledger, calls = engine.quantization_ledger, []
    monkeypatch.setattr(engine, "quantization_ledger", lambda *a, **k: calls.append(a) or real_ledger(*a, **k))
    for family in (Sextic.on_condition(1.0, 0.5, 3), Circular(S1=1.0, S2=1.2, q1=1.5, M=2)):
        calls.clear()
        algebraic_states(family)
        assert len(calls) == 1


# ----------------------------------------------------------------- census


def test_census_splits_for_n2():
    low, high = _sextic_states(2)
    c_low = zero_census(qmf(low))
    assert (c_low.n_real, c_low.n_complex) == (0, 2)
    c_high = zero_census(qmf(high))
    assert (c_high.n_real, c_high.n_complex) == (2, 0)


def test_census_of_nodeless_state():
    c = zero_census(qmf(_sextic_states(0)[0]))
    assert (c.n_real, c.n_complex, c.total) == (0, 0, 0)
    assert c.quantization_value == 0.0
    assert abs(c.global_count) < 1e-10


@pytest.mark.parametrize(
    "family",
    [
        Sextic.on_condition(1.5, -0.7, 7),
        RadialSextic(S=1.25, a=1.0, b=0.5, M=4),
        Hyperbolic(S1=1.1, S2=1.3, q1=1.0, M=4),
    ],
    ids=["sextic-odd", "radial", "hyperbolic"],
)
def test_zeros_on_the_squared_charts_come_in_exact_pairs(family):
    # on v = z^2 each root of P gives the pair +-sqrt(v), so the census has z and -z bit for bit
    for state in algebraic_states(family):
        zeros = qmf(state).moving_zeros
        assert len(zeros) == state.n_label
        assert sorted(zeros, key=lambda z: (z.real, z.imag)) == list(zeros)
        assert set(zeros) == {-z + 0j for z in zeros}
        # a zero on an axis prints as "x+0j" or "yj", never with a signed zero
        assert all(math.copysign(1.0, z.imag) == 1.0 for z in zeros if z.imag == 0.0)
        assert all(math.copysign(1.0, z.real) == 1.0 for z in zeros if z.real == 0.0)


def test_degenerate_zero_rejected():
    state = _sextic_states(4)[0]
    broken = type(state)(
        family=state.family,
        energy=state.energy,
        poly=Polynomial([1.0, 2.0, 1.0]),  # (u + 1)^2
        origin=state.origin,
        gauge=state.gauge,
        n_label=state.n_label,
        index=0,
    )
    with pytest.raises(DegenerateZeroError):
        zero_census(qmf(broken))


# ---------------------------------------------------------------- residues


def test_residue_at_origin_node():
    e = qmf(_sextic_states(1)[0])
    assert abs(residue_at_zero(e, 0) + 1j) < 1e-10


def test_residues_at_real_and_complex_nodes():
    low, high = _sextic_states(2)
    e_high = qmf(high)
    assert abs(residue_at_zero(e_high, QUARTER_ROOT_HALF) + 1j) < 1e-10
    e_low = qmf(low)
    assert abs(residue_at_zero(e_low, 1j * QUARTER_ROOT_HALF) + 1j) < 1e-10


def test_radial_fixed_pole_residue_matches_selection():
    fam = RadialSextic(S=1.25, a=1.0, b=0.5, M=1)
    state = algebraic_states(fam)[0]
    reports = _pole_reports(qmf(state))
    fixed = [r for r in reports if r.kind == "fixed"]
    assert len(fixed) == 1
    expected = -0.5j * (4 * fam.S - 1)
    assert abs(fixed[0].measured_residue - expected) < 1e-8


# ------------------------------------------------------------ counting laws


def test_gauss_rule_is_built_once_and_read_only():
    x, w = qmf_module._gauss_legendre(48)
    again = qmf_module._gauss_legendre(48)
    assert again[0] is x and again[1] is w
    fresh = np.polynomial.legendre.leggauss(48)
    assert np.array_equal(x, fresh[0]) and np.array_equal(w, fresh[1])
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_cached_gauss_rule_gives_the_bits_of_a_fresh_rule(monkeypatch):
    f = qmf(_sextic_states(4)[-1]).evaluation
    cached = qmf_module._stadium_integral(f, [(-1.3, 1.4, 0.3)])
    monkeypatch.setattr(qmf_module, "_gauss_legendre", np.polynomial.legendre.leggauss)
    assert qmf_module._stadium_integral(f, [(-1.3, 1.4, 0.3)]) == cached


def test_stadium_needing_more_than_1000_panels_is_refused():
    # a run whose clearance is squeezed by a fixed point next to its end: 1000 panels of h are the most,
    # and longer panels would break the quadrature silently
    f = qmf(_sextic_states(4)[-1]).evaluation
    assert qmf_module._stadium_integral(f, [(-1.0, 1.0, 0.002)]) != 0.0
    with pytest.raises(NoSeparatingContourError, match=r"spans 2 with clearance 0\.0019, > 1000 panels"):
        qmf_module._stadium_integral(f, [(-1.3, 1.4, 0.3), (-1.0, 1.0, 0.0019)])


def test_quantization_values_for_n2_pair():
    low, high = _sextic_states(2)
    assert abs(quantization_check(qmf(high)) - 2.0) < 1e-8
    assert abs(quantization_check(qmf(low)) - 0.0) < 1e-8


def test_quantization_single_origin_pole():
    assert abs(quantization_check(qmf(_sextic_states(1)[0])) - 1.0) < 1e-8


def test_global_count_is_one_contour_integral(monkeypatch):
    real_integral, calls = qmf_module.contour_integral, []
    monkeypatch.setattr(
        qmf_module, "contour_integral", lambda *a, **k: calls.append(a) or real_integral(*a, **k)
    )
    e = qmf(algebraic_states(RadialSextic(S=1.25, a=1.0, b=0.5, M=2))[1])
    assert abs(global_pole_count(e) - 4.0) < 1e-8
    assert len(calls) == 1


def test_global_count_equals_degree():
    for state in _sextic_states(2):
        assert abs(global_pole_count(qmf(state)) - 2.0) < 1e-10


def test_radial_global_count_subtracts_fixed_pole():
    fam = RadialSextic(S=1.25, a=1.0, b=0.5, M=2)
    for state in algebraic_states(fam):
        e = qmf(state)
        assert abs(global_pole_count(e) - state.n_label) < 1e-8
        census = zero_census(qmf(state))
        assert census.total == state.n_label == 2 * fam.M
        assert abs(census.quantization_value - census.n_real) < 1e-8


def test_counting_laws_hold_simultaneously():
    for n in range(4):
        for state in _sextic_states(n, b=1.0):
            census = zero_census(qmf(state))
            assert census.total == state.n_label
            assert abs(census.quantization_value - census.n_real) < 1e-8
            assert abs(census.global_count - state.n_label) < 1e-8
            assert round(census.quantization_value) == census.n_real


def _squeezed_state():
    state = _sextic_states(4)[0]
    # two real nodes plus a conjugate pair hugging the real axis
    u1, u2 = 0.25, complex(0.49, 1.4e-8)
    poly = Polynomial([u1 * u2, -(u1 + u2), 1.0])
    return type(state)(
        family=state.family,
        energy=state.energy,
        poly=poly,
        origin=state.origin,
        gauge=state.gauge,
        n_label=state.n_label,
        index=0,
    )


def test_separating_contour_failure():
    squeezed = _squeezed_state()
    with pytest.warns(UserWarning, match="threshold"):
        with pytest.raises(NoSeparatingContourError):
            quantization_check(qmf(squeezed))


def test_each_near_threshold_zero_warns_once_per_census():
    # the zeros are classified once, when the evaluator is built
    with pytest.warns(UserWarning, match="threshold") as record:
        e = qmf(_squeezed_state())
        with pytest.raises(NoSeparatingContourError):
            zero_census(e)
    assert len(record) == 2


def test_quantization_handles_zeros_crowding_a_wall():
    # weak coupling spreads the real zeros toward the walls, flattening the
    # separating stadium; the panelized quadrature must stay at full accuracy
    from qhjqes.families import Circular

    fam = Circular(S1=1.685259129753653, S2=1.4527617529418024, q1=0.24441895214416567, M=4)
    worst = 0.0
    for state in algebraic_states(fam):
        census = zero_census(qmf(state))
        worst = max(worst, abs(census.quantization_value - census.n_real))
    assert worst < 1e-10


def test_degree_24_census_and_residues():
    # radial M = 12: the bottom state has 24 complex zeros, the top one 24 real
    fam = RadialSextic(S=1.3, a=1.0, b=0.5, M=12)
    states = algebraic_states(fam)
    for state, n_real in ((states[0], 0), (states[-1], 24)):
        census = zero_census(qmf(state))
        assert state.n_label == census.total == 24
        assert census.n_real == n_real
        assert abs(census.quantization_value - census.n_real) < 1e-8
        assert abs(census.global_count - 24) < 1e-8
        e = qmf(state)
        for z in census.zeros:
            assert abs(residue_at_zero(e, z) - e.moving_residue) < 1e-8


def test_chart_family_censuses():
    from qhjqes.families import Circular, Hyperbolic

    circ_states = algebraic_states(Circular(S1=1.0, S2=1.2, q1=1.5, M=2))
    for state in circ_states:
        e = qmf(state)
        census = zero_census(qmf(state))
        assert census.total == state.n_label == 2
        assert abs(census.global_count - 2) < 1e-8
        assert abs(census.quantization_value - census.n_real) < 1e-8
        for z in census.zeros:
            # chart measure 1/2 times residue -2i is the usual -i unit
            assert abs(e.measure * residue_at_zero(e, z) + 1j) < 1e-8

    hyp_states = algebraic_states(Hyperbolic(S1=1.0, S2=1.25, q1=1.0, M=1))
    for state in hyp_states:
        census = zero_census(qmf(state))
        assert census.total == state.n_label == 2  # mirror pair in t = cosh x
        assert abs(census.global_count - 2) < 1e-8
        assert abs(census.quantization_value - census.n_real) < 1e-8


# ------------------------------------------------------------ infinity fit


def test_infinity_order_ground_state():
    fit = infinity_order_check(qmf(_sextic_states(0)[0]))
    assert abs(fit["exponent"] - 3.0) < 1e-6
    assert abs(fit["coefficient"] - 1j) < 1e-9


def test_infinity_order_scales_with_gamma():
    state = algebraic_states(Sextic.on_condition(2.0, 0.0, 0))[0]
    fit = infinity_order_check(qmf(state))
    assert abs(fit["coefficient"] - 2j) < 2e-3 * 2.0


def test_infinity_order_independent_of_subleading():
    for state in _sextic_states(2, b=1.0):
        fit = infinity_order_check(qmf(state))
        assert abs(fit["exponent"] - 3.0) <= 0.01
        assert abs(fit["coefficient"] - 1j) <= 1e-3


def test_infinity_order_rejects_chart_families():
    from qhjqes.families import Circular

    state = algebraic_states(Circular(S1=1.0, S2=1.2, q1=1.5, M=1))[0]
    with pytest.raises(ValueError):
        infinity_order_check(qmf(state))


def test_pipeline_cloud():
    # one seeded cloud across all four families: ledger balance, eigen
    # identity, and all three counting laws, including boundary parameters
    from qhjqes.engine import quantization_ledger
    from qhjqes.families import Circular, Hyperbolic
    from qhjqes.spectra import schrodinger_residual

    cloud = [
        Sextic.on_condition(0.4, -1.1, 7),
        Sextic.on_condition(3.0, 0.9, 8),
        RadialSextic(S=0.78, a=1.3, b=0.4, M=3),
        RadialSextic(S=2.4, a=0.5, b=-0.9, M=4),
        Circular(S1=0.55, S2=1.8, q1=-0.7, M=3),
        Circular(S1=1.9, S2=0.6, q1=2.2, M=2),
        Hyperbolic(S1=0.6, S2=1.6, q1=0.4, M=3),
        Hyperbolic(S1=1.7, S2=0.55, q1=2.8, M=2),
    ]
    for fam in cloud:
        assert quantization_ledger(fam).balance_residual < 1e-10
        for s in algebraic_states(fam):
            assert schrodinger_residual(s) < 1e-8
            c = zero_census(qmf(s))
            assert c.total == s.n_label
            assert abs(c.quantization_value - c.n_real) < 1e-8
            assert abs(c.global_count - s.n_label) < 1e-8


# --------------------------------------------------------------- reports

# One state per family, by repr: the census and the pole reports must read the
# same however the zeros are classified and counted.
_PINNED_CENSUS = [
    (
        Sextic.on_condition(1.5, -0.7, 3), 0,
        'CensusReport(n_real=1, n_complex=2, total=3, quantization_value=0.9999999999999963, '
        'global_count=3.000000000000009, zeros=(-0.8908019533263033j, 0j, 0.8908019533263033j))',
        '(PoleReport(location=-0.8908019533263033j, measured_residue=(-5.204170427930421e-18-1j), '
        "kind='moving', axis='complex'), PoleReport(location=0j, measured_residue=-1j, kind='moving', "
        "axis='real'), PoleReport(location=0.8908019533263033j, "
        "measured_residue=(-1.0408340855860843e-17-1j), kind='moving', axis='complex'))",
    ),
    (
        RadialSextic(S=1.25, a=1.0, b=0.5, M=2), 1,
        'CensusReport(n_real=2, n_complex=2, total=4, quantization_value=2.0000000000000138, '
        'global_count=4.000000000000015, zeros=((-1.2633994548696759+0j), -1.475755845553926j, '
        '1.475755845553926j, (1.2633994548696759+0j)))',
        '(PoleReport(location=(-1.2633994548696759+0j), measured_residue=(-5.204170427930421e-18-1j), '
        "kind='moving', axis='real'), PoleReport(location=-1.475755845553926j, "
        "measured_residue=-0.9999999999999999j, kind='moving', axis='complex'), "
        'PoleReport(location=1.475755845553926j, '
        "measured_residue=(1.0408340855860843e-17-0.9999999999999999j), kind='moving', axis='complex'), "
        'PoleReport(location=(1.2633994548696759+0j), measured_residue=(-3.469446951953614e-18-1j), '
        "kind='moving', axis='real'), PoleReport(location=0j, "
        "measured_residue=(-1.5178830414797062e-18-2j), kind='fixed', axis='real'))",
    ),
    (
        Circular(S1=1.0, S2=1.2, q1=-1.5, M=3), 0,
        'CensusReport(n_real=3, n_complex=0, total=3, quantization_value=3.0000000000000013, '
        'global_count=2.999999999999999, zeros=((-6.936851136178005+0j), (-3.371669083562378+0j), '
        '(-1.19494936031818+0j)))',
        '(PoleReport(location=(-6.936851136178005+0j), measured_residue=(-1.3877787807814457e-17-2j), '
        "kind='moving', axis='real'), PoleReport(location=(-3.371669083562378+0j), "
        "measured_residue=(-1.3010426069826053e-16-2j), kind='moving', axis='real'), "
        'PoleReport(location=(-1.19494936031818+0j), measured_residue=(-3.469446951953614e-18-2j), '
        "kind='moving', axis='real'), PoleReport(location=0j, "
        "measured_residue=(-1.3877787807814457e-17-1.5j), kind='fixed', axis='real'), "
        "PoleReport(location=(1+0j), measured_residue=-1.9j, kind='fixed', axis='real'))",
    ),
    (
        Hyperbolic(S1=1.0, S2=1.25, q1=1.0, M=2), 0,
        'CensusReport(n_real=4, n_complex=0, total=4, quantization_value=4.000000000000003, '
        'global_count=4.000000000000002, zeros=((-0.7993886662966725+0j), (-0.47116374001650674+0j), '
        '(0.47116374001650674+0j), (0.7993886662966725+0j)))',
        '(PoleReport(location=(-0.7993886662966725+0j), measured_residue=(6.938893903907228e-18-1j), '
        "kind='moving', axis='real'), PoleReport(location=(-0.47116374001650674+0j), "
        "measured_residue=(1.3877787807814457e-17-1j), kind='moving', axis='real'), "
        'PoleReport(location=(0.47116374001650674+0j), measured_residue=(-6.938893903907228e-18-1j), '
        "kind='moving', axis='real'), PoleReport(location=(0.7993886662966725+0j), "
        "measured_residue=(-1.3877787807814457e-17-1j), kind='moving', axis='real'), "
        "PoleReport(location=0j, measured_residue=-1.5j, kind='fixed', axis='real'), "
        "PoleReport(location=(1+0j), measured_residue=(5.551115123125783e-17-1j), kind='fixed', "
        "axis='real'), PoleReport(location=(-1+0j), measured_residue=-1j, kind='fixed', axis='real'))",
    ),
]


@pytest.mark.parametrize(
    "family,index,census,reports", _PINNED_CENSUS, ids=["sextic-odd", "radial", "circular-q1-neg", "hyperbolic"]
)
def test_census_and_pole_reports_are_pinned(family, index, census, reports):
    e = qmf(algebraic_states(family)[index])
    assert repr(zero_census(e)) == census
    assert repr(_pole_reports(e)) == reports



def test_pole_reports_cover_all_zeros():
    state = _sextic_states(3, b=0.0)[1]
    reports = _pole_reports(qmf(state))
    moving = [r for r in reports if r.kind == "moving"]
    assert len(moving) == state.n_label
    for r in moving:
        assert abs(r.measured_residue + 1j) < 1e-8
        assert r.axis in ("real", "complex")
