
import importlib

import numpy as np
import pytest

from qhjqes.engine import qes_parameterize
from qhjqes.families import RadialSextic
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
from qhjqes.spectra import algebraic_states

QUARTER_ROOT_HALF = 0.8408964152537145


def _sextic_states(n, b=0.0):
    return algebraic_states(qes_parameterize("sextic", n, a=1.0, b=b))


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
    # the package re-exports the function qmf under the submodule's name
    qmf_module = importlib.import_module("qhjqes.qmf")
    real_roots = qmf_module.poly_roots
    for state in states:
        e = qmf(state)
        vals = e.evaluation(nodes)
        scalar = np.array([e.evaluation(complex(z)) for z in nodes])
        assert np.max(np.abs(vals - scalar) / np.abs(scalar)) < 1e-13
        # p'/p comes from the coefficients of moving_poly, never from the
        # stored zeros: an evaluator built on wrong zeros evaluates the same
        monkeypatch.setattr(
            qmf_module, "poly_roots", lambda pol: [(z + 0.01, m) for z, m in real_roots(pol)]
        )
        shifted = qmf(state)
        monkeypatch.setattr(qmf_module, "poly_roots", real_roots)
        assert shifted.moving_zeros != e.moving_zeros
        assert np.array_equal(shifted.evaluation(nodes), vals)


# ----------------------------------------------------------------- census


def test_census_splits_for_n2():
    low, high = _sextic_states(2)
    c_low = zero_census(low)
    assert (c_low.n_real, c_low.n_complex) == (0, 2)
    c_high = zero_census(high)
    assert (c_high.n_real, c_high.n_complex) == (2, 0)


def test_census_of_nodeless_state():
    c = zero_census(_sextic_states(0)[0])
    assert (c.n_real, c.n_complex, c.total) == (0, 0, 0)
    assert c.quantization_value == 0.0
    assert abs(c.global_count) < 1e-10


def test_degenerate_zero_rejected():
    state = _sextic_states(4)[0]
    broken = type(state)(
        family=state.family,
        energy=state.energy,
        poly=Polynomial([1.0, 2.0, 1.0]),  # (u + 1)^2
        sector=state.sector,
        gauge=state.gauge,
        n_label=state.n_label,
        index=0,
    )
    with pytest.raises(DegenerateZeroError):
        zero_census(broken)


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
    reports = pole_reports(state)
    fixed = [r for r in reports if r.kind == "fixed"]
    assert len(fixed) == 1
    expected = -0.5j * (4 * fam.S - 1)
    assert abs(fixed[0].measured_residue - expected) < 1e-8


# ------------------------------------------------------------ counting laws


def test_quantization_values_for_n2_pair():
    low, high = _sextic_states(2)
    assert abs(quantization_check(qmf(high)) - 2.0) < 1e-8
    assert abs(quantization_check(qmf(low)) - 0.0) < 1e-8


def test_quantization_single_origin_pole():
    assert abs(quantization_check(qmf(_sextic_states(1)[0])) - 1.0) < 1e-8


def test_global_count_equals_degree():
    for state in _sextic_states(2):
        assert abs(global_pole_count(qmf(state)) - 2.0) < 1e-10


def test_radial_global_count_subtracts_fixed_pole():
    fam = RadialSextic(S=1.25, a=1.0, b=0.5, M=2)
    for state in algebraic_states(fam):
        e = qmf(state)
        assert abs(global_pole_count(e) - state.n_label) < 1e-8
        census = zero_census(state)
        assert census.total == state.n_label == 2 * fam.M
        assert abs(census.quantization_value - census.n_real) < 1e-8


def test_counting_laws_hold_simultaneously():
    for n in range(4):
        for state in _sextic_states(n, b=1.0):
            census = zero_census(state)
            assert census.total == state.n_label
            assert abs(census.quantization_value - census.n_real) < 1e-8
            assert abs(census.global_count - state.n_label) < 1e-8
            assert round(census.quantization_value) == census.n_real


def test_separating_contour_failure():
    state = _sextic_states(4)[0]
    # two real nodes plus a conjugate pair hugging the real axis
    u1, u2 = 0.25, complex(0.49, 1.4e-8)
    poly = Polynomial([u1 * u2, -(u1 + u2), 1.0])
    squeezed = type(state)(
        family=state.family,
        energy=state.energy,
        poly=poly,
        sector=state.sector,
        gauge=state.gauge,
        n_label=state.n_label,
        index=0,
    )
    with pytest.warns(UserWarning, match="threshold"):
        with pytest.raises(NoSeparatingContourError):
            quantization_check(qmf(squeezed))


def test_quantization_handles_zeros_crowding_a_wall():
    # weak coupling spreads the real zeros toward the walls, flattening the
    # separating stadium; the panelized quadrature must stay at full accuracy
    from qhjqes.families import Circular

    fam = Circular(S1=1.685259129753653, S2=1.4527617529418024, q1=0.24441895214416567, M=4)
    worst = 0.0
    for state in algebraic_states(fam):
        census = zero_census(state)
        worst = max(worst, abs(census.quantization_value - census.n_real))
    assert worst < 1e-10


def test_degree_24_census_and_residues():
    # radial M = 12: the bottom state has 24 complex zeros, the top one 24 real
    fam = RadialSextic(S=1.3, a=1.0, b=0.5, M=12)
    states = algebraic_states(fam)
    for state, n_real in ((states[0], 0), (states[-1], 24)):
        census = zero_census(state)
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
        census = zero_census(state)
        assert census.total == state.n_label == 2
        assert abs(census.global_count - 2) < 1e-8
        assert abs(census.quantization_value - census.n_real) < 1e-8
        for z in census.zeros:
            # chart measure 1/2 times residue -2i is the usual -i unit
            assert abs(e.measure * residue_at_zero(e, z) + 1j) < 1e-8

    hyp_states = algebraic_states(Hyperbolic(S1=1.0, S2=1.25, q1=1.0, M=1))
    for state in hyp_states:
        census = zero_census(state)
        assert census.total == state.n_label == 2  # mirror pair in t = cosh x
        assert abs(census.global_count - 2) < 1e-8
        assert abs(census.quantization_value - census.n_real) < 1e-8


# ------------------------------------------------------------ infinity fit


def test_infinity_order_ground_state():
    fit = infinity_order_check(qmf(_sextic_states(0)[0]))
    assert abs(fit["exponent"] - 3.0) < 1e-6
    assert abs(fit["coefficient"] - 1j) < 1e-9


def test_infinity_order_scales_with_gamma():
    state = algebraic_states(qes_parameterize("sextic", 0, a=2.0, b=0.0))[0]
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
        qes_parameterize("sextic", 7, a=0.4, b=-1.1),
        qes_parameterize("sextic", 8, a=3.0, b=0.9),
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
            c = zero_census(s)
            assert c.total == s.n_label
            assert abs(c.quantization_value - c.n_real) < 1e-8
            assert abs(c.global_count - s.n_label) < 1e-8


# --------------------------------------------------------------- reports


def test_pole_reports_cover_all_zeros():
    state = _sextic_states(3, b=0.0)[1]
    reports = pole_reports(state)
    moving = [r for r in reports if r.kind == "moving"]
    assert sum(r.multiplicity for r in moving) == state.n_label
    for r in moving:
        assert abs(r.measured_residue + 1j) < 1e-8
        assert r.axis in ("real", "complex")
