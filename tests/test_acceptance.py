"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

import json
import math

import numpy as np

from qhjqes.cli import main as cli_main
from qhjqes.engine import (
    fixed_pole_residues,
    quantization_ledger,
    riccati_in_chart,
    select_physical_branch,
)
from qhjqes.families import Circular, Hyperbolic, RadialSextic, Sextic
from qhjqes.oracle import Grid, discretize, low_spectrum, refine
from qhjqes.qmf import infinity_order_check, qmf, residue_at_zero, zero_census
from qhjqes.spectra import algebraic_states


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_qes_condition_reproduction():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        fam = Sextic(
            float(rng.uniform(-10, 10)), float(rng.uniform(-5, 5)), float(rng.uniform(0.1, 10))
        )
        lhs = quantization_ledger(fam, require_integer=False).solved_condition["lhs_value"]
        worst = max(worst, abs(lhs - fam.condition_value) / max(1.0, abs(fam.condition_value)))
    ok = worst <= 1e-10

    worst_m = 0.0
    for _ in range(50):
        m_val = int(rng.integers(0, 6))
        fams = [
            RadialSextic(
                S=float(rng.uniform(0.8, 2.5)),
                a=float(rng.uniform(0.5, 2.0)),
                b=float(rng.uniform(-1.0, 1.0)),
                M=m_val,
            ),
            Circular(
                S1=float(rng.uniform(0.6, 2.0)),
                S2=float(rng.uniform(0.6, 2.0)),
                q1=float(rng.uniform(0.3, 2.5)) * (1.0 if rng.random() < 0.5 else -1.0),
                M=m_val,
            ),
            Hyperbolic(
                S1=float(rng.uniform(0.6, 2.0)),
                S2=float(rng.uniform(0.6, 2.0)),
                q1=float(rng.uniform(0.3, 2.5)),
                M=m_val,
            ),
        ]
        for fam in fams:
            led = quantization_ledger(fam)
            assert led.solved_condition["rhs_form"] == "M=n"
            worst_m = max(worst_m, abs(led.solved_condition["lhs_value"] - m_val))
            assert led.n == m_val
    ok = ok and worst_m <= 1e-10
    _report(
        "criterion 1: ledger reproduces the closed-form conditions",
        ok,
        f"sextic rel err {worst:.2e}, M-families err {worst_m:.2e}",
    )


def test_criterion_2_branch_selection():
    rng = np.random.default_rng(102)
    ok = True
    for gamma in rng.uniform(0.2, 9.0, 20):
        fam = Sextic(-1.0, 0.0, float(gamma))
        led = quantization_ledger(fam, require_integer=False)
        pair = led.infinity_branches
        sel = select_physical_branch(pair, fam)
        ok = ok and sel.label == led.selected_branch
        ok = ok and abs(sel.leading_coefficient - 1j * math.sqrt(gamma)) < 1e-12
        rejected = [c for c in pair if c.label != sel.label][0]
        ok = ok and (1j * sel.leading_coefficient).real < 0  # decay
        ok = ok and (1j * rejected.leading_coefficient).real > 0  # growth
    for s_val in rng.uniform(0.8, 3.0, 20):
        fam = RadialSextic(S=float(s_val), a=1.0, b=0.0, M=0)
        pair = fixed_pole_residues(riccati_in_chart(fam), 0)
        sel = select_physical_branch(pair, fam)
        ok = ok and abs(sel.leading_coefficient - (-0.5j * (4 * s_val - 1))) < 1e-12
    _report("criterion 2: physical branches selected by the exact sign tests", ok)


def test_criterion_3_algebraic_spectrum_vs_oracle():
    worst = 0.0
    for b in (0.0, 1.0):
        for n in range(5):
            fam = Sextic.on_condition(1.0, b, n)
            states = algebraic_states(fam)
            k = 2 * len(states) + 6
            grid = Grid(-6.0, 6.0, 128)
            oracle_e = low_spectrum(discretize(fam, grid), k)
            assert oracle_e[-1] > max(s.energy for s in states)
            for s in states:
                worst = max(worst, min(abs(oracle_e - s.energy)))
    ok = worst <= 1e-4

    # anchors: n = 0, 1 have E = 0; n = 2, b = 0 has E = +-2*sqrt(2)
    anchors = True
    for n in (0, 1):
        e = algebraic_states(Sextic.on_condition(1.0, 0.0, n))[0].energy
        anchors = anchors and abs(e) < 1e-12
    pair = [s.energy for s in algebraic_states(Sextic.on_condition(1.0, 0.0, 2))]
    anchors = anchors and abs(pair[0] + 2.8284271247461903) < 1e-12
    anchors = anchors and abs(pair[1] - 2.8284271247461903) < 1e-12

    # spectral rate: each 8 more nodes divide the harmonic ground-state error
    # by a factor of at least 10 (an algebraic rate n^-p gives (1 + 8/n)^p)
    errors = []
    for n_nodes in (24, 32, 40, 48):
        g = Grid(-10.0, 10.0, n_nodes)
        errors.append(abs(low_spectrum(discretize(lambda x: x * x, g), 1)[0] - 1.0))
    rate = min(a / b for a, b in zip(errors, errors[1:]))
    ok = ok and anchors and rate >= 10.0
    _report(
        "criterion 3: algebraic energies inside the oracle spectrum",
        ok,
        f"worst |E_alg - E_oracle| = {worst:.2e}, error ratio per 8 nodes >= {rate:.3g}",
    )


def _all_states_up_to(n_max: int):
    for b in (0.0, 1.0):
        for n in range(n_max + 1):
            for state in algebraic_states(Sextic.on_condition(1.0, b, n)):
                yield state


def test_criterion_4_residue_universality():
    worst = 0.0
    count = 0
    for state in _all_states_up_to(6):
        census = zero_census(qmf(state))
        e = qmf(state)
        for z in census.zeros:
            worst = max(worst, abs(residue_at_zero(e, z) + 1j))
            count += 1
    _report(
        "criterion 4: every simple zero carries momentum residue -i",
        worst <= 1e-8,
        f"{count} zeros, worst |residue + i| = {worst:.2e}",
    )


def test_criterion_5_counting_laws():
    ok = True
    for state in _all_states_up_to(6):
        census = zero_census(qmf(state))
        ok = ok and census.n_real + census.n_complex == state.n_label
        ok = ok and abs(census.quantization_value - census.n_real) <= 1e-8
        ok = ok and abs(census.global_count - state.n_label) <= 1e-8
        ok = ok and round(census.quantization_value) == census.n_real
    _report("criterion 5: quantization, global count, and census agree", ok)


def test_criterion_6_infinity_pole_order():
    ok = True
    worst_exp, worst_coeff = 0.0, 0.0
    for a_val in (1.0, 2.0):
        for state in algebraic_states(Sextic.on_condition(a_val, 0.0, 0)):
            fit = infinity_order_check(qmf(state))
            target = 1j * a_val
            worst_exp = max(worst_exp, abs(fit["exponent"] - 3.0))
            worst_coeff = max(worst_coeff, abs(fit["coefficient"] - target) / abs(target))
    for state in algebraic_states(Sextic.on_condition(1.0, 1.0, 2)):
        fit = infinity_order_check(qmf(state))
        worst_exp = max(worst_exp, abs(fit["exponent"] - 3.0))
        worst_coeff = max(worst_coeff, abs(fit["coefficient"] - 1j))
    ok = worst_exp <= 0.01 and worst_coeff <= 1e-3
    _report(
        "criterion 6: finite pole order at infinity",
        ok,
        f"exponent off by {worst_exp:.2e}, coefficient rel err {worst_coeff:.2e}",
    )


def test_criterion_7_scale_invariance():
    rng = np.random.default_rng(107)
    fam = Sextic(-5.3, 0.9, 1.7)
    base = quantization_ledger(fam, require_integer=False).solved_condition["lhs_value"]
    worst = 0.0
    for lam in rng.uniform(0.5, 2.0, 20):
        scaled = Sextic(fam.alpha / lam**4, fam.beta / lam**6, fam.gamma / lam**8)
        val = quantization_ledger(scaled, require_integer=False).solved_condition["lhs_value"]
        worst = max(worst, abs(val - base) / max(1.0, abs(base)))
    _report("criterion 7: condition value is scale invariant", worst <= 1e-12, f"rel drift {worst:.2e}")


def test_criterion_8_harmonic_anchor():
    spec = refine(lambda x: x * x, k=3, tol=1e-6, domain=(-10.0, 10.0))
    worst = max(abs(e - x) for e, x in zip(spec.energies, (1.0, 3.0, 5.0)))
    _report("criterion 8: harmonic oracle returns 1, 3, 5", worst <= 1e-4, f"worst {worst:.2e}")


def test_criterion_9_negative_control(tmp_path, capsys):
    cfg = tmp_path / "perturbed.json"
    cfg.write_text(
        json.dumps({"family": {"name": "sextic", "alpha": -6.9, "beta": 0.0, "gamma": 1.0}})
    )
    code = cli_main(["verify", "--config", str(cfg)])
    report = json.loads(capsys.readouterr().out)
    ok = (
        code == 2
        and not report["checks"][0]["pass"]
        and "truncate" in report["checks"][0]["measured"]
    )
    with capsys.disabled():
        _report("criterion 9: off-condition family fails verification with exit 2", ok)
