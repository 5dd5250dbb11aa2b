import importlib.util
import inspect
import json
import os
import subprocess
import sys

import pytest

import qhjqes
from qhjqes.cli import canonical_json, main

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SEXTIC_N2 = {"family": {"name": "sextic", "alpha": -7.0, "beta": 0.0, "gamma": 1.0}}


# ------------------------------------------------------------ config layer


def test_unknown_top_level_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {**SEXTIC_N2, "grod": {}})
    assert main(["derive", "--config", cfg]) == 1
    assert "unknown keys" in capsys.readouterr().err


def test_unknown_family_parameter_rejected(tmp_path):
    cfg = write_config(
        tmp_path, {"family": {"name": "sextic", "alpha": 1.0, "beta": 0.0, "gamma": 1.0, "x": 2}}
    )
    assert main(["derive", "--config", cfg]) == 1


def test_missing_family_field_rejected(tmp_path):
    cfg = write_config(tmp_path, {"family": {"name": "sextic", "alpha": 1.0}})
    assert main(["derive", "--config", cfg]) == 1


def test_invalid_parameter_range_rejected(tmp_path):
    cfg = write_config(
        tmp_path, {"family": {"name": "sextic", "alpha": 1.0, "beta": 0.0, "gamma": -1.0}}
    )
    assert main(["derive", "--config", cfg]) == 1


def test_missing_file_is_a_config_error():
    assert main(["derive", "--config", "/nonexistent/nope.json"]) == 1


@pytest.mark.parametrize(
    "grid",
    [
        {"n": 64},
        {"x_min": 1.0, "x_max": -1.0, "n": 50},
        {"x_min": "a", "x_max": 1.0},
        {"x_min": -6.0, "x_max": 6.0, "n": 2048},
    ],
    ids=["no-ends", "reversed-ends", "non-numeric-end", "n-out-of-range"],
)
def test_invalid_grid_is_a_config_error(tmp_path, capsys, grid):
    cfg = write_config(tmp_path, {**SEXTIC_N2, "grid": grid})
    assert main(["spectrum", "--config", cfg]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "config error" in err and "grid" in err


@pytest.mark.parametrize(
    "config",
    [
        {**SEXTIC_N2, "tolerances": {"oracle_tol": "a"}},
        {**SEXTIC_N2, "tolerances": {"residue_tol": float("nan")}},
        {**SEXTIC_N2, "tolerances": {"oracle_tol": -1}},
        {**SEXTIC_N2, "tolerances": {"oracle_tol": True}},
        {"family": {"name": "circular", "S1": 1.0, "S2": 1.2, "q1": 1.5, "M": 2.7}},
        {"family": {"name": "sextic_qes", "a": 1.0, "b": 0.5, "n": 2.5}},
        {"family": {"name": "circular", "S1": 1.0, "S2": 1.2, "q1": True, "M": 2}},
        {"family": {"name": "circular", "S1": "1.0", "S2": 1.2, "q1": 1.5, "M": 2}},
    ],
    ids=["string-tol", "nan-tol", "negative-tol", "bool-tol", "fractional-M", "fractional-n",
         "bool-param", "string-param"],
)
def test_malformed_number_is_a_config_error(tmp_path, capsys, config):
    cfg = write_config(tmp_path, config)
    assert main(["verify", "--config", cfg]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "config error" in err


# ----------------------------------------------------------------- derive


def test_derive_sextic_n2(tmp_path, capsys):
    cfg = write_config(tmp_path, SEXTIC_N2)
    assert main(["derive", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema_version"] == "2"
    assert report["results"]["n"] == 2
    assert abs(report["results"]["solved_condition"]["lhs_value"] - 7.0) < 1e-12
    assert all(c["pass"] for c in report["checks"])
    selected = [b for b in report["results"]["branches_at_infinity"] if b["selected"]]
    assert len(selected) == 1
    assert abs(selected[0]["leading_coefficient"]["im"] - 1.0) < 1e-12


def test_derive_radial_shows_fixed_residue(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"family": {"name": "radial_sextic", "S": 1.0, "a": 1.0, "b": 0.0, "M": 3}}
    )
    assert main(["derive", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["solved_condition"]["rhs_form"] == "M=n"
    assert report["results"]["n"] == 3
    fixed = [e for e in report["results"]["ledger"] if "fixed" in e["source"]]
    assert "-1.5" in fixed[0]["detail"]  # residue -(i/2)(4S-1) = -3i/2


def test_derive_non_qes_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"family": {"name": "sextic", "alpha": -4.0, "beta": 0.0, "gamma": 1.0}}
    )
    assert main(["derive", "--config", cfg]) == 2
    report = json.loads(capsys.readouterr().out)
    assert "non-QES" in report["results"]["error"]


def test_derive_report_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, SEXTIC_N2)
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["derive", "--config", cfg, "--out", out1]) == 0
    assert main(["derive", "--config", cfg, "--out", out2]) == 0
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()


def test_derive_reverifies_from_echoed_inputs(tmp_path, capsys):
    cfg = write_config(tmp_path, SEXTIC_N2)
    assert main(["derive", "--config", cfg]) == 0
    first = capsys.readouterr().out
    echoed = json.loads(first)["inputs"]
    cfg2 = write_config(tmp_path, echoed, name="echo.json")
    assert main(["derive", "--config", cfg2]) == 0
    assert json.loads(capsys.readouterr().out)["checks"] == json.loads(first)["checks"]


# ---------------------------------------------------------------- spectrum


def test_spectrum_sextic_n2(tmp_path, capsys):
    cfg = write_config(tmp_path, SEXTIC_N2)
    assert main(["spectrum", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    alg = report["results"]["algebraic_energies"]
    assert abs(alg[0] + 2.8284271247461903) < 1e-10
    assert abs(alg[1] - 2.8284271247461903) < 1e-10
    assert all(c["pass"] for c in report["checks"])


def test_spectrum_sanity_mode(tmp_path, capsys):
    cfg = write_config(tmp_path, SEXTIC_N2)
    assert main(["spectrum", "--config", cfg, "--sanity"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [round(e) for e in report["results"]["oracle"]] == [1, 3, 5]


def test_spectrum_ground_state_zero(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"family": {"name": "sextic_qes", "a": 1.0, "b": 0.0, "n": 0}}
    )
    assert main(["spectrum", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["results"]["algebraic_energies"][0]) < 1e-12


# ------------------------------------------------------------------- poles


def test_poles_levels_and_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    csv_path = tmp_path / "levels.csv"
    cfg = write_config(tmp_path, {**SEXTIC_N2, "outputs": {"csv": str(csv_path)}})
    assert main(["poles", "--config", cfg, "--level", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    census = report["results"]["census"]
    assert (census["n_real"], census["n_complex"]) == (0, 2)
    assert abs(census["quantization_value"]) < 1e-8
    assert abs(census["global_count"] - 2) < 1e-8

    csv_lines = csv_path.read_text().strip().splitlines()
    assert csv_lines[0] == "re_z,im_z,kind,re_residue,im_residue"
    assert len(csv_lines) == 3
    for line in csv_lines[1:]:
        fields = line.split(",")
        assert fields[2] == "moving"
        assert abs(float(fields[4]) + 1.0) < 1e-8

    assert main(["poles", "--config", cfg, "--level", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    census = report["results"]["census"]
    assert (census["n_real"], census["n_complex"]) == (2, 0)
    assert abs(census["quantization_value"] - 2) < 1e-8

    # without outputs.csv no CSV is written, in the working directory or elsewhere
    csv_path.unlink()
    assert main(["poles", "--config", write_config(tmp_path, SEXTIC_N2), "--level", "0"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_poles_origin_node(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(
        tmp_path, {"family": {"name": "sextic_qes", "a": 1.0, "b": 0.0, "n": 1}}
    )
    assert main(["poles", "--config", cfg, "--level", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    poles = report["results"]["poles"]
    assert len(poles) == 1
    assert abs(poles[0]["location"]["re"]) < 1e-12
    assert abs(poles[0]["residue"]["im"] + 1.0) < 1e-8


def test_poles_level_out_of_range(tmp_path):
    cfg = write_config(tmp_path, SEXTIC_N2)
    assert main(["poles", "--config", cfg, "--level", "5"]) == 1


# ------------------------------------------------------------------ verify


def test_verify_sextic_instances_pass(tmp_path, capsys):
    for n in (0, 1, 2):
        cfg = write_config(
            tmp_path,
            {"family": {"name": "sextic_qes", "a": 1.0, "b": 0.0, "n": n}},
            name=f"v{n}.json",
        )
        assert main(["verify", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["first_failure"] is None


def test_verify_perturbed_family_fails_with_truncation(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"family": {"name": "sextic", "alpha": -6.9, "beta": 0.0, "gamma": 1.0}}
    )
    assert main(["verify", "--config", cfg]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["checks"][0]["name"] == "recursion_truncates"
    assert not report["checks"][0]["pass"]
    assert "truncate" in report["checks"][0]["measured"]


def test_verify_radial_example(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "family": {"name": "radial_sextic", "S": 1.25, "a": 1.0, "b": 0.5, "M": 2},
        },
    )
    assert main(["verify", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(c["pass"] for c in report["checks"])
    names = [c["name"] for c in report["checks"]]
    assert "state_0_infinity_exponent" in names


@pytest.mark.parametrize(
    "family",
    [
        {"name": "circular", "S1": 1.0, "S2": 1.2, "q1": 1.5, "M": 2},
        {"name": "hyperbolic", "S1": 1.0, "S2": 0.9, "q1": 1.0, "M": 2},
        {"name": "sextic_qes", "a": 1.0, "b": 0.0, "n": 12},
        {"name": "circular", "S1": 0.62, "S2": 0.61, "q1": 1.0, "M": 6},
    ],
    ids=["circular", "hyperbolic", "sextic-n12", "circular-small-exponents"],
)
def test_verify_passes_at_default_tolerances(tmp_path, capsys, family):
    cfg = write_config(tmp_path, {"family": family})
    assert main(["verify", "--config", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["first_failure"] is None


@pytest.mark.parametrize("command", ["verify", "spectrum"])
def test_oracle_failure_still_emits_report(tmp_path, capsys, command):
    # A box of half-width 1 truncates the sextic's bound states grossly.
    cfg = write_config(tmp_path, {**SEXTIC_N2, "grid": {"x_min": -1.0, "x_max": 1.0}})
    assert main([command, "--config", cfg]) == 2
    report = json.loads(capsys.readouterr().out)
    failed = [c for c in report["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["oracle_convergence"]
    assert "gross" in failed[0]["measured"]
    assert report["results"]["first_failure"] == "oracle_convergence"


@pytest.mark.parametrize("command", ["verify", "spectrum"])
@pytest.mark.parametrize(
    "config",
    [
        {**SEXTIC_N2, "grid": {"x_min": -2.2, "x_max": 2.2}},
        {
            "family": {"name": "circular", "S1": 0.62, "S2": 0.61, "q1": 1.0, "M": 2},
            "grid": {"x_min": 1e-3, "x_max": 1.5697963267948966},
        },
    ],
    ids=["sextic-short-box", "circular-off-wall"],
)
def test_poorly_certified_oracle_fails_its_check(tmp_path, capsys, command, config):
    # these grids truncate the states: the oracle converges but certifies its
    # levels only to 1e-3..1, so its containment check must not pass
    cfg = write_config(tmp_path, config)
    assert main([command, "--config", cfg]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["first_failure"] == "oracle_certified"
    certified = next(c for c in report["checks"] if c["name"] == "oracle_certified")
    assert certified["measured"] > certified["tolerance"] == 1e-4
    for check in report["checks"]:
        if check["name"].endswith("_oracle_containment"):
            assert check["tolerance"] == 1e-4


@pytest.mark.parametrize("command", ["verify", "poles"])
def test_library_error_still_emits_report(tmp_path, capsys, command):
    # the recursion's leading coefficient vanishes for this instance
    cfg = write_config(tmp_path, {"family": {"name": "circular", "S1": 1.1, "S2": 1.3, "q1": 1.0, "M": 16}})
    assert main([command, "--config", cfg]) == 2
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["results"]["first_failure"] == "algebraic_states"
    failed = [c for c in report["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["algebraic_states"]
    assert "leading recursion coefficient vanished" in failed[0]["measured"]
    assert "leading recursion coefficient vanished" in err


@pytest.mark.parametrize("argv,states", [(["verify"], 3), (["poles", "--level", "1"], 1)], ids=["verify", "poles"])
def test_one_root_solve_per_state(tmp_path, monkeypatch, argv, states):
    # the package re-exports the function qmf under the submodule's name
    qmf_module = importlib.import_module("qhjqes.qmf")
    real_roots, calls = qmf_module.poly_roots, []
    monkeypatch.setattr(qmf_module, "poly_roots", lambda pol: calls.append(pol) or real_roots(pol))
    cfg = write_config(tmp_path, {"family": {"name": "circular", "S1": 1.0, "S2": 1.2, "q1": 1.5, "M": 2}})
    assert main(argv + ["--config", cfg, "--out", str(tmp_path / "report.json")]) == 0
    assert len(calls) == states


@pytest.mark.parametrize(
    "family",
    [
        SEXTIC_N2["family"],
        {"name": "sextic_qes", "a": 1.0, "b": 0.5, "n": 3},
        {"name": "radial_sextic", "S": 1.25, "a": 1.0, "b": 0.5, "M": 2},
        {"name": "circular", "S1": 1.0, "S2": 1.2, "q1": 1.5, "M": 2},
        {"name": "hyperbolic", "S1": 1.0, "S2": 0.9, "q1": 1.0, "M": 2},
    ],
    ids=lambda f: f["name"],
)
def test_verify_carries_every_derive_check(tmp_path, capsys, family):
    cfg = write_config(tmp_path, {"family": family})
    names = {}
    for command in ("derive", "verify"):
        assert main([command, "--config", cfg]) == 0
        names[command] = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
    assert names["derive"] and set(names["derive"]) <= set(names["verify"])


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", os.path.join(REPO, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_resolve_to_functions():
    # the benchmark's tracer wraps these names where the CLI looks them up
    plan = _load_tracing().wrap_plan()
    assert plan
    for owner, attr, *_ in plan:
        assert inspect.isfunction(getattr(owner, attr, None)), f"{owner.__name__}.{attr}"


def test_traced_verify_records_oracle_node_counts(tmp_path):
    # the benchmark's traced pass reads node counts from the oracle's spans
    tracing = _load_tracing()
    cfg = write_config(tmp_path, {"family": {"name": "radial_sextic", "S": 1.25, "a": 1.0, "b": 0.5, "M": 2}})
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    assert main(["verify", "--config", cfg, "--out", str(plain)]) == 0
    tracer = tracing.Tracer()
    with tracer.installed():
        assert tracer.root("cli.main", "cli", 0, main, ["verify", "--config", cfg, "--out", str(traced)]) == 0
    assert traced.read_bytes() == plain.read_bytes()
    for name in ("oracle.refine", "oracle.low_spectrum"):
        infos = [info for span, info in zip(tracer.name, tracer.info) if span == name]
        assert infos and all(type(info) is int and info > 0 for info in infos), name


def test_cli_import_loads_no_scipy():
    package_root = os.path.dirname(os.path.dirname(qhjqes.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, qhjqes.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ------------------------------------------------------------ serialization


def test_canonical_json_formatting():
    text = canonical_json({"b": 1.5, "a": [True, None, 2], "z": 1j})
    assert text.index('"a"') < text.index('"b"') < text.index('"z"')
    assert "1.5" in text and "true" in text and "null" in text


def test_canonical_json_rejects_non_finite():
    with pytest.raises(ValueError):
        canonical_json({"x": float("inf")})


def test_console_entry_point(tmp_path):
    cfg = write_config(tmp_path, SEXTIC_N2)
    # the child imports the same package as this test, installed or not
    package_root = os.path.dirname(os.path.dirname(qhjqes.__file__))
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "qhjqes.cli", "derive", "--config", cfg],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["n"] == 2
