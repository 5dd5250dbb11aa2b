"""Command-line orchestration: derive, spectrum, poles, verify.

Configs and reports are JSON. Reports are deterministic: keys are sorted and
every float is printed with 17 significant digits, so identical configs give
byte-identical reports. Exit codes: 0 pass, 1 usage/config error, 2
verification failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import engine, oracle, spectra
from .families import Circular, Hyperbolic, RadialSextic, Sextic, family_kind
from .qmf import (
    infinity_order_check,
    pole_reports,
    qmf as build_qmf,
    residue_at_zero,
    zero_census,
)

__all__ = ["main"]

_SCHEMA_VERSION = "1"

_FAMILY_FIELDS = {
    "sextic": ("alpha", "beta", "gamma"),
    "sextic_qes": ("a", "b", "n"),
    "radial_sextic": ("S", "a", "b", "M"),
    "circular": ("S1", "S2", "q1", "M"),
    "hyperbolic": ("S1", "S2", "q1", "M"),
}

_DEFAULT_TOLERANCES = {"residue_tol": 1e-8, "contour_tol": 1e-8, "oracle_tol": 1e-4}


class ConfigError(ValueError):
    pass


class VerificationFailure(RuntimeError):
    pass


def _require_keys(mapping: dict, allowed: tuple, where: str, required: tuple = ()):
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")
    missing = sorted(set(required) - set(mapping))
    if missing:
        raise ConfigError(f"missing keys in {where}: {missing}")


def build_family(spec: dict):
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError("family must be an object with a 'name'")
    name = spec["name"]
    if name not in _FAMILY_FIELDS:
        raise ConfigError(f"unknown family name {name!r}")
    fields = _FAMILY_FIELDS[name]
    _require_keys(spec, ("name",) + fields, f"family {name!r}", fields)
    try:
        if name == "sextic":
            return Sextic(float(spec["alpha"]), float(spec["beta"]), float(spec["gamma"]))
        if name == "sextic_qes":
            return engine.qes_parameterize(
                "sextic", int(spec["n"]), a=float(spec["a"]), b=float(spec["b"])
            )
        if name == "radial_sextic":
            return RadialSextic(float(spec["S"]), float(spec["a"]), float(spec["b"]), int(spec["M"]))
        if name == "circular":
            return Circular(float(spec["S1"]), float(spec["S2"]), float(spec["q1"]), int(spec["M"]))
        return Hyperbolic(float(spec["S1"]), float(spec["S2"]), float(spec["q1"]), int(spec["M"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid family parameters: {exc}") from exc


def load_config(path: str) -> dict:
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(cfg, ("family", "grid", "tolerances", "outputs"), "config", ("family",))
    if "grid" in cfg:
        _require_keys(cfg["grid"], ("x_min", "x_max", "n"), "grid")
    tols = dict(_DEFAULT_TOLERANCES)
    if "tolerances" in cfg:
        _require_keys(cfg["tolerances"], tuple(_DEFAULT_TOLERANCES), "tolerances")
        tols.update({k: float(v) for k, v in cfg["tolerances"].items()})
    if "outputs" in cfg:
        _require_keys(cfg["outputs"], ("report", "csv"), "outputs")
    cfg.setdefault("tolerances", {})
    build_family(cfg["family"])  # validate eagerly
    cfg["_tolerances"] = tols
    return cfg


# ----------------------------------------------------------------------
# Deterministic report serialization.


def _fmt_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("non-finite number in report")
    return format(x, ".17g")


def _to_jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return {"im": obj.imag, "re": obj.real}
    return obj


def canonical_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj):
            items.append(f'{pad}  "{k}": {canonical_json(obj[k], indent + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {canonical_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, complex):
        return canonical_json({"im": obj.imag, "re": obj.real}, indent)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        import json

        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)} in a report")


def make_report(command: str, config: dict, results: dict, checks: list) -> dict:
    inputs = {k: v for k, v in config.items() if not k.startswith("_")}
    return {
        "schema_version": _SCHEMA_VERSION,
        "command": command,
        "inputs": _to_jsonable(inputs),
        "results": _to_jsonable(results),
        "checks": _to_jsonable(checks),
    }


def _check(name: str, measured, expected, tolerance: float) -> dict:
    if isinstance(measured, complex) or isinstance(expected, complex):
        err = abs(complex(measured) - complex(expected))
    else:
        err = abs(float(measured) - float(expected))
    return {
        "name": name,
        "pass": bool(err <= tolerance),
        "measured": measured,
        "expected": expected,
        "tolerance": tolerance,
    }


def _failed_check(name: str, message: str) -> dict:
    return {"name": name, "pass": False, "measured": message, "expected": "", "tolerance": 0.0}


# ----------------------------------------------------------------------
# Commands.


def cmd_derive(config: dict) -> tuple[dict, int]:
    family = build_family(config["family"])
    checks = []
    results = {"family_kind": family_kind(family)}
    try:
        ledger = engine.quantization_ledger(family)
    except (engine.NonQESError, engine.BranchRuleError, engine.MatchingFailure) as exc:
        results["error"] = str(exc)
        checks.append(_failed_check("qes_condition", str(exc)))
        return make_report("derive", config, results, checks), 2

    kind = family_kind(family)
    chart = engine.INVERSION if kind in ("sextic", "radial_sextic") else (
        engine.TRIG if kind == "circular" else engine.HYPER
    )
    rdata = engine.riccati_in_chart(family, chart)
    pair = engine.infinity_branch_candidates(rdata)
    selected = engine.select_physical_branch(pair, family, "infinity")
    results["ledger"] = [
        {"source": e.source, "value": e.value, "detail": e.detail} for e in ledger.entries
    ]
    results["branches_at_infinity"] = [
        {
            "label": c.label,
            "leading_coefficient": c.leading_coefficient,
            "selected": c.label == selected.label,
        }
        for c in pair
    ]
    results["solved_condition"] = dict(ledger.solved_condition)
    results["n"] = ledger.n
    checks.append(_check("ledger_balance", ledger.balance_residual, 0.0, 1e-10))
    if kind == "sextic":
        checks.append(
            _check(
                "condition_matches_closed_form",
                ledger.solved_condition["lhs_value"],
                family.condition_value,
                1e-10 * max(1.0, abs(family.condition_value)),
            )
        )
    else:
        checks.append(_check("ledger_count_equals_M", ledger.solved_condition["lhs_value"], family.M, 1e-9))
    code = 0 if all(c["pass"] for c in checks) else 2
    return make_report("derive", config, results, checks), code


def _oracle_for(family, config: dict, n_states: int, tol: float):
    grid_cfg = config.get("grid")
    domain = None
    n_start = 1024
    if grid_cfg:
        domain = (float(grid_cfg["x_min"]), float(grid_cfg["x_max"]))
        n_start = int(grid_cfg.get("n", 1024))
    k = n_states + 4
    spec = oracle.refine(family, k=k, tol=tol, domain=domain, n_start=n_start)
    return spec


def cmd_spectrum(config: dict, sanity: bool = False) -> tuple[dict, int]:
    tols = config["_tolerances"]
    checks = []
    if sanity:
        spec = oracle.refine(lambda x: x * x, k=3, tol=1e-6, domain=(-10.0, 10.0))
        results = {"mode": "harmonic-sanity", "oracle": list(spec.energies)}
        for i, exact in enumerate((1.0, 3.0, 5.0)):
            checks.append(_check(f"harmonic_level_{i}", spec.energies[i], exact, 1e-4))
        code = 0 if all(c["pass"] for c in checks) else 2
        return make_report("spectrum", config, results, checks), code

    family = build_family(config["family"])
    try:
        states = spectra.algebraic_states(family)
    except (spectra.QESConditionError, spectra.NonRealEnergyError) as exc:
        return (
            make_report("spectrum", config, {"error": str(exc)}, [_failed_check("algebraic_sector", str(exc))]),
            2,
        )
    alg = [s.energy for s in states]
    refine_tol = max(1e-8, tols["oracle_tol"] / 2.0)
    try:
        spec = _oracle_for(family, config, 2 * len(alg), refine_tol)
    except oracle.OracleConvergenceError as exc:
        results = {"algebraic_energies": alg, "error": str(exc)}
        return make_report("spectrum", config, results, [_failed_check("oracle_convergence", str(exc))]), 2
    table = []
    for i, e in enumerate(alg):
        j = min(range(len(spec.energies)), key=lambda idx: abs(spec.energies[idx] - e))
        diff = abs(spec.energies[j] - e)
        certified = spec.error_estimates[j]
        tol_i = max(tols["oracle_tol"], certified)
        table.append(
            {
                "algebraic": e,
                "oracle": spec.energies[j],
                "difference": diff,
                "certified_error": certified,
            }
        )
        checks.append(_check(f"energy_{i}_in_oracle", diff, 0.0, tol_i))
    results = {
        "algebraic_energies": alg,
        "oracle_energies": list(spec.energies),
        "matches": table,
    }
    code = 0 if all(c["pass"] for c in checks) else 2
    return make_report("spectrum", config, results, checks), code


def cmd_poles(config: dict, level: int) -> tuple[dict, int, str]:
    tols = config["_tolerances"]
    family = build_family(config["family"])
    states = spectra.algebraic_states(family)
    if not 0 <= level < len(states):
        raise ConfigError(f"level {level} out of range (0..{len(states) - 1})")
    state = states[level]
    census = zero_census(state)
    reports = pole_reports(state)
    ev = build_qmf(state)

    checks = [
        _check("counting_real_plus_complex", census.total, state.n_label, 0.0),
        _check("quantization_equals_real_count", census.quantization_value, census.n_real, tols["contour_tol"]),
        _check("global_count_equals_n", census.global_count, state.n_label, tols["contour_tol"]),
    ]
    for i, rep in enumerate(r for r in reports if r.kind == "moving"):
        checks.append(
            _check(
                f"moving_residue_{i}",
                rep.measured_residue,
                ev.moving_residue,
                tols["residue_tol"],
            )
        )
    results = {
        "level": level,
        "energy": state.energy,
        "census": {
            "n_real": census.n_real,
            "n_complex": census.n_complex,
            "total": census.total,
            "quantization_value": census.quantization_value,
            "global_count": census.global_count,
        },
        "poles": [
            {
                "location": r.location,
                "multiplicity": r.multiplicity,
                "residue": r.measured_residue,
                "kind": r.kind,
                "axis": r.axis,
            }
            for r in reports
        ],
    }
    lines = ["re_z,im_z,kind,re_residue,im_residue"]
    for r in reports:
        lines.append(
            ",".join(
                [
                    _fmt_float(r.location.real),
                    _fmt_float(r.location.imag),
                    r.kind,
                    _fmt_float(r.measured_residue.real),
                    _fmt_float(r.measured_residue.imag),
                ]
            )
        )
    csv_text = "\n".join(lines) + "\n"
    code = 0 if all(c["pass"] for c in checks) else 2
    return make_report("poles", config, results, checks), code, csv_text


def cmd_verify(config: dict) -> tuple[dict, int]:
    tols = config["_tolerances"]
    family = build_family(config["family"])
    kind = family_kind(family)
    checks = []
    results = {"family_kind": kind}

    try:
        matrix = spectra.recursion_matrix(family)
        checks.append(_check("recursion_truncates", 0.0, 0.0, 1.0))
    except spectra.QESConditionError as exc:
        checks.append(_failed_check("recursion_truncates", str(exc)))
        results["error"] = str(exc)
        return make_report("verify", config, results, checks), 2

    try:
        energies = spectra.algebraic_spectrum(matrix)
        checks.append(_check("algebraic_energies_real", 0.0, 0.0, 1.0))
    except spectra.NonRealEnergyError as exc:
        checks.append(_failed_check("algebraic_energies_real", str(exc)))
        return make_report("verify", config, results, checks), 2
    results["algebraic_energies"] = [float(e) for e in energies]

    try:
        ledger = engine.quantization_ledger(family)
        checks.append(_check("ledger_balance", ledger.balance_residual, 0.0, 1e-10))
        if kind == "sextic":
            checks.append(
                _check(
                    "condition_matches_closed_form",
                    ledger.solved_condition["lhs_value"],
                    family.condition_value,
                    1e-10 * max(1.0, abs(family.condition_value)),
                )
            )
    except (engine.NonQESError, engine.BranchRuleError, engine.MatchingFailure) as exc:
        checks.append(_failed_check("ledger_closure", str(exc)))

    states = spectra.algebraic_states(family)
    for s in states:
        tag = f"state_{s.index}"
        checks.append(
            _check(f"{tag}_eigen_identity_residual", spectra.schrodinger_residual(s), 0.0, 1e-8)
        )
        census = zero_census(s)
        checks.append(_check(f"{tag}_degree_law", census.total, s.n_label, 0.0))
        checks.append(
            _check(f"{tag}_quantization", census.quantization_value, census.n_real, tols["contour_tol"])
        )
        checks.append(_check(f"{tag}_global_count", census.global_count, s.n_label, tols["contour_tol"]))
        ev = build_qmf(s)
        worst = 0.0
        for z in census.zeros:
            worst = max(worst, abs(residue_at_zero(ev, z) - ev.moving_residue))
        checks.append(_check(f"{tag}_residues", worst, 0.0, tols["residue_tol"]))
        if kind in ("sextic", "radial_sextic"):
            fit = infinity_order_check(ev)
            checks.append(_check(f"{tag}_infinity_exponent", fit["exponent"], 3.0, 0.01))
            target = 1j * math.sqrt(family.gamma if kind == "sextic" else family.a**2)
            checks.append(
                _check(f"{tag}_infinity_coefficient", fit["coefficient"], target, 1e-3 * abs(target))
            )

    refine_tol = max(1e-8, tols["oracle_tol"] / 2.0)
    try:
        spec = _oracle_for(family, config, 2 * len(states), refine_tol)
    except oracle.OracleConvergenceError as exc:
        checks.append(_failed_check("oracle_convergence", str(exc)))
    else:
        for s in states:
            j = min(range(len(spec.energies)), key=lambda idx: abs(spec.energies[idx] - s.energy))
            diff = abs(spec.energies[j] - s.energy)
            tol_i = max(tols["oracle_tol"], spec.error_estimates[j])
            checks.append(_check(f"state_{s.index}_oracle_containment", diff, 0.0, tol_i))

    failing = [c["name"] for c in checks if not c["pass"]]
    results["first_failure"] = failing[0] if failing else None
    code = 0 if not failing else 2
    return make_report("verify", config, results, checks), code


# ----------------------------------------------------------------------
# Entry point.


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get("QHJQES_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(report: dict, out_path: str | None) -> None:
    text = canonical_json(report) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qhjqes",
        description="Derive and verify quasi-exact solvability conditions via the residue ledger.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("derive", "spectrum", "poles", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
        if name == "poles":
            p.add_argument("--level", type=int, default=0, help="algebraic state index")
        if name == "spectrum":
            p.add_argument("--sanity", action="store_true", help="harmonic-oscillator anchor run")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    try:
        config = load_config(args.config)
        out_path = _resolve_out(args.out)
        if args.command == "derive":
            report, code = cmd_derive(config)
        elif args.command == "spectrum":
            report, code = cmd_spectrum(config, sanity=args.sanity)
        elif args.command == "poles":
            report, code, csv_text = cmd_poles(config, args.level)
            csv_path = _resolve_out((config.get("outputs") or {}).get("csv")) or "poles.csv"
            with open(csv_path, "w", encoding="utf-8") as fh:
                fh.write(csv_text)
        else:
            report, code = cmd_verify(config)
        report_path = out_path or _resolve_out((config.get("outputs") or {}).get("report"))
        _emit(report, report_path)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (
        engine.NonQESError,
        engine.BranchRuleError,
        engine.MatchingFailure,
        spectra.QESConditionError,
        spectra.NonRealEnergyError,
        oracle.OracleConvergenceError,
        ArithmeticError,
        ValueError,
    ) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
