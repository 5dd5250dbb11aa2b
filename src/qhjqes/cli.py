"""Command-line orchestration: derive, spectrum, poles, verify.

Configs and reports are JSON. Reports are deterministic: keys are sorted and
every float is printed with 17 significant digits, so identical configs give
byte-identical reports. Each command builds its checks in stages; a library
error inside a stage stops the command and is recorded as a failed check
named after the stage, so every run with a valid config writes a report.
``results.first_failure`` names the first failed check. Exit codes: 0 pass,
1 usage/config error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
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

_SCHEMA_VERSION = "2"

_FAMILY_FIELDS = {
    "sextic": ("alpha", "beta", "gamma"),
    "sextic_qes": ("a", "b", "n"),
    "radial_sextic": ("S", "a", "b", "M"),
    "circular": ("S1", "S2", "q1", "M"),
    "hyperbolic": ("S1", "S2", "q1", "M"),
}

_DEFAULT_TOLERANCES = {"residue_tol": 1e-8, "contour_tol": 1e-8, "oracle_tol": 1e-4}

# What a library stage raises on an instance it cannot handle.
_STAGE_ERRORS = (ArithmeticError, ValueError, oracle.OracleConvergenceError)


class ConfigError(ValueError):
    pass


def _require_keys(mapping: dict, allowed: tuple, where: str, required: tuple = ()):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be an object")
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
    for key in fields:
        v = spec[key]
        if key in ("n", "M"):
            if type(v) is not int:
                raise ConfigError(f"family {key} must be an integer, got {v!r}")
        elif type(v) not in (int, float) or not math.isfinite(v):
            raise ConfigError(f"family {key} must be a finite number, got {v!r}")
    try:
        if name == "sextic":
            return Sextic(float(spec["alpha"]), float(spec["beta"]), float(spec["gamma"]))
        if name == "sextic_qes":
            return engine.qes_parameterize(
                "sextic", spec["n"], a=float(spec["a"]), b=float(spec["b"])
            )
        if name == "radial_sextic":
            return RadialSextic(float(spec["S"]), float(spec["a"]), float(spec["b"]), spec["M"])
        if name == "circular":
            return Circular(float(spec["S1"]), float(spec["S2"]), float(spec["q1"]), spec["M"])
        return Hyperbolic(float(spec["S1"]), float(spec["S2"]), float(spec["q1"]), spec["M"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid family parameters: {exc}") from exc


def _check_grid(grid) -> None:
    """The oracle's domain: finite ends with x_max > x_min, and an optional integer starting node count."""
    _require_keys(grid, ("x_min", "x_max", "n"), "grid", ("x_min", "x_max"))
    try:
        lo, hi = float(grid["x_min"]), float(grid["x_max"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"grid ends must be numbers: {exc}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise ConfigError(f"grid needs finite ends with x_max > x_min, got {lo!r}..{hi!r}")
    n = grid.get("n", oracle.N_START)
    if type(n) is not int or not oracle.N_MIN <= n <= oracle.N_MAX:
        raise ConfigError(f"grid n must be an integer in {oracle.N_MIN}..{oracle.N_MAX}, got {n!r}")


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
        _check_grid(cfg["grid"])
    tols = dict(_DEFAULT_TOLERANCES)
    if "tolerances" in cfg:
        _require_keys(cfg["tolerances"], tuple(_DEFAULT_TOLERANCES), "tolerances")
        for k, v in cfg["tolerances"].items():
            if type(v) not in (int, float) or not (math.isfinite(v) and v > 0):
                raise ConfigError(f"tolerance {k} must be a finite positive number, got {v!r}")
            tols[k] = float(v)
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
# Stages and the checks that commands share.


class _StageFailed(Exception):
    """A stage raised a library error; ``check`` names the failed check that records it."""

    def __init__(self, check: str, cause: Exception):
        super().__init__(str(cause))
        self.check = check


@contextlib.contextmanager
def _stage(check: str):
    """Stop the command with the failed check ``check`` if the block raises a library error."""
    try:
        yield
    except _STAGE_ERRORS as exc:
        raise _StageFailed(check, exc) from exc


def _algebraic_states(family, checks: list) -> tuple:
    """The algebraic states, after the checks that the recursion truncates and its energies are real."""
    try:
        states = spectra.algebraic_states(family)
    except spectra.QESConditionError as exc:
        raise _StageFailed("recursion_truncates", exc) from exc
    except spectra.NonRealEnergyError as exc:
        checks.append(_check("recursion_truncates", 0.0, 0.0, 1.0))
        raise _StageFailed("algebraic_energies_real", exc) from exc
    except _STAGE_ERRORS as exc:
        raise _StageFailed("algebraic_states", exc) from exc
    checks.append(_check("recursion_truncates", 0.0, 0.0, 1.0))
    checks.append(_check("algebraic_energies_real", 0.0, 0.0, 1.0))
    return states


def _ledger_checks(ledger: engine.QuantizationLedger, checks: list) -> None:
    """The ledger's balance check and its closed-form (sextic) or M check."""
    family = ledger.family
    lhs = ledger.solved_condition["lhs_value"]
    checks.append(_check("ledger_balance", ledger.balance_residual, 0.0, 1e-10))
    if family_kind(family) == "sextic":
        target = family.condition_value
        checks.append(_check("condition_matches_closed_form", lhs, target, 1e-10 * max(1.0, abs(target))))
    else:
        checks.append(_check("ledger_count_equals_M", lhs, family.M, 1e-9))


def _oracle_matches(family, config: dict, states, checks: list) -> tuple[list, list]:
    """The oracle's energies and each state's nearest oracle level, after the containment checks.

    ``oracle_certified`` fails when the oracle cannot certify the matched
    levels to ``oracle_tol``; each difference is held to ``oracle_tol``
    itself, so a poorly certified oracle cannot widen its own check.
    """
    tol = config["_tolerances"]["oracle_tol"]
    grid = config.get("grid")
    options = {}
    if grid:
        options["domain"] = (float(grid["x_min"]), float(grid["x_max"]))
        if "n" in grid:
            options["n_start"] = grid["n"]
    with _stage("oracle_convergence"):
        spec = oracle.refine(family, k=2 * len(states) + 4, tol=max(1e-8, tol / 2.0), **options)
    matches = []
    for s in states:
        j = min(range(len(spec.energies)), key=lambda idx: abs(spec.energies[idx] - s.energy))
        matches.append(
            {
                "algebraic": s.energy,
                "oracle": spec.energies[j],
                "difference": abs(spec.energies[j] - s.energy),
                "certified_error": spec.error_estimates[j],
            }
        )
    checks.append(_check("oracle_certified", max(m["certified_error"] for m in matches), 0.0, tol))
    for s, m in zip(states, matches):
        checks.append(_check(f"state_{s.index}_oracle_containment", m["difference"], 0.0, tol))
    return list(spec.energies), matches


def _output_path(config: dict, key: str) -> str | None:
    return _resolve_out((config.get("outputs") or {}).get(key))


# ----------------------------------------------------------------------
# Commands. Each fills ``results`` and ``checks`` in place.


def cmd_derive(config: dict, results: dict, checks: list) -> None:
    family = build_family(config["family"])
    results["family_kind"] = family_kind(family)
    with _stage("qes_condition"):
        ledger = engine.quantization_ledger(family)
    _ledger_checks(ledger, checks)
    results["ledger"] = [
        {"source": e.source, "value": e.value, "detail": e.detail} for e in ledger.entries
    ]
    results["branches_at_infinity"] = [
        {
            "label": c.label,
            "leading_coefficient": c.leading_coefficient,
            "selected": c.label == ledger.selected_branch,
        }
        for c in ledger.infinity_branches
    ]
    results["solved_condition"] = dict(ledger.solved_condition)
    results["n"] = ledger.n


def cmd_spectrum(config: dict, results: dict, checks: list, sanity: bool = False) -> None:
    if sanity:
        with _stage("oracle_convergence"):
            spec = oracle.refine(lambda x: x * x, k=3, tol=1e-6, domain=(-10.0, 10.0))
        results.update({"mode": "harmonic-sanity", "oracle": list(spec.energies)})
        for i, exact in enumerate((1.0, 3.0, 5.0)):
            checks.append(_check(f"harmonic_level_{i}", spec.energies[i], exact, 1e-4))
        return
    family = build_family(config["family"])
    states = _algebraic_states(family, checks)
    results["algebraic_energies"] = [s.energy for s in states]
    results["oracle_energies"], results["matches"] = _oracle_matches(family, config, states, checks)


def cmd_poles(config: dict, results: dict, checks: list, level: int) -> None:
    tols = config["_tolerances"]
    family = build_family(config["family"])
    states = _algebraic_states(family, checks)
    if not 0 <= level < len(states):
        raise ConfigError(f"level {level} out of range (0..{len(states) - 1})")
    state = states[level]
    results.update({"level": level, "energy": state.energy})
    with _stage("census"):
        ev = build_qmf(state)
        census = zero_census(ev)
        reports = pole_reports(ev)

    checks.append(_check("counting_real_plus_complex", census.total, state.n_label, 0.0))
    checks.append(
        _check("quantization_equals_real_count", census.quantization_value, census.n_real, tols["contour_tol"])
    )
    checks.append(_check("global_count_equals_n", census.global_count, state.n_label, tols["contour_tol"]))
    for i, rep in enumerate(r for r in reports if r.kind == "moving"):
        checks.append(_check(f"moving_residue_{i}", rep.measured_residue, ev.moving_residue, tols["residue_tol"]))
    results["census"] = {
        "n_real": census.n_real,
        "n_complex": census.n_complex,
        "total": census.total,
        "quantization_value": census.quantization_value,
        "global_count": census.global_count,
    }
    results["poles"] = [
        {
            "location": r.location,
            "multiplicity": r.multiplicity,
            "residue": r.measured_residue,
            "kind": r.kind,
            "axis": r.axis,
        }
        for r in reports
    ]
    csv_path = _output_path(config, "csv")
    if csv_path:
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
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def cmd_verify(config: dict, results: dict, checks: list) -> None:
    tols = config["_tolerances"]
    family = build_family(config["family"])
    kind = family_kind(family)
    results["family_kind"] = kind
    states = _algebraic_states(family, checks)
    results["algebraic_energies"] = [s.energy for s in states]
    _ledger_checks(states[0].gauge.ledger, checks)

    for s in states:
        tag = f"state_{s.index}"
        checks.append(
            _check(f"{tag}_eigen_identity_residual", spectra.schrodinger_residual(s), 0.0, 1e-8)
        )
        with _stage(f"{tag}_census"):
            ev = build_qmf(s)
            census = zero_census(ev)
            worst = max((abs(residue_at_zero(ev, z) - ev.moving_residue) for z in census.zeros), default=0.0)
            fit = infinity_order_check(ev) if kind in ("sextic", "radial_sextic") else None
        checks.append(_check(f"{tag}_degree_law", census.total, s.n_label, 0.0))
        checks.append(
            _check(f"{tag}_quantization", census.quantization_value, census.n_real, tols["contour_tol"])
        )
        checks.append(_check(f"{tag}_global_count", census.global_count, s.n_label, tols["contour_tol"]))
        checks.append(_check(f"{tag}_residues", worst, 0.0, tols["residue_tol"]))
        if fit is not None:
            checks.append(_check(f"{tag}_infinity_exponent", fit["exponent"], 3.0, 0.01))
            target = 1j * math.sqrt(family.gamma if kind == "sextic" else family.a**2)
            checks.append(
                _check(f"{tag}_infinity_coefficient", fit["coefficient"], target, 1e-3 * abs(target))
            )

    _oracle_matches(family, config, states, checks)


_COMMANDS = {"derive": cmd_derive, "spectrum": cmd_spectrum, "poles": cmd_poles, "verify": cmd_verify}


def run_command(command: str, config: dict, **options) -> tuple[dict, int]:
    """Run one command on a loaded config: its report, and exit code 2 if any check failed."""
    results: dict = {}
    checks: list = []
    try:
        _COMMANDS[command](config, results, checks, **options)
    except _StageFailed as failed:
        print(f"verification failure: {failed}", file=sys.stderr)
        results["error"] = str(failed)
        checks.append(_failed_check(failed.check, str(failed)))
    failing = [c["name"] for c in checks if not c["pass"]]
    results["first_failure"] = failing[0] if failing else None
    return make_report(command, config, results, checks), 2 if failing else 0


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
    options = {k: v for k, v in vars(args).items() if k not in ("command", "config", "out")}

    try:
        config = load_config(args.config)
        report, code = run_command(args.command, config, **options)
        _emit(report, _resolve_out(args.out) or _output_path(config, "report"))
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except _STAGE_ERRORS as exc:
        # Outside any stage, e.g. a non-finite number that cannot go in a report.
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
