"""Seeded instances and their ground truth.

A run makes whole rounds of a workload's fixed cycle of cells (family, size,
level), so every seed exercises the same mix of cells in the same order; the
seed draws only the continuous parameters. Ground truth comes from the
closed-form conditions, never from the library.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

FIVE = ("sextic", "sextic_qes", "radial_sextic", "circular", "hyperbolic")
FOUR = FIVE[1:]  # one config name per family, each on its solvability condition

# The README example: condition value 7 = 3 + 2n, so n = 2 with energies +-2 sqrt(2).
GOLDEN = {"name": "sextic", "alpha": -7.0, "beta": 0.0, "gamma": 1.0}
GOLDEN_ENERGIES = (-2.0 * math.sqrt(2.0), 2.0 * math.sqrt(2.0))


def sextic_label(alpha: float, beta: float, gamma: float) -> int | None:
    """n with (beta^2/(4 gamma) - alpha)/sqrt(gamma) = 3 + 2n, or None off-condition."""
    value = (beta * beta / (4.0 * gamma) - alpha) / math.sqrt(gamma)
    n = round((value - 3.0) / 2.0)
    if n < 0 or abs(value - (3.0 + 2.0 * n)) > 1e-10 * max(1.0, abs(value)):
        return None
    return n


def condition_value(family: dict) -> float:
    """The left-hand side the ledger must solve to: 3 + 2n for sextics, M otherwise."""
    name = family["name"]
    if name == "sextic":
        return (family["beta"] ** 2 / (4.0 * family["gamma"]) - family["alpha"]) / math.sqrt(family["gamma"])
    if name == "sextic_qes":
        return 3.0 + 2.0 * family["n"]
    return float(family["M"])


def size_of(family: dict) -> int | None:
    """n (sextics) or M (other families); None for an off-condition sextic."""
    name = family["name"]
    if name == "sextic":
        return sextic_label(family["alpha"], family["beta"], family["gamma"])
    return family["n"] if name == "sextic_qes" else family["M"]


def state_count(family: dict) -> int:
    """Algebraic energies: floor(n/2) + 1 for the sextic, M + 1 otherwise."""
    size = size_of(family)
    return size // 2 + 1 if family["name"] in ("sextic", "sextic_qes") else size + 1


def moving_pole_count(family: dict) -> int:
    """Degree of a state's polynomial factor in its census variable."""
    size = size_of(family)
    return 2 * size if family["name"] in ("radial_sextic", "hyperbolic") else size


FIXED_POLE_COUNT = {"sextic": 0, "sextic_qes": 0, "radial_sextic": 1, "circular": 2, "hyperbolic": 3}


def _latin_hypercube(rng: np.random.Generator, visits: int, dims: int = 4) -> np.ndarray:
    """``visits`` points on the unit cube, one in each 1/visits slice of every axis.

    Point ``visits - 1 - j`` mirrors point ``j`` through the centre (u -> 1 - u),
    so a cost that grows with a parameter is offset by its mirror image, and
    each run covers every parameter range evenly, whatever the seed.
    """
    half = visits // 2
    pairs = np.stack([rng.permutation(half) for _ in range(dims)], axis=1)
    low = np.where(rng.random((half, dims)) < 0.5, pairs, visits - 1 - pairs)
    first = (low + rng.random((half, dims))) / visits
    middle = (visits // 2 + rng.random((visits % 2, dims))) / visits
    return np.concatenate([first, middle, 1.0 - first[::-1]])


def _scale(u: float, lo: float, hi: float) -> float:
    return float(lo + (hi - lo) * u)


def _draw(u: np.ndarray, name: str, size: int) -> dict:
    """One family of the named kind from the unit-cube point u; ranges as in the acceptance suite."""
    if name == "sextic":  # raw draw: off-condition with probability one
        return {"name": name, "alpha": _scale(u[0], -10.0, 10.0), "beta": _scale(u[1], -5.0, 5.0),
                "gamma": _scale(u[2], 0.1, 10.0)}
    if name == "sextic_qes":
        return {"name": name, "a": _scale(u[0], 0.5, 2.0), "b": _scale(u[1], -1.0, 1.0), "n": size}
    if name == "radial_sextic":
        return {"name": name, "S": _scale(u[0], 0.8, 2.5), "a": _scale(u[1], 0.5, 2.0),
                "b": _scale(u[2], -1.0, 1.0), "M": size}
    q1 = _scale(u[2], 0.3, 2.5)
    if name == "circular" and u[3] < 0.5:
        q1 = -q1
    return {"name": name, "S1": _scale(u[0], 0.6, 2.0), "S2": _scale(u[1], 0.6, 2.0), "q1": q1, "M": size}


# One round of each workload: (command, config name, n/M, level) per op; None
# as the name stands for the README instance.
ROUNDS = {
    # derive; the five config names round-robin, n/M through 0..12.
    "derive-mixed": [("derive", FIVE[i % 5], i // 5, None) for i in range(65)],
    # verify; the README instance, then the four families at n/M = 1..4.
    "verify-small": [("verify", None, 0, None)]
    + [("verify", FOUR[i % 4], 1 + i // 4, None) for i in range(16)],
    # poles; the circular family at M = 8..12 on the bottom, middle and top level.
    "poles-large": [("poles", "circular", 8 + i % 5, (0, (8 + i % 5) // 2, 8 + i % 5)[i // 5]) for i in range(15)],
}

# Seconds one round takes on the reference machine (2 cores of an x86_64 host):
# a run makes the whole number of rounds nearest its --seconds there. The
# count depends on nothing measured, so two runs of a seed make the same ops.
ROUND_SECONDS = {"derive-mixed": 0.165, "verify-small": 15.0, "poles-large": 12.5}


def round_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def instances(workload: str, seed: int, rounds: int):
    """The ops of a run: ``rounds`` passes over the workload's round, parameters drawn from ``seed``.

    Visit r of a cell takes row r of the cell's Latin hypercube. The ops are
    generated one at a time, so the benchmark's heap does not grow with them.
    """
    rng = np.random.default_rng([seed, sorted(ROUNDS).index(workload)])
    cells = ROUNDS[workload]
    points = [_latin_hypercube(rng, rounds) for _ in cells]
    for r in range(rounds):
        for (command, name, size, level), u in zip(cells, points):
            family = dict(GOLDEN) if name is None else _draw(u[r], name, size)
            yield {"command": command, "family": family} | ({} if level is None else {"level": level})


def instances_sha256(ops) -> str:
    """Hash of a run's ops: equal hashes mean equal inputs."""
    digest = hashlib.sha256()
    for inst in ops:
        digest.update(json.dumps(inst, sort_keys=True).encode())
    return digest.hexdigest()
