"""Independent numerical ground truth for the eigenproblem -psi'' + V psi = E psi.

The oracle solves in the family's chart variable z (``families``). With Q =
(dz/dx)^2, H = -Q d^2/dz^2 - (Q'/2) d/dz + V is self-adjoint for the measure
dz / sqrt(Q). A bare callable V(x) has the identity chart z = x and no walls.
A wall is a finite end z0 of the family's interval, where psi ~ |z - z0|^e
with e read from V alone (the family's ``walls``), so the oracle never sees
the algebraic sector. Writing psi = w phi with w = prod |z - z_i|^e_i, phi
solves the weak problem

    int sqrt(Q) w^2 phi'^2 dz + int U phi^2 w^2 / sqrt(Q) dz = E int phi^2 w^2 / sqrt(Q) dz,

with U = V - Q (L^2 + L') - Q' L / 2 and L = w'/w = sum e_i / (z - z_i), the
formula of ``spectra``'s a0 with the walls in place of the gauge. U is
smooth, and phi is regular at the walls.

The weak form is discretised as a Gauss-rule discrete-variable
representation (DVR). phi is a Lagrange polynomial on the nodes of a
Gauss-Jacobi rule on the grid's image in z. At a wall the mass weight w^2 /
sqrt(Q) is the Jacobi weight |z - z0|^(2e) where Q(z0) != 0, and
|z - z0|^(2e - 1/2) where the chart folds, Q(z0) = 0; the rule's weight
carries that power, so the rule integrates the singular behaviour exactly.
Every other end is a Dirichlet wall: it is a fixed Radau or Lobatto node of
the rule, and its basis function is dropped. With q the rule's weights, r =
w^2 / (sqrt(Q) weight) (constant on the trigonometric chart, (t + 1)^(-1/2)
on the hyperbolic one and 1 on the identity chart) and D the Lagrange
derivative matrix, the mass is diagonal, M = diag(q r), the stiffness is K =
D^T diag(q r Q) D + diag(q r U), and the energies are the eigenvalues of the
symmetric H = M^(-1/2) K M^(-1/2) from numpy's ``eigvalsh``. The caller gives
the x-domain, for families and bare callables alike; on a side where the
family's interval is finite, its end must be that wall.

The smooth weighted equation makes the error fall exponentially with the
node count, so ``refine`` takes the change between N and 1.5 N nodes as each
level's error estimate. Solves on a grown domain (each open end moved
outward by one unit) bound the truncation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .families import IDENTITY, PotentialFamily

__all__ = [
    "Grid",
    "N_MAX",
    "N_START",
    "OracleConvergenceError",
    "OracleSpectrum",
    "check_domain",
    "discretize",
    "low_spectrum",
    "refine",
]

# Node counts ``refine`` starts from and accepts; the dense matrix has N^2 entries.
N_START = 48
N_MAX = 1024


class OracleConvergenceError(RuntimeError):
    """Node refinement hit its ceiling, or the domain does not hold the family."""


@dataclass(frozen=True)
class Grid:
    """A DVR on [x_min, x_max] with ``n_interior`` basis functions (nodes off the Dirichlet ends)."""

    x_min: float
    x_max: float
    n_interior: int

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max) and self.x_max > self.x_min):
            raise ValueError("the ends must be finite with x_max > x_min")
        if not (isinstance(self.n_interior, int) and self.n_interior >= 1):
            raise ValueError("n_interior must be a positive integer")


def check_domain(family, domain: tuple[float, float]) -> tuple[float, float]:
    """The family's x-interval, after refusing a domain whose end is not the wall on a side where it is finite."""
    interval = getattr(family, "interval", (-math.inf, math.inf))
    for end, bound in zip(domain, interval):
        if math.isfinite(bound) and not math.isclose(end, bound, abs_tol=1e-12):
            raise ValueError(f"a grid end at {end!r} is not the wall at {bound!r} of the family's interval {interval}")
    return interval


def _jacobi_mass(alpha: float, beta: float) -> float:
    """Integral of (1 - t)^alpha (1 + t)^beta over [-1, 1]."""
    return math.exp(
        (alpha + beta + 1.0) * math.log(2.0)
        + math.lgamma(alpha + 1.0) + math.lgamma(beta + 1.0) - math.lgamma(alpha + beta + 2.0)
    )


def _jacobi_nodes(n: int, alpha: float, beta: float) -> np.ndarray:
    """Zeros of the degree-n orthogonal polynomial for (1 - t)^alpha (1 + t)^beta on [-1, 1],
    ascending: the eigenvalues of its Jacobi matrix (Golub-Welsch)."""
    k = np.arange(n, dtype=float)
    s = 2.0 * k + alpha + beta
    with np.errstate(divide="ignore", invalid="ignore"):
        diag = (beta**2 - alpha**2) / (s * (s + 2.0))
    diag[0] = (beta - alpha) / (alpha + beta + 2.0)
    k, s = k[1:], s[1:]
    off = 2.0 / s * np.sqrt(k * (k + alpha) * (k + beta) * (k + alpha + beta) / ((s - 1.0) * (s + 1.0)))
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


def _rule(n: int, alpha: float, beta: float, left: bool, right: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, weights and Lagrange derivative matrix D[i, j] = l_j'(t_i) of a rule for
    (1 - t)^alpha (1 + t)^beta on [-1, 1]: n free nodes, plus t = -1 if ``left`` and
    t = +1 if ``right`` (Gauss, Radau or Lobatto).

    The free nodes are the Gauss nodes for the weight times (1 + t)^left
    (1 - t)^right, whose weights are C lam_j^2 / (1 - t_j^2) in their
    barycentric weights lam_j (Szego, Orthogonal Polynomials, 15.3.1); the
    fixed nodes' weights make the rule exact on 1 and t. One pass of
    log |t_i - t_j| gives both the weights and D, in logs so that nothing
    overflows and tiny weights next to a wall with a large exponent keep their
    relative accuracy.
    """
    left, right = int(left), int(right)
    free = _jacobi_nodes(n, alpha + right, beta + left)
    t = np.concatenate([[-1.0] * left, free, [1.0] * right])
    diff = t[:, None] - t[None, :]
    np.fill_diagonal(diff, 1.0)
    log_lam = -np.log(np.abs(diff)).sum(axis=1)  # log |barycentric weight| over all nodes

    log_q = 2.0 * log_lam[left : len(t) - right] + (left - 1) * np.log1p(free) + (right - 1) * np.log1p(-free)
    q = np.exp(log_q - log_q.max())
    q *= _jacobi_mass(alpha + right, beta + left) / (q @ ((1.0 - free) ** right * (1.0 + free) ** left))
    if left or right:
        mass = _jacobi_mass(alpha, beta)
        moments = [mass - q.sum(), mass * (beta - alpha) / (alpha + beta + 2.0) - q @ free]
        ends = [-1.0] * left + [1.0] * right
        end_q = np.linalg.solve(np.vander(ends, len(ends), increasing=True).T, moments[: len(ends)])
        q = np.concatenate([end_q[:left], q, end_q[left:]])

    sign = (-1.0) ** np.arange(len(t) - 1, -1, -1)
    inverse = np.reciprocal(diff, out=diff)  # 1 / (t_i - t_j), in diff's storage
    np.fill_diagonal(inverse, 0.0)
    d = np.outer(sign, sign) * np.exp(log_lam[None, :] - log_lam[:, None]) * inverse
    # D_ii = sum_{j != i} 1 / (t_i - t_j) exactly: the negative row sum cancels once the weights span many
    # orders of magnitude (Baltensperger & Trummer, SIAM J. Sci. Comput. 24, 1465 (2003))
    np.fill_diagonal(d, inverse.sum(axis=1))
    return t, q, d


def discretize(family, grid: Grid) -> np.ndarray:
    """The symmetric DVR matrix H = M^(-1/2) K M^(-1/2) of the wall-factored operator in the chart variable.

    An end on a wall gives the mass weight's Jacobi exponent to the rule;
    every other end is a fixed node whose basis function is dropped.
    """
    interval = check_domain(family, (grid.x_min, grid.x_max))
    if isinstance(family, PotentialFamily):
        num, den = (np.array(c, dtype=float)[::-1] for c in family.potential_in_chart)
        chart, pot, walls = family.chart, lambda z: np.polyval(num, z) / np.polyval(den, z), family.walls
    else:  # a bare callable V(x): the identity chart and no walls
        chart, pot, walls = IDENTITY, family, ()
    ends = [float(z) for z in chart.coordinates(np.array([grid.x_min, grid.x_max]))[0]]
    exponent = [0.0, 0.0]  # the mass weight's Jacobi exponent at x_min and x_max, > 0 on a wall
    q_coeffs = np.real(chart.Q.coeffs)[::-1]
    folded = [z0 for _, z0, _ in walls if np.polyval(q_coeffs, z0) == 0.0]  # the walls where the chart folds
    for position, z0, e in walls:
        side = interval.index(position)
        ends[side], exponent[side] = z0, 2.0 * e - 0.5 * (z0 in folded)
    (z_lo, beta), (z_hi, alpha) = sorted(zip(ends, exponent))  # the chart may decrease
    left, right = beta == 0.0, alpha == 0.0
    t, q, d = _rule(grid.n_interior, alpha, beta, left, right)
    half = 0.5 * (z_hi - z_lo)
    z = z_lo + half * (t + 1.0)
    kept = slice(int(left), len(t) - int(right))
    big_q = np.polyval(q_coeffs, z)
    with np.errstate(all="ignore"):
        # r = w^2 / (sqrt(Q) weight) = sqrt(prod |z - z0| / Q) over the folded walls, up to a constant
        log_r = 0.5 * (sum(np.log(np.abs(z - z0)) for z0 in folded) - np.log(big_q))
        slope = sum(e / (z - z0) for _, z0, e in walls)  # L = w'/w
        curvature = -sum(e / (z - z0) ** 2 for _, z0, e in walls)  # L'
        v_w = big_q * (slope * slope + curvature) + 0.5 * np.polyval(np.polyder(q_coeffs), z) * slope
        u = np.asarray(pot(z[kept]), dtype=float) - v_w[kept]
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(log_r))):
        raise ValueError("potential or wall factor is not finite on a node")
    root_mass = np.sqrt(q) * np.exp(0.5 * (log_r - log_r.max()))  # sqrt(q r), up to a constant
    b = (root_mass * np.sqrt(big_q) / half)[:, None] * d[:, kept] / root_mass[None, kept]
    h = b.T @ b
    h[np.diag_indices_from(h)] += u
    return h


def low_spectrum(h: np.ndarray, k: int) -> np.ndarray:
    """The k smallest eigenvalues of the symmetric matrix h, ascending."""
    n = len(h)
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}")
    return np.linalg.eigvalsh(h)[:k]


@dataclass(frozen=True)
class OracleSpectrum:
    """Converged low eigenvalues with per-energy error estimates."""

    energies: tuple[float, ...]
    error_estimates: tuple[float, ...]
    grid: Grid

    def __post_init__(self):
        e = self.energies
        if any(b <= a for a, b in zip(e, e[1:])):
            raise ValueError("oracle energies must be strictly increasing")
        if any(not err > 0 for err in self.error_estimates):
            raise ValueError("error estimates must be positive")


def _ladder(family, domain: tuple[float, float], n: int, k: int, settled) -> tuple:
    """Solves on ``domain`` at n, 1.5 n, 2.25 n, ... nodes until ``settled(levels, change)`` holds or the next
    count would pass ``N_MAX``: the last k levels, their change from the solve before (inf after one solve),
    the eigensolver's rounding of them, 4 eps ||H||, and the last grid."""
    levels, change = None, math.inf
    while True:
        grid = Grid(domain[0], domain[1], n)
        h = discretize(family, grid)
        finer = low_spectrum(h, k)
        if levels is not None:
            change = np.abs(finer - levels)
        levels, n = finer, math.ceil(1.5 * n)
        if settled(levels, change) or n > N_MAX:
            return levels, change, 4.0 * np.finfo(float).eps * float(np.max(np.sum(np.abs(h), axis=1))), grid


def refine(family, k: int, tol: float = 1e-6, *, domain: tuple[float, float]) -> OracleSpectrum:
    """Certified low spectrum on ``domain``: one ladder of solves at N, 1.5 N, 2.25 N, ... nodes, up to
    ``N_MAX``, on the domain and one on a grown domain, each open end moved out by one unit.

    The ladder on the domain starts at ``max(N_START, k)`` nodes and stops
    once every level changes by less than ``tol`` between two successive node
    counts. The grown domain bounds the truncation error: one more unit
    multiplies the tail bound enormously while keeping the hyperbolic cosh^4
    within floating-point reach. Its ladder starts at the same node density in
    x and stops once the levels' shift from the domain's, or their own change,
    is below ``tol``: one more unit of x can be a factor e in z. Each estimate
    is the larger of the change and the shift, plus the eigensolver's
    rounding. A percent-scale shift left at the end raises.
    """
    if tol < 1e-8:
        raise ValueError("tol below 1e-8 is not certifiable with this discretization")
    interval = check_domain(family, domain)
    energies, change, rounding, grid = _ladder(family, domain, max(N_START, k), k, lambda _, c: np.max(c) < tol)
    if not np.max(change) < tol:
        last = f" (last change {float(np.max(change)):.3g})" if np.ndim(change) else ""  # a scalar inf: one solve
        raise OracleConvergenceError(f"no convergence below {tol:g} with up to {N_MAX} nodes{last}")

    shift = np.zeros(k)
    grown = tuple(end if math.isfinite(bound) else end + step for end, bound, step in zip(domain, interval, (-1, 1)))
    if grown != tuple(domain):
        n_grown = math.ceil(grid.n_interior * (grown[1] - grown[0]) / (domain[1] - domain[0]))
        far = _ladder(
            family, grown, n_grown, k, lambda levels, c: min(np.max(np.abs(levels - energies)), np.max(c)) < tol
        )[0]
        shift = np.abs(far - energies)
        if np.max(shift) > 0.02 * (1.0 + np.max(np.abs(energies))):
            raise OracleConvergenceError(
                f"domain truncation error {float(np.max(shift)):.3g} is gross; the domain does not hold this family"
            )
    return OracleSpectrum(
        energies=tuple(float(e) for e in energies),
        error_estimates=tuple(float(e) for e in np.maximum(change, shift) + rounding),
        grid=grid,
    )
