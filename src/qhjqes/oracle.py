"""Independent numerical ground truth for the eigenproblem -psi'' + V psi = E psi.

Singular walls sit exactly on the singular point, and the wavefunction is
factored there as psi = w phi. A family's ``walls`` (``families``) are
``(position, c, f)``, c the 1/x^2 coefficient of V there and f vanishing
linearly at the wall, and w is the product of f^mu over them, mu = 1/2 +
sqrt(1/4 + c) the larger root of the indicial equation mu (mu - 1) = c:
x^mu for the radial sextic, sin^a x cos^b x for the circular family and
(2 sinh(x/2))^a for the hyperbolic one. The exponents are read from V's
coefficients alone, so the oracle never sees the algebraic sector. phi
solves the weighted problem

    -(w^2 phi')' + w^2 (V - w''/w) phi = E w^2 phi,

whose potential U = V - w''/w is smooth and whose phi is regular at the wall.

Its weak form is discretised as a Gauss-rule discrete-variable
representation (DVR). phi is a Lagrange polynomial on the nodes of a
Gauss-Jacobi rule whose weight (x - a)^(2 mu_a) (b - x)^(2 mu_b) carries w^2
at each end that sits on a singular wall, so the rule integrates the
singular behaviour exactly. Every other end is a Dirichlet wall: it is a
fixed Radau or Lobatto node of the rule, and its basis function is dropped.
With q the rule's weights, r = w^2 / weight (smooth and positive) and D the
Lagrange derivative matrix, the mass is diagonal, M = diag(q r), the
stiffness is K = D^T diag(q r) D + diag(q r U), and the energies are the
eigenvalues of the symmetric H = M^(-1/2) K M^(-1/2) from numpy's
``eigvalsh``. Bare callables, the sextic (w = 1) and domains whose ends are
off the singular points get the Lobatto-Legendre rule. The caller gives the
domain, for families and bare callables alike.

The smooth weighted equation makes the error fall exponentially with the
node count, so ``refine`` takes the change between N and 1.5 N nodes as each
level's error estimate. One solve on a grown domain (an end with a wall
beyond it moved onto that wall, any other end moved outward by one unit)
bounds the truncation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "N_MAX",
    "N_MIN",
    "N_START",
    "N_START_MAX",
    "OracleConvergenceError",
    "OracleSpectrum",
    "discretize",
    "low_spectrum",
    "refine",
]

# Node counts ``refine`` starts from and accepts; the dense matrix has N^2 entries.
N_MIN = 8
N_START = 48
N_MAX = 1024
# The largest start from which one refinement, to ceil(1.5 N) nodes, stays within N_MAX.
N_START_MAX = 2 * N_MAX // 3


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


def _indicial(c: float) -> float:
    """Larger root of mu (mu - 1) = c: psi ~ x^mu at a c/x^2 wall."""
    return 0.5 + math.sqrt(0.25 + c)


def _walls(family) -> tuple:
    """(position, exponent, f) for each singular wall of ``family``; a bare callable has none."""
    return tuple((position, _indicial(c), f) for position, c, f in getattr(family, "walls", ()))


def _log_wall_factor(walls, x):
    """log w and w''/w at ``x`` for w = prod f^mu."""
    log_w = np.zeros_like(x)
    slope = np.zeros_like(x)  # w'/w
    curvature = np.zeros_like(x)  # w''/w - (w'/w)^2
    for _, mu, f in walls:
        f0, f1, f2 = f(x)
        log_w += mu * np.log(f0)
        slope += mu * f1 / f0
        curvature += mu * (f2 / f0 - (f1 / f0) ** 2)
    return log_w, curvature + slope * slope


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
    d = np.outer(sign, sign) * np.exp(log_lam[None, :] - log_lam[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    return t, q, d


def discretize(family, grid: Grid) -> np.ndarray:
    """The symmetric DVR matrix H = M^(-1/2) K M^(-1/2) of the wall-factored operator.

    An end on a singular wall gives its Jacobi exponent 2 mu to the rule;
    every other end is a fixed node whose basis function is dropped. A bare
    callable or a wall-free family has w = 1.
    """
    pot = getattr(family, "potential", family)
    walls = _walls(family)
    exponent = [0.0, 0.0]  # Jacobi exponent at x_min, x_max; 2 mu > 1 on a wall
    for position, mu, _ in walls:
        for side, end in enumerate((grid.x_min, grid.x_max)):
            if math.isclose(end, position, abs_tol=1e-12):
                exponent[side] = 2.0 * mu
    left, right = exponent[0] == 0.0, exponent[1] == 0.0
    t, q, d = _rule(grid.n_interior, exponent[1], exponent[0], left, right)
    half = 0.5 * (grid.x_max - grid.x_min)
    x = grid.x_min + half * (t + 1.0)
    kept = slice(int(left), len(t) - int(right))
    with np.errstate(all="ignore"):
        log_w, wpp_over_w = _log_wall_factor(walls, x)
        log_r = 2.0 * log_w  # log r = log (w^2 / weight)
        for side, sign in ((0, 1.0), (1, -1.0)):
            if exponent[side]:
                log_r -= exponent[side] * np.log1p(sign * t)
        u = np.asarray(pot(x[kept]), dtype=float) - wpp_over_w[kept]
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(log_r))):
        raise ValueError("potential or wall factor is not finite on a node")
    root_mass = np.sqrt(q) * np.exp(0.5 * (log_r - log_r.max()))  # sqrt(q r), up to a constant
    b = (root_mass[:, None] / half) * d[:, kept] / root_mass[None, kept]
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


def _grown_domain(walls: tuple, domain: tuple[float, float]) -> tuple[float, float]:
    """The domain of the truncation check: an end with a wall beyond it moves
    onto that wall (a domain whose end is on the wall keeps it), and any
    other end moves out by one unit. One more unit multiplies the tail bound
    enormously while keeping the hyperbolic cosh^4 within floating-point
    reach."""
    lo, hi = domain
    below = [position for position, _, _ in walls if position <= lo]
    above = [position for position, _, _ in walls if position >= hi]
    return max(below, default=lo - 1.0), min(above, default=hi + 1.0)


def _solve(family, grid: Grid, k: int) -> tuple[np.ndarray, float]:
    """The k lowest eigenvalues and the eigensolver's rounding of them, 4 eps ||H||."""
    h = discretize(family, grid)
    return low_spectrum(h, k), 4.0 * np.finfo(float).eps * float(np.max(np.sum(np.abs(h), axis=1)))


def refine(
    family,
    k: int,
    tol: float = 1e-6,
    *,
    domain: tuple[float, float],
    n_start: int = N_START,
    n_max: int = N_MAX,
) -> OracleSpectrum:
    """Certified low spectrum on ``domain``: solves at N, 1.5 N, 2.25 N, ... nodes plus a domain check.

    Refinement stops once the change of every level between two successive
    node counts is below ``tol``. Each estimate is the larger of that change
    and the level's shift on the truncation check's grown domain, solved at
    the same node density, plus the eigensolver's rounding. A percent-scale
    truncation shift raises. The first solve has ``max(n_start, k)`` nodes.
    """
    if tol < 1e-8:
        raise ValueError("tol below 1e-8 is not certifiable with this discretization")

    grid = Grid(domain[0], domain[1], max(n_start, k))
    energies, _ = _solve(family, grid, k)
    change = None
    while math.ceil(1.5 * grid.n_interior) <= n_max:
        grid = Grid(domain[0], domain[1], math.ceil(1.5 * grid.n_interior))
        finer, rounding = _solve(family, grid, k)
        change = np.abs(finer - energies)
        energies = finer
        if float(np.max(change)) < tol:
            break
    else:
        last = f" (last change {float(np.max(change)):.3g})" if change is not None else ""
        raise OracleConvergenceError(
            f"no convergence below {tol:g} with up to {n_max} nodes{last}"
        )

    shift = np.zeros(k)
    grown = _grown_domain(_walls(family), domain)
    if grown != tuple(domain):
        n_grown = math.ceil(grid.n_interior * (grown[1] - grown[0]) / (domain[1] - domain[0]))
        shift = np.abs(_solve(family, Grid(grown[0], grown[1], n_grown), k)[0] - energies)
        gross = 0.02 * (1.0 + float(np.max(np.abs(energies))))
        if float(np.max(shift)) > gross:
            raise OracleConvergenceError(
                f"domain truncation error {float(np.max(shift)):.3g} is gross; "
                "the domain does not hold this family"
            )
    return OracleSpectrum(
        energies=tuple(float(e) for e in energies),
        error_estimates=tuple(float(e) for e in np.maximum(change, shift) + rounding),
        grid=grid,
    )
