"""Independent numerical ground truth for the eigenproblem -psi'' + V psi = E psi.

Singular walls sit exactly on the singular point, and the wavefunction is
factored there as psi = w phi. The wall factor w is built from the larger
root mu = 1/2 + sqrt(1/4 + c) of the indicial equation mu (mu - 1) = c of
each wall's c/x^2 coefficient: x^mu for the radial sextic,
sin^a x cos^b x for the circular family and sinh^a x for the hyperbolic one.
The exponents are read from V's coefficients alone, so the oracle never
sees the algebraic sector. phi solves the weighted problem

    -(w^2 phi')' + w^2 (V - w''/w) phi = E w^2 phi,

whose potential V - w''/w is smooth and whose phi is regular at the wall.
Second-order finite differences in flux form, scaled by w at the nodes,
give one symmetric tridiagonal matrix; with w = 1 it is the familiar
2/h^2 + V on the diagonal and -1/h^2 off it. No flux crosses a wall where
w vanishes; every other end is a Dirichlet wall.

Eigenvalues of the matrix come from bisection (LAPACK stebz via scipy),
which is deterministic. ``refine`` halves h across grid doublings,
Richardson-extrapolates each eigenvalue in h^2, and takes the change
between successive extrapolants, plus the bisection's rounding, as its
error estimate. A wall with exponent mu leaves an h^(2 mu + 1) term next
to the h^2 one; as mu > 1/2 it still falls faster than h^2, so the change
between extrapolants overstates what remains. One solve on a grown domain
(ends facing infinity moved outward, ends facing a singular point moved
onto it) bounds the truncation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .families import family_kind

__all__ = [
    "DEFAULT_DOMAINS",
    "Grid",
    "OracleConvergenceError",
    "OracleSpectrum",
    "discretize",
    "low_spectrum",
    "refine",
]

DEFAULT_DOMAINS = {
    "sextic": (-6.0, 6.0),
    "radial_sextic": (0.0, 6.0),
    "circular": (0.0, math.pi / 2),
    # cosh^4 x reaches ~2e9 already at x = 6; pushing the wall further would
    # swamp the eigenvalues in the matrix norm (bisection resolves eigenvalues
    # only to machine-eps times the Gershgorin radius), while the gauge factor
    # exp(-q1 cosh^2 x / 2) is dead long before x = 4.
    "hyperbolic": (0.0, 4.0),
}

_N_MAX = 2**16


class OracleConvergenceError(RuntimeError):
    """Grid refinement hit its ceiling; carries the best spectrum found."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class Grid:
    """Uniform interior grid; the ends x_min and x_max are walls, not nodes."""

    x_min: float
    x_max: float
    n_interior: int

    def __post_init__(self):
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.n_interior < 100:
            raise ValueError("need at least 100 interior points")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_interior + 1)

    def points(self) -> np.ndarray:
        return self.x_min + self.h * np.arange(1, self.n_interior + 1)


# A wall factor is a product of f(x)^mu over the singular walls, each f
# vanishing linearly at its wall. Each entry gives (f, f', f'') at x.
def _power(x):
    return x, np.ones_like(x), np.zeros_like(x)


def _sin(x):
    s, c = np.sin(x), np.cos(x)
    return s, c, -s


def _cos(x):
    s, c = np.sin(x), np.cos(x)
    return c, -s, -c


def _sinh(x):
    s, c = np.sinh(x), np.cosh(x)
    return s, c, s


def _indicial(c: float) -> float:
    """Larger root of mu (mu - 1) = c: psi ~ x^mu at a c/x^2 wall."""
    return 0.5 + math.sqrt(0.25 + c)


def _walls(family) -> tuple:
    """(position, exponent, f) for each singular wall of ``family``."""
    kind = family_kind(family) if hasattr(family, "potential") else None
    if kind == "radial_sextic":
        return ((0.0, _indicial(family.g), _power),)
    if kind == "circular":
        return ((0.0, _indicial(family.A), _sin), (math.pi / 2, _indicial(family.B), _cos))
    if kind == "hyperbolic":
        return ((0.0, _indicial(family.B), _sinh),)
    return ()


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


def _potential_of(family_or_callable):
    if hasattr(family_or_callable, "potential"):
        return family_or_callable.potential
    return family_or_callable


def discretize(family, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the symmetric wall-factored operator.

    Node i carries V - w''/w; the flux between nodes i and i+1 carries
    w(x_{i+1/2})^2 / h^2, divided by w_i w_{i+1} to make the matrix
    symmetric. A bare callable or a wall-free family has w = 1.
    """
    pot = _potential_of(family)
    walls = _walls(family)
    x = grid.points()
    h = grid.h
    halves = grid.x_min + h * (np.arange(grid.n_interior + 1) + 0.5)
    with np.errstate(all="ignore"):
        log_w, wpp_over_w = _log_wall_factor(walls, x)
        log_w_half, _ = _log_wall_factor(walls, halves)
        v = np.asarray(pot(x), dtype=float) - wpp_over_w
    if not all(np.all(np.isfinite(a)) for a in (v, log_w, log_w_half)):
        raise ValueError("potential or wall factor is not finite on a grid node")
    # Flux weight of each half node relative to the node on its left and right.
    left = np.exp(2.0 * (log_w_half[:-1] - log_w))
    right = np.exp(2.0 * (log_w_half[1:] - log_w))
    for position, _, _ in walls:
        if math.isclose(grid.x_min, position, abs_tol=1e-12):
            left[0] = 0.0
        if math.isclose(grid.x_max, position, abs_tol=1e-12):
            right[-1] = 0.0
    inv_h2 = 1.0 / h**2
    diag = inv_h2 * (left + right) + v
    off = -inv_h2 * np.exp(2.0 * log_w_half[1:-1] - log_w[:-1] - log_w[1:])
    return diag, off


def low_spectrum(diag: np.ndarray, off: np.ndarray, k: int) -> np.ndarray:
    """The k smallest eigenvalues, ascending, via Sturm-sequence bisection."""
    n = len(diag)
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}")
    return eigh_tridiagonal(
        diag, off, eigvals_only=True, select="i", select_range=(0, k - 1),
        lapack_driver="stebz",
    )


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


def _grown_domain(kind: str | None, domain: tuple[float, float], h: float) -> tuple[float, float]:
    """The domain of the truncation check, for a coarse grid of step h.

    Ends that face infinity move outward by whole steps of h, so the grown
    grid keeps h and the coarse grid's nodes. Ends that face a singular point
    move onto it; the default domains already put them there.
    """
    lo, hi = domain
    if kind == "circular":
        return 0.0, math.pi / 2
    if kind == "radial_sextic":
        return 0.0, hi + round((hi - lo) / h) * h
    if kind == "hyperbolic":
        # Additive growth: another unit of x multiplies the tail bound
        # enormously while keeping cosh^4 within floating-point reach.
        return 0.0, hi + round(1.0 / h) * h
    step = round((hi - lo) / (2.0 * h)) * h
    return lo - step, hi + step


def _solve(family, grid: Grid, k: int) -> tuple[np.ndarray, float]:
    """The k lowest eigenvalues and the bisection's resolution of them.

    Bisection pins each eigenvalue to about 2 eps times the Gershgorin bound
    of the matrix; the extrapolant weighs the finer of two solves by 4/3, so
    twice that bounds the rounding in an extrapolated energy.
    """
    diag, off = discretize(family, grid)
    gershgorin = float(np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off)))
    return low_spectrum(diag, off, k), 4.0 * np.finfo(float).eps * gershgorin


def refine(
    family,
    k: int,
    tol: float = 1e-6,
    domain: tuple[float, float] | None = None,
    n_start: int = 1024,
    n_max: int = _N_MAX,
) -> OracleSpectrum:
    """Certified low spectrum: Richardson-extrapolated grid doublings plus a domain check.

    Each doubling keeps the walls and halves h exactly (n + 1 doubles). The
    estimate of each energy is the larger of the change between the last two
    extrapolants and its shift on the truncation check's grown domain at the
    coarsest h, plus the bisection's rounding; refinement stops once every
    change is below ``tol``. A percent-scale truncation shift raises.
    """
    if tol < 1e-8:
        raise ValueError("tol below 1e-8 is not certifiable with this discretization")
    kind = family_kind(family) if hasattr(family, "potential") else None
    if domain is None:
        if kind is None:
            raise ValueError("a domain is required for a bare potential callable")
        domain = DEFAULT_DOMAINS[kind]

    grid = Grid(domain[0], domain[1], n_start)
    energies, _ = _solve(family, grid, k)

    grown = _grown_domain(kind, domain, grid.h)
    shift = np.zeros(k)
    if grown != tuple(domain):
        wide = Grid(grown[0], grown[1], round((grown[1] - grown[0]) / grid.h) - 1)
        shift = np.abs(_solve(family, wide, k)[0] - energies)
        gross = 0.02 * (1.0 + float(np.max(np.abs(energies))))
        if float(np.max(shift)) > gross:
            raise OracleConvergenceError(
                f"domain truncation error {float(np.max(shift)):.3g} is gross; "
                "the domain does not hold this family",
                best=(energies, shift, grid),
            )

    best = None
    extrapolant = None
    while 2 * grid.n_interior + 1 <= n_max:
        grid = Grid(domain[0], domain[1], 2 * grid.n_interior + 1)
        finer, rounding = _solve(family, grid, k)
        previous, extrapolant = extrapolant, finer + (finer - energies) / 3.0
        # Until two extrapolants exist, the raw grid change stands in.
        change = np.abs(extrapolant - previous) if previous is not None else np.abs(finer - energies)
        best = (extrapolant, change, grid)
        energies = finer
        if previous is not None and float(np.max(change)) < tol:
            estimates = np.maximum(change, shift) + rounding
            return OracleSpectrum(
                energies=tuple(float(e) for e in extrapolant),
                error_estimates=tuple(float(e) for e in estimates),
                grid=grid,
            )
    last = f" (last change {float(np.max(best[1])):.3g})" if best is not None else ""
    raise OracleConvergenceError(
        f"no grid convergence below {tol:g} with up to {n_max} points{last}", best=best
    )
