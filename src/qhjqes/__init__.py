"""Residue-ledger derivation and numerical verification of quasi-exactly
solvable potential families.

The public surface re-exports the main entry points of each layer: the
series kernel, the potential families, the chart/ledger engine, the
algebraic-sector builder, the spectral (Gauss-rule DVR) oracle, and the momentum
pole census.
"""

from .engine import (
    BranchCandidate,
    BranchRuleError,
    MatchingFailure,
    QuantizationLedger,
    RiccatiData,
    fixed_pole_residues,
    infinity_branch_candidates,
    infinity_expansion,
    quantization_ledger,
    riccati_in_chart,
    select_physical_branch,
)
from .families import ChartSpec, Circular, Hyperbolic, NonQESError, PotentialFamily, RadialSextic, Sextic
from .oracle import Grid, OracleSpectrum, discretize, low_spectrum, refine
from .qmf import (
    CensusReport,
    PoleReport,
    QmfEvaluator,
    global_pole_count,
    infinity_order_check,
    qmf,
    quantization_check,
    residue_at_zero,
    zero_census,
)
from .series import (
    CircleContour,
    LaurentSeries,
    Polynomial,
    contour_integral,
    poly_roots,
)
from .spectra import (
    AlgebraicState,
    GaugeSpec,
    algebraic_states,
    gauge_from_residues,
    recursion_matrix,
    schrodinger_residual,
)

__version__ = "0.1.0"
