"""Residue-ledger derivation and numerical verification of quasi-exactly
solvable potential families.

The package is its layer modules, and names are imported from them:
``qhjqes.series`` (the series kernel), ``families``, ``engine`` (the chart and
residue ledger), ``spectra`` (the algebraic sector), ``qmf`` (the momentum
pole census), ``oracle`` (the Gauss-rule DVR oracle) and ``cli``.
"""
