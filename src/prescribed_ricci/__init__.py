"""Prescribed Ricci curvature on 3-dimensional unimodular Lie groups.

Decides, for each of the six groups and a prescribed diagonal tensor T in a
Milnor frame, whether Ric(g) = c T has a left-invariant solution with c > 0,
constructs every solution class, and certifies the results against an
independent curvature oracle.
"""
from .groups import (E2, E11, GROUPS, H3, R3, SL2, SO3, UnimodularGroup,
                     as_group, bracket, check_milnor_frame, group_from_name,
                     structure_constants)
from .curvature import DiagonalMetric, ricci_diagonal, ricci_koszul, x_coefficients
from .cubic import CubicPoly, RootReport, roots_in_interval
from .solver import (CubicSolveTrace, DiagonalTensor, Family, SolveOutcome,
                     Solution, classify_signature, reconstruct_from_p, solve)
from .verify import Certificate, certify, residual
from .probe import ProbeReport, probe, sample_diagonal_preserving_changes
from .diagonalize import (DiagonalizationResult, diagonalize_so3,
                          symmetric_from_upper)

__version__ = "0.1.0"

__all__ = [
    "UnimodularGroup", "GROUPS", "SO3", "SL2", "E2", "E11", "H3", "R3",
    "group_from_name", "as_group", "structure_constants", "bracket",
    "check_milnor_frame",
    "DiagonalMetric", "x_coefficients", "ricci_diagonal", "ricci_koszul",
    "CubicPoly", "RootReport", "roots_in_interval",
    "DiagonalTensor", "Solution", "Family", "CubicSolveTrace", "SolveOutcome",
    "solve", "reconstruct_from_p", "classify_signature",
    "Certificate", "residual", "certify",
    "ProbeReport", "probe", "sample_diagonal_preserving_changes",
    "DiagonalizationResult", "diagonalize_so3", "symmetric_from_upper",
    "__version__",
]
