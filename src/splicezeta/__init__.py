"""Exact combinatorial invariants of splice diagrams and plumbing graphs."""

from .diagrams import (
    DiagramError,
    Edge,
    Farrow,
    PlumbingGraph,
    PVertex,
    SpliceDiagram,
    ValidationReport,
    Warrow,
    blow_down,
    blowup,
    edge_determinant,
    plumbing_to_splice,
    validate,
    validate_plumbing,
)
from .divisors import (
    canonical_plumbing,
    nu_values,
    pullback_plumbing,
    vertex_multiplicities,
)
from .exact import (
    CycloLimitError,
    CycloProduct,
    NegativeMultiplicityError,
    Pole,
    UnityRoot,
)
from .zeta import ZetaResult, zeta_plumbing, zeta_splice

__all__ = [
    "CycloLimitError",
    "CycloProduct",
    "DiagramError",
    "Edge",
    "Farrow",
    "NegativeMultiplicityError",
    "PlumbingGraph",
    "Pole",
    "PVertex",
    "SpliceDiagram",
    "UnityRoot",
    "ValidationReport",
    "Warrow",
    "ZetaResult",
    "blow_down",
    "blowup",
    "canonical_plumbing",
    "edge_determinant",
    "nu_values",
    "plumbing_to_splice",
    "pullback_plumbing",
    "validate",
    "validate_plumbing",
    "vertex_multiplicities",
    "zeta_plumbing",
    "zeta_splice",
]

__version__ = "0.1.0"
