"""Parity-constrained orientation solvers with conflict constraints."""

from .core import (
    Conflict,
    ConflictKind,
    Instance,
    Multigraph,
    Orientation,
    VerifyReport,
    components,
    normalize,
    validate_instance,
    verify,
)
from .eo2dec import solve_eo_2dec, solve_pco_2dec, solve_pco_dec, solve_pco_dsc
from .errors import (
    InvalidDocumentError,
    InvalidInstanceError,
    OracleLimitError,
    UnsupportedError,
)
from .fpt import solve_pco_fpt
from .hardness import HardnessArtifact, reduce_to_pco_2ec, reduce_to_pco_2sc
from .oracle import OracleResult, enumerate_best, sat_oracle
from .pco import PcoResult, solve_pco, solve_pco_max
from .sat import SatInstance, parse_formula

__all__ = [
    "Conflict",
    "ConflictKind",
    "HardnessArtifact",
    "Instance",
    "InvalidDocumentError",
    "InvalidInstanceError",
    "Multigraph",
    "OracleLimitError",
    "OracleResult",
    "Orientation",
    "PcoResult",
    "SatInstance",
    "UnsupportedError",
    "VerifyReport",
    "components",
    "enumerate_best",
    "normalize",
    "parse_formula",
    "reduce_to_pco_2ec",
    "reduce_to_pco_2sc",
    "sat_oracle",
    "solve_eo_2dec",
    "solve_pco",
    "solve_pco_2dec",
    "solve_pco_dec",
    "solve_pco_dsc",
    "solve_pco_fpt",
    "solve_pco_max",
    "validate_instance",
    "verify",
]
