"""Exact difference-operator calculus, finite tower models with lifted
actions, and a decision procedure for lifted extension data, over
finitely generated abelian groups."""

from .abelian import (
    FgAbGroup,
    GroupElement,
    GroupHom,
    GroupMismatchError,
    SnfResult,
    kernel,
    primary_decomposition,
    snf,
    solve,
)
from .diffcalc import (
    ActionAlgebra,
    AuditReport,
    DiffOperator,
    GValuedMap,
    build_diff_operator,
    check_congruence,
    derive,
    difference,
    evaluate_diagonal,
    random_algebra,
    random_map,
)
from .tower import (
    ActionLadder,
    Layer,
    TowerModel,
    build_ladder,
    enumerate_lifts,
    random_tower,
    stage_act,
    verify_ladder,
)
from .decide import (
    ExtensionInstance,
    GenParams,
    InvalidInstanceError,
    OracleUnavailableError,
    Verdict,
    brute_force,
    decide,
    generate_instance,
    representative_set,
    validate_instance,
)

__version__ = "0.1.0"

__all__ = [
    "FgAbGroup", "GroupElement", "GroupHom", "GroupMismatchError", "SnfResult",
    "snf", "primary_decomposition", "kernel", "solve",
    "ActionAlgebra", "GValuedMap", "DiffOperator", "AuditReport",
    "difference", "derive", "build_diff_operator", "evaluate_diagonal",
    "check_congruence", "random_algebra", "random_map",
    "Layer", "TowerModel", "ActionLadder",
    "build_ladder", "stage_act", "enumerate_lifts",
    "verify_ladder", "random_tower",
    "ExtensionInstance", "Verdict", "GenParams",
    "InvalidInstanceError", "OracleUnavailableError",
    "validate_instance", "representative_set", "decide", "brute_force",
    "generate_instance",
    "__version__",
]
