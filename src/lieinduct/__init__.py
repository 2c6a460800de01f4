"""Exact-arithmetic Lie theory: root systems, weight multiplicities, tensor
decompositions, node-deletion gradings and the forward induction search."""

from .deletion import (
    Deletion,
    EquivalenceClass,
    GradedComponent,
    Table2Report,
    component_highest_weight,
    delete_node,
    deletion_equivalences,
    verify_table2,
    weight_root_bijection,
)
from .errors import (
    BadEmbedding,
    BijectionFailure,
    BudgetExceeded,
    EmptyLevel,
    InternalParity,
    InvariantViolation,
    InvalidType,
    IrreducibilityMismatch,
    LieInductError,
    NonIntegral,
    NonUniquePrimitive,
    NotACharacter,
    NotARoot,
    NotDominant,
    Table2Mismatch,
    TrivialFirstLevel,
)
from .induction import (
    EXCEPTIONAL_TARGETS,
    ExceptionalReport,
    InductionState,
    TargetDiagram,
    check_new_row,
    dbos_dimension,
    exceptional_report,
    induction_search,
    next_level_candidates,
)
from .rep_theory import (
    CharacterTable,
    DefiningCheck,
    ModuleDescriptor,
    classify_weight,
    defining_modules,
    freudenthal_character,
    is_defining,
    module_descriptor,
    orbit_size,
    weyl_dim,
    weyl_orbit,
)
from .root_system import (
    CartanMatrix,
    DynkinType,
    RootSystem,
    build_root_system,
    cartan_from_edges,
    cartan_matrix,
    coxeter_number,
    diagram_automorphisms,
    highest_root,
    parse_dynkin,
    root_stats,
    root_weight_convert,
    to_dominant,
    weyl_order,
)
from .tensor_ops import (
    DecompositionResult,
    decompose_character,
    sym2_decompose,
    tensor_decompose,
    wedge2_decompose,
)

__version__ = "0.1.0"
