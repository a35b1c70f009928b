"""Immediate snapshot protocol complexes from round counters.

The package builds the simplicial complex of all executions of a layered
immediate snapshot protocol in which each process takes a prescribed
number of write/read rounds, and ships the machinery the construction
supports: the stratification into canonical pieces with its translation
maps and intersection calculus, boundary and mod-2 homology computations,
validated discrete collapses, the schedule/view semantics, and a
cross-check against the chromatic subdivision of a simplex.
"""

from .chromatic import (
    ChromaticSimplex,
    PhiReport,
    chromatic_f_vector,
    chromatic_oracle,
    phi_iso,
    table_map,
)
from .collapse import (
    CollapseSequence,
    CollapseStep,
    ValidationReport,
    collapse_all,
    collapse_to_relative_boundary,
    relative_boundary_remainder,
    validate_collapse,
)
from .complexes import (
    Complex,
    ConeSplit,
    build,
    check_purity,
    cone_split,
    facet_structures,
    facets,
    membership,
    verify_ghost_composition,
)
from .counters import RoundCounter
from .errors import (
    CollapseStalledError,
    ComplexTooLargeError,
    SnapComplexError,
    VerificationError,
)
from .schedules import (
    Schedule,
    enumerate_schedules,
    is_valid_schedule,
    schedule_count,
    schedule_from_json_obj,
    schedule_to_json_obj,
    to_facet,
    views,
)
from .strata import (
    DiagramReport,
    NerveReport,
    StratumRef,
    delta,
    delta_inverse,
    gamma,
    in_stratum,
    incidence,
    intersect_family,
    intersect_pair,
    intersect_refs,
    literal_members,
    members,
    nerve,
    rho,
    verify_diagrams,
    verify_strata_calculus,
    verify_translation_maps,
)
from .topology import (
    BoundaryReport,
    boundary,
    classify_interior,
    euler,
    homology_z2,
    is_sphere_like,
    strong_connectivity,
)
from .witness import (
    Classification,
    WitnessStructure,
    ghost,
    validate,
)

__version__ = "1.0.0"

__all__ = [
    "BoundaryReport",
    "ChromaticSimplex",
    "Classification",
    "CollapseSequence",
    "CollapseStalledError",
    "CollapseStep",
    "Complex",
    "ComplexTooLargeError",
    "ConeSplit",
    "DiagramReport",
    "NerveReport",
    "PhiReport",
    "RoundCounter",
    "Schedule",
    "SnapComplexError",
    "StratumRef",
    "ValidationReport",
    "VerificationError",
    "WitnessStructure",
    "boundary",
    "build",
    "check_purity",
    "chromatic_f_vector",
    "chromatic_oracle",
    "classify_interior",
    "collapse_all",
    "collapse_to_relative_boundary",
    "cone_split",
    "delta",
    "delta_inverse",
    "enumerate_schedules",
    "euler",
    "facet_structures",
    "facets",
    "gamma",
    "ghost",
    "homology_z2",
    "in_stratum",
    "incidence",
    "intersect_family",
    "intersect_pair",
    "intersect_refs",
    "is_sphere_like",
    "is_valid_schedule",
    "literal_members",
    "members",
    "membership",
    "nerve",
    "phi_iso",
    "relative_boundary_remainder",
    "rho",
    "schedule_count",
    "schedule_from_json_obj",
    "schedule_to_json_obj",
    "strong_connectivity",
    "table_map",
    "to_facet",
    "validate",
    "validate_collapse",
    "verify_diagrams",
    "verify_ghost_composition",
    "verify_strata_calculus",
    "verify_translation_maps",
    "views",
]
