"""Immediate snapshot protocol complexes from round counters.

The package builds the simplicial complex of all executions of a layered
immediate snapshot protocol in which each process takes a prescribed
number of write/read rounds, and ships the machinery the construction
supports: the stratification into canonical pieces with its translation
maps and intersection calculus, boundary and mod-2 homology computations,
validated discrete collapses, the schedule/view semantics, and a
cross-check against the chromatic subdivision of a simplex.

Each public name below is imported from its module on first use, so
``import snapcomplex`` loads none of the modules.
"""

import importlib

__version__ = "1.0.0"

_EXPORTS = {
    "chromatic": (
        "ChromaticSimplex",
        "PhiReport",
        "chromatic_f_vector",
        "chromatic_oracle",
        "phi_iso",
        "table_map",
    ),
    "collapse": (
        "CollapseSequence",
        "CollapseStep",
        "ValidationReport",
        "collapse_all",
        "collapse_to_relative_boundary",
        "relative_boundary_remainder",
        "validate_collapse",
    ),
    "complexes": (
        "Complex",
        "ConeSplit",
        "build",
        "check_purity",
        "cone_split",
        "facet_structures",
        "facets",
        "membership",
        "verify_ghost_composition",
    ),
    "counters": ("RoundCounter",),
    "errors": (
        "CollapseStalledError",
        "ComplexTooLargeError",
        "SnapComplexError",
        "VerificationError",
    ),
    "schedules": (
        "Schedule",
        "enumerate_schedules",
        "is_valid_schedule",
        "to_facet",
        "views",
    ),
    "strata": (
        "DiagramReport",
        "NerveReport",
        "StratumRef",
        "classify_interior",
        "delta",
        "delta_inverse",
        "gamma",
        "intersect_family",
        "intersect_pair",
        "intersect_refs",
        "members",
        "nerve",
        "rho",
        "verify_diagrams",
        "verify_strata_calculus",
        "verify_translation_maps",
    ),
    "topology": (
        "BoundaryReport",
        "boundary",
        "euler",
        "homology_z2",
        "is_sphere_like",
        "strong_connectivity",
    ),
    "witness": ("Classification", "WitnessStructure", "ghost", "validate"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str) -> object:
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
