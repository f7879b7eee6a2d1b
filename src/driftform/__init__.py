"""Drift-perturbed energy forms on self-similar graph hierarchies.

Builds the vertex hierarchies of finitely-ramified self-similar sets,
assembles their resistance forms, adds non-symmetric drift terms, validates
the smallness conditions and form axioms, runs the associated jump chains,
and measures convergence of resolvents, semigroups and path laws across
refinement levels.
"""

from .pcf import (
    LevelComplex,
    SelfSimilarStructure,
    StructureError,
    build_level,
    build_sierpinski_structure,
    cells_containing,
    load_structure,
    measure_weights,
    save_structure,
)
from .resistance import (
    ConductanceNetwork,
    NetworkError,
    assemble_self_similar,
    effective_resistance,
    energy,
    harmonic_extension,
    read_edge_list,
    read_vertex_function,
    resistance_diameter,
    resistance_matrix,
    trace,
    write_edge_list,
    write_vertex_function,
)
from .drift import (
    Constants,
    DriftSpec,
    FormAssembly,
    InadmissibleDriftError,
    SmallnessReport,
    assemble_Q,
    assemble_forms,
    check_condition_I,
    check_condition_II,
    discrete_mutual_energy,
    eta,
    make_drift,
    select_constants,
    smallness_report,
    verify_SD_axioms,
    verify_drift_bound,
    verify_sandwich,
)
from .markov import (
    GeneratorMatrix,
    RateValidationError,
    Trajectory,
    build_generator,
    detailed_balance_gap,
    ensemble_states,
    jump_parameters,
    point_mass,
    sample_paths,
    validate_rates,
)
from .spectral import (
    contraction_growth_check,
    markov_check,
    resolvent,
    resolvent_solve,
    semigroup_apply,
    semigroup_solve,
)
from .tower import (
    DriftConfig,
    LevelTower,
    default_admissible_drift,
    load_drift_config,
    realize_drift,
    sierpinski_tower,
    zero_drift_config,
)
from .convergence import (
    ConvergenceReport,
    RestrictionMap,
    energy_monotonicity_profile,
    ks_norm_check,
    path_law_convergence,
    resolvent_convergence,
    restriction,
    semigroup_convergence,
)

__version__ = "0.1.0"
