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
    load_structure,
    measure_weights,
)
from .resistance import (
    ConductanceNetwork,
    NetworkError,
    assemble_self_similar,
    energy,
    harmonic_extension,
    resistance_diameter,
    trace,
)
from .drift import (
    Constants,
    DriftSpec,
    InadmissibleDriftError,
    SmallnessReport,
    certify_SD_axioms,
    certify_drift_bound,
    certify_sandwich,
    check_condition_I,
    check_condition_II,
    make_drift,
    select_constants,
    smallness_report,
)
from .markov import (
    GeneratorMatrix,
    RateValidationError,
    build_generator,
    detailed_balance_gap,
    ensemble_states,
    point_mass,
    sample_paths,
    validate_rates,
)
from .spectral import (
    markov_check,
    resolvent,
    resolvent_solve,
    semigroup_solve,
)
from .tower import (
    DriftConfig,
    LevelTower,
    default_admissible_drift,
    load_drift_config,
    realize_drift,
)
from .convergence import (
    ConvergenceReport,
    ks_norm_check,
    resolvent_convergence,
    semigroup_convergence,
)

__version__ = "0.1.0"
