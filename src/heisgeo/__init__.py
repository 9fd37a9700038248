"""heisgeo: explicit geometry of left-invariant (sub-)Riemannian metrics on
Heisenberg groups H_n and their compact quotients.

Canonical forms and spectral invariants of metric matrices, Popp and
minimal-Popp volumes, Ricci curvature, closed-form geodesics with a numerical
flow oracle, distances on the group and on quotients by lattices,
precompactness condition checks on the moduli space, and a sequence analyzer
that classifies metric families as collapsing or non-collapsing.
"""

from .core import (
    AlgebraVector,
    GroupElement,
    LatticeSpec,
    bracket,
    commutator,
    group_mul,
    identity,
    inverse,
    lattice_generators,
)
from .errors import (
    InvalidLatticeError,
    InvalidMetricError,
    NotBracketGeneratingError,
    RiemannianOnlyError,
    SolverFailure,
)
from .geodesics import (
    GeodesicArc,
    Momentum,
    cut_time,
    distance,
    flow_numeric,
    geodesic_point,
    geodesic_velocity,
    quotient_distance,
    vertical_distance,
)
from .linalg import shortest_lattice_vector, skew_normal_form
from .metric import (
    CanonicalMetric,
    MetricMatrix,
    VolumeCoefficient,
    canonicalize,
    invariants,
    j_matrix,
    minimal_popp_coeff,
    popp_coeff_from_structure,
    popp_coeff_v0,
    ricci_matrix,
    riemannian_volume_coeff,
    tilted_popp_coeff,
    total_measure,
    weak_canonicalize,
)
from .moduli import (
    Constants,
    PrecompactnessReport,
    check_precompactness,
    enumerate_lattices,
    fingerprint,
    geometry_constants,
    in_stabilizer,
    lattice_rank_bound,
)
from .sequence import SequenceReport, SequenceSpec, analyze_sequence

__version__ = "0.1.0"

# Every kernel is numpy; no jit backend exists.  Kept as a constant for
# callers that record which backend ran.
USING_NUMBA = False
