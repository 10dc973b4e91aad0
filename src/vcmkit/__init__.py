"""Cohen-Macaulay and virtual Cohen-Macaulay certification for simplicial
complexes on products of projective spaces."""

from .complexes import (
    Face,
    FaceNotInComplexError,
    InvalidVertexError,
    Shape,
    SimplicialComplex,
    Vertex,
    is_relevant,
    permute_components,
    relabel_within_component,
    union,
)
from .homology import (
    BettiTable,
    ReisnerVerdict,
    VertexLimitError,
    has_field_dependent_homology,
    hochster_betti,
    is_cm_pdim,
    is_cm_reisner,
    projective_dimension,
    reduced_homology_ranks,
)
from .linalg import (
    GF,
    QQ,
    CoefficientField,
    field_label,
    gf2_rank,
    integer_rank,
    parse_field,
    rank_mod_p,
)
from .shelling import (
    BalancedCertificate,
    ShellingCheck,
    balanced_vcm_certificate,
    irrelevant_complex,
    irrelevant_shelling_order,
    verify_shelling,
)
from .stanley_reisner import (
    DegreeBoundError,
    EmptyVarietyError,
    IrrelevantIdealB,
    SqfIdeal,
    UnitIdealError,
    codim,
    codim_affine,
    complex_of,
    ideal_of,
    prime_components,
    saturate_by_B,
    saturation_oracle,
)
from .vres import (
    CandidateLimitError,
    FreeComplexPresentation,
    PdimEvidence,
    Polynomial,
    SearchOutcome,
    ShellingEvidence,
    VcmCertificate,
    augmentation_search,
    certify_balanced,
    certify_vcm_via_union,
    compose_check,
    compose_failures,
    enumerate_irrelevant_candidate_facets,
    paper_fixture,
)

__version__ = "0.1.0"
