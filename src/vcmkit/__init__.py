"""Cohen-Macaulay and virtual Cohen-Macaulay certification for simplicial
complexes on products of projective spaces."""

from .complexes import (
    Face,
    FaceLimitError,
    InvalidVertexError,
    Shape,
    SimplicialComplex,
    Vertex,
    VertexLimitError,
    union,
)
from .homology import (
    BettiTable,
    ReisnerVerdict,
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
    parse_field,
    sparse_rank,
)
from .shelling import (
    ShellingCheck,
    ShellingEvidence,
    balanced_vcm_certificate,
    irrelevant_complex,
    irrelevant_shelling_order,
    verify_shelling,
    verify_shelling_masks,
)
from .stanley_reisner import (
    EmptyVarietyError,
    SqfIdeal,
    UnitIdealError,
    codim,
    codim_affine,
    complex_of,
    ideal_of,
    saturate_by_B,
    saturation_oracle,
)
from .vres import (
    CandidateLimitError,
    FreeComplexPresentation,
    PdimEvidence,
    Polynomial,
    SearchOutcome,
    VcmCertificate,
    augmentation_search,
    certify_balanced,
    certify_vcm_via_union,
    compose_failures,
    enumerate_irrelevant_candidate_facets,
    paper_fixture,
)

__version__ = "0.1.0"
