"""Rips skeletons, chain homotopy, covering checks and scale towers on
finite metric spaces."""

from .chains import (
    Chain,
    Delete,
    HomotopyCertificate,
    Insert,
    SearchBudget,
    Trivalue,
    apply_move,
    close_chains_certificate,
    decide_homotopic,
    e_homotopic,
    is_short,
    validate_chain,
)
from .cover import (
    CoverBall,
    CoverReport,
    build_cover_ball,
    c2_check,
    c3_check,
    chain_lifting_at,
    evenly_covers,
    generates_at,
    is_simplicial_cover,
    transverse,
    uniform_cover_verdict,
    uniqueness_of_lifts,
)
from .errors import (
    CarrierMismatch,
    CertificateError,
    ChainError,
    MoveError,
    RipscoverError,
    ValidationError,
)
from .gallery import GallerySpace, gallery, hawaiian, hexagon_ex72, hexagon_ex73, polygon, solenoid
from .rips import (
    AbelianGroup,
    H1Map,
    RipsSkeleton,
    build_skeleton,
    h1,
    h1_class,
    inclusion_h1_map,
)
from .space import (
    Entourage,
    FiniteSpace,
    ScaleLadder,
    SpaceMap,
    ball,
    compose,
    dump_space,
    entourage_at,
    image_under,
    load_space,
    space_from_json,
)
from .tower import (
    JoinabilityVerdict,
    TowerReport,
    TruncatedGeneralizedPath,
    build_tower,
    g_entourage,
    joinability_witness,
    ml_diagnostic,
    triviality_diagnostic,
    uniform_joinability_audit,
)

__version__ = "0.1.0"
