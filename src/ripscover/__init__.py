"""Rips skeletons, chain homotopy, covering checks and scale towers on
finite metric spaces.

The package exports the H1-tower path; the homotopy search and the cover
checks are imported from `ripscover.chains` and `ripscover.cover`.
"""

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
    SearchBudget,
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

__all__ = [
    "CarrierMismatch",
    "CertificateError",
    "ChainError",
    "MoveError",
    "RipscoverError",
    "ValidationError",
    "GallerySpace",
    "gallery",
    "hawaiian",
    "hexagon_ex72",
    "hexagon_ex73",
    "polygon",
    "solenoid",
    "AbelianGroup",
    "H1Map",
    "RipsSkeleton",
    "build_skeleton",
    "h1",
    "h1_class",
    "inclusion_h1_map",
    "Entourage",
    "FiniteSpace",
    "ScaleLadder",
    "SearchBudget",
    "SpaceMap",
    "ball",
    "compose",
    "dump_space",
    "entourage_at",
    "image_under",
    "load_space",
    "space_from_json",
    "JoinabilityVerdict",
    "TowerReport",
    "TruncatedGeneralizedPath",
    "build_tower",
    "g_entourage",
    "joinability_witness",
    "ml_diagnostic",
    "triviality_diagnostic",
    "uniform_joinability_audit",
]

__version__ = "0.1.0"

