"""Rips skeletons, chain homotopy, covering checks and scale towers on
finite metric spaces.

Importing the package loads the H1-tower path only; the names of the
homotopy search (`chains`) and of the cover checks (`cover`) import their
module on first access.
"""

import importlib

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

_LAZY = {
    "chains": (
        "Chain",
        "Delete",
        "HomotopyCertificate",
        "Insert",
        "Trivalue",
        "apply_move",
        "close_chains_certificate",
        "decide_homotopic",
        "e_homotopic",
        "is_short",
        "validate_chain",
    ),
    "cover": (
        "CoverBall",
        "CoverReport",
        "build_cover_ball",
        "c2_check",
        "c3_check",
        "chain_lifting_at",
        "evenly_covers",
        "generates_at",
        "is_simplicial_cover",
        "transverse",
        "uniform_cover_verdict",
        "uniqueness_of_lifts",
    ),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}

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
    *_LAZY_MODULE,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _LAZY:  # `ripscover.chains` and `ripscover.cover` after a plain `import ripscover`
        return importlib.import_module(f".{name}", __name__)
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
