"""Combinatorial Heegaard Floer homology of closed three-manifolds.

The pipeline: describe a gluing map of a Heegaard splitting as a word of
arc-slides on a pointed matched circle, build the slide bimodules over the
strands algebras, pair them off against handlebody modules through
morphism complexes, and reduce over F2 to homology ranks split by spin-c
structure with relative Maslov gradings.
"""

from .pmc import (
    ArcSlide,
    Chord,
    InvalidCircleError,
    InvalidSlideError,
    PointedMatchedCircle,
    all_chords,
    antipodal_pmc,
    connected_sum,
    reverse_pmc,
    split_pmc,
)
from .algebra import StrandsGenerator, basis, chordset_element, idempotent
from .homalg import TypeDStructure, cancel, mor_against_bimodule, mor_complex, tensor, truncate
from .slides import arcslide_dd, dd_identity, enumerate_near_chords
from .manifolds import (
    ClosedResult,
    MappingWord,
    cfd_self_gluing,
    cfd_zero_framed_handlebody,
    dd_elementary_cobordism,
    dehn_twist_expand,
    hf_hat_closed,
    poincare_sphere,
    spinc_maslov,
)
from .ainfty import DualIdentityBimodule, MinimalModel, box_closed_dg

__all__ = [
    "ArcSlide",
    "Chord",
    "ClosedResult",
    "DualIdentityBimodule",
    "InvalidCircleError",
    "InvalidSlideError",
    "MappingWord",
    "MinimalModel",
    "PointedMatchedCircle",
    "StrandsGenerator",
    "TypeDStructure",
    "all_chords",
    "antipodal_pmc",
    "arcslide_dd",
    "basis",
    "box_closed_dg",
    "cancel",
    "cfd_self_gluing",
    "cfd_zero_framed_handlebody",
    "chordset_element",
    "connected_sum",
    "dd_elementary_cobordism",
    "dd_identity",
    "dehn_twist_expand",
    "enumerate_near_chords",
    "hf_hat_closed",
    "idempotent",
    "mor_against_bimodule",
    "mor_complex",
    "poincare_sphere",
    "reverse_pmc",
    "spinc_maslov",
    "split_pmc",
    "tensor",
    "truncate",
]
