"""Finite semi-simplicial and simplicial sets with exact homological checks.

The package keeps everything finite and exact: levels are indexed 0..N,
simplices are integers, boundary matrices are integral, a ring (Z, Q or a
prime field) is named only where homology is read, and every verification
either passes matrix-exactly or reports the first place it fails.

The submodules are usable on their own; the names re-exported here are the
ones that show up in nearly every session.
"""

from . import cat, fixtures, formats, homalg, snf, specseq, sset, theorems
from .cat import FinMonoid, FinNonUnitalCategory, FunctorData, MonoidPresentation, NatTransData, nerve
from .homalg import (
    ChainComplex,
    FPAbelianGroup,
    graded_homology,
    homology,
    normalized_chains,
    unnormalized_chains,
)
from .specseq import spectral_sequence
from .sset import BiSemiSimplicialSet, SemiSimplicialSet, SimplicialSet

__version__ = "0.1.0"

__all__ = [
    "BiSemiSimplicialSet",
    "ChainComplex",
    "FPAbelianGroup",
    "FinMonoid",
    "FinNonUnitalCategory",
    "FunctorData",
    "MonoidPresentation",
    "NatTransData",
    "SemiSimplicialSet",
    "SimplicialSet",
    "cat",
    "fixtures",
    "formats",
    "graded_homology",
    "homalg",
    "homology",
    "nerve",
    "normalized_chains",
    "snf",
    "spectral_sequence",
    "specseq",
    "sset",
    "theorems",
    "unnormalized_chains",
]
