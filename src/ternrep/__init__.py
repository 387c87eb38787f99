"""ternrep: exact same-representation proofs for ternary quadratic forms.

The package decides when two positive definite integral ternary forms
represent exactly the same integers, and emits self-contained
certificates that an independent checker re-verifies from raw integers.
"""

from .forms import (
    NotPositiveDefinite,
    QuadForm,
    change_of_basis,
    doubled_gram,
    evaluate,
    is_positive_definite,
)
from .enumeration import (
    representations,
    represented_mask,
    represented_set,
    theta,
)
from .isometry import (
    find_transforms,
    is_isometric,
    scaled_automorphisms,
    subform_witness,
)
from .congruence import (
    ResidueClass,
    cover_check,
    precedes,
    residue_vectors,
    transport,
)
from .prover import (
    ClassUnprovable,
    CoverIncomplete,
    EscapeArgument,
    MismatchAt,
    NoEscapeMatrix,
    NoRationalTransform,
    PairProof,
    ProofError,
    build_escape,
    emit,
    kaplansky_family_pair,
    proof_to_dict,
    prove_direction,
    prove_pair,
    search_cover,
    verify_pairwise,
    verify_table,
)
from .certificate import Verdict, check
from .fixtures import SET_IDS, TABLE, named_form, resolve_form, table_set

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
