"""Exact calculator for elementary and transvection matrix groups.

The package builds matrices over explicit commutative rings (integers
mod m, polynomial extensions, localizations), tracks ideal membership
through certificates, and exposes the group-theoretic toolbox on top:
generator words and their defining relations, conjugation rewriting
with square-ideal output, decomposition of conjugated generators, and
the dictionaries between elementary words and transvection words.

Every nontrivial construction re-verifies its own defining identity by
exact matrix arithmetic before returning.
"""

from .errors import (
    BadIndices,
    BadTrialCount,
    CertificateInvalid,
    DescriptorMismatch,
    DimensionTooSmall,
    ElemcalcError,
    FormMismatch,
    FormRelationFails,
    IdealMismatch,
    LengthMismatch,
    NotAUnit,
    NotAlternating,
    NotCertified,
    NotCongruentToStandard,
    NotInKernel,
    NotLocalRing,
    NonstandardForm,
    OddDimension,
    PairNotZero,
    PairingNonzero,
    PfaffianNotOne,
    SideConditionViolated,
    SupportOverlap,
    TwoNotInvertible,
    UnknownSuite,
    UnknownVariable,
    VerificationFailed,
)
from .rings import (
    CertifiedElement,
    IdealPresentation,
    LocRing,
    PairwiseSquare,
    PolyRing,
    RingElement,
    ZmodRing,
    certify,
    half,
    invert_unit,
    product_certificate,
    substitute,
)
from .matrices import (
    ColumnVector,
    ExactMatrix,
    adjugate_inverse,
    basis_vector,
    block_diagonal,
    det,
    from_rows,
    identity,
    is_alternating,
    is_symplectic,
    kernel_decomposition,
    pfaffian,
    sigma_index,
    standard_symplectic_form,
    tilde,
    tilde_pair,
    zero_vector,
)
from .words import (
    ElementaryLetter,
    LinLetter,
    LowerTransLetter,
    MuLetter,
    RELATION_TAGS,
    RhoLetter,
    ShearLetter,
    SympLetter,
    TransvectionLetter,
    UpperTransLetter,
    Word,
    check_relation,
    commutator_word,
    conjugate_word,
    entry_pattern,
    evaluate,
    expand_mu,
    expand_rho,
    index1_form,
    invert_word,
    recording,
    symplectic_entry_pattern,
    word,
    word_certified,
    word_in_E1,
    word_in_ESp1,
)
from .decompose import (
    DecompositionResult,
    decompose_conjugate,
    long_root_pair,
    long_root_reduce,
    long_root_unimodular,
    short_root_pair,
    short_root_split,
    sum_to_product,
)
from .rewrite import (
    RewriteResult,
    include_I2_linear,
    include_I2_symplectic,
    rewrite_conjugation_linear,
    rewrite_conjugation_symplectic,
    specialize_and_check,
)
from .bridge import (
    AlternatingForm,
    E1_to_etrans,
    ESp1_to_etranssp,
    StandardizationResult,
    etrans_word_to_E1,
    etranssp_word_to_ESp1,
    mu_matrix,
    rho_matrix,
    standardize_alternating,
    transport_conjugation,
)

__version__ = "0.1.0"

__all__ = [n for n in dir() if not n.startswith("_")]
