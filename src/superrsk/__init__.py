"""Shuffle-parameterized super-RSK insertion on the mixed alphabet {t's, u's}.

The package provides the four bump-rule variants of the insertion algorithm
together with their inverses, the shuffle-change bijection, standardization
maps, tableau enumeration with hook Schur polynomials, and an exhaustive
verification harness for the library's structural claims.
"""

from .alphabet import (
    Alphabet,
    Letter,
    Shuffle,
    adjacent_transposition,
    all_shuffles,
    kl_shuffle,
    parse_letter,
    parse_shuffle,
    t,
    u,
)
from .bijection import (
    Standardization,
    change_shuffle,
    reverse_word,
    standardize_t,
    standardize_u,
)
from .insertion import (
    DUAL_DUAL,
    DUAL_REGULAR,
    REGULAR_DUAL,
    REGULAR_REGULAR,
    VARIANTS,
    InsertionResult,
    InsertionTrace,
    PendingAction,
    Step,
    Variant,
    Word,
    insert_letter,
    insert_word,
    parse_variant,
    parse_word,
    variant_profile,
)
from .polynomial import Monomial, Polynomial
from .schur import (
    count_syt,
    enumerate_ssyt,
    enumerate_syt,
    hook_schur,
    partitions,
    rsk_counting_identity,
)
from .tableau import (
    Cell,
    RecordingTableau,
    Shape,
    StrictnessProfile,
    Tableau,
    classify_regions,
    is_standard,
    is_valid,
    region2_components,
)
from .verify import (
    Alignment,
    AlignmentError,
    CaseFailure,
    Report,
    Sample,
    align_traces,
)

__version__ = "0.1.0"
