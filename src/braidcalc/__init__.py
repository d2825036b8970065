"""Exact braid-word calculus for closed-braid link invariants.

Submodules: words (braid words and permutations), links (closure
components, linking, Alexander polynomial), moves (stabilization towers),
b3 (three-strand conjugacy and closure classification), templates
(block-strand move templates), certify (the flype-family certifier),
cli (command-line front door).
"""

from .b3 import (
    B3NormalForm,
    Conjugate,
    FreeProductWord,
    GenericUnique,
    NotConjugate,
    TorusKnot2k,
    UnknotClass,
    Unresolved,
    brute_force_conjugacy_oracle,
    classify_closure,
    conjugate_in_B3,
    kolee_both_signs,
    normal_form,
    quotient_image,
)
from .burau import Laurent, burau_matrix
from .certify import (
    VERDICT_CERTIFIED,
    CertificationReport,
    FamilyParams,
    certify,
    family_words,
    report_to_json,
    sweep,
)
from .links import (
    ComponentInvariants,
    LinkingMatrix,
    alexander_polynomial,
    components,
    linking_matrix,
)
from .moves import (
    ConjugateBy,
    Destabilize,
    Exchange,
    FoliationCounts,
    InvalidSplit,
    MarkovTower,
    MoveError,
    NotDestabilizable,
    Stabilize,
    TowerValidation,
    find_exchange_splits,
    tower_from_json,
    tower_from_moves,
    tower_to_json,
    validate_tower,
)
from .templates import (
    BlockSkeleton,
    BlockSlot,
    BraidingAssignment,
    Crossing,
    InconsistentCorrespondence,
    MissingAssignment,
    Template,
    TemplateError,
    WeightConstraintViolation,
    WidthMismatch,
    component_correspondence,
    destabilize_template,
    exchange_template,
    flype_template,
    instantiate,
    per_component_beta_delta,
)
from .words import (
    BraidWord,
    StrandPermutation,
    format_word,
    parse_word,
    sigma_power,
)

__version__ = "0.1.0"
