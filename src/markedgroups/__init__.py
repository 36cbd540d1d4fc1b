"""Exact computational group theory for a tower of commuting-stable-letter
extensions over Baumslag's metabelian group, plus the finite certificates
of convergence in the space of marked groups."""

from .words import (
    Alphabet,
    Substitution,
    Word,
    WordSyntaxError,
    ball_size,
    commutator,
    concat,
    conjugate,
    enumerate_ball,
    enumerate_sphere,
    free_reduce,
    invert,
    parse_word,
    render_word,
    substitute,
)
from .presentations import (
    Presentation,
    builtin,
    conjugation_substitution,
    hnn_presentation,
    parse_presentation,
    serialize_presentation,
    zero_sum_coordinates,
)
from .baumslag import (
    BaseElement,
    BElement,
    PolyFrac,
    eval_base,
    member_A,
    member_H2,
    member_HA,
    pf_add,
    pf_mul_monomial,
    polyfrac,
    span_membership,
)
from .hnn import (
    BudgetExceededError,
    HnnOracle,
    SubgroupHandle,
    conjugate_handle,
    g_oracle,
    h2_handle,
    member_in_G,
)
from .marked import (
    Agreement,
    CyclicOracle,
    MarkedGroup,
    RelationBall,
    builtin_group,
    chabauty_agree,
    condense,
    cong_r,
    escape_index,
    marked_Z,
    marked_Zmod,
    max_agreement,
    orbit_witness,
    relation_ball,
)
from .experiments import (
    ExperimentReport,
    exp_continuity,
    exp_epsilon,
    exp_orbit,
    exp_zmod_limit,
)

__version__ = "0.1.0"
