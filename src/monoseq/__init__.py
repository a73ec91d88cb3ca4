"""Exact counting of monotone subsequences, extremal permutation
constructions, poset antichain decompositions, and desk-scale exhaustive
verification of the extremal claims."""

from .config import DEFAULT_BUDGETS, Budgets
from .counting import (
    CountReport,
    LengthProfile,
    brute_force_count,
    count_decreasing_exact,
    count_increasing_exact,
    count_monotone,
    length_profile,
)
from .cuts import PruneResult, PruneRound, min_height_reducing_set, prune
from .decomposition import (
    ChainCoverResult,
    Decomposition,
    ExampleStructureReport,
    IndexSets,
    decompose,
    disjoint_chain_cover,
    index_sets,
    verify_example_structure,
)
from .errors import BudgetExceededError, InvariantError, ValidationError
from .lemmas import (
    FunctionTable,
    LabeledTree,
    SetFamily,
    SignatureBoundReport,
    SurplusBoundReport,
    count_connected_subsets,
    distinguishing_sets,
    lower_shadow,
    signature_bound_check,
    surplus_conclusion_check,
)
from .perms import (
    ParamSplit,
    Permutation,
    build_sigma_extremal,
    build_tau,
    canonical_form,
    delta_formula,
    identity,
    m_tau_formula,
    mu,
    param_split,
    parse_permutation,
    permutation_from_json,
    symmetries,
)
from .posets import (
    Poset,
    antichain_poset,
    chain_poset,
    count_antichains_of_size,
    count_chains_of_size,
    count_chains_through,
    disjoint_chains_poset,
    dual,
    h_k,
    height,
    poset_from_json,
    poset_from_perm,
    poset_from_relation,
    reverse_order,
    surplus,
    width,
)
from .search import (
    PosetSearchResult,
    SearchResult,
    TheoremReport,
    exhaustive_min,
    heuristic_min,
    min_hk_over_posets,
    verify_theorem,
)

__version__ = "0.1.0"
