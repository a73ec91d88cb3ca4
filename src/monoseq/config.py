"""Enumeration budgets and other tunable limits.

All caps live in one frozen dataclass so that callers (library, CLI, tests)
can thread a single object through and runs stay reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Budgets:
    # Largest number of subsets a brute-force subsequence count may visit.
    subset_budget: int = 2_000_000
    # Largest number of backtracking nodes one antichain count on a
    # witness-free poset may visit.
    antichain_node_budget: int = 5_000_000
    # Largest n accepted by the exhaustive permutation search.
    exhaustive_max_n: int = 11
    # Node cap for one exhaustive search run.  Each of its prefix tasks may
    # visit an equal share, budget // tasks, so the run as a whole stays
    # within the cap and the outcome does not depend on the workers.
    search_state_budget: int = 1_000_000_000
    # Largest n accepted by the exhaustive poset search.
    poset_enum_max_n: int = 9
    # Minimizing witnesses kept per exhaustive run.
    witness_cap: int = 10_000

    def with_overrides(self, **kwargs) -> "Budgets":
        return replace(self, **kwargs)


DEFAULT_BUDGETS = Budgets()
