"""The caps a caller may set on a run.

Budgets holds only the limits that a caller turns: the search node cap,
set by ``--budget`` or ``MONOSEQ_BUDGET``, and the poset enumerator's size
cap, which a caller raises to run one larger poset search.  One frozen
object threads both through a run, so the CLI can report the values it
used and a run stays reproducible.  The fixed limits live beside the one
check that reads each: ``counting.SUBSET_BUDGET``,
``posets.ANTICHAIN_NODE_BUDGET``, ``search.EXHAUSTIVE_MAX_N`` and
``search.WITNESS_CAP``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ValidationError


@dataclass(frozen=True)
class Budgets:
    # Node cap for one exhaustive search run.  Each of its prefix tasks may
    # visit an equal share, budget // tasks, so the run as a whole stays
    # within the cap and the outcome does not depend on the workers.
    search_state_budget: int = 1_000_000_000
    # Largest n accepted by the exhaustive poset search.
    poset_enum_max_n: int = 9

    def __post_init__(self) -> None:
        if self.search_state_budget < 0:
            raise ValidationError(f"search budget must be >= 0, got {self.search_state_budget}")

    def with_overrides(self, **kwargs) -> "Budgets":
        return replace(self, **kwargs)


DEFAULT_BUDGETS = Budgets()
