"""Greedy batching of an ordered vector sequence under a page budget.

Consecutive vectors are merged into one batch as long as the union of
their page-request sets still fits in the memory budget; the batch is then
requested from the buffer manager as a single set, so each page is
requested once per batch instead of once per vector.

Contract: for a fixed order, greedy batching gives the fewest batches of
any split into consecutive runs whose page unions fit the budget (every
sub-run of a feasible run is feasible, so closing a batch late never
costs a batch). It does not minimise the total page requests:
`{1} {2} {2,3}` at budget 2 splits greedily into `[{1},{2}] [{2,3}]`,
4 requests, while `[{1}] [{2},{2,3}]` costs 3.

Batching keeps the order it is given, and the batched join runs the
batches in that order. Training cuts no batches: it reads every U-page
with `operator.gather`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OversizedVectorError


@dataclass
class Batch:
    positions: list  # consecutive positions into the ordered sequence
    pages: frozenset  # union of the members' page-request sets


def fitting_sets(ordered_sets, budget):
    """Yield (position, page frozenset) in order, raising
    OversizedVectorError at the first set larger than `budget`."""
    for position, s in enumerate(ordered_sets):
        s = frozenset(s)
        if len(s) > budget:
            raise OversizedVectorError(
                f"vector at position {position} needs {len(s)} pages, budget is {budget}",
                position=position,
            )
        yield position, s


def greedy_batches(ordered_sets, budget):
    """Maximal consecutive batches whose page unions fit in `budget`.

    The result has the fewest batches of any budget-feasible split into
    consecutive runs. Its total page requests can exceed the minimum of
    any such split (see the module docstring).
    """
    batches = []
    positions = []
    union = set()
    for position, s in fitting_sets(ordered_sets, budget):
        if positions and len(union) + len(s.difference(union)) > budget:
            batches.append(Batch(positions, frozenset(union)))
            positions = [position]
            union = set(s)
        else:
            positions.append(position)
            union.update(s)
    if positions:
        batches.append(Batch(positions, frozenset(union)))
    return batches
