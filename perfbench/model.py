"""Independent model of the protocol complex, used as an output oracle.

The complex of a round counter is rebuilt here from the plain execution
semantics, without importing the package under test: every layered
schedule is simulated as a full-information immediate-snapshot run, the
final local state of each process is a vertex, each run's vertices form a
facet, and the simplices are all subsets of facets (the empty one
included).  A process is *unseen* by a simplex when it has no vertex in it
and none of its writes shows up, however indirectly, in the views of the
vertices; those are the row-0 ghosts of the witness-structure encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations


def _schedules(remaining: tuple[tuple[int, int], ...]):
    live = [p for p, c in remaining if c > 0]
    if not live:
        yield ()
        return
    for size in range(1, len(live) + 1):
        for layer in combinations(live, size):
            rest = tuple((p, c - 1 if p in layer else c) for p, c in remaining)
            for tail in _schedules(rest):
                yield (layer,) + tail


@dataclass(frozen=True)
class ModelComplex:
    """Counts read off the simulated complex of one round counter."""

    f_vector: tuple[int, ...]
    total: int
    facets: int
    unseen: dict[frozenset[int], int]

    def remainder(self, pivot: int) -> int:
        """Simplices whose unseen set is neither empty nor ``{pivot}``."""
        return sum(
            n for u, n in self.unseen.items() if u and u != frozenset({pivot})
        )


@cache
def model(counts: tuple[int, ...]) -> ModelComplex:
    """Simulate the complex of the counter ``counts`` (process ``p`` runs
    ``counts[p]`` rounds; every listed process participates)."""
    support = frozenset(range(len(counts)))
    interned: dict[object, int] = {}
    seen_by: list[frozenset[int]] = []

    def intern(state: object, seen: frozenset[int]) -> int:
        if state not in interned:
            interned[state] = len(seen_by)
            seen_by.append(seen)
        return interned[state]

    facet_sets: set[frozenset[int]] = set()
    for schedule in _schedules(tuple(enumerate(counts))):
        state = {p: ("init", p) for p in support}
        knows = {p: frozenset() for p in support}
        registers: dict[int, object] = {}
        written: dict[int, frozenset[int]] = {}
        for layer in schedule:
            for p in layer:
                registers[p] = state[p]
                written[p] = knows[p] | {p}
            snapshot = frozenset(registers.items())
            learned = frozenset().union(*written.values())
            for p in layer:
                state[p] = (p, snapshot)
                knows[p] = learned
        facet_sets.add(frozenset(intern((p, state[p]), knows[p]) for p in support))
    colour = {v: key[0] for key, v in interned.items()}

    simplices: set[frozenset[int]] = set()
    for facet in facet_sets:
        ordered = sorted(facet)
        for size in range(len(ordered) + 1):
            simplices.update(frozenset(c) for c in combinations(ordered, size))
    f_vector = [0] * len(counts)
    unseen: dict[frozenset[int], int] = {}
    for sigma in simplices:
        if sigma:
            f_vector[len(sigma) - 1] += 1
        seen = frozenset(colour[v] for v in sigma).union(*(seen_by[v] for v in sigma))
        key = support - seen
        unseen[key] = unseen.get(key, 0) + 1
    return ModelComplex(tuple(f_vector), len(simplices), len(facet_sets), unseen)
