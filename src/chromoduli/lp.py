"""Strict difference constraints, decided by an exact shortest-path closure.

A system of strict constraints  z_b - z_a < w  (integer w) over the nodes
0..N-1 is nonempty exactly when its constraint graph, one arc a -> b of
weight w per constraint, has no directed cycle of total weight <= 0
(difference constraints and Bellman-Ford, Cormen et al., *Introduction to
Algorithms* section 24.4).  Summed around a cycle, the constraints read
0 < sum w, so a cycle with sum w <= 0 certifies that the system is empty:
it is the Farkas certificate of this kind of constraint matrix.

A simple cycle has at most N arcs.  Scaled by N, the strict system becomes
the integer one  Z_b - Z_a <= W = N*w - 1,  and a simple cycle has sum
W < 0 exactly when its sum w <= 0.  A `Region` holds the all-pairs
shortest distances `dist` of its integer arcs, updated by one arc at a time
in O(N^2) (`with_arc`):

* an arc a -> b is refused when dist[b][a] + W < 0.  The shortest path
  from b to a is then re-derived from the region's arcs, and the cycle it
  closes must be made of the region's constraints and sum to w <= 0;
  anything else raises EngineConsistencyError;
* otherwise the potentials Z_v = dist[s][v] from any node s satisfy every
  integer arc, so z = Z / N satisfies every strict constraint with slack
  at least 1/N: a witness over one integer denominator.

A region shares the unchanged rows of `dist` with the region it was made
from, and keeps its last arc and a link to that region, so its arcs are
read off the chain only when a refusal needs them.
"""

from __future__ import annotations

from .errors import EngineConsistencyError


class Region:
    """A system of strict difference constraints z_b - z_a < w and its shortest-path closure."""

    __slots__ = ("dist", "parent", "arc")

    def __init__(self, dist, parent=None, arc=None):
        """The closure `dist` of `parent`'s constraints plus `arc`; no arc and no parent for the empty system."""
        self.dist, self.parent, self.arc = dist, parent, arc

    @classmethod
    def empty(cls, size):
        """No constraint over the nodes 0..size-1."""
        inf = float("inf")
        return cls([[0 if i == j else inf for j in range(size)] for i in range(size)])

    def arcs(self):
        """Every constraint (a, b, w), the last added first."""
        region = self
        while region.arc is not None:
            yield region.arc
            region = region.parent

    def with_arc(self, a, b, w):
        """The region with z_b - z_a < w added, or None when that empties it, certified by a cycle."""
        dist = self.dist
        W = len(dist) * w - 1
        if dist[b][a] + W < 0:
            _certify(self.cycle(a, b, w), {(a, b, w), *self.arcs()})
            return None
        new = dist[:]
        to_b = dist[b]
        for i, row in enumerate(dist):
            via = row[a] + W
            if via < row[b]:
                new[i] = [x if x <= via + y else via + y for x, y in zip(row, to_b)]
        return Region(new, self, (a, b, w))

    def cycle(self, a, b, w):
        """The arc a -> b closed by a shortest path from b to a over the region's arcs.

        An arc u -> x lies on a shortest path to a when its integer weight
        plus dist[x][a] is dist[u][a]; a breadth-first search from b over
        those arcs reaches a along a simple path.
        """
        dist, size = self.dist, len(self.dist)
        tight = {}
        for arc in self.arcs():
            u, x, v = arc
            if size * v - 1 + dist[x][a] == dist[u][a]:
                tight.setdefault(u, []).append(arc)
        reached = {b: None}
        queue = [b]
        for u in queue:
            for arc in tight.get(u, ()):
                if arc[1] not in reached:
                    reached[arc[1]] = arc
                    queue.append(arc[1])
        if a not in reached:
            raise EngineConsistencyError("no shortest path closes a refused arc into a cycle")
        path = [(a, b, w)]
        while path[-1][0] != b:
            path.append(reached[path[-1][0]])
        return path[::-1]


def _certify(cycle, constraints):
    """Check that `cycle` is a closed walk of `constraints` whose weights sum to <= 0."""
    if any(arc not in constraints for arc in cycle):
        raise EngineConsistencyError("a refused region's cycle uses an arc the region does not have")
    if any(arc[1] != after[0] for arc, after in zip(cycle, cycle[1:] + cycle[:1])):
        raise EngineConsistencyError("a refused region's cycle does not close")
    if sum(arc[2] for arc in cycle) > 0:
        raise EngineConsistencyError("a refused region's cycle sums to a positive weight")
