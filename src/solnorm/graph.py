"""The curve complex bounded to a box, |p|, |q| <= bound: each slope's
neighbors in it, the breadth-first walk and the DOT ball.  Only export-graph
and the oracle's tree checks use it; reports read distances and geodesics
in closed form from solnorm.curve_complex.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator

from .arith import ext_gcd
from .curve_complex import Slope


def _family_range(terms, bound: int) -> range:
    """The integers t with -bound <= base + t*step <= bound for every
    (base, step) in terms, at least one step nonzero.  A zero step puts no
    limit on t, so its base alone must lie in the box."""
    lows, highs = [], []
    for base, step in terms:
        if step == 0:
            if abs(base) > bound:
                return range(0)
            continue
        lo, hi = -bound - base, bound - base
        if step < 0:
            lo, hi, step = -hi, -lo, -step
        lows.append(-((-lo) // step))
        highs.append(hi // step)
    return range(max(lows), min(highs) + 1)


def neighbors_bounded(s: Slope, bound: int) -> list[Slope]:
    """All slopes u with intersection_number(s, u) = 2 and |u.p|, |u.q| <= bound.

    The solutions of p*q' - p'*q = 2 form the family (p0 + t*p, q0 + t*q);
    members with both entries even are not slopes and are skipped.  The
    opposite family (intersection form value -2) consists of the negated
    pairs, which canonicalize to the same slopes.
    """
    if bound < 1:
        return []
    g, x, y = ext_gcd(s.p, s.q)
    p0, q0 = -2 * y, 2 * x  # s.p * q0 - p0 * s.q == 2
    found = []
    for t in _family_range(((p0, s.p), (q0, s.q)), bound):
        cp, cq = p0 + t * s.p, q0 + t * s.q
        if math.gcd(cp, cq) == 1:
            found.append(Slope.of(cp, cq))
    found.sort()
    return found


def breadth_first(
    center: Slope, neighbors: Callable[[Slope], list[Slope]], radius: int | None = None
) -> Iterator[tuple[Slope, int, Slope | None]]:
    """Every vertex reachable from center, with its distance to center and
    the vertex it was discovered from (None for center), as (vertex, level,
    parent) in the order breadth-first search discovers them; only those at
    distance <= radius when a radius is given.  neighbors(v) lists the
    vertices adjacent to v; it is called once per vertex below the last
    level, after the caller has read every vertex of v's level."""
    if radius is not None and radius < 0:
        return
    yield center, 0, None
    seen = {center}
    frontier, level = [center], 0
    while frontier and level != radius:
        level += 1
        nxt = []
        for v in frontier:
            for u in neighbors(v):
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
                    yield u, level, v
        frontier = nxt


def export_dot(center: Slope, radius: int, bound: int) -> str:
    """DOT text for the ball of the given radius around center, restricted to
    coefficients <= bound.  Undirected edges are written once with "--".

    The bounded subgraph is a subforest of a tree, so the ball's edges are
    exactly the edges along which breadth-first search discovers it."""
    nodes, edges = [], []
    for v, level, parent in breadth_first(center, lambda u: neighbors_bounded(u, bound), radius):
        nodes.append(v)
        if parent is not None:
            edges.append((min(v, parent), max(v, parent)))
    lines = ["graph {"]
    lines += [f'  "{v}";' for v in sorted(nodes)]
    lines += [f'  "{v}" -- "{u}";' for v, u in sorted(edges)]
    lines.append("}")
    return "\n".join(lines) + "\n"
