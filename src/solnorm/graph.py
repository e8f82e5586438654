"""The curve complex bounded to a box, |p|, |q| <= bound: each slope's
neighbors in it, the breadth-first walk and the DOT ball.  Only export-graph
and the oracle's tree checks use it; reports read distances and geodesics
in closed form from solnorm.curve_complex.  export_dot lists at most
curve_complex.MAX_PATH_EDGES edges, the limit a certificate is listed to.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from . import curve_complex
from .arith import ext_gcd
from .curve_complex import Slope, _canonical
from .errors import DomainError


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


def _family(s: Slope, bound: int) -> tuple[int, int, range]:
    """The solutions (p0 + t*s.p, q0 + t*s.q) of s.p*q' - p'*s.q = 2 in
    the box that are slopes: (p0, q0) and the range of their t, the odd
    ones.  p0 = -2y and q0 = 2x are even, so an even t gives two even
    entries; an odd t gives the odd entry of s, and the determinant 2 with
    s then makes the pair reduced."""
    _, x, y = ext_gcd(s.p, s.q)
    p0, q0 = -2 * y, 2 * x
    ts = _family_range(((p0, s.p), (q0, s.q)), bound)
    return p0, q0, range(ts.start | 1, ts.stop, 2)


def neighbors_bounded(s: Slope, bound: int) -> list[Slope]:
    """All slopes u with intersection_number(s, u) = 2 and |u.p|, |u.q| <= bound.

    The solutions of p*q' - p'*q = 2 form the family (p0 + t*p, q0 + t*q),
    and _family keeps the members that are slopes, with no gcd.  The
    opposite family (intersection form value -2) consists of the negated
    pairs, which canonicalize to the same slopes.
    """
    p0, q0, ts = _family(s, bound)
    return sorted([_canonical(p0 + t * s.p, q0 + t * s.q) for t in ts])


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
    exactly the edges along which breadth-first search discovers it.

    A ball of more than MAX_PATH_EDGES edges raises DomainError.  A
    vertex whose S neighbors would pass the limit is refused before they
    are listed, by the length of _family's range of their t: in a tree
    all of them but the parent are new, so S - 1 must not pass the room
    left.  The center, and the children of a center outside the box, have
    no parent among them, so each edge found is counted too."""
    limit = curve_complex.MAX_PATH_EDGES
    nodes, edges = [], []

    def neighbors(u: Slope) -> list[Slope]:
        # a range's truth holds past sys.maxsize, unlike len
        if _family(u, bound)[2][limit - len(edges) + 1:]:
            raise _ball_too_large(center, radius, bound)
        return neighbors_bounded(u, bound)

    for v, level, parent in breadth_first(center, neighbors, radius):
        nodes.append(v)
        if parent is not None:
            edges.append((min(v, parent), max(v, parent)))
            if len(edges) > limit:
                raise _ball_too_large(center, radius, bound)
    lines = ["graph {"]
    lines += [f'  "{v}";' for v in sorted(nodes)]
    lines += [f'  "{v}" -- "{u}";' for v, u in sorted(edges)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _ball_too_large(center: Slope, radius: int, bound: int) -> DomainError:
    """The error for a ball with more than MAX_PATH_EDGES edges."""
    return DomainError(f"ball of radius {radius} around {center} within |p|, |q| <= {bound} has more than "
                       f"{curve_complex.MAX_PATH_EDGES} edges, too many to list")
