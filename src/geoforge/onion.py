"""Onion decomposition: repeated convex-hull peeling.

Each layer takes every point lying on the hull boundary of what remains,
vertices and edge-interior points alike, so collinear points leave with
the layer they sit on.  Peeling continues until nothing is left.

The points are sorted once, lexicographically, and split into columns of
w = max(8, isqrt(n)) points by x rank, each kept sorted by y.  A layer's
monotone chain (core._monotone_chain, whose pop rule convex_hull shares)
and its edge scans run only on the candidates: the points not proven
deep inside the hull of what remains (_DEEP).  The hull of the column
tops and bottoms lies inside that hull, so each column is read from its
bottom while y is at most _DEEP above the highest point of that hull's
lower side near the column (within _DEEP of it in x), and from its top
likewise against the upper side.  The first and last columns, and any
within _DEEP of the ends of that hull's x-range, give all their points,
and with fewer than 4 columns left every point is a candidate.  Removing
a layer rewrites only the ends of the columns it read.  A layer of m
remaining points thus costs O(k + c log c) for k columns and c
candidates, not O(m): on uniform points in a 1000-wide square, 101
candidates of 1,730 remaining per layer at 4,000 points, and 234 of
6,811 at 16,000.

Per hull edge, only the candidates in its x-slab are scanned.  A point
whose cross product with the edge clears core._OFF_LINE is proven off the
edge; only the others get the exact distance test.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import isqrt
from operator import itemgetter

from .core import (
    EPS_AREA,
    EPS_DIST,
    GeometryError,
    Point,
    _OFF_LINE,
    _monotone_chain,
    _reject_duplicates,
    distance,
    point_segment_distance,
)

_DEEP = 2.0 * (EPS_AREA / EPS_DIST + _OFF_LINE)
"""How far inside the candidates' hull a point lies before a layer leaves it out.

With W = EPS_AREA / EPS_DIST + _OFF_LINE, just over 1, _DEEP is 2 W.  By
the argument below, a point left out (a deep point) (a) never changes
what the chain keeps and (b) lies farther than EPS_DIST from every edge of
the layer, so the layer computed from the candidates is the one from
every point.

Band.  For remaining points o, q, p, cross(o, q, p) is |oq| times p's
signed distance from the line o->q (left positive), and steps 1-2 of the
_OFF_LINE proof bound its rounding by |oq| _OFF_LINE.  No two remaining
points lie within EPS_DIST, so the pop test cross <= EPS_AREA pops q when
p lies right of o->q by more than _OFF_LINE and keeps q when p lies left
of it by more than W.  The band between is widest, about 1 unit, about an
edge about EPS_DIST long; that is why the margin is counted in W and not
in _OFF_LINE: with a margin of 2 _OFF_LINE, points inside 1e-3-wide
clusters near (1e6, -1e6) fall in such bands and some layers change.

Depth.  The column tops and bottoms are candidates, so their hull lies
in K, the hull of all candidates.  Over its column's x-range widened by
_DEEP + EPS_DIST on each side, a deep point p lies more than _DEEP above
the highest point of that hull's lower side and more than _DEEP below the
lowest of its upper side.  EPS_DIST covers the rounding of the widened
ends, and each interpolation rounds by under 3e-9, as its terms are at
most 2e6 in size.  So the disk of radius _DEEP - 3e-9 about p lies
between the two sides: p is more than 2 W - 3e-9 inside K.

(a) The upper pass is the lower pass of the set turned by a half turn,
which negation does exactly, so take the lower pass; and add the deep
points one at a time, as each stays deep in K.  Let E be K's lower side,
call a point near when it lies within W of E, and let r be the first near
point after the deep point p in the sort.  A turn the chain keeps is left,
or right by under _OFF_LINE, so a stack bends up as it goes, and above
its last near element it rises from E: r, after those elements and within
W of E, lies right of each of their edges and pops them.  Until r the runs
with and without p hold a common prefix under elements that r pops:
- p pops no vertex v of E: the edge into v from its predecessor bends up
  along K's side, which lies more than W from p.  What p does pop lies
  above the line from what p keeps to p, or ends an edge short enough to
  point at p; r lies right of both kinds as well.
- Every point g between p and r is not near.  Let t be what p kept, over
  s.  When g does not pop p it lies left of t->p, so it lies left of s->t
  at least as far as p does: the run without p keeps t at g too, or loses
  t only where the edge s->t points at p, which r pops anyway.
At r both runs pop down to the common prefix and go on alike.

(b) By (a) the layer is the chain of the candidates, whose vertices are
near, so each of its edges lies within W of K's boundary: more than
W - 3e-9 > EPS_DIST from any deep point.
"""


@dataclass(frozen=True)
class OnionDecomposition:
    layers: tuple[tuple[Point, ...], ...]

    def __len__(self) -> int:
        return len(self.layers)


def onion_decomposition(points) -> OnionDecomposition:
    """Peel a point set into hull layers.

    Every layer is listed in counterclockwise boundary order starting at
    its lexicographically smallest point.  Duplicate input points (under
    the distance epsilon) are rejected.
    """
    pts = list(points)
    if not pts:
        raise GeometryError("empty point set")
    # (x, y, input index); the index breaks ties as a stable sort would
    order = sorted(zip([p.x for p in pts], [p.y for p in pts], range(len(pts))))
    _reject_duplicates(order, pts)
    # columns of w points by x rank: (remaining points sorted by y, x range)
    w = max(8, isqrt(len(order)))
    runs = [order[k:k + w] for k in range(0, len(order), w)]
    cols = [(sorted(run, key=itemgetter(1)), run[0][0], run[-1][0]) for run in runs]
    layers: list[tuple[Point, ...]] = []
    while cols:
        cand, cuts = _shell(cols)
        layer = _boundary_layer(cand, pts)
        taken = set(layer)
        # the layer lies among the candidates: col[:i] and col[j:]
        for (col, _, _), (i, j) in zip(cols, cuts):
            if j < len(col):
                col[j:] = [t for t in col[j:] if t[2] not in taken]
            if i:
                col[:i] = [t for t in col[:i] if t[2] not in taken]
        cols = [c for c in cols if c[0]]
        layers.append(tuple(pts[i] for i in layer))
    return OnionDecomposition(tuple(layers))


def _shell(cols: list) -> tuple[list, list]:
    """The sorted points the next layer's chain runs on, and for each
    column the (i, j) such that its candidates are col[:i] and col[j:].

    The hull of the column tops and bottoms lies inside the hull of what
    remains; a point _DEEP inside its lower and upper sides is left out.
    With fewer than 4 columns every point is a candidate.
    """
    if len(cols) < 4:
        cand = [t for col, _, _ in cols for t in col]
        cand.sort()
        return cand, [(len(col), len(col)) for col, _, _ in cols]
    ends = [col[0] for col, _, _ in cols] + [col[-1] for col, _, _ in cols if len(col) > 1]
    ends.sort()
    hull = _monotone_chain(ends)
    k = hull.index(ends[-1])
    lower = hull[:k + 1]
    upper = [ends[0]] + hull[k:][::-1]
    lx = [t[0] for t in lower]
    ly = [t[1] for t in lower]
    ux = [t[0] for t in upper]
    uy = [t[1] for t in upper]
    # the widening covers any point within _DEEP of a column in x, and
    # EPS_DIST more covers the rounding of the widened ends
    reach = _DEEP + EPS_DIST
    start = ends[0][0]
    stop = ends[-1][0]
    cand: list = []
    cuts: list = []
    for col, x0, x1 in cols:
        x0 -= reach
        x1 += reach
        if x0 < start or x1 > stop:
            cand += col
            cuts.append((len(col), len(col)))
            continue
        low = _extreme(lx, ly, x0, x1, max) + _DEEP
        high = _extreme(ux, uy, x0, x1, min) - _DEEP
        n = len(col)
        i = 0
        while i < n and col[i][1] <= low:
            i += 1
        j = n
        while j > i and col[j - 1][1] >= high:
            j -= 1
        cand += col[:i]
        cand += col[j:]
        cuts.append((i, j))
    cand.sort()
    return cand, cuts


def _extreme(xs: list, ys: list, x0: float, x1: float, pick) -> float:
    """pick (max or min) of the chain through (xs, ys) over [x0, x1].

    [x0, x1] lies inside the chain's x-range, whose only vertical pieces
    are at its ends, so neither piece read here is vertical.
    """
    a = bisect_right(xs, x0) - 1
    b = bisect_left(xs, x1) - 1
    y0 = ys[a] + (x0 - xs[a]) * ((ys[a + 1] - ys[a]) / (xs[a + 1] - xs[a]))
    y1 = ys[b] + (x1 - xs[b]) * ((ys[b + 1] - ys[b]) / (xs[b + 1] - xs[b]))
    return pick(y0, y1, *ys[a + 1:b + 1])


def _boundary_layer(order: list, pts: list) -> list[int]:
    """Input indices of the hull boundary of the sorted points in order."""
    if len(order) == 1:
        return [order[0][2]]
    hull = _monotone_chain(order)
    if len(hull) == 2:
        return _collinear_layer(order, hull[0], hull[1])
    xs = [t[0] for t in order]
    # a point within EPS_DIST of two edges goes to the first in walk order
    placed = {t[2] for t in hull}
    layer: list[int] = []
    for k, (ax, ay, ia) in enumerate(hull):
        bx, by, ib = hull[k + 1 - len(hull)]
        a, b = pts[ia], pts[ib]
        layer.append(ia)
        # a point within EPS_DIST of the edge has x within EPS_DIST of its
        # x-range; the doubled margin absorbs the rounding of that test
        lo = bisect_left(xs, min(ax, bx) - 2.0 * EPS_DIST)
        hi = bisect_right(xs, max(ax, bx) + 2.0 * EPS_DIST)
        dx, dy = bx - ax, by - ay
        m = _OFF_LINE * (abs(dx) + abs(dy))
        # cross(a, b, p) outside [-m, m] proves p off the edge (core._OFF_LINE)
        on_edge = [
            i for x, y, i in order[lo:hi]
            if -m <= dx * (y - ay) - dy * (x - ax) <= m
            and i not in placed and point_segment_distance(pts[i], a, b) <= EPS_DIST
        ]
        on_edge.sort(key=lambda i: (distance(a, pts[i]), i))
        placed.update(on_edge)
        layer.extend(on_edge)
    return layer


def _collinear_layer(order: list, lo: tuple, hi: tuple) -> list[int]:
    """All remaining points sit on one segment; order them along it."""
    dx = hi[0] - lo[0]
    dy = hi[1] - lo[1]
    along = sorted(order, key=lambda t: ((t[0] - lo[0]) * dx + (t[1] - lo[1]) * dy, t[2]))
    return [t[2] for t in along]


def layers_to_lists(d: OnionDecomposition) -> list:
    return [[[p.x, p.y] for p in layer] for layer in d.layers]
