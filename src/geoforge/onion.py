"""Onion decomposition: repeated convex-hull peeling.

Each layer takes every point lying on the hull boundary of what remains,
vertices and edge-interior points alike, so collinear points leave with
the layer they sit on.  Peeling continues until nothing is left.

The points are sorted once, lexicographically, and stay sorted as each
layer is filtered out, so a layer of m remaining points costs O(m): one
monotone chain (core._monotone_chain, whose pop rule convex_hull shares)
and, per hull edge, a scan of only the points in its x-slab.  A point
whose cross product with the edge clears core._OFF_LINE is proven off the
edge; only the others get the exact distance test.  The chain is most of
a peel's time, so it keeps the top of its stack in locals and spends one
cross product on each point that pops nothing.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .core import (
    EPS_DIST,
    GeometryError,
    Point,
    _OFF_LINE,
    _monotone_chain,
    _reject_duplicates,
    distance,
    point_segment_distance,
)


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
    order = sorted((p.x, p.y, i) for i, p in enumerate(pts))
    _reject_duplicates(order, pts)
    layers: list[tuple[Point, ...]] = []
    while order:
        layer = _boundary_layer(order, pts)
        taken = set(layer)
        order = [t for t in order if t[2] not in taken]
        layers.append(tuple(pts[i] for i in layer))
    return OnionDecomposition(tuple(layers))


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
