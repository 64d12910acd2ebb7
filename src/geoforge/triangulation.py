"""Ear-clipping triangulation and uniform sampling over the result.

The clipper removes, again and again, the remaining vertex of lowest
index whose corner is straight (|cross| <= EPS_AREA: dropped without a
triangle, so it can never stall the clipping) or an ear (a convex corner
whose closed triangle holds no other remaining vertex), which makes the
output deterministic.  When no corner qualifies it raises "ear clipping
stalled".  The triangles are those of a clipper that rescans from index
0 after every clip and tests every remaining vertex
(geomgen.triangulate_reference in the tests); the bookkeeping below only
skips work whose answer cannot have changed.

- Corner status.  The remaining vertices form a prev/next ring in index
  order.  Each corner is straight, reflex, an ear, blocked by a witness
  (a remaining vertex inside its triangle), or pending: not evaluated
  since its triangle last changed.
- Heap.  A min-heap of vertex indices holds the pending corners, each
  once: a corner is pushed only when its status turns pending, so no
  entry goes stale.  The clipper pops the lowest, evaluates it, and
  clips it if it is straight or an ear.  Every corner outside the heap
  is known to be neither, so that is the corner the rescanning clipper
  would clip, and a corner is evaluated only when the rescan would
  reach it.
- Watch lists.  A blocked corner sits on its witness's watch list.
  Clipping b changes the triangles of its two neighbours only, and
  removing a vertex can unblock a corner but never block one.  So a
  clip makes pending only b's neighbours and the corners on b's watch
  list (Eberly, "Triangulation by Ear Clipping").
- Grid.  The blocker query reads a uniform grid of the remaining
  vertices, one cell per vertex, and tests only the vertices in the
  cells that can hold a blocker, row by row (Held's FIST, Algorithmica
  30, 2001, tests ears through a grid too).  On stars, whose ears are
  thin spikes across two rings of vertices, such a query still meets
  about sqrt(n) vertices, so the work grows like n**1.5 there.

The query region.  Take a corner b with neighbours a and c whose
computed cr = cross(a, b, c) exceeds EPS_AREA.  A vertex p blocks it
when the computed cross(a, b, p), cross(b, c, p) and cross(c, a, p) are
all >= -EPS_AREA.  Let u = 2**-53 and g = 2**-50 (_ROUNDING).  The cells
read must hold every such p:

1. Exact region.  Write e_ab(p), e_bc(p), e_ca(p) and 2A for the exact
   values of these determinants and of cr, and let A > 0.  The three sum
   to 2A, and divided by 2A they are p's barycentric coordinates for c,
   a and b.  So all three are >= -eta exactly when every barycentric
   coordinate is >= -t, t = eta / 2A: the triangle with corners
   (1 + 2t, -t, -t) and its rotations, which is abc scaled about its
   centroid by 1 + 3t.  With eta = EPS_AREA that is 1 + 3 EPS_AREA/(2A),
   the region where all three tests hold in exact arithmetic.  A point
   of abc lies within 2w/3 in x of the centroid, w being abc's width, so
   every point of the scaled triangle lies within 2tw in x, and 2th in
   y with the height h, of a point of abc.
2. Rounding of the tests.  A determinant computed from float coordinates
   as fl(fl(fl(d1) fl(d2)) - fl(fl(d3) fl(d4))) has four roundings of
   relative error <= u each, and each product may underflow by at most
   2**-1075 (a subtraction whose result is subnormal is exact).  So it
   is off its exact value by at most g (|x1| + |x2| + 1), where x1 and
   x2 are the exact products.  Two vertices differ in each coordinate
   by at most S, the larger side of the bounding box of all vertices,
   and each edge of abc has |dx| + |dy| <= w + h, abc's width plus its
   height.  So a p that passes all three tests has every exact
   determinant >= -eta, eta = EPS_AREA + g (S (w + h) + 1).
3. The area.  By the same bound 2A >= cr - g (|x1| + |x2| + 1) with cr's
   own products.  The code computes lo = cr - 2g (|y1| + |y2| + 1) from
   the computed products y1, y2, which lie within a factor (1 + u)**3 of
   x1, x2; the factor 2 covers that and the rounding of lo itself (if
   lo rounds to a positive number, its rounding error is below u cr,
   and cr <= (1 + u)(|y1| + |y2|)).  So a positive lo is <= 2A, and
   then t <= eta / lo.  If lo <= 0 the exact corner may be flat or
   turned, the region of step 1 need not be bounded, and the query
   reads every cell.
4. The cells.  By steps 1 to 3 a blocker lies within 2 eta w / lo in x
   and 2 eta h / lo in y of a point of abc.  The code widens by
   4 eta w / lo + M and 4 eta h / lo + M, with M = 4gR and R the largest
   coordinate magnitude of any vertex: the factor 2 covers the few
   roundings of the positive terms eta, w, h, the quotient and the
   product, and M covers the position roundings below, each under
   16uR = 2gR.  A vertex the grid puts in row j lies within 5uH of the
   band y0 + [j, j + 1] H / n (H the height of all vertices, n the grid
   side), and the code computes that band within 2gR.  For each row
   that meets abc's y-range widened, it widens the row's band, clamps it
   to abc's y-range, and takes the x-range of abc over it from the
   corners' edges at the band's two ends and the middle corner if that
   lies inside: each such x is within 11uR of its exact value.  It reads
   the row's cells from that x-range widened, clamped to the vertices'
   box.  The grid puts a vertex in column min(int((x - x0) * sx), n - 1),
   sx = n / W with W the width of all vertices, and the query maps its
   x-bounds through the same steps, each of them monotone in x (likewise
   for rows), so every blocker sits in a cell that is read.

Sampling picks a triangle by inverse transform over the cumulative areas,
then folds two unit uniforms into barycentric coordinates (Turk, "Generating
random points in triangles", Graphics Gems, 1990).  The generator is
Python's Mersenne Twister (random.Random) seeded with the request's 64-bit
seed; per sample the draw order is fixed: triangle pick, then u, then v.
CPython guarantees the stability of random() across releases, which makes
sampled output reproducible byte for byte.

Each sample is drawn once, as an (x, y) float pair, from per-triangle data
computed once: a corner and the offsets of the other two.  A sum that
rounds past COORD_LIMIT raises Point's range error at the draw, so a
document never starts.  `sample_points` returns the pairs as a `Samples`,
which reads as a list of Points; `triangulation_to_dict` puts the same
list of pairs in the dump, and the JSON writer and the renderer write
each pair straight to text.  No Point, dump list or mark is made per
sample.
"""

from __future__ import annotations

import bisect
import heapq
import math
import random
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, starmap

from .core import COORD_LIMIT, EPS_AREA, GeometryError, Point, Polygon, cross

_ROUNDING = 2.0**-50  # g in the module docstring

# Corner statuses; a status >= 0 is the index of the corner's witness.  A
# clipped vertex keeps the status it was clipped with.
_EAR = -1
_STRAIGHT = -2
_REFLEX = -3
_PENDING = -4


@dataclass(frozen=True)
class Triangulation:
    polygon: Polygon
    triangles: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class SampleRequest:
    count: int
    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.count, int) or isinstance(self.count, bool) or self.count < 1:
            raise GeometryError("count must be an integer >= 1")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise GeometryError("seed must be an integer")
        if not (0 <= self.seed < 2**64):
            raise GeometryError("seed must fit in 64 unsigned bits")


def triangulate(poly: Polygon) -> Triangulation:
    """Ear-clipping triangulation; triangles index into poly.vertices."""
    verts = poly.vertices
    n = len(verts)
    prev = [n - 1] + list(range(n - 1))
    after = list(range(1, n)) + [0]
    grid = _VertexGrid(verts)
    status = [_PENDING] * n
    watchers: list[list[int]] = [[] for _ in range(n)]
    heap = list(range(n))

    def evaluate(ib: int) -> int:
        ia = prev[ib]
        ic = after[ib]
        cr = cross(verts[ia], verts[ib], verts[ic])
        if abs(cr) <= EPS_AREA:
            return _STRAIGHT
        if cr < 0.0:
            return _REFLEX
        witness = grid.blocker(ia, ib, ic, cr)
        if witness != _EAR:
            watchers[witness].append(ib)
        return witness

    def touch(ib: int) -> None:
        if status[ib] != _PENDING:
            status[ib] = _PENDING
            heapq.heappush(heap, ib)

    triangles: list[tuple[int, int, int]] = []
    left = n
    last = 0
    while left > 3:
        while True:
            if not heap:
                raise GeometryError("ear clipping stalled")
            ib = heapq.heappop(heap)
            state = status[ib] = evaluate(ib)
            if state == _EAR or state == _STRAIGHT:
                break
        ia = prev[ib]
        ic = after[ib]
        if state == _EAR:
            triangles.append((ia, ib, ic))
        after[ia] = ic
        prev[ic] = ia
        grid.remove(ib)
        left -= 1
        last = ia
        touch(ia)
        touch(ic)
        for watcher in watchers[ib]:
            if status[watcher] == ib:
                touch(watcher)
    ia, ib, ic = sorted((prev[last], last, after[last]))
    if cross(verts[ia], verts[ib], verts[ic]) > EPS_AREA:
        triangles.append((ia, ib, ic))
    return Triangulation(polygon=poly, triangles=tuple(triangles))


class _VertexGrid:
    """The remaining vertices in a uniform grid, for the blocker query."""

    def __init__(self, verts) -> None:
        self.verts = verts
        self.x0 = min(p.x for p in verts)
        self.y0 = min(p.y for p in verts)
        self.x1 = max(p.x for p in verts)
        self.y1 = max(p.y for p in verts)
        width = self.x1 - self.x0
        height = self.y1 - self.y0
        self.side = side = math.isqrt(len(verts))
        self.sx = side / width
        self.sy = side / height
        self.row_height = height / side
        self.span = max(width, height)  # S in the module docstring
        self.margin = 4.0 * _ROUNDING * max(-self.x0, self.x1, -self.y0, self.y1)  # 4 g R
        self.cells: list[list[int]] = [[] for _ in range(side * side)]
        self.cell_of = [self._row(p.y) * side + self._column(p.x) for p in verts]
        for idx, cell in enumerate(self.cell_of):
            self.cells[cell].append(idx)

    def _column(self, x: float) -> int:
        return min(int((x - self.x0) * self.sx), self.side - 1)

    def _row(self, y: float) -> int:
        return min(int((y - self.y0) * self.sy), self.side - 1)

    def remove(self, idx: int) -> None:
        self.cells[self.cell_of[idx]].remove(idx)

    def blocker(self, ia: int, ib: int, ic: int, cr: float) -> int:
        """A remaining vertex in the closed triangle of corner ib, or _EAR.

        cr is cross(a, b, c) > EPS_AREA.  The vertices of the cells that
        may hold one are tested as the reference tests every vertex.
        """
        verts = self.verts
        a, b, c = verts[ia], verts[ib], verts[ic]
        # cr's two products, as cross() computes them (step 3)
        products = abs((b.x - a.x) * (c.y - a.y)) + abs((b.y - a.y) * (c.x - a.x))
        lo = cr - 2.0 * _ROUNDING * (products + 1.0)
        if lo > 0.0:
            spans = self._raster(a, b, c, lo)
        else:
            side = self.side
            spans = [(row * side, row * side + side - 1) for row in range(side)]
        cells = self.cells
        for first, last in spans:
            for cell in range(first, last + 1):
                for idx in cells[cell]:
                    if idx == ia or idx == ib or idx == ic:
                        continue
                    p = verts[idx]
                    if (
                        cross(a, b, p) >= -EPS_AREA
                        and cross(b, c, p) >= -EPS_AREA
                        and cross(c, a, p) >= -EPS_AREA
                    ):
                        return idx
        return _EAR

    def _raster(self, a: Point, b: Point, c: Point, lo: float) -> list[tuple[int, int]]:
        """The cell ranges, one per grid row, that step 4 of the docstring reads."""
        # (px, py), (qx, qy), (rx, ry): the corners by increasing y
        (py, px), (qy, qx), (ry, rx) = sorted(((a.y, a.x), (b.y, b.x), (c.y, c.x)))
        width = max(px, qx, rx) - min(px, qx, rx)
        height = ry - py
        eta = EPS_AREA + _ROUNDING * (self.span * (width + height) + 1.0)
        scale = 4.0 * eta / lo
        wide = scale * width + self.margin
        tall = scale * height + self.margin
        long_slope = (rx - px) / (ry - py)
        low_slope = (qx - px) / (qy - py) if qy > py else 0.0
        high_slope = (rx - qx) / (ry - qy) if ry > qy else 0.0
        x0 = self.x0
        x1 = self.x1
        y0 = self.y0
        sx = self.sx
        row_height = self.row_height
        side = self.side
        last = side - 1
        spans = []
        for row in range(self._row(max(py - tall, y0)), self._row(min(ry + tall, self.y1)) + 1):
            band_lo = y0 + row * row_height - tall
            band_hi = band_lo + row_height + 2.0 * tall
            if band_lo < py:
                band_lo = py
            if band_hi > ry:
                band_hi = ry
            if band_lo > band_hi:
                continue
            left = right = px + (band_lo - py) * long_slope
            x = px + (band_hi - py) * long_slope
            if x < left:
                left = x
            elif x > right:
                right = x
            if band_lo <= qy:
                x = px + (band_lo - py) * low_slope
            else:
                x = qx + (band_lo - qy) * high_slope
            if x < left:
                left = x
            elif x > right:
                right = x
            if band_hi <= qy:
                x = px + (band_hi - py) * low_slope
            else:
                x = qx + (band_hi - qy) * high_slope
            if x < left:
                left = x
            elif x > right:
                right = x
            if band_lo <= qy <= band_hi:
                if qx < left:
                    left = qx
                elif qx > right:
                    right = qx
            # the columns of max(left - wide, x0) and min(right + wide, x1), inlined
            left -= wide
            right += wide
            base = row * side
            spans.append((base + (0 if left <= x0 else min(int((left - x0) * sx), last)),
                          base + (last if right >= x1 else min(int((right - x0) * sx), last))))
        return spans


def triangle_areas(tri: Triangulation) -> list[float]:
    verts = tri.polygon.vertices
    return [
        0.5 * cross(verts[i], verts[j], verts[k]) for i, j, k in tri.triangles
    ]


class Samples(Sequence):
    """Sampled points, stored once as (x, y) float pairs in `pairs`.

    It reads as the list of Points it stands for: indexing and iteration
    make each Point when it is read, a slice is a list of Points, and it
    equals a list of equal Points.  The dump and the writers take `pairs`
    as they are.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: list) -> None:
        self.pairs = pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return starmap(Point, self.pairs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(starmap(Point, self.pairs[index]))
        return Point(*self.pairs[index])

    def __eq__(self, other):
        if isinstance(other, Samples):
            return self.pairs == other.pairs
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return "Samples(%r)" % self.pairs


def sample_points(tri: Triangulation, request: SampleRequest) -> Samples:
    """Uniform points in the polygon, reproducible from the request seed."""
    if not isinstance(request, SampleRequest):
        raise GeometryError("request must be a SampleRequest")
    rng = random.Random(request.seed)
    return _sample_with_rng(tri, request.count, rng)


def _sample_with_rng(tri: Triangulation, count: int, rng) -> Samples:
    areas = triangle_areas(tri)
    if not areas:
        raise GeometryError("triangulation has no triangles")
    cumulative = list(accumulate(areas))
    total = cumulative[-1]
    verts = tri.polygon.vertices
    # per triangle: its first corner and the offsets of the other two
    corners = []
    for i, j, k in tri.triangles:
        a, b, c = verts[i], verts[j], verts[k]
        corners.append((a.x, a.y, b.x - a.x, b.y - a.y, c.x - a.x, c.y - a.y))
    # the pick can round up to total, where bisect gives len(cumulative):
    # the last triangle again
    corners.append(corners[-1])
    draw = rng.random
    pick = bisect.bisect_right
    limit = COORD_LIMIT
    pairs: list[tuple[float, float]] = []
    keep = pairs.append
    for _ in range(count):
        ax, ay, bx, by, cx, cy = corners[pick(cumulative, draw() * total)]
        u = draw()
        v = draw()
        if u + v > 1.0:
            u = 1.0 - u
            v = 1.0 - v
        x = ax + u * bx + v * cx
        y = ay + u * by + v * cy
        if not (-limit <= x <= limit and -limit <= y <= limit):
            Point(x, y)  # rounding took it out of range: raises Point's own error
        keep((x, y))
    return Samples(pairs)


def triangulation_to_dict(tri: Triangulation, samples=()) -> dict:
    """The plain-data form; `samples` is a Samples or any iterable of Points."""
    if type(samples) is Samples:
        pairs = samples.pairs
    else:
        pairs = [(p.x, p.y) for p in samples]
    return {
        "triangles": [[i, j, k] for i, j, k in tri.triangles],
        "samples": pairs,
    }
