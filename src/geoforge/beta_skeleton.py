"""Circle-based beta-skeletons for beta >= ~0 (finite positive).

An edge {v1, v2} survives when no third point sees it under an angle of
theta(beta) or more; the forbidden neighbourhood is treated as closed, so
a witness exactly on the critical circle removes the edge.  beta = 1
gives the Gabriel graph.  beta = 2 gives a strict subgraph of the
lune-based relative neighbourhood graph: the angle rule also admits
witnesses outside the lune.

The build walks the other points in distance order once per point.  For
beta >= 1 a Yao-cone prune (Yao 1982; Kirkpatrick & Radke 1985) keeps
only the pairs the angle rule could leave alive, a walk stops once the
points' bounding box leaves no octant room for another candidate, and
every pair is tested only against the witnesses that can reach it.  On
larger sets the walk reads its order lazily from a uniform grid of cells
(Bentley, Weide & Yao, ACM TOMS 6(4), 1980) instead of sorting all the
points.  Each test is the one angle predicate, so the edges are those of
testing every pair against every other point.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import groupby

from .core import GeometryError, Point, _reject_duplicates

EPS_ANGLE = 1e-9
# points per grid cell, and the least n whose grid has more than one cell
CELL_POINTS = 3
GRID_MIN_POINTS = 160


@dataclass(frozen=True)
class ProximityGraph:
    vertices: tuple[Point, ...]
    edges: frozenset  # of (i, j) pairs with i < j

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def theta_of_beta(beta: float) -> float:
    """Critical angle of the beta-neighbourhood.

    arcsin(1/beta) for beta >= 1 and pi - arcsin(beta) for beta <= 1;
    the two branches agree (pi/2) at beta = 1.
    """
    b = float(beta)
    if not (math.isfinite(b) and b > 0.0):
        raise GeometryError("beta must be a finite real > 0")
    if b >= 1.0:
        return math.asin(1.0 / b)
    return math.pi - math.asin(b)


def beta_skeleton(points, beta: float) -> ProximityGraph:
    """Beta-skeleton from one distance-ordered walk per point.

    Duplicate points (under the distance epsilon) are rejected.  A set of
    exactly two points yields the single edge between them.

    A witness k kills the pair (i, j) when the angle i-k-j is at least
    theta' = theta(beta) - EPS_ANGLE, decided by one square-root-free
    predicate.  Point i walks the others in order of squared distance d2.

    Cone prune, only when c = cos(theta') >= 0 (every beta >= 1): the
    predicate then kills on a dot product <= 0, and every surviving edge
    is a Gabriel edge.  Split the directions around i into 8 closed 45
    degree octants by signs and |dx| against |dy|.  The first point the
    walk meets in an octant is its nearest point k, and a later q in that
    octant is a candidate of i only if d2[q] <= 2 * (1 + 1e-6) * d2[k].
    For a non-candidate |ik| < |iq| * cos 45 / (1 + 5e-7) and the angle
    k-i-q is at most 45 degrees plus rounding, so
    (i - k).(q - k) = |ik| (|ik| - |iq| cos(k-i-q)) is negative by a
    margin of about 3e-7 |ik| |kq|, far above the 1e-15 relative error of
    the float dot product: k kills (i, q).  A pair (j, i), j < i, is
    tested only when each is the other's candidate; only the candidate
    sets are kept.  For beta < 1 every pair is tested.

    Box stop: no point of octant o lies farther from i than
    far2[o] = e * e + m * m.  Here ex and ey are the float distances from
    i to the points' bounding box on o's side (xhi - xi or xi - xlo, and
    likewise for y), e is ex for a flat octant (|dy| <= |dx|) and ey for a
    steep one, and m = min(ex, ey).  Float subtraction is monotone, so a
    point of o has |dx| <= ex and |dy| <= ey; its minor offset is at most
    its major one, hence at most m; and squaring, adding and rounding are
    monotone, so its float d2 = dx * dx + dy * dy is at most far2[o].  An
    octant on the negative side of an axis along which i is least holds no
    point (dx < 0 needs x < xi), and gets 0.  Octant o's limit is far2[o]
    while it is empty and min(far2[o], 2.000002 * its first d2) after; the
    walk stops at the first d2 above every limit, so its candidates are
    those of a walk over all the points.

    Witness scan: by the law of sines a witness that sees (i, j) under
    the angle a lies within |ij| / sin(a) of i.  The predicate kills only
    when sin^2(a) >= sin^2(min(theta', pi/2)) - 1e-14, the slack bounding
    its rounding error, so the scan walks i's order only while
    d2[k] <= d2[j] * reach2, with reach2 = (1 + 1e-6) / (sin^2 - 1e-14).
    Where sin^2(theta') <= 2e-14 (beta above about 7e6) rounding alone
    can decide the predicate, and every point is scanned.

    Grid order: with the prune and at least GRID_MIN_POINTS points the
    points sit in about n / CELL_POINTS cells, otherwise in one (_Grid).
    Point i's walk writes d2 for the points of a box of cells around its
    own and releases, in d2 order, those below bound = gap * gap, gap
    being the float distance from i to the nearest x or y of a point
    outside the box.  A point q outside has, say, x_q >= that x >= xi, so
    by monotone rounding its float dx, dx * dx and d2 are at least gap,
    bound and bound: the released points are exactly the first of i's
    order.  When the walk or a scan reaches the end of what is released,
    the box grows and releases the next block (_Grid.more).  Points of
    equal d2 may come in any order: a prune limit depends only on d2, and
    a pair's fate only on whether some point within reach kills it.

    GRID_MIN_POINTS is where the grid starts to pay.  On uniform points
    like the bench's (a 1e-6 grid in [0, 1000]^2, beta 1 and 2; CPython
    3.11 on 2 shared vCPUs, median of 24 interleaved runs) the grid ran at
    0.91x the speed of one cell at n = 128, 1.00x at 150, 1.01x at 175,
    1.11x at 200 and 1.33x at 250.  With 2, 3 or 4 points a cell it ran
    at 1.40x, 1.52x or 1.56x at n = 300 and 4.19x, 4.37x or 4.40x at
    1,200, so CELL_POINTS = 3 sits where the cell size hardly matters.
    """
    pts = tuple(points)
    n = len(pts)
    if n < 2:
        raise GeometryError("beta skeleton needs at least 2 points")
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    _reject_duplicates(sorted(zip(xs, ys, range(n))), pts)
    theta = theta_of_beta(beta)
    # angle >= theta - EPS_ANGLE  <=>  cos(angle) <= cos(theta - EPS_ANGLE)
    c = math.cos(theta - EPS_ANGLE)
    c2 = c * c
    s2 = math.sin(min(theta - EPS_ANGLE, math.pi / 2)) ** 2
    reach2 = (1.0 + 1e-6) / (s2 - 1e-14) if s2 > 2e-14 else math.inf
    prune = c >= 0.0
    grid = _Grid(xs, ys, max(n // CELL_POINTS, 1) if prune and n >= GRID_MIN_POINTS else 1)
    # d2[q] from the current point i, written for the points its walk has met
    d2 = grid.d2
    xlo, xhi, ylo, yhi = grid.xlo, grid.xhi, grid.ylo, grid.yhi
    cand = []  # cand[i]: the candidates of i, kept only when prune
    edges = set()
    for i in range(n):
        xi, yi = xs[i], ys[i]
        order = grid.walk(i)
        if prune:
            mine = set()
            first = [0.0] * 8
            # far2 of each octant (see above), in o's order
            lim = []
            for ex in (xhi - xi, xi - xlo):
                for ey in (yhi - yi, yi - ylo):
                    m = min(ex, ey)
                    mm = m * m
                    lim += (ex * ex + mm, ey * ey + mm)
            # no point lies on the negative side of an axis where i is least
            if xi == xlo:
                lim[4:] = 0.0, 0.0, 0.0, 0.0
            if yi == ylo:
                lim[2] = lim[3] = lim[6] = lim[7] = 0.0
            top = max(lim)
            # each for runs over one released block; when it runs out, the
            # walk releases the next, or None once nothing left is <= top
            seq = order
            while seq is not None:
                for q in seq:
                    dq = d2[q]
                    if dq > top:
                        break
                    dx = xs[q] - xi
                    dy = ys[q] - yi
                    o = (dx < 0.0) * 4 + (dy < 0.0) * 2 + (abs(dx) < abs(dy))
                    if not first[o]:
                        first[o] = b = 2.000002 * dq
                        if b < lim[o]:
                            lim[o] = b
                            top = max(lim)
                    elif dq > first[o]:
                        continue
                    mine.add(q)
                else:
                    seq = grid.more(top)
                    continue
                break
            cand.append(mine)
            pairs = [j for j in mine if j < i and i in cand[j]]
        else:
            pairs = range(i)  # one cell: the walk has met every point
        for j in pairs:
            limit = d2[j] * reach2
            xj, yj = xs[j], ys[j]
            seq = order
            while seq is not None:
                for k in seq:
                    if d2[k] > limit:
                        edges.add((j, i))
                        break
                    if k == j:
                        continue
                    # the pair's lower index is a, as in every-pair order
                    ax = xj - xs[k]
                    ay = yj - ys[k]
                    bx = xi - xs[k]
                    by = yi - ys[k]
                    dot = ax * bx + ay * by
                    if c >= 0.0:
                        if dot <= 0.0 or dot * dot <= c2 * (ax * ax + ay * ay) * (bx * bx + by * by):
                            break
                    elif dot < 0.0 and dot * dot >= c2 * (ax * ax + ay * ay) * (bx * bx + by * by):
                        break
                else:
                    seq = grid.more(limit)
                    continue
                break
            else:  # every point not yet met is out of reach
                edges.add((j, i))
    return ProximityGraph(vertices=pts, edges=frozenset(edges))


def _squared_distances(d2: list, block: list, xs: list, ys: list, xi: float, yi: float) -> None:
    """Write d2[q] from (xi, yi) for each index q in block."""
    for q in block:
        x = xs[q]
        y = ys[q]
        d2[q] = (x - xi) * (x - xi) + (y - yi) * (y - yi)


def _extremes(vs: list, lo: float, s: float, g: int) -> tuple:
    """The least value in bins >= b and the greatest in bins < b, b = 0..g.

    A value's bin is int((v - lo) * s), nondecreasing in v, so each bin's
    values are a run of the sorted values; inf and -inf stand for none.
    """
    sv = sorted(vs)
    ends = [bisect_left(sv, b, key=lambda v: int((v - lo) * s)) for b in range(g + 1)]
    above = [sv[k] if k < len(sv) else math.inf for k in ends]
    below = [sv[k - 1] if k else -math.inf for k in ends]
    return above, below


class _Grid:
    """The points in gx by gy cells over their bounding box, and the walk
    from one point at a time in d2 order.

    About `cells` near-square cells; one cell holds every point when cells
    is 1.  A point's column is int((x - xlo) * sx), nondecreasing in x and
    below gx since sx = (gx - 1/2) / (xhi - xlo) (rounding moves the
    product by far less than 1/2); its row likewise.  Cell (c, r) is
    cells[c * gy + r].  x_above[c] is the least x in columns >= c and
    x_below[c] the greatest x in columns < c; y_above and y_below do so
    for rows.

    `walk(i)` returns the released prefix of point i's order, and `more`
    extends it.  The walk has met the points of a box of cells around i's
    cell (`box`) and written their d2; it has released those with d2 <
    `bound`, the square of the distance from i to the nearest x or y of a
    point outside the box, and `pool` holds the rest.
    """

    __slots__ = ("xs", "ys", "xlo", "xhi", "ylo", "yhi", "gx", "gy", "sx", "sy", "cells",
                 "x_above", "x_below", "y_above", "y_below",
                 "d2", "xi", "yi", "box", "pool", "bound", "order")

    def __init__(self, xs: list, ys: list, cells: int) -> None:
        self.xs, self.ys = xs, ys
        self.xlo, self.xhi = xlo, xhi = min(xs), max(xs)
        self.ylo, self.yhi = ylo, yhi = min(ys), max(ys)
        w, h = xhi - xlo, yhi - ylo
        if h * cells <= w:
            gx, gy = cells, 1
        elif w * cells <= h:
            gx, gy = 1, cells
        else:
            gx = round(math.sqrt(cells * w / h))
            gy = max(1, cells // gx)
        self.gx, self.gy = gx, gy
        self.sx = sx = (gx - 0.5) / w if gx > 1 else 0.0
        self.sy = sy = (gy - 0.5) / h if gy > 1 else 0.0
        self.x_above, self.x_below = _extremes(xs, xlo, sx, gx)
        self.y_above, self.y_below = _extremes(ys, ylo, sy, gy)
        self.cells = [list(range(len(xs)))]
        if gx * gy > 1:
            cell = [int((x - xlo) * sx) * gy + int((y - ylo) * sy) for x, y in zip(xs, ys)]
            self.cells = [()] * (gx * gy)
            for k, run in groupby(sorted(range(len(xs)), key=cell.__getitem__), cell.__getitem__):
                self.cells[k] = list(run)
        self.d2 = [0.0] * len(xs)

    def walk(self, i: int) -> list:
        """Start the walk from point i with its own cell and the 8 around it."""
        self.xi, self.yi = xi, yi = self.xs[i], self.ys[i]
        c, r = int((xi - self.xlo) * self.sx), int((yi - self.ylo) * self.sy)
        gx, gy = self.gx, self.gy
        self.box = c0, c1, r0, r1 = (c - 1 if c else 0, c + 1 if c + 1 < gx else c,
                                     r - 1 if r else 0, r + 1 if r + 1 < gy else r)
        block = []
        for c in range(c0, c1 + 1):
            for cell in self.cells[c * gy + r0:c * gy + r1 + 1]:
                block += cell
        _squared_distances(self.d2, block, self.xs, self.ys, xi, yi)
        block.sort(key=self.d2.__getitem__)
        del block[0]  # i itself, the only point at d2 = 0
        self.pool, self.order = block, []
        self._release()
        return self.order

    def more(self, reach: float):
        """The next released block, or None once every point left has d2 > reach.

        The box grows on each side by at least one cell and by a sixth of
        its width plus height, so a walk that crosses many cells widens it
        geometrically.
        """
        cells, gy = self.cells, self.gy
        while self.bound <= reach and self.bound != math.inf:
            c0, c1, r0, r1 = self.box
            step = max(1, (c1 - c0 + r1 - r0) // 6)
            self.box = n0, n1, m0, m1 = (max(c0 - step, 0), min(c1 + step, self.gx - 1),
                                         max(r0 - step, 0), min(r1 + step, gy - 1))
            # the new columns whole, then the new rows of the old columns
            runs = [cells[c * gy + m0:c * gy + m1 + 1] for c in (*range(n0, c0), *range(c1 + 1, n1 + 1))]
            if m0 < r0:
                runs += [cells[c * gy + m0:c * gy + r0] for c in range(c0, c1 + 1)]
            if m1 > r1:
                runs += [cells[c * gy + r1 + 1:c * gy + m1 + 1] for c in range(c0, c1 + 1)]
            block = []
            for run in runs:
                for cell in run:
                    block += cell
            _squared_distances(self.d2, block, self.xs, self.ys, self.xi, self.yi)
            self.pool += block
            self.pool.sort(key=self.d2.__getitem__)
            fresh = self._release()
            if fresh:
                return fresh
        return None

    def _release(self) -> list:
        """Move the pooled points nearer than every point outside the box to the order."""
        c0, c1, r0, r1 = self.box
        xi, yi = self.xi, self.yi
        gap = min(self.x_above[c1 + 1] - xi, xi - self.x_below[c0],
                  self.y_above[r1 + 1] - yi, yi - self.y_below[r0])
        self.bound = bound = gap * gap
        pool = self.pool
        if bound == math.inf:
            self.pool = []
            self.order += pool
            return pool
        m = bisect_left(pool, bound, key=self.d2.__getitem__)
        fresh = pool[:m]
        del pool[:m]
        self.order += fresh
        return fresh


def graph_to_dict(g: ProximityGraph) -> dict:
    return {
        "points": [[p.x, p.y] for p in g.vertices],
        "edges": [[i, j] for i, j in g.edge_list()],
    }
