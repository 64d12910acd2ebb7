"""Trapezoidal decomposition of non-crossing segments inside a box.

Every distinct segment endpoint shoots a vertical ray up and down; the
rays stop at the first segment (or the box wall) they meet.  The cells of
the resulting subdivision are trapezoids with vertical left/right sides.
For n segments the map has at most 3n + 1 trapezoids whose areas tile the
box exactly.

The input check tests only the segment pairs whose bounding boxes
overlap.  The rays and the cells then come from one left-to-right sweep
over the endpoint x-coordinates that keeps the segments over the current
slab in their vertical order (Bentley & Ottmann 1979; de Berg et al.,
Computational Geometry, ch. 6); a cell lasts while the same two bounds
are neighbours.  The tie rules:

- x-ranges are closed: a segment lies over a slab when its x-range holds
  the slab's midpoint, and a ray at x meets the segments whose x-range
  holds x, endpoints included;
- segments of equal height at a slab's midpoint, and a ray's equally
  near hits, go by the lowest index first;
- a ray stops only at a segment more than EPS_DIST above (below) its
  origin;
- x-coordinates within EPS_DIST of the last kept one merge into one
  event, and an endpoint equally near two events joins the lower one.

locate uses the slab method: two bisections in an index built on its
first call.  Build and index read every height from per-segment rows, as
ay + (x - ax) * dy / dx: the same float as _seg_y_at's.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .core import (
    COORD_LIMIT,
    EPS_DIST,
    BBox,
    GeometryError,
    Point,
    Segment,
    _boxed_segments_contact,
    _contact_candidates,
    _first_contact,
    points_equal,
)


class Wall(enum.Enum):
    TOP = "top_wall"
    BOTTOM = "bottom_wall"


@dataclass(frozen=True, slots=True)
class VerticalExtension:
    origin: Point
    up_hit: Point
    up_target: object  # segment index or Wall.TOP
    down_hit: Point
    down_target: object  # segment index or Wall.BOTTOM


@dataclass(frozen=True, slots=True)
class Trapezoid:
    top: object  # segment index or Wall.TOP
    bottom: object  # segment index or Wall.BOTTOM
    left_x: float
    right_x: float
    leftp: Point | None  # None when the side is the box wall
    rightp: Point | None


@dataclass(frozen=True)
class TrapezoidalMap:
    bbox: BBox
    segments: tuple[Segment, ...]
    extensions: tuple[VerticalExtension, ...]
    trapezoids: tuple[Trapezoid, ...]
    # locate's slab index, built on its first call
    _slabs: tuple | None = field(default=None, init=False, repr=False, compare=False)


def _seg_y_at(seg: Segment, x: float) -> float:
    a, b = seg.a, seg.b
    return a.y + (x - a.x) * (b.y - a.y) / (b.x - a.x)


def _rows(segs, bbox: BBox) -> tuple[list, list, list, list]:
    """a.x, a.y, b.x - a.x and b.y - a.y per bound id: the segments by
    index, then the bottom and top walls as constant rows.

    ay[i] + (x - ax[i]) * dy[i] / dx[i] makes _seg_y_at's operations in its
    order, so it is the same float; a wall row gives the wall's height.
    """
    ax = [s.a.x for s in segs] + [0.0, 0.0]
    ay = [s.a.y for s in segs] + [bbox.ymin, bbox.ymax]
    dx = [s.b.x - s.a.x for s in segs] + [1.0, 1.0]
    dy = [s.b.y - s.a.y for s in segs] + [0.0, 0.0]
    return ax, ay, dx, dy


def _bound_y(bound, x: float, segs, bbox: BBox) -> float:
    """Height at x of a trapezoid bound: a segment index or a box wall."""
    if bound is Wall.TOP:
        return bbox.ymax
    if bound is Wall.BOTTOM:
        return bbox.ymin
    return _seg_y_at(segs[bound], x)


def _default_bbox(segments) -> BBox:
    xs = [v for s in segments for v in (s.a.x, s.b.x)]
    ys = [v for s in segments for v in (s.a.y, s.b.y)]
    w = max(xs) - min(xs)
    h = max(ys) - min(ys)
    pad_x = 0.10 * w  # w > 0: vertical segments are rejected
    pad_y = 0.10 * (h if h > 0.0 else w)
    # the walls' ray hits are Points, so the y-range stays in the domain
    return BBox(min(xs) - pad_x, max(min(ys) - pad_y, -COORD_LIMIT),
                max(xs) + pad_x, min(max(ys) + pad_y, COORD_LIMIT))


def build_trapezoidal_map(segments, bbox: BBox | None = None) -> TrapezoidalMap:
    """Build the trapezoidal map of interior-disjoint, non-vertical segments.

    Segments may share endpoints (polyline chains are fine); any other
    contact is rejected.  Without an explicit bbox the tight bounding box
    of the endpoints expanded by 10% per side is used, its y-range cut to
    +/-COORD_LIMIT, which requires at least one segment.  An explicit bbox
    around segments must keep |ymin|, |ymax| <= COORD_LIMIT, since the rays
    that reach its walls end in Points there.
    """
    segs = tuple(segments)
    for i, s in enumerate(segs):
        if not isinstance(s, Segment):
            raise GeometryError("segment %d is not a Segment" % i)
        if abs(s.a.x - s.b.x) <= EPS_DIST:
            raise GeometryError("vertical segment unsupported: %d" % i)
    first = _first_contact(
        _contact_candidates([(s.a, s.b) for s in segs]),
        lambda i, j: _boxed_segments_contact(segs[i].a, segs[i].b, segs[j].a, segs[j].b,
                                             shared_ok=True),
    )
    if first is not None:
        raise GeometryError("segments intersect: %d and %d" % first)
    if bbox is None:
        if not segs:
            raise GeometryError("empty segment set requires an explicit bbox")
        bbox = _default_bbox(segs)
    else:
        if segs and not -COORD_LIMIT <= bbox.ymin < bbox.ymax <= COORD_LIMIT:
            raise GeometryError("bbox must satisfy |ymin|, |ymax| <= %g" % COORD_LIMIT)
        for i, s in enumerate(segs):
            if not (bbox.contains(s.a) and bbox.contains(s.b)):
                raise GeometryError("endpoint outside bbox: segment %d" % i)
    extensions, trapezoids = _sweep(segs, bbox, _distinct_endpoints(segs))
    return TrapezoidalMap(bbox=bbox, segments=segs, extensions=extensions, trapezoids=trapezoids)


def _distinct_endpoints(segs) -> list[Point]:
    """Endpoints in first-occurrence order, merged under the epsilon.

    Points within EPS_DIST of each other fall in the same or adjacent
    cells of a grid of side 2 * EPS_DIST, so each endpoint is compared
    only with the kept points in its 3 x 3 block of cells.
    """
    cell = 2.0 * EPS_DIST
    grid: dict[tuple[int, int], list[Point]] = {}
    out: list[Point] = []
    for s in segs:
        for p in (s.a, s.b):
            cx, cy = math.floor(p.x / cell), math.floor(p.y / cell)
            kept = True
            for gx in (cx - 1, cx, cx + 1):
                for gy in (cy - 1, cy, cy + 1):
                    for q in grid.get((gx, gy), ()):
                        kept = kept and not points_equal(p, q)
            if kept:
                grid.setdefault((cx, cy), []).append(p)
                out.append(p)
    return out


def _event_xs(segs, bbox: BBox) -> list[float]:
    xs = sorted({bbox.xmin, bbox.xmax} | {s.a.x for s in segs} | {s.b.x for s in segs})
    merged: list[float] = []
    for x in xs:
        if merged and x - merged[-1] <= EPS_DIST:
            continue
        merged.append(x)
    return merged


# Unit roundoff of a float; _TINY covers the underflow the bounds ignore.
_U = 2.0**-53
_TINY = 2.0**-1000


def _sweep(segs, bbox: BBox, origins) -> tuple[tuple, tuple]:
    """The extensions and the trapezoids, in one left-to-right pass.

    Slab k runs between the merged events x_k and x_k+1, and its
    midpoint is m_k.  Segment i, with closed x-range [lo_i, hi_i], lies
    over slab k when lo_i <= m_k <= hi_i, so it enters at
    bisect_left(mids, lo_i) and leaves at bisect_right(mids, hi_i); a
    segment whose range holds no midpoint enters and leaves at the same
    index and lies over no slab.  S_k, the segments over slab k, are
    ordered by the key (y_i(m_k), i), where y_i(x) is _seg_y_at: an
    index-ordered list stable-sorted by height, and the order that fixes
    the gaps (top, bottom) of the slab.  At slab k the pass

    1. removes the leaving segments from the ordered list ``act``,
    2. re-checks at m_k the neighbour pairs that the removals created and
       those whose certificate (below) has expired, swapping each pair
       found out of order,
    3. shoots the rays of the origins with bisect_left(mids, x) == k,
    4. inserts the entering segments by bisecting the key at m_k,
    5. closes the trapezoids of the gaps that are gone, in the order they
       were opened, and opens the new gaps from bottom to top.

    **Order.**  Claim: after step 4, act is S_k sorted by its key.  Let Y_i
    be segment i's exact line.  For x in [lo_i, hi_i] the six roundings
    of _seg_y_at give |y_i(x) - Y_i(x)| <= gamma_6 * (|a.y| + |T|), with
    T = (x - a.x) * (b.y - a.y) / (b.x - a.x) and |T| <= |b.y - a.y|, so
    ``err[i]`` = 8u * (|a.y| + |b.y - a.y|) + 2**-1000 bounds it with room
    for its own roundings (u = 2**-53).  For
    a pair A below B, D = Y_B - Y_A is linear in x, and D(m) > E =
    err[A] + err[B] makes y_A(m) < y_B(m), so the keys keep that order.
    When a pair becomes neighbours at m0 with heights y_A <= y_B (step 2
    or 4), D(m0) >= (y_B - y_A) / (1 + u) - E.  With s the computed
    slopes, the slope difference is off by at most gamma_4 * (|s_A| +
    |s_B|), and over [m0, m] inside both ranges that moves D by at most
    gamma_4 * (|dy_A| + |dy_B|) <= E.  Hence D(m) > E while
    G + (s_B - s_A) * (m - m0) > 0, with G = (y_B - y_A) * 0.999 - 4E
    below the exact margin (y_B - y_A) / (1 + u) - 3E.  If G <= 0 the
    pair is checked again at the next slab; if s_B >= s_A it never
    needs a check; otherwise the certificate covers the midpoints up to
    x_exp = m0 + h, h = 0.5 * G / (s_A - s_B).  The rounded m0 + h lies
    within h of m0 + h, because m0 itself is a float at distance h, so
    every covered m has m - m0 <= 2h and (m - m0) * (s_A - s_B) <=
    G * (1 + 3u), still below the exact margin.  A pair that neither left
    nor was re-checked therefore keeps its key order.  Every other
    neighbour pair has been compared at m_k, and each swap removes one
    inversion of the fixed keys at m_k, so step 2 ends with all
    neighbours in key order: the list is sorted.  This holds for
    fans that share an endpoint, for endpoints on a midpoint and for
    pairs closer than their rounding: such pairs get G <= 0 and are
    compared at every slab, swapped when the keys say so.  Insertion by
    bisection into a sorted list, with keys that are all distinct,
    then gives the stable sort.  Neighbouring events are more than
    EPS_DIST apart, so no slab is skipped.

    **Rays.**  The map tests every segment with lo_i <= x <= hi_i for the
    ray at an origin (x, y): the lowest y_i(x) above y + EPS_DIST (below
    the top wall), then the lowest index, and likewise downwards.  With
    m_k-1 < x <= m_k, such a segment lies over slab k - 1 or k, or over
    none: every candidate is in L, the list after step 2, or enters or
    leaves at k, and the latter few take the closed test one by one.  L
    is sorted by the keys at m_k-1 (as part of S_k-1) and, if step 2
    swapped nothing, at m_k.  Then for A before B in L, D >= -E at both
    midpoints and so, being linear, at x, which gives y_A(x) <= y_B(x)
    + 2 * (err[A] + err[B]).  A bisection of L at y finds a place where
    the probed heights cross it.  The walk up from there keeps the
    lowest height above y + EPS_DIST seen so far, or the top wall, and
    stops at a segment whose height minus 3 * (its err + the largest
    err) exceeds it: every later segment is then higher, so neither a
    better hit upwards nor a hit downwards (the third multiple covers
    the roundings of the test).  The walk down mirrors it.  The
    candidates then
    go through the map's own selection loop in index order, so the hit
    is the same float from the same segment.  If step 2 swapped a pair,
    the rays of that slab test all of L.

    Every event adds or removes O(1) neighbour pairs and each ray makes
    O(log n) probes plus a short walk, so band segments cost O(n log n)
    height evaluations; an event shared by many endpoints costs its
    origins times its entering and leaving segments.  Each height is
    ay + (x - ax) * dy / dx on the rows of _rows, computed where it is
    used with no call or memo: the same float as _seg_y_at's, so every
    key, tie and bound above reads the same values.
    """
    n = len(segs)
    bottom, top = n, n + 1  # the walls as bound ids
    bound_of = list(range(n)) + [Wall.BOTTOM, Wall.TOP]
    ax, ay, dx, dy = _rows(segs, bbox)
    events = _event_xs(segs, bbox)
    mids = [(xl + xr) / 2.0 for xl, xr in zip(events, events[1:])]
    nslab = len(mids)
    lo = [min(s.a.x, s.b.x) for s in segs]
    hi = [max(s.a.x, s.b.x) for s in segs]
    err = [8.0 * _U * (abs(ay[i]) + abs(dy[i])) + _TINY for i in range(n)]
    err_max = max(err, default=0.0)
    slope = [dy[i] / dx[i] for i in range(n)]
    # per index k: the segments that enter and leave the list there, and
    # those that enter or leave there or lie over no slab, the candidates
    # the rays at k test one by one
    entering: list[list[int]] = [[] for _ in range(nslab + 1)]
    leaving: list[list[int]] = [[] for _ in range(nslab + 1)]
    local: list[list[int]] = [[] for _ in range(nslab + 1)]
    for i in range(n):
        first, end = bisect_left(mids, lo[i]), bisect_right(mids, hi[i])
        local[first].append(i)
        if first < end:
            entering[first].append(i)
            leaving[end].append(i)
            local[end].append(i)
    rays: list[list[int]] = [[] for _ in range(nslab + 1)]
    for o, p in enumerate(origins):
        rays[bisect_left(mids, p.x)].append(o)

    endpoints_at: dict[float, list[Point]] = {x: [] for x in events}
    for p in origins:
        # endpoints snap to the nearest event (events are built from them);
        # of two events equally near, the lower x wins
        k = bisect_left(events, p.x)
        if k == len(events) or (k > 0 and p.x - events[k - 1] <= events[k] - p.x):
            k -= 1
        endpoints_at[events[k]].append(p)
    for pts in endpoints_at.values():
        pts.sort(key=lambda p: p.y)

    def pick_endpoint(x: float, t: int, b: int) -> Point | None:
        y_lo = ay[b] + (x - ax[b]) * dy[b] / dx[b] - EPS_DIST
        y_hi = ay[t] + (x - ax[t]) * dy[t] / dx[t] + EPS_DIST
        for p in endpoints_at[x]:
            if y_lo <= p.y <= y_hi:
                return p
        return None

    ymin, ymax = bbox.ymin, bbox.ymax
    extensions: list[VerticalExtension | None] = [None] * len(origins)

    def shoot(origin: Point, active, scan) -> VerticalExtension:
        ox, oy = origin.x, origin.y
        t_up, t_dn = oy + EPS_DIST, oy - EPS_DIST
        # the candidates and their heights at ox
        cand = {s: ay[s] + (ox - ax[s]) * dy[s] / dx[s] for s in scan if lo[s] <= ox <= hi[s]}
        k = bisect_right(active, oy, key=lambda s: ay[s] + (ox - ax[s]) * dy[s] / dx[s])
        best = ymax  # the lowest height above t_up so far
        for i in range(k, len(active)):
            s = active[i]
            y = ay[s] + (ox - ax[s]) * dy[s] / dx[s]
            if y - 3.0 * (err[s] + err_max) > best:
                break
            cand[s] = y
            if t_up < y < best:
                best = y
        best = ymin  # the highest height below t_dn so far
        for i in range(k - 1, -1, -1):
            s = active[i]
            y = ay[s] + (ox - ax[s]) * dy[s] / dx[s]
            if y + 3.0 * (err[s] + err_max) < best:
                break
            cand[s] = y
            if best < y < t_dn:
                best = y
        up_y, up_target = ymax, Wall.TOP
        down_y, down_target = ymin, Wall.BOTTOM
        for s in sorted(cand):
            y = cand[s]
            if y > t_up and y < up_y:
                up_y, up_target = y, s
            elif y < t_dn and y > down_y:
                down_y, down_target = y, s
        return VerticalExtension(
            origin=origin,
            up_hit=Point(ox, up_y),
            up_target=up_target,
            down_hit=Point(ox, down_y),
            down_target=down_target,
        )

    act: list[int] = []  # the segments over the current slab, bottom to top
    up = [-1] * (n + 2)  # neighbour above; -1 once a segment has left
    down = [-1] * (n + 2)
    up[bottom], down[top] = top, bottom
    certs: list[tuple[float, int, int]] = []  # heap of (x_exp, below, above)
    gaps: dict[int, tuple] = {}  # bottom -> (seq, top, bottom, left x, leftp), in opening order
    seq = 0
    done: list[Trapezoid] = []
    dirty = [bottom]  # bounds whose neighbour above changed

    def certify(b: int, t: int, yb: float, yt: float, m0: float) -> None:
        g = (yt - yb) * 0.999 - 4.0 * (err[b] + err[t])
        if g <= 0.0:
            heappush(certs, (m0, b, t))
        elif slope[t] < slope[b]:
            heappush(certs, (m0 + 0.5 * (g / (slope[b] - slope[t])), b, t))

    for k in range(nslab):
        xl, mid = events[k], mids[k]
        closed = []
        work = []
        for r in leaving[k]:
            b, t = down[r], up[r]
            up[b], down[t] = t, b
            up[r] = down[r] = -1
            act.remove(r)
            closed.append(gaps.pop(r))
            dirty.append(b)
            work.append(b)
        while certs and certs[0][0] < mid:
            _, b, t = heappop(certs)
            if up[b] == t:
                work.append(b)
        swapped = False
        while work:
            b = work.pop()
            t = up[b]
            if b == bottom or t == top or t < 0:
                continue
            yb = ay[b] + (mid - ax[b]) * dy[b] / dx[b]
            yt = ay[t] + (mid - ax[t]) * dy[t] / dx[t]
            if (yb, b) < (yt, t):
                certify(b, t, yb, yt, mid)
                continue
            swapped = True
            i = act.index(b)
            act[i], act[i + 1] = t, b
            x, y = down[b], up[t]
            up[x], down[t], up[t], down[b], up[b], down[y] = t, x, b, t, y, b
            certify(t, b, yt, yb, mid)
            dirty += (x, t, b)
            work += (x, b)

        for o in rays[k]:
            if swapped:
                extensions[o] = shoot(origins[o], (), act + local[k])
            else:
                extensions[o] = shoot(origins[o], act, local[k])

        for s in entering[k]:
            ys = ay[s] + (mid - ax[s]) * dy[s] / dx[s]
            i = bisect_left(act, (ys, s), key=lambda v: (ay[v] + (mid - ax[v]) * dy[v] / dx[v], v))
            b = act[i - 1] if i else bottom
            t = act[i] if i < len(act) else top
            act.insert(i, s)
            up[b], down[s], up[s], down[t] = s, b, t, s
            if b != bottom:
                certify(b, s, ay[b] + (mid - ax[b]) * dy[b] / dx[b], ys, mid)
            if t != top:
                certify(s, t, ys, ay[t] + (mid - ax[t]) * dy[t] / dx[t], mid)
            dirty += (b, s)

        opened = []
        for b in set(dirty):
            t = up[b]
            if t < 0:
                continue
            g = gaps.get(b)
            if g is not None:
                if g[1] == t:
                    continue
                closed.append(gaps.pop(b))
            opened.append(b)
        dirty = []
        closed.sort()
        for _, t, b, start_x, leftp in closed:
            done.append(Trapezoid(bound_of[t], bound_of[b], start_x, xl, leftp,
                                  pick_endpoint(xl, t, b)))
        opened.sort(key=lambda b: (-math.inf, b) if b == bottom
                    else (ay[b] + (mid - ax[b]) * dy[b] / dx[b], b))
        for b in opened:
            t = up[b]
            leftp = pick_endpoint(xl, t, b) if k > 0 else None
            gaps[b] = (seq, t, b, xl, leftp)
            seq += 1

    for o in rays[nslab]:
        extensions[o] = shoot(origins[o], (), local[nslab])
    xlast = events[-1]
    for _, t, b, start_x, leftp in gaps.values():
        done.append(Trapezoid(bound_of[t], bound_of[b], start_x, xlast, leftp, None))
    return tuple(extensions), tuple(done)


def trapezoid_height(m: TrapezoidalMap, t: Trapezoid, x: float) -> float:
    return _bound_y(t.top, x, m.segments, m.bbox) - _bound_y(t.bottom, x, m.segments, m.bbox)


def trapezoid_area(m: TrapezoidalMap, t: Trapezoid) -> float:
    hl = trapezoid_height(m, t, t.left_x)
    hr = trapezoid_height(m, t, t.right_x)
    return 0.5 * (hl + hr) * (t.right_x - t.left_x)


def locate(m: TrapezoidalMap, q: Point) -> int:
    """Index of the trapezoid containing q.

    Queries outside the box, or within EPS_DIST of any segment, extension
    or box wall, are rejected: the map assigns them no unique cell.

    The first call caches a slab index on the map: the sorted trapezoid
    x-boundaries and, for each interval between neighbouring boundaries,
    the trapezoids over it from bottom to top, with each trapezoid's
    x-range and bottom and top bound ids into rows per bound id (_rows).
    A query bisects both, then runs the strict EPS_DIST containment test
    on the hit and its two neighbours and returns the lowest index that
    passes.  Each height read from a row is the float _bound_y gives.
    """
    if not (
        m.bbox.xmin + EPS_DIST < q.x < m.bbox.xmax - EPS_DIST
        and m.bbox.ymin + EPS_DIST < q.y < m.bbox.ymax - EPS_DIST
    ):
        raise GeometryError("query outside bbox")
    if m._slabs is None:
        object.__setattr__(m, "_slabs", _slab_index(m))
    xs, stacks, (ax, ay, dx, dy), bot, top, lx, rx = m._slabs
    qx, qy = q.x, q.y
    k = bisect_right(xs, qx) - 1
    if 0 <= k < len(stacks):
        stack = stacks[k]
        h = bisect_right(stack, qy, key=lambda i: ay[b := bot[i]] + (qx - ax[b]) * dy[b] / dx[b])
        for i in sorted(stack[max(h - 2, 0) : h + 1]):
            b, t = bot[i], top[i]
            if (
                lx[i] + EPS_DIST < qx < rx[i] - EPS_DIST
                and ay[b] + (qx - ax[b]) * dy[b] / dx[b] + EPS_DIST
                < qy
                < ay[t] + (qx - ax[t]) * dy[t] / dx[t] - EPS_DIST
            ):
                return i
    raise GeometryError("degenerate query: on a subdivision boundary")


def _slab_index(m: TrapezoidalMap) -> tuple:
    """Sorted x-boundaries of the trapezoids and, per interval between two
    neighbouring boundaries, the indices of the trapezoids spanning it
    from bottom to top; then the rows, and per trapezoid its bottom and
    top bound ids and its left and right x.

    Each interval's stack is the previous one without the trapezoids that
    end at its left boundary, with those starting there inserted by
    their bottom and top heights at its midpoint.
    """
    traps, n = m.trapezoids, len(m.segments)
    ax, ay, dx, dy = rows = _rows(m.segments, m.bbox)
    ids = {Wall.BOTTOM: n, Wall.TOP: n + 1}
    bot = [ids.get(t.bottom, t.bottom) for t in traps]
    top = [ids.get(t.top, t.top) for t in traps]
    lx = [t.left_x for t in traps]
    rx = [t.right_x for t in traps]
    xs = sorted(set(lx) | set(rx))
    starting: list[list[int]] = [[] for _ in xs]
    for i in range(len(traps)):
        if lx[i] < rx[i]:
            starting[bisect_left(xs, lx[i])].append(i)
    stacks: list[list[int]] = []
    stack: list[int] = []
    for k in range(len(xs) - 1):
        x0, mid = xs[k], (xs[k] + xs[k + 1]) / 2.0
        stack = [i for i in stack if rx[i] > x0]
        for i in starting[k]:
            insort(stack, i, key=lambda j: (ay[b := bot[j]] + (mid - ax[b]) * dy[b] / dx[b],
                                            ay[t := top[j]] + (mid - ax[t]) * dy[t] / dx[t]))
        stacks.append(stack)
    return xs, stacks, rows, bot, top, lx, rx


def _bound_dict(bound):
    return bound.value if isinstance(bound, Wall) else bound


def map_to_dict(m: TrapezoidalMap) -> dict:
    return {
        "bbox": [m.bbox.xmin, m.bbox.ymin, m.bbox.xmax, m.bbox.ymax],
        "segments": [[[s.a.x, s.a.y], [s.b.x, s.b.y]] for s in m.segments],
        "extensions": [
            {
                "origin": [e.origin.x, e.origin.y],
                "up_hit": [e.up_hit.x, e.up_hit.y],
                "up_target": _bound_dict(e.up_target),
                "down_hit": [e.down_hit.x, e.down_hit.y],
                "down_target": _bound_dict(e.down_target),
            }
            for e in m.extensions
        ],
        "trapezoids": [
            {
                "top": _bound_dict(t.top),
                "bottom": _bound_dict(t.bottom),
                "left_x": t.left_x,
                "right_x": t.right_x,
                "leftp": None if t.leftp is None else [t.leftp.x, t.leftp.y],
                "rightp": None if t.rightp is None else [t.rightp.x, t.rightp.y],
            }
            for t in m.trapezoids
        ],
    }
