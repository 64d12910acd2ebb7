"""Trapezoidal decomposition of non-crossing segments inside a box.

Every distinct segment endpoint shoots a vertical ray up and down; the
rays stop at the first segment (or the box wall) they meet.  The cells of
the resulting subdivision are trapezoids with vertical left/right sides.
The input check tests only the segment pairs whose bounding boxes
overlap, each ray tests the segments whose x-range holds it, and the
cells come from a left-to-right sweep that merges slab gaps sharing the
same (top, bottom) pair.  For n segments the map has at most 3n + 1
trapezoids whose areas tile the box exactly.  locate uses the slab
method: two bisections in an index built on its first call.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field

from .core import (
    EPS_DIST,
    BBox,
    GeometryError,
    Point,
    Segment,
    _boxed_segments_contact,
    _contact_candidates,
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


def _default_bbox(segments) -> BBox:
    xs = [v for s in segments for v in (s.a.x, s.b.x)]
    ys = [v for s in segments for v in (s.a.y, s.b.y)]
    w = max(xs) - min(xs)
    h = max(ys) - min(ys)
    pad_x = 0.10 * w  # w > 0: vertical segments are rejected
    pad_y = 0.10 * (h if h > 0.0 else w)
    return BBox(min(xs) - pad_x, min(ys) - pad_y, max(xs) + pad_x, max(ys) + pad_y)


def build_trapezoidal_map(segments, bbox: BBox | None = None) -> TrapezoidalMap:
    """Build the trapezoidal map of interior-disjoint, non-vertical segments.

    Segments may share endpoints (polyline chains are fine); any other
    contact is rejected.  Without an explicit bbox the tight bounding box
    of the endpoints expanded by 10% per side is used, which requires at
    least one segment.
    """
    segs = tuple(segments)
    for i, s in enumerate(segs):
        if not isinstance(s, Segment):
            raise GeometryError("segment %d is not a Segment" % i)
        if abs(s.a.x - s.b.x) <= EPS_DIST:
            raise GeometryError("vertical segment unsupported: %d" % i)
    for i, j in _contact_candidates([(s.a, s.b) for s in segs]):
        if _boxed_segments_contact(segs[i].a, segs[i].b, segs[j].a, segs[j].b, shared_ok=True):
            raise GeometryError("segments intersect: %d and %d" % (i, j))
    if bbox is None:
        if not segs:
            raise GeometryError("empty segment set requires an explicit bbox")
        bbox = _default_bbox(segs)
    else:
        for i, s in enumerate(segs):
            if not (bbox.contains(s.a) and bbox.contains(s.b)):
                raise GeometryError("endpoint outside bbox: segment %d" % i)
    origins = _distinct_endpoints(segs)
    xranges = [(min(s.a.x, s.b.x), max(s.a.x, s.b.x)) for s in segs]
    extensions = tuple(_shoot_extension(segs, xranges, bbox, p) for p in origins)
    trapezoids = tuple(_sweep_trapezoids(segs, xranges, bbox, origins))
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
            if not any(
                points_equal(p, q)
                for gx in (cx - 1, cx, cx + 1)
                for gy in (cy - 1, cy, cy + 1)
                for q in grid.get((gx, gy), ())
            ):
                grid.setdefault((cx, cy), []).append(p)
                out.append(p)
    return out


def _shoot_extension(segs, xranges, bbox: BBox, origin: Point) -> VerticalExtension:
    ox, oy = origin.x, origin.y
    up_y, up_target = bbox.ymax, Wall.TOP
    down_y, down_target = bbox.ymin, Wall.BOTTOM
    for idx, (xlo, xhi) in enumerate(xranges):
        if not (xlo <= ox <= xhi):
            continue
        y = _seg_y_at(segs[idx], ox)
        if y > oy + EPS_DIST and y < up_y:
            up_y, up_target = y, idx
        elif y < oy - EPS_DIST and y > down_y:
            down_y, down_target = y, idx
    return VerticalExtension(
        origin=origin,
        up_hit=Point(ox, up_y),
        up_target=up_target,
        down_hit=Point(ox, down_y),
        down_target=down_target,
    )


def _event_xs(segs, bbox: BBox) -> list[float]:
    xs = sorted({bbox.xmin, bbox.xmax} | {s.a.x for s in segs} | {s.b.x for s in segs})
    merged: list[float] = []
    for x in xs:
        if merged and x - merged[-1] <= EPS_DIST:
            continue
        merged.append(x)
    return merged


def _sweep_trapezoids(segs, xranges, bbox: BBox, origins) -> list[Trapezoid]:
    events = _event_xs(segs, bbox)
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

    def bound_y(bound, x: float) -> float:
        if bound is Wall.TOP:
            return bbox.ymax
        if bound is Wall.BOTTOM:
            return bbox.ymin
        return _seg_y_at(segs[bound], x)

    def pick_endpoint(x: float, pair) -> Point | None:
        lo = bound_y(pair[1], x) - EPS_DIST
        hi = bound_y(pair[0], x) + EPS_DIST
        for p in endpoints_at.get(x, ()):
            if lo <= p.y <= hi:
                return p
        return None

    done: list[Trapezoid] = []
    open_traps: dict[tuple, tuple[float, Point | None]] = {}
    for k in range(len(events) - 1):
        xl, xr = events[k], events[k + 1]
        if xr - xl <= EPS_DIST:
            continue
        mid = (xl + xr) / 2.0
        spanning = [i for i, (lo, hi) in enumerate(xranges) if lo <= mid <= hi]
        spanning.sort(key=lambda i: _seg_y_at(segs[i], mid))
        bounds = [Wall.BOTTOM] + spanning + [Wall.TOP]
        gaps = [(bounds[i + 1], bounds[i]) for i in range(len(bounds) - 1)]
        gap_set = set(gaps)
        for pair in [p for p in open_traps if p not in gap_set]:
            start_x, leftp = open_traps.pop(pair)
            done.append(
                Trapezoid(
                    top=pair[0],
                    bottom=pair[1],
                    left_x=start_x,
                    right_x=xl,
                    leftp=leftp,
                    rightp=pick_endpoint(xl, pair),
                )
            )
        for pair in gaps:
            if pair not in open_traps:
                leftp = pick_endpoint(xl, pair) if k > 0 else None
                open_traps[pair] = (xl, leftp)
    xlast = events[-1]
    for pair, (start_x, leftp) in open_traps.items():
        done.append(
            Trapezoid(
                top=pair[0],
                bottom=pair[1],
                left_x=start_x,
                right_x=xlast,
                leftp=leftp,
                rightp=None,
            )
        )
    return done


def trapezoid_height(m: TrapezoidalMap, t: Trapezoid, x: float) -> float:
    return _bound_y_map(m, t.top, x) - _bound_y_map(m, t.bottom, x)


def _bound_y_map(m: TrapezoidalMap, bound, x: float) -> float:
    if bound is Wall.TOP:
        return m.bbox.ymax
    if bound is Wall.BOTTOM:
        return m.bbox.ymin
    return _seg_y_at(m.segments[bound], x)


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
    the trapezoids over it from bottom to top.  A query bisects both, then
    runs the strict EPS_DIST containment test on the hit and its two
    neighbours and returns the lowest index that passes.
    """
    if not (
        m.bbox.xmin + EPS_DIST < q.x < m.bbox.xmax - EPS_DIST
        and m.bbox.ymin + EPS_DIST < q.y < m.bbox.ymax - EPS_DIST
    ):
        raise GeometryError("query outside bbox")
    if m._slabs is None:
        object.__setattr__(m, "_slabs", _slab_index(m))
    xs, stacks = m._slabs
    k = bisect_right(xs, q.x) - 1
    if 0 <= k < len(stacks):
        traps = m.trapezoids
        stack = stacks[k]
        h = bisect_right(stack, q.y, key=lambda i: _bound_y_map(m, traps[i].bottom, q.x))
        for idx in sorted(stack[max(h - 2, 0) : h + 1]):
            t = traps[idx]
            if (
                t.left_x + EPS_DIST < q.x < t.right_x - EPS_DIST
                and _bound_y_map(m, t.bottom, q.x) + EPS_DIST
                < q.y
                < _bound_y_map(m, t.top, q.x) - EPS_DIST
            ):
                return idx
    raise GeometryError("degenerate query: on a subdivision boundary")


def _slab_index(m: TrapezoidalMap) -> tuple[list[float], list[list[int]]]:
    """Sorted x-boundaries of the trapezoids and, per interval between two
    neighbouring boundaries, the indices of the trapezoids spanning it
    from bottom to top.

    Each interval's stack is the previous one without the trapezoids that
    end at its left boundary, with those starting there inserted by
    their bottom and top heights at its midpoint.
    """
    traps = m.trapezoids
    xs = sorted({t.left_x for t in traps} | {t.right_x for t in traps})
    starting: list[list[int]] = [[] for _ in xs]
    for idx, t in enumerate(traps):
        if t.left_x < t.right_x:
            starting[bisect_left(xs, t.left_x)].append(idx)
    stacks: list[list[int]] = []
    stack: list[int] = []
    for k in range(len(xs) - 1):
        x0, mid = xs[k], (xs[k] + xs[k + 1]) / 2.0
        stack = [i for i in stack if traps[i].right_x > x0]
        for idx in starting[k]:
            insort(
                stack,
                idx,
                key=lambda i: (
                    _bound_y_map(m, traps[i].bottom, mid),
                    _bound_y_map(m, traps[i].top, mid),
                ),
            )
        stacks.append(stack)
    return xs, stacks


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
