"""Trapezoidal maps: hand cases, extension oracle, tiling, location."""

from __future__ import annotations

import math
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

import geomgen
import geoforge.trapmap as trapmap
from geoforge import (
    BBox,
    GeometryError,
    Point,
    Segment,
    TrapezoidalMap,
    Wall,
    build_trapezoidal_map,
    locate,
    trapezoid_area,
)
from geoforge.core import EPS_DIST
from geoforge.trapmap import Trapezoid, _bound_y, map_to_dict, trapezoid_height


def seg(x0, y0, x1, y1):
    return Segment(Point(x0, y0), Point(x1, y1))


def test_empty_map_is_one_trapezoid():
    m = build_trapezoidal_map([], bbox=BBox(0, 0, 1, 1))
    assert len(m.trapezoids) == 1 and not m.extensions
    t = m.trapezoids[0]
    assert t.top is Wall.TOP and t.bottom is Wall.BOTTOM
    assert (t.left_x, t.right_x) == (0.0, 1.0)
    assert t.leftp is None and t.rightp is None
    assert trapezoid_area(m, t) == pytest.approx(1.0)


def test_one_segment_hand_case():
    m = build_trapezoidal_map([seg(0.2, 0.5, 0.8, 0.6)], bbox=BBox(0, 0, 1, 1))
    assert len(m.trapezoids) == 4
    assert len(m.extensions) == 2
    for e in m.extensions:
        assert e.up_target is Wall.TOP and e.down_target is Wall.BOTTOM
        assert e.up_hit.y == 1.0 and e.down_hit.y == 0.0
    d = map_to_dict(m)
    assert d["trapezoids"] == [
        {"top": "top_wall", "bottom": "bottom_wall", "left_x": 0.0, "right_x": 0.2,
         "leftp": None, "rightp": [0.2, 0.5]},
        {"top": 0, "bottom": "bottom_wall", "left_x": 0.2, "right_x": 0.8,
         "leftp": [0.2, 0.5], "rightp": [0.8, 0.6]},
        {"top": "top_wall", "bottom": 0, "left_x": 0.2, "right_x": 0.8,
         "leftp": [0.2, 0.5], "rightp": [0.8, 0.6]},
        {"top": "top_wall", "bottom": "bottom_wall", "left_x": 0.8, "right_x": 1.0,
         "leftp": [0.8, 0.6], "rightp": None},
    ]
    # the point above the segment lands in the top-wall-to-segment trapezoid
    i = locate(m, Point(0.5, 0.9))
    assert m.trapezoids[i].top is Wall.TOP and m.trapezoids[i].bottom == 0
    i = locate(m, Point(0.5, 0.1))
    assert m.trapezoids[i].top == 0 and m.trapezoids[i].bottom is Wall.BOTTOM


def test_shared_endpoint_emits_one_extension():
    m = build_trapezoidal_map(
        [seg(0, 0, 1, 1), seg(1, 1, 2, 0)], bbox=BBox(-1, -1, 3, 2)
    )
    assert len(m.extensions) == 3
    origins = sorted((e.origin.x, e.origin.y) for e in m.extensions)
    assert origins == [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]
    # endpoints within EPS_DIST in diagonal grid cells, either side of 0
    m = build_trapezoidal_map([seg(-1, -1, 0, 0), seg(-5e-10, -5e-10, 1, -1)])
    assert [e.origin for e in m.extensions] == [Point(-1, -1), Point(0, 0), Point(1, -1)]


def test_endpoint_equally_near_two_events_joins_the_lower():
    # x = 1e-9 merges into the event at 0 and lies as near to the next
    # event, 2e-9: it is the left point of the cells that start at 0
    m = build_trapezoidal_map(
        [seg(0, 0, 1, 0), seg(1e-9, 1, 1, 2), seg(2e-9, 3, 1, 4)], bbox=BBox(-1, -1, 2, 5)
    )
    first = [t for t in m.trapezoids if t.left_x == 0.0 and t.bottom == 1]
    assert len(first) == 1 and first[0].leftp == Point(1e-9, 1)


def test_extensions_match_brute_force_rescan():
    rng = random.Random(52101)
    for _ in range(40):
        n = rng.randint(1, 25)
        raw = geomgen.random_noncrossing_segments(rng, n)
        segs = [seg(a[0], a[1], b[0], b[1]) for a, b in raw]
        m = build_trapezoidal_map(segs)
        box = m.bbox
        endpoints = []
        for s in segs:
            for p in (s.a, s.b):
                if all(abs(p.x - q.x) > 1e-9 or abs(p.y - q.y) > 1e-9 for q in endpoints):
                    endpoints.append(p)
        assert len(m.extensions) == len(endpoints)
        by_origin = {(e.origin.x, e.origin.y): e for e in m.extensions}
        for p in endpoints:
            e = by_origin[(p.x, p.y)]
            up_y, down_y = box.ymax, box.ymin
            up_idx, down_idx = None, None
            for i, s in enumerate(segs):
                if not (min(s.a.x, s.b.x) <= p.x <= max(s.a.x, s.b.x)):
                    continue
                t = (p.x - s.a.x) / (s.b.x - s.a.x)
                y = s.a.y + t * (s.b.y - s.a.y)
                if y > p.y + 1e-9 and y < up_y:
                    up_y, up_idx = y, i
                if y < p.y - 1e-9 and y > down_y:
                    down_y, down_idx = y, i
            assert e.up_hit.y == pytest.approx(up_y, abs=1e-9)
            assert e.down_hit.y == pytest.approx(down_y, abs=1e-9)
            assert e.up_target == (Wall.TOP if up_idx is None else up_idx)
            assert e.down_target == (Wall.BOTTOM if down_idx is None else down_idx)


def test_trapezoids_tile_the_box():
    rng = random.Random(62200)
    for _ in range(40):
        n = rng.randint(1, 25)
        raw = geomgen.random_noncrossing_segments(rng, n)
        segs = [seg(a[0], a[1], b[0], b[1]) for a, b in raw]
        m = build_trapezoidal_map(segs)
        total = sum(trapezoid_area(m, t) for t in m.trapezoids)
        assert total == pytest.approx(m.bbox.area(), rel=1e-6)
        assert len(m.trapezoids) <= 3 * n + 1


def test_locate_agrees_with_geometry():
    rng = random.Random(777003)
    raw = geomgen.random_noncrossing_segments(rng, 12)
    segs = [seg(a[0], a[1], b[0], b[1]) for a, b in raw]
    m = build_trapezoidal_map(segs, bbox=BBox(-0.2, -0.2, 1.2, 1.2))
    hits = 0
    for _ in range(2000):
        q = Point(rng.uniform(-0.19, 1.19), rng.uniform(-0.19, 1.19))
        try:
            i = locate(m, q)
        except GeometryError:
            continue
        hits += 1
        t = m.trapezoids[i]
        assert t.left_x <= q.x <= t.right_x
        def bound_y(b):
            if b is Wall.TOP:
                return m.bbox.ymax
            if b is Wall.BOTTOM:
                return m.bbox.ymin
            s = m.segments[b]
            tt = (q.x - s.a.x) / (s.b.x - s.a.x)
            return s.a.y + tt * (s.b.y - s.a.y)
        assert bound_y(t.bottom) <= q.y <= bound_y(t.top)
    assert hits > 1800


def test_locate_rejects_boundary_and_outside():
    m = build_trapezoidal_map([seg(0.2, 0.5, 0.8, 0.6)], bbox=BBox(0, 0, 1, 1))
    with pytest.raises(GeometryError):
        locate(m, Point(2, 2))
    with pytest.raises(GeometryError):
        locate(m, Point(0.2, 0.9))  # on a vertical extension
    with pytest.raises(GeometryError):
        locate(m, Point(0.5, 0.55))  # on the segment itself


def test_build_errors():
    with pytest.raises(GeometryError):
        build_trapezoidal_map([seg(0, 0, 0, 1)])
    with pytest.raises(GeometryError):
        build_trapezoidal_map([seg(0, 0, 1, 1), seg(0, 1, 1, 0)])
    with pytest.raises(GeometryError, match="segments intersect: 0 and 1"):
        build_trapezoidal_map([seg(0, 0, 1, 1), seg(1, 1, 0, 0)])  # the same segment
    with pytest.raises(GeometryError, match="segments intersect: 0 and 1"):
        # an endpoint within EPS_DIST of the other segment, outside its box
        build_trapezoidal_map([seg(0, 0, 1, 0), seg(0.5, 5e-10, 1, 1)])
    with pytest.raises(GeometryError):
        build_trapezoidal_map([])
    with pytest.raises(GeometryError):
        build_trapezoidal_map([seg(0, 0, 5, 5)], bbox=BBox(0, 0, 1, 1))
    with pytest.raises(GeometryError, match=r"^segment 0 is not a Segment$"):
        build_trapezoidal_map([((0, 0), (1, 1))])


def test_default_bbox_pads_ten_percent():
    m = build_trapezoidal_map([seg(0, 0, 10, 2)])
    b = m.bbox
    assert b.xmin == pytest.approx(-1.0) and b.xmax == pytest.approx(11.0)
    assert b.ymin == pytest.approx(-0.2) and b.ymax == pytest.approx(2.2)


def test_trapezoid_height_at_x():
    m = build_trapezoidal_map([seg(0.2, 0.5, 0.8, 0.6)], bbox=BBox(0, 0, 1, 1))
    above = next(
        t for t in m.trapezoids if t.top is Wall.TOP and t.bottom == 0
    )
    assert trapezoid_height(m, above, 0.2) == pytest.approx(0.5)
    assert trapezoid_height(m, above, 0.8) == pytest.approx(0.4)


def test_far_apart_near_collinear_segments_do_not_conflict():
    # one line, 23,018 units apart: the crossing determinants are float
    # noise far above EPS_AREA, but the segments share no point
    segs = [
        seg(-24288.827272819486, -193961.19724136437, 132977.0151054941, -171426.56544095435),
        seg(155994.65459965618, -168128.36652457577, 191424.42254197577, -163051.63299312306),
    ]
    m = build_trapezoidal_map(segs)
    assert len(m.extensions) == 4 and len(m.trapezoids) == 7


_CONFLICT = re.compile(r"segments intersect: (\d+) and (\d+)")


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                          st.integers(0, 4), st.integers(0, 4)),
                min_size=1, max_size=8))
def test_contact_check_matches_all_pairs(raw):
    # a small integer grid gives shared endpoints, repeated segments,
    # collinear overlaps and T-contacts
    segs = [seg(*r) for r in raw if r[0] != r[2]]
    if not segs:
        return
    want = None
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            s, t = segs[i], segs[j]
            if want is None and geomgen.segments_contact(s.a, s.b, t.a, t.b, shared_ok=True):
                want = (i, j)
    try:
        build_trapezoidal_map(segs)
        got = None
    except GeometryError as e:
        got = tuple(map(int, _CONFLICT.fullmatch(str(e)).groups()))
    assert got == want


def _locate_by_scan(m, q):
    """The linear scan: the first trapezoid passing the strict test."""
    if not (
        m.bbox.xmin + EPS_DIST < q.x < m.bbox.xmax - EPS_DIST
        and m.bbox.ymin + EPS_DIST < q.y < m.bbox.ymax - EPS_DIST
    ):
        raise GeometryError("query outside bbox")
    for idx, t in enumerate(m.trapezoids):
        if not (t.left_x + EPS_DIST < q.x < t.right_x - EPS_DIST):
            continue
        if (
            _bound_y(t.bottom, q.x, m.segments, m.bbox) + EPS_DIST
            < q.y
            < _bound_y(t.top, q.x, m.segments, m.bbox) - EPS_DIST
        ):
            return idx
    raise GeometryError("degenerate query: on a subdivision boundary")


def _outcome(fn, m, q):
    try:
        return fn(m, q)
    except GeometryError as e:
        return str(e)


def _assert_locate_matches_scan(m, queries):
    for q in queries:
        assert _outcome(locate, m, q) == _outcome(_locate_by_scan, m, q), q


def _boundary_queries(m, rng):
    """Points at every trapezoid's left side, offset by 0, +-5e-10, +-2e-9,
    at a random height and at heights near its bottom and top."""
    out = []
    for t in m.trapezoids:
        for dx in (0.0, 5e-10, -5e-10, 2e-9, -2e-9):
            x = t.left_x + dx
            ys = [rng.uniform(m.bbox.ymin, m.bbox.ymax)]
            if t.left_x < x < t.right_x:
                lo = _bound_y(t.bottom, x, m.segments, m.bbox)
                hi = _bound_y(t.top, x, m.segments, m.bbox)
                ys += [lo + dy for dy in (0.0, 5e-10, 2e-9)]
                ys += [hi - dy for dy in (0.0, 5e-10, 2e-9)]
            b = m.bbox
            out += [Point(x, y) for y in ys if b.xmin <= x <= b.xmax and b.ymin <= y <= b.ymax]
    return out


def test_locate_matches_linear_scan_on_random_maps():
    rng = random.Random(404)
    for trial in range(30):
        n = rng.randint(1, 20)
        raw = geomgen.random_noncrossing_segments(rng, n, lo=-5.0, hi=5.0)
        if trial % 3 == 0:  # a shared-endpoint chain
            raw = [(raw[0][1], (raw[0][1][0] + 1.0, raw[0][1][1] + 0.1))] + raw
        m = build_trapezoidal_map([seg(a[0], a[1], b[0], b[1]) for a, b in raw])
        queries = _boundary_queries(m, rng)
        queries += [
            Point(rng.uniform(m.bbox.xmin, m.bbox.xmax), rng.uniform(m.bbox.ymin, m.bbox.ymax))
            for _ in range(200)
        ]
        _assert_locate_matches_scan(m, queries)


def test_locate_on_a_map_built_by_hand():
    # one segment, its four trapezoids listed out of sweep order; the map
    # never goes through build_trapezoidal_map
    s = seg(1, 1, 3, 2)
    traps = (
        Trapezoid(Wall.TOP, 0, 1.0, 3.0, Point(1, 1), Point(3, 2)),
        Trapezoid(Wall.TOP, Wall.BOTTOM, 3.0, 4.0, Point(3, 2), None),
        Trapezoid(0, Wall.BOTTOM, 1.0, 3.0, Point(1, 1), Point(3, 2)),
        Trapezoid(Wall.TOP, Wall.BOTTOM, 0.0, 1.0, None, Point(1, 1)),
    )
    m = TrapezoidalMap(BBox(0, 0, 4, 4), (s,), (), traps)
    fresh = TrapezoidalMap(BBox(0, 0, 4, 4), (s,), (), traps)
    assert locate(m, Point(2, 3)) == 0
    assert locate(m, Point(2, 0.5)) == 2
    assert locate(m, Point(0.5, 1)) == 3
    assert locate(m, Point(3.5, 1)) == 1
    rng = random.Random(9)
    _assert_locate_matches_scan(m, _boundary_queries(m, rng))
    _assert_locate_matches_scan(
        m, [Point(x / 8, y / 8) for x in range(33) for y in range(33)]
    )
    # the cached index is not part of the value
    assert m == fresh and repr(m) == repr(fresh) and hash(m) == hash(fresh)


def _fan(rng, k, spread, scale):
    """k segments from (0, 0), their angles spread over `spread` radians."""
    base = rng.uniform(-1.2, 1.2)
    side = rng.choice((1.0, -1.0))
    out = []
    for i in range(k):
        angle = base + spread * i / (k - 1)
        r = scale * rng.uniform(0.5, 2.0)
        out.append(((0.0, 0.0), (side * r * math.cos(angle), r * math.sin(angle))))
    rng.shuffle(out)
    return out


def _tie_rule_scene(family, seed, n, scale):
    """(raw segments, bbox or None) of one family that exercises a tie rule."""
    rng = random.Random(seed)
    if family == "band":
        return geomgen.random_noncrossing_segments(rng, n, -scale, scale), None
    if family == "chains":  # shuffled x-monotone polylines, some running right to left
        raw = []
        for c in range(1 + n % 3):
            xs = sorted(rng.uniform(0.0, scale) for _ in range(n // 3 + 3))
            if rng.random() < 0.5:
                xs.reverse()
            pts = [(x, c * scale + rng.uniform(0.0, 0.9 * scale)) for x in xs]
            raw += zip(pts, pts[1:])
        rng.shuffle(raw)
        return raw, None
    if family == "fan":
        return _fan(rng, 2 + n % 11, 10 ** rng.uniform(-11, -1), scale), None
    if family == "fan-on-midpoint":
        # endpoints at x = -d and x = d make the events -d and d (0 merges
        # into -d), so the fan's centre is a slab midpoint where its
        # segments tie in height.  The scene has unit size and the fan a
        # wide spread, so at the rays from those endpoints its heights
        # differ by more than their rounding.
        d = rng.choice((0.6e-9, 0.75e-9, 1e-9))
        raw = _fan(rng, 2 + n % 11, 10 ** rng.uniform(-5, -1), 1.0)
        return raw + [((-d, 3.0), (-d - 1.0, 3.5)), ((d, -3.0), (d + 1.0, -3.5))], None
    if family == "noisy-fan":
        # a fan pointing left, so narrow that rounding orders its heights
        # near the centre, where the endpoints of segments far below put
        # many events; shuffled, so index ties disagree with the geometry
        r0 = min(scale, 1e4)
        cy = rng.choice((1.0, 3e5, -3e5, 8e5))
        spread = 10 ** rng.uniform(-14, -9)
        base = rng.uniform(-0.5, 0.5)
        raw = []
        for i in range(3 + n % 10):
            r = r0 * rng.uniform(0.5, 1.0)
            angle = base + spread * i
            raw.append(((0.0, cy), (-r * math.cos(angle), cy + r * math.sin(angle))))
        for i in range(2 + n % 11):
            x = -(10 ** rng.uniform(-8, -1)) * r0
            raw.append(((x, cy - r0 * (2 + i)), (x - 0.3 * r0, cy - r0 * (2 + i) + 0.1)))
        rng.shuffle(raw)
        return raw, None
    if family == "merged-events":  # left ends within 1e-9 in x: one event
        raw = geomgen.random_noncrossing_segments(rng, n, 0.0, scale)
        x0 = raw[0][0][0]
        return [((x0 + rng.choice((0.0, 4e-10, 9e-10, 1e-9)), a[1]), b) if i % 3 == 0 else (a, b)
                for i, (a, b) in enumerate(raw)], None
    if family == "shared-x":  # every second segment starts at the x where the one before ends
        raw = geomgen.random_noncrossing_segments(rng, n, 0.0, scale)
        for i in range(1, len(raw), 2):
            end = raw[i - 1][1][0]
            raw[i] = ((end, raw[i][0][1]), (max(raw[i][1][0], end + 0.1 * scale), raw[i][1][1]))
        return raw, None
    if family == "no-slab":
        # the third segment spans 1.05e-9 in x between the events 0 and
        # 1.2e-9 and holds no slab midpoint
        raw = [((0.0, 0.0), (-scale, 0.5)), ((1.2e-9, 5.0), (scale, 5.5)),
               ((0.9e-9, 2.0), (1.95e-9, 2.0 + rng.uniform(-1.0, 1.0)))]
        return raw + geomgen.random_noncrossing_segments(rng, n, -scale, -1.0), None
    if family == "wall":  # the tight box: extreme endpoints and one segment on its walls
        raw = geomgen.random_noncrossing_segments(rng, n, 0.0, scale)
        raw.append(((0.1 * scale, -1.0), (0.9 * scale, -1.0)))
        xs = [p[0] for s in raw for p in s]
        ys = [p[1] for s in raw for p in s]
        return raw, BBox(min(xs), min(ys), max(xs), max(ys))
    return [], BBox(-scale, -1.0, scale, 1.0)  # empty


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["band", "chains", "fan", "fan-on-midpoint", "noisy-fan",
                     "merged-events", "shared-x", "no-slab", "wall", "empty"]),
    st.integers(0, 2**32),
    st.integers(1, 40),
    st.sampled_from([1.0, 1e3, 1e5]),
)
def test_sweep_matches_the_rescanning_reference(family, seed, n, scale):
    raw, bbox = _tie_rule_scene(family, seed, n, scale)
    segs = [seg(a[0], a[1], b[0], b[1]) for a, b in raw if abs(a[0] - b[0]) > EPS_DIST]
    try:
        m = build_trapezoidal_map(segs, bbox)
    except GeometryError:
        return  # the contact check turned the scene down
    want = geomgen.trapmap_reference(m.segments, m.bbox)
    assert m.extensions == want[0]
    assert m.trapezoids == want[1]


def test_ray_under_a_narrow_fan_whose_heights_round_out_of_order():
    # segments 1, 2 and 3 leave (0, 3e5) with slopes 2.5e-9 apart.  At the
    # slab midpoints either side of x = 0.00646... the sweep orders them
    # 3, 1, 2 (1 and 2 tie, so by index); at that x their heights round
    # to 176, 177 and 176 in the last hex digits.  The ray up from the
    # origin there must reach segment 2: the lowest index of the lowest.
    segs = [
        seg(0.007672550958595686, 299990.0, 0.5076725509585956, 299989.8),
        seg(0.0, 300000.0, 1.9124769133828114, 299999.9995832015),
        seg(0.0, 300000.0, 1.817706875627661, 299999.9996038507),
        seg(0.0, 300000.0, 1.125112822701852, 299999.99975479115),
        seg(0.005463810653394167, 299999.9999988082, 0.006463810653394167, 299998.9999988082),
    ]
    m = build_trapezoidal_map(segs)
    assert (m.extensions, m.trapezoids) == geomgen.trapmap_reference(m.segments, m.bbox)
    ray = next(e for e in m.extensions if e.origin == Point(0.006463810653394167, 299998.9999988082))
    assert ray.up_target == 2


def test_sweep_matches_the_reference_at_the_bench_sizes():
    # the hypothesis test above stops at 40 segments; the bench builds 100-400
    for family in ("band", "chains"):
        for n in (100, 200, 400):
            for seed in (1, 2):
                raw = _tie_rule_scene(family, seed, 2 * n, 1e3)[0][:n]
                m = build_trapezoidal_map([seg(a[0], a[1], b[0], b[1]) for a, b in raw])
                assert len(m.segments) == n
                want = geomgen.trapmap_reference(m.segments, m.bbox)
                assert (m.extensions, m.trapezoids) == want, (family, n, seed)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["band", "chains", "fan", "fan-on-midpoint", "noisy-fan",
                     "merged-events", "shared-x", "no-slab", "wall", "empty"]),
    st.integers(0, 2**32),
    st.integers(1, 40),
    st.sampled_from([1.0, 1e3, 1e5]),
)
def test_locate_matches_linear_scan_on_the_tie_rule_families(family, seed, n, scale):
    # the wall family puts a segment on the tight box's bottom wall
    raw, bbox = _tie_rule_scene(family, seed, n, scale)
    segs = [seg(a[0], a[1], b[0], b[1]) for a, b in raw if abs(a[0] - b[0]) > EPS_DIST]
    try:
        m = build_trapezoidal_map(segs, bbox)
    except GeometryError:
        return
    rng = random.Random(seed)
    b = m.bbox
    queries = _boundary_queries(m, rng)
    queries += [Point(rng.uniform(b.xmin, b.xmax), rng.uniform(b.ymin, b.ymax)) for _ in range(100)]
    _assert_locate_matches_scan(m, queries)


def test_build_line_events_grow_near_linearly():
    # a build that scans every segment per ray or per slab grows about 4x
    # per doubling here; the one-pass sweep about 2x.  Its heights are
    # inline arithmetic, so the count is of the lines run in this module.
    events = [0]

    def line(frame, event, arg):
        events[0] += event == "line"
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename == trapmap.__file__ else None

    counts = []
    for n in (200, 400, 800):
        raw = geomgen.random_noncrossing_segments(random.Random(n), n)
        segs = [seg(a[0], a[1], b[0], b[1]) for a, b in raw]
        events[0] = 0
        previous = sys.gettrace()
        sys.settrace(call)
        try:
            build_trapezoidal_map(segs)
        finally:
            sys.settrace(previous)
        counts.append(events[0])
    assert all(b < 2.6 * a for a, b in zip(counts, counts[1:])), counts
