"""Core predicates, polygon validation, hulls and halfplane clipping."""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import geomgen
import geoforge.core as core
from geoforge import (
    BBox,
    GeometryError,
    Halfplane,
    Point,
    PointLocation,
    Polygon,
    Segment,
    clip_halfplane,
    convex_hull,
    dupin_floating_body,
    point_in_polygon,
    polygon_area,
    polygon_bbox,
    polygon_is_convex,
    triangulate,
)
from geoforge import build_trapezoidal_map
from geoforge.core import (
    COORD_LIMIT,
    EPS_AREA,
    EPS_DIST,
    _OFF_LINE,
    _reject_duplicates,
    cross,
    distance,
    point_segment_distance,
)


def _duplicate_walk_from_every_position(order, pts) -> bool:
    """Reference for _reject_duplicates: a walk from every sorted position."""
    for a in range(len(order) - 1):
        x, _, i = order[a]
        for b in range(a + 1, len(order)):
            bx, _, j = order[b]
            if bx - x > EPS_DIST:
                break
            if core.points_equal(pts[i], pts[j]):
                return True
    return False


# offsets in units of EPS_DIST: shared coordinates, pairs within EPS_DIST
# and pairs just beyond it
_NEAR = (0.0, 0.5, -0.5, 1.0, -1.0, math.nextafter(1.0, 2.0), 1.000001, -1.000001, 1.5, 2.0, -3.0)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([0.0, 1.0, 1e6, -1e6]), st.sampled_from([0.0, -1e6]),
       st.lists(st.tuples(st.integers(-6, 6), st.sampled_from(_NEAR),
                          st.integers(-2, 2), st.sampled_from(_NEAR)),
                min_size=2, max_size=10))
def test_duplicate_check_matches_a_walk_from_every_position(x0, y0, offsets):
    # points on a grid of 2 * EPS_DIST, each moved by one of the offsets
    def clamp(v):
        return min(COORD_LIMIT, max(-COORD_LIMIT, v))

    pts = [Point(clamp(x0 + (2 * i + dx) * EPS_DIST), clamp(y0 + (2 * j + dy) * EPS_DIST))
           for i, dx, j, dy in offsets]
    order = sorted(zip([p.x for p in pts], [p.y for p in pts], range(len(pts))))
    try:
        _reject_duplicates(order, pts)
        raised = False
    except GeometryError as err:
        assert str(err) == "duplicate point"
        raised = True
    assert raised == _duplicate_walk_from_every_position(order, pts)


def test_point_validation():
    Point(0.0, 0.0)
    Point(-1e6, 1e6)
    for x, y in [(math.nan, 0), (0, math.inf), (1e6 + 1, 0), (0, -1.5e6)]:
        with pytest.raises(GeometryError):
            Point(x, y)
    # non-finite wins over out-of-range, whichever coordinate carries it
    for x, y in [(math.nan, 0), (0, -math.inf), (2e6, math.nan), (math.inf, 2e6)]:
        with pytest.raises(GeometryError, match="must be finite"):
            Point(x, y)
    for x, y in [(1e6 + 1, 0), (0, -1.5e6), (-(10**7), 10**7)]:
        with pytest.raises(GeometryError, match=r"must satisfy \|x\|, \|y\| <= 1e\+06"):
            Point(x, y)

    class Real(float):
        pass

    for p in [Point(1, -2), Point(Real(1.0), True), Point(1.0, -2.0)]:
        assert type(p.x) is float and type(p.y) is float


def test_segment_validation():
    Segment(Point(0, 0), Point(1, 0))
    with pytest.raises(GeometryError):
        Segment(Point(1, 1), Point(1, 1))
    with pytest.raises(GeometryError):
        Segment(Point(0, 0), Point(5e-10, 0))


def test_bbox_validation():
    b = BBox(0, 0, 2, 1)
    assert b.width == 2 and b.height == 1 and b.area() == 2
    assert b.contains(Point(1, 0.5)) and not b.contains(Point(3, 0.5))
    for args in [(1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 0, 1)]:
        with pytest.raises(GeometryError):
            BBox(*args)


def test_orientation_basic_cases():
    a, b = Point(0, 0), Point(1, 0)
    assert cross(a, b, Point(0, 1)) == 1.0
    assert distance(a, b) == 1.0


def test_polygon_normalizes_to_ccw():
    cw = Polygon([Point(0, 0), Point(0, 1), Point(1, 1), Point(1, 0)])
    ccw = Polygon([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)])
    assert polygon_area(cw) == polygon_area(ccw) == 1.0
    assert {(p.x, p.y) for p in cw.vertices} == {(p.x, p.y) for p in ccw.vertices}
    total = 0.0
    vs = cw.vertices
    for i in range(len(vs)):
        q = vs[(i + 1) % len(vs)]
        total += vs[i].x * q.y - q.x * vs[i].y
    assert total > 0


def test_polygon_rejects_degenerate_inputs():
    with pytest.raises(GeometryError):
        Polygon([Point(0, 0), Point(1, 0)])
    with pytest.raises(GeometryError):
        Polygon([Point(0, 0), Point(1, 0), Point(1, 0), Point(0, 1)])
    with pytest.raises(GeometryError):
        Polygon([Point(0, 0), Point(1, 0), Point(2, 0)])
    # spike: the walk doubles back along the same line
    with pytest.raises(GeometryError):
        Polygon([Point(0, 0), Point(2, 0), Point(1, 0), Point(1, 1)])
    # bowtie
    with pytest.raises(GeometryError):
        Polygon([Point(0, 0), Point(1, 1), Point(1, 0), Point(0, 1)])
    # edge through a non-adjacent vertex
    with pytest.raises(GeometryError):
        Polygon([Point(0, 0), Point(4, 0), Point(4, 4), Point(2, 0), Point(0, 4)])
    # a vertex within EPS_DIST of a non-adjacent edge, outside that edge's box
    with pytest.raises(GeometryError, match="edges 0 and 2 touch"):
        Polygon([Point(0, 0), Point(4, 0), Point(4, 4), Point(2, 5e-10), Point(0, 4)])


def _far_small_polygon(rng):
    # a convex 3- to 30-gon 1e-3 to 1e-1 across, its centre 5e5 to 1e6 from
    # both axes, given in either winding
    n = rng.randint(3, 30)
    r = 0.5 * 10.0 ** rng.uniform(-3.0, -1.0)
    cx = rng.choice((-1.0, 1.0)) * rng.uniform(5e5, 1e6 - 0.1)
    cy = rng.choice((-1.0, 1.0)) * rng.uniform(5e5, 1e6 - 0.1)
    step = 2.0 * math.pi / n
    angles = [(k + rng.uniform(-0.4, 0.4)) * step for k in range(n)]
    loop = [(cx + r * math.cos(a), cy + r * math.sin(a)) for a in angles]
    return loop[::-1] if rng.random() < 0.5 else loop


def test_small_polygons_far_from_the_origin_keep_their_orientation():
    # the shoelace on raw coordinates rounds by about n u (1e6)^2, more than
    # these polygons' areas; relative to vertex 0, twice the area rounds by
    # at most 2 n^2 u M^2, M the largest shifted coordinate (core._signed_area2)
    rng = random.Random(18)
    failures = []
    for case in range(400):
        loop = _far_small_polygon(rng)
        n = len(loop)
        try:
            poly = Polygon([Point(x, y) for x, y in loop])
            verts = [(Fraction(v.x), Fraction(v.y)) for v in poly.vertices]
            exact = sum(xa * yb - xb * ya
                        for (xa, ya), (xb, yb) in zip(verts, verts[1:] + verts[:1])) / 2
            x0, y0 = poly.vertices[0].x, poly.vertices[0].y
            m = max(max(abs(v.x - x0), abs(v.y - y0)) for v in poly.vertices)
            assert exact > 0, "stored clockwise"
            assert abs(Fraction(polygon_area(poly)) - exact) <= n * n * 2.0**-53 * m * m
            assert len(triangulate(poly).triangles) == n - 2
            dupin_floating_body(poly, 0.25, 36)
        except (AssertionError, GeometryError) as e:
            failures.append((case, n, str(e)[:40]))
    assert not failures, (len(failures), failures[:5])


def test_far_apart_near_collinear_edges_do_not_touch():
    # edges 0 and 3 lie on one line, 23,018 units apart; their crossing
    # determinants are float noise far above EPS_AREA
    p1 = Point(-24288.827272819486, -193961.19724136437)
    p2 = Point(132977.0151054941, -171426.56544095435)
    q1 = Point(155994.65459965618, -168128.36652457577)
    q2 = Point(191424.42254197577, -163051.63299312306)
    poly = Polygon([p1, p2, Point(144000, -250000), q1, q2, Point(80000, -50000)])
    assert poly.vertices[0] == p1 and len(poly) == 6


_TOUCH = re.compile(r"self-intersecting polygon: edges (\d+) and (\d+) touch")


def _first_touching_edges(verts):
    """The all-pairs edge scan: first non-adjacent pair in contact, or None."""
    n = len(verts)
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            a, b = (verts[i], verts[(i + 1) % n]), (verts[j], verts[(j + 1) % n])
            if geomgen.segments_contact(*a, *b, shared_ok=False):
                return (i, j)
    return None


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                min_size=4, max_size=10, unique=True),
       st.booleans())
def test_polygon_edge_scan_matches_all_pairs(raw, star):
    # a small integer grid gives shared vertices, collinear overlaps and
    # T-contacts; sorting by angle about the centroid gives simple
    # non-convex loops as well as crossing ones
    if star:
        cx = sum(x for x, _ in raw) / len(raw)
        cy = sum(y for _, y in raw) / len(raw)
        raw = sorted(raw, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    verts = [Point(x, y) for x, y in raw]
    try:
        Polygon(verts)
        got = None
    except GeometryError as e:
        m = _TOUCH.fullmatch(str(e))
        if m is None:
            return  # rejected before the edge scan
        got = (int(m[1]), int(m[2]))
    area2 = sum(p.x * q.y - q.x * p.y for p, q in zip(verts, verts[1:] + verts[:1]))
    ccw = verts if area2 > 0 else verts[::-1]
    assert got == _first_touching_edges(ccw)


def _moved_inner_vertex(rng, n, eps):
    """A star whose inner vertex k sits eps from outer vertex k + 1, on the
    way back to vertex k - 1 or to the centre: eps from the non-adjacent
    edge k + 1, with edge k about eps long."""
    verts = geomgen.star_polygon(rng, n, span=1.0)
    k = 2 * rng.randrange(n // 2)
    (px, py), (ox, oy) = verts[k - 1], verts[(k + 1) % n]
    bx, by, cx, cy = px - ox, py - oy, 0.5 - ox, 0.5 - oy
    lam = rng.uniform(0.0, 0.9)
    wx = (1 - lam) * bx / math.hypot(bx, by) + lam * cx / math.hypot(cx, cy)
    wy = (1 - lam) * by / math.hypot(bx, by) + lam * cy / math.hypot(cx, cy)
    w = math.hypot(wx, wy)
    verts[k] = (ox + eps * wx / w, oy + eps * wy / w)
    return verts


def _twice_wound_star(rng, n):
    """A star with every angle about its centre doubled, so that it winds
    twice: every edge has the centre on its left, yet the loop crosses
    itself."""
    zs = [complex(x - 0.5, y - 0.5) for x, y in geomgen.star_polygon(rng, n, span=1.0)]
    return [(0.5 + w.real, 0.5 + w.imag) for w in (z * z / abs(z) for z in zs)]


def _off_mean_star(rng, n):
    """A loop star-shaped about (0.5, 0.5) whose angles crowd toward 0, so
    that its vertex mean lies elsewhere."""
    power = rng.uniform(1.0, 3.0)
    inner, outer = rng.uniform(0.05, 0.3), rng.uniform(0.35, 0.5)
    verts = []
    for k in range(n):
        phi = 2.0 * math.pi * ((k + 0.5 + rng.uniform(-0.3, 0.3)) / n) ** power
        r = outer if k % 2 else inner
        verts.append((0.5 + r * math.cos(phi), 0.5 + r * math.sin(phi)))
    return verts


@st.composite
def _star_loops(draw):
    """A loop from one of six families, on the unit square, then scaled by
    1e-4 to 1e3, rotated, and moved anywhere up to the edge of the box:
    geomgen stars, stars with an inner vertex moved 1e-10 to 1e-6 from a
    non-adjacent edge, the bench's crossed stars, loops star-shaped about
    a point other than their vertex mean, stars wound twice, and the
    bench's convex n-gons flattened to aspect ratios 1 to 1e-6."""
    family = draw(st.sampled_from(("star", "moved", "crossed", "off_mean", "twice", "convex")))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(5, 48))
    if family == "star":
        loop = geomgen.star_polygon(rng, n, span=1.0)
    elif family == "moved":
        loop = _moved_inner_vertex(rng, max(n, 6), 10.0 ** draw(st.floats(-10.0, -6.0)))
    elif family == "crossed":
        loop = [(x / 1000.0, y / 1000.0)
                for x, y in geomgen.crossed_star(rng, draw(st.sampled_from((12, 40, 100))))]
    elif family == "off_mean":
        loop = _off_mean_star(rng, n)
    elif family == "convex":
        aspect = 10.0 ** draw(st.floats(-6.0, 0.0))
        loop = [(x / 1000.0, 0.5 + aspect * (y / 1000.0 - 0.5))
                for x, y in geomgen.circle_polygon(rng, n)]
    else:
        loop = _twice_wound_star(rng, max(n, 8))
    scale = 10.0 ** draw(st.floats(-4.0, 3.0))
    angle = draw(st.sampled_from((0.0, 0.5 * math.pi)) | st.floats(0.0, 2.0 * math.pi))
    room = COORD_LIMIT - scale
    sx, sy = [room * draw(st.sampled_from((0.0, 1.0, -1.0)) | st.floats(-1.0, 1.0)) for _ in "xy"]
    c, s = math.cos(angle), math.sin(angle)
    return [(sx + scale * (c * (x - 0.5) - s * (y - 0.5)), sy + scale * (s * (x - 0.5) + c * (y - 0.5)))
            for x, y in loop]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_star_loops())
def test_star_certificate_matches_all_pairs(loop):
    # Polygon's outcome, accepted or the first touching pair, equals the
    # all-pairs scan wherever the loop reaches the scan or the certificate
    verts = [Point(x, y) for x, y in loop]
    try:
        Polygon(verts)
        got = None
    except GeometryError as e:
        m = _TOUCH.fullmatch(str(e))
        if m is None:
            return  # rejected before the edge scan
        got = (int(m[1]), int(m[2]))
    ccw = verts if core._signed_area2(verts) > 0.0 else verts[::-1]
    want = _first_touching_edges(ccw)
    assert got == want
    if core._star_certificate(ccw):
        assert want is None


def test_polygon_accepts_straight_interior_vertex():
    p = Polygon([Point(0, 0), Point(1, 0), Point(2, 0.5), Point(2, 2), Point(0, 2)])
    assert len(p.vertices) == 5


def test_polygon_is_convex():
    assert polygon_is_convex(Polygon([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]))
    l_shape = Polygon(
        [Point(0, 0), Point(2, 0), Point(2, 1), Point(1, 1), Point(1, 2), Point(0, 2)]
    )
    assert not polygon_is_convex(l_shape)


def test_polygon_bbox():
    p = Polygon([Point(-1, 0), Point(2, -3), Point(4, 5)])
    b = polygon_bbox(p)
    assert (b.xmin, b.ymin, b.xmax, b.ymax) == (-1, -3, 4, 5)


def test_hull_small_cases():
    pts = [Point(0, 0), Point(2, 0), Point(1, 0), Point(2, 2), Point(0, 2), Point(1, 1)]
    hull = convex_hull(pts)
    assert [(p.x, p.y) for p in hull] == [(0, 0), (2, 0), (2, 2), (0, 2)]
    # all collinear: the two extremes
    hull = convex_hull([Point(i, 2 * i) for i in range(5)])
    assert [(p.x, p.y) for p in hull] == [(0, 0), (4, 8)]
    assert [(p.x, p.y) for p in convex_hull([Point(3, 4)])] == [(3, 4)]


def test_hull_matches_gift_wrapping_oracle():
    rng = random.Random(176001)
    for _ in range(100):
        n = rng.randint(1, 80)
        raw = geomgen.random_points(rng, n)
        hull = [(p.x, p.y) for p in convex_hull([Point(x, y) for x, y in raw])]
        oracle = geomgen.jarvis_hull(raw)
        assert hull == oracle
        for q in raw:
            assert geomgen.point_in_convex_ccw(q, oracle)


def test_hull_excludes_collinear_boundary_points():
    pts = [Point(0, 0), Point(1, 0), Point(2, 0), Point(2, 2), Point(0, 2), Point(0, 1)]
    hull = convex_hull(pts)
    assert [(p.x, p.y) for p in hull] == [(0, 0), (2, 0), (2, 2), (0, 2)]


@st.composite
def _chain_sets(draw):
    """Point sets where the chain's EPS_AREA pop rule decides the hull."""
    kind = draw(st.sampled_from(["lattice", "runs", "near-turns", "uniform", "far-cluster"]))
    n = draw(st.integers(1, 60))
    if kind == "lattice":
        g = draw(st.integers(1, 6))
        coord = st.integers(-g, g).map(float)
        raw = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    elif kind == "runs":
        # vertical runs share x, so the sort breaks their ties on y
        xs = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
        raw = [(float(draw(st.sampled_from(xs))), float(draw(st.integers(-20, 20))))
               for _ in range(n)]
        dx, dy = draw(st.sampled_from([(1, 0), (1, 1), (2, -1)]))
        raw += [(float(t * dx), float(t * dy)) for t in draw(st.lists(st.integers(-9, 9), max_size=12))]
    elif kind == "near-turns":
        # unit steps along a line, each point off it by a few EPS_AREA
        dy = draw(st.sampled_from([0.0, 0.5, -3.0]))
        offsets = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.0000001, 2.0])
        raw = [(float(t), t * dy + draw(offsets) * EPS_AREA) for t in range(n)]
    elif kind == "uniform":
        raw = draw(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                            min_size=n, max_size=n))
    else:
        # 1e-3 wide near (1e6, -1e6): products of about 1e-6 against EPS_AREA
        off = st.floats(0.0, 1e-3)
        raw = [(1e6 - u, -1e6 + v) for u, v in draw(st.lists(st.tuples(off, off),
                                                            min_size=n, max_size=n))]
    return raw


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_chain_sets())
def test_monotone_chain_equals_the_indexed_stack_reference(raw):
    unique = sorted(set(raw))
    if len(unique) >= 2:
        # the onion's (x, y, index) tuples as well as convex_hull's pairs
        order = sorted((x, y, i) for i, (x, y) in enumerate(unique))
        assert core._monotone_chain(order) == geomgen.monotone_chain_reference(order)
        want = [Point(x, y) for x, y in geomgen.monotone_chain_reference(unique)]
    else:
        want = [Point(*unique[0])]
    assert convex_hull([Point(x, y) for x, y in raw]) == want


def test_monotone_chain_pops_a_turn_of_exactly_eps_area():
    # cross((0, 0), (1, 0), (2, y)) is y exactly: EPS_AREA pops (1, 0), the
    # next float up keeps it, on the lower chain and, mirrored, the upper
    for y in (EPS_AREA, math.nextafter(EPS_AREA, 1.0)):
        for pts in ([(0.0, 0.0), (1.0, 0.0), (2.0, y)], [(0.0, 0.0), (1.0, 0.0), (2.0, -y)]):
            assert core._monotone_chain(pts) == geomgen.monotone_chain_reference(pts)
    assert core._monotone_chain([(0.0, 0.0), (1.0, 0.0), (2.0, EPS_AREA)]) == [(0.0, 0.0), (2.0, EPS_AREA)]
    assert len(core._monotone_chain([(0.0, 0.0), (1.0, 0.0), (2.0, -EPS_AREA)])) == 2


def test_point_segment_distance():
    a, b = Point(0, 0), Point(10, 0)
    assert point_segment_distance(Point(5, 3), a, b) == 3.0
    assert point_segment_distance(Point(-4, 3), a, b) == 5.0
    assert point_segment_distance(Point(13, 4), a, b) == 5.0
    assert point_segment_distance(Point(7, 0), a, b) == 0.0


def test_halfplane_validation():
    h = Halfplane(1.0, 0.0, 2.0)

    def side(h, p):
        return h.nx * p.x + h.ny * p.y - h.c

    assert side(h, Point(1, 5)) < 0 < side(h, Point(3, -2))
    comp = h.complement()
    assert side(comp, Point(1, 5)) > 0 > side(comp, Point(3, -2))
    with pytest.raises(GeometryError):
        Halfplane(1.0, 1.0, 0.0)
    with pytest.raises(GeometryError):
        Halfplane(1.0, 0.0, math.nan)


def test_clip_halfplane_square():
    sq = Polygon([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)])
    kept = clip_halfplane(sq, Halfplane(1.0, 0.0, 0.5))
    assert polygon_area(kept) == pytest.approx(0.5, abs=1e-12)
    assert clip_halfplane(sq, Halfplane(1.0, 0.0, -0.5)) is None
    whole = clip_halfplane(sq, Halfplane(1.0, 0.0, 2.0))
    assert polygon_area(whole) == pytest.approx(1.0, abs=1e-12)


def test_clip_halfplane_keeps_vertices_within_eps_dist_outside():
    # x = 1 is 5e-10 (< EPS_DIST) outside the line x = 1 - 5e-10: the two
    # right-hand corners count as on the line, so they stay where they are
    # and no crossing point is inserted next to them
    sq = Polygon([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)])
    kept = clip_halfplane(sq, Halfplane(1.0, 0.0, 1.0 - 5e-10))
    assert kept.vertices == sq.vertices


def test_clip_halfplane_partitions_area():
    rng = random.Random(90210)
    for _ in range(60):
        hull = geomgen.random_convex_polygon(rng, rng.randint(5, 30))
        poly = Polygon([Point(x, y) for x, y in hull])
        t = rng.uniform(0, 2 * math.pi)
        h = Halfplane(math.cos(t), math.sin(t), rng.uniform(-1.0, 1.0))
        kept = clip_halfplane(poly, h)
        dropped = clip_halfplane(poly, h.complement())
        a_kept = polygon_area(kept) if kept is not None else 0.0
        a_dropped = polygon_area(dropped) if dropped is not None else 0.0
        assert a_kept + a_dropped == pytest.approx(polygon_area(poly), rel=1e-9)


def test_point_in_polygon_locations():
    sq = Polygon([Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4)])
    assert point_in_polygon(Point(2, 2), sq) is PointLocation.INSIDE
    assert point_in_polygon(Point(4, 2), sq) is PointLocation.BOUNDARY
    assert point_in_polygon(Point(2, 0), sq) is PointLocation.BOUNDARY
    assert point_in_polygon(Point(0, 0), sq) is PointLocation.BOUNDARY
    assert point_in_polygon(Point(5, 2), sq) is PointLocation.OUTSIDE
    assert point_in_polygon(Point(-1e-3, 2), sq) is PointLocation.OUTSIDE


def test_point_in_polygon_nonconvex_matches_convex_decomposition():
    # an L-shape equals the union of two rectangles; classify against both
    l_shape = Polygon(
        [Point(0, 0), Point(2, 0), Point(2, 1), Point(1, 1), Point(1, 2), Point(0, 2)]
    )
    lower = Polygon([Point(0, 0), Point(2, 0), Point(2, 1), Point(0, 1)])
    upper = Polygon([Point(0, 1), Point(1, 1), Point(1, 2), Point(0, 2)])
    rng = random.Random(31337)
    for _ in range(500):
        p = Point(rng.uniform(-0.5, 2.5), rng.uniform(-0.5, 2.5))
        got = point_in_polygon(p, l_shape)
        in_lower = point_in_polygon(p, lower)
        in_upper = point_in_polygon(p, upper)
        if got is PointLocation.OUTSIDE:
            assert PointLocation.INSIDE not in (in_lower, in_upper)
        elif got is PointLocation.INSIDE:
            assert PointLocation.INSIDE in (in_lower, in_upper) or (
                in_lower is PointLocation.BOUNDARY and in_upper is PointLocation.BOUNDARY
            )


def _near_line_pair(length: float, share: float, sign: float):
    """q along the x axis and p from (-1, h) to (0.65 * length, sign * e).

    e is 0.9 * EPS_AREA / length: p's end is area-collinear with q yet more
    than EPS_DIST off its line.  With sign -1, p crosses q at
    x = share * length; with +1 its end is mirrored above the axis.
    """
    e = 0.9 * EPS_AREA / length
    x_end = 0.65 * length
    x_cross = share * length
    h = e * (x_cross + 1.0) / (x_end - x_cross)
    return ((0.0, 0.0), (length, 0.0)), ((-1.0, h), (x_end, sign * e))


def test_near_line_crossings_are_contact_in_polygons_and_trapmaps():
    box = BBox(-2, -2, 2, 2)
    cases = [(((0.0, 0.0), (0.01, 0.0)), ((-1.0, 3.35e-5), (0.0065, -1e-7)))]
    cases += [_near_line_pair(length, share, sign)
              for length in (0.002, 0.01, 0.05, 0.3)
              for share in (0.1, 0.35, 0.6)
              for sign in (-1.0, 1.0)]
    crossing = 0
    for q, p in cases:
        crosses = geomgen.segments_properly_cross(*p, *q)
        (qa, qb), (pa, pb) = [(Point(*a), Point(*b)) for a, b in (q, p)]
        assert abs(cross(qa, qb, pb)) <= EPS_AREA
        assert point_segment_distance(pb, qa, qb) > EPS_DIST
        for shared_ok in (True, False):
            assert geomgen.segments_contact(pa, pb, qa, qb, shared_ok) is crosses, (q, p)
        segments = [Segment(qa, qb), Segment(pa, pb)]
        if crosses:
            crossing += 1
            with pytest.raises(GeometryError, match="intersect"):
                build_trapezoidal_map(segments, box)
            # a 7-gon whose edges 0 and 4 are q and p
            (x0, _), (x1, _) = q
            (px, py), (ex, ey) = p
            loop = [(x0, 0.0), (x1, 0.0), (x1, 1.0), (px, 1.0), (px, py), (ex, ey), (ex, -1.0)]
            with pytest.raises(GeometryError, match="edges 0 and 4 touch"):
                Polygon([Point(x, y) for x, y in loop])
        else:
            assert len(build_trapezoidal_map(segments, box).segments) == 2
    assert crossing == 13


def test_crossings_the_float_signs_do_not_prove_stay_apart():
    # a fan whose ends are 5.7e-10 apart crosses within the tolerance of
    # its shared point: with shared_ok that is no contact
    fan = (Point(0, 0), Point(1, 1), Point(-4e-10, 4e-10), Point(1, 0))
    assert geomgen.segments_contact(*fan, shared_ok=True) is False
    assert geomgen.segments_contact(*fan, shared_ok=False) is True
    # end to end on one line, 3e-9 apart: the float orientations come out
    # opposite in both pairs (the exact ones do not), and rounding can have
    # made them, so this is no crossing
    a, b, c, d = [(-12.674140128724275, 19.61614092589059),
                  (-3.5483963650505252, 24.077705518627674),
                  (-3.5483963623553825, 24.077705519945326),
                  (5.577347398623225, 28.539270111364754)]
    assert geomgen.segments_properly_cross(a, b, c, d)
    line = [Point(*v) for v in (a, b, c, d)]
    for shared_ok in (True, False):
        assert geomgen.segments_contact(*line, shared_ok) is False
    for p1, p2, q1, q2 in (fan, line):
        m = build_trapezoidal_map([Segment(p1, p2), Segment(q1, q2)], BBox(-20, -2, 10, 30))
        assert len(m.segments) == 2


def test_off_line_margin_covers_the_proven_rounding_budget():
    # the proof in core._OFF_LINE needs K (1 - 3u) > 11.5 in
    # _OFF_LINE = EPS_DIST + K * 2 * COORD_LIMIT * u: the rounding of the
    # cross product, of the distance and of the test itself
    u = 2.0**-53
    k = (_OFF_LINE - EPS_DIST) / (2.0 * COORD_LIMIT * u)
    assert k * (1.0 - 3.0 * u) > 11.5


def _off_line_point(q1, q2, t, off, ulps=0):
    """q1 + t (q2 - q1), moved off along the left normal, x nudged by ulps."""
    dx, dy = q2.x - q1.x, q2.y - q1.y
    d = math.hypot(dx, dy)
    x = q1.x + t * dx - off * dy / d
    y = q1.y + t * dy + off * dx / d
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x, y


def _margin(q1, q2):
    """The offset from q1q2's line at which cross(q1, q2, p) is about the margin."""
    dx, dy = q2.x - q1.x, q2.y - q1.y
    return _OFF_LINE * (abs(dx) + abs(dy)) / math.hypot(dx, dy)


def test_off_line_certificate_implies_the_distance_tests_fail():
    # segments up to 2e6 long anywhere in the box, points around the margin
    rng = random.Random(70113)
    certified = 0
    for _ in range(4000):
        q1 = Point(rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6))
        angle = rng.choice((0.0, 1e-4, 0.3, math.pi / 4, rng.uniform(0.0, 2.0 * math.pi)))
        length = 10.0 ** rng.uniform(-8.0, 6.3)
        q2 = Point(*[min(max(v, -1e6), 1e6) for v in
                     (q1.x + length * math.cos(angle), q1.y + length * math.sin(angle))])
        if distance(q1, q2) <= EPS_DIST:
            continue
        off = _margin(q1, q2) * rng.uniform(0.9, 1.1) * rng.choice((-1.0, 1.0))
        x, y = _off_line_point(q1, q2, rng.uniform(-0.2, 1.2), off, rng.randint(-2, 2))
        if max(abs(x), abs(y)) > COORD_LIMIT:
            continue
        p = Point(x, y)
        m = _OFF_LINE * (abs(q2.x - q1.x) + abs(q2.y - q1.y))
        if abs(cross(q1, q2, p)) > m:
            certified += 1
            assert point_segment_distance(p, q1, q2) > EPS_DIST
            assert distance(p, q1) > EPS_DIST and distance(p, q2) > EPS_DIST
    assert certified > 1000


_SPOTS = (0.0, 999000.0, -999000.0)


@st.composite
def _near_line_segments(draw):
    """A segment q and a segment p whose ends sit near q's line, just past
    q's ends along it, or on q's ends."""
    cx, cy = draw(st.sampled_from(_SPOTS)), draw(st.sampled_from(_SPOTS))
    angle = draw(st.one_of(st.sampled_from((0.0, 0.5 * math.pi, 0.25 * math.pi, 1e-7)),
                           st.floats(0.0, 0.5 * math.pi)))
    length = 10.0 ** draw(st.floats(-8.0, 6.0))
    # run from the spot toward the origin, so q stays inside the box
    ux = -math.cos(angle) if cx > 0 else math.cos(angle)
    uy = -math.sin(angle) if cy > 0 else math.sin(angle)
    q1 = Point(cx, cy)
    q2 = Point(cx + length * ux, cy + length * uy)
    assume(distance(q1, q2) > EPS_DIST)
    ends = []
    for _ in range(2):
        kind = draw(st.sampled_from(("margin", "offset", "far", "end", "past")))
        if kind == "end":
            ends.append(draw(st.sampled_from((q1, q2))))
            continue
        t = draw(st.sampled_from((0.0, 0.5, 1.0)) | st.floats(-0.25, 1.25))
        side = draw(st.sampled_from((-1.0, 1.0)))
        if kind == "past":
            # up to 10 EPS_DIST beyond an end, or up to q's length beyond it
            if draw(st.booleans()):
                run = draw(st.floats(0.0, 10.0)) * EPS_DIST / length
            else:
                run = draw(st.floats(0.0, 1.0))
            t = draw(st.sampled_from((-run, 1.0 + run)))
            off, ulps = draw(st.floats(0.0, 3.0)) * EPS_DIST, 0
        elif kind == "margin":
            off, ulps = _margin(q1, q2), draw(st.integers(-1, 1))
        elif kind == "offset":
            off, ulps = draw(st.floats(0.0, 20.0)) * EPS_DIST, 0
        else:
            off, ulps = draw(st.floats(1e-3, 1.0)) * length, 0
        x, y = _off_line_point(q1, q2, t, side * off, ulps)
        assume(max(abs(x), abs(y)) <= COORD_LIMIT)
        ends.append(Point(x, y))
    assume(distance(ends[0], ends[1]) > EPS_DIST)
    return q1, q2, ends[0], ends[1]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_near_line_segments())
def test_contact_certificate_matches_the_uncertified_predicate(segments):
    # ends 0-20 EPS_DIST off the line, around the margin by an ulp, far off
    # (crossings), just past q's ends, or on them (shared endpoints,
    # collinear overlaps)
    q1, q2, p1, p2 = segments
    for shared_ok in (True, False):
        for args in ((p1, p2, q1, q2), (q1, q2, p1, p2), (p2, p1, q2, q1)):
            want = geomgen.boxed_segments_contact_reference(*args, shared_ok)
            assert core._boxed_segments_contact(*args, shared_ok) is want


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_near_line_segments())
def test_segments_in_contact_lie_within_the_contact_reach(segments):
    # the lemma of core._CONTACT_REACH, in exact arithmetic: near-collinear
    # pairs at any angle up to 90 degrees, anywhere in the box, end to end
    # or crossing near an end
    q1, q2, p1, p2 = segments
    assume(geomgen.contact_boxes_overlap(p1, p2, q1, q2))
    reach2 = Fraction(core._CONTACT_REACH) ** 2
    for args in ((p1, p2, q1, q2), (q1, q2, p1, p2), (p2, p1, q2, q1)):
        if core._boxed_segments_contact(*args, shared_ok=False):
            assert geomgen.segment_distance2_exact(*args) <= reach2


def test_a_float_crossing_reaches_past_the_distance_tests():
    # end to end on one line near (-1e6, -1e6), 5.35e-9 apart: the four
    # orientations are rounding noise above EPS_AREA whose float signs say
    # the segments cross, so the pair is in contact more than five times
    # EPS_DIST apart, and within the contact reach
    p1 = Point(-338654.44678463595, -375348.95202957006)
    p2 = Point(11946.724762284779, -44230.21125781763)
    q1 = Point(-999000.0, -999000.0)
    q2 = Point(-338654.44678463985, -375348.95202957373)
    assert core._boxed_segments_contact(p1, p2, q1, q2, shared_ok=False)
    exact2 = geomgen.segment_distance2_exact(p1, p2, q1, q2)
    assert Fraction(5e-9) ** 2 < exact2 <= Fraction(core._CONTACT_REACH) ** 2


def test_contact_reach_covers_the_proven_bound():
    # the three cases of core._CONTACT_REACH's proof, and the room the star
    # certificate's rounding needs, with u = 2**-53 and L = COORD_LIMIT
    u, big = 2.0**-53, COORD_LIMIT
    h = 2.0 * math.sqrt(2.0) * big * core._CROSS_ERR * (1.0 + u) ** 3
    w = 2.0 * EPS_DIST + u * (big + 2.0 * EPS_DIST)
    cases = (EPS_DIST + 8.49 * 2.0 * big * u,
             2.0 * math.sqrt(2.0) * h,
             math.sqrt(2.0) * math.hypot(2.0 * w + h, h))
    assert max(cases) < 7.5e-9 < core._CONTACT_REACH / (1.0 + 16.0 * u)


def test_star_polygon_checks_make_few_distance_calls(monkeypatch):
    # without the certificate each candidate edge pair costs four
    # point_segment_distance calls: 112,864 for these two stars
    calls = [0]
    point_segment_distance = core.point_segment_distance

    def counted(p, a, b):
        calls[0] += 1
        return point_segment_distance(p, a, b)

    monkeypatch.setattr(core, "point_segment_distance", counted)
    for n in (400, 800):
        Polygon([Point(*v) for v in geomgen.star_polygon(random.Random(n), n)])
    assert calls[0] <= 100, calls[0]


def test_certified_stars_skip_the_contact_scan(monkeypatch):
    # the star certificate settles these stars and the bench's convex
    # n-gons in linear time: no edge pair is tested, and the Python calls
    # grow with n
    calls = [0]
    boxed_segments_contact = core._boxed_segments_contact

    def counted(*args, **kwargs):
        calls[0] += 1
        return boxed_segments_contact(*args, **kwargs)

    monkeypatch.setattr(core, "_boxed_segments_contact", counted)
    for loops in (geomgen.star_polygon, geomgen.circle_polygon):
        counts = []
        for n in (400, 800, 1600):
            verts = [Point(*v) for v in loops(random.Random(n), n)]
            assert core._star_certificate(Polygon(verts).vertices)
            counts.append(geomgen.python_calls(Polygon, verts))
        assert counts[1] <= 2.2 * counts[0] and counts[2] <= 2.2 * counts[1], (loops.__name__, counts)
    assert calls[0] == 0


def test_convex_needle_whose_edges_touch_is_rejected():
    with pytest.raises(GeometryError, match="edges 0 and 2 touch"):
        Polygon([Point(0, 0), Point(10, -4e-10), Point(20, 0), Point(10, 4e-10)])


def test_needle_with_a_fifth_vertex_is_rejected():
    # the same needle, made non-convex, reaches the scan
    needle = [Point(0, 0), Point(10, -4e-10), Point(20, 0), Point(10, 4e-10)]
    assert core._boxed_segments_contact(*needle, shared_ok=False)
    with pytest.raises(GeometryError, match="edges 0 and 2 touch"):
        Polygon(needle + [Point(5, 1e-3)])


def test_band_segments_are_swept_along_y(monkeypatch):
    # horizontal bands all overlap in x, so an x-sweep compares every pair
    # (19,900 and 79,800 here); a y-sweep compares neighbouring bands
    compared = [0]

    class Coord(float):
        def __gt__(self, other):
            compared[0] += 1
            return float.__gt__(self, other)

    contact_box = core._contact_box
    monkeypatch.setattr(core, "_contact_box", lambda p, q: tuple(map(Coord, contact_box(p, q))))
    for n in (200, 400):
        raw = geomgen.random_noncrossing_segments(random.Random(n), n)
        compared[0] = 0
        assert list(core._contact_candidates([(Point(*a), Point(*b)) for a, b in raw])) == []
        assert compared[0] <= 2 * n, (n, compared[0])


def test_contact_candidates_are_the_overlapping_boxes_on_either_axis():
    rng = random.Random(5150)
    for _ in range(20):
        raw = geomgen.random_noncrossing_segments(rng, rng.randint(2, 40))
        raw += [tuple(tuple(geomgen.random_points(rng, 1)[0]) for _ in "ab")
                for _ in range(rng.randint(0, 10))]
        for flip in (False, True):
            segs = [(Point(*a[::-1]), Point(*b[::-1])) if flip else (Point(*a), Point(*b))
                    for a, b in raw]
            boxes = [core._contact_box(a, b) for a, b in segs]
            want = [(i, j) for i in range(len(segs)) for j in range(i + 1, len(segs))
                    if boxes[i][0] <= boxes[j][2] and boxes[j][0] <= boxes[i][2]
                    and boxes[i][1] <= boxes[j][3] and boxes[j][1] <= boxes[i][3]]
            assert sorted(core._contact_candidates(segs)) == want


def test_polygon_check_memory_does_not_grow_with_the_pair_count():
    # a 1600-vertex star keeps 95,014 candidate pairs, 16 times the 400-vertex
    # star's 5,792; pairs are tested as the sweep yields them, so the peak
    # grows with the vertices only (the sorted pair list peaked at 6.3 MB)
    import tracemalloc

    peaks = []
    for n in (400, 1600):
        verts = [Point(*p) for p in geomgen.star_polygon(random.Random(2), n)]
        tracemalloc.start()
        try:
            Polygon(verts)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 8 * peaks[0], peaks


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _orient_fraction(ax, ay, bx, by, cx, cy) -> int:
    ax, ay, bx, by, cx, cy = map(Fraction, (ax, ay, bx, by, cx, cy))
    return _sign((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))


def _incircle_fraction(ax, ay, bx, by, cx, cy, dx, dy) -> int:
    ax, ay, bx, by, cx, cy, dx, dy = map(Fraction, (ax, ay, bx, by, cx, cy, dx, dy))
    rows = [(x - dx, y - dy) for x, y in ((ax, ay), (bx, by), (cx, cy))]
    (a, b), (c, d), (e, f) = rows
    la, lc, le = a * a + b * b, c * c + d * d, e * e + f * f
    return _sign(la * (c * f - e * d) - lc * (a * f - e * b) + le * (a * d - c * b))


def _nudge(v: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        v = math.nextafter(v, math.copysign(math.inf, ulps))
    return v


_ULPS = st.integers(-3, 3)
# the least subnormal, so that differences of its multiples are subnormal
_TINY = 2.0**-1074


@st.composite
def _exact_sign_points(draw, count):
    """count points: near one line, on one lattice circle scaled by a power
    of two, near one float circle, clustered near +/-1e6, or on a grid of
    subnormals, each coordinate then moved by up to 3 ulps or not at all."""
    kind = draw(st.sampled_from(["line", "lattice circle", "circle", "far", "subnormal"]))
    if kind == "line":
        x0, y0 = draw(st.sampled_from([(0.0, 0.0), (1.0, -3.0), (123.456, 7e-3), (-1e6, 1e6)]))
        dx, dy = draw(st.sampled_from([(1.0, 0.0), (1.0, 1.0), (0.3, -0.7), (1e-3, 2.5)]))
        ts = draw(st.lists(st.floats(-1e3, 1e3), min_size=count, max_size=count))
        pts = [(x0 + t * dx, y0 + t * dy) for t in ts]
    elif kind == "lattice circle":
        # the lattice points at distance sqrt(65) from the centre
        ring = [(sx * u, sy * v) for u, v in ((1, 8), (8, 1), (4, 7), (7, 4))
                for sx in (1, -1) for sy in (1, -1)]
        scale = draw(st.sampled_from([1.0, 0.5, 2.0**-30, 1024.0]))
        cx, cy = draw(st.tuples(st.integers(-10**5, 10**5), st.integers(-10**5, 10**5)))
        pts = [(cx + scale * u, cy + scale * v)
               for u, v in draw(st.lists(st.sampled_from(ring), min_size=count, max_size=count))]
    elif kind == "circle":
        r = draw(st.sampled_from([1.0, 3.7, 1000.0]))
        ks = draw(st.lists(st.integers(0, 23), min_size=count, max_size=count))
        pts = [(r * math.cos(math.pi * k / 12), r * math.sin(math.pi * k / 12)) for k in ks]
    elif kind == "far":
        cx, cy = draw(st.sampled_from([(1e6, 1e6), (-1e6, 1e6), (1e6, -1e6), (-1e6, -1e6)]))
        offs = draw(st.lists(st.tuples(st.floats(0.0, 1e-3), st.floats(0.0, 1e-3)),
                             min_size=count, max_size=count))
        pts = [(cx - math.copysign(u, cx), cy - math.copysign(v, cy)) for u, v in offs]
    else:
        ints = draw(st.lists(st.tuples(st.integers(-64, 64), st.integers(-64, 64)),
                             min_size=count, max_size=count))
        pts = [(i * _TINY, j * _TINY) for i, j in ints]
    if draw(st.booleans()):
        pts = [(_nudge(x, draw(_ULPS)), _nudge(y, draw(_ULPS))) for x, y in pts]
    return [min(COORD_LIMIT, max(-COORD_LIMIT, v)) for p in pts for v in p]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_exact_sign_points(3))
def test_orient_sign_is_the_exact_sign(coords):
    assert core._orient_sign(*coords) == _orient_fraction(*coords)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_exact_sign_points(4))
def test_incircle_sign_is_the_exact_sign(coords):
    assert core._incircle_sign(*coords) == _incircle_fraction(*coords)


def test_exact_signs_settle_the_cases_the_filters_leave_open():
    # exact zeros the float filters cannot certify, and subnormal
    # determinants that underflow to 0
    assert core._orient_sign(0.1, 0.1, 0.2, 0.2, 0.3, 0.3) == _orient_fraction(0.1, 0.1, 0.2, 0.2, 0.3, 0.3)
    assert core._orient_sign(0.0, 0.0, _TINY, 0.0, 0.0, _TINY) == 1
    assert core._incircle_sign(5.0, 0.0, 0.0, 5.0, -5.0, 0.0, 3.0, -4.0) == 0
    assert core._incircle_sign(5.0, 0.0, 0.0, 5.0, -5.0, 0.0, 3.0, math.nextafter(-4.0, 0.0)) == 1
    assert core._incircle_sign(_TINY, 0.0, 0.0, _TINY, -_TINY, 0.0, 0.0, -2 * _TINY) == -1
