"""Floating bodies of convex polygons: cut offsets, midpoints, envelopes."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import geomgen
from geoforge import (
    GeometryError,
    Point,
    PointLocation,
    Polygon,
    clip_halfplane,
    cut_halfplane,
    dupin_floating_body,
    point_in_polygon,
    polygon_area,
    polygon_bbox,
    polygon_is_convex,
)
from geoforge import floating_body
from geoforge.core import EPS_AREA, EPS_DIST, _polygon_from_loop, _sutherland_hodgman
from geoforge.floating_body import result_to_dict
from geoforge.jsontext import dumps
from geoforge.scene import parse_scene

TESTS = Path(__file__).resolve().parent

UNIT_SQUARE = Polygon([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)])


def test_area_fraction_validation():
    r = dupin_floating_body(UNIT_SQUARE, Fraction(1, 2), n_directions=4)
    assert type(r.delta) is float and r.delta == 0.5
    for bad in (0.0, -0.1, 0.6, 1.0, math.nan):
        with pytest.raises(GeometryError, match=r"^delta must be in \(0, 0\.5\]$"):
            dupin_floating_body(UNIT_SQUARE, bad)
        with pytest.raises(GeometryError, match=r"^delta must be in \(0, 0\.5\]$"):
            cut_halfplane(UNIT_SQUARE, 0.0, bad)


def test_square_bottom_cut_is_analytic():
    h = cut_halfplane(UNIT_SQUARE, 3 * math.pi / 2, 0.1)
    # normal (0,-1): the removed cap {y < 0.1} has area exactly 0.1
    assert h.nx == pytest.approx(0.0, abs=1e-12)
    assert h.ny == pytest.approx(-1.0, abs=1e-12)
    assert h.c == pytest.approx(-0.1, abs=1e-9)
    mid = geomgen.chord_midpoint_scan(UNIT_SQUARE.vertices, h.nx, h.ny, h.c)
    assert (mid.x, mid.y) == (pytest.approx(0.5, abs=1e-9), pytest.approx(0.1, abs=1e-9))


def test_square_corner_cut_is_analytic():
    # normal at 225 degrees cuts the corner at the origin; the removed
    # triangle is isoceles with legs L, area L^2/2 = delta
    delta = 0.125
    h = cut_halfplane(UNIT_SQUARE, 5 * math.pi / 4, delta)
    length = math.sqrt(2 * delta)
    # cap {(-x - y)/sqrt(2) >= c}: the cut line passes (L, 0) and (0, L)
    want_c = -length / math.sqrt(2)
    assert h.c == pytest.approx(want_c, abs=1e-9)
    mid = geomgen.chord_midpoint_scan(UNIT_SQUARE.vertices, h.nx, h.ny, h.c)
    assert mid.x == pytest.approx(length / 2, abs=1e-9)
    assert mid.y == pytest.approx(length / 2, abs=1e-9)


def test_cap_areas_audited_on_random_convex_polygons():
    rng = random.Random(31502)
    for _ in range(10):
        hull = geomgen.random_convex_polygon(rng, rng.randint(6, 25))
        poly = Polygon([Point(x, y) for x, y in hull])
        area = polygon_area(poly)
        for delta in (0.05, 0.25, 0.45):
            for k in range(0, 48):
                phi = 2 * math.pi * k / 48
                h = cut_halfplane(poly, phi, delta)
                kept = clip_halfplane(poly, h)
                cap = area - (polygon_area(kept) if kept else 0.0)
                assert cap == pytest.approx(delta * area, abs=1e-8 * area)


def test_fixture_rectangle_at_quarter_matches_its_golden():
    # the CLI default of 720 directions on the floating-body fixture.  Near
    # each side's midpoint the cut lines of many directions pass through
    # one point; cuts solved to within 1e-9 * A missed it by up to 1e-7 and
    # left 28 sliver vertices (320 in all), where exact cuts leave 292
    scene = parse_scene((TESTS / "fixtures" / "floating-body.json").read_text())
    r = dupin_floating_body(scene.polygons[0], 0.25, 720)
    assert len(r.convex_fb) == 292
    got = dumps(result_to_dict(r)) + "\n"
    assert got == (TESTS / "golden" / "floating-body-delta-0.25.json").read_text()


def test_dupin_square_passes_through_known_point():
    r = dupin_floating_body(UNIT_SQUARE, 0.1, n_directions=360)
    assert len(r.dupin) == 360
    nearest = min(math.hypot(p.x - 0.5, p.y - 0.1) for p in r.dupin)
    assert nearest < 1e-6
    assert r.is_dupin_convex is True
    assert r.convex_fb is not None


def test_dupin_collapses_to_center_at_half():
    for poly, center in [
        (UNIT_SQUARE, (0.5, 0.5)),
        (Polygon([Point(-2, -1), Point(2, -1), Point(2, 1), Point(-2, 1)]), (0.0, 0.0)),
    ]:
        r = dupin_floating_body(poly, 0.5, n_directions=120)
        worst = max(math.hypot(p.x - center[0], p.y - center[1]) for p in r.dupin)
        assert worst < 1e-6
        assert r.convex_fb is None or polygon_area(r.convex_fb) < 1e-9


def test_convex_bodies_nest():
    r10 = dupin_floating_body(UNIT_SQUARE, 0.1, n_directions=360)
    r25 = dupin_floating_body(UNIT_SQUARE, 0.25, n_directions=360)
    for v in r25.convex_fb.vertices:
        assert point_in_polygon(v, r10.convex_fb) in (
            PointLocation.INSIDE,
            PointLocation.BOUNDARY,
        )


def test_thin_triangle_dupin_is_not_convex():
    thin = Polygon([Point(0, 0), Point(10, 0), Point(0, 1)])
    r = dupin_floating_body(thin, 0.45, n_directions=360)
    assert r.is_dupin_convex is False


def test_dupin_points_lie_in_the_polygon():
    rng = random.Random(31777)
    for _ in range(5):
        hull = geomgen.random_convex_polygon(rng, 15)
        poly = Polygon([Point(x, y) for x, y in hull])
        r = dupin_floating_body(poly, 0.2, n_directions=90)
        for p in r.dupin:
            assert point_in_polygon(p, poly) in (
                PointLocation.INSIDE,
                PointLocation.BOUNDARY,
            )


def test_quarter_turn_equivariance_on_the_square():
    r = dupin_floating_body(UNIT_SQUARE, 0.15, n_directions=360)
    # rotating the square by 90 degrees about its center maps the
    # direction sweep onto itself, so the dupin point set is preserved
    rotated = sorted(
        (round(0.5 - (p.y - 0.5), 9), round(0.5 + (p.x - 0.5), 9)) for p in r.dupin
    )
    original = sorted((round(p.x, 9), round(p.y, 9)) for p in r.dupin)
    assert rotated == original


def test_requires_convex_polygon():
    l_shape = Polygon(
        [Point(0, 0), Point(2, 0), Point(2, 1), Point(1, 1), Point(1, 2), Point(0, 2)]
    )
    with pytest.raises(GeometryError):
        dupin_floating_body(l_shape, 0.1)
    with pytest.raises(GeometryError):
        cut_halfplane(l_shape, 0.0, 0.1)


def test_chord_midpoint_requires_a_cut():
    with pytest.raises(GeometryError, match="^line does not cut polygon$"):
        geomgen.chord_midpoint_scan(UNIT_SQUARE.vertices, 1.0, 0.0, 5.0)


def test_result_dict_shape():
    r = dupin_floating_body(UNIT_SQUARE, 0.5, n_directions=8)
    d = result_to_dict(r)
    assert d["delta"] == 0.5
    assert len(d["dupin"]) == 8
    assert d["convex_fb"] is None
    assert d["is_dupin_convex"] is True


def _rectangle_fixture():
    return parse_scene((TESTS / "fixtures" / "floating-body.json").read_text()).polygons[0]


def test_rectangle_dupin_is_convex():
    # a rectangle is centrally symmetric, so its Dupin locus is convex
    # (Meyer and Reisner, Geom. Dedicata 37, 1991); cuts solved to within
    # 1e-9 * A left both fixture runs non-convex
    rect = _rectangle_fixture()
    for delta, n_directions in ((0.1, 36), (0.25, 720)):
        assert dupin_floating_body(rect, delta, n_directions).is_dupin_convex is True


def test_rectangle_body_has_no_slivers():
    # cuts solved to within 1e-9 * A left 24 pairs of consecutive body
    # vertices closer than 1e-6 at delta 0.25, where neighbouring cut lines
    # pass through the same point
    body = dupin_floating_body(_rectangle_fixture(), 0.25, 720).convex_fb.vertices
    gaps = [math.hypot(p.x - q.x, p.y - q.y) for p, q in zip(body, body[1:] + body[:1])]
    assert min(gaps) >= 1e-6


_U = 2.0**-53


def _cap_error_bound(loop, c):
    # _Caps' bound 50 (n + 5) u M^2 + 3 u M (|c| + 2 |x_0| + 2 |y_0|), with
    # M the largest coordinate of the loop moved to put vertex 0 at the origin
    x0, y0 = loop[0]
    m = max(max(abs(x - x0), abs(y - y0)) for x, y in loop)
    return 50 * (len(loop) + 5) * _U * m * m + 3 * _U * m * (abs(c) + 2 * abs(x0) + 2 * abs(y0))


@st.composite
def _cut_cases(draw, deltas=(1e-6, 0.1, 0.25, 0.45, 0.5), far_clockwise=False):
    # convex polygons of every shape the solve must get right: jittered
    # n-gons, rectangles and squares (ties between vertex levels), collinear
    # runs (flat edges, zero-width intervals), thin triangles, the unit square
    # near (1e6, -1e6), the +/-1e6 box, and n-gons with a corner that turns
    # right by less than EPS_AREA; directions include the axis ties.  With
    # far_clockwise, the square near (1e6, -1e6) and the collinear runs 999000
    # from an axis may be given clockwise
    kinds = ["ngon", "rectangle", "collinear", "thin", "far", "box", "reflex"]
    kind = draw(st.sampled_from(kinds))
    valley = None
    size = draw(st.sampled_from([1e-3, 0.37, 1.0, 52.5, 1e3]))
    ox = draw(st.sampled_from([0.0, 5e5, 999000.0, -999000.0]))
    oy = draw(st.sampled_from([0.0, 5e5, 999000.0, -999000.0]))
    phis = [k * math.pi / 2 for k in range(4)]
    phis += draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=1, max_size=3))
    if kind == "rectangle":
        aspect = draw(st.sampled_from([0.1, 1.0, 3.0]))
        loop = [(ox, oy), (ox + size, oy), (ox + size, oy + aspect * size), (ox, oy + aspect * size)]
    elif kind == "thin":
        ratio = draw(st.sampled_from([1e-3, 0.1]))
        loop = [(ox, oy), (ox + size, oy), (ox, oy + ratio * size)]
    elif kind == "far":
        loop = [(999000.0, -999000.0), (999001.0, -999000.0), (999001.0, -998999.0),
                (999000.0, -998999.0)]
    elif kind == "box":
        loop = [(-1e6, -1e6), (1e6, -1e6), (1e6, 1e6), (-1e6, 1e6)]
    else:
        n = draw(st.integers(3, 300))
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        step = 2 * math.pi / n
        angles = [(k + rng.uniform(-0.4, 0.4)) * step for k in range(n)]
        loop = [(ox + size * math.cos(a), oy + size * math.sin(a)) for a in angles]
        if kind == "collinear":
            # edge midpoints as extra vertices, on the line up to rounding
            loop = [
                q
                for (x0, y0), (x1, y1) in zip(loop, loop[1:] + loop[:1])
                for q in ((x0, y0), ((x0 + x1) / 2, (y0 + y1) / 2))
            ]
        elif kind == "reflex":
            # one vertex pushed inward so that it turns clockwise by less than
            # EPS_AREA: the levels along that edge's normal are not unimodal,
            # and a cap there can be two pieces
            i = rng.randrange(n)
            (x0, y0), (x1, y1) = loop[i], loop[(i + 1) % n]
            length = math.hypot(x1 - x0, y1 - y0)
            push = 0.5 * EPS_AREA / length
            nx, ny = -(y1 - y0) / length, (x1 - x0) / length
            valley = ((x0 + x1) / 2 + push * nx, (y0 + y1) / 2 + push * ny)
            loop.insert(i + 1, valley)
            phis.append(math.atan2(-ny, -nx))
    far = kind == "far" or (kind == "collinear" and max(abs(ox), abs(oy)) == 999000.0)
    if far_clockwise and far and draw(st.booleans()):
        loop = loop[::-1]
    try:
        poly = Polygon([Point(x, y) for x, y in loop])
    except GeometryError:
        assume(False)
    assume(polygon_is_convex(poly))
    delta = draw(st.sampled_from(deltas))
    n_directions = draw(st.sampled_from([1, 4, 36, 360]))
    return poly, delta, phis, n_directions, valley


def _valley_allowance(loop, valley, ux, uy):
    # where the pushed vertex is a local minimum of the exact levels, a cap
    # reaching below it can be two pieces, and the solve finds one of them
    # or the run across the notch: both lie in the hull above the vertex
    if valley is None:
        return 0

    def level(p):
        return Fraction(ux) * Fraction(p[0]) + Fraction(uy) * Fraction(p[1])

    i = loop.index(valley)
    h = level(valley)
    if not (h < level(loop[i - 1]) and h < level(loop[(i + 1) % len(loop)])):
        return 0
    return geomgen.cap_area_exact(loop[:i] + loop[i + 1:], ux, uy, h)


def _dupin_offsets(poly, delta, n_directions):
    # the offsets of dupin_floating_body's cuts, in direction order
    offsets = []
    cut = floating_body._Caps.cut

    def recorded(self, *args):
        out = cut(self, *args)
        offsets.append(out[2])
        return out

    floating_body._Caps.cut = recorded
    try:
        result = dupin_floating_body(poly, delta, n_directions)
    finally:
        floating_body._Caps.cut = cut
    return result, offsets


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_cut_cases(deltas=(1e-6, 0.1, 0.45, 0.5), far_clockwise=True), st.integers(0, 2**32 - 1))
def test_cut_offsets_cut_caps_within_the_round_off_bound(case, seed):
    # the exact cap area at the offsets of cut_halfplane and of the sweep's
    # cuts, against delta times the exact area; the bisection stopped within
    # 1e-9 * A, far above this bound.  Far polygons given clockwise check
    # that _Caps may take Polygon's stored orientation as it is
    poly, delta, phis, n_directions, valley = case
    loop = [(v.x, v.y) for v in poly.vertices]
    area = geomgen.cap_area_exact(loop, 1.0, 0.0, min(x for x, _ in loop))
    target = Fraction(delta) * area
    for phi in phis:
        h = cut_halfplane(poly, phi, delta)
        error = abs(geomgen.cap_area_exact(loop, h.nx, h.ny, h.c) - target)
        bound = _cap_error_bound(loop, h.c) + _valley_allowance(loop, valley, h.nx, h.ny)
        assert error <= bound, (phi, float(error / area))
    r, offsets = _dupin_offsets(poly, delta, n_directions)
    assert len(offsets) == len(r.dupin) == n_directions
    step = 2.0 * math.pi / n_directions
    ks = random.Random(seed).sample(range(n_directions), min(n_directions, 12))
    for k in ks:
        ux, uy, c = math.cos(k * step), math.sin(k * step), offsets[k]
        error = abs(geomgen.cap_area_exact(loop, ux, uy, c) - target)
        bound = _cap_error_bound(loop, c) + _valley_allowance(loop, valley, ux, uy)
        assert error <= bound, (k, float(error / area))


@pytest.mark.parametrize("jitter", [0.0, 0.4], ids=["regular", "jittered"])
@pytest.mark.parametrize("n", [3, 4, 5, 7, 12, 40])
def test_a_cut_from_any_run_that_holds_a_top_cuts_its_cap(n, jitter):
    # _Caps.cut from runs a..b that reach up to n - 2 vertices past the top
    # vertex on either side, so that it steps in from either end and out,
    # against delta times the exact area within the round-off bound
    rng = random.Random(1000 * n + int(10 * jitter))
    step = 2 * math.pi / n
    angles = [(k + rng.uniform(-jitter, jitter)) * step for k in range(n)]
    poly = Polygon([Point(7.0 + 30.0 * math.cos(a), -3.0 + 30.0 * math.sin(a)) for a in angles])
    loop = [(v.x, v.y) for v in poly.vertices]
    area = geomgen.cap_area_exact(loop, 1.0, 0.0, min(x for x, _ in loop))
    for delta in (1e-6, 1e-3, 0.1, 0.3, 0.5):
        caps = floating_body._Caps(poly, delta)
        for _ in range(100):
            phi = rng.uniform(0.0, 2 * math.pi)
            ux, uy = math.cos(phi), math.sin(phi)
            levels = [ux * x + uy * y for x, y in caps.loop[:n]]
            top = levels.index(max(levels))
            left = rng.randrange(n - 1)
            right = rng.randrange(n - 1 - left)
            a, b = top - left, top + right
            if a < 0:
                a, b = a + n, b + n
            c = caps.cut(ux, uy, a, b)[2]
            error = abs(geomgen.cap_area_exact(loop, ux, uy, c) - Fraction(delta) * area)
            assert error <= _cap_error_bound(loop, c), (phi, delta, a, b, float(error / area))


def _reference_error_bound(loop, area, c):
    # cut_offset_reference stops when its float cap is within 1e-9 * A of
    # the target, and that cap rounds as _Caps' does on a loop not shifted
    # (M the largest |x| or |y|); or when its bracket is under 1e-12 * diam,
    # which a chord under diam turns into at most diam^2 * 1e-12 of cap
    m = max(max(abs(x), abs(y)) for x, y in loop)
    xs = [x for x, _ in loop]
    ys = [y for _, y in loop]
    diam = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
    return (1e-9 * area + 50 * (len(loop) + 5) * _U * m * m + 3 * _U * m * abs(c)
            + 1e-12 * diam * diam)


def _exact_area(poly):
    loop = [(v.x, v.y) for v in poly.vertices]
    return geomgen.cap_area_exact(loop, 1.0, 0.0, min(x for x, _ in loop))


def _caps_agree_with_the_reference(poly, delta, ux, uy, c, valley, exact):
    # the exact caps at c and at the bisection's offset differ by no more
    # than the two offsets' own error bounds; exact is the polygon's area
    loop = [(v.x, v.y) for v in poly.vertices]
    area = polygon_area(poly)
    bb = polygon_bbox(poly)
    c_ref = geomgen.cut_offset_reference(loop, ux, uy, delta * area, area,
                                         math.hypot(bb.width, bb.height))
    gap = abs(geomgen.cap_area_exact(loop, ux, uy, c) - geomgen.cap_area_exact(loop, ux, uy, c_ref))
    bound = (_reference_error_bound(loop, exact, c_ref) + _cap_error_bound(loop, c)
             + _valley_allowance(loop, valley, ux, uy))
    return gap <= bound, (c, c_ref, float(gap / exact))


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(_cut_cases())
def test_cut_offsets_equal_the_clip_every_step_reference(case):
    # the closed-form offsets against the bisection that clipped the cap at
    # every step: not bit for bit, as when both bisected, but as caps, to
    # within the bisection's 1e-9 * A and both round-off bounds
    poly, delta, phis, _, valley = case
    exact = _exact_area(poly)
    for phi in phis:
        h = cut_halfplane(poly, phi, delta)
        ok, info = _caps_agree_with_the_reference(poly, delta, h.nx, h.ny, h.c, valley, exact)
        assert ok, (phi, info)


def _count_crossings(monkeypatch) -> list:
    # every crossing point _Caps.cut forms: four a pass, where it evaluates
    # the cap at both ends of the run's interval, and two for the root
    calls = [0]
    crossing = floating_body._crossing

    def counted(*args):
        calls[0] += 1
        return crossing(*args)

    monkeypatch.setattr(floating_body, "_crossing", counted)
    return calls


def test_fast_areas_settle_the_steps_and_the_kernel_the_rest(monkeypatch):
    # the bisection settled most of its steps by a fast cap area and sent
    # the rest to the clip kernel; the closed form settles every step, and
    # the cases that went to the kernel take the same passes
    calls = _count_crossings(monkeypatch)
    n = 64
    ngon = Polygon(
        [Point(100 * math.cos(0.1 + 2 * math.pi * k / n), 100 * math.sin(0.1 + 2 * math.pi * k / n))
         for k in range(n)]
    )
    loop = [(v.x, v.y) for v in ngon.vertices]
    target = Fraction(0.1) * geomgen.cap_area_exact(loop, 1.0, 0.0, min(x for x, _ in loop))
    for k in range(36):
        h = cut_halfplane(ngon, 2 * math.pi * k / 36, 0.1)
        assert abs(geomgen.cap_area_exact(loop, h.nx, h.ny, h.c) - target) <= _cap_error_bound(loop, h.c)
    # from the top vertex one pass per vertex the cap holds, about 17
    assert calls[0] // 4 <= 20 * 36, calls[0]

    # a vertex reflex by 9e-10 < EPS_AREA: below the bottom edge the
    # projections dip, and at delta 0.2 the cut passes through the dip,
    # where the cap is two pieces.  The bisection clipped the whole polygon
    # and came within 1e-9 * A; the solve finds the area of the run across
    # the notch, 1.37e-12 = 8.8e-4 * A off the cap's 3.1e-10
    dip = Polygon([Point(0, 0), Point(5e-4, 9e-7), Point(1e-3, 0), Point(5e-4, 4e-6)])
    assert polygon_is_convex(dip)
    loop = [(v.x, v.y) for v in dip.vertices]
    area = geomgen.cap_area_exact(loop, 1.0, 0.0, 0.0)
    target = Fraction(0.2) * area
    calls[0] = 0
    h = cut_halfplane(dip, 1.5 * math.pi, 0.2)
    assert -9e-7 < h.c < 0.0
    assert abs(geomgen.cap_area_exact(loop, h.nx, h.ny, h.c) - target) <= 1.5e-12
    assert calls[0] // 4 <= 4
    # at delta 0.1 and below the cut stays above the dip and the solve
    # takes the first top vertex's piece alone, while the other top vertex
    # cuts off a second one as large: twice the target, within the hull's
    # area above the dip's level (_valley_allowance)
    for delta in (1e-6, 0.05, 0.1, 0.2, 0.3):
        h = cut_halfplane(dip, 1.5 * math.pi, delta)
        error = abs(geomgen.cap_area_exact(loop, h.nx, h.ny, h.c) - Fraction(delta) * area)
        assert error <= _cap_error_bound(loop, h.c) + _valley_allowance(loop, loop[1], h.nx, h.ny)

    # far from the origin the shift to vertex 0 keeps the bound tight
    far = Polygon([Point(999000, -999000), Point(999001, -999000), Point(999001, -998999),
                   Point(999000, -998999)])
    loop = [(v.x, v.y) for v in far.vertices]
    target = Fraction(0.1) * geomgen.cap_area_exact(loop, 1.0, 0.0, 999000.0)
    calls[0] = 0
    h = cut_halfplane(far, 0.3, 0.1)
    assert abs(geomgen.cap_area_exact(loop, h.nx, h.ny, h.c) - target) <= _cap_error_bound(loop, h.c)
    assert calls[0] // 4 <= 2


def _exact_chord(loop, ux, uy, c, *eps):
    # the exact chord's midpoint at c, its half length, and for each eps how
    # far the midpoint of a chord can lie from it when its ends are those of
    # lines within eps of c: half the sum of each end's largest move at c +/- eps
    offsets = [c] + [c + s * e for e in eps for s in (-1, 1)]
    ends, *others = geomgen.chords_exact(loop, ux, uy, offsets)
    (x0, y0), (x1, y1) = ends
    moved = []
    for pair in zip(others[::2], others[1::2]):
        moves = [0.0, 0.0]
        for other in pair:
            for i in (0, 1):
                if other is not None:
                    dx, dy = other[i][0] - ends[i][0], other[i][1] - ends[i][1]
                    moves[i] = max(moves[i], math.hypot(dx, dy))
        moved.append((moves[0] + moves[1]) / 2)
    return ((x0 + x1) / 2, (y0 + y1) / 2), math.hypot(x1 - x0, y1 - y0) / 2, moved


def _distance(p, q):
    return math.hypot(Fraction(p.x) - q[0], Fraction(p.y) - q[1])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_cut_cases(), st.sampled_from([1, 2, 3, 12, 45]))
def test_dupin_equals_the_clip_every_direction_reference(case, n_directions):
    # the sweep's offsets are those of the bisection that clipped the cap at
    # every step, as caps (see above), and its body is the whole body
    # clipped in every direction at those offsets, bit for bit.  Its
    # midpoints are the exact chord's at its offsets, as if the line moved
    # by the solve's rounding, 4 u (M + |c| + |x_0| + |y_0|), and 4 u |x|
    # for the last rounding (about 6 times the largest seen).  The scan
    # (geomgen.chord_midpoint_scan) counts a vertex within EPS_DIST of the
    # line as an end and drops hits within EPS_DIST of each other, so its
    # midpoints are those of lines within EPS_DIST of c, and it finds no
    # chord where the chord is shorter than EPS_DIST; the sweep's midpoint
    # is exact there too
    poly, delta, _, _, valley = case
    r, offsets = _dupin_offsets(poly, delta, n_directions)
    assert len(offsets) == n_directions
    step = 2.0 * math.pi / n_directions
    loop = [(v.x, v.y) for v in poly.vertices]
    x0, y0 = loop[0]
    size = max(max(abs(x - x0), abs(y - y0)) for x, y in loop)
    far = max(max(abs(x), abs(y)) for x, y in loop)
    exact_area = _exact_area(poly)
    body = floating_body._Body(loop)
    plain = list(loop)
    for k, c in enumerate(offsets):
        ux, uy = math.cos(k * step), math.sin(k * step)
        ok, info = _caps_agree_with_the_reference(poly, delta, ux, uy, c, valley, exact_area)
        assert ok, (k, info)
        mid = r.dupin[k]
        eps = 4 * _U * (size + abs(c) + abs(x0) + abs(y0))
        exact, half, (moved, snapped) = _exact_chord(loop, ux, uy, c, eps, EPS_DIST)
        two_pieces = _valley_allowance(loop, valley, ux, uy) > 0
        if two_pieces:
            # a cap of two pieces: the chord of one piece or of the run
            # across the notch, on the line and within the exact chord
            assert abs(ux * mid.x + uy * mid.y - c) <= eps
            assert _distance(mid, exact) <= half + moved + 4 * _U * far
        else:
            assert _distance(mid, exact) <= moved + 4 * _U * far, (k, mid, exact)
        try:
            scan = geomgen.chord_midpoint_scan(poly.vertices, ux, uy, c)
        except GeometryError:
            assert half <= EPS_DIST, (k, half)
            continue
        if not two_pieces:
            gap = math.hypot(scan.x - mid.x, scan.y - mid.y)
            assert gap <= moved + snapped + EPS_DIST + 4 * _U * far, (k, scan, mid)
        if plain:
            plain = _sutherland_hodgman(plain, ux, uy, c, _band(body, c))
            if len(plain) < 3:
                plain = []
            body.cut(ux, uy, c)
    assert r.convex_fb == _polygon_from_loop(plain)


def test_dupin_uses_the_offsets_and_midpoints_of_single_cuts():
    rng = random.Random(4242)
    hull = geomgen.random_convex_polygon(rng, 40)
    poly = Polygon([Point(x, y) for x, y in hull])
    r, offsets = _dupin_offsets(poly, 0.3, 45)
    assert len(offsets) == 45
    step = 2.0 * math.pi / 45
    for k, (c, mid) in enumerate(zip(offsets, r.dupin)):
        h = cut_halfplane(poly, k * step, 0.3)
        assert h.c == c
        scan = geomgen.chord_midpoint_scan(poly.vertices, h.nx, h.ny, h.c)
        assert math.hypot(scan.x - mid.x, scan.y - mid.y) <= EPS_DIST


def test_dupin_equals_the_reference_where_cuts_miss_the_body():
    # on the square 19 of 720 cuts at delta 0.1 and 39 of 360 at delta 0.45
    # miss the body the earlier cuts left; a bench-like 64-gon at 360
    # directions.  The reference bisects to within 1e-9 * A: the midpoints
    # and body areas agree to that, and neither raises.  The dip is reflex
    # by less than EPS_AREA, so its direction 3 of 4 is not unimodal; the
    # solve there finds the cap of the run's hull, 1.4e-12 off the cap's
    # 3.1e-10, which moves that midpoint by 1.9e-9
    square = Polygon([Point(0, 0), Point(100, 0), Point(100, 100), Point(0, 100)])
    bench = Polygon([Point(500 + 400 * math.cos(a), 500 + 400 * math.sin(a))
                     for a in (2 * math.pi * (k + 0.3 * math.sin(7 * k)) / 64 for k in range(64))])
    dip = Polygon([Point(0, 0), Point(5e-4, 9e-7), Point(1e-3, 0), Point(5e-4, 4e-6)])
    for poly, delta, n_directions, tol in ((square, 0.1, 720, 1e-8), (square, 0.45, 360, 1e-8),
                                           (square, 0.5, 36, 1e-8), (bench, 0.1, 360, 1e-8),
                                           (dip, 0.2, 4, 1e-5)):
        r = dupin_floating_body(poly, delta, n_directions)
        ref = geomgen.dupin_floating_body_reference(poly, delta, n_directions)
        bb = polygon_bbox(poly)
        diam = math.hypot(bb.width, bb.height)
        for p, q in zip(r.dupin, ref.dupin):
            assert math.hypot(p.x - q.x, p.y - q.y) <= tol * diam
        body = polygon_area(r.convex_fb) if r.convex_fb else 0.0
        ref_body = polygon_area(ref.convex_fb) if ref.convex_fb else 0.0
        assert abs(body - ref_body) <= 1e-9 * polygon_area(poly)


def _bench_polygon(n):
    return Polygon([Point(*v) for v in geomgen.circle_polygon(random.Random(n), n)])


def _count_direction_products(monkeypatch) -> list:
    # every product with the direction's cosine or sine: the levels of the
    # polygon's vertices the sweep steps over and the body values it reads
    count = [0]

    class Counted(float):
        def __mul__(self, other):
            count[0] += 1
            return float.__mul__(self, other)

    cos, sin = math.cos, math.sin
    monkeypatch.setattr(math, "cos", lambda phi: Counted(cos(phi)))
    monkeypatch.setattr(math, "sin", lambda phi: Counted(sin(phi)))
    return count


def test_edge_steps_grow_linearly_with_n_plus_directions(monkeypatch):
    # the bisection read all n levels in every direction, 2n products each
    count = _count_direction_products(monkeypatch)
    for n in (256, 1024, 4096):
        poly = _bench_polygon(n)
        for n_directions in (360, 3600):
            count[0] = 0
            dupin_floating_body(poly, 0.1, n_directions)
            assert count[0] <= 40 * (n + n_directions), (n, n_directions, count[0])


def test_bench_cuts_evaluate_few_cap_areas(monkeypatch):
    # the bisection evaluated about 28 cap areas a direction; a pass of the
    # closed form evaluates the cap at both ends of its interval, and the
    # sweep takes about three passes a direction
    calls = _count_crossings(monkeypatch)
    r = dupin_floating_body(_bench_polygon(256), 0.1, 360)
    assert len(r.dupin) == 360
    assert calls[0] // 4 <= 8 * 360, calls[0] / 4 / 360


def test_body_work_grows_linearly_with_the_directions(monkeypatch):
    # the parent clipped the whole body, which grows with the directions too
    count = _count_direction_products(monkeypatch)
    square = Polygon([Point(0, 0), Point(100, 0), Point(100, 100), Point(0, 100)])
    counts = []
    for n_directions in (720, 2880):
        count[0] = 0
        dupin_floating_body(square, 0.1, n_directions)
        counts.append(count[0])
    assert counts[1] < 5 * counts[0], counts


def _band(body, c):
    # the values _Body counts as on the line: twice their rounding bound
    return 2.0 * (2.0**-49 * (body.bound + abs(c)) + 2.0**-1070)


def test_convex_certificate_rejects_double_winding_and_flat_corners():
    # every corner of the pentagram {5/2} turns surely left, but its edges
    # pass twice from the lower half to the upper half
    pentagon = [(math.cos(2 * math.pi * k / 5), math.sin(2 * math.pi * k / 5)) for k in range(5)]
    star = [pentagon[2 * k % 5] for k in range(5)]
    ring = star[-1:] + star + star[:1]
    assert floating_body._turns_left(ring) and floating_body._wraps(ring) == 2
    assert floating_body._Body(star).sure is False
    assert floating_body._Body(pentagon).sure is True
    collinear = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (2.0, 1.0)]
    assert floating_body._Body(collinear).sure is False
    # a cut along an edge to within rounding: both corners lie inside the
    # band that counts as on the line, so nothing is cut and the loop stays
    # certified (an exact-zero clip puts a crossing 3e-16 from the corner
    # it keeps, a corner too flat to certify)
    heptagon = [
        (0.9584191383148695, -0.32898039693253595), (0.7751125024326742, 0.537010428840251),
        (-0.4828591794320095, 0.9778742336701975), (-0.9659129459462261, 0.7225766660329022),
        (-0.9100504497545148, -0.6658923486510103), (-0.13817051747380396, -0.9622517357925829),
        (0.6039736652221314, -0.9265027823022388),
    ]
    body = floating_body._Body(heptagon)
    assert body.sure is True
    ux, uy, c = math.cos(1.2337152716917004), math.sin(1.2337152716917004), 0.7631455958669525
    band = _band(body, c)
    body.cut(ux, uy, c)
    assert body.loop == _sutherland_hodgman(heptagon, ux, uy, c, band) == heptagon
    assert body.sure is True
    assert len(_sutherland_hodgman(heptagon, ux, uy, c, 0.0)) == 8


def test_no_cut_needs_a_strict_local_maximum():
    # the bottom corner B of this pentagon is the minimum of u . p, but its
    # edges are so nearly level that the float values of both neighbours are
    # no larger: a climb that starts there stops there, far below the cut
    # line, although the far side of the pentagon lies beyond it
    pentagon = [(1000.396518352898, 1000.4378248382682), (999.4222499673511, 1000.6632158605468),
                (998.4479815818042, 1000.8886068828251), (997.9971995372472, 998.9400701117312),
                (999.945736308341, 998.4892880671742)]
    ux, uy, c = math.cos(4.485044613173243), math.sin(4.485044613173243), -1199.1753384006938
    levels = [ux * x + uy * y for x, y in pentagon]
    assert levels[0] <= levels[1] >= levels[2] and levels[1] < c < max(levels)
    body = floating_body._Body(pentagon)
    assert body.sure is True
    body.top = 1
    band = _band(body, c)
    body.cut(ux, uy, c)
    assert body.loop == _sutherland_hodgman(pentagon, ux, uy, c, band) != pentagon



@st.composite
def _body_cuts(draw):
    # a convex loop and cuts through its vertices exactly, just below and
    # above its top, through its middle and past it, from every direction
    n = draw(st.integers(3, 40))
    size = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    ox = draw(st.sampled_from([0.0, 5e5, -999000.0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    step = 2 * math.pi / n
    angles = [(k + rng.uniform(-0.4, 0.4)) * step for k in range(n)]
    loop = [(ox + size * math.cos(a), ox + size * math.sin(a)) for a in angles]
    cuts = draw(st.lists(st.tuples(st.floats(0.0, 2 * math.pi),
                                   st.sampled_from(["vertex", "below", "above", "inside"]),
                                   st.floats(0.0, 1.0)), min_size=1, max_size=30))
    return loop, cuts


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_body_cuts())
def test_body_cuts_equal_whole_loop_clips(case):
    loop, cuts = case
    body = floating_body._Body(loop)
    plain = list(loop)
    for phi, mode, f in cuts:
        ux, uy = math.cos(phi), math.sin(phi)
        levels = [ux * x + uy * y for x, y in plain]
        top = max(levels)
        if mode == "vertex":
            c = levels[int(f * len(levels)) % len(levels)]
        elif mode == "below":
            c = top - f * 1e-12 * (abs(top) + 1.0)
        elif mode == "above":
            c = top + f * 1e-12 * (abs(top) + 1.0)
        else:
            c = min(levels) + f * (top - min(levels))
        plain = _sutherland_hodgman(plain, ux, uy, c, _band(body, c))
        if len(plain) < 3:
            plain = []
        body.cut(ux, uy, c)
        assert body.loop == plain
        if not plain:
            break


