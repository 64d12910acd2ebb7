"""Floating bodies of convex polygons: cut offsets, midpoints, envelopes."""

from __future__ import annotations

import math
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import geomgen
from geoforge import (
    AreaFraction,
    GeometryError,
    Point,
    PointLocation,
    Polygon,
    chord_midpoint,
    clip_halfplane,
    cut_halfplane,
    dupin_floating_body,
    point_in_polygon,
    polygon_area,
    polygon_bbox,
    polygon_is_convex,
)
from geoforge import floating_body
from geoforge.core import EPS_AREA, EPS_DIST, Halfplane, _sutherland_hodgman
from geoforge.floating_body import result_to_dict
from geoforge.jsontext import dumps
from geoforge.scene import parse_scene

TESTS = Path(__file__).resolve().parent

UNIT_SQUARE = Polygon([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)])


def test_area_fraction_validation():
    assert AreaFraction(0.5).delta == 0.5
    for bad in (0.0, -0.1, 0.6, 1.0, math.nan):
        with pytest.raises(GeometryError):
            AreaFraction(bad)


def test_square_bottom_cut_is_analytic():
    h = cut_halfplane(UNIT_SQUARE, 3 * math.pi / 2, AreaFraction(0.1))
    # normal (0,-1): the removed cap {y < 0.1} has area exactly 0.1
    assert h.nx == pytest.approx(0.0, abs=1e-12)
    assert h.ny == pytest.approx(-1.0, abs=1e-12)
    assert h.c == pytest.approx(-0.1, abs=1e-9)
    mid = chord_midpoint(UNIT_SQUARE, h)
    assert (mid.x, mid.y) == (pytest.approx(0.5, abs=1e-9), pytest.approx(0.1, abs=1e-9))


def test_square_corner_cut_is_analytic():
    # normal at 225 degrees cuts the corner at the origin; the removed
    # triangle is isoceles with legs L, area L^2/2 = delta
    delta = 0.125
    h = cut_halfplane(UNIT_SQUARE, 5 * math.pi / 4, AreaFraction(delta))
    length = math.sqrt(2 * delta)
    # cap {(-x - y)/sqrt(2) >= c}: the cut line passes (L, 0) and (0, L)
    want_c = -length / math.sqrt(2)
    assert h.c == pytest.approx(want_c, abs=1e-9)
    mid = chord_midpoint(UNIT_SQUARE, h)
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
                h = cut_halfplane(poly, phi, AreaFraction(delta))
                kept = clip_halfplane(poly, h)
                cap = area - (polygon_area(kept) if kept else 0.0)
                assert cap == pytest.approx(delta * area, abs=1e-8 * area)


def test_fixture_rectangle_at_quarter_matches_its_golden():
    # the CLI default of 720 directions on the floating-body fixture; the
    # body clip counts only exact zeros as on the line, and an EPS_DIST
    # band there skips cuts that graze a vertex and leaves 316 vertices
    scene = parse_scene((TESTS / "fixtures" / "floating-body.json").read_text())
    r = dupin_floating_body(scene.polygons[0], AreaFraction(0.25), 720)
    assert len(r.convex_fb) == 320
    got = dumps(result_to_dict(r)) + "\n"
    assert got == (TESTS / "golden" / "floating-body-delta-0.25.json").read_text()


def test_dupin_square_passes_through_known_point():
    r = dupin_floating_body(UNIT_SQUARE, AreaFraction(0.1), n_directions=360)
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
        r = dupin_floating_body(poly, AreaFraction(0.5), n_directions=120)
        worst = max(math.hypot(p.x - center[0], p.y - center[1]) for p in r.dupin)
        assert worst < 1e-6
        assert r.convex_fb is None or polygon_area(r.convex_fb) < 1e-9


def test_convex_bodies_nest():
    r10 = dupin_floating_body(UNIT_SQUARE, AreaFraction(0.1), n_directions=360)
    r25 = dupin_floating_body(UNIT_SQUARE, AreaFraction(0.25), n_directions=360)
    for v in r25.convex_fb.vertices:
        assert point_in_polygon(v, r10.convex_fb) in (
            PointLocation.INSIDE,
            PointLocation.BOUNDARY,
        )


def test_thin_triangle_dupin_is_not_convex():
    thin = Polygon([Point(0, 0), Point(10, 0), Point(0, 1)])
    r = dupin_floating_body(thin, AreaFraction(0.45), n_directions=360)
    assert r.is_dupin_convex is False


def test_dupin_points_lie_in_the_polygon():
    rng = random.Random(31777)
    for _ in range(5):
        hull = geomgen.random_convex_polygon(rng, 15)
        poly = Polygon([Point(x, y) for x, y in hull])
        r = dupin_floating_body(poly, AreaFraction(0.2), n_directions=90)
        for p in r.dupin:
            assert point_in_polygon(p, poly) in (
                PointLocation.INSIDE,
                PointLocation.BOUNDARY,
            )


def test_quarter_turn_equivariance_on_the_square():
    r = dupin_floating_body(UNIT_SQUARE, AreaFraction(0.15), n_directions=360)
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
        dupin_floating_body(l_shape, AreaFraction(0.1))
    with pytest.raises(GeometryError):
        cut_halfplane(l_shape, 0.0, AreaFraction(0.1))


def test_chord_midpoint_requires_a_cut():
    h_missing = cut_halfplane(UNIT_SQUARE, 0.0, AreaFraction(0.1))
    with pytest.raises(GeometryError):
        chord_midpoint(UNIT_SQUARE, type(h_missing)(1.0, 0.0, 5.0))


def test_result_dict_shape():
    r = dupin_floating_body(UNIT_SQUARE, AreaFraction(0.5), n_directions=8)
    d = result_to_dict(r)
    assert d["delta"] == 0.5
    assert len(d["dupin"]) == 8
    assert d["convex_fb"] is None
    assert d["is_dupin_convex"] is True


def _reference_offset(poly, phi, delta):
    loop = [(v.x, v.y) for v in poly.vertices]
    area = polygon_area(poly)
    bb = polygon_bbox(poly)
    diam = math.hypot(bb.width, bb.height)
    return geomgen.cut_offset_reference(
        loop, math.cos(phi), math.sin(phi), delta * area, area, diam
    )


@st.composite
def _cut_cases(draw):
    # convex polygons of every shape the fast cap area must get right, and
    # directions that include the axis ties and a reflex edge's normal
    kind = draw(st.sampled_from(["ngon", "rectangle", "collinear", "reflex"]))
    size = draw(st.sampled_from([1e-3, 0.37, 1.0, 52.5, 1e3]))
    ox = draw(st.sampled_from([0.0, 5e5, 999000.0, -999000.0]))
    oy = draw(st.sampled_from([0.0, 5e5, 999000.0, -999000.0]))
    phis = [k * math.pi / 2 for k in range(4)]
    phis += draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=1, max_size=3))
    if kind == "rectangle":
        aspect = draw(st.sampled_from([0.1, 1.0, 3.0]))
        loop = [(ox, oy), (ox + size, oy), (ox + size, oy + aspect * size), (ox, oy + aspect * size)]
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
            # EPS_AREA: the projections onto that edge's normal are not unimodal
            i = rng.randrange(n)
            (x0, y0), (x1, y1) = loop[i], loop[(i + 1) % n]
            length = math.hypot(x1 - x0, y1 - y0)
            push = 0.5 * EPS_AREA / length
            nx, ny = -(y1 - y0) / length, (x1 - x0) / length
            loop.insert(i + 1, ((x0 + x1) / 2 + push * nx, (y0 + y1) / 2 + push * ny))
            phis.append(math.atan2(-ny, -nx))
    try:
        poly = Polygon([Point(x, y) for x, y in loop])
    except GeometryError:
        assume(False)
    assume(polygon_is_convex(poly))
    delta = draw(st.sampled_from([1e-6, 0.1, 0.25, 0.45, 0.5]))
    return poly, delta, phis


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(_cut_cases())
def test_cut_offsets_equal_the_clip_every_step_reference(case):
    poly, delta, phis = case
    for phi in phis:
        assert cut_halfplane(poly, phi, delta).c == _reference_offset(poly, phi, delta)


def _count_kernel_calls(monkeypatch) -> list:
    calls = []
    kernel = floating_body._cap_area

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(floating_body, "_cap_area", counted)
    return calls


def test_fast_areas_settle_the_steps_and_the_kernel_the_rest(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    n = 64
    ngon = Polygon(
        [Point(100 * math.cos(0.1 + 2 * math.pi * k / n), 100 * math.sin(0.1 + 2 * math.pi * k / n))
         for k in range(n)]
    )
    for k in range(36):
        phi = 2 * math.pi * k / 36
        assert cut_halfplane(ngon, phi, 0.1).c == _reference_offset(ngon, phi, 0.1)
    # about 28 steps a direction, nearly all settled without a clip
    assert len(calls) <= 36

    # a vertex reflex by 9e-10 < EPS_AREA: below the bottom edge the
    # projections dip, and at delta 0.2 the cut passes through the dip,
    # where the cap is two pieces; the whole direction goes to the kernel
    dip = Polygon([Point(0, 0), Point(5e-4, 9e-7), Point(1e-3, 0), Point(5e-4, 4e-6)])
    assert polygon_is_convex(dip)
    del calls[:]
    h = cut_halfplane(dip, 1.5 * math.pi, 0.2)
    assert h.c == _reference_offset(dip, 1.5 * math.pi, 0.2)
    assert -9e-7 < h.c < 0.0
    assert len(calls) >= 10

    # far from the origin the bound is too wide to settle anything
    far = Polygon([Point(999000, -999000), Point(999001, -999000), Point(999001, -998999),
                   Point(999000, -998999)])
    del calls[:]
    assert cut_halfplane(far, 0.3, 0.1).c == _reference_offset(far, 0.3, 0.1)
    assert len(calls) >= 20


def test_dupin_uses_the_offsets_and_midpoints_of_single_cuts(monkeypatch):
    offsets = []
    solve = floating_body._cut_offset

    def recorded(*args):
        offsets.append(solve(*args))
        return offsets[-1]

    monkeypatch.setattr(floating_body, "_cut_offset", recorded)
    rng = random.Random(4242)
    hull = geomgen.random_convex_polygon(rng, 40)
    poly = Polygon([Point(x, y) for x, y in hull])
    r = dupin_floating_body(poly, AreaFraction(0.3), n_directions=45)
    assert len(offsets) == 45
    step = 2.0 * math.pi / 45
    for k, (c, mid) in enumerate(zip(offsets, r.dupin)):
        h = cut_halfplane(poly, k * step, 0.3)
        assert h.c == c
        assert chord_midpoint(poly, h) == mid


def _result_or_error(build, poly, delta, n_directions):
    try:
        return dumps(result_to_dict(build(poly, delta, n_directions)))
    except GeometryError as exc:
        return "error: %s" % exc


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_cut_cases(), st.sampled_from([1, 2, 3, 12, 45]))
def test_dupin_equals_the_clip_every_direction_reference(case, n_directions):
    # offsets, midpoints and body vertices of the spliced sweep are those of
    # bisecting with the clipped cap, scanning every vertex for the chord
    # and clipping the whole body in every direction, bit for bit
    poly, delta, _ = case
    assert _result_or_error(dupin_floating_body, poly, delta, n_directions) == _result_or_error(
        geomgen.dupin_floating_body_reference, poly, delta, n_directions
    )


def test_dupin_equals_the_reference_where_cuts_miss_the_body():
    # on the square 19 of 720 cuts at delta 0.1 and 39 of 360 at delta 0.45
    # miss the body the earlier cuts left; a bench-like 64-gon at 360
    # directions
    square = Polygon([Point(0, 0), Point(100, 0), Point(100, 100), Point(0, 100)])
    bench = Polygon([Point(500 + 400 * math.cos(a), 500 + 400 * math.sin(a))
                     for a in (2 * math.pi * (k + 0.3 * math.sin(7 * k)) / 64 for k in range(64))])
    # and a dip reflex by less than EPS_AREA, whose direction 3 of 4 is not
    # unimodal: its offset and chord come from the kernel and the full scan
    dip = Polygon([Point(0, 0), Point(5e-4, 9e-7), Point(1e-3, 0), Point(5e-4, 4e-6)])
    for poly, delta, n_directions in ((square, 0.1, 720), (square, 0.45, 360),
                                      (square, 0.5, 36), (bench, 0.1, 360), (dip, 0.2, 4)):
        assert _result_or_error(dupin_floating_body, poly, delta, n_directions) == (
            _result_or_error(geomgen.dupin_floating_body_reference, poly, delta, n_directions)
        )


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
    # a cut nearly along an edge puts a crossing 3e-16 from the corner it
    # keeps: the splice leaves a corner too flat to certify, so the next
    # cut clips the whole body
    heptagon = [
        (0.9584191383148695, -0.32898039693253595), (0.7751125024326742, 0.537010428840251),
        (-0.4828591794320095, 0.9778742336701975), (-0.9659129459462261, 0.7225766660329022),
        (-0.9100504497545148, -0.6658923486510103), (-0.13817051747380396, -0.9622517357925829),
        (0.6039736652221314, -0.9265027823022388),
    ]
    body = floating_body._Body(heptagon)
    assert body.sure is True
    ux, uy, c = math.cos(1.2337152716917004), math.sin(1.2337152716917004), 0.7631455958669525
    body.cut(ux, uy, c)
    assert body.loop == _sutherland_hodgman(heptagon, ux, uy, c, 0.0)
    assert len(body.loop) == 8 and body.sure is False


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
    body.cut(ux, uy, c)
    assert body.loop == _sutherland_hodgman(pentagon, ux, uy, c, 0.0) != pentagon


def _exact_cap_area(loop, ux, uy, c):
    # the exact area of the part of the float polygon with ux*x + uy*y >= c
    from fractions import Fraction

    pts = [(Fraction(x), Fraction(y)) for x, y in loop]
    fux, fuy, fc = Fraction(ux), Fraction(uy), Fraction(c)
    vals = [fux * x + fuy * y - fc for x, y in pts]
    cap = []
    for s, e, vs, ve in zip(pts, pts[1:] + pts[:1], vals, vals[1:] + vals[:1]):
        if vs >= 0:
            cap.append(s)
        if (vs > 0 > ve) or (vs < 0 < ve):
            t = vs / (vs - ve)
            cap.append((s[0] + t * (e[0] - s[0]), s[1] + t * (e[1] - s[1])))
    total = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(cap, cap[1:] + cap[:1]))
    return abs(total) / 2


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_cut_cases(), st.integers(0, 2**32 - 1))
def test_kernel_area_stays_within_the_proven_budget(case, seed):
    # _bracket's proof: |K - A| <= _KERNEL_ERR * err for the kernel's area K
    # and the exact area A, and |F - K| < err / 2 for the fast area F; the
    # offsets tried sit at vertex levels, a few ulps off them and at random
    poly, _, phis = case
    rng = random.Random(seed)
    loop = [(v.x, v.y) for v in poly.vertices]
    sums = floating_body._shoelace_sums(loop)
    err = sums[1]
    for phi in phis[:3]:
        ux, uy = math.cos(phi), math.sin(phi)
        view = floating_body._view(loop, ux, uy)
        proj, lo, hi, chains = view
        if chains is None:
            continue
        fast = floating_body._fast_cap(loop, sums, proj, chains)
        levels = [rng.uniform(lo, hi)]
        for p in rng.sample(proj, 2):
            levels += [p, math.nextafter(p, math.inf), math.nextafter(p, -math.inf)]
        for c in levels:
            if not lo < c < hi:
                continue
            kernel = floating_body._cap_area(loop, ux, uy, c)
            assert abs(fast(c)[0] - kernel) < err / 2
            exact = _exact_cap_area(loop, ux, uy, c)
            assert abs(kernel - exact) <= floating_body._KERNEL_ERR * err


def _bench_polygon(n):
    # the benchmark's convex jobs: jittered vertices on a radius-400 circle
    rng = random.Random(n)
    step = 2 * math.pi / n
    return Polygon([Point(round(500 + 400 * math.cos(a), 6), round(500 + 400 * math.sin(a), 6))
                    for a in ((k + rng.uniform(-0.3, 0.3)) * step for k in range(n))])


def test_bench_cuts_evaluate_few_cap_areas(monkeypatch):
    # the parent bisected every midpoint, about 28 areas a direction
    calls = _count_kernel_calls(monkeypatch)
    fast_cap = floating_body._fast_cap

    def counted_fast_cap(*args):
        cap = fast_cap(*args)
        if cap is None:
            return None

        def counted(c):
            calls.append(c)
            return cap(c)

        return counted

    monkeypatch.setattr(floating_body, "_fast_cap", counted_fast_cap)
    r = dupin_floating_body(_bench_polygon(256), 0.1, 360)
    assert len(r.dupin) == 360
    assert len(calls) <= 8 * 360, len(calls) / 360


def test_body_work_grows_linearly_with_the_directions(monkeypatch):
    # every product with the direction's cosine or sine: the polygon's
    # projections and the body vertices each direction evaluates; the
    # parent clipped the whole body, which grows with the directions too
    count = [0]

    class Counted(float):
        def __mul__(self, other):
            count[0] += 1
            return float.__mul__(self, other)

    cos, sin = math.cos, math.sin
    monkeypatch.setattr(math, "cos", lambda phi: Counted(cos(phi)))
    monkeypatch.setattr(math, "sin", lambda phi: Counted(sin(phi)))
    square = Polygon([Point(0, 0), Point(100, 0), Point(100, 100), Point(0, 100)])
    counts = []
    for n_directions in (720, 2880):
        count[0] = 0
        dupin_floating_body(square, 0.1, n_directions)
        counts.append(count[0])
    assert counts[1] < 5 * counts[0], counts


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
        plain = _sutherland_hodgman(plain, ux, uy, c, 0.0)
        if len(plain) < 3:
            plain = []
        body.cut(ux, uy, c)
        assert body.loop == plain
        if not plain:
            break


def _chords_agree(poly, ux, uy, c):
    loop = [(v.x, v.y) for v in poly.vertices]
    view = floating_body._view(loop, ux, uy)
    try:
        fast = floating_body._view_chord_midpoint(loop, view, ux, uy, c)
    except GeometryError as exc:
        fast = str(exc)
    try:
        plain = chord_midpoint(poly, Halfplane(ux, uy, c))
    except GeometryError as exc:
        plain = str(exc)
    return fast == plain


def test_chord_from_the_chains_equals_the_scan_at_its_edge_cases():
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    hexagon = [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]
    thin = [(0.0, 0.0), (1.0, -0.05), (1.0, 0.05)]
    triangle = [(0.0, 0.0), (4.0, 1.0), (1.0, 3.0)]
    ux, uy = math.cos(0.3), math.sin(0.3)
    cases = [
        # through two vertices, one on each chain
        (square, 1.0, 0.0, 1.0),
        (square, 1.0, 0.0, 0.0 + 1e-12),
        # a vertex within EPS_DIST of the line on each chain
        (hexagon, 0.0, 1.0, hexagon[1][1] - 0.5 * EPS_DIST),
        (hexagon, 0.0, 1.0, hexagon[1][1] + 0.9e-9),
        (hexagon, 0.0, 1.0, hexagon[1][1] - 1.5 * EPS_DIST),
        # two crossings that dedupe near the thin corner: no chord left
        (thin, 1.0, 0.0, 2e-9),
        (thin, 1.0, 0.0, 2e-8),
        # a triangle cut through its middle, near its ends and through a corner
        (triangle, ux, uy, 1.5),
        (triangle, ux, uy, ux * 4.0 + uy * 1.0),
        (triangle, ux, uy, 1e-10),
        (triangle, ux, uy, ux * 1.0 + uy * 3.0 - 0.3e-9),
    ]
    for loop, cx, cy, c in cases:
        poly = Polygon([Point(x, y) for x, y in loop])
        assert _chords_agree(poly, cx, cy, c), (loop, c)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_cut_cases(), st.integers(0, 2**32 - 1))
def test_chord_from_the_chains_equals_the_scan(case, seed):
    # the _cut_cases families, collinear and reflex among them, cut at their
    # offsets, through vertices and within a few EPS_DIST of vertices
    poly, delta, phis = case
    rng = random.Random(seed)
    for phi in phis:
        ux, uy = math.cos(phi), math.sin(phi)
        levels = [cut_halfplane(poly, phi, delta).c]
        for v in rng.sample(poly.vertices, min(3, len(poly))):
            p = ux * v.x + uy * v.y
            levels += [p] + [p + k * EPS_DIST for k in (-2.5, -1.0, -0.5, 0.5, 1.0, 2.5)]
        for c in levels:
            assert _chords_agree(poly, ux, uy, c), (phi, c)
