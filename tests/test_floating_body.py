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
from geoforge.core import EPS_AREA
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
