"""Whole-library acceptance checks, one test per criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to get one [PASS]/[FAIL]
line per criterion.  Two checks are expected to fail and are marked
xfail(strict=True):

* beta=2 against the lune oracle: the fixed-angle edge rule admits
  witnesses outside the lune (a point can see a pair at 30 degrees
  from almost twice the pair's distance), so the angle-based graph at
  beta=2 is a strict subgraph of the lune-based one.  The passing
  companion test pins down the actual relationship.
* theta branch continuity at 1e-6: theta(beta) has a square-root cusp
  at beta=1, so |theta(1-eps) - theta(1+eps)| = 2*sqrt(2*eps), which
  is about 8.9e-4 at eps=1e-7.  The model is verified exactly instead.
"""

from __future__ import annotations

import math
import random
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import geomgen
from geoforge import (
    BBox,
    GeometryError,
    Point,
    Polygon,
    Segment,
    beta_skeleton,
    build_point_quadtree,
    build_pr_quadtree,
    build_trapezoidal_map,
    clip_halfplane,
    cut_halfplane,
    dupin_floating_body,
    locate,
    onion_decomposition,
    point_in_polygon,
    polygon_area,
    sample_points,
    theta_of_beta,
    trapezoid_area,
    triangulate,
)
from geoforge.cli import main
from geoforge.core import PointLocation
from geoforge.fractals import sierpinski_carpet, sierpinski_triangle
from geoforge.jsontext import dumps
from geoforge.quadtree import parse_quadtree_array, quadtree_to_array
from geoforge.scene import Scene, parse_scene, serialize_scene
from geoforge.trapmap import Wall
from geoforge.triangulation import SampleRequest, triangle_areas

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"

UNIT_SQUARE = Polygon([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)])


# (a) beta-skeleton special cases ------------------------------------------

def test_a_beta_one_equals_gabriel_oracle_on_200_sets():
    rng = random.Random(1001)
    t0 = time.perf_counter()
    for _ in range(200):
        raw = geomgen.random_points(rng, rng.randint(2, 40))
        got = set(beta_skeleton([Point(x, y) for x, y in raw], 1.0).edges)
        assert got == geomgen.gabriel_oracle(raw)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\n[PASS] (a) beta=1 equals the Gabriel oracle on 200 sets ({elapsed:.1f}s)")


@pytest.mark.xfail(
    strict=True,
    reason="the fixed-angle rule at beta=2 admits witnesses outside the lune",
)
def test_a_beta_two_equals_lune_oracle_on_200_sets():
    rng = random.Random(1002)
    differing = 0
    for _ in range(200):
        raw = geomgen.random_points(rng, rng.randint(2, 40))
        got = set(beta_skeleton([Point(x, y) for x, y in raw], 2.0).edges)
        if got != geomgen.rng_lune_oracle(raw):
            differing += 1
    print(
        f"\n[FAIL] (a) beta=2 vs lune oracle: {differing}/200 sets differ "
        "(angle rule kills edges the lune keeps)"
    )
    assert differing == 0


def test_a_beta_two_is_a_subgraph_of_the_lune_graph_on_200_sets():
    rng = random.Random(1002)
    strict_somewhere = False
    for _ in range(200):
        raw = geomgen.random_points(rng, rng.randint(2, 40))
        got = set(beta_skeleton([Point(x, y) for x, y in raw], 2.0).edges)
        lune = geomgen.rng_lune_oracle(raw)
        assert got <= lune
        assert got == geomgen.angle_skeleton_oracle(raw, theta_of_beta(2.0))
        if got < lune:
            strict_somewhere = True
    assert strict_somewhere
    print(
        "\n[PASS] (a) beta=2 is a subgraph of the lune graph and matches the "
        "independent angle oracle on 200 sets"
    )


# (b) theta formula ---------------------------------------------------------

def test_b_theta_special_values():
    assert abs(theta_of_beta(1.0) - math.pi / 2) < 1e-12
    assert abs(theta_of_beta(2.0) - math.pi / 6) < 1e-12
    assert abs(theta_of_beta(0.5) - 5 * math.pi / 6) < 1e-12
    print("\n[PASS] (b) theta(1)=pi/2, theta(2)=pi/6, theta(0.5)=5pi/6 within 1e-12")


@pytest.mark.xfail(
    strict=True,
    reason="theta has a square-root cusp at beta=1: the gap is 2*sqrt(2*eps)",
)
def test_b_theta_branch_continuity_within_1e6_at_eps_1e7():
    eps = 1e-7
    gap = abs(theta_of_beta(1.0 - eps) - theta_of_beta(1.0 + eps))
    model = 2.0 * math.sqrt(2.0 * eps)
    print(
        f"\n[FAIL] (b) branch gap at eps=1e-7 is {gap:.6e} "
        f"(cusp model 2*sqrt(2*eps) = {model:.6e}), not < 1e-6"
    )
    assert gap < 1e-6


# (c) onion decomposition ---------------------------------------------------

def test_c_onion_layers_match_independent_peeling_on_100_sets():
    rng = random.Random(3001)
    t0 = time.perf_counter()
    for _ in range(100):
        n = rng.randint(1, 300)
        raw = geomgen.random_points(rng, n)
        d = onion_decomposition([Point(x, y) for x, y in raw])
        got = [set((p.x, p.y) for p in layer) for layer in d.layers]
        assert got == geomgen.peel_oracle(raw)
        assert sum(len(layer) for layer in d.layers) == n
        areas = [geomgen.hull_area([(p.x, p.y) for p in layer]) for layer in d.layers]
        for outer, inner in zip(areas, areas[1:]):
            assert inner < outer
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\n[PASS] (c) onion equals the peeling oracle on 100 sets ({elapsed:.1f}s)")


# (d) trapezoidal map -------------------------------------------------------

def _wall_y(m, bound, x):
    if bound is Wall.TOP:
        return m.bbox.ymax
    if bound is Wall.BOTTOM:
        return m.bbox.ymin
    seg = m.segments[bound]
    t = (x - seg.a.x) / (seg.b.x - seg.a.x)
    return seg.a.y + t * (seg.b.y - seg.a.y)


def test_d_trapezoidal_map_size_area_and_location_on_100_instances():
    rng = random.Random(4001)
    for _ in range(100):
        n = rng.randint(1, 25)
        segs = [
            Segment(Point(*a), Point(*b))
            for a, b in geomgen.random_noncrossing_segments(rng, n)
        ]
        m = build_trapezoidal_map(segs)
        assert len(m.trapezoids) <= 3 * n + 1
        box_area = m.bbox.area()
        total = sum(trapezoid_area(m, t) for t in m.trapezoids)
        assert abs(total - box_area) <= 1e-6 * box_area
        located = 0
        attempts = 0
        while located < 1000:
            attempts += 1
            assert attempts < 1100
            q = Point(
                rng.uniform(m.bbox.xmin, m.bbox.xmax),
                rng.uniform(m.bbox.ymin, m.bbox.ymax),
            )
            try:
                t = m.trapezoids[locate(m, q)]
            except GeometryError:
                continue  # measure-zero hit on a boundary feature
            located += 1
            assert t.left_x <= q.x <= t.right_x
            assert _wall_y(m, t.bottom, q.x) - 1e-9 <= q.y <= _wall_y(m, t.top, q.x) + 1e-9
    one = build_trapezoidal_map([Segment(Point(0, 0), Point(10, 2))])
    assert len(one.trapezoids) == 4
    print(
        "\n[PASS] (d) trapezoid count <= 3n+1, areas tile the box, 1000 locates "
        "per instance contained on 100 instances; one segment gives 4"
    )


# (e) quadtrees -------------------------------------------------------------

def _pr_leaves(tree):
    stack, leaves = [tree.root], []
    while stack:
        node = stack.pop()
        if node.children is None:
            leaves.append(node)
        else:
            stack.extend(node.children)
    return leaves


def test_e_quadtree_capacity_collection_and_round_trip_on_100_instances():
    rng = random.Random(5001)
    capacities = (1, 2, 4, 8)
    for i in range(100):
        n = rng.randint(1, 500)
        capacity = capacities[i % 4]
        seen = dict.fromkeys(geomgen.random_points(rng, n, dyadic_bits=10))
        raw = list(seen)
        pts = [Point(x, y) for x, y in raw]
        key = sorted(raw)

        pr = build_pr_quadtree(pts, region=BBox(0.0, 0.0, 1.0, 1.0), capacity=capacity)
        for leaf in _pr_leaves(pr):
            assert not leaf.overfull
            assert len(leaf.points) <= capacity
        assert sorted((p.x, p.y) for p in pr.points()) == key
        assert parse_quadtree_array(quadtree_to_array(pr)) == pr

        pq = build_point_quadtree(pts)
        assert sorted((p.x, p.y) for p in pq.points()) == key
        assert parse_quadtree_array(quadtree_to_array(pq)) == pq
    print(
        "\n[PASS] (e) PR capacity respected, collect-all matches the input, and "
        "dumps round-trip on 100 instances"
    )


# (f) floating bodies -------------------------------------------------------

def test_f_floating_body_caps_landmarks_nesting_and_nonconvex_witness():
    rng = random.Random(6001)
    deltas = (0.05, 0.1, 0.25, 0.45)
    for _ in range(50):
        poly = Polygon(
            [Point(x, y) for x, y in geomgen.random_convex_polygon(rng, rng.randint(6, 40))]
        )
        area = polygon_area(poly)
        for delta in deltas:
            for k in range(360):
                half = cut_halfplane(poly, 2.0 * math.pi * k / 360.0, delta)
                cap = clip_halfplane(poly, half.complement())
                cap_area = 0.0 if cap is None else polygon_area(cap)
                assert abs(cap_area - delta * area) <= 1e-8 * area

    r = dupin_floating_body(UNIT_SQUARE, 0.1, n_directions=360)
    assert min(math.hypot(p.x - 0.5, p.y - 0.1) for p in r.dupin) < 1e-6

    collapsed = dupin_floating_body(UNIT_SQUARE, 0.5, n_directions=360)
    assert all(math.hypot(p.x - 0.5, p.y - 0.5) < 1e-6 for p in collapsed.dupin)

    rng = random.Random(6002)
    shapes = [UNIT_SQUARE] + [
        Polygon([Point(x, y) for x, y in geomgen.random_convex_polygon(rng, 24)])
        for _ in range(5)
    ]
    for poly in shapes:
        outer = dupin_floating_body(poly, 0.1, n_directions=360).convex_fb
        inner = dupin_floating_body(poly, 0.25, n_directions=360).convex_fb
        assert outer is not None and inner is not None
        for v in inner.vertices:
            assert point_in_polygon(v, outer) is not PointLocation.OUTSIDE

    thin = Polygon([Point(0, 0), Point(10, 0), Point(0, 1)])
    assert dupin_floating_body(thin, 0.45, n_directions=360).is_dupin_convex is False
    print(
        "\n[PASS] (f) 72000 cap areas within 1e-8*A, square landmarks at "
        "(0.5,0.1) and the center, nesting holds, thin triangle is non-convex"
    )


# (g) triangulation and sampling -------------------------------------------

def test_g_triangulation_counts_and_sampling_distribution():
    rng = random.Random(7001)
    for _ in range(100):
        poly = Polygon(
            [Point(x, y) for x, y in geomgen.random_simple_polygon(rng, 30)]
        )
        tri = triangulate(poly)
        assert len(tri.triangles) == 28
        area = polygon_area(poly)
        assert abs(sum(triangle_areas(tri)) - area) <= 1e-9 * area

    tri = triangulate(UNIT_SQUARE)
    samples = sample_points(tri, SampleRequest(count=10000, seed=814))
    again = sample_points(tri, SampleRequest(count=10000, seed=814))
    assert dumps([[p.x, p.y] for p in samples]) == dumps([[p.x, p.y] for p in again])
    counts = {"nw": 0, "ne": 0, "sw": 0, "se": 0}
    for p in samples:
        assert point_in_polygon(p, UNIT_SQUARE) is not PointLocation.OUTSIDE
        counts[("n" if p.y >= 0.5 else "s") + ("e" if p.x >= 0.5 else "w")] += 1
    assert all(2350 <= c <= 2650 for c in counts.values()), counts
    print(
        f"\n[PASS] (g) 100 simple 30-gons give 28 triangles and exact areas; "
        f"10k square samples per quadrant {sorted(counts.values())} within 2500+-150"
    )


# (h) fractals ---------------------------------------------------------------

def test_h_fractal_counts_exact_and_areas_shrink_geometrically():
    seed_tri = Polygon([Point(0, 0), Point(1, 0), Point(0.5, math.sqrt(3.0) / 2.0)])
    base = polygon_area(seed_tri)
    for depth in range(9):
        out = sierpinski_triangle(seed_tri, depth)
        assert len(out.cells) == 3**depth
        expected = (3.0 / 4.0) ** depth * base
        total = sum(polygon_area(c) for c in out.cells)
        assert abs(total - expected) <= 1e-9 * expected
    for depth in range(6):
        out = sierpinski_carpet(BBox(0.0, 0.0, 1.0, 1.0), depth)
        assert len(out.cells) == 8**depth
        expected = (8.0 / 9.0) ** depth
        total = sum(polygon_area(c) for c in out.cells)
        assert abs(total - expected) <= 1e-9 * expected
    print("\n[PASS] (h) cell counts 3^d (d<=8) and 8^d (d<=5) exact, areas (3/4)^d and (8/9)^d")


# (i) documents --------------------------------------------------------------

# (golden and fixture name, subcommand, extra flags).  onion-grid is a
# random.Random(15).sample of 135 of the 225 points of a 15 x 15 grid with
# spacing 10: many collinear boundary points and eight layers.
# trapmap-chains exercises the trapezoidal map's tie rules: two polyline
# chains (one turning back in x), a 4-segment fan from one point, two
# endpoints 9e-10 apart in x that merge into one event, and segments whose
# left x equals another's right x.  pr-quadtree-overfull has no bbox, so
# it pins the default region, and its repeated point at capacity 1 makes a
# chain MAX_DEPTH levels deep that ends in an over-full leaf.
GOLDEN_RUNS = [
    ("quadtree", "quadtree", []),
    ("pr-quadtree", "pr-quadtree", ["--capacity", "2"]),
    ("pr-quadtree-overfull", "pr-quadtree", ["--capacity", "1"]),
    ("trapmap", "trapmap", []),
    ("trapmap-chains", "trapmap", []),
    ("onion", "onion", []),
    ("onion-grid", "onion", []),
    ("beta-skeleton", "beta-skeleton", ["--beta", "1"]),
    ("floating-body", "floating-body", ["--delta", "0.1", "--directions", "36"]),
    ("triangulate", "triangulate", []),
    ("sample", "sample", ["--count", "12", "--seed", "7"]),
    ("sierpinski-triangle", "sierpinski-triangle", ["--depth", "3"]),
    ("sierpinski-carpet", "sierpinski-carpet", ["--depth", "2"]),
]

IPE_TAGS = {"ipe", "page", "path", "use", "group"}


@pytest.mark.parametrize("fmt", ["json", "svg", "ipe"])
def test_i_golden_documents_per_subcommand(tmp_path, fmt):
    for name, sub, extra in GOLDEN_RUNS:
        out = tmp_path / (name + "." + fmt)
        code = main(
            [sub, "--input", str(FIXTURES / (name + ".json")),
             "--output", str(out), "--format", fmt] + extra
        )
        assert code == 0, name
        got = out.read_bytes()
        assert got == (GOLDEN / (name + "." + fmt)).read_bytes(), name
        if fmt == "ipe":
            tags = {el.tag for el in ET.fromstring(got.decode("utf-8")).iter()}
            assert tags <= IPE_TAGS, (name, tags)
    print(
        "\n[PASS] (i) all %d fixture runs' %s documents are byte-identical to their "
        "goldens (Ipe also inside the element whitelist)" % (len(GOLDEN_RUNS), fmt)
    )


def test_i_scene_round_trips_on_50_random_scenes():
    rng = random.Random(9001)
    for _ in range(50):
        points = tuple(
            Point(x, y)
            for x, y in geomgen.random_points(rng, rng.randint(0, 8), decimals=6)
        )
        segments = tuple(
            Segment(Point(*a), Point(*b))
            for a, b in zip(
                geomgen.random_points(rng, rng.randint(0, 4), decimals=6),
                geomgen.random_points(rng, 4, lo=2.0, hi=3.0, decimals=6),
            )
        )
        polygons = ()
        if rng.random() < 0.7:
            hull = geomgen.random_convex_polygon(rng, 12)
            polygons = (
                Polygon([Point(float("%.6f" % x), float("%.6f" % y)) for x, y in hull]),
            )
        bbox = BBox(-8.0, -8.0, 8.0, 8.0) if rng.random() < 0.5 else None
        scene = Scene(points=points, segments=segments, polygons=polygons, bbox=bbox)
        text = serialize_scene(scene)
        assert serialize_scene(parse_scene(text)) == text
    print("\n[PASS] (i) 50 random scenes round-trip byte-identically")
