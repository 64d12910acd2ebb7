"""Onion decompositions against an independent peeling oracle."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import geomgen
import geoforge.onion as onion
from geoforge import GeometryError, Point, onion_decomposition
from geoforge.core import EPS_AREA, EPS_DIST, _OFF_LINE
from geoforge.onion import layers_to_lists


peel_oracle = geomgen.peel_oracle
hull_area = geomgen.hull_area


def test_grid_three_by_three():
    pts = [Point(x, y) for x in (0, 1, 2) for y in (0, 1, 2)]
    layers = layers_to_lists(onion_decomposition(pts))
    assert [len(l) for l in layers] == [8, 1]
    assert layers[1] == [[1.0, 1.0]]
    assert layers[0][0] == [0.0, 0.0]
    assert layers[0][1] == [1.0, 0.0]  # edge-interior point right after the corner


def test_single_point_and_two_points():
    assert layers_to_lists(onion_decomposition([Point(5, 5)])) == [[[5.0, 5.0]]]
    layers = layers_to_lists(onion_decomposition([Point(3, 1), Point(1, 1)]))
    assert layers == [[[1.0, 1.0], [3.0, 1.0]]]


def test_collinear_set_is_one_layer_in_line_order():
    pts = [Point(i, 2 * i) for i in (3, 0, 2, 1)]
    layers = layers_to_lists(onion_decomposition(pts))
    assert layers == [[[0.0, 0.0], [1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]]
    rng = random.Random(7310)
    for line in ([(i, -3 * i) for i in range(-9, 11)], [(4, i) for i in range(15)]):
        shuffled = line[:]
        rng.shuffle(shuffled)
        layers = layers_to_lists(onion_decomposition([Point(*p) for p in shuffled]))
        assert layers == [[[float(x), float(y)] for x, y in sorted(line)]]


def test_collinear_layer_breaks_projection_ties_by_input_order():
    # (0.5, +-6e-10) project to the same spot on the segment (0,0)-(1,0)
    for mid in ([(0.5, 6e-10), (0.5, -6e-10)], [(0.5, -6e-10), (0.5, 6e-10)]):
        pts = [Point(1, 0), Point(*mid[0]), Point(0, 0), Point(*mid[1])]
        layers = layers_to_lists(onion_decomposition(pts))
        assert layers == [[[0.0, 0.0], list(mid[0]), list(mid[1]), [1.0, 0.0]]]


def test_near_collinear_membership_follows_the_distance_epsilon():
    # 9e-10 inside the long bottom edge is on it (distance <= EPS_DIST) even
    # though its area determinant, about 9e-7, is far above EPS_AREA;
    # 1.1e-9 inside is not, and waits for the next layer
    pts = [Point(0, 0), Point(1000, 0), Point(500, 1000),
           Point(400, 9e-10), Point(600, 1.1e-9)]
    layers = layers_to_lists(onion_decomposition(pts))
    assert layers == [
        [[0.0, 0.0], [400.0, 9e-10], [1000.0, 0.0], [500.0, 1000.0]],
        [[600.0, 1.1e-9]],
    ]


def test_edge_interior_points_follow_distance_from_the_edge_start():
    corners = [(0, 0), (10, 0), (10, 10), (0, 10)]
    interior = [(7, 0), (2, 0), (8, 0), (1, 0), (5, 0), (10, 6), (10, 3),
                (4, 10), (9, 10), (0, 2), (0, 7)]
    walk = [(0, 0), (1, 0), (2, 0), (5, 0), (7, 0), (8, 0), (10, 0),
            (10, 3), (10, 6), (10, 10), (9, 10), (4, 10), (0, 10), (0, 7), (0, 2)]
    rng = random.Random(2024)
    for _ in range(5):
        pts = corners + interior
        rng.shuffle(pts)
        layers = layers_to_lists(onion_decomposition([Point(*p) for p in pts]))
        assert layers == [[[float(x), float(y)] for x, y in walk]]


def test_edge_interior_distance_ties_keep_input_order():
    # (0.5, +-6e-10) are equally far from the corner (0, 0), both on its edge
    for mid in ([(0.5, 6e-10), (0.5, -6e-10)], [(0.5, -6e-10), (0.5, 6e-10)]):
        pts = [Point(1, 0), Point(*mid[0]), Point(0.5, 0.5), Point(0, 0), Point(*mid[1])]
        layers = layers_to_lists(onion_decomposition(pts))
        assert layers == [[[0.0, 0.0], list(mid[0]), list(mid[1]), [1.0, 0.0], [0.5, 0.5]]]


def test_errors():
    with pytest.raises(GeometryError):
        onion_decomposition([])
    with pytest.raises(GeometryError):
        onion_decomposition([Point(1, 1), Point(1, 1)])


def test_matches_peeling_oracle():
    rng = random.Random(411811)
    for _ in range(30):
        n = rng.randint(1, 150)
        raw = list(dict.fromkeys(geomgen.random_points(rng, n)))
        d = onion_decomposition([Point(x, y) for x, y in raw])
        got = [set((p.x, p.y) for p in layer) for layer in d.layers]
        want = peel_oracle(raw)
        assert got == want


def test_layer_walk_starts_lex_min_and_runs_ccw():
    rng = random.Random(99120)
    for _ in range(20):
        raw = list(dict.fromkeys(geomgen.random_points(rng, 40)))
        d = onion_decomposition([Point(x, y) for x, y in raw])
        for layer in d.layers:
            coords = [(p.x, p.y) for p in layer]
            assert min(coords) == coords[0]
            if len(coords) >= 3:
                total = 0.0
                for i in range(len(coords)):
                    x0, y0 = coords[i]
                    x1, y1 = coords[(i + 1) % len(coords)]
                    total += x0 * y1 - x1 * y0
                assert total > 0


def test_layer_hull_areas_strictly_decrease():
    rng = random.Random(55210)
    for _ in range(20):
        raw = list(dict.fromkeys(geomgen.random_points(rng, 120)))
        d = onion_decomposition([Point(x, y) for x, y in raw])
        areas = [hull_area([(p.x, p.y) for p in layer]) for layer in d.layers]
        for outer, inner in zip(areas, areas[1:]):
            assert inner < outer
        sizes = sum(len(layer) for layer in d.layers)
        assert sizes == len(raw)


def test_point_near_two_edges_joins_the_first_in_walk_order():
    # in this sliver, (500, 7.5e-10) is within EPS_DIST of the bottom edge
    # and of the long edge back to (0, 0); it is listed once, on the bottom
    pts = [Point(1000, 3e-9), Point(500, 7.5e-10), Point(1000, 0), Point(0, 0)]
    layers = layers_to_lists(onion_decomposition(pts))
    assert layers == [[[0.0, 0.0], [500.0, 7.5e-10], [1000.0, 0.0], [1000.0, 3e-9]]]


def _turn(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                min_size=1, max_size=30, unique=True))
def test_small_integer_sets_match_the_oracle_and_walk_ccw(raw):
    # on a small integer lattice every collinearity is exact, so the
    # epsilon rules have nothing to round and the oracle's sets are exact
    d = onion_decomposition([Point(x, y) for x, y in raw])
    assert [set((p.x, p.y) for p in layer) for layer in d.layers] == peel_oracle(raw)
    for layer in d.layers:
        coords = [(p.x, p.y) for p in layer]
        assert coords[0] == min(coords)
        n = len(coords)
        if n < 3:
            continue
        if all(_turn(coords[0], coords[1], c) == 0 for c in coords):
            assert coords == sorted(coords)  # a collinear layer in line order
            continue
        for i in range(n):
            a, b, c = coords[i - 1], coords[i], coords[(i + 1) % n]
            turn = _turn(a, b, c)
            forward = (b[0] - a[0]) * (c[0] - b[0]) + (b[1] - a[1]) * (c[1] - b[1])
            assert turn > 0 or (turn == 0 and forward > 0)


def _peel(decompose, pts):
    try:
        return decompose(pts)
    except GeometryError as e:
        return str(e)


@st.composite
def _near_hull_sets(draw):
    """Corners at +-1e6 and points 0.5-20 EPS_DIST off the edges between them.

    An axis-aligned square gives exact distance ties: a point and its mirror
    image across an edge are equally far from the edge's start.
    """
    if draw(st.booleans()):
        r = draw(st.sampled_from((1e6, 999000.0)))
        corners = [(-r, -r), (r, -r), (r, r), (-r, r)]
    else:
        turns = draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=6, unique=True))
        corners = [(1e6 * math.cos(2 * math.pi * a), 1e6 * math.sin(2 * math.pi * a))
                   for a in sorted(turns)]
    raw = list(corners)
    for _ in range(draw(st.integers(1, 12))):
        k = draw(st.integers(0, len(corners) - 1))
        (ax, ay), (bx, by) = corners[k], corners[(k + 1) % len(corners)]
        t = draw(st.sampled_from((0.25, 0.5)) | st.floats(0.0, 1.0))
        off = draw(st.floats(0.5, 20.0)) * EPS_DIST
        d = math.hypot(bx - ax, by - ay)
        x, y = ax + t * (bx - ax), ay + t * (by - ay)
        nx, ny = -(by - ay) / d * off, (bx - ax) / d * off
        sides = draw(st.sampled_from(((1,), (-1,), (1, -1))))
        raw += [(x + side * nx, y + side * ny) for side in sides]
    raw += draw(st.lists(st.tuples(st.floats(-5e5, 5e5), st.floats(-5e5, 5e5)), max_size=4))
    pts = [Point(x, y) for x, y in raw if max(abs(x), abs(y)) <= 1e6]
    return draw(st.permutations(pts))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_near_hull_sets())
def test_certified_peel_matches_the_distance_scan(pts):
    # every point the certificate drops must be one the distance test
    # rejects, so layers, their order and the duplicate errors agree
    assert _peel(onion_decomposition, pts) == _peel(geomgen.onion_reference, pts)


def test_uniform_peels_make_few_distance_calls(monkeypatch):
    # a distance test of every slab point makes 119,212 calls here
    calls = [0]
    point_segment_distance = onion.point_segment_distance

    def counted(p, a, b):
        calls[0] += 1
        return point_segment_distance(p, a, b)

    monkeypatch.setattr(onion, "point_segment_distance", counted)
    rng = random.Random(5)
    for _ in range(3):
        pts = [Point(rng.random(), rng.random()) for _ in range(1000)]
        assert onion_decomposition(pts) == geomgen.onion_reference(pts)
    assert calls[0] <= 100, calls[0]


def _family_set(family: str, seed: int, n: int) -> list:
    """About n distinct Points of one family, from random.Random(seed).

    Most sets of every family but "tight" span far more than onion._DEEP,
    so the column filter leaves points out of most of their layers; "tight"
    is 1e-3 wide, so nothing is left out, though a margin of a few
    _OFF_LINE would leave points out there.
    """
    rng = random.Random(seed)
    ox, oy = rng.choice([(0.0, 0.0), (-9e5, 9e5), (3e5, -7e5)])
    raw = []
    if family == "lattice":
        step = rng.choice([1.0, 7.0, 25.0, 0.5])
        k = max(2, math.isqrt(n))
        raw = [(ox + i * step, oy + j * step) for i in range(k) for j in range(k)
               if rng.random() < 0.9]
    elif family == "collinear":
        for _ in range(rng.randint(2, 6)):
            ax, ay = ox + rng.uniform(0, 1000), oy + rng.uniform(0, 1000)
            dx, dy = rng.choice([(1, 0), (0, 1), (1, 1), (3, -2), (rng.random(), rng.random())])
            step = rng.uniform(1, 40)
            count = rng.randint(3, n // 4)
            raw += [(ax + i * step * dx, ay + i * step * dy) for i in range(count)]
        raw += [(ox + rng.uniform(0, 1000), oy + rng.uniform(0, 1000)) for _ in range(n // 2)]
    elif family == "turns":
        # corners on a circle; points whose turn with an edge is a few EPS_AREA
        m = rng.randint(3, 9)
        r = rng.uniform(100, 5000)
        corners = [(ox + r * math.cos(a), oy + r * math.sin(a))
                   for a in sorted(rng.uniform(0, 2 * math.pi) for _ in range(m))]
        raw = list(corners)
        for k in range(m):
            (ax, ay), (bx, by) = corners[k], corners[(k + 1) % m]
            length = math.hypot(bx - ax, by - ay)
            for _ in range(n // (2 * m)):
                t = rng.random()
                off = rng.uniform(-5, 5) * EPS_AREA / length
                raw.append((ax + t * (bx - ax) - off * (by - ay) / length,
                            ay + t * (by - ay) + off * (bx - ax) / length))
        raw += [(ox + rng.uniform(-r, r) * 0.7, oy + rng.uniform(-r, r) * 0.7)
                for _ in range(n // 2)]
    elif family == "clusters":
        for _ in range(rng.randint(1, 5)):
            cx, cy = ox + rng.uniform(0, 2000), oy + rng.uniform(0, 2000)
            sigma = rng.choice([1.0, 30.0, 300.0, 1e-4])
            raw += [(cx + rng.gauss(0, sigma), cy + rng.gauss(0, sigma)) for _ in range(n // 3)]
    elif family == "uniform":
        side = rng.choice([50.0, 1000.0, 1e5])
        raw = [(ox + rng.uniform(0, side), oy + rng.uniform(0, side)) for _ in range(n)]
    else:  # tight
        raw = [(1e6 - rng.uniform(0, 1e-3), -1e6 + rng.uniform(0, 1e-3)) for _ in range(n)]
    return [Point(x, y) for x, y in dict.fromkeys(raw) if max(abs(x), abs(y)) <= 1e6]


FAMILIES = ("lattice", "collinear", "turns", "clusters", "uniform", "tight")


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32), n=st.sampled_from((20, 40, 100, 250, 600)))
def test_filtered_peel_matches_the_reference(family, seed, n):
    # sizes below and above 4 columns of w = max(8, isqrt(n)) points
    pts = _family_set(family, seed, n)
    assert _peel(onion_decomposition, pts) == _peel(geomgen.onion_reference, pts)


def _candidates_and_remaining(pts):
    """Points that reach _boundary_layer, and the points that remain, summed
    over the layers of one peel."""
    seen = []
    boundary_layer = onion._boundary_layer

    def counted(order, points):
        seen.append(len(order))
        return boundary_layer(order, points)

    onion._boundary_layer = counted
    try:
        d = onion_decomposition(pts)
    finally:
        onion._boundary_layer = boundary_layer
    remaining = len(pts)
    total = 0
    for layer in d.layers:
        total += remaining
        remaining -= len(layer)
    return sum(seen), total


@pytest.mark.parametrize("family", FAMILIES[:-1])
def test_the_filter_leaves_points_out_of_each_wide_family(family):
    # so the equality test above runs the filter, not only its fallback
    counts = [_candidates_and_remaining(_family_set(family, seed, 600)) for seed in range(4)]
    reached = sum(r for r, _ in counts)
    remaining = sum(m for _, m in counts)
    assert reached < 0.9 * remaining, counts


def test_a_margin_of_a_few_off_line_would_change_tight_clusters(monkeypatch):
    # the chain's EPS_AREA test blurs a line by up to EPS_AREA / EPS_DIST = 1
    # unit about an edge EPS_DIST long; with a margin of twice _OFF_LINE,
    # points deep in a 1e-3-wide cluster can sit in such a band
    sets = [_family_set("tight", seed, 250) for seed in range(12)]
    assert all(onion_decomposition(p) == geomgen.onion_reference(p) for p in sets)
    monkeypatch.setattr(onion, "_DEEP", 2.0 * _OFF_LINE)
    assert any(onion_decomposition(p) != geomgen.onion_reference(p) for p in sets)


def test_uniform_peels_read_few_points_per_layer(monkeypatch):
    # the points that reach _boundary_layer, plus the points the column
    # scans read (a scan from a column's end reads its candidates there and
    # the point that stops it), grow by less than 2.5 per doubling; a peel
    # that reads every remaining point for every layer grows by about 3.1,
    # as the number of layers grows as n**(2/3)
    reads = [0]
    shell = getattr(onion, "_shell", None)

    def counted_shell(cols):
        cand, cuts = shell(cols)
        for (col, _, _), (i, j) in zip(cols, cuts):
            n = len(col)
            if (i, j) != (n, n):  # a column that gives all its points reads none
                reads[0] += min(i + 1, n) + n - j + (j > i)
        return cand, cuts

    # a peel without column scans reads only what reaches _boundary_layer
    monkeypatch.setattr(onion, "_shell", counted_shell, raising=False)
    counts = []
    for n in (4000, 8000, 16000):
        rng = random.Random(n)
        pts = [Point(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(n)]
        reads[0] = 0
        reached, _ = _candidates_and_remaining(pts)
        counts.append(reached + reads[0])
    for small, large in zip(counts, counts[1:]):
        assert large < 2.5 * small, counts
