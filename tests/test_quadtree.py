"""Point and PR quadtrees: structure, oracles, round-trips."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import geomgen
from geoforge import jsontext
from geoforge import (
    MAX_DEPTH,
    BBox,
    GeometryError,
    Point,
    build_point_quadtree,
    build_pr_quadtree,
    parse_quadtree_array,
    quadtree_to_array,
)
from geoforge.core import points_equal
from geoforge.quadtree import _pr_preorder, tree_to_dict


def test_point_tree_three_sites():
    t = build_point_quadtree([Point(5, 5), Point(2, 7), Point(8, 2)])
    assert (t.root.site.x, t.root.site.y) == (5, 5)
    assert (t.root.nw.site.x, t.root.nw.site.y) == (2, 7)
    assert (t.root.se.site.x, t.root.se.site.y) == (8, 2)
    assert t.root.ne is None and t.root.sw is None
    dump = quadtree_to_array(t)
    assert dump == (
        '{"kind":"point","root":{"site":[5,5],'
        '"nw":{"site":[2,7],"nw":null,"ne":null,"sw":null,"se":null},'
        '"ne":null,'
        '"sw":null,'
        '"se":{"site":[8,2],"nw":null,"ne":null,"sw":null,"se":null}}}'
    )


def test_point_tree_empty():
    t = build_point_quadtree([])
    assert t.root is None
    assert quadtree_to_array(t) == '{"kind":"point","root":null}'


def test_point_tree_tie_breaks_go_east_and_north():
    # equal x goes east; equal y goes north
    t = build_point_quadtree([Point(5, 5), Point(5, 7), Point(7, 5), Point(5, 3), Point(3, 5)])
    assert (t.root.ne.site.x, t.root.ne.site.y) == (5, 7)
    # (7,5): x >= 5 east, y >= 5 north -> NE of root; then y < 7 -> SE of (5,7)
    assert (t.root.ne.se.site.x, t.root.ne.se.site.y) == (7, 5)
    # (5,3): x >= 5 east, y < 5 south
    assert (t.root.se.site.x, t.root.se.site.y) == (5, 3)
    # (3,5): x < 5 west, y >= 5 north
    assert (t.root.nw.site.x, t.root.nw.site.y) == (3, 5)
    sites = {(p.x, p.y) for p in t.points()}
    assert sites == {(5, 5), (5, 7), (7, 5), (5, 3), (3, 5)}


def test_point_tree_path_replay_oracle():
    rng = random.Random(220364)
    for _ in range(50):
        n = rng.randint(1, 200)
        pts = [Point(x, y) for x, y in geomgen.random_points(rng, n)]
        t = build_point_quadtree(pts)
        collected = t.points()
        assert sorted((p.x, p.y) for p in collected) == sorted((p.x, p.y) for p in pts)
        for p in pts:
            node = t.root
            while not (node.site.x == p.x and node.site.y == p.y):
                sx, sy = node.site.x, node.site.y
                east = p.x >= sx
                north = p.y >= sy
                if east and north:
                    node = node.ne
                elif east:
                    node = node.se
                elif north:
                    node = node.nw
                else:
                    node = node.sw
                assert node is not None, "path replay fell off the tree"


def _tie_family(family, rng, n):
    """(x, y) tuples whose coordinates often equal another point's."""
    if family == "lattice":
        k = rng.randint(1, 6)
        return [(float(rng.randint(0, k)), float(rng.randint(0, k))) for _ in range(n)]
    if family == "zeros":
        values = (0.0, -0.0, 5e-324, -5e-324, 2e-9, -2e-9, 1.0, -1.0)
        return [(rng.choice(values), rng.choice(values)) for _ in range(n)]
    # near +/-1e6: steps of a unit, of 1e-3 and of a few ulps
    steps = (0.0, 1.0, 2.0, 1e-3, 2e-3, 2.0 ** -33, 2.0 ** -32)
    sx, sy = rng.choice((1.0, -1.0)), rng.choice((1.0, -1.0))
    return [(sx * (1e6 - rng.choice(steps)), sy * (1e6 - rng.choice(steps))) for _ in range(n)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["lattice", "zeros", "far"]), st.integers(0, 2**32), st.integers(1, 60))
def test_each_point_lies_where_the_rule_leads(family, seed, n):
    pts: list = []
    for x, y in _tie_family(family, random.Random(seed), n):
        p = Point(x, y)
        if not any(points_equal(p, q) for q in pts):
            pts.append(p)
    tree = build_point_quadtree(pts)
    index = {id(p): i for i, p in enumerate(pts)}
    for i, p in enumerate(pts):
        node = tree.root
        while node.site is not p:
            # every node on the way holds a point inserted before p
            assert index[id(node.site)] < i
            east, north = p.x >= node.site.x, p.y >= node.site.y
            node = (node.ne if east else node.nw) if north else (node.se if east else node.sw)
            assert node is not None, "path replay fell off the tree"
    assert len(tree.points()) == len(pts)


def test_point_tree_duplicate_site_rejected():
    with pytest.raises(GeometryError, match="duplicate point"):
        build_point_quadtree([Point(1, 1), Point(2, 2), Point(1, 1)])


def test_point_tree_points_come_in_preorder():
    # children in nw, ne, sw, se order after their parent, whatever the
    # insertion order; (20, 80) lies southeast of the northwest child
    order = [(50, 50), (90, 10), (10, 10), (90, 90), (10, 90), (20, 80)]
    tree = build_point_quadtree([Point(x, y) for x, y in order])
    assert [(p.x, p.y) for p in tree.points()] == [
        (50, 50), (10, 90), (20, 80), (90, 90), (10, 10), (90, 10)
    ]
    # the trees differ only where one has a leaf and the other has none
    assert tree != build_point_quadtree([Point(x, y) for x, y in order[:-1]])
    assert build_point_quadtree([Point(x, y) for x, y in order[:-1]]) != tree


def test_deep_point_tree_compares_and_lists_its_points():
    # a diagonal input makes one path 1500 levels deep
    pts = [Point(i, i) for i in range(1500)]
    tree = build_point_quadtree(pts)
    assert tree == build_point_quadtree(pts)
    assert tree != build_point_quadtree(pts[:-1] + [Point(1499, 1500)])
    assert [(p.x, p.y) for p in tree.points()] == [(p.x, p.y) for p in pts]
    assert tree_to_dict(tree)["root"]["ne"]["ne"]["site"] == [2.0, 2.0]


def test_pr_tree_four_corners_capacity_one():
    pts = [Point(0.25, 0.25), Point(0.75, 0.25), Point(0.25, 0.75), Point(0.75, 0.75)]
    t = build_pr_quadtree(pts, capacity=1, region=BBox(0, 0, 1, 1))
    assert t.root.children is not None
    for child in t.root.children:
        assert child.points is not None and len(child.points) == 1
    dump = quadtree_to_array(t)
    assert dump == (
        '{"kind":"pr","root":{"region":[0,0,1,1],"children":['
        '{"region":[0,0.5,0.5,1],"points":[[0.25,0.75]]},'
        '{"region":[0.5,0.5,1,1],"points":[[0.75,0.75]]},'
        '{"region":[0,0,0.5,0.5],"points":[[0.25,0.25]]},'
        '{"region":[0.5,0,1,0.5],"points":[[0.75,0.25]]}]}}'
    )


def test_pr_tree_capacity_respected_and_regions_nest():
    rng = random.Random(7151)
    for cap in (1, 2, 4, 8):
        n = rng.randint(1, 300)
        pts = [Point(x, y) for x, y in geomgen.random_points(rng, n)]
        t = build_pr_quadtree(pts, capacity=cap)
        assert not t.overfull

        def walk(node):
            if node.points is not None:
                assert len(node.points) <= cap
                for p in node.points:
                    assert node.region.contains(p)
                return list(node.points)
            got = []
            for child in node.children:
                assert node.region.xmin <= child.region.xmin
                assert child.region.xmax <= node.region.xmax
                assert node.region.ymin <= child.region.ymin
                assert child.region.ymax <= node.region.ymax
                got.extend(walk(child))
            return got

        collected = walk(t.root)
        assert sorted((p.x, p.y) for p in collected) == sorted((p.x, p.y) for p in pts)


def test_pr_tree_child_regions_tile_parent():
    t = build_pr_quadtree(
        [Point(0.1, 0.1), Point(0.9, 0.9)], capacity=1, region=BBox(0, 0, 1, 1)
    )
    kids = t.root.children
    assert sum(c.region.area() for c in kids) == pytest.approx(t.root.region.area())
    xs = sorted({c.region.xmin for c in kids} | {c.region.xmax for c in kids})
    ys = sorted({c.region.ymin for c in kids} | {c.region.ymax for c in kids})
    assert xs == [0, 0.5, 1] and ys == [0, 0.5, 1]


def test_pr_tree_default_region_pads_bounding_square():
    pts = [Point(0, 0), Point(10, 4)]
    t = build_pr_quadtree(pts, capacity=8)
    r = t.root.region
    assert r.width == pytest.approx(r.height)
    assert r.width == pytest.approx(11.0)
    for p in pts:
        assert r.contains(p)


def test_pr_tree_point_outside_region_rejected():
    with pytest.raises(GeometryError):
        build_pr_quadtree([Point(2, 2)], capacity=1, region=BBox(0, 0, 1, 1))


def test_pr_tree_bad_capacity_rejected():
    for cap in (0, -1, 1.5, True):
        with pytest.raises(GeometryError):
            build_pr_quadtree([Point(0.5, 0.5)], capacity=cap)


def test_pr_tree_overfull_at_depth_cap():
    base = 0.5
    step = 2.0 ** -(MAX_DEPTH + 4)
    pts = [Point(base, base), Point(base + step, base + step)]
    t = build_pr_quadtree(pts, capacity=1, region=BBox(0, 0, 1, 1))
    assert t.overfull

    def find_overfull(node):
        if node.points is not None:
            return node if node.overfull else None
        for child in node.children:
            hit = find_overfull(child)
            if hit is not None:
                return hit
        return None

    leaf = find_overfull(t.root)
    assert leaf is not None and len(leaf.points) == 2


def test_pr_tree_stays_overfull_where_the_center_rounds_onto_an_edge():
    # the default region of two points one ulp apart is a few ulps wide; a
    # split whose center is not strictly inside would make an empty child
    a, b = Point(0.5, 0.5), Point(math.nextafter(0.5, 1.0), 0.5)
    for region in (None, BBox(0.5, 0.5, math.nextafter(0.5, 1.0), 1.0)):
        t = build_pr_quadtree([a, b], region=region, capacity=1)
        assert t.overfull
        leaves = _leaves(t.root)
        assert [len(leaf.points) for leaf, _ in leaves if leaf.overfull] == [2]
        assert all(depth < MAX_DEPTH for _, depth in leaves)
    with pytest.raises(GeometryError, match="bbox must satisfy"):
        geomgen.pr_quadtree_reference([a, b], capacity=1)


def _leaves(node, depth=0):
    """(leaf, depth) pairs of a PR tree in child order."""
    if node.children is None:
        return [(node, depth)]
    return [pair for child in node.children for pair in _leaves(child, depth + 1)]


def _pr_outcome(build, pts, region, capacity):
    """The dump and each leaf's over-full flag, or the error message."""
    try:
        tree = build(pts, region=region, capacity=capacity)
    except GeometryError as err:
        return str(err)
    return tree_to_dict(tree), [leaf.overfull for leaf, _ in _leaves(tree.root)], tree.overfull


def _pr_family(family, rng, n):
    if family == "uniform":
        return [(rng.random(), rng.random()) for _ in range(n)]
    if family == "grid":
        # dyadic coordinates fall on split lines at every level
        return [(rng.randint(0, 8) / 8.0, rng.randint(0, 8) / 8.0) for _ in range(n)]
    if family == "cluster":
        # 2**-40 or 2**-51 wide: deeper than MAX_DEPTH under the unit
        # square; the narrow ones are a few ulps wide, so under their own
        # bounding square the split reaches float resolution
        cx, cy = rng.random(), rng.random()
        half = 2.0 ** -rng.choice((41, 52))
        return [(cx + rng.uniform(-half, half), cy + rng.uniform(-half, half)) for _ in range(n)]
    distinct = [(rng.random(), rng.random()) for _ in range(rng.randint(1, 4))]
    return [rng.choice(distinct) for _ in range(n)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["uniform", "grid", "cluster", "repeats"]),
    st.integers(0, 2**32),
    st.integers(0, 40),
    st.integers(0, 4),
    st.sampled_from([None, (0.0, 0.0, 1.0, 1.0), (0.0, 0.25, 0.75, 1.0)]),
)
def test_pr_build_matches_the_incremental_reference(family, seed, n, capacity, box):
    pts = [Point(x, y) for x, y in _pr_family(family, random.Random(seed), n)]
    region = None if box is None else BBox(*box)
    want = _pr_outcome(geomgen.pr_quadtree_reference, pts, region, capacity)
    got = _pr_outcome(build_pr_quadtree, pts, region, capacity)
    if isinstance(want, str) and want.startswith("bbox must satisfy"):
        # the reference splits past float resolution; the build keeps an
        # over-full leaf instead
        assert not isinstance(got, str) and got[2], got
        return
    assert got == want


def _pr_tie_family(family, rng, n):
    """(points, region) with coordinates on split lines, on signed zeros,
    near +/-1e6, or on the region's edges within a few EPS_DIST."""
    if family == "centers":
        # the centers of random nodes, computed as the build computes them
        x0, y0, x1, y1 = rng.choice(((0.0, 0.0, 1.0, 1.0), (0.0, 0.25, 0.75, 1.0), (-3.0, -1.0, 5.0, 0.3)))
        region = (x0, y0, x1, y1)
        xs, ys = [x0, x1], [y0, y1]
        for _ in range(rng.randint(1, 6)):
            cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
            xs.append(cx)
            ys.append(cy)
            x0, x1 = (cx, x1) if rng.random() < 0.5 else (x0, cx)
            y0, y1 = (cy, y1) if rng.random() < 0.5 else (y0, cy)
        return [(rng.choice(xs), rng.choice(ys)) for _ in range(n)], region
    if family == "zeros":
        values = (0.0, -0.0, 5e-324, -5e-324, 1e-9, -1e-9, 0.5, 1.0)
        return [(rng.choice(values), rng.choice(values)) for _ in range(n)], (0.0, 0.0, 1.0, 1.0)
    if family == "far":
        s = rng.choice((1.0, -1.0))
        lo, hi = (1e6 - 1.0, 1e6) if s > 0 else (-1e6, -1e6 + 1.0)
        steps = (0.0, 0.5, 0.25, 1e-3, 2.0 ** -33, 2.0 ** -32)
        edge = hi if s > 0 else lo
        pts = [(edge - s * rng.choice(steps), edge - s * rng.choice(steps)) for _ in range(n)]
        return pts, (lo, lo, hi, hi)
    # on the unit square's edges, up to 2 EPS_DIST outside it
    offsets = (-2e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 2e-9)
    pts = []
    for _ in range(n):
        x, y = rng.random(), rng.random()
        if rng.random() < 0.5:
            x = rng.choice((0.0, 1.0)) + rng.choice(offsets)
        else:
            y = rng.choice((0.0, 1.0)) + rng.choice(offsets)
        pts.append((x, y))
    return pts, (0.0, 0.0, 1.0, 1.0)


def _assert_regions_are_checked_boxes(tree):
    for node in _pr_preorder(tree.root):
        r = node.region
        assert type(r) is BBox
        assert all(type(v) is float for v in (r.xmin, r.ymin, r.xmax, r.ymax))
        assert r == BBox(r.xmin, r.ymin, r.xmax, r.ymax)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["centers", "zeros", "far", "fringe"]),
    st.integers(0, 2**32),
    st.integers(1, 40),
    st.integers(1, 4),
    st.booleans(),
)
def test_pr_build_matches_the_reference_on_ties(family, seed, n, capacity, explicit):
    raw, box = _pr_tie_family(family, random.Random(seed), n)
    pts = [Point(x, y) for x, y in raw]
    region = BBox(*box) if explicit else None
    want = _pr_outcome(geomgen.pr_quadtree_reference, pts, region, capacity)
    got = _pr_outcome(build_pr_quadtree, pts, region, capacity)
    if isinstance(want, str) and want.startswith("bbox must satisfy"):
        assert not isinstance(got, str) and got[2], got
    else:
        # an error names the same point: "point %d outside region"
        assert got == want
    if not isinstance(got, str):
        _assert_regions_are_checked_boxes(build_pr_quadtree(pts, region=region, capacity=capacity))


def test_point_build_makes_no_call_per_level():
    # a diagonal is one path: the i-th point descends i levels, so a call
    # per level made about n**2 / 2 calls (1.1 million at n = 1,500)
    for n in (500, 1500):
        pts = [Point(i, i) for i in range(n)]
        assert geomgen.python_calls(build_point_quadtree, pts) <= 3 * n


def test_pr_build_and_dump_make_no_call_per_point_or_level():
    # a call per point per level and per checked box made about 13 calls
    # per node, and the recursive dump about 3
    rng = random.Random(4000)
    pts = [Point(x, y) for x, y in geomgen.random_points(rng, 4000, 0.0, 1000.0)]
    for capacity, region in ((1, BBox(0, 0, 1000, 1000)), (4, BBox(0, 0, 1000, 1000)), (4, None)):
        tree = build_pr_quadtree(pts, region=region, capacity=capacity)
        nodes = sum(1 for _ in _pr_preorder(tree.root))
        assert nodes > 1000
        assert geomgen.python_calls(build_pr_quadtree, pts, region, capacity) <= 3 * nodes
        assert geomgen.python_calls(tree_to_dict, tree) <= nodes // 100


def test_round_trip_both_kinds():
    rng = random.Random(83)
    pts = [Point(x, y) for x, y in geomgen.random_points(rng, 60, dyadic_bits=10)]
    pts = list({(p.x, p.y): p for p in pts}.values())
    t = build_point_quadtree(pts)
    assert parse_quadtree_array(quadtree_to_array(t)) == t
    # the unit region keeps every split coordinate dyadic, hence exact in dumps
    pr = build_pr_quadtree(pts, capacity=2, region=BBox(0, 0, 1, 1))
    back = parse_quadtree_array(quadtree_to_array(pr))
    assert back == pr
    assert back.capacity is None


def test_a_region_narrower_than_the_dump_prints_does_not_parse_back():
    # the default region of two points one ulp apart prints as [0.5,0.5,0.5,0.5]
    t = build_pr_quadtree([Point(0.5, 0.5), Point(0.5000000000000001, 0.5)], capacity=1)
    text = quadtree_to_array(t)
    assert '"region":[0.5,0.5,0.5,0.5]' in text
    with pytest.raises(GeometryError, match=r"^bbox must satisfy xmin < xmax and ymin < ymax$"):
        parse_quadtree_array(text)


def test_parse_rejects_malformed_arrays():
    for text in [
        "[]",
        '{"kind":"point"}',
        '{"kind":"other","root":null}',
        '{"kind":"point","root":{"site":[0,0],"nw":null,"ne":null,"sw":null}}',
        '{"kind":"pr","root":{"region":[0,0,1,1]}}',
        '{"kind":"pr","root":{"region":[0,0,1,1],"points":[[0,0]],"children":[]}}',
    ]:
        with pytest.raises((GeometryError, ValueError)):
            parse_quadtree_array(text)


_LEAF = '{"kind":"pr","root":{"region":[0,0,1,1],"points":[%s]}}'
_SITE = '{"kind":"point","root":{"site":%s,"nw":null,"ne":null,"sw":null,"se":null}}'
_REGION = '{"kind":"pr","root":{"region":%s,"points":[]}}'
_HUGE = "1" + "0" * 400


@pytest.mark.parametrize("text, message", [
    # each once escaped as TypeError or ValueError, or parsed a bool as 1.0
    ('{"kind":"pr","root":{"region":[0,0,1,1],"points":5}}', "malformed pr quadtree node"),
    (_REGION % '["a",0,1,1]', "malformed pr quadtree region"),
    (_REGION % "[null,0,1,1]", "malformed pr quadtree region"),
    (_REGION % "[0,false,1,1]", "malformed pr quadtree region"),
    (_LEAF % '["x",0]', "malformed point"),
    (_LEAF % "[0,true]", "malformed point"),
    (_SITE % '["x",0]', "malformed point"),
    (_SITE % "[true,0]", "malformed point"),
    pytest.param(_SITE % "[%s,0]" % _HUGE, "number too large", id="huge-site"),
    pytest.param(_REGION % "[0,0,%s,1]" % _HUGE, "number too large", id="huge-region"),
    # the parser's other raise sites
    ('{"kind":"pr","root":null}', "pr quadtree root cannot be null"),
    ('{"kind":"pr","root":{"points":[]}}', "malformed pr quadtree node"),
    (_REGION % "[0,0,1]", "malformed pr quadtree region"),
    ('{"kind":"pr","root":{"region":[0,0,1,1],"children":[]}}',
     "pr quadtree node needs exactly 4 children"),
    (_SITE % "[0]", "malformed point"),
    (_LEAF % "[0,0,0]", "malformed point"),
])
def test_malformed_arrays_raise_geometry_error_with_their_message(text, message):
    with pytest.raises(GeometryError) as err:
        parse_quadtree_array(text)
    assert str(err.value) == message


def test_parse_reports_too_deep_dumps_as_geometry_error(monkeypatch):
    deep_point = quadtree_to_array(build_point_quadtree([Point(i, i) for i in range(1500)]))
    deep_pr = '{"kind":"pr","root":' + '{"region":[0,0,1,1],"children":[' * 3000
    for text in (deep_point, deep_pr):
        with pytest.raises(GeometryError, match="nesting too deep"):
            parse_quadtree_array(text)
    # nesting the decoder reads but the node parsers cannot recurse through
    point_node = None
    pr_node = {"region": [0, 0, 1, 1], "points": []}
    for _ in range(5000):
        point_node = {"site": [0, 0], "nw": point_node, "ne": None, "sw": None, "se": None}
        pr_node = {"region": [0, 0, 1, 1], "children": [pr_node] * 4}
    for data in ({"kind": "point", "root": point_node}, {"kind": "pr", "root": pr_node}):
        monkeypatch.setattr(jsontext, "loads", lambda text, data=data: data)
        with pytest.raises(GeometryError, match="nesting too deep"):
            parse_quadtree_array("{}")


def test_tree_to_dict_matches_array():
    import json

    t = build_point_quadtree([Point(1, 2)])
    assert json.loads(quadtree_to_array(t)) == tree_to_dict(t)
