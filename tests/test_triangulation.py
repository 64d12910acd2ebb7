"""Ear clipping and seeded uniform sampling."""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

import geomgen
from geoforge import (
    BBox,
    GeometryError,
    Point,
    PointLocation,
    Polygon,
    SampleRequest,
    point_in_polygon,
    polygon_area,
    sample_points,
    triangulate,
)
from geoforge import jsontext, triangulation
from geoforge.cli import main
from geoforge.core import EPS_AREA, cross
from geoforge.render import emit_ipe, emit_svg
from geoforge.scene import Scene
from geoforge.triangulation import (
    _sample_with_rng,
    triangle_areas,
    triangulation_to_dict,
)


class ScriptedRng:
    """random()-compatible stub that replays a fixed list of values."""

    def __init__(self, values):
        self.values = list(values)
        self.used = 0

    def random(self):
        v = self.values[self.used % len(self.values)]
        self.used += 1
        return v


def test_triangle_is_its_own_triangulation():
    t = triangulate(Polygon([Point(0, 0), Point(3, 0), Point(0, 4)]))
    assert t.triangles == ((0, 1, 2),)
    assert triangle_areas(t) == [6.0]


def test_square_splits_into_two():
    t = triangulate(Polygon([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]))
    assert len(t.triangles) == 2
    assert sum(triangle_areas(t)) == pytest.approx(1.0, abs=1e-12)


def test_l_shape_and_z_shape():
    l_shape = Polygon(
        [Point(0, 0), Point(2, 0), Point(2, 1), Point(1, 1), Point(1, 2), Point(0, 2)]
    )
    t = triangulate(l_shape)
    assert len(t.triangles) == 4
    assert sum(triangle_areas(t)) == pytest.approx(polygon_area(l_shape), rel=1e-12)
    z_shape = Polygon(
        [Point(0, 0), Point(4, 0), Point(4, 3), Point(3, 1), Point(2, 2.5),
         Point(1, 0.7), Point(0, 3)]
    )
    t = triangulate(z_shape)
    assert len(t.triangles) == 5
    assert sum(triangle_areas(t)) == pytest.approx(polygon_area(z_shape), rel=1e-12)


def test_triangles_are_ccw_and_use_polygon_indices():
    poly = Polygon(
        [Point(0, 0), Point(4, 0), Point(4, 3), Point(3, 1), Point(2, 2.5),
         Point(1, 0.7), Point(0, 3)]
    )
    t = triangulate(poly)
    n = len(poly.vertices)
    for i, j, k in t.triangles:
        assert 0 <= i < n and 0 <= j < n and 0 <= k < n
        assert cross(poly.vertices[i], poly.vertices[j], poly.vertices[k]) > 0


def test_random_simple_polygons_yield_n_minus_two_triangles():
    rng = random.Random(271205)
    for _ in range(25):
        raw = geomgen.random_simple_polygon(rng, rng.randint(4, 30))
        poly = Polygon([Point(x, y) for x, y in raw])
        t = triangulate(poly)
        assert len(t.triangles) == len(poly.vertices) - 2
        assert sum(triangle_areas(t)) == pytest.approx(polygon_area(poly), rel=1e-9)


def test_straight_vertex_is_dropped_without_a_sliver():
    poly = Polygon([Point(0, 0), Point(1, 0), Point(2, 0.5), Point(2, 2), Point(0, 2)])
    # (1, 0) is not straight, but add one that is via a rectangle edge
    flat = Polygon([Point(0, 0), Point(1, 0), Point(2, 0), Point(2, 2), Point(0, 2)])
    t = triangulate(flat)
    assert sum(triangle_areas(t)) == pytest.approx(4.0, abs=1e-12)
    assert all(a > 1e-9 for a in triangle_areas(t))
    assert len(t.triangles) == 3  # n-2 with the straight vertex still counted? no: dropped
    t2 = triangulate(poly)
    assert len(t2.triangles) == 3


def test_sample_request_validation():
    SampleRequest(count=1, seed=0)
    SampleRequest(count=10, seed=2 ** 64 - 1)
    for kwargs in [
        dict(count=0, seed=1),
        dict(count=-5, seed=1),
        dict(count=2.5, seed=1),
        dict(count=1, seed=-1),
        dict(count=1, seed=2 ** 64),
        dict(count=1, seed=1.5),
    ]:
        with pytest.raises(GeometryError):
            SampleRequest(**kwargs)


def test_sampling_is_deterministic_and_inside():
    poly = Polygon(
        [Point(0, 0), Point(2, 0), Point(2, 1), Point(1, 1), Point(1, 2), Point(0, 2)]
    )
    t = triangulate(poly)
    req = SampleRequest(count=2000, seed=987654321)
    a = sample_points(t, req)
    b = sample_points(t, req)
    assert a == b
    assert len(a) == 2000
    for p in a:
        assert point_in_polygon(p, poly) in (PointLocation.INSIDE, PointLocation.BOUNDARY)
    other = sample_points(t, SampleRequest(count=2000, seed=987654322))
    assert other != a


def test_scripted_generator_hits_triangle_corner():
    t = triangulate(Polygon([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]))
    # draws: triangle pick 0, u = 0, v = 0 -> vertex A of the first triangle
    out = _sample_with_rng(t, 1, ScriptedRng([0.0]))
    a = t.polygon.vertices[t.triangles[0][0]]
    assert (out[0].x, out[0].y) == (a.x, a.y)
    # u + v > 1 folds back into the triangle
    out = _sample_with_rng(t, 1, ScriptedRng([0.0, 0.9, 0.8]))
    assert point_in_polygon(out[0], t.polygon) in (
        PointLocation.INSIDE,
        PointLocation.BOUNDARY,
    )
    # three draws per sample: picks alternate deterministically
    probe = ScriptedRng([0.5])
    _sample_with_rng(t, 4, probe)
    assert probe.used == 12


# the draws of one sample on the triangle below: u + v rounds to 1 and x to
# 1000000.0000000001, past COORD_LIMIT
_OUT_OF_RANGE_DRAWS = [0.0, 0.8521744831896624, 0.14782551681033762]
_OUT_OF_RANGE = r"point coordinates must satisfy \|x\|, \|y\| <= 1e\+06"


def test_a_draw_rounded_out_of_range_raises_the_point_error():
    t = triangulate(Polygon([Point(604276.067325653, 0), Point(1e6, 0), Point(1e6, 1)]))
    with pytest.raises(GeometryError, match=_OUT_OF_RANGE):
        geomgen.sample_points_reference(t, 1, ScriptedRng(_OUT_OF_RANGE_DRAWS))
    with pytest.raises(GeometryError, match=_OUT_OF_RANGE):
        _sample_with_rng(t, 1, ScriptedRng(_OUT_OF_RANGE_DRAWS))


@pytest.mark.parametrize("fmt", ["json", "svg", "ipe"])
def test_an_out_of_range_sample_fails_before_the_first_chunk(tmp_path, capsys, monkeypatch, fmt):
    scene = tmp_path / "edge.json"
    scene.write_text('{"polygons": [[[604276.067325653, 0], [1e6, 0], [1e6, 1]]]}')
    fake = SimpleNamespace(Random=lambda seed: ScriptedRng(_OUT_OF_RANGE_DRAWS))
    monkeypatch.setattr(triangulation, "random", fake)
    code = main(["sample", "--input", str(scene), "--count", "3", "--seed", "1",
                 "--format", fmt, "--output", "-"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: point coordinates must satisfy")


def test_samples_read_as_the_reference_list_of_points():
    t = triangulate(Polygon([Point(0, 0), Point(3, 0), Point(3, 2), Point(1, 3)]))
    samples = sample_points(t, SampleRequest(count=50, seed=11))
    ref = geomgen.sample_points_reference(t, 50, random.Random(11))
    assert samples == ref and ref == samples and not samples != ref
    assert len(samples) == 50
    assert list(samples) == ref
    assert [samples[i] for i in (0, 17, 49, -1, -50)] == [ref[i] for i in (0, 17, 49, -1, -50)]
    assert samples[5:9] == ref[5:9] and samples[::-7] == ref[::-7]
    assert ref[3] in samples and samples.index(ref[3]) == 3
    assert samples != ref[:-1] and samples != tuple(ref)
    with pytest.raises(IndexError):
        samples[50]


def _placed_polygon(kind: str, place: str, rng) -> Polygon:
    """A star or convex polygon in [0, 1000]^2, then moved by `place`:
    "plain" leaves it, "corner" puts it next to (1e6, -1e6), and "thin"
    squeezes x into [-1e-6, 1e-6], where many samples print as -0.000000."""
    if kind == "star":
        loop = geomgen.star_polygon(rng, rng.randint(5, 40))
    else:
        loop = [(500.0 * x + 500.0, 500.0 * y + 500.0)
                for x, y in geomgen.random_convex_polygon(rng, rng.randint(3, 30))]
    move = {
        "plain": lambda x, y: (x, y),
        "corner": lambda x, y: (x + 999000.0, y - 1e6),
        "thin": lambda x, y: (x * 2e-9 - 1e-6, y - 500.0),
    }[place]
    return Polygon([Point(*move(x, y)) for x, y in loop])


def _documents(scene: Scene, make_dump):
    """The JSON, SVG and Ipe text of the dump make_dump() returns, or its error."""
    try:
        dump = make_dump()
    except GeometryError as err:
        return str(err)
    return jsontext.dumps(dump), emit_svg(scene, dump), emit_ipe(scene, dump)


def _assert_same_bytes_as_the_reference(poly: Polygon, boxed: bool, count: int, rng_for):
    t = triangulate(poly)
    bbox = None
    if boxed:
        xs = [v.x for v in poly.vertices]
        ys = [v.y for v in poly.vertices]
        bbox = BBox(min(xs), min(ys), max(xs), max(ys))
    scene = Scene(points=(), segments=(), polygons=(poly,), bbox=bbox)
    got = _documents(scene, lambda: triangulation.triangulation_to_dict(
        t, _sample_with_rng(t, count, rng_for())))
    want = _documents(scene, lambda: geomgen.triangulation_to_dict_reference(
        t.triangles, geomgen.sample_points_reference(t, count, rng_for())))
    assert got == want


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["star", "convex"]),
    st.sampled_from(["plain", "corner", "thin"]),
    st.booleans(),
    st.integers(0, 2**64 - 1),
    st.integers(1, 300),
)
def test_documents_are_the_bytes_of_the_point_based_path(kind, place, boxed, seed, count):
    try:
        poly = _placed_polygon(kind, place, random.Random(seed))
        triangulate(poly)
    except GeometryError:
        assume(False)
    _assert_same_bytes_as_the_reference(poly, boxed, count, lambda: random.Random(seed))


def test_documents_of_a_negative_zero_sample_are_the_reference_bytes():
    # corner a is (-0.0, -0.0) and both offsets are negative, so u = v = 0
    # gives the sample (-0.0, -0.0): JSON "0", SVG "0.000000", Ipe "0"
    poly = Polygon([Point(-0.0, -0.0), Point(-2, -1), Point(-1, -2)])
    (x, y), = _sample_with_rng(triangulate(poly), 1, ScriptedRng([0.0])).pairs
    assert (math.copysign(1.0, x), math.copysign(1.0, y)) == (-1.0, -1.0)
    for boxed in (False, True):
        _assert_same_bytes_as_the_reference(poly, boxed, 3, lambda: ScriptedRng([0.0]))


def test_sampling_respects_area_weights():
    # two triangles with unequal areas: draw counts track the area split
    poly = Polygon([Point(0, 0), Point(10, 0), Point(10, 1), Point(0, 9)])
    t = triangulate(poly)
    areas = triangle_areas(t)
    assert len(areas) == 2
    big = max(range(2), key=lambda idx: areas[idx])
    i, j, k = t.triangles[big]
    a, b, c = t.polygon.vertices[i], t.polygon.vertices[j], t.polygon.vertices[k]

    def in_big(p):
        return (
            cross(a, b, p) >= -1e-12
            and cross(b, c, p) >= -1e-12
            and cross(c, a, p) >= -1e-12
        )

    samples = sample_points(t, SampleRequest(count=4000, seed=5))
    frac = sum(1 for p in samples if in_big(p)) / 4000.0
    share = areas[big] / sum(areas)
    assert abs(frac - share) < 0.03


def test_requires_request_object():
    t = triangulate(Polygon([Point(0, 0), Point(1, 0), Point(0, 1)]))
    with pytest.raises(GeometryError):
        sample_points(t, (10, 42))


def test_dict_shape():
    t = triangulate(Polygon([Point(0, 0), Point(1, 0), Point(0, 1)]))
    d = triangulation_to_dict(t, sample_points(t, SampleRequest(count=2, seed=1)))
    assert d["triangles"] == [[0, 1, 2]]
    assert len(d["samples"]) == 2


def _comb(rng, teeth, s):
    """Peaks on top and teeth from the bottom, each tooth's tip within a
    few EPS_AREA of the chord under a peak, on either side of it."""
    loop = [(0.0, 0.0)]
    for i in range(teeth):
        # cross(chord, tip) = -k * EPS_AREA: the reference's test passes for k <= 1
        k = rng.choice((-1.0, 0.25, 0.5, 0.999, 1.0, 1.001, 2.0, 4.0))
        tip = ((2 * i + 1 + rng.uniform(-0.2, 0.2)) * s, s - k * EPS_AREA / (2.0 * s))
        loop += [((2 * i + 0.7) * s, 0.0), tip, ((2 * i + 1.3) * s, 0.0)]
    loop += [(2 * teeth * s, 0.0), (2 * teeth * s, s)]
    for i in reversed(range(teeth)):
        loop += [((2 * i + 1) * s, 2 * s), (2 * i * s, s)]
    return loop


def _family_loop(family, rng, n):
    if family == "random":
        return geomgen.random_simple_polygon(rng, 3 + n % 28)
    if family == "star":
        return geomgen.star_polygon(rng, 3 + n % 118)
    if family == "star-grid-50":  # rounding makes straight corners
        return [(50.0 * round(x / 50.0), 50.0 * round(y / 50.0))
                for x, y in geomgen.star_polygon(rng, 3 + n % 118)]
    if family == "convex":
        angles = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(3 + n % 58))
        return [(math.cos(a), math.sin(a)) for a in angles]
    if family == "near-edge":
        return _comb(rng, 1 + n % 8, rng.choice((1e-3, 0.1, 1.0, 30.0)))
    if family == "collinear":  # midpoints on a 10-unit grid star are exact
        loop = []
        for x, y in geomgen.star_polygon(rng, 3 + n % 40, span=400.0):
            loop.append((10.0 * round(x / 10.0), 10.0 * round(y / 10.0)))
        out = []
        for i, (x, y) in enumerate(loop):
            out.append((x, y))
            nx, ny = loop[(i + 1) % len(loop)]
            for _ in range(rng.choice((0, 0, 1, 3))):
                x, y = (x + nx) / 2.0, (y + ny) / 2.0
                out.append((x, y))
        return out
    if family == "flat-corners":
        # a wide convex polygon with the midpoint of some edges pushed out
        # by a hair: corners with cross near EPS_AREA but products near
        # r**2, where the grid query cannot bound the area and reads every
        # cell.  One of them comes first, so it is evaluated while flat.
        r = 10.0 ** rng.uniform(2.0, 5.9)
        angles = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(3 + n % 12))
        loop = [(r * math.cos(a), r * math.sin(a)) for a in angles]
        out = []
        for i, (x, y) in enumerate(loop):
            out.append((x, y))
            nx, ny = loop[(i + 1) % len(loop)]
            length = math.hypot(nx - x, ny - y)
            if (i == 0 or rng.random() < 0.5) and length > 0.0:
                push = 10.0 ** rng.uniform(-1.0, 3.0) * EPS_AREA / length
                out.append(((x + nx) / 2.0 + push * (ny - y) / length,
                            (y + ny) / 2.0 - push * (nx - x) / length))
        return out[1:] + out[:1]
    # "tiny": EPS_AREA is a sizeable share of every triangle
    scale = 10.0 ** -rng.uniform(3.0, 4.0)
    return [(x * scale, y * scale) for x, y in geomgen.random_simple_polygon(rng, 4 + n % 8)]


def _outcome(clip, poly):
    try:
        return clip(poly)
    except GeometryError as err:
        return str(err)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["random", "star", "star-grid-50", "convex", "near-edge", "collinear",
                     "flat-corners", "tiny"]),
    st.integers(0, 2**32),
    st.integers(0, 10**6),
)
def test_clipper_matches_the_rescanning_reference(family, seed, n):
    rng = random.Random(seed)
    try:
        poly = Polygon([Point(x, y) for x, y in _family_loop(family, rng, n)])
    except GeometryError:
        return  # the family's rounding made an invalid polygon
    want = _outcome(geomgen.triangulate_reference, poly)
    assert _outcome(lambda p: triangulate(p).triangles, poly) == want


def test_stall_matches_the_reference():
    # an octagon 2.3e-4 across: EPS_AREA blocks every convex corner
    poly = Polygon([Point(x, y) for x, y in [
        (6.715726082814181e-05, 3.311765694333986e-05),
        (0.00014965161707477593, 6.86126531493904e-05),
        (0.00018838582172521555, 0.00015007430186930254),
        (0.00019244903054236665, 0.00012021136434245469),
        (0.00022866911846729858, 0.000149419382187583),
        (0.00017387390035867011, 0.0001835259458223333),
        (6.0292729026626195e-05, 0.00019844062728636608),
        (0.00018017727805880835, 0.00014797634252212467),
    ]])
    with pytest.raises(GeometryError, match="ear clipping stalled"):
        geomgen.triangulate_reference(poly)
    with pytest.raises(GeometryError, match="ear clipping stalled"):
        triangulate(poly)


def test_grid_query_reaches_a_blocker_outside_the_triangles_box():
    # cross(a, b, c) = 3e-9, so the region where all three tests pass is
    # abc scaled by 1 + 3 EPS_AREA / (2A) = 2 about its centroid.  On the
    # line y = 0 it runs to x = 2.67, past abc's box [0, 2]: p sits in
    # grid column 3 of 4, which abc's box does not reach.
    h = 1.5e-9
    a, b, c, p = Point(0.0, 0.0), Point(1.0, -h), Point(2.0, 0.0), Point(2.5, 0.0)
    assert cross(a, b, c) == pytest.approx(3e-9)
    assert min(cross(a, b, p), cross(b, c, p), cross(c, a, p)) >= -EPS_AREA
    far = [Point(0.3 * k, 0.5) for k in range(11)] + [Point(0.0, -0.5)]
    grid = triangulation._VertexGrid((a, b, c, p, *far))
    assert grid.side == 4 and grid.cell_of[3] % 4 == 3
    assert {cell % 4 for cell in grid.cell_of[:3]} == {0, 1, 2}
    assert grid.blocker(0, 1, 2, cross(a, b, c)) == 3


def test_grid_query_reads_every_cell_when_the_area_is_unsure(monkeypatch):
    # b bends the diagonal ac by cross = 1.5e-9, while the determinant's
    # products are 5e5 each: their rounding bound exceeds cr, so the
    # query cannot bound the region and reads every cell.  p, 600 past c
    # on the diagonal, passes all three tests.
    e = 7.5e-13
    a, b, c = Point(0.0, 0.0), Point(500.0 + e, 500.0 - e), Point(1000.0, 1000.0)
    p = Point(1600.0, 1600.0)
    assert EPS_AREA < cross(a, b, c) < 2e-9
    assert min(cross(a, b, p), cross(b, c, p), cross(c, a, p)) >= -EPS_AREA
    grid = triangulation._VertexGrid((a, b, c, p, Point(2000.0, 0.0), Point(0.0, 2000.0)))

    def no_raster(*args):
        raise AssertionError("the query bounded the region")

    monkeypatch.setattr(grid, "_raster", no_raster)
    assert grid.blocker(0, 1, 2, cross(a, b, c)) == 3


def test_orientation_tests_grow_subquadratically(monkeypatch):
    # The rescanning clipper tests every remaining vertex against each
    # convex corner its scan from index 0 meets: about 3.9x more cross()
    # calls per doubling here.  Through the grid the count grows about
    # 2.2x, then 2.7x: an ear of these stars is a thin spike across two
    # rings of vertices, and the cells it crosses in the rings hold about
    # sqrt(n) vertices together, so the count tends to n**1.5 (2.83x).
    calls = [0]

    def counted(p, q, r):
        calls[0] += 1
        return cross(p, q, r)

    monkeypatch.setattr(triangulation, "cross", counted)
    counts = []
    for n in (400, 800, 1600):
        calls[0] = 0
        for seed in range(3):
            loop = geomgen.star_polygon(random.Random(10 * n + seed), n)
            # simple and CCW by construction; Polygon()'s check would dominate
            triangulate(Polygon._unchecked(Point(x, y) for x, y in loop))
        counts.append(calls[0])
    assert all(b < 3.0 * a for a, b in zip(counts, counts[1:])), counts
