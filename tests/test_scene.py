"""Scene JSON: parsing, validation messages, serialization round-trips."""

from __future__ import annotations

import random

import pytest

import geomgen
from geoforge import BBox, Point, Polygon, Scene, SceneError, Segment, parse_scene, serialize_scene


def test_full_scene_parses():
    sc = parse_scene(
        '{"points":[[0,0],[1,2]],"segments":[[[0,0],[3,1]]],'
        '"polygons":[[[0,0],[4,0],[4,4],[0,4]]],"bbox":[0,0,5,5]}'
    )
    assert len(sc.points) == 2
    assert len(sc.segments) == 1
    assert len(sc.polygons) == 1
    assert (sc.bbox.xmin, sc.bbox.ymax) == (0.0, 5.0)


def test_empty_scene():
    sc = parse_scene("{}")
    assert sc == Scene()
    assert serialize_scene(sc) == "{}"


def test_serialize_omits_empty_keys_and_is_stable():
    sc = Scene(points=(Point(1, 2),), segments=(), polygons=(), bbox=None)
    out = serialize_scene(sc)
    assert out == '{"points":[[1,2]]}'
    assert serialize_scene(parse_scene(out)) == out


def test_polygons_are_emitted_ccw():
    sc = parse_scene('{"polygons":[[[0,0],[0,1],[1,1],[1,0]]]}')
    vs = sc.polygons[0].vertices
    total = 0.0
    for i in range(len(vs)):
        q = vs[(i + 1) % len(vs)]
        total += vs[i].x * q.y - q.x * vs[i].y
    assert total > 0


def test_malformed_json_reports_position():
    with pytest.raises(SceneError) as err:
        parse_scene('{"points":[[0,0],')
    msg = str(err.value)
    assert msg.startswith("malformed scene:")
    assert "line 1" in msg and "column" in msg


def test_top_level_must_be_object():
    with pytest.raises(SceneError, match="JSON object"):
        parse_scene("[1,2,3]")


def test_unknown_key_rejected():
    with pytest.raises(SceneError, match="unknown scene key 'pts'"):
        parse_scene('{"pts":[]}')


def test_entry_errors_name_the_entry():
    cases = [
        ('{"points":[[0,0],[1]]}', "points[1]"),
        ('{"points":[[1,true]]}', "points[0]"),
        ('{"segments":[[[0,0],[0,0]]]}', "segments[0]"),
        ('{"segments":[[[0,0]]]}', "segments[0]"),
        ('{"polygons":[[[0,0],[1,0]]]}', "polygons[0]"),
        ('{"polygons":[[[0,0],[1,1],[1,0],[0,1]]]}', "polygons[0]"),
        ('{"bbox":[0,0,0,1]}', "bbox"),
        ('{"bbox":[0,0,1]}', "bbox"),
    ]
    for text, tag in cases:
        with pytest.raises(SceneError) as err:
            parse_scene(text)
        assert tag in str(err.value), (text, str(err.value))


def test_coordinates_above_domain_limit_rejected():
    with pytest.raises(SceneError):
        parse_scene('{"points":[[2000000,0]]}')


def test_random_scene_round_trips():
    rng = random.Random(188211)
    for _ in range(50):
        points = tuple(
            Point(x, y) for x, y in geomgen.random_points(rng, rng.randint(0, 8), decimals=6)
        )
        segments = []
        for a, b in zip(
            geomgen.random_points(rng, rng.randint(0, 4), decimals=6),
            geomgen.random_points(rng, 4, lo=2.0, hi=3.0, decimals=6),
        ):
            segments.append(Segment(Point(*a), Point(*b)))
        polygons = []
        if rng.random() < 0.7:
            hull = geomgen.random_convex_polygon(rng, 12)
            polygons.append(
                Polygon([Point(float("%.6f" % x), float("%.6f" % y)) for x, y in hull])
            )
        bbox = BBox(-10, -10, 10, 10) if rng.random() < 0.5 else None
        sc = Scene(
            points=points, segments=tuple(segments), polygons=tuple(polygons), bbox=bbox
        )
        text = serialize_scene(sc)
        back = parse_scene(text)
        assert serialize_scene(back) == text
        assert [(p.x, p.y) for p in back.points] == [(p.x, p.y) for p in sc.points]
        assert len(back.segments) == len(sc.segments)
        assert len(back.polygons) == len(sc.polygons)


MALFORMED_VERTICES = [
    # (the entry as JSON text, the message after "<where>: ")
    ("[true,1.0]", "expected [x, y] numbers"),
    ("[1.0,false]", "expected [x, y] numbers"),
    ("[1.0]", "expected [x, y] numbers"),
    ("[1.0,2.0,3.0]", "expected [x, y] numbers"),
    ("[[1.0],2.0]", "expected [x, y] numbers"),
    ("[[1.0,2.0]]", "expected [x, y] numbers"),
    ("[1.0,[2.0]]", "expected [x, y] numbers"),
    ('"1.0,2.0"', "expected [x, y] numbers"),
    ("null", "expected [x, y] numbers"),
    ("[1e400,0.0]", "point coordinates must be finite"),
    ("[0.0,-1e400]", "point coordinates must be finite"),
    ("[NaN,0.0]", "point coordinates must be finite"),
    ("[2000000.0,0.0]", "point coordinates must satisfy |x|, |y| <= 1e+06"),
    ("[0.0,-1000000.5]", "point coordinates must satisfy |x|, |y| <= 1e+06"),
    ("[2000000,0]", "point coordinates must satisfy |x|, |y| <= 1e+06"),
    ("[1,-2000000.0]", "point coordinates must satisfy |x|, |y| <= 1e+06"),
    ("[1" + "0" * 400 + ",0.0]", "number too large"),
]


@pytest.mark.parametrize("entry, message", MALFORMED_VERTICES)
def test_malformed_vertex_messages(entry, message):
    cases = [
        ('{"points":[%s]}' % entry, "points[0]: " + message),
        ('{"points":[[0.5,0.5],%s]}' % entry, "points[1]: " + message),
        ('{"polygons":[[[0.0,0.0],[1.0,0.0],%s]]}' % entry, "polygons[0]: " + message),
        ('{"polygons":[[[0.0,0.0],[1.0,0.0],[0.0,1.0]],[%s,[0.0,0.0],[1.0,0.0]]]}' % entry,
         "polygons[1]: " + message),
    ]
    for text, want in cases:
        with pytest.raises(SceneError) as err:
            parse_scene(text)
        assert str(err.value) == want, text


def test_int_and_float_coordinates_parse_alike():
    sc = parse_scene('{"points":[[1,2.5],[1.5,2],[3,4],[0.25,-0.75]],'
                     '"polygons":[[[0,0],[1.0,0],[0.5,1]]]}')
    assert sc.points == (Point(1.0, 2.5), Point(1.5, 2.0), Point(3.0, 4.0), Point(0.25, -0.75))
    assert all(type(p.x) is float and type(p.y) is float for p in sc.points)
    assert sc.polygons[0].vertices == (Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, 1.0))
