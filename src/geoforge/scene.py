"""Scene files: the JSON input format shared by all subcommands.

A scene is a single JSON object with any of the keys "points",
"segments", "polygons" and "bbox"; nothing else.  Parsing is strict:
unknown keys, malformed JSON and invalid geometry are all rejected with
messages that name the offending entry.  Serialization writes polygons
counterclockwise, so parse(serialize(scene)) == scene.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import jsontext
from .core import BBox, GeometryError, Point, Polygon, Segment, _read_numbers

_ALLOWED_KEYS = ("points", "segments", "polygons", "bbox")


class SceneError(ValueError):
    """A scene file failed to parse or validate."""


@dataclass(frozen=True)
class Scene:
    points: tuple[Point, ...] = ()
    segments: tuple[Segment, ...] = ()
    polygons: tuple[Polygon, ...] = ()
    bbox: BBox | None = None


def parse_scene(text: str) -> Scene:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise SceneError(
            "malformed scene: %s at line %d column %d"
            % (err.msg, err.lineno, err.colno)
        ) from None
    except ValueError as err:  # an integer past the int-string digit limit
        raise SceneError("malformed scene: %s" % err) from None
    except RecursionError:
        raise SceneError("malformed scene: nesting too deep") from None
    if not isinstance(data, dict):
        raise SceneError("scene must be a JSON object")
    for key in data:
        if key not in _ALLOWED_KEYS:
            raise SceneError("unknown scene key %r" % key)
    points = tuple(_parse_points(_entry_list(data, "points"), lambda i: "points[%d]" % i))
    segments = tuple(
        _parse_segment(v, "segments[%d]" % i)
        for i, v in enumerate(_entry_list(data, "segments"))
    )
    polygons = tuple(
        _parse_polygon(v, "polygons[%d]" % i)
        for i, v in enumerate(_entry_list(data, "polygons"))
    )
    bbox = None
    if "bbox" in data:
        bbox = _parse_bbox(data["bbox"])
    return Scene(points=points, segments=segments, polygons=polygons, bbox=bbox)


def _entry_list(data: dict, key: str) -> list:
    value = data.get(key, [])
    if not isinstance(value, list):
        raise SceneError("%s must be a list" % key)
    return value


def _parse_point(value, where: str) -> Point:
    try:
        xy = _read_numbers(value, 2)
        if xy is not None:
            return Point(*xy)
    except GeometryError as err:
        raise SceneError("%s: %s" % (where, err)) from None
    raise SceneError("%s: expected [x, y] numbers" % where)


def _parse_points(values: list, where) -> list[Point]:
    """Points from [x, y] entries; where(i) names entry i in an error.

    An entry that is exactly a list of two floats goes straight to Point.
    Every other entry, and one whose Point raises, takes _parse_point, so
    the messages are the same either way and the name is built only
    there.
    """
    points = []
    for i, value in enumerate(values):
        if type(value) is list and len(value) == 2:
            x, y = value
            if type(x) is float and type(y) is float:
                try:
                    points.append(Point(x, y))
                    continue
                except GeometryError:
                    pass
        points.append(_parse_point(value, where(i)))
    return points


def _parse_segment(value, where: str) -> Segment:
    if not isinstance(value, list) or len(value) != 2:
        raise SceneError("%s: expected [[x, y], [x, y]]" % where)
    a = _parse_point(value[0], where)
    b = _parse_point(value[1], where)
    try:
        return Segment(a, b)
    except GeometryError as err:
        raise SceneError("%s: %s" % (where, err)) from None


def _parse_polygon(value, where: str) -> Polygon:
    if not isinstance(value, list) or len(value) < 3:
        raise SceneError("%s: expected a list of at least 3 vertices" % where)
    verts = _parse_points(value, lambda i: where)
    try:
        return Polygon(tuple(verts))
    except GeometryError as err:
        raise SceneError("%s: %s" % (where, err)) from None


def _parse_bbox(value) -> BBox:
    try:
        bounds = _read_numbers(value, 4)
        if bounds is not None:
            return BBox(*bounds)
    except GeometryError as err:
        raise SceneError("bbox: %s" % err) from None
    raise SceneError("bbox: expected [xmin, ymin, xmax, ymax]")


def serialize_scene(scene: Scene) -> str:
    data: dict = {}
    if scene.points:
        data["points"] = [[p.x, p.y] for p in scene.points]
    if scene.segments:
        data["segments"] = [[[s.a.x, s.a.y], [s.b.x, s.b.y]] for s in scene.segments]
    if scene.polygons:
        data["polygons"] = [
            [[v.x, v.y] for v in poly.vertices] for poly in scene.polygons
        ]
    if scene.bbox is not None:
        b = scene.bbox
        data["bbox"] = [b.xmin, b.ymin, b.xmax, b.ymax]
    return jsontext.dumps(data)
