"""SVG and Ipe figure output.

Both emitters consume the same layers: the scene's own geometry first,
then layers extracted from a structure dump (the plain-data form each
module produces).  A layer is a pair (strokes, marks), drawn in that
order in one colour.  A stroke is a pair (points, closed): a sequence of
(x, y) pairs and whether the path closes; a fractal cell's own vertex
list serves as its stroke's points.  A mark is any (x, y) pair, so the
points of a dump (its [x, y] lists, or a triangulation's sample pairs)
are the marks as they are, with nothing made per point.  The point-tree
walks use an explicit stack, so tree depth is not bounded by the
recursion limit.  Layers cycle through one fixed palette.  Output is
deterministic: fixed element order and fixed coordinate formatting.

SVG uses fixed 6-decimal coordinates and flips the y axis so figures read
in math orientation.  Ipe files carry no stylesheet and use only the
elements ipe, page, path, use and group, which Ipe 7.2.x opens with its
defaults; coordinates are trimmed to at most 6 decimals.

`svg_chunks` and `ipe_chunks` give a document as chunks: the head, then
up to CHUNK_LINES strokes or marks of one layer at a time, then the tail;
and `emit_svg` and `emit_ipe` join them.  Every check runs when a chunk
generator is made, before its first chunk.  The SVG viewBox comes before
the first path, so the bounds are found first: the scene bbox when there
is one; otherwise the layers are measured: strokes point by point, marks
by min and max over each coordinate, and a fractal dump's cells (a
`CellSequence`) and a quadtree's lines (a `_Framed` list, inside the
rectangle it draws first) by the bounds they carry.  The fractal layer
is the one layer made while it is written, one stroke per cell, so a
fractal's document streams in memory that does not grow with its depth;
every other dump is bounded by its input and is gathered whole.  The fractal
and quadtree modules load only when one of their dumps is drawn, so a
figure of any other structure does not compile them.

Figures repeat coordinates heavily (a depth-5 carpet has 262,144
coordinate slots but about 244 distinct x and 244 distinct y values), so
strokes, Ipe marks and the SVG head format every distinct value once per
document, through a memo keyed by the number that starts over after a
chunk once it holds MEMO_LIMIT entries; a miss is one Python call, the
memo's `__missing__`.  Keys that compare equal print alike in both
formats: 0.0 and -0.0 both print as zero, and an int prints as the float
it equals.  An SVG mark skips the memo: its line is one "%" over both
coordinates, with -0.000000 then written as 0.000000, since the points
that marks draw (samples above all) seldom repeat.  Ipe marks keep it,
because the scene layer and a structure's layers draw the same input
points twice.  Each path is built as one string.
"""

from __future__ import annotations

from itertools import chain, islice
from operator import itemgetter
from typing import TYPE_CHECKING

from .core import GeometryError
from .jsontext import TextMemo

if TYPE_CHECKING:
    from .scene import Scene

CHUNK_LINES = 1024

_X = itemgetter(0)
_Y = itemgetter(1)

IPE_VERSION = "70218"
IPE_CREATOR = "geoforge"

# layer i's colour is _PALETTE[i % len(_PALETTE)], as (SVG colour, Ipe colour)
_PALETTE = (
    ("black", "black"),
    ("red", "1 0 0"),
    ("blue", "0 0 1"),
    ("green", "0 1 0"),
    ("orange", "1 0.647 0"),
    ("purple", "0.627 0.125 0.941"),
)


def _closed_stroke(points) -> tuple:
    return points, True


def _loop_strokes(pts) -> list:
    """A vertex loop's stroke: closed through three or more points, open
    through two, none for fewer."""
    return [(pts, len(pts) >= 3)] if len(pts) >= 2 else []


def _rect(x0, y0, x1, y1) -> tuple:
    return ((x0, y0), (x1, y0), (x1, y1), (x0, y1)), True


def _scene_layer(scene: Scene) -> tuple:
    strokes: list = []
    for s in scene.segments:
        strokes.append((((s.a.x, s.a.y), (s.b.x, s.b.y)), False))
    for poly in scene.polygons:
        strokes.append((tuple((v.x, v.y) for v in poly.vertices), True))
    return strokes, [(p.x, p.y) for p in scene.points]


def _result_layers(results, scene: Scene) -> list[tuple]:
    if results is None:
        return []
    if isinstance(results, list):
        return _onion_layers(results)
    if not isinstance(results, dict):
        raise GeometryError("cannot render results of type %r" % type(results).__name__)
    keys = set(results)
    if keys == {"kind", "root"}:
        return _quadtree_layers(results)
    if keys == {"kind", "depth", "cells"}:
        from .fractals import CellSequence

        cells = results["cells"]
        if isinstance(cells, CellSequence):
            # made while it is written; it carries the bounds of all its cells
            return [(cells.remade(_closed_stroke), [])]
        return [([(cell, True) for cell in cells], [])]
    if keys == {"bbox", "segments", "extensions", "trapezoids"}:
        return _trapmap_layers(results)
    if keys == {"points", "edges"}:
        pts = results["points"]
        edges = [
            (((pts[i][0], pts[i][1]), (pts[j][0], pts[j][1])), False)
            for i, j in results["edges"]
        ]
        return [(edges, []), ([], pts)]
    if keys == {"delta", "dupin", "convex_fb", "is_dupin_convex"}:
        return _floating_layers(results)
    if keys == {"triangles", "samples"}:
        return _triangulation_layers(results, scene)
    raise GeometryError("cannot render this dump")


def _onion_layers(layers_data: list) -> list[tuple]:
    return [(_loop_strokes(pts), pts) for pts in layers_data]


class _Framed(list):
    """A quadtree's lines, which all lie in the rectangle (x0, y0, x1, y1)
    their first stroke draws; _bounds reads it from `bounds`."""

    __slots__ = ("bounds",)


def _quadtree_layers(data: dict) -> list[tuple]:
    lines: list = []
    marks: list = []
    root = data["root"]
    if data["kind"] == "point":
        if root is not None:
            from .quadtree import bounding_square

            # the sites in preorder are the marks
            marks = _point_tree_sites(root)
            bounds = bounding_square(list(map(_X, marks)), list(map(_Y, marks)))
            lines = _Framed([_rect(*bounds)])
            lines.bounds = bounds
            _point_tree_lines(root, bounds, lines)
    elif data["kind"] == "pr":
        lines = _Framed()
        lines.bounds = tuple(root["region"])
        _pr_tree_lines(root, lines, marks)
    else:
        raise GeometryError("cannot render this dump")
    return [(lines, []), ([], marks)]


def _point_tree_sites(root: dict) -> list:
    """Sites of a point-tree dump in preorder, walked with an explicit stack."""
    sites = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node is not None:
            sites.append(node["site"])
            stack += (node["se"], node["sw"], node["ne"], node["nw"])
    return sites


def _point_tree_lines(root: dict, bounds, lines: list) -> None:
    # preorder with an explicit stack; children go on in reverse so that
    # nw comes off first, and an empty quadrant draws nothing
    stack = [(root, bounds)]
    push = stack.append
    while stack:
        node, (x0, y0, x1, y1) = stack.pop()
        sx, sy = node["site"]
        lines.append((((sx, y0), (sx, y1)), False))
        lines.append((((x0, sy), (x1, sy)), False))
        if (child := node["se"]) is not None:
            push((child, (sx, y0, x1, sy)))
        if (child := node["sw"]) is not None:
            push((child, (x0, y0, sx, sy)))
        if (child := node["ne"]) is not None:
            push((child, (sx, sy, x1, y1)))
        if (child := node["nw"]) is not None:
            push((child, (x0, sy, sx, y1)))


def _pr_tree_lines(root: dict, lines: list, marks: list) -> None:
    # preorder with an explicit stack; children go on in reverse so that
    # the first comes off first
    stack = [root]
    while stack:
        node = stack.pop()
        x0, y0, x1, y1 = node["region"]
        lines.append((((x0, y0), (x1, y0), (x1, y1), (x0, y1)), True))
        if "points" in node:
            marks.extend(node["points"])
        else:
            stack += reversed(node["children"])


def _trapmap_layers(data: dict) -> list[tuple]:
    base: list = [_rect(*data["bbox"])]
    for (ax, ay), (bx, by) in data["segments"]:
        base.append((((ax, ay), (bx, by)), False))
    ext: list = []
    for e in data["extensions"]:
        ox, oy = e["origin"]
        ux, uy = e["up_hit"]
        dx, dy = e["down_hit"]
        ext.append((((dx, dy), (ox, oy), (ux, uy)), False))
    return [(base, []), (ext, [])]


def _floating_layers(data: dict) -> list[tuple]:
    dupin = data["dupin"]
    outline = _loop_strokes(dupin)
    return [(outline, [] if outline else dupin), (_loop_strokes(data["convex_fb"] or ()), [])]


def _triangulation_layers(data: dict, scene: Scene) -> list[tuple]:
    if not scene.polygons:
        raise GeometryError("cannot render a triangulation without its polygon")
    verts = scene.polygons[0].vertices
    tris: list = []
    for i, j, k in data["triangles"]:
        tris.append(
            (((verts[i].x, verts[i].y), (verts[j].x, verts[j].y), (verts[k].x, verts[k].y)), True)
        )
    return [(tris, []), ([], data["samples"])]


def _gather_layers(scene: Scene, results) -> list[tuple]:
    layers = [_scene_layer(scene)] + _result_layers(results, scene)
    if not any(strokes or marks for strokes, marks in layers):
        raise GeometryError("nothing to render")
    return layers


def _bounds(scene: Scene, layers: list[tuple]) -> tuple[float, float, float, float]:
    if scene.bbox is not None:
        b = scene.bbox
        return b.xmin, b.ymin, b.xmax, b.ymax
    xs: list[float] = []
    ys: list[float] = []
    for strokes, marks in layers:
        if type(strokes) is list:
            for points, _ in strokes:
                xs.extend(p[0] for p in points)
                ys.extend(p[1] for p in points)
        else:
            # a fractal's CellSequence or a quadtree's _Framed lines, which
            # carry their bounds
            x0, y0, x1, y1 = strokes.bounds
            xs += (x0, x1)
            ys += (y0, y1)
        if marks:
            xs += (min(map(_X, marks)), max(map(_X, marks)))
            ys += (min(map(_Y, marks)), max(map(_Y, marks)))
    return min(xs), min(ys), max(xs), max(ys)


def _padded(bounds) -> tuple[float, float, float, float]:
    """The bounds grown by 5% per side, or by 1 along an axis of zero extent."""
    x0, y0, x1, y1 = bounds
    pad_x = 0.05 * (x1 - x0) if x1 > x0 else 1.0
    pad_y = 0.05 * (y1 - y0) if y1 > y0 else 1.0
    return x0 - pad_x, y0 - pad_y, x1 + pad_x, y1 + pad_y


class _SvgText(TextMemo):
    """A number's SVG text: fixed 6 decimals, with -0.000000 written as 0.000000."""

    __slots__ = ()

    def __missing__(self, v: float) -> str:
        s = "%.6f" % v
        if s == "-0.000000":
            s = "0.000000"
        self[v] = s
        return s


class _IpeText(TextMemo):
    """A number's Ipe text: at most 6 decimals, trailing zeros cut, -0 written as 0."""

    __slots__ = ()

    def __missing__(self, v: float) -> str:
        s = ("%.6f" % v).rstrip("0").rstrip(".")
        if s == "-0":
            s = "0"
        self[v] = s
        return s


def _batches(layer):
    """The layer's items in lists of at most CHUNK_LINES."""
    items = iter(layer)
    while batch := list(islice(items, CHUNK_LINES)):
        yield batch


def emit_svg(scene: Scene, results=None) -> str:
    """Render a scene plus an optional structure dump as an SVG document."""
    return "".join(svg_chunks(scene, results))


def svg_chunks(scene: Scene, results=None):
    """The emit_svg document as chunks; every check runs in this call."""
    layers = _gather_layers(scene, results)
    x0, y0, x1, y1 = _padded(_bounds(scene, layers))
    c = _SvgText()
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="%s %s %s %s">'
        % (c[x0], c[y0], c[x1 - x0], c[y1 - y0]),
        '<g transform="matrix(1 0 0 -1 0 %s)">' % c[y0 + y1],
        "",
    ]
    return chain(("\n".join(head),), _svg_body(layers, c), ("</g>\n</svg>\n",))


def _svg_body(layers, c: _SvgText):
    for index, (strokes, marks) in enumerate(layers):
        color = _PALETTE[index % len(_PALETTE)][0]
        for batch in _batches(strokes):
            lines = []
            for points, closed in batch:
                ops = [f"L {c[x]} {c[y]}" for x, y in points]
                if ops:
                    ops[0] = "M" + ops[0][1:]
                if closed:
                    ops.append("Z")
                lines.append(
                    f'<path d="{" ".join(ops)}" fill="none" stroke="{color}" stroke-width="1.000000"/>'
                )
            lines.append("")
            yield "\n".join(lines)
            c.trim()
        # one "%" per mark; of the attribute values only cx, cy and r are
        # followed by a space, and r is the fixed 2.000000
        circle = '<circle cx="%%.6f" cy="%%.6f" r="2.000000" fill="%s"/>\n' % color
        for batch in _batches(marks):
            text = "".join([circle % (x, y) for x, y in batch])
            yield text.replace('="-0.000000" ', '="0.000000" ')


def emit_ipe(scene: Scene, results=None) -> str:
    """Render a scene plus an optional structure dump as an Ipe document."""
    return "".join(ipe_chunks(scene, results))


def ipe_chunks(scene: Scene, results=None):
    """The emit_ipe document as chunks; every check runs in this call."""
    layers = _gather_layers(scene, results)
    head = [
        '<?xml version="1.0"?>',
        '<!DOCTYPE ipe SYSTEM "ipe.dtd">',
        '<ipe version="%s" creator="%s">' % (IPE_VERSION, IPE_CREATOR),
        "<page>",
        "",
    ]
    return chain(("\n".join(head),), _ipe_body(layers), ("</page>\n</ipe>\n",))


def _ipe_body(layers):
    c = _IpeText()
    for index, (strokes, marks) in enumerate(layers):
        color = _PALETTE[index % len(_PALETTE)][1]
        path_open = f'<path stroke="{color}">'
        for batch in _batches(strokes):
            lines = []
            for points, closed in batch:
                ops = [f"{c[x]} {c[y]} l" for x, y in points]
                if ops:
                    ops[0] = ops[0][:-1] + "m"
                if closed:
                    ops.append("h")
                lines.append("\n".join([path_open, *ops, "</path>"]))
            lines.append("")
            yield "\n".join(lines)
            c.trim()
        for batch in _batches(marks):
            yield "".join([
                f'<use name="mark/disk(sx)" pos="{c[x]} {c[y]}" size="normal" stroke="{color}"/>\n'
                for x, y in batch
            ])
            c.trim()
