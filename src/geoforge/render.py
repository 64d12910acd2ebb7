"""SVG and Ipe figure output.

Both emitters consume the same drawables: the scene's own geometry first,
then layers extracted from a structure dump (the plain-data form each
module produces).  The drawables are plain named tuples: a Mark is one
point, a Stroke a sequence of (x, y) pairs, open or closed; a fractal
cell's own vertex list serves as its stroke's points.  The
point-tree walks use an explicit stack, so tree depth is not bounded by
the recursion limit.  Layers cycle through the style's palette.  Output
is deterministic: fixed element order and fixed coordinate formatting.

SVG uses fixed 6-decimal coordinates and flips the y axis so figures read
in math orientation.  Ipe files carry no stylesheet and use only the
elements ipe, page, path, use and group, which Ipe 7.2.x opens with its
defaults; coordinates are trimmed to at most 6 decimals.

`svg_chunks` and `ipe_chunks` give a document as chunks: the head, then
up to CHUNK_LINES drawables of one layer at a time, then the tail; and
`emit_svg` and `emit_ipe` join them.  Every check runs when a chunk
generator is made, before its first chunk.  The SVG viewBox comes before
the first path, so the bounds are found first: the scene bbox when there
is one; otherwise the layers are measured, except a fractal dump's cells
(a `CellSequence`), which carry their bounds.  The fractal layer is the
one layer made while it is written, one stroke per cell, so a fractal's
document streams in memory that does not grow with its depth; every
other dump is bounded by its input and is gathered whole.  The fractal
and quadtree modules load only when one of their dumps is drawn, so a
figure of any other structure does not compile them.

Figures repeat coordinates heavily (a depth-5 carpet has 262,144
coordinate slots but about 244 distinct x and 244 distinct y values), so
each document formats every distinct value once, through a memo keyed by
the number that starts over after a chunk once it holds MEMO_LIMIT
entries.  Keys that compare equal print alike in both formats: 0.0 and
-0.0 both print as zero, and an int prints as the float it equals.  Each
path is built as one string.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .core import GeometryError
from .jsontext import TextMemo

if TYPE_CHECKING:
    from .scene import Scene

CHUNK_LINES = 1024

IPE_VERSION = "70218"
IPE_CREATOR = "geoforge"

_IPE_COLORS = {
    "black": "black",
    "red": "1 0 0",
    "blue": "0 0 1",
    "green": "0 1 0",
    "orange": "1 0.647 0",
    "purple": "0.627 0.125 0.941",
}


@dataclass(frozen=True)
class RenderStyle:
    stroke_width: float = 1.0
    mark_radius: float = 2.0
    layer_colors: tuple[str, ...] = ("black", "red", "blue", "green", "orange", "purple")

    def __post_init__(self) -> None:
        if not (self.stroke_width > 0 and self.mark_radius > 0):
            raise GeometryError("stroke width and mark radius must be positive")
        if not self.layer_colors:
            raise GeometryError("palette must not be empty")

    def color(self, layer: int) -> str:
        return self.layer_colors[layer % len(self.layer_colors)]


class Mark(NamedTuple):
    x: float
    y: float


class Stroke(NamedTuple):
    # any sequence of (x, y) pairs, a dump's own lists included
    points: Sequence[Sequence[float]]
    closed: bool


def _closed_stroke(points) -> Stroke:
    return Stroke(points, True)


def _loop_strokes(pts: tuple) -> list:
    """A vertex loop's stroke: closed through three or more points, open
    through two, none for fewer."""
    return [Stroke(pts, len(pts) >= 3)] if len(pts) >= 2 else []


def _rect(x0, y0, x1, y1) -> Stroke:
    return Stroke(((x0, y0), (x1, y0), (x1, y1), (x0, y1)), True)


def _scene_layer(scene: Scene) -> list:
    layer: list = []
    for s in scene.segments:
        layer.append(Stroke(((s.a.x, s.a.y), (s.b.x, s.b.y)), False))
    for poly in scene.polygons:
        layer.append(Stroke(tuple((v.x, v.y) for v in poly.vertices), True))
    for p in scene.points:
        layer.append(Mark(p.x, p.y))
    return layer


def _result_layers(results, scene: Scene) -> list[list]:
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
            return [cells.remade(_closed_stroke)]
        return [[Stroke(cell, True) for cell in cells]]
    if keys == {"bbox", "segments", "extensions", "trapezoids"}:
        return _trapmap_layers(results)
    if keys == {"points", "edges"}:
        pts = results["points"]
        edges = [
            Stroke(((pts[i][0], pts[i][1]), (pts[j][0], pts[j][1])), False)
            for i, j in results["edges"]
        ]
        marks = [Mark(x, y) for x, y in pts]
        return [edges, marks]
    if keys == {"delta", "dupin", "convex_fb", "is_dupin_convex"}:
        return _floating_layers(results)
    if keys == {"triangles", "samples"}:
        return _triangulation_layers(results, scene)
    raise GeometryError("cannot render this dump")


def _onion_layers(layers_data: list) -> list[list]:
    out: list[list] = []
    for layer_pts in layers_data:
        pts = tuple((x, y) for x, y in layer_pts)
        out.append(_loop_strokes(pts) + [Mark(x, y) for x, y in pts])
    return out


def _quadtree_layers(data: dict) -> list[list]:
    lines: list = []
    marks: list = []
    root = data["root"]
    if data["kind"] == "point":
        if root is not None:
            from .quadtree import bounding_square

            sites = list(_point_tree_sites(root))
            bounds = bounding_square([x for x, _ in sites], [y for _, y in sites])
            lines.append(_rect(*bounds))
            _point_tree_lines(root, bounds, lines, marks)
    elif data["kind"] == "pr":
        _pr_tree_lines(root, lines, marks)
    else:
        raise GeometryError("cannot render this dump")
    return [lines, marks]


def _point_tree_sites(root: dict):
    """Sites of a point-tree dump in preorder, walked with an explicit stack."""
    stack = [root]
    while stack:
        node = stack.pop()
        if node is not None:
            yield node["site"]
            stack.extend((node["se"], node["sw"], node["ne"], node["nw"]))


def _point_tree_lines(root: dict, bounds, lines: list, marks: list) -> None:
    # preorder with an explicit stack; children go on in reverse so that
    # nw comes off first
    stack = [(root, bounds)]
    while stack:
        node, (x0, y0, x1, y1) = stack.pop()
        if node is None:
            continue
        sx, sy = node["site"]
        lines.append(Stroke(((sx, y0), (sx, y1)), False))
        lines.append(Stroke(((x0, sy), (x1, sy)), False))
        marks.append(Mark(sx, sy))
        stack.append((node["se"], (sx, y0, x1, sy)))
        stack.append((node["sw"], (x0, y0, sx, sy)))
        stack.append((node["ne"], (sx, sy, x1, y1)))
        stack.append((node["nw"], (x0, sy, sx, y1)))


def _pr_tree_lines(node, lines: list, marks: list) -> None:
    lines.append(_rect(*node["region"]))
    if "points" in node:
        marks.extend(Mark(x, y) for x, y in node["points"])
        return
    for child in node["children"]:
        _pr_tree_lines(child, lines, marks)


def _trapmap_layers(data: dict) -> list[list]:
    base: list = [_rect(*data["bbox"])]
    for (ax, ay), (bx, by) in data["segments"]:
        base.append(Stroke(((ax, ay), (bx, by)), False))
    ext: list = []
    for e in data["extensions"]:
        ox, oy = e["origin"]
        ux, uy = e["up_hit"]
        dx, dy = e["down_hit"]
        ext.append(Stroke(((dx, dy), (ox, oy), (ux, uy)), False))
    return [base, ext]


def _floating_layers(data: dict) -> list[list]:
    dupin = tuple((x, y) for x, y in data["dupin"])
    body = tuple((x, y) for x, y in data["convex_fb"] or ())
    return [_loop_strokes(dupin) or [Mark(x, y) for x, y in dupin], _loop_strokes(body)]


def _triangulation_layers(data: dict, scene: Scene) -> list[list]:
    if not scene.polygons:
        raise GeometryError("cannot render a triangulation without its polygon")
    verts = scene.polygons[0].vertices
    tris: list = []
    for i, j, k in data["triangles"]:
        tris.append(
            Stroke(
                ((verts[i].x, verts[i].y), (verts[j].x, verts[j].y), (verts[k].x, verts[k].y)),
                True,
            )
        )
    marks = [Mark(x, y) for x, y in data["samples"]]
    return [tris, marks]


def _gather_layers(scene: Scene, results) -> list[list]:
    layers = [_scene_layer(scene)] + _result_layers(results, scene)
    if not any(layers):
        raise GeometryError("nothing to render")
    return layers


def _bounds(scene: Scene, layers: list[list]) -> tuple[float, float, float, float]:
    if scene.bbox is not None:
        b = scene.bbox
        return b.xmin, b.ymin, b.xmax, b.ymax
    xs: list[float] = []
    ys: list[float] = []
    for layer in layers:
        if type(layer) is not list:
            # a fractal's CellSequence, which carries its bounds
            x0, y0, x1, y1 = layer.bounds
            xs += (x0, x1)
            ys += (y0, y1)
            continue
        for item in layer:
            if type(item) is Mark:
                xs.append(item.x)
                ys.append(item.y)
            else:
                xs.extend(p[0] for p in item.points)
                ys.extend(p[1] for p in item.points)
    return min(xs), min(ys), max(xs), max(ys)


def _padded(bounds, frac: float = 0.05) -> tuple[float, float, float, float]:
    x0, y0, x1, y1 = bounds
    pad_x = frac * (x1 - x0) if x1 > x0 else 1.0
    pad_y = frac * (y1 - y0) if y1 > y0 else 1.0
    return x0 - pad_x, y0 - pad_y, x1 + pad_x, y1 + pad_y


def _fmt_svg(v: float) -> str:
    s = "%.6f" % v
    return "0.000000" if s == "-0.000000" else s


def _fmt_ipe(v: float) -> str:
    s = ("%.6f" % v).rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


def _batches(layer):
    """The layer's items in lists of at most CHUNK_LINES."""
    items = iter(layer)
    while batch := list(islice(items, CHUNK_LINES)):
        yield batch


def emit_svg(scene: Scene, results=None, style: RenderStyle | None = None) -> str:
    """Render a scene plus an optional structure dump as an SVG document."""
    return "".join(svg_chunks(scene, results, style))


def svg_chunks(scene: Scene, results=None, style: RenderStyle | None = None):
    """The emit_svg document as chunks; every check runs in this call."""
    style = style or RenderStyle()
    layers = _gather_layers(scene, results)
    x0, y0, x1, y1 = _padded(_bounds(scene, layers))
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="%s %s %s %s">'
        % (_fmt_svg(x0), _fmt_svg(y0), _fmt_svg(x1 - x0), _fmt_svg(y1 - y0)),
        '<g transform="matrix(1 0 0 -1 0 %s)">' % _fmt_svg(y0 + y1),
        "",
    ]
    return chain(("\n".join(head),), _svg_body(layers, style), ("</g>\n</svg>\n",))


def _svg_body(layers, style: RenderStyle):
    c = TextMemo(_fmt_svg)
    radius = _fmt_svg(style.mark_radius)
    width = _fmt_svg(style.stroke_width)
    for index, layer in enumerate(layers):
        color = style.color(index)
        for batch in _batches(layer):
            lines = []
            for item in batch:
                if type(item) is Mark:
                    x, y = item
                    lines.append(f'<circle cx="{c[x]}" cy="{c[y]}" r="{radius}" fill="{color}"/>')
                else:
                    ops = [f"L {c[x]} {c[y]}" for x, y in item.points]
                    if ops:
                        ops[0] = "M" + ops[0][1:]
                    if item.closed:
                        ops.append("Z")
                    lines.append(
                        f'<path d="{" ".join(ops)}" fill="none" stroke="{color}" stroke-width="{width}"/>'
                    )
            lines.append("")
            yield "\n".join(lines)
            c.trim()


def emit_ipe(scene: Scene, results=None, style: RenderStyle | None = None) -> str:
    """Render a scene plus an optional structure dump as an Ipe document."""
    return "".join(ipe_chunks(scene, results, style))


def ipe_chunks(scene: Scene, results=None, style: RenderStyle | None = None):
    """The emit_ipe document as chunks; every check runs in this call."""
    style = style or RenderStyle()
    layers = _gather_layers(scene, results)
    head = [
        '<?xml version="1.0"?>',
        '<!DOCTYPE ipe SYSTEM "ipe.dtd">',
        '<ipe version="%s" creator="%s">' % (IPE_VERSION, IPE_CREATOR),
        "<page>",
        "",
    ]
    return chain(("\n".join(head),), _ipe_body(layers, style), ("</page>\n</ipe>\n",))


def _ipe_body(layers, style: RenderStyle):
    c = TextMemo(_fmt_ipe)
    for index, layer in enumerate(layers):
        color = _IPE_COLORS.get(style.color(index), "black")
        path_open = f'<path stroke="{color}">'
        for batch in _batches(layer):
            lines = []
            for item in batch:
                if type(item) is Mark:
                    x, y = item
                    lines.append(
                        f'<use name="mark/disk(sx)" pos="{c[x]} {c[y]}" size="normal" stroke="{color}"/>'
                    )
                else:
                    ops = [f"{c[x]} {c[y]} l" for x, y in item.points]
                    if ops:
                        ops[0] = ops[0][:-1] + "m"
                    if item.closed:
                        ops.append("h")
                    lines.append("\n".join([path_open, *ops, "</path>"]))
            lines.append("")
            yield "\n".join(lines)
            c.trim()
