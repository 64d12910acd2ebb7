"""SVG and Ipe figure output.

Both emitters consume the same layers: the scene's own geometry first,
then layers extracted from a structure dump (the plain-data form each
module produces).  A layer is a pair (runs, marks), drawn in that order
in one colour.  A run is a tuple (n, closed, count, coords, bounds):
`count` strokes of one shape, n points each and closed or not, whose
coordinates are one flat sequence x0, y0, x1, y1, ... in drawing order.
The count is carried, so a run of zero-point strokes (an empty cell of a
plain-list cells dump, drawn as a lone close) keeps its strokes.  Where
the producer knows the bounds of a run they are its `bounds`, and the run
is not measured: a fractal's cells (its flat view's bounds), a point
quadtree's lines (its bounding square, which it draws first) and a PR
quadtree's regions (its root region); every other run has None there.
A mark is any (x, y) pair, so the points of a dump (its [x, y] lists, or
a triangulation's sample pairs) are the marks as they are, with nothing
made per point.  The dump walks add each stroke's coordinates to its run
with no tuple kept per stroke or point, and the point-tree walks use an
explicit stack, so tree depth is not bounded by the recursion limit.
Layers cycle through one fixed palette.  Output is deterministic: fixed
element order and fixed coordinate formatting.

SVG uses fixed 6-decimal coordinates and flips the y axis so figures read
in math orientation.  Ipe files carry no stylesheet and use only the
elements ipe, page, path, use and group, which Ipe 7.2.x opens with its
defaults; coordinates are trimmed to at most 6 decimals.

`svg_chunks` and `ipe_chunks` give a document as chunks: the head, then
up to CHUNK_LINES strokes of one run or marks of one layer at a time,
then the tail; and `emit_svg` and `emit_ipe` join them.  A chunk of
strokes is one template, the run's stroke repeated for the batch, filled
by one "%" over the batch's coordinate texts; a chunk of marks takes the
next CHUNK_LINES pairs and flattens them in the same way.  Every check
runs when a chunk generator is made, before its first chunk.  The SVG
viewBox comes before the first path, so the bounds are found first: the
scene bbox when there is one; otherwise each run's bounds, measured over
its coordinates where it carries none, and each layer's marks, by min and
max over each coordinate.  A fractal's run is its cells' flat view
(`fractals.CellSequence`: `corners`, `coords()`, `bounds`), read one batch
at a time while it is written (so gathered layers draw once), and a
fractal's document streams in memory that does not grow with its depth;
every other dump is bounded by its input and is gathered whole.  The
quadtree module loads only when a point-tree dump is drawn, so a figure
of any other structure does not compile it.

Figures repeat coordinates heavily (a depth-5 carpet has 262,144
coordinate slots but about 244 distinct x and 244 distinct y values), so
strokes, Ipe marks and the SVG head format every distinct value once per
document, through a memo keyed by the number that starts over after a
chunk once it holds MEMO_LIMIT entries; a miss is one Python call, the
memo's `__missing__`.  Keys that compare equal print alike in both
formats: 0.0 and -0.0 both print as zero, and an int prints as the float
it equals.  SVG marks skip the memo: their template holds "%.6f" for
each coordinate, with -0.000000 then written as 0.000000, since the
points that marks draw (samples above all) seldom repeat.  Ipe marks keep
it, because the scene layer and a structure's layers draw the same input
points twice.
"""

from __future__ import annotations

from itertools import chain, groupby, islice
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING

from .core import GeometryError
from .jsontext import TextMemo

if TYPE_CHECKING:
    from .scene import Scene

CHUNK_LINES = 1024

_X = itemgetter(0)
_Y = itemgetter(1)
_flat = chain.from_iterable
# a box (x0, y0, x1, y1) as its rectangle's corners, counterclockwise from (x0, y0)
_RECT = itemgetter(0, 1, 2, 1, 2, 3, 0, 3)
_XY = attrgetter("x", "y")
_SEGMENT = attrgetter("a.x", "a.y", "b.x", "b.y")
_EXTENSION = itemgetter("down_hit", "origin", "up_hit")

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


def _runs(n: int, closed: bool, coords, bounds=None) -> list:
    """The strokes of n >= 1 points each in the flat `coords`, as one run,
    or as none when there are no strokes."""
    return [(n, closed, len(coords) // (2 * n), coords, bounds)] if coords else []


def _outline(pts) -> list:
    """A vertex loop's stroke: closed through three or more points, open
    through two, none for fewer."""
    return _runs(len(pts), len(pts) >= 3, list(_flat(pts))) if len(pts) >= 2 else []


def _loop_runs(loops) -> list:
    """One closed stroke per sequence of (x, y) pairs in `loops`, a run per
    stretch of sequences of one length (which may be 0 or 1)."""
    runs = []
    for n, group in groupby(loops, len):
        group = list(group)
        runs.append((n, True, len(group), list(_flat(_flat(group))), None))
    return runs


def _scene_layer(scene: Scene) -> tuple:
    runs = _runs(2, False, list(_flat(map(_SEGMENT, scene.segments))))
    runs += _loop_runs([list(map(_XY, poly.vertices)) for poly in scene.polygons])
    return runs, list(map(_XY, scene.points))


def _result_layers(results, scene: Scene) -> list[tuple]:
    if results is None:
        return []
    if isinstance(results, list):
        return [(_outline(pts), pts) for pts in results]
    if not isinstance(results, dict):
        raise GeometryError("cannot render results of type %r" % type(results).__name__)
    keys = set(results)
    if keys == {"kind", "root"}:
        return _quadtree_layers(results)
    if keys == {"kind", "depth", "cells"}:
        cells = results["cells"]
        if hasattr(cells, "coords"):
            # a fractal's flat view, made while it is written
            return [([(cells.corners, True, len(cells), cells.coords(), cells.bounds)], [])]
        return [(_loop_runs(cells), [])]
    if keys == {"bbox", "segments", "extensions", "trapezoids"}:
        base = _runs(4, True, _RECT(results["bbox"]))
        base += _runs(2, False, list(_flat(_flat(results["segments"]))))
        ext = list(_flat(_flat(map(_EXTENSION, results["extensions"]))))
        return [(base, []), (_runs(3, False, ext), [])]
    if keys == {"points", "edges"}:
        pts = results["points"]
        edges = list(_flat(map(pts.__getitem__, _flat(results["edges"]))))
        return [(_runs(2, False, edges), []), ([], pts)]
    if keys == {"delta", "dupin", "convex_fb", "is_dupin_convex"}:
        dupin = results["dupin"]
        outline = _outline(dupin)
        return [(outline, [] if outline else dupin), (_outline(results["convex_fb"] or ()), [])]
    if keys == {"triangles", "samples"}:
        if not scene.polygons:
            raise GeometryError("cannot render a triangulation without its polygon")
        verts = list(map(_XY, scene.polygons[0].vertices))
        tris = list(_flat(map(verts.__getitem__, _flat(results["triangles"]))))
        return [(_runs(3, True, tris), []), ([], results["samples"])]
    raise GeometryError("cannot render this dump")


def _quadtree_layers(data: dict) -> list[tuple]:
    runs: list = []
    marks: list = []
    root = data["root"]
    if data["kind"] == "point":
        if root is not None:
            from .quadtree import bounding_square

            # the sites in preorder are the marks
            marks = _point_tree_sites(root)
            bounds = bounding_square(list(map(_X, marks)), list(map(_Y, marks)))
            runs = _runs(4, True, _RECT(bounds), bounds)
            runs += _runs(2, False, _point_tree_lines(root, bounds), bounds)
    elif data["kind"] == "pr":
        runs = _runs(4, True, _pr_tree_regions(root, marks), tuple(root["region"]))
    else:
        raise GeometryError("cannot render this dump")
    return [(runs, []), ([], marks)]


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


def _point_tree_lines(root: dict, bounds) -> list:
    """The coordinates of the tree's lines, two per node through its site."""
    # preorder with an explicit stack; children go on in reverse so that
    # nw comes off first, and an empty quadrant draws nothing
    coords: list = []
    stack = [(root, bounds)]
    push = stack.append
    while stack:
        node, (x0, y0, x1, y1) = stack.pop()
        sx, sy = node["site"]
        coords += sx, y0, sx, y1, x0, sy, x1, sy
        if (child := node["se"]) is not None:
            push((child, (sx, y0, x1, sy)))
        if (child := node["sw"]) is not None:
            push((child, (x0, y0, sx, sy)))
        if (child := node["ne"]) is not None:
            push((child, (sx, sy, x1, y1)))
        if (child := node["nw"]) is not None:
            push((child, (x0, sy, sx, y1)))
    return coords


def _pr_tree_regions(root: dict, marks: list) -> list:
    """The coordinates of every node's region rectangle; the leaves' points
    go on `marks`."""
    # preorder with an explicit stack; children go on in reverse so that
    # the first comes off first
    coords: list = []
    stack = [root]
    while stack:
        node = stack.pop()
        coords += _RECT(node["region"])
        if "points" in node:
            marks += node["points"]
        else:
            stack += reversed(node["children"])
    return coords


def _gather_layers(scene: Scene, results) -> list[tuple]:
    layers = [_scene_layer(scene)] + _result_layers(results, scene)
    if not any(runs or marks for runs, marks in layers):
        raise GeometryError("nothing to render")
    return layers


def _bounds(scene: Scene, layers: list[tuple]) -> tuple[float, float, float, float]:
    if scene.bbox is not None:
        b = scene.bbox
        return b.xmin, b.ymin, b.xmax, b.ymax
    boxes = []
    for runs, marks in layers:
        for _, _, _, coords, bounds in runs:
            if bounds is None and coords:
                xs = coords[0::2]
                ys = coords[1::2]
                bounds = min(xs), min(ys), max(xs), max(ys)
            if bounds is not None:
                boxes.append(bounds)
        if marks:
            # four passes, so that the marks are never copied
            boxes.append((min(map(_X, marks)), min(map(_Y, marks)),
                          max(map(_X, marks)), max(map(_Y, marks))))
    x0s, y0s, x1s, y1s = zip(*boxes)
    return min(x0s), min(y0s), max(x1s), max(y1s)


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


def _stroke_chunks(stroke: str, run: tuple, c: TextMemo):
    """The run's strokes, CHUNK_LINES at a time; `stroke` is one stroke's
    template, with a "%s" for each of its coordinates."""
    n, _, count, coords, _ = run
    texts = map(c.__getitem__, coords)
    for done in range(0, count, CHUNK_LINES):
        k = min(CHUNK_LINES, count - done)
        yield (stroke * k) % tuple(islice(texts, 2 * n * k))
        c.trim()


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
    for index, (runs, marks) in enumerate(layers):
        color = _PALETTE[index % len(_PALETTE)][0]
        for run in runs:
            n, closed = run[:2]
            ops = (["M %s %s"] + ["L %s %s"] * (n - 1)) if n else []
            if closed:
                ops.append("Z")
            stroke = '<path d="%s" fill="none" stroke="%s" stroke-width="1.000000"/>\n' % (
                " ".join(ops), color)
            yield from _stroke_chunks(stroke, run, c)
        # of the attribute values only cx, cy and r are followed by a space,
        # and r is the fixed 2.000000
        circle = '<circle cx="%%.6f" cy="%%.6f" r="2.000000" fill="%s"/>\n' % color
        points = iter(marks)
        while batch := tuple(_flat(islice(points, CHUNK_LINES))):
            text = (circle * (len(batch) // 2)) % batch
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
    for index, (runs, marks) in enumerate(layers):
        color = _PALETTE[index % len(_PALETTE)][1]
        for run in runs:
            n, closed = run[:2]
            ops = ("%s %s m\n" + "%s %s l\n" * (n - 1) if n else "") + ("h\n" if closed else "")
            yield from _stroke_chunks('<path stroke="%s">\n%s</path>\n' % (color, ops), run, c)
        use = '<use name="mark/disk(sx)" pos="%%s %%s" size="normal" stroke="%s"/>\n' % color
        points = iter(marks)
        while batch := tuple(map(c.__getitem__, _flat(islice(points, CHUNK_LINES)))):
            yield (use * (len(batch) // 2)) % batch
            c.trim()
