"""SVG and Ipe emitters: golden fragments, whitelists, determinism."""

from __future__ import annotations

import math
import random
import re
import tracemalloc
import xml.etree.ElementTree as ET
from itertools import chain, islice
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import geomgen
from geoforge import jsontext, render
from geoforge import (
    BBox,
    GeometryError,
    Point,
    Polygon,
    Scene,
    Segment,
    build_point_quadtree,
    build_pr_quadtree,
    build_trapezoidal_map,
    beta_skeleton,
    dupin_floating_body,
    emit_ipe,
    emit_svg,
    onion_decomposition,
    parse_scene,
    sample_points,
    sierpinski_carpet,
    sierpinski_triangle,
    triangulate,
    SampleRequest,
)
from geoforge.beta_skeleton import graph_to_dict
from geoforge.floating_body import result_to_dict
from geoforge.fractals import output_to_dict
from geoforge.onion import layers_to_lists
from geoforge.quadtree import tree_to_dict
from geoforge.trapmap import map_to_dict
from geoforge.triangulation import triangulation_to_dict

IPE_WHITELIST = {"ipe", "page", "path", "use", "group"}


def scene_of_points(*pts):
    return Scene(points=tuple(Point(x, y) for x, y in pts), segments=(), polygons=(), bbox=None)


def test_three_points_make_three_svg_circles():
    svg = emit_svg(scene_of_points((0, 0), (100, 100), (50, 10)), None)
    assert svg.count("<circle") == 3
    ET.fromstring(svg)
    assert svg == emit_svg(scene_of_points((0, 0), (100, 100), (50, 10)), None)


def test_svg_is_y_flipped_via_group_transform():
    svg = emit_svg(scene_of_points((0, 0), (10, 20)), None)
    assert '<g transform="matrix(1 0 0 -1 0 ' in svg
    assert 'version="1.1"' in svg


def test_ipe_header_and_marks():
    ipe = emit_ipe(scene_of_points((0, 0), (100, 100)), None)
    assert ipe.startswith('<?xml version="1.0"?>\n<!DOCTYPE ipe SYSTEM "ipe.dtd">\n')
    root = ET.fromstring(ipe)
    assert root.tag == "ipe"
    assert root.get("version") == "70218"
    assert root.get("creator") == "geoforge"
    assert 'pos="100 100"' in ipe
    assert ipe.count("<use") == 2


def test_ipe_square_path_is_golden():
    sc = parse_scene('{"polygons":[[[0,0],[64,0],[64,64],[0,64]]]}')
    ipe = emit_ipe(sc, None)
    assert "0 0 m\n64 0 l\n64 64 l\n0 64 l\nh" in ipe


def test_every_result_kind_passes_the_ipe_whitelist():
    pts = [Point(10, 10), Point(40, 70), Point(80, 20), Point(60, 60), Point(30, 30)]
    scene_pts = Scene(points=tuple(pts), segments=(), polygons=(), bbox=None)
    sq = Polygon([Point(0, 0), Point(100, 0), Point(100, 100), Point(0, 100)])
    scene_sq = Scene(points=(), segments=(), polygons=(sq,), bbox=None)
    tri = triangulate(sq)
    outputs = [
        (scene_pts, tree_to_dict(build_point_quadtree(pts))),
        (scene_pts, tree_to_dict(build_pr_quadtree(pts, capacity=2))),
        (scene_pts, layers_to_lists(onion_decomposition(pts))),
        (scene_pts, graph_to_dict(beta_skeleton(pts, 1.0))),
        (scene_sq, result_to_dict(dupin_floating_body(sq, 0.1, n_directions=36))),
        (scene_sq, triangulation_to_dict(tri)),
        (scene_sq, triangulation_to_dict(tri, sample_points(tri, SampleRequest(count=5, seed=3)))),
        (scene_sq, output_to_dict(sierpinski_triangle(
            Polygon([Point(0, 0), Point(100, 0), Point(50, 87)]), 2))),
        (scene_sq, output_to_dict(sierpinski_carpet(BBox(0, 0, 81, 81), 2))),
        (
            Scene(points=(), segments=(Segment(Point(10, 40), Point(90, 60)),),
                  polygons=(), bbox=BBox(0, 0, 100, 100)),
            map_to_dict(build_trapezoidal_map(
                [Segment(Point(10, 40), Point(90, 60))], bbox=BBox(0, 0, 100, 100))),
        ),
    ]
    for scene, result in outputs:
        ipe = emit_ipe(scene, result)
        tags = {el.tag for el in ET.fromstring(ipe).iter()}
        assert tags <= IPE_WHITELIST, tags
        svg = emit_svg(scene, result)
        ET.fromstring(svg)
        assert emit_ipe(scene, result) == ipe


def test_fixed_decimals_in_svg():
    svg = emit_svg(scene_of_points((0.1234567, 1.0)), None)
    assert "0.123457" in svg
    assert "-0.000000" not in svg


def test_style_colors_cycle():
    # the scene layer and eight onion layers, one closed square each: layer
    # i is drawn in palette colour i mod 6, in SVG and in Ipe
    layers = [[[-k, -k], [k, -k], [k, k], [-k, k]] for k in range(1, 9)]
    scene = parse_scene('{"polygons":[[[-9,-9],[9,-9],[9,9],[-9,9]]]}')
    svg = re.findall(r'<path d="[^"]*" fill="none" stroke="([^"]*)"', emit_svg(scene, layers))
    ipe = re.findall(r'<path stroke="([^"]*)">', emit_ipe(scene, layers))
    palette = ["black", "red", "blue", "green", "orange", "purple"]
    assert svg == [palette[i % 6] for i in range(9)]
    ipe_palette = ["black", "1 0 0", "0 0 1", "0 1 0", "1 0.647 0", "0.627 0.125 0.941"]
    assert ipe == [ipe_palette[i % 6] for i in range(9)]


def test_nothing_to_render():
    empty = Scene(points=(), segments=(), polygons=(), bbox=None)
    with pytest.raises(GeometryError, match="nothing to render"):
        emit_svg(empty, None)


def test_unknown_result_rejected():
    with pytest.raises(GeometryError, match="cannot render"):
        emit_ipe(scene_of_points((0, 0)), {"surprise": 1})


@pytest.mark.parametrize("results, message", [
    (42, "cannot render results of type 'int'"),
    ({"kind": "octree", "root": None}, "cannot render this dump"),
])
def test_results_that_cannot_be_drawn_are_named(results, message):
    for emit in (emit_svg, emit_ipe):
        with pytest.raises(GeometryError) as err:
            emit(scene_of_points((0, 0)), results)
        assert str(err.value) == message


def test_triangulation_render_needs_its_polygon():
    with pytest.raises(GeometryError, match="polygon"):
        emit_svg(scene_of_points((0, 0)), {"triangles": [[0, 1, 2]], "samples": []})


_SQUARE_SVG = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1"'
    ' viewBox="-0.400000 -0.400000 8.800000 8.800000">\n'
    '<g transform="matrix(1 0 0 -1 0 8.000000)">\n'
    '<path d="M 0.000000 0.000000 L 8.000000 0.000000 L 8.000000 8.000000'
    ' L 0.000000 8.000000 Z" fill="none" stroke="black" stroke-width="1.000000"/>\n'
)
_SQUARE_IPE = (
    '<?xml version="1.0"?>\n<!DOCTYPE ipe SYSTEM "ipe.dtd">\n'
    '<ipe version="70218" creator="geoforge">\n<page>\n'
    '<path stroke="black">\n0 0 m\n8 0 l\n8 8 l\n0 8 l\nh\n</path>\n'
)


def test_dupin_loci_of_one_and_two_directions_are_golden():
    # one direction draws its midpoint as a mark, two an open stroke
    sq = Polygon([Point(0, 0), Point(8, 0), Point(8, 8), Point(0, 8)])
    scene = Scene(points=(), segments=(), polygons=(sq,), bbox=None)
    one = result_to_dict(dupin_floating_body(sq, 0.25, 1))
    two = result_to_dict(dupin_floating_body(sq, 0.25, 2))
    assert emit_svg(scene, one) == _SQUARE_SVG + (
        '<circle cx="6.000000" cy="4.000000" r="2.000000" fill="red"/>\n'
        '<path d="M 0.000000 0.000000 L 6.000000 0.000000 L 6.000000 8.000000'
        ' L 0.000000 8.000000 Z" fill="none" stroke="blue" stroke-width="1.000000"/>\n'
        '</g>\n</svg>\n'
    )
    assert emit_ipe(scene, one) == _SQUARE_IPE + (
        '<use name="mark/disk(sx)" pos="6 4" size="normal" stroke="1 0 0"/>\n'
        '<path stroke="0 0 1">\n0 0 m\n6 0 l\n6 8 l\n0 8 l\nh\n</path>\n'
        '</page>\n</ipe>\n'
    )
    assert emit_svg(scene, two) == _SQUARE_SVG + (
        '<path d="M 6.000000 4.000000 L 2.000000 4.000000" fill="none" stroke="red"'
        ' stroke-width="1.000000"/>\n'
        '<path d="M 2.000000 0.000000 L 6.000000 0.000000 L 6.000000 8.000000'
        ' L 2.000000 8.000000 Z" fill="none" stroke="blue" stroke-width="1.000000"/>\n'
        '</g>\n</svg>\n'
    )
    assert emit_ipe(scene, two) == _SQUARE_IPE + (
        '<path stroke="1 0 0">\n6 4 m\n2 4 l\n</path>\n'
        '<path stroke="0 0 1">\n2 0 m\n6 0 l\n6 8 l\n2 8 l\nh\n</path>\n'
        '</page>\n</ipe>\n'
    )


def test_scene_bbox_drives_the_viewbox():
    sc = Scene(points=(Point(5, 5),), segments=(), polygons=(), bbox=BBox(0, 0, 10, 10))
    svg = emit_svg(sc, None)
    assert 'viewBox="-0.500000 -0.500000 11.000000 11.000000"' in svg


def _strokes(runs) -> list:
    """A layer's runs as the strokes they hold, in drawing order: a pair
    (points, closed) per stroke, its points a tuple of (x, y) pairs."""
    strokes = []
    for n, closed, count, coords, _ in runs:
        values = iter(coords)
        for _ in range(count):
            flat = list(islice(values, 2 * n))
            strokes.append((tuple(zip(flat[0::2], flat[1::2])), closed))
    return strokes


# The emitters as they were before the per-document coordinate memo: one
# format call per coordinate, one line per Ipe path operator.  They share
# only the layer gathering and the bounds with the package.


def _reference_fmt_svg(v: float) -> str:
    s = "%.6f" % v
    return "0.000000" if s == "-0.000000" else s


def _reference_fmt_ipe(v: float) -> str:
    s = ("%.6f" % v).rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


def _reference_svg(scene, results) -> str:
    f = _reference_fmt_svg
    layers = render._gather_layers(scene, results)
    x0, y0, x1, y1 = render._padded(render._bounds(scene, layers))
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="%s %s %s %s">'
        % (f(x0), f(y0), f(x1 - x0), f(y1 - y0)),
        '<g transform="matrix(1 0 0 -1 0 %s)">' % f(y0 + y1),
    ]
    # each layer is its strokes, then its marks: (x, y) pairs
    for index, (runs, marks) in enumerate(layers):
        color = render._PALETTE[index % len(render._PALETTE)][0]
        for points, closed in _strokes(runs):
            parts = []
            for i, (px, py) in enumerate(points):
                parts.append("%s %s %s" % ("M" if i == 0 else "L", f(px), f(py)))
            if closed:
                parts.append("Z")
            lines.append(
                '<path d="%s" fill="none" stroke="%s" stroke-width="%s"/>'
                % (" ".join(parts), color, f(1.0))
            )
        for x, y in marks:
            lines.append(
                '<circle cx="%s" cy="%s" r="%s" fill="%s"/>'
                % (f(x), f(y), f(2.0), color)
            )
    lines += ["</g>", "</svg>"]
    return "\n".join(lines) + "\n"


def _reference_ipe(scene, results) -> str:
    f = _reference_fmt_ipe
    layers = render._gather_layers(scene, results)
    lines = [
        '<?xml version="1.0"?>',
        '<!DOCTYPE ipe SYSTEM "ipe.dtd">',
        '<ipe version="70218" creator="geoforge">',
        "<page>",
    ]
    for index, (runs, marks) in enumerate(layers):
        color = render._PALETTE[index % len(render._PALETTE)][1]
        for points, closed in _strokes(runs):
            lines.append('<path stroke="%s">' % color)
            for i, (px, py) in enumerate(points):
                lines.append("%s %s %s" % (f(px), f(py), "m" if i == 0 else "l"))
            if closed:
                lines.append("h")
            lines.append("</path>")
        for x, y in marks:
            lines.append(
                '<use name="mark/disk(sx)" pos="%s %s" size="normal" stroke="%s"/>'
                % (f(x), f(y), color)
            )
    lines += ["</page>", "</ipe>"]
    return "\n".join(lines) + "\n"


# values that print alike after rounding, the two zeros, and negatives that
# round to zero: a memo that conflates keys or loses the "-0" fix differs
_TRICKY = [0.0, -0.0, -4e-7, -5e-7, 2.5e-7, 1e6, -1e6, 123.4500001, -123.4500001, 123.45, 0.5]


def test_emitters_match_per_coordinate_formatting_on_tricky_values():
    pts = [Point(x, y) for x in _TRICKY for y in _TRICKY[::-1]]
    scene = Scene(points=tuple(pts[:30]), segments=(), polygons=(), bbox=None)
    layers = [[[x, y] for x, y in zip(_TRICKY, _TRICKY[3:] + _TRICKY[:3])], [[-0.0, 0], [0, -0.0]]]
    cells = {"kind": "carpet", "depth": 1, "cells": [
        [[0, 0], [1e6, -0.0], [-5e-7, 2.5e-7], [-4e-7, 123.4500001]],
        [[0.0, -0.0], [-0.0, 0.0], [123.45, -123.4500001]],
        [],
    ]}
    sites = [Point(x, i) for i, x in enumerate(_TRICKY)] + [
        Point(i + 0.5, y) for i, y in enumerate(_TRICKY)
    ]
    tree = tree_to_dict(build_point_quadtree(sites))
    boxed = Scene(points=scene.points, segments=(), polygons=(), bbox=BBox(-1e6, -0.0, 1e6, 2.5e-7))
    for sc, results in [(scene, None), (scene, layers), (scene, cells), (scene, tree),
                        (boxed, layers), (boxed, tree)]:
        assert emit_svg(sc, results) == _reference_svg(sc, results)
        assert emit_ipe(sc, results) == _reference_ipe(sc, results)
    svg = emit_svg(scene, layers)
    assert "-0.000000" not in svg and "123.450000" in svg


_coords = st.sampled_from(_TRICKY) | st.floats(-1e6, 1e6) | st.integers(-1000, 1000)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.tuples(_coords, _coords), min_size=1, max_size=8),
    st.lists(st.lists(st.tuples(_coords, _coords).map(list), max_size=6), max_size=4),
)
def test_emitters_match_per_coordinate_formatting(scene_pts, layers):
    scene = Scene(points=tuple(Point(x, y) for x, y in scene_pts), segments=(), polygons=(),
                  bbox=None)
    assert emit_svg(scene, layers) == _reference_svg(scene, layers)
    assert emit_ipe(scene, layers) == _reference_ipe(scene, layers)


FIXTURES = Path(__file__).parent / "fixtures"


def _all_layers_bounds(scene, layers):
    """The bounds as found before the writers streamed: every layer measured."""
    if scene.bbox is not None:
        b = scene.bbox
        return b.xmin, b.ymin, b.xmax, b.ymax
    xs: list = []
    ys: list = []
    for runs, marks in layers:
        for points, _ in _strokes(runs):
            xs.extend(p[0] for p in points)
            ys.extend(p[1] for p in points)
        for x, y in marks:
            xs.append(x)
            ys.append(y)
    return min(xs), min(ys), max(xs), max(ys)


def _viewbox(svg: str) -> str:
    return re.search(r'viewBox="([^"]*)"', svg).group(1)


def _fractal_cases():
    tri_scene = parse_scene((FIXTURES / "sierpinski-triangle.json").read_text())
    carpet_scene = parse_scene((FIXTURES / "sierpinski-carpet.json").read_text())
    tri = output_to_dict(sierpinski_triangle(tri_scene.polygons[0], 3))
    carpet = output_to_dict(sierpinski_carpet(carpet_scene.bbox, 2))
    # without a scene bbox, and with scene geometry on either side of the cells
    unboxed = Scene(points=(Point(40, 50),), segments=(), polygons=(), bbox=None)
    wide = Scene(points=(Point(-3, 70), Point(100, -1)), segments=(), polygons=tri_scene.polygons,
                 bbox=None)
    lopsided = output_to_dict(sierpinski_triangle(
        Polygon([Point(0.1, 0.7), Point(1e6, -3.3), Point(-2.5e5, 999999.9)]), 5))
    return [(tri_scene, tri), (carpet_scene, carpet), (unboxed, carpet), (wide, tri),
            (unboxed, lopsided)]


def test_streamed_viewbox_equals_the_bounds_of_every_layer():
    for scene, dump in _fractal_cases():
        # a fractal's run is drawn once, so each look gathers the layers anew
        walked = _all_layers_bounds(scene, render._gather_layers(scene, dump))
        expect = render._padded(walked)
        assert render._bounds(scene, render._gather_layers(scene, dump)) == walked
        f = _reference_fmt_svg
        x0, y0, x1, y1 = expect
        assert _viewbox(emit_svg(scene, dump)) == "%s %s %s %s" % (
            f(x0), f(y0), f(x1 - x0), f(y1 - y0))
        # the cells given as plain lists are measured, and draw the same
        plain = dict(dump, cells=[list(cell) for cell in dump["cells"]])
        assert emit_svg(scene, plain) == emit_svg(scene, dump) == _reference_svg(scene, plain)
        assert emit_ipe(scene, plain) == emit_ipe(scene, dump) == _reference_ipe(scene, plain)


def test_cells_of_polygons_draw_as_the_dump_does():
    scene = parse_scene((FIXTURES / "sierpinski-carpet.json").read_text())
    for out in (sierpinski_carpet(scene.bbox, 2), sierpinski_triangle(
            Polygon([Point(0.1, 0.7), Point(1e6, -3.3), Point(-2.5e5, 999999.9)]), 3)):
        dump = output_to_dict(out)
        polygons = dict(dump, cells=out.cells)
        assert emit_svg(scene, polygons) == emit_svg(scene, dump)
        assert emit_ipe(scene, polygons) == emit_ipe(scene, dump)


def test_quadtree_frames_carry_the_bounds_of_their_lines():
    # the point tree's lines lie in its bounding square and the PR tree's in
    # its root region, so each of their runs carries that frame as its bounds
    # and _bounds reads it instead of every line
    rng = random.Random(2027)
    unboxed = Scene(points=(), segments=(), polygons=(), bbox=None)
    for trial in range(20):
        n = rng.randint(1, 500)
        pts = [Point(x, y) for x, y in dict.fromkeys(
            (round(rng.uniform(-50, 80), 3), round(rng.uniform(-9, 300), 3)) for _ in range(n))]
        for tree in (build_point_quadtree(pts), build_pr_quadtree(pts, capacity=1 + trial % 4)):
            layers = render._gather_layers(unboxed, tree_to_dict(tree))
            runs = layers[1][0]
            walked = [p for points, _ in _strokes(runs) for p in points]
            assert {run[4] for run in runs} == {(
                min(x for x, _ in walked), min(y for _, y in walked),
                max(x for x, _ in walked), max(y for _, y in walked))}
            assert render._bounds(unboxed, layers) == _all_layers_bounds(unboxed, layers)


def _pr_tree_lines_reference(node, lines, marks):
    x0, y0, x1, y1 = node["region"]
    lines.append((((x0, y0), (x1, y0), (x1, y1), (x0, y1)), True))
    if "points" in node:
        marks.extend(node["points"])
    else:
        for child in node["children"]:
            _pr_tree_lines_reference(child, lines, marks)


def test_pr_figure_makes_no_call_per_node():
    # a recursive walk with a call per node and one per rectangle made 6,139
    # calls on this dump
    rng = random.Random(4000)
    pts = [Point(x, y) for x, y in geomgen.random_points(rng, 4000, 0.0, 1000.0)]
    dump = tree_to_dict(build_pr_quadtree(pts, capacity=4))
    lines, marks = [], []
    _pr_tree_lines_reference(dump["root"], lines, marks)
    assert len(lines) > 2000
    (runs, no_marks), layer = render._quadtree_layers(dump)
    assert (_strokes(runs), no_marks, layer) == (lines, [], ([], marks))
    assert geomgen.python_calls(render._quadtree_layers, dump) <= 5


def test_chunks_join_to_the_document_and_stay_bounded():
    scene = Scene(points=(Point(1, 2),), segments=(), polygons=(), bbox=BBox(0, 0, 81, 81))
    dump = output_to_dict(sierpinski_carpet(scene.bbox, 4))
    n = render.CHUNK_LINES
    for chunks, whole in [(render.svg_chunks(scene, dump), emit_svg(scene, dump)),
                          (render.ipe_chunks(scene, dump), emit_ipe(scene, dump))]:
        chunks = list(chunks)
        assert "".join(chunks) == whole
        # the head, the scene's one mark, n cells at a time, the tail
        assert len(chunks) == 3 + -(-len(dump["cells"]) // n)
        assert all(c.endswith("\n") for c in chunks)
    svg = list(render.svg_chunks(scene, dump))
    assert [c.count("\n") for c in svg[2:-1]] == [n] * (len(svg) - 3)


def test_chunk_generators_check_before_the_first_chunk():
    empty = Scene(points=(), segments=(), polygons=(), bbox=None)
    for make in (render.svg_chunks, render.ipe_chunks):
        with pytest.raises(GeometryError, match="nothing to render"):
            make(empty, None)
        with pytest.raises(GeometryError, match="cannot render"):
            make(scene_of_points((0, 0)), {"surprise": 1})


def test_small_chunks_and_a_memo_that_starts_over_draw_the_same(monkeypatch):
    sites = [Point(x, i) for i, x in enumerate(_TRICKY)] + [
        Point(i + 0.5, y) for i, y in enumerate(_TRICKY)
    ]
    scene = Scene(points=tuple(sites), segments=(), polygons=(), bbox=None)
    tree = tree_to_dict(build_point_quadtree(sites))
    cells = output_to_dict(sierpinski_triangle(Polygon([Point(0.1, 0), Point(1, 0.3),
                                                        Point(0.2, 0.9)]), 3))
    expect = [(emit_svg(scene, r), emit_ipe(scene, r)) for r in (tree, cells)]
    monkeypatch.setattr(jsontext, "MEMO_LIMIT", 3)
    monkeypatch.setattr(render, "CHUNK_LINES", 2)
    for (svg, ipe), results in zip(expect, (tree, cells)):
        chunks = list(render.svg_chunks(scene, results))
        assert len(chunks) > 10 and "".join(chunks) == svg == _reference_svg(scene, results)
        assert emit_ipe(scene, results) == ipe == _reference_ipe(scene, results)


def _carpet_figure():
    box = BBox(0, 0, 243, 243)
    return Scene(points=(), segments=(), polygons=(), bbox=box), output_to_dict(
        sierpinski_carpet(box, 5))


def _tree_figure(build):
    pts = [Point(x, y) for x, y in geomgen.random_points(random.Random(8000), 8000, 0.0, 1000.0)]
    return Scene(points=tuple(pts), segments=(), polygons=(), bbox=None), tree_to_dict(build(pts))


def test_figures_make_no_call_per_stroke_or_mark():
    # a batch of strokes or marks is one "%", so the calls are a few per
    # chunk plus one per memo miss: one per distinct value the memo formats,
    # the strokes' values in SVG, and the marks' too in Ipe.  A list
    # comprehension per stroke made 98,669 calls on the carpet's SVG and
    # 6,220 on the PR tree's.
    carpet = _carpet_figure()
    # the carpet's cells come from a generator, which resumes once per cell
    cells = len(carpet[1]["cells"]) + 1
    pr_tree = _tree_figure(lambda pts: build_pr_quadtree(pts, capacity=4))
    for (scene, dump), walk in [(carpet, cells), (pr_tree, 0)]:
        layers = render._gather_layers(scene, dump)
        stroked = {v for runs, _ in layers for points, _ in _strokes(runs) for p in points for v in p}
        marked = {v for _, marks in layers for p in marks for v in p}
        for chunks, emit, memo in [(render.svg_chunks, emit_svg, stroked),
                                   (render.ipe_chunks, emit_ipe, stroked | marked)]:
            batches = len(list(chunks(scene, dump)))
            assert batches < 40
            # the SVG head formats four values of its own
            assert geomgen.python_calls(emit, scene, dump) <= walk + 6 * batches + len(memo) + 4


def _streaming_peak(chunks, scene, dump) -> int:
    tracemalloc.start()
    try:
        for _ in chunks(scene, dump):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streaming_a_quadtree_figure_holds_its_runs_flat():
    # strokes held as tuples of point tuples peaked at 6.2 MB on the point
    # tree in both formats, and at 3.1 MB on the PR tree's SVG; flat runs
    # take 2.9 and 1.5 MB
    point_tree = _tree_figure(build_point_quadtree)
    assert _streaming_peak(render.svg_chunks, *point_tree) < 4_000_000
    assert _streaming_peak(render.ipe_chunks, *point_tree) < 4_000_000
    pr_tree = _tree_figure(lambda pts: build_pr_quadtree(pts, capacity=4))
    assert _streaming_peak(render.svg_chunks, *pr_tree) < 2_200_000
    # the marks are read where they lie: the SVG of 50,000 samples streams in
    # 0.2 MB, where two lists of their coordinates alone would take 0.8 MB
    scene = parse_scene('{"polygons":[[[0,0],[100,0],[100,100],[0,100]]]}')
    tri = triangulate(scene.polygons[0])
    samples = triangulation_to_dict(tri, sample_points(tri, SampleRequest(count=50000, seed=7)))
    assert _streaming_peak(render.svg_chunks, scene, samples) < 500_000


def _svg_doc(viewbox: str, flip: str, *lines: str) -> str:
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="%s">\n'
        '<g transform="matrix(1 0 0 -1 0 %s)">\n' % (viewbox, flip)
        + "".join(line + "\n" for line in lines) + "</g>\n</svg>\n"
    )


def _ipe_doc(*lines: str) -> str:
    return (
        '<?xml version="1.0"?>\n<!DOCTYPE ipe SYSTEM "ipe.dtd">\n'
        '<ipe version="70218" creator="geoforge">\n<page>\n'
        + "".join(line + "\n" for line in lines) + "</page>\n</ipe>\n"
    )


_STROKE = ' fill="none" stroke="%s" stroke-width="1.000000"/>'
_CIRCLE = '<circle cx="%s" cy="%s" r="2.000000" fill="%s"/>'
_USE = '<use name="mark/disk(sx)" pos="%s" size="normal" stroke="%s"/>'

# small figures at the edges of the layer shapes, with the bytes the
# per-stroke writers gave them
_EDGE_FIGURES = {
    # an empty cell draws a lone close, and a one-point cell one point and a close
    "cells": (
        scene_of_points((1, 1)),
        {"kind": "carpet", "depth": 1,
         "cells": [[], [[2, 0.5]], [[3, 0.5]], [[0, 0], [4, 0], [4, 3]], []]},
        _svg_doc(
            "-0.200000 -0.150000 4.400000 3.300000", "3.000000",
            _CIRCLE % ("1.000000", "1.000000", "black"),
            '<path d="Z"' + _STROKE % "red",
            '<path d="M 2.000000 0.500000 Z"' + _STROKE % "red",
            '<path d="M 3.000000 0.500000 Z"' + _STROKE % "red",
            '<path d="M 0.000000 0.000000 L 4.000000 0.000000 L 4.000000 3.000000 Z"'
            + _STROKE % "red",
            '<path d="Z"' + _STROKE % "red",
        ),
        _ipe_doc(
            _USE % ("1 1", "black"),
            '<path stroke="1 0 0">', "h", "</path>",
            '<path stroke="1 0 0">', "2 0.5 m", "h", "</path>",
            '<path stroke="1 0 0">', "3 0.5 m", "h", "</path>",
            '<path stroke="1 0 0">', "0 0 m", "4 0 l", "4 3 l", "h", "</path>",
            '<path stroke="1 0 0">', "h", "</path>",
        ),
    ),
    # a one-point onion layer is a mark and no stroke
    "onion": (
        scene_of_points(),
        [[[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0]], [[1.0, 3.0]]],
        _svg_doc(
            "-0.200000 -0.200000 4.400000 4.400000", "4.000000",
            '<path d="M 0.000000 0.000000 L 4.000000 0.000000 L 4.000000 4.000000'
            ' L 0.000000 4.000000 Z"' + _STROKE % "red",
            _CIRCLE % ("0.000000", "0.000000", "red"),
            _CIRCLE % ("4.000000", "0.000000", "red"),
            _CIRCLE % ("4.000000", "4.000000", "red"),
            _CIRCLE % ("0.000000", "4.000000", "red"),
            _CIRCLE % ("1.000000", "3.000000", "blue"),
        ),
        _ipe_doc(
            '<path stroke="1 0 0">', "0 0 m", "4 0 l", "4 4 l", "0 4 l", "h", "</path>",
            _USE % ("0 0", "1 0 0"),
            _USE % ("4 0", "1 0 0"),
            _USE % ("4 4", "1 0 0"),
            _USE % ("0 4", "1 0 0"),
            _USE % ("1 3", "0 0 1"),
        ),
    ),
    # a map of no segments is its box alone
    "trapmap": (
        scene_of_points(),
        map_to_dict(build_trapezoidal_map([], bbox=BBox(0, 0, 4, 3))),
        _svg_doc(
            "-0.200000 -0.150000 4.400000 3.300000", "3.000000",
            '<path d="M 0.000000 0.000000 L 4.000000 0.000000 L 4.000000 3.000000'
            ' L 0.000000 3.000000 Z"' + _STROKE % "red",
        ),
        _ipe_doc('<path stroke="1 0 0">', "0 0 m", "4 0 l", "4 3 l", "0 3 l", "h", "</path>"),
    ),
    "beta-skeleton": (
        scene_of_points((1, 2)),
        {"points": [[1, 2], [3, 4]], "edges": []},
        _svg_doc(
            "0.900000 1.900000 2.200000 2.200000", "6.000000",
            _CIRCLE % ("1.000000", "2.000000", "black"),
            _CIRCLE % ("1.000000", "2.000000", "blue"),
            _CIRCLE % ("3.000000", "4.000000", "blue"),
        ),
        _ipe_doc(
            _USE % ("1 2", "black"),
            _USE % ("1 2", "0 0 1"),
            _USE % ("3 4", "0 0 1"),
        ),
    ),
    # -0.0 and what rounds to it print as zero; ints print as the floats they equal
    "signs": (
        Scene(points=(Point(-0.0, 1e6), Point(-1e6, -4e-7)),
              segments=(Segment(Point(-0.0, 3), Point(2, -0.0)),),
              polygons=(Polygon([Point(0, 0), Point(5, 0), Point(5, 5)]),), bbox=None),
        [[[-0.0, -1e6], [1e6, 0], [0, 7]]],
        _svg_doc(
            "-1100000.000000 -1100000.000000 2200000.000000 2200000.000000", "0.000000",
            '<path d="M 0.000000 3.000000 L 2.000000 0.000000"' + _STROKE % "black",
            '<path d="M 0.000000 0.000000 L 5.000000 0.000000 L 5.000000 5.000000 Z"'
            + _STROKE % "black",
            _CIRCLE % ("0.000000", "1000000.000000", "black"),
            _CIRCLE % ("-1000000.000000", "0.000000", "black"),
            '<path d="M 0.000000 -1000000.000000 L 1000000.000000 0.000000'
            ' L 0.000000 7.000000 Z"' + _STROKE % "red",
            _CIRCLE % ("0.000000", "-1000000.000000", "red"),
            _CIRCLE % ("1000000.000000", "0.000000", "red"),
            _CIRCLE % ("0.000000", "7.000000", "red"),
        ),
        _ipe_doc(
            '<path stroke="black">', "0 3 m", "2 0 l", "</path>",
            '<path stroke="black">', "0 0 m", "5 0 l", "5 5 l", "h", "</path>",
            _USE % ("0 1000000", "black"),
            _USE % ("-1000000 0", "black"),
            '<path stroke="1 0 0">', "0 -1000000 m", "1000000 0 l", "0 7 l", "h", "</path>",
            _USE % ("0 -1000000", "1 0 0"),
            _USE % ("1000000 0", "1 0 0"),
            _USE % ("0 7", "1 0 0"),
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(_EDGE_FIGURES))
def test_edge_figures_keep_their_bytes(name, monkeypatch):
    scene, results, svg, ipe = _EDGE_FIGURES[name]
    assert emit_svg(scene, results) == svg
    assert emit_ipe(scene, results) == ipe
    # and so in chunks of two lines, with a memo that starts over after three values
    monkeypatch.setattr(jsontext, "MEMO_LIMIT", 3)
    monkeypatch.setattr(render, "CHUNK_LINES", 2)
    assert "".join(render.svg_chunks(scene, results)) == svg
    assert "".join(render.ipe_chunks(scene, results)) == ipe
