"""Sierpinski triangle and carpet generators."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from geoforge import (
    BBox,
    FractalKind,
    GeometryError,
    Point,
    PointLocation,
    Polygon,
    point_in_polygon,
    polygon_area,
    sierpinski_carpet,
    sierpinski_triangle,
)
from geoforge.fractals import CARPET_MAX_DEPTH, TRIANGLE_MAX_DEPTH, CellSequence, output_to_dict

EQUILATERAL = Polygon([Point(0, 0), Point(1, 0), Point(0.5, math.sqrt(3) / 2)])


def test_triangle_counts_and_areas():
    base = polygon_area(EQUILATERAL)
    for depth in range(7):
        out = sierpinski_triangle(EQUILATERAL, depth)
        assert out.kind is FractalKind.TRIANGLE and out.depth == depth
        assert len(out.cells) == 3 ** depth
        total = sum(polygon_area(c) for c in out.cells)
        assert total == pytest.approx(base * (3 / 4) ** depth, rel=1e-12)


def test_carpet_counts_and_areas():
    box = BBox(0, 0, 3, 3)
    for depth in range(5):
        out = sierpinski_carpet(box, depth)
        assert out.kind is FractalKind.CARPET and out.depth == depth
        assert len(out.cells) == 8 ** depth
        total = sum(polygon_area(c) for c in out.cells)
        assert total == pytest.approx(9.0 * (8 / 9) ** depth, rel=1e-12)


def test_depth_zero_returns_the_seed():
    out = sierpinski_triangle(EQUILATERAL, 0)
    assert len(out.cells) == 1
    assert [(p.x, p.y) for p in out.cells[0].vertices] == [
        (p.x, p.y) for p in EQUILATERAL.vertices
    ]
    out = sierpinski_carpet(BBox(0, 0, 2, 2), 0)
    assert [(p.x, p.y) for p in out.cells[0].vertices] == [
        (0, 0), (2, 0), (2, 2), (0, 2),
    ]


def test_triangle_depth_one_order_follows_corners():
    t = Polygon([Point(0, 0), Point(4, 0), Point(0, 4)])
    out = sierpinski_triangle(t, 1)
    corners = [[(p.x, p.y) for p in c.vertices] for c in out.cells]
    assert corners == [
        [(0, 0), (2, 0), (0, 2)],
        [(2, 0), (4, 0), (2, 2)],
        [(0, 2), (2, 2), (0, 4)],
    ]


def test_carpet_depth_one_runs_north_row_first_west_to_east():
    out = sierpinski_carpet(BBox(0, 0, 3, 3), 1)
    anchors = [(min(p.x for p in c.vertices), min(p.y for p in c.vertices))
               for c in out.cells]
    assert anchors == [
        (0, 2), (1, 2), (2, 2),
        (0, 1), (2, 1),
        (0, 0), (1, 0), (2, 0),
    ]


def test_cells_nest_into_their_parents():
    parent = sierpinski_triangle(EQUILATERAL, 2).cells
    child = sierpinski_triangle(EQUILATERAL, 3).cells
    for c in child:
        centroid = Point(
            sum(p.x for p in c.vertices) / 3.0,
            sum(p.y for p in c.vertices) / 3.0,
        )
        assert any(
            point_in_polygon(centroid, parent_cell) is PointLocation.INSIDE
            for parent_cell in parent
        )


def test_cell_interiors_are_disjoint():
    out = sierpinski_carpet(BBox(0, 0, 3, 3), 2)
    for idx, cell in enumerate(out.cells):
        centroid = Point(
            sum(p.x for p in cell.vertices) / 4.0,
            sum(p.y for p in cell.vertices) / 4.0,
        )
        for other_idx, other in enumerate(out.cells):
            if other_idx != idx:
                assert point_in_polygon(centroid, other) is PointLocation.OUTSIDE


def test_depth_validation():
    for fn, good_seed, cap in [
        (sierpinski_triangle, EQUILATERAL, TRIANGLE_MAX_DEPTH),
        (sierpinski_carpet, BBox(0, 0, 1, 1), CARPET_MAX_DEPTH),
    ]:
        fn(good_seed, cap if cap <= 5 else 3)
        with pytest.raises(GeometryError):
            fn(good_seed, cap + 1)
        with pytest.raises(GeometryError):
            fn(good_seed, -1)
        with pytest.raises(GeometryError):
            fn(good_seed, 1.5)
        with pytest.raises(GeometryError):
            fn(good_seed, True)


def test_seed_type_validation():
    with pytest.raises(GeometryError):
        sierpinski_triangle(Polygon([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]), 1)
    with pytest.raises(GeometryError):
        sierpinski_carpet(EQUILATERAL, 1)


def test_dict_shape():
    d = output_to_dict(sierpinski_triangle(Polygon([Point(0, 0), Point(2, 0), Point(0, 2)]), 0))
    assert d == {"kind": "triangle", "depth": 0, "cells": [[[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]]}


def test_cells_are_a_lazy_sequence_that_any_pass_sees_alike():
    out = sierpinski_carpet(BBox(0, 0, 9, 9), 2)
    cells = out.cells
    assert isinstance(cells, CellSequence) and len(cells) == 64
    first = list(cells)
    assert list(cells) == first and cells == first and cells == tuple(first)
    assert cells[0] == first[0] and cells[-1] == first[-1] and cells[17] == first[17]
    assert cells[3:6] == first[3:6] and list(reversed(cells)) == first[::-1]
    with pytest.raises(IndexError):
        cells[64]
    with pytest.raises(IndexError):
        cells[-65]
    dumped = output_to_dict(out)["cells"]
    assert dumped == [[[p.x, p.y] for p in c.vertices] for c in first]
    assert dumped.bounds == cells.bounds == (0.0, 0.0, 9.0, 9.0)


def test_the_flat_view_is_every_cells_coordinates_in_order():
    for out, corners in ((sierpinski_triangle(EQUILATERAL, 3), 3),
                         (sierpinski_carpet(BBox(0, 0, 9, 9), 2), 4)):
        flat = [v for cell in out.cells for p in cell.vertices for v in (p.x, p.y)]
        for cells in (out.cells, output_to_dict(out)["cells"]):
            assert cells.corners == corners
            assert list(cells.coords()) == flat
            # every pass runs the walk again
            assert list(cells.coords()) == flat


def test_the_fractal_module_does_not_load_the_json_writer():
    # the cells' flat view is the fractal module's own; the writers read it
    code = "import sys, geoforge.fractals; print('geoforge.jsontext' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def _extremes(cells):
    xs = [x for cell in cells for x, _ in cell]
    ys = [y for cell in cells for _, y in cell]
    return min(xs), min(ys), max(xs), max(ys)


def _clamped(v: float) -> float:
    return max(-1e6, min(1e6, v))


_centers = st.sampled_from([0.0, 1e6, -1e6, 999999.9, -0.5]) | st.floats(-1e6, 1e6)
_scales = st.sampled_from([1e-3, 1.0, 1e3, 1e6])
_offsets = st.floats(-1.0, 1.0)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    _centers, _centers, _scales,
    st.lists(st.tuples(_offsets, _offsets), min_size=3, max_size=3),
    st.integers(0, 8),
)
def test_triangle_cells_stay_in_the_seed_box(cx, cy, scale, offsets, depth):
    corners = [(_clamped(cx + scale * dx), _clamped(cy + scale * dy)) for dx, dy in offsets]
    try:
        seed = Polygon([Point(x, y) for x, y in corners])
    except GeometryError:
        assume(False)
    out = sierpinski_triangle(seed, depth)
    xs = [v.x for v in seed.vertices]
    ys = [v.y for v in seed.vertices]
    box = (min(xs), min(ys), max(xs), max(ys))
    # the cells reach every side of the seed's box and never leave it
    assert out.cells.bounds == box
    assert _extremes(output_to_dict(out)["cells"]) == box


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_centers, _centers, _scales, _scales, st.floats(0.01, 1.0), st.floats(0.01, 1.0),
       st.integers(0, 4))
def test_carpet_cells_stay_in_the_seed_box(cx, cy, sx, sy, fx, fy, depth):
    x0, y0 = _clamped(cx), _clamped(cy)
    x1, y1 = _clamped(x0 + sx * fx), _clamped(y0 + sy * fy)
    assume(x0 < x1 and y0 < y1)
    out = sierpinski_carpet(BBox(x0, y0, x1, y1), depth)
    assert out.cells.bounds == (x0, y0, x1, y1)
    assert _extremes(output_to_dict(out)["cells"]) == (x0, y0, x1, y1)


def test_carpet_seed_outside_the_coordinate_domain_fails_before_any_cell():
    with pytest.raises(GeometryError, match=r"^seed must satisfy \|x\|, \|y\| <= 1e\+06$"):
        sierpinski_carpet(BBox(0, 0, 2e6, 1), 3)
