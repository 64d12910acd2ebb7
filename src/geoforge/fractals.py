"""Finite-depth Sierpinski constructions.

Both generators return the closed cells of the construction at a fixed
depth: midpoint subdivision keeping 3 of 4 subtriangles, and a 3x3 grid
keeping 8 of 9 subrectangles.  Cell counts and areas follow the exact
laws 3^d / (3/4)^d and 8^d / (8/9)^d, the finite shadows of Hausdorff
dimensions log 3 / log 2 and log 8 / log 3.  Depth caps (12 and 7) keep
cell counts within reason; the branch order is fixed (northwest-ish
first) so output order is deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .core import BBox, GeometryError, Point, Polygon

TRIANGLE_MAX_DEPTH = 12
CARPET_MAX_DEPTH = 7


class FractalKind(enum.Enum):
    TRIANGLE = "triangle"
    CARPET = "carpet"


@dataclass(frozen=True)
class FractalOutput:
    kind: FractalKind
    depth: int
    cells: tuple[Polygon, ...]


def _check_depth(depth: int, cap: int) -> None:
    if not isinstance(depth, int) or isinstance(depth, bool) or depth < 0:
        raise GeometryError("depth must be an integer >= 0")
    if depth > cap:
        raise GeometryError("depth cap exceeded (max %d)" % cap)


def sierpinski_triangle(seed: Polygon, depth: int) -> FractalOutput:
    """Sierpinski triangle cells of the given seed triangle."""
    if not isinstance(seed, Polygon) or len(seed.vertices) != 3:
        raise GeometryError("seed must be a triangle")
    _check_depth(depth, TRIANGLE_MAX_DEPTH)
    cells: list[Polygon] = []
    a, b, c = seed.vertices
    _triangle_cells(a, b, c, depth, cells)
    return FractalOutput(kind=FractalKind.TRIANGLE, depth=depth, cells=tuple(cells))


def _midpoint(p: Point, q: Point) -> Point:
    return Point((p.x + q.x) / 2.0, (p.y + q.y) / 2.0)


def _triangle_cells(a: Point, b: Point, c: Point, depth: int, out: list) -> None:
    if depth == 0:
        out.append(Polygon._unchecked((a, b, c)))
        return
    ab = _midpoint(a, b)
    bc = _midpoint(b, c)
    ca = _midpoint(c, a)
    _triangle_cells(a, ab, ca, depth - 1, out)
    _triangle_cells(ab, b, bc, depth - 1, out)
    _triangle_cells(ca, bc, c, depth - 1, out)


def sierpinski_carpet(seed: BBox, depth: int) -> FractalOutput:
    """Sierpinski carpet cells of the given axis-aligned seed rectangle."""
    if not isinstance(seed, BBox):
        raise GeometryError("seed must be a bbox")
    _check_depth(depth, CARPET_MAX_DEPTH)
    cells: list[Polygon] = []
    _carpet_cells(seed.xmin, seed.ymin, seed.xmax, seed.ymax, depth, cells, {})
    return FractalOutput(kind=FractalKind.CARPET, depth=depth, cells=tuple(cells))


def _corner(corners: dict, x: float, y: float) -> Point:
    p = corners.get((x, y))
    if p is None:
        p = corners[(x, y)] = Point(x, y)
    return p


def _carpet_cells(xmin, ymin, xmax, ymax, depth, out: list, corners: dict) -> None:
    # neighbouring cells share corners; `corners` holds one Point per (x, y)
    # for the whole build
    if depth == 0:
        out.append(
            Polygon._unchecked(
                (
                    _corner(corners, xmin, ymin),
                    _corner(corners, xmax, ymin),
                    _corner(corners, xmax, ymax),
                    _corner(corners, xmin, ymax),
                )
            )
        )
        return
    xs = (xmin, xmin + (xmax - xmin) / 3.0, xmin + 2.0 * (xmax - xmin) / 3.0, xmax)
    ys = (ymax, ymax - (ymax - ymin) / 3.0, ymax - 2.0 * (ymax - ymin) / 3.0, ymin)
    # north row first, west to east, skipping the center cell
    for row in range(3):
        for col in range(3):
            if row == 1 and col == 1:
                continue
            _carpet_cells(
                xs[col], ys[row + 1], xs[col + 1], ys[row], depth - 1, out, corners
            )


def output_to_dict(o: FractalOutput) -> dict:
    return {
        "kind": o.kind.value,
        "depth": o.depth,
        "cells": [[[v.x, v.y] for v in cell.vertices] for cell in o.cells],
    }
