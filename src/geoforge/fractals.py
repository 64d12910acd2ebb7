"""Finite-depth Sierpinski constructions.

Both constructions give the closed cells at a fixed depth: midpoint
subdivision keeping 3 of 4 subtriangles, and a 3x3 grid keeping 8 of 9
subrectangles.  Cell counts and areas follow the exact laws 3^d / (3/4)^d
and 8^d / (8/9)^d, the finite shadows of Hausdorff dimensions
log 3 / log 2 and log 8 / log 3.  Depth caps (12 and 7) keep cell counts
within reason; the branch order is fixed (northwest-ish first) so output
order is deterministic.

Each fractal has one generator, `_triangle_walk` or `_carpet_walk`, that
yields the cells' vertex coordinates depth-first with an explicit stack of
at most 2·depth + 1 (triangle) or 7·depth + 1 (carpet) pending subcells.
The results hold no cells: `FractalOutput.cells` and the dump's "cells"
are `CellSequence`s that run the generator again on every pass.  The
writers read their flat view (`corners`, `coords()`, `bounds`), so they
need memory for the stack, not for 8^depth cells.  Every check runs
when the output is made, before any cell is.

Every cell lies in the seed's bounding box, and that box is attained, so
`CellSequence.bounds` is the bounding box of all the cells without a pass
over them.  With |coordinates| <= COORD_LIMIT nothing overflows, and
rounding is monotone.  For a midpoint, fl(p + q) lies between 2p and 2q,
which are exact, so fl(fl(p + q) / 2) lies between p and q.  For a carpet
third xmin + fl(fl(k·w) / 3), with w = fl(xmax - xmin) and k in {1, 2},
the added term lies between 0 and (xmax - xmin)·(2/3)(1 + 2^-53)^2 <
xmax - xmin, so the sum rounds to a value between xmin and xmax; the same
holds for y measured down from ymax.  By induction every vertex lies
between the seed's extremes, and the corner cells keep the seed's own
vertices (triangle) or sides (carpet).
"""

from __future__ import annotations

import enum
import itertools
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

from .core import COORD_LIMIT, BBox, GeometryError, Point, Polygon

TRIANGLE_MAX_DEPTH = 12
CARPET_MAX_DEPTH = 7

_flat = itertools.chain.from_iterable


class FractalKind(enum.Enum):
    TRIANGLE = "triangle"
    CARPET = "carpet"


class CellSequence(Sequence):
    """The cells of one construction, made afresh on every pass.

    Iterating runs the fractal's generator and maps `make` over the vertex
    tuples it yields.  Indexing walks to the index, so it costs O(index);
    `list(cells)` materializes.  The flat view makes no cell: `corners` is
    the vertices per cell, `coords()` every cell's x0, y0, x1, y1, ... in
    walk order, and `bounds` (xmin, ymin, xmax, ymax) over them all.  A
    CellSequence equals a list or tuple of equal cells.
    """

    __slots__ = ("_walk", "_len", "_make", "corners", "bounds")

    def __init__(self, walk, length: int, corners: int, bounds: tuple, make) -> None:
        self._walk = walk
        self._len = length
        self._make = make
        self.corners = corners
        self.bounds = bounds

    def coords(self):
        """Every cell's vertex coordinates as one flat stream, in walk order."""
        return _flat(_flat(self._walk()))

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return map(self._make, self._walk())

    def __reversed__(self):
        return reversed(list(self))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        i = operator.index(index)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("cell index out of range")
        return next(itertools.islice(iter(self), i, None))

    def __eq__(self, other):
        if not isinstance(other, (list, tuple, CellSequence)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None


@dataclass(frozen=True)
class FractalOutput:
    kind: FractalKind
    depth: int
    cells: CellSequence  # of Polygon


def _check_depth(depth: int, cap: int) -> None:
    if not isinstance(depth, int) or isinstance(depth, bool) or depth < 0:
        raise GeometryError("depth must be an integer >= 0")
    if depth > cap:
        raise GeometryError("depth cap exceeded (max %d)" % cap)


def _polygon(cell) -> Polygon:
    return Polygon._unchecked(tuple(Point(x, y) for x, y in cell))


def sierpinski_triangle(seed: Polygon, depth: int) -> FractalOutput:
    """Sierpinski triangle cells of the given seed triangle."""
    if not isinstance(seed, Polygon) or len(seed.vertices) != 3:
        raise GeometryError("seed must be a triangle")
    _check_depth(depth, TRIANGLE_MAX_DEPTH)
    a, b, c = ((v.x, v.y) for v in seed.vertices)
    xs, ys = zip(a, b, c)
    bounds = (min(xs), min(ys), max(xs), max(ys))
    cells = CellSequence(partial(_triangle_walk, a, b, c, depth), 3**depth, 3, bounds, _polygon)
    return FractalOutput(kind=FractalKind.TRIANGLE, depth=depth, cells=cells)


def _triangle_walk(a, b, c, depth: int):
    # preorder: children are pushed in reverse so that the a-corner comes
    # off first, then the b-corner, then the c-corner
    stack = [(a, b, c, depth)]
    pop = stack.pop
    push = stack.append
    while stack:
        a, b, c, d = pop()
        if d == 0:
            yield a, b, c
            continue
        ab = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
        bc = ((b[0] + c[0]) / 2.0, (b[1] + c[1]) / 2.0)
        ca = ((c[0] + a[0]) / 2.0, (c[1] + a[1]) / 2.0)
        d -= 1
        push((ca, bc, c, d))
        push((ab, b, bc, d))
        push((a, ab, ca, d))


def sierpinski_carpet(seed: BBox, depth: int) -> FractalOutput:
    """Sierpinski carpet cells of the given axis-aligned seed rectangle."""
    if not isinstance(seed, BBox):
        raise GeometryError("seed must be a bbox")
    _check_depth(depth, CARPET_MAX_DEPTH)
    # every cell corner is a Point; the seed's corners bound them all
    bounds = (seed.xmin, seed.ymin, seed.xmax, seed.ymax)
    if not all(-COORD_LIMIT <= v <= COORD_LIMIT for v in bounds):
        raise GeometryError("seed must satisfy |x|, |y| <= %g" % COORD_LIMIT)
    cells = CellSequence(partial(_carpet_walk, *bounds, depth), 8**depth, 4, bounds, _polygon)
    return FractalOutput(kind=FractalKind.CARPET, depth=depth, cells=cells)


def _carpet_walk(xmin, ymin, xmax, ymax, depth: int):
    # north row first, west to east, skipping the center cell; the eight
    # subcells are pushed in reverse so that the northwest one comes off first
    stack = [(xmin, ymin, xmax, ymax, depth)]
    pop = stack.pop
    push = stack.append
    while stack:
        xmin, ymin, xmax, ymax, d = pop()
        if d == 0:
            yield (xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax)
            continue
        x1 = xmin + (xmax - xmin) / 3.0
        x2 = xmin + 2.0 * (xmax - xmin) / 3.0
        y1 = ymax - (ymax - ymin) / 3.0
        y2 = ymax - 2.0 * (ymax - ymin) / 3.0
        d -= 1
        push((x2, ymin, xmax, y2, d))
        push((x1, ymin, x2, y2, d))
        push((xmin, ymin, x1, y2, d))
        push((x2, y2, xmax, y1, d))
        push((xmin, y2, x1, y1, d))
        push((x2, y1, xmax, ymax, d))
        push((x1, y1, x2, ymax, d))
        push((xmin, y1, x1, ymax, d))


def _pair_list(cell) -> list:
    return [[x, y] for x, y in cell]


def output_to_dict(o: FractalOutput) -> dict:
    """The dump; its "cells" is a CellSequence of the same cells as
    [[x, y], ...] lists, which the writers read through its flat view."""
    c = o.cells
    return {
        "kind": o.kind.value,
        "depth": o.depth,
        "cells": CellSequence(c._walk, len(c), c.corners, c.bounds, _pair_list),
    }
