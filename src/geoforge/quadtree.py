"""Point quadtrees and point-region (PR) quadtrees.

Both trees send a point to a child by one rule: x >= the split value goes
East, y >= the split value goes North.  The builds write the rule inline,
so a point's descent or a node's partition makes no Python call per level
or per point.  The point quadtree splits at the stored site, so its shape
depends on insertion order.  It rejects two points within EPS_DIST of each
other whatever their order, by the onion and beta-skeleton rule.  The PR
quadtree splits a region at its center while it holds more than its
capacity, so its shape depends only on the point set, the region, and the
capacity.

A point quadtree can be as deep as it has points (a diagonal input is one
path), so its walks (equality, points(), the dump) use an explicit stack,
and so does the PR tree's dump.  parse_quadtree_array does not lift the
limit: the stdlib JSON decoder bounds the nesting depth it reads, and a
deeper dump is a GeometryError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import jsontext
from .core import EPS_DIST, BBox, GeometryError, Point, _read_numbers, _reject_duplicates

MAX_DEPTH = 32

# child names in child order
_QUADRANTS = ("nw", "ne", "sw", "se")


def bounding_square(xs, ys) -> tuple[float, float, float, float]:
    """(xmin, ymin, xmax, ymax) of the points' bounding square, 10% wider.

    The square is centered on the bounding box, and its side is 1.1 times
    the box's larger side, or 1.1 when all points coincide.
    """
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    cx = (x0 + x1) / 2.0
    cy = (y0 + y1) / 2.0
    half = (max(x1 - x0, y1 - y0) or 1.0) * 1.10 / 2.0
    return (cx - half, cy - half, cx + half, cy + half)


class PointNode:
    __slots__ = ("site", "nw", "ne", "sw", "se")

    def __init__(self, site: Point):
        self.site = site
        self.nw = None
        self.ne = None
        self.sw = None
        self.se = None


def _preorder(root: PointNode | None):
    """Point-tree nodes, each before its nw, ne, sw and se subtrees."""
    stack = [root]
    while stack:
        node = stack.pop()
        if node is not None:
            yield node
            stack += (node.se, node.sw, node.ne, node.nw)


@dataclass
class PointQuadtree:
    root: PointNode | None

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointQuadtree):
            return NotImplemented
        # the preorder with each node's empty quadrants fixes the tree
        def shape(root):
            return [
                (n.site.x, n.site.y, n.nw is None, n.ne is None, n.sw is None, n.se is None)
                for n in _preorder(root)
            ]
        return shape(self.root) == shape(other.root)

    def points(self) -> list[Point]:
        return [node.site for node in _preorder(self.root)]


def build_point_quadtree(points) -> PointQuadtree:
    """Insert points in the given order; duplicate points are rejected."""
    pts = list(points)
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    _reject_duplicates(sorted(zip(xs, ys, range(len(pts)))), pts)
    if not pts:
        return PointQuadtree(None)
    root = PointNode(pts[0])
    for p in pts[1:]:
        x, y = p.x, p.y
        node = root
        while node is not None:
            parent, site = node, node.site
            if y >= site.y:
                node, key = (node.ne, "ne") if x >= site.x else (node.nw, "nw")
            else:
                node, key = (node.se, "se") if x >= site.x else (node.sw, "sw")
        setattr(parent, key, PointNode(p))
    return PointQuadtree(root)


class PRNode:
    __slots__ = ("region", "points", "children", "overfull")

    def __init__(self, region: BBox):
        self.region = region
        self.points: list[Point] | None = []
        self.children: list[PRNode] | None = None
        self.overfull = False


def _pr_preorder(root: PRNode):
    """PR-tree nodes, each before its children's subtrees in child order."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if node.children is not None:
            stack += reversed(node.children)


@dataclass
class PRQuadtree:
    region: BBox
    capacity: int | None
    root: PRNode
    overfull: bool = field(default=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PRQuadtree):
            return NotImplemented
        # every inner node has four children, so the preorder with each
        # node's region and, for a leaf, its points fixes the tree
        def shape(root):
            return [
                (n.region.xmin, n.region.ymin, n.region.xmax, n.region.ymax,
                 None if n.children is not None else [(p.x, p.y) for p in n.points])
                for n in _pr_preorder(root)
            ]
        return shape(self.root) == shape(other.root)

    def points(self) -> list[Point]:
        return [p for n in _pr_preorder(self.root) if n.children is None for p in n.points]


def build_pr_quadtree(points, region: BBox | None = None, capacity: int = 1) -> PRQuadtree:
    """Build a PR quadtree top-down.

    With no explicit region the tree covers the points' bounding square
    (`bounding_square`).  A node that holds more than capacity points
    splits at its region's center, and its points go to the children in
    input order.  A node that cannot split stays an over-full leaf, and
    the tree carries a warning flag: past MAX_DEPTH (coincident points
    cannot be separated by subdivision), and where the center is not
    strictly inside the region because the region is a few ulps wide.
    """
    pts = list(points)
    if not isinstance(capacity, int) or isinstance(capacity, bool) or capacity < 1:
        raise GeometryError("capacity must be an integer >= 1")
    if region is None:
        if not pts:
            raise GeometryError("empty point set requires an explicit region")
        region = BBox(*bounding_square([p.x for p in pts], [p.y for p in pts]))
    else:
        # region.contains, with its bounds read once
        lo_x, hi_x = region.xmin - EPS_DIST, region.xmax + EPS_DIST
        lo_y, hi_y = region.ymin - EPS_DIST, region.ymax + EPS_DIST
        for i, p in enumerate(pts):
            if not (lo_x <= p.x <= hi_x and lo_y <= p.y <= hi_y):
                raise GeometryError("point %d outside region" % i)
    root = PRNode(region)
    root.points = pts
    tree = PRQuadtree(region=region, capacity=capacity, root=root)
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if len(node.points) <= capacity:
            continue
        x0, y0, x1, y1 = node.region.xmin, node.region.ymin, node.region.xmax, node.region.ymax
        cx = (x0 + x1) / 2.0
        cy = (y0 + y1) / 2.0
        if depth >= MAX_DEPTH or not (x0 < cx < x1 and y0 < cy < y1):
            node.overfull = tree.overfull = True
            continue
        # the test above proves each child's bounds ordered, and they are
        # floats from the region's
        nw, ne, sw, se = node.children = [
            PRNode(BBox._unchecked(x0, cy, cx, y1)),
            PRNode(BBox._unchecked(cx, cy, x1, y1)),
            PRNode(BBox._unchecked(x0, y0, cx, cy)),
            PRNode(BBox._unchecked(cx, y0, x1, cy)),
        ]
        for p in node.points:
            if p.y >= cy:
                (ne if p.x >= cx else nw).points.append(p)
            else:
                (se if p.x >= cx else sw).points.append(p)
        node.points = None
        depth += 1
        stack += ((nw, depth), (ne, depth), (sw, depth), (se, depth))
    return tree


def tree_to_dict(tree) -> dict:
    """Plain-data form of either tree kind, as used by the array dump."""
    if isinstance(tree, PointQuadtree):
        return {"kind": "point", "root": _point_node_dict(tree.root)}
    if isinstance(tree, PRQuadtree):
        return {"kind": "pr", "root": _pr_node_dict(tree.root)}
    raise TypeError("not a quadtree: %r" % type(tree).__name__)


def _point_node_dict(root: PointNode | None):
    # each node's dict is made with all five keys; an explicit stack then
    # fills in the children's dicts, nw first, so the dicts are made in
    # preorder
    holder = {"root": None}
    stack = [(root, holder, "root")] if root is not None else []
    push = stack.append
    while stack:
        node, parent, key = stack.pop()
        site = node.site
        d = parent[key] = {"site": [site.x, site.y], "nw": None, "ne": None, "sw": None, "se": None}
        if node.se is not None:
            push((node.se, d, "se"))
        if node.sw is not None:
            push((node.sw, d, "sw"))
        if node.ne is not None:
            push((node.ne, d, "ne"))
        if node.nw is not None:
            push((node.nw, d, "nw"))
    return holder["root"]


def _pr_node_dict(root: PRNode):
    # each node's dict is made whole, an inner node's with four empty
    # slots that an explicit stack then fills in
    holder = [None]
    stack = [(root, holder, 0)]
    while stack:
        node, parent, i = stack.pop()
        r = node.region
        region = [r.xmin, r.ymin, r.xmax, r.ymax]
        if node.children is None:
            # a loop, not a comprehension: leaves hold a few points, and a
            # comprehension is one more call
            points = []
            for p in node.points:
                points.append([p.x, p.y])
            parent[i] = {"region": region, "points": points}
        else:
            kids = [None, None, None, None]
            parent[i] = {"region": region, "children": kids}
            nw, ne, sw, se = node.children
            # nw comes off first, so the dicts are made in preorder
            stack += ((se, kids, 3), (sw, kids, 2), (ne, kids, 1), (nw, kids, 0))
    return holder[0]


def quadtree_to_array(tree) -> str:
    """Canonical text dump of either tree kind."""
    return jsontext.dumps(tree_to_dict(tree))


def parse_quadtree_array(text: str):
    """Inverse of quadtree_to_array; rebuilds the node structure.

    A parsed PR tree has capacity None: the dump does not carry it and
    structural equality does not depend on it.  A dump nested deeper than
    the decoder or the node parsers can recurse raises GeometryError.

    Numbers are dumped with %.12g, so a PR dump whose regions are narrower
    than %.12g can print cannot be parsed back: such a region prints with
    xmin == xmax or ymin == ymax, which is a bbox GeometryError.
    """
    try:
        return _parse_tree(jsontext.loads(text))
    except RecursionError:
        raise GeometryError("quadtree array nesting too deep") from None


def _parse_tree(data):
    if not isinstance(data, dict) or set(data) != {"kind", "root"}:
        raise GeometryError("quadtree array must have exactly kind and root")
    kind = data["kind"]
    if kind == "point":
        return PointQuadtree(_parse_point_node(data["root"]))
    if kind == "pr":
        if data["root"] is None:
            raise GeometryError("pr quadtree root cannot be null")
        root = _parse_pr_node(data["root"])
        return PRQuadtree(region=root.region, capacity=None, root=root)
    raise GeometryError("unknown quadtree kind %r" % kind)


def _parse_point_node(data) -> PointNode | None:
    if data is None:
        return None
    if not isinstance(data, dict) or set(data) != {"site", "nw", "ne", "sw", "se"}:
        raise GeometryError("malformed point quadtree node")
    node = PointNode(_parse_point(data["site"]))
    for key in _QUADRANTS:
        setattr(node, key, _parse_point_node(data[key]))
    return node


def _parse_pr_node(data) -> PRNode:
    if not isinstance(data, dict) or "region" not in data:
        raise GeometryError("malformed pr quadtree node")
    region = _read_numbers(data["region"], 4)
    if region is None:
        raise GeometryError("malformed pr quadtree region")
    node = PRNode(BBox(*region))
    keys = set(data)
    if keys == {"region", "points"} and isinstance(data["points"], list):
        node.points = [_parse_point(p) for p in data["points"]]
    elif keys == {"region", "children"}:
        children = data["children"]
        if not (isinstance(children, list) and len(children) == 4):
            raise GeometryError("pr quadtree node needs exactly 4 children")
        node.points = None
        node.children = [_parse_pr_node(c) for c in children]
    else:
        raise GeometryError("malformed pr quadtree node")
    return node


def _parse_point(data) -> Point:
    xy = _read_numbers(data, 2)
    if xy is None:
        raise GeometryError("malformed point")
    return Point(*xy)
