"""Point quadtrees and point-region (PR) quadtrees.

Both trees use the same tie-break at a split value: x >= split goes East,
y >= split goes North.  The point quadtree splits at the stored site, so
its shape depends on insertion order.  The PR quadtree splits a region at
its center once a leaf exceeds its capacity, so its shape depends only on
the point set, the region, and the capacity.

A point quadtree can be as deep as it has points (a diagonal input is one
path), so its walks (equality, points(), the dump) use an explicit stack.
parse_quadtree_array does not lift the limit: the stdlib JSON decoder
bounds the nesting depth it reads, and a deeper dump is a GeometryError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import jsontext
from .core import BBox, GeometryError, Point, points_equal

MAX_DEPTH = 32

_CHILD_KEYS = ("nw", "ne", "sw", "se")


class PointNode:
    __slots__ = ("site", "nw", "ne", "sw", "se")

    def __init__(self, site: Point):
        self.site = site
        self.nw = None
        self.ne = None
        self.sw = None
        self.se = None


@dataclass
class PointQuadtree:
    root: PointNode | None

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointQuadtree):
            return NotImplemented
        return _point_nodes_equal(self.root, other.root)

    def points(self) -> list[Point]:
        out: list[Point] = []
        _collect_point_nodes(self.root, out)
        return out


def _point_nodes_equal(a: PointNode | None, b: PointNode | None) -> bool:
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is None or b is None:
            if a is not b:
                return False
            continue
        if (a.site.x, a.site.y) != (b.site.x, b.site.y):
            return False
        stack.extend((getattr(a, k), getattr(b, k)) for k in _CHILD_KEYS)
    return True


def _collect_point_nodes(node: PointNode | None, out: list[Point]) -> None:
    # preorder; children go on the stack in reverse so that nw comes off first
    stack = [node]
    while stack:
        node = stack.pop()
        if node is not None:
            out.append(node.site)
            stack.extend((node.se, node.sw, node.ne, node.nw))


def _quadrant_key(px: float, py: float, sx: float, sy: float) -> str:
    east = px >= sx
    north = py >= sy
    if north:
        return "ne" if east else "nw"
    return "se" if east else "sw"


def build_point_quadtree(points) -> PointQuadtree:
    """Insert points in the given order; equal points are rejected."""
    root: PointNode | None = None
    for p in points:
        if root is None:
            root = PointNode(p)
            continue
        node = root
        while True:
            if points_equal(p, node.site):
                raise GeometryError("duplicate site")
            key = _quadrant_key(p.x, p.y, node.site.x, node.site.y)
            child = getattr(node, key)
            if child is None:
                setattr(node, key, PointNode(p))
                break
            node = child
    return PointQuadtree(root)


class PRNode:
    __slots__ = ("region", "points", "children", "overfull")

    def __init__(self, region: BBox):
        self.region = region
        self.points: list[Point] | None = []
        self.children: list[PRNode] | None = None
        self.overfull = False

    @property
    def is_leaf(self) -> bool:
        return self.children is None


@dataclass
class PRQuadtree:
    region: BBox
    capacity: int | None
    root: PRNode
    overfull: bool = field(default=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PRQuadtree):
            return NotImplemented
        return _pr_nodes_equal(self.root, other.root)

    def points(self) -> list[Point]:
        out: list[Point] = []
        _collect_pr_nodes(self.root, out)
        return out


def _pr_nodes_equal(a: PRNode, b: PRNode) -> bool:
    ra, rb = a.region, b.region
    if (ra.xmin, ra.ymin, ra.xmax, ra.ymax) != (rb.xmin, rb.ymin, rb.xmax, rb.ymax):
        return False
    if a.is_leaf != b.is_leaf:
        return False
    if a.is_leaf:
        return [(p.x, p.y) for p in a.points] == [(p.x, p.y) for p in b.points]
    return all(_pr_nodes_equal(ca, cb) for ca, cb in zip(a.children, b.children))


def _collect_pr_nodes(node: PRNode, out: list[Point]) -> None:
    if node.is_leaf:
        out.extend(node.points)
        return
    for child in node.children:
        _collect_pr_nodes(child, out)


def _default_region(points) -> BBox:
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    cx = (min(xs) + max(xs)) / 2.0
    cy = (min(ys) + max(ys)) / 2.0
    side = max(max(xs) - min(xs), max(ys) - min(ys))
    if side <= 0.0:
        # all points coincide; any positive region around them works
        side = 1.0
    half = side * 1.10 / 2.0
    return BBox(cx - half, cy - half, cx + half, cy + half)


def _child_regions(region: BBox) -> list[BBox]:
    cx = (region.xmin + region.xmax) / 2.0
    cy = (region.ymin + region.ymax) / 2.0
    return [
        BBox(region.xmin, cy, cx, region.ymax),  # nw
        BBox(cx, cy, region.xmax, region.ymax),  # ne
        BBox(region.xmin, region.ymin, cx, cy),  # sw
        BBox(cx, region.ymin, region.xmax, cy),  # se
    ]


def _child_index(p: Point, region: BBox) -> int:
    cx = (region.xmin + region.xmax) / 2.0
    cy = (region.ymin + region.ymax) / 2.0
    east = p.x >= cx
    north = p.y >= cy
    if north:
        return 1 if east else 0
    return 3 if east else 2


def build_pr_quadtree(points, region: BBox | None = None, capacity: int = 1) -> PRQuadtree:
    """Bulk-build a PR quadtree.

    With no explicit region the tree covers the tight bounding square of
    the points expanded by 5% per side.  A leaf that exceeds its capacity
    splits at the region center; past MAX_DEPTH it stays over-full and the
    tree carries a warning flag instead of splitting forever (coincident
    point clusters cannot be separated by subdivision).
    """
    pts = list(points)
    if not isinstance(capacity, int) or isinstance(capacity, bool) or capacity < 1:
        raise GeometryError("capacity must be an integer >= 1")
    if region is None:
        if not pts:
            raise GeometryError("empty point set requires an explicit region")
        region = _default_region(pts)
    else:
        for i, p in enumerate(pts):
            if not region.contains(p):
                raise GeometryError("point %d outside region" % i)
    root = PRNode(region)
    tree = PRQuadtree(region=region, capacity=capacity, root=root)
    for p in pts:
        _pr_insert(tree, p)
    return tree


def _pr_insert(tree: PRQuadtree, p: Point) -> None:
    node = tree.root
    depth = 0
    while not node.is_leaf:
        node = node.children[_child_index(p, node.region)]
        depth += 1
    node.points.append(p)
    while len(node.points) > tree.capacity:
        if depth >= MAX_DEPTH:
            node.overfull = True
            tree.overfull = True
            return
        moved = node.points
        node.points = None
        node.children = [PRNode(r) for r in _child_regions(node.region)]
        buckets = [node.children[_child_index(q, node.region)] for q in moved]
        for q, child in zip(moved, buckets):
            child.points.append(q)
        node = max(node.children, key=lambda ch: len(ch.points))
        depth += 1


def tree_to_dict(tree) -> dict:
    """Plain-data form of either tree kind, as used by the array dump."""
    if isinstance(tree, PointQuadtree):
        return {"kind": "point", "root": _point_node_dict(tree.root)}
    if isinstance(tree, PRQuadtree):
        return {"kind": "pr", "root": _pr_node_dict(tree.root)}
    raise TypeError("not a quadtree: %r" % type(tree).__name__)


def _point_node_dict(root: PointNode | None):
    # each node's dict is made with all five keys; an explicit stack then
    # fills in the children's dicts
    holder = {"root": None}
    stack = [(root, holder, "root")] if root is not None else []
    while stack:
        node, parent, key = stack.pop()
        d = parent[key] = {
            "site": [node.site.x, node.site.y],
            "nw": None,
            "ne": None,
            "sw": None,
            "se": None,
        }
        if node.nw is not None:
            stack.append((node.nw, d, "nw"))
        if node.ne is not None:
            stack.append((node.ne, d, "ne"))
        if node.sw is not None:
            stack.append((node.sw, d, "sw"))
        if node.se is not None:
            stack.append((node.se, d, "se"))
    return holder["root"]


def _pr_node_dict(node: PRNode):
    region = [node.region.xmin, node.region.ymin, node.region.xmax, node.region.ymax]
    if node.is_leaf:
        return {"region": region, "points": [[p.x, p.y] for p in node.points]}
    return {"region": region, "children": [_pr_node_dict(c) for c in node.children]}


def quadtree_to_array(tree) -> str:
    """Canonical text dump of either tree kind."""
    return jsontext.dumps(tree_to_dict(tree))


def parse_quadtree_array(text: str):
    """Inverse of quadtree_to_array; rebuilds the node structure.

    A parsed PR tree has capacity None: the dump does not carry it and
    structural equality does not depend on it.  A dump nested deeper than
    the decoder or the node parsers can recurse raises GeometryError.
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
    for key in _CHILD_KEYS:
        setattr(node, key, _parse_point_node(data[key]))
    return node


def _parse_pr_node(data) -> PRNode:
    if not isinstance(data, dict) or "region" not in data:
        raise GeometryError("malformed pr quadtree node")
    region = data["region"]
    if not (isinstance(region, list) and len(region) == 4):
        raise GeometryError("malformed pr quadtree region")
    node = PRNode(BBox(*region))
    keys = set(data)
    if keys == {"region", "points"}:
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
    if not (isinstance(data, list) and len(data) == 2):
        raise GeometryError("malformed point")
    return Point(data[0], data[1])
