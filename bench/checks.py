"""Output checks, one per job kind, run once per generated input.

Each check reads the bytes a job wrote and the geometry the job was
generated from, and returns a list of problems (empty when the output is
right).  Structures are compared with the independent oracles in
``tests/geomgen.py`` or with invariants restated here from the acceptance
suite, never with the library's own answer.  The quadtree round trip and
the located cells use the library's parser and builder, as the acceptance
suite does.
"""

from __future__ import annotations

import bisect
import json
import math
import xml.parsers.expat

import geomgen
from geoforge.core import BBox, Point, Segment
from geoforge.quadtree import parse_quadtree_array, quadtree_to_array
from geoforge.trapmap import build_trapezoidal_map

from workloads import CENTER


def check_output(job, text: str) -> list:
    if job.fmt != "json":
        return _check_xml(text, "svg" if job.fmt == "svg" else "ipe")
    data = json.loads(text)
    if job.kind == "locate":
        return _check_locate(job, data)
    return _CHECKS[job.kind](job, data, text)


def _check_xml(text: str, root: str) -> list:
    tags: list = []

    def start(name, attrs):
        if not tags:
            tags.append(name)

    parser = xml.parsers.expat.ParserCreate()
    parser.StartElementHandler = start
    try:
        parser.Parse(text.encode("utf-8"), True)
    except xml.parsers.expat.ExpatError as err:
        return ["not well-formed XML: %s" % err]
    if tags != [root]:
        return ["root element is %r, expected %r" % (tags, root)]
    return []


def _pairs(rows):
    return [tuple(r) for r in rows]


def _area(loop) -> float:
    total = 0.0
    for i in range(len(loop)):
        x0, y0 = loop[i - 1]
        x1, y1 = loop[i]
        total += x0 * y1 - x1 * y0
    return 0.5 * total


def _check_point_quadtree(job, data, text) -> list:
    problems = []
    pts = _pairs(job.data["points"])
    if data.get("kind") != "point":
        return ["kind is %r" % data.get("kind")]
    root = data["root"]
    if root is None or tuple(root["site"]) != pts[0]:
        problems.append("root is not the first inserted point")
    sites = []
    inf = math.inf
    stack = [(root, -inf, inf, -inf, inf)]
    while stack:
        node, xlo, xhi, ylo, yhi = stack.pop()
        if node is None:
            continue
        x, y = node["site"]
        if not (xlo <= x < xhi and ylo <= y < yhi):
            problems.append("site %r outside its quadrant" % ((x, y),))
        sites.append((x, y))
        stack.append((node["nw"], xlo, x, y, yhi))
        stack.append((node["ne"], x, xhi, y, yhi))
        stack.append((node["sw"], xlo, x, ylo, y))
        stack.append((node["se"], x, xhi, ylo, y))
    if sorted(sites) != sorted(pts):
        problems.append("collected sites differ from the input points")
    return problems + _round_trip(text)


def _check_pr_quadtree(job, data, text) -> list:
    problems = []
    pts = _pairs(job.data["points"])
    capacity = job.params["capacity"]
    if data.get("kind") != "pr":
        return ["kind is %r" % data.get("kind")]
    if data["root"]["region"] != job.data["bbox"]:
        problems.append("root region is not the scene bbox")
    found = []
    stack = [data["root"]]
    while stack:
        node = stack.pop()
        x0, y0, x1, y1 = node["region"]
        if "points" in node:
            if len(node["points"]) > capacity:
                problems.append("leaf over capacity: %d" % len(node["points"]))
            for x, y in node["points"]:
                if not (x0 <= x <= x1 and y0 <= y <= y1):
                    problems.append("point %r outside its leaf" % ((x, y),))
                found.append((x, y))
            continue
        cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
        want = ([x0, cy, cx, y1], [cx, cy, x1, y1], [x0, y0, cx, cy], [cx, y0, x1, cy])
        for child, region in zip(node["children"], want):
            if not all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
                       for a, b in zip(child["region"], region)):
                problems.append("child region %r is not a quadrant" % child["region"])
            stack.append(child)
    if sorted(found) != sorted(pts):
        problems.append("collected points differ from the input points")
    return problems + _round_trip(text)


def _round_trip(text: str) -> list:
    if quadtree_to_array(parse_quadtree_array(text)) + "\n" != text:
        return ["dump does not round-trip"]
    return []


def _bound_y(bound, x, segs, bbox):
    if bound == "top_wall":
        return bbox[3]
    if bound == "bottom_wall":
        return bbox[1]
    (ax, ay), (bx, by) = segs[bound]
    return ay + (x - ax) * (by - ay) / (bx - ax)


def _check_trapmap(job, data, text) -> list:
    problems = []
    segs = job.data["segments"]
    bbox = job.data["bbox"]
    traps = data["trapezoids"]
    if data["segments"] != segs or data["bbox"] != bbox:
        problems.append("segments or bbox differ from the scene")
    if len(traps) > 3 * len(segs) + 1:
        problems.append("%d trapezoids for %d segments" % (len(traps), len(segs)))
    total = 0.0
    for t in traps:
        heights = [_bound_y(t["top"], x, segs, bbox) - _bound_y(t["bottom"], x, segs, bbox)
                   for x in (t["left_x"], t["right_x"])]
        if min(heights) < -1e-9 or t["right_x"] <= t["left_x"]:
            problems.append("inverted trapezoid %r" % t)
        total += 0.5 * sum(heights) * (t["right_x"] - t["left_x"])
    box = (bbox[2] - bbox[0]) * (bbox[3] - bbox[1])
    if abs(total - box) > 1e-6 * box:
        problems.append("trapezoid areas sum to %r, bbox area %r" % (total, box))
    return problems


def _check_locate(job, cells) -> list:
    segs = job.data["segments"]
    bbox = job.data["bbox"]
    queries = job.data["queries"]
    m = build_trapezoidal_map(
        [Segment(Point(*a), Point(*b)) for a, b in segs], BBox(*bbox)
    )
    if len(cells) != len(queries):
        return ["%d cells for %d queries" % (len(cells), len(queries))]
    problems = []
    for (x, y), idx in zip(queries, cells):
        t = m.trapezoids[idx]
        top = _bound_y(_wall_name(t.top), x, segs, bbox)
        bottom = _bound_y(_wall_name(t.bottom), x, segs, bbox)
        if not (t.left_x <= x <= t.right_x and bottom - 1e-9 <= y <= top + 1e-9):
            problems.append("query %r not in trapezoid %d" % ((x, y), idx))
    return problems


def _wall_name(bound):
    return bound if isinstance(bound, int) else bound.value


def _check_onion(job, data, text) -> list:
    pts = _pairs(job.data["points"])
    got = [set(_pairs(layer)) for layer in data]
    problems = []
    if sum(len(layer) for layer in data) != len(pts):
        problems.append("layers hold %d points, input has %d"
                        % (sum(len(layer) for layer in data), len(pts)))
    if got != geomgen.peel_oracle(pts):
        problems.append("layers differ from the peeling oracle")
    return problems


def _theta(beta: float) -> float:
    return math.asin(1.0 / beta) if beta >= 1.0 else math.pi - math.asin(beta)


def _check_beta_skeleton(job, data, text) -> list:
    pts = _pairs(job.data["points"])
    beta = float(job.params["beta"])
    if _pairs(data["points"]) != pts:
        return ["vertices differ from the input points"]
    got = set(_pairs(data["edges"]))
    if beta == 1.0:
        want = geomgen.gabriel_oracle(pts)
    else:
        want = geomgen.angle_skeleton_oracle(pts, _theta(beta))
    if got != want:
        return ["%d edges differ from the oracle's %d" % (len(got ^ want), len(want))]
    return []


def _cap_area(loop, ux, uy, c) -> float:
    """Area of {p in loop : u.p >= c}, by one Sutherland-Hodgman pass."""
    out = []
    for i in range(len(loop)):
        (x0, y0), (x1, y1) = loop[i - 1], loop[i]
        d0 = ux * x0 + uy * y0 - c
        d1 = ux * x1 + uy * y1 - c
        if (d0 >= 0.0) != (d1 >= 0.0):
            t = d0 / (d0 - d1)
            out.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
        if d1 >= 0.0:
            out.append((x1, y1))
    return abs(_area(out)) if len(out) >= 3 else 0.0


def _check_floating_body(job, data, text) -> list:
    poly = job.data["polygon"]
    n_dirs = job.params["directions"]
    delta = float(job.params["delta"])
    area = _area(poly)
    dupin = data["dupin"]
    if len(dupin) != n_dirs or data["delta"] != delta:
        return ["%d midpoints for %d directions" % (len(dupin), n_dirs)]
    problems = []
    step = 2.0 * math.pi / n_dirs
    for k in range(0, n_dirs, max(1, n_dirs // 36)):
        ux, uy = math.cos(k * step), math.sin(k * step)
        mx, my = dupin[k]
        cap = _cap_area(poly, ux, uy, ux * mx + uy * my)
        if abs(cap - delta * area) > 1e-8 * area:
            problems.append("direction %d cuts a cap of %r, want %r" % (k, cap, delta * area))
    body = data["convex_fb"]
    if body is not None and any(
        geomgen.cross3(body[i - 2], body[i - 1], body[i]) < -1e-9 for i in range(len(body))
    ):
        problems.append("convex floating body is not convex")
    return problems


def _check_triangles(poly, triangles) -> list:
    problems = []
    n = len(poly)
    if len(triangles) != n - 2:
        problems.append("%d triangles for %d vertices" % (len(triangles), n))
    total = 0.0
    for tri in triangles:
        if len(set(tri)) != 3 or not all(0 <= i < n for i in tri):
            return problems + ["bad triangle %r" % tri]
        a = _area([poly[i] for i in tri])
        if a <= 0.0:
            problems.append("triangle %r is not counterclockwise" % tri)
        total += a
    if abs(total - _area(poly)) > 1e-9 * _area(poly):
        problems.append("triangle areas sum to %r, polygon area %r" % (total, _area(poly)))
    return problems


def _check_triangulate(job, data, text) -> list:
    problems = _check_triangles(job.data["polygon"], data["triangles"])
    if data["samples"]:
        problems.append("unexpected samples")
    return problems


def _star_contains(poly):
    """Inside test for a polygon star-shaped about CENTER with sorted angles."""
    cx, cy = CENTER
    base = math.atan2(poly[0][1] - cy, poly[0][0] - cx)
    angles = [(math.atan2(y - cy, x - cx) - base) % (2.0 * math.pi) for x, y in poly]
    n = len(poly)

    def contains(x, y):
        k = bisect.bisect_right(angles, (math.atan2(y - cy, x - cx) - base) % (2.0 * math.pi))
        a, b = poly[k - 1], poly[k % n]
        edge = math.hypot(b[0] - a[0], b[1] - a[1])
        return geomgen.cross3(a, b, (x, y)) >= -1e-7 * edge

    return contains


def _check_sample(job, data, text) -> list:
    poly = job.data["polygon"]
    problems = _check_triangles(poly, data["triangles"])
    samples = data["samples"]
    if len(samples) != job.params["count"]:
        problems.append("%d samples, asked for %d" % (len(samples), job.params["count"]))
    contains = _star_contains(poly)
    outside = sum(1 for x, y in samples if not contains(x, y))
    if outside:
        problems.append("%d samples outside the polygon" % outside)
    return problems


def _check_fractal(job, data, text) -> list:
    depth = job.params["depth"]
    if job.kind == "sierpinski-triangle":
        seed = job.data["polygon"]
        kind, branching, shrink, corners = "triangle", 3, 0.75, 3
    else:
        x0, y0, x1, y1 = job.data["bbox"]
        seed = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
        kind, branching, shrink, corners = "carpet", 8, 8.0 / 9.0, 4
    cells = data["cells"]
    if data["kind"] != kind or data["depth"] != depth:
        return ["kind or depth differ"]
    if len(cells) != branching ** depth:
        return ["%d cells, want %d" % (len(cells), branching ** depth)]
    if any(len(cell) != corners for cell in cells):
        return ["a cell has the wrong number of corners"]
    total = sum(_area(cell) for cell in cells)
    want = _area(seed) * shrink ** depth
    if abs(total - want) > 1e-7 * want:
        return ["cell areas sum to %r, want %r" % (total, want)]
    return []


_CHECKS = {
    "quadtree": _check_point_quadtree,
    "pr-quadtree": _check_pr_quadtree,
    "trapmap": _check_trapmap,
    "onion": _check_onion,
    "beta-skeleton": _check_beta_skeleton,
    "floating-body": _check_floating_body,
    "triangulate": _check_triangulate,
    "sample": _check_sample,
    "sierpinski-triangle": _check_fractal,
    "sierpinski-carpet": _check_fractal,
}
