"""Seeded job lists for the three benchmark workloads.

A job is one geoforge CLI invocation, or, for trapezoidal-map queries, one
library call sequence (parse, build, then many ``locate`` calls), on one
generated scene.  The mix of kinds and sizes is fixed per workload and the
seed only moves the geometry, so every seed asks for the same amount of
work up to the data-dependent cost of each structure.

- ``points``: onion and beta-skeleton builds at sizes spanning 4x, plus
  small quadtrees, all written as JSON.  It isolates the O(n^2) peel and
  the O(n^3) skeleton and bypasses the writers.
- ``shapes``: trapezoidal maps (CLI builds, and library build + query
  sequences), floating bodies of convex polygons, triangulation and
  sampling of star polygons, with about 10% self-intersecting stars that
  must be rejected.  It covers validation, segments and convex polygons,
  and uses ``scene`` (accept vs reject) and ``trapmap`` (build vs query)
  two ways each.
- ``emit``: quadtrees (2k-8k points), fractals (carpet depth 3-5, triangle
  depth 6-8) and samples (5k-20k), each written as JSON, SVG and Ipe.
  Dumps, writers and memory dominate; it bypasses the point and segment
  builders.

Each workload has at least 100 jobs, many of moderate size and a few large
ones, so that the 90th latency percentile has ten jobs beyond it.

Every workload also carries the same dozen tiny "coverage" jobs, one per
subcommand (plus a rejected scene and both figure formats), so that every
per-layer metric is a measured time on every workload instead of a
constant zero.  They take well under 1% of any workload's time and are
left out of the scaling fits.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

import geomgen

SPAN = 1000.0
CENTER = (SPAN / 2.0, SPAN / 2.0)
BBOX = [0.0, 0.0, SPAN, SPAN]

WORKLOADS = ("points", "shapes", "emit")


@dataclass
class Job:
    id: str
    kind: str  # a CLI subcommand, or "locate" for the library sequence
    scene: str  # scene file text
    data: dict  # the generated geometry, for the output checks
    params: dict = field(default_factory=dict)
    fmt: str = "json"
    size: int = 0  # points, segments or vertices the job was generated with
    expect_ok: bool = True
    coverage: bool = False

    def argv(self, scene_path: str, out_path: str) -> list:
        argv = [self.kind, "--input", scene_path, "--output", out_path, "--format", self.fmt]
        for key, value in self.params.items():
            argv += ["--" + key, str(value)]
        return argv


def _scene(**entries) -> str:
    return json.dumps(entries, separators=(",", ":"))


def _grid(points):
    """Snap to a 1e-6 grid, so the CLI's 12-digit output reprints inputs exactly."""
    return [[round(x, 6), round(y, 6)] for x, y in points]


def random_points(rng, n):
    """n distinct points on a 1e-6 grid, exact under 12-digit printing."""
    seen: dict = {}
    while len(seen) < n:
        for p in geomgen.random_points(rng, n - len(seen), 0.0, SPAN, decimals=6):
            seen.setdefault(p, None)
    return [list(p) for p in seen]


def random_segments(rng, n):
    """n non-crossing, non-vertical segments in disjoint horizontal bands."""
    return [_grid(seg) for seg in geomgen.random_noncrossing_segments(rng, n, 0.0, SPAN)]


def star_polygon(rng, n):
    """Simple CCW n-gon, star-shaped about CENTER, with alternating radii.

    Vertex k sits within 0.3 of a step from angle 2*pi*k/n, so the angles
    increase around the loop and every edge is visible from CENTER.
    """
    step = 2.0 * math.pi / n
    verts = []
    for k in range(n):
        phi = (k + rng.uniform(-0.3, 0.3)) * step
        r = SPAN * ((0.45 if k % 2 else 0.25) + rng.uniform(0.0, 0.04))
        verts.append((CENTER[0] + r * math.cos(phi), CENTER[1] + r * math.sin(phi)))
    return _grid(verts)


def crossed_star(rng, n):
    """A star with vertex n//3 moved outside it, opposite its old place.

    The moved vertex lies beyond the star's outer radius, so its incoming
    edge leaves the star through an edge far from its neighbours: the
    polygon self-intersects and the scene must be rejected.
    """
    verts = star_polygon(rng, n)
    k = n // 3
    dx, dy = verts[k][0] - CENTER[0], verts[k][1] - CENTER[1]
    scale = 0.55 * SPAN / math.hypot(dx, dy)
    verts[k] = [round(CENTER[0] - dx * scale, 6), round(CENTER[1] - dy * scale, 6)]
    edges = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    if not any(
        geomgen.segments_properly_cross(*edges[e], *edges[j])
        for e in (k - 1, k)
        for j in range(n)
        if j not in ((e - 1) % n, e % n, (e + 1) % n)
    ):
        raise AssertionError("crossed star does not self-intersect")
    return verts


def convex_polygon(rng, n):
    """CCW n-gon with jittered vertices on a circle about CENTER."""
    step = 2.0 * math.pi / n
    r = 0.4 * SPAN
    return _grid(
        (CENTER[0] + r * math.cos(phi), CENTER[1] + r * math.sin(phi))
        for phi in ((k + rng.uniform(-0.3, 0.3)) * step for k in range(n))
    )


def random_triangle(rng):
    """CCW triangle with one corner in each of three corners of the span."""
    return _grid([(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)),
                  (rng.uniform(900.0, 1000.0), rng.uniform(0.0, 100.0)),
                  (rng.uniform(400.0, 600.0), rng.uniform(800.0, 1000.0))])


def random_box(rng):
    (x0, y0), (x1, y1) = _grid([(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)),
                                (rng.uniform(900.0, 1000.0), rng.uniform(900.0, 1000.0))])
    return [x0, y0, x1, y1]


def _query_points(rng, n):
    lo, hi = 0.001 * SPAN, 0.999 * SPAN
    return _grid((rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(n))


# One spec per job: (kind, size, format, parameters).  The size is points,
# segments, vertices or fractal depth, by kind.

def _points_mix():
    specs = []
    for n, count in ((250, 20), (500, 8), (1000, 4)):
        specs += [("onion", n, "json", {})] * count
    for n, count in ((75, 24), (150, 8), (300, 4)):
        for beta in (1, 2):
            specs += [("beta-skeleton", n, "json", {"beta": beta})] * (count // 2)
    specs += [("quadtree", 1000, "json", {})] * 10
    specs += [("pr-quadtree", 1000, "json", {"capacity": 4})] * 10
    return specs


def _shapes_mix():
    specs = []
    for n, count in ((100, 10), (200, 3), (400, 1)):
        specs += [("trapmap", n, "json", {})] * count
    specs += [("locate", 200, "json", {"queries": 2000})] * 3
    for n, count in ((64, 4), (128, 1), (256, 1)):
        specs += [("floating-body", n, "json", {"delta": 0.1, "directions": 360})] * count
    for n, count in ((100, 22), (200, 6), (400, 1)):
        specs += [("triangulate", n, "json", {})] * count
        specs += [("sample", n, "json", {"count": 1000})] * count
    # 7 of the 71 polygon jobs carry a self-intersecting star
    specs += [("reject", n, "json", {}) for n in (100, 100, 100, 100, 200, 200, 400)]
    return specs


def _emit_mix():
    specs = []
    for fmt in ("json", "svg", "ipe"):
        for n, count in ((2000, 2), (4000, 4), (8000, 1)):
            specs += [("quadtree", n, fmt, {})] * count
            specs += [("pr-quadtree", n, fmt, {"capacity": 4})] * count
        for depth, count in ((3, 3), (4, 2), (5, 1)):
            specs += [("sierpinski-carpet", depth, fmt, {})] * count
        for depth, count in ((6, 3), (7, 2), (8, 1)):
            specs += [("sierpinski-triangle", depth, fmt, {})] * count
        for samples, count in ((20000, 4),):
            specs += [("sample", 100, fmt, {"count": samples})] * count
    return specs


COVERAGE = [
    ("quadtree", 50, "json", {}),
    ("pr-quadtree", 50, "json", {"capacity": 2}),
    ("trapmap", 10, "json", {}),
    ("locate", 10, "json", {"queries": 50}),
    ("onion", 40, "json", {}),
    ("beta-skeleton", 30, "json", {"beta": 1}),
    ("floating-body", 12, "json", {"delta": 0.25, "directions": 36}),
    ("triangulate", 12, "json", {}),
    ("sample", 12, "json", {"count": 100}),
    ("reject", 12, "json", {}),
    ("sierpinski-triangle", 2, "svg", {}),
    ("sierpinski-carpet", 1, "ipe", {}),
]

MIXES = {"points": _points_mix, "shapes": _shapes_mix, "emit": _emit_mix}


def _make_job(job_id, kind, size, fmt, extra, rng, coverage):
    params = {k: v for k, v in extra.items() if k != "queries"}
    common = dict(id=job_id, fmt=fmt, size=size, coverage=coverage)
    if kind in ("quadtree", "pr-quadtree", "onion", "beta-skeleton"):
        pts = random_points(rng, size)
        if kind == "pr-quadtree":
            return Job(kind=kind, scene=_scene(points=pts, bbox=BBOX),
                       data={"points": pts, "bbox": BBOX}, params=params, **common)
        return Job(kind=kind, scene=_scene(points=pts), data={"points": pts},
                   params=params, **common)
    if kind in ("trapmap", "locate"):
        segs = random_segments(rng, size)
        data = {"segments": segs, "bbox": BBOX}
        if kind == "locate":
            data["queries"] = _query_points(rng, extra["queries"])
        return Job(kind=kind, scene=_scene(segments=segs, bbox=BBOX), data=data,
                   params=params, **common)
    if kind == "floating-body":
        poly = convex_polygon(rng, size)
        return Job(kind=kind, scene=_scene(polygons=[poly]), data={"polygon": poly},
                   params=params, **common)
    if kind in ("triangulate", "sample"):
        poly = star_polygon(rng, size)
        if kind == "sample":
            params["seed"] = rng.getrandbits(64)
        return Job(kind=kind, scene=_scene(polygons=[poly]), data={"polygon": poly},
                   params=params, **common)
    if kind == "reject":
        poly = crossed_star(rng, size)
        return Job(kind="triangulate", scene=_scene(polygons=[poly]), data={"polygon": poly},
                   params=params, expect_ok=False, **common)
    if kind == "sierpinski-triangle":
        tri = random_triangle(rng)
        return Job(kind=kind, scene=_scene(polygons=[tri]), data={"polygon": tri},
                   params=dict(params, depth=size), **common)
    if kind == "sierpinski-carpet":
        box = random_box(rng)
        return Job(kind=kind, scene=_scene(bbox=box), data={"bbox": box},
                   params=dict(params, depth=size), **common)
    raise ValueError("unknown job kind %r" % kind)


def make_jobs(workload: str, seed: int) -> list:
    """The workload's job list for this seed.

    The order of jobs is shuffled by a generator keyed on the workload name
    alone, so it is the same for every seed; only the geometry depends on
    the seed.
    """
    specs = [(s, False) for s in MIXES[workload]()] + [(s, True) for s in COVERAGE]
    random.Random("order:" + workload).shuffle(specs)
    jobs = []
    for index, ((kind, size, fmt, extra), coverage) in enumerate(specs):
        rng = random.Random("%s:%d:%d" % (workload, seed, index))
        job_id = "%s-%03d-%s-%d-%s" % (workload, index, kind, size, fmt)
        jobs.append(_make_job(job_id, kind, size, fmt, extra, rng, coverage))
    return jobs


def scenes_digest(jobs) -> str:
    """sha256 over every job's id, parameters, scene and query points."""
    h = hashlib.sha256()
    for job in jobs:
        h.update(job.id.encode())
        h.update(json.dumps(job.params, sort_keys=True).encode())
        h.update(job.scene.encode())
        h.update(json.dumps(job.data.get("queries", [])).encode())
    return h.hexdigest()
