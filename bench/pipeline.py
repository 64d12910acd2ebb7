"""How the benchmark runs one job: plainly, or as a traced replica.

``run_plain`` is what the end-to-end metrics time.  A CLI job goes through
the public entry point ``geoforge.cli.main(argv)``; a ``locate`` job is the
library sequence parse, build, then one ``locate`` call per query.

``run_traced`` repeats the same job by calling each module's public
functions in the order the CLI does, with a span around every call.  No
tracing lives in the library.  Its output bytes must equal the plain run's,
which guards the replica against drifting from the CLI.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time

from geoforge import cli, jsontext
from geoforge.beta_skeleton import beta_skeleton, graph_to_dict
from geoforge.core import GeometryError, Point
from geoforge.floating_body import dupin_floating_body, result_to_dict
from geoforge.fractals import output_to_dict, sierpinski_carpet, sierpinski_triangle
from geoforge.onion import layers_to_lists, onion_decomposition
from geoforge.quadtree import build_point_quadtree, build_pr_quadtree, tree_to_dict
from geoforge.render import emit_ipe, emit_svg
from geoforge.scene import SceneError, parse_scene
from geoforge.trapmap import build_trapezoidal_map, locate, map_to_dict
from geoforge.triangulation import (
    SampleRequest,
    sample_points,
    triangulate,
    triangulation_to_dict,
)


class Outcome:
    """What a job did: exit code, stderr text, or the exception it raised."""

    __slots__ = ("code", "stderr", "exception")

    def __init__(self, code=None, stderr="", exception=None):
        self.code = code
        self.stderr = stderr
        self.exception = exception


def _call(fn, *args) -> Outcome:
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = fn(*args)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # any uncaught exception is a failed job
        return Outcome(stderr=err.getvalue(), exception="%s: %s" % (type(exc).__name__, exc))
    return Outcome(code=code, stderr=err.getvalue())


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _locate_sequence(job, scene_path, out_path, t) -> int:
    """Parse, build, locate every query, dump the cell indices as JSON.

    Every job of this kind expects success, so errors propagate and count
    as failures.
    """
    with open(scene_path, encoding="utf-8") as fh:
        scene = t.call("scene.parse", parse_scene, fh.read())
    m = t.call("trapmap.build", build_trapezoidal_map, scene.segments, scene.bbox)
    t.count("trapmap.trapezoids", len(m.trapezoids))
    queries = [Point(x, y) for x, y in job.data["queries"]]
    cells = t.call("trapmap.locate", lambda: [locate(m, q) for q in queries])
    t.count("trapmap.locates", len(queries))
    out = t.call("jsontext.dumps", jsontext.dumps, cells) + "\n"
    t.count("jsontext.bytes", len(out))
    _write(out_path, out)
    return 0


class _Untraced:
    @staticmethod
    def call(name, fn, *args):
        return fn(*args)

    @staticmethod
    def count(name, value):
        pass

    peak = count


def run_plain(job, scene_path: str, out_path: str) -> tuple[float, Outcome]:
    """Run the job untraced; return its wall time and outcome."""
    if job.kind == "locate":
        fn, args = _locate_sequence, (job, scene_path, out_path, _Untraced)
    else:
        fn, args = cli.main, (job.argv(scene_path, out_path),)
    t0 = time.perf_counter()
    outcome = _call(fn, *args)
    return time.perf_counter() - t0, outcome


class Tracer:
    """In-memory spans: name, start, end, parent and job id.

    Times are seconds since the tracer was created.  A job's root span is
    named ``job``; every library call inside it is a child span.  Counters
    are summed per pass under their metric names.
    """

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list = []
        self.counters: dict = {}
        self._job = None
        self._parent = None
        self._pass = 0

    def start_job(self, job_id: str, pass_index: int) -> None:
        self._job, self._pass = job_id, pass_index
        self._parent = len(self.spans)
        self.spans.append({"id": self._parent, "name": "job", "job": job_id,
                           "pass": pass_index, "parent": None,
                           "start": time.perf_counter() - self.origin, "end": None})

    def end_job(self) -> None:
        self.spans[self._parent]["end"] = time.perf_counter() - self.origin
        self._job = self._parent = None

    def call(self, name, fn, *args):
        span = {"id": len(self.spans), "name": name, "job": self._job, "pass": self._pass,
                "parent": self._parent, "start": None, "end": None}
        self.spans.append(span)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            span["start"] = t0 - self.origin
            span["end"] = time.perf_counter() - self.origin

    def count(self, name: str, value) -> None:
        key = (self._pass, name)
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, name: str, value) -> None:
        key = (self._pass, name)
        self.counters[key] = max(self.counters.get(key, value), value)


def _first_polygon(scene):
    if not scene.polygons:
        raise GeometryError("scene has no polygons")
    return scene.polygons[0]


def _tree_shape(root_dict) -> tuple[int, int]:
    """Node count and depth of a dumped quadtree, walked iteratively."""
    nodes = depth = 0
    stack = [(root_dict, 1)]
    while stack:
        node, level = stack.pop()
        if node is None:
            continue
        nodes += 1
        depth = max(depth, level)
        if "children" in node:
            stack.extend((c, level + 1) for c in node["children"])
        elif "site" in node:
            stack.extend((node[k], level + 1) for k in ("nw", "ne", "sw", "se"))
    return nodes, depth


def _build(job, scene, t: Tracer) -> dict:
    """The CLI's build and dump stage for one subcommand, span by span."""
    p = job.params
    kind = job.kind
    if kind in ("quadtree", "pr-quadtree"):
        if kind == "quadtree":
            tree = t.call("quadtree.build", build_point_quadtree, scene.points)
        else:
            tree = t.call("quadtree.build", build_pr_quadtree, scene.points, scene.bbox,
                          p["capacity"])
            t.count("quadtree.overfull", int(tree.overfull))
        data = t.call("quadtree.to_dict", tree_to_dict, tree)
        nodes, depth = _tree_shape(data["root"])
        t.count("quadtree.nodes", nodes)
        t.peak("quadtree.depth", depth)
        return data
    if kind == "trapmap":
        m = t.call("trapmap.build", build_trapezoidal_map, scene.segments, scene.bbox)
        t.count("trapmap.trapezoids", len(m.trapezoids))
        return t.call("trapmap.to_dict", map_to_dict, m)
    if kind == "onion":
        d = t.call("onion.build", onion_decomposition, scene.points)
        t.count("onion.layers", len(d.layers))
        return t.call("onion.to_dict", layers_to_lists, d)
    if kind == "beta-skeleton":
        g = t.call("beta_skeleton.build", beta_skeleton, scene.points, float(p["beta"]))
        n = len(scene.points)
        t.count("beta_skeleton.edges", len(g.edges))
        t.count("beta_skeleton.pairs", n * (n - 1) // 2)
        return t.call("beta_skeleton.to_dict", graph_to_dict, g)
    if kind == "floating-body":
        r = t.call("floating_body.build", dupin_floating_body, _first_polygon(scene),
                   float(p["delta"]), p["directions"])
        t.count("floating_body.directions", r.directions)
        return t.call("floating_body.to_dict", result_to_dict, r)
    if kind in ("triangulate", "sample"):
        tri = t.call("triangulation.triangulate", triangulate, _first_polygon(scene))
        t.count("triangulation.triangles", len(tri.triangles))
        samples = ()
        if kind == "sample":
            request = SampleRequest(count=p["count"], seed=p["seed"])
            samples = t.call("triangulation.sample", sample_points, tri, request)
        return t.call("triangulation.to_dict", triangulation_to_dict, tri, samples)
    if kind in ("sierpinski-triangle", "sierpinski-carpet"):
        if kind == "sierpinski-triangle":
            out = t.call("fractals.build", sierpinski_triangle, _first_polygon(scene), p["depth"])
        else:
            if scene.bbox is None:
                raise GeometryError("scene has no bbox")
            out = t.call("fractals.build", sierpinski_carpet, scene.bbox, p["depth"])
        t.count("fractals.cells", len(out.cells))
        return t.call("fractals.to_dict", output_to_dict, out)
    raise ValueError("unknown job kind %r" % kind)


def _traced_cli(job, scene_path, out_path, t: Tracer) -> int:
    try:
        with open(scene_path, encoding="utf-8") as fh:
            text = fh.read()
        try:
            scene = t.call("scene.parse", parse_scene, text)
        except SceneError:
            t.count("scene.rejected", 1)
            raise
        result = _build(job, scene, t)
        if job.fmt == "json":
            out = t.call("jsontext.dumps", jsontext.dumps, result) + "\n"
            t.count("jsontext.bytes", len(out))
        else:
            emit = emit_svg if job.fmt == "svg" else emit_ipe
            out = t.call("render." + job.fmt, emit, scene, result)
            t.count("render.bytes", len(out))
        _write(out_path, out)
    except (SceneError, GeometryError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    return 0


def run_replica(job, scene_path: str, out_path: str, t) -> Outcome:
    """Run the job's replica, making every library call through ``t.call``."""
    replica = _locate_sequence if job.kind == "locate" else _traced_cli
    return _call(replica, job, scene_path, out_path, t)


def run_traced(job, scene_path: str, out_path: str, t: Tracer, pass_index: int):
    """Run the job's replica under spans; return its wall time and outcome."""
    t.start_job(job.id, pass_index)
    t0 = time.perf_counter()
    outcome = run_replica(job, scene_path, out_path, t)
    elapsed = time.perf_counter() - t0
    t.end_job()
    return elapsed, outcome
