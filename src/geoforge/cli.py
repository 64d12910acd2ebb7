"""Command-line interface.

Every subcommand reads one scene file, runs one structure, and writes one
document (JSON dump by default, SVG or Ipe with --format).  The document
reaches the output as a stream of text chunks, and every check runs before
the first chunk.  Output goes through a temp file and an atomic rename so a
crash never leaves a half-written file; "-" streams to stdout instead, and
an existing device or FIFO is written to in place.  Exit codes: 0 on
success, 1 when the input fails to parse or validate, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
import tempfile

from . import jsontext
from .beta_skeleton import beta_skeleton, graph_to_dict
from .core import BBox, GeometryError, Polygon
from .floating_body import dupin_floating_body, result_to_dict
from .fractals import (
    CARPET_MAX_DEPTH,
    TRIANGLE_MAX_DEPTH,
    output_to_dict,
    sierpinski_carpet,
    sierpinski_triangle,
)
from .onion import layers_to_lists, onion_decomposition
from .quadtree import build_point_quadtree, build_pr_quadtree, tree_to_dict
from .render import ipe_chunks, svg_chunks
from .scene import Scene, SceneError, parse_scene
from .trapmap import build_trapezoidal_map, map_to_dict
from .triangulation import (
    SampleRequest,
    sample_points,
    triangulate,
    triangulation_to_dict,
)


def _beta_arg(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError("beta must be a finite real > 0")
    return value


def _delta_arg(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and 0.0 < value <= 0.5):
        raise argparse.ArgumentTypeError("delta must be in (0, 0.5]")
    return value


def _capacity_arg(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("capacity must be an integer >= 1")
    return value


def _count_arg(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("count must be an integer >= 1")
    return value


def _seed_arg(text: str) -> int:
    value = int(text)
    if not (0 <= value < 2**64):
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def _directions_arg(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("directions must be an integer >= 1")
    return value


def _depth_arg(cap: int):
    def parse(text: str) -> int:
        value = int(text)
        if not (0 <= value <= cap):
            raise argparse.ArgumentTypeError("depth must be an integer in [0, %d]" % cap)
        return value

    return parse


def _bbox_arg(text: str) -> BBox:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("bbox must be xmin,ymin,xmax,ymax")
    try:
        return BBox(*(float(p) for p in parts))
    except (ValueError, GeometryError) as err:
        raise argparse.ArgumentTypeError("bad bbox: %s" % err) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geoforge",
        description="Planar geometry structures with JSON, SVG and Ipe output.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="scene file (JSON)")
    common.add_argument("--output", required=True, help="output path, or - for stdout")
    common.add_argument(
        "--format", choices=("json", "svg", "ipe"), default="json", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("quadtree", parents=[common], help="point quadtree of scene points")

    pr = sub.add_parser("pr-quadtree", parents=[common], help="PR quadtree of scene points")
    pr.add_argument("--capacity", type=_capacity_arg, required=True, help="leaf capacity")
    pr.add_argument("--bbox", type=_bbox_arg, help="region override (xmin,ymin,xmax,ymax)")

    tm = sub.add_parser("trapmap", parents=[common], help="trapezoidal map of scene segments")
    tm.add_argument("--bbox", type=_bbox_arg, help="bbox override (xmin,ymin,xmax,ymax)")

    sub.add_parser("onion", parents=[common], help="onion decomposition of scene points")

    bs = sub.add_parser("beta-skeleton", parents=[common], help="beta-skeleton of scene points")
    bs.add_argument("--beta", type=_beta_arg, required=True, help="beta parameter (> 0)")

    fb = sub.add_parser(
        "floating-body", parents=[common], help="floating body of the first scene polygon"
    )
    fb.add_argument("--delta", type=_delta_arg, required=True, help="area fraction in (0, 0.5]")
    fb.add_argument(
        "--directions", type=_directions_arg, default=720, help="direction grid size"
    )

    sub.add_parser(
        "triangulate", parents=[common], help="triangulate the first scene polygon"
    )

    sp = sub.add_parser(
        "sample", parents=[common], help="sample uniform points in the first scene polygon"
    )
    sp.add_argument("--count", type=_count_arg, required=True, help="number of samples")
    sp.add_argument("--seed", type=_seed_arg, required=True, help="64-bit RNG seed")

    st = sub.add_parser(
        "sierpinski-triangle", parents=[common], help="Sierpinski triangle of the first polygon"
    )
    st.add_argument(
        "--depth", type=_depth_arg(TRIANGLE_MAX_DEPTH), required=True, help="recursion depth"
    )

    sc = sub.add_parser(
        "sierpinski-carpet", parents=[common], help="Sierpinski carpet of the scene bbox"
    )
    sc.add_argument(
        "--depth", type=_depth_arg(CARPET_MAX_DEPTH), required=True, help="recursion depth"
    )
    return parser


def _first_polygon(scene: Scene) -> Polygon:
    if not scene.polygons:
        raise GeometryError("scene has no polygons")
    return scene.polygons[0]


def _run_quadtree(scene: Scene, args):
    return tree_to_dict(build_point_quadtree(scene.points))


def _run_pr_quadtree(scene: Scene, args):
    region = args.bbox if args.bbox is not None else scene.bbox
    return tree_to_dict(build_pr_quadtree(scene.points, region, args.capacity))


def _run_trapmap(scene: Scene, args):
    bbox = args.bbox if args.bbox is not None else scene.bbox
    return map_to_dict(build_trapezoidal_map(scene.segments, bbox))


def _run_onion(scene: Scene, args):
    return layers_to_lists(onion_decomposition(scene.points))


def _run_beta_skeleton(scene: Scene, args):
    return graph_to_dict(beta_skeleton(scene.points, args.beta))


def _run_floating_body(scene: Scene, args):
    return result_to_dict(
        dupin_floating_body(_first_polygon(scene), args.delta, args.directions)
    )


def _run_triangulate(scene: Scene, args):
    return triangulation_to_dict(triangulate(_first_polygon(scene)))


def _run_sample(scene: Scene, args):
    tri = triangulate(_first_polygon(scene))
    samples = sample_points(tri, SampleRequest(count=args.count, seed=args.seed))
    return triangulation_to_dict(tri, samples)


def _run_sierpinski_triangle(scene: Scene, args):
    poly = _first_polygon(scene)
    return output_to_dict(sierpinski_triangle(poly, args.depth))


def _run_sierpinski_carpet(scene: Scene, args):
    if scene.bbox is None:
        raise GeometryError("scene has no bbox")
    return output_to_dict(sierpinski_carpet(scene.bbox, args.depth))


_DISPATCH = {
    "quadtree": _run_quadtree,
    "pr-quadtree": _run_pr_quadtree,
    "trapmap": _run_trapmap,
    "onion": _run_onion,
    "beta-skeleton": _run_beta_skeleton,
    "floating-body": _run_floating_body,
    "triangulate": _run_triangulate,
    "sample": _run_sample,
    "sierpinski-triangle": _run_sierpinski_triangle,
    "sierpinski-carpet": _run_sierpinski_carpet,
}


def _write_output(path: str, chunks) -> None:
    """Write the text chunks to path, or to stdout for "-".

    A regular file is written through a temp file beside it and renamed
    over the target, so an error in the chunk source or in the write
    leaves the target as it was and removes the temp file.  stdout, and an
    existing device or FIFO, are written as the chunks come: there an
    error after the first chunk leaves what was written so far.
    """
    if path == "-":
        sys.stdout.writelines(chunks)
        return
    target = os.path.abspath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        # a device or FIFO: write through it; a rename would replace it
        with open(target, "w") as fh:
            fh.writelines(chunks)
        return
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".geoforge-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        # mkstemp creates the file 0600; give it the mode a plain open would
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            scene = parse_scene(fh.read())
        result = _DISPATCH[args.command](scene, args)
        if args.format == "json":
            chunks = itertools.chain(jsontext.iterdumps(result), ("\n",))
        elif args.format == "svg":
            chunks = svg_chunks(scene, result)
        else:
            chunks = ipe_chunks(scene, result)
        _write_output(args.output, chunks)
    except (SceneError, GeometryError, OSError, UnicodeDecodeError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
