"""Command-line interface.

Every subcommand reads one scene file, runs one structure, and writes one
document (JSON dump by default, SVG or Ipe with --format).  The document
reaches the output as a stream of text chunks, and every check runs before
the first chunk.  Output goes through a temp file and an atomic rename so a
crash never leaves a half-written file; "-" streams to stdout instead, and
an existing device or FIFO is written to in place.  Exit codes: 0 on
success, 1 when the input fails to parse or validate, 2 for usage errors.

Start-up imports argparse and the command table only.  A run loads the
scene parser and the JSON writer after its arguments parse, its own
structure module when it runs, and the renderer only for SVG or Ipe.
A subcommand's parser is built on its first run in a process and reused
by every later run there, so a program that calls main again pays only
for parsing its argv.

Once its arguments parse, a run pauses the cycle collector until its
output is written, then puts back the state it found: --help and usage
errors exit before the pause, and a caller that had the collector off
keeps it off.  A run builds only acyclic data (points, dump dicts and
lists, stroke tuples), which reference counting frees as soon as it is
dropped, so the pause changes time, not memory; when on, the collector
re-walks those containers every few hundred allocations.  The collector's
state is process-wide, so other threads of a process that calls main run
without it meanwhile too.  gc.freeze() is not used instead: its
gc.unfreeze() would also release objects a caller froze on purpose, for
example before a fork.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import math
import os
import sys
from typing import TYPE_CHECKING, Callable, NamedTuple

if TYPE_CHECKING:
    from .core import BBox, Polygon
    from .scene import Scene


def _number_arg(convert, accept, message: str):
    """An argparse type: convert(text) must succeed and accept(value) hold.

    Either failure raises ArgumentTypeError with message, so the usage
    error states the rule rather than a function name.
    """
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(message) from None
        if not accept(value):
            raise argparse.ArgumentTypeError(message)
        return value
    return parse


def _depth_flag(cap_name: str):
    """--depth in [0, fractals.<cap_name>]; the cap is read when a value is checked."""
    def depth(text: str) -> int:
        from . import fractals

        cap = getattr(fractals, cap_name)
        message = "depth must be an integer in [0, %d]" % cap
        return _number_arg(int, lambda v: 0 <= v <= cap, message)(text)
    return ("--depth", dict(type=depth, required=True, help="recursion depth"))


def _first_polygon(scene: Scene) -> Polygon:
    from .core import GeometryError

    if not scene.polygons:
        raise GeometryError("scene has no polygons")
    return scene.polygons[0]


def _scene_bbox(scene: Scene) -> BBox:
    from .core import GeometryError

    if scene.bbox is None:
        raise GeometryError("scene has no bbox")
    return scene.bbox


class _Command(NamedTuple):
    help: str
    flags: tuple  # (flag, add_argument keywords) pairs, in --help order
    module: str  # the structure's geoforge module, loaded only to run
    run: Callable  # run(module, scene, args) returns the dump


# One record per subcommand, in --help order: the parser is built from it
# and main dispatches through it.  Only the command that runs loads its
# module, so a run compiles none of the other structures.
_COMMANDS = {
    "quadtree": _Command(
        "point quadtree of scene points", (), "quadtree",
        lambda m, scene, args: m.tree_to_dict(m.build_point_quadtree(scene.points)),
    ),
    "pr-quadtree": _Command(
        "PR quadtree of scene points",
        (
            ("--capacity", dict(
                type=_number_arg(int, lambda v: v >= 1, "capacity must be an integer >= 1"),
                required=True, help="leaf capacity")),
        ),
        "quadtree",
        lambda m, scene, args: m.tree_to_dict(
            m.build_pr_quadtree(scene.points, scene.bbox, args.capacity)
        ),
    ),
    "trapmap": _Command(
        "trapezoidal map of scene segments", (), "trapmap",
        lambda m, scene, args: m.map_to_dict(m.build_trapezoidal_map(scene.segments, scene.bbox)),
    ),
    "onion": _Command(
        "onion decomposition of scene points", (), "onion",
        lambda m, scene, args: m.layers_to_lists(m.onion_decomposition(scene.points)),
    ),
    "beta-skeleton": _Command(
        "beta-skeleton of scene points",
        (
            ("--beta", dict(
                type=_number_arg(float, lambda v: math.isfinite(v) and v > 0.0,
                                 "beta must be a finite real > 0"),
                required=True, help="beta parameter (> 0)")),
        ),
        "beta_skeleton",
        lambda m, scene, args: m.graph_to_dict(m.beta_skeleton(scene.points, args.beta)),
    ),
    "floating-body": _Command(
        "floating body of the first scene polygon",
        (
            ("--delta", dict(
                type=_number_arg(float, lambda v: math.isfinite(v) and 0.0 < v <= 0.5,
                                 "delta must be in (0, 0.5]"),
                required=True, help="area fraction in (0, 0.5]")),
            ("--directions", dict(
                type=_number_arg(int, lambda v: v >= 1, "directions must be an integer >= 1"),
                default=720, help="direction grid size")),
        ),
        "floating_body",
        lambda m, scene, args: m.result_to_dict(
            m.dupin_floating_body(_first_polygon(scene), args.delta, args.directions)
        ),
    ),
    "triangulate": _Command(
        "triangulate the first scene polygon", (), "triangulation",
        lambda m, scene, args: m.triangulation_to_dict(m.triangulate(_first_polygon(scene))),
    ),
    "sample": _Command(
        "sample uniform points in the first scene polygon",
        (
            ("--count", dict(
                type=_number_arg(int, lambda v: v >= 1, "count must be an integer >= 1"),
                required=True, help="number of samples")),
            ("--seed", dict(
                type=_number_arg(int, lambda v: 0 <= v < 2**64,
                                 "seed must be an unsigned 64-bit integer"),
                required=True, help="64-bit RNG seed")),
        ),
        "triangulation",
        lambda m, scene, args: m.triangulation_to_dict(
            tri := m.triangulate(_first_polygon(scene)),
            m.sample_points(tri, m.SampleRequest(count=args.count, seed=args.seed)),
        ),
    ),
    "sierpinski-triangle": _Command(
        "Sierpinski triangle of the first polygon",
        (_depth_flag("TRIANGLE_MAX_DEPTH"),),
        "fractals",
        lambda m, scene, args: m.output_to_dict(
            m.sierpinski_triangle(_first_polygon(scene), args.depth)
        ),
    ),
    "sierpinski-carpet": _Command(
        "Sierpinski carpet of the scene bbox",
        (_depth_flag("CARPET_MAX_DEPTH"),),
        "fractals",
        lambda m, scene, args: m.output_to_dict(
            m.sierpinski_carpet(_scene_bbox(scene), args.depth)
        ),
    ),
}


@functools.cache
def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser, with every subcommand or with only the one named.

    Building a parser costs more than a small run's own work, and
    building one subparser instead of ten is most of that.  The
    one-subparser parser lists all ten names in its usage line, so its
    usage errors read as the full parser's do.  Each parser is built on
    its first use in a process and then reused: parse_args keeps no state
    between calls, and the --help width is read when help is printed.
    main keeps at most eleven, one per subcommand and the full one.
    """
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
    # The full parser keeps argparse's metavar, which shapes the "required:
    # command" and "invalid choice" texts that only it can print.
    metavar = None if only is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if only is None else (only,):
        command = _COMMANDS[name]
        subparser = sub.add_parser(name, parents=[common], help=command.help)
        for flag, keywords in command.flags:
            subparser.add_argument(flag, **keywords)
    return parser


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
    while True:
        tmp = os.path.join(os.path.dirname(target), ".geoforge-" + os.urandom(6).hex())
        try:
            # mode 0666 less the umask, as a plain open gives a new file
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue  # a name already taken: draw another
        except OSError as err:
            # name the target, not the temp file's random name
            raise OSError(err.errno, err.strerror, target) from None
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    args = _build_parser(only).parse_args(argv)
    from . import jsontext
    from .core import GeometryError
    from .scene import SceneError, parse_scene

    command = _COMMANDS[args.command]
    collecting = gc.isenabled()
    gc.disable()
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            scene = parse_scene(fh.read())
        module = "%s.%s" % (__package__, command.module)
        __import__(module)  # as an import statement does, so -X importtime reports it
        result = command.run(sys.modules[module], scene, args)
        if args.format == "json":
            chunks = itertools.chain(jsontext.iterdumps(result), ("\n",))
        else:
            from . import render

            figure = render.svg_chunks if args.format == "svg" else render.ipe_chunks
            chunks = figure(scene, result)
        _write_output(args.output, chunks)
    except (SceneError, GeometryError, OSError, UnicodeDecodeError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
