"""The geoforge command line: exit codes, outputs, atomicity."""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import re
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import geomgen
import geoforge
import geoforge.scene
from geoforge import cli, jsontext, quadtree, render
from geoforge.cli import main

POINTS = '{"points":[[10,10],[40,70],[80,20],[60,60],[30,30]]}'
POLYGON = '{"polygons":[[[0,0],[100,0],[100,100],[0,100]]]}'
SEGMENTS = '{"segments":[[[10,40],[90,60]]],"bbox":[0,0,100,100]}'
BOX_ONLY = '{"bbox":[0,0,81,81]}'
TRIANGLE = '{"polygons":[[[0,0],[100,0],[50,86.6]]]}'


@pytest.fixture
def scenes(tmp_path):
    files = {}
    for name, text in [
        ("points", POINTS),
        ("polygon", POLYGON),
        ("segments", SEGMENTS),
        ("box", BOX_ONLY),
        ("triangle", TRIANGLE),
    ]:
        path = tmp_path / ("%s.json" % name)
        path.write_text(text)
        files[name] = str(path)
    return files


def test_every_subcommand_writes_json(scenes, tmp_path):
    runs = [
        (["quadtree", "--input", scenes["points"]], {"kind": "point"}),
        (["pr-quadtree", "--input", scenes["points"], "--capacity", "2"], {"kind": "pr"}),
        (["trapmap", "--input", scenes["segments"]], None),
        (["onion", "--input", scenes["points"]], None),
        (["beta-skeleton", "--input", scenes["points"], "--beta", "1"], None),
        (["floating-body", "--input", scenes["polygon"], "--delta", "0.1",
          "--directions", "36"], None),
        (["triangulate", "--input", scenes["polygon"]], None),
        (["sample", "--input", scenes["polygon"], "--count", "5", "--seed", "7"], None),
        (["sierpinski-triangle", "--input", scenes["triangle"], "--depth", "3"],
         {"kind": "triangle", "depth": 3}),
        (["sierpinski-carpet", "--input", scenes["box"], "--depth", "2"],
         {"kind": "carpet", "depth": 2}),
    ]
    for idx, (args, expect) in enumerate(runs):
        out = tmp_path / ("out%d.json" % idx)
        code = main(args + ["--output", str(out)])
        assert code == 0, args
        data = json.loads(out.read_text())
        if expect:
            for key, val in expect.items():
                assert data[key] == val


def test_formats_svg_and_ipe(scenes, tmp_path):
    svg = tmp_path / "out.svg"
    assert main(["quadtree", "--input", scenes["points"], "--output", str(svg),
                 "--format", "svg"]) == 0
    assert svg.read_text().startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg')
    ipe = tmp_path / "out.ipe"
    assert main(["beta-skeleton", "--input", scenes["points"], "--output", str(ipe),
                 "--format", "ipe", "--beta", "2"]) == 0
    text = ipe.read_text()
    assert 'creator="geoforge"' in text and text.endswith("</ipe>\n")


def test_dash_writes_to_stdout(scenes, capsys):
    assert main(["onion", "--input", scenes["points"], "--output", "-"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("[[[")


def test_output_is_deterministic(scenes, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["sample", "--input", scenes["polygon"], "--count", "100", "--seed", "9"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_parameter_errors_exit_two(scenes, tmp_path, capsys):
    out = str(tmp_path / "x.json")
    bad = [
        ["beta-skeleton", "--input", scenes["points"], "--output", out, "--beta", "0"],
        ["beta-skeleton", "--input", scenes["points"], "--output", out, "--beta", "-1"],
        ["beta-skeleton", "--input", scenes["points"], "--output", out, "--beta", "inf"],
        ["floating-body", "--input", scenes["polygon"], "--output", out, "--delta", "0.6"],
        ["floating-body", "--input", scenes["polygon"], "--output", out, "--delta", "0"],
        ["sample", "--input", scenes["polygon"], "--output", out, "--count", "0",
         "--seed", "1"],
        ["sample", "--input", scenes["polygon"], "--output", out, "--count", "5",
         "--seed", "-2"],
        ["pr-quadtree", "--input", scenes["points"], "--output", out, "--capacity", "0"],
        ["sierpinski-triangle", "--input", scenes["triangle"], "--output", out,
         "--depth", "13"],
        ["sierpinski-carpet", "--input", scenes["box"], "--output", out, "--depth", "8"],
        ["sierpinski-carpet", "--input", scenes["box"], "--output", out, "--depth", "-1"],
        ["no-such-command", "--input", scenes["box"], "--output", out],
    ]
    for args in bad:
        with pytest.raises(SystemExit) as e:
            main(args)
        assert e.value.code == 2, args
        capsys.readouterr()
        assert not os.path.exists(out)
    # a value that does not parse as a number states the flag's rule
    non_numeric = [
        (["beta-skeleton", "--input", scenes["points"], "--beta", "x"],
         "beta must be a finite real > 0"),
        (["floating-body", "--input", scenes["polygon"], "--delta", "x"],
         "delta must be in (0, 0.5]"),
        (["floating-body", "--input", scenes["polygon"], "--delta", "0.1",
          "--directions", "x"], "directions must be an integer >= 1"),
        (["pr-quadtree", "--input", scenes["points"], "--capacity", "x"],
         "capacity must be an integer >= 1"),
        (["sample", "--input", scenes["polygon"], "--count", "x", "--seed", "1"],
         "count must be an integer >= 1"),
        (["sample", "--input", scenes["polygon"], "--count", "1" * 5000, "--seed", "1"],
         "count must be an integer >= 1"),
        (["sample", "--input", scenes["polygon"], "--count", "5", "--seed", "x"],
         "seed must be an unsigned 64-bit integer"),
        (["sierpinski-triangle", "--input", scenes["triangle"], "--depth", "z"],
         "depth must be an integer in [0, 12]"),
        (["sierpinski-carpet", "--input", scenes["box"], "--depth", "z"],
         "depth must be an integer in [0, 7]"),
    ]
    for args, rule in non_numeric:
        with pytest.raises(SystemExit) as e:
            main(args + ["--output", out])
        assert e.value.code == 2, args
        err = capsys.readouterr().err
        assert rule in err and "invalid" not in err, err
        assert not os.path.exists(out)


# Each subcommand with the flags it requires; the usage cases add to these.
USAGE_COMMANDS = [
    ["quadtree"],
    ["pr-quadtree", "--capacity", "2"],
    ["trapmap"],
    ["onion"],
    ["beta-skeleton", "--beta", "1"],
    ["floating-body", "--delta", "0.1"],
    ["triangulate"],
    ["sample", "--count", "5", "--seed", "7"],
    ["sierpinski-triangle", "--depth", "2"],
    ["sierpinski-carpet", "--depth", "2"],
]
USAGE_GOLDEN = Path(__file__).parent / "golden" / "cli-usage.txt"


def usage_transcript() -> str:
    """Each usage case's argv, exit code, stdout and stderr, as one text.

    Regenerate the golden with
    ``COLUMNS=80 PYTHONPATH=src:tests python -c "import sys, test_cli;
    sys.stdout.write(test_cli.usage_transcript())" > tests/golden/cli-usage.txt``.
    No case gets as far as opening its --input or --output.
    """
    cases = [["--help"], [], ["no-such-command"], ["-h", "onion"]]
    for command in USAGE_COMMANDS:
        files = ["--input", "scene.json", "--output", "out.json"]
        cases += [[command[0], "--help"], [command[0]], command + files + ["extra"],
                  command + files + ["--format", "pdf"]]
    parts = []
    for argv in cases:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        parts.append("$ geoforge %s\n[exit %s]\n[stdout]\n%s[stderr]\n%s"
                     % (" ".join(argv), code, out.getvalue(), err.getvalue()))
    return "\n".join(parts)


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the golden holds Python 3.11's argparse wording")
def test_usage_texts_match_their_golden(monkeypatch):
    # argparse wraps help and usage to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    cli._build_parser.cache_clear()
    # the first pass builds every parser, the second reuses them
    for _ in range(2):
        assert usage_transcript() == USAGE_GOLDEN.read_text()


def test_a_subcommand_run_builds_only_its_own_subparser(scenes, tmp_path, monkeypatch, capsys):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    cli._build_parser.cache_clear()
    out = str(tmp_path / "o.json")
    # a subcommand's first run builds its parser, and later runs reuse it
    for name, want in (("onion", ["onion"]), ("onion", []), ("trapmap", ["trapmap"])):
        built.clear()
        scene = scenes["segments" if name == "trapmap" else "points"]
        assert main([name, "--input", scene, "--output", out]) == 0
        assert built == want
    # with no command first, the full parser serves --help and the errors
    for argv in (["--help"], ["-h", "onion"], ["no-such-command"], []):
        built.clear()
        with pytest.raises(SystemExit):
            main(argv)
        assert built == (list(cli._COMMANDS) if argv == ["--help"] else [])
    assert cli._build_parser.cache_info().currsize == 3
    capsys.readouterr()


def _cold_bytes(argv: list, out: Path) -> bytes:
    """The bytes argv writes to out from a parser built afresh."""
    cli._build_parser.cache_clear()
    assert main(argv + ["--output", str(out)]) == 0
    return out.read_bytes()


def test_a_reused_parser_keeps_no_flag_from_an_earlier_run(scenes, tmp_path):
    run = ["floating-body", "--input", scenes["polygon"], "--delta", "0.1"]
    cold = _cold_bytes(run, tmp_path / "cold.json")
    out = tmp_path / "warm.json"
    assert main(run + ["--directions", "36", "--output", str(out)]) == 0
    assert out.read_bytes() != cold
    # the default of 720 directions again, not the 36 of the run before
    assert main(run + ["--output", str(out)]) == 0
    assert out.read_bytes() == cold


def test_a_run_after_a_usage_error_writes_what_a_cold_run_writes(scenes, tmp_path, capsys):
    run = ["beta-skeleton", "--input", scenes["points"], "--beta", "2"]
    cold = _cold_bytes(run, tmp_path / "cold.json")
    out = tmp_path / "warm.json"
    with pytest.raises(SystemExit) as exc:
        main(["beta-skeleton", "--input", scenes["points"], "--beta", "0",
              "--output", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    assert main(run + ["--output", str(out)]) == 0
    assert out.read_bytes() == cold
    capsys.readouterr()


def test_readme_subcommand_table_matches_the_command_table():
    # rows look like: | `sample` | `--count N`, `--seed S` | ... |
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    rows = []
    for line in readme.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 3:
            flags = [item.split()[0] for item in cells[1].split("`")[1::2]]
            rows.append((cells[0].strip("`"), flags))
    want = [(name, [flag for flag, _ in command.flags])
            for name, command in cli._COMMANDS.items()]
    assert rows == want


def test_readme_library_names_match_all():
    # rows look like: | `geoforge.onion` | `OnionDecomposition`, `onion_decomposition` |
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    homes = {}
    for line in readme.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("| `geoforge.") and len(cells) == 2:
            homes[cells[0].strip("`")] = re.findall(r"`(\w+)`", cells[1])
    assert homes == {"geoforge." + module: list(names)
                     for module, names in geoforge._HOMES.items()}
    assert sorted(name for names in homes.values() for name in names) == geoforge.__all__


def test_beta_error_message_names_the_range(scenes, tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["beta-skeleton", "--input", scenes["points"],
              "--output", str(tmp_path / "x.json"), "--beta", "0"])
    err = capsys.readouterr().err
    assert "beta must be a finite real > 0" in err


def test_scene_and_geometry_errors_exit_one(scenes, tmp_path, capsys):
    bad_file = tmp_path / "bad.json"
    bad_file.write_text('{"points":[[0,0],')
    # each of these once ended in a traceback instead of an error line
    hostile = [
        b'{"points":[[1' + b"0" * 400 + b',0]]}',  # float() overflows
        b'{"bbox":[0,0,1' + b"0" * 400 + b',1]}',
        b'{"points":[[1' + b"0" * 5000 + b',0]]}',  # past the int-string digit limit
        b"[" * 100_000,  # RecursionError in the JSON decoder
        b'{"points":[[0,0]]}\xff\xfe',  # not UTF-8
    ]
    hostile_files = []
    for i, data in enumerate(hostile):
        path = tmp_path / ("hostile%d.json" % i)
        path.write_bytes(data)
        hostile_files.append(str(path))
    out = str(tmp_path / "x.json")
    cases = [
        ["quadtree", "--input", str(bad_file), "--output", out],
        *(["onion", "--input", path, "--output", out] for path in hostile_files),
        ["quadtree", "--input", str(tmp_path / "missing.json"), "--output", out],
        ["triangulate", "--input", scenes["points"], "--output", out],
        ["sierpinski-carpet", "--input", scenes["points"], "--output", out, "--depth", "1"],
        ["trapmap", "--input", scenes["points"], "--output", out],
        ["floating-body", "--input", scenes["points"], "--output", out, "--delta", "0.1"],
    ]
    for args in cases:
        code = main(args)
        captured = capsys.readouterr()
        assert code == 1, args
        assert captured.err.startswith("error:"), args
        assert not os.path.exists(out)


def test_failed_run_leaves_no_partial_file(scenes, tmp_path, capsys):
    # valid scene, but the command cannot use it: output must not appear
    out = tmp_path / "result.json"
    code = main(["triangulate", "--input", scenes["points"], "--output", str(out)])
    capsys.readouterr()
    assert code == 1
    assert not out.exists()
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".") or "tmp" in p.name]
    assert not leftovers


def test_success_replaces_existing_file(scenes, tmp_path):
    out = tmp_path / "result.json"
    out.write_text("stale")
    assert main(["onion", "--input", scenes["points"], "--output", str(out)]) == 0
    assert out.read_text() != "stale"
    assert out.read_text().endswith("\n") is False or json.loads(out.read_text())


def _child_env() -> dict:
    # the child imports the package under test, wherever pytest found it
    src = os.path.dirname(os.path.dirname(geoforge.__file__))
    paths = [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def test_module_entry_point_runs_as_subprocess(scenes, tmp_path):
    env = _child_env()
    out = tmp_path / "sub.json"
    r = subprocess.run(
        [sys.executable, "-m", "geoforge", "quadtree", "--input", scenes["points"],
         "--output", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert r.returncode == 0, r.stderr
    assert json.loads(out.read_text())["kind"] == "point"
    r = subprocess.run(
        [sys.executable, "-m", "geoforge", "--help"], capture_output=True, text=True, env=env
    )
    assert r.returncode == 0
    assert "quadtree" in r.stdout and "sierpinski-carpet" in r.stdout


def test_far_unit_square_floating_body_ends_in_every_format(tmp_path):
    # near (1e6, -1e6) neighbouring offsets lie farther apart than the
    # bracket tolerance and cap areas are noisier than the area tolerance;
    # the bisection still has to stop
    scene = tmp_path / "far.json"
    scene.write_text(
        '{"polygons":[[[999000,-999000],[999001,-999000],[999001,-998999],[999000,-998999]]]}'
    )
    for fmt in ("json", "svg", "ipe"):
        r = subprocess.run(
            [sys.executable, "-m", "geoforge", "floating-body", "--input", str(scene),
             "--delta", "0.1", "--format", fmt, "--output", str(tmp_path / ("out." + fmt))],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=60,
        )
        assert r.returncode == 0, r.stderr
    assert len(json.loads((tmp_path / "out.json").read_text())["dupin"]) == 720


def test_output_file_mode_follows_the_umask(scenes, tmp_path):
    out = tmp_path / "result.json"
    old = os.umask(0o022)
    try:
        assert main(["onion", "--input", scenes["points"], "--output", str(out)]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == 0o644


def test_output_mode_is_set_without_touching_the_process_umask(scenes, tmp_path, monkeypatch):
    # os.umask both reads and sets the mask; any call here would leave
    # files that other threads create meanwhile with no umask at all
    def umask(mask):
        raise AssertionError("os.umask(%o) called" % mask)

    out = tmp_path / "result.json"
    old = os.umask(0o022)
    try:
        monkeypatch.setattr(os, "umask", umask)
        assert main(["onion", "--input", scenes["points"], "--output", str(out)]) == 0
    finally:
        monkeypatch.undo()
        os.umask(old)
    assert out.stat().st_mode & 0o777 == 0o644


def test_missing_output_directory_is_named_in_the_error(scenes, tmp_path, capsys):
    out = tmp_path / "nodir" / "o.json"
    assert main(["onion", "--input", scenes["points"], "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: [Errno 2] No such file or directory: %r\n" % str(out)
    assert not list(tmp_path.rglob(".geoforge-*"))


def test_existing_fifo_is_written_to_not_replaced(scenes, tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []

    def drain():
        with open(fifo, "rb") as fh:
            got.append(fh.read())

    # daemon: if the FIFO were replaced, the reader would wait forever
    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    assert main(["onion", "--input", scenes["points"], "--output", str(fifo)]) == 0
    reader.join(timeout=10)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert not reader.is_alive()
    regular = tmp_path / "regular.json"
    assert main(["onion", "--input", scenes["points"], "--output", str(regular)]) == 0
    assert got == [regular.read_bytes()]


@pytest.mark.parametrize(
    "fmt, owner, source",
    [("json", jsontext, "iterdumps"), ("svg", render, "svg_chunks"),
     ("ipe", render, "ipe_chunks")],
)
def test_chunk_source_failing_after_its_first_chunk_leaves_the_target(
    scenes, tmp_path, capsys, monkeypatch, fmt, owner, source
):
    resumed = []

    def failing(*args):
        yield "<first chunk>"
        resumed.append(True)
        raise OSError("chunk source failed")

    monkeypatch.setattr(owner, source, failing)
    out = tmp_path / "result.out"
    out.write_text("stale")
    code = main(["sierpinski-carpet", "--input", scenes["box"], "--output", str(out),
                 "--format", fmt, "--depth", "2"])
    assert code == 1 and resumed
    assert capsys.readouterr().err.startswith("error: chunk source failed")
    assert out.read_text() == "stale"
    assert not [p.name for p in tmp_path.iterdir() if p.name.startswith(".geoforge-")]


@pytest.mark.parametrize("fmt", ["json", "svg", "ipe"])
def test_rejected_seed_writes_nothing_to_stdout(scenes, capsys, fmt):
    code = main(["sierpinski-triangle", "--input", scenes["polygon"], "--output", "-",
                 "--format", fmt, "--depth", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: seed must be a triangle")
    assert captured.out == ""


def _quadtree_scene(tmp_path, n: int) -> str:
    path = tmp_path / ("quadtree-%d.json" % n)
    path.write_text(json.dumps({"points": geomgen.random_points(random.Random(n), n, 0.0, 1000.0)}))
    return str(path)


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """Runs the test with the cycle collector on or off, and puts it back."""
    was = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    yield request.param
    if was:
        gc.enable()
    else:
        gc.disable()


def test_a_run_puts_the_collector_state_back(scenes, tmp_path, capsys, monkeypatch, collector):
    out = str(tmp_path / "out.json")
    assert main(["quadtree", "--input", scenes["points"], "--output", out]) == 0
    assert gc.isenabled() is collector
    assert main(["triangulate", "--input", scenes["points"], "--output", out]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert gc.isenabled() is collector
    with pytest.raises(SystemExit) as e:
        main(["quadtree", "--input", scenes["points"]])
    assert e.value.code == 2 and gc.isenabled() is collector
    seen = []

    def failing(points):
        seen.append(gc.isenabled())
        raise RuntimeError("builder failed")

    monkeypatch.setattr(quadtree, "build_point_quadtree", failing)
    with pytest.raises(RuntimeError, match="builder failed"):
        main(["quadtree", "--input", scenes["points"], "--output", out])
    assert seen == [False] and gc.isenabled() is collector


def test_a_figure_run_makes_no_collection(tmp_path, monkeypatch):
    # with the collector running, this run made dozens of collections; the
    # count covers reading the scene through writing the figure
    scene = _quadtree_scene(tmp_path, 2000)
    starts = []
    counting = False

    def callback(phase, info):
        if counting and phase == "start":
            starts.append(info["generation"])

    def parse_scene(text):
        nonlocal counting
        counting = True
        return parse(text)

    def write_output(path, chunks):
        nonlocal counting
        write(path, chunks)
        counting = False

    parse, write = geoforge.scene.parse_scene, cli._write_output
    monkeypatch.setattr(geoforge.scene, "parse_scene", parse_scene)
    monkeypatch.setattr(cli, "_write_output", write_output)
    gc.callbacks.append(callback)
    try:
        code = main(["quadtree", "--input", scene, "--output", str(tmp_path / "q.svg"),
                     "--format", "svg"])
    finally:
        gc.callbacks.remove(callback)
    assert code == 0 and not counting
    assert starts == []


def test_a_run_leaves_no_cycle_that_grows_with_the_input(tmp_path):
    # what a run leaves for the collector is the parser's own few cycles,
    # whatever the number of points
    found = []
    for n in (500, 4000):
        scene = _quadtree_scene(tmp_path, n)
        gc.collect()
        assert main(["quadtree", "--input", scene, "--output", str(tmp_path / "q.svg"),
                     "--format", "svg"]) == 0
        found.append(gc.collect())
    assert found[0] == found[1] < 200, found


# Prints the child's own peak RSS (KB) before and after one CLI run.  It
# reads VmHWM: on Linux, ru_maxrss also counts the peak of the process that
# spawned the child, here the test runner, which hides the child's own.
_RSS_CHILD = """
import sys
from geoforge.cli import main
def peak():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
before = peak()
code = main(sys.argv[1:])
print(code, before, peak())
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_carpet_memory_does_not_grow_with_depth(scenes, tmp_path):
    # a depth-5 carpet has 32,768 cells; writing it whole took about 30 MB
    # more than depth 3, streaming it takes well under 1 MB more
    runs = {}
    for depth in (3, 4, 5):
        for fmt in ("json", "svg"):
            argv = ["sierpinski-carpet", "--input", scenes["box"], "--depth", str(depth),
                    "--format", fmt, "--output", str(tmp_path / ("d%d.%s" % (depth, fmt)))]
            runs[depth, fmt] = subprocess.Popen(
                [sys.executable, "-c", _RSS_CHILD] + argv,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_child_env())
    growth = {}
    for key, child in runs.items():
        out, err = child.communicate(timeout=60)
        code, before, after = map(int, out.split())
        assert child.returncode == 0 and code == 0, err
        growth[key] = after - before
    for fmt in ("json", "svg"):
        for depth in (4, 5):
            assert growth[depth, fmt] - growth[3, fmt] < 8 * 1024, (depth, fmt, growth)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_sample_memory_per_sample(scenes, tmp_path):
    # each sample is held once, as an (x, y) pair, and an SVG mark or its
    # JSON text is made from it as it is written: from 20,000 to 80,000
    # samples the SVG peak grew by about 133 B a sample, where a Point, a
    # dump list and a mark per sample took about 308 B; the JSON peak grew
    # by about 222 B a sample while each sample's floats went into the memo
    runs = {}
    for fmt in ("svg", "json"):
        for count in (20000, 80000):
            argv = ["sample", "--input", scenes["polygon"], "--count", str(count), "--seed", "7",
                    "--format", fmt, "--output", str(tmp_path / ("s%d.%s" % (count, fmt)))]
            runs[fmt, count] = subprocess.Popen(
                [sys.executable, "-c", _RSS_CHILD] + argv,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_child_env())
    growth = {}
    for key, child in runs.items():
        out, err = child.communicate(timeout=60)
        code, before, after = map(int, out.split())
        assert child.returncode == 0 and code == 0, err
        growth[key] = after - before
    for fmt in ("svg", "json"):
        per_sample = (growth[fmt, 80000] - growth[fmt, 20000]) * 1024 / 60000
        assert per_sample < 200, (fmt, per_sample, growth)


def test_deep_point_quadtree_writes_every_format(tmp_path):
    # 1500 diagonal points make a point quadtree that is one path 1500 levels
    # deep; every walk over it must do without the interpreter's recursion
    scene = tmp_path / "diagonal.json"
    scene.write_text(json.dumps({"points": [[i, i] for i in range(1500)]}))
    texts = {}
    for fmt in ("json", "svg", "ipe"):
        out = tmp_path / ("deep." + fmt)
        args = ["quadtree", "--input", str(scene), "--output", str(out), "--format", fmt]
        assert main(args) == 0, fmt
        texts[fmt] = out.read_text()
    assert texts["json"].startswith('{"kind":"point","root":{"site":[0,0],"nw":null,"ne":{')
    assert texts["json"].count('"site"') == 1500
    assert texts["json"].endswith(',"sw":null,"se":null}' * 1500 + "}\n")
    assert texts["svg"].count("<circle") == 3000
    assert texts["ipe"].count("<use") == 3000


def test_pr_quadtree_of_points_an_ulp_apart_exits_zero(tmp_path):
    # the default region is a few ulps wide; the split stops where the
    # center no longer falls strictly inside, with no bbox error
    scene = tmp_path / "ulp.json"
    scene.write_text('{"points": [[0.5, 0.5], [0.5000000000000001, 0.5]]}')
    out = tmp_path / "ulp.json.out"
    args = ["pr-quadtree", "--capacity", "1", "--input", str(scene), "--output", str(out)]
    assert main(args) == 0
    assert '"points":[[0.5,0.5],[0.5,0.5]]' in out.read_text()


@pytest.mark.parametrize("segments, box", [
    ([[[0, 999000], [10, 999990]]], [-1, 998901, 11, 1000000]),
    ([[[0, -1000000], [10, -999000]], [[20, -999500], [30, -998000]]],
     [-3, -1000000, 33, -997800]),
])
def test_trapmap_default_box_stops_at_the_coordinate_limit(tmp_path, segments, box):
    # the padded box would pass +/-1e6 in y, where its walls' ray hits
    # could not be points; the box is cut there and the run exits 0
    text = json.dumps({"segments": segments})
    scene = tmp_path / "edge.json"
    scene.write_text(text)
    out = tmp_path / "edge.json.out"
    assert main(["trapmap", "--input", str(scene), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["bbox"] == box
    m = geoforge.build_trapezoidal_map(geoforge.parse_scene(text).segments)
    b = m.bbox
    assert [b.xmin, b.ymin, b.xmax, b.ymax] == box
    total = sum(geoforge.trapezoid_area(m, t) for t in m.trapezoids)
    assert abs(total - b.area()) <= 1e-9 * b.area()
    q = geoforge.Point((b.xmin + b.xmax) / 2, (b.ymin + b.ymax) / 2)
    t = m.trapezoids[geoforge.locate(m, q)]
    assert t.left_x <= q.x <= t.right_x


@pytest.mark.parametrize("command, text, message", [
    (["trapmap"], '{"segments":[[[0,0],[10,1]]],"bbox":[-1,-2e6,11,2]}',
     "error: bbox must satisfy |ymin|, |ymax| <= 1e+06\n"),
    (["trapmap"], '{"segments":[[[0,0],[10,1]]],"bbox":[-1,-1,11,1000000.5]}',
     "error: bbox must satisfy |ymin|, |ymax| <= 1e+06\n"),
    (["sierpinski-carpet", "--depth", "1"], '{"bbox":[-2e6,-2e6,2e6,2e6]}',
     "error: seed must satisfy |x|, |y| <= 1e+06\n"),
    (["sierpinski-carpet", "--depth", "0"], '{"bbox":[0,0,1e6,1000000.5]}',
     "error: seed must satisfy |x|, |y| <= 1e+06\n"),
    (["onion"], '{"points":[[0,0]],"bbox":[0,0,1e400,1]}',
     "error: bbox: bbox bounds must be finite\n"),
])
def test_out_of_range_boxes_name_themselves(tmp_path, capsys, command, text, message):
    scene = tmp_path / "far.json"
    scene.write_text(text)
    out = tmp_path / "far.out"
    assert main(command + ["--input", str(scene), "--output", str(out)]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_a_scene_entry_that_is_not_a_list_is_named(tmp_path, capsys):
    scene = tmp_path / "bad.json"
    scene.write_text('{"points":5}')
    out = tmp_path / "bad.out"
    assert main(["onion", "--input", str(scene), "--output", str(out)]) == 1
    assert capsys.readouterr().err == "error: points must be a list\n"
    assert not out.exists()


def test_boxes_past_the_coordinate_limit_that_make_no_point_still_run(tmp_path):
    # no Point is made from these boxes: the point structures' regions and
    # frames, and a map with no segments, whose walls no ray reaches
    scene = tmp_path / "wide.json"
    scene.write_text('{"points":[[0,0],[1,1]],"bbox":[-2e6,-2e6,2e6,2e6]}')
    out = str(tmp_path / "wide.out")
    for command in (["quadtree"], ["pr-quadtree", "--capacity", "1"], ["onion"], ["trapmap"]):
        assert main(command + ["--input", str(scene), "--output", out]) == 0, command


def test_the_scene_bbox_is_the_one_box(tmp_path, capsys):
    # the PR region, the map's box and both figures' frames are the scene's
    # bbox; the figures pad it by 5% per side
    scene = tmp_path / "boxed.json"
    scene.write_text('{"points":[[10,10],[40,70],[80,20]],'
                     '"segments":[[[10,40],[90,60]]],"bbox":[-50,-20,150,130]}')
    box = [-50, -20, 150, 130]
    padded = "%f %f %f %f" % (-60, -27.5, 220, 165)
    runs = {"pr-quadtree": ["--capacity", "1"], "trapmap": []}
    for name, flags in runs.items():
        out = tmp_path / (name + ".json")
        assert main([name, *flags, "--input", str(scene), "--output", str(out)]) == 0
        dump = json.loads(out.read_text())
        assert (dump["root"]["region"] if name == "pr-quadtree" else dump["bbox"]) == box
        svg = tmp_path / (name + ".svg")
        assert main([name, *flags, "--input", str(scene), "--output", str(svg),
                     "--format", "svg"]) == 0
        assert 'viewBox="%s"' % padded in svg.read_text()
        # the flags that once overrode the box are gone
        with pytest.raises(SystemExit) as e:
            main([name, *flags, "--input", str(scene), "--output", str(out),
                  "--bbox=0,0,1,1"])
        assert e.value.code == 2
        assert "unrecognized arguments: --bbox=0,0,1,1" in capsys.readouterr().err


_COORD = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-10, 1e-9, 1e6, -1e6, 1e-300]),
    st.integers(-3, 3),
    st.floats(-10.0, 10.0),
)
_XY = st.tuples(_COORD, _COORD)


def _box(corners):
    (x0, y0), (x1, y1) = corners
    return min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1)


@st.composite
def _fuzz_scenes(draw):
    rectangle = st.tuples(_XY, _XY).map(_box).map(
        lambda b: [(b[0], b[1]), (b[2], b[1]), (b[2], b[3]), (b[0], b[3])])
    parts = {
        "points": st.lists(_XY, max_size=8),
        "segments": st.lists(st.tuples(_XY, _XY), max_size=4),
        "polygons": st.tuples(rectangle | st.lists(_XY, min_size=3, max_size=3)
                              | st.lists(_XY, min_size=3, max_size=6)),
        "bbox": st.tuples(_XY, _XY).map(_box),
    }
    scene = {key: draw(value) for key, value in parts.items() if draw(st.booleans())}
    if draw(st.integers(0, 9)) == 0:
        scene.setdefault("points", []).append((1e6 + 1, 0.0))
    return scene


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_fuzz_scenes(), st.sampled_from(["0.5", "1", "2", "1e12"]))
def test_random_scenes_exit_zero_or_one_in_every_subcommand(scene, beta):
    # the CLI contract: exit 0, or exit 1 with an error line; nothing escapes
    commands = [
        ["quadtree"],
        ["pr-quadtree", "--capacity", "2"],
        ["trapmap"],
        ["onion"],
        ["beta-skeleton", "--beta", beta],
        ["floating-body", "--delta", "0.1", "--directions", "8"],
        ["triangulate"],
        ["sample", "--count", "5", "--seed", "3"],
        ["sierpinski-triangle", "--depth", "2"],
        ["sierpinski-carpet", "--depth", "1"],
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scene.json")
        with open(path, "w") as fh:
            json.dump(scene, fh)
        for command in commands:
            for fmt in ("json", "svg", "ipe"):
                err = io.StringIO()
                argv = command + ["--input", path, "--output", os.path.join(tmp, "out"),
                                  "--format", fmt]
                with contextlib.redirect_stderr(err):
                    code = main(argv)
                assert code in (0, 1), argv
                if code == 1:
                    assert err.getvalue().startswith("error: "), argv
