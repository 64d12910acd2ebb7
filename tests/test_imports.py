"""Start-up: the package and the CLI load only the modules a run uses."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import geoforge

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
SRC = str(HERE.parent / "src")

# Loaded by every run that reads a scene and writes a document.
PIPELINE = {"geoforge", "geoforge.cli", "geoforge.core", "geoforge.jsontext", "geoforge.scene"}

# subcommand: (its required flags, its structure module); each reads its fixture
RUNS = {
    "quadtree": ([], "quadtree"),
    "pr-quadtree": (["--capacity", "2"], "quadtree"),
    "trapmap": ([], "trapmap"),
    "onion": ([], "onion"),
    "beta-skeleton": (["--beta", "1"], "beta_skeleton"),
    "floating-body": (["--delta", "0.25", "--directions", "36"], "floating_body"),
    "triangulate": ([], "triangulation"),
    "sample": (["--count", "5", "--seed", "7"], "triangulation"),
    "sierpinski-triangle": (["--depth", "2"], "fractals"),
    "sierpinski-carpet": (["--depth", "2"], "fractals"),
}

# Runs each argv in turn with the package's modules dropped before each,
# and prints one JSON line per run: its exit code and the geoforge modules
# it loaded.
ISOLATED_RUNS = """
import contextlib, io, json, sys
for argv in json.loads(sys.argv[1]):
    for name in [m for m in sys.modules if m.split(".")[0] == "geoforge"]:
        del sys.modules[name]
    from geoforge.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "geoforge")]))
"""


def _python(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _argv(name: str, output: str) -> list:
    return [name, "--input", str(FIXTURES / (name + ".json")), "--output", output,
            *RUNS[name][0]]


def test_each_run_loads_only_its_own_modules(tmp_path):
    out = str(tmp_path / "out")
    cases = [(["--help"], {"geoforge", "geoforge.cli"})]
    for name, (_, module) in RUNS.items():
        cases.append((_argv(name, out), PIPELINE | {"geoforge." + module}))
    # a figure loads render, but not the fractal or quadtree code it can draw
    cases.append((_argv("onion", out) + ["--format", "svg"],
                  PIPELINE | {"geoforge.onion", "geoforge.render"}))
    for fmt in ("svg", "ipe"):
        cases.append((_argv("sample", out) + ["--format", fmt],
                      PIPELINE | {"geoforge.triangulation", "geoforge.render"}))
    lines = _python(ISOLATED_RUNS, json.dumps([argv for argv, _ in cases])).splitlines()
    assert len(lines) == len(cases)
    for (argv, want), line in zip(cases, lines):
        code, loaded = json.loads(line)
        assert (code, set(loaded)) == (0, want), argv


@pytest.mark.parametrize("first", [
    "import geoforge",
    "import geoforge.beta_skeleton",
    "from geoforge.cli import main; main(%r)" % _argv("beta-skeleton", os.devnull),
], ids=["package", "submodule", "subcommand"])
def test_beta_skeleton_is_the_function_in_every_import_order(first):
    code = first + """
import geoforge
import geoforge.beta_skeleton as named
from geoforge import beta_skeleton
print(beta_skeleton is named is geoforge.beta_skeleton
      is sys.modules["geoforge.beta_skeleton"].beta_skeleton)
"""
    assert _python("import sys\n" + code) == "True\n"


def test_dir_lists_and_star_import_binds_every_public_name():
    code = """
import geoforge
print(set(geoforge.__all__) <= set(dir(geoforge)))
from geoforge import *
print(all(globals()[name] is getattr(geoforge, name) for name in geoforge.__all__))
"""
    assert _python(code) == "True\nTrue\n"


def test_every_public_name_is_its_home_modules_object():
    assert sorted(geoforge._HOME) == sorted(geoforge.__all__)
    assert len(geoforge.__all__) == len(set(geoforge.__all__))
    for name in geoforge.__all__:
        home = importlib.import_module("geoforge." + geoforge._HOME[name])
        assert getattr(geoforge, name) is getattr(home, name), name
    with pytest.raises(AttributeError):
        geoforge.no_such_name
