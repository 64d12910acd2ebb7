"""geoforge pipeline benchmark (standard library only).

Run from the repository root:

    python3 bench/run.py --workload points --seed 1 --seconds 8 --trace 0

One client in one process and one thread runs the workload's fixed job list
(see ``workloads.py``) in a closed loop: each job starts when the previous
one has finished.  Whole passes over the list repeat until ``--seconds`` of
job time have been measured and at least three passes have run.  Inputs are
generated from ``--seed``; the library sees only the generated scene files.

Times are calibrated.  The machines this runs on share their cores with
other tenants, and their speed swings by up to 1.8x for stretches of ten
seconds to minutes, longer than a run.  So a fixed pure-Python probe
(``probe()``, a few milliseconds of float math, small objects, dicts and
number formatting) runs before and after every job, untimed, and each job
time is scaled by ``PROBE_REF_S`` over the mean of the two probe times:
the times read as seconds on this machine when the probe takes
``PROBE_REF_S``.  A job's time is then the fastest of its calibrated
passes, which drops the runs that other tenants or the allocator
disturbed.  The raw times and the probe times are printed too.

``--trace 0`` reports the end-to-end metrics, from untraced jobs:

- ``wall_s``: time to finish the job list once, the sum of the jobs'
  times.  Bookkeeping between jobs (probes, hashing, deleting outputs) is
  not counted.
- ``job_ms.p50``, ``job_ms.p90``: per-job latency over the jobs' times;
  every workload has at least 100 jobs.
- ``peak_rss_mb``: ``ru_maxrss`` of this process, read before the output
  checks run.
- ``ok_ratio``: job runs whose outcome matched the expected one, over job
  runs.  The failed count itself is the result's ``failed`` field.
- ``setup_s``: wall time of a fresh interpreter that imports
  ``geoforge.cli`` and builds its parser (``main(["--help"])``), the
  median of several calibrated spawns.  CLI users pay it on every
  invocation.

``--trace 1`` runs every job twice per pass, for at least two passes:
untraced through the CLI, then as a replica that calls each module's
public functions with a span around every call (``pipeline.py``).  It
reports the per-layer metrics: busy time per job list and calls per
module, structure counters, scaling exponents, ``cli.residual_s``
(untraced job time minus the replica's in-library spans) and, on ``emit``,
per-stage ``tracemalloc`` peaks from a separate pass.  Spans go to
``.bench_out/spans-<workload>-seed<seed>.jsonl`` with raw (uncalibrated)
times in seconds since the traced loop started.

Every job's first output is checked (``checks.py``) after the timed loop;
every later run of the job must reproduce its bytes.  A failed check, a
wrong exit code, a missing ``error:`` line or an uncaught exception counts
against the job in every run.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SPAWNS = 7
MIN_PASSES = 3
# A traced pass runs every job twice, and per-layer metrics carry no bound.
TRACED_MIN_PASSES = 2
# The probe's time on the reference machine (2 shared vCPUs, Python 3.11)
# when that machine runs at its usual speed; it fixes the unit of every
# calibrated time.
PROBE_REF_S = 0.0026

END_TO_END = {
    "wall_s": "s",
    "job_ms.p50": "ms",
    "job_ms.p90": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "setup_s": "s",
}

# Spans are named after the module and the call; "<span>_s" is its metric.
SPANS = (
    "scene.parse",
    "onion.build", "onion.to_dict",
    "beta_skeleton.build", "beta_skeleton.to_dict",
    "quadtree.build", "quadtree.to_dict",
    "trapmap.build", "trapmap.to_dict", "trapmap.locate",
    "floating_body.build", "floating_body.to_dict",
    "triangulation.triangulate", "triangulation.sample", "triangulation.to_dict",
    "fractals.build", "fractals.to_dict",
    "jsontext.dumps",
    "render.svg", "render.ipe",
)
MODULES = ("scene", "onion", "beta_skeleton", "quadtree", "trapmap", "floating_body",
           "triangulation", "fractals", "jsontext", "render")
COUNTERS = ("scene.rejected", "onion.layers", "beta_skeleton.edges", "quadtree.nodes",
            "quadtree.depth", "quadtree.overfull", "trapmap.trapezoids", "trapmap.locates",
            "floating_body.directions", "triangulation.triangles", "fractals.cells",
            "jsontext.bytes", "render.bytes")
SCALED = {"onion.build": "onion", "beta_skeleton.build": "beta_skeleton",
          "trapmap.build": "trapmap"}
ALLOC_MODULES = ("scene", "quadtree", "triangulation", "fractals", "jsontext", "render")
# The layers each workload exists to stress (the "target_share" metric).
TARGETS = {
    "points": ("onion.", "beta_skeleton."),
    "shapes": ("scene.", "trapmap.", "floating_body."),
    "emit": (".to_dict", "jsontext.", "render."),
}

PER_LAYER = dict(
    [(s + "_s", "s") for s in SPANS]
    + [(m + ".calls", "count") for m in MODULES]
    + [(c, "count") for c in COUNTERS]
    + [("beta_skeleton.edge_ratio", "ratio")]
    + [(m + ".scaling_exp", "exponent") for m in SCALED.values()]
    + [(m + ".alloc_peak_mb", "MB") for m in ALLOC_MODULES]
    + [("cli.residual_s", "s"), ("target_share", "ratio")]
)


def _log(line: str) -> None:
    print(line, flush=True)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="geoforge pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=("points", "shapes", "emit"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


class _Site:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def _probe_kernel() -> int:
    rng = random.Random(7)
    sites = [_Site(rng.random(), rng.random()) for _ in range(2000)]
    acc = 0.0
    for a, b, c in zip(sites, sites[1:], sites[2:]):
        acc += (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    nodes = [{"site": [s.x, s.y], "kids": [None, None]} for s in sites]
    text = "\n".join('<circle cx="%.6f" cy="%.6f"/>' % (s.x, s.y) for s in sites)
    return len(nodes) + len(text) + int(acc)


def probe() -> float:
    """Seconds the fixed probe takes now: the faster of two runs."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        _probe_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_setup() -> tuple[float, float]:
    """Median wall time of fresh interpreters importing the CLI and building its parser.

    Returns (calibrated, raw) medians.  The first spawn is dropped: it may
    compile the package's bytecode.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "from geoforge.cli import main; main(['--help'])"
    raw, scaled = [], []
    before = probe()
    for i in range(SETUP_SPAWNS + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, check=True, timeout=60)
        elapsed = time.perf_counter() - t0
        after = probe()
        if i:
            raw.append(elapsed)
            scaled.append(elapsed * 2.0 * PROBE_REF_S / (before + after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Run:
    """One workload run: the jobs, their files, and what every job run did."""

    def __init__(self, jobs, work: Path):
        self.jobs = jobs
        self.work = work
        self.keep = work / "first"
        self.keep.mkdir(parents=True)
        self.scene_paths = []
        for i, job in enumerate(jobs):
            path = work / ("%03d.json" % i)
            path.write_text(job.scene, encoding="utf-8")
            self.scene_paths.append(str(path))
        self.first_digest: dict = {}  # job index -> sha256 of its first output
        self.problems: dict = {}  # job index -> problems found
        self.times: list = [[] for _ in jobs]  # job index -> raw seconds, one per pass
        self.factors: list = [[] for _ in jobs]  # job index -> calibration, one per pass
        self.probes: list = []

    def out_path(self, i: int, pass_index: int) -> Path:
        if pass_index == 0:
            return self.keep / ("%03d.out" % i)
        return self.work / "again.out"

    def settle(self, i: int, pass_index: int, outcome, out: Path) -> str:
        """Judge one job run; return the sha256 of what it produced."""
        job = self.jobs[i]
        problems = []
        if outcome.exception is not None:
            problems.append("raised %s" % outcome.exception)
        elif job.expect_ok and outcome.code != 0:
            problems.append("exit %r: %s" % (outcome.code, outcome.stderr.strip()[:200]))
        elif not job.expect_ok:
            if outcome.code != 1 or not outcome.stderr.startswith("error:"):
                problems.append("rejection gave exit %r, stderr %r"
                                % (outcome.code, outcome.stderr[:200]))
            if out.exists():
                problems.append("rejected scene left an output file")
        if job.expect_ok and out.exists():
            digest = _sha(out.read_bytes())
        else:
            digest = _sha(outcome.stderr.encode("utf-8"))
        if pass_index == 0:
            self.first_digest[i] = digest
        elif digest != self.first_digest[i]:
            problems.append("output differs from the first run (pass %d)" % pass_index)
        if pass_index > 0 and out.exists():
            out.unlink()
        self.report(i, problems)
        return digest

    def report(self, i: int, problems) -> None:
        """Record problems of job i, each once however many runs repeat it."""
        for problem in problems:
            known = self.problems.setdefault(i, [])
            if problem not in known:
                known.append(problem)

    def check_outputs(self, checks) -> None:
        for i, job in enumerate(self.jobs):
            if i in self.problems or not job.expect_ok:
                continue
            try:
                text = self.out_path(i, 0).read_text(encoding="utf-8")
                found = checks.check_output(job, text)
            except Exception as exc:  # a crashing check is a failed check
                found = ["check raised %s: %s" % (type(exc).__name__, exc)]
            self.report(i, found)

    def calibrated(self, i: int, seconds_per_pass) -> float:
        """A job's fastest calibrated time over the passes."""
        return min(t * f for t, f in zip(seconds_per_pass, self.factors[i]))

    def attempted(self) -> int:
        return sum(len(t) for t in self.times)

    def failed(self) -> int:
        """Runs of jobs with any problem: a job's output is the same bytes every run."""
        return sum(len(t) for i, t in enumerate(self.times) if i in self.problems)

    def outputs_digest(self) -> str:
        h = hashlib.sha256()
        for i, job in enumerate(self.jobs):
            h.update(("%s %s\n" % (job.id, self.first_digest.get(i, "-"))).encode())
        return h.hexdigest()


def _warm_up(run: Run, pipeline) -> None:
    """Run the smallest job of each kind and format once, untimed."""
    seen = {}
    for i, job in enumerate(run.jobs):
        key = (job.kind, job.fmt)
        if key not in seen or job.size < run.jobs[seen[key]].size:
            seen[key] = i
    out = run.work / "warm.out"
    for i in seen.values():
        pipeline.run_plain(run.jobs[i], run.scene_paths[i], str(out))
        if out.exists():
            out.unlink()


def _measure(run: Run, seconds: float, step, min_passes: int) -> int:
    """Closed loop of whole passes until `seconds` of job time and `min_passes`.

    ``step(i, pass_index)`` runs job i once and returns the seconds it
    measured.  A probe runs before and after every step; the step's
    calibration factor is PROBE_REF_S over their mean.  Returns the number
    of passes.
    """
    measured = 0.0
    passes = 0
    gc.collect()
    before = probe()
    while measured < seconds or passes < min_passes:
        for i in range(len(run.jobs)):
            measured += step(i, passes)
            gc.collect()
            after = probe()
            run.factors[i].append(2.0 * PROBE_REF_S / (before + after))
            run.probes.append(after)
            before = after
        passes += 1
    return passes


def plain_run(run: Run, seconds: float, pipeline) -> dict:
    def step(i, pass_index):
        out = run.out_path(i, pass_index)
        elapsed, outcome = pipeline.run_plain(run.jobs[i], run.scene_paths[i], str(out))
        run.settle(i, pass_index, outcome, out)
        run.times[i].append(elapsed)
        return elapsed

    passes = _measure(run, seconds, step, MIN_PASSES)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    job_ms = [1000.0 * run.calibrated(i, t) for i, t in enumerate(run.times)]
    raw_ms = [1000.0 * min(t) for t in run.times]
    _log("job runs: %d jobs x %d passes; latency samples: %d (one per job, its fastest pass)"
         % (len(run.jobs), passes, len(job_ms)))
    _log("raw pass times (s): %s" % " ".join(
        "%.4f" % sum(t[p] for t in run.times) for p in range(passes)))
    _log("probe (s): median %.6f, min %.6f, max %.6f; reference %.6f"
         % (statistics.median(run.probes), min(run.probes), max(run.probes), PROBE_REF_S))
    _log("raw: wall_s %.6f, job_ms.p50 %.6f, job_ms.p90 %.6f"
         % (sum(raw_ms) / 1000.0, statistics.median(raw_ms), _p90(raw_ms)))
    return {
        "wall_s": sum(job_ms) / 1000.0,
        "job_ms.p50": statistics.median(job_ms),
        "job_ms.p90": _p90(job_ms),
        "peak_rss_mb": rss_mb,
    }


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class AllocTracer:
    """Per-stage tracemalloc peaks (MB above the stage's starting point), per module."""

    def __init__(self):
        self.peaks: dict = {}

    def call(self, name, fn, *args):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        try:
            return fn(*args)
        finally:
            peak = (tracemalloc.get_traced_memory()[1] - start) / 2**20
            module = name.split(".")[0]
            self.peaks[module] = max(self.peaks.get(module, 0.0), peak)

    def count(self, name, value):
        pass

    peak = count


def _alloc_pass(run: Run, pipeline) -> dict:
    """Replica runs under tracemalloc, kept apart from the timed spans.

    One job per (kind, format): the largest of the workload's own jobs.
    """
    chosen = {}
    for i, job in enumerate(run.jobs):
        key = (job.kind, job.fmt)
        if not job.coverage and (key not in chosen or job.size > run.jobs[chosen[key]].size):
            chosen[key] = i
    tracer = AllocTracer()
    out = run.work / "alloc.out"
    tracemalloc.start()
    try:
        for i in sorted(chosen.values()):
            gc.collect()
            pipeline.run_replica(run.jobs[i], run.scene_paths[i], str(out), tracer)
    finally:
        tracemalloc.stop()
    if out.exists():
        out.unlink()
    return tracer.peaks


def _scaling(best: dict, jobs) -> dict:
    """Least-squares slope of log(mean build time) on log(size), per module.

    ``best`` maps (job index, span name) to the job's span time.  Coverage
    jobs are left out.  A module is fitted only when its sizes span at
    least 4x; otherwise its exponent is reported as 0.
    """
    by_module: dict = {}
    for (i, name), seconds in best.items():
        if name in SCALED and not jobs[i].coverage:
            sizes = by_module.setdefault(SCALED[name], {})
            sizes.setdefault(jobs[i].size, []).append(seconds)
    fits = {}
    for module in SCALED.values():
        sizes = by_module.get(module, {})
        if len(sizes) < 2 or max(sizes) < 4 * min(sizes):
            fits[module] = (0.0, sorted(sizes))
            continue
        xs = [math.log(n) for n in sizes]
        ys = [math.log(statistics.fmean(v)) for v in sizes.values()]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
        fits[module] = (slope, sorted(sizes))
    return fits


def traced_run(run: Run, seconds: float, workload: str, seed: int, pipeline) -> dict:
    tracer = pipeline.Tracer()
    replica_out = run.work / "replica.out"

    def step(i, pass_index):
        job = run.jobs[i]
        out = run.out_path(i, pass_index)
        plain_s, outcome = pipeline.run_plain(job, run.scene_paths[i], str(out))
        digest = run.settle(i, pass_index, outcome, out)
        run.times[i].append(plain_s)
        gc.collect()
        traced_s, t_outcome = pipeline.run_traced(job, run.scene_paths[i], str(replica_out),
                                                  tracer, pass_index)
        if job.expect_ok and replica_out.exists():
            t_digest = _sha(replica_out.read_bytes())
            replica_out.unlink()
        else:
            t_digest = _sha(t_outcome.stderr.encode("utf-8"))
        if t_digest != digest or t_outcome.exception is not None:
            run.report(i, ["traced replica differs from the CLI (%s)"
                           % (t_outcome.exception or "bytes")])
        return plain_s + traced_s

    _measure(run, seconds, step, TRACED_MIN_PASSES)
    alloc = _alloc_pass(run, pipeline) if workload == "emit" else {}

    # Each job's calibrated time per span name: the fastest of its passes.
    index = {job.id: i for i, job in enumerate(run.jobs)}
    best: dict = {}
    calls = dict.fromkeys(MODULES, 0)
    for s in tracer.spans:
        if s["name"] == "job":
            continue
        i = index[s["job"]]
        span_s = (s["end"] - s["start"]) * run.factors[i][s["pass"]]
        best[(i, s["name"])] = min(best.get((i, s["name"]), math.inf), span_s)
        if s["pass"] == 0:
            calls[s["name"].split(".")[0]] += 1
    metrics = dict.fromkeys((name + "_s" for name in SPANS), 0.0)
    for (_, name), span_s in best.items():
        metrics[name + "_s"] += span_s
    library = sum(metrics[name + "_s"] for name in SPANS)
    metrics.update({m + ".calls": calls[m] for m in MODULES})
    metrics.update({c: tracer.counters.get((0, c), 0) for c in COUNTERS})
    pairs = tracer.counters.get((0, "beta_skeleton.pairs"), 0)
    metrics["beta_skeleton.edge_ratio"] = metrics["beta_skeleton.edges"] / pairs if pairs else 0.0
    for module, (slope, sizes) in _scaling(best, run.jobs).items():
        metrics[module + ".scaling_exp"] = slope
        _log("%s.scaling_exp over sizes %s: %.3f" % (module, sizes or "-", slope))
    metrics.update({m + ".alloc_peak_mb": alloc.get(m, 0.0) for m in ALLOC_MODULES})
    metrics["cli.residual_s"] = sum(run.calibrated(i, t) for i, t in enumerate(run.times)) - library
    target = sum(metrics[name + "_s"] for name in SPANS
                 if any(t in name for t in TARGETS[workload]))
    metrics["target_share"] = target / library
    _log("in-library time per job list: %.4f s; shares by module:" % library)
    for m in MODULES:
        share = sum(metrics[n + "_s"] for n in SPANS if n.startswith(m + ".")) / library
        _log("  %-14s %6.1f%%" % (m, 100.0 * share))
    _log("target layers %s: %.1f%% of in-library time"
         % (" + ".join(TARGETS[workload]), 100.0 * metrics["target_share"]))

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / ("spans-%s-seed%d.jsonl" % (workload, seed))
    with open(spans_path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s, sort_keys=True) + "\n")
    _log("spans: %d written to %s" % (len(tracer.spans), spans_path.relative_to(ROOT)))
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    for needed in ("src/geoforge/cli.py", "tests/geomgen.py"):
        if not (ROOT / needed).is_file():
            print("error: %s not found under %s; run from a geoforge checkout"
                  % (needed, ROOT), file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import checks
    import pipeline
    import workloads

    setup_s = measure_setup() if args.trace == 0 else None
    jobs = workloads.make_jobs(args.workload, args.seed)
    work = OUT_DIR / ("work-%s-%d-%d-%d" % (args.workload, args.seed, args.trace, os.getpid()))
    try:
        run = Run(jobs, work)
        # The generated inputs live for the whole run; keep them out of every
        # collection so that collecting between jobs stays cheap.
        gc.freeze()
        _log("workload %s, seed %d, %d jobs, scenes sha256 %s"
             % (args.workload, args.seed, len(jobs), workloads.scenes_digest(jobs)))
        _warm_up(run, pipeline)
        if args.trace:
            values = traced_run(run, args.seconds, args.workload, args.seed, pipeline)
            units = PER_LAYER
        else:
            values = plain_run(run, args.seconds, pipeline)
            values["setup_s"] = setup_s[0]
            _log("raw: setup_s %.6f" % setup_s[1])
            units = END_TO_END
        run.check_outputs(checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = run.attempted(), run.failed()
    if not args.trace:
        values["ok_ratio"] = (attempted - failed) / attempted
    _log("outputs sha256 %s" % run.outputs_digest())
    _log("failed_ratio %.6f (%d of %d job runs)" % (failed / attempted, failed, attempted))
    for i, problems in sorted(run.problems.items()):
        _log("FAILED %s: %s" % (jobs[i].id, "; ".join(problems[:3])))
    for name, unit in units.items():
        _log("%-30s %14.6f %s" % (name, values[name], unit))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
