"""Beta-skeletons: the angle rule, its special cases, and its limits."""

from __future__ import annotations

import importlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import geomgen
from geoforge import (
    EPS_DIST,
    GeometryError,
    Point,
    beta_skeleton,
    build_point_quadtree,
    onion_decomposition,
    theta_of_beta,
)
from geoforge.beta_skeleton import graph_to_dict

# the module; the package's name beta_skeleton is the function
skeleton = importlib.import_module("geoforge.beta_skeleton")
core = importlib.import_module("geoforge.core")

# both branches of the predicate, both sides of beta = 1, and betas whose
# critical angle is at or below the float noise of the predicate (from
# about 8.3e6 no Delaunay edge is certified and each is scanned)
BETAS = (0.05, 0.3, 0.7, 0.999999999, 1.0, 1.000000001, 1.5, 2.0, 10.0, 1e6, 1e7, 1e10, 1e300)


def test_theta_special_values():
    assert theta_of_beta(1.0) == pytest.approx(math.pi / 2, abs=1e-12)
    assert theta_of_beta(2.0) == pytest.approx(math.pi / 6, abs=1e-12)
    assert theta_of_beta(0.5) == pytest.approx(5 * math.pi / 6, abs=1e-12)


def test_theta_is_monotone_decreasing():
    betas = [0.05, 0.2, 0.6, 0.9, 1.0, 1.1, 1.7, 2.0, 5.0, 50.0]
    thetas = [theta_of_beta(b) for b in betas]
    for a, b in zip(thetas, thetas[1:]):
        assert b < a
    assert thetas[-1] < 0.03  # theta -> 0 as beta grows
    assert thetas[0] > 3.0  # theta -> pi as beta -> 0


def test_theta_branch_gap_scales_like_sqrt():
    # near beta = 1 the two branches drift apart like 2*sqrt(2*eps)
    for eps in (1e-4, 1e-6, 1e-8, 1e-10):
        gap = abs(theta_of_beta(1.0 - eps) - theta_of_beta(1.0 + eps))
        model = 2.0 * math.sqrt(2.0 * eps)
        assert gap == pytest.approx(model, rel=5e-2)


def test_beta_parameter_validation():
    assert theta_of_beta(2) == theta_of_beta(2.0)
    for bad in (0.0, -3.0, math.inf, math.nan):
        with pytest.raises(GeometryError, match=r"^beta must be a finite real > 0$"):
            theta_of_beta(bad)
        with pytest.raises(GeometryError, match=r"^beta must be a finite real > 0$"):
            beta_skeleton([Point(0, 0), Point(1, 0)], bad)


def test_two_points_always_connected():
    g = beta_skeleton([Point(0, 0), Point(1, 0)], 7.5)
    assert g.edge_list() == [(0, 1)]


def test_right_angle_witness_is_inside_closed_gabriel_region():
    # the apex of a right triangle sits exactly on the diametral circle
    # of the hypotenuse; a closed region means the hypotenuse dies
    g = beta_skeleton([Point(0, 0), Point(1, 0), Point(0, 1)], 1.0)
    assert g.edge_list() == [(0, 1), (0, 2)]


def test_input_validation():
    with pytest.raises(GeometryError):
        beta_skeleton([Point(0, 0)], 1.0)
    with pytest.raises(GeometryError):
        beta_skeleton([Point(0, 0), Point(0, 0), Point(1, 1)], 1.0)


def test_matches_gabriel_oracle():
    rng = random.Random(611)
    for _ in range(100):
        n = rng.randint(2, 40)
        raw = geomgen.random_points(rng, n)
        got = beta_skeleton([Point(x, y) for x, y in raw], 1.0).edges
        assert set(got) == geomgen.gabriel_oracle(raw)


def test_matches_independent_angle_oracle():
    rng = random.Random(612)
    for beta in (0.3, 0.7, 1.0, 1.3, 2.0, 4.0):
        for _ in range(20):
            n = rng.randint(2, 30)
            raw = geomgen.random_points(rng, n)
            got = beta_skeleton([Point(x, y) for x, y in raw], beta).edges
            want = geomgen.angle_skeleton_oracle(raw, theta_of_beta(beta))
            assert set(got) == want


def test_edges_shrink_as_beta_grows():
    rng = random.Random(613)
    for _ in range(25):
        raw = geomgen.random_points(rng, 25)
        pts = [Point(x, y) for x, y in raw]
        e_half = beta_skeleton(pts, 0.5).edges
        e_one = beta_skeleton(pts, 1.0).edges
        e_two = beta_skeleton(pts, 2.0).edges
        assert e_two <= e_one <= e_half


def test_beta_two_is_subgraph_of_lune_rng():
    # the angle rule's forbidden region at beta=2 strictly contains the
    # RNG lune, so its edges form a subset of the lune-based RNG
    rng = random.Random(614)
    strict_somewhere = False
    for _ in range(40):
        n = rng.randint(3, 30)
        raw = geomgen.random_points(rng, n)
        got = set(beta_skeleton([Point(x, y) for x, y in raw], 2.0).edges)
        lune = geomgen.rng_lune_oracle(raw)
        assert got <= lune
        if got != lune:
            strict_somewhere = True
    assert strict_somewhere


def test_closest_pair_connected_for_beta_at_most_one():
    rng = random.Random(615)
    for _ in range(25):
        n = rng.randint(2, 30)
        raw = geomgen.random_points(rng, n)
        pts = [Point(x, y) for x, y in raw]
        best = min(
            ((i, j) for i in range(n) for j in range(i + 1, n)),
            key=lambda ij: geomgen.dist2(raw[ij[0]], raw[ij[1]]),
        )
        for beta in (0.4, 0.8, 1.0):
            assert best in beta_skeleton(pts, beta).edges


def test_similarity_invariance():
    rng = random.Random(616)
    raw = geomgen.random_points(rng, 20)
    base = beta_skeleton([Point(x, y) for x, y in raw], 1.4).edges
    t = 0.7
    ct, st = math.cos(t), math.sin(t)
    moved = [
        Point(3.0 * (ct * x - st * y) + 11.0, 3.0 * (st * x + ct * y) - 4.0)
        for x, y in raw
    ]
    assert beta_skeleton(moved, 1.4).edges == base


def test_graph_dict_shape():
    d = graph_to_dict(beta_skeleton([Point(0, 0), Point(2, 0), Point(1, 3)], 1.0))
    assert d["points"] == [[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]]
    assert all(i < j for i, j in d["edges"])


def _distinct(raw):
    kept = []
    for x, y in raw:
        p = Point(x, y)
        if all(math.hypot(p.x - q.x, p.y - q.y) > EPS_DIST for q in kept):
            kept.append(p)
    if len(kept) < 2:
        p = kept[0]
        kept.append(Point(p.x - math.copysign(1.0, p.x), p.y))
    return kept


_unit = st.floats(-1.0, 1.0)


@st.composite
def _point_sets(draw):
    kind = draw(st.sampled_from(["grid", "line", "circle", "cluster", "uniform"]))
    n = draw(st.integers(2, 40))
    if kind == "grid":
        g = draw(st.integers(1, 6))
        raw = draw(st.lists(st.tuples(st.integers(-g, g), st.integers(-g, g)),
                            min_size=n, max_size=n))
    elif kind == "line":
        x0, y0 = draw(st.tuples(st.integers(-10, 10), st.integers(-10, 10)))
        dx, dy = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (0.3, -0.7)]))
        steps = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
        raw = [(x0 + t * dx, y0 + t * dy) for t in steps]
        raw += draw(st.lists(st.tuples(_unit, _unit), max_size=3))
    elif kind == "circle":
        r = draw(st.sampled_from([1.0, 3.7, 1000.0]))
        cx, cy = draw(st.tuples(st.integers(-50, 50), st.integers(-50, 50)))
        k = draw(st.integers(3, 24))
        turns = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        raw = [(round(cx + r * math.cos(2 * math.pi * t / k), 6),
                round(cy + r * math.sin(2 * math.pi * t / k), 6)) for t in turns]
        raw += draw(st.lists(st.just((cx, cy)), max_size=1))
    elif kind == "cluster":
        cx, cy = draw(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)))
        offsets = draw(st.lists(st.tuples(st.floats(-1e-3, 1e-3), st.floats(-1e-3, 1e-3)),
                                min_size=n, max_size=n))
        raw = [(min(1e6, max(-1e6, cx + dx)), min(1e6, max(-1e6, cy + dy)))
               for dx, dy in offsets]
        raw += draw(st.lists(st.tuples(st.sampled_from([-1e6, 1e6]), st.floats(-1e6, 1e6)),
                             max_size=3))
    else:
        raw = draw(st.lists(st.tuples(_unit, _unit), min_size=n, max_size=n))
    return _distinct(raw)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_point_sets())
def test_walk_matches_every_pair_reference(pts):
    raw = [(p.x, p.y) for p in pts]
    for beta in BETAS:
        want = geomgen.beta_skeleton_reference(raw, theta_of_beta(beta))
        assert set(beta_skeleton(pts, beta).edges) == want, beta


# the betas the larger sets are checked at: the every-pair branch, both
# sides of beta = 1, beta = 2 (a strict subgraph of the lune-based relative
# neighbourhood graph), and the scan-every-edge case
GRID_BETAS = (0.5, 1.0, 1.000000001, 2.0, 1e7)


@st.composite
def _grid_sized_sets(draw, kind):
    """Sets of 160 to 208 distinct points."""
    n = draw(st.integers(160, 208))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "lattice":
        # exact d2 ties, cocircular quadruples and collinear runs
        g = math.isqrt(n) + rng.randint(1, 3)
        s = rng.choice([1.0, 0.5, 3.0, 1e-3])
        raw = rng.sample([(i * s, j * s) for i in range(g) for j in range(g)], n)
    elif kind == "cluster":
        k = rng.randint(1, 3)
        centres = [(rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6)) for _ in range(k)]
        raw = [(min(1e6, max(-1e6, cx + rng.uniform(-1e-3, 1e-3))),
                min(1e6, max(-1e6, cy + rng.uniform(-1e-3, 1e-3))))
               for cx, cy in (centres[t % k] for t in range(n))]
    elif kind == "line":
        dx, dy = rng.choice([(1, 0), (0, 1), (1, 1), (0.3, -0.7)])
        raw = [(t * dx, t * dy) for t in rng.sample(range(-2 * n, 2 * n), n)]
        raw += [(rng.uniform(-n, n), rng.uniform(-n, n)) for _ in range(rng.randint(0, 3))]
    elif kind == "far":
        # the box's corners, points on its edges, and points inside
        raw = [(x, y) for x in (-1e6, 1e6) for y in (-1e6, 1e6)]
        for _ in range(n - 4):
            u, v = rng.uniform(-1e6, 1e6), rng.choice((-1e6, 1e6, rng.uniform(-1e6, 1e6)))
            raw.append((u, v) if rng.random() < 0.5 else (v, u))
    else:
        raw = [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(n)]
    return _distinct(raw)


@pytest.mark.parametrize("kind", ["lattice", "cluster", "line", "far", "uniform"])
def test_grid_walk_matches_every_pair_reference(kind):
    @settings(max_examples=3, deadline=None, derandomize=True, database=None)
    @given(_grid_sized_sets(kind))
    def check(pts):
        assert len(pts) >= 160
        raw = [(p.x, p.y) for p in pts]
        for beta in GRID_BETAS:
            want = geomgen.beta_skeleton_reference(raw, theta_of_beta(beta))
            assert set(beta_skeleton(pts, beta).edges) == want, beta

    check()


def test_walk_reaches_points_at_the_octant_bound():
    # seen from (1, 3) the box is [0, 2] x [0, 3], and (0, 0) and (2, 0) sit
    # in its steep lower octants at d2 = 3**2 + min(1, 3)**2 = 10 exactly
    cases = [[(2, 0), (1, 3), (0, 0)]]
    # the same on the edges of lattice boxes of 4 to 160 points: collinear
    # hull runs and cocircular corners for the triangulation
    for k in (1, 2, 5, 40):
        cases.append([(x, y) for x in range(k + 1) for y in range(k + 1)
                      if x in (0, k) or y in (0, k)])
        cases.append([(x, y) for x in range(k + 1) for y in (0, 3 * k)] + [(k // 2, 2 * k)])
    assert len(cases[-2]) == 160
    for raw in cases:
        pts = [Point(x, y) for x, y in raw]
        for beta in GRID_BETAS:
            want = geomgen.beta_skeleton_reference(raw, theta_of_beta(beta))
            assert set(beta_skeleton(pts, beta).edges) == want, (len(raw), beta)
    assert beta_skeleton([Point(*p) for p in cases[0]], 1.0).edge_list() == [(0, 1), (0, 2), (1, 2)]


def _counted_predicates(monkeypatch, budget):
    """Count the orientation and incircle signs the build asks for, and
    raise once there are more than budget, so a walk or a flip loop that
    cycles fails instead of running on."""
    calls = [0]

    def counting(sign):
        def counted(*coords):
            calls[0] += 1
            if calls[0] > budget:
                raise AssertionError("more than %d predicate calls" % budget)
            return sign(*coords)
        return counted

    monkeypatch.setattr(skeleton, "_orient_sign", counting(skeleton._orient_sign))
    monkeypatch.setattr(skeleton, "_incircle_sign", counting(skeleton._incircle_sign))
    return calls


def test_predicate_calls_grow_near_linearly(monkeypatch):
    # the walk starts next to its point and the flips stay near it, so the
    # signs per point grow slowly (22, 24 and 26 here); every pair would
    # grow 4x per doubling
    calls = _counted_predicates(monkeypatch, 10**6)
    rng = random.Random(619)
    counts = []
    for n in (2400, 4800, 9600):
        pts = [Point(x, y) for x, y in geomgen.random_points(rng, n)]
        calls[0] = 0
        beta_skeleton(pts, 1.0)
        counts.append(calls[0])
    assert counts[1] < 2.3 * counts[0] and counts[2] < 2.3 * counts[1], counts


def test_uniform_sets_need_almost_no_exact_signs(monkeypatch):
    # the float filters settle the signs on the bench's points: 1e-6 grid
    # coordinates in [0, 1000]^2
    exact = [0]
    exact_sign = core._exact_sign

    def counted(*coords):
        exact[0] += 1
        return exact_sign(*coords)

    monkeypatch.setattr(core, "_exact_sign", counted)
    calls = _counted_predicates(monkeypatch, 10**6)
    for n in (75, 150, 300, 1200):
        rng = random.Random(n)
        pts = [Point(round(rng.uniform(0, 1000), 6), round(rng.uniform(0, 1000), 6))
               for _ in range(n)]
        for beta in (1.0, 2.0):
            beta_skeleton(pts, beta)
    assert calls[0] > 10**4 and exact[0] <= 2, (calls[0], exact[0])


@pytest.mark.parametrize("direction", [(1.0, 1.0), (0.3, -0.7)])
def test_near_line_sets_match_every_pair_reference(monkeypatch, direction):
    # 600 points on a line through the origin, not parallel to an axis, and
    # one point off it: slivers along the line, a fan to the lone point
    dx, dy = direction
    raw = [(t * dx, t * dy) for t in range(-300, 300)] + [(7.5, -2.25)]
    pts = [Point(x, y) for x, y in raw]
    calls = _counted_predicates(monkeypatch, 60 * len(raw))
    for beta in (1.0, 2.0, 1e7):
        calls[0] = 0
        got = set(beta_skeleton(pts, beta).edges)
        assert calls[0] <= 30 * len(raw), (beta, calls[0])
        assert got == geomgen.beta_skeleton_reference(raw, theta_of_beta(beta)), beta


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_point_sets())
def test_triangulation_is_delaunay(pts):
    # the precondition of the edge rule: on the sphere of n points and the
    # ghost, 2n - 2 triangles with consistent twins, each real one strictly
    # counterclockwise with no point strictly inside its circle (flat
    # triangles from points on edges or hull lines must all be gone)
    xs, ys = [p.x for p in pts], [p.y for p in pts]
    n = len(pts)
    tri, twin = skeleton._delaunay(xs, ys, sorted(zip(xs, ys, range(n))))
    if tri is None:
        assert all(core._orient_sign(xs[0], ys[0], xs[1], ys[1], x, y) == 0 for x, y in zip(xs, ys))
        return
    assert len(tri) == 3 * (2 * n - 2)
    for e in range(len(tri)):
        e1 = e + 1 if e % 3 < 2 else e - 2
        f = twin[e]
        assert twin[f] == e and tri[f] == tri[e1] and tri[f + 1 if f % 3 < 2 else f - 2] == tri[e]
    for t in range(0, len(tri), 3):
        a, b, c = tri[t:t + 3]
        if n in (a, b, c):
            continue
        abc = (xs[a], ys[a], xs[b], ys[b], xs[c], ys[c])
        assert core._orient_sign(*abc) == 1
        assert all(core._incircle_sign(*abc, x, y) <= 0 for x, y in zip(xs, ys))


@st.composite
def _cocircular_threshold_sets(draw):
    """(0, 0), (1, 0) and 2 to 10 points on one circle through them, with
    betas whose theta' lies within a few ulps of the angle that every
    point of the major arc sees the pair under."""
    yc = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3.0, 1.0))
    r = math.hypot(0.5, yc)
    turns = draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=2, max_size=10))
    raw = [(0.0, 0.0), (1.0, 0.0)] + [(0.5 + r * math.cos(t), yc + r * math.sin(t)) for t in turns]
    beta = 1.0 / math.sin(math.asin(0.5 / r) + 1e-9)
    return _distinct(raw), [beta * (1.0 + s * 1e-15) for s in range(-6, 7)]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_cocircular_threshold_sets())
def test_cocircular_witnesses_at_the_threshold_match_every_pair_reference(case):
    # rounding alone tells the arc's points apart: the opposite vertex of
    # (0, 1) may spare it while another point kills it, the case the
    # witness scan is for, and the pair's order in the predicate matters
    pts, betas = case
    raw = [(p.x, p.y) for p in pts]
    for beta in betas:
        want = geomgen.beta_skeleton_reference(raw, theta_of_beta(beta))
        assert set(beta_skeleton(pts, beta).edges) == want, beta


def test_cone_prune_at_the_45_degree_boundary():
    # k sits 45 degrees from q as seen from (0, 0), where |ik| = |iq| cos 45
    # puts k on the Gabriel circle of (0, 0) and q
    cases = []
    for qx, qy in ((1, 0), (0, 1), (-1, 0), (0, -1)):
        for t in (0.49, 0.5, 0.505, 0.51, 0.52):
            cases.append([(qx, qy), (t * (qx - qy), t * (qx + qy))])
            cases.append([(qx, qy), (t * (qx + qy), t * (qy - qx))])
    for qx, qy in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
        for t in (0.99, 1.0, 1.01, 1.02):
            cases += [[(qx, qy), (t * qx, 0)], [(qx, qy), (0, t * qy)]]
    for q, k in cases:
        pts = [Point(0, 0), Point(*q), Point(*k)]
        raw = [(p.x, p.y) for p in pts]
        for beta in BETAS:
            want = geomgen.beta_skeleton_reference(raw, theta_of_beta(beta))
            assert set(beta_skeleton(pts, beta).edges) == want, (q, k, beta)


def test_far_witness_rounding_is_within_reach():
    # at beta = 1e6 the predicate's rounding kills (0, 1) through a witness
    # about 4e-5 farther away than its exact critical circle allows
    pts = [Point(0, 0), Point(0.5, 0), Point(0.5, 500501.50150125165)]
    raw = [(p.x, p.y) for p in pts]
    for beta in BETAS:
        want = geomgen.beta_skeleton_reference(raw, theta_of_beta(beta))
        assert set(beta_skeleton(pts, beta).edges) == want, beta
    assert (0, 1) not in beta_skeleton(pts, 1e6).edges
    for beta in BETAS:
        assert beta_skeleton(pts[:2], beta).edge_list() == [(0, 1)]


def test_duplicate_rule_is_the_onion_rule():
    # the three builders reject a pair exactly when points_equal holds
    offsets = (EPS_DIST, math.nextafter(EPS_DIST, 0.0), math.nextafter(EPS_DIST, math.inf))
    for base in ((0.0, 0.0), (-0.3, 0.7), (12.5, -3.0)):
        for d in offsets:
            for ux, uy in ((1, 0), (0, -1), (0.6, 0.8), (-0.8, 0.6)):
                p = Point(*base)
                q = Point(base[0] + ux * d, base[1] + uy * d)
                pts = [p, Point(base[0] + 5.0, base[1] + 1.0), q]
                want = math.hypot(p.x - q.x, p.y - q.y) <= EPS_DIST
                for build in (onion_decomposition, lambda s: beta_skeleton(s, 1.0),
                              build_point_quadtree):
                    if want:
                        with pytest.raises(GeometryError, match="duplicate point"):
                            build(pts)
                    else:
                        build(pts)
    a, b = Point(0, 0), Point(EPS_DIST, 0)
    for build in (onion_decomposition, lambda s: beta_skeleton(s, 2.0), build_point_quadtree):
        with pytest.raises(GeometryError, match="duplicate point"):
            build([a, b])
        build([a, Point(math.nextafter(EPS_DIST, math.inf), 0)])
    # a first site whose x lies between the pair's sends them to different
    # quadrants, so no insertion path meets both; the pair is rejected in
    # either order
    p, q, site = Point(1, 1), Point(1.0000000009, 1), Point(1.0000000005, 5)
    for pts in ([site, p, q], [p, q, site], [site, q, p]):
        with pytest.raises(GeometryError, match="duplicate point"):
            build_point_quadtree(pts)
