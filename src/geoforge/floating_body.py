"""Floating bodies of convex polygons.

For a direction phi and an area fraction delta, the cut halfplane is the
side of a line that keeps all but delta of the polygon's area; the cap cut
off has area exactly delta * A.  The offset of the line is found by
bisection on the (continuous, monotone, piecewise quadratic) cap area, so
there is no per-edge case analysis to get wrong.

Each bisection step asks two things of the cap area: is it within the
tolerance of the target, and is it above it.  The reference answer is the
area of the cap cut with the one half-plane clip kernel in ``core`` (a
Sutherland-Hodgman pass, O(n)).  A step first tries an O(log n) area from
prefix sums of the polygon's shoelace terms, and uses it only when a
proven bound on its distance from the kernel's area settles both
questions (_fast_cap); otherwise it clips.  So the offsets are those of
clipping at every step, bit for bit.

Sweeping phi over a uniform grid yields two structures: the locus of
chord midpoints (the wet part's waterline midpoint for every heel angle)
and the intersection of all cut halfplanes.  The midpoint locus need not
be convex; the halfplane intersection always is.

The body is cut with the same kernel.  Here it counts only exact zeros
as on the line: the body is clipped once per direction, and an EPS_DIST
band would skip the cuts that pass within EPS_DIST of a body vertex,
leaving the body with too few vertices.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .core import (
    EPS_DIST,
    GeometryError,
    Halfplane,
    Point,
    Polygon,
    _is_convex_loop,
    _polygon_from_loop,
    _sutherland_hodgman,
    polygon_area,
    polygon_bbox,
    polygon_is_convex,
)

_AREA_TOL = 1e-9
_BRACKET_TOL = 1e-12
_UNIT_ROUNDOFF = 2.0**-53


@dataclass(frozen=True)
class AreaFraction:
    delta: float

    def __post_init__(self) -> None:
        d = float(self.delta)
        if not (math.isfinite(d) and 0.0 < d <= 0.5):
            raise GeometryError("delta must be in (0, 0.5]")
        object.__setattr__(self, "delta", d)


@dataclass(frozen=True)
class FloatingBodyResult:
    delta: float
    directions: int
    dupin: tuple[Point, ...]
    convex_fb: Polygon | None
    is_dupin_convex: bool


def _coerce_delta(delta) -> float:
    if isinstance(delta, AreaFraction):
        return delta.delta
    return AreaFraction(delta).delta


def _require_convex(poly: Polygon) -> None:
    if not polygon_is_convex(poly):
        raise GeometryError("floating body requires a convex polygon")


def _cap_area(loop, ux: float, uy: float, c: float) -> float:
    """Area of the part of the loop with u . p >= c."""
    cap = _sutherland_hodgman(loop, -ux, -uy, -c, 0.0)
    if len(cap) < 3:
        return 0.0
    total = 0.0
    for (x0, y0), (x1, y1) in zip(cap, cap[1:] + cap[:1]):
        total += x0 * y1 - x1 * y0
    return 0.5 * abs(total)


def _shoelace_sums(loop) -> tuple[list[float], float]:
    """Prefix sums of the loop's shoelace terms, and _fast_cap's bound err.

    prefix[k] adds the terms C_i = x_i * y_(i+1) - x_(i+1) * y_i for i < k
    in order, each the same float expression as in _cap_area.  With M the
    largest |x| or |y| of the loop and u = 2^-53, err is
    2 * (4n + 16) * u * (sum |C_i| + 8 M^2) + 2^-1060.
    """
    prefix = [0.0]
    total = 0.0
    size = 0.0
    for (x0, y0), (x1, y1) in zip(loop, loop[1:] + loop[:1]):
        term = x0 * y1 - x1 * y0
        total += term
        size += abs(term)
        prefix.append(total)
    m = max(max(abs(x), abs(y)) for x, y in loop)
    err = 2.0 * (4 * len(loop) + 16) * _UNIT_ROUNDOFF * (size + 8.0 * m * m) + 2.0**-1060
    return prefix, err


def _fast_cap(loop, sums, proj, lo, hi, target: float, area_tol: float):
    """For one direction, a function c -> cap area that returns None to
    mean "ask the kernel"; None itself when proj is not unimodal.

    proj[i] = ux * x_i + uy * y_i, lo and hi its least and greatest value,
    and sums is _shoelace_sums(loop).  For lo < c < hi the function
    returns an area F only when F answers both tests of _cut_offset,
    |cap - target| <= area_tol and cap > target, as the kernel's area
    K = _cap_area(loop, ux, uy, c) does.

    Same cap.  The kernel keeps vertex i when fl(-ux*x + -uy*y - -c) <= 0.
    Negation is exact, so that value is fl(c - proj[i]) = -fl(proj[i] - c),
    which is <= 0 exactly when proj[i] >= c.  When proj rises (ties
    allowed) from its first minimum to its first maximum and falls back,
    the kept vertices form one cyclic run a..b, and the two chains give
    its ends by bisection.  The crossing points on the edges into a and
    out of b use the kernel's formula on the same values c - proj[i]; as
    in the kernel, there is none where the end vertex lies on the line.
    So the cap is the kernel's loop of floats, started elsewhere.

    Close area.  Both areas are half the absolute sum of the same float
    terms: C_i for the run's inner edges and at most three terms T_j
    through the crossing points.  Only the order of the sum differs.  The
    kernel adds its m <= n + 2 terms in a row, with error at most
    g(n + 1) * S, where g(k) = k u / (1 - k u) and S is the sum of the
    terms' sizes (Higham, Accuracy and Stability of Numerical Algorithms,
    4.2).  Here each prefix sum is off by at most g(n) * sum |C_i|, and
    the run takes at most three of them, two subtractions and three more
    additions: at most g(3n + 5) * S.  A crossing coordinate is
    s + t * (e - s) with t = vs / (vs - ve), vs and ve of opposite signs,
    which rounding keeps in [0, 1]; so its size is at most M * (1 + g(5))
    and sum |T_j| <= 8 M^2.  Halving is exact but for underflow, so
    |F - K| <= g(4n + 6) * (sum |C_i| + 8 M^2).

    Decision.  err is more than twice that bound, which leaves room for
    the rounding of fl(cap - target), at most u * max(cap, target) for
    either area, and of area_tol -/+ err; its 2^-1060 covers the
    underflow in halving.  So if |fl(F - target)| <= area_tol - err, the
    kernel's area passes the first test too, and _cut_offset returns c
    either way.  If |fl(F - target)| > area_tol + err, neither passes it,
    and as |F - K| < |F - target| both lie on the same side of target.
    Otherwise the function returns None.
    """
    prefix, err = sums
    n = len(loop)
    imin = proj.index(lo)
    imax = proj.index(hi)
    twice = proj + proj
    rise = twice[imin : imax + 1 if imax >= imin else imax + n + 1]
    fall = twice[imax : imin + 1 if imin >= imax else imin + n + 1][::-1]
    if rise != sorted(rise) or fall != sorted(fall):
        return None
    total = prefix[n]
    inside = area_tol - err
    outside = area_tol + err

    def cap(c: float):
        a = (imin + bisect_left(rise, c)) % n
        b = (imin - bisect_left(fall, c)) % n
        twice_area = prefix[b] - prefix[a] if a <= b else total - prefix[a] + prefix[b]
        # close the run: b, the crossing out of b, the crossing into a, a
        x0, y0 = loop[b]
        vb = c - proj[b]
        if vb < 0.0:
            xe, ye = loop[(b + 1) % n]
            t = vb / (vb - (c - proj[(b + 1) % n]))
            x1 = x0 + t * (xe - x0)
            y1 = y0 + t * (ye - y0)
            twice_area += x0 * y1 - x1 * y0
            x0, y0 = x1, y1
        xa, ya = loop[a]
        va = c - proj[a]
        if va < 0.0:
            xs, ys = loop[a - 1]
            vs = c - proj[a - 1]
            t = vs / (vs - va)
            x1 = xs + t * (xa - xs)
            y1 = ys + t * (ya - ys)
            twice_area += x0 * y1 - x1 * y0
            x0, y0 = x1, y1
        twice_area += x0 * ya - xa * y0
        area = 0.5 * abs(twice_area)
        gap = abs(area - target)
        return area if gap <= inside or gap > outside else None

    return cap


def _cut_offset(loop, sums, ux: float, uy: float, target: float, area: float, diam: float) -> float:
    """Offset c such that the cap {u . p >= c} has area target.

    sums is _shoelace_sums(loop).  Bisection stops when the cap is within
    area_tol of target, when the bracket is shorter than bracket_tol, or
    when the midpoint is no longer strictly inside the bracket.  The last
    rule ends inputs far from the origin, whose neighbouring offsets are
    farther apart than bracket_tol and whose cap areas are noisier than
    area_tol.  The unit square at (999000, -999000) is one: offsets of
    size 1e6 lie 1.2e-10 apart, above bracket_tol 1.4e-12, and its
    shoelace terms near 1e12 round by about 1e-4, above area_tol 1e-9.
    There the cap returned is off target by up to the chord length times
    the float spacing of c, plus the kernel's rounding of about
    n * M^2 * 2^-53 for coordinates of size M.  Every input that stopped
    by the first two rules stops at the same c.
    """
    proj = [ux * x + uy * y for x, y in loop]
    lo = min(proj)
    hi = max(proj)
    area_tol = _AREA_TOL * area
    bracket_tol = _BRACKET_TOL * diam
    fast = _fast_cap(loop, sums, proj, lo, hi, target, area_tol)
    c = 0.5 * (lo + hi)
    while hi - lo >= bracket_tol:
        c = 0.5 * (lo + hi)
        if not lo < c < hi:
            break
        cap = None if fast is None else fast(c)
        if cap is None:
            cap = _cap_area(loop, ux, uy, c)
        if abs(cap - target) <= area_tol:
            return c
        if cap > target:
            lo = c
        else:
            hi = c
    return c


def cut_halfplane(poly: Polygon, phi: float, delta) -> Halfplane:
    """Halfplane whose complement cuts a cap of area delta * area(poly).

    The returned halfplane keeps the side away from the outward direction
    (cos phi, sin phi); the cap on the outward side is what floats off.
    """
    d = _coerce_delta(delta)
    _require_convex(poly)
    if not math.isfinite(phi):
        raise GeometryError("phi must be finite")
    loop = [(v.x, v.y) for v in poly.vertices]
    area = polygon_area(poly)
    bb = polygon_bbox(poly)
    diam = math.hypot(bb.width, bb.height)
    ux = math.cos(phi)
    uy = math.sin(phi)
    c = _cut_offset(loop, _shoelace_sums(loop), ux, uy, d * area, area, diam)
    return Halfplane(ux, uy, c)


def chord_midpoint(poly: Polygon, half: Halfplane) -> Point:
    """Midpoint of the chord the halfplane's boundary line cuts in poly."""
    _require_convex(poly)
    return _chord_midpoint(poly.vertices, half.nx, half.ny, half.c)


def _chord_midpoint(verts, ux: float, uy: float, c: float) -> Point:
    """chord_midpoint for the line ux * x + uy * y = c, unchecked."""
    n = len(verts)
    vals = [ux * v.x + uy * v.y - c for v in verts]
    hits: list[tuple[float, float]] = []

    def push(x: float, y: float) -> None:
        for hx, hy in hits:
            if math.hypot(hx - x, hy - y) <= EPS_DIST:
                return
        hits.append((x, y))

    for i in range(n):
        j = (i + 1) % n
        vi, vj = vals[i], vals[j]
        if abs(vi) <= EPS_DIST:
            push(verts[i].x, verts[i].y)
        elif (vi > 0.0) != (vj > 0.0) and abs(vj) > EPS_DIST:
            t = vi / (vi - vj)
            push(
                verts[i].x + t * (verts[j].x - verts[i].x),
                verts[i].y + t * (verts[j].y - verts[i].y),
            )
    if len(hits) < 2:
        raise GeometryError("line does not cut polygon")
    # chord endpoints are the extremes along the line direction
    wx, wy = -uy, ux
    ts = [(wx * x + wy * y, x, y) for x, y in hits]
    ts.sort(key=lambda t: t[0])
    _, x0, y0 = ts[0]
    _, x1, y1 = ts[-1]
    return Point((x0 + x1) / 2.0, (y0 + y1) / 2.0)


def dupin_floating_body(poly: Polygon, delta, n_directions: int = 720) -> FloatingBodyResult:
    """Chord-midpoint locus and convex floating body on a direction grid.

    For each of n_directions evenly spaced outward directions the cut of
    area fraction delta is computed; the midpoints of the cutting chords
    form the locus (in direction order), and the intersection of all cut
    halfplanes forms the convex body (None when it collapses to nothing).
    Convexity of the locus is decided by a counterclockwise-turn test with
    EPS_AREA slack.
    """
    d = _coerce_delta(delta)
    _require_convex(poly)
    if not isinstance(n_directions, int) or isinstance(n_directions, bool) or n_directions < 1:
        raise GeometryError("n_directions must be an integer >= 1")
    loop = [(v.x, v.y) for v in poly.vertices]
    sums = _shoelace_sums(loop)
    area = polygon_area(poly)
    bb = polygon_bbox(poly)
    diam = math.hypot(bb.width, bb.height)
    target = d * area

    midpoints: list[Point] = []
    body = list(loop)
    step = 2.0 * math.pi / n_directions
    for k in range(n_directions):
        phi = k * step
        ux = math.cos(phi)
        uy = math.sin(phi)
        c = _cut_offset(loop, sums, ux, uy, target, area, diam)
        midpoints.append(_chord_midpoint(poly.vertices, ux, uy, c))
        if body:
            body = _sutherland_hodgman(body, ux, uy, c, 0.0)
            if len(body) < 3:
                body = []

    return FloatingBodyResult(
        delta=d,
        directions=n_directions,
        dupin=tuple(midpoints),
        convex_fb=_polygon_from_loop(body),
        is_dupin_convex=_is_convex_loop(midpoints),
    )


def result_to_dict(r: FloatingBodyResult) -> dict:
    return {
        "delta": r.delta,
        "dupin": [[p.x, p.y] for p in r.dupin],
        "convex_fb": None
        if r.convex_fb is None
        else [[v.x, v.y] for v in r.convex_fb.vertices],
        "is_dupin_convex": r.is_dupin_convex,
    }
