"""Floating bodies of convex polygons.

For a direction phi and an area fraction delta, the cut halfplane keeps
all but delta of the polygon's area; the cap cut off has area delta * A.
Between consecutive vertex levels the cap area is quadratic in the line's
offset, so a cut is a few steps to the two crossed edges and one
closed-form root, with a cap error at round-off (_Caps).

Sweeping phi over a uniform grid yields the locus of chord midpoints (the
waterline midpoint for every heel angle), which need not be convex, and
the intersection of all cut halfplanes, which is.  The sweep carries the
top vertex and the crossed edges from one direction to the next, as
rotating calipers do (Toussaint, MELECON 1983), and each cut replaces
only the body vertices it removes (_Body).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    GeometryError,
    Halfplane,
    Point,
    Polygon,
    _is_convex_loop,
    _polygon_from_loop,
    _sure_sign,
    _sutherland_hodgman,
    polygon_is_convex,
)


@dataclass(frozen=True)
class FloatingBodyResult:
    delta: float
    directions: int
    dupin: tuple[Point, ...]
    convex_fb: Polygon | None
    is_dupin_convex: bool


def _delta_value(delta) -> float:
    d = float(delta)
    if not (math.isfinite(d) and 0.0 < d <= 0.5):
        raise GeometryError("delta must be in (0, 0.5]")
    return d


def _require_convex(poly: Polygon) -> None:
    if not polygon_is_convex(poly):
        raise GeometryError("floating body requires a convex polygon")


def _crossing(low, h_low: float, high, h_high: float, c: float):
    """The point at level c on the edge from low (level h_low) to high: an end
    at or beyond whose level c lies, else interpolated by a positive divisor."""
    if c >= h_high:
        return high
    if c <= h_low:
        return low
    t = (c - h_low) / (h_high - h_low)
    return (low[0] + t * (high[0] - low[0]), low[1] + t * (high[1] - low[1]))


class _Caps:
    """The cuts of one convex polygon that cut off caps of one area.

    loop is the polygon shifted to put vertex 0 at the origin and stored
    twice, so that a run of vertices is a slice; sums[k] adds its terms C_i
    = x_i y_(i+1) - x_(i+1) y_i for i < k, and target is delta times
    sums[n], twice the cap area.  Vertex i has level h_i = ux x_i + uy y_i;
    offsets map back by adding the level of vertex 0.

    Solver.  cut(ux, uy, a, b) starts from a run a..b that holds a top
    vertex.  Let hi = min(h_a, h_b), lo = max(h_(a-1), h_(b+1)), and F(c)
    be twice the area of [X_in, p_a .. p_b, X_out], X_in and X_out the
    points at level c on the edges (a-1, a) and (b, b+1) (_crossing).  On
    [lo, hi] they move linearly in c, so with x = hi - c and L the chord
    w . (X_out - X_in), w = (-uy, ux), F = F(hi) + 2 L(hi) x + k x^2 with
    k = (L(lo) - L(hi)) / (hi - lo), and F(lo) = F(hi) + (hi - lo) (L(hi)
    + L(lo)).  If lo > hi a pass steps in when F(hi) >= target and out
    otherwise; else it steps in (dropping the lower end) when F(hi) >
    target, out (taking the higher neighbour) when F(lo) < target, and
    ends at x = R / (L(hi) + sqrt(L(hi)^2 + k R)), R = target - F(hi),
    clamped to [0, hi - lo].  A step that would move an end back the way
    it came, empty the run or take the last vertex outside ends the cut at
    hi (in) or lo (out).  The midpoint is the mean of the crossing points.

    Zero width.  _crossing divides only when c lies strictly between its
    edge's levels.  A flat edge or a tie of h_a and h_b gives hi = lo and
    F(lo) = F(hi), so the pass steps or ends with R = 0; k's divisor
    hi - lo is formed only for R > 0, which needs hi > lo, and the root's
    only when R < (hi - lo) * den for its divisor den.  Termination: each
    pass steps or ends, an end moves one way only, and the run keeps 1 to
    n - 1 vertices, so a cut ends within 2n passes.

    Exact case: exact levels, unimodal along the loop (no corner turns
    right).  Let S = {h > c*} at the exact offset c*.  A run that holds a
    top has its lowest vertex at an end and its highest neighbour outside.
    If lo <= hi, F(hi) and F(lo) are the caps there; else F(hi) = F(lo) is
    the hull of the run and its higher neighbour, which holds the cap at
    lo and lies in the cap at hi.  So a step in drops a vertex outside S
    and a step out takes one of S: the cut takes |run - S| + |S - run|
    steps, never stops early, and ends in S's interval, where F is the cap.

    Work.  As phi grows the cut line turns about its chord's midpoint,
    where equal-area chords touch their envelope, so the crossed edges and
    the top only move forward, once around in a full turn: d directions
    take at most 3n steps and d final passes in the exact case, plus the
    new run at each restart, when the top has passed the carried run (on
    coarse grids, or when the run is a vertex or two).

    Cap error.  With u = 2^-53, M the largest |x| or |y| of the shifted
    loop and n its length, in the exact case the exact cap of the input
    polygon at the returned c is within 50 (n + 5) u M^2 + 3 u M (|c| +
    2 |x_0| + 2 |y_0|) of delta times its exact area.  Twice the area:
    1. the shift moves corners by u M per coordinate, and the cap and the
       target by that times the perimeter, 8M: 34 u M^2;
    2. levels are within 3 u M of exact, and a crossing point within 3 u M
       of its edge and 12 u M of level c: a 16 u M strip along a chord
       under 2 sqrt(2) M, 91 u M^2;
    3. the C_i are >= 0 and add up to at most 8 M^2: a running sum rounds
       by 40 n u M^2, a run by 80 n u M^2, the target by 10 n u M^2 and the
       crossing terms by 36 u M^2;
    4. chords within 12 u M move the quadratic by 48 u M (hi - lo) <=
       136 u M^2, and the root's roundings F by 96 u M^2; a cut that stops
       early stops where these bounds straddle the target;
    5. mapping back rounds c by u (|c| + 2.01 (|x_0| + |y_0|)), times a
       chord under 2 sqrt(2) M.
    Where a corner v turns right (Polygon admits EPS_AREA, and the shift
    can round a straight corner either way) and is a local minimum of the
    levels below the cut, the cap can be two pieces.  The cut then solves
    for one piece, or for the run across the notch, and can take twice the
    target off a polygon near EPS_AREA in area.  That its error stays
    within the hull's area above v's level is tested, not proven.

    Orientation.  sums[n] is core._signed_area2 of the loop, so it is > 0
    unless Polygon reversed the loop it was given, which moves vertex 0; the
    two sums then differ in sign only where one rounds by more than twice
    the area A.  In the exact case a sum about a vertex rounds by at most
    14 n u M'^2 (shifts within u M', products within 3 u M'^2, terms >= 0
    adding up to at most 8 M'^2), M' < 2M; so there A < 28 n u M^2, under
    the cap-error bound, which then holds at every offset: caps lie in [0, A].
    """

    __slots__ = ("loop", "sums", "x0", "y0", "target")

    def __init__(self, poly: Polygon, delta: float) -> None:
        x0 = self.x0 = poly.vertices[0].x
        y0 = self.y0 = poly.vertices[0].y
        self.loop = loop = [(v.x - x0, v.y - y0) for v in poly.vertices] * 2
        sums = [0.0]
        for (xa, ya), (xb, yb) in zip(loop, loop[1:]):
            sums.append(sums[-1] + (xa * yb - xb * ya))
        self.sums = sums
        self.target = delta * sums[len(poly.vertices)]

    def cut(self, ux: float, uy: float, a: int, b: int):
        """(a, b, c, midpoint): the run at the cut from the run a..b, the
        offset in the polygon's coordinates and the chord midpoint."""
        loop = self.loop
        sums = self.sums
        target = self.target
        n = len(loop) // 2
        way_a = way_b = 0
        while True:
            ps, pa, pb, pe = loop[a - 1], loop[a], loop[b], loop[b + 1]
            hs = ux * ps[0] + uy * ps[1]
            ha = ux * pa[0] + uy * pa[1]
            hb = ux * pb[0] + uy * pb[1]
            he = ux * pe[0] + uy * pe[1]
            hi = ha if ha < hb else hb
            lo = hs if hs > he else he
            pin = xi, yi = _crossing(ps, hs, pa, ha, hi)
            pout = xo, yo = _crossing(pe, he, pb, hb, hi)
            qin = _crossing(ps, hs, pa, ha, lo)
            qout = _crossing(pe, he, pb, hb, lo)
            rest = target - (sums[b] - sums[a] + (pb[0] * yo - xo * pb[1])
                             + (xo * yi - xi * yo) + (xi * pa[1] - pa[0] * yi))
            width = hi - lo
            chord_hi = ux * (yo - yi) - uy * (xo - xi)
            chord_lo = ux * (qout[1] - qin[1]) - uy * (qout[0] - qin[0])
            if width < 0.0:
                inward = rest <= 0.0
            elif rest < 0.0 or rest > width * (chord_hi + chord_lo):
                inward = rest < 0.0
            elif rest == 0.0:
                return self._result(ux, uy, a, b, hi, pin, pout)
            else:
                slope = (chord_lo - chord_hi) / width
                den = chord_hi + math.sqrt(max(chord_hi * chord_hi + slope * rest, 0.0))
                if not rest < width * den:
                    return self._result(ux, uy, a, b, lo, qin, qout)
                c = hi - rest / den
                pin = _crossing(ps, hs, pa, ha, c)
                return self._result(ux, uy, a, b, c, pin, _crossing(pe, he, pb, hb, c))
            if inward and a < b and (way_a >= 0 if ha <= hb else way_b <= 0):
                if ha <= hb:
                    a, way_a = a + 1, 1
                else:
                    b, way_b = b - 1, -1
            elif not inward and b - a < n - 2 and (way_a <= 0 if hs >= he else way_b >= 0):
                if hs >= he:
                    a, way_a = a - 1, -1
                else:
                    b, way_b = b + 1, 1
            elif inward:
                return self._result(ux, uy, a, b, hi, pin, pout)
            else:
                return self._result(ux, uy, a, b, lo, qin, qout)
            if a < 0:
                a, b = a + n, b + n
            elif a >= n:
                a, b = a - n, b - n

    def _result(self, ux: float, uy: float, a: int, b: int, c: float, pin, pout):
        mid = Point(0.5 * (pin[0] + pout[0]) + self.x0, 0.5 * (pin[1] + pout[1]) + self.y0)
        return a, b, c + (ux * self.x0 + uy * self.y0), mid


def cut_halfplane(poly: Polygon, phi: float, delta) -> Halfplane:
    """Halfplane whose complement cuts a cap of area delta * area(poly).

    The returned halfplane keeps the side away from the outward direction
    (cos phi, sin phi); the cap on the outward side is what floats off.
    The cut is solved from the first top vertex (_Caps).
    """
    d = _delta_value(delta)
    _require_convex(poly)
    if not math.isfinite(phi):
        raise GeometryError("phi must be finite")
    caps = _Caps(poly, d)
    loop = caps.loop
    ux, uy = math.cos(phi), math.sin(phi)
    t = max(range(len(poly)), key=lambda i: ux * loop[i][0] + uy * loop[i][1])
    return Halfplane(ux, uy, caps.cut(ux, uy, t, t)[2])


def _turns_left(chain) -> bool:
    """True when every inner corner of a list of (x, y) tuples surely turns
    left: its exact cross product is positive (core._sure_sign)."""
    return all(
        _sure_sign(ax, ay, bx, by, cx, cy) == 1
        for (ax, ay), (bx, by), (cx, cy) in zip(chain, chain[1:], chain[2:])
    )


def _wraps(chain) -> int:
    """The inner corners of a list of (x, y) tuples where an edge in the
    lower half (dy < 0, or dy = 0 and dx < 0) is followed by one in the
    upper half, decided exactly by comparing floats."""
    return sum(
        1
        for (ax, ay), (bx, by), (cx, cy) in zip(chain, chain[1:], chain[2:])
        if (by < ay or (by == ay and bx < ax)) and (cy > by or (cy == by and cx > bx))
    )


class _Body:
    """The running intersection of the cut halfplanes, a CCW loop of (x, y).

    cut(ux, uy, c) leaves loop equal to _sutherland_hodgman(loop, ux, uy,
    c, 2 err), emptied below three points, as clipping the whole body does:
    values within twice their rounding bound err count as on the line.  The
    cut lines of many directions can pass through one body vertex, which
    exact zeros would let rounding nick into points too close to certify;
    an EPS_DIST band would skip cuts and leave too few vertices.  When the
    loop is certified convex (sure), cut evaluates the value v_i = ux * x_i
    + uy * y_i - c only at the vertices it climbs over and the window.

    Certificate.  Every corner turns surely left (_turns_left) and exactly
    one corner passes from the lower half to the upper half (_wraps).
    Then the exact edge directions turn left by less than pi at every
    corner, and each lower-to-upper pass is one multiple of 2 pi crossed
    by the total turning, which is 2 pi k for the loop's turning number
    k: so k = 1 and the loop is strictly convex.  Along it any exact linear function
    f = u . p - c first does not decrease and then does not increase: its
    superlevel sets are cyclic runs, and its maximum lies between an edge
    on which it rises and a later one on which it falls.

    Values.  With B at least every |x| and |y| ever in the loop, the
    float v_i is within e = 6.01 u B + u |c| of the exact f_i.  The
    code's err = 2^-49 (B + |c|) + 2^-1070 is at least e, and 2 err
    exceeds 2e plus the rounding of fl(v - 2 err) for any value v; the
    2^-1070 covers underflow.

    Climb.  From the previous top vertex t, move to the larger neighbour
    while it is larger; the values strictly increase, so the climb ends.

    Window.  If v_t > 0, walk from t both ways while v > -2 err, and stop
    at b1 and b2.  Then f_t > -err and f_b1, f_b2 <= -err.  A vertex j
    beyond the walk with v_j > 0 would have f_j > -err; but both arcs from
    t to j pass b1 or b2, so {f > -err} would not be a run.  So every
    vertex outside the window has v <= 0: the kernel keeps it, and puts
    no crossing on an edge between two of them.  Its output is the loop
    with the window replaced by what it makes of the edges from b1 to b2:
    the crossing on (b1, w1), then each window vertex it keeps and each
    crossing after it, with the kernel's own expressions, in edge order
    from index 0, so a window that wraps past the end of the list puts its
    first part last.  A window that would leave fewer than three vertices
    outside is clipped whole.

    No cut.  If v_t <= 0, walk from t both ways while the next value is at
    least fl(v - 2 err) for the last one, v.  At the first value below it
    on each side f falls away from the arc walked, so its maximum lies on
    the arc, and every v_j <= f_max + err <= top + 2 err <= 2 err if the
    arc's largest value top is <= 0: the kernel returns the loop unchanged.
    Otherwise, or if the arc reaches all around, the loop is clipped whole.

    After a splice the certificate is rechecked only at b1, b2 and the
    new vertices, and the lower-to-upper count there must equal the old
    one; every other case clips the whole loop and rechecks all of it.
    """

    __slots__ = ("loop", "top", "sure", "bound")

    def __init__(self, loop) -> None:
        self.loop = list(loop)
        self._recheck()

    def _recheck(self) -> None:
        loop = self.loop
        self.top = 0
        self.bound = max((max(abs(x), abs(y)) for x, y in loop), default=0.0)
        ring = loop[-1:] + loop + loop[:1]
        self.sure = len(loop) >= 3 and _turns_left(ring) and _wraps(ring) == 1

    def cut(self, ux: float, uy: float, c: float) -> None:
        loop = self.loop
        n = len(loop)
        tol = 2.0 * (2.0**-49 * (self.bound + abs(c)) + 2.0**-1070)
        if not self.sure:
            return self._clip(ux, uy, c, tol)
        lim = -tol
        vals: dict[int, float] = {}

        def value(i: int) -> float:
            i %= n
            v = vals.get(i)
            if v is None:
                x, y = loop[i]
                v = vals[i] = ux * x + uy * y - c
            return v

        t = self.top
        vt = value(t)
        step = 1 if value(t + 1) > vt else -1
        while value(t + step) > vt:
            t += step
            vt = value(t)
        if not vt > 0.0:
            # the near-ties around the top, up to a sure drop on each side
            first = last = t
            while value(first - 1) >= value(first) + lim and last - first < n - 1:
                first -= 1
            while value(last + 1) >= value(last) + lim and last - first < n - 1:
                last += 1
            if last - first < n - 1 and max(map(value, range(first, last + 1))) <= 0.0:
                self.top = t % n
                return None
            return self._clip(ux, uy, c, tol)
        # the window, while it leaves the three vertices a splice needs outside
        first = last = t
        while value(first - 1) > lim and last - first < n - 3:
            first -= 1
        while value(last + 1) > lim and last - first < n - 3:
            last += 1
        m = last - first + 1
        if m > n - 3:
            return self._clip(ux, uy, c, tol)
        # the kernel's output for the edges from b1 = first - 1 to b2 = last + 1
        b1 = (first - 1) % n
        tail: list = []
        head: list = []
        for k in range(b1, b1 + m + 1):
            s = loop[k % n]
            e = loop[(k + 1) % n]
            vs = value(k)
            ve = value(k + 1)
            out = tail if k < n else head
            if k != b1 and vs <= tol:
                out.append(s)
            if (vs < lim and ve > tol) or (vs > tol and ve < lim):
                r = vs / (vs - ve)
                out.append((s[0] + r * (e[0] - s[0]), s[1] + r * (e[1] - s[1])))
        old = [loop[(k + b1 - 1) % n] for k in range(m + 4)]
        new = old[:2] + tail + head + old[-2:]
        if head:
            self.loop = head + loop[(b1 + m + 1) % n : b1 + 1] + tail
            self.top = len(head) - 1
        else:
            loop[b1 + 1 : b1 + 1 + m] = tail
            self.top = b1 + len(tail)
        self.sure = _turns_left(new) and _wraps(new) == _wraps(old)
        grown = max((max(abs(x), abs(y)) for x, y in tail + head), default=0.0)
        self.bound = max(self.bound, grown)
        return None

    def _clip(self, ux: float, uy: float, c: float, tol: float) -> None:
        loop = _sutherland_hodgman(self.loop, ux, uy, c, tol)
        if len(loop) < 3:
            loop = []
        if loop != self.loop:
            self.loop = loop
            self._recheck()


def dupin_floating_body(poly: Polygon, delta, n_directions: int = 720) -> FloatingBodyResult:
    """Chord-midpoint locus and convex floating body on a direction grid.

    For each of n_directions evenly spaced outward directions the cut of
    area fraction delta is computed; the midpoints of the cutting chords
    form the locus (in direction order), and the intersection of all cut
    halfplanes forms the convex body (None when it collapses to nothing).
    Convexity of the locus is decided by a counterclockwise-turn test with
    EPS_AREA slack.  Each cut starts from the last direction's run, or from
    the top vertex alone once the climbing top has left that run (_Caps).
    """
    d = _delta_value(delta)
    _require_convex(poly)
    if not isinstance(n_directions, int) or isinstance(n_directions, bool) or n_directions < 1:
        raise GeometryError("n_directions must be an integer >= 1")
    caps = _Caps(poly, d)
    loop = caps.loop
    n = len(poly)
    midpoints: list[Point] = []
    body = _Body([(v.x, v.y) for v in poly.vertices])
    t = a = b = 0
    step = 2.0 * math.pi / n_directions
    for k in range(n_directions):
        ux, uy = math.cos(k * step), math.sin(k * step)
        ht = ux * loop[t][0] + uy * loop[t][1]
        way = 1 if ux * loop[t + 1][0] + uy * loop[t + 1][1] > ht else -1
        while ux * loop[t + way][0] + uy * loop[t + way][1] > ht:
            t += way
            ht = ux * loop[t][0] + uy * loop[t][1]
        t %= n
        if not (a <= t <= b or a <= t + n <= b):
            a = b = t
        a, b, c, mid = caps.cut(ux, uy, a, b)
        midpoints.append(mid)
        if body.loop:
            body.cut(ux, uy, c)
    return FloatingBodyResult(
        delta=d,
        directions=n_directions,
        dupin=tuple(midpoints),
        convex_fb=_polygon_from_loop(body.loop),
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
