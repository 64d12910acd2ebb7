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

A direction of the sweep touches only what it decides or changes, and
each shortcut yields the floats of the plain scheme or is not taken:

- the offset: an offset extrapolated from the previous directions is
  probed with the fast area, and proven bounds turn the probes into
  certificates that settle the bisection's outer midpoints without
  evaluating them; the bisection then replays the same midpoints
  (_bracket, _cut_offset);
- the chord midpoint: only the vertices within EPS_DIST of the line and
  the two crossed edges are scanned, found by bisection on the cut's own
  rising and falling chains (_view_chord_midpoint);
- the body: a cut replaces only the window of body vertices it removes,
  or is proven to remove nothing (_Body).  Where a certificate cannot
  decide, the whole body is clipped with the kernel.

The body is cut with the same kernel.  Here it counts only exact zeros
as on the line: an EPS_DIST band would skip the cuts that pass within
EPS_DIST of a body vertex, leaving the body with too few vertices.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .core import (
    _CROSS_ERR,
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
_KERNEL_ERR = 6.0
"""|K - A| <= _KERNEL_ERR * err for the kernel's cap area K (proof: _bracket)."""


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


def _view(loop, ux: float, uy: float):
    """(proj, lo, hi, chains) of the loop for one direction.

    proj[i] = ux * x_i + uy * y_i, lo and hi its least and greatest value.
    chains is (imin, rise, fall) when proj rises (ties allowed) from its
    first minimum, at imin, to its first maximum and falls back: rise is
    proj from imin forward to the maximum, fall is proj from imin backward
    to it, both sorted.  Otherwise chains is None.
    """
    proj = [ux * x + uy * y for x, y in loop]
    lo = min(proj)
    hi = max(proj)
    n = len(loop)
    imin = proj.index(lo)
    imax = proj.index(hi)
    twice = proj + proj
    rise = twice[imin : imax + 1 if imax >= imin else imax + n + 1]
    fall = twice[imax : imin + 1 if imin >= imax else imin + n + 1][::-1]
    if rise != sorted(rise) or fall != sorted(fall):
        return proj, lo, hi, None
    return proj, lo, hi, (imin, rise, fall)


def _fast_cap(loop, sums, proj, chains):
    """For one direction, a function c -> (F, chord); None when chains is None.

    proj and chains are _view's, and sums is _shoelace_sums(loop).  For
    lo < c < hi, F is an area within g(4n + 6) * (sum |C_i| + 8 M^2), less
    than half of err, of the kernel's area K = _cap_area(loop, ux, uy, c),
    and chord is the length of the segment that closes the cap.

    Same cap.  The kernel keeps vertex i when fl(-ux*x + -uy*y - -c) <= 0.
    Negation is exact, so that value is fl(c - proj[i]) = -fl(proj[i] - c),
    which is <= 0 exactly when proj[i] >= c.  Along the unimodal chains
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

    Decision (_cut_offset).  err is more than twice that bound, which
    leaves room for the rounding of fl(cap - target), at most
    u * max(cap, target) for either area, and of area_tol -/+ err; its
    2^-1060 covers the underflow in halving.  So if |fl(F - target)| <=
    area_tol - err, the kernel's area passes the first test too, and
    _cut_offset returns c either way.  If |fl(F - target)| > area_tol +
    err, neither passes it, and as |F - K| < |F - target| both lie on the
    same side of target.  Otherwise the step asks the kernel.
    """
    if chains is None:
        return None
    prefix = sums[0]
    n = len(loop)
    imin, rise, fall = chains
    total = prefix[n]

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
        xb, yb = x0, y0
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
        if va >= 0.0:
            x0, y0 = xa, ya
        return 0.5 * abs(twice_area), math.hypot(x0 - xb, y0 - yb)

    return cap


def _bracket(fast, lo: float, hi: float, target: float, margin: float, guess: float):
    """Certified ends (above, below) for the bisection of one direction.

    fast is _fast_cap's function for a unimodal direction with offsets
    lo < c < hi, and margin is fl(area_tol + (1 + 2 * _KERNEL_ERR) * err).
    Every c in (lo, hi) with c <= above has both the fast and the
    kernel's area above target by more than area_tol, and every c >= below
    has both below target by more than that.  So _cut_offset's bisection
    moves lo (hi) to such a midpoint without evaluating it, as it would
    after evaluating it.  The probes are the guess and the two points
    2 * margin / chord either side of its Newton step; only the speed
    depends on them.

    Monotone area.  Let P be the polygon whose corners are the loop's
    floats and A(c) the exact area of its part with ux * x + uy * y >= c,
    in real arithmetic on the floats ux, uy, c.  P is simple, as Polygon
    checks, and its part shrinks as c grows, so A is non-increasing.

    Kernel budget: |K - A| < 6 err = _KERNEL_ERR * err.  Here u = 2^-53,
    g(k) = k u / (1 - k u), M is the largest |x| or |y| of the loop, n its
    length, S = sum |C_i| as in _shoelace_sums, and |ux|, |uy| <= 1 with
    ux^2 + uy^2 >= 1/2, as for any cosine and sine within 10 percent.
    1. Values.  proj_i is within eta = g(2) 2M of the exact u . p_i, and
       |proj_i|, |c| <= 2M (1 + g(2)).  The kernel's value at vertex i is
       -fl(proj_i - c) (see _fast_cap), within
       eps = eta + 4uM (1 + g(2)) < 8.01 u M of c - u . p_i.
    2. Crossings.  The kernel's loop Q is the run p_a .. p_b of vertices
       with proj_i >= c, a crossing X_out on the edge (b, b+1) and a
       crossing X_in on the edge (a-1, a); there is none where the end
       vertex has value 0, and then X is that vertex.  A crossing on the
       edge (s, e) is fl(s + t (e - s)) with t = fl(vs / fl(vs - ve)), vs
       and ve of strictly opposite signs, so t is in [0, 1] and the exact
       point Y = s + t (e - s) lies on the edge, within 5.01 u M of X in
       each coordinate.  Write alpha and beta for the exact c - u . s and
       c - u . e, and t0 = vs / (vs - ve) in exact arithmetic.  The point
       s + t0 (e - s) lies (alpha ve - vs beta) / (vs - ve) off the level
       c.  As vs = alpha + d_s and ve = beta + d_e with |d_s|, |d_e| <= eps,
       that is (alpha d_e - beta d_s) / (vs - ve), at most
       eps + 2 eps^2 / (|vs| + |ve|) <= 3 eps when |vs| + |ve| >= eps; and
       otherwise at most max(|alpha|, |beta|) < 2 eps, as the point lies
       between s and e.  t differs from t0 by at most g(2), which moves
       the level by at most g(2) |u . (e - s)| <= g(2) 4M.  So Y lies
       within w = 3 eps + g(2) 4M < 33 u M of the level c.
    3. Strip.  R1 = [Y_in, p_a .. p_b, Y_out] and R2 = [Y_out, p_(b+1) ..
       p_(a-1), Y_in] split P's boundary at points on its edges, so their
       winding numbers add up to P's: 1 inside P, 0 outside.  R1's corners
       have u . q >= c - w and R2's u . q <= c + w (eta < w), so
       winding(R1) = winding(P) where u . q > c + w, and both vanish where
       u . q < c - w.  So area(R1) - A is the integral of winding(R1) -
       winding(P) over the strip |u . q - c| <= w inside P's box.  A ray
       crosses each of R1's at most n + 1 edges once, so the integrand is
       at most n + 2; the strip is 2w / |u| <= 2 sqrt(2) w wide, and the
       box's diagonal is at most 2 sqrt(2) M.  So |area(R1) - A| <=
       (n + 2) * 8 w M < (n + 2) * 264 u M^2.
    4. Corners.  Q is R1 with Y_in and Y_out moved to X_in and X_out, each
       by at most sqrt(2) * 5.01 u M.  Moving a corner by d changes the
       signed area by at most |d| / 2 times the distance between its
       neighbours, at most 2 sqrt(2) M (1 + 6u): under 20.1 u M^2 in all.
    5. Rounding.  K is half the absolute float sum of Q's m <= n + 2
       shoelace terms.  Each term rounds by at most g(2) 2 M^2 (1 + 11u),
       the sum of the rounded terms by at most g(n + 1) (S + 8 M^2) (see
       _fast_cap), so |K - |area(Q)|| <= g(n + 1) (S + 8 M^2) / 2 +
       2.01 (n + 2) u M^2, below err / 4 = (2n + 8) u (S + 8 M^2).
    As A >= 0, |K - A| <= |K - |area(Q)|| + |area(Q) - A|, which is below
    err / 4 + (264 n + 549) u M^2 <= err / 4 + 264 (n + 4) u M^2; and
    err >= 64 (n + 4) u M^2, so |K - A| < 4.4 err < 6 err.

    Certificate.  Let E = g(4n + 6) (S + 8 M^2) < err / 2 bound |F - K|
    (_fast_cap) and e_K = 6 err.  A probe x with fl(F(x) - target) >
    margin gives, for every c <= x in (lo, hi),
    K(c) >= A(c) - e_K >= A(x) - e_K >= K(x) - 2 e_K >= F(x) - E - 2 e_K,
    so K(c) - target > area_tol + err - E and F(c) - target >
    area_tol + err - 2E, less the rounding of margin and of F(x) - target.
    err - 2E > 19 u (S + 8 M^2) exceeds that rounding and the rounding of
    the bisection's own test |fl(cap - target)| <= area_tol, each a few u
    of sizes below 4 M^2 + 13 err.  So at c the bisection's first test
    fails and its second passes, whichever area it uses: lo = c.  A probe
    with fl(F(x) - target) < -margin is the mirror image: hi = c for every
    c >= x.
    """
    above, below = lo, hi

    def probe(x: float):
        nonlocal above, below
        cap, chord = fast(x)
        r = cap - target
        if r > margin:
            above = x
        elif r < -margin:
            below = x
        return r, chord

    if lo < guess < hi:
        r, chord = probe(guess)
        if chord > 0.0:
            root = guess + r / chord
            step = 2.0 * margin / chord
            for x in (root - step, root + step):
                if above < x < below:
                    probe(x)
    return above, below


def _cut_offset(loop, sums, ux: float, uy: float, target: float, area: float, diam: float,
                view=None, guess=None) -> float:
    """Offset c such that the cap {u . p >= c} has area target.

    sums is _shoelace_sums(loop) and view, when given, _view(loop, ux,
    uy).  Bisection stops when the cap is within area_tol of target, when
    the bracket is shorter than bracket_tol, or when the midpoint is no
    longer strictly inside the bracket.  The last rule ends inputs far
    from the origin, whose neighbouring offsets are farther apart than
    bracket_tol and whose cap areas are noisier than area_tol.  The unit
    square at (999000, -999000) is one: offsets of size 1e6 lie 1.2e-10
    apart, above bracket_tol 1.4e-12, and its shoelace terms near 1e12
    round by about 1e-4, above area_tol 1e-9.  There the cap returned is
    off target by up to the chord length times the float spacing of c,
    plus the kernel's rounding of about n * M^2 * 2^-53 for coordinates
    of size M.  Every input that stopped by the first two rules stops at
    the same c.

    With a guess, in a direction where the fast area exists, _bracket's
    certificates decide the midpoints outside (above, below); the others
    are evaluated as without them, so the guess changes no offset.
    """
    proj, lo, hi, chains = _view(loop, ux, uy) if view is None else view
    area_tol = _AREA_TOL * area
    bracket_tol = _BRACKET_TOL * diam
    fast = _fast_cap(loop, sums, proj, chains)
    err = sums[1]
    inside = area_tol - err
    outside = area_tol + err
    above, below = lo, hi
    if fast is not None and guess is not None:
        margin = area_tol + (1.0 + 2.0 * _KERNEL_ERR) * err
        # far from the origin err can exceed the area, and no probe clears it
        if margin < area:
            above, below = _bracket(fast, lo, hi, target, margin, guess)
    c = 0.5 * (lo + hi)
    while hi - lo >= bracket_tol:
        c = 0.5 * (lo + hi)
        if not lo < c < hi:
            break
        if c <= above:
            lo = c
            continue
        if c >= below:
            hi = c
            continue
        cap = None
        if fast is not None:
            cap = fast(c)[0]
            gap = abs(cap - target)
            if inside < gap <= outside:
                cap = None
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
    loop = [(v.x, v.y) for v in verts]
    vals = [ux * x + uy * y - c for x, y in loop]
    return _chord(loop, vals, range(len(loop)), ux, uy)


def _chord(loop, vals, starts, ux: float, uy: float) -> Point:
    """The chord midpoint from the edges that start at starts, in order.

    vals[i] is the line's value ux * x_i + uy * y_i - c at vertex i.  A
    vertex within EPS_DIST of the line is a hit, and so is the crossing
    of an edge whose ends lie strictly on opposite sides, farther than
    EPS_DIST; a hit within EPS_DIST of an earlier one is dropped.  The
    chord's ends are the first and last hits along the line direction.
    """
    n = len(loop)
    hits: list[tuple[float, float]] = []

    def push(x: float, y: float) -> None:
        for hx, hy in hits:
            if math.hypot(hx - x, hy - y) <= EPS_DIST:
                return
        hits.append((x, y))

    for i in starts:
        j = (i + 1) % n
        vi, vj = vals[i], vals[j]
        if abs(vi) <= EPS_DIST:
            push(*loop[i])
        elif (vi > 0.0) != (vj > 0.0) and abs(vj) > EPS_DIST:
            t = vi / (vi - vj)
            (xi, yi), (xj, yj) = loop[i], loop[j]
            push(xi + t * (xj - xi), yi + t * (yj - yi))
    if len(hits) < 2:
        raise GeometryError("line does not cut polygon")
    # chord endpoints are the extremes along the line direction
    wx, wy = -uy, ux
    ts = [(wx * x + wy * y, x, y) for x, y in hits]
    ts.sort(key=lambda t: t[0])
    _, x0, y0 = ts[0]
    _, x1, y1 = ts[-1]
    return Point((x0 + x1) / 2.0, (y0 + y1) / 2.0)


def _view_chord_midpoint(loop, view, ux: float, uy: float, c: float) -> Point:
    """_chord_midpoint of the loop and the line u . p = c, from _view's view.

    _chord_midpoint's value at vertex i is fl(proj_i - c), and fl(p - c)
    does not decrease as p grows.  In a unimodal direction each chain is
    sorted, so along it the vertices with |value| <= EPS_DIST form one
    run around the place where the values pass c, and the sign of the
    value changes on at most one of its edges: from its last value <= c
    to its first > c.  The two chains' edges are all the loop's edges.  A
    hit comes only from a vertex in such a run or from an edge where the
    sign changes, so _chord scans just those edges, in index order, and
    pushes the same hits in the same order: the same dedupe, the same
    stable sort, the same midpoint.  Without chains every edge is scanned.
    """
    proj, _, _, chains = view
    n = len(loop)
    if chains is None:
        return _chord(loop, [p - c for p in proj], range(n), ux, uy)
    imin, rise, fall = chains
    starts = set()
    for chain, sign in ((rise, 1), (fall, -1)):
        k = bisect_right(chain, c)
        if 0 < k < len(chain):
            # the sign changes between chain positions k - 1 and k
            starts.add((imin + k - 1) % n if sign > 0 else (imin - k) % n)
        for j in range(k - 1, -1, -1):
            if abs(chain[j] - c) > EPS_DIST:
                break
            starts.add((imin + sign * j) % n)
        for j in range(k, len(chain)):
            if abs(chain[j] - c) > EPS_DIST:
                break
            starts.add((imin + sign * j) % n)
    vals = {}
    for i in starts:
        vals[i] = proj[i] - c
        vals[(i + 1) % n] = proj[(i + 1) % n] - c
    return _chord(loop, vals, sorted(starts), ux, uy)


def _turns_left(chain) -> bool:
    """True when every inner corner of a list of (x, y) tuples surely turns left.

    Left beyond Shewchuk's bound, _CROSS_ERR times the sizes of cross's
    two products, so the exact cross product is positive.
    """
    for (ax, ay), (bx, by), (cx, cy) in zip(chain, chain[1:], chain[2:]):
        left = (bx - ax) * (cy - ay)
        right = (by - ay) * (cx - ax)
        if not left - right > _CROSS_ERR * (abs(left) + abs(right)) + 2.0**-1060:
            return False
    return True


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
    c, 0.0), emptied below three points, as clipping the whole body does.
    When the loop is certified convex (sure), it evaluates the kernel's
    value v_i = ux * x_i + uy * y_i - c only at the vertices it climbs
    over and the window it replaces.

    Certificate.  Every corner turns surely left (_turns_left) and exactly
    one corner passes from the lower half to the upper half (_wraps).
    Then the exact edge directions turn left by less than pi at every
    corner, and each lower-to-upper pass is one multiple of 2 pi crossed
    by the total turning, which is 2 pi k for the loop's turning number
    k: so k = 1 and the loop is strictly convex.  Along it any exact linear function
    f = u . p - c first does not decrease and then does not increase, so
    its superlevel sets are cyclic runs and a strict local maximum is the
    maximum.

    Values.  With B at least every |x| and |y| ever in the loop, the
    float v_i is within e = 6.01 u B + u |c| of the exact f_i.  The
    code's err = 2^-49 (B + |c|) + 2^-1070 is at least e, and 2 err
    exceeds 2e plus the rounding of fl(v - 2 err) for any value v; the
    2^-1070 covers underflow.

    Climb.  From the previous top vertex t, move to the neighbour with
    the larger value while it is larger.  The values strictly increase,
    so the climb ends, at a vertex whose two neighbours are no larger.

    Window.  If v_t > 0, walk from t both ways while v > -2 err, and stop
    at b1 and b2.  Then f_t > -err and f_b1, f_b2 <= -err.  A vertex j
    beyond the walk with v_j > 0 would have f_j > -err; but both arcs from
    t to j pass b1 or b2, so {f > -err} would not be a run.  So every
    vertex outside the window has v <= 0: the kernel keeps it, and puts
    no crossing on an edge between two of them.  Its output is the loop
    with the window replaced by what it makes of the edges from b1 to b2:
    the crossing on (b1, w1), then each window vertex it keeps and each
    crossing after it, with the kernel's own expressions.  The kernel
    emits them in edge order from index 0, so a window that wraps past
    the end of the list puts its first part last.  A window that would
    leave fewer than three vertices outside is clipped whole.

    No cut.  If v_t <= -2 err and both neighbours are below
    fl(v_t - 2 err), then f_t is a strict local maximum, so the maximum,
    and every v_j <= f_j + err <= f_t + err <= v_t + 2 err <= 0: the
    kernel returns the loop unchanged.

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
        if not self.sure:
            return self._clip(ux, uy, c)
        lim = -2.0 * (2.0**-49 * (self.bound + abs(c)) + 2.0**-1070)
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
        if vt <= lim:
            if value(t - 1) < vt + lim and value(t + 1) < vt + lim:
                self.top = t % n
                return None
            return self._clip(ux, uy, c)
        if not vt > 0.0:
            return self._clip(ux, uy, c)
        # the window, while it leaves the three vertices a splice needs outside
        first = last = t
        while value(first - 1) > lim and last - first < n - 3:
            first -= 1
        while value(last + 1) > lim and last - first < n - 3:
            last += 1
        m = last - first + 1
        if m > n - 3:
            return self._clip(ux, uy, c)
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
            if k != b1 and vs <= 0.0:
                out.append(s)
            if (vs < 0.0 and ve > 0.0) or (vs > 0.0 and ve < 0.0):
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

    def _clip(self, ux: float, uy: float, c: float) -> None:
        loop = _sutherland_hodgman(self.loop, ux, uy, c, 0.0)
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
    EPS_AREA slack.  Each offset is solved with a guess extrapolated from
    the last three offsets (see _cut_offset).
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
    body = _Body(loop)
    last: list[float] = []
    step = 2.0 * math.pi / n_directions
    for k in range(n_directions):
        phi = k * step
        ux = math.cos(phi)
        uy = math.sin(phi)
        view = _view(loop, ux, uy)
        # the polynomial through the last three (two, one) offsets, one step on
        if len(last) == 3:
            guess = 3.0 * (last[2] - last[1]) + last[0]
        elif len(last) == 2:
            guess = 2.0 * last[1] - last[0]
        else:
            guess = last[0] if last else None
        c = _cut_offset(loop, sums, ux, uy, target, area, diam, view, guess)
        last = last[-2:] + [c]
        midpoints.append(_view_chord_midpoint(loop, view, ux, uy, c))
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
