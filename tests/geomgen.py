"""Seeded input generators and independent oracles shared by the tests.

Everything here is deliberately written from first principles (gift
wrapping instead of the library's monotone chain, direct disk tests
instead of the library's angle predicate) so that agreement between the
library and these routines is meaningful evidence, not a tautology.
"""

from __future__ import annotations

import math


def cross3(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def dist2(a, b):
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def random_points(rng, n, lo=0.0, hi=1.0, decimals=None, dyadic_bits=None):
    """n random (x, y) tuples, optionally snapped for exact round-trips.

    decimals rounds through the printed representation, so the floats
    are exactly what a 12-significant-digit dump parses back to.
    dyadic_bits snaps to multiples of 2**-bits; with bits small enough
    those survive 12-significant-digit printing too, and so do the
    region midpoints a PR quadtree derives from them.
    """
    pts = []
    scale = None if dyadic_bits is None else float(1 << dyadic_bits)
    for _ in range(n):
        x = rng.uniform(lo, hi)
        y = rng.uniform(lo, hi)
        if decimals is not None:
            x = float("%.*f" % (decimals, x))
            y = float("%.*f" % (decimals, y))
        if scale is not None:
            x = round(x * scale) / scale
            y = round(y * scale) / scale
        pts.append((x, y))
    return pts


def jarvis_hull(points):
    """Strict convex hull by gift wrapping, CCW from the lexicographic min.

    Collinear points on the boundary are skipped by always wrapping to
    the point that makes every other point a strict left turn (ties on
    the same ray resolved toward the farthest candidate).
    """
    pts = list(dict.fromkeys(points))
    if len(pts) == 1:
        return [pts[0]]
    start = min(pts)
    hull = [start]
    current = start
    while True:
        candidate = None
        for p in pts:
            if p == current:
                continue
            if candidate is None:
                candidate = p
                continue
            turn = cross3(current, candidate, p)
            if turn < 0 or (turn == 0 and dist2(current, p) > dist2(current, candidate)):
                candidate = p
        if candidate is None or candidate == start:
            break
        hull.append(candidate)
        current = candidate
        if len(hull) > len(pts):
            raise AssertionError("gift wrapping failed to close")
    return hull


def point_in_convex_ccw(p, hull, tol=1e-9):
    """Is p inside or on a CCW convex polygon (list of tuples)?"""
    n = len(hull)
    if n == 1:
        return dist2(p, hull[0]) <= tol * tol
    if n == 2:
        return point_on_segment(p, hull[0], hull[1], tol)
    for i in range(n):
        if cross3(hull[i], hull[(i + 1) % n], p) < -tol:
            return False
    return True


def point_on_segment(p, a, b, tol=1e-9):
    if abs(cross3(a, b, p)) > tol * math.sqrt(max(dist2(a, b), 1e-30)):
        return False
    lo_x, hi_x = min(a[0], b[0]) - tol, max(a[0], b[0]) + tol
    lo_y, hi_y = min(a[1], b[1]) - tol, max(a[1], b[1]) + tol
    return lo_x <= p[0] <= hi_x and lo_y <= p[1] <= hi_y


def gabriel_oracle(points):
    """Edge set of the Gabriel graph: an open diametral disk empties it."""
    n = len(points)
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            cx = (points[i][0] + points[j][0]) / 2.0
            cy = (points[i][1] + points[j][1]) / 2.0
            r2 = dist2(points[i], (cx, cy))
            alive = True
            for k in range(n):
                if k == i or k == j:
                    continue
                if dist2(points[k], (cx, cy)) < r2:
                    alive = False
                    break
            if alive:
                edges.add((i, j))
    return edges


def rng_lune_oracle(points):
    """Edge set of the relative neighborhood graph via the open lune."""
    n = len(points)
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            d2 = dist2(points[i], points[j])
            alive = True
            for k in range(n):
                if k == i or k == j:
                    continue
                if max(dist2(points[k], points[i]), dist2(points[k], points[j])) < d2:
                    alive = False
                    break
            if alive:
                edges.add((i, j))
    return edges


def angle_skeleton_oracle(points, theta, eps_angle=1e-9):
    """Edge set under the raw apex-angle rule, computed with atan2.

    Kills an edge when some third point sees it at an angle of at least
    theta - eps_angle.  Independent of the library's square-root-free
    predicate.
    """
    n = len(points)
    cut = theta - eps_angle
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            alive = True
            for k in range(n):
                if k == i or k == j:
                    continue
                ax = points[i][0] - points[k][0]
                ay = points[i][1] - points[k][1]
                bx = points[j][0] - points[k][0]
                by = points[j][1] - points[k][1]
                ang = math.atan2(abs(ax * by - ay * bx), ax * bx + ay * by)
                if ang >= cut:
                    alive = False
                    break
            if alive:
                edges.add((i, j))
    return edges


def beta_skeleton_reference(points, theta, eps_angle=1e-9):
    """Edge set from the library's former brute-force build.

    Every pair is tested against every other point with the library's
    square-root-free angle predicate, in the same float operations, so a
    faster build must return exactly this set.  points are distinct
    (x, y) tuples.  The witnesses of a pair (i, j) are tried in order of
    distance from i, nearest first, where a killer is likeliest; any order
    gives the same set.
    """
    n = len(points)
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    near = [sorted(range(n), key=lambda k: dist2(p, points[k])) for p in points]
    # angle >= theta - EPS_ANGLE  <=>  cos(angle) <= cos(theta - EPS_ANGLE)
    c = math.cos(theta - eps_angle)
    c2 = c * c
    edges = set()
    for i in range(n):
        xi, yi = xs[i], ys[i]
        for j in range(i + 1, n):
            xj, yj = xs[j], ys[j]
            alive = True
            for k in near[i]:
                if k == i or k == j:
                    continue
                ax = xi - xs[k]
                ay = yi - ys[k]
                bx = xj - xs[k]
                by = yj - ys[k]
                dot = ax * bx + ay * by
                if c >= 0.0:
                    if dot <= 0.0 or dot * dot <= c2 * (ax * ax + ay * ay) * (bx * bx + by * by):
                        alive = False
                        break
                elif dot < 0.0 and dot * dot >= c2 * (ax * ax + ay * ay) * (bx * bx + by * by):
                    alive = False
                    break
            if alive:
                edges.add((i, j))
    return edges


def segments_properly_cross(a, b, c, d):
    d1 = cross3(c, d, a)
    d2 = cross3(c, d, b)
    d3 = cross3(a, b, c)
    d4 = cross3(a, b, d)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def segments_contact(p1, p2, q1, q2, shared_ok):
    """True when the closed segments p1p2 and q1q2 share a point (within EPS_DIST).

    The library's widened-box test followed by
    boxed_segments_contact_reference, for any pair: run on all pairs in
    order, it must name the same first pair as the library's
    _contact_candidates sweep and _boxed_segments_contact.  Segments whose
    widened boxes (_contact_box) are disjoint never touch, which also keeps
    the EPS_AREA crossing test away from the float noise of far-apart
    collinear segments.  With shared_ok, an endpoint of one segment that
    equals an endpoint of the other is not contact, but two segments with
    the same endpoints still are.
    """
    if not contact_boxes_overlap(p1, p2, q1, q2):
        return False
    return boxed_segments_contact_reference(p1, p2, q1, q2, shared_ok)


def contact_boxes_overlap(p1, p2, q1, q2):
    """Whether the library's widened boxes (_contact_box) of p1p2 and q1q2 overlap."""
    from geoforge.core import _contact_box

    a = _contact_box(p1, p2)
    b = _contact_box(q1, q2)
    return not (a[0] > b[2] or b[0] > a[2] or a[1] > b[3] or b[1] > a[3])


def boxed_segments_contact_reference(p1, p2, q1, q2, shared_ok):
    """The library's _boxed_segments_contact without its _OFF_LINE certificate.

    Every pair goes through the EPS_AREA crossing test, the shared-endpoint
    test, the four EPS_DIST distance tests and the sure-sign crossing
    test, so the certificate's shortcut can be checked against the rules
    it must not change.
    """
    from geoforge.core import (
        EPS_AREA,
        EPS_DIST,
        _sign_is_sure,
        cross,
        point_segment_distance,
        points_equal,
    )

    o1 = cross(q1, q2, p1)
    o2 = cross(q1, q2, p2)
    o3 = cross(p1, p2, q1)
    o4 = cross(p1, p2, q2)
    if (
        ((o1 > EPS_AREA and o2 < -EPS_AREA) or (o1 < -EPS_AREA and o2 > EPS_AREA))
        and ((o3 > EPS_AREA and o4 < -EPS_AREA) or (o3 < -EPS_AREA and o4 > EPS_AREA))
    ):
        return True
    if shared_ok and (
        (points_equal(p1, q1) and points_equal(p2, q2))
        or (points_equal(p1, q2) and points_equal(p2, q1))
    ):
        return True
    near = False
    for p, s1, s2 in ((p1, q1, q2), (p2, q1, q2), (q1, p1, p2), (q2, p1, p2)):
        if point_segment_distance(p, s1, s2) <= EPS_DIST:
            if not (shared_ok and (points_equal(p, s1) or points_equal(p, s2))):
                return True
            near = True
    return (
        not near
        and (o1 > 0.0 > o2 or o2 > 0.0 > o1)
        and (o3 > 0.0 > o4 or o4 > 0.0 > o3)
        and _sign_is_sure(q1, q2, p1)
        and _sign_is_sure(q1, q2, p2)
        and _sign_is_sure(p1, p2, q1)
        and _sign_is_sure(p1, p2, q2)
    )


def random_noncrossing_segments(rng, count, lo=0.0, hi=1.0):
    """count non-vertical segments in disjoint horizontal bands.

    Band-disjoint y ranges make crossings impossible while the x spans
    still overlap, so vertical extensions from one segment hit others.
    """
    span = hi - lo
    segs = []
    for i in range(count):
        band = span / count
        y0 = lo + (i + 0.1 + 0.3 * rng.random()) * band
        y1 = lo + (i + 0.6 + 0.3 * rng.random()) * band
        x0 = lo + span * rng.uniform(0.0, 0.45)
        x1 = lo + span * rng.uniform(0.55, 1.0)
        segs.append(((x0, y0), (x1, y1)))
    return segs


def _tour_is_simple(order):
    n = len(order)
    for i in range(n):
        a, b = order[i], order[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or j == (i + 1) % n:
                continue
            c, d = order[j], order[(j + 1) % n]
            if segments_properly_cross(a, b, c, d):
                return i, j
    return None


def random_simple_polygon(rng, n, lo=0.0, hi=1.0):
    """A random simple n-gon: random points untangled by 2-opt reversals.

    Uncrossing two edges shortens the closed tour, so the loop
    terminates; degenerate outcomes (collinear triples, improper
    touches) are discarded and regenerated.
    """
    while True:
        order = random_points(rng, n, lo, hi)
        if len(set(order)) < n:
            continue
        for _ in range(20 * n * n):
            hit = _tour_is_simple(order)
            if hit is None:
                break
            i, j = hit
            order[i + 1 : j + 1] = reversed(order[i + 1 : j + 1])
        else:
            continue
        if _has_degenerate_corner(order) or _has_improper_contact(order):
            continue
        return order


def _has_degenerate_corner(order, tol=1e-9):
    n = len(order)
    for i in range(n):
        a, b, c = order[i - 1], order[i], order[(i + 1) % n]
        if abs(cross3(a, b, c)) <= tol:
            return True
    return False


def _has_improper_contact(order, tol=1e-9):
    n = len(order)
    for i in range(n):
        a, b = order[i], order[(i + 1) % n]
        for j in range(n):
            if j == i or j == (i + 1) % n:
                continue
            if point_on_segment(order[j], a, b, tol):
                return True
    return False


def random_convex_polygon(rng, n_points, lo=-1.0, hi=1.0, min_vertices=3):
    """Hull of a random cloud, as coordinate tuples (CCW, >= 3 vertices)."""
    while True:
        hull = jarvis_hull(random_points(rng, n_points, lo, hi))
        if len(hull) >= min_vertices:
            return hull


def star_polygon(rng, n, span=1000.0):
    """A CCW n-gon star-shaped about the middle of [0, span]^2.

    The benchmark's stars: vertex k sits within 0.3 of a step from angle
    2*pi*k/n, at radius 0.25 * span (even k) or 0.45 * span (odd k), each
    plus up to 0.04 * span.  The angles increase around the loop, so the
    loop is simple.
    """
    step = 2.0 * math.pi / n
    verts = []
    for k in range(n):
        phi = (k + rng.uniform(-0.3, 0.3)) * step
        r = span * ((0.45 if k % 2 else 0.25) + rng.uniform(0.0, 0.04))
        verts.append((span / 2.0 + r * math.cos(phi), span / 2.0 + r * math.sin(phi)))
    return verts


def circle_polygon(rng, n):
    """The benchmark's convex polygons: a CCW n-gon on a 1e-6 grid, with
    vertex k on the circle of radius 400 about (500, 500), within 0.3 of a
    step from angle 2*pi*k/n."""
    step = 2.0 * math.pi / n
    return [(round(500.0 + 400.0 * math.cos(phi), 6), round(500.0 + 400.0 * math.sin(phi), 6))
            for phi in ((k + rng.uniform(-0.3, 0.3)) * step for k in range(n))]


def crossed_star(rng, n):
    """The benchmark's self-intersecting stars: a star_polygon on a 1e-6 grid
    with vertex n//3 moved to radius 550, opposite its old place, so its
    edges cross edges far from their neighbours."""
    verts = [(round(x, 6), round(y, 6)) for x, y in star_polygon(rng, n)]
    k = n // 3
    dx, dy = verts[k][0] - 500.0, verts[k][1] - 500.0
    scale = 550.0 / math.hypot(dx, dy)
    verts[k] = (round(500.0 - dx * scale, 6), round(500.0 - dy * scale, 6))
    return verts


def segment_distance2_exact(p1, p2, q1, q2):
    """The exact squared distance between the closed segments p1p2 and q1q2
    (Points, read as Fractions): 0 when they meet, else the least distance
    from an endpoint of one to the other."""
    from fractions import Fraction

    p1, p2, q1, q2 = [(Fraction(p.x), Fraction(p.y)) for p in (p1, p2, q1, q2)]
    o = [cross3(q1, q2, p1), cross3(q1, q2, p2), cross3(p1, p2, q1), cross3(p1, p2, q2)]
    if any(o) and o[0] * o[1] <= 0 and o[2] * o[3] <= 0:
        return Fraction(0)

    def to_segment(p, a, b):
        dx, dy = b[0] - a[0], b[1] - a[1]
        t = min(max(((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / (dx * dx + dy * dy), 0), 1)
        return dist2(p, (a[0] + t * dx, a[1] + t * dy))

    return min(to_segment(p1, q1, q2), to_segment(p2, q1, q2),
               to_segment(q1, p1, p2), to_segment(q2, p1, p2))


def peel_oracle(points):
    """Layers as sets, peeled with the gift-wrapping hull above."""
    remaining = list(points)
    layers = []
    while remaining:
        hull = jarvis_hull(remaining)
        if len(hull) <= 2:
            # everything left sits on one line (or one point): single layer
            on_line = [
                p for p in remaining
                if len(hull) == 1 or point_on_segment(p, hull[0], hull[-1], 1e-12)
            ]
            layers.append(set(on_line))
            remaining = [p for p in remaining if p not in on_line]
            continue
        boundary = set()
        for p in remaining:
            for i in range(len(hull)):
                if point_on_segment(p, hull[i], hull[(i + 1) % len(hull)], 1e-12):
                    boundary.add(p)
                    break
        layers.append(boundary)
        remaining = [p for p in remaining if p not in boundary]
    return layers


def monotone_chain_reference(seq, eps_area=1e-9):
    """The library's former monotone chain, over an indexed stack.

    seq holds two or more distinct tuples, sorted, each starting with x and
    y.  A turn with cross <= eps_area pops its middle point.  The faster
    core._monotone_chain must return exactly this list.
    """
    hull = []
    for run in (seq, seq[::-1]):
        chain = []
        for p in run:
            while len(chain) >= 2:
                o, q = chain[-2], chain[-1]
                if (q[0] - o[0]) * (p[1] - o[1]) - (q[1] - o[1]) * (p[0] - o[0]) > eps_area:
                    break
                chain.pop()
            chain.append(p)
        hull += chain[:-1]
    return hull


def onion_reference(points):
    """The library's onion peel with a distance test of every slab point.

    The same sort, duplicate rule and collinear layer as
    onion_decomposition, and the chain of monotone_chain_reference, but
    each hull edge runs point_segment_distance on every remaining point of
    its x-slab, with no _OFF_LINE certificate.
    It returns a geoforge OnionDecomposition, so == compares the two.
    """
    from bisect import bisect_left, bisect_right

    from geoforge.core import (
        EPS_DIST,
        GeometryError,
        _reject_duplicates,
        distance,
        point_segment_distance,
    )
    from geoforge.onion import OnionDecomposition, _collinear_layer

    def boundary_layer(order):
        if len(order) == 1:
            return [order[0][2]]
        hull = monotone_chain_reference(order)
        if len(hull) == 2:
            return _collinear_layer(order, hull[0], hull[1])
        xs = [t[0] for t in order]
        placed = {t[2] for t in hull}
        layer = []
        for k, (ax, _, ia) in enumerate(hull):
            bx, _, ib = hull[k + 1 - len(hull)]
            a, b = pts[ia], pts[ib]
            layer.append(ia)
            lo = bisect_left(xs, min(ax, bx) - 2.0 * EPS_DIST)
            hi = bisect_right(xs, max(ax, bx) + 2.0 * EPS_DIST)
            on_edge = [
                i for _, _, i in order[lo:hi]
                if i not in placed and point_segment_distance(pts[i], a, b) <= EPS_DIST
            ]
            on_edge.sort(key=lambda i: (distance(a, pts[i]), i))
            placed.update(on_edge)
            layer.extend(on_edge)
        return layer

    pts = list(points)
    if not pts:
        raise GeometryError("empty point set")
    order = sorted((p.x, p.y, i) for i, p in enumerate(pts))
    _reject_duplicates(order, pts)
    layers = []
    while order:
        layer = boundary_layer(order)
        taken = set(layer)
        order = [t for t in order if t[2] not in taken]
        layers.append(tuple(pts[i] for i in layer))
    return OnionDecomposition(tuple(layers))


def hull_area(points):
    hull = jarvis_hull(list(points))
    if len(hull) < 3:
        return 0.0
    total = 0.0
    for i in range(len(hull)):
        x0, y0 = hull[i]
        x1, y1 = hull[(i + 1) % len(hull)]
        total += x0 * y1 - x1 * y0
    return abs(total) / 2.0


def cut_offset_reference(loop, ux, uy, target, area, diam):
    """Cut offset from a bisection that clips the cap at every step.

    The floating-body bisection that the closed-form solve replaced, with
    its clip-kernel cap area written out in the same float operations: the
    kernel's pass keeps the vertices whose value -ux * x + -uy * y - -c is
    <= 0 and inserts a crossing point on each edge that runs strictly from
    one side to the other.  It stops when the cap is within 1e-9 * area of
    target, when the bracket is shorter than 1e-12 * diam, or when the
    midpoint is no longer strictly inside the bracket.  loop is a CCW list
    of (x, y) tuples.
    """

    def cap_area(c):
        vals = [-ux * x + -uy * y - -c for x, y in loop]
        cap = []
        for s, e, vs, ve in zip(loop, loop[1:] + loop[:1], vals, vals[1:] + vals[:1]):
            if vs <= 0.0:
                cap.append(s)
                crosses = vs < 0.0 and ve > 0.0
            else:
                crosses = ve < 0.0
            if crosses:
                t = vs / (vs - ve)
                cap.append((s[0] + t * (e[0] - s[0]), s[1] + t * (e[1] - s[1])))
        if len(cap) < 3:
            return 0.0
        total = 0.0
        for (x0, y0), (x1, y1) in zip(cap, cap[1:] + cap[:1]):
            total += x0 * y1 - x1 * y0
        return 0.5 * abs(total)

    lo = min(ux * x + uy * y for x, y in loop)
    hi = max(ux * x + uy * y for x, y in loop)
    c = 0.5 * (lo + hi)
    while hi - lo >= 1e-12 * diam:
        c = 0.5 * (lo + hi)
        if not lo < c < hi:
            break
        cap = cap_area(c)
        if abs(cap - target) <= 1e-9 * area:
            return c
        if cap > target:
            lo = c
        else:
            hi = c
    return c


def _scaled_levels(loop, ux, uy, offsets):
    """The loop's coordinates and its levels ux * x + uy * y less each
    offset, exact, as integers over common denominators."""
    from fractions import Fraction

    coords = [Fraction(v) for point in loop for v in point]
    den = math.lcm(*(f.denominator for f in coords))
    xy = [f.numerator * (den // f.denominator) for f in coords]
    pts = list(zip(xy[::2], xy[1::2]))
    fux, fuy = Fraction(ux), Fraction(uy)
    cs = [Fraction(c) for c in offsets]
    scale = math.lcm(fux.denominator, fuy.denominator, *(c.denominator for c in cs))
    iux = fux.numerator * (scale // fux.denominator)
    iuy = fuy.numerator * (scale // fuy.denominator)
    levels = [iux * x + iuy * y for x, y in pts]
    vals = []
    for c in cs:
        level = c.numerator * (scale // c.denominator) * den
        vals.append([h - level for h in levels])
    return pts, den, vals


def _crossing_exact(s, e, vs, ve):
    from fractions import Fraction

    t = Fraction(vs, vs - ve)
    return (s[0] + t * (e[0] - s[0]), s[1] + t * (e[1] - s[1]))


def cap_area_exact(loop, ux, uy, c):
    """The exact area of the part of a convex loop of floats with
    ux * x + uy * y >= c, in rational arithmetic on the floats given."""
    from fractions import Fraction

    pts, den, (vals,) = _scaled_levels(loop, ux, uy, [c])
    cap = []
    for s, e, vs, ve in zip(pts, pts[1:] + pts[:1], vals, vals[1:] + vals[:1]):
        if vs >= 0:
            cap.append(s)
        if (vs > 0 > ve) or (vs < 0 < ve):
            cap.append(_crossing_exact(s, e, vs, ve))
    total = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(cap, cap[1:] + cap[:1]))
    return Fraction(abs(total)) / (2 * den * den)


def chords_exact(loop, ux, uy, offsets):
    """For each offset c, the first and last points of a loop of floats on
    the line ux * x + uy * y = c along the line's direction (-uy, ux), as
    pairs of Fractions, or None where the line misses the loop."""
    from fractions import Fraction

    pts, den, per_offset = _scaled_levels(loop, ux, uy, offsets)
    fux, fuy = Fraction(ux), Fraction(uy)
    chords = []
    for vals in per_offset:
        hits = []
        for s, e, vs, ve in zip(pts, pts[1:] + pts[:1], vals, vals[1:] + vals[:1]):
            if vs == 0:
                hits.append(s)
            elif (vs > 0 > ve) or (vs < 0 < ve):
                hits.append(_crossing_exact(s, e, vs, ve))
        hits.sort(key=lambda p: fux * p[1] - fuy * p[0])
        ends = tuple((Fraction(x) / den, Fraction(y) / den) for x, y in hits[:1] + hits[-1:])
        chords.append(ends or None)
    return chords


def chord_midpoint_scan(verts, ux, uy, c):
    """Midpoint of the chord the line ux * x + uy * y = c cuts in a convex
    loop of Points, by a scan of all n vertices; the loop is not checked.
    dupin_floating_body took its midpoints from this scan until it read
    them off the edges the cut's rise and fall chains name.

    A vertex within EPS_DIST of the line is a hit, and so is the crossing
    of an edge whose ends lie strictly on opposite sides, farther than
    EPS_DIST; a hit within EPS_DIST of an earlier one is dropped.  The
    chord's ends are the first and last hits along the line direction.
    """
    from geoforge.core import EPS_DIST, GeometryError, Point

    loop = [(v.x, v.y) for v in verts]
    vals = [ux * x + uy * y - c for x, y in loop]
    n = len(loop)
    hits: list[tuple[float, float]] = []

    def push(x, y):
        for hx, hy in hits:
            if math.hypot(hx - x, hy - y) <= EPS_DIST:
                return
        hits.append((x, y))

    for i in range(n):
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


def dupin_floating_body_reference(poly, delta, n_directions=720):
    """dupin_floating_body as it was built before the closed-form solve.

    Every direction solves its offset with cut_offset_reference, scans
    all n vertices for the chord midpoint (chord_midpoint_scan)
    and clips the whole running body
    with one exact-zero Sutherland-Hodgman pass.  poly is a convex
    geoforge Polygon.  Its offsets are within 1e-9 * area of cap error, so
    the library's midpoints lie close to these, and it raises where the
    chord scan finds no chord.
    """
    from geoforge.core import (
        _is_convex_loop,
        _polygon_from_loop,
        _sutherland_hodgman,
        polygon_area,
        polygon_bbox,
    )
    from geoforge.floating_body import (
        FloatingBodyResult,
        _delta_value,
        _require_convex,
    )

    d = _delta_value(delta)
    _require_convex(poly)
    loop = [(v.x, v.y) for v in poly.vertices]
    area = polygon_area(poly)
    bb = polygon_bbox(poly)
    diam = math.hypot(bb.width, bb.height)
    midpoints = []
    body = list(loop)
    step = 2.0 * math.pi / n_directions
    for k in range(n_directions):
        phi = k * step
        ux = math.cos(phi)
        uy = math.sin(phi)
        c = cut_offset_reference(loop, ux, uy, d * area, area, diam)
        midpoints.append(chord_midpoint_scan(poly.vertices, ux, uy, c))
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


def trapmap_reference(segs, bbox):
    """(extensions, trapezoids) of the trapezoidal map, rescanned from scratch.

    The map's construction as it was before the one-pass sweep: each ray
    tests every segment whose closed x-range holds it, and each slab
    filters every segment by its closed x-range at the slab's midpoint
    and stable-sorts them by height there.  segs is a sequence of
    geoforge Segments that passed the map's input check, in the box
    bbox; the library's build must return exactly these tuples.
    """
    from bisect import bisect_left

    from geoforge.core import EPS_DIST, Point
    from geoforge.trapmap import (
        Trapezoid,
        VerticalExtension,
        Wall,
        _distinct_endpoints,
        _event_xs,
        _seg_y_at,
    )

    origins = _distinct_endpoints(segs)
    xranges = [(min(s.a.x, s.b.x), max(s.a.x, s.b.x)) for s in segs]

    def shoot(origin):
        ox, oy = origin.x, origin.y
        up_y, up_target = bbox.ymax, Wall.TOP
        down_y, down_target = bbox.ymin, Wall.BOTTOM
        for idx, (xlo, xhi) in enumerate(xranges):
            if not (xlo <= ox <= xhi):
                continue
            y = _seg_y_at(segs[idx], ox)
            if y > oy + EPS_DIST and y < up_y:
                up_y, up_target = y, idx
            elif y < oy - EPS_DIST and y > down_y:
                down_y, down_target = y, idx
        return VerticalExtension(
            origin=origin,
            up_hit=Point(ox, up_y),
            up_target=up_target,
            down_hit=Point(ox, down_y),
            down_target=down_target,
        )

    events = _event_xs(segs, bbox)
    endpoints_at = {x: [] for x in events}
    for p in origins:
        k = bisect_left(events, p.x)
        if k == len(events) or (k > 0 and p.x - events[k - 1] <= events[k] - p.x):
            k -= 1
        endpoints_at[events[k]].append(p)
    for pts in endpoints_at.values():
        pts.sort(key=lambda p: p.y)

    def bound_y(bound, x):
        if bound is Wall.TOP:
            return bbox.ymax
        if bound is Wall.BOTTOM:
            return bbox.ymin
        return _seg_y_at(segs[bound], x)

    def pick_endpoint(x, pair):
        lo = bound_y(pair[1], x) - EPS_DIST
        hi = bound_y(pair[0], x) + EPS_DIST
        for p in endpoints_at.get(x, ()):
            if lo <= p.y <= hi:
                return p
        return None

    done = []
    open_traps = {}
    for k in range(len(events) - 1):
        xl, xr = events[k], events[k + 1]
        if xr - xl <= EPS_DIST:
            continue
        mid = (xl + xr) / 2.0
        spanning = [i for i, (lo, hi) in enumerate(xranges) if lo <= mid <= hi]
        spanning.sort(key=lambda i: _seg_y_at(segs[i], mid))
        bounds = [Wall.BOTTOM] + spanning + [Wall.TOP]
        gaps = [(bounds[i + 1], bounds[i]) for i in range(len(bounds) - 1)]
        gap_set = set(gaps)
        for pair in [p for p in open_traps if p not in gap_set]:
            start_x, leftp = open_traps.pop(pair)
            done.append(Trapezoid(pair[0], pair[1], start_x, xl, leftp, pick_endpoint(xl, pair)))
        for pair in gaps:
            if pair not in open_traps:
                open_traps[pair] = (xl, pick_endpoint(xl, pair) if k > 0 else None)
    for pair, (start_x, leftp) in open_traps.items():
        done.append(Trapezoid(pair[0], pair[1], start_x, events[-1], leftp, None))
    return tuple(shoot(p) for p in origins), tuple(done)


def triangulate_reference(poly):
    """Triangles of the ear clipper that rescans from the lowest index.

    The library's clipper as it was before the status heap and the
    vertex grid: after every clip it scans the remaining vertices in
    index order, drops the first straight corner (|cross| <= EPS_AREA)
    without a triangle or clips the first ear, and tests each candidate
    ear against every other remaining vertex.  poly is a geoforge
    Polygon; the library's triangulate must return exactly these
    triangles, or raise the same GeometryError.
    """
    from geoforge.core import EPS_AREA, GeometryError, cross

    def blocked(alive, ia, ib, ic, a, b, c):
        for idx in alive:
            if idx == ia or idx == ib or idx == ic:
                continue
            p = verts[idx]
            if (
                cross(a, b, p) >= -EPS_AREA
                and cross(b, c, p) >= -EPS_AREA
                and cross(c, a, p) >= -EPS_AREA
            ):
                return True
        return False

    def clip_one(alive, triangles):
        m = len(alive)
        for pos in range(m):
            ia, ib, ic = alive[pos - 1], alive[pos], alive[(pos + 1) % m]
            a, b, c = verts[ia], verts[ib], verts[ic]
            cr = cross(a, b, c)
            if abs(cr) <= EPS_AREA:
                del alive[pos]
                return True
            if cr < 0.0 or blocked(alive, ia, ib, ic, a, b, c):
                continue
            triangles.append((ia, ib, ic))
            del alive[pos]
            return True
        return False

    verts = poly.vertices
    alive = list(range(len(verts)))
    triangles = []
    while len(alive) > 3:
        if not clip_one(alive, triangles):
            raise GeometryError("ear clipping stalled")
    ia, ib, ic = alive
    if cross(verts[ia], verts[ib], verts[ic]) > EPS_AREA:
        triangles.append((ia, ib, ic))
    return tuple(triangles)


def sample_points_reference(tri, count, rng):
    """Samples as the library drew them before it stored (x, y) pairs.

    The draw loop verbatim: per sample a triangle pick by inverse
    transform over the cumulative areas, then u, then v, folded back
    into the triangle, and a Point made from the same float expressions.
    tri is a geoforge Triangulation and rng has random(); the library's
    samples must equal this list, or raise the same GeometryError.
    """
    import bisect

    from geoforge.core import GeometryError, Point
    from geoforge.triangulation import triangle_areas

    areas = triangle_areas(tri)
    if not areas:
        raise GeometryError("triangulation has no triangles")
    cumulative: list[float] = []
    total = 0.0
    for a in areas:
        total += a
        cumulative.append(total)
    verts = tri.polygon.vertices
    out: list[Point] = []
    last = len(areas) - 1
    for _ in range(count):
        r = rng.random() * total
        idx = min(bisect.bisect_right(cumulative, r), last)
        i, j, k = tri.triangles[idx]
        a, b, c = verts[i], verts[j], verts[k]
        u = rng.random()
        v = rng.random()
        if u + v > 1.0:
            u = 1.0 - u
            v = 1.0 - v
        out.append(
            Point(a.x + u * (b.x - a.x) + v * (c.x - a.x),
                  a.y + u * (b.y - a.y) + v * (c.y - a.y))
        )
    return out


def triangulation_to_dict_reference(triangles, points):
    """A triangulation dump as it was made from a list of Points."""
    return {
        "triangles": [[i, j, k] for i, j, k in triangles],
        "samples": [[p.x, p.y] for p in points],
    }


def pr_quadtree_reference(points, region=None, capacity=1):
    """PR quadtree built by inserting the points one at a time.

    The library's build as it was before the top-down split: each point
    descends to its leaf and is appended; while that leaf holds more than
    capacity points and lies above MAX_DEPTH, it splits at its center,
    moves its points to the children in order, and the fullest child is
    checked next.  The default region is the tight bounding square, 10%
    wider than the points' larger extent.  It returns a geoforge
    PRQuadtree, so tree_to_dict compares the two builds.  It has no float
    resolution rule: a split whose center rounds onto the region's edge
    raises BBox's GeometryError.
    """
    from geoforge.core import BBox, GeometryError
    from geoforge.quadtree import MAX_DEPTH, PRNode, PRQuadtree

    def child_index(p, r):
        cx = (r.xmin + r.xmax) / 2.0
        cy = (r.ymin + r.ymax) / 2.0
        if p.y >= cy:
            return 1 if p.x >= cx else 0
        return 3 if p.x >= cx else 2

    def child_regions(r):
        cx = (r.xmin + r.xmax) / 2.0
        cy = (r.ymin + r.ymax) / 2.0
        return [
            BBox(r.xmin, cy, cx, r.ymax),  # nw
            BBox(cx, cy, r.xmax, r.ymax),  # ne
            BBox(r.xmin, r.ymin, cx, cy),  # sw
            BBox(cx, r.ymin, r.xmax, cy),  # se
        ]

    pts = list(points)
    if not isinstance(capacity, int) or isinstance(capacity, bool) or capacity < 1:
        raise GeometryError("capacity must be an integer >= 1")
    if region is None:
        if not pts:
            raise GeometryError("empty point set requires an explicit region")
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        cx = (min(xs) + max(xs)) / 2.0
        cy = (min(ys) + max(ys)) / 2.0
        side = max(max(xs) - min(xs), max(ys) - min(ys))
        if side <= 0.0:
            side = 1.0
        half = side * 1.10 / 2.0
        region = BBox(cx - half, cy - half, cx + half, cy + half)
    else:
        for i, p in enumerate(pts):
            if not region.contains(p):
                raise GeometryError("point %d outside region" % i)
    tree = PRQuadtree(region=region, capacity=capacity, root=PRNode(region))
    for p in pts:
        node = tree.root
        depth = 0
        while node.children is not None:
            node = node.children[child_index(p, node.region)]
            depth += 1
        node.points.append(p)
        while len(node.points) > capacity:
            if depth >= MAX_DEPTH:
                node.overfull = True
                tree.overfull = True
                break
            moved = node.points
            node.points = None
            node.children = [PRNode(r) for r in child_regions(node.region)]
            for q in moved:
                node.children[child_index(q, node.region)].points.append(q)
            node = max(node.children, key=lambda ch: len(ch.points))
            depth += 1
    return tree


def python_calls(fn, *args):
    """How many Python functions fn(*args) enters, generator resumptions
    included, counted with sys.setprofile; calls into C are not counted.
    The collector is off meanwhile, so that no finalizer or gc callback
    (hypothesis registers one) is counted."""
    import gc
    import sys

    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    enabled = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
        if enabled:
            gc.enable()
    return count
