"""Circle-based beta-skeletons for beta >= ~0 (finite positive).

An edge {v1, v2} survives when no third point sees it under an angle of
theta(beta) or more; the forbidden neighbourhood is treated as closed, so
a witness exactly on the critical circle removes the edge.  beta = 1
gives the Gabriel graph.  beta = 2 gives a strict subgraph of the
lune-based relative neighbourhood graph: the angle rule also admits
witnesses outside the lune.

For beta >= 1 the build triangulates the points (Lawson flips; Lawson
1977, Guibas & Stolfi, ACM ToG 4(2), 1985) and tests each Delaunay edge
against its two opposite vertices, in O(n log n) expected time; below 1
it tests every pair, O(n^2) to O(n^3).  Each test is the one angle
predicate, so the edges are those of testing every pair against every
other point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .core import GeometryError, Point, _incircle_sign, _orient_sign, _reject_duplicates

EPS_ANGLE = 1e-9


@dataclass(frozen=True)
class ProximityGraph:
    vertices: tuple[Point, ...]
    edges: frozenset  # of (i, j) pairs with i < j

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def theta_of_beta(beta: float) -> float:
    """Critical angle of the beta-neighbourhood.

    arcsin(1/beta) for beta >= 1 and pi - arcsin(beta) for beta <= 1;
    the two branches agree (pi/2) at beta = 1.
    """
    b = float(beta)
    if not (math.isfinite(b) and b > 0.0):
        raise GeometryError("beta must be a finite real > 0")
    if b >= 1.0:
        return math.asin(1.0 / b)
    return math.pi - math.asin(b)


def beta_skeleton(points, beta: float) -> ProximityGraph:
    """Beta-skeleton: Delaunay edges tested for beta >= 1, every pair below.

    Duplicate points (under the distance epsilon) are rejected.  A set of
    exactly two points yields the single edge between them.

    A witness k kills the pair (a, b), a < b, when the angle a-k-b is at
    least theta' = theta(beta) - EPS_ANGLE, decided by one square-root-free
    predicate on the float differences a - k and b - k: with c =
    cos(theta'), c2 = c * c, dot their dot product and A, B their squared
    lengths, k kills when dot <= 0 or dot * dot <= c2 * A * B (c >= 0), or
    when dot < 0 and dot * dot >= c2 * A * B (c < 0).

    c >= 0 exactly when beta >= 1: below 1, theta exceeds pi/2 by at least
    sqrt(2u) ~ 1.5e-8 > EPS_ANGLE (u = 2**-53), and from 1 on c >= ~1e-9.
    Write cos for the exact cosine of the angle a-k-b.  Each difference,
    product and sum rounds by a factor within 1 +- u, so dot is within
    4.01u |ka| |kb| of exact and A, B within a factor 1 +- 4.01u (points
    are over EPS_DIST apart within +/-1e6, so underflow is negligible).
    For c >= 0:
    (1) cos >= c + 11u means dot > 0 and dot * dot > c2 * A * B, as
        (cos - 4.01u)^2 (1 - u) > c^2 (1 + 11.02u): k does not kill.  And
        if k does not kill, cos > c (1 - 6.1u) - 4.01u > 0.
    (2) dot * dot > c2t * A * B, with c2t the float square of c + 2**-47,
        means dot > (c + 64u) (1 - 7.6u) |ka| |kb|, so cos > c + 52u.

    Delaunay edges (c >= 0).  _delaunay triangulates the points with exact
    signs (core._orient_sign, _incircle_sign; Shewchuk, DCG 18, 1997), so
    no triangle's open circumdisk holds a point (Kirkpatrick & Radke 1985;
    Hurtado, Liotta & Meijer, CGTA 25, 2003):
    (a) A pair no point kills is seen from every other point at an angle
        below pi/2 (1), so its closed diametral disk holds no other point:
        a Gabriel edge, an edge of every Delaunay triangulation.
    (a') So ties cannot hide one: where four points share an empty circle
        and the diagonal rs replaces pq, r or s sees pq at an angle of at
        least pi/2 and kills it anyway.
    (b) If an edge ab has the opposite vertex r, no point on r's side sees
        it at an angle above a-r-b, or it would lie inside the circle
        through a, b, r; points on the line ab see it at angle 0 (none lies
        inside the segment, inside that circle).  So if r certifies (2),
        no point on r's side or on the line kills ab (1).
    An edge is dropped when an opposite vertex kills it and kept when each
    (a hull edge has one) certifies (2).  Otherwise an angle lies within
    rounding of theta' and the scan over every point decides (_killed);
    from beta ~8.3e6 on, c + 2**-47 > 1 and that is every edge that
    survives its opposite vertices, O(n^2).  Points on one line have no
    triangle: the candidates are the pairs consecutive in (x, y) order,
    the only ones with empty diametral disks; the other points see them
    at angle 0, so c2t < 1 keeps them all by (1), else the scan decides.

    Every pair (c < 0): point i sorts the others by squared distance d2
    and scans them for each j < i while d2[k] <= d2[j] * (1 + 1e-6).  A
    killer has dot < 0, so an angle at k above pi/2 - 4.02u: ij is the
    longest side but for a factor 1 + 1e-15, and |ik| < |ij| (1 + 1e-15).
    """
    pts = tuple(points)
    n = len(pts)
    if n < 2:
        raise GeometryError("beta skeleton needs at least 2 points")
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    order = sorted(zip(xs, ys, range(n)))
    _reject_duplicates(order, pts)
    # angle >= theta - EPS_ANGLE  <=>  cos(angle) <= cos(theta - EPS_ANGLE)
    c = math.cos(theta_of_beta(beta) - EPS_ANGLE)
    c2 = c * c
    if c < 0.0:
        edges = _every_pair(xs, ys, c2)
    else:
        cm = c + 2.0**-47
        edges = _delaunay_edges(xs, ys, order, c2, cm * cm)
    return ProximityGraph(vertices=pts, edges=frozenset(edges))


def _every_pair(xs: list, ys: list, c2: float) -> set:
    """The pairs no point kills (c < 0), each point's witnesses in d2 order."""
    n = len(xs)
    edges = set()
    for i in range(n):
        xi, yi = xs[i], ys[i]
        d2 = [(x - xi) * (x - xi) + (y - yi) * (y - yi) for x, y in zip(xs, ys)]
        order = sorted(range(n), key=d2.__getitem__)
        del order[0]  # i itself, the only point at d2 = 0
        for j in range(i):
            limit = d2[j] * (1.0 + 1e-6)
            xj, yj = xs[j], ys[j]
            for k in order:
                if d2[k] > limit:
                    edges.add((j, i))
                    break
                if k == j:
                    continue
                # the pair's lower index is a, as in every-pair order
                ax = xj - xs[k]
                ay = yj - ys[k]
                bx = xi - xs[k]
                by = yi - ys[k]
                dot = ax * bx + ay * by
                if dot < 0.0 and dot * dot >= c2 * (ax * ax + ay * ay) * (bx * bx + by * by):
                    break
            else:
                edges.add((j, i))
    return edges


def _killed(a: int, b: int, xs: list, ys: list, c2: float) -> bool:
    """The witness scan: whether any point kills (a, b), a < b (c >= 0)."""
    xa, ya, xb, yb = xs[a], ys[a], xs[b], ys[b]
    for k, (x, y) in enumerate(zip(xs, ys)):
        if k == a or k == b:
            continue
        ax = xa - x
        ay = ya - y
        bx = xb - x
        by = yb - y
        dot = ax * bx + ay * by
        if dot <= 0.0 or dot * dot <= c2 * (ax * ax + ay * ay) * (bx * bx + by * by):
            return True
    return False


def _delaunay_edges(xs: list, ys: list, order: list, c2: float, c2t: float) -> set:
    """The pairs that no point kills under the c >= 0 predicate, from the
    Delaunay edges and their opposite vertices (beta_skeleton's (a), (b))."""
    tri, twin = _delaunay(xs, ys, order)
    if tri is None:  # one line: the consecutive pairs, seen at angle 0
        pairs = [(min(p[2], q[2]), max(p[2], q[2])) for p, q in zip(order, order[1:])]
        return {(a, b) for a, b in pairs if c2t < 1.0 or not _killed(a, b, xs, ys, c2)}
    ghost = len(xs)
    edges = set()
    for e, a in enumerate(tri):
        b = tri[e + 1 if e % 3 < 2 else e - 2]
        if not a < b < ghost:  # each edge once, its lower index as a
            continue
        f = twin[e]
        xa, ya, xb, yb = xs[a], ys[a], xs[b], ys[b]
        near = False
        for k in (tri[e - 1 if e % 3 else e + 2], tri[f - 1 if f % 3 else f + 2]):
            if k == ghost:
                continue
            ax = xa - xs[k]
            ay = ya - ys[k]
            bx = xb - xs[k]
            by = yb - ys[k]
            dot = ax * bx + ay * by
            dd = dot * dot
            a2 = ax * ax + ay * ay
            b2 = bx * bx + by * by
            if dot <= 0.0 or dd <= c2 * a2 * b2:
                break
            if dd <= c2t * a2 * b2:
                near = True
        else:
            if not (near and _killed(a, b, xs, ys, c2)):
                edges.add((a, b))
    return edges


def _delaunay(xs: list, ys: list, order: list) -> tuple:
    """The halfedges of a Delaunay triangulation of the points, or
    (None, None) when they all lie on one line.

    Halfedges 3t, 3t + 1, 3t + 2 are triangle t's edges, counterclockwise:
    tri[e] is the vertex e starts from, and twin[e] is e in the
    neighbouring triangle.  Vertex n is the ghost: a hull edge u -> v, the
    outside on its left, lies in the ghost triangle (u, v, n).

    The points go in in column-snake order (about sqrt(n / 2) columns by
    x rank, read up and down in turn).  A walk from the previous point's
    triangle crosses any edge with the point strictly beyond it, and stops
    in a triangle that holds the point or in a ghost triangle whose hull
    edge it strictly sees; with exact signs, such walks in a Delaunay
    triangulation do not cycle (Edelsbrunner, Combinatorica 10, 1990).
    The triangle splits in three around the point, and Lawson flips mend
    the edges facing it: a real edge flips when the far vertex lies
    strictly inside the circumcircle, an edge to the ghost when the point
    strictly sees the hull edge beyond it, and a hull edge when the point
    lies on it; so a flat triangle the split leaves on an edge flips away
    (beyond a real edge the incircle sign is positive).
    """
    n = len(xs)
    ghost = n
    size = -(-n // max(1, math.isqrt(n // 2)))
    seq = [t[2] for k in range(0, n, size)
           for t in sorted(order[k:k + size], key=itemgetter(1), reverse=k // size % 2)]
    a, b = seq[0], seq[1]
    xa, ya, xb, yb = xs[a], ys[a], xs[b], ys[b]
    for k in range(2, n):
        turn = _orient_sign(xa, ya, xb, yb, xs[seq[k]], ys[seq[k]])
        if turn:
            break
    else:
        return None, None
    c = seq.pop(k)
    if turn < 0:
        a, b = b, a
    tri = [a, b, c, b, a, ghost, c, b, ghost, a, c, ghost]
    twin = [3, 6, 9, 0, 11, 7, 1, 5, 10, 2, 8, 4]
    t = 0
    for p in seq[2:]:
        px, py = xs[p], ys[p]
        came = -1  # the halfedge of t the walk came in by
        while True:
            v0, v1, v2 = tri[t], tri[t + 1], tri[t + 2]
            if ghost in (v0, v1, v2):
                if came >= 0:  # came in across its hull edge
                    break
                h = t if v2 == ghost else t + 1 if v0 == ghost else t + 2
                u, v = tri[h], tri[h + 1 if h % 3 < 2 else h - 2]
                if _orient_sign(xs[u], ys[u], xs[v], ys[v], px, py) > 0:
                    break
                t = twin[h] - twin[h] % 3
                continue
            for e, u, v in ((t, v0, v1), (t + 1, v1, v2), (t + 2, v2, v0)):
                if e != came and _orient_sign(xs[u], ys[u], xs[v], ys[v], px, py) < 0:
                    break
            else:
                break
            came = twin[e]
            t = came - came % 3
        # split t: (v0, v1, p) in place, (v1, v2, p) and (v2, v0, p) new
        s = len(tri)
        o1, o2 = twin[t + 1], twin[t + 2]
        tri[t + 2] = p
        tri += (v1, v2, p, v2, v0, p)
        twin += (o1, s + 5, t + 1, o2, t + 2, s + 1)
        twin[t + 1], twin[t + 2], twin[o1], twin[o2] = s + 2, s + 4, s, s + 3
        # Lawson flips: e = u -> v faces p, its twin f = v -> u faces q
        stack = [t, s, s + 3]
        while stack:
            e = stack.pop()
            f = twin[e]
            e1 = e + 1 if e % 3 < 2 else e - 2
            f1 = f + 1 if f % 3 < 2 else f - 2
            f2 = f - 1 if f % 3 else f + 2
            u, v, q = tri[e], tri[e1], tri[f2]
            if q == ghost:
                flip = _orient_sign(xs[u], ys[u], xs[v], ys[v], px, py) == 0
            elif u == ghost:
                flip = _orient_sign(xs[v], ys[v], px, py, xs[q], ys[q]) > 0
            elif v == ghost:
                flip = _orient_sign(px, py, xs[u], ys[u], xs[q], ys[q]) > 0
            else:
                flip = _incircle_sign(px, py, xs[u], ys[u], xs[v], ys[v], xs[q], ys[q]) > 0
            if flip:  # (u, v, p), (v, u, q) -> (u, q, p), (v, p, q)
                uq, vp = twin[f1], twin[e1]  # the outer twins of u -> q and v -> p
                tri[e1], tri[f1] = q, p
                twin[e], twin[uq], twin[f], twin[vp], twin[e1], twin[f1] = uq, e, vp, f, f1, e1
                stack += (e, f2)
    return tri, twin


def graph_to_dict(g: ProximityGraph) -> dict:
    return {
        "points": [[p.x, p.y] for p in g.vertices],
        "edges": [[i, j] for i, j in g.edge_list()],
    }
