"""Circle-based beta-skeletons for beta >= ~0 (finite positive).

An edge {v1, v2} survives when no third point sees it under an angle of
theta(beta) or more; the forbidden neighbourhood is treated as closed, so
a witness exactly on the critical circle removes the edge.  beta = 1
gives the Gabriel graph, beta = 2 the relative neighbourhood graph.

The build walks the other points in distance order once per point.  For
beta >= 1 a Yao-cone prune (Yao 1982; Kirkpatrick & Radke 1985) keeps
only the pairs the angle rule could leave alive, and every pair is tested
only against the witnesses that can reach it.  Each test is the one
angle predicate, so the edges are those of testing every pair against
every other point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import GeometryError, Point, _reject_duplicates

EPS_ANGLE = 1e-9


@dataclass(frozen=True)
class BetaParameter:
    beta: float

    def __post_init__(self) -> None:
        b = float(self.beta)
        if not (math.isfinite(b) and b > 0.0):
            raise GeometryError("beta must be a finite real > 0")
        object.__setattr__(self, "beta", b)


@dataclass(frozen=True)
class ProximityGraph:
    vertices: tuple[Point, ...]
    edges: frozenset  # of (i, j) pairs with i < j

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def _beta_value(beta) -> float:
    if isinstance(beta, BetaParameter):
        return beta.beta
    return BetaParameter(beta).beta


def theta_of_beta(beta: float) -> float:
    """Critical angle of the beta-neighbourhood.

    arcsin(1/beta) for beta >= 1 and pi - arcsin(beta) for beta <= 1;
    the two branches agree (pi/2) at beta = 1.
    """
    b = _beta_value(beta)
    if b >= 1.0:
        return math.asin(1.0 / b)
    return math.pi - math.asin(b)


def beta_skeleton(points, beta: float) -> ProximityGraph:
    """Beta-skeleton from one distance-ordered walk per point.

    Duplicate points (under the distance epsilon) are rejected.  A set of
    exactly two points yields the single edge between them.

    A witness k kills the pair (i, j) when the angle i-k-j is at least
    theta' = theta(beta) - EPS_ANGLE, decided by one square-root-free
    predicate.  Point i sorts the others by squared distance d2 and walks
    them in that order.

    Cone prune, only when c = cos(theta') >= 0 (every beta >= 1): the
    predicate then kills on a dot product <= 0, and every surviving edge
    is a Gabriel edge.  Split the directions around i into 8 closed 45
    degree octants by signs and |dx| against |dy|.  The first point the
    walk meets in an octant is its nearest point k, and a later q in that
    octant is a candidate of i only if d2[q] <= 2 * (1 + 1e-6) * d2[k].
    For a non-candidate |ik| < |iq| * cos 45 / (1 + 5e-7) and the angle
    k-i-q is at most 45 degrees plus rounding, so
    (i - k).(q - k) = |ik| (|ik| - |iq| cos(k-i-q)) is negative by a
    margin of about 3e-7 |ik| |kq|, far above the 1e-15 relative error of
    the float dot product: k kills (i, q).  The walk stops once all 8
    octants have a nearest point and d2 passes every octant's bound.  A
    pair (j, i), j < i, is tested only when each is the other's
    candidate; only the candidate sets are kept.  For beta < 1 every pair
    is tested.

    Witness scan: by the law of sines a witness that sees (i, j) under
    the angle a lies within |ij| / sin(a) of i.  The predicate kills only
    when sin^2(a) >= sin^2(min(theta', pi/2)) - 1e-14, the slack bounding
    its rounding error, so the scan walks i's order only while
    d2[k] <= d2[j] * reach2, with reach2 = (1 + 1e-6) / (sin^2 - 1e-14).
    Where sin^2(theta') <= 2e-14 (beta above about 7e6) rounding alone
    can decide the predicate, and every point is scanned.
    """
    pts = tuple(points)
    n = len(pts)
    if n < 2:
        raise GeometryError("beta skeleton needs at least 2 points")
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    _reject_duplicates(sorted(zip(xs, ys, range(n))), pts)
    theta = theta_of_beta(beta)
    # angle >= theta - EPS_ANGLE  <=>  cos(angle) <= cos(theta - EPS_ANGLE)
    c = math.cos(theta - EPS_ANGLE)
    c2 = c * c
    s2 = math.sin(min(theta - EPS_ANGLE, math.pi / 2)) ** 2
    reach2 = (1.0 + 1e-6) / (s2 - 1e-14) if s2 > 2e-14 else math.inf
    prune = c >= 0.0
    cand = []  # cand[i]: the candidates of i, kept only when prune
    edges = set()
    for i in range(n):
        xi, yi = xs[i], ys[i]
        d2 = [(x - xi) * (x - xi) + (y - yi) * (y - yi) for x, y in zip(xs, ys)]
        order = sorted(range(n), key=d2.__getitem__)
        del order[0]  # i itself: every other point is farther than EPS_DIST
        if prune:
            mine = set()
            bound = [0.0] * 8
            filled = 0
            top = 0.0
            for q in order:
                dq = d2[q]
                if dq > top and filled == 8:
                    break
                dx = xs[q] - xi
                dy = ys[q] - yi
                o = (dx < 0.0) * 4 + (dy < 0.0) * 2 + (abs(dx) < abs(dy))
                if not bound[o]:
                    bound[o] = 2.000002 * dq
                    filled += 1
                    if filled == 8:
                        top = max(bound)
                elif dq > bound[o]:
                    continue
                mine.add(q)
            cand.append(mine)
            pairs = [j for j in mine if j < i and i in cand[j]]
        else:
            pairs = range(i)
        for j in pairs:
            limit = d2[j] * reach2
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
                if c >= 0.0:
                    if dot <= 0.0 or dot * dot <= c2 * (ax * ax + ay * ay) * (bx * bx + by * by):
                        break
                elif dot < 0.0 and dot * dot >= c2 * (ax * ax + ay * ay) * (bx * bx + by * by):
                    break
            else:
                edges.add((j, i))
    return ProximityGraph(vertices=pts, edges=frozenset(edges))


def graph_to_dict(g: ProximityGraph) -> dict:
    return {
        "points": [[p.x, p.y] for p in g.vertices],
        "edges": [[i, j] for i, j in g.edge_list()],
    }
