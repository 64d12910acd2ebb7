"""Planar primitives and predicates shared by every structure in the package.

The numeric policy is deliberately simple: coordinates live in a bounded
domain (|x|, |y| <= COORD_LIMIT) and all comparisons use fixed absolute
epsilons.  EPS_AREA guards orientation determinants, EPS_DIST guards
point and distance comparisons; the bounded domain is what keeps the
fixed epsilons meaningful.  Exact arithmetic only settles the signs a
float filter leaves open in _orient_sign and _incircle_sign.  A polygon's
orientation and zero-area test use a shoelace shifted to its first vertex
(_signed_area2), which rounds with the polygon's size, not its position.

The module also holds the package's one half-plane clip kernel, a
Sutherland-Hodgman pass over (x, y) tuples with a caller-chosen on-line
band; clip_halfplane uses it with EPS_DIST and the floating body with 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import compress
from operator import sub

EPS_AREA = 1e-9
EPS_DIST = 1e-9
COORD_LIMIT = 1e6


class GeometryError(ValueError):
    """An input violated a documented geometric precondition."""


def _read_numbers(value, n: int) -> tuple | None:
    """The floats of `value`, read from a scene file or a quadtree array,
    when it is a list of n numbers, ints or floats but not bools; else None.
    An int too large for a float raises GeometryError("number too large")."""
    if not (isinstance(value, list) and len(value) == n
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        return None
    try:
        return tuple(map(float, value))
    except OverflowError:
        raise GeometryError("number too large") from None


class PointLocation(enum.Enum):
    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


@dataclass(frozen=True, slots=True)
class Point:
    """A point in the plane with finite coordinates within +/-COORD_LIMIT."""

    x: float
    y: float

    def __post_init__(self) -> None:
        x = self.x
        y = self.y
        if type(x) is not float:
            x = float(x)
            object.__setattr__(self, "x", x)
        if type(y) is not float:
            y = float(y)
            object.__setattr__(self, "y", y)
        # one chain for the common case; NaN fails it too, so the finiteness
        # test runs only on the way to an error
        if not (-COORD_LIMIT <= x <= COORD_LIMIT and -COORD_LIMIT <= y <= COORD_LIMIT):
            if not (math.isfinite(x) and math.isfinite(y)):
                raise GeometryError("point coordinates must be finite")
            raise GeometryError(
                "point coordinates must satisfy |x|, |y| <= %g" % COORD_LIMIT
            )


def distance(p: Point, q: Point) -> float:
    return math.hypot(p.x - q.x, p.y - q.y)


def points_equal(p: Point, q: Point) -> bool:
    """Equality under the distance epsilon."""
    return math.hypot(p.x - q.x, p.y - q.y) <= EPS_DIST


def _reject_duplicates(order: list, pts) -> None:
    """Raise on two points equal under points_equal.

    order lists (x, y, index into pts) sorted by x; only points whose x
    lies within EPS_DIST of each other are compared.  The walk starts only
    at the positions whose next x is that near, since from any other it
    stops at once.
    """
    xs = [t[0] for t in order]
    for a in compress(range(len(xs) - 1), map(EPS_DIST.__ge__, map(sub, xs[1:], xs))):
        x, _, i = order[a]
        for b in range(a + 1, len(order)):
            bx, _, j = order[b]
            if bx - x > EPS_DIST:
                break
            if points_equal(pts[i], pts[j]):
                raise GeometryError("duplicate point")


def cross(p: Point, q: Point, r: Point) -> float:
    """Signed area determinant of the parallelogram (q - p, r - p).

    Positive when p, q, r make a counterclockwise turn.
    """
    return (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)


@dataclass(frozen=True, slots=True)
class Segment:
    """A closed segment between two distinct endpoints."""

    a: Point
    b: Point

    def __post_init__(self) -> None:
        if points_equal(self.a, self.b):
            raise GeometryError("degenerate segment: endpoints coincide")


@dataclass(frozen=True, slots=True)
class BBox:
    """An axis-aligned box with positive extent on both axes."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        for v in (self.xmin, self.ymin, self.xmax, self.ymax):
            if not math.isfinite(v):
                raise GeometryError("bbox bounds must be finite")
        object.__setattr__(self, "xmin", float(self.xmin))
        object.__setattr__(self, "ymin", float(self.ymin))
        object.__setattr__(self, "xmax", float(self.xmax))
        object.__setattr__(self, "ymax", float(self.ymax))
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise GeometryError("bbox must satisfy xmin < xmax and ymin < ymax")

    @classmethod
    def _unchecked(cls, xmin: float, ymin: float, xmax: float, ymax: float) -> BBox:
        """Wrap finite float bounds the caller already knows satisfy xmin < xmax
        and ymin < ymax."""
        box = object.__new__(cls)
        object.__setattr__(box, "xmin", xmin)
        object.__setattr__(box, "ymin", ymin)
        object.__setattr__(box, "xmax", xmax)
        object.__setattr__(box, "ymax", ymax)
        return box

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    def area(self) -> float:
        return self.width * self.height

    def contains(self, p: Point) -> bool:
        """Whether p lies in the box or within EPS_DIST of it on each axis."""
        return (
            self.xmin - EPS_DIST <= p.x <= self.xmax + EPS_DIST
            and self.ymin - EPS_DIST <= p.y <= self.ymax + EPS_DIST
        )


@dataclass(frozen=True, slots=True)
class Halfplane:
    """The closed halfplane {p : nx*p.x + ny*p.y <= c} with unit normal."""

    nx: float
    ny: float
    c: float

    def __post_init__(self) -> None:
        n2 = self.nx * self.nx + self.ny * self.ny
        if abs(n2 - 1.0) > 1e-12:
            raise GeometryError("halfplane normal must be a unit vector")
        if not math.isfinite(self.c):
            raise GeometryError("halfplane offset must be finite")

    def complement(self) -> Halfplane:
        return Halfplane(-self.nx, -self.ny, -self.c)


def _signed_area2(vertices) -> float:
    """Twice the signed area of a loop of three or more vertices: the shoelace
    on coordinates shifted to vertex 0, without the two terms that touch it
    (exact zeros), so within 2 n^2 u M^2 of exact wherever the loop lies
    (u = 2^-53, M the largest shifted |x| or |y|)."""
    x0, y0 = vertices[0].x, vertices[0].y
    xa, ya = vertices[1].x - x0, vertices[1].y - y0
    total = 0.0
    for q in vertices[2:]:
        xb, yb = q.x - x0, q.y - y0
        total += xa * yb - xb * ya
        xa, ya = xb, yb
    return total


def _contact_box(p: Point, q: Point) -> tuple:
    """The box of segment pq widened by 2 * EPS_DIST on every side."""
    w = 2.0 * EPS_DIST
    return (min(p.x, q.x) - w, min(p.y, q.y) - w, max(p.x, q.x) + w, max(p.y, q.y) + w)


def _boxed_segments_contact(p1: Point, p2: Point, q1: Point, q2: Point, shared_ok: bool) -> bool:
    """True when the closed segments p1p2 and q1q2 share a point (within EPS_DIST).

    Only for a pair whose widened boxes (_contact_box) overlap.  With
    shared_ok, an endpoint of one segment that equals an endpoint of the
    other is not contact, but two segments with the same endpoints still are.

    When both ends of one segment clear the _OFF_LINE margin of the other's
    line on the same side, every point of each segment is farther than
    EPS_DIST from every point of the other, so no test below can fire: the
    distance and shared-endpoint tests fail, and both crossing tests need
    opposite signs.  Such a pair returns False before them.
    """
    o1 = cross(q1, q2, p1)
    o2 = cross(q1, q2, p2)
    m = _OFF_LINE * (abs(q2.x - q1.x) + abs(q2.y - q1.y))
    if (o1 > m and o2 > m) or (o1 < -m and o2 < -m):
        return False
    o3 = cross(p1, p2, q1)
    o4 = cross(p1, p2, q2)
    m = _OFF_LINE * (abs(p2.x - p1.x) + abs(p2.y - p1.y))
    if (o3 > m and o4 > m) or (o3 < -m and o4 < -m):
        return False
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
    # The EPS_AREA test misses a crossing whose endpoint lies within
    # EPS_AREA / |other segment| of the other's line but farther than
    # EPS_DIST from it, so opposite float signs also count when rounding
    # cannot have made them.  A pair that shares an endpoint is left alone:
    # there any crossing lies within the tolerance of the shared point.
    return (
        not near
        and (o1 > 0.0 > o2 or o2 > 0.0 > o1)
        and (o3 > 0.0 > o4 or o4 > 0.0 > o3)
        and _sign_is_sure(q1, q2, p1)
        and _sign_is_sure(q1, q2, p2)
        and _sign_is_sure(p1, p2, q1)
        and _sign_is_sure(p1, p2, q2)
    )


# Shewchuk's first orient2d error bound (1997): (3 + 16u)u, u = 2**-53
_CROSS_ERR = (3.0 + 16.0 * 2.0**-53) * 2.0**-53

_OFF_LINE = EPS_DIST + 12.0 * 2.0**-53 * 2.0 * COORD_LIMIT
"""A cross product margin, per unit of |dx| + |dy|, that certifies separation.

Let a, b, p lie in the +/-COORD_LIMIT box, with a and b more than EPS_DIST
apart, and let dx = b.x - a.x and dy = b.y - a.y as floats.  Then

    |cross(a, b, p)| > _OFF_LINE * (abs(dx) + abs(dy))

implies point_segment_distance(p, a, b) > EPS_DIST, and points_equal(p, a)
and points_equal(p, b) are both False.  The test changes no EPS_DIST
decision; it only proves the outcome of some of them from one product.

Proof.  Write u = 2**-53, L = COORD_LIMIT, s = |dx| + |dy| and c for the
float cross product; D is the exact b - a and C the exact cross product.

1. A difference of two coordinates is at most 2L in size, so it rounds by
   at most 2Lu.  The test's right side rounds twice, so |c| > M s (1-u)^2,
   where M = _OFF_LINE.
2. By Shewchuk's bound, |c - C| <= _CROSS_ERR * (|left| + |right|), where
   left and right are cross's rounded products.  Each factor that is a
   difference from a to p is at most 2L in size, so |left| + |right| <=
   (1+u) 2L s, and |C| > s (M (1-u)^2 - (1+u) 2L _CROSS_ERR).
3. |D| <= |D.x| + |D.y| <= s / (1-u), so p lies farther than
   H = (1-u)^3 M - 2L _CROSS_ERR >= (1-3u) M - (3 + 16u) 2Lu
   from the line through a and b.
4. point_segment_distance clamps t into [0, 1], so the exact point
   a + t D lies on the segment, farther than H from p.  Each component it
   hands to hypot differs from that exact offset by at most (4 + 3u) 2Lu:
   one rounding each for the offset from a, for dx or dy, for the product
   with t and for the last difference.  The vector is then off by at most
   sqrt(2) (4 + 3u) 2Lu < 5.66 * 2Lu, and hypot (under 1 ulp since
   Python 3.10) loses at most 2u of its result, under 2.83 * 2Lu more.
   So the distance comes out above H - 8.49 * 2Lu.  points_equal rounds
   only one difference per axis before hypot, so it loses less.
5. With M = EPS_DIST + K 2Lu, steps 3 and 4 give a distance above
   EPS_DIST + 2Lu (K (1-3u) - 3 - 16u - 8.49) - 3u EPS_DIST, which is
   above EPS_DIST when K (1-3u) > 11.5.  K = 12 leaves 0.5 * 2Lu, about
   1e-10, for gradual underflow, which adds at most 2**-1074 to any one
   operation.

The margin is about 3.66e-9, so only points within about 5.2e-9 of the
line reach the exact tests.
"""


def _sure_sign(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> int:
    """The sign of the cross product of a, b, c where rounding cannot have
    flipped it: 1 or -1, and 0 where it can.

    The products are cross's own, so left - right is cross(a, b, c) bit
    for bit, and it is sure beyond Shewchuk's bound, _CROSS_ERR times the
    sizes of the two products.  2**-1060 covers products that underflow.
    """
    left = (bx - ax) * (cy - ay)
    right = (by - ay) * (cx - ax)
    det = left - right
    bound = _CROSS_ERR * (abs(left) + abs(right)) + 2.0**-1060
    return 1 if det > bound else -1 if det < -bound else 0


def _sign_is_sure(p: Point, q: Point, r: Point) -> bool:
    """True when rounding cannot have flipped the sign of cross(p, q, r)."""
    return _sure_sign(p.x, p.y, q.x, q.y, r.x, r.y) != 0


_CONTACT_REACH = 1e-8
"""D: segments that _boxed_segments_contact finds in contact lie within D.

Let P = p1p2 and Q = q1q2 lie in the +/-COORD_LIMIT box, each longer than
EPS_DIST / 2, with overlapping _contact_box boxes, and let
_boxed_segments_contact(p1, p2, q1, q2, shared_ok=False) be True.  Then
their exact distance, dist, is below 7.5e-9.

Proof.  Write u = 2**-53 and L = COORD_LIMIT.  With shared_ok False the
call is True through a distance test or a crossing test.

1. point_segment_distance(p, s1, s2) <= EPS_DIST.  By step 4 of the
   _OFF_LINE proof, the computed distance is within 8.49 * 2Lu of p's
   distance to an exact point of s1s2, so dist <= EPS_DIST + 8.49 * 2Lu,
   under 2.9e-9.
2. The EPS_AREA crossing test or the sure-sign one.  Both need o1, o2 of
   strictly opposite float signs, and o3, o4 as well.
   (F1) P has a point within h = 2 sqrt(2) L _CROSS_ERR (1+u)^3, about
   9.42e-10, of Q's line.  Either p1 and p2 are not strictly on one side
   of it, so P meets it, or one of o1, o2 has the wrong float sign.  Then
   that end's exact cross product C is at most the rounding error, which
   is at most _CROSS_ERR (|left| + |right|) by Shewchuk's bound.  With
   coordinate differences of at most 2L, that is at most
   (1+u)^3 2L (|dx| + |dy|) _CROSS_ERR <= h |Q|.  Gradual underflow adds
   under 1e-300 for segments this long.
   (F2) Likewise Q has a point within h of P's line.
   (F3) A box bound is a segment's min or max -/+ 2 EPS_DIST, rounded
   once, so it lies within w = 2 EPS_DIST + u (L + 2 EPS_DIST) of that
   min or max.  So P's and Q's x-ranges come within 2w of each other,
   and so do their y-ranges.
   Let a in P and b in Q be the points of F1 and F2, and let phi <= pi/2
   be the angle between the two lines.
   - If phi > pi/4, the lines meet at a point Z.  There
     |a - Z| = dist(a, Q's line) / sin(phi) <= sqrt(2) h, and likewise
     for b, so dist <= |a - b| <= 2 sqrt(2) h, about 2.7e-9.
   - If phi <= pi/4, let t measure along a unit vector v on Q's line, and
     let d(t) be the offset of P's line from Q's at t.  d is linear, so
     |d| is convex.  |d(t_a)| <= h, and |d(t_b)| <= h / cos(phi) <=
     sqrt(2) h, because b lies within h of P's line.  If the segments'
     t-ranges overlap, they share a t between t_a and t_b, where the
     segments are |d(t)| <= sqrt(2) h apart.  Otherwise a gap g lies
     between the ranges, say with P's below Q's.  Then P's end e at the
     top of its range lies between t_a and t_b, so |d(t_e)| <= sqrt(2) h,
     and Q's end f at the bottom of its range is within sqrt(g^2 + 2 h^2)
     of e.  Take the axis (x, say) and the sign of v that give
     v.x >= 1/sqrt(2).  P's direction is within pi/4 of v, so x does not
     fall along P toward e, and Q starts at f.  So the segments' x-ranges
     are at least f.x - e.x >= g / sqrt(2) - h apart, which by F3 is at
     most 2w.  Then g <= sqrt(2) (2w + h), and
     dist <= sqrt(2) sqrt((2w + h)^2 + h^2), about 7.42e-9.

D = 1e-8 leaves room for the rounding of the star certificate's distance
(_star_certificate).
"""


def _star_certificate(vertices) -> bool:
    """True when a counterclockwise loop is proven to have no edge contact.

    The loop is star-shaped about c, its vertex mean, and its non-adjacent
    edges lie farther than _CONTACT_REACH apart.  Polygon then skips the
    contact scan, because the scan would find nothing.  The test is
    linear, and a False changes nothing: the scan runs as before.

    (i) Every edge has c strictly on its left, by _sure_sign's test.  So
        the angle about c grows along every edge, by less than pi.
    (ii) Exactly one edge goes up across c's horizontal, with
        a.y < c.y <= b.y.  By (i), such an edge crosses right of c, and an
        edge going down crosses left of c.  The crossings right of c count
        the loop's winding number about c, so it winds once, and the
        edges' angular sectors at c tile the circle once.
    (iii) delta = r * s > _CONTACT_REACH.  Here r bounds c's distance to
        every edge line from below, and s bounds every sector's sine from
        below.  The exact cross product A of an edge ab about c gives
        both: the distance is A / |b - a|, and the sine is
        A / (|a - c| |b - c|).

    Two non-adjacent edges have a whole sector between them on either
    side.  So from c, their points p and q lie at an angle theta of at
    least Delta apart, where Delta is the least sector angle.  Both points
    lie at least r from c.  So |p - q| >= r sin(min(theta, pi/2)) >=
    r sin(min(Delta, pi/2)) >= delta.  By _CONTACT_REACH's lemma,
    _boxed_segments_contact is False on every such pair.

    delta is computed from A's lower bound, the cross product less
    _sure_sign's bound, and from the hypot of the rounded differences.  It
    is at most (1 + 16u) times the exact bound, with u = 2**-53.  So a
    computed delta above 1e-8 leaves the exact one above 7.5e-9.  It also
    keeps every area above 5e-18 and every distance above 9e-9, far from
    underflow; the products inside the cross product have _sure_sign's
    2**-1060.
    """
    n = len(vertices)
    xs = [v.x for v in vertices]
    ys = [v.y for v in vertices]
    cx = sum(xs) / n
    cy = sum(ys) / n
    ux = [x - cx for x in xs]
    uy = [y - cy for y in ys]
    rho = list(map(math.hypot, ux, uy))
    lengths = list(map(math.hypot, map(sub, xs[1:] + xs[:1], xs), map(sub, ys[1:] + ys[:1], ys)))
    ups = 0
    r = s = math.inf
    for ax, ay, bx, by, ra, rb, length in zip(
        ux, uy, ux[1:] + ux[:1], uy[1:] + uy[:1], rho, rho[1:] + rho[:1], lengths
    ):
        left = ax * by
        right = ay * bx
        area = (left - right) - (_CROSS_ERR * (abs(left) + abs(right)) + 2.0**-1060)
        if area <= 0.0:
            return False
        if ay < 0.0 <= by:  # a float difference has the exact sign
            ups += 1
        q = area / length
        if q < r:
            r = q
        q = area / (ra * rb)
        if q < s:
            s = q
    return ups == 1 and r * s > _CONTACT_REACH


# Shewchuk's first incircle error bound (1997): (10 + 96u)u
_INCIRCLE_ERR = (10.0 + 96.0 * 2.0**-53) * 2.0**-53


def _orient_sign(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> int:
    """The exact sign of the cross product of a, b, c (1 for a left turn):
    _sure_sign's, or _exact_sign's where rounding could have flipped it."""
    return _sure_sign(ax, ay, bx, by, cx, cy) or _exact_sign(ax, ay, bx, by, cx, cy)


def _incircle_sign(ax: float, ay: float, bx: float, by: float, cx: float, cy: float,
                   dx: float, dy: float) -> int:
    """The exact sign of the incircle determinant: for a counterclockwise
    a, b, c, 1 when d lies inside their circle, -1 outside and 0 on it.

    The float determinant is sure beyond Shewchuk's bound, _INCIRCLE_ERR
    times its permanent, plus 2**-1000 for underflow: within
    +/-COORD_LIMIT a product loses at most 2**-1075 to it before factors
    below 2**43 scale it.  _exact_sign settles the rest.
    """
    adx, ady, bdx, bdy, cdx, cdy = ax - dx, ay - dy, bx - dx, by - dy, cx - dx, cy - dy
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    bc, cb = bdx * cdy, cdx * bdy
    ca, ac = cdx * ady, adx * cdy
    ab, ba = adx * bdy, bdx * ady
    det = alift * (bc - cb) + blift * (ca - ac) + clift * (ab - ba)
    bound = _INCIRCLE_ERR * ((abs(bc) + abs(cb)) * alift + (abs(ca) + abs(ac)) * blift
                             + (abs(ab) + abs(ba)) * clift) + 2.0**-1000
    if det > bound:
        return 1
    if det < -bound:
        return -1
    return _exact_sign(ax, ay, bx, by, cx, cy, dx, dy)


def _exact_sign(*coords: float) -> int:
    """The exact sign of the orientation (six coordinates) or incircle
    (eight) determinant, on the floats as integers over their common
    power-of-two denominator, a positive scale that keeps every sign."""
    ratios = [v.as_integer_ratio() for v in coords]
    den = max(q for _, q in ratios)
    ax, ay, bx, by, cx, cy, *d = [m * (den // q) for m, q in ratios]
    if not d:
        det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    else:
        ax, ay, bx, by, cx, cy = ax - d[0], ay - d[1], bx - d[0], by - d[1], cx - d[0], cy - d[1]
        det = ((ax * ax + ay * ay) * (bx * cy - cx * by) + (bx * bx + by * by) * (cx * ay - ax * cy)
               + (cx * cx + cy * cy) * (ax * by - bx * ay))
    return (det > 0) - (det < 0)


def _contact_candidates(segments):
    """Index pairs (i, j), i < j, of the (a, b) segments whose widened boxes overlap.

    A generator: pairs come in the sweep's order, not sorted, and only the
    boxes and their order are held, so memory does not grow with the
    number of pairs.  The sweep runs over the boxes sorted by xmin, or by
    ymin when their total height is less than their total width: segments
    in horizontal bands all overlap in x.  Segments whose widened boxes
    are disjoint never touch, which also keeps the EPS_AREA crossing test
    away from the float noise of far-apart collinear segments.  The sweep
    leaves out exactly those pairs, so the lexicographically smallest pair
    that _boxed_segments_contact finds among the pairs it yields is the
    first contact a box test followed by _boxed_segments_contact on all
    pairs in order would find (_first_contact).
    """
    boxes = [_contact_box(a, b) for a, b in segments]
    if sum(b[3] - b[1] for b in boxes) < sum(b[2] - b[0] for b in boxes):
        boxes = [(b[1], b[0], b[3], b[2]) for b in boxes]
    # a box is now (sweep min, other min, sweep max, other max)
    order = sorted(range(len(boxes)), key=lambda i: boxes[i][0])
    for k, i in enumerate(order):
        _, lo, end, hi = boxes[i]
        for j in order[k + 1 :]:
            b = boxes[j]
            if b[0] > end:
                break
            if b[1] <= hi and lo <= b[3]:
                yield (i, j) if i < j else (j, i)


def _first_contact(pairs, touch):
    """The lexicographically smallest pair in pairs for which touch(i, j) holds, or None.

    Pairs above the smallest one found so far are skipped untested.
    """
    first = None
    for pair in pairs:
        if (first is None or pair < first) and touch(*pair):
            first = pair
    return first


@dataclass(frozen=True, slots=True)
class Polygon:
    """A simple polygon stored counterclockwise.

    The constructor accepts either winding direction, normalizes to
    counterclockwise, and rejects inputs that are degenerate (fewer than
    three vertices, consecutive duplicates, zero area, zero-angle spikes)
    or self-intersecting.  Loops star-shaped about their vertex mean with
    room to spare (_star_certificate), as convex loops are unless thin or
    tiny, are recognized as simple in linear time.  For the others, the
    simplicity check tests only the edge pairs whose bounding boxes
    overlap (_contact_candidates), which costs O(n log n) plus the number
    of such pairs, most of which the _OFF_LINE certificate settles with
    four cross products.
    """

    vertices: tuple[Point, ...]

    def __post_init__(self) -> None:
        verts = tuple(self.vertices)
        if len(verts) < 3:
            raise GeometryError("polygon needs at least 3 vertices")
        n = len(verts)
        for i in range(n):
            if points_equal(verts[i], verts[(i + 1) % n]):
                raise GeometryError("polygon has consecutive duplicate vertices")
        area2 = _signed_area2(verts)
        if abs(area2) <= 2.0 * EPS_AREA:
            raise GeometryError("degenerate polygon: zero area")
        if area2 < 0.0:
            verts = verts[::-1]
        for i in range(n):
            a = verts[i - 1]
            b = verts[i]
            c = verts[(i + 1) % n]
            if abs(cross(a, b, c)) <= EPS_AREA:
                dot = (a.x - b.x) * (c.x - b.x) + (a.y - b.y) * (c.y - b.y)
                if dot > 0.0:
                    raise GeometryError("self-intersecting polygon: spike vertex")
        if not _star_certificate(verts):
            edges = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
            first = _first_contact(
                _contact_candidates(edges),
                lambda i, j: j != i + 1
                and not (i == 0 and j == n - 1)
                and _boxed_segments_contact(*edges[i], *edges[j], shared_ok=False),
            )
            if first is not None:
                raise GeometryError("self-intersecting polygon: edges %d and %d touch" % first)
        object.__setattr__(self, "vertices", verts)

    @classmethod
    def _unchecked(cls, vertices) -> Polygon:
        """Wrap vertices the caller already knows form a simple CCW loop."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "vertices", tuple(vertices))
        return poly

    def __len__(self) -> int:
        return len(self.vertices)


def polygon_area(poly: Polygon) -> float:
    """Area of the polygon (positive; vertices are counterclockwise)."""
    return 0.5 * _signed_area2(poly.vertices)


def polygon_bbox(poly: Polygon) -> BBox:
    xs = [v.x for v in poly.vertices]
    ys = [v.y for v in poly.vertices]
    return BBox(min(xs), min(ys), max(xs), max(ys))


def polygon_is_convex(poly: Polygon) -> bool:
    """True when no vertex makes a clockwise turn (collinear runs allowed)."""
    return _is_convex_loop(poly.vertices)


def _is_convex_loop(verts) -> bool:
    """polygon_is_convex for any closed loop of points, however short."""
    n = len(verts)
    for i in range(n):
        if cross(verts[i - 1], verts[i], verts[(i + 1) % n]) < -EPS_AREA:
            return False
    return True


def point_segment_distance(p: Point, a: Point, b: Point) -> float:
    ax, ay = a.x, a.y
    dx = b.x - ax
    dy = b.y - ay
    px = p.x - ax
    py = p.y - ay
    denom = dx * dx + dy * dy
    if denom <= 0.0:
        return math.hypot(px, py)
    t = (px * dx + py * dy) / denom
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return math.hypot(px - t * dx, py - t * dy)


def convex_hull(points) -> list[Point]:
    """Convex hull in counterclockwise order.

    The walk starts at the lexicographically smallest point.  Points in
    the interior of hull edges are excluded: only strict corners appear.
    Degenerate inputs yield degenerate hulls (a single point, or the two
    extremes of a collinear set) rather than an error.
    """
    pts = list(points)
    if not pts:
        raise GeometryError("empty point set")
    unique = sorted({(p.x, p.y) for p in pts})
    if len(unique) == 1:
        return [Point(*unique[0])]
    return [Point(x, y) for x, y in _monotone_chain(unique)]


def _monotone_chain(seq: list) -> list:
    """Andrew's monotone chain: the counterclockwise hull from seq[0].

    seq holds two or more distinct tuples, sorted, each starting with x and
    y.  A turn with cross <= EPS_AREA pops its middle point, so only strict
    corners stay; convex_hull and the onion peel share this rule.

    Each pass keeps the top two points of its stack in o and q and the
    rest in a list, so a point that pops nothing costs one cross product
    and no list indexing.  The cross product is the same expression in the
    same float order as over an indexed stack, so the pops are the same.
    """
    hull: list = []
    for run in (seq, seq[::-1]):
        o, q = run[0], run[1]
        below: list = []  # the stack under o
        for p in run[2:]:
            while (q[0] - o[0]) * (p[1] - o[1]) - (q[1] - o[1]) * (p[0] - o[0]) <= EPS_AREA:
                if not below:
                    break  # pop q; o alone stays
                q = o
                o = below.pop()
            else:
                below.append(o)
                o = q
            q = p
        below.append(o)
        hull += below
    return hull


def clip_halfplane(poly: Polygon, half: Halfplane) -> Polygon | None:
    """Intersection of a convex polygon with a closed halfplane.

    Returns None when the intersection has (near) zero area.  Non-convex
    input is rejected: single-plane clipping of a non-convex polygon can
    produce several pieces, which this representation cannot hold.
    """
    if not polygon_is_convex(poly):
        raise GeometryError("clip requires convex polygon")
    loop = [(v.x, v.y) for v in poly.vertices]
    kept = _sutherland_hodgman(loop, half.nx, half.ny, half.c, EPS_DIST)
    return _polygon_from_loop(kept)


def _sutherland_hodgman(loop, ux: float, uy: float, c: float, tol: float) -> list:
    """One Sutherland-Hodgman pass: the part of a loop of (x, y) tuples
    with ux * x + uy * y - c <= 0.

    A vertex whose value is within tol of zero counts as on the line: it
    is kept as it is, and a crossing point is inserted only on an edge
    that runs from strictly inside to strictly outside or back.  Edges
    are visited from vertex 0, so the output keeps the input's start.
    """
    vals = [ux * x + uy * y - c for x, y in loop]
    out = []
    for s, e, vs, ve in zip(loop, loop[1:] + loop[:1], vals, vals[1:] + vals[:1]):
        if vs <= tol:
            out.append(s)
            crosses = vs < -tol and ve > tol
        else:
            crosses = ve < -tol
        if crosses:
            t = vs / (vs - ve)
            out.append((s[0] + t * (e[0] - s[0]), s[1] + t * (e[1] - s[1])))
    return out


def _polygon_from_loop(loop) -> Polygon | None:
    """The polygon of a clipped counterclockwise loop of (x, y) tuples.

    Neighbours within EPS_DIST merge into the first of them.  Fewer than
    three points left, or (near) zero area, give None.
    """
    cleaned: list[Point] = []
    for x, y in loop:
        p = Point(x, y)
        if not cleaned or not points_equal(cleaned[-1], p):
            cleaned.append(p)
    if len(cleaned) >= 2 and points_equal(cleaned[0], cleaned[-1]):
        cleaned.pop()
    if len(cleaned) < 3 or abs(_signed_area2(cleaned)) <= 2.0 * EPS_AREA:
        return None
    return Polygon._unchecked(cleaned)


def point_in_polygon(p: Point, poly: Polygon) -> PointLocation:
    """Locate a point relative to a simple polygon.

    Boundary means within EPS_DIST of some edge; otherwise ray-casting
    parity decides between inside and outside.
    """
    verts = poly.vertices
    n = len(verts)
    for i in range(n):
        if point_segment_distance(p, verts[i], verts[(i + 1) % n]) <= EPS_DIST:
            return PointLocation.BOUNDARY
    inside = False
    x, y = p.x, p.y
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        if (a.y > y) != (b.y > y):
            xint = a.x + (y - a.y) * (b.x - a.x) / (b.y - a.y)
            if x < xint:
                inside = not inside
    return PointLocation.INSIDE if inside else PointLocation.OUTSIDE
