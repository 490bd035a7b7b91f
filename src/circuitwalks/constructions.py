"""Hard instances for monotone circuit walks, built exactly.

Four constructions live here:

* a recursive polygon family whose monotone circuit distance grows linearly
  with the description size (build_p_ell),
* a polygon built from an exact-sum instance whose circuit distance separates
  feasible from infeasible instances by a wide gap (build_reduction), using a
  squeezing corner transform and a slope chain as gadgets,
* a lift of any such polygon into fixed higher dimension by multiplying with
  a simplex (lift_instance),
* a reduction from three-dimensional matching to the exact-sum promise
  problem (reduce_three_dm) together with the brute-force baselines used to
  cross-check small cases.

Every numeric claim the builders rely on is asserted at construction time;
a violated assumption raises ConstructionError instead of producing a
plausible-looking wrong polygon.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .polytope import (
    HPolygon,
    LiftedPoint,
    LiftedPolytope,
    VPolygon,
    h_to_v,
    hull2d,
    product_with_simplex,
    transform_polygon,
    v_to_h,
)
from .ratgeo import (
    AffineMap2,
    Direction2,
    Point2,
    primitive_direction,
    pullback_cost,
    rat,
)
from .circuits import LiftedCost, enumerate_circuits, optimal_value

__all__ = [
    "BadParameter",
    "BadCost",
    "BadInstance",
    "TriviallyInfeasible",
    "SearchSpaceTooLarge",
    "ConstructionError",
    "PellArtifact",
    "build_p_ell",
    "family_step_map",
    "SubsetSumInstance",
    "ThreeDMInstance",
    "reduce_three_dm",
    "three_dm_has_perfect_matching",
    "Feasible",
    "Infeasible",
    "PromiseViolated",
    "brute_force_essr",
    "compute_gap_C",
    "sqrt_sum_leq",
    "SlopeChain",
    "build_slope_chain",
    "CornerTransform",
    "build_corner_transform",
    "ReductionInstance",
    "build_reduction",
    "classify_reduction_circuits",
    "reduction_witness_walk",
    "lift_instance",
]


class BadParameter(ValueError):
    pass


class BadCost(ValueError):
    pass


class BadInstance(ValueError):
    pass


class TriviallyInfeasible(ValueError):
    """Fewer triples than elements: no matching can exist."""


class SearchSpaceTooLarge(ValueError):
    """Brute-force enumeration would exceed the desk-scale cap."""


class ConstructionError(AssertionError):
    """A construction-time invariant failed; the output would be wrong."""


# -- linear-distance polygon family ------------------------------------------


@dataclass(frozen=True)
class PellArtifact:
    """Polygon with 2*ell + 1 rows whose walk distance from u or w to t is ell."""

    ell: int
    h: HPolygon
    v: VPolygon
    u: Point2
    w: Point2
    t: Point2
    c0: Direction2


def family_step_map(level: int) -> AffineMap2:
    """Squeeze map (x, y) -> (x/(8*level) + 1, y/2) used by the recursion."""
    if level < 1:
        raise BadParameter("level must be positive")
    return AffineMap2(rat(1, 8 * level), 0, 0, rat(1, 2), 1, 0)


def build_p_ell(ell: int) -> PellArtifact:
    """Recursive polygon family; distance to the rightmost vertex grows as ell.

    Level 1 is the triangle conv((0,1), (0,-1), (1,0)).  Each level squeezes
    the previous polygon into the right half of a narrow strip and restores
    the two outer vertices (0, 1), (0, -1), adding two rows.  Row entries
    stay below (8*ell + 1)**ell.
    """
    if ell < 1:
        raise BadParameter("ell must be at least 1")
    rows: list[tuple[int, int, int]] = [(-1, 0, 0), (1, 1, 1), (1, -1, 1)]
    t = Point2(rat(1), rat(0))
    for level in range(1, ell):
        scale = 8 * level
        grown: list[tuple[int, int, int]] = [(-1, 0, 0)]
        for a1, a2, b in rows[1:]:
            grown.append((scale * a1, 2 * a2, b + scale * a1))
        grown += [(1, 2, 2), (1, -2, 2)]
        rows = grown
        t = family_step_map(level).apply(t)
    h = HPolygon(tuple(rows))
    v = h_to_v(h)
    u, w = Point2(rat(0), rat(1)), Point2(rat(0), rat(-1))
    c0 = Direction2(1, 0)
    if h.m != 2 * ell + 1:
        raise ConstructionError("row count drifted from 2*ell + 1")
    vset = set(v.vertices)
    if not {u, w, t} <= vset:
        raise ConstructionError("u, w or t is not a vertex")
    best, argmax = optimal_value(h, c0)
    if argmax != (t,) or best != t.x:
        raise ConstructionError("t is not the unique rightmost vertex")
    return PellArtifact(ell=ell, h=h, v=v, u=u, w=w, t=t, c0=c0)


# -- exact-sum instances and brute force --------------------------------------


@dataclass(frozen=True)
class SubsetSumInstance:
    """Exact-sum promise instance: pick k elements (with repetition) summing to S.

    Weights must be strictly increasing positive integers; distinct weights
    are what keeps every chain point of the reduction a genuine vertex.
    """

    a: tuple[int, ...]
    S: int
    k: int

    def __post_init__(self) -> None:
        if not self.a:
            raise BadInstance("need at least one weight")
        if any(w < 1 for w in self.a):
            raise BadInstance("weights must be positive")
        if any(x >= y for x, y in zip(self.a, self.a[1:])):
            raise BadInstance("weights must be strictly increasing")
        if self.S < 1:
            raise BadInstance("target sum must be positive")
        if self.k < 1:
            raise BadInstance("cardinality k must be positive")

    @property
    def n(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class Feasible:
    r: tuple[int, ...]


@dataclass(frozen=True)
class Infeasible:
    pass


@dataclass(frozen=True)
class PromiseViolated:
    """Some multiplicity vector hits S with the wrong cardinality."""

    r: tuple[int, ...]


def brute_force_essr(
    inst: SubsetSumInstance, r_bound: int, space_cap: int = 4_000_000
):
    """Exhaustive scan of multiplicity vectors r with 0 <= r_i <= r_bound.

    Vectors with sum(r) > max(k, r_bound) are skipped.  A promise violation
    (sum r_i a_i == S with sum r_i != k) beats a feasible witness even when
    the witness enumerates first; the lexicographically first vector of the
    winning kind is reported.
    """
    if r_bound < 0:
        raise BadParameter("r_bound must be nonnegative")
    if (r_bound + 1) ** inst.n > space_cap:
        raise SearchSpaceTooLarge(
            f"(r_bound+1)**n = {(r_bound + 1) ** inst.n} exceeds cap {space_cap}"
        )
    cap = max(inst.k, r_bound)
    witness: tuple[int, ...] | None = None
    for r in itertools.product(range(r_bound + 1), repeat=inst.n):
        used = sum(r)
        if used > cap:
            continue
        if sum(m * w for m, w in zip(r, inst.a)) != inst.S:
            continue
        if used != inst.k:
            return PromiseViolated(r)
        if witness is None:
            witness = r
    return Feasible(witness) if witness is not None else Infeasible()


# -- three-dimensional matching -----------------------------------------------


@dataclass(frozen=True)
class ThreeDMInstance:
    """Triples over three disjoint N-element ground sets, zero-indexed."""

    n_elements: int
    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.n_elements < 1:
            raise BadInstance("need at least one element per side")
        seen = set()
        for tr in self.triples:
            if len(tr) != 3 or any(x < 0 or x >= self.n_elements for x in tr):
                raise BadInstance(f"triple {tr} out of range")
            if tr in seen:
                raise BadInstance(f"duplicate triple {tr}")
            seen.add(tr)


def three_dm_has_perfect_matching(inst: ThreeDMInstance) -> bool:
    """Exhaustive matching check; exponential, desk scale only."""
    n = inst.n_elements
    if len(inst.triples) < n:
        return False
    for chosen in itertools.combinations(inst.triples, n):
        if all(len({tr[pos] for tr in chosen}) == n for pos in range(3)):
            return True
    return False


def reduce_three_dm(inst: ThreeDMInstance) -> SubsetSumInstance:
    """Digit encoding of triples in base N+1; no-carry makes the promise hold.

    Triple (i, j, h) becomes B**i + B**(j+N) + B**(h+2N) + B**(3N) with
    B = N + 1; the target asks for every positional digit once plus N high
    markers, so any subset summing to S uses exactly N triples covering every
    element exactly once.
    """
    n = inst.n_elements
    if len(inst.triples) < n:
        raise TriviallyInfeasible(f"{len(inst.triples)} triples cannot cover {n} elements")
    base = n + 1
    weights = sorted(
        base**i + base ** (j + n) + base ** (h + 2 * n) + base ** (3 * n)
        for i, j, h in inst.triples
    )
    target = n * base ** (3 * n) + sum(base**p for p in range(3 * n))
    return SubsetSumInstance(a=tuple(weights), S=target, k=n)


# -- gap size -----------------------------------------------------------------


def _ceil_nth_root(target: int, t: int) -> int:
    """Smallest M >= 1 with M**t >= target, exactly."""
    # bisect (lo, hi] for the answer; hi**t >= 2**bit_length(target) > target
    lo, hi = 0, 1 << -(-max(target, 1).bit_length() // t)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**t >= target:
            hi = mid
        else:
            lo = mid
    return hi


def compute_gap_C(eps_inv: int, n: int, k: int) -> int:
    """Gap constant for approximation factor n**(1 - 1/eps_inv) hardness.

    Restricted to integral inverse exponents; both competing terms are
    evaluated exactly (the fractional power via an integer root).
    """
    if eps_inv < 1:
        raise BadParameter("eps_inv must be a positive integer")
    if n < 1 or k < 1:
        raise BadParameter("n and k must be positive")
    t = eps_inv
    first = 8**t * k ** (t - 1)
    second = _ceil_nth_root(8**t * n ** (t - 1), t)
    return max(first, second)


def sqrt_sum_leq(A: int, B: int, L: int, M: int) -> bool:
    """Decide L*(sqrt(A) + sqrt(B)) <= M over the integers, no floats.

    Equivalent to M^2 - L^2 (A+B) >= 0 together with
    4 L^4 A B <= (M^2 - L^2 (A+B))^2.
    """
    if min(A, B, L, M) < 0:
        raise BadParameter("all arguments must be nonnegative")
    d = M * M - L * L * (A + B)
    if d < 0:
        return False
    return 4 * L**4 * A * B <= d * d


# -- slope chain ---------------------------------------------------------------


@dataclass(frozen=True)
class SlopeChain:
    """Concave vertex chain encoding the weights as consecutive edge slopes.

    All points sit in the lower-right corner of the unit box on or below the
    zero line of the cost; consecutive slopes are exactly a_1 < .. < a_n.
    beta equals 1 when -c.dx >= c.dy, in which case the last point touches
    the box corner (1, 1); assembled reductions always have beta < 1.
    """

    instance: SubsetSumInstance
    cost: Direction2
    beta: Fraction
    vertices: tuple[Point2, ...]
    witnesses: tuple[Direction2, ...]


def build_slope_chain(inst: SubsetSumInstance, c: Direction2) -> SlopeChain:
    """Chain v_0 .. v_n with slope a_i between v_{i-1} and v_i.

    Requires an upper-left pointing cost (c.dx < 0 < c.dy).  Each vertex has
    nonpositive cost value and a witness cost maximized uniquely at it.
    """
    if not (c.dx < 0 < c.dy):
        raise BadCost("need c.dx < 0 < c.dy")
    beta = min(rat(-c.dx, c.dy), rat(1))
    n = inst.n
    total = sum(inst.a)
    prefix = [0]
    for w in inst.a:
        prefix.append(prefix[-1] + w)
    verts = tuple(
        Point2(1 - rat(n - i) * beta / total, rat(prefix[i]) * beta / total)
        for i in range(n + 1)
    )
    wits = []
    for i in range(n + 1):
        if i == 0:
            wits.append(primitive_direction(rat(inst.a[0], 2), -1))
        elif i == n:
            wits.append(primitive_direction(2 * inst.a[-1], -1))
        else:
            wits.append(primitive_direction(rat(inst.a[i - 1] + inst.a[i], 2), -1))
    chain = SlopeChain(
        instance=inst, cost=c, beta=beta, vertices=verts, witnesses=tuple(wits)
    )
    _check_slope_chain(chain)
    return chain


def _check_slope_chain(chain: SlopeChain) -> None:
    verts, inst, c = chain.vertices, chain.instance, chain.cost
    for i in range(inst.n):
        p, q = verts[i], verts[i + 1]
        if q.x <= p.x:
            raise ConstructionError("chain x-coordinates must increase")
        if (q.y - p.y) != inst.a[i] * (q.x - p.x):
            raise ConstructionError(f"slope between v_{i} and v_{i + 1} is not a_{i + 1}")
    for v in verts:
        if c.dx * v.x + c.dy * v.y > 0:
            raise ConstructionError("chain point with positive cost value")
        if v.y > 1 or (chain.beta < 1 and v.y >= 1):
            raise ConstructionError("chain left the unit box")
    for i, wit in enumerate(chain.witnesses):
        vals = [wit.dx * v.x + wit.dy * v.y for v in verts]
        best = max(vals)
        if [j for j, val in enumerate(vals) if val == best] != [i]:
            raise ConstructionError(f"witness {i} is not uniquely maximized at v_{i}")


# -- corner transform ----------------------------------------------------------


@dataclass(frozen=True)
class CornerTransform:
    """Affine squeeze of a family polygon into a flat corner near (0, S).

    All image edge slopes are positive and tiny, the image of u is the
    leftmost and lowest point, the image of w the rightmost and highest, and
    the image of t sits at height exactly S.  epsilon is how far w's image
    pokes above S.
    """

    map: AffineMap2
    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    box: Fraction
    s1: Fraction
    epsilon: Fraction
    chain_slopes: tuple[Fraction, ...]
    image: HPolygon
    u_image: Point2
    w_image: Point2
    t_image: Point2


def build_corner_transform(
    pell: PellArtifact, inst: SubsetSumInstance, C: int
) -> CornerTransform:
    """Rational rotation and two squeezes placing pell's polygon beside (0, S).

    The x-scale alpha keeps the polygon strictly inside the triangle
    conv((0,1), (0,-1), (1/4,0)), so after the sqrt(2)-scaled 135-degree
    rotation [[-1,-1],[1,-1]] every edge except the old left wall has slope
    strictly between 1/3 and 3, and after the y-squeeze beta = 1/(6*C*k)
    strictly between 1/(18*C*k) and 1/(2*C*k).
    """
    if C < 1:
        raise BadParameter("C must be positive")
    ck = C * inst.k
    if pell.ell != ck:
        raise BadParameter(f"need the level-{ck} family polygon, got level {pell.ell}")
    outer = {pell.u, pell.w}
    alpha = min(
        (1 - abs(v.y)) / v.x for v in pell.v.vertices if v not in outer
    ) / 4
    rot = AffineMap2(-1, -1, 1, -1)
    beta = rat(1, 6 * ck)
    pre = AffineMap2.scaling(1, beta).compose(rot.compose(AffineMap2.scaling(alpha, 1)))
    flat = transform_polygon(pre, pell.h)
    u1, w1 = pre.apply(pell.u), pre.apply(pell.w)
    slopes = []
    ring = h_to_v(flat).vertices
    for i in range(len(ring)):
        p, q = ring[i], ring[(i + 1) % len(ring)]
        if {p, q} == {u1, w1}:
            continue  # the old left wall, now the chord below the chain
        if q.x == p.x:
            raise ConstructionError("chain edge came out vertical")
        slopes.append((q.y - p.y) / (q.x - p.x))
    lo, hi = rat(1, 18 * ck), rat(1, 2 * ck)
    if len(slopes) != 2 * ck or any(s <= lo or s >= hi for s in slopes):
        raise ConstructionError("image slopes left the open target interval")
    s1 = min(slopes)
    box = (s1 / inst.a[-1]) ** ((ck + 1) // 2 + 1)
    gamma = box / 4
    scaled = AffineMap2.scaling(gamma, gamma).compose(pre)
    shift = AffineMap2.translation(
        -scaled.apply(pell.u).x, inst.S - scaled.apply(pell.t).y
    )
    full = shift.compose(scaled)
    image = transform_polygon(full, pell.h)
    u2, w2, t2 = full.apply(pell.u), full.apply(pell.w), full.apply(pell.t)
    epsilon = w2.y - inst.S
    if not (0 < epsilon <= 2 * gamma * beta and epsilon < box / 2):
        raise ConstructionError("epsilon outside (0, box/2)")
    if u2.x != 0 or t2.y != inst.S or w2.x != 2 * gamma:
        raise ConstructionError("anchor points landed off their rails")
    for v in h_to_v(image).vertices:
        if not (0 <= v.x < box and abs(v.y - inst.S) < box / 2):
            raise ConstructionError("image vertex outside the corner window")
        if v != u2 and (v.x <= u2.x or v.y <= u2.y):
            raise ConstructionError("u's image is not the unique lowest-leftmost point")
        if v != w2 and (v.x >= w2.x or v.y >= w2.y):
            raise ConstructionError("w's image is not the unique highest-rightmost point")
    return CornerTransform(
        map=full,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        box=box,
        s1=s1,
        epsilon=epsilon,
        chain_slopes=tuple(sorted(slopes)),
        image=image,
        u_image=u2,
        w_image=w2,
        t_image=t2,
    )


# -- the reduction polygon -----------------------------------------------------


@dataclass(frozen=True)
class ReductionInstance:
    """Polygon whose monotone circuit distance separates exact-sum answers.

    From s, a feasible instance admits a walk of 2k steps to t; an infeasible
    one forces more than C*k steps.  The cost is the primitive (-1, 6*C*k).
    """

    instance: SubsetSumInstance
    C: int
    h: HPolygon
    v: VPolygon
    s: Point2
    t: Point2
    c: Direction2
    epsilon: Fraction
    corner: CornerTransform
    chain: SlopeChain

    @property
    def ck(self) -> int:
        return self.C * self.instance.k


def build_reduction(inst: SubsetSumInstance, C: int) -> ReductionInstance:
    """Assemble the separation polygon for an exact-sum instance.

    Hull of: the origin s, the top-right anchor (1, S + epsilon), the slope
    chain along the bottom-right, and the squeezed corner polygon beside
    (0, S).  Every census claim (vertex count, edge count, circuit classes)
    is asserted before returning.
    """
    ck = C * inst.k
    if ck > 8:
        warnings.warn(
            f"C*k = {ck} blows up corner denominators; expect slow exact arithmetic",
            RuntimeWarning,
            stacklevel=2,
        )
    pell = build_p_ell(ck)
    corner = build_corner_transform(pell, inst, C)
    c = pullback_cost(corner.map, pell.c0)
    if c != Direction2(-1, 6 * ck):
        raise ConstructionError("pulled-back cost is not (-1, 6*C*k)")
    chain = build_slope_chain(inst, c)
    s = Point2(rat(0), rat(0))
    apex = Point2(rat(1), inst.S + corner.epsilon)
    corner_pts = tuple(corner.map.apply(p) for p in pell.v.vertices)
    expected = {s, apex, *chain.vertices, *corner_pts}
    v = hull2d(list(expected))
    if set(v.vertices) != expected:
        raise ConstructionError("some intended vertex fell inside the hull")
    if len(v.vertices) != inst.n + 2 * ck + 4:
        raise ConstructionError("vertex census mismatch")
    h = v_to_h(v)
    t = corner.t_image
    best, argmax = optimal_value(h, c)
    if argmax != (t,):
        raise ConstructionError("t is not the unique cost maximizer")
    red = ReductionInstance(
        instance=inst,
        C=C,
        h=h,
        v=v,
        s=s,
        t=t,
        c=c,
        epsilon=corner.epsilon,
        corner=corner,
        chain=chain,
    )
    classify_reduction_circuits(red)  # raises on a census violation
    return red


def classify_reduction_circuits(red: ReductionInstance):
    """Partition the circuits: frame axes, weight diagonals, corner slopes.

    Returns {"frame": .., "element": .., "corner": ..} with canonical
    directions, after asserting the partition is exact and the corner slopes
    sit strictly inside (0, 1/(2*C*k)).
    """
    inst = red.instance
    ck = red.ck
    frame = (Direction2(0, 1), Direction2(1, 0))
    element = tuple(Direction2(1, w) for w in inst.a)
    corner = []
    ring = h_to_v(red.corner.image).vertices
    for i in range(len(ring)):
        p, q = ring[i], ring[(i + 1) % len(ring)]
        if {p, q} == {red.corner.u_image, red.corner.w_image}:
            continue
        corner.append(primitive_direction(q.x - p.x, q.y - p.y).canonical())
    corner.sort()
    for g in corner:
        if not (g.dx > 0 and 0 < rat(g.dy, g.dx) < rat(1, 2 * ck)):
            raise ConstructionError("corner circuit slope outside (0, 1/(2*C*k))")
    groups = {"frame": frame, "element": element, "corner": tuple(corner)}
    flat = [g for grp in groups.values() for g in grp]
    if len(flat) != 2 + inst.n + 2 * ck or len(set(flat)) != len(flat):
        raise ConstructionError("circuit classes overlap or miscount")
    if set(flat) != set(enumerate_circuits(red.h)):
        raise ConstructionError("circuit classes do not match the polygon")
    return groups


def reduction_witness_walk(red: ReductionInstance, r: tuple[int, ...]):
    """The canonical 2k-step monotone walk for a feasible multiplicity vector.

    Alternates diagonal moves (1, a_i) against the right wall with resets
    (-1, 0) against the left wall; the final reset stops early at t, the
    unique chain point at height S.
    """
    from .search import Walk

    inst = red.instance
    if len(r) != inst.n or any(m < 0 for m in r):
        raise BadParameter("r must be n nonnegative multiplicities")
    if sum(m * w for m, w in zip(r, inst.a)) != inst.S or sum(r) != inst.k:
        raise BadParameter("r is not a feasible witness")
    chosen = [w for m, w in zip(r, inst.a) for _ in range(m)]
    points = [red.s]
    steps = []
    height = 0
    for j, w in enumerate(chosen):
        points.append(Point2(rat(1), rat(height + w)))
        steps.append(Direction2(1, w))
        height += w
        if j < len(chosen) - 1:
            points.append(Point2(rat(0), rat(height)))
            steps.append(Direction2(-1, 0))
    points.append(red.t)
    steps.append(Direction2(-1, 0))
    return Walk(tuple(points), tuple(steps))


# -- dimension lift ------------------------------------------------------------


def lift_instance(
    h: HPolygon, s: Point2, c: Direction2, d: int
) -> tuple[LiftedPolytope, LiftedPoint, LiftedCost]:
    """Product with a (d-2)-simplex, start and cost placed on its top vertex.

    The start gets simplex coordinates e_last and the cost weights e_last as
    well, so no simplex move is ever strictly improving and feasible at once:
    walks in the lift project exactly onto walks in the base polygon.
    """
    lp = product_with_simplex(h, d)
    extra = lp.extra_dims
    top = (0,) * (extra - 1) + (1,) if extra else ()
    return lp, LiftedPoint(s, tuple(rat(y) for y in top)), LiftedCost(c, top)
