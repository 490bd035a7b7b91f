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
  problem (reduce_three_dm), with a brute-force matching check and an
  exact-sum solver by dynamic programming (brute_force_essr) to cross-check.

Every numeric claim the builders rely on is asserted at construction time;
a violated assumption raises ConstructionError instead of producing a
plausible-looking wrong polygon.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .polytope import (
    HPolygon,
    LiftedPoint,
    LiftedPolytope,
    VPolygon,
    _affine_matrix,
    _hpolygon_of_cycle,
    _map_rows,
    _map_triples,
    h_to_v,
    product_with_simplex,
    v_to_h,
)
# Not called here; the benchmark's traced mode (cwbench/tracing.py) rebinds them in this module.
from .polytope import hull2d, transform_polygon  # noqa: F401
from .ratgeo import (
    AffineMap2,
    Direction2,
    Point2,
    dehomogenize,
    homogeneous,
    primitive_direction,
    pullback_cost,
    rat,
)
from .circuits import LiftedCost, Walk, enumerate_circuits, optimal_value

__all__ = [
    "BadParameter",
    "BadCost",
    "BadInstance",
    "TriviallyInfeasible",
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
    the previous polygon by family_step_map into the right half of a narrow
    strip and restores the two outer vertices (0, 1), (0, -1), adding two
    rows.  The rows and the vertex cycle, w, then the image of the previous
    cycle, then u, are carried together on integers; the cycle check confirms
    that they describe one polygon.  Row entries stay below (8*ell + 1)**ell.
    """
    if ell < 1:
        raise BadParameter("ell must be at least 1")
    rows: list[tuple[int, int, int]] = [(-1, 0, 0), (1, 1, 1), (1, -1, 1)]
    u, w = (0, 1, 1), (0, -1, 1)
    cycle = [w, (1, 0, 1), u]
    for level in range(1, ell):
        mat = _affine_matrix(family_step_map(level))
        # the left wall x >= 0 is the first row, and the squeeze moves it off the polygon
        rows = [(-1, 0, 0), *_map_rows(mat, rows[1:]), (1, 2, 2), (1, -2, 2)]
        cycle = [w, *_map_triples(mat, cycle), u]
    try:
        h = _hpolygon_of_cycle(VPolygon(tuple(cycle)), tuple(rows))
    except ValueError:
        raise ConstructionError("the rows are not the edges of the vertex cycle") from None
    c0 = Direction2(1, 0)
    if h.m != 2 * ell + 1:
        raise ConstructionError("row count drifted from 2*ell + 1")
    # each level adds a vertex at either end, so level 1's (1, 0) stays in the middle
    u, w, t = [Point2(*dehomogenize(cycle[i])) for i in (-1, 0, ell)]
    best, argmax = optimal_value(h, c0)
    if argmax != (t,) or best != t.x:
        raise ConstructionError("t is not the unique rightmost vertex")
    return PellArtifact(ell=ell, h=h, v=h_to_v(h), u=u, w=w, t=t, c0=c0)


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


def brute_force_essr(inst: SubsetSumInstance, r_bound: int):
    """The first multiplicity vector r, 0 <= r_i <= r_bound, in lexicographic
    order with sum r_i a_i == S and sum r_i <= max(k, r_bound); a promise
    violation (sum r_i != k) wins over a feasible witness (sum r_i == k).

    Named after the scan it replaced (cwbench/tracing.py binds the name).  By
    the subset-sum recurrence (Garey and Johnson, SP13), reach[i] maps each sum
    <= S of a_i.. to (low, over): the bitmask of its counts <= k and its least
    count > k.  A weight whose multiplicity cannot bind (r_bound >= S // a_i)
    is added a copy at a time over ascending sums, so the work is linear in S.
    """
    if r_bound < 0:
        raise BadParameter("r_bound must be nonnegative")
    a, S, k = inst.a, inst.S, inst.k
    cap, full = max(k, r_bound), (1 << (k + 1)) - 1
    empty = (0, cap + 1)
    reach = [{0: (1, cap + 1)}]
    for w in reversed(a):
        old, free = reach[0], r_bound >= S // w
        new = dict(old)
        for s in sorted(old):
            low, over = (new if free else old)[s]
            for t in range(s + w, min(S, s + r_bound * w) + 1, w):
                low, over = low << 1 & full, (k if low >> k & 1 else over) + 1
                got = new.get(t, empty)
                new[t] = (got[0] | low, min(got[1], over))
                if free and t in old:
                    break
        reach.insert(0, new)

    def fits(state, used, feasible):  # a count c of state with used + c of the kind
        (low, over), room = state, cap - used
        want = 1 << k - used if used <= k else 0
        return bool(low & want) if feasible else bool(low & (2 << room) - 1 & ~want) or over <= room

    for feasible in (False, True):
        if fits(reach[0].get(S, empty), 0, feasible):
            r, rem = [], S
            for w, table in zip(a, reach[1:]):
                for m in range(min(r_bound, rem // w, cap - sum(r)) + 1):
                    if fits(table.get(rem - m * w, empty), sum(r) + m, feasible):
                        break
                r.append(m)
                rem -= m * w
            return Feasible(tuple(r)) if feasible else PromiseViolated(tuple(r))
    return Infeasible()


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

    triples holds the canonical triples (X, Y, D) of the points v_0 .. v_n.
    All points sit in the lower-right corner of the unit box on or below the
    zero line of the cost; consecutive slopes are exactly a_1 < .. < a_n.
    beta equals 1 when -c.dx >= c.dy, in which case the last point touches
    the box corner (1, 1); assembled reductions always have beta < 1.
    """

    instance: SubsetSumInstance
    cost: Direction2
    beta: Fraction
    triples: tuple[tuple[int, int, int], ...]
    witnesses: tuple[Direction2, ...]


def build_slope_chain(inst: SubsetSumInstance, c: Direction2) -> SlopeChain:
    """Chain v_0 .. v_n with slope a_i between v_{i-1} and v_i.

    Requires an upper-left pointing cost (c.dx < 0 < c.dy).  Each vertex has
    nonpositive cost value and a witness cost maximized uniquely at it.  With
    beta = p/q and T the total weight, v_i is
    (q*T - (n - i)*p, p*(a_1 + .. + a_i), q*T) over its last entry.
    """
    if not (c.dx < 0 < c.dy):
        raise BadCost("need c.dx < 0 < c.dy")
    beta = min(rat(-c.dx, c.dy), rat(1))
    p, q = beta.numerator, beta.denominator
    n = inst.n
    W = q * sum(inst.a)
    t, height = [], 0
    for i in range(n + 1):
        if i:
            height += inst.a[i - 1]
        x, y = W - (n - i) * p, height * p
        g = gcd(x, y, W)
        t.append((x // g, y // g, W // g))
    wits = []
    for i in range(n + 1):
        if i == 0:
            wits.append(primitive_direction(rat(inst.a[0], 2), -1))
        elif i == n:
            wits.append(primitive_direction(2 * inst.a[-1], -1))
        else:
            wits.append(primitive_direction(rat(inst.a[i - 1] + inst.a[i], 2), -1))
    chain = SlopeChain(instance=inst, cost=c, beta=beta, triples=tuple(t), witnesses=tuple(wits))
    _check_slope_chain(chain)
    return chain


def _check_slope_chain(chain: SlopeChain) -> None:
    """The chain's claims, on the triples of its vertices by cross-multiplication."""
    inst, c, t = chain.instance, chain.cost, chain.triples
    for i in range(inst.n):
        (x0, y0, w0), (x1, y1, w1) = t[i], t[i + 1]
        dx, dy = x1 * w0 - x0 * w1, y1 * w0 - y0 * w1
        if dx <= 0:
            raise ConstructionError("chain x-coordinates must increase")
        if dy != inst.a[i] * dx:
            raise ConstructionError(f"slope between v_{i} and v_{i + 1} is not a_{i + 1}")
    for x, y, w in t:
        if c.dx * x + c.dy * y > 0:
            raise ConstructionError("chain point with positive cost value")
        if y > w or (chain.beta < 1 and y >= w):
            raise ConstructionError("chain left the unit box")
    for i, wit in enumerate(chain.witnesses):
        xi, yi, wi = t[i]
        vi = wit.dx * xi + wit.dy * yi
        if any(j != i and (wit.dx * x + wit.dy * y) * wi >= vi * w
               for j, (x, y, w) in enumerate(t)):
            raise ConstructionError(f"witness {i} is not uniquely maximized at v_{i}")


# -- corner transform ----------------------------------------------------------


@dataclass(frozen=True)
class CornerTransform:
    """Affine squeeze of a family polygon into a flat corner near (0, S).

    All image edge slopes are positive and tiny, the image of u is the
    leftmost and lowest point, the image of w the rightmost and highest, and
    the image of t sits at height exactly S.  epsilon is how far w's image
    pokes above S.  triples holds the canonical triples of the images of the
    family polygon's vertices, counterclockwise from w's image to u's image.
    """

    map: AffineMap2
    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    box: Fraction
    s1: Fraction
    epsilon: Fraction
    chain_slopes: tuple[Fraction, ...]
    triples: tuple[tuple[int, int, int], ...]
    t_image: Point2


def build_corner_transform(
    pell: PellArtifact, inst: SubsetSumInstance, C: int
) -> CornerTransform:
    """Rational rotation and two squeezes placing pell's polygon beside (0, S).

    The x-scale alpha keeps the polygon strictly inside the triangle
    conv((0,1), (0,-1), (1/4,0)), so after the sqrt(2)-scaled 135-degree
    rotation [[-1,-1],[1,-1]] every edge except the old left wall has slope
    strictly between 1/3 and 3, and after the y-squeeze beta = 1/(6*C*k)
    strictly between 1/(18*C*k) and 1/(2*C*k).  The maps act on the family
    polygon's vertex triples as integer matrices, and every claim is checked
    on the image triples by cross-multiplication.
    """
    if C < 1:
        raise BadParameter("C must be positive")
    ck = C * inst.k
    if pell.ell != ck:
        raise BadParameter(f"need the level-{ck} family polygon, got level {pell.ell}")
    # pre has positive determinant, so it maps the counterclockwise vertex
    # cycle to the image's; the cycle runs from w to u, and its closing edge,
    # the old left wall, becomes the chord below the chain
    cycle = pell.v.triples
    u, t = homogeneous((pell.u.x, pell.u.y)), homogeneous((pell.t.x, pell.t.y))
    if (cycle[0], cycle[-1]) != (homogeneous((pell.w.x, pell.w.y)), u):
        raise ConstructionError("the family polygon's vertex cycle does not run from w to u")
    # (1 - |y|) / x at the vertices between w and u
    alpha = min(rat(w - abs(y), x) for x, y, w in cycle[1:-1]) / 4
    beta = rat(1, 6 * ck)
    # scaling(1, beta) after the rotation [[-1, -1], [1, -1]] after scaling(alpha, 1)
    pre = AffineMap2(-alpha, -1, alpha * beta, -beta)
    ring = _map_triples(_affine_matrix(pre), cycle)
    slopes = []
    for (x0, y0, w0), (x1, y1, w1) in zip(ring, ring[1:]):
        dx = x1 * w0 - x0 * w1
        if dx == 0:
            raise ConstructionError("chain edge came out vertical")
        slopes.append(rat(y1 * w0 - y0 * w1, dx))
    # 1/(18*C*k) < p/q < 1/(2*C*k), q > 0
    if len(slopes) != 2 * ck or any(
        18 * ck * s.numerator <= s.denominator or 2 * ck * s.numerator >= s.denominator
        for s in slopes
    ):
        raise ConstructionError("image slopes left the open target interval")
    s1 = min(slopes)
    box = (s1 / inst.a[-1]) ** ((ck + 1) // 2 + 1)
    gamma = box / 4
    # scaling(gamma, gamma) after pre, then the shift that puts u's image on
    # x = 0 and t's on y = S
    scaled = AffineMap2(-gamma * alpha, -gamma, gamma * alpha * beta, -gamma * beta)
    (ux, _, uw), (_, ty, tw) = _map_triples(_affine_matrix(scaled), [u, t])
    full = AffineMap2(scaled.m00, scaled.m01, scaled.m10, scaled.m11,
                      rat(-ux, uw), inst.S - rat(ty, tw))
    mat = _affine_matrix(full)
    image = _map_triples(mat, cycle)
    (xw, yw, ww), (xu, yu, wu) = image[0], image[-1]
    xt, yt, wt = _map_triples(mat, [t])[0]
    epsilon = rat(yw - inst.S * ww, ww)
    if not (0 < epsilon <= 2 * gamma * beta and epsilon < box / 2):
        raise ConstructionError("epsilon outside (0, box/2)")
    bn, bd = box.numerator, box.denominator
    if xu != 0 or yt != inst.S * wt or xw * gamma.denominator != 2 * gamma.numerator * ww:
        raise ConstructionError("anchor points landed off their rails")
    for i, (x, y, w) in enumerate(image):
        # 0 <= x < box and |y - S| < box/2
        if not (0 <= x and x * bd < bn * w and 2 * bd * abs(y - inst.S * w) < bn * w):
            raise ConstructionError("image vertex outside the corner window")
        if i != len(image) - 1 and (x * wu <= xu * w or y * wu <= yu * w):
            raise ConstructionError("u's image is not the unique lowest-leftmost point")
        if i and (x * ww >= xw * w or y * ww >= yw * w):
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
        triples=tuple(image),
        t_image=Point2(rat(xt, wt), rat(yt, wt)),
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

    Its counterclockwise vertex cycle is: the origin s, the slope chain along
    the bottom right, the top-right anchor (1, S + epsilon), then the squeezed
    corner polygon beside (0, S) from w's image to u's image.  The cycle is
    joined from the triples of the origin, the chain, the anchor and the
    corner; s and t are the only points built.  Every census claim (vertex
    count, edge count, circuit classes) is asserted before returning.
    """
    if C < 1:
        raise BadParameter("C must be positive")
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
    e, d = corner.epsilon.numerator, corner.epsilon.denominator
    # x rises strictly along the chain and falls strictly along the corner
    # arc, so the cycle winds once and VPolygon's strict turn check proves
    # that every point is a vertex of the hull
    try:
        v = VPolygon(((0, 0, 1), *chain.triples, (d, inst.S * d + e, d), *corner.triples))
    except ValueError:
        raise ConstructionError("some intended vertex fell inside the hull") from None
    if len(v.triples) != inst.n + 2 * ck + 4:
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
    element = tuple([Direction2(1, w) for w in inst.a])
    # the corner map only adds a uniform scaling and a translation to the
    # squeeze that set the chain slopes, so its edges keep those slopes
    corner = sorted(primitive_direction(1, s) for s in red.corner.chain_slopes)
    for g in corner:
        if not (g.dx > 0 and 0 < g.dy and 2 * ck * g.dy < g.dx):
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
    top = tuple([rat(y) for y in (0,) * (extra - 1) + (1,)]) if extra else ()
    return lp, LiftedPoint(s, top), LiftedCost(c, top)
