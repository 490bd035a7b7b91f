"""Exact rational scalars and the small planar types everything else builds on.

All geometry in this package is exact: scalars are ``fractions.Fraction``,
never floats.  The walk search and every maximal step, in any dimension, run
on Python integers instead; rationals serve the constructions, the file
formats and the points that walks carry.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "BACKEND",
    "rat",
    "parse_rational",
    "format_rational",
    "Point2",
    "Direction2",
    "primitive_direction",
    "homogeneous",
    "dehomogenize",
    "AffineMap2",
    "SingularMap",
    "pullback_cost",
]

# Fixed; kept because the benchmark harness prints it in its banner.
BACKEND = "fractions"

# The one rational type under its short name; plain ints work wherever one is expected.
rat = Fraction


_RATIONAL_TEXT = re.compile(r"[+-]?\d+(?:/\d+)?\Z")


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' (ASCII, q positive).  Raises ValueError otherwise."""
    if not _RATIONAL_TEXT.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    num, _, den = text.partition("/")
    d = int(den or 1)
    if d == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(int(num), d)


def format_rational(q: Fraction) -> str:
    """Canonical text for a rational: 'p' when integral, else 'p/q'."""
    n, d = q.numerator, q.denominator
    return str(n) if d == 1 else f"{n}/{d}"


@dataclass(frozen=True, order=True)
class Point2:
    """Exact point in the plane.  Ordering is lexicographic (x, then y)."""

    x: Fraction
    y: Fraction


@dataclass(frozen=True, order=True)
class Direction2:
    """Primitive integer direction: coprime components, not both zero.

    Signed: (1, -2) and (-1, 2) are distinct values describing opposite
    orientations of the same line.  Use canonical() when a set of undirected
    circuit directions is wanted.
    """

    dx: int
    dy: int

    def __post_init__(self) -> None:
        if self.dx == 0 and self.dy == 0:
            raise ValueError("direction must be nonzero")
        if gcd(self.dx, self.dy) != 1:
            raise ValueError(f"({self.dx}, {self.dy}) is not primitive")

    def canonical(self) -> "Direction2":
        """The lexicographically positive one of {g, -g}."""
        if self.dx > 0 or (self.dx == 0 and self.dy > 0):
            return self
        return Direction2(-self.dx, -self.dy)

    def flipped(self) -> "Direction2":
        return Direction2(-self.dx, -self.dy)


def primitive_direction(rx: Fraction, ry: Fraction) -> Direction2:
    """Scale (rx, ry) by a positive rational down to a primitive int pair.

    Positive scaling only, so orientation survives; this is what keeps
    pulled-back costs pointing the right way.
    """
    if rx == 0 and ry == 0:
        raise ValueError("zero vector has no direction")
    m = lcm(rx.denominator, ry.denominator)
    nx = rx.numerator * (m // rx.denominator)
    ny = ry.numerator * (m // ry.denominator)
    g = gcd(nx, ny)
    return Direction2(nx // g, ny // g)


def homogeneous(coords) -> tuple[int, ...]:
    """Rational coordinates as the state (x_1, .., x_d, D) for x/D, D > 0 and gcd 1."""
    D = lcm(*(q.denominator for q in coords))
    return tuple(q.numerator * (D // q.denominator) for q in coords) + (D,)


def dehomogenize(state) -> tuple[Fraction, ...]:
    """Rational coordinates of the state (x_1, .., x_d, D)."""
    D = state[-1]
    return tuple(Fraction(x, D) for x in state[:-1])


class SingularMap(ValueError):
    """Affine map with determinant zero where an inverse is required."""


@dataclass(frozen=True)
class AffineMap2:
    """Invertible-or-not affine map x -> H x + t, H = [[m00, m01], [m10, m11]]."""

    m00: Fraction
    m01: Fraction
    m10: Fraction
    m11: Fraction
    tx: Fraction = 0
    ty: Fraction = 0

    @classmethod
    def identity(cls) -> "AffineMap2":
        return cls(1, 0, 0, 1)

    @classmethod
    def scaling(cls, sx: Fraction, sy: Fraction) -> "AffineMap2":
        return cls(sx, 0, 0, sy)

    @classmethod
    def translation(cls, dx: Fraction, dy: Fraction) -> "AffineMap2":
        return cls(1, 0, 0, 1, dx, dy)

    @property
    def det(self) -> Fraction:
        return self.m00 * self.m11 - self.m01 * self.m10

    def apply(self, p: Point2) -> Point2:
        return Point2(
            self.m00 * p.x + self.m01 * p.y + self.tx,
            self.m10 * p.x + self.m11 * p.y + self.ty,
        )

    def apply_vector(self, vx: Fraction, vy: Fraction) -> tuple[Fraction, Fraction]:
        """Linear part only; translations do not act on directions."""
        return (self.m00 * vx + self.m01 * vy, self.m10 * vx + self.m11 * vy)

    def compose(self, inner: "AffineMap2") -> "AffineMap2":
        """self after inner: (self.compose(inner)).apply(p) == self.apply(inner.apply(p))."""
        return AffineMap2(
            self.m00 * inner.m00 + self.m01 * inner.m10,
            self.m00 * inner.m01 + self.m01 * inner.m11,
            self.m10 * inner.m00 + self.m11 * inner.m10,
            self.m10 * inner.m01 + self.m11 * inner.m11,
            self.m00 * inner.tx + self.m01 * inner.ty + self.tx,
            self.m10 * inner.tx + self.m11 * inner.ty + self.ty,
        )

    def inverse(self) -> "AffineMap2":
        d = self.det
        if d == 0:
            raise SingularMap("map is not invertible")
        i00 = self.m11 / d
        i01 = -self.m01 / d
        i10 = -self.m10 / d
        i11 = self.m00 / d
        return AffineMap2(
            i00,
            i01,
            i10,
            i11,
            -(i00 * self.tx + i01 * self.ty),
            -(i10 * self.tx + i11 * self.ty),
        )


def pullback_cost(m: AffineMap2, c: Direction2) -> Direction2:
    """Cost for the image polygon that ranks H x + t exactly like c ranks x.

    This is (H^-1)^T c reduced to a primitive direction; the reduction scales
    by a positive rational only, so monotone walks stay monotone rather than
    silently reversing.
    """
    inv = m.inverse()
    return primitive_direction(
        inv.m00 * c.dx + inv.m10 * c.dy,
        inv.m01 * c.dx + inv.m11 * c.dy,
    )
