"""Line-based text formats: instances ("cwi 1"), walks ("cww 1"), exact-sum
instances ("essr 1") and three-dimensional matching instances ("3dm 1").

Rationals are always written as 'p' or 'p/q', never as decimals, so files
round-trip exactly.  Writers emit canonical form (integer rows, primitive
cost and steps); reading a canonical file and writing it again reproduces it
byte for byte.

Integer fields, integer row entries included, are read as int; a 'p/q' row
entry is read as a Fraction and canonicalised with its row by HPolygon.

Every reader reads through one line reader and raises ParseError, and
nothing else, on a malformed file.  Its line number is the physical line of
the text (the first is 1), or one past the last line when the file ends early.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .constructions import SubsetSumInstance, ThreeDMInstance
from .polytope import HPolygon
from .ratgeo import Direction2, Point2, format_rational, parse_rational, primitive_direction
from .search import Walk

__all__ = ["ParseError", "InstanceFile", "write_instance", "read_instance",
           "write_walk", "read_walk", "write_essr", "read_essr", "read_three_dm"]


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class InstanceFile:
    """A polygon walk instance: geometry, cost, start, optional target.

    meta holds free-form (key, value) pairs that solvers ignore.
    """

    polygon: HPolygon
    cost: Direction2
    start: Point2
    target: Point2 | None = None
    meta: tuple[tuple[str, str], ...] = field(default=())


def write_instance(inst: InstanceFile) -> str:
    out = ["cwi 1", "dim 2", f"rows {inst.polygon.m}"]
    for a1, a2, b in inst.polygon.rows:
        out.append(f"{a1} {a2} {b}")
    out.append(f"cost {inst.cost.dx} {inst.cost.dy}")
    out.append(f"start {format_rational(inst.start.x)} {format_rational(inst.start.y)}")
    if inst.target is not None:
        out.append(
            f"target {format_rational(inst.target.x)} {format_rational(inst.target.y)}"
        )
    for key, value in inst.meta:
        out.append(f"meta {key} {value}" if value else f"meta {key}")
    return "\n".join(out) + "\n"


class _Lines:
    """The physical lines of a text, numbered from 1 and read in order."""

    def __init__(self, text: str):
        self.numbered = list(enumerate(text.splitlines(), start=1))
        self.end = len(self.numbered) + 1
        self.pos = 0
        self.line_no = 0  # the line last returned by next()

    def next(self, what: str) -> str:
        if self.pos >= len(self.numbered):
            raise ParseError(self.end, f"unexpected end of file, wanted {what}")
        self.line_no, line = self.numbered[self.pos]
        self.pos += 1
        if not line.strip():
            raise ParseError(self.line_no, "blank line")
        return line

    def peek(self) -> str | None:
        return self.numbered[self.pos][1] if self.pos < len(self.numbered) else None

    def done(self) -> None:
        if self.pos < len(self.numbered):
            no, line = self.numbered[self.pos]
            raise ParseError(no, f"trailing content: {line!r}")


def _numbers(lines: _Lines, line: str, prefix: str, count: int | None,
             parse=parse_rational) -> list:
    """The `count` numbers (any number if None) after `prefix` on the line just read."""
    parts = line.split()
    if prefix:
        if parts[:1] != [prefix]:
            raise ParseError(lines.line_no, f"expected {prefix!r} line, got {line!r}")
        parts = parts[1:]
    if count is not None and len(parts) != count:
        raise ParseError(lines.line_no, f"expected {count} numbers in {line!r}")
    try:
        return [parse(p) for p in parts]
    except ValueError as exc:
        raise ParseError(lines.line_no, str(exc)) from None


def _count(text: str) -> int:
    """A nonnegative count, written in ASCII digits only."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected a count, got {text!r}")
    return int(text)


_INTEGER_TEXT = re.compile(r"[+-]?\d+\Z", re.ASCII)


def _integer(text: str) -> int:
    """An integer in parse_rational's grammar: ASCII digits after an optional sign."""
    if not _INTEGER_TEXT.match(text):
        raise ValueError(f"not an integer literal: {text!r}")
    return int(text)


def _row_entry(text: str):
    """A row entry: an int when written as an integer, else parse_rational's Fraction."""
    return int(text) if _INTEGER_TEXT.match(text) else parse_rational(text)


def _record(line_no: int, build, *args, prefix: str = ""):
    """build(*args), its ValueError reported as a ParseError at line_no."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ParseError(line_no, f"{prefix}{exc}") from None


def read_instance(text: str) -> InstanceFile:
    lines = _Lines(text)
    if lines.next("header").strip() != "cwi 1":
        raise ParseError(lines.line_no, "not a 'cwi 1' file")
    if lines.next("dim").strip() != "dim 2":
        raise ParseError(lines.line_no, "only 'dim 2' is supported")
    (m,) = _numbers(lines, lines.next("'rows <n>'"), "rows", 1, _count)
    rows_at = lines.line_no
    rows = []
    for _ in range(m):
        row = tuple(_numbers(lines, lines.next("row"), "", 3, _row_entry))
        if not (row[0] or row[1]):
            raise ParseError(lines.line_no, "bad polygon: row has zero normal")
        rows.append(row)
    cx, cy = _numbers(lines, lines.next("cost"), "cost", 2)
    cost = _record(lines.line_no, primitive_direction, cx, cy)
    sx, sy = _numbers(lines, lines.next("start"), "start", 2)
    target = None
    meta = []
    if (lines.peek() or "").split()[:1] == ["target"]:
        tx, ty = _numbers(lines, lines.next("target"), "target", 2)
        target = Point2(tx, ty)
    while lines.peek() is not None:
        line = lines.next("meta")
        parts = line.split(" ", 2)
        if parts[0] != "meta" or len(parts) < 2:
            raise ParseError(lines.line_no, f"expected 'meta <key> [value]', got {line!r}")
        meta.append((parts[1], parts[2] if len(parts) == 3 else ""))
    return InstanceFile(
        polygon=_record(rows_at, HPolygon, tuple(rows), prefix="bad polygon: "),
        cost=cost,
        start=Point2(sx, sy),
        target=target,
        meta=tuple(meta),
    )


def write_walk(w: Walk) -> str:
    out = ["cww 1", f"points {len(w.points)}"]
    for p in w.points:
        out.append(f"{format_rational(p.x)} {format_rational(p.y)}")
    for g in w.steps:
        out.append(f"step {g.dx} {g.dy}")
    return "\n".join(out) + "\n"


def read_walk(text: str) -> Walk:
    lines = _Lines(text)
    if lines.next("header").strip() != "cww 1":
        raise ParseError(lines.line_no, "not a 'cww 1' file")
    (n,) = _numbers(lines, lines.next("'points <n>'"), "points", 1, _count)
    points_at = lines.line_no
    points = []
    for _ in range(n):
        x, y = _numbers(lines, lines.next("point"), "", 2)
        points.append(Point2(x, y))
    steps = []
    for _ in range(n - 1):
        dx, dy = _numbers(lines, lines.next("step"), "step", 2, _integer)
        steps.append(_record(lines.line_no, Direction2, dx, dy))
    lines.done()
    return _record(points_at, Walk, tuple(points), tuple(steps))


def write_essr(inst: SubsetSumInstance) -> str:
    return (
        "essr 1\n"
        f"n {inst.n}\n"
        f"a {' '.join(str(w) for w in inst.a)}\n"
        f"S {inst.S}\n"
        f"k {inst.k}\n"
    )


def read_essr(text: str) -> SubsetSumInstance:
    """The header, then the lines 'n', 'a', 'S' and 'k' once each, in any order."""
    lines = _Lines(text)
    if lines.next("header").strip() != "essr 1":
        raise ParseError(lines.line_no, "not an 'essr 1' file")
    fields = {}
    for _ in range(4):
        line = lines.next("'n', 'a', 'S' or 'k' line")
        key = line.split()[0]
        if key not in ("n", "a", "S", "k") or key in fields:
            raise ParseError(lines.line_no, f"expected each of n, a, S, k once, got {line!r}")
        values = _numbers(lines, line, key, None if key == "a" else 1, _integer)
        fields[key] = (lines.line_no, values)
    lines.done()
    (_, (n,)), (a_at, a), (S_at, (S,)), (k_at, (k,)) = (fields[key] for key in "naSk")
    if len(a) != n:
        raise ParseError(a_at, f"'a' lists {len(a)} weights, 'n' says {n}")
    # Build field by field, so each check fails at its own line; S = k = 1 are valid.
    _record(a_at, SubsetSumInstance, tuple(a), 1, 1)
    _record(S_at, SubsetSumInstance, tuple(a), S, 1)
    return _record(k_at, SubsetSumInstance, tuple(a), S, k)


def read_three_dm(text: str) -> ThreeDMInstance:
    """The header, 'n <elements>', then one 'i j h' triple per line; blank lines skipped."""
    lines = _Lines(text)
    lines.numbered = [(no, line) for no, line in lines.numbered if line.strip()]
    if lines.next("header").strip() != "3dm 1":
        raise ParseError(lines.line_no, "not a '3dm 1' file")
    (n,) = _numbers(lines, lines.next("'n <elements>'"), "n", 1, _integer)
    n_at = lines.line_no
    triples = []
    while lines.peek() is not None:
        triples.append(tuple(_numbers(lines, lines.next("triple"), "", 3, _integer)))
    return _record(n_at, ThreeDMInstance, n, tuple(triples))
