"""Span tracer for the traced run of the benchmark.

Spans are taken from the benchmark's own files.  Each public function of a
layer is rebound, in the namespace of the module that calls it, to a wrapper
that opens a span, calls the original and closes the span; nothing under
``src/`` is edited.  The layer of a span is the module that defines the
function.  Each span records a name, a start, an end, its parent span and the
task id; spans stay in memory until ``write_spans`` runs at the end.

Counts (states expanded, moves, duplicate hits, zero-length steps, bit
lengths) are taken inside the same wrappers.  Their bookkeeping time is
charged to no layer: it is added to the parent span's child time, so the
parent's self time stays the program's own work.
"""

from __future__ import annotations

import itertools
import time

SOLVE = "search.shortest_monotone_walk"

# (calling module, imported name, group).  A group's first part is the layer
# that defines the function.  Busy time of a group counts only its outermost
# spans, so a group nested in itself (build_p_ell inside build_reduction) is
# not counted twice.
BINDINGS = (
    ("search", "shortest_monotone_walk", "search.solve"),
    ("cli", "shortest_monotone_walk", "search.solve"),
    ("search", "approx_monotone_walk", "search.approx"),
    ("cli", "approx_monotone_walk", "search.approx"),
    ("search", "is_valid_monotone_walk", "search.validate"),
    ("cli", "is_valid_monotone_walk", "search.validate"),
    ("search", "max_step", "circuits.max_step"),
    ("search", "lifted_max_step", "circuits.lifted"),
    ("search", "lifted_move", "circuits.lifted"),
    ("search", "enumerate_circuits", "circuits.setup"),
    ("search", "monotone_directions", "circuits.setup"),
    ("search", "optimal_value", "circuits.setup"),
    ("search", "enumerate_lifted_circuits", "circuits.setup"),
    ("search", "monotone_lifted_directions", "circuits.setup"),
    ("search", "lifted_optimal_value", "circuits.setup"),
    ("constructions", "enumerate_circuits", "circuits.setup"),
    ("constructions", "optimal_value", "circuits.setup"),
    ("search", "monotone_edge_walk", "circuits.edge_walk"),
    ("formats", "HPolygon", "polytope.hpolygon"),
    ("constructions", "HPolygon", "polytope.hpolygon"),
    ("polytope", "HPolygon", "polytope.hpolygon"),
    ("polytope", "transform_polygon", "polytope.transform"),
    ("constructions", "transform_polygon", "polytope.transform"),
    ("constructions", "hull2d", "polytope.hull"),
    ("constructions", "v_to_h", "polytope.hull"),
    ("constructions", "build_p_ell", "constructions.build"),
    ("cli", "build_p_ell", "constructions.build"),
    ("constructions", "build_reduction", "constructions.build"),
    ("cli", "build_reduction", "constructions.build"),
    ("constructions", "lift_instance", "constructions.build"),
    ("constructions", "reduction_witness_walk", "constructions.build"),
    ("constructions", "brute_force_essr", "constructions.brute_force"),
    ("cli", "brute_force_essr", "constructions.brute_force"),
    ("formats", "read_instance", "formats.read"),
    ("cli", "read_instance", "formats.read"),
    ("formats", "read_walk", "formats.read"),
    ("cli", "read_walk", "formats.read"),
    ("formats", "write_instance", "formats.write"),
    ("cli", "write_instance", "formats.write"),
    ("formats", "write_walk", "formats.write"),
    ("cli", "write_walk", "formats.write"),
    ("cli", "svg_document", "render.svg"),
    ("cli", "lp_document", "render.lp"),
    ("cli", "main", "cli.main"),
)

LAYERS = ("search", "circuits", "polytope", "constructions", "formats", "render", "cli")
GROUPS = tuple(dict.fromkeys(group for _, _, group in BINDINGS))
COUNTS = ("states", "moves", "dups", "zero_steps", "lifted_tries", "bits_sum",
          "bits_max", "row_bits_max", "bytes")


def _rat_bits(q) -> int:
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


def _point_key(p):
    """Exact, cheaply hashed identity of a planar or lifted search state."""
    if hasattr(p, "base"):
        return _point_key(p.base) + tuple(
            (y.numerator, y.denominator) for y in p.simplex
        )
    return (p.x.numerator, p.x.denominator, p.y.numerator, p.y.denominator)


def _point_bits(p) -> int:
    if hasattr(p, "base"):
        return max([_point_bits(p.base)] + [_rat_bits(y) for y in p.simplex])
    return max(_rat_bits(p.x), _rat_bits(p.y))


class Tracer:
    """Rebinds the names in BINDINGS while installed and aggregates spans."""

    def __init__(self, mods):
        self.mods = mods
        self.spans: list[tuple] = []
        self.task_id = None
        self.stack: list[list] = []  # open spans: [span id, child seconds, name]
        self.busy = dict.fromkeys(GROUPS, 0.0)
        self.calls = dict.fromkeys(GROUPS, 0)
        self.depth = dict.fromkeys(GROUPS, 0)
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self._ids = itertools.count(1)
        self._seen: set = set()
        self._last = None
        after = {
            "max_step": self._after_step,
            "lifted_max_step": self._after_lifted_step,
            "lifted_move": self._after_lifted_move,
            "build_p_ell": self._after_build,
            "build_reduction": self._after_build,
            "read_instance": self._after_read,
            "read_walk": self._after_read,
            "write_instance": self._after_write,
            "write_walk": self._after_write,
        }
        self._wrappers = []
        for module, attr, group in BINDINGS:
            original = getattr(getattr(mods, module), attr)
            name = f"{group.partition('.')[0]}.{attr}"
            before = self._before_solve if name == SOLVE else None
            wrapper = self._wrap(original, name, group, before, after.get(attr))
            self._wrappers.append((module, attr, original, wrapper))
        self._wrappers.append(
            ("search", "Point2", mods.search.Point2, self._point_factory(mods.search.Point2))
        )

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module, attr, _original, wrapper in self._wrappers:
            setattr(getattr(self.mods, module), attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _wrapper in self._wrappers:
            setattr(getattr(self.mods, module), attr, original)

    # -- spans ----------------------------------------------------------------

    def _wrap(self, fn, name, group, before, after):
        layer = group.partition(".")[0]
        spans, stack = self.spans, self.stack
        busy, calls, depth, self_time = self.busy, self.calls, self.depth, self.self_time
        ids, clock, tracer = self._ids, time.perf_counter, self

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            span_id = next(ids)
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0, name]
            stack.append(frame)
            depth[group] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[group] -= 1
                duration = end - start
                if not depth[group]:
                    busy[group] += duration
                calls[group] += 1
                self_time[layer] += duration - frame[1]
                spans.append((span_id, name, start, end,
                              parent[0] if parent else 0, tracer.task_id))
                if parent is not None:
                    parent[1] += duration
            if after is not None:
                mark = clock()
                after(parent, args, result)
                if parent is not None:
                    parent[1] += clock() - mark
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counting hooks ------------------------------------------------------

    def _before_solve(self, args) -> None:
        self._seen = {_point_key(args[1])}
        self._last = None

    def _expand(self, p) -> None:
        if p is not self._last:
            self._last = p
            bits = _point_bits(p)
            counts = self.counts
            counts["states"] += 1
            counts["bits_sum"] += bits
            if bits > counts["bits_max"]:
                counts["bits_max"] = bits

    def _move(self, q) -> None:
        key = _point_key(q)
        self.counts["moves"] += 1
        if key in self._seen:
            self.counts["dups"] += 1
        else:
            self._seen.add(key)

    def _after_step(self, parent, args, lam) -> None:
        if lam == 0:
            self.counts["zero_steps"] += 1
        if parent is not None and parent[2] == SOLVE:
            self._expand(args[1])

    def _after_lifted_step(self, parent, args, lam) -> None:
        self.counts["lifted_tries"] += 1
        self._after_step(parent, args, lam)

    def _after_lifted_move(self, parent, args, q) -> None:
        if parent is not None and parent[2] == SOLVE and q:
            self._move(q)

    def _after_build(self, parent, args, result) -> None:
        bits = max(abs(e).bit_length() for row in result.h.rows for e in row)
        if bits > self.counts["row_bits_max"]:
            self.counts["row_bits_max"] = bits

    def _after_read(self, parent, args, result) -> None:
        self.counts["bytes"] += len(args[0])

    def _after_write(self, parent, args, result) -> None:
        self.counts["bytes"] += len(result)

    def _point_factory(self, point_cls):
        """Stand-in for search.Point2 that records successor moves of a search."""
        stack, clock = self.stack, time.perf_counter

        def point(x, y):
            p = point_cls(x, y)
            top = stack[-1] if stack else None
            if top is not None and top[2] == SOLVE:
                mark = clock()
                self._move(p)
                top[1] += clock() - mark
            return p

        return point

    # -- results --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Counts so far: the exactly repeatable part of the trace."""
        snap = dict(self.counts)
        snap.update({f"calls:{g}": n for g, n in self.calls.items()})
        snap["spans"] = len(self.spans)
        return snap

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,name,start,end,parent,task\n")
            for span_id, name, start, end, parent, task in self.spans:
                fh.write(f"{span_id},{name},{start!r},{end!r},{parent},{task}\n")
