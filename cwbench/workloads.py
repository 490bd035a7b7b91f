"""The four workloads: seeded task decks, the tasks, and their answer checks.

A deck is a list of task specs made from the seed with the standard library
only; the package is handed nothing but these inputs.  Every expected answer
comes from a source independent of the search: the level ``ell`` for
``family`` and ``lift``, the benchmark's own exact-sum enumeration for
``reduction``, and exit codes plus byte-identical round trips for ``corpus``.

Decks are built from fixed blocks.  A block holds every kind of task of its
workload in fixed shares, so the task-time distribution is the same mixture
for every seed and the median and tail fall inside one kind of task rather
than between two.  The first block of a run is its count window: counts in
the traced run are taken over it and repeat exactly for a seed.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


class Mismatch(Exception):
    """The program answered, but not with the answer known without the search."""


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


# -- inputs made from the seed ---------------------------------------------------


def _random_map(rng) -> tuple[tuple[int, int], ...]:
    """Invertible affine map as six (numerator, denominator) pairs."""
    while True:
        entries = tuple((rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(6))
        m00, m01, m10, m11 = (Fraction(n, d) for n, d in entries[:4])
        if m00 * m11 - m01 * m10 != 0:
            return entries


def _sum_solutions(a: tuple[int, ...], S: int) -> list[tuple[int, ...]]:
    """Every multiplicity vector r >= 0 with sum(r_i * a_i) == S."""
    if len(a) == 1:
        return [(S // a[0],)] if S % a[0] == 0 else []
    out = []
    for r0 in range(S // a[0] + 1):
        out += [(r0,) + rest for rest in _sum_solutions(a[1:], S - r0 * a[0])]
    return out


def _exact_sum(rng, n: int, k: int, feasible: bool | None = None,
               below_top: bool | None = None):
    """Weights below 10 and a target for which the cardinality-k promise holds.

    Returns (a, S, r) with r the lexicographically first witness, or None
    when the instance is infeasible.  feasible and below_top (S below the
    largest weight) select the kind of instance; None accepts either.
    """
    while True:
        a = tuple(sorted(rng.sample(range(1, 10), n)))
        S = rng.randint(1, k * a[-1])
        if below_top is not None and below_top != (S < a[-1]):
            continue
        solutions = _sum_solutions(a, S)
        if any(sum(r) != k for r in solutions):
            continue  # promise violated: a solution of another cardinality
        witness = min(solutions, default=None)
        if feasible is None or feasible == (witness is not None):
            return a, S, witness


def family_deck(rng, blocks: int) -> list[dict]:
    # A level-6 task takes five times a level-5 one: one in six puts the
    # median and the tail on level 5, with level 6 about half of the time.
    return [
        {"ell": ell, "map": _random_map(rng)}
        for _ in range(blocks)
        for ell in (5, 5, 5, 5, 5, 6)
    ]


def lift_deck(rng, blocks: int) -> list[dict]:
    # Level 4 twice as often as level 5: the median falls on level 4 and the
    # tail on level 5.
    kinds = [(4, d) for d in (3, 5, 8)] * 2 + [(5, d) for d in (3, 5, 8)]
    return [
        {"ell": ell, "d": d, "map": _random_map(rng)}
        for _ in range(blocks)
        for ell, d in kinds
    ]


def reduction_deck(rng, blocks: int) -> list[dict]:
    # (n, feasible, target below the largest weight).  A no-walk proof with
    # the target below the largest weight expands the same number of states
    # whatever the weights; other kinds vary.  The shares put the median in
    # the middle of the n=2 proofs of that kind and the tail inside the n=3
    # ones; a third of the tasks are early-exit finds.
    kinds = ((2, True, None), (2, True, None), (3, True, None), (3, True, None),
             (2, False, False), (2, False, True), (2, False, True), (2, False, True),
             (3, False, False), (3, False, True), (3, False, True), (3, False, True))
    deck = []
    for _ in range(blocks):
        for n, feasible, below_top in kinds:
            a, S, witness = _exact_sum(rng, n, 2, feasible, below_top)
            deck.append({"a": a, "S": S, "k": 2, "C": 2, "witness": witness})
    return deck


def _gen_reduction(rng, n: int, k: int, C: int) -> list[str]:
    a, S, _ = _exact_sum(rng, n, k)
    return ["gen-reduction", "--a", ",".join(map(str, a)), "--S", str(S),
            "--k", str(k), "--C", str(C)]


def corpus_deck(rng, blocks: int) -> list[dict]:
    # Thirteen tasks a block: the pipelines for levels 2..10 take fixed,
    # distinct times, so the median falls on the middle of one of them
    # (level 8) rather than between two, and the two C*k = 8 reductions with
    # three weights are the slowest kind, so the tail falls inside them.
    deck = []
    for _ in range(blocks):
        block = [["gen-pell", "--ell", str(ell)] for ell in range(2, 11)]
        k = rng.choice((1, 2))
        block.append(_gen_reduction(rng, rng.choice((2, 3)), k, 6 // k))
        block += [_gen_reduction(rng, n, 2, 4) for n in (2, 3, 3)]
        rng.shuffle(block)
        deck += [{"gen": argv} for argv in block]
    return deck


# -- tasks ----------------------------------------------------------------------------


def _affine(mods, entries):
    return mods.ratgeo.AffineMap2(*(mods.ratgeo.rat(n, d) for n, d in entries))


def family_task(mods, task, workdir) -> None:
    """Certify distance exactly ell from both outer vertices of an affine image."""
    search, ell = mods.search, task["ell"]
    art = mods.constructions.build_p_ell(ell)
    m = _affine(mods, task["map"])
    h = mods.polytope.transform_polygon(m, art.h)
    c = mods.ratgeo.pullback_cost(m, art.c0)
    t = m.apply(art.t)
    for start in (art.u, art.w):
        s = m.apply(start)
        found = search.shortest_monotone_walk(h, s, c, search.SearchConfig(ell))
        _check(isinstance(found, search.Found), f"level {ell}: no walk within {ell}")
        walk = found.walk
        _check(walk.length == ell, f"level {ell}: walk of length {walk.length}")
        _check(walk.start == s and walk.end == t, "walk does not join s to t")
        report = search.is_valid_monotone_walk(h, c, walk)
        _check(bool(report), f"walk rejected: {report.reason}")
        below = search.shortest_monotone_walk(h, s, c, search.SearchConfig(ell - 1))
        _check(isinstance(below, search.NotFoundWithinDepth) and below.depth == ell - 1,
               f"level {ell}: expected no walk within {ell - 1}, got {below!r}")


def lift_task(mods, task, workdir) -> None:
    """Certify distance exactly ell in the simplex lift of an affine image."""
    search, ell, d = mods.search, task["ell"], task["d"]
    art = mods.constructions.build_p_ell(ell)
    m = _affine(mods, task["map"])
    h = mods.polytope.transform_polygon(m, art.h)
    c = mods.ratgeo.pullback_cost(m, art.c0)
    for start in (art.u, art.w):
        lp, s, cost = mods.constructions.lift_instance(h, m.apply(start), c, d)
        found = search.shortest_monotone_walk(lp, s, cost, search.SearchConfig(ell))
        _check(isinstance(found, search.Found), f"d={d}: no lifted walk within {ell}")
        walk = found.walk
        _check(walk.length == ell, f"d={d}: lifted walk of length {walk.length}")
        _check(all(step.kind == "base" for step in walk.steps), "non-base lifted step")
        report = search.is_valid_monotone_walk(lp, cost, walk)
        _check(bool(report), f"lifted walk rejected: {report.reason}")
        below = search.shortest_monotone_walk(lp, s, cost, search.SearchConfig(ell - 1))
        _check(isinstance(below, search.NotFoundWithinDepth) and below.depth == ell - 1,
               f"d={d}: expected no lifted walk within {ell - 1}, got {below!r}")


def reduction_task(mods, task, workdir) -> None:
    """Brute force, build the separation polygon, and search to depth C*k."""
    cons, search = mods.constructions, mods.search
    inst = cons.SubsetSumInstance(a=task["a"], S=task["S"], k=task["k"])
    verdict = cons.brute_force_essr(inst, r_bound=task["S"])
    witness = task["witness"]
    if witness is None:
        _check(isinstance(verdict, cons.Infeasible), f"brute force says {verdict!r}")
    else:
        _check(isinstance(verdict, cons.Feasible) and verdict.r == witness,
               f"brute force says {verdict!r}, expected Feasible({witness})")
    red = cons.build_reduction(inst, task["C"])
    k, ck = task["k"], red.ck
    result = search.shortest_monotone_walk(red.h, red.s, red.c, search.SearchConfig(ck))
    if witness is None:
        _check(isinstance(result, search.NotFoundWithinDepth) and result.depth == ck,
               f"infeasible: expected no walk within {ck}, got {result!r}")
        return
    _check(isinstance(result, search.Found) and result.walk.length <= 2 * k,
           f"feasible: expected a walk of at most {2 * k} steps, got {result!r}")
    _check(result.walk.end == red.t, "walk does not end at t")
    canonical = cons.reduction_witness_walk(red, witness)
    _check(canonical.length == 2 * k, "witness walk is not 2k steps long")
    report = search.is_valid_monotone_walk(red.h, red.c, canonical)
    _check(bool(report), f"witness walk rejected: {report.reason}")


def corpus_task(mods, task, workdir) -> None:
    """One CLI pipeline in-process: generate, approx, verify, render, export."""
    inst, walk = os.path.join(workdir, "inst.cwi"), os.path.join(workdir, "walk.cww")
    commands = [
        task["gen"] + ["-o", inst],
        ["approx", inst, "--depth", "2", "-o", walk],
        ["verify", inst, "--certificate", walk],
        ["render-svg", inst, "--certificate", walk, "-o", os.path.join(workdir, "fig.svg")],
        ["export-lp", inst, "-o", os.path.join(workdir, "inst.lp")],
    ]
    sink = io.StringIO()
    for argv in commands:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = mods.cli.main(argv + ["--quiet"])
        _check(code == 0, f"{argv[0]} exited {code}: {sink.getvalue().strip()!r}")
    fmt = mods.formats
    for path, read, write in ((inst, fmt.read_instance, fmt.write_instance),
                              (walk, fmt.read_walk, fmt.write_walk)):
        with open(path) as fh:
            text = fh.read()
        _check(write(read(text)) == text, f"{os.path.basename(path)} round trip differs")


@dataclass(frozen=True)
class Workload:
    make_deck: Callable
    run: Callable
    blocks: int  # deck length in blocks; a run cycles the deck if it gets through it
    tail_pct: int  # task_s_tail percentile: at least ten tasks beyond it in a run


WORKLOADS = {
    "family": Workload(family_deck, family_task, blocks=12, tail_pct=70),
    "reduction": Workload(reduction_deck, reduction_task, blocks=10, tail_pct=80),
    "lift": Workload(lift_deck, lift_task, blocks=24, tail_pct=90),
    "corpus": Workload(corpus_deck, corpus_task, blocks=20, tail_pct=92),
}
