"""Command line interface.

Exit codes: 0 success / walk found; 10 no walk within the depth bound;
11 node cap exceeded (solve, or a verify suite, which runs its searches at the
size asked for and reports a check the cap cut short as inconclusive); 2 a
missing file, or a malformed file of any format, such as one that is not UTF-8
text (the message names its physical line); 1 failed check or bad parameters.
Every command accepts --quiet (suppress informational output); every command
is deterministic.

The parser is built once per process, on first use, and shared: argparse
makes a HelpFormatter for every argument it adds, so building the parser of
all eight commands takes about 1.4 ms and parsing with it about 0.05 ms (on
2 cores with Python 3.11), while each level-8 pipeline command runs in
0.4-0.9 ms with the parser built.  Callers that run main() many times in one
process, such as the test suite, build it once.

An output file (-o) is written over in place and cut to length, not opened with
O_TRUNC: ext4 flushes a file truncated to zero and rewritten when it is closed
(auto_da_alloc), so overwriting a corpus task's 0.9-2.9 KB files took a median
56 us per file with open(path, "w") and 10.4 us in place (ext4, 2 cores; 14-15
us either way on tmpfs).  A target that is not a regular file is not cut.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import stat
import sys

from .circuits import enumerate_circuits, enumerate_lifted_circuits, optimal_value
from .constructions import (
    ConstructionError,
    Feasible,
    PromiseViolated,
    SubsetSumInstance,
    ThreeDMInstance,
    brute_force_essr,
    build_p_ell,
    build_reduction,
    classify_reduction_circuits,
    compute_gap_C,
    lift_instance,
    reduce_three_dm,
    reduction_witness_walk,
    three_dm_has_perfect_matching,
)
from .formats import (InstanceFile, ParseError, _integer, read_essr, read_instance,
                      read_three_dm, read_walk, write_essr, write_instance, write_walk)
from .polytope import LiftedPoint
from .ratgeo import format_rational, rat
from .render import lp_document, svg_document
from .search import (
    NODE_CAP,
    Found,
    NodeCapExceeded,
    NotFoundWithinDepth,
    SearchConfig,
    approx_monotone_walk,
    is_valid_monotone_walk,
    shortest_monotone_walk,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_NOT_FOUND = 10
EXIT_NODE_CAP = 11


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _emit(args, text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        # in place, then cut to length: no O_TRUNC, so no flush on close (see above)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
        _say(args, f"wrote {path}")


def _read_file(path: str) -> str:
    """The file as strict UTF-8, whatever the locale; a bad byte is a ParseError at its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len((data[:exc.start].decode("utf-8") + "\ufffd").splitlines())
        raise ParseError(line_no, f"not UTF-8 text: byte {data[exc.start]:#04x}") from None


# -- generation commands ---------------------------------------------------------


def cmd_gen_pell(args) -> int:
    art = build_p_ell(args.ell)
    inst = InstanceFile(
        polygon=art.h,
        cost=art.c0,
        start=art.u,
        target=art.t,
        meta=(("kind", "family"), ("ell", str(args.ell))),
    )
    _emit(args, write_instance(inst), args.output)
    return EXIT_OK


def _int(text: str) -> int:
    """The argparse type of every integer option: an integer as a file reads one."""
    try:
        return _integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _weights(text: str) -> tuple[int, ...]:
    """The argparse type of --a: comma-separated integer weights, such as 2,3."""
    try:
        return tuple([_integer(x) for x in text.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _essr_from_args(args) -> SubsetSumInstance:
    inline = [f"--{name}" for name in ("a", "S", "k") if getattr(args, name) is not None]
    if args.essr is not None:
        if inline:
            raise ValueError(f"--essr takes no --a, --S or --k, but got {', '.join(inline)}")
        return read_essr(_read_file(args.essr))
    if len(inline) < 3:
        raise ValueError("give --a, --S and --k, or --essr FILE")
    return SubsetSumInstance(a=args.a, S=args.S, k=args.k)


def cmd_gen_reduction(args) -> int:
    if args.auto_C and args.C is not None:
        raise ValueError("--auto-C derives C, so it takes no --C")
    if args.eps_inv is not None and not args.auto_C:
        raise ValueError("--eps-inv is read only with --auto-C")
    inst = _essr_from_args(args)
    if args.auto_C:
        C = compute_gap_C(2 if args.eps_inv is None else args.eps_inv, inst.n, inst.k)
        _say(args, f"auto gap constant: C = {C}")
    elif args.C is not None:
        C = args.C
    else:
        raise ValueError("give --C or --auto-C")
    red = build_reduction(inst, C)
    meta = [
        ("kind", "reduction"),
        ("a", ",".join(str(w) for w in inst.a)),
        ("S", str(inst.S)),
        ("k", str(inst.k)),
        ("C", str(C)),
        ("epsilon", format_rational(red.epsilon)),
    ]
    outcome = brute_force_essr(inst, r_bound=inst.S)
    if isinstance(outcome, PromiseViolated):
        print(
            f"warning: promise violated by multiplicities {outcome.r}; "
            "the distance gap is not guaranteed",
            file=sys.stderr,
        )
        meta.append(("promise", f"violated {','.join(str(m) for m in outcome.r)}"))
    out = InstanceFile(
        polygon=red.h, cost=red.c, start=red.s, target=red.t, meta=tuple(meta)
    )
    _emit(args, write_instance(out), args.output)
    return EXIT_OK


def cmd_gen_3dm(args) -> int:
    inst = read_three_dm(_read_file(args.input))
    essr = reduce_three_dm(inst)
    _emit(args, write_essr(essr), args.output)
    return EXIT_OK


# -- solving commands -------------------------------------------------------------


def cmd_solve(args) -> int:
    inst = read_instance(_read_file(args.instance))
    cfg = SearchConfig(max_depth=args.max_depth, node_cap=args.node_cap)
    result = shortest_monotone_walk(inst.polygon, inst.start, inst.cost, cfg)
    if isinstance(result, Found):
        walk = result.walk
        _say(args, f"found a monotone walk of length {walk.length}")
        if args.output:
            _emit(args, write_walk(walk), args.output)
        return EXIT_OK
    if isinstance(result, NodeCapExceeded):
        _say(
            args,
            f"gave up after discovering {result.discovered} states; no monotone walk "
            f"of at most {result.completed_depth} steps reaches the optimum",
        )
        return EXIT_NODE_CAP
    _say(args, f"no monotone walk of at most {result.depth} steps reaches the optimum")
    return EXIT_NOT_FOUND


def cmd_approx(args) -> int:
    inst = read_instance(_read_file(args.instance))
    walk = approx_monotone_walk(
        inst.polygon, inst.start, inst.cost, args.depth, node_cap=args.node_cap
    )
    _say(args, f"walk of length {walk.length} reaches the optimum")
    if args.output:
        _emit(args, write_walk(walk), args.output)
    return EXIT_OK


# -- verification -----------------------------------------------------------------


class _Report:
    def __init__(self, quiet: bool):
        self.quiet = quiet
        self.failures = 0
        self.inconclusive = 0

    def check(self, ok: bool, label: str) -> bool:
        if not ok:
            self.failures += 1
            print(f"[FAIL] {label}")
        elif not self.quiet:
            print(f"[ok]   {label}")
        return ok

    def search(self, label: str, ok, *queries):
        """Run each (h, s, c, depth) search under the default node cap, then
        check(ok(*results), label) and return the results.  A search that the
        cap cuts short makes the check inconclusive, never passed: its line names
        the depth the search did rule out, and None is returned."""
        results = []
        for h, s, c, depth in queries:
            result = shortest_monotone_walk(h, s, c, SearchConfig(depth))
            if isinstance(result, NodeCapExceeded):
                self.inconclusive += 1
                print(f"[??]   {label}: inconclusive, the node cap cut a search short; "
                      f"it ruled out walks of at most {result.completed_depth} steps")
                return None
            results.append(result)
        self.check(ok(*results), label)
        return results

    def info(self, label: str) -> None:
        if not self.quiet:
            print(f"[info] {label}")

    @property
    def exit_code(self) -> int:
        if self.failures:
            return EXIT_FAIL
        return EXIT_NODE_CAP if self.inconclusive else EXIT_OK


def _verify_certificate(args, rep: _Report) -> None:
    inst = read_instance(_read_file(args.instance))
    walk = read_walk(_read_file(args.certificate))
    rep.check(walk.start == inst.start, "walk starts at the instance start point")
    result = is_valid_monotone_walk(inst.polygon, inst.cost, walk)
    rep.check(
        bool(result),
        "walk is a valid monotone circuit walk"
        + ("" if result else f" ({result.reason}, step {result.step})"),
    )
    if inst.target is not None:
        rep.check(walk.end == inst.target, "walk ends at the instance target")
    c, end = inst.cost, walk.end
    rep.check(
        c.dx * end.x + c.dy * end.y == optimal_value(inst.polygon, c)[0],
        "walk ends at a cost-maximal point",
    )
    rep.info(f"walk length {walk.length}")


def _verify_pell(args, rep: _Report) -> None:
    ell = args.ell
    art = build_p_ell(ell)
    rep.check(art.h.m == 2 * ell + 1, f"level {ell}: polygon has {2 * ell + 1} rows")
    bound = (8 * ell + 1) ** ell
    rep.check(
        max(abs(e) for row in art.h.rows for e in row) <= bound,
        f"level {ell}: row entries bounded by (8*ell+1)**ell = {bound}",
    )
    ring = art.v.vertices
    pos = {v: i for i, v in enumerate(ring)}
    gap = abs(pos[art.u] - pos[art.w])
    rep.check(gap in (1, len(ring) - 1), "outer vertices u and w are adjacent")
    rep.check(
        all(v.x > 0 and -1 < v.y < 1 for v in ring if v not in (art.u, art.w)),
        "all other vertices lie strictly inside the unit strip",
    )
    for name, start in (("u", art.u), ("w", art.w)):
        rep.search(f"level {ell}: shortest monotone walk from {name} has exactly {ell} steps",
                   lambda r: isinstance(r, Found) and r.walk.length == ell,
                   (art.h, start, art.c0, ell))
        rep.search(f"level {ell}: no walk from {name} with {ell - 1} steps",
                   lambda r: isinstance(r, NotFoundWithinDepth), (art.h, start, art.c0, ell - 1))


def _verify_reduction(args, rep: _Report) -> None:
    inst = SubsetSumInstance(a=args.a, S=args.S, k=args.k)
    red = build_reduction(inst, args.C)
    ck = red.ck
    rep.check(
        len(red.v.triples) == inst.n + 2 * ck + 4,
        f"vertex census is n + 2Ck + 4 = {inst.n + 2 * ck + 4}",
    )
    groups = classify_reduction_circuits(red)
    rep.check(
        {name: len(g) for name, g in groups.items()}
        == {"frame": 2, "element": inst.n, "corner": 2 * ck},
        "circuit classes: 2 frame, n element, 2Ck corner directions",
    )
    rep.check(0 < red.epsilon < red.corner.box / 2, "epsilon sits inside (0, box/2)")
    outcome = brute_force_essr(inst, r_bound=inst.S)
    if isinstance(outcome, PromiseViolated):
        rep.check(False, f"promise violated by {outcome.r}")
        return
    if isinstance(outcome, Feasible):
        walk = reduction_witness_walk(red, outcome.r)
        rep.check(
            bool(is_valid_monotone_walk(red.h, red.c, walk)),
            "witness walk is a valid monotone circuit walk",
        )
        rep.check(walk.length == 2 * inst.k, "witness walk has 2k steps")
        rep.check(walk.end == red.t, "witness walk ends at t")
        rep.search("search confirms distance at most 2k",
                   lambda r: isinstance(r, Found) and r.walk.length <= 2 * inst.k,
                   (red.h, red.s, red.c, 2 * inst.k))
    else:
        rep.search(f"completed search proves distance exceeds Ck = {ck}",
                   lambda r: isinstance(r, NotFoundWithinDepth), (red.h, red.s, red.c, ck))


def _verify_lift(args, rep: _Report) -> None:
    ell, d = args.ell, args.d
    art = build_p_ell(ell)
    lp, s_d, c_d = lift_instance(art.h, art.u, art.c0, d)
    rep.check(lp.dim == d, f"lifted polytope lives in dimension {d}")
    true_facets = art.h.m + (d - 2) + 1 if d > 2 else art.h.m
    rep.check(lp.facet_count == true_facets, f"product has {true_facets} facets")
    rep.info(
        "facets: m polygon rows, d - 2 simplex nonnegativity rows and the "
        "simplex sum row (m + d - 1 for d >= 3, m for d = 2)"
    )
    n_circ = len(enumerate_lifted_circuits(lp))
    expected = len(enumerate_circuits(art.h)) + (d - 2) + (d - 2) * (d - 3) // 2
    rep.check(n_circ == expected, f"lift has {expected} circuit classes")
    pair = rep.search(
        "lifted walk distance equals the planar distance",
        lambda base, lifted: isinstance(base, Found) and isinstance(lifted, Found)
        and base.walk.length == lifted.walk.length,
        (art.h, art.u, art.c0, ell), (lp, s_d, c_d, ell),
    )
    base, lifted = pair or (None, None)
    if isinstance(base, Found) and isinstance(lifted, Found):
        rep.check(
            all(
                circ.kind == "base" and circ.g == g
                for circ, g in zip(lifted.walk.steps, base.walk.steps)
            ),
            "lifted shortest walk projects step-for-step onto the planar one",
        )
        rep.check(bool(is_valid_monotone_walk(lp, c_d, lifted.walk)),
                  "lifted walk is a valid monotone circuit walk of the lift's rows")
    if d >= 3:
        # from the simplex apex, the axis step to the top vertex sorts before the first base step
        n = ell + 1
        apex = LiftedPoint(art.u, (rat(0),) * (d - 2))
        rep.search(f"from the simplex apex: a valid {n}-step walk, first an axis step",
                   lambda up: isinstance(up, Found) and up.walk.length == n
                   and up.walk.steps[0].kind == "axis"
                   and bool(is_valid_monotone_walk(lp, c_d, up.walk)),
                   (lp, apex, c_d, n))
        rep.search(f"from the simplex apex: no walk within {n - 1} steps",
                   lambda below: below == NotFoundWithinDepth(n - 1), (lp, apex, c_d, n - 1))


def _verify_3dm(args, rep: _Report) -> None:
    n = 2
    universe = [(i, j, h) for i in range(n) for j in range(n) for h in range(n)]
    agree = 0
    total = 0
    for size in range(n, 6):
        for chosen in itertools.combinations(universe, size):
            inst = ThreeDMInstance(n_elements=n, triples=chosen)
            essr = reduce_three_dm(inst)
            outcome = brute_force_essr(essr, r_bound=n)
            if isinstance(outcome, PromiseViolated):
                rep.check(False, f"promise violated for triples {chosen}")
                return
            matching = three_dm_has_perfect_matching(inst)
            total += 1
            if matching == isinstance(outcome, Feasible):
                agree += 1
    rep.check(
        agree == total,
        f"matching existence agrees with exact-sum feasibility on {total} instances",
    )


# the suites' options, each with its value when it is not given
_SUITE_OPTIONS = {"ell": 3, "a": (2, 3), "S": 5, "k": 2, "C": 2, "d": 3}


def cmd_verify(args) -> int:
    rep = _Report(args.quiet)
    if args.suite is not None and args.certificate is not None:
        raise ValueError("give --suite or --certificate, not both")
    if args.suite is not None and args.instance is not None:
        raise ValueError(f"--suite takes no instance file, but {args.instance} was given")
    if args.certificate is not None:
        given = [f"--{name}" for name in _SUITE_OPTIONS if getattr(args, name) is not None]
        if given:
            raise ValueError(f"--certificate takes no suite options, but got {', '.join(given)}")
        if args.instance is None:
            raise ValueError("--certificate needs an instance file")
        _verify_certificate(args, rep)
        return rep.exit_code
    if args.suite is None:
        raise ValueError("give an instance with --certificate, or --suite")
    for name, value in _SUITE_OPTIONS.items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    suites = {"pell": _verify_pell, "reduction": _verify_reduction, "lift": _verify_lift,
              "3dm": _verify_3dm}
    names = list(suites) if args.suite == "all" else [args.suite]
    for name in names:
        rep.info(f"suite: {name}")
        suites[name](args, rep)
    if not args.quiet or rep.failures or rep.inconclusive:
        verdict = "FAILED" if rep.failures else "INCONCLUSIVE" if rep.inconclusive else "passed"
        cut = f", {rep.inconclusive} inconclusive" if rep.inconclusive else ""
        print(f"{verdict}: {rep.failures} failures{cut}")
    return rep.exit_code


# -- export -------------------------------------------------------------------------


def cmd_render_svg(args) -> int:
    inst = read_instance(_read_file(args.instance))
    walk = read_walk(_read_file(args.certificate)) if args.certificate else None
    _emit(args, svg_document(inst, walk), args.output)
    return EXIT_OK


def cmd_export_lp(args) -> int:
    inst = read_instance(_read_file(args.instance))
    _emit(args, lp_document(inst), args.output)
    return EXIT_OK


# -- parser -------------------------------------------------------------------------


_QUIET = (("--quiet",), dict(action="store_true", help="suppress chatter"))
_OUTPUT = (("-o", "--output"), dict(default=None))
_NODE_CAP = (("--node-cap",), dict(type=_int, default=NODE_CAP))

# Every subcommand: its handler, its help line and its add_argument calls as
# (flags, keywords) pairs, in the order they appear in its help.
COMMANDS = {
    "gen-pell": (cmd_gen_pell, "emit a family polygon instance", (
        (("--ell",), dict(type=_int, required=True, help="recursion level (>= 1)")),
        _OUTPUT,
    )),
    "gen-reduction": (cmd_gen_reduction, "emit a separation polygon instance", (
        (("--a",), dict(type=_weights, default=None, help="comma-separated weights, e.g. 2,3")),
        (("--S",), dict(type=_int, default=None, help="target sum")),
        (("--k",), dict(type=_int, default=None, help="cardinality")),
        (("--essr",), dict(default=None, help="read the exact-sum instance from a file")),
        (("--C",), dict(type=_int, default=None, help="gap constant")),
        (("--auto-C",), dict(action="store_true", help="derive C from --eps-inv")),
        (("--eps-inv",), dict(type=_int, default=None,
                              help="inverse exponent for --auto-C (default 2)")),
        _OUTPUT,
    )),
    "gen-3dm": (cmd_gen_3dm, "reduce a matching instance to exact-sum", (
        (("input",), dict(help="'3dm 1' file: n line, then one 'i j h' triple per line")),
        _OUTPUT,
    )),
    "solve": (cmd_solve, "exact shortest monotone walk", (
        (("instance",), {}),
        (("--max-depth",), dict(type=_int, required=True)),
        _NODE_CAP,
        (("-o", "--output"), dict(default=None, help="write the walk certificate here")),
    )),
    "approx": (cmd_approx, "bounded search plus edge-walk fallback", (
        (("instance",), {}),
        (("--depth",), dict(type=_int, required=True, help="exhaustive search depth")),
        _NODE_CAP,
        _OUTPUT,
    )),
    "verify": (cmd_verify, "check certificates or run suites", (
        (("instance",), dict(nargs="?", default=None)),
        (("--certificate",), dict(default=None, help="walk file to validate")),
        (("--suite",), dict(choices=["pell", "reduction", "lift", "3dm", "all"], default=None)),
        # each suite option defaults to None, so --certificate can reject it; the
        # suites read _SUITE_OPTIONS' value of one not given
        *[((f"--{name}",), dict(type=_weights if name == "a" else _int, default=None))
          for name in _SUITE_OPTIONS],
    )),
    "render-svg": (cmd_render_svg, "draw an instance (and walk)", (
        (("instance",), {}),
        (("--certificate",), dict(default=None)),
        _OUTPUT,
    )),
    "export-lp": (cmd_export_lp, "CPLEX LP text of an instance", (
        (("instance",), {}),
        _OUTPUT,
    )),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser with every subcommand.

    Built once per process and shared by every caller, so it must not be
    mutated; parsing does not mutate it.
    """
    parser = argparse.ArgumentParser(
        prog="circuitwalks",
        description="exact monotone circuit walks on polygons: generate, search, verify",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flags, keywords in (_QUIET,) + arguments:
            p.add_argument(*flags, **keywords)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, OSError, RuntimeError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
