import argparse
import functools
import gc
import hashlib
import itertools
import os
import random
import re
import stat
import threading
from dataclasses import replace
from fractions import Fraction

import pytest

from circuitwalks import cli
from circuitwalks.circuits import monotone_edge_walk, optimal_value
from circuitwalks.cli import COMMANDS, build_parser, main
from circuitwalks.constructions import SubsetSumInstance, build_p_ell, build_reduction, compute_gap_C
from circuitwalks.formats import (
    InstanceFile,
    ParseError,
    read_essr,
    read_instance,
    read_walk,
    write_essr,
    write_instance,
    write_walk,
)
from circuitwalks.polytope import h_to_v
from circuitwalks.ratgeo import Direction2, Point2
from circuitwalks.render import _H, _W, _fmt, lp_document, svg_document
from circuitwalks.search import SearchConfig, Walk, is_valid_monotone_walk

from conftest import clear_construction_caches, random_hpolygon


def run(*argv):
    return main(list(argv))


LARGE_CK = "C*k = {} blows up corner denominators; expect slow exact arithmetic"


@pytest.fixture
def pell3(tmp_path):
    path = tmp_path / "p3.cwi"
    assert run("gen-pell", "--ell", "3", "-o", str(path), "--quiet") == 0
    return path


class TestGenPell:
    def test_writes_parseable_instance(self, pell3):
        inst = read_instance(pell3.read_text())
        assert inst.polygon.m == 7
        assert dict(inst.meta)["ell"] == "3"

    def test_stdout_default(self, capsys):
        assert run("gen-pell", "--ell", "1") == 0
        out = capsys.readouterr().out
        assert out.startswith("cwi 1\n")

    def test_bad_level(self, capsys):
        assert run("gen-pell", "--ell", "0") == 1
        assert "ell" in capsys.readouterr().err


class TestSolve:
    def test_found(self, pell3, tmp_path, capsys):
        cert = tmp_path / "walk.cww"
        assert run("solve", str(pell3), "--max-depth", "3", "-o", str(cert)) == 0
        assert "length 3" in capsys.readouterr().out
        walk = read_walk(cert.read_text())
        assert walk.length == 3

    def test_depth_exhausted_is_10(self, pell3):
        assert run("solve", str(pell3), "--max-depth", "2", "--quiet") == 10

    def test_node_cap_is_11(self, pell3, capsys):
        assert run("solve", str(pell3), "--max-depth", "3", "--node-cap", "2", "--quiet") == 11
        assert run("solve", str(pell3), "--max-depth", "3", "--node-cap", "4") == 11
        assert "of at most 1 steps" in capsys.readouterr().out

    def test_unparseable_is_2(self, tmp_path):
        bad = tmp_path / "bad.cwi"
        bad.write_text("what is this\n")
        assert run("solve", str(bad), "--max-depth", "1", "--quiet") == 2

    def test_missing_file_is_2(self):
        assert run("solve", "no-such-file.cwi", "--max-depth", "1", "--quiet") == 2

    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as info:
            run("solve")
        assert info.value.code == 2


class TestVerifyCertificate:
    def test_good_walk(self, pell3, tmp_path, capsys):
        cert = tmp_path / "walk.cww"
        run("solve", str(pell3), "--max-depth", "3", "-o", str(cert), "--quiet")
        assert run("verify", str(pell3), "--certificate", str(cert)) == 0
        out = capsys.readouterr().out
        assert "[ok]" in out and "[FAIL]" not in out

    def test_tampered_walk_fails(self, pell3, tmp_path, capsys):
        cert = tmp_path / "walk.cww"
        run("solve", str(pell3), "--max-depth", "3", "-o", str(cert), "--quiet")
        lines = cert.read_text().splitlines()
        # swap the two middle points of the walk
        lines[2], lines[3] = lines[3], lines[2]
        cert.write_text("\n".join(lines) + "\n")
        assert run("verify", str(pell3), "--certificate", str(cert)) == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_non_optimal_end_fails_without_target(self, pell3, tmp_path, capsys):
        inst = read_instance(pell3.read_text())
        bare = tmp_path / "bare.cwi"
        bare.write_text(write_instance(replace(inst, target=None)))
        cert = tmp_path / "stay.cww"
        cert.write_text(write_walk(Walk((inst.start,), ())))
        assert run("verify", str(bare), "--certificate", str(cert)) == 1
        assert "[FAIL] walk ends at a cost-maximal point" in capsys.readouterr().out

    def test_quiet_hides_ok_lines(self, pell3, tmp_path, capsys):
        cert = tmp_path / "walk.cww"
        run("solve", str(pell3), "--max-depth", "3", "-o", str(cert), "--quiet")
        assert run("verify", str(pell3), "--certificate", str(cert), "--quiet") == 0
        assert "[ok]" not in capsys.readouterr().out


class TestVerifySuites:
    def test_pell(self, capsys):
        assert run("verify", "--suite", "pell", "--ell", "2") == 0
        assert "passed" in capsys.readouterr().out

    def test_reduction(self, capsys):
        assert run("verify", "--suite", "reduction") == 0
        out = capsys.readouterr().out
        assert "witness walk" in out
        assert "search confirms distance at most 2k" in out

    def test_reduction_runs_the_feasible_search_at_2k_6(self, capsys):
        # feasible with 2k = 6: the search runs at the size asked for
        argv = ["--a", "2,3", "--S", "7", "--k", "3", "--C", "1"]
        assert run("verify", "--suite", "reduction", *argv) == 0
        out = capsys.readouterr().out
        assert "witness walk has 2k steps" in out
        assert "[ok]   search confirms distance at most 2k" in out
        assert "skipping" not in out

    def test_reduction_proves_ck_6(self, capsys):
        # infeasible: a=(2,4) has no pair summing to 5
        argv = ["--a", "2,4", "--S", "5", "--C", "3"]
        assert run("verify", "--suite", "reduction", *argv) == 0
        out = capsys.readouterr().out
        assert "[ok]   completed search proves distance exceeds Ck = 6" in out
        assert "skipping" not in out

    def test_pell_searches_above_level_5(self, capsys):
        assert run("verify", "--suite", "pell", "--ell", "8") == 0
        out = capsys.readouterr().out
        for name in "uw":
            assert f"[ok]   level 8: shortest monotone walk from {name} has exactly 8 steps" in out
            assert f"[ok]   level 8: no walk from {name} with 7 steps" in out
        assert "skipping" not in out

    def test_lift_runs_the_level_asked_for(self, capsys):
        assert run("verify", "--suite", "lift", "--ell", "5", "--d", "5") == 0
        out = capsys.readouterr().out
        assert "product has 15 facets" in out  # P_5 has 11 rows: 11 + 5 - 1
        assert "[ok]   from the simplex apex: a valid 6-step walk, first an axis step" in out
        assert "[ok]   from the simplex apex: no walk within 5 steps" in out
        assert "caps the family level" not in out

    @pytest.mark.parametrize("quiet", [(), ("--quiet",)])
    def test_search_cut_short_is_inconclusive(self, monkeypatch, capsys, quiet):
        monkeypatch.setattr(cli, "SearchConfig", functools.partial(SearchConfig, node_cap=50))
        assert run("verify", "--suite", "pell", "--ell", "8", *quiet) == 11
        out = capsys.readouterr().out
        assert "passed" not in out
        cut = re.findall(r"^\[\?\?\]   level 8: (.*): inconclusive, the node cap cut a search "
                         r"short; it ruled out walks of at most (\d+) steps$", out, re.M)
        assert [label for label, _ in cut] == [
            "shortest monotone walk from u has exactly 8 steps", "no walk from u with 7 steps",
            "shortest monotone walk from w has exactly 8 steps", "no walk from w with 7 steps",
        ]
        assert all(0 <= int(depth) < 7 for _, depth in cut)
        assert out.splitlines()[-1] == "INCONCLUSIVE: 0 failures, 4 inconclusive"

    def test_reduction_of_five_weights_runs_its_search(self, capsys):
        # (r_bound + 1)**n = 22**5 multiplicity vectors; all weights even, S odd
        argv = ["--a", "2,4,6,8,10", "--S", "21", "--k", "2", "--C", "2"]
        assert run("verify", "--suite", "reduction", *argv) == 0
        out = capsys.readouterr().out
        assert "completed search proves distance exceeds Ck = 4" in out
        assert "too large" not in out

    def test_lift(self, capsys):
        assert run("verify", "--suite", "lift", "--ell", "2", "--d", "3") == 0
        out = capsys.readouterr().out
        assert "product has 7 facets" in out  # P_2 is a pentagon: 5 + 3 - 1
        assert "m + d - 1" in out

    def test_3dm(self, capsys):
        assert run("verify", "--suite", "3dm") == 0
        assert "210" in capsys.readouterr().out

    def test_needs_suite_or_certificate(self, capsys):
        assert run("verify") == 1

    def test_suite_with_certificate_is_an_error(self, pell3, tmp_path, capsys):
        walk = tmp_path / "w.cww"
        assert run("solve", str(pell3), "--max-depth", "3", "-o", str(walk), "--quiet") == 0
        assert run("verify", str(pell3), "--certificate", str(walk), "--suite", "3dm") == 1
        assert capsys.readouterr() == ("", "error: give --suite or --certificate, not both\n")

    def test_certificate_with_suite_options_is_an_error(self, pell3, tmp_path, capsys):
        walk = tmp_path / "w.cww"
        assert run("solve", str(pell3), "--max-depth", "3", "-o", str(walk), "--quiet") == 0
        certificate = ("verify", str(pell3), "--certificate", str(walk), "--quiet")
        for option, value in (("--ell", "9"), ("--a", "1,2"), ("--S", "5"), ("--k", "2"),
                              ("--C", "2"), ("--d", "5")):
            assert run(*certificate, option, value) == 1
            assert capsys.readouterr() == (
                "", f"error: --certificate takes no suite options, but got {option}\n")
        assert run(*certificate, "--d", "5", "--ell", "9", "--a", "1,2") == 1
        assert capsys.readouterr() == (
            "", "error: --certificate takes no suite options, but got --ell, --a, --d\n")
        assert run(*certificate) == 0

    def test_suites_fill_in_the_options_not_given(self, capsys):
        assert run("verify", "--suite", "pell") == 0
        assert "level 3: polygon has 7 rows" in capsys.readouterr().out
        assert run("verify", "--suite", "reduction", "--C", "1") == 0
        assert "vertex census is n + 2Ck + 4 = 10" in capsys.readouterr().out

    def test_suite_with_instance_is_an_error(self, pell3, capsys):
        assert run("verify", str(pell3), "--suite", "3dm") == 1
        assert capsys.readouterr() == (
            "", f"error: --suite takes no instance file, but {pell3} was given\n"
        )


class TestReductionCommands:
    def test_gen_reduction_inline(self, tmp_path):
        path = tmp_path / "red.cwi"
        assert run(
            "gen-reduction", "--a", "2,3", "--S", "5", "--k", "2", "--C", "2",
            "-o", str(path), "--quiet",
        ) == 0
        inst = read_instance(path.read_text())
        assert inst.polygon.m == 14
        meta = dict(inst.meta)
        assert meta["C"] == "2" and meta["epsilon"].count("/") == 1

    @pytest.mark.parametrize("a, C, digest", [
        ("2,3", 1, "400f855fd1ee47abc5127e7f592895822d68d5b1401529add7ff899ab5177b66"),
        ("2,3", 2, "ee864701320797f519eb3d8f18c3efde265c4064463927cba1037edfd5462496"),
        ("2,3", 4, "37a574d79eca40f2946adfe20c3b9b06636e87484f38d86151d591d203b181cb"),
        ("2,4", 3, "29951a4189490a6f21bf02e7bd640ab319cc074442bebd0bff7a4d8f140689be"),
    ])
    def test_gen_reduction_bytes_pinned(self, tmp_path, a, C, digest):
        # SHA-256 of the cwi file written when the polygon was the hull of its
        # intended vertices and the corner came from image polygons
        path = tmp_path / "red.cwi"
        assert run(
            "gen-reduction", "--a", a, "--S", "5", "--k", "2", "--C", str(C),
            "-o", str(path), "--quiet",
        ) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_gen_reduction_auto_C(self, tmp_path, capsys):
        path = tmp_path / "red.cwi"
        code = run(
            "gen-reduction", "--a", "2,3", "--S", "5", "--k", "2",
            "--auto-C", "--eps-inv", "1", "-o", str(path),
        )
        assert code == 0
        out, err = capsys.readouterr()
        assert "C = 8" in out
        assert err == f"warning: {LARGE_CK.format(16)}\n"  # C*k = 16 is beyond desk scale

    def test_auto_C_reads_eps_inv_2_by_default(self, tmp_path, capsys):
        path = tmp_path / "red.cwi"
        C = compute_gap_C(2, 1, 1)
        assert run("gen-reduction", "--a", "3", "--S", "3", "--k", "1", "--auto-C",
                   "-o", str(path)) == 0
        out, err = capsys.readouterr()
        assert f"C = {C}" in out
        assert err == f"warning: {LARGE_CK.format(C)}\n"  # C*k = 64 is beyond desk scale

    @pytest.mark.parametrize("argv", [
        ("gen-reduction", "--a", "2,3", "--S", "5", "--k", "2", "--C", "5", "-o", "{out}"),
        ("verify", "--suite", "reduction", "--C", "5"),
    ], ids=["gen-reduction", "verify"])
    def test_large_ck_warning_is_a_cli_line_on_every_call(self, tmp_path, capsys, argv):
        # C*k = 10: one line as the CLI speaks, no source path, on each main() call
        argv = [a.format(out=tmp_path / "red.cwi") for a in argv] + ["--quiet"]
        for _ in range(2):
            assert main(argv) == 0
            err = capsys.readouterr().err
            assert err.startswith("warning: ") and ".py:" not in err
            assert err.splitlines().count(f"warning: {LARGE_CK.format(10)}") == 1

    def test_ignored_options_are_errors(self, tmp_path, capsys):
        # an option that the command would not read exits 1 and is named
        essr = tmp_path / "i.essr"
        essr.write_text("essr 1\nn 2\na 2 3\nS 5\nk 2\n")
        path = tmp_path / "red.cwi"
        inline = ("--a", "2,3", "--S", "5", "--k", "2")
        for argv, message in (
            (("--essr", str(essr), "--a", "2,3", "--k", "2", "--C", "2"),
             "--essr takes no --a, --S or --k, but got --a, --k"),
            (("--essr", str(essr), "--S", "5", "--auto-C"),
             "--essr takes no --a, --S or --k, but got --S"),
            ((*inline, "--auto-C", "--C", "2"), "--auto-C derives C, so it takes no --C"),
            ((*inline, "--C", "2", "--eps-inv", "1"), "--eps-inv is read only with --auto-C"),
            ((*inline, "--eps-inv", "1"), "--eps-inv is read only with --auto-C"),
        ):
            assert run("gen-reduction", *argv, "-o", str(path)) == 1
            assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not path.exists()

    @pytest.mark.parametrize("command", [
        ("gen-reduction", "--S", "5", "--k", "2", "--C", "2"),
        ("verify", "--suite", "reduction"),
    ], ids=["gen-reduction", "verify"])
    def test_bad_weights_are_usage_errors(self, command, capsys):
        # --a is read by one argparse type, so a bad list exits 2 as --S x does
        for a in ("2,x", "2,,3", ""):
            with pytest.raises(SystemExit) as info:
                run(*command, "--a", a, "--quiet")
            err = capsys.readouterr().err
            assert info.value.code == 2 and err.startswith("usage: circuitwalks")
            assert err.endswith(f"argument --a: expected comma-separated integers, got {a!r}\n")

    def test_integers_read_as_a_file_reads_them(self, tmp_path, capsys):
        # each weight of --a and every integer option takes ASCII digits after an
        # optional sign, as formats reads an integer; int()'s other literals exit 2
        texts = []
        for a in ("2,3", "+2,03"):
            path = tmp_path / "red.cwi"
            assert run("gen-reduction", "--a", a, "--S", "5", "--k", "2", "--C", "2",
                       "-o", str(path), "--quiet") == 0
            texts.append(path.read_text())
        assert texts[0] == texts[1]
        for argv, bad in (
            (("--a", "2_0,3_0", "--S", "5"), "--a: expected comma-separated integers, got '2_0,3_0'"),
            (("--a", " 2, 3", "--S", "5"), "--a: expected comma-separated integers, got ' 2, 3'"),
            (("--a", "2,3", "--S", "\uff12"), "--S: invalid int value: '\uff12'"),
        ):
            with pytest.raises(SystemExit) as info:
                run("gen-reduction", *argv, "--k", "2", "--C", "2", "--quiet")
            err = capsys.readouterr().err
            assert info.value.code == 2 and err.startswith("usage: circuitwalks")
            assert err.endswith(f"argument {bad}\n")
        parser = build_parser()
        checked = 0
        for name, (valid, _, _) in PARSER_CASES.items():
            flags = [flag for (flag, *_), keywords in COMMANDS[name][2]
                     if keywords.get("type") in (cli._int, cli._weights)]
            for flag, text in itertools.product(flags, ("2_0", " 2", "\uff12")):
                code, out, err = _exit(parser, [*valid, flag, text], capsys)
                assert code == 2 and not out and f"argument {flag}: " in err
                checked += 1
        assert checked == 16 * 3  # --ell, 5 of gen-reduction, 2 each of solve and approx, 6 of verify
        assert run("verify", "--suite", "reduction", "--a", "+2,03", "--quiet") == 0
        assert capsys.readouterr() == ("", "")

    def test_promise_warning(self, tmp_path, capsys):
        path = tmp_path / "viol.cwi"
        assert run(
            "gen-reduction", "--a", "1,2", "--S", "3", "--k", "2", "--C", "2",
            "-o", str(path), "--quiet",
        ) == 0
        assert "promise" in capsys.readouterr().err
        assert "promise" in dict(read_instance(path.read_text()).meta)

    def test_promise_checked_at_large_target(self, tmp_path, capsys):
        path = tmp_path / "viol.cwi"
        assert run(
            "gen-reduction", "--a", "1,2", "--S", "2000", "--k", "2", "--C", "1",
            "-o", str(path), "--quiet",
        ) == 0
        assert "promise violated" in capsys.readouterr().err
        assert dict(read_instance(path.read_text()).meta)["promise"] == "violated 0,1000"

    def test_missing_C_is_an_error(self, capsys):
        assert run("gen-reduction", "--a", "2,3", "--S", "5", "--k", "2") == 1

    def test_zero_C_names_C(self, capsys):
        assert run("gen-reduction", "--a", "2,3", "--S", "5", "--k", "2", "--C", "0") == 1
        assert capsys.readouterr().err == "error: C must be positive\n"

    def test_solve_round_trip(self, tmp_path):
        path = tmp_path / "red.cwi"
        run("gen-reduction", "--a", "2,3", "--S", "5", "--k", "2", "--C", "2",
            "-o", str(path), "--quiet")
        assert run("solve", str(path), "--max-depth", "4", "--quiet") == 0


class TestThreeDMCommand:
    def test_chain_to_reduction(self, tmp_path):
        source = tmp_path / "m.3dm"
        source.write_text("3dm 1\nn 1\n0 0 0\n")
        essr = tmp_path / "m.essr"
        assert run("gen-3dm", str(source), "-o", str(essr), "--quiet") == 0
        inst = read_essr(essr.read_text())
        assert inst == SubsetSumInstance(a=(15,), S=15, k=1)
        red = tmp_path / "m.cwi"
        assert run("gen-reduction", "--essr", str(essr), "--C", "2", "-o", str(red), "--quiet") == 0

    def test_matching_reduction_bytes_pinned(self, tmp_path):
        source = tmp_path / "m.3dm"
        source.write_text("3dm 1\nn 2\n0 0 0\n1 1 1\n0 1 0\n")
        essr, red = tmp_path / "m.essr", tmp_path / "m.cwi"
        assert run("gen-3dm", str(source), "-o", str(essr), "--quiet") == 0
        assert run("gen-reduction", "--essr", str(essr), "--C", "1", "-o", str(red), "--quiet") == 0
        assert hashlib.sha256(red.read_bytes()).hexdigest() == (
            "dcc1e98c661e63ca940d452a955e60c472d944f83080da0a376a4afb70982c12"
        )

    def test_essr_round_trip(self):
        inst = SubsetSumInstance(a=(3, 5, 9), S=17, k=3)
        assert read_essr(write_essr(inst)) == inst

    def test_bad_essr(self):
        with pytest.raises(ParseError):
            read_essr("essr 2\n")

    def test_bad_triples_file(self, tmp_path):
        source = tmp_path / "m.3dm"
        source.write_text("3dm 1\nn 1\n0 0\n")
        assert run("gen-3dm", str(source), "--quiet") == 2

    def test_element_count_missing_is_2(self, tmp_path, capsys):
        source = tmp_path / "m.3dm"
        source.write_text("3dm 1\nn\n0 0 0\n")
        assert run("gen-3dm", str(source), "--quiet") == 2
        assert "line 2" in capsys.readouterr().err

    def test_element_count_not_an_integer_is_2(self, tmp_path, capsys):
        source = tmp_path / "m.3dm"
        source.write_text("3dm 1\nn x\n0 0 0\n")
        assert run("gen-3dm", str(source), "--quiet") == 2
        assert "line 2" in capsys.readouterr().err

    def test_too_few_triples_is_an_error(self, tmp_path):
        source = tmp_path / "m.3dm"
        source.write_text("3dm 1\nn 2\n0 0 0\n")
        assert run("gen-3dm", str(source), "--quiet") == 1


class TestApprox:
    def test_shallow_depth_still_succeeds(self, tmp_path, capsys):
        path = tmp_path / "p4.cwi"
        run("gen-pell", "--ell", "4", "-o", str(path), "--quiet")
        cert = tmp_path / "walk.cww"
        assert run("approx", str(path), "--depth", "1", "-o", str(cert)) == 0
        assert "length 4" in capsys.readouterr().out
        assert run("verify", str(path), "--certificate", str(cert), "--quiet") == 0

    @pytest.mark.parametrize("cost, start, message", [
        ("0 1", "0 0", "cost attains its maximum on an edge"),
        ("1 1", "1/2 0", "(1/2, 0) is not a vertex"),
    ])
    def test_rejected_instance_is_1(self, tmp_path, capsys, cost, start, message):
        path = tmp_path / "square.cwi"
        path.write_text(f"cwi 1\ndim 2\nrows 4\n-1 0 0\n1 0 1\n0 -1 0\n0 1 1\n"
                        f"cost {cost}\nstart {start}\n")
        assert run("approx", str(path), "--depth", "2") == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestExports:
    def test_svg_deterministic(self, pell3, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert run("render-svg", str(pell3), "-o", str(a), "--quiet") == 0
        assert run("render-svg", str(pell3), "-o", str(b), "--quiet") == 0
        assert a.read_text() == b.read_text()
        assert a.read_text().startswith("<svg")

    def test_svg_bytes_pinned(self, pell3, tmp_path):
        # SHA-256 of the SVG written when every point was converted to pixels
        # once for its path and again for its circle
        cert, out = tmp_path / "walk.cww", tmp_path / "c.svg"
        run("solve", str(pell3), "--max-depth", "3", "-o", str(cert), "--quiet")
        for extra, digest in (
            ([], "21f22d3c2458fb191f649c06eae3533afbaea9c331d1f9943e07a8ecd592f4de"),
            (["--certificate", str(cert)],
             "477f1733d72b8a4a2a517d3584f1532d8afe74d183594292b10d80ae56a418ff"),
        ):
            assert run("render-svg", str(pell3), *extra, "-o", str(out), "--quiet") == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @staticmethod
    def assert_pinned(tmp_path, gen, digests):
        """SHA-256 of the depth-2 approx walk file, the SVG without and with
        that walk, and the LP export of the instance gen writes."""
        inst, cert = tmp_path / "i.cwi", tmp_path / "w.cww"
        svg, lp = tmp_path / "f.svg", tmp_path / "i.lp"
        assert run(*gen, "-o", str(inst), "--quiet") == 0
        assert run("approx", str(inst), "--depth", "2", "-o", str(cert), "--quiet") == 0
        assert run("render-svg", str(inst), "-o", str(svg), "--quiet") == 0
        files = [cert.read_bytes(), svg.read_bytes()]
        assert run("render-svg", str(inst), "--certificate", str(cert), "-o", str(svg),
                   "--quiet") == 0
        assert run("export-lp", str(inst), "-o", str(lp), "--quiet") == 0
        files += [svg.read_bytes(), lp.read_bytes()]
        assert [hashlib.sha256(f).hexdigest() for f in files] == digests

    def test_svg_bytes_pinned_on_a_reduction(self, tmp_path):
        # a C*k = 8 reduction with three weights, 90-125-bit rows; the SVGs were
        # pinned when each pixel came from a Fraction subtraction, and every file
        # when each vertex polygon kept its points as its data
        self.assert_pinned(tmp_path, ("gen-reduction", "--a", "5,8,9", "--S", "16", "--k", "2",
                                      "--C", "4"), [
            "2893d62228adfdf1b5f09e4a5912e3a388942d02d97e3c6af928deb55b836b6f",
            "a59baa183cc8a46adcf192b52e659e6e85dbc7b7825b58f0a65dd9d20935c199",
            "70e71d1125b4a71efa42fe71c758bf446c78ee454a1b99ad9a684b5321b5bfb8",
            "1ed99c738366fe67fa7b55a41009bbc2a39873dfaa460fbf788d32205f2054fb",
        ])

    def test_bytes_pinned_on_level_8(self, tmp_path):
        # depth 2 is too shallow, so the walk is the 8-step edge walk from u to t
        self.assert_pinned(tmp_path, ("gen-pell", "--ell", "8"), [
            "3217881fd6edc1fb7ac3b13128ac24aa08fa551e4050be5486c073a15ab6f749",
            "5b831055b96d4617c9e000a34ec490b6a3b644d6dda32a2c90a26667520397e9",
            "987931e11194d84fe2b320aab7c7df12860d7467b9872c9985884ab0f526b8bf",
            "f5e93a8858a89a38773f941a56cab4193783c48b9af0b34d929026c31da7c435",
        ])

    def test_points_are_built_on_first_read(self, tmp_path):
        # export-lp and verify read a polygon's triples only; render-svg draws its points
        inst, cert = tmp_path / "i.cwi", tmp_path / "w.cww"
        assert run("gen-pell", "--ell", "5", "-o", str(inst), "--quiet") == 0
        assert run("approx", str(inst), "--depth", "2", "-o", str(cert), "--quiet") == 0
        text = inst.read_text()
        lp = read_instance(text)
        lp_document(lp)
        assert "vertices" not in h_to_v(lp.polygon).__dict__
        ver = read_instance(text)
        optimal_value(ver.polygon, ver.cost)
        assert is_valid_monotone_walk(ver.polygon, ver.cost, read_walk(cert.read_text()))
        assert "vertices" not in h_to_v(ver.polygon).__dict__
        svg_document(ver)
        assert "vertices" in h_to_v(ver.polygon).__dict__

    def test_builders_and_the_edge_walk_build_no_vertex_points(self, tmp_path):
        # the constructions and the edge walk compute on triples; points are built for results
        # only.  Build cold: an earlier test may have read the shared level-8 artifact's points
        clear_construction_caches()
        assert "vertices" not in build_p_ell(8).v.__dict__
        assert "vertices" not in build_reduction(SubsetSumInstance((2, 4), 5, 2), 2).v.__dict__
        path = tmp_path / "i.cwi"
        assert run("gen-pell", "--ell", "8", "-o", str(path), "--quiet") == 0
        inst = read_instance(path.read_text())
        assert monotone_edge_walk(inst.polygon, inst.start, inst.cost).length == 8
        assert "vertices" not in h_to_v(inst.polygon).__dict__

    def test_pixels_are_the_float_of_the_fraction_difference(self):
        rng = random.Random(2626)

        def coordinate():
            kind = rng.choice(kinds)
            if kind == 0:
                return rng.randint(-60, 60)  # an int
            if kind == 1:  # a huge denominator
                return Fraction(rng.getrandbits(400) - 2**399, rng.getrandbits(380) + 1)
            return Fraction(rng.randint(-600, 600), rng.randint(1, 30))

        for _ in range(80):
            # int points alone often hold both extremes
            kinds = rng.choice([(0,), (1,), (0, 2), (0, 1, 2)])
            h = random_hpolygon(rng, max_points=8, bound=40)
            points = [Point2(coordinate(), coordinate()) for _ in range(rng.randint(1, 5))]
            start, target = points[0], rng.choice([None, Point2(coordinate(), coordinate())])
            walk = Walk(tuple(points), (Direction2(1, 0),) * (len(points) - 1))
            svg = svg_document(InstanceFile(h, Direction2(1, 0), start, target), walk)
            # the transform, in Fractions, and each point's pixel as a Fraction difference
            verts = list(h_to_v(h).vertices)
            drawn = verts + points + [start] + ([target] if target else [])
            xs, ys = [Fraction(p.x) for p in drawn], [Fraction(p.y) for p in drawn]
            (spanx, x0), (spany, y0) = [(max(v) - min(v), min(v)) for v in (xs, ys)]
            padx, pady = Fraction(spanx or 1, 20), Fraction(spany or 1, 20)
            x0, y0 = x0 - padx, y0 - pady
            sx, sy = _W / float(spanx + 2 * padx), _H / float(spany + 2 * pady)
            circles = verts + (points if len(points) > 1 else []) + drawn[len(verts) + len(points):]
            want = [(_fmt(float(p.x - x0) * sx), _fmt(_H - float(p.y - y0) * sy)) for p in circles]
            assert re.findall(r'<circle cx="([^"]*)" cy="([^"]*)"', svg) == want

    def test_svg_with_walk_overlay(self, pell3, tmp_path):
        cert = tmp_path / "walk.cww"
        run("solve", str(pell3), "--max-depth", "3", "-o", str(cert), "--quiet")
        out = tmp_path / "c.svg"
        assert run("render-svg", str(pell3), "--certificate", str(cert), "-o", str(out), "--quiet") == 0
        assert "polyline" in out.read_text() or "path" in out.read_text()

    def test_lp_export(self, pell3, capsys):
        assert run("export-lp", str(pell3)) == 0
        out = capsys.readouterr().out
        assert "Maximize" in out and "Subject To" in out and out.rstrip().endswith("End")


class TestOutputFiles:
    """-o overwrites a file in place and cuts it to length; other targets are only written."""

    @staticmethod
    def level_2(capsys):
        assert run("gen-pell", "--ell", "2") == 0
        return capsys.readouterr().out.encode()

    @pytest.mark.parametrize("old", [bytes(range(256)) * 32, b"cwi"], ids=["longer", "shorter"])
    def test_overwrite_leaves_exactly_the_new_bytes(self, tmp_path, capsys, old):
        expected = self.level_2(capsys)
        path = tmp_path / "f.cwi"
        path.write_bytes(old)
        assert run("gen-pell", "--ell", "2", "-o", str(path), "--quiet") == 0
        assert path.read_bytes() == expected

    def test_overwrite_keeps_the_inode_and_mode(self, tmp_path):
        path = tmp_path / "f.cwi"
        path.write_bytes(b"x" * 8192)
        path.chmod(0o640)
        before = path.stat()
        assert run("gen-pell", "--ell", "2", "-o", str(path), "--quiet") == 0
        after = path.stat()
        assert stat.S_IMODE(after.st_mode) == 0o640 and after.st_ino == before.st_ino

    def test_new_file_takes_the_umask(self, tmp_path):
        umask = os.umask(0)
        os.umask(umask)
        path = tmp_path / "new.cwi"
        assert run("gen-pell", "--ell", "2", "-o", str(path), "--quiet") == 0
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
    def test_null_device_is_written_not_cut(self):
        assert run("gen-pell", "--ell", "2", "-o", os.devnull, "--quiet") == 0

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_gets_the_whole_text(self, tmp_path, capsys):
        expected = self.level_2(capsys)
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert run("gen-pell", "--ell", "2", "-o", str(fifo), "--quiet") == 0
        reader.join(timeout=30)
        assert received == [expected]

    def test_directory_is_1_and_missing_directory_is_2(self, tmp_path, capsys):
        assert run("gen-pell", "--ell", "2", "-o", str(tmp_path), "--quiet") == 1
        assert run("gen-pell", "--ell", "2", "-o", str(tmp_path / "no" / "f.cwi"), "--quiet") == 2
        err = capsys.readouterr().err
        assert "Is a directory" in err and "No such file or directory" in err


# Per command: argv that parses, argv missing a required argument or an
# option's value, and argv with a bad integer where the command takes one.
PARSER_CASES = {
    "gen-pell": (["gen-pell", "--ell", "3"], ["gen-pell"], ["gen-pell", "--ell", "x"]),
    "gen-reduction": (
        ["gen-reduction", "--a", "2,3", "--S", "5", "--k", "2", "--C", "2"],
        ["gen-reduction", "--a"],
        ["gen-reduction", "--S", "x"],
    ),
    "gen-3dm": (["gen-3dm", "m.3dm", "-o", "out.essr"], ["gen-3dm"], None),
    "solve": (
        ["solve", "i.cwi", "--max-depth", "3", "--quiet"],
        ["solve", "i.cwi"],
        ["solve", "i.cwi", "--max-depth", "x"],
    ),
    "approx": (
        ["approx", "i.cwi", "--depth", "2"],
        ["approx", "i.cwi", "--node-cap", "5"],
        ["approx", "i.cwi", "--depth", "1", "--node-cap", "1e3"],
    ),
    "verify": (["verify", "--suite", "lift", "--d", "4"], ["verify", "--suite"], ["verify", "--d", "x"]),
    "render-svg": (["render-svg", "i.cwi", "--certificate", "w.cww"], ["render-svg"], None),
    "export-lp": (["export-lp", "i.cwi"], ["export-lp", "-o"], None),
}
ALL_COMMANDS = "{gen-pell,gen-reduction,gen-3dm,solve,approx,verify,render-svg,export-lp}"


def _exit(parser, argv, capsys):
    """Exit code, stdout and stderr of a parse that must exit."""
    with pytest.raises(SystemExit) as info:
        parser.parse_args(argv)
    out = capsys.readouterr()
    return info.value.code, out.out, out.err


class TestParser:
    def test_cases_cover_every_command(self):
        assert list(PARSER_CASES) == list(COMMANDS) and len(COMMANDS) == 8

    @pytest.mark.parametrize("name", list(PARSER_CASES))
    def test_one_parser_reads_every_command(self, name, capsys):
        valid, missing, bad_int = PARSER_CASES[name]
        parser = build_parser()
        assert parser.parse_args(valid).func is COMMANDS[name][0]
        code, out, err = _exit(parser, [name, "--help"], capsys)
        assert code == 0 and out.startswith(f"usage: circuitwalks {name} ") and not err
        for argv in [missing, [name, "--bogus"]] + ([bad_int] if bad_int else []):
            code, out, err = _exit(parser, argv, capsys)
            assert code == 2 and not out and err.startswith("usage: circuitwalks")
            assert "error: " in err.splitlines()[-1]
            assert argv is not bad_int or "invalid int value" in err

    @pytest.mark.parametrize("argv", [["--help"], [], ["bogus"], ["--quiet"]])
    def test_top_level_lists_every_command(self, argv, capsys):
        with pytest.raises(SystemExit):
            main(argv)
        out = capsys.readouterr()
        assert ALL_COMMANDS in out.out + out.err
        if argv == ["--help"]:
            assert all(help_text in out.out for _, help_text, _ in COMMANDS.values())


class TestParserCache:
    """The parser is built once per process and shared by later calls."""

    def test_commands_leave_no_parser_garbage(self, tmp_path):
        inst, walk = str(tmp_path / "i.cwi"), str(tmp_path / "w.cww")
        commands = [
            ["gen-pell", "--ell", "5", "-o", inst],
            ["approx", inst, "--depth", "2", "-o", walk],
            ["verify", inst, "--certificate", walk],
            ["render-svg", inst, "--certificate", walk, "-o", str(tmp_path / "f.svg")],
            ["export-lp", inst, "-o", str(tmp_path / "i.lp")],
        ]
        for argv in commands:  # builds the parser
            assert main(argv + ["--quiet"]) == 0
        assert build_parser() is build_parser()
        gc.collect()
        enabled, flags, before = gc.isenabled(), gc.get_debug(), len(gc.garbage)
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for argv in commands:
                assert main(argv + ["--quiet"]) == 0
            gc.collect()
            parser_parts = (argparse.ArgumentParser, argparse.HelpFormatter, argparse.Action)
            left = {type(o).__name__ for o in gc.garbage[before:] if isinstance(o, parser_parts)}
        finally:
            gc.set_debug(flags)
            del gc.garbage[before:]
            if enabled:
                gc.enable()
        assert not left

    def test_parsed_values_do_not_leak_between_calls(self, capsys):
        assert main(["verify", "--suite", "3dm", "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        assert main(["verify", "--suite", "3dm"]) == 0
        assert "passed: 0 failures" in capsys.readouterr().out
