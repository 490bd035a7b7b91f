"""Malformed files: every reader raises ParseError and nothing else, at a physical
line, and the CLI turns that into exit code 2 with the line in the message."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circuitwalks
from circuitwalks.cli import main
from circuitwalks.constructions import SubsetSumInstance, build_p_ell
from circuitwalks.formats import (
    InstanceFile,
    ParseError,
    read_essr,
    read_instance,
    read_three_dm,
    read_walk,
    write_essr,
    write_instance,
    write_walk,
)
from circuitwalks.search import SearchConfig, shortest_monotone_walk

_ART = build_p_ell(2)
VALID = {
    "cwi": (read_instance, write_instance(InstanceFile(
        polygon=_ART.h, cost=_ART.c0, start=_ART.u, target=_ART.t,
        meta=(("kind", "family"), ("note", "two words")),
    ))),
    "cww": (read_walk, write_walk(
        shortest_monotone_walk(_ART.h, _ART.u, _ART.c0, SearchConfig(2)).walk
    )),
    "essr": (read_essr, write_essr(SubsetSumInstance(a=(3, 5, 9), S=17, k=3))),
    "3dm": (read_three_dm, "3dm 1\nn 2\n\n0 0 0\n1 1 1\n0 1 1\n"),
}

TOKENS = st.sampled_from([
    "", "0", "1", "2", "-1", "+2", "1/0", "2/4", "-3/7", "0.5", "x", "²", "٣",
    "1_0", "9" * 5000, "n", "a", "S", "k", "rows", "points", "step", "cost", "start",
    "target", "meta", "dim", "cwi", "cww", "essr", "3dm",
])
TOKEN_LINES = st.lists(TOKENS, max_size=4).map(" ".join)


@st.composite
def mutated(draw, text):
    """The text with one to three lines dropped, duplicated, inserted or retokenized."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("drop", "duplicate", "insert", "token")))
        if not lines:
            op = "insert"
        i = draw(st.integers(0, len(lines) - (op != "insert")))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "insert":
            lines.insert(i, draw(TOKEN_LINES))
        else:
            parts = lines[i].split() or [""]
            parts[draw(st.integers(0, len(parts) - 1))] = draw(TOKENS)
            lines[i] = " ".join(parts)
    return "\n".join(lines) + draw(st.sampled_from(("\n", "", "\n\n")))


def arbitrary(text):
    """Any text, or the format's header line followed by lines of tokens."""
    header = text.splitlines()[0]
    return st.text(max_size=200) | st.lists(TOKEN_LINES, max_size=8).map(
        lambda rows: "\n".join([header, *rows]) + "\n"
    )


def assert_only_parse_errors(read, text):
    try:
        read(text)
    except ParseError as exc:
        assert 1 <= exc.line_no <= len(text.splitlines()) + 1, (exc, text)


@pytest.mark.parametrize("fmt", sorted(VALID))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_mutated_valid_file_raises_only_parse_errors(fmt, data):
    read, valid = VALID[fmt]
    assert_only_parse_errors(read, data.draw(mutated(valid)))


@pytest.mark.parametrize("fmt", sorted(VALID))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_arbitrary_text_raises_only_parse_errors(fmt, data):
    read, valid = VALID[fmt]
    assert_only_parse_errors(read, data.draw(arbitrary(valid)))


@pytest.mark.parametrize("fmt", sorted(VALID))
def test_valid_files_read(fmt):
    read, valid = VALID[fmt]
    read(valid)


@pytest.mark.parametrize("read, text, line", [
    (read_instance, "cwi 1\ndim 2\nrows ²\n", 3),
    (read_walk, "cww 1\npoints ²\n0 0\n", 2),
])
def test_count_that_int_cannot_read_is_a_parse_error(read, text, line):
    with pytest.raises(ParseError) as info:
        read(text)
    assert info.value.line_no == line


@pytest.mark.parametrize("text, line", [
    ("cwi 1\ndim 2\nrows ٣\n-1 0 0\n0 -1 0\n1 1 1\ncost 1 1\nstart 0 0\n", 3),
    ("cwi 1\ndim 2\nrows 3\n-1 0 0\n0 -1 0\n1 1 ١\ncost 1 1\nstart 0 0\n", 6),
], ids=["count", "row"])
def test_non_ascii_digits_are_2_at_their_line(tmp_path, capsys, text, line):
    # int() reads Arabic-Indic and fullwidth digits; the formats take ASCII digits only
    source = tmp_path / "triangle.cwi"
    source.write_text(text, encoding="utf-8")
    assert main(["solve", str(source), "--max-depth", "1", "--quiet"]) == 2
    assert f"line {line}:" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["1.5", "١"], ids=["decimal", "non-ascii"])
def test_bad_row_entry_is_a_parse_error_at_its_line(entry):
    # an entry that is not an ASCII integer is read by parse_rational, whose message it keeps
    text = f"cwi 1\ndim 2\nrows 3\n-1 0 0\n0 -1 0\n1 1 {entry}\ncost 1 1\nstart 0 0\n"
    with pytest.raises(ParseError) as info:
        read_instance(text)
    assert info.value.line_no == 6
    assert str(info.value) == f"line 6: not a rational literal: {entry!r}"


def run_on(tmp_path, capsys, command, text):
    source = tmp_path / "input.txt"
    source.write_text(text)
    if command == "gen-3dm":
        argv = ["gen-3dm", str(source)]
    else:
        argv = ["gen-reduction", "--essr", str(source), "--C", "2"]
    code = main([*argv, "--quiet"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command, text, line", [
    ("gen-3dm", "3dm 1\nn 2\n0 0 0\n1 1 ١\n", 4),
    ("gen-3dm", "3dm 1\nn ２\n0 0 0\n1 1 1\n", 2),
    ("gen-reduction", "essr 1\nn 2\na 2 ٣\nS 5\nk 2\n", 3),
    ("gen-reduction", "essr 1\nn 2\na 2 3\nS 1_0\nk 2\n", 4),
], ids=["3dm-triple", "3dm-n", "essr-a", "essr-S"])
def test_integers_take_ascii_digits_only(tmp_path, capsys, command, text, line):
    # int() also reads non-ASCII digits and underscores, which would not round-trip
    code, _, err = run_on(tmp_path, capsys, command, text)
    assert code == 2 and f"line {line}:" in err


def test_walk_steps_take_ascii_digits_only():
    walk = "cww 1\npoints 2\n0 0\n1 0\nstep {} 0\n"
    with pytest.raises(ParseError) as info:
        read_walk(walk.format("١"))
    assert info.value.line_no == 5
    assert write_walk(read_walk(walk.format("+1"))) == walk.format("1")


class TestThreeDMFiles:
    def test_line_numbers_count_blank_lines(self, tmp_path, capsys):
        code, _, err = run_on(tmp_path, capsys, "gen-3dm", "3dm 1\n\n\nn 1\n0 0\n")
        assert code == 2 and "line 5" in err

    @pytest.mark.parametrize("text, message", [
        ("3dm 1\nn 2\n0 0 0\n0 0 0\n1 1 1\n", "duplicate triple"),
        ("3dm 1\nn 2\n0 0 0\n0 2 0\n1 1 1\n", "out of range"),
        ("3dm 1\nn -1\n0 0 0\n", "at least one element"),
    ])
    def test_bad_instance_is_2_at_the_n_line(self, tmp_path, capsys, text, message):
        code, _, err = run_on(tmp_path, capsys, "gen-3dm", text)
        assert code == 2 and "line 2" in err and message in err

    def test_blank_lines_are_skipped(self, tmp_path, capsys):
        plain = run_on(tmp_path, capsys, "gen-3dm", "3dm 1\nn 2\n0 0 0\n1 1 1\n0 1 1\n")
        spaced = run_on(tmp_path, capsys, "gen-3dm", "\n3dm 1\n\nn 2\n0 0 0\n \n1 1 1\n0 1 1\n\n")
        assert plain[0] == 0 and spaced == plain


class TestInstanceFiles:
    def test_scaled_parallel_rows_are_2_at_the_rows_line(self, tmp_path, capsys):
        # x <= 1 beside 2x <= 3 bounds the unit square; the second row is redundant
        source = tmp_path / "square.cwi"
        source.write_text(
            "cwi 1\ndim 2\nrows 5\n1 0 1\n2 0 3\n-1 0 0\n0 1 1\n0 -1 0\ncost 1 1\nstart 0 0\n"
        )
        code = main(["solve", str(source), "--max-depth", "1", "--quiet"])
        err = capsys.readouterr().err
        assert code == 2 and "line 3:" in err and "redundant row" in err


    @pytest.mark.parametrize("row", ["0 0 1", "0/2 -0 1"])
    def test_zero_normal_is_2_at_its_line(self, tmp_path, capsys, row):
        source = tmp_path / "zero.cwi"
        source.write_text(f"cwi 1\ndim 2\nrows 4\n-1 0 0\n0 -1 0\n{row}\n1 1 1\n"
                          "cost 1 1\nstart 0 0\n")
        code = main(["solve", str(source), "--max-depth", "1", "--quiet"])
        err = capsys.readouterr().err
        assert code == 2 and err == "error: line 6: bad polygon: row has zero normal\n"


ESSR = "essr 1\nn 2\na 2 3\nS 5\nk 2\n"


class TestEssrFiles:
    def test_weight_count_mismatch_names_the_a_line(self, tmp_path, capsys):
        code, _, err = run_on(tmp_path, capsys, "gen-reduction",
                              "essr 1\nn 3\nS 5\na 2 3\nk 2\n")
        assert code == 2 and "line 4" in err and "'a' lists 2 weights" in err

    @pytest.mark.parametrize("old, new, line, message", [
        ("a 2 3", "a -1 3", 3, "positive"),
        ("a 2 3", "a 3 2", 3, "strictly increasing"),
        ("S 5", "S -1", 4, "target sum"),
        ("k 2", "k 0", 5, "cardinality"),
    ])
    def test_bad_field_is_2_at_its_line(self, tmp_path, capsys, old, new, line, message):
        code, _, err = run_on(tmp_path, capsys, "gen-reduction", ESSR.replace(old, new))
        assert code == 2 and f"line {line}:" in err and message in err

    def test_trailing_content_is_2(self, tmp_path, capsys):
        code, _, err = run_on(tmp_path, capsys, "gen-reduction", ESSR + "k 3\n")
        assert code == 2 and "line 6" in err and "trailing content" in err

    def test_fields_in_any_order(self, tmp_path, capsys):
        inline = main(["gen-reduction", "--a", "2,3", "--S", "5", "--k", "2", "--C", "2",
                       "--quiet"])
        expected = capsys.readouterr().out
        shuffled = run_on(tmp_path, capsys, "gen-reduction", "essr 1\nk 2\nS 5\nn 2\na 2 3\n")
        assert inline == 0 and shuffled == (0, expected, "")


class TestFileBytes:
    """Files are read as bytes and decoded as strict UTF-8, whatever the locale."""

    @staticmethod
    def argv(fmt, path, tmp_path):
        if fmt == "cwi":
            return ["solve", str(path), "--max-depth", "2"]
        if fmt == "cww":
            instance = tmp_path / "instance.cwi"
            instance.write_text(VALID["cwi"][1])
            return ["verify", str(instance), "--certificate", str(path)]
        if fmt == "essr":
            return ["gen-reduction", "--essr", str(path), "--C", "2"]
        return ["gen-3dm", str(path)]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("bad", [b"\xff", b"\xc3"], ids=["invalid", "truncated"])
    @pytest.mark.parametrize("fmt", sorted(VALID))
    def test_bad_byte_is_2_at_its_line(self, tmp_path, capsys, fmt, bad, newline):
        # the bad byte goes at the end of the last line; the 3dm text has a blank line 3
        lines = VALID[fmt][1].splitlines()
        path = tmp_path / f"bad.{fmt}"
        path.write_bytes(newline.join(lines).encode() + b" " + bad + newline.encode())
        assert main([*self.argv(fmt, path, tmp_path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: line {len(lines)}: not UTF-8 text: byte {bad[0]:#04x}\n"

    def test_utf8_meta_reads_under_the_c_locale(self, tmp_path):
        path = tmp_path / "meta.cwi"
        path.write_bytes(VALID["cwi"][1].replace("two words", "naïve — ü").encode())
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=str(Path(circuitwalks.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "circuitwalks.cli", "solve", str(path), "--max-depth", "2"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert "length 2" in done.stdout

    def test_crlf_instance_exports_the_same_lp(self, tmp_path, capsys):
        lf, crlf = tmp_path / "lf.cwi", tmp_path / "crlf.cwi"
        assert main(["gen-pell", "--ell", "3", "-o", str(lf), "--quiet"]) == 0
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        outputs = []
        for path in (lf, crlf):
            assert main(["export-lp", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and outputs[0].rstrip().endswith("End")
