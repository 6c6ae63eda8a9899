import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import test_golden
from helpers import bodies, powers_of_two, reference_parse_tokens, reference_stats_lines, slp_of
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slpcompress.alphabet import InputFormatError
from slpcompress.cli import _parse_tokens, main
from slpcompress.driver import compress
from slpcompress.grammar import Slp, dump, load


@pytest.fixture
def files(tmp_path):
    def make(name, content: bytes):
        p = tmp_path / name
        p.write_bytes(content)
        return str(p)

    return make, tmp_path


class TestCompressDecompressVerify:
    def test_bytes_pipeline(self, files, capsys):
        make, tmp = files
        src = make("in.bin", b"abracadabra" * 40)
        gpath = str(tmp / "out.slp")
        opath = str(tmp / "back.bin")
        assert main(["compress", src, gpath]) == 0
        err = capsys.readouterr().err
        assert "N=440" in err and "size=" in err
        assert main(["decompress", gpath, opath]) == 0
        assert (tmp / "back.bin").read_bytes() == b"abracadabra" * 40
        assert main(["verify", gpath, src]) == 0

    def test_tokens_pipeline(self, files):
        make, tmp = files
        src = make("in.txt", b"12 7 12 900000 7\n12 7\n")
        gpath = str(tmp / "out.slp")
        opath = str(tmp / "back.txt")
        assert main(["compress", src, gpath, "--input", "tokens"]) == 0
        assert main(["decompress", gpath, opath]) == 0
        assert (tmp / "back.txt").read_bytes().split() == b"12 7 12 900000 7 12 7".split()
        assert main(["verify", gpath, src]) == 0

    @pytest.mark.parametrize("content", [b"12 7 12 900000 7\n12 7\n", b"4294967295 0 9 10", b""])
    def test_token_output_bytes(self, files, content):
        # One space between tokens and a final newline; no tokens, no bytes.
        make, tmp = files
        src = make("in.txt", content)
        gpath = str(tmp / "out.slp")
        assert main(["compress", src, gpath, "--input", "tokens"]) == 0
        assert main(["decompress", gpath, str(tmp / "back.txt")]) == 0
        tokens = content.split()
        want = b" ".join(tokens) + b"\n" if tokens else b""
        assert (tmp / "back.txt").read_bytes() == want

    def test_tokens_tolerate_mixed_whitespace(self, files):
        make, tmp = files
        src = make("in.txt", b"  5\t\t6\r\n5   6\n\n7 ")
        gpath = str(tmp / "out.slp")
        opath = str(tmp / "back.txt")
        assert main(["compress", src, gpath, "--input", "tokens"]) == 0
        assert main(["decompress", gpath, opath]) == 0
        assert (tmp / "back.txt").read_bytes().split() == [b"5", b"6", b"5", b"6", b"7"]
        assert main(["verify", gpath, src]) == 0

    def test_token_value_over_ceiling(self, files):
        make, tmp = files
        src = make("in.txt", str(2**32).encode())
        assert main(["compress", src, str(tmp / "o.slp"), "--input", "tokens"]) == 2

    def test_empty_file(self, files):
        make, tmp = files
        src = make("in.bin", b"")
        gpath = str(tmp / "out.slp")
        opath = str(tmp / "back.bin")
        assert main(["compress", src, gpath]) == 0
        assert "start empty" in (tmp / "out.slp").read_text()
        assert main(["decompress", gpath, opath]) == 0
        assert (tmp / "back.bin").read_bytes() == b""

    def test_plain_mode_flag(self, files):
        make, tmp = files
        src = make("in.bin", b"zzzzyyyyzzzz")
        assert main(["compress", src, str(tmp / "p.slp"), "--mode", "plain"]) == 0
        assert main(["compress", src, str(tmp / "i.slp"), "--mode", "improved"]) == 0
        assert load(tmp / "i.slp").size <= load(tmp / "p.slp").size

    def test_compress_deterministic_and_seed_flag_refused(self, files):
        make, tmp = files
        src = make("in.bin", b"deterministic either way" * 4)
        assert main(["compress", src, str(tmp / "a.slp")]) == 0
        assert main(["compress", src, str(tmp / "b.slp")]) == 0
        assert (tmp / "a.slp").read_bytes() == (tmp / "b.slp").read_bytes()
        with pytest.raises(SystemExit) as exc:
            main(["compress", src, str(tmp / "c.slp"), "--seed", "7"])
        assert exc.value.code == 2
        assert not (tmp / "c.slp").exists()

    def test_verify_mismatch(self, files):
        make, tmp = files
        src = make("in.bin", b"hello world")
        other = make("other.bin", b"hello there")
        gpath = str(tmp / "out.slp")
        assert main(["compress", src, gpath]) == 0
        assert main(["verify", gpath, other]) == 1

    def test_missing_files(self, files):
        make, tmp = files
        assert main(["compress", str(tmp / "nope.bin"), str(tmp / "o.slp")]) == 2
        assert main(["decompress", str(tmp / "nope.slp"), str(tmp / "o.bin")]) == 2
        assert main(["verify", str(tmp / "nope.slp"), str(tmp / "nope.bin")]) == 2

    def test_non_numeric_token_input(self, files):
        make, tmp = files
        src = make("in.txt", b"12 oops 7")
        assert main(["compress", src, str(tmp / "o.slp"), "--input", "tokens"]) == 2

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"12 oops 7", "error: non-numeric token b'oops'"),
            (b"12 7 -3", "error: negative token value"),
            # The first offending token decides the message.
            (b"12 -3 oops", "error: negative token value"),
            (b"12 oops -3", "error: non-numeric token b'oops'"),
            (b"1 " + b"9" * 30 + b"x", "error: non-numeric token b'" + "9" * 20 + "'"),
        ],
    )
    def test_token_error_messages(self, files, capsys, content, message):
        make, tmp = files
        src = make("in.txt", content)
        assert main(["compress", src, str(tmp / "o.slp"), "--input", "tokens"]) == 2
        assert capsys.readouterr().err.strip() == message
        dump(slp_of("tokens", [12], rules=[(0, 0)], start=1), tmp / "g.slp")
        assert main(["verify", str(tmp / "g.slp"), src]) == 2
        assert capsys.readouterr().err.strip() == message

    @pytest.mark.parametrize("command", ["decompress", "verify", "stats"])
    @pytest.mark.parametrize("value", [2**32, 2**63])
    def test_token_terminal_over_ceiling(self, files, capsys, command, value):
        make, tmp = files
        gpath = make("g.slp", f"SLP 1\nterminals 1 tokens\n{value}\nrules 0\nstart 0\n".encode())
        other = str(tmp / "o.txt") if command == "decompress" else make("in.txt", b"1")
        args = [command, gpath] + ([] if command == "stats" else [other])
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_malformed_grammar(self, files):
        make, tmp = files
        bad = make("bad.slp", b"SLP 9\n")
        assert main(["decompress", bad, str(tmp / "o.bin")]) == 2
        # forward reference masquerading as a cycle
        cyc = make(
            "cyc.slp", b"SLP 1\nterminals 1 bytes\n97\nrules 1\n2 1 1\nstart 1\n"
        )
        assert main(["decompress", cyc, str(tmp / "o.bin")]) == 2

    def test_decompress_overflow(self, files):
        make, tmp = files
        slp = Slp("bytes", [97])
        prev = 0
        for _ in range(70):
            prev = slp.emit_rule([prev, prev])
        slp.start = prev
        # Bypass dump's validation by writing the text form directly.
        lines = ["SLP 1", "terminals 1 bytes", "97", f"rules {len(slp.counts)}"]
        for body in bodies(slp):
            lines.append(f"{len(body)} " + " ".join(map(str, body)))
        lines.append(f"start {slp.start}")
        gpath = make("big.slp", ("\n".join(lines) + "\n").encode())
        assert main(["decompress", gpath, str(tmp / "o.bin")]) == 4
        assert main(["verify", gpath, make("in.bin", b"a")]) == 4

    @pytest.mark.parametrize("command", ["decompress", "verify"])
    def test_expansion_too_large_to_hold(self, files, command):
        # 40 doubling rules derive 2**40 bytes: valid, below the 2**63
        # ceiling, and far beyond the 1 GiB address space the child gets,
        # so the output allocation fails at once whatever the overcommit
        # policy.
        make, tmp = files
        lines = ["SLP 1", "terminals 1 bytes", "97", "rules 40"]
        lines += [f"2 {i} {i}" for i in range(40)]
        lines.append("start 40")
        gpath = make("huge.slp", ("\n".join(lines) + "\n").encode())
        other = make("in.bin", b"a") if command == "verify" else str(tmp / "o.bin")

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = Path(__file__).resolve().parents[1] / "src"
        # One BLAS thread keeps numpy's own address space small on hosts
        # with many cores.
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "slpcompress.cli", command, gpath, other],
            preexec_fn=cap_address_space, env=env, capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 4, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: expansion too large to hold in memory")


WHITESPACE = b" \t\n\r\v\f"


def random_token_text(rng: random.Random) -> bytes:
    """Decimal fields of 1-10 digits between random runs of ASCII whitespace."""

    def field() -> bytes:
        if rng.random() < 0.1:
            value = rng.choice([0, 2**32 - 1, 10**9 - 1, 10**9, 10**10 - 1])
            return str(value).encode()
        digits = rng.randint(1, 10)
        numeral = str(rng.randrange(10**digits)).encode()
        return numeral.rjust(digits, b"0")  # leading zeros where short

    def gap(min_len: int) -> bytes:
        return bytes(rng.choice(WHITESPACE) for _ in range(rng.randint(min_len, 4)))

    fields = [field() for _ in range(rng.randint(1, 30))]
    return gap(0) + b"".join(f + gap(1) for f in fields[:-1]) + fields[-1] + gap(0)


@st.composite
def fuzzed_token_text(draw) -> bytes:
    """Numerals and ASCII whitespace, with at most one stray ``x`` or ``-``.

    The stray goes anywhere, or, for a ``-``, in front of a numeral.
    Numerals have at most 18 significant digits, so every one fits in
    int64, and a ``-`` never precedes a ``0``; ``+``, ``_`` and ``-0`` are
    the divergences that ``reference_parse_tokens`` documents.
    """
    gap = st.binary(max_size=3).map(lambda b: bytes(WHITESPACE[c % 6] for c in b))
    numeral = st.tuples(st.integers(0, 2), st.integers(0, 10**18 - 1)).map(
        lambda zv: b"0" * zv[0] + str(zv[1]).encode()
    )
    fields = draw(st.lists(numeral, max_size=12))
    stray = draw(st.sampled_from([b"", b"x", b"-", b"-field"]))
    if stray == b"-field" and fields:
        fields[draw(st.integers(0, len(fields) - 1))] = b"-%d" % draw(st.integers(1, 10**18 - 1))
    text = draw(gap) + b"".join(f + (draw(gap) or b" ") for f in fields)
    if stray in (b"x", b"-"):
        at = draw(st.integers(0, len(text)))
        assume(not (stray == b"-" and text[at : at + 1] == b"0"))
        text = text[:at] + stray + text[at:]
    return text


class TestTokenReader:
    def test_matches_int_per_field_reference(self):
        rng = random.Random(2024)
        for _ in range(500):
            text = random_token_text(rng)
            tokens = _parse_tokens(text)
            assert tokens.dtype == np.int64
            assert tokens.tolist() == reference_parse_tokens(text), text

    @given(fuzzed_token_text())
    @settings(max_examples=600, derandomize=True, database=None, deadline=None)
    def test_fuzz_matches_int_per_field_reference(self, text):
        # The same values, or InputFormatError with the same message from both.
        try:
            want = reference_parse_tokens(text)
        except InputFormatError as exc:
            with pytest.raises(InputFormatError) as got:
                _parse_tokens(text)
            assert str(got.value) == str(exc)
        else:
            assert _parse_tokens(text).tolist() == want

    @pytest.mark.parametrize("content", [b"", b" \t\n\r\v\f  \n"], ids=["empty", "blank"])
    def test_no_tokens(self, files, content):
        make, tmp = files
        if content:
            # The bare parser reads a blank text as one zero.
            assert np.fromstring(content, dtype=np.int64, sep=" ").tolist() == [0]
        assert _parse_tokens(content).tolist() == []
        src = make("in.txt", content)
        gpath = str(tmp / "g.slp")
        assert main(["compress", src, gpath, "--input", "tokens"]) == 0
        slp = load(gpath)
        assert slp.kind == "tokens" and slp.start is None and len(slp.counts) == 0
        assert main(["verify", gpath, src]) == 0

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"+5", "error: non-numeric token b'+5'"),
            (b"1_0", "error: non-numeric token b'1_0'"),
            (b"-0", "error: negative token value"),
            (b"1 2\x1c3", "error: non-numeric token b'2\\x1c3'"),
            (b"1\xa02", "error: non-numeric token b'1\\xa02'"),
            (b"\x005", "error: non-numeric token b'\\x005'"),
            (b"\xd9\xa3", "error: non-numeric token b'\\xd9\\xa3'"),
        ],
    )
    def test_only_ascii_digits_and_whitespace(self, files, capsys, content, message):
        # int() read the first three.  The rest are bytes that are neither
        # ASCII digits nor ASCII whitespace, such as str.split()'s separators
        # \x1c and \xa0, or the UTF-8 of a non-ASCII digit.
        make, tmp = files
        src = make("in.txt", content)
        assert main(["compress", src, str(tmp / "o.slp"), "--input", "tokens"]) == 2
        assert capsys.readouterr().err.strip() == message

    def test_leading_zeros(self, files):
        make, tmp = files
        src = make("in.txt", b"007 7 0000 0")
        gpath = str(tmp / "g.slp")
        assert main(["compress", src, gpath, "--input", "tokens"]) == 0
        assert main(["decompress", gpath, str(tmp / "back.txt")]) == 0
        assert (tmp / "back.txt").read_bytes() == b"7 7 0 0\n"
        assert main(["verify", gpath, src]) == 0

    @pytest.mark.parametrize("digits", [20, 30])
    def test_numeral_too_long_for_int64(self, files, capsys, digits):
        make, tmp = files
        src = make("in.txt", b"1 " + b"9" * digits + b" 2")
        assert _parse_tokens((tmp / "in.txt").read_bytes()).tolist() == [1, 2**63 - 1, 2]
        assert main(["compress", src, str(tmp / "o.slp"), "--input", "tokens"]) == 2
        assert capsys.readouterr().err.startswith("error: token values must lie in")
        gpath = str(tmp / "g.slp")
        assert main(["compress", make("ok.txt", b"1 7 2"), gpath, "--input", "tokens"]) == 0
        assert main(["verify", gpath, src]) == 1

    @pytest.mark.parametrize(
        "other",
        [b"5 6 5 6 7 7", b"5 6 5 6", b"5 6 5 6 8", b"5 6 5 7 7"],
        ids=["longer", "shorter", "changed-last", "changed-inside"],
    )
    def test_verify_token_mismatch(self, files, capsys, other):
        make, tmp = files
        gpath = str(tmp / "g.slp")
        assert main(["compress", make("in.txt", b"5 6 5 6 7"), gpath, "--input", "tokens"]) == 0
        assert main(["verify", gpath, make("other.txt", other)]) == 1
        assert "mismatch" in capsys.readouterr().err

    def test_parsed_count_is_checked(self, files, capsys, monkeypatch):
        # Should the parser ever read a different number of values than the
        # text has fields, the input is refused rather than misread.
        make, tmp = files
        src = make("in.txt", b"5 6 7")
        monkeypatch.setattr(np, "fromstring", lambda *a, **k: np.array([5, 6], dtype=np.int64))
        assert main(["compress", src, str(tmp / "o.slp"), "--input", "tokens"]) == 2
        assert capsys.readouterr().err.strip() == "error: token text parsed into 2 values, not 3"


class TestTrace:
    def test_jsonl_trace(self, files):
        make, tmp = files
        src = make("in.bin", b"mississippi" * 30)
        tpath = tmp / "trace.jsonl"
        assert main(["compress", src, str(tmp / "o.slp"), "--trace", str(tpath)]) == 0
        lines = [json.loads(l) for l in tpath.read_text().splitlines()]
        assert len(lines) >= 1
        for row in lines:
            assert row["live_after"] <= 0.75 * row["live_before"] + 0.25
            assert {"phase", "pairs_compressed", "blocks_compressed"} <= row.keys()
            for stage in ("rename", "blocks", "adjacency", "partition", "pairs", "compact"):
                assert row[f"{stage}_s"] >= 0.0

    def test_phase_count_matches_trace_lines(self, files, capsys):
        # Improved mode stops once no later phase can beat its best stop,
        # so it reports and traces fewer phases than plain mode here.
        make, tmp = files
        rng = random.Random(6)
        src = make("in.bin", bytes(rng.randrange(64) for _ in range(4000)))
        phases = {}
        for mode in ("plain", "improved"):
            tpath = tmp / f"{mode}.jsonl"
            args = ["compress", src, str(tmp / "o.slp"), "--mode", mode, "--trace", str(tpath)]
            assert main(args) == 0
            err = capsys.readouterr().err
            phases[mode] = int(err.split("phases=")[1].split()[0])
            assert phases[mode] == len(tpath.read_text().splitlines())
        assert phases["improved"] < phases["plain"]


class TestStats:
    @pytest.mark.parametrize("command", ["stats", "decompress", "verify"])
    def test_non_utf8_grammar_is_bad_input(self, files, capsys, command):
        # A strict UTF-8 read would raise UnicodeDecodeError out of ``main``.
        make, tmp = files
        gpath = make("g.slp", b"SLP 1\nterminals 1 bytes\n\xff7\nrules 0\nstart 0\n")
        other = make("x.bin", b"a")
        args = {"stats": [gpath], "decompress": [gpath, str(tmp / "out")], "verify": [gpath, other]}
        assert main([command, *args[command]]) == 2
        assert capsys.readouterr().err.startswith("error: grammar text holds a character")

    def test_known_grammar(self, files, capsys):
        make, tmp = files
        slp = Slp("bytes", [97])
        a2 = slp.emit_rule([0, 0])
        slp.start = slp.emit_rule([a2, a2, 0])
        gpath = tmp / "g.slp"
        dump(slp, gpath)
        assert main(["stats", str(gpath)]) == 0
        out = capsys.readouterr().out
        assert "rules 2" in out
        assert "size 5" in out
        assert "depth 2" in out
        assert "expansion 5" in out

    def test_size_on_disk(self, files, capsys):
        make, tmp = files
        src = make("in.bin", b"abracadabra" * 40)
        gpath = tmp / "g.slp"
        assert main(["compress", src, str(gpath)]) == 0
        capsys.readouterr()
        assert main(["stats", str(gpath)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"bytes {gpath.stat().st_size}"
        assert [line.split()[0] for line in lines] == [
            "rules", "size", "depth", "expansion", "bytes"
        ]

    def test_empty_grammar(self, files, capsys):
        make, tmp = files
        gpath = tmp / "g.slp"
        dump(Slp("bytes", []), gpath)
        assert main(["stats", str(gpath)]) == 0
        assert "expansion 0" in capsys.readouterr().out

    def test_expansion_at_the_ceiling(self, files, capsys):
        make, tmp = files
        dump(powers_of_two(), tmp / "max.slp")
        assert main(["stats", str(tmp / "max.slp")]) == 0
        assert f"expansion {2**63 - 1}" in capsys.readouterr().out.splitlines()
        dump(powers_of_two(extra_terminals=1), tmp / "over.slp")
        assert main(["stats", str(tmp / "over.slp")]) == 0
        assert "expansion >=2^63" in capsys.readouterr().out.splitlines()

    def test_overflow_reported(self, files, capsys):
        make, tmp = files
        lines = ["SLP 1", "terminals 1 bytes", "97", "rules 70"]
        prev = 0
        for i in range(70):
            lines.append(f"2 {prev} {prev}")
            prev = i + 1
        lines.append(f"start {prev}")
        gpath = make("big.slp", ("\n".join(lines) + "\n").encode())
        assert main(["stats", str(gpath)]) == 0
        assert ">=2^63" in capsys.readouterr().out

    def test_one_walk_matches_two_walks(self, files, capsys):
        # Expansion and depth come from the vector range walks; the output
        # is the one that the scalar length and depth walks give.
        make, tmp = files
        grammars = [
            compress(getattr(test_golden, gen)(seed), mode=mode).slp
            for gen, seed, mode in sorted(test_golden.GOLDEN)
        ]
        doubling = Slp("bytes", [97])
        for i in range(70):
            doubling.emit_rule([i, i])
        doubling.start = 70
        unreachable_overflow = powers_of_two(extra_terminals=1)
        unreachable_overflow.start = 5
        grammars += [
            powers_of_two(), powers_of_two(extra_terminals=1), doubling, unreachable_overflow,
            Slp("bytes", []), slp_of("bytes", [97, 98], [(0, 1)], start=1),
        ]
        for i, slp in enumerate(grammars):
            gpath = tmp / f"g{i}.slp"
            dump(slp, gpath)
            assert main(["stats", str(gpath)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines == reference_stats_lines(load(gpath)) + [f"bytes {gpath.stat().st_size}"]
