import json
import random
import sys
import time

import pytest

from grayspace import cli
from grayspace.grassmann_gray import read_gray_file, verify_gray
from grayspace.linalg import intersect
from grayspace.projective_gray import nonexistence_certificate
from grayspace.qcombin import gaussian


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--n", "4", "--k", "2", "--q", "2")
    assert code == 0 and out.strip() == "35"
    code, out, _ = run(capsys, "count", "--n", "5", "--k", "2", "--q", "2")
    assert out.strip() == "155"
    code, out, _ = run(capsys, "count", "--n", "3", "--k", "3", "--q", "7",
                       "--lower-bound")
    assert out.strip() == "1"


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--n", "4", "--k", "2", "--q", "2",
                       "--json")
    data = json.loads(out)
    assert data["value"] == "35" and data["q"] == 2


def test_count_invalid_params(capsys):
    code, _, err = run(capsys, "count", "--n", "2", "--k", "3", "--q", "2")
    assert code == 2
    code, _, err = run(capsys, "count", "--n", "2", "--k", "1", "--q", "6")
    assert code == 2
    # rejected by the size bound before any trial division
    for q in ("1000000000000000003", "1000000000000000003^1"):
        code, out, err = run(capsys, "count", "--n", "4", "--k", "2",
                             "--q", q)
        assert code == 2 and out == "" and "exceeds bound" in err


def test_encode_decode_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "encode", "--n", "4", "--k", "2", "--q", "2",
                       "--index", "0")
    assert code == 0
    assert out.split() == ["2", "4", "2", "1", "0", "0", "0",
                           "0", "1", "0", "0"]
    matrix = tmp_path / "m.txt"
    matrix.write_text(out)
    code, out, _ = run(capsys, "decode", "--n", "4", "--k", "2", "--q", "2",
                       "--input", str(matrix))
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "decode", "--n", "4", "--k", "2", "--q", "2",
                       "--input", str(matrix), "--fast")
    assert code == 0 and out.strip() == "0"


def test_encode_out_of_range(capsys):
    code, _, err = run(capsys, "encode", "--n", "4", "--k", "2", "--q", "2",
                       "--index", "35")
    assert code == 2


def test_decode_dimension_mismatch(capsys, tmp_path):
    matrix = tmp_path / "m.txt"
    matrix.write_text("2 4 2\n1 0 0 0\n0 1 0 0\n")
    code, _, err = run(capsys, "decode", "--n", "4", "--k", "3", "--q", "2",
                       "--input", str(matrix))
    assert code == 3


def test_decode_malformed(capsys, tmp_path):
    matrix = tmp_path / "m.txt"
    matrix.write_text("not a matrix\n")
    code, _, err = run(capsys, "decode", "--n", "4", "--k", "2", "--q", "2",
                       "--input", str(matrix))
    assert code == 2
    # bytes that are not UTF-8
    matrix.write_bytes(b"\x7fELF\x02\x01\x01\x00\xff\xfe\x80 1 0\n")
    code, _, err = run(capsys, "decode", "--n", "4", "--k", "2", "--q", "2",
                       "--input", str(matrix))
    assert code == 2 and "malformed matrix" in err


def test_gen_and_verify(capsys, tmp_path):
    out_file = tmp_path / "code.gray"
    code, _, _ = run(capsys, "gen", "--n", "4", "--k", "2", "--q", "2",
                     "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("GRAY 4 2 2 35 1")
    code, out, _ = run(capsys, "verify", str(out_file))
    assert code == 0 and "PASS" in out


def test_gen_nonprime_field(capsys, tmp_path):
    out_file = tmp_path / "code.gray"
    code, _, _ = run(capsys, "gen", "--n", "2", "--k", "1", "--q", "9",
                     "--out", str(out_file))
    assert code == 0
    assert out_file.read_text().startswith("GRAY 2 1 9 10 1")


def test_gen_seeded_verifies(capsys, tmp_path):
    out_file = tmp_path / "seeded.gray"
    code, _, _ = run(capsys, "gen", "--n", "4", "--k", "2", "--q", "2",
                     "--seed", "5", "--out", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(out_file))
    assert code == 0


def test_verify_detects_damage(capsys, tmp_path):
    out_file = tmp_path / "code.gray"
    run(capsys, "gen", "--n", "3", "--k", "1", "--q", "2",
        "--out", str(out_file))
    blocks = out_file.read_text().split("\n\n")
    blocks[2] = blocks[1]    # duplicate one subspace block
    out_file.write_text("\n\n".join(blocks))
    code, out, _ = run(capsys, "verify", str(out_file))
    assert code == 1 and "duplicate" in out


def test_verify_names_first_failures(capsys, tmp_path):
    # one swapped pair and one duplicated item; the first duplicate and the
    # first non-adjacent pair are found here by equality and intersection
    out_file = tmp_path / "code.gray"
    run(capsys, "gen", "--n", "4", "--k", "2", "--q", "2",
        "--out", str(out_file))
    head, *blocks = out_file.read_text().split("\n\n")
    with open(out_file) as f:
        report = verify_gray(read_gray_file(f))
    assert (report.first_duplicate, report.first_nonadjacent) == (None, None)
    blocks[5], blocks[9] = blocks[9], blocks[5]
    blocks[20] = blocks[3]
    out_file.write_text("\n\n".join([head] + blocks))
    with open(out_file) as f:
        seq = read_gray_file(f)
    items = seq.items
    dup = next(i for i, it in enumerate(items) if it in items[:i])
    gap = next(i for i in range(1, len(items))
               if intersect(items[i - 1], items[i]).k != 1)
    report = verify_gray(seq)
    assert (report.first_duplicate, report.first_nonadjacent) == (dup, gap)
    code, out, _ = run(capsys, "verify", str(out_file))
    assert code == 1
    assert "FAIL: 1 duplicate subspaces (first: item %d)\n" % dup in out
    assert ("consecutive pairs not adjacent (first: items %d and %d)\n"
            % (gap - 1, gap)) in out


def test_verify_parse_failure(capsys, tmp_path):
    bad = tmp_path / "bad.gray"
    bad.write_text("GRAY 3 1 2 7\n\nnot numbers\n")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 4
    bad.write_text("garbage\n")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 4
    bad.write_text("GRAY 4 2 1000000000000000003 35 1\n")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 4 and "exceeds bound" in err
    bad.write_bytes(b"GRAY 3 1 2 7 1\n\n\xff\xfe\x80\x00\n")
    code, out, err = run(capsys, "verify", str(bad))
    assert code == 4 and out == "" and "parse failure" in err
    good = tmp_path / "good.gray"
    assert run(capsys, "gen", "--n", "3", "--k", "1", "--q", "2",
               "--out", str(good))[0] == 0
    body = good.read_text().partition("\n")[2]
    # a cyclic flag other than 0 or 1, k > n, n < 0 and a negative count
    for header in ("GRAY 3 1 2 7 5", "GRAY 3 4 2 7 1", "GRAY -1 0 2 7 1",
                   "GRAY 3 1 2 -7 1", "PROJ -3 2 7 1", "PROJ 3 2 7 2"):
        bad.write_text(header + "\n" + body)
        code, out, err = run(capsys, "verify", str(bad))
        assert code == 4 and out == "" and "header" in err, header


def test_proj_and_verify(capsys, tmp_path):
    out_file = tmp_path / "code.proj"
    code, _, _ = run(capsys, "proj", "--n", "3", "--q", "2",
                     "--out", str(out_file))
    assert code == 0
    assert out_file.read_text().startswith("PROJ 3 2 16 1")
    code, out, _ = run(capsys, "verify", str(out_file))
    assert code == 0


def test_verify_crlf_and_trailing_blanks(capsys, tmp_path):
    for argv in (["gen", "--n", "4", "--k", "2", "--q", "3"],
                 ["proj", "--n", "3", "--q", "2"]):
        out_file = tmp_path / "code.txt"
        code, _, _ = run(capsys, *argv, "--out", str(out_file))
        assert code == 0
        text = out_file.read_text()
        expected = run(capsys, "verify", str(out_file))[1]
        assert expected.startswith("PASS")
        for variant in (text.replace("\n", "\r\n"),
                        text.replace("\n", "  \n")):
            out_file.write_bytes(variant.encode())
            code, out, _ = run(capsys, "verify", str(out_file))
            assert code == 0 and out == expected
    out_file.write_bytes(b"")
    code, out, err = run(capsys, "verify", str(out_file))
    assert code == 4 and out == "" and "empty" in err


def test_unwritable_out_path(capsys, tmp_path):
    missing = str(tmp_path / "no_such_dir" / "x.gray")
    for argv in (["gen", "--n", "3", "--k", "1", "--q", "2"],
                 ["proj", "--n", "3", "--q", "2"]):
        code, out, err = run(capsys, *argv, "--out", missing)
        assert code == 1 and out == "" and err.startswith("error:")


def test_proj_unsupported(capsys):
    code, _, err = run(capsys, "proj", "--n", "7", "--q", "2")
    assert code == 2 and "unsupported" in err
    # GF(64^3) and GF(16^5) exceed the field size bound
    for q, n in [("64", "3"), ("16", "5")]:
        code, out, err = run(capsys, "proj", "--n", n, "--q", q)
        assert code == 2 and out == "" and "exceeds bound 65536" in err


def test_nonexist(capsys):
    code, out, _ = run(capsys, "nonexist", "--n", "4", "--q", "2")
    assert code == 0 and out.strip() == "30 < 35 deficit=5"
    code, out, _ = run(capsys, "nonexist", "--n", "4", "--q", "2", "--json")
    data = json.loads(out)
    assert data["deficit"] == "5" and data["cyclic_excluded"]
    code, _, _ = run(capsys, "nonexist", "--n", "3", "--q", "2")
    assert code == 2


def test_gen_pipe_decode_order(capsys, tmp_path):
    out_file = tmp_path / "code.gray"
    run(capsys, "gen", "--n", "3", "--k", "1", "--q", "3",
        "--out", str(out_file))
    blocks = out_file.read_text().split("\n\n")[1:]
    matrix = tmp_path / "m.txt"
    for m, block in enumerate(blocks):
        matrix.write_text(block)
        code, out, _ = run(capsys, "decode", "--n", "3", "--k", "1",
                           "--q", "3", "--input", str(matrix))
        assert code == 0 and int(out.strip()) == m


def test_matrices_wider_than_the_stack_limit(capsys, tmp_path):
    # parsing a matrix and encoding through the dual both canonicalize
    # 1100 columns
    code, out, _ = run(capsys, "encode", "--n", "1100", "--k", "2",
                       "--q", "2", "--index", "0")
    assert code == 0
    matrix = tmp_path / "m.txt"
    matrix.write_text(out)
    code, out, _ = run(capsys, "decode", "--n", "1100", "--k", "2",
                       "--q", "2", "--input", str(matrix))
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, "encode", "--n", "1100", "--k", "1099",
                       "--q", "2", "--index", "0", "--via-dual")
    assert code == 0 and out.split()[:3] == ["1099", "1100", "2"]


def digit_cap():
    """The interpreter's int <-> str digit cap; None where it has none."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def big_int(text):
    """int(text) past the digit cap, which is put back afterwards."""
    cap = digit_cap()
    if cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        return int(text)
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)


def test_indices_above_the_digit_cap_round_trip(capsys, tmp_path):
    # a 4933-digit index, 10^4932 + 12345, written out without converting
    index = "1" + "0" * 4927 + "12345"
    assert 10 ** 4932 + 12345 < gaussian(256, 128, 2)
    cap = digit_cap()
    code, out, err = run(capsys, "encode", "--n", "256", "--k", "128",
                         "--q", "2", "--via-dual", "--index", index)
    assert code == 0, err
    matrix = tmp_path / "m.txt"
    matrix.write_text(out)
    code, out, err = run(capsys, "decode", "--n", "256", "--k", "128",
                         "--q", "2", "--via-dual", "--input", str(matrix))
    assert code == 0 and out.strip() == index, err
    # in-process callers keep their cap
    assert digit_cap() == cap
    # past the last index, with as many digits as it: converted, then
    # rejected
    code, out, err = run(capsys, "encode", "--n", "256", "--k", "128",
                         "--q", "2", "--via-dual", "--index", "9" * 4933)
    assert code == 2 and out == "" and "out of range" in err


def test_counts_above_the_digit_cap(capsys):
    code, out, err = run(capsys, "count", "--n", "300", "--k", "150",
                         "--q", "2")
    assert code == 0 and big_int(out) == gaussian(300, 150, 2), err
    code, out, err = run(capsys, "nonexist", "--n", "300", "--q", "2")
    report = nonexistence_certificate(300, 2)
    neighbors, middle, deficit = out.replace("<", " ").split()
    assert code == 0, err
    assert big_int(neighbors) == report.neighbor_count
    assert big_int(middle) == report.middle_count
    assert big_int(deficit.split("=")[1]) == report.deficit


def test_decimal_is_str():
    # below, at and past the split sizes, up to 200k digits; the
    # interpreter's digit cap does not apply to cli's helper
    rng = random.Random(28)
    cap = digit_cap()
    if cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        for digits in (1, 2, 9, 4300, 9864, 9865, 12345, 40000, 200000):
            for m in (10 ** (digits - 1), 10 ** digits - 1,
                      rng.randrange(10 ** (digits - 1), 10 ** digits)):
                assert cli._decimal(m) == str(m), digits
        for bits in (1 << 15, (1 << 15) + 1, 1 << 16, 4096 << 5):
            for m in ((1 << bits) - 1, 1 << bits - 1,
                      rng.getrandbits(bits)):
                assert cli._decimal(m) == str(m), bits
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)


def test_non_integer_index_is_not_an_integer(capsys):
    # "1e3" has more characters than any index of a 35-item code has
    # digits, and must not be taken for an index out of range
    for bad in ("1e3", "abc", "1" * 10 ** 6 + "e", "1__2", "+-1", ""):
        start = time.perf_counter()
        code, out, err = run(capsys, "encode", "--n", "4", "--k", "2",
                             "--q", "2", "--index", bad)
        assert code == 2 and out == "", bad
        assert "not an integer" in err and "range" not in err, (bad, err)
        assert time.perf_counter() - start < 1.0
    # what int() reads stays an index: signs, underscores, spaces
    for text, m in (("+1_0", 10), (" 7 ", 7), ("-0", 0)):
        code, out, _ = run(capsys, "encode", "--n", "4", "--k", "2", "--q",
                           "2", "--index", text)
        assert code == 0 and out == run(capsys, "encode", "--n", "4", "--k",
                                        "2", "--q", "2", "--index",
                                        str(m))[1], text


def test_overlong_index_is_out_of_range_at_once(capsys):
    # converting a million digits would take seconds; the digit count
    # alone rules it out
    start = time.perf_counter()
    code, out, err = run(capsys, "encode", "--n", "8", "--k", "4", "--q", "2",
                         "--index", "1" * 10 ** 6)
    assert code == 2 and out == "" and "out of range" in err
    assert time.perf_counter() - start < 1.0
    # leading zeros are not significant digits
    code, out, _ = run(capsys, "encode", "--n", "8", "--k", "4", "--q", "2",
                       "--index", "0" * 5000 + "7")
    assert code == 0 and out.split()[:3] == ["4", "8", "2"]
