import os
import random
import subprocess
import sys

import pytest

from cdckit import cli
from cdckit.cdc import IdVec, ferrers_of, hamming_guard, multilevel
from cdckit.cli import _digits, main, read_cdc, read_fdrmc
from cdckit.errors import ConditionNotMet
from cdckit.ferrers import optimal_fdrmc, singleton_bound
from cdckit.gf import SUPPORTED_ORDERS
from cdckit.theorems import th41_bound
from cdckit.verify import EXHAUSTIVE_PAIR_CAP, _table_entries, check_cdc


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bound_table11(capsys):
    code, out, _ = run_cli(["bound", "-q", "2", "-n", "18", "-d", "8",
                            "-k", "9", "--source", "table11"], capsys)
    assert code == 0
    assert "18015215399116937" in out
    assert "previous bound" in out and "1015379" in out


def test_bound_example_source(capsys):
    code, out, _ = run_cli(["bound", "-q", "3", "-n", "19", "-d", "8",
                            "-k", "9", "--source", "example:4"], capsys)
    assert code == 0
    assert "42391159260137223209995120164" in out


def test_bound_source_mismatch_flagged(capsys):
    code, out, _ = run_cli(["bound", "-q", "3", "-n", "15", "-d", "6",
                            "-k", "6", "--source", "th44"], capsys)
    assert code == 0
    assert "150102574834751811" in out
    assert "MISMATCH" in out and "150102606086671257" in out


def test_bound_auto_uses_registry(capsys):
    code, out, _ = run_cli(["bound", "-q", "3", "-n", "16", "-d", "6",
                            "-k", "6"], capsys)
    assert code == 0 and "12158308561614895971" in out


def test_bound_auto_skips_th44_above_d6(capsys):
    code, out, _ = run_cli(["bound", "-q", "2", "-n", "20", "-d", "8",
                            "-k", "9"], capsys)
    assert code == 0
    value = th41_bound(2, 20, 4, 9).value
    assert out.startswith(f"A_2(20,8,9) >= {value}   [th41]")


def test_table11_text_and_exit(capsys):
    code, out, _ = run_cli(["table11"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("A_")]
    assert len(lines) == 65
    assert all(l.endswith("ok") for l in lines)


def test_table11_csv(capsys):
    code, out, _ = run_cli(["table11", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q,n,d,k,new,old,diff,status"
    assert len(lines) == 66
    assert lines[1].startswith("2,18,8,9,18015215399116937,")


def test_table11_consistency(capsys):
    code, out, _ = run_cli(["table11", "--consistency"], capsys)
    assert code == 0
    assert "53/65 rows match" in out


def test_table11_corrupted_registry(tmp_path, capsys):
    bad = tmp_path / "reg.txt"
    bad.write_text("2 18 8 9 18015215399116938 18015215398101558\n")
    code, out, err = run_cli(["table11", "--registry", str(bad)], capsys)
    assert code == 1
    assert "MISMATCH" in out and "FAILED" in err


def test_build_check_round_trip(tmp_path, capsys):
    out1 = tmp_path / "ml.cdc"
    code, _, _ = run_cli(["build", "--multilevel", "1100,0011", "-q", "2",
                          "--delta", "2", "--out", str(out1)], capsys)
    assert code == 0
    code, out, _ = run_cli(["check", "--in", str(out1)], capsys)
    assert code == 0 and "PASS" in out and "min_distance=4" in out
    # rebuild and compare bytes
    out2 = tmp_path / "ml2.cdc"
    run_cli(["build", "--multilevel", "1100,0011", "-q", "2",
             "--delta", "2", "--out", str(out2)], capsys)
    assert out1.read_bytes() == out2.read_bytes()
    # reread-rewrite is also byte-identical
    from cdckit.cli import write_cdc
    code_obj = read_cdc(str(out1))
    out3 = tmp_path / "ml3.cdc"
    write_cdc(code_obj, str(out3))
    assert out1.read_bytes() == out3.read_bytes()


NOT_RREF = "generator block is not in reduced echelon form"


def non_rref_blocks():
    """(q, blocks, message) for files whose last block is not in RREF: the
    file's only block, at line 3, or one after a valid block, at line 6."""
    valid = "1000\n0100\n"
    for q in (2, 3, 4, 9):
        yield pytest.param(q, ["0101\n1010\n"], f"line 3: {NOT_RREF}",
                           id=f"rows-out-of-order-q{q}")
        yield pytest.param(q, [valid, "1100\n0100\n"], f"line 6: {NOT_RREF}",
                           id=f"echelon-not-reduced-q{q}")
        yield pytest.param(
            q, [valid, "1000\n0200\n"],
            "line 7: entry out of range for q=2" if q == 2 else
            f"line 6: {NOT_RREF}", id=f"pivot-2-q{q}")
        yield pytest.param(q, [valid, "1000\n0000\n"],
                           "line 6: generator rows are linearly dependent",
                           id=f"zero-last-row-q{q}")


@pytest.mark.parametrize("q, blocks, message", non_rref_blocks())
def test_check_rejects_non_rref_block(tmp_path, capsys, q, blocks, message):
    f = tmp_path / "bad.cdc"
    f.write_text(f"cdc v1 q={q} n=4 k=2 d=2 count={len(blocks)}\n"
                 + "".join("\n" + b for b in blocks))
    code, out, err = run_cli(["check", "--in", str(f)], capsys)
    assert code == 2 and out == ""
    assert err == f"parse error: {message}\n"


def test_check_fails_on_wrong_distance(tmp_path, capsys):
    f = tmp_path / "close.cdc"
    f.write_text("cdc v1 q=2 n=4 k=2 d=4 count=2\n\n"
                 "1000\n0100\n\n1000\n0010\n")
    code, out, _ = run_cli(["check", "--in", str(f)], capsys)
    assert code == 1 and "FAIL" in out


def test_rankdist(capsys):
    code, out, _ = run_cli(["rankdist", "-q", "2", "-m", "3", "-n", "3",
                            "--delta", "2"], capsys)
    assert code == 0
    assert "rank 2: 49" in out and "rank 3: 14" in out
    assert "total 64" in out and "identity OK" in out


def test_integers_past_4300_digits_print_in_full(capsys):
    """2^14400 codewords, 4,335 digits: past the length Python converts to
    decimal by default, a limit that main lifts only while it runs."""
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(["rankdist", "-q", "2", "-m", "120", "-n", "120",
                              "--delta", "1"], capsys)
    assert (code, err) == (0, "") and sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        size = str(2 ** 14400)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(size) == 4335
    assert out.splitlines()[-1] == f"total {size} (code size {size}: identity OK)"


def test_digits_match_str():
    """``_digits`` is ``str`` (with the length limit lifted) from 0 to
    200,000 bits: random values, powers of two and 2^b - 1, either sign,
    across the 4,096-bit switch to ``decimal``."""
    rng = random.Random(5)
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        for b in (0, 1, 63, 4095, 4096, 4097, 8191, 8193, 12345, 65536, 200000):
            for n in (rng.getrandbits(b), 1 << b, (1 << b) - 1):
                assert _digits(n) == str(n) and _digits(-n) == str(-n)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("source, ambient", [
    ("table11", ["-q", "2", "-n", "18", "-d", "8", "-k", "9"]),  # previous bound
    ("th44", ["-q", "3", "-n", "15", "-d", "6", "-k", "6"]),  # MISMATCH line
])
def test_bound_prints_every_integer_through_digits(source, ambient, monkeypatch,
                                                   capsys):
    """The value and the two integers of its previous-bound or MISMATCH line
    are made by ``_digits``."""
    seen = []
    monkeypatch.setattr(cli, "_digits", lambda n: seen.append(n) or str(n))
    code, out, _ = run_cli(["bound", *ambient, "--source", source], capsys)
    assert code == 0 and len(seen) == 3
    assert [str(n) in out for n in seen] == [True] * 3


def test_fdrmc_build_audit_round_trip(tmp_path, capsys):
    f = tmp_path / "c.fdrmc"
    code, _, _ = run_cli(["build", "--fdrmc", "F=[1,2,4]", "-q", "2",
                          "--delta", "2", "--out", str(f)], capsys)
    assert code == 0
    code, out, _ = run_cli(["audit", "--in", str(f)], capsys)
    assert code == 0 and "PASS" in out and "optimal: True" in out
    loaded = read_fdrmc(str(f))
    assert loaded.dim == 3 and loaded.optimal


def test_build_count_only_fallback(tmp_path, capsys, monkeypatch):
    import cdckit.cli as cli_mod
    monkeypatch.setattr(cli_mod, "BUILD_CAP", 3)
    out = tmp_path / "x.cdc"
    code, _, err = run_cli(["build", "--multilevel", "1100,0011", "-q", "2",
                            "--delta", "2", "--out", str(out)], capsys)
    assert code == 1 and "TooLarge" in err
    code, outtext, _ = run_cli(["build", "--multilevel", "1100,0011", "-q", "2",
                                "--delta", "2", "--out", str(out),
                                "--force-count-only"], capsys)
    assert code == 0 and "count-only: 5" in outtext


COUNT_ONLY_27 = ["build", "--multilevel", "111111111111110000000000000,"
                 "000000000000011111111111111", "-q", "2", "--delta", "2",
                 "--force-count-only"]


def test_count_only_builds_nothing(tmp_path, capsys, monkeypatch):
    """The count is the sum of q^(dimension bound) over the vectors'
    diagrams, so no diagram code is built for it: 2^168 + 1 here."""
    import cdckit.cli as cli_mod

    def unbuildable(*args):
        raise AssertionError("count-only built a diagram code")
    monkeypatch.setattr(cli_mod, "optimal_fdrmc", unbuildable)
    code, out, _ = run_cli(COUNT_ONLY_27 + ["--out", str(tmp_path / "x.cdc")], capsys)
    assert code == 0 and out == f"count-only: {2 ** 168 + 1} codewords\n"
    assert not (tmp_path / "x.cdc").exists()
    code, _, err = run_cli(COUNT_ONLY_27[:-1] + ["--out", str(tmp_path / "x.cdc")],
                           capsys)
    assert code == 1 and f"{2 ** 168 + 1} codewords exceed build cap" in err


@pytest.mark.parametrize("flag", [["--force-count-only"], []])
def test_count_only_and_its_refusal_print_the_count_through_digits(
        flag, tmp_path, monkeypatch, capsys):
    """The printed count and the ``TooLarge`` message's count are made by
    ``_digits``, so a count of a million digits takes no quadratic ``str``."""
    seen = []
    monkeypatch.setattr(cli, "_digits", lambda n: seen.append(n) or str(n))
    code, out, err = run_cli(COUNT_ONLY_27[:-1] + flag
                             + ["--out", str(tmp_path / "x.cdc")], capsys)
    assert (code, seen) == (0 if flag else 1, [2 ** 168 + 1])
    assert str(2 ** 168 + 1) in (out if flag else err)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
@pytest.mark.parametrize("vectors, delta", [
    (("1100", "0011"), 2),      # q^2 + 1
    (("1010", "0101"), 1),      # q^3 + q
    (("11000", "00110"), 2)])   # q^3 + 1: a diagram whose bound is 0
def test_count_only_equals_the_built_size(tmp_path, capsys, monkeypatch, q,
                                          vectors, delta):
    import cdckit.cli as cli_mod
    monkeypatch.setattr(cli_mod, "BUILD_CAP", 0)
    code, out, _ = run_cli(["build", "--multilevel", ",".join(vectors), "-q",
                            str(q), "--delta", str(delta), "--out",
                            str(tmp_path / "x.cdc"), "--force-count-only"], capsys)
    ids = [IdVec.from_string(v) for v in vectors]
    built = multilevel([(v, optimal_fdrmc(ferrers_of(v).diagram, delta, q))
                        for v in ids], delta)
    assert code == 0 and out == f"count-only: {built.size} codewords\n"


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_count_only_equals_the_certified_build_on_random_vector_sets(
        tmp_path, capsys, monkeypatch, q):
    """Random sets of weight-k vectors of length n <= 8 at pairwise Hamming
    distance >= 2 delta, delta = 1 and 2: the code ``multilevel`` builds
    has the sum of q^(dimension bound) codewords that ``--force-count-only``
    prints, and its certificate passes at 2 delta.  A set is skipped when
    every lift is one codeword, when it has more than 2,000 codewords, when
    a diagram's support intersection falls short of the bound
    (``ConditionNotMet``), or when the certifier's tables would exceed its
    work cap, so that the certificate hashes, not ranks pairs."""
    import cdckit.cli as cli_mod
    monkeypatch.setattr(cli_mod, "BUILD_CAP", 0)
    rng = random.Random(q)
    for delta in (1, 2):
        done = 0
        while done < 5:
            n = rng.randrange(3, 9)
            k = rng.randrange(1, n)
            vectors = []
            for _ in range(rng.randrange(1, 5)):
                ones = set(rng.sample(range(n), k))
                v = IdVec(tuple(int(i in ones) for i in range(n)))
                if all(hamming_guard(u, v) >= 2 * delta for u in vectors):
                    vectors.append(v)
            total = sum(q ** singleton_bound(ferrers_of(v).diagram, delta)
                        for v in vectors)
            if not len(vectors) < total <= 2000:
                continue
            try:
                entries = [(v, optimal_fdrmc(ferrers_of(v).diagram, delta, q))
                           for v in vectors]
            except ConditionNotMet:
                continue
            built = multilevel(entries, delta)
            if _table_entries(built) > EXHAUSTIVE_PAIR_CAP:
                continue
            code, out, _ = run_cli(["build", "--multilevel", ",".join(map(str, vectors)),
                                    "-q", str(q), "--delta", str(delta), "--out",
                                    str(tmp_path / "x.cdc"), "--force-count-only"], capsys)
            assert code == 0 and out == f"count-only: {total} codewords\n"
            assert built.size == total and built.d == 2 * delta
            assert check_cdc(built).passed, vectors
            done += 1


def test_bound_example_notes(capsys):
    code, out, _ = run_cli(["bound", "-q", "2", "-n", "17", "-d", "6", "-k", "8",
                            "--source", "example:5"], capsys)
    assert code == 0
    assert out.splitlines()[-2:] == [
        "  note: published total exceeds recomputation",
        "  note: published vector tables violate their across-list distance"]


def test_table11_csv_consistency_columns(capsys):
    code, out, _ = run_cli(["table11", "--format", "csv", "--consistency"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q,n,d,k,new,old,diff,status,recomputed,consistent"
    assert lines[-1] == "# consistency: 53/65 rows match their reconstruction"
    rows = [line.split(",") for line in lines[1:-1]]
    assert len(rows) == 65 and {len(r) for r in rows} == {10}
    assert lines[1] == ("2,18,8,9,18015215399116937,18015215398101558,1015379,"
                        "ok,18015215399116937,yes")
    off = [r for r in rows if r[9] == "no"]
    assert len(off) == 12 and all(r[9] == "yes" for r in rows if r not in off)
    assert all(int(r[8]) < int(r[4]) for r in off)
    assert {(r[1], r[2], r[3]) for r in off} == {("15", "6", "6"), ("17", "6", "8")}


def test_usage_error_exit_code():
    # the child imports cdckit from wherever this process does
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-m", "cdckit.cli", "bound", "-q", "2"],
        capture_output=True, env=env)
    assert proc.returncode == 2


def test_a_reader_that_stops_early_gets_no_traceback():
    """``table11 --consistency | head -1``: the output outgrows the pipe's
    buffers, so the command writes into a closed pipe; it still exits 0 and
    prints nothing on stderr."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "cdckit.cli", "table11", "--consistency"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"A_2(18,8,9)")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert b"Traceback" not in err and not err, err


def test_check_kv_output(tmp_path, capsys):
    f = tmp_path / "ml.cdc"
    run_cli(["build", "--multilevel", "1100,0011", "-q", "2",
             "--delta", "2", "--out", str(f)], capsys)
    code, out, _ = run_cli(["check", "--in", str(f), "--kv"], capsys)
    assert code == 0
    assert "passed=true" in out and "min_distance=4" in out


def assert_parse_error(args, capsys, line):
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and f"line {line}:" in err
    assert "Traceback" not in err


def test_check_non_integer_header_field(tmp_path, capsys):
    f = tmp_path / "bad.cdc"
    f.write_text("cdc v1 q=2 n=x k=2 d=4 count=1\n\n1000\n0100\n")
    assert_parse_error(["check", "--in", str(f)], capsys, 1)


def test_check_missing_input_file(tmp_path, capsys):
    assert_parse_error(["check", "--in", str(tmp_path / "absent.cdc")],
                       capsys, 1)


def test_check_unsupported_field_order(tmp_path, capsys):
    f = tmp_path / "q6.cdc"
    f.write_text("cdc v1 q=6 n=4 k=2 d=4 count=1\n\n1000\n0100\n")
    assert_parse_error(["check", "--in", str(f)], capsys, 1)


def test_audit_non_ascending_diagram(tmp_path, capsys):
    f = tmp_path / "bad.fdrmc"
    f.write_text("fdrmc v1 q=2 m=2 n=2 delta=1 dim=1 diagram=2,1 "
                 "orient=forward\n\n11\n01\n")
    assert_parse_error(["audit", "--in", str(f)], capsys, 1)


def test_check_rank_deficient_block(tmp_path, capsys):
    f = tmp_path / "zero.cdc"
    f.write_text("cdc v1 q=2 n=4 k=2 d=4 count=1\n\n1000\n0000\n")
    assert_parse_error(["check", "--in", str(f)], capsys, 3)


def test_audit_entry_out_of_range(tmp_path, capsys):
    f = tmp_path / "big.fdrmc"
    f.write_text("fdrmc v1 q=2 m=2 n=2 delta=1 dim=1 diagram=1,2 "
                 "orient=forward\n\n12\n01\n")
    assert_parse_error(["audit", "--in", str(f)], capsys, 3)


def test_audit_header_shape_disagrees_with_diagram(tmp_path, capsys):
    f = tmp_path / "shape.fdrmc"
    f.write_text("fdrmc v1 q=2 m=3 n=2 delta=1 dim=1 diagram=1,2 "
                 "orient=forward\n\n01\n01\n01\n")
    assert_parse_error(["audit", "--in", str(f)], capsys, 1)


def test_check_undecodable_header(tmp_path, capsys):
    f = tmp_path / "binary.cdc"
    f.write_bytes(b"cdc v1 q=2 n=\xff4 k=2 d=4 count=1\n\n1000\n0100\n")
    assert_parse_error(["check", "--in", str(f)], capsys, 1)


def test_check_lifted_mrd_above_the_pair_cap(tmp_path, capsys):
    # 8,386,560 pairs, more than the 10^6 cap, but hashing builds only
    # 4096 * 161 = 659,456 table entries
    from cdckit.cli import write_cdc
    from cdckit.rankmetric import gabidulin, lift
    f = tmp_path / "lifted.cdc"
    write_cdc(lift(gabidulin(2, 4, 4, 2)), str(f))
    code, out, err = run_cli(["check", "--in", str(f)], capsys)
    assert code == 0 and err == ""
    assert out.startswith("PASS (8,4096,4,4)_2-CDC mode=exhaustive "
                          "min_distance=4 ")


def test_check_sampled_one_codeword_names_its_seed(tmp_path, capsys):
    f = tmp_path / "one.cdc"
    f.write_text("cdc v1 q=2 n=4 k=2 d=4 count=1\n\n1000\n0100\n")
    code, out, err = run_cli(["check", "--in", str(f), "--mode", "sampled",
                              "--seed", "5"], capsys)
    assert code == 0 and err == ""
    assert out == ("PASS (4,1,4,2)_2-CDC mode=sampled(seed=5) min_distance=None "
                   "declared=4 pairs=0 violations=0\n")


def test_audit_entry_outside_the_diagram(tmp_path, capsys):
    # diagram 1,2 has no dot in row 1 of column 0
    f = tmp_path / "leak.fdrmc"
    f.write_text("fdrmc v1 q=2 m=2 n=2 delta=1 dim=1 diagram=1,2 "
                 "orient=forward\n\n01\n11\n")
    code, out, err = run_cli(["audit", "--in", str(f)], capsys)
    assert code == 1 and out.startswith("FAIL ") and err == ""
    from cdckit.verify import audit_fdrmc
    assert audit_fdrmc(read_fdrmc(str(f))).violations == [("support", 0, 1, 0)]


@pytest.mark.parametrize("fields", ["delta=0 orient=forward",
                                    "delta=1 orient=sideways"])
def test_audit_bad_delta_or_orientation(tmp_path, capsys, fields):
    f = tmp_path / "header.fdrmc"
    f.write_text(f"fdrmc v1 q=2 m=2 n=2 dim=1 diagram=1,2 {fields}"
                 "\n\n01\n01\n")
    assert_parse_error(["audit", "--in", str(f)], capsys, 1)


@pytest.mark.parametrize("header, body", [
    ("k=2 d=-3 count=1", "\n1000\n0100\n"), ("k=5 d=4 count=0", ""),
    ("k=0 d=4 count=1", "\n1000\n0100\n")])
def test_check_header_dimension_and_distance(tmp_path, capsys, header, body):
    f = tmp_path / "header.cdc"
    f.write_text(f"cdc v1 q=2 n=4 {header}\n{body}")
    assert_parse_error(["check", "--in", str(f)], capsys, 1)


@pytest.mark.parametrize("command, text", [
    ("check", "cdc v1 q=2 n=4 k=2 d=2 count=1 q=3\n\n1000\n0100\n"),
    ("audit", "fdrmc v1 q=2 m=2 n=2 delta=1 dim=1 diagram=1,2 "
              "orient=forward delta=2\n\n01\n01\n")], ids=["cdc", "fdrmc"])
def test_repeated_header_field(tmp_path, capsys, command, text):
    f = tmp_path / "repeated"
    f.write_text(text)
    code, out, err = run_cli([command, "--in", str(f)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("parse error: line 1: repeated header field ")


@pytest.mark.parametrize("head, blocks, line", [
    ("m=2 n=2 dim=1 diagram=1,2", "\n00\n00\n", 3),
    ("m=1 n=2 dim=2 diagram=1,1", "\n11\n\n11\n", 5)])
def test_audit_dependent_basis(tmp_path, capsys, head, blocks, line):
    f = tmp_path / "dependent.fdrmc"
    f.write_text(f"fdrmc v1 q=2 {head} delta=1 orient=forward\n{blocks}")
    assert_parse_error(["audit", "--in", str(f)], capsys, line)


BUILD_ML = ["build", "--multilevel", "1100,0011", "-q", "2", "--delta", "2"]
BUILD_F = ["build", "--fdrmc", "F=[1,2,4]", "-q", "2", "--delta", "2"]


@pytest.mark.parametrize("registry, argv, message", [
    pytest.param(None, ["build", "--multilevel", "11a0", "-q", "2", "--delta",
                        "2", "--out", "{tmp}/x.cdc"],
                 "usage error: --multilevel '11a0': identifying vectors are "
                 "binary", id="multilevel-non-digit"),
    pytest.param(None, ["build", "--fdrmc", "F=[1,a]", "-q", "2", "--delta",
                        "2", "--out", "{tmp}/x.fdrmc"],
                 "usage error: bad diagram 'F=[1,a]' ", id="fdrmc-non-digit"),
    pytest.param(None, ["build", "--fdrmc", "1,2", "-q", "2", "--delta",
                        "1", "--out", "{tmp}/x.fdrmc"],
                 "usage error: bad diagram '1,2' (not in brackets); expected "
                 "F=[c1,c2,...]", id="fdrmc-without-brackets"),
    pytest.param("# q n d k new old\n2 18 8 9 18015215399116937 1015379x\n",
                 ["table11", "--registry", "{tmp}/reg.txt"],
                 "parse error: line 2: expected integer fields",
                 id="registry-non-integer"),
    pytest.param("2 18 8 9 18015215399116937\n",
                 ["table11", "--registry", "{tmp}/reg.txt"],
                 "usage error: registry row A_2(18,8,9) has no old bound",
                 id="registry-without-old"),
    pytest.param("2 18 8 9 18015215399116937 1015379\n"
                 "2 18 8 9 18015215399116938 1015379\n",
                 ["table11", "--registry", "{tmp}/reg.txt"],
                 "parse error: line 2: repeated row A_2(18,8,9)",
                 id="registry-repeated-row"),
    pytest.param("# q n d k new old\n\n", ["table11", "--registry",
                                          "{tmp}/reg.txt"],
                 "parse error: line 1: registry has no rows",
                 id="registry-without-rows"),
    pytest.param(None, ["table11", "--registry", "{tmp}/absent.txt"],
                 "parse error: line 1: cannot read file: ",
                 id="registry-missing"),
    pytest.param(None, ["bound", "-q", "2", "-n", "18", "-d", "8", "-k", "9",
                        "--registry", "{tmp}"],
                 "parse error: line 1: cannot read file: ",
                 id="registry-is-a-directory"),
    pytest.param(None, BUILD_ML + ["--out", "{tmp}/absent/ml.cdc"],
                 "usage error: cannot write ", id="out-in-missing-directory"),
    pytest.param(None, BUILD_F + ["--out", "{tmp}"],
                 "usage error: cannot write ", id="out-is-a-directory"),
    pytest.param(None, ["bound", "-q", "2", "-n", "10", "-d", "4", "-k", "3",
                        "--source", "example:4"],
                 "usage error: example:4 bounds A_2(19,8,9), not A_2(10,4,3)",
                 id="example-for-other-parameters"),
    pytest.param(None, ["rankdist", "-q", "2", "-m", "2", "-n", "2",
                        "--delta", "5"],
                 "usage error: need 1 <= delta <= min(m, n), got delta=5",
                 id="rankdist-delta-too-large"),
    pytest.param(None, ["build", "--multilevel", "1100,1010", "-q", "2",
                        "--delta", "2", "--out", "{tmp}/x.cdc"],
                 "usage error: --multilevel '1100,1010': d_H(1100, 1010) = 2 "
                 "< 4", id="multilevel-vectors-too-close"),
    pytest.param(None, ["build", "--fdrmc", "F=[1,2,4]", "-q", "6", "--delta",
                        "2", "--out", "{tmp}/x.fdrmc"],
                 "usage error: q=6 not in supported orders",
                 id="build-unsupported-order"),
    pytest.param(None, ["build", "--multilevel", "1100,0011", "-q", "2",
                        "--delta", "0", "--out", "{tmp}/x.cdc"],
                 "usage error: --delta 0 is not positive",
                 id="build-delta-not-positive"),
    pytest.param(None, ["bound", "-q", "2", "-n", "10", "-d", "4", "-k", "3",
                        "--source", "th44"],
                 "usage error: --source th44: need k >= 4, got 3",
                 id="th44-k-too-small"),
    pytest.param(None, ["bound", "-q", "2", "-n", "20", "-d", "8", "-k", "9",
                        "--source", "th44"],
                 "usage error: --source th44: need d <= 6, got d=8",
                 id="th44-distance-above-6"),
    pytest.param(None, ["bound", "-q", "2", "-n", "10", "-d", "4", "-k", "3",
                        "--source", "table11"],
                 "usage error: A_2(10,4,3) is not a registry row",
                 id="table11-not-a-row"),
    pytest.param("2 10 4 3 100 50\n",
                 ["table11", "--registry", "{tmp}/reg.txt"],
                 "usage error: registry row A_2(10,4,3): no family for "
                 "(n,d,k)=(10,4,3)", id="registry-row-without-family"),
    pytest.param(None, ["rankdist", "-q", "6", "-m", "2", "-n", "2",
                        "--delta", "1"],
                 "usage error: q=6 is not a prime power",
                 id="rankdist-q-not-a-prime-power"),
    pytest.param(None, ["bound", "-q", "6", "-n", "18", "-d", "8", "-k", "9",
                        "--source", "example:3"],
                 "usage error: q=6 is not a prime power",
                 id="bound-q-not-a-prime-power"),
    pytest.param(None, ["build", "--multilevel", "0000", "-q", "2", "--delta",
                        "1", "--out", "{tmp}/x.cdc"],
                 "usage error: --multilevel '0000': identifying vector must "
                 "have positive weight", id="multilevel-weight-zero"),
    pytest.param(None, ["build", "--fdrmc", "F=[1,2,40]", "-q", "2", "--delta",
                        "2", "--out", "{tmp}/x.fdrmc"],
                 "usage error: --fdrmc 'F=[1,2,40]': extension degree m=40 ",
                 id="fdrmc-degree-too-large"),
    pytest.param(None, BUILD_ML + ["--fdrmc", "F=[1,2,4]", "--out",
                                   "{tmp}/x.cdc"],
                 "usage error: pass exactly one of --multilevel and --fdrmc",
                 id="build-multilevel-and-fdrmc"),
    pytest.param(None, ["bound", "-q", "2", "-n", "18", "-d", "7", "-k", "9",
                        "--source", "th41"],
                 "usage error: construction sources need an even distance",
                 id="th41-odd-distance"),
    pytest.param(None, ["bound", "-q", "2", "-n", "18", "-d", "8", "-k", "9",
                        "--source", "th42"],
                 "usage error: unknown source 'th42': not auto, table11, th41, "
                 "th44 or example:3|4|5|8", id="unknown-source"),
    pytest.param(None, ["bound", "-q", "2", "-n", "10", "-d", "4", "-k", "3"],
                 "usage error: no applicable source", id="auto-without-source"),
])
def test_bad_arguments_exit_2(tmp_path, capsys, registry, argv, message):
    if registry is not None:
        (tmp_path / "reg.txt").write_text(registry)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize("argv, first_line", [
    (["rankdist", "-q", "11", "-m", "2", "-n", "2", "--delta", "1"],
     "rank 0: 1"),
    (["bound", "-q", "11", "-n", "18", "-d", "8", "-k", "9", "--source",
      "example:3"], "A_11(18,8,9) >= "),
    (["bound", "-q", "49", "-n", "18", "-d", "8", "-k", "9", "--source",
      "th41"], "A_49(18,8,9) >= "),
])
def test_formulas_accept_prime_powers_outside_the_fields(capsys, argv,
                                                         first_line):
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == "" and out.startswith(first_line)


def test_check_refuses_a_failing_certificate_that_lists_too_many_pairs(
        tmp_path, capsys):
    """The lifted (8,4096,4,4)_2 code passes at d = 4; declared at d = 6 its
    collision groups list 1,075,200 pairs, above the cap: exit 1."""
    f = tmp_path / "mrd.cdc"
    code, out, _ = run_cli(["build", "--multilevel", "11110000", "-q", "2",
                            "--delta", "2", "--out", str(f)], capsys)
    assert code == 0
    code, out, _ = run_cli(["check", "--in", str(f)], capsys)
    assert (code, out) == (0, "PASS (8,4096,4,4)_2-CDC mode=exhaustive "
                              "min_distance=4 declared=4 pairs=8386560 "
                              "violations=0\n")
    text = f.read_text()
    f.write_text(text.replace(" d=4 ", " d=6 ", 1))
    code, out, err = run_cli(["check", "--in", str(f)], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: TooLarge: failing certificate lists 1075200 "
                   "pairs, above cap 1000000\n")


def test_consecutive_main_calls_share_one_parser(tmp_path, capsys):
    # each call's output and exit code, made with a new parser and then
    # again in one run of calls through the one cached parser
    f = str(tmp_path / "ml.cdc")
    calls = [["build", "--multilevel", "1100,0011", "-q", "2", "--delta", "2",
              "--out", f],
             ["check", "--in", f, "--kv"],
             ["check", "--in", f],
             ["bound", "-q", "2", "-n", "18", "-d", "8", "-k", "9",
              "--source", "table11"],
             ["bound", "-q", "2"],
             ["bound", "-q", "2", "-n", "20", "-d", "8", "-k", "9"],
             ["rankdist", "-q", "3", "-m", "2", "-n", "2", "--delta", "1"],
             ["check", "--in", f, "--mode", "sampled", "--seed", "7"],
             ["check", "--in", f]]

    def run(args):
        try:
            code = main(args)
        except SystemExit as e:  # argparse's usage error
            code = e.code
        return code, capsys.readouterr()

    fresh = []
    for args in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(args))
    assert [code for code, _ in fresh] == [0, 0, 0, 0, 2, 0, 0, 0, 0]
    assert "passed=true" in fresh[1][1].out and "passed=" not in fresh[2][1].out
    assert "[th41]" in fresh[5][1].out
    cli.build_parser.cache_clear()
    assert [run(args) for args in calls] == fresh
    assert cli.build_parser() is cli.build_parser()
