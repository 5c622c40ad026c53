"""Mutated-file fuzz of the two readers through ``cli.main``.

The files written by ``build --multilevel 1100,0011`` and ``build --fdrmc
F=[1,2,4]`` (both pinned by SHA-256 here) get random byte edits,
truncations, dropped lines and swapped header tokens or values.  Whatever
the bytes, ``check`` and ``audit`` must return 0 or 1, or 2 with a
``line N:`` parse error, and never raise.  ``read_cdc`` must also read each
mutated ``.cdc`` file as the line-by-line oracle reader does.
"""

import hashlib
import re

import pytest
from hypothesis import given, settings, strategies as st

import cdc_oracle
from cdckit.cli import main, read_cdc

SEEDS = {
    "check": (["--multilevel", "1100,0011"], "ml.cdc",
              "633d448e60ece46daab0b1c31d7730889ea5dee1ac58a5712a7d7bafaab8f166"),
    "audit": (["--fdrmc", "F=[1,2,4]"], "c.fdrmc",
              "e7dc5f718665bbeb86c2a9d3432fe0f03c53b63a10c5c505a6b7d4f57ec1d32a"),
}
PARSE_ERROR = re.compile(r"parse error: line [0-9]+: ")

# anywhere in the file: a byte, biased towards the ones the formats use;
# a cut; a dropped line; two header tokens, or only their values, swapped
MUTATION = st.one_of(
    st.tuples(st.just("byte"), st.integers(0, 2 ** 16),
              st.one_of(st.sampled_from(b"0123456789= \n"), st.integers(0, 255))),
    st.tuples(st.just("cut"), st.integers(0, 2 ** 16)),
    st.tuples(st.just("drop"), st.integers(0, 2 ** 16)),
    st.tuples(st.just("swap"), st.integers(0, 15), st.integers(0, 15),
              st.booleans()))


def mutate(data, ops):
    for op, *args in ops:
        if op == "byte" and data:
            i = args[0] % len(data)
            data = data[:i] + bytes([args[1]]) + data[i + 1:]
        elif op == "cut":
            data = data[:args[0] % (len(data) + 1)]
        elif op == "drop":
            lines = data.split(b"\n")
            del lines[args[0] % len(lines)]
            data = b"\n".join(lines)
        elif op == "swap":
            head, nl, body = data.partition(b"\n")
            tokens = head.split(b" ")
            i, j = args[0] % len(tokens), args[1] % len(tokens)
            a, b = tokens[i].partition(b"="), tokens[j].partition(b"=")
            if args[2] and a[1] and b[1]:  # swap the values only
                tokens[i], tokens[j] = a[0] + b"=" + b[2], b[0] + b"=" + a[2]
            else:
                tokens[i], tokens[j] = tokens[j], tokens[i]
            data = b" ".join(tokens) + nl + body
    return data


@pytest.mark.parametrize("command", sorted(SEEDS))
def test_mutated_files_keep_the_exit_code_contract(tmp_path, capsys, command):
    build, name, sha = SEEDS[command]
    seed = tmp_path / name
    assert main(["build", *build, "-q", "2", "--delta", "2",
                 "--out", str(seed)]) == 0
    original = seed.read_bytes()
    assert hashlib.sha256(original).hexdigest() == sha
    path = tmp_path / f"mutated-{name}"

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.lists(MUTATION, min_size=1, max_size=4))
    def check(ops):
        path.write_bytes(mutate(original, ops))
        capsys.readouterr()
        code = main([command, "--in", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 1) or code == 2 and PARSE_ERROR.match(err), (code, err)
    check()


@pytest.mark.parametrize("q", [2, 3, 9])
def test_mutated_cdc_files_read_as_the_oracle_reads(tmp_path, q):
    """The same code, in the same order, or the same parse error message at
    the same line."""
    build, name, _ = SEEDS["check"]
    seed = tmp_path / name
    assert main(["build", *build, "-q", str(q), "--delta", "2",
                 "--out", str(seed)]) == 0
    original = seed.read_bytes()
    path = tmp_path / f"mutated-{name}"

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.lists(MUTATION, min_size=1, max_size=4))
    def check(ops):
        path.write_bytes(mutate(original, ops))
        assert (cdc_oracle.outcome(read_cdc, str(path))
                == cdc_oracle.outcome(cdc_oracle.read_cdc, str(path)))
    check()
