"""The value records: construction, equality, hashing, repr, immutability
and argument errors of all 14 record classes, pinned to the behaviour of
the ``dataclass``-generated methods they replaced."""

import os
import pickle
import re
import subprocess
import sys

import pytest

import cdckit
from cdckit.cdc import Cdc, CdcList, CwcSet, EchelonLayout, IdVec, ferrers_of
from cdckit.errors import BadArguments, NotACwc
from cdckit.ferrers import (FdrmCode, FerrersDiagram, NestedPair, nested_pair,
                            optimal_fdrmc)
from cdckit.gf import ExtFieldCtx, FieldCtx, field_new
from cdckit.linalg import MatGF, Subspace
from cdckit.rankmetric import LinearMatrixCode, MatrixSet
from cdckit.theorems import BoundResult
from cdckit.verify import VerifyReport

F12 = FerrersDiagram((1, 2))
CODE = ("LinearMatrixCode(q=2, m=2, n=2, basis=(MatGF(q=2, [1 0; 0 1]),), "
        "delta=2)")
FDRM = ("FdrmCode(diagram=FerrersDiagram(cols=(1, 2), inverted=False), "
        f"code={CODE}, delta=2, optimal=True)")

# one instance of each class, made by a fresh call each time, and its repr
RECORDS = {
    FieldCtx: (lambda: FieldCtx(**vars(field_new(2))),
               "FieldCtx(q=2, p=2, e=1, modulus=(0, 1))"),
    ExtFieldCtx: (lambda: ExtFieldCtx(field_new(2), 2, (1, 1, 1)),
                  "ExtFieldCtx(base=FieldCtx(q=2, p=2, e=1, modulus=(0, 1)), "
                  "m=2, modulus=(1, 1, 1))"),
    FerrersDiagram: (lambda: FerrersDiagram([1, 1], inverted=True),
                     "FerrersDiagram(cols=(1, 1), inverted=True)"),
    FdrmCode: (lambda: FdrmCode(**vars(optimal_fdrmc(F12, 2, 2))), FDRM),
    NestedPair: (lambda: NestedPair(**vars(nested_pair(F12, 2, 1, 2))),
                 f"NestedPair(c1={FDRM}, c2=FdrmCode(diagram=FerrersDiagram("
                 "cols=(1, 2), inverted=False), code=LinearMatrixCode(q=2, m=2, "
                 "n=2, basis=(MatGF(q=2, [1 0; 0 0]), MatGF(q=2, [0 1; 0 0]), "
                 "MatGF(q=2, [0 0; 0 1])), delta=1), delta=1, optimal=True), "
                 "quotient=(MatGF(q=2, [1 0; 0 0]), MatGF(q=2, [0 1; 0 0])))"),
    LinearMatrixCode: (lambda: LinearMatrixCode(2, 1, 2, (MatGF(2, [[1, 0]]),), 1),
                       "LinearMatrixCode(q=2, m=1, n=2, basis=(MatGF(q=2, "
                       "[1 0]),), delta=1)"),
    MatrixSet: (lambda: MatrixSet(2, 1, 2, words=(1, 2), delta=1, ranks=(1, 1)),
                "MatrixSet(q=2, m=1, n=2, words=(1, 2), delta=1)"),
    IdVec: (lambda: IdVec.from_string("1100"),
            "IdVec(bits=(1, 1, 0, 0), kind='forward')"),
    EchelonLayout: (lambda: ferrers_of.__wrapped__(IdVec.from_string("1010")),
                    "EchelonLayout(vec=IdVec(bits=(1, 0, 1, 0), "
                    "kind='forward'), pivots=(0, 2), diagram=FerrersDiagram("
                    "cols=(1, 2), inverted=False), col_map=(1, 3))"),
    Cdc: (lambda: Cdc(2, 2, 1, 2, rows=(1, 2), provenance="p"),
          "Cdc(q=2, n=2, k=1, d=2, rows=(1, 2), provenance='p')"),
    CwcSet: (lambda: CwcSet((IdVec.from_string("1100"),
                             IdVec.from_string("0011")), 4),
             "CwcSet(vectors=(IdVec(bits=(1, 1, 0, 0), kind='forward'), "
             "IdVec(bits=(0, 0, 1, 1), kind='forward')), min_hd=4)"),
    CdcList: (lambda: CdcList(2, 4, 2, 2, 4, ((1, 2),)),
              "CdcList(q=2, n=4, k=2, intra_d=2, inter_d=4, sizes=((1, 2),), "
              "codes=None, restricted_rank=None)"),
    BoundResult: (lambda: BoundResult(2, 6, 4, 3, 77, "th41", ((1, 6), (5, 0)),
                                      70, ("n",)),
                  "BoundResult(q=2, n=6, d=4, k=3, value=77, source='th41', "
                  "polynomial=((1, 6), (5, 0)), old_bound=70, notes=('n',))"),
    VerifyReport: (lambda: VerifyReport("t", "exhaustive", 2, 2),
                   "VerifyReport(target='t', mode='exhaustive', "
                   "min_distance_found=2, declared=2, violations=[], "
                   "pairs_checked=0, details={})"),
}
MAKE = [make for make, _ in RECORDS.values()]
FROZEN = [make for cls, (make, _) in RECORDS.items() if cls is not VerifyReport]


def test_every_record_class_is_covered():
    names = {make().__class__.__name__ for make in MAKE}
    assert len(names) == 14


@pytest.mark.parametrize("make,text", RECORDS.values())
def test_repr(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make", MAKE)
def test_equal_fields_compare_equal(make):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a.__eq__(object()) is NotImplemented and a != object()
    if make in FROZEN:
        assert hash(a) == hash(b)


def test_unequal_fields_compare_unequal():
    assert FerrersDiagram((1, 2)) != FerrersDiagram((1, 2), inverted=True)
    assert IdVec.from_string("1100") != IdVec.from_string("1100", "inverse")
    assert Cdc(2, 2, 1, 2, rows=(1, 2)) != Cdc(2, 2, 1, 2, rows=(1, 2), provenance="p")
    assert VerifyReport("t", "m", 1, 1) != VerifyReport("t", "m", 1, 1, pairs_checked=3)


def test_matrix_set_ranks_are_not_compared_hashed_or_shown():
    a = MatrixSet(2, 1, 2, words=(1, 2), delta=1, ranks=(1, 1))
    b = MatrixSet(2, 1, 2, words=(1, 2), delta=1)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a.ranks == (1, 1) and b.ranks is None
    assert a != MatrixSet(2, 1, 2, words=(1, 3), delta=1, ranks=(1, 1))


def test_field_repr_hides_its_tables():
    f = field_new(4)
    assert re.fullmatch(r"FieldCtx\(q=4, p=2, e=2, modulus=\(1, 1, 1\)\)", repr(f))
    assert f == FieldCtx(**vars(f)) and f != field_new(2)


@pytest.mark.parametrize("make", MAKE)
def test_records_pickle_as_equal_records(make):
    # value types are shared across worker processes
    r = make()
    back = pickle.loads(pickle.dumps(r))
    assert back == r and repr(back) == repr(r) and vars(back) == vars(r)


@pytest.mark.parametrize("make", FROZEN)
def test_frozen_fields_cannot_be_set_or_deleted(make):
    r = make()
    name = next(iter(vars(r)))
    before = repr(r)
    with pytest.raises(AttributeError):
        setattr(r, name, 0)
    with pytest.raises(AttributeError):
        delattr(r, name)
    with pytest.raises(AttributeError):
        r.new_attribute = 0
    assert repr(r) == before


def test_verify_report_is_mutable_and_unhashable():
    a, b = VerifyReport("t", "m", 1, 1), VerifyReport("t", "m", 1, 1)
    with pytest.raises(TypeError):
        hash(a)
    assert a.violations is not b.violations and a.details is not b.details
    a.violations.append((0, 1))
    a.details["k"] = 1
    a.pairs_checked = 5
    assert (b.violations, b.details, b.pairs_checked) == ([], {}, 0)
    assert not a.passed and b.passed and a != b
    del a.details
    assert "details" not in vars(a)


@pytest.mark.parametrize("call", [
    lambda: IdVec(),                                   # missing
    lambda: IdVec((1, 0), "forward", 3),               # extra
    lambda: IdVec((1, 0), colour=1),                   # unknown
    lambda: IdVec((1, 0), bits=(0, 1)),                # given twice
    lambda: FerrersDiagram(inverted=True),
    lambda: FerrersDiagram((1,), cols=(1,)),
    lambda: ExtFieldCtx(field_new(2), 2),
    lambda: ExtFieldCtx(field_new(2), 2, (1, 1, 1), m=2),
    lambda: LinearMatrixCode(2, 1, 2, ()),
    lambda: LinearMatrixCode(2, 1, 2, (), 1, 1),
    lambda: LinearMatrixCode(2, 1, 2, (), delta=1, dim=1),
    lambda: FdrmCode(F12, None, 1),
    lambda: NestedPair(None, None, (), None),
    lambda: CwcSet((IdVec((1, 0)),), min_hd=1, n=2),
    lambda: CdcList(2, 4, 2, 2, 4),
    lambda: CdcList(2, 4, 2, 2, 4, (), None, None, None),
    lambda: BoundResult(2, 6, 4, 3, 77, source="x", value=1),
    lambda: BoundResult(2, 6, 4, 3, 77),
    lambda: VerifyReport("t", "m", 1),
    lambda: VerifyReport("t", "m", 1, 1, [], 0, {}, 0),
    lambda: VerifyReport("t", "m", 1, 1, passed=True),
    lambda: FieldCtx(2, 2, 1, (0, 1), (), ()),
    lambda: Cdc(2, 2, 1),
    lambda: Cdc(2, 2, 1, 2, None, "", (), 0),
    lambda: Cdc(2, 2, 1, 2, size=0),
    lambda: MatrixSet(2, 1, 2, (), 1, None, 0),
    lambda: MatrixSet(2, 1, 2, (), 1, size=0),
])
def test_bad_arguments_raise_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_keywords_and_defaults_bind_like_positionals():
    assert IdVec(bits=(1, 0)) == IdVec((1, 0), "forward")
    assert BoundResult(q=2, n=6, d=4, k=3, value=1, source="s", notes=("x",)) == \
        BoundResult(2, 6, 4, 3, 1, "s", None, None, ("x",))
    assert VerifyReport("t", "m", None, 2, details={"a": 1}).details == {"a": 1}


def test_constructor_checks_keep_their_errors():
    assert IdVec("10").bits == (1, 0) and IdVec(["1", 0]).bits == (1, 0)
    assert FerrersDiagram([1, 2]).cols == (1, 2)
    for call, message in [
            (lambda: IdVec((1, 2)), "identifying vectors are binary"),
            (lambda: IdVec((1, 0), "sideways"), "kind must be 'forward' or 'inverse'"),
            (lambda: FerrersDiagram((0, 1)), "empty columns are not stored"),
            (lambda: FerrersDiagram((2, 1)), "column profile (2, 1) is not ascending")]:
        with pytest.raises(BadArguments, match=f"^{re.escape(message)}$"):
            call()
    v = IdVec.from_string
    for vectors, message in [
            ((), "empty vector set"),
            ((v("1100"), v("110")), "mixed lengths, weights, or kinds"),
            ((v("1100"), v("1010")), "d_H(1100, 1010) = 2 < 4")]:
        with pytest.raises(NotACwc, match=f"^{re.escape(message)}$"):
            CwcSet(vectors, 4)


def test_cached_properties_and_given_members_are_kept():
    code = LinearMatrixCode(2, 1, 2, (MatGF(2, [[1, 0]]), MatGF(2, [[0, 1]])), 1)
    assert code.words is code.words and "words" in vars(code)
    assert code.transpose().ranks == code.ranks
    cdc = Cdc(2, 2, 1, 2, rows=(1, 2))
    assert cdc.members == cdc.members and Cdc(2, 2, 1, 2, cdc.members) == cdc
    assert "members" not in vars(cdc) and "members" not in vars(Cdc(2, 2, 1, 2, cdc.members))
    ms = MatrixSet(2, 1, 2, words=(1, 2), delta=1)
    assert MatrixSet(2, 1, 2, ms.members, 1) == ms and ms.members == ms.members
    assert "members" not in vars(ms) and "members" not in vars(MatrixSet(2, 1, 2, ms.members, 1))


def test_matrices_and_subspaces_keep_no_memo():
    # hashes and member masks are computed on each read, into no slot
    U = Subspace(3, 3, [[2, 0, 1]])
    assert hash(U) == hash(Subspace(3, 3, [[1, 0, 2]])) and hash(U.gen) == hash(U.gen)
    assert U.member_mask() == U.member_mask() == 1 | 1 << 11 | 1 << 19  # 000, 102, 201
    assert Subspace.__slots__ == ("q", "n", "k", "gen")
    assert MatGF.__slots__ == ("q", "rows", "cols", "packed")


def test_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter without site (-S), so only the package's own
    # imports count; importlib.resources imports inspect from Python 3.12 on
    src = os.path.dirname(os.path.dirname(cdckit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, cdckit, cdckit.cli; print(sorted("
         "{'dataclasses', 'inspect', 'importlib.resources'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_import_compiles_no_command_line_code():
    # ``import cdckit`` alone: cli.py (about 10 ms to compile in a fresh
    # process) and argparse load only with ``cdckit.cli``
    src = os.path.dirname(os.path.dirname(cdckit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, cdckit; print(sorted("
         "{'argparse', 'cdckit.cli', 'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
