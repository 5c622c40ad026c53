"""Byte pins: the files written for the combined construction, for
multilevel builds over GF(2), GF(3), GF(4) and GF(9) and for lifted MRD
codes over GF(3), GF(4) and GF(9) must repeat bit for bit."""

import hashlib

import pytest

from cdckit.cdc import (Cdc, CwcSet, IdVec, build_coset_cdc_lists, ferrers_of,
                        multilevel)
from cdckit.cli import main, write_cdc
from cdckit.ferrers import optimal_fdrmc
from cdckit.linalg import MatGF, Subspace
from cdckit.rankmetric import gabidulin, lift
from cdckit.theorems import thm32_build

COMBINED_SHA = ("a6c3fdd0b5a32bc798f507eade37a62f"
                "3f13dba38f9124bc14ffcaacdd480209")
MULTILEVEL_SHA = ("a722822844a0a99f4a7892c65e5ba363"
                  "fe5d9dbe36a80d316c78d2dba7f940e3")


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_combined_build_file_bytes(tmp_path):
    q = 2
    fw = CwcSet(vectors=(IdVec.from_string("1100"),), min_hd=4)
    iv = CwcSet(vectors=(IdVec.from_string("0011", kind="inverse"),), min_hd=4)
    A = build_coset_cdc_lists(fw, 2, 1, q, build=True)
    B = build_coset_cdc_lists(fw, 2, 1, q, build=True)
    Ahat = build_coset_cdc_lists(iv, 2, 1, q, r=0, build=True)
    Bhat = build_coset_cdc_lists(iv, 2, 1, q, build=True)
    U1 = Cdc(q=q, n=4, k=4, d=4,
             members=(Subspace.from_matrix(MatGF.identity(q, 4)),))
    code = thm32_build(U1, U1, A, B, Ahat, Bhat, r_hat=0)
    assert code.size == 4690
    path = tmp_path / "combined.cdc"
    write_cdc(code, str(path))
    assert sha256(path) == COMBINED_SHA


def test_multilevel_cli_build_file_bytes(tmp_path, capsys):
    path = tmp_path / "ml.cdc"
    assert main(["build", "--multilevel", "11100000,00011100,10000011",
                 "-q", "2", "--delta", "2", "--out", str(path)]) == 0
    assert capsys.readouterr().out.startswith("wrote 1033 codewords")
    assert sha256(path) == MULTILEVEL_SHA


# lift(gabidulin(q, m, m, 2)) per (q, m); (4, 3) is also the benchmark's pin
LIFTED_SHA = {
    (4, 3): "239b3ed930a813b486f78401bd8fef9a437758757cb667dc26392e61a7b2691a",
    (3, 3): "859e54cc5aa87093f03fd5d2c7a229e21fc1b1fb9e5c0ba06f8f76ab3ee34e30",
    (9, 2): "c61cb1dc8552ea8a58e7938443b327cc4fe3369d15da50f6448ace4807094d06",
}


@pytest.mark.parametrize("q,m", sorted(LIFTED_SHA))
def test_lifted_mrd_file_bytes(tmp_path, q, m):
    path = tmp_path / "lifted.cdc"
    write_cdc(lift(gabidulin(q, m, m, 2)), str(path))
    assert sha256(path) == LIFTED_SHA[q, m]


# multilevel over 110000,001100,000011 at delta 2 per (q, kind): q^4 + q^2 + 1
# codewords, 2-, 4- and 8-bit entries, skeletons filled forward and inverse
MULTILEVEL_Q_SHA = {
    (3, "forward"): "6be231856448520758c569545361fb17a19bb6ade358ba3afb0011dbbc2362bd",
    (3, "inverse"): "c6f2e8d59394dfeedf07efb81fd95ee7beae1964290a2171d45b60f64824f867",
    (4, "forward"): "0f2b0dea409ac196f0145cf039f481c4115fb06235c6a1691fe5e6ae395acdbe",
    (4, "inverse"): "6c401532ac9a7ecd517a5df2bdd15186ba3298b120c553092609f95252140295",
    (9, "forward"): "ebd8fe00d4208facc845ab3b0dcbda1d7f10fa889086185def69d9649c14f50f",
    (9, "inverse"): "a5c940ba3cdfa07137ef7380e316542b2232c0f2b33dcf2a10fd4fb0dda3a3fa",
}


@pytest.mark.parametrize("q,kind", sorted(MULTILEVEL_Q_SHA))
def test_multilevel_file_bytes_for_odd_and_extension_fields(tmp_path, q, kind):
    vectors = [IdVec.from_string(s, kind) for s in ("110000", "001100", "000011")]
    code = multilevel([(v, optimal_fdrmc(ferrers_of(v).diagram, 2, q))
                       for v in vectors], 2)
    assert code.size == q ** 4 + q ** 2 + 1
    path = tmp_path / "ml.cdc"
    write_cdc(code, str(path))
    assert sha256(path) == MULTILEVEL_Q_SHA[q, kind]
