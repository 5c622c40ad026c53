"""Byte pins: the files written for the combined construction and for a
multilevel CLI build must repeat bit for bit."""

import hashlib

from cdckit.cdc import Cdc, CwcSet, IdVec, build_coset_cdc_lists
from cdckit.cli import main, write_cdc
from cdckit.linalg import MatGF, Subspace
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
