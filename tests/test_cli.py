import io
import json

import pytest

from semorient.cli import run
from semorient.core import adjoin_identity, parse_table
from semorient.equations import validate_one_var, validate_two_var, witness_from_json
from semorient.catalog import make_family

from conftest import FIXTURES


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_check_family_ok():
    code, out, err = invoke("check", "--family", "cyclic:4")
    assert code == 0
    assert "order 4" in out


def test_check_table_fixture():
    code, out, _ = invoke("check", "--table", str(FIXTURES / "z2.tbl"))
    assert code == 0


def test_check_invalid_table_exit_1():
    code, out, err = invoke("check", "--table", str(FIXTURES / "bad_assoc.tbl"))
    assert code == 1
    assert err.startswith("error: invalid-table:")
    assert "triple" in err


def test_non_utf8_table_exit_1(tmp_path):
    path = tmp_path / "latin1.tbl"
    path.write_bytes(b"# r\xe9sum\xe9\nelements: e\ntable:\ne\n")
    code, out, err = invoke("check", "--table", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: invalid-table: not valid UTF-8 at byte offset 3\n"


def test_usage_errors_exit_2():
    for argv in (
        ("check",),
        ("check", "--family", "cyclic:2", "--table", "x"),
        ("check", "--family", "nosuch:1"),
        ("witness", "--family", "cyclic:2"),
        ("witness", "--family", "cyclic:2", "--element", "0", "--pair", "0,1"),
        ("witness", "--family", "cyclic:2", "--pair", "0"),
        ("orientable", "--family", "cyclic:2", "--bound", "-1"),
    ):
        code, _, err = invoke(*argv)
        assert code == 2, argv
        assert err.startswith("error: usage:"), argv


def test_group_only_verbs_exit_3():
    for argv in (
        ("commutator", "--family", "leftzero:3"),
        ("abelianization", "--family", "leftzero:3"),
        ("verify", "--family", "leftzero:3", "--suite", "theorems"),
        ("verify", "--family", "leftzero:3", "--suite", "all"),
    ):
        code, _, err = invoke(*argv)
        assert code == 3, argv
        assert err.startswith("error: not-a-group:"), argv


def test_exact_outside_group_exit_4():
    for argv in (
        ("orientable", "--family", "leftzero:3", "--exact"),
        ("sigma", "--family", "null:3", "--exact"),
        ("quotient", "--family", "fulltransformation:2", "--exact"),
        ("witness", "--family", "leftzero:3", "--element", "x0", "--exact"),
    ):
        code, _, err = invoke(*argv)
        assert code == 4, argv
        assert err.startswith("error: exact-requires-group:"), argv


def test_orientable_s3_json_lists_three_elements():
    code, out, _ = invoke(
        "orientable", "--family", "symmetric:3", "--bound", "3", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["orientable_count"] == 3
    found = {e["element"] for e in obj["elements"] if e["orientable"]}
    assert found == {"012", "120", "201"}
    # every reported witness re-validates
    s3 = make_family("symmetric:3")
    m = adjoin_identity(s3)
    for entry in obj["elements"]:
        if entry["witness"] is not None:
            element, w = witness_from_json(s3.names, entry["witness"])
            assert validate_one_var(m, element, w) is None


def test_orientable_bounded_text_states_bound():
    code, out, _ = invoke("orientable", "--family", "cyclic:4", "--bound", "2")
    assert code == 0
    assert "no witness with n <= 2" in out
    assert "not orientable" not in out


def test_orientable_exact_text():
    code, out, _ = invoke("orientable", "--family", "symmetric:3", "--exact")
    assert code == 0
    assert "mode: exact" in out
    assert "not orientable (exact)" in out


def test_witness_element_json_round_trip():
    code, out, _ = invoke(
        "witness", "--family", "symmetric:3", "--element", "120", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "one-var" and obj["valid"] is True
    s3 = make_family("symmetric:3")
    element, w = witness_from_json(s3.names, obj)
    assert validate_one_var(adjoin_identity(s3), element, w) is None


def test_witness_pair_json_round_trip():
    code, out, _ = invoke(
        "witness", "--family", "symmetric:3", "--pair", "120,201", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "two-var" and obj["valid"] is True
    s3 = make_family("symmetric:3")
    pair, w = witness_from_json(s3.names, obj)
    assert validate_two_var(adjoin_identity(s3), pair[0], pair[1], w) is None


def test_witness_none_states_bound():
    code, out, _ = invoke(
        "witness", "--family", "cyclic:4", "--pair", "1,3", "--bound", "2"
    )
    assert code == 0
    assert "no witness with n <= 2" in out


def test_witness_exact_not_related():
    code, out, _ = invoke(
        "witness", "--family", "cyclic:4", "--pair", "1,3", "--exact"
    )
    assert code == 0
    assert "not related (exact)" in out


def test_witness_exact_constructed_validates():
    code, out, _ = invoke(
        "witness", "--family", "quaternion8", "--pair", "i,-i", "--exact",
        "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    q8 = make_family("quaternion8")
    pair, w = witness_from_json(q8.names, obj)
    assert pair == (q8.index_of("i"), q8.index_of("-i"))
    assert validate_two_var(adjoin_identity(q8), pair[0], pair[1], w) is None


def test_sigma_text_and_json():
    code, out, _ = invoke("sigma", "--family", "leftzero:3", "--bound", "1")
    assert code == 0
    assert "exactness: lower-bound (bound 1)" in out
    assert "classes: 1" in out

    code, out, _ = invoke("sigma", "--family", "symmetric:3", "--exact", "--format", "json")
    obj = json.loads(out)
    assert obj["exactness"] == "exact-group"
    assert obj["num_classes"] == 2
    assert len(obj["pairs"]) == 18


def test_quotient_text_reparses():
    code, out, _ = invoke("quotient", "--family", "symmetric:3", "--exact")
    assert code == 0
    q = parse_table(out)
    assert q.order == 2


def test_commutator_verbs():
    code, out, _ = invoke("commutator", "--family", "symmetric:3")
    assert code == 0
    assert "order 3" in out

    code, out, _ = invoke(
        "commutator", "--family", "symmetric:3", "--pair", "102,210", "--format", "json"
    )
    obj = json.loads(out)
    assert obj["commutator"] in {"120", "201"}


def test_abelianization_text_reparses():
    code, out, _ = invoke("abelianization", "--family", "quaternion8")
    assert code == 0
    q = parse_table(out)
    assert q.order == 4


def test_info_group_and_nongroup():
    code, out, _ = invoke("info", "--family", "quaternion8", "--format", "json")
    obj = json.loads(out)
    assert obj["group"] is True
    assert obj["commutator_subgroup"] == ["1", "-1"]
    assert obj["abelianization_order"] == 4

    code, out, _ = invoke("info", "--family", "fulltransformation:2", "--format", "json")
    obj = json.loads(out)
    assert obj["group"] is False
    assert obj["idempotents"] == ["00", "01", "11"]


def test_family_prints_canonical_table():
    code, out, _ = invoke("family", "--family", "cyclic:3")
    assert code == 0
    assert out == "elements: 0 1 2\ntable:\n0 1 2\n1 2 0\n2 0 1\n"


def test_verify_quaternion8_theorems_pass():
    code, out, _ = invoke("verify", "--family", "quaternion8", "--suite", "theorems")
    assert code == 0
    assert "all checks passed" in out


def test_verify_propositions_on_nongroup():
    code, out, _ = invoke("verify", "--family", "leftzero:3", "--suite", "propositions")
    assert code == 0
    assert "soft-report" in out


def test_verify_json_structure():
    code, out, _ = invoke(
        "verify", "--family", "cyclic:3", "--suite", "all", "--format", "json"
    )
    obj = json.loads(out)
    assert obj["passed"] is True
    assert len(obj["reports"]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ("orientable", "--family", "symmetric:3", "--bound", "3", "--format", "json"),
        ("sigma", "--family", "dihedral:4", "--exact", "--format", "json"),
        ("verify", "--family", "cyclic:4", "--suite", "all"),
        ("info", "--family", "fulltransformation:2"),
    ],
)
def test_outputs_are_deterministic(argv):
    first = invoke(*argv)
    second = invoke(*argv)
    assert first == second


def test_bound_increase_only_adds():
    _, out1, _ = invoke("orientable", "--family", "dihedral:4", "--bound", "1", "--format", "json")
    _, out2, _ = invoke("orientable", "--family", "dihedral:4", "--bound", "2", "--format", "json")
    one = {e["element"]: e for e in json.loads(out1)["elements"]}
    two = {e["element"]: e for e in json.loads(out2)["elements"]}
    for name, entry in one.items():
        if entry["orientable"]:
            assert two[name]["orientable"]
            assert two[name]["witness"] == entry["witness"]
    assert sum(e["orientable"] for e in two.values()) >= sum(
        e["orientable"] for e in one.values()
    )
