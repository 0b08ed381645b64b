"""End-to-end checks of the command line interface.

Every test drives cgschur.cli.main in process and reads the JSON it
prints; one test goes through the interpreter to cover the module
entry point.  Expected partitions are small enough to spell out.
"""

from __future__ import annotations

import hashlib
import json
import sys

import pytest

import cgschur
from cgschur.cli import main
from cgschur.cgring import CGRing, parse_ring_spec
from cgschur.classify import FalsificationError
from cgschur.construct import ConstructionError, build_nonpure_dense_sring
from cgschur.sring import PartitionError, SRing, StructureError, VerifyReport, cyclotomic
from conftest import SWAP_DOC, run_child


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv: str) -> tuple[int, dict]:
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


def write_doc(tmp_path, name: str, doc: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def sign_doc(tmp_path):
    """Orbits of {1, 8} in GR(9): the sign partition."""
    return write_doc(tmp_path, "sign.json", {
        "ring": "GR(9)",
        "classes": [[0], [1, 8], [2, 7], [3, 6], [4, 5]],
    })


@pytest.fixture()
def rank2_doc(tmp_path):
    return write_doc(tmp_path, "rank2.json", {
        "ring": "GR(9)",
        "classes": [[0], [1, 2, 3, 4, 5, 6, 7, 8]],
    })


@pytest.fixture()
def units_doc(tmp_path):
    """Orbits of the full unit group of GR(9)."""
    return write_doc(tmp_path, "units.json", {
        "ring": "GR(9)",
        "classes": [[0], [3, 6], [1, 2, 4, 5, 7, 8]],
    })


# -- ring ----------------------------------------------------------------------


def test_ring_info_product(capsys):
    code, doc = run_json(capsys, "ring", "info", "GR(4,2)xGR(9)")
    assert code == 0
    assert doc["size"] == 144
    assert doc["characteristic"] == 36
    assert doc["unit_count"] == 72
    assert len(doc["ideals"]) == 9
    assert [c["p"] for c in doc["components"]] == [2, 3]
    assert doc["components"][0]["teichmuller_order"] == 3
    assert doc["components"][0]["principal_unit_order"] == 4


def test_ring_info_rejects_bad_spec(capsys):
    code, _, err = run_cli(capsys, "ring", "info", "GR(6)")
    assert code == 2
    assert "error:" in err


# -- sring ---------------------------------------------------------------------


def test_cyc_orbit_partition(capsys):
    code, doc = run_json(capsys, "sring", "cyc", "GR(9)", "--group", "8")
    assert code == 0
    assert doc == {"ring": "GR(9)", "classes": [[0], [1, 8], [2, 7], [3, 6], [4, 5]]}


def test_cyc_rejects_nonunit_generator(capsys):
    code, _, err = run_cli(capsys, "sring", "cyc", "GR(9)", "--group", "3")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ("cyc", "GR(9)", "--group", "-1"),
    ("cyc", "GR(9)", "--group", "10"),
    ("closure", "GR(9)", "--seed", "12"),
])
def test_element_out_of_range_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "sring", *argv)
    assert code == 2
    assert out == ""
    assert "not an element index" in err


def test_closure_seed_becomes_aset(capsys):
    code, doc = run_json(capsys, "sring", "closure", "GR(9)", "--seed", "1,2")
    assert code == 0
    classes = [set(X) for X in doc["classes"]]
    seed = {1, 2}
    assert all(cls <= seed or not (cls & seed) for cls in classes)


def test_verify_reports_witness(capsys, tmp_path):
    path = write_doc(tmp_path, "broken.json", {
        "ring": "GR(9)",
        "classes": [[0], [1, 2, 3, 4, 5, 6, 7], [8]],
    })
    code, doc = run_json(capsys, "sring", "verify", path)
    assert code == 1
    assert not doc["ok"]
    assert any(f["axiom"] == "unit-invariance" for f in doc["failures"])


def test_boolean_element_is_rejected(capsys, tmp_path):
    path = write_doc(tmp_path, "bool.json", {
        "ring": "GR(9)",
        "classes": [[0], [True, 8], [2, 7], [3, 6], [4, 5]],
    })
    code, out, err = run_cli(capsys, "sring", "pure", path)
    assert code == 2
    assert out == ""
    assert "error:" in err
    code, doc = run_json(capsys, "sring", "verify", path)
    assert code == 1
    assert doc["failures"] == [{"axiom": "partition", "witness": "element True outside the ring"}]


NINE = list(range(1, 9))


# Members that a set would merge into a valid member, in every position of
# their class, and a string class, whose witness once followed the hash order.
@pytest.mark.parametrize("classes, witness", [
    ([[0], [*NINE, True]], "element True outside the ring"),
    ([[0], [*NINE, 8.0]], "element 8.0 outside the ring"),
    ([[0, False], NINE], "element False outside the ring"),
    ([[0], [1, *NINE]], "element 1 covered twice"),
    ([[0], "12345678"], "element '1' outside the ring"),
], ids=["true-last", "float", "false", "repeated", "string"])
def test_malformed_members_are_rejected(capsys, tmp_path, classes, witness):
    path = write_doc(tmp_path, "bad.json", {"ring": "GR(9)", "classes": classes})
    code, doc = run_json(capsys, "sring", "verify", path)
    assert code == 1
    assert doc == {"ok": False, "failures": [{"axiom": "partition", "witness": witness}]}
    for verb in (("dual",), ("sring", "pure")):
        code, out, err = run_cli(capsys, *verb, path)
        assert (code, out, err) == (2, "", f"error: {witness}\n")


def test_verify_rejects_malformed_json(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json{")
    code, _, err = run_cli(capsys, "sring", "verify", str(path))
    assert code == 2
    assert "error:" in err


def test_document_that_is_a_list_exits_2(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1]")
    assert run_cli(capsys, "sring", "verify", str(path)) == (
        2, "", "error: the input document must be a JSON object\n")


def test_group_that_is_not_integers_exits_2(capsys):
    assert run_cli(capsys, "sring", "cyc", "GR(9)", "--group", "1,x") == (
        2, "", "error: expected comma separated integers, got '1,x'\n")


def test_verify_rejects_missing_key(capsys, tmp_path):
    path = write_doc(tmp_path, "nokey.json", {"classes": [[0]]})
    code, _, _ = run_cli(capsys, "sring", "verify", path)
    assert code == 2


def test_quotient_and_restrict(capsys, sign_doc):
    code, doc = run_json(capsys, "sring", "quotient", sign_doc, "--modulus", "3")
    assert code == 0
    assert doc == {"ring": "GR(3)", "classes": [[0], [1, 2]]}
    code, doc = run_json(capsys, "sring", "restrict", sign_doc, "--modulus", "3")
    assert code == 0
    assert doc == {"ring": "GR(3)", "classes": [[0], [1, 2]]}


@pytest.mark.parametrize("verb", [("sring", "quotient"), ("sring", "restrict"),
                                  ("classify", "quotient")])
@pytest.mark.parametrize("modulus", ["0", "-3"])
def test_nonpositive_modulus_exits_2(capsys, sign_doc, verb, modulus):
    # 0 used to end in a ZeroDivisionError traceback, -3 was read as 3
    code, out, err = run_cli(capsys, *verb, sign_doc, "--modulus", modulus)
    assert code == 2 and out == ""
    assert "positive integer" in err


def test_tensor_of_coprime_rings(capsys, sign_doc, tmp_path):
    other = write_doc(tmp_path, "four.json", {
        "ring": "GR(4)",
        "classes": [[0], [1, 3], [2]],
    })
    code, doc = run_json(capsys, "sring", "tensor", sign_doc, other)
    assert code == 0
    assert doc["ring"] == "GR(9)xGR(4)"
    assert len(doc["classes"]) == 15


def test_tensor_rejects_shared_prime(capsys, sign_doc):
    code, _, _ = run_cli(capsys, "sring", "tensor", sign_doc, sign_doc)
    assert code == 2


def test_wreath_certificates(capsys, units_doc):
    code, doc = run_json(capsys, "sring", "wreath", units_doc)
    assert code == 0
    assert doc["nontrivial"]
    assert {"outer": 3, "inner": 3, "nontrivial": True} in doc["pairs"]


def test_pure_report(capsys, rank2_doc, tmp_path):
    code, doc = run_json(capsys, "sring", "pure", rank2_doc)
    assert code == 0
    assert doc["pure"] and not doc["dense"]
    assert doc["lower_ideal"] == 9
    subfield = write_doc(tmp_path, "subfield.json", {
        "ring": "GR(9)",
        "classes": [[0], [1, 4, 7], [2, 5, 8], [3], [6]],
    })
    code, doc = run_json(capsys, "sring", "pure", subfield)
    assert code == 0
    assert not doc["pure"] and doc["lower_ideal"] == 3


def test_rational_flag(capsys, units_doc, sign_doc):
    assert run_json(capsys, "sring", "rational", units_doc) == (0, {"rational": True})
    assert run_json(capsys, "sring", "rational", sign_doc) == (0, {"rational": False})
    assert run_json(capsys, "sring", "rational", sign_doc, "--primes", "3") \
        == (0, {"rational": False})
    code, out, err = run_cli(capsys, "sring", "rational", sign_doc, "--primes", "7")
    assert code == 2 and out == ""
    assert "not primes of GR(9)" in err


@pytest.mark.parametrize("listed", [",", "", " , "])
def test_rational_primes_listing_no_prime_is_usage_error(capsys, sign_doc, listed):
    # --primes , once checked no prime and printed {"rational":true}, and
    # --primes '' quietly checked every prime.
    code, out, err = run_cli(capsys, "sring", "rational", sign_doc, "--primes", listed)
    assert code == 2 and out == ""
    assert "--primes lists no prime" in err


# -- dual ----------------------------------------------------------------------


def test_dual_digest_and_involution(capsys, sign_doc, tmp_path):
    code, doc = run_json(capsys, "dual", sign_doc)
    assert code == 0
    with open(sign_doc, encoding="utf-8") as fh:
        source = json.load(fh)
    blob = json.dumps(source, sort_keys=True, separators=(",", ":")).encode()
    assert doc["dual_of"] == hashlib.sha256(blob).hexdigest()
    doc.pop("dual_of")
    again = write_doc(tmp_path, "dual.json", doc)
    code, doc2 = run_json(capsys, "dual", again)
    assert code == 0
    assert doc2["classes"] == source["classes"]


def test_dual_check_passes(capsys, units_doc):
    code, doc = run_json(capsys, "dual", "check", units_doc)
    assert code == 0
    assert doc == {"ok": True, "failures": []}


def test_dual_check_reports_non_schur_input(capsys, tmp_path):
    path = write_doc(tmp_path, "broken.json", {
        "ring": "GR(9)", "classes": [[0], [1, 2], [3, 4, 5, 6, 7, 8]]})
    code, out, _ = run_cli(capsys, "dual", "check", path)
    assert code == 1
    assert out == '{"failures":["rank not preserved"],"ok":false}\n'


@pytest.mark.parametrize("doc, key", [({"ring": "GR(9)"}, "classes"),
                                      ({"classes": [[0], [1, 8]]}, "ring")],
                         ids=["no-classes", "no-ring"])
@pytest.mark.parametrize("verb", [("sring", "verify"), ("sring", "pure"), ("dual",),
                                  ("classify", "pure")],
                         ids=["sring-verify", "sring-pure", "dual", "classify-pure"])
def test_missing_document_key_is_named(capsys, tmp_path, verb, doc, key):
    code, out, err = run_cli(capsys, *verb, write_doc(tmp_path, "doc.json", doc))
    assert code == 2
    assert out == ""
    assert err == f"error: the input document has no '{key}' key\n"


@pytest.mark.parametrize("ring", [5, None, ["GR(9)"]], ids=["int", "null", "list"])
@pytest.mark.parametrize("verb", [("sring", "pure"), ("sring", "verify"), ("dual",)],
                         ids=["sring-pure", "sring-verify", "dual"])
def test_non_string_ring_spec_exits_2(capsys, tmp_path, verb, ring):
    path = write_doc(tmp_path, "doc.json", {"ring": ring, "classes": [[0], [1, 8]]})
    code, out, err = run_cli(capsys, *verb, path)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_dual_usage_errors(capsys, sign_doc):
    assert run_cli(capsys, "dual", "check")[0] == 2
    assert run_cli(capsys, "dual", sign_doc, sign_doc)[0] == 2


# -- construct -----------------------------------------------------------------


def test_construct_smallest_instance(capsys, tmp_path):
    out = str(tmp_path / "built.json")
    code, doc = run_json(capsys, "construct", "t210809a",
                         "--p", "2", "--d", "2", "--q", "3", "--e", "1",
                         "--out", out)
    assert code == 0
    assert doc["report"]["ok"]
    checks = {c["name"]: c["ok"] for c in doc["report"]["checks"]}
    assert checks["dense"] and checks["not_pure"] and checks["no_nontrivial_wreath"]
    assert doc["sring"]["ring"] == "GR(4,2)xGR(9)"
    code, verdict = run_json(capsys, "sring", "verify", out)
    assert code == 0 and verdict["ok"]


def test_construct_rejects_bad_hypotheses(capsys):
    code, _, err = run_cli(capsys, "construct", "t210809a",
                           "--p", "2", "--d", "1", "--q", "3", "--e", "1")
    assert code == 2
    assert "does not divide" in err


def test_construct_failed_check_exits_1(capsys, monkeypatch):
    # Axiom failures are dicts: the check message must format them, or the
    # failed build surfaces as a TypeError and exit 2 instead of exit 1.
    failure = {"axiom": "convolution", "pair": [0, 1], "class": 2}
    monkeypatch.setattr(SRing, "verify", lambda self: VerifyReport(False, (failure,)))
    _, _, report = build_nonpure_dense_sring(2, 2, 3, 1)
    assert report.ok is False
    code, doc = run_json(capsys, "construct", "t210809a",
                         "--p", "2", "--d", "2", "--q", "3", "--e", "1")
    assert code == 1
    axioms = next(c for c in doc["report"]["checks"] if c["name"] == "partition_axioms")
    assert not axioms["ok"] and '"axiom": "convolution"' in axioms["witness"]


# -- classify ------------------------------------------------------------------


def test_classify_pure_rank2(capsys, rank2_doc):
    code, doc = run_json(capsys, "classify", "pure", rank2_doc)
    assert code == 0
    assert doc["kind"] == "PureTensor"
    assert [f["role"] for f in doc["factors"]] == ["rank2"]


@pytest.mark.parametrize("doc, reason", [
    ({"ring": "GR(4)", "classes": [[0], [1, 2, 3]]}, "the characteristic is even"),
    ({"ring": "GR(9)", "classes": [[0], [3, 6], [1, 2, 4, 5, 7, 8]]}, "the input is not pure"),
])
def test_classify_pure_not_applicable_exits_1(capsys, tmp_path, doc, reason):
    # the same report kind exits 1 from every classify verb
    code, out = run_json(capsys, "classify", "pure", write_doc(tmp_path, "in.json", doc))
    assert code == 1
    assert out == {"certificates": [], "factors": [], "kind": "NotApplicable", "reason": reason}


def test_classify_rational_wreath(capsys, units_doc):
    code, doc = run_json(capsys, "classify", "rational", units_doc)
    assert code == 0
    assert doc["kind"] == "RationalWreath"
    assert doc["certificates"] == [{"type": "wreath", "outer": 3, "inner": 3}]


def test_classify_rational_rejects_nonrational(capsys, sign_doc):
    code, doc = run_json(capsys, "classify", "rational", sign_doc)
    assert code == 1
    assert doc["kind"] == "NotApplicable"
    assert "not rational" in doc["reason"]


def test_classify_nondense(capsys, rank2_doc):
    code, doc = run_json(capsys, "classify", "nondense", rank2_doc)
    assert code == 0
    assert doc["applicable"] and doc["ok"]


def test_classify_quotient(capsys, sign_doc, tmp_path):
    code, doc = run_json(capsys, "classify", "quotient", sign_doc, "--modulus", "3")
    assert code == 0
    assert doc["applicable"] and doc["quotient_pure"]
    even = write_doc(tmp_path, "even.json", {
        "ring": "GR(4)",
        "classes": [[0], [1, 2, 3]],
    })
    code, doc = run_json(capsys, "classify", "quotient", even, "--modulus", "2")
    assert code == 1
    assert not doc["applicable"] and not doc["ok"]


def test_classify_quotient_reports_impure_image(capsys, sign_doc, monkeypatch):
    # The purity theorem makes this image pure, so only a broken quotient
    # reaches the failed report; it must print with exit 1, not raise.
    z9 = parse_ring_spec("GR(9)")
    monkeypatch.setattr("cgschur.classify.quotient_sring",
                        lambda A, m: SRing(z9, [[0], [3, 6], [1, 2, 4, 5, 7, 8]]))
    code, doc = run_json(capsys, "classify", "quotient", sign_doc, "--modulus", "3")
    assert code == 1
    assert doc == {"applicable": True, "reasons": [], "quotient_pure": False, "ok": False}


# Not a Schur ring: the unit 3 of GR(3,2) maps the class {1, 2} to {3, 6}.
H9_DOC = {"ring": "GR(3,2)", "classes": [[0], [1, 2], [3, 4, 5, 6, 7, 8]]}


@pytest.mark.parametrize("argv", [("pure",), ("rational",), ("nondense",),
                                  ("quotient", "--modulus", "3")],
                         ids=["pure", "rational", "nondense", "quotient"])
def test_classify_rejects_input_that_is_no_schur_ring(capsys, tmp_path, argv):
    # the theorems speak of Schur rings only, so any other input is malformed
    path = write_doc(tmp_path, "h9.json", H9_DOC)
    code, doc = run_json(capsys, "sring", "verify", path)
    assert code == 1
    assert doc["failures"][0] == {"axiom": "unit-invariance", "unit": 3, "class": 1}
    code, out, err = run_cli(capsys, "classify", argv[0], path, *argv[1:])
    assert (code, out) == (2, "")
    assert err == ("error: the input is not a Schur ring; sring verify fails first with"
                   ' {"axiom":"unit-invariance","class":1,"unit":3}\n')


def test_classify_builds_one_checked_sring(capsys, tmp_path, monkeypatch):
    # The classifier verifies the loaded ring itself and keeps the verdict
    # and K on it, so one call builds one checked SRing and recognises its
    # unit subgroup once.
    ring = parse_ring_spec("GR(9)xGR(25)")
    path = write_doc(tmp_path, "sign225.json", cyclotomic(ring, [ring.one, ring.neg(ring.one)]).to_doc())
    calls = []
    for owner, name in ((SRing, "__init__"), (CGRing, "_subgroup_rows")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    code, out, err = run_cli(capsys, "classify", "nondense", path)
    assert (code, err) == (0, "") and json.loads(out)["ok"]
    assert sorted(calls) == ["__init__", "_subgroup_rows"]


def test_classify_nondense_wreath_certificate(capsys, tmp_path):
    # over Z_8 the maximal ideal 2R is no A-ideal; 4R is, and the one class
    # outside it is a union of cosets of 4R
    path = write_doc(tmp_path, "z8.json",
                     {"ring": "GR(8)", "classes": [[0], [1, 2, 3, 5, 6, 7], [4]]})
    code, doc = run_json(capsys, "classify", "nondense", path)
    assert code == 0
    assert doc == {"applicable": True, "ok": True,
                   "certificate": {"type": "wreath", "outer": 4, "inner": 4}}


# -- enumerate -----------------------------------------------------------------


def test_enumerate_subgroups(capsys):
    code, doc = run_json(capsys, "enumerate", "subgroups", "GR(9)")
    assert code == 0
    assert doc["count"] == 4
    assert doc["subgroups"] == [[1], [1, 8], [1, 4, 7], [1, 2, 4, 5, 7, 8]]


def test_enumerate_cyc(capsys):
    code, doc = run_json(capsys, "enumerate", "cyc", "GR(9)")
    assert code == 0
    assert doc["count"] == 4
    by_group = {tuple(row["subgroup"]): row for row in doc["srings"]}
    sign = by_group[(1, 8)]
    assert sign["rank"] == 5 and sign["pure"] and sign["dense"]


# -- interface contracts ---------------------------------------------------------


def test_stdin_input(capsys, monkeypatch):
    doc = {"ring": "GR(9)", "classes": [[0], [1, 8], [2, 7], [3, 6], [4, 5]]}
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out = run_json(capsys, "sring", "pure", "-")
    assert code == 0
    assert out["pure"]


def test_output_is_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "ring", "info", "GR(4,2)xGR(9)")
    _, second, _ = run_cli(capsys, "ring", "info", "GR(4,2)xGR(9)")
    assert first == second


def test_pretty_format_same_document(capsys):
    _, compact, _ = run_cli(capsys, "ring", "info", "GR(9)")
    _, pretty, _ = run_cli(capsys, "ring", "info", "GR(9)", "--format", "pretty")
    assert compact != pretty
    assert json.loads(compact) == json.loads(pretty)


def test_env_size_gate(capsys, monkeypatch):
    monkeypatch.setenv("CGSCHUR_MAX_RING_SIZE", "10")
    assert run_cli(capsys, "ring", "info", "GR(9)")[0] == 0
    code, _, err = run_cli(capsys, "ring", "info", "GR(25)")
    assert code == 2
    assert "exceeds" in err
    for value in ("lots", "0", "-5"):
        monkeypatch.setenv("CGSCHUR_MAX_RING_SIZE", value)
        assert run_cli(capsys, "ring", "info", "GR(9)") \
            == (2, "", "error: CGSCHUR_MAX_RING_SIZE must be a positive integer\n")


def test_usage_errors_and_help(capsys):
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "ring")[0] == 2
    assert run_cli(capsys, "--help")[0] == 0


def _raises(err: Exception):
    def raiser(*args, **kwargs):
        raise err
    return raiser


CONSTRUCT_2231 = ("construct", "t210809a", "--p", "2", "--d", "2", "--q", "3", "--e", "1")


@pytest.mark.parametrize("target, argv, err, code", [
    ("cgschur.sring.verify_sring", ("sring", "verify", "DOC"), StructureError("law"), 1),
    ("cgschur.construct.build_nonpure_dense_sring", CONSTRUCT_2231,
     ConstructionError("identity"), 1),
    ("cgschur.classify.decompose_pure", ("classify", "pure", "DOC"),
     FalsificationError("step"), 1),
    ("cgschur.sring.verify_sring", ("sring", "verify", "DOC"), PartitionError("cover"), 2),
], ids=["structure", "construction", "falsification", "partition"])
def test_handler_errors_map_to_exit_codes(capsys, monkeypatch, sign_doc, target, argv, err,
                                          code):
    # A failed law, identity or decomposition step exits 1 with its message;
    # malformed input exits 2.  Each handler reads the function from its
    # home module at call time, so patching it there reaches the CLI.
    monkeypatch.setattr(target, _raises(err))
    argv = [sign_doc if word == "DOC" else word for word in argv]
    assert run_cli(capsys, *argv) == (code, "", f"error: {err}\n")


def test_plain_runtime_error_propagates(monkeypatch, sign_doc):
    # The failed checks stay RuntimeErrors, but one that is no failed check
    # is a bug: main must not turn it into an exit code.
    assert issubclass(cgschur.cgring.CheckFailedError, RuntimeError)
    monkeypatch.setattr("cgschur.sring.verify_sring", _raises(RuntimeError("bug")))
    with pytest.raises(RuntimeError, match="bug"):
        main(["sring", "verify", sign_doc])


@pytest.mark.parametrize("argv", [
    ("ring", "info", "GR(1000000007)"),  # the smallest-factor search
    ("ring", "info", "GR(1000000000000000003^1)"),  # is_prime
    ("ring", "info", "GR(3,30000000)"),  # p ** (n*d)
    ("ring", "info", "GR(3,3000000)"),  # a size past 4300 digits
    ("ring", "info", "GR(2^3000000)"),
    ("construct", "t210809a", "--p", "1000000000000000003", "--d", "1", "--q", "3", "--e", "1"),
    ("construct", "t210809a", "--p", "3", "--d", "30000000", "--q", "2", "--e", "1"),
])
def test_size_gate_runs_before_number_theory(argv):
    # Unless the size gate runs first, each input hangs in number theory or
    # a big power, or fails printing a size too long to convert; a child
    # still running after 10 s fails the test.
    proc = run_child("-m", "cgschur", *argv, timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "exceeds" in proc.stderr and "4300" not in proc.stderr


def test_module_entry_point():
    proc = run_child("-m", "cgschur", "ring", "info", "GR(9)")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["size"] == 9


def test_stdout_does_not_follow_the_hash_seed(tmp_path, sign_doc, units_doc):
    # String hashing changes with PYTHONHASHSEED; no verb's output may.  A
    # set of the string members "1".."8" is iterated alike under seeds 1 and
    # 2, so seed 3 joins them.
    broken = write_doc(tmp_path, "broken.json",
                       {"ring": "GR(9)", "classes": [[0], [1, 2], [3, 4, 5, 6, 7, 8]]})
    strings = write_doc(tmp_path, "strings.json", {"ring": "GR(9)", "classes": [[0], "12345678"]})
    calls = [("sring", "verify", units_doc), ("sring", "verify", broken),
             ("sring", "verify", strings), ("dual", sign_doc),
             ("sring", "closure", "GR(4)xGR(9)", "--seed", "5,31"), ("classify", "pure", units_doc)]
    for argv in calls:
        runs = [run_child("-m", "cgschur", *argv, PYTHONHASHSEED=seed) for seed in "123"]
        assert [(p.returncode, p.stdout) for p in runs] == [(runs[0].returncode, runs[0].stdout)] * 3
        assert runs[0].stdout and runs[0].returncode in (0, 1), (argv, runs[0].stderr)


# Modules a cold call must not load: dataclasses pulls in the next four,
# and hashlib loads OpenSSL for the one dual_of digest.
HEAVY_MODULES = {"dataclasses", "inspect", "ast", "dis", "tokenize", "hashlib"}

# What `python -m cgschur` loads of the package on every call.
ENTRY_MODULES = {"cgschur", "cgschur.__main__", "cgschur.cli", "cgschur.cgring", "cgschur.galois"}

# One call per verb footprint, and the library modules it loads besides
# ENTRY_MODULES; "DOC" is replaced by a Schur ring file, an orbit ring, and
# "BROKEN" by a partition that fails unit invariance.  Neither verify runs
# the kernel, so neither loads duality.
VERB_MODULES = [
    (["ring", "info", "GR(9)"], set()),
    (["sring", "pure", "DOC"], {"sring"}),
    (["sring", "cyc", "GR(9)", "--group", "8"], {"sring", "construct"}),
    (["sring", "closure", "GR(9)", "--seed", "1"], {"sring", "duality"}),
    (["sring", "verify", "DOC"], {"sring"}),
    (["sring", "verify", "BROKEN"], {"sring"}),
    (["classify", "pure", "DOC"], {"sring", "duality", "classify"}),
    (list(CONSTRUCT_2231), {"sring", "duality", "construct"}),
]


# The library modules `import cgschur` puts in sys.modules without running.
LIBRARY_MODULES = {f"cgschur.{m}" for m in
                   ("galois", "cgring", "sring", "duality", "construct", "classify")}

# Child-side: the package modules added since `before` whose body has run;
# one not yet used is still a lazy subclass of ModuleType, and type() does
# not run it.
RAN = """
import json, sys, types
before = set(sys.modules)
def ran():
    return sorted(m for m in set(sys.modules) - before
                  if m.startswith("cgschur") and type(sys.modules[m]) is types.ModuleType)
"""


def test_cold_import_footprint(sign_doc, tmp_path):
    # Only modules added after the baseline count, so whatever site loads
    # at start-up cannot fail the test.  What `import cgschur` adds of the
    # standard library differs between Python versions, so only the
    # package's own modules are compared on the first line; the heavy
    # modules are checked among everything added.  Each call runs in its
    # own child.
    files = {"DOC": sign_doc, "BROKEN": write_doc(tmp_path, "broken.json", {
        "ring": "GR(9)", "classes": [[0], [1, 2], [3, 4, 5, 6, 7, 8]]})}
    for argv, extra in VERB_MODULES:
        argv = [files.get(word, word) for word in argv]
        proc = run_child("-c", RAN + f"""
import cgschur
print(json.dumps([sorted(m for m in set(sys.modules) - before if m.startswith("cgschur")),
                  ran()]))
from cgschur.__main__ import main
code = main({argv!r})
print(json.dumps([code, ran(), sorted(set(sys.modules) - before)]))
""")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert json.loads(lines[0]) == [sorted({"cgschur"} | LIBRARY_MODULES), ["cgschur"]], argv
        code, ran, added = json.loads(lines[-1])
        assert code in (0, 1) and len(lines) == 3, (argv, proc.stderr)
        assert set(ran) == ENTRY_MODULES | {f"cgschur.{m}" for m in extra}, argv
        assert not HEAVY_MODULES & set(added), argv


def test_lazy_namespace_resolves_every_name():
    # The names the package exported when it imported every module.
    homes = {
        "cgring": "CGRing ideal_ring make_cg_ring parse_ring_spec quotient",
        "classify": "Decomposition FalsificationError check_nondense_structure "
                    "check_quotient_purity classify_rational decompose_pure reassemble",
        "construct": "ConstructionError all_subgroups build_nonpure_dense_sring "
                     "subgroup_generated",
        "duality": "character_table check_duality dual_sring perp_of_ideal separation_check",
        "galois": "GaloisRing make_galois_ring",
        "sring": "PartitionError SRing StructureError cyclotomic is_tensor_over quotient_sring "
                 "restrict schur_closure sring_from_doc tensor verify_sring wreath_pairs",
    }
    names = {name: home for home, text in homes.items() for name in text.split()}
    assert sorted(cgschur.__all__) == sorted(names)
    assert set(names) <= set(dir(cgschur))
    for name, home in names.items():
        assert getattr(cgschur, name) is getattr(sys.modules[f"cgschur.{home}"], name), name
    with pytest.raises(AttributeError, match="'no_such_name'"):
        getattr(cgschur, "no_such_name")


def test_lazy_namespace_in_a_fresh_process():
    proc = run_child("-c", RAN + """
import cgschur
assert ran() == ["cgschur"]
print(cgschur.sring.__name__, "sring" in dir(cgschur), cgschur.SRing is cgschur.sring.SRing)
import cgschur.duality
print(cgschur.duality.dual_sring is cgschur.dual_sring)
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["cgschur.sring", "True", "True", "True"]


# -- golden stdout ---------------------------------------------------------------

# sha256 of stdout and the exit code of each call in test_golden_stdout,
# recorded before the unit-group kernel was rebuilt on CGRing.generate.
# The calls from ring-info-1296 on, and the sha256 of the construct --out
# file, were recorded before the report classes became NamedTuple records.
# construct-3122 and construct-3222 were recorded before the construction
# read its links as cyclic groups and its orbits as label vectors.
GOLDEN = {
    "closure-nonzero": (0, "6bb58d17884322cb955a3aa2ecb98e0e7f3a1601bd26124561e6dd8efc1d968d"),
    "closure-unit": (0, "2a8a9ae36ef1b402fda5d474ea2d2ebd14968330c207aa8195240d3e0c0fd209"),
    "closure-two-seeds": (0, "5091090989dc8a10c80fd7342ffe4c6a147ddf0d15a80d86f81f1f7fb177cbec"),
    "cyc-sign": (0, "4f73b7af27cb28a8fb06700e3dac54f7ff86d6a489beddff506b5995bbb13e79"),
    "cyc-all-units": (0, "91cb7c3b6bd61e3d728a306b072356201367c787326068a4380e64bba4ef2731"),
    "rational-yes": (0, "8bc64af19775b1ea0c6af6bd0f10375bd5a1e927c7fdf3fd869af3638049d01a"),
    "rational-no": (0, "5a7f415dc3e3adce394a43da75e77f8955af8045953ba3b170d58dbb3ad0ad21"),
    "rational-at-2": (0, "5a7f415dc3e3adce394a43da75e77f8955af8045953ba3b170d58dbb3ad0ad21"),
    "classify-rational-no": (1, "9c55d04143e3fbf963a65846c5c5dfec1f3f3918e06d21628452033d7ea2bdae"),
    "enumerate-cyc": (0, "b338acbb0b6696305e04dfb5e2a07cf03bfc44c0e59de7393e46749d3ed41592"),
    "dual-check-swap": (0, "03afa1855f8bb4f31b906ebe4972fbbeaa767e9c2aef30b4e7412c5cfb79e63c"),
    "dual-swap": (0, "ef232381f690544fb21fa888f1f5b9d5c3d554d68a0f110464f7e0559575c41a"),
    "ring-info-1296": (0, "35a6de86367c2874b9ce767805c8389c7124da3916f5f5a39036ab3d325ab8f3"),
    "verify-swap": (1, "57f6d21bb0cc6cd6c2a928f0013a8765cbf10d0cd2fdd4a6cb8cf4d15621a23c"),
    "verify-broken": (1, "9577e00c4e2c73ed0039ad258e4fbc1a08fd4dcbeedf71b8b0826f6b538322e0"),
    "wreath-all-units": (0, "87849df5e8a60236af73767e5ea62692c74d081b015cd10c7f839bbce5f518b0"),
    "tensor-rank2": (0, "cfce5017163d2449fd4764d902e4ff063e4689d4e9da5f2f44c5cec78c26348b"),
    "classify-pure-tensor": (0, "516b5f884de3daa8627b00021cb88e63185beba88bb5c5854eee6414a55d6286"),
    "classify-nondense-split": (0, "c926700d385ccbd73a1cad0b6880a1d3192dee67fafbbaf84ea0225f718777d1"),
    "cyc-sign-225": (0, "a74fc5ac133f809be0f1e314e7dc89da019cc6d24f2f67c3dbb0a7e1a404d9c0"),
    "classify-quotient-sign": (0, "813f15fc99a8885b4a1d563852f81e71c8773fa6c870599c5d3ab45cd8c99c0d"),
    "classify-quotient-even": (1, "90e46d10178d3ac8f86599f92289998e7242494ebd7a6f641fe5122edcffc249"),
    "construct-2231": (0, "b85a4ee90bf18e6e5e1e17cbcf0d567bcf2064205a68f8313e967d951c252def"),
    "construct-2231-out": (0, "2787de6918926d26c52cf5a42f1a5f298d8d7b55f61e11bd0216169dae226e80"),
    "construct-3122": (0, "47b3a1830109e792db911933e09e353ffb5c975f854c72cad8bca33e7480d857"),
    "construct-3222": (0, "4cd9d4bfe6f201e20f2e0463ff8878f925992036e716b67852e150ff31ee76eb"),
}

def test_golden_stdout(capsys, tmp_path):
    seen = {}

    def call(name: str, *argv: str) -> str:
        path = tmp_path / f"{name}.json"
        code, out, _ = run_cli(capsys, *argv)
        seen[name] = (code, hashlib.sha256(out.encode()).hexdigest())
        path.write_text(out)
        return str(path)

    r144 = "GR(4,2)xGR(9)"  # 131 is -1
    units = call("closure-nonzero", "sring", "closure", r144,
                 "--seed", ",".join(map(str, range(1, 144))))
    call("closure-unit", "sring", "closure", r144, "--seed", "131")
    call("closure-two-seeds", "sring", "closure", r144,
         "--seed", "4,12,26,42,74,90,122,138", "--seed", "26,42,52,74,90,108,122,138")
    sign = call("cyc-sign", "sring", "cyc", r144, "--group", "131")
    all_units = call("cyc-all-units", "sring", "cyc", "GR(9)xGR(49)",
         "--group", ",".join(map(str, parse_ring_spec("GR(9)xGR(49)").units())))
    call("rational-yes", "sring", "rational", units)
    call("rational-no", "sring", "rational", sign)
    call("rational-at-2", "sring", "rational", sign, "--primes", "2")
    call("classify-rational-no", "classify", "rational", sign)
    call("enumerate-cyc", "enumerate", "cyc", "GR(4)xGR(9)")
    swap = write_doc(tmp_path, "swap.json", SWAP_DOC)
    call("dual-check-swap", "dual", "check", swap)
    call("dual-swap", "dual", swap)
    call("ring-info-1296", "ring", "info", "GR(16)xGR(81)")
    call("verify-swap", "sring", "verify", swap)
    broken = write_doc(tmp_path, "broken.json",
                       {"ring": "GR(9)", "classes": [[0], [1, 2], [3, 4, 5, 6, 7, 8]]})
    call("verify-broken", "sring", "verify", broken)
    call("wreath-all-units", "sring", "wreath", all_units)
    rank2_9 = write_doc(tmp_path, "rank2-9.json",
                        {"ring": "GR(9)", "classes": [[0], list(range(1, 9))]})
    rank2_25 = write_doc(tmp_path, "rank2-25.json",
                         {"ring": "GR(25)", "classes": [[0], list(range(1, 25))]})
    both = call("tensor-rank2", "sring", "tensor", rank2_9, rank2_25)
    call("classify-pure-tensor", "classify", "pure", both)
    call("classify-nondense-split", "classify", "nondense", both)
    sign225 = call("cyc-sign-225", "sring", "cyc", "GR(9)xGR(25)", "--group", "224")  # -1
    call("classify-quotient-sign", "classify", "quotient", sign225, "--modulus", "15")
    call("classify-quotient-even", "classify", "quotient", sign, "--modulus", "6")
    out = tmp_path / "built.json"
    call("construct-2231", "construct", "t210809a",
         "--p", "2", "--d", "2", "--q", "3", "--e", "1", "--out", str(out))
    seen["construct-2231-out"] = (0, hashlib.sha256(out.read_bytes()).hexdigest())
    call("construct-3122", "construct", "t210809a", "--p", "3", "--d", "1", "--q", "2", "--e", "2")
    call("construct-3222", "construct", "t210809a", "--p", "3", "--d", "2", "--q", "2", "--e", "2")
    assert seen == GOLDEN


# -- help and usage errors ------------------------------------------------------

# sha256 of the help text (stdout) or usage error (stderr) and the exit code
# of each argv, recorded with every verb's parser built up front, before
# build_parser built only the verb argv names.  argparse lays help out
# differently across Python versions; these are from Python 3.11, COLUMNS=80.
HELP_GOLDEN = {
    "--help": (0, "8b2f712f343b2dabe64ae385deb671c44c0ec4ef3c47390ae79266ef9a21a8fe"),
    "ring --help": (0, "b772dcc955b8278aa332386a503597aca18f4fafb081f69f60e25d961619984e"),
    "sring --help": (0, "7b908cec3f624f3cd6a1b256dac1b1fa551df4f233942cbe7a0b34efe637095f"),
    "dual --help": (0, "9c653670aec0c79998a4e73effa7acf4a673fa996654e7c915ebd08a4d788707"),
    "construct --help": (0, "0c0e6fda7b566104430a232b4c8520480bc0e18bf1e5f5edc332bb726e7da339"),
    "classify --help": (0, "191efa56eef3c52b0b99db0328cbf91387f95c6d9a0184b431ddfcbd4ad5186d"),
    "enumerate --help": (0, "491056d58a0f899f6ba8e66d78192fef41f408a5d7e14d1c8dc901a01188fbcf"),
    "ring info --help": (0, "7958bfe6c44d3931e6c7fac3adb24a7809cdf128300594644b7d1e1017225d61"),
    "sring cyc --help": (0, "9d4f20a5b003b9682c9feb8639e2f3571a6204c9a235ff9cb58535b50b6c4829"),
    "sring closure --help": (0, "ff2ebd6ad05654428983278b5e50fc443da3066b5cebb6cb1d15539aacf2809a"),
    "sring verify --help": (0, "1b5afb3a51b4eee3bace9b57e84a4c4c7a727be418953c0714d986cdf328496d"),
    "sring quotient --help": (0, "df5f7e88b091c8e7dbd0acd648eaaf084222b6338d40fc8229e2b8a73f2c87f9"),
    "sring restrict --help": (0, "f78723ffb8ea90f3582d0885f8cbf1b398b652a039bebe67cded313b224640d9"),
    "sring tensor --help": (0, "ae4e755401c9994ef2cc4b26ee41a2a5c2de7ee4d7a2aa9e57fc4cae06fe1613"),
    "sring wreath --help": (0, "9538cf4a632367bdc54a5091ee70666caf0a53218216f2d3cda594beef54f846"),
    "sring pure --help": (0, "c131af9228fb51dcb07718a9a32bf56b5297066e487f844ddc1641a7ed87e36d"),
    "sring rational --help": (0, "fb0479065d450e34d74589833763762376af721812677148bfb7f4f555f3ba48"),
    "classify pure --help": (0, "240b3c156f5b711b4a1da1459d8e79704fcf899dc02d2d48af00ca551d5ad0ed"),
    "classify rational --help": (0, "4a4665eb0ae794df774c3d8f8573866e6dbd6fdda7860a550f8075614e77d6e8"),
    "classify nondense --help": (0, "0670244d83de43426dfeaa95ec8df9ed85b70c30b2259f8774ffc431e8d11ed7"),
    "classify quotient --help": (0, "60518aae5ec45636da7d0297af151542ad4b346eae6b6d32e8d3f3693cce0dc2"),
    "enumerate subgroups --help": (0, "56d6f218ca64e4d7dabaa3a209629072d042a61563111fab27b6f89a679f83a5"),
    "enumerate cyc --help": (0, "221ca50e6c4d16db931fa15a3d0b80c54adc2829d298bfbb4ca7d5be530ef461"),
    "": (2, "8b4fbddbc148f94acc4caa7e3aa21e3ee49102acb7ea7f6cc17bdc7e85c10462"),
    "nosuch": (2, "83295cb85f5c4580ea01b0da100b05c0c0bf1b60871260658284fc3ed53caaa8"),
    "sring": (2, "e713344eb720ca2b69c87abba5a06017c89ce1143f9b74ed161e0d55b857c376"),
    "sring nosuch": (2, "44fcf5c6fecc9aa1d42525a0874e75c833b1e226342c01dc79b2626d7ad1acd1"),
    "classify nosuch": (2, "b9d0996270ec483e3b918d0678f914f498e24659f2e46da91e1c15622d4bbf9f"),
    "ring info": (2, "6da87366792f10954c0307fd5fe19bba4712e5983d3c24351236500e75d9e3d6"),
    "--format json ring": (2, "ddacf7c14b73df756d2dda39dc39ce797b4d6d6421137ccc251919dfc51c1daa"),
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="digests of Python 3.11 argparse")
def test_help_and_usage_errors_unchanged(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    seen = {}
    for key in HELP_GOLDEN:
        code, out, err = run_cli(capsys, *key.split())
        text = out if key.endswith("--help") else err
        seen[key] = (code, hashlib.sha256(text.encode()).hexdigest())
    assert seen == HELP_GOLDEN
    assert {code for key, (code, _) in seen.items() if not key.endswith("--help")} == {2}
