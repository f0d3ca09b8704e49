import glob
import hashlib
import importlib.util
import itertools
import json
import os
import re

import pytest

from oracles import time_limit
from ssethom import cli, formats
from ssethom.cat import (FinMonoid, FinNonUnitalCategory, FunctorData, NatTransData,
                         validate_category)
from ssethom.sset import (BiSemiSimplicialSet, SemiSimplicialSet, constant_sset, exterior_product,
                          free_degeneracies, validate_bisset, validate_sset)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_fixtures_regenerate_byte_identical(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "gen_fixtures", os.path.join(FIXTURES, "..", "scripts", "gen_fixtures.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.main(str(tmp_path))
    committed = sorted(os.path.basename(f) for f in glob.glob(os.path.join(FIXTURES, "*.json")))
    assert sorted(os.listdir(tmp_path)) == committed
    for name in committed:
        with open(fixture(name), "rb") as want, open(tmp_path / name, "rb") as got:
            assert got.read() == want.read(), name


# -- document round trips ----------------------------------------------------


def all_fixture_files():
    files = sorted(glob.glob(os.path.join(FIXTURES, "*.json")))
    return [f for f in files if not f.endswith("checks.batch.json")]


@pytest.mark.parametrize("path", all_fixture_files(), ids=os.path.basename)
def test_fixture_round_trip(path):
    with open(path, encoding="utf-8") as fh:
        raw = fh.read()
    obj = formats.load_document(json.loads(raw))
    assert formats.dumps_document(obj) == raw
    assert formats.load_document(json.loads(formats.dumps_document(obj))) == obj


@pytest.mark.parametrize("path", all_fixture_files(), ids=os.path.basename)
def test_validate_all_fixtures(path, capsys):
    code, doc, err = run_json(capsys, "validate", path)
    assert code == 0
    assert doc["ok"] is True
    assert doc["problems"] == []


def test_validate_does_not_serialize_its_input(monkeypatch, capsys):
    """``validate`` reads the tag off the document table, not off a saved copy."""
    def refuse(obj):
        raise AssertionError("validate serialized its input")

    monkeypatch.setattr(formats, "save_document", refuse)
    for path in all_fixture_files():
        code, _, err = run(capsys, "validate", path)
        assert code == 0, (path, err)


def test_each_document_tag_has_one_class():
    """``formats._DOCUMENTS`` has one row per tag and one per class, and no
    saver writes the tag; every fixture loads into its tag's class and saves
    back to its own tag."""
    rows = formats._DOCUMENTS
    assert len({row[0] for row in rows}) == len({row[1] for row in rows}) == len(rows)
    classes = {}
    for path in all_fixture_files():
        with open(path, encoding="utf-8") as fh:
            tag = json.load(fh)["type"]
        obj = formats.read_document(path)
        assert classes.setdefault(tag, type(obj)) is type(obj), path
        assert formats.save_document(obj)["type"] == tag, path
        assert "type" not in formats.document_type(obj)[4](obj), path
    assert len(set(classes.values())) == len(classes)


def writer_cases():
    """Every writer command on every fixture it accepts, with its output kind."""
    cases = []
    for path in all_fixture_files():
        obj = formats.read_document(path)
        if isinstance(obj, FunctorData):
            for extra in ((), ("--dual",)):
                cases.append((("resolve", path, "--cutoff", "2") + extra, BiSemiSimplicialSet))
        elif isinstance(obj, FinNonUnitalCategory):
            cases.append((("nerve", path, "--cutoff", "3"), SemiSimplicialSet))
            cases.append((("unitalize", path), FinNonUnitalCategory))
            for o in range(obj.n_objects):
                for extra in ((), ("--under",)):
                    cases.append((("over", path, "--object", str(o)) + extra, FinNonUnitalCategory))
        elif isinstance(obj, FinMonoid):
            cases.append((("nerve", path, "--cutoff", "3"), SemiSimplicialSet))
            for sides in (("--left", "trivial", "--right", "regular"),
                          ("--left", "regular", "--right", "trivial")):
                cases.append((("bar", path, "--cutoff", "3") + sides, SemiSimplicialSet))
        elif isinstance(obj, SemiSimplicialSet):
            for d in range(len(obj.sizes)):
                cases.append((("skeleton", path, "--degree", str(d)), SemiSimplicialSet))
    return cases


_VALIDATORS = {SemiSimplicialSet: validate_sset, FinNonUnitalCategory: validate_category,
               BiSemiSimplicialSet: validate_bisset}


@pytest.mark.parametrize("argv,kind", [
    pytest.param(argv, kind, id=" ".join(map(os.path.basename, argv)))
    for argv, kind in writer_cases()])
def test_writer_output_loads_and_validates(argv, kind, capsys):
    code, doc, err = run_json(capsys, *argv)
    assert code == 0, err
    if argv[0] == "resolve":
        doc = doc["bisset"]
    obj = formats.load_document(doc)
    assert type(obj) is kind
    rep = _VALIDATORS[kind](obj)
    assert rep.ok, rep.problems


def test_format_error_names_the_field(capsys, tmp_path):
    p = tmp_path / "bad.ss.json"
    p.write_text('{"type":"sset","levels":[{"size":2},'
                 '{"size":3,"faces":[[1,1,0],[0,0,9]]}]}')
    code, out, err = run(capsys, "homology", str(p))
    assert code == 2
    assert out == ""
    assert "levels[1].faces[1][2]" in err


def test_unknown_type_rejected(capsys, tmp_path):
    p = tmp_path / "odd.json"
    p.write_text('{"type":"widget"}')
    code, out, err = run(capsys, "validate", str(p))
    assert code == 2
    assert "unknown document type" in err


@pytest.mark.parametrize("name,nested,tag,argv", [
    ("circle.ss.json", None, [1], ("validate",)),
    ("id1.fun.json", "source", {"a": 1}, ("validate",)),
    ("id1.fun.json", "source", {"a": 1}, ("resolve", "--cutoff", "2")),
], ids=["sset-validate", "functor-source-validate", "functor-source-resolve"])
def test_non_string_type_rejected(capsys, tmp_path, name, nested, tag, argv):
    with open(fixture(name), encoding="utf-8") as fh:
        doc = json.load(fh)
    (doc[nested] if nested else doc)["type"] = tag
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, argv[0], str(p), *argv[1:])
    assert (code, out) == (2, "")
    field = f"{nested}.type" if nested else "type"
    assert f": {field}: " in err


def test_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "homology", str(tmp_path / "nope.json"))
    assert code == 2
    assert "cannot read" in err


def test_validate_reports_law_violations(capsys, tmp_path):
    p = tmp_path / "badlaw.ss.json"
    p.write_text('{"type":"sset","levels":[{"size":2},'
                 '{"size":2,"faces":[[0,1],[1,0]]},'
                 '{"size":1,"faces":[[0],[1],[0]]}]}')
    code, doc, err = run_json(capsys, "validate", str(p))
    assert code == 1
    assert doc["ok"] is False
    assert any("face identity" in s for s in doc["problems"])


def test_invalid_input_rejected_before_computing(capsys, tmp_path):
    p = tmp_path / "badlaw.ss.json"
    p.write_text('{"type":"sset","levels":[{"size":2},'
                 '{"size":2,"faces":[[0,1],[1,0]]},'
                 '{"size":1,"faces":[[0],[1],[0]]}]}')
    code, out, err = run(capsys, "homology", str(p))
    assert code == 2
    assert "invalid semi-simplicial set" in err


# -- computations ------------------------------------------------------------


def test_homology_boundary3(capsys):
    code, doc, err = run_json(capsys, "homology", fixture("boundary3.ss.json"),
                              "--max-degree", "3")
    assert code == 0
    assert [g["pretty"] for g in doc["groups"]] == ["Z", "0", "Z", "0"]


def test_homology_rp2_integral_and_mod_2(capsys):
    code, doc, err = run_json(capsys, "homology", fixture("rp2.ss.json"))
    assert [g["pretty"] for g in doc["groups"]] == ["Z", "Z/2", "0"]
    code, doc, err = run_json(capsys, "homology", fixture("rp2.ss.json"),
                              "--coeff", "f2")
    assert [g["pretty"] for g in doc["groups"]] == ["F2", "F2", "F2"]


def test_homology_of_simplicial_document(capsys):
    code, doc, err = run_json(capsys, "homology", fixture("freerp2.simp.json"),
                              "--max-degree", "4")
    assert code == 0
    assert [g["pretty"] for g in doc["groups"]] == ["Z", "Z/2", "0", "0", "0"]


def test_homology_truncated_is_clamped(capsys):
    code, doc, err = run_json(capsys, "homology", fixture("threepoints.ss.json"),
                              "--max-degree", "4")
    assert code == 0
    assert [g["degree"] for g in doc["groups"]] == [0, 1]
    assert doc["notes"] != []


def test_homology_pads_past_the_top(capsys):
    code, doc, err = run_json(capsys, "homology", fixture("point.ss.json"),
                              "--max-degree", "3")
    assert [g["pretty"] for g in doc["groups"]] == ["Z", "0", "0", "0"]


def test_bad_coefficients(capsys):
    code, out, err = run(capsys, "homology", fixture("rp2.ss.json"),
                         "--coeff", "f6")
    assert code == 2
    assert "prime" in err


def test_large_moduli(capsys):
    code, doc, err = run_json(capsys, "homology", fixture("rp2.ss.json"),
                              "--coeff", f"f{2 ** 61 - 1}")
    assert code == 0
    assert [g["rank"] for g in doc["groups"]] == [1, 0, 0]
    code, out, err = run(capsys, "homology", fixture("rp2.ss.json"),
                         "--coeff", f"f{10 ** 25 + 13}")
    assert (code, out) == (2, "")
    assert "too large" in err


def test_euler(capsys):
    code, doc, err = run_json(capsys, "euler", fixture("rp2.ss.json"))
    assert (code, doc["value"]) == (0, 1)
    code, doc, err = run_json(capsys, "euler", fixture("boundary3.ss.json"))
    assert doc["value"] == 2
    code, out, err = run(capsys, "euler", fixture("threepoints.ss.json"))
    assert code == 2


def test_skeleton_writes_a_valid_document(capsys):
    code, doc, err = run_json(capsys, "skeleton", fixture("sphere2.ss.json"),
                              "--degree", "1")
    assert code == 0
    S = formats.load_document(doc)
    assert S.sizes == (4, 6)
    assert validate_sset(S).ok


def test_nerve_of_nonunital_category(capsys):
    code, doc, err = run_json(capsys, "nerve", fixture("pair.cat.json"),
                              "--cutoff", "3")
    assert code == 0
    X = formats.load_document(doc)
    assert X.sizes == (3, 3, 1, 0)
    assert X.truncated_at == 3


def test_nerve_of_monoid(capsys):
    code, doc, err = run_json(capsys, "nerve", fixture("c2.mon.json"),
                              "--cutoff", "4")
    X = formats.load_document(doc)
    assert X.sizes == (1, 2, 4, 8, 16)


def test_unitalize(capsys):
    code, doc, err = run_json(capsys, "unitalize", fixture("pair.cat.json"))
    C = formats.load_document(doc)
    assert C.units == (3, 4, 5)
    assert validate_category(C).ok


def test_over_and_under(capsys):
    code, doc, err = run_json(capsys, "over", fixture("poset2.cat.json"),
                              "--object", "2")
    assert formats.load_document(doc).n_objects == 3
    code, doc, err = run_json(capsys, "over", fixture("poset2.cat.json"),
                              "--object", "0", "--under")
    assert formats.load_document(doc).n_objects == 3
    code, out, err = run(capsys, "over", fixture("poset2.cat.json"),
                         "--object", "7")
    assert code == 2


def test_bar_levels(capsys):
    code, doc, err = run_json(capsys, "bar", fixture("c2.mon.json"),
                              "--cutoff", "5")
    X = formats.load_document(doc)
    assert X.sizes == (2, 4, 8, 16, 32, 64)
    assert X.truncated_at == 5


def test_bar_classifying_space(capsys):
    code, doc, err = run_json(capsys, "bar", fixture("c2.mon.json"),
                              "--cutoff", "3", "--right", "trivial")
    X = formats.load_document(doc)
    assert X.sizes == (1, 2, 4, 8)


def _action_over_a_presentation(tmp_path):
    with open(fixture("regc2.act.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    with open(fixture("free1.pres.json"), encoding="utf-8") as fh:
        doc["monoid"] = json.load(fh)
    path = str(tmp_path / "pres.act.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


@pytest.mark.parametrize("argv, message", [
    (("nerve", "{p}", "--cutoff", "2"),
     "{p}: expected a category or monoid document, found a monoid presentation document"),
    (("bar", "{p}", "--cutoff", "2"),
     "{p}: expected a monoid document, found a monoid presentation document"),
    (("check", "bar-acyclic", "{p}", "--cutoff", "2"),
     "{p}: expected a table-form monoid document, found a monoid presentation document"),
    (("check", "segal-nerve", "{p}", "--cutoff", "2"),
     "{p}: expected a group multiplication table, found a monoid presentation document"),
    (("validate", "{a}"), "{a}: monoid: expected a table-form monoid document"),
], ids=["nerve", "bar", "bar-acyclic", "segal-nerve", "action"])
def test_table_only_commands_refuse_a_presentation(argv, message, capsys, tmp_path):
    paths = {"p": fixture("free1.pres.json"), "a": _action_over_a_presentation(tmp_path)}
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert (code, out, err) == (2, "", f"error: {message.format(**paths)}\n")


def test_resolve(capsys):
    code, doc, err = run_json(capsys, "resolve", fixture("endpoint.fun.json"),
                              "--cutoff", "3")
    assert code == 0
    B = formats.load_document(doc["bisset"])
    assert validate_bisset(B).ok
    assert len(doc["eps"]) == len(B.sizes)
    assert len(doc["eps"][0][0]) == B.sizes[0][0]
    code, dual, err = run_json(capsys, "resolve", fixture("endpoint.fun.json"),
                               "--cutoff", "3", "--dual")
    assert dual["dual"] is True
    assert dual["bisset"] != doc["bisset"]


def test_specseq_torus(capsys):
    code, doc, err = run_json(capsys, "specseq", fixture("torus.bis.json"),
                              "--coeff", "q")
    assert code == 0
    assert doc["convergence"]["ok"] is True
    assert doc["convergence"]["degrees"] == [[0, 1, 1], [1, 2, 2], [2, 1, 1]]
    assert doc["pages"][-1]["entries"] == [[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]]


def test_specseq_interval_square_collapses(capsys):
    code, doc, err = run_json(capsys, "specseq", fixture("intervalsquare.bis.json"),
                              "--coeff", "f2", "--orientation", "rows")
    assert code == 0
    assert doc["convergence"]["degrees"][0] == [0, 1, 1]
    assert all(total == dim for _, total, dim in doc["convergence"]["degrees"])


def test_specseq_runs_to_a_stable_page_past_twelve(capsys, tmp_path):
    # 14 x 14 levels: the stable page is r = 14
    path = str(tmp_path / "b13.bis.json")
    formats.write_document(path, exterior_product(constant_sset(1, 13), constant_sset(1, 13)))
    code, doc, err = run_json(capsys, "specseq", path, "--coeff", "q")
    assert code == 0
    assert [page["r"] for page in doc["pages"]] == list(range(15))
    assert doc["convergence"]["ok"] is True


def test_specseq_needs_a_field(capsys):
    code, out, err = run(capsys, "specseq", fixture("torus.bis.json"),
                         "--coeff", "z")
    assert code == 2
    assert "field" in err


def test_group_complete_table(capsys):
    code, doc, err = run_json(capsys, "group-complete", fixture("c2.mon.json"),
                              "--cutoff", "4")
    assert code == 0
    assert doc["verdict"] == "pass"
    assert "Grothendieck group is Z/2" in [h["label"] for h in doc["hypotheses"]]


def test_group_complete_table_needs_cutoff(capsys):
    code, out, err = run(capsys, "group-complete", fixture("c2.mon.json"))
    assert code == 2
    assert "--cutoff" in err


def test_group_complete_presentation(capsys):
    code, doc, err = run_json(capsys, "group-complete", fixture("free1.pres.json"))
    assert code == 0
    assert doc["verdict"] == "pass"
    labels = [h["label"] for h in doc["hypotheses"]]
    assert "Grothendieck group is Z" in labels
    assert "localized degree-0 ring is Z[t,t^-1]" in labels


@pytest.mark.parametrize("name", ["free1.pres.json", "glued.pres.json"])
def test_presentation_verdict_does_not_depend_on_the_cutoff(name, capsys):
    # a presentation's report holds only degree-0 statements, which no
    # cutoff bounds
    path = fixture(name)
    runs = [run_json(capsys, "group-complete", path)]
    for cutoff in ("0", "1", "2", "3"):
        runs.append(run_json(capsys, "group-complete", path, "--cutoff", cutoff))
        runs.append(run_json(capsys, "check", "group-completion", path, "--cutoff", cutoff))
    assert [(code, doc["verdict"], doc["trusted_through"]) for code, doc, err in runs] == \
        [(0, "pass", 0)] * 9


@pytest.mark.parametrize("cutoff, verdict, status", [("0", "untrusted-at-cutoff", 1),
                                                      ("4", "pass", 0)])
def test_group_complete_exits_like_check(cutoff, verdict, status, capsys):
    path = fixture("c2.mon.json")
    code, doc, err = run_json(capsys, "group-complete", path, "--cutoff", cutoff)
    check_code, check_doc, err = run_json(capsys, "check", "group-completion", path,
                                          "--cutoff", cutoff)
    assert doc["verdict"] == check_doc["verdict"] == verdict
    assert code == check_code == status


def test_internal_error_exits_three(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("simulated bug")

    monkeypatch.setattr(cli, "_cmd_homology", broken)
    code, out, err = run(capsys, "homology", fixture("rp2.ss.json"))
    assert code == 3
    assert out == ""
    assert "internal error: RuntimeError: simulated bug" in err
    assert "Traceback" in err


# -- the check suite ---------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("check", "adj-units", fixture("rp2.ss.json"), "--cutoff", "4"),
    ("check", "fat-thin", "--seed", "2", "--cutoff", "3"),
    ("group-complete", fixture("c2.mon.json"), "--cutoff", "3"),
], ids=["check", "seeded-check", "group-complete"])
def test_the_cli_times_the_check(argv, capsys):
    code, doc, err = run_json(capsys, *argv)
    head = err.splitlines()[0]
    assert head.startswith(f"{doc['check']}: {doc['verdict']}  (cutoff ")
    assert re.fullmatch(r"\[\d+\.\d{3}s\]", head.rsplit("  ", 1)[1])


def test_check_pass_exits_zero(capsys):
    code, doc, err = run_json(capsys, "check", "adj-units", fixture("rp2.ss.json"),
                              "--cutoff", "4")
    assert code == 0
    assert doc["verdict"] == "pass"
    assert "pass" in err


def test_check_failure_exits_one(capsys):
    code, doc, err = run_json(capsys, "check", "quillen-a",
                              fixture("discretepair.fun.json"), "--cutoff", "3")
    assert code == 1
    assert doc["verdict"] == "fail"
    assert "hypotheses not met" in doc["notes"]


def test_check_untrusted_exits_one(capsys):
    code, doc, err = run_json(capsys, "check", "adj-units", fixture("rp2.ss.json"),
                              "--cutoff", "0")
    assert code == 1
    assert doc["verdict"] == "untrusted-at-cutoff"


def test_check_needs_cutoff(capsys):
    code, out, err = run(capsys, "check", "adj-units", fixture("rp2.ss.json"))
    assert code == 2
    assert "--cutoff" in err


def test_check_unknown_id(capsys):
    code, out, err = run(capsys, "check", "telescope", "--cutoff", "3")
    assert code == 2
    assert "unknown check" in err


def test_check_wrong_document_kind(capsys):
    code, out, err = run(capsys, "check", "adj-units", fixture("c2.mon.json"),
                         "--cutoff", "3")
    assert code == 2
    assert "expected" in err


@pytest.mark.parametrize("check_id", ["adj-units", "fat-thin", "ez-diagonal"])
def test_check_seed_records_the_seed(check_id, capsys):
    for seed in range(20):
        code, doc, err = run_json(capsys, "check", check_id, "--seed", str(seed),
                                  "--cutoff", "3")
        assert code == 0, seed
        assert f"seed={seed}" in doc["notes"]


def test_check_seed_is_reproducible(capsys):
    _, out1, _ = run(capsys, "check", "fat-thin", "--seed", "11", "--cutoff", "3")
    _, out2, _ = run(capsys, "check", "fat-thin", "--seed", "11", "--cutoff", "3")
    assert out1 == out2


def test_check_seed_restrictions(capsys):
    code, out, err = run(capsys, "check", "products", "--seed", "1", "--cutoff", "3")
    assert code == 2
    code, out, err = run(capsys, "check", "adj-units", fixture("rp2.ss.json"),
                         "--seed", "1", "--cutoff", "3")
    assert code == 2


def test_check_constant_and_skeletal(capsys):
    code, doc, err = run_json(capsys, "check", "constant", "--size", "3",
                              "--cutoff", "3")
    assert (code, doc["verdict"]) == (0, "pass")
    code, doc, err = run_json(capsys, "check", "skeletal-shadow",
                              fixture("sphere2.ss.json"),
                              "--degree", "1", "--cutoff", "3")
    assert (code, doc["verdict"]) == (0, "pass")


def test_check_segal_rejects_non_groups(capsys):
    code, out, err = run(capsys, "check", "segal-nerve",
                         fixture("absorbing.mon.json"), "--cutoff", "3")
    assert code == 2


def test_check_products_two_files(capsys):
    code, doc, err = run_json(capsys, "check", "products",
                              fixture("delta2.simp.json"),
                              fixture("freecircle.simp.json"), "--cutoff", "3")
    assert (code, doc["verdict"]) == (0, "pass")


def test_report_bytes_are_stable(capsys):
    _, out1, _ = run(capsys, "check", "terminal-contractible",
                     fixture("poset2.cat.json"), "--cutoff", "4")
    _, out2, _ = run(capsys, "check", "terminal-contractible",
                     fixture("poset2.cat.json"), "--cutoff", "4")
    assert out1 == out2
    assert "seconds" not in out1


def test_document_bytes_are_stable(capsys):
    _, out1, _ = run(capsys, "skeleton", fixture("sphere2.ss.json"), "--degree", "1")
    _, out2, _ = run(capsys, "skeleton", fixture("sphere2.ss.json"), "--degree", "1")
    assert out1 == out2


# stdout sha256 of the writers that build nerves, bar constructions and comma
# resolutions; run from the repository root, as ``resolve`` echoes the path
PINNED_STDOUT = [
    (("nerve", "c2.mon.json", "--cutoff", "3"),
     "92fa26ca9ec97784b87ae6c6d50a98ba903dbee30c33fca966f20f764eac2a2a"),
    (("nerve", "pair.cat.json", "--cutoff", "3"),
     "8de05ae43fd7dc9b5e959d068bef6711630f781aa1840de0c262178a7eeffa05"),
    (("nerve", "idempotent.cat.json", "--cutoff", "3"),
     "777d29c23674bcdfeac207efef5b3999246bd3b2de313f1d6ce2b8cb0d5f6c2b"),
    (("bar", "c2.mon.json", "--left", "trivial", "--right", "trivial", "--cutoff", "3"),
     "92fa26ca9ec97784b87ae6c6d50a98ba903dbee30c33fca966f20f764eac2a2a"),
    (("bar", "c2.mon.json", "--left", "trivial", "--right", "regular", "--cutoff", "3"),
     "8fe56207824a2e745348673ddfebbfdc630648427c23ef8d99231fd44fb5b734"),
    (("bar", "c2.mon.json", "--left", "regular", "--right", "trivial", "--cutoff", "3"),
     "794e0fd6b068507eec5b54a0e537f612ea65a3f223ae99b35c51e12d4a350a66"),
    (("bar", "c2.mon.json", "--left", "regular", "--right", "regular", "--cutoff", "3"),
     "8f21820735b08f76bc09dce9bb38065529f89cbbbc98ca44135ccf4792efab27"),
    (("resolve", "endpoint.fun.json", "--cutoff", "2"),
     "259eac698f32cda065dfbb2bd03884f6331d88559dc07791508715274425a110"),
    (("resolve", "endpoint.fun.json", "--cutoff", "2", "--dual"),
     "ceb0a5be4bfd3963c01017bbaf8447ab62c5ec174aebaf9741bee576ee96502e"),
    (("resolve", "id1.fun.json", "--cutoff", "2"),
     "11c75a28bb9b3cf1407e16252862bca294aa1577d0ef038801a7c4b660a60708"),
    (("resolve", "id1.fun.json", "--cutoff", "2", "--dual"),
     "58c470e52a958878a55c36003584106e3967bac0fcc35cc1d309e3c7c4d494df"),
]


@pytest.mark.parametrize("argv,digest", [pytest.param(*case, id=" ".join(case[0]))
                                         for case in PINNED_STDOUT])
def test_built_space_bytes_are_pinned(argv, digest, capsys, monkeypatch):
    monkeypatch.chdir(os.path.join(FIXTURES, ".."))
    command, name, *rest = argv
    code, out, _ = run(capsys, command, os.path.join("fixtures", name), *rest)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def check_inputs(row):
    """(files, seed) inputs for one ``cli._CHECKS`` row: every fixture of its
    input kind, the first six pairs for two-input checks, and seeds 0-1 for
    seeded rows."""
    kinds, seeded = row[1], row[5]
    docs = [(path, formats.read_document(path)) for path in all_fixture_files()]
    matches = [[path for path, obj in docs if isinstance(obj, kind)] for kind in kinds]
    combos = itertools.product(*matches)
    if len(kinds) > 1:
        combos = itertools.islice(combos, 6)
    inputs = [(list(files), None) for files in combos]
    if seeded is not None:
        inputs += [([], seed) for seed in (0, 1)]
    return inputs


def test_trusted_degrees_do_not_move_with_the_cutoff():
    """Truncation honesty: for every check, ``trusted_through`` never falls as
    the cutoff N grows, and every comparison at a degree <= trusted_through(N)
    is the same at N + 1."""
    reports = 0
    for row in cli._CHECKS:
        check_id, param = row[0], row[3]
        degree = 1 if param == "degree" else None
        size = 3 if param == "size" else None
        for files, seed in check_inputs(row):
            reps = {}
            for n in range(1, 6):
                try:
                    reps[n] = cli._run_check(check_id, files, n, seed, degree, size)
                except cli.UsageError:
                    continue
            reports += len(reps)
            for n, rep in reps.items():
                nxt = reps.get(n + 1)
                if nxt is None:
                    continue
                where = (check_id, files, seed, n)
                top = rep.trusted_through
                assert nxt.trusted_through >= top, where
                assert ([c.to_dict() for c in rep.comparisons if c.degree <= top]
                        == [c.to_dict() for c in nxt.comparisons if c.degree <= top]), where
    assert reports == 299


def test_every_check_but_skeletal_shadow_answers_cutoff_zero(capsys):
    """At cutoff 0 every check reports on the inputs of
    ``check_inputs``, and refuses one only as it does at cutoff 1.  The
    exception is skeletal-shadow, whose degree must sit below the cutoff."""
    reports = 0
    for row in cli._CHECKS:
        check_id, param = row[0], row[3]
        if check_id == "skeletal-shadow":
            continue
        degree = 1 if param == "degree" else None
        size = 3 if param == "size" else None
        for files, seed in check_inputs(row):
            try:
                rep = cli._run_check(check_id, files, 0, seed, degree, size)
            except cli.UsageError as e:
                with pytest.raises(cli.UsageError, match=re.escape(str(e))):
                    cli._run_check(check_id, files, 1, seed, degree, size)
                continue
            assert (rep.cutoff, rep.verdict == "untrusted-at-cutoff") == (0, rep.trusted_through < 0)
            reports += 1
    assert reports == 55
    code, report, _ = run_json(capsys, "check", "segal-nerve", fixture("c2.mon.json"),
                               "--cutoff", "0")
    assert (code, report["verdict"], report["hypotheses"]) == (1, "untrusted-at-cutoff", [])


def test_products_answer_a_torsion_order_with_a_large_prime_factor(capsys, tmp_path):
    """A Moore space with H_1 = Z/(2^89 - 1): edges a_0..a_89 and c on one
    vertex, 2-simplices with faces (a_i, a_{i+1}, a_i), which make
    a_{i+1} = 2 a_i, then (c, c, c), which kills c, and (a_89, a_0, c).
    Times RP^2 that is Z/(2^90 - 2) in degree 1, an order no trial division
    factors in time."""
    k = 89
    c = k + 1
    tri = [(i, i + 1, i) for i in range(k)] + [(c, c, c), (k, 0, c)]
    X = SemiSimplicialSet((1, k + 2, k + 2), ((), ((0,) * (k + 2),) * 2, tuple(zip(*tri))))
    path = str(tmp_path / "moore.simp.json")
    formats.write_document(path, free_degeneracies(X))
    with time_limit(30):
        code, report, _ = run_json(capsys, "check", "products", path,
                                   fixture("freerp2.simp.json"), "--cutoff", "4")
    assert (code, report["verdict"]) == (0, "pass")
    h1 = report["comparisons"][1]
    assert h1["degree"] == 1 and h1["left"]["pretty"] == "Z/1237940039285380274899124222"
    assert h1["left"] == h1["right"]


# -- batches -----------------------------------------------------------------


def test_batch_runs_every_check(capsys):
    code, reports, err = run_json(capsys, "check", "--batch",
                                  fixture("checks.batch.json"))
    assert code == 0
    assert len(reports) == 9
    assert all(d["verdict"] == "pass" for d in reports)


def test_batch_parallel_matches_serial(capsys):
    _, out1, _ = run(capsys, "check", "--batch", fixture("checks.batch.json"))
    _, out2, _ = run(capsys, "check", "--batch", fixture("checks.batch.json"),
                     "--jobs", "3")
    assert out1 == out2


def test_batch_failure_exits_one(capsys, tmp_path):
    batch = [{"check": "quillen-a",
              "files": [os.path.abspath(fixture("discretepair.fun.json"))],
              "cutoff": 3},
             {"check": "constant", "size": 2, "cutoff": 2}]
    p = tmp_path / "batch.json"
    p.write_text(json.dumps(batch))
    code, reports, err = run_json(capsys, "check", "--batch", str(p))
    assert code == 1
    assert [d["verdict"] for d in reports] == ["fail", "pass"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_names_the_entry_whose_file_cannot_be_read(jobs, capsys, tmp_path):
    p = tmp_path / "batch.json"
    (tmp_path / "rp2.ss.json").write_text(json.dumps(_fixture_doc("rp2.ss.json")))
    p.write_text(json.dumps([{"check": "adj-units", "files": ["rp2.ss.json"], "cutoff": 2},
                             {"check": "adj-units", "files": ["missing.ss.json"], "cutoff": 2}]))
    missing = os.path.join(str(tmp_path), "missing.ss.json")
    assert run(capsys, "check", "--batch", str(p), "--jobs", jobs) == (
        2, "", f"error: {p}[1]: cannot read {missing}: No such file or directory\n")


def test_batch_rejects_malformed_entries(capsys, tmp_path):
    p = tmp_path / "batch.json"
    p.write_text(json.dumps([{"check": "constant", "size": 2, "cutoff": 2,
                              "extra": True}]))
    code, out, err = run(capsys, "check", "--batch", str(p))
    assert code == 2
    assert "unknown field" in err


@pytest.mark.parametrize("flag, value", [("--cutoff", "1"), ("--seed", "5"),
                                         ("--size", "3"), ("--degree", "9")])
def test_batch_rejects_parameters_on_the_command_line(capsys, flag, value):
    code, out, err = run(capsys, "check", "--batch", fixture("checks.batch.json"), flag, value)
    assert code == 2
    assert out == ""
    assert flag in err


@pytest.mark.parametrize("argv", [
    ("adj-units", fixture("rp2.ss.json"), "--cutoff", "3", "--degree", "2"),
    ("ez-diagonal", "--seed", "3", "--cutoff", "3", "--degree", "1"),
    ("constant", "--size", "2", "--cutoff", "2", "--degree", "1"),
    ("skeletal-shadow", fixture("sphere2.ss.json"), "--cutoff", "3", "--degree", "1",
     "--size", "2"),
    ("quillen-a", fixture("endpoint.fun.json"), "--cutoff", "3", "--size", "1"),
], ids=lambda argv: argv[0])
def test_check_rejects_parameters_it_does_not_read(capsys, argv):
    code, out, err = run(capsys, "check", *argv)
    assert code == 2
    assert out == ""
    assert "does not read" in err


@pytest.mark.parametrize("entry", [
    {"check": "adj-units", "files": ["rp2.ss.json"], "cutoff": 3, "degree": 2},
    {"check": "skeletal-shadow", "files": ["sphere2.ss.json"], "cutoff": 3, "degree": 1,
     "size": 2},
], ids=lambda entry: entry["check"])
def test_batch_rejects_fields_the_check_does_not_read(entry, capsys, tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "_run_check", lambda *a: ran.append(a))
    p = tmp_path / "batch.json"
    entry = dict(entry, files=[os.path.abspath(fixture(f)) for f in entry["files"]])
    p.write_text(json.dumps([{"check": "constant", "size": 2, "cutoff": 2}, entry]))
    code, out, err = run(capsys, "check", "--batch", str(p))
    assert code == 2
    assert out == ""
    assert "does not read" in err
    assert ran == []


def test_jobs_without_batch_rejected(capsys):
    code, out, err = run(capsys, "check", "constant", "--size", "2",
                         "--cutoff", "2", "--jobs", "4")
    assert code == 2


# -- exact request errors and help text ----------------------------------------


_KNOWN_CHECKS = ("adj-units, bar-acyclic, constant, ez-diagonal, fat-thin, group-completion, "
                 "krannich, products, quillen-a, resolution-triangle, segal-nerve, "
                 "skeletal-shadow, terminal-contractible")


@pytest.mark.parametrize("argv, message", [
    (("telescope", "--cutoff", "3"), f"unknown check 'telescope' (known: {_KNOWN_CHECKS})"),
    (("adj-units", fixture("rp2.ss.json"), "--cutoff", "3", "--degree", "2"),
     "check adj-units does not read --degree"),
    (("skeletal-shadow", fixture("sphere2.ss.json"), "--cutoff", "3", "--degree", "1",
      "--size", "2"), "check skeletal-shadow does not read --size"),
    (("adj-units", fixture("rp2.ss.json")), "check adj-units needs --cutoff"),
    (("products", "--seed", "1", "--cutoff", "3"),
     "--seed only applies to the randomized checks (adj-units, ez-diagonal, fat-thin)"),
    (("adj-units", fixture("rp2.ss.json"), "--seed", "1", "--cutoff", "3"),
     "--seed generates the input; do not pass files with it"),
    (("constant", "--cutoff", "2"), "check constant needs --size"),
    (("skeletal-shadow", fixture("sphere2.ss.json"), "--cutoff", "3"),
     "check skeletal-shadow needs --degree"),
    (("adj-units", fixture("c2.mon.json"), "--cutoff", "3"),
     f"{fixture('c2.mon.json')}: expected a semi-simplicial document, found a monoid document"),
], ids=["unknown", "degree", "size", "cutoff", "seed-plain", "seed-files", "no-size",
        "no-degree", "wrong-kind"])
def test_check_request_errors_are_exact(argv, message, capsys):
    code, out, err = run(capsys, "check", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("check_id, what", [
    ("adj-units", "a semi-simplicial document"),
    ("fat-thin", "a simplicial document"),
    ("ez-diagonal", "two simplicial documents"),
    ("products", "two simplicial documents"),
    ("krannich", "a category document"),
    ("terminal-contractible", "a category document"),
    ("quillen-a", "a functor document"),
    ("resolution-triangle", "a functor document"),
    ("bar-acyclic", "a table-form monoid document"),
    ("group-completion", "a monoid or monoid-presentation document"),
    ("skeletal-shadow", "a semi-simplicial document"),
    ("segal-nerve", "a group multiplication table"),
    ("constant", "no file (pass --size instead)"),
])
def test_check_file_count_error_is_exact(check_id, what, capsys):
    files = [fixture("rp2.ss.json")] * 3
    extra = {"skeletal-shadow": ("--degree", "1"), "constant": ("--size", "1")}.get(check_id, ())
    code, out, err = run(capsys, "check", check_id, *files, "--cutoff", "3", *extra)
    assert (code, out) == (2, "")
    assert err == f"error: check {check_id} takes {what}, got 3 file(s)\n"


_NON_COMMUTATIVE = {"type": "monoid", "unit": 0, "table": [[0, 1, 2], [1, 1, 1], [2, 2, 2]]}
_TRUNCATED_POINT = {"type": "sset", "levels": [{"size": 1}], "truncated_at": 0}


def _delta2(truncated_at=None, word=()):
    """The simplicial 2-simplex, truncated, or with a degeneracy word on the
    first face of its 2-simplex."""
    with open(fixture("delta2.simp.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    if truncated_at is not None:
        doc["truncated_at"] = truncated_at
    doc["generators"][2]["faces"][0][0]["word"] = list(word)
    return doc


@pytest.mark.parametrize("content, argv, message", [
    (_TRUNCATED_POINT, ("skeleton", "{f}", "--degree", "1"),
     "{f}: cannot take the 1-skeleton of a complex truncated at 0"),
    (_NON_COMMUTATIVE, ("group-complete", "{f}", "--cutoff", "2"),
     "{f}: group completion needs a commutative monoid"),
    (None, ("check", "--batch", "{f}"), "cannot read {f}: No such file or directory"),
    ("{", ("check", "--batch", "{f}"),
     "{f} is not valid JSON: Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)"),
    ({"check": "constant"}, ("check", "--batch", "{f}"),
     "{f}: a batch file holds an array of check entries"),
    ([{"cutoff": 2}], ("check", "--batch", "{f}"),
     "{f}[0]: each entry is an object with a 'check' field"),
    ([{"check": "constant", "files": "a.json", "size": 2, "cutoff": 2}],
     ("check", "--batch", "{f}"), "{f}[0]: 'files' must be an array of paths"),
    ([{"check": "constant", "size": 2, "cutoff": True}], ("check", "--batch", "{f}"),
     "{f}[0]: cutoff must be an integer"),
    ([], ("check", "constant", "--batch", "{f}"), "--batch replaces the check id and files"),
    (None, ("check",), "pass a check id or --batch FILE"),
    (None, ("homology", fixture("rp2.ss.json"), "--coeff", "fx"), "bad ring 'FX'"),
    (_delta2(word=(0, 1)), ("homology", "{f}"),
     "{f}: generators[2].faces[0][0].word: degeneracy word [0, 1] must be strictly decreasing"),
], ids=["skeleton-above-truncation", "group-complete-non-commutative", "batch-unreadable",
        "batch-not-json", "batch-not-array", "batch-no-check", "batch-files", "batch-bool",
        "batch-and-check", "check-neither", "coeff-fx", "word-not-decreasing"])
def test_command_errors_are_exact(content, argv, message, capsys, tmp_path):
    f = str(tmp_path / "input.json")
    if content is not None:
        with open(f, "w", encoding="utf-8") as fh:
            fh.write(content if isinstance(content, str) else json.dumps(content))
    code, out, err = run(capsys, *(a.format(f=f) for a in argv))
    assert (code, out, err) == (2, "", f"error: {message.format(f=f)}\n")


def _nat_trans_chain(depth: int) -> bytes:
    """A nat-trans document whose F is a nat-trans document, ``depth`` deep:
    valid JSON that only the loader's own recursion reads too deeply."""
    doc = {"type": "nat-trans"}
    for _ in range(depth):
        doc = {"type": "nat-trans", "F": doc, "G": {}, "components": []}
    return json.dumps(doc).encode("utf-8")


_DEEP_ARRAY = b"[" * 100_000 + b"]" * 100_000
_LONG_INT = b"9" * 5000


def _int_conversion_error() -> str:
    try:
        int(_LONG_INT)
    except ValueError as e:
        return str(e)
    raise AssertionError("the interpreter converts integers of any length")


@pytest.mark.parametrize("content, argv, message", [
    (b"\xff\xfe{}", ("validate", "{f}"),
     "{f}: $: not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0: "
     "invalid start byte"),
    (b'{"type": "sset", "levels": ' + _DEEP_ARRAY + b"}", ("validate", "{f}"),
     "{f}: $: nested too deeply"),
    (_nat_trans_chain(600), ("validate", "{f}"), "{f}: $: nested too deeply"),
    (b'{"type": "sset", "levels": [{"size": ' + _LONG_INT + b"}]}", ("validate", "{f}"),
     "{f}: $: not valid JSON: " + _int_conversion_error()),
    (b'[{"check": "constant", "size": 2}]\xff', ("check", "--batch", "{f}"),
     "{f} is not valid JSON: 'utf-8' codec can't decode byte 0xff in position 34: "
     "invalid start byte"),
    (_DEEP_ARRAY, ("check", "--batch", "{f}"), "{f} is nested too deeply"),
], ids=["document-not-utf8", "document-deep-array", "document-deep-nat-trans",
        "document-long-integer", "batch-stray-ff", "batch-deep-array"])
def test_unreadable_files_are_usage_errors(content, argv, message, capsys, tmp_path):
    # undecodable bytes, integers past the interpreter's digit limit and
    # nesting past the recursion limit are the file's fault: exit 2 with one
    # error line, not an internal error
    f = tmp_path / "input.json"
    f.write_bytes(content)
    code, out, err = run(capsys, *(a.format(f=f) for a in argv))
    assert (code, out, err) == (2, "", f"error: {message.format(f=f)}\n")


# (fixture, path to one integer table, the table's exclusive bound): an sset
# face table, a bisset face table, a category's units and a monoid row
_TABLES = {
    "sset-face": ("rp2.ss.json", ("levels", 1, "faces", 0), 2),
    "bisset-dh": ("torus.bis.json", ("dh", 1, 0, 1), 9),
    "category-units": ("poset2.cat.json", ("units",), 6),
    "monoid-row": ("c3.mon.json", ("table", 1), 3),
}
# how entry 1 (or the table's length) is broken, and the loader's message
_BAD_ENTRIES = {
    "bool": (lambda tab, high: tab.__setitem__(1, True), "[1]: expected an integer, got True"),
    "float": (lambda tab, high: tab.__setitem__(1, 1.0), "[1]: expected an integer, got 1.0"),
    "string": (lambda tab, high: tab.__setitem__(1, "1"), "[1]: expected an integer, got '1'"),
    "null": (lambda tab, high: tab.__setitem__(1, None), "[1]: expected an integer, got None"),
    "negative": (lambda tab, high: tab.__setitem__(1, -1), "[1]: value -1 below minimum 0"),
    "at-bound": (lambda tab, high: tab.__setitem__(1, high),
                 "[1]: value {high} out of range (must be < {high})"),
    "short": (lambda tab, high: tab.pop(), ": expected {n} entries, got {short}"),
    "long": (lambda tab, high: tab.append(0), ": expected {n} entries, got {long}"),
}


@pytest.mark.parametrize("kind", _BAD_ENTRIES)
@pytest.mark.parametrize("table", _TABLES)
def test_bad_table_entries_are_exact(table, kind, capsys, tmp_path):
    """The exit-2 message of each kind of bad entry, wherever an integer
    table is read: the first bad entry, or the length, is named exactly."""
    name, path, high = _TABLES[table]
    break_entry, message = _BAD_ENTRIES[kind]
    with open(fixture(name), encoding="utf-8") as fh:
        doc = json.load(fh)
    tab = doc
    for key in path:
        tab = tab[key]
    n = len(tab)
    break_entry(tab, high)
    f = str(tmp_path / name)
    with open(f, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    field = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")
    want = field + message.format(high=high, n=n, short=n - 1, long=n + 1)
    assert run(capsys, "validate", f) == (2, "", f"error: {f}: {want}\n")


def _fixture_doc(name):
    with open(fixture(name), encoding="utf-8") as fh:
        return json.load(fh)


def _broken(name, *path, put=None):
    """A fixture document with the value at ``path`` replaced by ``put``, or
    with the last entry of the array at ``path`` dropped."""
    doc = _fixture_doc(name)
    at = doc
    for key in path[:-1]:
        at = at[key]
    if put is None:
        at[path[-1]].pop()
    else:
        at[path[-1]] = put
    return doc


@pytest.mark.parametrize("doc, message", [
    (_broken("torus.bis.json", "sizes", put=[]), "sizes: needs at least one row"),
    (_broken("torus.bis.json", "sizes", 0, put=[]), "sizes[0]: rows must be nonempty"),
    (_broken("torus.bis.json", "sizes", 1), "sizes[1]: expected 2 entries, got 1"),
    (_broken("id1.fun.json", "source", put=_fixture_doc("c2.mon.json")),
     "source: functor source must be a category document"),
    (_broken("id1.fun.json", "target", put=_fixture_doc("c2.mon.json")),
     "target: functor target must be a category document"),
    ({"type": "nat-trans", "F": _fixture_doc("poset2.cat.json"),
      "G": _fixture_doc("id1.fun.json"), "components": []}, "F: expected a functor document"),
    (_broken("rp2.ss.json", "levels", 2, "faces"),
     "levels[2].faces: expected 3 entries, got 2"),
    (_broken("delta2.simp.json", "generators", 2, "faces"),
     "generators[2].faces: expected 3 entries, got 2"),
    (_broken("torus.bis.json", "dh"), "dh: expected 2 entries, got 1"),
    (_broken("torus.bis.json", "dh", 1, 0), "dh[1][0]: expected 2 entries, got 1"),
    (_broken("regc2.act.json", "table"), "table: expected 2 entries, got 1"),
], ids=["bisset-no-rows", "bisset-empty-row", "bisset-ragged-row", "functor-source",
        "functor-target", "nat-trans-F", "sset-face-count", "simplicial-face-count",
        "bisset-dh-rows", "bisset-dh-cell", "action-rows"])
def test_validate_errors_are_exact(doc, message, capsys, tmp_path):
    """The exit-2 message of a document whose shape is wrong, one per shape
    the loader reads: arrays of a set length, nested documents of a class."""
    f = str(tmp_path / "input.json")
    with open(f, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert run(capsys, "validate", f) == (2, "", f"error: {f}: {message}\n")


def test_validate_caps_the_simplicial_shape_pass(capsys, tmp_path):
    # the loader does not check the degree a face lands in, so all 30 faces
    # of the ten degree-2 generators fail the shape pass; 21 are listed
    ref = {"word": [], "deg": 0, "idx": 0}
    f = tmp_path / "flat.simp.json"
    f.write_text(json.dumps({"type": "simplicial", "generators": [
        {"size": 1}, {"size": 0, "faces": [[], []]}, {"size": 10, "faces": [[ref] * 10] * 3}]}))
    code, report, err = run_json(capsys, "validate", str(f))
    assert (code, report["ok"]) == (1, False)
    assert report["problems"] == [f"degree 2 face {i} generator {g}: lands in degree 0, wanted 1"
                                  for i in range(3) for g in range(10)][:21]


def test_truncated_simplicial_document(capsys, tmp_path):
    f = tmp_path / "trunc.simp.json"
    f.write_text(json.dumps(_delta2(truncated_at=2)))
    code, report, err = run_json(capsys, "validate", str(f))
    assert (code, report["ok"], report["type"]) == (0, True, "simplicial")
    assert "truncated at 2: ok" in err
    code, report, err = run_json(capsys, "homology", str(f))
    assert (code, report["complete"]) == (0, False)
    assert [g["pretty"] for g in report["groups"]] == ["Z", "0"]


_CHECK_HELP = """\
usage: ssethom check [-h] [--cutoff CUTOFF] [--seed SEED] [--degree DEGREE]
                     [--size SIZE] [--batch FILE] [--jobs JOBS]
                     [check] [files ...]

Run one named check and report pass/fail. Known checks: adj-units, bar-
acyclic, constant, ez-diagonal, fat-thin, group-completion, krannich,
products, quillen-a, resolution-triangle, segal-nerve, skeletal-shadow,
terminal-contractible.

positional arguments:
  check            which check to run
  files            input documents for the check

options:
  -h, --help       show this help message and exit
  --cutoff CUTOFF  homological range of the check (required)
  --seed SEED      generate a random input instead of reading files (adj-
                   units, fat-thin, ez-diagonal)
  --degree DEGREE  skeleton degree (skeletal-shadow only)
  --size SIZE      number of points (constant only)
  --batch FILE     run every check listed in a JSON batch file
  --jobs JOBS      parallel workers for a batch run
"""


def test_readme_check_table_lists_every_check(capsys):
    code, out, err = run(capsys, "check", "nope", "--cutoff", "1")
    known = err[err.index("(known: ") + len("(known: "):err.rindex(")")].split(", ")
    with open(os.path.join(FIXTURES, "..", "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    table = readme[readme.index("| id | input |"):].split("\n\n", 1)[0]
    listed = [line.split("`")[1] for line in table.splitlines()[2:]]
    assert sorted(listed) == known
    assert len(set(listed)) == len(listed)


def test_check_help_text(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == _CHECK_HELP


@pytest.mark.parametrize("name, line", [
    ("threepoints.ss.json", "semi-simplicial set with level sizes (3, 3, 3), truncated at 2"),
    ("delta2.simp.json", "simplicial set with generator counts (3, 3, 1)"),
    ("torus.bis.json", "bi-semi-simplicial set on a 2x2 grid, 36 simplices"),
    ("endpoint.fun.json", "functor from 1 objects / 1 morphisms to 2 / 3"),
    ("poset2.cat.json", "category with 3 objects, 6 morphisms, unital"),
    ("idempotent.cat.json", "category with 1 objects, 1 morphisms, no units"),
    ("c3.mon.json", "monoid with 3 elements"),
    ("glued.pres.json", "commutative monoid presentation on 2 generators, 1 relations"),
    ("regc2.act.json", "left action of a 2-element monoid on 2 elements"),
    ("example.mat.json", "3x3 integer matrix"),
], ids=lambda v: v.split(".")[0] if v.endswith(".json") else "line")
def test_validate_describes_each_document_kind(name, line, capsys):
    code, out, err = run(capsys, "validate", fixture(name))
    assert code == 0
    assert err.splitlines()[0] == f"{line}: ok"


def test_validate_describes_a_natural_transformation(capsys, tmp_path):
    F = FunctorData(*[formats.read_document(fixture("poset2.cat.json"))] * 2,
                    (0, 1, 2), tuple(range(6)))
    p = tmp_path / "id.nat.json"
    formats.write_document(str(p), NatTransData(F, F, F.source.units))
    code, doc, err = run_json(capsys, "validate", str(p))
    assert doc["type"] == "nat-trans"
    assert err.startswith("natural transformation with 3 components: ")
    # F and G are read as separate documents: equal categories, not the same object
    assert code == 0
    assert doc["ok"] is True
    assert err.splitlines()[0].endswith(": ok")


def test_validate_names_the_nested_functor_of_a_natural_transformation(capsys, tmp_path):
    C = formats.read_document(fixture("id1.fun.json")).source
    F = FunctorData(C, C, (0, 1), (0, 0, 2))
    p = tmp_path / "bad.nat.json"
    formats.write_document(str(p), NatTransData(F, FunctorData(C, C, (0, 1), (0, 1, 2)), (0, 2)))
    code, doc, err = run_json(capsys, "validate", str(p))
    assert code == 1
    assert doc["problems"] == ["F: morphism 1: endpoints not preserved",
                               "F: composite of (1,2) not preserved"]


def test_functor_is_invalid_when_its_categories_are(capsys, tmp_path):
    with open(fixture("id1.fun.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    for side in ("source", "target"):
        doc[side]["compose"] = [c for c in doc[side]["compose"] if (c["f"], c["g"]) != (2, 2)]
    p = tmp_path / "id1.fun.json"
    p.write_text(json.dumps(doc))
    code, report, err = run_json(capsys, "validate", str(p))
    assert code == 1
    assert "source: composition missing on [(2, 2)]" in report["problems"]
    code, out, err = run(capsys, "check", "quillen-a", str(p), "--cutoff", "2")
    assert code == 2
    assert out == ""
    assert "invalid functor: source: composition missing on [(2, 2)]" in err


# -- argument bounds -----------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("nerve", fixture("c2.mon.json"), "--cutoff", "-1"),
    ("homology", fixture("rp2.ss.json"), "--max-degree", "-3"),
    ("skeleton", fixture("sphere2.ss.json"), "--degree", "-1"),
    ("check", "skeletal-shadow", fixture("sphere2.ss.json"), "--cutoff", "2", "--degree", "-1"),
    ("over", fixture("poset2.cat.json"), "--object", "-1"),
    ("check", "constant", "--size", "-1", "--cutoff", "2"),
], ids=lambda argv: argv[0] + (" " + argv[1] if argv[0] == "check" else ""))
def test_negative_levels_rejected_at_parse_time(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "must be at least 0" in captured.err


def test_nerve_at_cutoff_zero_reads_back(capsys, tmp_path):
    code, out, _ = run(capsys, "nerve", fixture("c2.mon.json"), "--cutoff", "0")
    assert code == 0
    p = tmp_path / "n0.ss.json"
    p.write_text(out)
    code, doc, _ = run_json(capsys, "validate", str(p))
    assert code == 0 and doc["ok"] is True


def test_batch_rejects_negative_cutoff(capsys, tmp_path):
    p = tmp_path / "batch.json"
    p.write_text(json.dumps([{"check": "constant", "size": 2, "cutoff": -1}]))
    code, out, err = run(capsys, "check", "--batch", str(p))
    assert code == 2
    assert out == ""
    assert "non-negative" in err


def test_batch_rejects_negative_size(capsys, tmp_path):
    p = tmp_path / "batch.json"
    p.write_text(json.dumps([{"check": "constant", "size": -1, "cutoff": 2}]))
    code, out, err = run(capsys, "check", "--batch", str(p))
    assert code == 2
    assert out == ""
    assert "non-negative" in err


@pytest.mark.parametrize("check_id", ["nope", ["constant"], 3])
def test_batch_rejects_unknown_check_before_running_any(check_id, capsys, tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "_run_check", lambda *a: ran.append(a))
    p = tmp_path / "batch.json"
    p.write_text(json.dumps([{"check": "constant", "size": 2, "cutoff": 2},
                             {"check": check_id}]))
    code, out, err = run(capsys, "check", "--batch", str(p))
    assert code == 2
    assert out == ""
    assert f"unknown check {check_id!r}" in err
    assert ran == []


@pytest.mark.parametrize("entry", [
    {"check": "krannich", "files": ["poset2.cat.json"], "cutoff": 3, "seed": 4},
    {"check": "krannich", "files": ["poset2.cat.json"]},
    {"check": "products", "files": ["delta2.simp.json"], "cutoff": 3},
    {"check": "adj-units", "files": ["rp2.ss.json"], "cutoff": 3, "seed": 1},
    {"check": "constant", "cutoff": 2},
    {"check": "skeletal-shadow", "files": ["sphere2.ss.json"], "cutoff": 3},
], ids=["seed-on-a-plain-check", "no-cutoff", "wrong-file-count", "files-with-seed",
        "no-size", "no-degree"])
def test_batch_rejects_every_request_error_before_running_any(entry, capsys, tmp_path,
                                                              monkeypatch):
    ran = []
    real = cli.theorems.check_bar_acyclic

    def spy(*a):
        ran.append(a)
        return real(*a)

    monkeypatch.setattr(cli, "_CHECKS", tuple(
        row[:4] + (spy,) + row[5:] if row[0] == "bar-acyclic" else row for row in cli._CHECKS))
    p = tmp_path / "batch.json"
    first = {"check": "bar-acyclic", "files": [os.path.abspath(fixture("c2.mon.json"))],
             "cutoff": 2}
    entry = dict(entry, files=[os.path.abspath(fixture(f)) for f in entry.get("files", [])])
    p.write_text(json.dumps([first, entry]))
    code, out, err = run(capsys, "check", "--batch", str(p))
    assert code == 2
    assert out == ""
    assert ran == []
    assert f"{p}[1]: " in err


def test_jobs_below_one_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "--batch", fixture("checks.batch.json"), "--jobs", "0"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_pool_size_is_bounded():
    cpus = os.cpu_count() or 1
    assert cli._pool_size(10 ** 9, 10 ** 9) == cpus
    assert cli._pool_size(10 ** 9, 3) == min(3, cpus)
    assert cli._pool_size(1, 50) == 1
    assert cli._pool_size(8, 0) == 1


# -- tracing -----------------------------------------------------------------


def test_tracer_reaches_the_validators_of_the_document_table(capsys):
    """``perfbench/layertrace.py`` rebinds functions held in module-level
    tuples; the validators that the CLI reads from ``formats._DOCUMENTS`` must
    show up as spans."""
    spec = importlib.util.spec_from_file_location(
        "layertrace", os.path.join(FIXTURES, "..", "perfbench", "layertrace.py"))
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert cli.main(["validate", fixture("rp2.ss.json")]) == 0
        assert cli.main(["check", "fat-thin", fixture("freerp2.simp.json"), "--cutoff", "2"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = {span[0] for span in tracer.spans}
    assert {"sset.validate_sset", "sset.validate_simplicial"} <= names
