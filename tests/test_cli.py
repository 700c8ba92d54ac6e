"""CLI subcommands, exit codes, and report shape."""

import argparse
import ast
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from ramsey_lab import cli
from ramsey_lab.cli import (
    EXIT_GAP,
    EXIT_HYPOTHESIS,
    EXIT_OK,
    EXIT_UNKNOWN,
    EXIT_UNSAT,
    EXIT_USAGE,
    main,
)
from ramsey_lab.certificates import Certificate
from ramsey_lab.coloring import TwoColoring, all_edges
from ramsey_lab.core import cycle_template
from ramsey_lab.embedder import Embedding, count_copies, verify_embedding

import frozen_values as F
import oracles as O


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main(list(argv) + ["--out", str(out), "--dir", str(tmp_path)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def test_witness_roundtrip(tmp_path):
    code, rep = run(tmp_path, "witness", "--k", "3", "--n", "3", "--m", "3",
                    "--pair", "CC")
    assert code == EXIT_OK
    assert rep["results"]["claimed_bound"] == F.cc_value(3, 3, 3)
    assert rep["results"]["host_vertices"] == F.cc_value(3, 3, 3) - 1
    certs = rep["certificates"]
    assert certs and all(c["verified"] for c in certs)
    assert os.path.exists(certs[0]["path"])
    assert os.path.exists(rep["results"]["coloring"])


def test_witness_refuses_pc_below_three_blue_edges(tmp_path, capsys):
    # a blue cycle needs 3 edges: no certificate naming cycle:2 is written
    code, rep = run(tmp_path, "witness", "--k", "3", "--n", "3", "--m", "2",
                    "--pair", "PC")
    assert code == EXIT_USAGE and rep is None
    assert "usage error: invalid-parameter: cycle needs n >= 3 edges, got 2" in \
        capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("k,n,m,pair,refusal", [
    (3, 3, 2, "CC", "cycle needs n >= 3 edges, got 2"),
    (3, 0, 0, "PP", "path needs n >= 1 edges, got 0"),
    (3, 0, 3, "PC", "path needs n >= 1 edges, got 0"),
    (2, 3, 2, "PC", "k must be >= 3, got 2"),
    (3, 2, 3, "PP", "need n >= m >= 2 for PP, got n=2, m=3")])
def test_witness_refusals_come_before_any_file(tmp_path, capsys, k, n, m, pair, refusal):
    # the red and blue templates refuse a bad k or length, red first, then
    # lower_bound_witness a bad order of n and m
    code, rep = run(tmp_path, "witness", "--k", str(k), "--n", str(n), "--m", str(m),
                    "--pair", pair)
    assert code == EXIT_USAGE and rep is None
    assert capsys.readouterr().err == f"usage error: invalid-parameter: {refusal}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("k,n,m,pair", [
    (5, 5, 3, "CC"), (5, 5, 3, "PP"), (5, 5, 3, "PC"), (5, 6, 3, "CC"), (6, 4, 3, "CC"),
    (3, 4, 3, "PC"),
])
def test_witness_and_check_cert_count_instead_of_searching(tmp_path, monkeypatch,
                                                           k, n, m, pair):
    from ramsey_lab import embedder, prover

    def no_search(*args, **kwargs):
        raise AssertionError("find_embedding called on a split witness")

    monkeypatch.setattr(embedder, "find_embedding", no_search)
    monkeypatch.setattr(prover, "find_embedding", no_search)
    code, rep = run(tmp_path, "witness", "--k", str(k), "--n", str(n),
                    "--m", str(m), "--pair", pair)
    assert code == EXIT_OK
    [cert] = rep["certificates"]
    assert cert["verified"] is True
    code, rep = run(tmp_path, "check-cert", "--file", cert["path"])
    assert code == EXIT_OK and rep["results"]["ok"] is True
    check = rep["results"]["check"]
    assert check["split_a"] == (k - 1) * n - (pair == "CC")
    assert check["checked_by"] == {"red": "counting", "blue": "counting"}


def test_arrow_unsat_exit(tmp_path, monkeypatch):
    from ramsey_lab import embedder

    monkeypatch.setattr(embedder, "_COPY_CACHE", {})
    code, rep = run(tmp_path, "arrow", "--k", "3", "--n-vertices", "7",
                    "--red", "cycle:3", "--blue", "cycle:3")
    assert code == EXIT_UNSAT
    assert rep["results"]["status"] == "UNSAT"
    stats = rep["results"]["stats"]  # how the search went
    assert (stats["nodes"], stats["propagations"], stats["conflicts"],
            stats["max_depth"]) == (94, 0, 48, 8)
    assert stats["cached_tables"] == 1  # blue reuses red's cold table


def test_arrow_sat_writes_witness_cert(tmp_path):
    code, rep = run(tmp_path, "arrow", "--k", "3", "--n-vertices", "6",
                    "--red", "cycle:3", "--blue", "cycle:3")
    assert code == EXIT_OK
    assert rep["results"]["status"] == "SAT"
    assert rep["certificates"] and rep["certificates"][0]["verified"]


def test_arrow_unknown_on_budget(tmp_path):
    code, rep = run(tmp_path, "arrow", "--k", "3", "--n-vertices", "8",
                    "--red", "path:3", "--blue", "path:3", "--max-nodes", "2")
    assert code == EXIT_UNKNOWN
    assert rep["results"]["status"] == "UNKNOWN"


def test_ramsey_value(tmp_path):
    code, rep = run(tmp_path, "ramsey", "--k", "3", "--red", "cycle:3",
                    "--blue", "cycle:3")
    assert code == EXIT_OK
    assert rep["results"]["value"] == 7
    # the counts of the SAT level N = 6 and the UNSAT level N = 7 summed,
    # and the deeper of the two searches
    assert rep["results"]["stats"] == {"nodes": 99, "propagations": 15,
                                       "conflicts": 48, "max_depth": 8}


def test_count_golden(tmp_path):
    code, rep = run(tmp_path, "count", "--k", "3", "--n-vertices", "6",
                    "--target", "cycle:3")
    assert code == EXIT_OK
    assert rep["results"]["copies"] == F.COPY_COUNTS[("cycle", 3, 3, 6)]


def test_table(tmp_path):
    code, rep = run(tmp_path, "table", "--k", "3", "--base", "3,3=7",
                    "--base", "4,3=9")
    assert code == EXIT_OK
    assert len(rep["results"]["claims"]) >= 4


def test_table_extend_to(tmp_path):
    # k = 4 bases R(C_n, C_3) for n = 3..6 extend to n = 7, 8: C_n vs C_3,
    # P_n vs C_3 and P_n vs P_2 each
    bases = [arg for n in range(3, 7) for arg in ("--base", f"{n},3={3 * n + 1}")]
    code, rep = run(tmp_path, "table", "--k", "4", *bases, "--extend-to", "8")
    assert code == EXIT_OK
    extended = [(cl["red"]["kind"], cl["red"]["length"], cl["blue"]["kind"],
                 cl["blue"]["length"], cl["value"]) for cl in rep["results"]["claims"]
                if cl["provenance"] == "theorem-extended"]
    assert extended == [("cycle", 7, "cycle", 3, 22), ("path", 7, "cycle", 3, 23),
                        ("path", 7, "path", 2, 22), ("cycle", 8, "cycle", 3, 25),
                        ("path", 8, "cycle", 3, 26), ("path", 8, "path", 2, 25)]


def test_table_refuses_bases_outside_the_theorem(tmp_path, capsys):
    # the formula gives 10 for n = 3 < m = 4, but R(C^4_3, C^4_4) is 13:
    # the theorem needs n >= m
    code, rep = run(tmp_path, "table", "--k", "4", "--base", "3,4=10")
    assert code == EXIT_USAGE and rep is None
    assert "usage error: invalid-parameter: base" in capsys.readouterr().err


def test_check_cert_on_a_non_split_witness_builds_no_swap_table(tmp_path, monkeypatch):
    # the complement of a split C^3_3 witness has no monochromatic C^3_3
    # either, but it is not split, so both colours are searched
    from ramsey_lab import coloring
    from ramsey_lab.certificates import make_certificate

    def no_table(*args):
        raise AssertionError("swap_pairs called by check-cert")

    monkeypatch.setattr(coloring, "swap_pairs", no_table)
    N, c = coloring.lower_bound_witness(3, 3, 3, "CC")
    cycle3 = {"kind": "cycle", "length": 3}
    path = tmp_path / "complement.cert.json"
    make_certificate("witness-coloring", TwoColoring(3, N, 1 - c.bits),
                     {"red_target": cycle3, "blue_target": cycle3, "n_vertices": N},
                     lemma="complement").save(path)
    code, rep = run(tmp_path, "check-cert", "--file", str(path))
    assert code == EXIT_OK and rep["results"]["ok"] is True
    check = rep["results"]["check"]
    assert "split_a" not in check
    assert check["checked_by"] == {"red": "search", "blue": "search"}


def test_export_cnf(tmp_path):
    code, rep = run(tmp_path, "export-cnf", "--k", "3", "--n-vertices", "6",
                    "--red", "cycle:3", "--blue", "cycle:3", "--stem", "inst")
    assert code == EXIT_OK
    assert os.path.exists(rep["results"]["cnf"])
    assert os.path.exists(rep["results"]["varmap"])
    assert rep["results"]["clauses"] == 240


def test_report_command_replays_the_run(tmp_path):
    # an argument that equals the subcommand's name is kept
    argv = ["export-cnf", "--k", "3", "--n-vertices", "6", "--red", "cycle:3",
            "--blue", "cycle:3", "--stem", "export-cnf",
            "--out", str(tmp_path / "report.json"), "--dir", str(tmp_path)]
    assert main(argv) == EXIT_OK
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["command"] == argv
    assert rep["results"]["cnf"] == str(tmp_path / "export-cnf.cnf")


def test_export_cnf_target_larger_than_host(tmp_path):
    # P^4_2 has 7 vertices, K^4_6 has 6: the red target adds no clause,
    # and the exported CNF gets the verdict arrow gives
    inst = ["--k", "4", "--n-vertices", "6", "--red", "path:2", "--blue", "path:1"]
    code, rep = run(tmp_path, "export-cnf", *inst)
    assert code == EXIT_OK
    assert rep["results"]["clauses"] == 15
    with open(rep["results"]["cnf"]) as fh:
        n_vars, clauses = O.parse_dimacs(fh.read())
    status = O.counting_dpll(n_vars, clauses)[0]
    code, rep = run(tmp_path, "arrow", *inst)
    assert code == EXIT_OK
    assert status == rep["results"]["status"] == "SAT"


def test_check_cert_rejects_empty_file(tmp_path):
    # what a crash right after a save can leave behind is never accepted
    empty = tmp_path / "empty.cert.json"
    empty.write_text("")
    code, rep = run(tmp_path, "check-cert", "--file", str(empty))
    assert code == EXIT_USAGE


def _text_mode_load(cls, path):
    """How the loaders read a file when they read it in text mode."""
    with open(path) as fh:
        return cls.from_json_obj(json.load(fh))


def _outcome(load, cls, path):
    try:
        doc = load(cls, path)
    except (ValueError, OSError) as exc:
        return type(exc), str(exc)
    return "ok", doc.to_json_obj()


def test_loaders_accept_and_refuse_what_a_text_mode_read_does(tmp_path):
    # the loaders read bytes and decode them as strict UTF-8; every file
    # gives the same document, or the same exception with the same
    # message, as a text-mode read, and check-cert exits 2 on each refusal
    join, _ = _join_certificate_obj()
    join["meta"]["lemma"] = "join \u00e9"
    coloring = TwoColoring.all_red(3, 6).with_edges([(1, 2, 3)], red=False)
    docs = {Certificate: join,
            TwoColoring: dict(coloring.to_json_obj(), note="\u00e9")}
    for cls, obj in docs.items():
        line = json.dumps(obj).encode() + b"\n"
        indented = json.dumps(obj, indent=2).encode()
        raw = json.dumps(obj, ensure_ascii=False).encode()
        files = {
            "line": line, "indented": indented, "raw-utf8": raw,
            "crlf": indented.replace(b"\n", b"\r\n"),
            "lone-cr": indented.replace(b"\n", b"\r"),
            "cr-in-string": line.replace(b'"k"', b'"k\r"', 1),
            "empty": b"", "blank": b" \r\n",
            "bom": b"\xef\xbb\xbf" + line,
            "invalid-utf8": b"\xff" + line,
            "latin-1": json.dumps(obj, ensure_ascii=False).encode("latin-1", "replace"),
            "truncated-utf8": raw[:raw.index(b"\xc3") + 1],
            "trailing-garbage": line + b"x",
            "two-documents": line + line,
            "truncated": line[:len(line) // 2],
            "not-an-object": b"[]",
        }
        expect_ok = {"line", "indented", "raw-utf8", "crlf", "lone-cr"}
        for name, data in files.items():
            path = tmp_path / f"{name}.json"
            path.write_bytes(data)
            old = _outcome(_text_mode_load, cls, path)
            assert _outcome(lambda c, p: c.load(p), cls, path) == old, (cls, name)
            assert (old[0] == "ok") == (name in expect_ok), (cls, name, old)
            if cls is Certificate:
                code, _ = run(tmp_path, "check-cert", "--file", str(path))
                assert code == (EXIT_OK if old[0] == "ok" else EXIT_USAGE), name
        for path in (tmp_path, tmp_path / "missing.json"):
            assert _outcome(lambda c, p: c.load(p), cls, path) == \
                _outcome(_text_mode_load, cls, path)


def test_check_cert_accepts_and_rejects(tmp_path):
    code, rep = run(tmp_path, "witness", "--k", "3", "--n", "3", "--m", "3",
                    "--pair", "CC")
    cert_path = rep["certificates"][0]["path"]
    code, rep = run(tmp_path, "check-cert", "--file", cert_path)
    assert code == EXIT_OK
    with open(cert_path) as fh:
        obj = json.load(fh)
    obj["payload"]["n_vertices"] = 99
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(obj))
    code, rep = run(tmp_path, "check-cert", "--file", str(bad))
    assert code == EXIT_HYPOTHESIS
    assert rep["results"]["ok"] is False


def _join_certificate_obj():
    """A join trace's certificate on the all-red K^4_18, as a dict."""
    from ramsey_lab.constructive import join_red_cycles, to_certificate
    from ramsey_lab.embedder import Embedding

    c = TwoColoring.all_red(4, 18)
    t = cycle_template(4, 3)
    tr = join_red_cycles(c, Embedding(t, tuple(range(1, 10)), "red"),
                         Embedding(t, tuple(range(10, 19)), "red"), 3)
    return to_certificate(c, tr, lemma="join").to_json_obj(), tr


def test_check_cert_refuses_colourless_claims(tmp_path, capsys):
    # a claim with no colour says nothing about the coloring: a loose
    # C^3_3 on 1..6 where one edge is red, and a join result whose cycle
    # has one blue edge, must not verify as "any"; each is a malformed
    # certificate, like one with a missing field
    one_red = TwoColoring.all_blue(3, 7).with_edges([(1, 2, 3)], red=True)
    emb = {"kind": "cycle", "k": 3, "length": 3,
           "assignment": [1, 2, 3, 4, 5, 6], "claimed_color": "any"}
    colourless = {"type": "embedding", "coloring": one_red.to_json_obj(),
                  "payload": {"embedding": emb}}
    join, tr = _join_certificate_obj()
    blue_edge = tr.outcome.edge_images()[1]
    assert blue_edge not in [tuple(s["edge"]) for s in join["payload"]["steps"]]
    join["coloring"] = TwoColoring.all_red(4, 18).with_edges(
        [blue_edge], red=False).to_json_obj()
    join["payload"]["result"]["claimed_color"] = "any"
    join["payload"]["outcome_kind"] = "any-cycle"
    uncoloured = json.loads(json.dumps(colourless))
    del uncoloured["payload"]["embedding"]["claimed_color"]
    for name, obj in [("any", colourless), ("none", uncoloured),
                      ("join", join)]:
        path = tmp_path / f"{name}.cert.json"
        path.write_text(json.dumps(obj))
        code, _ = run(tmp_path, "check-cert", "--file", str(path))
        assert code == EXIT_USAGE, name
        assert "malformed-certificate:" in capsys.readouterr().err, name


def test_check_cert_refuses_edges_outside_the_host(tmp_path, capsys):
    # a claimed edge must be a k-set of the host's labels: a join step
    # outside K^4_18 or of three vertices, and a pair's red edge outside
    # K^3_7, with a repeated vertex or with label 0, are malformed, not
    # usage errors from the coloring's edge lookup; so is an embedding,
    # or a join result, with a label outside the host or a template of
    # another uniformity
    join, _ = _join_certificate_obj()
    emb = {"type": "embedding",
           "coloring": TwoColoring.all_red(3, 7).to_json_obj(),
           "payload": {"embedding": {"kind": "path", "k": 3, "length": 2,
                                     "assignment": [1, 2, 3, 4, 5],
                                     "claimed_color": "red"}}}
    pair = {"type": "pair-set",
            "coloring": TwoColoring.all_red(3, 7).with_edges(
                [(1, 2, 4)], red=False).to_json_obj(),
            "payload": {"pairs": [{"red_edge": [1, 2, 3], "blue_edge": [1, 2, 4]}],
                        "disjoint": False}}
    cases = []
    for edge in ([1, 2, 3, 99], [1, 2, 3]):
        obj = json.loads(json.dumps(join))
        obj["payload"]["steps"][0]["edge"] = edge
        cases.append((f"join-{edge}", obj))
    for edge in ([1, 2, 99], [1, 1, 2], [0, 1, 2]):
        obj = json.loads(json.dumps(pair))
        obj["payload"]["pairs"][0]["red_edge"] = edge
        cases.append((f"pair-{edge}", obj))
    for name, claim in (("embedding-99", {"assignment": [1, 2, 3, 4, 99]}),
                        ("embedding-k4", {"k": 4, "length": 1,
                                          "assignment": [1, 2, 3, 4]})):
        obj = json.loads(json.dumps(emb))
        obj["payload"]["embedding"].update(claim)
        cases.append((name, obj))
    obj = json.loads(json.dumps(join))
    obj["payload"]["result"]["assignment"][0] = 99
    cases.append(("join-result-99", obj))
    path = tmp_path / "good.cert.json"
    for good in (pair, emb):
        path.write_text(json.dumps(good))
        assert run(tmp_path, "check-cert", "--file", str(path))[0] == EXIT_OK
    for name, obj in cases:
        path.write_text(json.dumps(obj))
        code, _ = run(tmp_path, "check-cert", "--file", str(path))
        assert code == EXIT_USAGE, name
        assert "malformed-certificate:" in capsys.readouterr().err, name


def test_check_cert_rejects_a_false_step_colour(tmp_path):
    # a well-formed join trace that claims a red step is blue is a false
    # claim, exit 3, not a malformed one
    obj, _ = _join_certificate_obj()
    obj["payload"]["steps"][1]["color"] = "blue"
    path = tmp_path / "false.cert.json"
    path.write_text(json.dumps(obj))
    code, rep = run(tmp_path, "check-cert", "--file", str(path))
    assert code == EXIT_HYPOTHESIS
    assert rep["results"]["check"]["reasons"] == ["edge-color-mismatch"]
    assert rep["results"]["check"]["bad_steps"] == [1]


def test_check_cert_accepts_join_steps_with_role_and_chosen(tmp_path):
    # join traces once listed each step's role and whether it was banked;
    # certificates written that way still load and verify
    obj, _ = _join_certificate_obj()
    for i, step in enumerate(obj["payload"]["steps"]):
        step.update(role=f"{'gh'[i % 2]}_{i // 2 + 1}", chosen=False)
    path = tmp_path / "legacy.cert.json"
    path.write_text(json.dumps(obj))
    code, rep = run(tmp_path, "check-cert", "--file", str(path))
    assert code == EXIT_OK and rep["results"]["ok"] is True


def test_extract_adjacent_pair(tmp_path):
    cpath = tmp_path / "c.json"
    TwoColoring.all_red(3, 6).with_edges([(1, 2, 3)], red=False).save(cpath)
    code, rep = run(tmp_path, "extract", "--lemma", "adjacent-pair",
                    "--coloring", str(cpath))
    assert code == EXIT_OK
    assert rep["certificates"][0]["verified"]


def test_extract_join(tmp_path):
    cpath = tmp_path / "c.json"
    TwoColoring.all_red(4, 18).save(cpath)
    code, rep = run(tmp_path, "extract", "--lemma", "join",
                    "--coloring", str(cpath),
                    "--cycle1", "1,2,3,4,5,6,7,8,9",
                    "--cycle2", "10,11,12,13,14,15,16,17,18", "--ell", "3")
    assert code == EXIT_OK
    assert rep["results"]["outcome_kind"] == "red-cycle"


def test_extract_good_configuration(tmp_path):
    # red 4-path 1..9 on an otherwise blue K^3_12: the path is maximal
    cpath = tmp_path / "c.json"
    path = [(1, 2, 3), (3, 4, 5), (5, 6, 7), (7, 8, 9)]
    TwoColoring.all_blue(3, 12).with_edges(path, red=True).save(cpath)
    code, rep = run(tmp_path, "extract", "--lemma", "good-configuration",
                    "--coloring", str(cpath), "--path", "1,2,3,4,5,6,7,8,9",
                    "--W", "10,11,12", "--anchor", "2", "--entry", "3")
    assert code == EXIT_OK
    assert rep["certificates"][0]["verified"]
    with open(rep["certificates"][0]["path"]) as fh:
        cert = json.load(fh)
    assert cert["payload"]["configuration"] == rep["results"]["configuration"]


def test_extract_absorb(tmp_path):
    cpath = tmp_path / "c.json"
    TwoColoring.all_blue(3, 8).with_edges(
        [(1, 2, 3), (3, 4, 5)], red=True).save(cpath)
    code, rep = run(tmp_path, "extract", "--lemma", "absorb",
                    "--coloring", str(cpath), "--path", "1,2,3,4,5",
                    "--W", "6,7,8")
    assert code == EXIT_OK
    assert rep["certificates"][0]["verified"]
    assert rep["results"]["r"] == 0 and len(rep["results"]["W_used"]) == 2
    with open(rep["certificates"][0]["path"]) as fh:
        cert = json.load(fh)
    # the certificate claims only what check-cert replays: the blue path
    assert list(cert["payload"]) == ["embedding"]
    assert cert["payload"]["embedding"] == rep["results"]["Q"]


def test_extract_blue_cycle(tmp_path):
    # a red C^3_4 on 1..8 of K^3_11 whose every edge meeting 9..11 is blue:
    # the bridge formulas give a blue C^3_3
    cpath = tmp_path / "c.json"
    c = TwoColoring.all_red(3, 11).with_edges(
        [e for e in all_edges(11, 3) if max(e) > 8], red=False)
    c.save(cpath)
    code, rep = run(tmp_path, "extract", "--lemma", "blue-cycle",
                    "--coloring", str(cpath), "--cycle", "1,2,3,4,5,6,7,8",
                    "--n", "5", "--m", "3")
    assert code == EXIT_OK
    assert rep["results"]["meta"] == {"case": 2}
    emb = Embedding.from_json_obj(rep["results"]["embedding"])
    assert (emb.template.kind, emb.template.n, emb.claimed_color) == \
        ("cycle", 3, "blue")
    assert verify_embedding(c, emb)
    assert rep["certificates"][0]["verified"]


def test_extract_lift(tmp_path):
    # a blue C^4_4 on 1..12 of an otherwise red K^4_16 lifts to a red C^4_5
    cpath = tmp_path / "c.json"
    c4 = [(1, 2, 3, 4), (4, 5, 6, 7), (7, 8, 9, 10), (10, 11, 12, 1)]
    c = TwoColoring.all_red(4, 16).with_edges(c4, red=False)
    c.save(cpath)
    code, rep = run(tmp_path, "extract", "--lemma", "lift", "--coloring",
                    str(cpath), "--cycle4", ",".join(map(str, range(1, 13))),
                    "--i", "5")
    assert code == EXIT_OK
    emb = Embedding.from_json_obj(rep["results"]["embedding"])
    assert (emb.template.n, emb.claimed_color) == (5, "red")
    assert verify_embedding(c, emb)
    assert rep["certificates"][0]["verified"]


def test_hypothesis_violation_reports_its_witness(tmp_path, capsys):
    # a lift whose listed edge is blue reports that edge, and a red C^3_5
    # beside the given red C^3_4 is reported as an embedding (the case-1
    # search finds no blue C^3_3, and the red C^3_5 explains it); both
    # exit 3 and write no proof-gap instance
    lift = TwoColoring.all_blue(4, 16)
    red = TwoColoring.all_red(3, 11)
    for c, argv in [
            (lift, ["--lemma", "lift", "--i", "5",
                    "--cycle4", ",".join(map(str, range(1, 13)))]),
            (red, ["--lemma", "blue-cycle", "--cycle", "1,2,3,4,5,6,7,8",
                   "--n", "5", "--m", "3"])]:
        cpath = tmp_path / "c.json"
        c.save(cpath)
        code, rep = run(tmp_path, "extract", "--coloring", str(cpath), *argv)
        assert code == EXIT_HYPOTHESIS
        assert "hypothesis-violation: " in capsys.readouterr().err
        res = rep["results"]
        assert res["error"] == "hypothesis-violation"
        if c is lift:
            assert res["detail"] == "a listed edge of the lift is blue"
            edge = tuple(res["witness"])
            assert len(edge) == 4 and c.color_of(edge) == "blue"
        else:
            assert res["detail"] == "a red cycle of full length is present"
            emb = Embedding.from_json_obj(res["witness"])
            assert (emb.template.n, emb.claimed_color) == (5, "red")
            assert verify_embedding(c, emb)
        assert not (tmp_path / "extract.proofgap.json").exists()


def test_extract_disjoint_pairs(tmp_path):
    # red inside {1..6} and inside {7..11}: the case analysis yields one
    # pair on each side, though the host holds a blue 3-cycle across the
    # split; the report and the certificate claim nothing about budgets
    k, t = 3, 5
    N = t * (k - 1) + 1
    reds = [e for e in all_edges(N, k) if max(e) <= 6 or min(e) >= 7]
    cpath = tmp_path / "c.json"
    TwoColoring.all_blue(k, N).with_edges(reds, red=True).save(cpath)
    code, rep = run(tmp_path, "extract", "--lemma", "disjoint-pairs",
                    "--coloring", str(cpath), "--t", str(t))
    assert code == EXIT_OK
    assert rep["results"] == {"pairs": [
        {"red_edge": [1, 2, 3], "blue_edge": [1, 2, 7]},
        {"red_edge": [4, 5, 6], "blue_edge": [4, 5, 8]}]}
    assert rep["certificates"][0]["verified"]
    with open(rep["certificates"][0]["path"]) as fh:
        assert json.load(fh)["meta"] == {"lemma": "disjoint-pairs", "seed": 0}


def test_extract_has_no_node_budget(tmp_path, capsys):
    cpath = tmp_path / "c.json"
    TwoColoring.all_red(3, 11).save(cpath)
    assert main(["extract", "--lemma", "disjoint-pairs", "--coloring", str(cpath),
                 "--t", "5", "--max-nodes", "1", "--dir", str(tmp_path)]) == EXIT_USAGE
    assert "unrecognized arguments: --max-nodes 1" in capsys.readouterr().err


def test_every_extract_option_is_read_by_a_lemma():
    p = argparse.ArgumentParser()
    cli._extract_args(p)
    options = {opt[2:] for action in p._actions for opt in action.option_strings
               if opt.startswith("--")}
    read = {opt for needs in cli._LEMMA_OPTIONS.values() for opt in needs}
    assert options - {"help", "lemma", "coloring"} == read


def test_extract_hypothesis_violation_exit(tmp_path):
    cpath = tmp_path / "c.json"
    TwoColoring.all_blue(3, 7).with_edges(
        [(1, 2, 3), (3, 4, 5)], red=True).save(cpath)
    code, rep = run(tmp_path, "extract", "--lemma", "absorb",
                    "--coloring", str(cpath), "--path", "1,2,3,4,5",
                    "--W", "6,7")
    assert code == EXIT_HYPOTHESIS
    assert rep["results"]["error"] == "hypothesis-violation"


def test_proof_gap_dumps_instance(tmp_path, monkeypatch):
    import ramsey_lab.cli as cli
    from ramsey_lab.errors import ProofGap

    c = TwoColoring.all_red(3, 6).with_edges([(1, 2, 3)], red=False)
    instance = {"coloring": c.to_json_obj(), "t": 2}

    def gap(*args, **kwargs):
        raise ProofGap("no pair", instance=instance)

    monkeypatch.setattr(cli, "adjacent_bichromatic_pair", gap)
    cpath = tmp_path / "c.json"
    c.save(cpath)
    code, rep = run(tmp_path, "extract", "--lemma", "adjacent-pair",
                    "--coloring", str(cpath))
    assert code == EXIT_GAP
    assert rep["results"]["error"] == "proof-gap"
    path = rep["results"]["instance"]
    assert path == str(tmp_path / "extract.proofgap.json")
    with open(path) as fh:
        assert json.load(fh) == instance


def test_refused_certificate_dumps_it_as_a_proof_gap(tmp_path, monkeypatch):
    # a certificate the checker refuses on emission is a gap in the
    # producer: the run stops with exit 4 and dumps it for inspection
    check = {"type": "witness-coloring", "reasons": ["forced"]}
    monkeypatch.setattr(cli, "verify_certificate", lambda cert: (False, check))
    code, rep = run(tmp_path, "witness", "--k", "3", "--n", "3", "--m", "3",
                    "--pair", "CC")
    assert code == EXIT_GAP
    assert rep["results"]["error"] == "proof-gap"
    assert rep["certificates"][0]["verified"] is False
    with open(rep["certificates"][0]["path"]) as fh:
        cert = json.load(fh)
    with open(tmp_path / "witness.proofgap.json") as fh:
        assert json.load(fh) == {"certificate": cert, "check": check}
    assert rep["results"]["instance"] == str(tmp_path / "witness.proofgap.json")


def test_usage_errors(tmp_path, capsys):
    assert main(["arrow", "--k", "3"]) == EXIT_USAGE  # missing required flags
    assert main(["nonsense"]) == EXIT_USAGE
    cpath = tmp_path / "c.json"
    TwoColoring.all_red(3, 6).save(cpath)
    code = main(["extract", "--lemma", "lift", "--coloring", str(cpath),
                 "--cycle4", "1,2,3,4,5,6,7,8", "--i", "9",
                 "--dir", str(tmp_path)])
    assert code == EXIT_USAGE
    # a lemma's missing options are named before the coloring is read
    absent = str(tmp_path / "absent.json")
    for lemma, given, needs in [
            ("good-configuration", ["--W", "8,9"],
             "--path, --W, --anchor, --entry"),
            ("absorb", ["--path", "1,2,3"], "--path, --W"),
            ("blue-cycle", ["--n", "4"], "--cycle, --n, --m"),
            ("join", ["--cycle1", "1,2,3,4,5,6"], "--cycle1, --cycle2, --ell"),
            ("disjoint-pairs", [], "--t"),
            ("lift", ["--i", "5"], "--cycle4, --i")]:
        capsys.readouterr()
        code = main(["extract", "--lemma", lemma, "--coloring", absent,
                     "--dir", str(tmp_path)] + given)
        assert code == EXIT_USAGE, lemma
        assert f"invalid-parameter: --lemma {lemma} needs {needs}\n" in \
            capsys.readouterr().err
    # a host whose edges pass the int32 variable range is refused, not
    # allocated
    code = main(["witness", "--k", "10", "--n", "30", "--m", "30", "--pair", "CC",
                 "--dir", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "host-too-large" in capsys.readouterr().err
    # a copy table, or a host, past the int32 ids of the search is refused
    # before anything is enumerated or allocated; export-cnf checks the host
    # before it lists the 4.5e9 edges of K^3_3000
    for argv, refusal in [
            (["arrow", "--k", "3", "--n-vertices", "40",
              "--red", "cycle:5", "--blue", "cycle:3"], "copy-table-too-large"),
            (["arrow", "--k", "3", "--n-vertices", "3000",
              "--red", "cycle:2000", "--blue", "cycle:2000"], "host-too-large"),
            (["export-cnf", "--k", "3", "--n-vertices", "3000",
              "--red", "cycle:2000", "--blue", "cycle:2000"], "host-too-large")]:
        assert main(argv + ["--dir", str(tmp_path)]) == EXIT_USAGE, argv
        assert f"usage error: {refusal}: " in capsys.readouterr().err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["c.json"]


def test_extract_on_a_k1_coloring_is_a_usage_error(tmp_path, capsys):
    # the template refuses k = 1 before the vertex count is divided by k-1
    cpath = tmp_path / "c.json"
    TwoColoring.all_red(1, 4).save(cpath)
    assert main(["extract", "--lemma", "lift", "--coloring", str(cpath),
                 "--cycle4", "1,2,3,4", "--i", "5",
                 "--dir", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err == \
        "usage error: invalid-parameter: k must be >= 3, got 1\n"


@pytest.mark.parametrize("subcommand", ["arrow", "count", "export-cnf"])
def test_negative_host_is_refused_by_count_copies(tmp_path, capsys, subcommand):
    targets = (["--target", "path:2"] if subcommand == "count"
               else ["--red", "path:2", "--blue", "path:2"])
    assert main([subcommand, "--k", "3", "--n-vertices", "-1", *targets,
                 "--dir", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err == "usage error: invalid-parameter: N=-1, k=3\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["arrow", "--k", "3", "--n-vertices", "6", "--red", "star:3", "--blue", "cycle:3"],
    ["ramsey", "--k", "3", "--red", "cycle:3", "--blue", "star:3"],
    ["count", "--k", "3", "--n-vertices", "6", "--target", "star:3"],
    ["export-cnf", "--k", "3", "--n-vertices", "6", "--red", "star:3",
     "--blue", "cycle:3"]], ids=lambda argv: argv[0])
def test_target_kind_is_refused_by_the_template(tmp_path, capsys, argv):
    assert main(argv + ["--dir", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err == "usage error: invalid-parameter: kind " \
        "must be 'path' or 'cycle', got 'star'\n"
    assert list(tmp_path.iterdir()) == []


def test_nan_max_secs_is_a_usage_error(tmp_path, capsys):
    # the node budget makes a missed refusal fail fast instead of searching
    assert main(["arrow", "--k", "3", "--n-vertices", "9", "--red", "cycle:4",
                 "--blue", "cycle:4", "--max-secs", "nan", "--max-nodes", "100",
                 "--dir", str(tmp_path)]) == EXIT_USAGE
    assert "usage error: invalid-parameter: max_secs is NaN" in \
        capsys.readouterr().err


def test_unwritable_report_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    assert main(["count", "--k", "3", "--n-vertices", "6", "--target", "cycle:3",
                 "--out", str(out), "--dir", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: ")
    assert list(tmp_path.iterdir()) == []


def test_unwritable_proof_gap_dump_is_a_usage_error(tmp_path, capsys, monkeypatch):
    from ramsey_lab.errors import ProofGap

    def gap(*args, **kwargs):
        raise ProofGap("no pair", instance={})

    monkeypatch.setattr(cli, "adjacent_bichromatic_pair", gap)
    cpath = tmp_path / "c.json"
    TwoColoring.all_red(3, 6).with_edges([(1, 2, 3)], red=False).save(cpath)
    out = tmp_path / "report.json"
    assert main(["extract", "--lemma", "adjacent-pair", "--coloring", str(cpath),
                 "--out", str(out), "--dir", str(cpath / "sub")]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not out.exists()


def test_arrow_refuses_copy_table_past_memory(tmp_path, capsys, monkeypatch):
    from ramsey_lab import embedder

    monkeypatch.setattr(embedder, "_COPY_CACHE", {})
    monkeypatch.setattr(embedder, "_memory_bytes", lambda: 100_000_000)
    # the budget makes a missed refusal fail fast instead of searching
    code = main(["arrow", "--k", "3", "--n-vertices", "11", "--red", "cycle:5",
                 "--blue", "cycle:3", "--max-secs", "5", "--dir", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "usage error: copy-table-too-large: cycle:5 (k=3) has 3991680 copies " \
        "in K^3_11" in capsys.readouterr().err
    assert embedder._COPY_CACHE == {}


def test_arrow_symmetry_at_host_size_k(tmp_path):
    code, rep = run(tmp_path, "arrow", "--k", "3", "--n-vertices", "3",
                    "--red", "path:1", "--blue", "path:1", "--symmetry")
    assert code == EXIT_UNSAT
    assert rep["results"]["status"] == "UNSAT"


@pytest.mark.parametrize("obj", [
    {"n_vertices": 6, "bits": "00"},
    {"k": 3, "n_vertices": 6, "bits": 123},
    {"k": 3, "n_vertices": 6, "red_edges": 5},
    {"k": 3, "n_vertices": 6, "red_edges": [5]},
    {"k": 3, "n_vertices": 6, "red_edges": [[1, 2, 99]]},
    7,
    {"k": 3, "n_vertices": 200000, "red_edges": []},
    {"k": 3, "n_vertices": 6, "red_bit": 0, "bits": "000000"},
    {"k": 3, "n_vertices": 6, "bits": "00"},
])
def test_malformed_coloring_file_is_usage_error(tmp_path, obj):
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(obj))
    code = main(["extract", "--lemma", "adjacent-pair", "--coloring",
                 str(cpath), "--dir", str(tmp_path)])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("obj", [
    7,
    [1, 2],
    {"type": "embedding", "payload": {}},
    {"type": "embedding", "payload": [5],
     "coloring": TwoColoring.all_red(3, 6).to_json_obj()},
    {"type": "join-trace", "payload": {"steps": [{"edge": [None], "color": "red"}]},
     "coloring": TwoColoring.all_red(3, 6).to_json_obj()},
    {"type": "embedding",
     "payload": {"embedding": {"kind": "path", "k": 3, "length": 1,
                               "assignment": [1, 2, 3]}},
     "coloring": {"k": 3, "n_vertices": 200000, "red_edges": []}},
    {"type": "join-trace", "payload": {"steps": [], "outcome_kind": "red-cycle"},
     "coloring": TwoColoring.all_red(4, 18).to_json_obj()},
    {"type": "proof", "payload": {}, "coloring": TwoColoring.all_red(3, 6).to_json_obj()},
])
def test_malformed_certificate_file_is_usage_error(tmp_path, obj):
    cpath = tmp_path / "c.cert.json"
    cpath.write_text(json.dumps(obj))
    assert main(["check-cert", "--file", str(cpath),
                 "--dir", str(tmp_path)]) == EXIT_USAGE


def test_internal_error_is_not_usage_error(tmp_path, monkeypatch):
    import ramsey_lab.cli as cli

    def broken(*args, **kwargs):
        raise TypeError("kernel bug")

    monkeypatch.setattr(cli, "decide_arrowing", broken)
    with pytest.raises(TypeError, match="kernel bug"):
        main(["arrow", "--k", "3", "--n-vertices", "6", "--red", "cycle:3",
              "--blue", "cycle:3", "--dir", str(tmp_path)])


def test_report_deterministic_modulo_timings(tmp_path):
    out = tmp_path / "rep.json"

    def one():
        main(["count", "--k", "3", "--n-vertices", "6", "--target", "cycle:3",
              "--seed", "5", "--out", str(out), "--dir", str(tmp_path)])
        rep = json.loads(out.read_text())
        rep.pop("timings")
        return rep

    assert one() == one()


def test_out_writes_through_symlink_and_fifo(tmp_path):
    argv = ["count", "--k", "3", "--n-vertices", "6", "--target", "cycle:3",
            "--dir", str(tmp_path)]
    target = tmp_path / "target.json"
    target.write_text("old\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert main(argv + ["--out", str(link)]) == EXIT_OK
    assert link.is_symlink() and json.loads(target.read_text())["results"]
    # a FIFO (like /dev/stdout) gets the report and stays a FIFO
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()),
                              daemon=True)
    reader.start()
    assert main(argv + ["--out", str(fifo)]) == EXIT_OK
    reader.join(timeout=10)
    assert json.loads(got[0])["results"] and stat.S_ISFIFO(fifo.lstat().st_mode)
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "fifo", "link.json", "target.json"]


def test_certify_s_sums_certificate_round_trips(tmp_path):
    code, rep = run(tmp_path, "arrow", "--k", "3", "--n-vertices", "6",
                    "--red", "cycle:3", "--blue", "cycle:3")
    assert code == EXIT_OK and len(rep["certificates"]) == 1
    timings = rep["timings"]
    assert 0 < timings["certify_s"] <= timings["total_secs"]
    code, rep = run(tmp_path, "count", "--k", "3", "--n-vertices", "6",
                    "--target", "cycle:3")
    assert rep["timings"]["certify_s"] == 0


def test_phase_timings_sum_within_total(tmp_path):
    code, rep = run(tmp_path, "arrow", "--k", "3", "--n-vertices", "6",
                    "--red", "cycle:3", "--blue", "cycle:3", "--symmetry")
    assert code == EXIT_OK
    stats = rep["results"]["stats"]
    assert stats["enumerate_s"] >= 0 and stats["build_s"] >= 0
    assert stats["verify_s"] > 0  # the SAT witness was re-checked
    assert stats["n_vars"] == math.comb(6, 3)
    assert stats["n_clauses"] == 2 * count_copies(6, 3, cycle_template(3, 3))
    timings = rep["timings"]
    phases = ("enumerate_s", "build_s", "search_s", "verify_s", "certify_s")
    assert all(timings[key] >= 0 for key in phases)
    assert sum(timings[key] for key in phases) <= timings["total_secs"]
    code, rep = run(tmp_path, "witness", "--k", "3", "--pair", "CC",
                    "--n", "3", "--m", "3")
    assert code == EXIT_OK
    timings = rep["timings"]
    assert timings["witness_s"] >= 0 and timings["certify_s"] >= 0
    assert timings["witness_s"] + timings["certify_s"] <= timings["total_secs"]


def test_total_secs_ignores_wall_clock_steps(tmp_path, monkeypatch):
    # the wall clock steps back an hour at every reading; the report's
    # total must come from a clock that cannot
    import time

    readings = []

    def stepping_back():
        readings.append(None)
        return 2e9 - 3600.0 * len(readings)

    monkeypatch.setattr(time, "time", stepping_back)
    code, rep = run(tmp_path, "count", "--k", "3", "--n-vertices", "6",
                    "--target", "cycle:3")
    assert code == EXIT_OK
    assert rep["timings"]["total_secs"] >= 0


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "ramsey-lab" in capsys.readouterr().out


# ------------------------------------------------- parser per subcommand

ROOT = Path(__file__).resolve().parents[1]
WITNESS = ["witness", "--k", "3", "--n", "3", "--m", "3", "--pair", "CC"]
ALL_EIGHT = "{witness,arrow,ramsey,extract,count,table,export-cnf,check-cert}"


def _subcommand_choices(ap):
    [sub] = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["--version"], ["nonsense"],
    *([name, "--help"] for name in cli._SUBCOMMANDS),
    WITNESS + ["--bogus"], ["arrow", "--k", "3"], ["extract", "--lemma", "bad"],
    # a token before the subcommand goes to the top-level parser
    ["-h", "witness"], ["-1", "witness"], ["--bogus"] + WITNESS,
], ids=lambda argv: " ".join(argv) or "no-args")
def test_argv_answered_as_by_the_full_parser(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one usage line, at any terminal
    code = main(list(argv))
    got = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(list(argv))
    want = capsys.readouterr()
    assert code == (EXIT_OK if exc.value.code == 0 else EXIT_USAGE)
    assert (got.out, got.err) == (want.out, want.err)
    if argv == WITNESS + ["--bogus"]:
        assert got.err == (f"usage: ramsey-lab [-h] [--version] {ALL_EIGHT} ...\n"
                           "ramsey-lab: error: unrecognized arguments: --bogus\n")
    if argv == []:
        assert got.err.endswith("error: the following arguments are required: "
                                "subcommand\n")


def test_a_call_builds_only_its_subcommand_parser(tmp_path, monkeypatch):
    built = []

    def recording(only=None, _build=cli.build_parser):
        built.append(_build(only))
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", recording)
    code, _ = run(tmp_path, *WITNESS)
    assert code == EXIT_OK
    assert _subcommand_choices(built[-1]) == ["witness"]
    assert main(["nonsense"]) == EXIT_USAGE
    assert _subcommand_choices(built[-1]) == list(cli._SUBCOMMANDS)


def test_module_entry_point_reads_sys_argv(tmp_path):
    argv = WITNESS + ["--out", str(tmp_path / "report.json"), "--dir", str(tmp_path)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "ramsey_lab.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    spawned = json.loads((tmp_path / "report.json").read_text())
    assert main(argv) == EXIT_OK
    here = json.loads((tmp_path / "report.json").read_text())
    spawned.pop("timings"), here.pop("timings")
    assert spawned == here


def test_readme_lists_every_subcommand():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([\w-]+)` +\|", section, flags=re.M)
    assert rows == list(cli._SUBCOMMANDS)


@pytest.mark.parametrize("disjoint", [True, False])
def test_check_cert_refuses_an_empty_pair_set(tmp_path, capsys, disjoint):
    # an all-red K^3_6 has no bichromatic pair at all
    path = tmp_path / "empty.cert.json"
    path.write_text(json.dumps({
        "type": "pair-set", "coloring": TwoColoring.all_red(3, 6).to_json_obj(),
        "payload": {"pairs": [], "disjoint": disjoint}}))
    code, rep = run(tmp_path, "check-cert", "--file", str(path))
    assert code == EXIT_HYPOTHESIS
    reasons = ["no-pairs"] + ["disjoint-needs-two-pairs"] * disjoint
    assert rep["results"]["check"]["reasons"] == reasons
    assert f"certificate rejected: {';'.join(reasons)}" in capsys.readouterr().err


def test_cli_imports_no_private_prover_name():
    tree = ast.parse(Path(cli.__file__).read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "prover"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def _typed_certificate_bases():
    """One valid certificate per decoder, as JSON objects: an embedding, a
    witness coloring, a pair set, a join trace, a configuration, and an
    embedding on an explicit coloring."""
    from ramsey_lab.coloring import lower_bound_witness
    from ramsey_lab.constructive import find_good_configuration, to_certificate
    from ramsey_lab.core import path_template

    host = TwoColoring.all_red(3, 7)
    emb = Embedding(cycle_template(3, 3), (1, 2, 3, 4, 5, 6), "red")
    _, split = lower_bound_witness(3, 3, 3, "CC")
    pair = TwoColoring.all_red(3, 7).with_edges([(1, 2, 4)], red=False)
    P = Embedding(path_template(3, 4), tuple(range(1, 10)), "red")
    cfg_host = TwoColoring.from_red_edges(3, 12, P.edge_images() + [(6, 7, 10)])
    cfg = find_good_configuration(cfg_host, P, {10, 11, 12}, 2, 2)
    explicit = to_certificate(host, emb, lemma="x").to_json_obj(explicit_coloring=True)
    return {
        "embedding": to_certificate(host, emb, lemma="x").to_json_obj(),
        "witness": {"type": "witness-coloring", "coloring": split.to_json_obj(),
                    "payload": {"red_target": {"kind": "cycle", "length": 3},
                                "blue_target": {"kind": "cycle", "length": 3},
                                "n_vertices": 6}},
        "pair-set": {"type": "pair-set", "coloring": pair.to_json_obj(),
                     "payload": {"pairs": [{"red_edge": [1, 2, 3],
                                            "blue_edge": [1, 2, 4]}],
                                 "disjoint": False}},
        "join": _join_certificate_obj()[0],
        "configuration": to_certificate(cfg_host, cfg, lemma="x").to_json_obj(),
        "explicit": explicit,
    }


def _as_pairs(obj):
    """A JSON object as the list of its [key, value] pairs, which dict()
    would turn back into the object."""
    return [[key, val] for key, val in obj.items()]


# (base, path to the field, ill-typed value or a function of the valid
# one, refusal); read through int(), bool() or dict(), each of these once
# passed the checker, and `disjoint: "false"` was read as a true claim
_ILL_TYPED = [
    ("embedding", "payload.embedding.assignment", [1.9, 2, 3, 4, 5, "6"], "certificate"),
    ("embedding", "payload.embedding.assignment", [True, 2, 3, 4, 5, 6], "certificate"),
    ("embedding", "payload.embedding.length", 3.7, "certificate"),
    ("embedding", "payload.embedding.k", "3", "certificate"),
    ("witness", "payload.n_vertices", 6.5, "certificate"),
    ("witness", "payload.red_target.length", 3.9, "certificate"),
    ("embedding", "coloring.k", 3.0, "coloring"),
    ("embedding", "coloring.n_vertices", "7", "coloring"),
    ("embedding", "coloring.red_bit", True, "coloring"),
    ("explicit", "coloring.red_edges.0.2", 3.0, "coloring"),
    ("embedding", "payload", _as_pairs, "certificate"),
    ("embedding", "meta", [["lemma", "x"]], "certificate"),
    ("pair-set", "payload.disjoint", "false", "certificate"),
    ("pair-set", "payload.pairs.0.red_edge", [1, 2, 3.5], "certificate"),
    ("join", "payload.steps.0.edge.0", 1.0, "certificate"),
    ("join", "payload.result.assignment.0", float, "certificate"),
    ("configuration", "payload.configuration.anchor_i", 2.0, "certificate"),
    ("configuration", "payload.configuration.W", [10, 11, "12"], "certificate"),
    ("configuration", "payload.configuration.path_assignment.0", True, "certificate"),
]


def test_typed_certificate_bases_pass(tmp_path):
    for name, obj in _typed_certificate_bases().items():
        path = tmp_path / f"{name}.cert.json"
        path.write_text(json.dumps(obj))
        assert run(tmp_path, "check-cert", "--file", str(path))[0] == EXIT_OK, name


@pytest.mark.parametrize("flag", [True, False])
def test_check_cert_accepts_an_older_budget_flag(tmp_path, flag):
    # certificates of older versions carry `budget_exhausted` in their meta,
    # which the checker never reads: the split K^3_11's disjoint pairs
    reds = [e for e in all_edges(11, 3) if max(e) <= 6 or min(e) >= 7]
    obj = {"type": "pair-set",
           "coloring": TwoColoring.from_red_edges(3, 11, reds).to_json_obj(),
           "payload": {"pairs": [{"red_edge": [1, 2, 3], "blue_edge": [1, 2, 7]},
                                 {"red_edge": [4, 5, 6], "blue_edge": [4, 5, 8]}],
                       "disjoint": True},
           "meta": {"lemma": "disjoint-pairs", "seed": 0, "budget_exhausted": flag}}
    path = tmp_path / "old.cert.json"
    path.write_text(json.dumps(obj))
    code, rep = run(tmp_path, "check-cert", "--file", str(path))
    assert code == EXIT_OK and rep["results"]["ok"] is True


@pytest.mark.parametrize("base,field,value,what", _ILL_TYPED,
                         ids=[f"{b}-{f}-{getattr(v, '__name__', repr(v))}".replace(" ", "")
                              for b, f, v, _ in _ILL_TYPED])
def test_check_cert_refuses_ill_typed_numbers(tmp_path, capsys, base, field, value, what):
    # a field must hold a JSON integer (a label list one of them, `disjoint`
    # a JSON boolean, payload and meta JSON objects); nothing is converted
    obj = _typed_certificate_bases()[base]
    *parents, last = field.split(".")
    node = obj
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    key = int(last) if isinstance(node, list) else last
    node[key] = value(node[key]) if callable(value) else value
    path = tmp_path / "bad.cert.json"
    path.write_text(json.dumps(obj))
    code, rep = run(tmp_path, "check-cert", "--file", str(path))
    assert code == EXIT_USAGE and rep is None
    assert f"usage error: malformed-{what}: " in capsys.readouterr().err


# (coloring, argv, exit code, first line of stderr): each refusal the CLI
# can reach, a bad parameter exiting 2, a false hypothesis 3
_C3_10 = ",".join(map(str, range(1, 10)))
_CLI_REFUSALS = [
    ("blue4-12", ["extract", "--lemma", "good-configuration", "--path", "1,2,3,4,5,6,7",
                  "--W", "8,9,10", "--anchor", "1", "--entry", "1"],
     EXIT_USAGE, "usage error: invalid-parameter: needs a 3-uniform host path"),
    ("path9-12", ["extract", "--lemma", "good-configuration", "--path", _C3_10,
                  "--W", "10,11,12", "--anchor", "4", "--entry", "2"],
     EXIT_HYPOTHESIS, "hypothesis-violation: anchor 4 outside 1..3"),
    ("path9-12", ["extract", "--lemma", "good-configuration", "--path", _C3_10,
                  "--W", "10,11,12", "--anchor", "2", "--entry", "1"],
     EXIT_HYPOTHESIS, "hypothesis-violation: entry vertex 1 not in A_2"),
    ("path3-6", ["extract", "--lemma", "absorb", "--path", "1,2,3", "--W", "4,5,6"],
     EXIT_HYPOTHESIS, "hypothesis-violation: path must have at least 2 edges"),
    ("red4-12", ["extract", "--lemma", "blue-cycle", "--cycle", _C3_10, "--n", "4",
                 "--m", "3"],
     EXIT_USAGE, "usage error: invalid-parameter: k must be 3"),
    ("red3-11", ["extract", "--lemma", "blue-cycle", "--cycle", "1,2,3,4,5,6,7,8",
                 "--n", "2", "--m", "3"],
     EXIT_USAGE, "usage error: invalid-parameter: need n >= m >= 3"),
    ("red3-11", ["extract", "--lemma", "blue-cycle", "--cycle", "1,2,3,4,5,6",
                 "--n", "4", "--m", "4"],
     EXIT_USAGE, "usage error: invalid-parameter: (n,m)=(4,4) is excluded"),
    ("red3-12", ["extract", "--lemma", "blue-cycle", "--cycle", "1,2,3,4,5,6,7,8",
                 "--n", "5", "--m", "3"],
     EXIT_HYPOTHESIS, "hypothesis-violation: host must have 11 vertices"),
    ("red3-11", ["extract", "--lemma", "blue-cycle", "--cycle", "1,2,3,4,5,6",
                 "--n", "5", "--m", "3"],
     EXIT_HYPOTHESIS, "hypothesis-violation: given embedding is not a (n-1)-cycle"),
    ("red3-12", ["extract", "--lemma", "join", "--cycle1", "1,2,3,4,5,6",
                 "--cycle2", "7,8,9,10,11,12", "--ell", "3"],
     EXIT_USAGE, "usage error: invalid-parameter: k >= 4 required"),
    ("red4-21", ["extract", "--lemma", "join", "--cycle1", _C3_10,
                 "--cycle2", ",".join(map(str, range(10, 22))), "--ell", "3"],
     EXIT_HYPOTHESIS,
     "hypothesis-violation: need n >= m >= 3 (pass the longer cycle first)"),
    ("red4-21", ["extract", "--lemma", "join", "--cycle1", _C3_10,
                 "--cycle2", ",".join(map(str, range(10, 19))), "--ell", "4"],
     EXIT_USAGE, "usage error: invalid-parameter: 3 <= ell <= m"),
    ("red4-17", ["extract", "--lemma", "join", "--cycle1", _C3_10,
                 "--cycle2", ",".join(map(str, range(10, 19))), "--ell", "3"],
     EXIT_HYPOTHESIS, "hypothesis-violation: host too small to hold both cycles"),
    ("red3-3", ["extract", "--lemma", "adjacent-pair"],
     EXIT_USAGE, "usage error: host-too-small: need at least k+1 vertices"),
    ("red3-11", ["extract", "--lemma", "disjoint-pairs", "--t", "4"],
     EXIT_USAGE, "usage error: invalid-parameter: t >= 5"),
    ("red3-12", ["extract", "--lemma", "disjoint-pairs", "--t", "5"],
     EXIT_HYPOTHESIS, "hypothesis-violation: host must have 11 vertices"),
    ("red3-11", ["extract", "--lemma", "disjoint-pairs", "--t", "5"],
     EXIT_HYPOTHESIS, "hypothesis-violation: a red cycle of length t is present"),
    ("red4-17", ["extract", "--lemma", "lift", "--cycle4", ",".join(map(str, range(1, 13))),
                 "--i", "5"],
     EXIT_HYPOTHESIS, "hypothesis-violation: host must have 16 vertices"),
    ("red4-16", ["extract", "--lemma", "lift", "--cycle4", _C3_10, "--i", "5"],
     EXIT_HYPOTHESIS, "hypothesis-violation: given embedding is not a 4-cycle"),
    ("red3-11", ["extract", "--lemma", "absorb", "--path", "1,a", "--W", "4,5,6"],
     EXIT_USAGE, "usage error: invalid-parameter: vertex list '1,a'"),
    ("red3-11", ["extract", "--lemma", "absorb", "--path", "1,2,3,4", "--W", "5,6,7"],
     EXIT_USAGE, "usage error: invalid-parameter: 4 vertices is no loose path at k=3"),
    (None, ["arrow", "--k", "3", "--n-vertices", "6", "--red", "cycle", "--blue", "cycle:3"],
     EXIT_USAGE, "usage error: invalid-parameter: target 'cycle', want kind:length"),
    (None, ["table", "--k", "3", "--base", "5"],
     EXIT_USAGE, "usage error: invalid-parameter: base entry '5', want n,m=value"),
    (None, ["table", "--k", "3"],
     EXIT_USAGE, "usage error: invalid-parameter: at least one --base n,m=value required"),
]


def _refusal_coloring(name):
    """The coloring a refusal case runs on: `red<k>-<N>` is all red,
    `blue4-12` all blue, `path<v>-<N>` a red path on 1..v, blue elsewhere."""
    kind, _, N = name.partition("-")
    if kind.startswith("path"):
        v = int(kind[4:])
        return TwoColoring.from_red_edges(3, int(N), [(j, j + 1, j + 2)
                                                      for j in range(1, v - 1, 2)])
    build = TwoColoring.all_red if kind.startswith("red") else TwoColoring.all_blue
    return build(int(kind[-1]), int(N))


@pytest.mark.parametrize("coloring,argv,code,first", _CLI_REFUSALS,
                         ids=[f"{i}-{argv[0]}" for i, (_, argv, _, _) in
                              enumerate(_CLI_REFUSALS)])
def test_refusals_reach_their_exit_codes(tmp_path, capsys, coloring, argv, code, first):
    if coloring is not None:
        cpath = tmp_path / "c.json"
        _refusal_coloring(coloring).save(cpath)
        argv = argv[:1] + ["--coloring", str(cpath)] + argv[1:]
    assert main(argv + ["--dir", str(tmp_path), "--out", str(tmp_path / "r.json")]) == code
    assert capsys.readouterr().err.splitlines()[0] == first


@pytest.mark.parametrize("payload,reason", [
    ({"embedding": {"kind": "path", "k": 3, "length": 2, "assignment": [1, 2, 3, 4],
                    "claimed_color": "red"}}, "wrong-length"),
    ({"pairs": [{"red_edge": [1, 2, 3], "blue_edge": [1, 2, 4]}], "disjoint": False},
     "pair-0:blue-edge-not-blue"),
], ids=["embedding", "pair-set"])
def test_check_cert_names_a_false_claim_of_shape_or_colour(tmp_path, capsys, payload,
                                                           reason):
    path = tmp_path / "c.cert.json"
    path.write_text(json.dumps({"type": "pair-set" if "pairs" in payload else "embedding",
                                "coloring": TwoColoring.all_red(3, 7).to_json_obj(),
                                "payload": payload}))
    code, rep = run(tmp_path, "check-cert", "--file", str(path))
    assert code == EXIT_HYPOTHESIS and rep["results"]["check"]["reasons"] == [reason]
    assert capsys.readouterr().err == f"certificate rejected: {reason}\n"
