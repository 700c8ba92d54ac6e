"""CLI subcommands, exit codes, and report shape."""

import argparse
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
from ramsey_lab.coloring import TwoColoring, all_edges
from ramsey_lab.core import cycle_template
from ramsey_lab.embedder import count_copies

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
    assert "usage error: invalid-parameter: --pair PC needs --m >= 3" in \
        capsys.readouterr().err
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


def test_check_cert_refuses_colourless_claims(tmp_path):
    # a claim with no colour says nothing about the coloring: a loose
    # C^3_3 on 1..6 where one edge is red, and a join result whose cycle
    # has one blue edge, must not verify as "any"
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


def test_extract_max_nodes_zero_is_a_budget(tmp_path):
    # the full embedding search on this split coloring meets a blue 3-cycle
    # (exit 3); a budget of 0 nodes must stop it before that, as 1 does
    k, t = 3, 5
    N = t * (k - 1) + 1
    reds = [e for e in all_edges(N, k) if max(e) <= 6 or min(e) >= 7]
    cpath = tmp_path / "c.json"
    TwoColoring.all_blue(k, N).with_edges(reds, red=True).save(cpath)
    for budget in ("0", "1"):
        code, rep = run(tmp_path, "extract", "--lemma", "disjoint-pairs",
                        "--coloring", str(cpath), "--t", str(t),
                        "--max-nodes", budget)
        assert code == EXIT_OK
        assert rep["inputs"]["max_nodes"] == int(budget)
        assert rep["results"]["meta"]["budget_exhausted"] is True


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


def test_arrow_refuses_copy_table_past_memory(tmp_path, capsys, monkeypatch):
    from ramsey_lab import embedder

    monkeypatch.setattr(embedder, "_COPY_CACHE", {})
    monkeypatch.setattr(embedder, "_memory_bytes", lambda: 100_000_000)
    code = main(["arrow", "--k", "3", "--n-vertices", "11", "--red", "cycle:5",
                 "--blue", "cycle:3", "--dir", str(tmp_path)])
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
