"""CLI subcommands, exit codes, and report shape."""

import json
import os

import pytest

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

import frozen_values as F


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


def test_arrow_unsat_exit(tmp_path):
    code, rep = run(tmp_path, "arrow", "--k", "3", "--n-vertices", "7",
                    "--red", "cycle:3", "--blue", "cycle:3")
    assert code == EXIT_UNSAT
    assert rep["results"]["status"] == "UNSAT"


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


def test_usage_errors(tmp_path):
    assert main(["arrow", "--k", "3"]) == EXIT_USAGE  # missing required flags
    assert main(["nonsense"]) == EXIT_USAGE
    cpath = tmp_path / "c.json"
    TwoColoring.all_red(3, 6).save(cpath)
    code = main(["extract", "--lemma", "lift", "--coloring", str(cpath),
                 "--cycle4", "1,2,3,4,5,6,7,8", "--i", "9",
                 "--dir", str(tmp_path)])
    assert code == EXIT_USAGE


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
