"""End-to-end tests of the command line interface.

Every test drives ``main`` with an input document written to a
temporary file and inspects the report envelope, the exit code, or both.
Most run it in process; one that could hang runs it as its own process
under a timeout.
"""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
from collections import Counter
from datetime import datetime
from itertools import permutations
from pathlib import Path

import pytest

from clonelab import cli
from clonelab import clone as clone_module
from clonelab import monoid as monoid_module
from clonelab import topology
from clonelab.cli import main
from clonelab.clone import close_fragment, fragment_from_json, fragment_to_json
from clonelab.fnspace import finite_carrier, make_op
from clonelab.monoid import MonoidSet, centre, monoid_to_json
from clonelab.structures import (
    complete_graph,
    cycle_graph,
    end_monoid,
    path_graph,
    structure_to_json,
)
from test_clone import homs_by_compositions

S3_TABLES = [[0, 1, 2], [1, 0, 2], [2, 1, 0], [0, 2, 1], [1, 2, 0], [2, 0, 1]]
ROTATIONS = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
S4_TABLES = [list(p) for p in permutations(range(4))]
S4 = {"carrier": {"kind": "finite", "size": 4}, "ops": S4_TABLES}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(tmp_path, capsys, command, payload, *flags):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(payload))
    code, out = run(capsys, command, "--input", str(src), *flags)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# envelope and plumbing
# ---------------------------------------------------------------------------

DENSITY_FINITE = {
    "carrier": {"kind": "finite", "size": 2},
    "source": [[0, 1], [1, 0]],
    "targets": [[0, 0]],
}


def test_envelope_fields(tmp_path, capsys):
    code, report = run_json(tmp_path, capsys, "density", DENSITY_FINITE,
                            "--window-k", "1")
    assert code == 0
    assert set(report) == {"schema", "command", "generated_at",
                           "parameters", "results", "failures"}
    assert report["schema"] == 1
    assert report["command"] == "density"
    datetime.fromisoformat(report["generated_at"])
    assert report["failures"] == []


def test_out_flag_writes_file_and_keeps_stdout_quiet(tmp_path, capsys):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(DENSITY_FINITE))
    dst = tmp_path / "report.json"
    code, out = run(capsys, "density", "--input", str(src),
                    "--out", str(dst), "--window-k", "1")
    assert code == 0
    assert out == ""
    assert json.loads(dst.read_text())["command"] == "density"


def test_stdin_input(tmp_path, capsys, monkeypatch):
    payload = {"structure": structure_to_json(cycle_graph(5))}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, out = run(capsys, "homogeneity", "--input", "-")
    assert code == 0
    assert json.loads(out)["results"]["homogeneous"] is True


def test_text_format(tmp_path, capsys):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(DENSITY_FINITE))
    code, out = run(capsys, "density", "--input", str(src),
                    "--format", "text", "--window-k", "1")
    assert code == 0
    assert "command: density" in out
    assert "failures: none" in out


def test_csv_format(tmp_path, capsys):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(DENSITY_FINITE))
    code, out = run(capsys, "density", "--input", str(src),
                    "--format", "csv", "--window-k", "1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["section", "key", "value"]
    assert ["meta", "command", "density"] in rows
    sections = {row[0] for row in rows[1:]}
    assert {"meta", "parameters", "results"} <= sections


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(DENSITY_FINITE))
    dst = tmp_path / "missing_dir" / "r.json"
    code, out = run(capsys, "density", "--input", str(src),
                    "--out", str(dst), "--window-k", "1")
    assert code == 2
    report = json.loads(out)
    assert report["failures"][0].startswith("FileNotFoundError: ")
    assert report["results"] == {}
    assert not dst.exists()


def test_unwritable_out_path_for_an_error_envelope_exits_2(tmp_path, capsys):
    dst = tmp_path / "missing_dir" / "r.json"
    code, out = run(capsys, "homogeneity", "--out", str(dst),
                    "--format", "csv")
    assert code == 2
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[-1][:2] == ["failures", "0"]
    assert rows[-1][2].startswith("FileNotFoundError: ")


def test_missing_input_exits_2(capsys):
    code, out = run(capsys, "homogeneity")
    assert code == 2
    report = json.loads(out)
    assert report["failures"] and "input" in report["failures"][0]


def test_unknown_catalog_name_exits_2(tmp_path, capsys):
    code, report = run_json(tmp_path, capsys, "centre-witness",
                            {"structure": "no-such-structure", "seed": []})
    assert code == 2
    assert "unknown structure" in report["failures"][0]


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit):
        main([])


def test_reports_are_deterministic_up_to_timestamp(tmp_path, capsys):
    payload = {
        "structure": "rationals-order",
        "theta_seed": [["0", "1"]],
        "target_seed": [["0", "0"], ["1", "2"]],
        "points": ["0", "1"],
    }
    src = tmp_path / "input.json"
    src.write_text(json.dumps(payload))
    outs = []
    for name in ("a.json", "b.json"):
        dst = tmp_path / name
        code, _ = run(capsys, "check-extension", "--input", str(src),
                      "--out", str(dst), "--seed", "5")
        assert code == 0
        lines = [l for l in dst.read_text().splitlines()
                 if "generated_at" not in l]
        outs.append("\n".join(lines))
    assert outs[0] == outs[1]
    assert len(outs[0]) > 100


# ---------------------------------------------------------------------------
# verify-lifting and enumerate-homs
# ---------------------------------------------------------------------------

def test_verify_lifting_conjugation_passes(tmp_path, capsys):
    payload = {
        "source": {
            "carrier": {"kind": "finite", "size": 3},
            "generators": [{"arity": 1, "table": [1, 2, 0]}],
        },
        "theta": [1, 2, 0],
    }
    code, report = run_json(tmp_path, capsys, "verify-lifting", payload,
                            "--max-arity", "2")
    assert code == 0
    inner = report["results"]["report"]
    assert inner["conclusion"] == "conjugation-at-every-arity"
    assert inner["checked"] == report["parameters"]["source_ops"] > 0
    assert inner["counterexamples"] == []


def test_verify_lifting_reports_unmet_hypotheses(tmp_path, capsys):
    # The identity mapping on the closure of a constant is a perfectly
    # good homomorphism, but its unary part is not conjugation by the
    # 3-cycle, so the statement's hypotheses fail and nothing is checked.
    fragment = {
        "carrier": {"kind": "finite", "size": 3},
        "generators": [{"arity": 1, "table": [0, 0, 0]}],
    }
    payload = {
        "source": fragment,
        "target": fragment,
        "theta": [1, 2, 0],
        "mapping": [
            {"arity": 1, "from": [0, 1, 2], "to": [0, 1, 2]},
            {"arity": 1, "from": [0, 0, 0], "to": [0, 0, 0]},
        ],
    }
    code, report = run_json(tmp_path, capsys, "verify-lifting", payload,
                            "--max-arity", "1")
    assert code == 0
    inner = report["results"]["report"]
    assert inner["conclusion"] == "hypotheses-not-met"
    unmet = report["results"]["unmet_hypotheses"]
    assert "unary_restriction_is_conjugation" in unmet


def test_enumerate_homs_counts_both_z2_endomorphisms(tmp_path, capsys):
    fragment = {
        "carrier": {"kind": "finite", "size": 2},
        "generators": [{"arity": 1, "table": [1, 0]}],
    }
    code, report = run_json(tmp_path, capsys, "enumerate-homs",
                            {"source": fragment}, "--max-arity", "1")
    assert code == 0
    results = report["results"]
    assert results["count"] == 2
    kinds = {(h["surjective"], h["injective"]) for h in results["homs"]}
    assert kinds == {(True, True), (False, False)}


# ---------------------------------------------------------------------------
# check-extension
# ---------------------------------------------------------------------------

def test_check_extension_finite_conjugation(tmp_path, capsys):
    payload = {
        "carrier": {"kind": "finite", "size": 3},
        "source": ROTATIONS,
        "theta": [1, 2, 0],
        "target": [1, 2, 0],
        "points": [0, 1, 2],
    }
    code, report = run_json(tmp_path, capsys, "check-extension", payload)
    assert code == 0
    results = report["results"]
    assert results["mode"] == "conjugation"
    # conjugating the rotation by itself gives the rotation back
    assert [v["value"] for v in results["values"]] == [1, 2, 0]
    assert results["transfer"]["agree"] is True
    assert results["hom_law"]["agree"] is True
    assert all(w["consistent"] for w in results["well_defined"])


def test_check_extension_oracle_ill_defined_fails(tmp_path, capsys):
    # The oracle reads each permutation at the point 2, but the declared
    # window {0} does not pin that value down, so different
    # interpolation paths disagree and the run must fail.
    tables = [[1, 0, 2], [1, 2, 0], [0, 1, 2], [2, 0, 1], [0, 2, 1], [2, 1, 0]]
    payload = {
        "carrier": {"kind": "finite", "size": 3},
        "source": tables,
        "mapping": [{"from": t, "to": [t[2]] * 3} for t in tables],
        "modulus": [0],
        "target": [1, 2, 0],
        "points": [0],
    }
    code, report = run_json(tmp_path, capsys, "check-extension", payload)
    assert code == 1
    results = report["results"]
    assert results["mode"] == "oracle"
    assert results["transfer"] is None
    assert results["well_defined"][0]["consistent"] is False
    assert any("paths disagree" in f for f in report["failures"])


RATIONAL_EXTENSION = {
    "structure": "rationals-order",
    "theta_seed": [["0", "1"]],
    "target_seed": [["0", "0"], ["1", "2"]],
    "points": ["0", "1"],
}


def test_check_extension_on_the_ordered_rationals(tmp_path, capsys):
    code, report = run_json(tmp_path, capsys, "check-extension",
                            RATIONAL_EXTENSION, "--trials", "1")
    assert code == 0
    results = report["results"]
    # theta is the unit shift, the target doubles on [0, 1]; conjugating
    # gives x -> 2x - 1 there, so 0 -> f(-1) + 1 = 0 and 1 -> f(0) + 1 = 1
    assert results["values"][0] == {"point": "0", "value": "0"}
    assert results["values"][1] == {"point": "1", "value": "1"}
    assert results["transfer"]["agree"] is True
    assert results["hom_law"]["agree"] is True
    assert all(w["consistent"] for w in results["well_defined"])


def test_check_extension_rejects_negative_trials(tmp_path, capsys):
    # no interpolation path, or no sampled point, is a bad input (exit 2),
    # not a checked identity that failed (exit 1) or held vacuously (exit 0)
    sampled = {k: v for k, v in RATIONAL_EXTENSION.items() if k != "points"}
    for payload in (RATIONAL_EXTENSION, sampled):
        code, report = run_json(tmp_path, capsys, "check-extension", payload,
                                "--trials", "-1")
        assert code == 2
        assert report["results"] == {}
        assert report["failures"] == [
            "ValueError: --trials must be non-negative, got -1"]


@pytest.mark.parametrize("key", ["points", "theta_seed", "target_seed"])
@pytest.mark.parametrize("bad", ["1/0", True, False])
def test_check_extension_rejects_a_malformed_rational(tmp_path, capsys, key,
                                                      bad):
    # a zero denominator once escaped as a ZeroDivisionError traceback
    # (exit 1), and JSON true and false were read as 1 and 0
    payload = dict(RATIONAL_EXTENSION)
    if key == "points":
        payload["points"] = ["0", bad]
    else:
        payload[key] = payload[key] + [[bad, "5"]]
    code, report = run_json(tmp_path, capsys, "check-extension", payload)
    assert code == 2
    assert report["command"] == "check-extension"
    assert report["results"] == {}
    assert report["failures"] == [
        f"ValueError: bad rational element JSON: {bad!r}"]


def fragment_listing(max_arity):
    return {"carrier": {"kind": "finite", "size": 2}, "max_arity": max_arity,
            "ops": {"1": [[0, 1], [1, 0]]}}


@pytest.mark.parametrize("command, payload, failure", [
    ("density",
     {**DENSITY_FINITE, "carrier": {"kind": "finite", "size": 2.9}},
     "ValueError: carrier size must be an integer, got 2.9"),
    ("verify-lifting",
     {"source": fragment_listing(1.5), "theta": [1, 0]},
     "ValueError: max_arity must be an integer, got 1.5"),
    ("verify-lifting",
     {"source": {"carrier": {"kind": "finite", "size": 3},
                 "generators": [{"arity": True, "table": [1, 2, 0]}]},
      "theta": [1, 2, 0]},
     "ValueError: arity must be an integer, got True"),
    ("verify-lifting",
     {"source": fragment_listing(1), "theta": [1, 0],
      "mapping": [{"arity": 1.0, "from": [0, 1], "to": [0, 1]}]},
     "ValueError: arity must be an integer, got 1.0"),
    ("homogeneity",
     {"structure": {"carrier": {"kind": "finite", "size": 3},
                    "signature": [{"name": "E", "arity": 2.5}],
                    "relations": {"E": [[0, 1], [1, 0]]}}},
     "ValueError: relation arity must be an integer, got 2.5"),
    ("centre-witness",
     {"monoid": {"carrier": {"kind": "finite", "size": 2},
                 "ops": [{"arity": 1.9, "table": [0, 1]},
                         {"arity": 1, "table": [1, 0]}]}},
     "ValueError: arity must be an integer, got 1.9"),
], ids=["density-size", "lifting-max-arity", "lifting-generator-arity",
        "lifting-mapping-arity", "homogeneity-arity", "centre-op-arity"])
def test_a_malformed_json_integer_exits_2(tmp_path, capsys, command, payload,
                                          failure):
    # each was once truncated (2.9 -> 2) or read as a count (true -> 1)
    # and the command exited 0
    code, report = run_json(tmp_path, capsys, command, payload,
                            "--max-arity", "1")
    assert code == 2
    assert report["results"] == {}
    assert report["failures"] == [failure]


def test_a_lazy_json_structure_outside_the_catalog_exits_2(tmp_path, capsys):
    # an empty signature on the rationals once passed for the rational
    # order, since only the carrier was looked at
    payload = {"structure": {"carrier": {"kind": "rationals"},
                             "signature": [], "relations": {}},
               "seed": [["0", "1"]]}
    code, report = run_json(tmp_path, capsys, "centre-witness", payload)
    assert code == 2
    assert report["failures"] == [
        "UnsupportedLazyCarrier: back-and-forth strategies are available "
        "for the catalog structures only"]


@pytest.mark.parametrize("command,payload,flags,failure", [
    ("centre-witness", {"structure": "rationals-order", "seed": [["0", "1"]]},
     ["--probe-budget", "-1"],
     "ValueError: probe_budget must be non-negative, got -1"),
    ("homogeneity",
     {"structure": {"carrier": {"kind": "finite", "size": 2},
                    "signature": [{"name": "E", "arity": 2}],
                    "relations": {"E": []}, "name": [1, 2]}},
     [], "ValueError: structure name must be a string, got [1, 2]"),
], ids=["negative-probe-budget", "list-name"])
def test_an_out_of_range_option_or_name_exits_2(tmp_path, capsys, command,
                                                payload, flags, failure):
    # each exited 0: the budget with the vacuous verdict after 0 probes,
    # the name echoed in the parameters
    code, report = run_json(tmp_path, capsys, command, payload, *flags)
    assert code == 2
    assert report["results"] == {}
    assert report["failures"] == [failure]


# ---------------------------------------------------------------------------
# density, homogeneity, complements
# ---------------------------------------------------------------------------

def test_density_profile_finite(tmp_path, capsys):
    code, report = run_json(tmp_path, capsys, "density", DENSITY_FINITE,
                            "--window-k", "1")
    assert code == 0
    profile = report["results"]["profile"]
    assert [p["verdict"] for p in profile] == ["dense-at-window", "gap-found"]
    assert [p["radius"] for p in profile] == [0, 1]
    assert [p["matched"] for p in profile] == [1, 0]


def test_density_reads_each_verdict_without_building_json(tmp_path, capsys,
                                                         monkeypatch):
    def no_json(report):
        raise AssertionError("a report was turned into JSON")

    monkeypatch.setattr(topology.DensityReport, "to_json", no_json)
    for payload in (DENSITY_FINITE,
                    {"structure": "rationals-order",
                     "target_seeds": [[["0", "1"]], [["0", "0"], ["1", "3"]]]}):
        code, report = run_json(tmp_path, capsys, "density", payload,
                                "--window-k", "1")
        assert code == 0
        assert {p["verdict"] for p in report["results"]["profile"]} <= {
            "dense-at-window", "gap-found"}


def test_density_rejects_a_long_table_on_one_point(tmp_path):
    """No arity fits two entries on one point; the arity search once
    looped forever on it, so the CLI runs apart under a timeout."""
    src = tmp_path / "input.json"
    src.write_text(json.dumps({"carrier": {"kind": "finite", "size": 1},
                               "source": [[0, 0]], "targets": [[0]]}))
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-m", "clonelab.cli", "density",
                           "--input", str(src)], env=env,
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 2
    assert json.loads(done.stdout)["failures"] == [
        "ValueError: table length 2 is not a power of 1"]


def test_density_of_rational_automorphisms(tmp_path, capsys):
    payload = {
        "structure": "rationals-order",
        "target_seeds": [[["0", "1"]], [["0", "0"], ["1", "3"]]],
    }
    code, report = run_json(tmp_path, capsys, "density", payload,
                            "--window-k", "2")
    assert code == 0
    verdicts = {p["verdict"] for p in report["results"]["profile"]}
    assert verdicts == {"dense-at-window"}


def test_homogeneity_of_the_five_cycle(tmp_path, capsys):
    payload = {"structure": structure_to_json(cycle_graph(5))}
    code, report = run_json(tmp_path, capsys, "homogeneity", payload)
    assert code == 0
    assert report["results"] == {"homogeneous": True, "witness": None,
                                 "size": 5}


def test_homogeneity_witness_on_the_path(tmp_path, capsys):
    payload = {"structure": structure_to_json(path_graph(4))}
    code, report = run_json(tmp_path, capsys, "homogeneity", payload)
    assert code == 0
    results = report["results"]
    assert results["homogeneous"] is False
    assert results["witness"] == {"pairs": [[0, 1]]}


def test_homogeneity_of_k7_at_the_default_size_limit(tmp_path, capsys):
    payload = {"structure": structure_to_json(complete_graph(7))}
    code, report = run_json(tmp_path, capsys, "homogeneity", payload)
    assert code == 0
    assert report["parameters"]["size_limit"] == 7
    assert report["results"] == {"homogeneous": True, "witness": None,
                                 "size": 7}


def test_complement_end_emb_on_the_path(tmp_path, capsys):
    payload = {"structure": structure_to_json(path_graph(3))}
    code, report = run_json(tmp_path, capsys, "complement-end-emb", payload)
    assert code == 0
    results = report["results"]
    assert results["equal"] is True
    assert results["embeddings"] == results["expansion_endomorphisms"] == 2
    assert report["failures"] == []


# ---------------------------------------------------------------------------
# monoid-level commands
# ---------------------------------------------------------------------------

def test_injective_endos_of_z2(tmp_path, capsys):
    payload = {
        "monoid": {"carrier": {"kind": "finite", "size": 2},
                   "ops": [[0, 1], [1, 0]]},
        "fixed": [0],
    }
    code, report = run_json(tmp_path, capsys, "injective-endos", payload)
    assert code == 0
    inner = report["results"]["report"]
    assert inner["count"] == 1
    assert inner["only_identity"] is True
    assert inner["maps"] == [[0, 1]]


@pytest.mark.parametrize("entry", [5, -1, True])
def test_injective_endos_rejects_a_bad_member_index(entry, tmp_path, capsys):
    # 5 is past the end, -1 would wrap to the last member and True would
    # read as member 1
    payload = {
        "monoid": {"carrier": {"kind": "finite", "size": 2},
                   "ops": [[0, 1], [1, 0]]},
        "fixed": [entry],
    }
    code, report = run_json(tmp_path, capsys, "injective-endos", payload)
    assert code == 2
    assert report["failures"][0].startswith(
        f"ValueError: fixed entry {entry!r} ")


def test_injective_endos_of_end_k4(tmp_path, capsys):
    payload = {"monoid": monoid_to_json(end_monoid(complete_graph(4))),
               "fixed": [[0, 1, 2, 3]]}
    code, report = run_json(tmp_path, capsys, "injective-endos", payload)
    assert code == 0
    assert report["parameters"]["monoid_size"] == 24
    assert report["results"]["report"]["count"] == 24


def counted_compositions(monkeypatch) -> Counter:
    """Count the member pairs the monoid layer composes, by their tables."""
    pairs = Counter()
    compose_tables = monoid_module.compose_tables

    def counted(f, gs, size, arity):
        pairs[(f, *gs)] += 1
        return compose_tables(f, gs, size, arity)

    monkeypatch.setattr(monoid_module, "compose_tables", counted)
    return pairs


def test_injective_endos_composes_each_ordered_pair_once(tmp_path, capsys,
                                                        monkeypatch):
    # the closure flag was once computed by composing all 576 pairs, and
    # the search's own table composed them again
    pairs = counted_compositions(monkeypatch)
    payload = {"monoid": S4, "fixed": [[0, 1, 2, 3]]}
    code, report = run_json(tmp_path, capsys, "injective-endos", payload)
    assert code == 0
    assert report["results"]["report"]["count"] == 24
    assert pairs == Counter({(tuple(f), tuple(g)): 1
                             for f in S4_TABLES for g in S4_TABLES})


def test_transitivity_composes_no_pair_of_members(tmp_path, capsys,
                                                  monkeypatch):
    pairs = counted_compositions(monkeypatch)
    payload = {"monoid": S4, "pairs": [[1, 2]]}
    code, report = run_json(tmp_path, capsys, "transitivity", payload)
    assert code == 0
    assert report["results"]["transitive"] is True
    assert not pairs


def test_centre_witness_composes_only_for_the_centre(tmp_path, capsys,
                                                     monkeypatch):
    pairs = counted_compositions(monkeypatch)
    code, report = run_json(tmp_path, capsys, "centre-witness", {"monoid": S4})
    assert code == 0
    assert report["results"] == {"centre": [[0, 1, 2, 3]], "trivial": True}
    spent = sum(pairs.values())
    pairs.clear()
    carrier = finite_carrier(4)
    centre(MonoidSet(carrier, tuple(make_op(carrier, 1, table=t)
                                    for t in S4_TABLES)))
    assert spent == sum(pairs.values()) > 0


def test_centre_of_s3_is_trivial(tmp_path, capsys):
    payload = {"monoid": {"carrier": {"kind": "finite", "size": 3},
                          "ops": S3_TABLES}}
    code, report = run_json(tmp_path, capsys, "centre-witness", payload)
    assert code == 0
    assert report["results"] == {"centre": [[0, 1, 2]], "trivial": True}


def test_centre_witness_on_the_rationals(tmp_path, capsys):
    payload = {"structure": "rationals-order", "seed": [["0", "1"]]}
    code, report = run_json(tmp_path, capsys, "centre-witness", payload)
    assert code == 0
    inner = report["results"]["report"]
    assert inner["outcome"] == "witness-found"
    assert inner["point"] == "0"
    assert inner["left"] == "1"
    assert inner["right"] == "1/2"


def test_transitivity_of_the_rotation_monoid(tmp_path, capsys):
    payload = {
        "monoid": {"carrier": {"kind": "finite", "size": 3},
                   "ops": ROTATIONS},
        "pairs": [[1, 2]],
    }
    code, report = run_json(tmp_path, capsys, "transitivity", payload)
    assert code == 0
    results = report["results"]
    assert results["transitive"] is True
    assert results["weakly_directed"] is True
    assert results["witnesses"] == [
        {"a": 1, "b": 2, "f": [1, 2, 0], "g": [2, 0, 1], "c": 0}]


def test_transitivity_pair_without_common_ancestor_is_a_result(tmp_path,
                                                               capsys):
    payload = {
        "monoid": {"carrier": {"kind": "finite", "size": 2},
                   "ops": [[0, 1]]},
        "pairs": [[0, 0], [0, 1]],
    }
    code, report = run_json(tmp_path, capsys, "transitivity", payload)
    assert code == 0
    assert report["failures"] == []
    results = report["results"]
    assert results["weakly_directed"] is False
    assert results["witnesses"] == [
        {"a": 0, "b": 0, "f": [0, 1], "g": [0, 1], "c": 0},
        {"a": 0, "b": 1, "f": None, "g": None, "c": None}]


def test_transitivity_pair_outside_the_carrier_exits_2(tmp_path, capsys):
    payload = {
        "monoid": {"carrier": {"kind": "finite", "size": 2},
                   "ops": [[0, 1]]},
        "pairs": [[0, 5]],
    }
    code, report = run_json(tmp_path, capsys, "transitivity", payload)
    assert code == 2
    assert "outside carrier" in report["failures"][0]


def test_transitivity_witness_on_the_random_graph(tmp_path, capsys):
    payload = {"structure": "rado", "a": 3, "b": 7}
    code, report = run_json(tmp_path, capsys, "transitivity", payload)
    assert code == 0
    results = report["results"]
    assert results["base_point"] == 0
    assert results["f_at_base"] == 3
    assert results["g_at_base"] == 7
    assert results["f"]["pairs"][0] == [0, 3]


# ---------------------------------------------------------------------------
# the parser: built once per process, dispatching through HANDLERS
# ---------------------------------------------------------------------------

OPTION_DEFAULTS = {
    "input": None, "out": None, "format": "json", "seed": 0, "window_k": 3,
    "max_arity": 3, "op_cap": 512, "trials": 3, "probe_budget": 64,
    "size_limit": 7,
}

# one small well-formed input and its flags per subcommand
EVERY_SUBCOMMAND = {
    "verify-lifting": ({"source": {"carrier": {"kind": "finite", "size": 3},
                                   "generators": [{"arity": 1,
                                                   "table": [1, 2, 0]}]},
                        "theta": [1, 2, 0]}, ["--max-arity", "2"]),
    "enumerate-homs": ({"source": {"carrier": {"kind": "finite", "size": 2},
                                   "generators": [{"arity": 1,
                                                   "table": [1, 0]}]}},
                       ["--max-arity", "1"]),
    "check-extension": ({"carrier": {"kind": "finite", "size": 3},
                         "source": ROTATIONS, "theta": [1, 2, 0],
                         "target": [1, 2, 0], "points": [0, 1, 2]}, []),
    "density": (DENSITY_FINITE, ["--window-k", "1"]),
    "homogeneity": ({"structure": structure_to_json(cycle_graph(5))}, []),
    "complement-end-emb": ({"structure": structure_to_json(path_graph(3))},
                           []),
    "injective-endos": ({"monoid": {"carrier": {"kind": "finite", "size": 2},
                                    "ops": [[0, 1], [1, 0]]},
                         "fixed": [0]}, []),
    "centre-witness": ({"monoid": {"carrier": {"kind": "finite", "size": 3},
                                   "ops": S3_TABLES}}, []),
    "transitivity": ({"monoid": {"carrier": {"kind": "finite", "size": 3},
                                 "ops": ROTATIONS}, "pairs": [[1, 2]]}, []),
}


def test_every_subcommand_is_covered():
    assert set(EVERY_SUBCOMMAND) == set(cli.HANDLERS)


def _base_argv(tmp_path, name):
    payload, flags = EVERY_SUBCOMMAND[name]
    src = tmp_path / f"{name}.json"
    src.write_text(json.dumps(payload))
    return [name, "--input", str(src)] + flags


def _without_timestamp(out):
    return [line for line in out.splitlines() if "generated_at" not in line]


def test_repeated_calls_in_one_process_give_identical_reports(tmp_path,
                                                               capsys):
    variants = ([], ["--format", "csv"], ["--seed", "7", "--size-limit", "5"])
    rounds = []
    for _ in range(2):
        outputs = {}
        for name in EVERY_SUBCOMMAND:
            argv = _base_argv(tmp_path, name)
            for extra in variants:
                code, out = run(capsys, *argv, *extra)
                outputs[name, tuple(extra)] = (code, _without_timestamp(out))
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--format", "xml"])
            assert exc.value.code == 2
            capsys.readouterr()
        rounds.append(outputs)
    assert rounds[0] == rounds[1]
    assert all(code == 0 for code, _ in rounds[0].values())
    for name in EVERY_SUBCOMMAND:
        ns = cli._build_parser().parse_args([name])
        assert vars(ns) == {"command": name, **OPTION_DEFAULTS}


def test_help_of_every_subcommand_lists_the_options(capsys):
    for name in cli.HANDLERS:
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: ") and f"clonelab {name}" in out
        for dest in OPTION_DEFAULTS:
            assert "--" + dest.replace("_", "-") in out
        assert "{json,csv,text}" in out
        ns = cli._build_parser().parse_args([name])
        assert vars(ns) == {"command": name, **OPTION_DEFAULTS}


def test_twenty_calls_build_the_parser_once(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    argv = _base_argv(tmp_path, "density")
    assert run(capsys, *argv)[0] == 0
    first = len(built)
    assert built.count("clonelab") == 1
    for _ in range(19):
        assert run(capsys, *argv)[0] == 0
    assert len(built) == first
    assert cli._build_parser.cache_info().misses == 1


def test_handler_swapped_in_after_the_first_call_runs(tmp_path, capsys,
                                                      monkeypatch):
    argv = _base_argv(tmp_path, "density")
    assert run(capsys, *argv)[0] == 0

    def swapped(ns):
        return {"swapped": True}, {"input": ns.input}, ["planted failure"]

    monkeypatch.setitem(cli.HANDLERS, "density", swapped)
    code, out = run(capsys, *argv)
    assert code == 1
    report = json.loads(out)
    assert report["parameters"] == {"swapped": True}
    assert report["failures"] == ["planted failure"]


# ---------------------------------------------------------------------------
# fragment homomorphisms from generator images, and the exhaustive fallback
# ---------------------------------------------------------------------------

FINITE2 = {"kind": "finite", "size": 2}


def test_verify_lifting_of_not_and_at_the_default_arity_bound(tmp_path, capsys):
    payload = {"source": {"carrier": FINITE2, "generators": [
        {"arity": 1, "table": [1, 0]}, {"arity": 2, "table": [0, 0, 0, 1]}]},
        "theta": [1, 0]}
    code, report = run_json(tmp_path, capsys, "verify-lifting", payload)
    assert code == 0
    assert report["parameters"]["max_arity"] == 3
    inner = report["results"]["report"]
    assert inner["conclusion"] == "conjugation-at-every-arity"
    assert inner["checked"] == 276


def test_enumerate_homs_of_the_kleene_fragment(tmp_path, capsys):
    payload = {"source": {"carrier": {"kind": "finite", "size": 3},
                          "generators": [
        {"arity": 2, "table": [min(a, b) for a in range(3) for b in range(3)]},
        {"arity": 1, "table": [2, 1, 0]}]}}
    code, report = run_json(tmp_path, capsys, "enumerate-homs", payload,
                            "--max-arity", "2")
    assert code == 0
    assert report["parameters"]["source_ops"] == 86
    assert report["results"]["count"] == 2


@pytest.mark.parametrize("ops", [
    # not closed: and(not x, y) is missing
    {"1": [[0, 1], [1, 0]], "2": [[0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 0, 1]]},
    # no projections
    {"1": [[0, 0], [1, 0]], "2": [[0, 0, 0, 1], [0, 1, 1, 1]]},
], ids=["not-closed", "no-projections"])
def test_enumerate_homs_falls_back_for_other_sources(tmp_path, capsys, ops):
    source = {"carrier": FINITE2, "max_arity": 2, "ops": ops}
    code, report = run_json(tmp_path, capsys, "enumerate-homs",
                            {"source": source})
    assert code == 0
    frag = fragment_from_json(source)
    expected = [[list(hom.image(op).table) for _, op in frag.all_ops()]
                for hom in homs_by_compositions(frag, frag)]
    got = [[entry["to"] for entry in hom["mappings"]]
           for hom in report["results"]["homs"]]
    assert got == expected
    assert report["results"]["count"] == len(expected) > 0


def test_verify_lifting_conjugates_each_member_once(tmp_path, capsys,
                                                    monkeypatch):
    """{not, and} at arity bound 2 has 20 members: 20 conjugates for the
    mapping of the conjugation hom and 20 for the lifting check, of which
    the 4 unary ones also decide the unary hypothesis."""
    calls = []

    def counted(theta, op):
        calls.append(op)
        return conjugate_op(theta, op)

    conjugate_op = clone_module.conjugate_op
    monkeypatch.setattr(clone_module, "conjugate_op", counted)
    payload = {"source": {"carrier": FINITE2, "generators": [
        {"arity": 1, "table": [1, 0]}, {"arity": 2, "table": [0, 0, 0, 1]}]},
        "theta": [1, 0]}
    code, report = run_json(tmp_path, capsys, "verify-lifting", payload,
                            "--max-arity", "2")
    assert code == 0
    assert report["results"]["report"]["checked"] == 20
    assert len(calls) == 40


def not_and_listing_less_one_ternary():
    """{not, and} at arity bound 3 as tables, less its last ternary
    operation: not closed, so every member is an outer operation and
    the homomorphism condition has about 4.23 * 10 ** 9 identities."""
    b2 = finite_carrier(2)
    frag = fragment_to_json(close_fragment(
        [make_op(b2, 1, table=[1, 0]), make_op(b2, 2, table=[0, 0, 0, 1])],
        max_arity=3))
    frag["ops"]["3"].pop()
    return frag


@pytest.mark.parametrize("command", ["enumerate-homs", "verify-lifting"])
def test_a_source_over_the_identity_budget_exits_2(tmp_path, command):
    """Both once walked every identity for hours, so the CLI runs apart
    under a timeout."""
    src = tmp_path / "input.json"
    src.write_text(json.dumps({"source": not_and_listing_less_one_ternary(),
                               "theta": [1, 0]}))
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-m", "clonelab.cli", command,
                           "--input", str(src)], env=env,
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 2
    assert json.loads(done.stdout)["failures"] == [
        "BudgetExceeded: the homomorphism condition has 4230357277 "
        "composition identities, more than the cap of 2000000"]
