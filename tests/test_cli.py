import json

import pytest

from ramseykit.cli import dispatch
from ramseykit.colouring import pentagon, save_colouring, serialize_colouring
from ramseykit.colouring import LengthColouring


@pytest.fixture
def pentagon_file(tmp_path):
    path = tmp_path / "pentagon.json"
    save_colouring(pentagon(), path)
    return str(path)


@pytest.fixture
def store(tmp_path, monkeypatch):
    path = str(tmp_path / "facts.jsonl")
    monkeypatch.setenv("RAMSEYKIT_FACTS", path)
    return path


def test_unknown_subcommand_is_usage_error(capsys):
    assert dispatch(["frobnicate"]) == 2


def test_no_arguments_is_usage_error(capsys):
    assert dispatch([]) == 2


def test_verify_pass(pentagon_file, capsys):
    assert dispatch(["verify", pentagon_file, "--avoid", "3,3"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_uses_stored_avoid(pentagon_file, capsys):
    assert dispatch(["verify", pentagon_file]) == 0


def test_verify_fail(pentagon_file, capsys):
    assert dispatch(["verify", pentagon_file, "--avoid", "2,3"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_missing_file(tmp_path, capsys):
    assert dispatch(["verify", str(tmp_path / "nope.json")]) == 2


def test_verify_bad_avoid(pentagon_file, capsys):
    assert dispatch(["verify", pentagon_file, "--avoid", "three"]) == 2


def test_construct_product_roundtrip(pentagon_file, tmp_path, capsys):
    out = str(tmp_path / "p41.json")
    code = dispatch(["construct", "product", "--a", pentagon_file,
                     "--b", pentagon_file, "--out", out])
    assert code == 0
    assert dispatch(["verify", out, "--avoid", "3,3,3,3"]) == 0
    data = json.loads(open(out).read())
    assert data["kind"] == "cyclic"
    assert data["order"] == 41


def test_construct_paley(tmp_path, capsys):
    out = str(tmp_path / "paley17.json")
    assert dispatch(["construct", "paley", "--q", "17", "--out", out]) == 0
    assert dispatch(["verify", out, "--avoid", "4,4"]) == 0


def test_construct_paley_without_q(capsys):
    assert dispatch(["construct", "paley"]) == 2


def test_template_check(pentagon_file, tmp_path, capsys):
    doubled = LengthColouring(
        "linear", 10, 3, (1, 2, 2, 1, 3, 3, 3, 3, 3), template_colour=3)
    path = str(tmp_path / "template.json")
    save_colouring(doubled, path)
    assert dispatch(["template-check", path, "--avoid", "3,3"]) == 0
    out = capsys.readouterr().out
    assert "phi 4" in out
    assert "PASS" in out


def test_template_check_requires_template_colour(pentagon_file, capsys):
    assert dispatch(["template-check", pentagon_file, "--avoid", "3,3"]) == 2


def test_encode_solve_decode_roundtrip(tmp_path, capsys):
    cnf = str(tmp_path / "c5.cnf")
    model = str(tmp_path / "c5.model")
    decoded = str(tmp_path / "c5.json")
    assert dispatch(["encode", "cyclic", "--order", "5",
                     "--avoid", "3,3", "--out", cnf]) == 0
    assert dispatch(["solve", cnf, "--model-out", model]) == 0
    assert dispatch(["decode", "--cnf", cnf, "--model", model,
                     "--out", decoded]) == 0
    assert dispatch(["verify", decoded, "--avoid", "3,3"]) == 0


def test_solve_unsat_exit_code(tmp_path, capsys):
    cnf = str(tmp_path / "c6.cnf")
    assert dispatch(["encode", "cyclic", "--order", "6",
                     "--avoid", "3,3", "--out", cnf]) == 0
    assert dispatch(["solve", cnf]) == 1
    assert "s UNSAT" in capsys.readouterr().out


def test_encode_extension_via_cli(pentagon_file, tmp_path):
    cnf = str(tmp_path / "ext.cnf")
    assert dispatch(["encode", "extension", "--prototype", pentagon_file,
                     "--t", "2", "--avoid", "3,3,3", "--out", cnf]) == 0
    header = [l for l in open(cnf) if l.startswith("p cnf")][0]
    assert header.split()[2] == "3"


def test_search_template_none(pentagon_file, capsys):
    code = dispatch(["search", "template", "--prototype", pentagon_file,
                     "--t", "2", "--avoid", "3,3,3"])
    assert code == 1
    assert "no template exists" in capsys.readouterr().out


def test_search_template_found(tmp_path, capsys):
    proto = LengthColouring("cyclic", 8, 2, (1, 2, 2, 1))
    ppath = str(tmp_path / "proto8.json")
    save_colouring(proto, ppath)
    out = str(tmp_path / "found.json")
    code = dispatch(["search", "template", "--prototype", ppath,
                     "--t", "3", "--avoid", "3,4,3",
                     "--reps", "4", "--out", out])
    assert code == 0
    assert dispatch(["verify", out, "--avoid", "3,4,3"]) == 0
    assert dispatch(["template-check", out, "--avoid", "3,4",
                     "--reps", "4"]) == 0


def test_ledger_seed_derive_best(store, capsys):
    assert dispatch(["ledger", "seed"]) == 0
    assert dispatch(["ledger", "derive", "--rules", "r7,r8,r9",
                     "--depth", "3"]) == 0
    capsys.readouterr()
    assert dispatch(["ledger", "best", "R(9,9,9)"]) == 0
    out = capsys.readouterr().out
    assert "R(9,9,9) >= 15041" in out
    assert "derived[r7]" in out


def test_ledger_best_no_match(store, capsys):
    assert dispatch(["ledger", "best", "R(99,99)"]) == 1


def test_ledger_bad_query(store, capsys):
    assert dispatch(["ledger", "best", "what is R?"]) == 2


def test_ledger_add_and_assert(store, pentagon_file, capsys):
    assert dispatch(["ledger", "add", pentagon_file, "--avoid", "3,3",
                     "--cyclic"]) == 0
    assert dispatch(["ledger", "assert", "3,3,3", "14", "--source",
                     "hand construction", "--cyclic"]) == 0
    assert dispatch(["ledger", "derive", "--rules", "r7", "--depth", "1"]) == 0
    capsys.readouterr()
    assert dispatch(["ledger", "best", "R(3,3,3)"]) == 0
    assert "R(3,3,3) >= 15" in capsys.readouterr().out


def test_ledger_table(store, capsys):
    assert dispatch(["ledger", "seed"]) == 0
    assert dispatch(["ledger", "derive", "--rules", "r8,r9",
                     "--depth", "2"]) == 0
    capsys.readouterr()
    assert dispatch(["ledger", "table", "--k", "5..9", "--r", "3..3"]) == 0
    out = capsys.readouterr().out
    assert "| 9 | 15040 (d) |" in out
    assert "| 8 | 7173 (d) |" in out
    assert "| 5 | - |" in out


def test_pipeline_shipped_recipes(store, capsys):
    assert dispatch(["pipeline", "desk_scale_compounds"]) == 0
    out = capsys.readouterr().out
    assert "R(3,3,3,3)" in out
    assert dispatch(["pipeline", "reproduce_r3_bounds"]) == 0
    out = capsys.readouterr().out
    assert ">= 15041 confirmed" in out


def test_pipeline_stores_only_on_success(store, tmp_path, capsys):
    import os

    recipe = {
        "name": "failing",
        "steps": [
            {"op": "seed"},
            {"op": "expect", "kind": "R", "parameters": [3, 3],
             "min_value": 10**9},
        ],
    }
    path = tmp_path / "failing.json"
    path.write_text(json.dumps(recipe))
    assert dispatch(["pipeline", str(path), "--use-store"]) == 1
    assert not os.path.exists(store)


def test_pipeline_missing_recipe(capsys):
    assert dispatch(["pipeline", "no_such_recipe"]) == 2


def test_module_entry_point_returns_dispatch_codes():
    import os
    import subprocess
    import sys

    import ramseykit

    src = os.path.dirname(os.path.dirname(ramseykit.__file__))
    env = {**os.environ, "PYTHONPATH": src}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "ramseykit.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=60)

    assert run().returncode == 2
    helped = run("--help")
    assert helped.returncode == 0 and "usage:" in helped.stdout
