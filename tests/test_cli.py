import json
import os
import threading
from dataclasses import replace

import pytest

from ramseykit import cli, templates
from ramseykit.cli import _locked_store, dispatch, run_pipeline
from ramseykit.colouring import (
    LengthColouring,
    pentagon,
    save_colouring,
    serialize_colouring,
)


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


DOUBLED_PENTAGON = LengthColouring(
    "linear", 10, 3, (1, 2, 2, 1, 3, 3, 3, 3, 3), template_colour=3)


@pytest.fixture
def template_file(tmp_path):
    path = str(tmp_path / "template.json")
    save_colouring(DOUBLED_PENTAGON, path)
    return path


def test_template_check_runs_each_repetition_once(template_file, monkeypatch,
                                                  capsys):
    calls = []
    real = templates.repetition_check

    def counting(T, q, avoid):
        calls.append(q)
        return real(T, q, avoid)

    monkeypatch.setattr(templates, "repetition_check", counting)
    assert dispatch(["template-check", template_file, "--avoid", "3,3",
                     "--reps", "5"]) == 0
    assert calls == [1, 2, 3, 4, 5]
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == [f"repetition q={q}: ok" for q in range(1, 6)] + ["PASS"]


def test_template_check_stops_at_first_failure(template_file, capsys):
    assert dispatch(["template-check", template_file, "--avoid", "3,2",
                     "--reps", "4"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "template order 10, phi 4",
        "repetition q=1: FAIL, colour 2 clique on base lengths [2]",
        "FAIL",
    ]


def test_template_check_rainbow_failure(template_file, capsys):
    assert dispatch(["template-check", template_file, "--avoid", "3,2",
                     "--reps", "0", "--rainbow-n", "2"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["rainbow compound: FAIL, colour 2", "FAIL"]


def test_template_check_prints_tf_triangle(tmp_path, capsys):
    path = str(tmp_path / "triangle.json")
    save_colouring(LengthColouring("linear", 6, 2, (1, 2, 2, 1, 2),
                                   template_colour=2), path)
    assert dispatch(["template-check", path, "--avoid", "3"]) == 1
    assert capsys.readouterr().out == \
        "not a template: colour 2 has the triangle lengths (2, 3, 5)\n"


@pytest.mark.parametrize("argv", [
    ["construct", "product", "--a", "{c5}"],
    ["construct", "song", "--b", "{c5}"],
    ["construct", "template", "--a", "{c5}"],
    ["construct", "product"],
])
def test_construct_missing_operand_exit_2(argv, pentagon_file, capsys):
    argv = [a.format(c5=pentagon_file) for a in argv]
    assert dispatch(argv) == 2
    assert "missing operand" in capsys.readouterr().err


def test_encode_cyclic_without_order_exit_2(capsys):
    assert dispatch(["encode", "cyclic", "--avoid", "3,3"]) == 2
    assert "missing operand 'order'" in capsys.readouterr().err


def test_encode_extension_without_t_exit_2(pentagon_file, capsys):
    assert dispatch(["encode", "extension", "--prototype", pentagon_file,
                     "--avoid", "3,3,3"]) == 2
    assert "missing operand 't'" in capsys.readouterr().err


@pytest.mark.parametrize("rule, a, b, q", [
    ("template", DOUBLED_PENTAGON, pentagon(), None),
    ("template", pentagon(), pentagon(), None),
    ("product", pentagon(), pentagon(), None),
    ("song", pentagon(), pentagon(), None),
    ("paley", None, None, 13),
])
def test_construct_cli_pipeline_parity(rule, a, b, q, tmp_path, monkeypatch,
                                       capsys):
    operands = {name: c for name, c in (("a", a), ("b", b)) if c is not None}
    argv = ["construct", rule, "--no-verify"]
    for name, c in operands.items():
        path = str(tmp_path / f"{name}.json")
        save_colouring(c, path)
        argv += [f"--{name}", path]
    if q is not None:
        argv += ["--q", str(q)]
    assert dispatch(argv) == 0
    cli_out = capsys.readouterr().out

    built = []
    real = cli.construct
    monkeypatch.setattr(cli, "construct",
                        lambda *args: built.append(real(*args)) or built[-1])
    steps = [{"op": "colouring", "name": name,
              "inline": json.loads(serialize_colouring(c))}
             for name, c in operands.items()]
    steps.append({"op": "construct", "rule": rule, "name": "out", "q": q,
                  **{name: name for name in operands}})
    failed, log = run_pipeline({"steps": steps})
    assert failed == 0, log
    pipeline_out = replace(built[0], comment="unverified")
    assert serialize_colouring(pipeline_out) == cli_out


def test_pipeline_template_rule_honours_template_colour():
    # the doubled pentagon is already a template: order (10-1)(5-1) + 1 + 4
    steps = [{"op": "colouring", "name": "t",
              "inline": json.loads(serialize_colouring(DOUBLED_PENTAGON))},
             {"op": "colouring", "name": "c5", "builtin": "pentagon"},
             {"op": "construct", "rule": "template", "a": "t", "b": "c5",
              "name": "out"},
             {"op": "verify", "target": "out", "avoid": [3, 3, 3, 3]}]
    failed, log = run_pipeline({"steps": steps})
    assert failed == 0, log
    assert "built 'out' via template, order 41" in log[2]


def test_pipeline_missing_operand_fails_step():
    steps = [{"op": "colouring", "name": "c5", "builtin": "pentagon"},
             {"op": "construct", "rule": "product", "a": "c5", "name": "p"}]
    failed, log = run_pipeline({"steps": steps})
    assert failed == 2
    assert "missing operand 'b'" in log[-1]


def test_ledger_store_opened_from_another_directory(tmp_path, monkeypatch,
                                                    capsys):
    home, elsewhere = tmp_path / "a", tmp_path / "b"
    home.mkdir()
    elsewhere.mkdir()
    save_colouring(pentagon(), home / "c5.json")
    monkeypatch.chdir(home)
    assert dispatch(["ledger", "--store", "facts.jsonl", "add", "./c5.json",
                     "--avoid", "3,3", "--cyclic"]) == 0
    monkeypatch.chdir(elsewhere)
    store = os.path.join("..", "a", "facts.jsonl")
    capsys.readouterr()
    assert dispatch(["ledger", "--store", store, "best", "graph(3,3)"]) == 0
    assert "explicit: c5.json" in capsys.readouterr().out
    # a path typed from here is stored relative to the store as well
    assert dispatch(["ledger", "--store", store, "add",
                     os.path.join("..", "a", "c5.json"), "--avoid", "3,3"]) == 0
    paths = [json.loads(line)["certificate"]["path"]
             for line in open(store, encoding="utf-8")]
    assert paths == ["c5.json", "c5.json"]


def test_ledger_load_keeps_relative_store_bytes(tmp_path, monkeypatch):
    from ramseykit.ledger import Ledger

    save_colouring(pentagon(), tmp_path / "c5.json")
    store = tmp_path / "facts.jsonl"
    store.write_text(json.dumps({
        "id": 1, "kind": "graph_exists", "parameters": [3, 3], "value": 5,
        "certificate": {"type": "explicit", "path": "c5.json",
                        "verified": True},
        "flags": {"cyclic": True}}) + "\n")
    before = store.read_bytes()
    monkeypatch.chdir(tmp_path.parent)
    Ledger.load(str(store)).save(str(store))
    assert store.read_bytes() == before


def test_pipeline_use_store_takes_the_lock(store, capsys):
    done = threading.Event()

    def run():
        dispatch(["pipeline", "desk_scale_compounds", "--use-store"])
        done.set()

    with _locked_store(store):
        worker = threading.Thread(target=run)
        worker.start()
        # the pipeline waits for the lock: nothing is written meanwhile
        assert not done.wait(0.5)
        assert not os.path.exists(store)
    worker.join(60)
    assert done.is_set()
    assert os.path.exists(store)
