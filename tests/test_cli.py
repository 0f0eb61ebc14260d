import hashlib
import json
import os
import random
import re
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ramseykit import cli, cliques, colouring, sat, templates
from ramseykit.cli import _locked_store, dispatch, run_pipeline
from ramseykit.cliques import is_clique, max_clique_in_colour
from ramseykit.colouring import (
    ExplicitColouring,
    LengthColouring,
    cayley_table,
    expand_to_explicit,
    load_colouring,
    pentagon,
    save_colouring,
    serialize_colouring,
    single_edge,
)
from ramseykit.constructions import (
    paley_colouring,
    product_cyclic,
    product_linear,
    song_product,
)
from ramseykit.ledger import BoundFact, Ledger, LedgerError, load_seed_pack


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


@pytest.mark.parametrize("field", ["colours", "avoid"])
def test_verify_boolean_entries_exit_2(field, tmp_path, capsys):
    """true used to verify PASS, read as colour 1."""
    path = tmp_path / "bool.json"
    path.write_text('{"kind": "cyclic", "order": 5, "num_colours": 2, '
                    + ('"avoid": [3, 3], "colours": [true, 2]}'
                       if field == "colours" else
                       '"avoid": [3, true], "colours": [1, 2]}'))
    assert dispatch(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: {path}: {field}: expected a list of integers\n"


@pytest.mark.parametrize("command", ["verify", "ledger"])
def test_refused_colouring_file_is_named(command, store, tmp_path, capsys):
    """A colouring file that does not parse is named in the refusal; the
    message once read only `order: missing required field`."""
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "cyclic"}')
    argv = (["verify", str(path)] if command == "verify"
            else ["ledger", "add", str(path)])
    assert dispatch([*argv, "--avoid", "3,3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"error: (.*): order: missing required field\n",
                        err)
    assert os.path.samefile(err[len("error: "):err.index(": order")], path)
    assert not os.path.exists(store)


@pytest.mark.parametrize("store_dir", [".", "sub"])
def test_ledger_add_refusal_names_the_path_as_typed(store_dir, tmp_path,
                                                    monkeypatch, capsys):
    """`ledger add` reads the file as typed, as `verify` does: with the
    store in the working directory its refusal once named `./bad.json`."""
    (tmp_path / "sub").mkdir()
    (tmp_path / "bad.json").write_text('{"kind": "cyclic"}')
    monkeypatch.chdir(tmp_path)
    store = os.path.join(store_dir, "refused.jsonl")
    assert dispatch(["ledger", "--store", store, "add", "bad.json",
                     "--avoid", "3,3"]) == 2
    assert capsys.readouterr() == \
        ("", "error: bad.json: order: missing required field\n")
    assert not os.path.exists(store)


@pytest.mark.parametrize("entry", [3, 2**32 + 1, 2**70])
def test_verify_explicit_colour_out_of_range_exit_2(entry, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "explicit", "order": 3, "num_colours": 2, '
                    f'"colours": [1, 2, {entry}]}}\n')
    assert dispatch(["verify", str(path), "--avoid", "3,3"]) == 2
    assert "entries must lie in 1..2" in capsys.readouterr().err


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


def test_decode_reads_solve_output(tmp_path, capsys):
    cnf = str(tmp_path / "c6.cnf")
    assert dispatch(["encode", "cyclic", "--order", "6",
                     "--avoid", "3,3", "--out", cnf]) == 0
    capsys.readouterr()
    assert dispatch(["solve", cnf]) == 1
    solved = tmp_path / "c6.out"
    solved.write_text(capsys.readouterr().out)
    assert dispatch(["decode", "--cnf", cnf, "--model", str(solved)]) == 1
    assert capsys.readouterr().out == "s UNSATISFIABLE\n"


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
    """Also perfbench's sat-search argv: its template-check jobs still pass
    `--reps 4`, which must keep exiting 0 until a benchmark change drops
    it."""
    proto = LengthColouring("cyclic", 8, 2, (1, 2, 2, 1))
    ppath = str(tmp_path / "proto8.json")
    save_colouring(proto, ppath)
    out = str(tmp_path / "found.json")
    code = dispatch(["search", "template", "--prototype", ppath,
                     "--t", "3", "--avoid", "3,4,3", "--out", out])
    assert code == 0
    assert dispatch(["verify", out, "--avoid", "3,4,3"]) == 0
    assert dispatch(["template-check", out, "--avoid", "3,4",
                     "--reps", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "template order 19, phi 7",
        "repetition q=1..3: ok, covers every prototype", "PASS"]


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
    assert dispatch(["pipeline", str(path), "--store"]) == 1
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
    # q* = ceil(((7-1)(9-1) - 4) / 9) = 5 for bounds (3, 7)
    assert dispatch(["template-check", template_file, "--avoid", "3,7"]) == 0
    assert calls == [1, 2, 4, 5]  # tilings nest: q = 3 is inside q = 4
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == ["repetition q=1..5: ok, covers every prototype", "PASS"]


def test_template_check_covers_every_prototype_order(tmp_path, capsys):
    """Colour 1 of the linear (3, 1, 1, 3) holds the lengths 2 and 3, so its
    2-fold tiling holds the triangle 0, 3, 6.  q* = ceil(6 / 4) = 2, so the
    check reaches it whatever --reps says."""
    path = str(tmp_path / "linear5.json")
    save_colouring(LengthColouring("linear", 5, 3, (3, 1, 1, 3),
                                   template_colour=3), path)
    for extra in ([], ["--reps", "1"]):
        assert dispatch(["template-check", path, "--avoid", "3,3",
                         *extra]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "template order 5, phi 0",
            "repetition q=2: FAIL, colour 1 clique on base lengths [2, 3]",
            "FAIL",
        ]


@pytest.mark.parametrize("argv", [
    ["template-check", "{t}", "--avoid", "3,3", "--reps", "0"],
    ["template-check", "{t}", "--avoid", "3,3", "--reps", "-2"],
])
def test_reps_is_hidden_and_ignored(argv, template_file, capsys):
    argv = [a.format(t=template_file) for a in argv]
    want = dispatch(argv[:-2]), capsys.readouterr()
    assert (dispatch(argv), capsys.readouterr()) == want
    assert dispatch([*argv[:-2], "--help"]) == 0
    assert "--reps" not in capsys.readouterr().out


@pytest.mark.parametrize("reps", ["0", "8"])
@pytest.mark.parametrize("avoid", ["3", "3,3,3,3"])
def test_template_check_wrong_avoid_length_exit_2(avoid, reps, template_file,
                                                  capsys):
    # --reps is ignored; the bounds must fit whatever it says
    assert dispatch(["template-check", template_file, "--avoid", avoid,
                     "--reps", reps]) == 2
    captured = capsys.readouterr()
    assert "avoid: expected 2 bounds" in captured.err
    assert "PASS" not in captured.out


def test_template_check_stops_at_first_failure(template_file, capsys):
    assert dispatch(["template-check", template_file, "--avoid", "3,2",
                     "--reps", "4"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "template order 10, phi 4",
        "repetition q=1: FAIL, colour 2 clique on base lengths [3]",
        "FAIL",
    ]


@pytest.mark.parametrize("argv", [
    ["template-check", "{t}", "--avoid", "3,3", "--rainbow-n", "4"],
    ["search", "template", "--prototype", "{c5}", "--t", "2",
     "--avoid", "3,3,3", "--rainbow-n", "4"],
])
def test_rainbow_n_is_not_an_option(argv, template_file, pentagon_file,
                                    capsys):
    argv = [a.format(t=template_file, c5=pentagon_file) for a in argv]
    assert dispatch(argv) == 2
    assert "unrecognized arguments: --rainbow-n" in capsys.readouterr().err


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


@pytest.fixture
def explicit_file(tmp_path):
    path = tmp_path / "e5.json"
    save_colouring(expand_to_explicit(pentagon()), path)
    return str(path)


@pytest.mark.parametrize("argv, what, operand", [
    (["construct", "product", "--a", "{e5}", "--b", "{c5}"],
     "construct product", "a"),
    (["construct", "template", "--a", "{c5}", "--b", "{e5}"],
     "construct template", "b"),
    (["search", "template", "--prototype", "{e5}", "--t", "2",
      "--avoid", "3,3,3"], "search template", "prototype"),
    (["encode", "extension", "--prototype", "{e5}", "--t", "2",
      "--avoid", "3,3,3"], "encode extension", "prototype"),
])
def test_explicit_operand_exit_2(argv, what, operand, explicit_file,
                                 pentagon_file, capsys):
    argv = [a.format(e5=explicit_file, c5=pentagon_file) for a in argv]
    assert dispatch(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {what}: operand {operand!r} must be a length colouring, "
        "not an explicit one\n")


def test_pipeline_explicit_operand_fails_step(explicit_file):
    steps = [{"op": "colouring", "name": "e5", "path": explicit_file},
             {"op": "colouring", "name": "c5", "builtin": "pentagon"},
             {"op": "construct", "rule": "product", "a": "c5", "b": "e5",
              "name": "p"}]
    failed, log = run_pipeline({"steps": steps})
    assert failed == 3
    assert log[-1] == ("step 3: error: construct product: operand 'b' must "
                       "be a length colouring, not an explicit one")


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


def test_ledger_store_reached_through_a_symlink(tmp_path, monkeypatch,
                                               capsys):
    """A certificate path is stored relative to where the store's
    directory resolves, since every load climbs from there: through
    w/s -> ../real/deep, `add` once stored 's/../c13.json' lexically and
    failed to read it back."""
    work, deep = tmp_path / "w", tmp_path / "real" / "deep"
    work.mkdir()
    deep.mkdir(parents=True)
    (work / "s").symlink_to(os.path.join("..", "real", "deep"))
    save_colouring(paley_colouring(13), work / "c13.json")
    monkeypatch.chdir(work)
    for cert in ("c13.json", str(work / "c13.json")):
        assert dispatch(["ledger", "--store", "s/facts.jsonl", "add", cert,
                         "--avoid", "4,4", "--cyclic"]) == 0
    paths = [json.loads(line)["certificate"]["path"]
             for line in open(deep / "facts.jsonl", encoding="utf-8")]
    assert paths == [os.path.join("..", "..", "w", "c13.json")]
    capsys.readouterr()
    assert dispatch(["ledger", "--store", "s/facts.jsonl", "best",
                     "graph(4,4)"]) == 0
    monkeypatch.chdir(deep)
    assert dispatch(["ledger", "--store", "facts.jsonl", "best",
                     "graph(4,4)"]) == 0
    assert capsys.readouterr().out.count("explicit: ../../w/c13.json") == 2


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
        dispatch(["pipeline", "desk_scale_compounds", "--store"])
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


_ASSERT_TEN = """
import os, sys, time
from ramseykit.cli import dispatch
store, tag, ready, other = sys.argv[1:]
open(ready, "w").close()
deadline = time.monotonic() + 60
while not os.path.exists(other) and time.monotonic() < deadline:
    time.sleep(0.005)
for i in range(10):
    code = dispatch(["ledger", "--store", store, "assert", "3,3,3",
                     str(20 + i), "--source", f"{tag} {i}"])
    if code != 0:
        sys.exit(code)
"""


def test_two_processes_assert_into_one_store(tmp_path):
    """Two writers, started together, each record ten facts: the store
    lock serialises them, so no fact is lost and ids stay 1..20."""
    import subprocess
    import sys

    from ramseykit.ledger import Ledger

    store = str(tmp_path / "facts.jsonl")
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    ready = [str(tmp_path / f"{tag}.ready") for tag in "ab"]
    procs = [subprocess.Popen([sys.executable, "-c", _ASSERT_TEN, store, tag,
                               ready[k], ready[1 - k]], env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
             for k, tag in enumerate("ab")]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    ledger = Ledger.load(store)
    assert [f.fact_id for f in ledger.facts] == list(range(1, 21))
    assert sorted(f.certificate["source"] for f in ledger.facts) == \
        sorted(f"{tag} {i}" for tag in "ab" for i in range(10))


@pytest.mark.parametrize("argv", [
    ["solve", "{cnf}", "--budget", "-1"],
    ["search", "template", "--prototype", "{c5}", "--t", "2",
     "--avoid", "3,3,3", "--budget", "-1"],
])
def test_negative_budget_exit_2(argv, pentagon_file, tmp_path, capsys):
    # the order-5 instance has no conflict, so a budget of -1 was never
    # consulted and `solve` reported SAT
    cnf = str(tmp_path / "c5.cnf")
    assert dispatch(["encode", "cyclic", "--order", "5",
                     "--avoid", "3,3", "--out", cnf]) == 0
    argv = [a.format(cnf=cnf, c5=pentagon_file) for a in argv]
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert "budget: must be >= 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["encode", "cyclic", "--order", "5", "--avoid", "3,3"],
    ["encode", "linear", "--order", "5", "--avoid", "3,3"],
    ["encode", "extension", "--prototype", "{c5}", "--t", "2",
     "--avoid", "3,3,3"],
], ids=["cyclic", "linear", "extension"])
def test_negative_clause_cap_exit_2(argv, pentagon_file, tmp_path, capsys):
    """A cap of -1 was accepted, then reported as exceeded; it is refused
    before any clique is listed, as a budget of -1 is."""
    out = tmp_path / "out.cnf"
    argv = [a.format(c5=pentagon_file) for a in argv]
    assert dispatch([*argv, "--clause-cap", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", "error: clause cap: must be >= 0, got -1\n")
    assert not out.exists()


def test_solve_reports_search_effort(tmp_path, capsys):
    cnf = str(tmp_path / "c14.cnf")
    assert dispatch(["encode", "cyclic", "--order", "14",
                     "--avoid", "3,3,3", "--out", cnf]) == 0
    result = sat.solve_internal(sat.encode_cyclic(14, (3, 3, 3)))
    capsys.readouterr()
    outs = []
    for _ in range(2):
        assert dispatch(["solve", cnf]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    lines = outs[0].splitlines()
    assert lines[:2] == [f"c conflicts {result.conflicts} "
                         f"decisions {result.decisions}", "s SAT"]
    solved = tmp_path / "c14.out"
    solved.write_text(outs[0])
    decoded = str(tmp_path / "c14.json")
    assert dispatch(["decode", "--cnf", cnf, "--model", str(solved),
                     "--out", decoded]) == 0
    assert dispatch(["verify", decoded, "--avoid", "3,3,3"]) == 0


@pytest.mark.parametrize("text, message", [
    ("", "no 'p cnf' header"),
    ("c only a comment\n1 -2 0\n", "clause before the 'p cnf' header"),
    ("p cnf 2 2\n1 -2 0\n", "declares 2 clauses, found 1"),
    ("p cnf 2 1\n1 3 0\n", "literal 3 outside the 2 declared variables"),
    ("p cnf 2 1\n1 0 2 0\n", "literal 0 outside the 2 declared variables"),
    ("p cnf 2\n1 0\n", "bad DIMACS header"),
    ("p cnf -1 0\n", "negative count in DIMACS header"),
    ("p cnf 2 -1\n", "negative count in DIMACS header"),
    ("c meta 5\np cnf 0 0\n", "bad 'c meta' line"),
    ('c meta {"kind": "cyclic", "order": 5, "avoid": [3, 3]}\np cnf 5 0\n',
     "declares 5 variables, 'c meta' and 'c fixed' give 4"),
    ("c fixed 1\np cnf 0 0\n", "error: bad 'c fixed' line: 'c fixed 1'\n"),
    ("c fixed x y\np cnf 0 0\n",
     "error: bad 'c fixed' line: 'c fixed x y'\n"),
    # the second line once replaced the first, and the file solved SAT
    ('c meta {"kind": "cyclic", "order": 5, "avoid": [3, 3]}\n'
     "c fixed 1 1\nc fixed 1 2\np cnf 2 0\n",
     "error: 'c fixed' line 'c fixed 1 2' fixes length 1 a second time\n"),
    # each of these once solved, or failed on the bare text of a Python error
    ("p cnf 2 1\n1 x 0\n", "error: bad DIMACS clause line: '1 x 0'\n"),
    ('c meta {"kind": "foo", "order": 5, "avoid": [3, 3]}\np cnf 4 0\n',
     "error: 'c meta' kind 'foo' is not cyclic, linear or extension\n"),
    ('c meta {"kind": "foo", "order": 5, "avoid": [3, 3], '
     '"prototype_order": 2, "t": 1}\np cnf 4 0\n',
     "error: 'c meta' kind 'foo' is not cyclic, linear or extension\n"),
    ('c meta {"kind": "extension", "order": 7, "avoid": [3, 3], '
     '"prototype_order": 3, "t": true}\np cnf 4 0\n',
     "error: 'c meta' t must be an integer, got True\n"),
    ('c meta {"kind": "extension", "order": 7, "avoid": [3, 3], '
     '"prototype_order": 3}\np cnf 4 0\n',
     "error: 'c meta' t must be an integer, got None\n"),
    ('c meta {"kind": "extension", "order": 7, "avoid": [3, 3], '
     '"prototype_order": 2, "t": 1}\np cnf 4 0\n',
     "error: 'c meta' order 7 is not 2 * prototype_order + t, both >= 1\n"),
    ('c meta {"kind": "cyclic", "order": 5, "avoid": [3, 3], '
     '"template_colour": "2"}\np cnf 4 0\n',
     "error: 'c meta' template_colour must be an integer, got '2'\n"),
    ('c meta {"kind": "cyclic", "order": 5, "avoid": [3, 3]}\n'
     "c fixed 1 7\np cnf 2 0\n",
     "error: 'c fixed' line 'c fixed 1 7': colour 7 out of range 1..2\n"),
    ('c meta {"kind": "cyclic", "order": 5, "avoid": [3, 3]}\n'
     "c fixed 9 1\np cnf 4 0\n",
     "error: 'c fixed' line 'c fixed 9 1': length 9 is not a canonical "
     "length of order 5\n"),
    ('c meta {"kind": "cyclic", "order": 5, "avoid": [3, 3]}\n'
     "c fixed 4 1\np cnf 2 0\n",
     "error: 'c fixed' line 'c fixed 4 1': length 4 is not a canonical "
     "length of order 5\n"),
], ids=["empty", "no-header", "clause-count", "variable-range",
        "zero-literal", "short-header", "negative-variables",
        "negative-clauses", "meta-not-object", "variable-count",
        "fixed-one-value", "fixed-not-int", "fixed-twice", "clause-token",
        "meta-kind", "meta-kind-with-extension-fields", "meta-t-bool",
        "meta-t-missing", "meta-extension-order", "meta-template-colour",
        "fixed-colour", "fixed-length-past-order", "fixed-length-folded"])
def test_solve_rejects_malformed_dimacs(text, message, tmp_path, capsys):
    cnf = tmp_path / "bad.cnf"
    cnf.write_text(text)
    assert dispatch(["solve", str(cnf)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "s SAT" not in captured.out


# order and avoid of a `c meta` line, as JSON; bool is not an int here
_BAD_META_TYPES = {
    "avoid-strings": ("5", '["a", "b"]'), "avoid-null": ("5", "[null, 3]"),
    "avoid-float": ("5", "[3.5, 3]"), "avoid-bool": ("5", "[true, 3]"),
    "avoid-zero": ("5", "[0, 3]"), "order-string": ('"5"', "[3, 3]"),
    "order-float": ("5.0", "[3, 3]"), "order-bool": ("true", "[3, 3]"),
}
# the message of each: colouring.clique_bounds reads the avoid,
# read_dimacs checks the order
_BAD_META_MESSAGES = {
    name: ("avoid: clique bound 0 below 1" if name == "avoid-zero"
           else "avoid: expected a list of integers"
           if name.startswith("avoid") else "needs int order and avoid >= 1")
    for name in _BAD_META_TYPES}


@pytest.mark.parametrize("text, message", [
    ('c meta {"kind": "cyclic", "order": 3000000, "avoid": [3, 3]}\n'
     'p cnf 2 0\n', "declares 2 variables, too few for 'c meta' order"),
    ('c meta {"kind": "linear", "order": 9, "avoid": [3]}\nc fixed 1 1\n'
     'p cnf 2 0\n', "declares 2 variables, too few for 'c meta' order 9"),
    ('c meta {"kind": "cyclic", "order": 5, "avoid": []}\np cnf 0 0\n',
     "avoid: at least one clique bound is needed"),
] + [(f'c meta {{"kind": "cyclic", "order": {order}, "avoid": {avoid}}}\n'
      'p cnf 4 0\n', _BAD_META_MESSAGES[name])
     for name, (order, avoid) in _BAD_META_TYPES.items()],
    ids=["huge-order", "linear-order", "empty-avoid", *_BAD_META_TYPES])
def test_solve_rejects_meta_before_building_var_map(text, message, tmp_path,
                                                    capsys, monkeypatch):
    """A `c meta` order the header's variables cannot cover, or an empty
    avoid, exits 2 before the var map is sized by that order."""
    def refuse(*args, **kwargs):
        raise AssertionError("var map built from an impossible 'c meta'")

    monkeypatch.setattr(sat, "_var_map", refuse)
    cnf = tmp_path / "bad.cnf"
    cnf.write_text(text)
    assert dispatch(["solve", str(cnf)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("order, avoid, message",
                         [(*_BAD_META_TYPES[name], _BAD_META_MESSAGES[name])
                          for name in _BAD_META_TYPES], ids=_BAD_META_TYPES)
def test_decode_rejects_meta_types(order, avoid, message, tmp_path, capsys):
    """A model decodes against a `c meta` of the wrong types to exit 2,
    not to a traceback from the clique check."""
    cnf, model = tmp_path / "bad.cnf", tmp_path / "model.txt"
    cnf.write_text(f'c meta {{"kind": "cyclic", "order": {order}, '
                   f'"avoid": {avoid}}}\np cnf 4 0\n')
    model.write_text("s SATISFIABLE\nv 1 -2 3 -4 0\n")
    assert dispatch(["decode", "--cnf", str(cnf), "--model", str(model)]) == 2
    assert message in capsys.readouterr().err


def test_decode_without_meta_names_the_missing_line(tmp_path, capsys):
    """A CNF without `c meta` can be solved but not decoded; decode once
    ended in "variable 1 out of range"."""
    cnf, model = tmp_path / "plain.cnf", tmp_path / "model.txt"
    cnf.write_text("p cnf 2 1\n1 2 0\n")
    model.write_text("s SATISFIABLE\nv 1 -2 0\n")
    assert dispatch(["solve", str(cnf)]) == 0
    capsys.readouterr()
    assert dispatch(["decode", "--cnf", str(cnf), "--model", str(model)]) == 2
    assert capsys.readouterr().err == ("error: no 'c meta' line, so the "
                                       "model cannot be decoded\n")


def test_solve_dev_null_is_not_satisfiable(capsys):
    assert dispatch(["solve", os.devnull]) == 2
    assert capsys.readouterr().out == ""


def test_ledger_derive_takes_r2_as_r3(store, capsys):
    """`--rules` reads names through the same folding as stored facts: r2
    names r3, as a stored r2 fact is recomputed as r3; r12 names nothing."""
    stores = []
    for rules in ("r3", "r2", "r2,r3"):
        if os.path.exists(store):
            os.remove(store)
        assert dispatch(["ledger", "seed"]) == 0
        assert dispatch(["ledger", "derive", "--rules", rules,
                         "--depth", "2"]) == 0
        with open(store, "rb") as f:
            stores.append(f.read())
    assert b'"r2"' not in stores[0]
    assert stores == [stores[0]] * 3
    capsys.readouterr()
    assert dispatch(["ledger", "derive", "--rules", "r12"]) == 2
    assert "unknown rule 'r12'" in capsys.readouterr().err


@pytest.mark.parametrize("rules", ["", "r3,,r7"], ids=["empty", "empty-name"])
def test_ledger_derive_empty_rule_name_exits_2(rules, store, capsys):
    """`--rules ''` once ran every rule, as if no option were given."""
    assert dispatch(["ledger", "seed"]) == 0
    with open(store, "rb") as f:
        before = f.read()
    capsys.readouterr()
    assert dispatch(["ledger", "derive", "--rules", rules]) == 2
    assert capsys.readouterr() == ("", "error: unknown rule ''\n")
    with open(store, "rb") as f:
        assert f.read() == before


def test_pipeline_empty_rules_runs_no_rule(tmp_path, capsys):
    recipe = tmp_path / "r.json"
    recipe.write_text(json.dumps({"name": "r", "steps": [
        {"op": "seed"}, {"op": "derive", "rules": []}]}))
    assert dispatch(["pipeline", str(recipe)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "step 2: derived 0 facts"


def test_ledger_derive_takes_r4_as_r3(store, capsys):
    stores = []
    for rules in ("r3", "r4", "r3,r4", "r4,r3,r4"):
        if os.path.exists(store):
            os.remove(store)
        assert dispatch(["ledger", "seed"]) == 0
        assert dispatch(["ledger", "derive", "--rules", rules,
                         "--depth", "2"]) == 0
        with open(store, "rb") as f:
            stores.append(f.read())
    assert b'"rule": "r3"' in stores[0]
    assert b'"r4"' not in stores[0]
    assert stores == [stores[0]] * 4


def test_ledger_derive_negative_depth_exits_2(store, capsys):
    assert dispatch(["ledger", "seed"]) == 0
    with open(store, "rb") as f:
        before = f.read()
    capsys.readouterr()
    assert dispatch(["ledger", "derive", "--depth", "-1"]) == 2
    captured = capsys.readouterr()
    assert "depth: must be >= 0, got -1" in captured.err
    assert captured.out == ""
    with open(store, "rb") as f:
        assert f.read() == before


def test_pipeline_negative_derive_depth_fails(store, tmp_path, capsys):
    assert dispatch(["ledger", "seed"]) == 0
    with open(store, "rb") as f:
        before = f.read()
    recipe = {"name": "deep", "steps": [
        {"op": "derive", "rules": ["r7"], "depth": 1},
        {"op": "derive", "depth": -1},
    ]}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(recipe))
    capsys.readouterr()
    assert dispatch(["pipeline", str(path), "--store"]) == 1
    assert "step 2: error: depth: must be >= 0, got -1" in \
        capsys.readouterr().out
    with open(store, "rb") as f:
        assert f.read() == before


def _song_p29_c5(tmp_path, capsys) -> str:
    """Paley 29 x C5 (order 145, bounds (9, 9)), built by the CLI."""
    p29 = paley_colouring(29)
    save_colouring(LengthColouring("cyclic", 29, 2, p29.colour_of,
                                   avoid=(5, 5)), tmp_path / "p29.json")
    save_colouring(pentagon(), tmp_path / "c5.json")
    s145 = str(tmp_path / "s145.json")
    assert dispatch(["construct", "song", "--a", str(tmp_path / "p29.json"),
                     "--b", str(tmp_path / "c5.json"), "--out", s145]) == 0
    capsys.readouterr()
    return s145


def test_explicit_grid_product_witnesses_are_pinned(tmp_path, capsys):
    """The grid product Paley 29 x C5 has a Cayley table, so verify
    searches it through vertex 0; the full search stays its oracle, with
    the witness it has always found."""
    s145 = _song_p29_c5(tmp_path, capsys)
    g = load_colouring(s145)
    assert cayley_table(g).shape == (29, 5)
    oracle = [max_clique_in_colour(g, s) for s in (1, 2)]
    assert oracle[0] == (8, (113, 114, 118, 119, 138, 139, 143, 144))
    assert dispatch(["verify", s145, "--exact", "--witness"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for s, (size, _) in enumerate(oracle, start=1):
        head = lines.index(f"colour {s}: max clique = {size} (bound 9) ok")
        wit = json.loads(lines[head + 1].split(": ", 1)[1])
        assert len(wit) == size and wit[0] == 0 and is_clique(g, s, wit)


def test_untransitive_explicit_verify_output_is_pinned(tmp_path, capsys):
    """An explicit colouring with no Cayley table keeps the full search:
    verify's output on Paley 13 x C5 under a shuffled vertex numbering is
    byte-for-byte that of the full search alone."""
    g = song_product(expand_to_explicit(paley_colouring(13)),
                     expand_to_explicit(pentagon()))
    perm = list(range(g.order))
    random.Random(65).shuffle(perm)
    h = ExplicitColouring(g.order, 2, g.edge_colour[np.ix_(perm, perm)],
                          avoid=(7, 7))
    assert cayley_table(h) is None
    path = str(tmp_path / "r65.json")
    save_colouring(h, path)
    assert dispatch(["verify", path, "--exact", "--witness"]) == 0
    out = capsys.readouterr().out
    assert "witness: [54, 56, 60, 61, 63, 64]" in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "22869cb4415ac496c81fcab14782e6754a1e426b0e41599273f9956867bbc263")


def test_ledger_commands_never_search_a_transitive_certificate(
        store, tmp_path, capsys, monkeypatch):
    """A store holding the P29 x C5 certificate loads, answers and adds
    without the full search: its re-verification goes through vertex 0."""
    s145 = _song_p29_c5(tmp_path, capsys)

    def refuse(*args, **kwargs):
        raise AssertionError("transitive certificate took the full search")

    monkeypatch.setattr(cliques, "max_clique_in_colour", refuse)
    assert dispatch(["ledger", "add", s145, "--avoid", "9,9"]) == 0
    capsys.readouterr()
    assert dispatch(["ledger", "best", "graph(9,9)"]) == 0
    assert "145" in capsys.readouterr().out
    save_colouring(pentagon(), tmp_path / "c5.json")
    assert dispatch(["ledger", "add", str(tmp_path / "c5.json"),
                     "--avoid", "3,3", "--cyclic"]) == 0
    assert len(_stored_flags(store)) == 2


def _stored_flags(store):
    return [json.loads(line)["flags"] for line in open(store, encoding="utf-8")]


def test_ledger_add_rejects_false_cyclic_flag(store, tmp_path, capsys):
    # a (3,3) colouring whose lengths 1 and 3 differ has no cyclic form
    path = str(tmp_path / "lin4.json")
    save_colouring(LengthColouring("linear", 4, 2, (1, 2, 2)), path)
    assert dispatch(["ledger", "add", path, "--avoid", "3,3",
                     "--cyclic"]) == 2
    assert "not cyclic-symmetric" in capsys.readouterr().err
    assert not os.path.exists(store)
    assert dispatch(["ledger", "add", path, "--avoid", "3,3"]) == 0
    assert _stored_flags(store) == [{"linear": True}]


def test_ledger_add_explicit_stores_no_shape_flag(store, tmp_path, capsys):
    grid = str(tmp_path / "grid.json")
    save_colouring(song_product(expand_to_explicit(pentagon()),
                                expand_to_explicit(pentagon())), grid)
    assert dispatch(["ledger", "add", grid, "--avoid", "5,5"]) == 0
    assert _stored_flags(store) == [{}]
    # a grid product is not circulant
    assert dispatch(["ledger", "add", grid, "--avoid", "5,5",
                     "--cyclic"]) == 2
    # an expanded cyclic colouring is, and keeps its flag
    circulant = str(tmp_path / "c5x.json")
    save_colouring(expand_to_explicit(pentagon()), circulant)
    assert dispatch(["ledger", "add", circulant, "--avoid", "3,3",
                     "--cyclic"]) == 0
    assert _stored_flags(store) == [{}, {"cyclic": True}]


def test_ledger_load_rejects_linear_flag_on_explicit(store, tmp_path, capsys):
    grid = tmp_path / "grid.json"
    save_colouring(song_product(expand_to_explicit(pentagon()),
                                expand_to_explicit(pentagon())), grid)
    with open(store, "w", encoding="utf-8") as f:
        f.write(json.dumps({
            "id": 1, "kind": "graph_exists", "parameters": [5, 5],
            "value": 25, "certificate": {"type": "explicit",
                                         "path": "grid.json"},
            "flags": {"linear": True}}) + "\n")
    assert dispatch(["ledger", "best", "graph(5,5)"]) == 2
    assert "flagged linear but its colouring is explicit" in \
        capsys.readouterr().err


def test_ledger_session_certificates_still_add(store, tmp_path, capsys):
    c5 = pentagon()
    certs = [(paley_colouring(q), f"{w},{w}", True)
             for q, w in ((17, 4), (29, 5), (37, 5), (41, 6), (101, 6))]
    certs += [(product_cyclic(c5, c5), "3,3,3,3", True),
              (product_linear(c5, single_edge()), "3,3,3", False),
              (product_cyclic(paley_colouring(13), c5), "4,4,3,3", True)]
    for i, (c, avoid, cyclic) in enumerate(certs):
        path = str(tmp_path / f"cert{i}.json")
        save_colouring(c, path)
        assert dispatch(["ledger", "add", path, "--avoid", avoid,
                         *(["--cyclic"] if cyclic else [])]) == 0
    assert _stored_flags(store) == [
        {"cyclic": True} if cyclic else {"linear": True}
        for _, _, cyclic in certs]
    assert dispatch(["ledger", "best", "graph(6,6)"]) == 0


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_shared_parser_keeps_no_option_between_calls(pentagon_file, capsys):
    assert dispatch(["verify", pentagon_file, "--avoid", "2,2", "--exact"]) == 1
    assert "colour 1: max clique = 2" in capsys.readouterr().out
    assert dispatch(["verify", pentagon_file, "--avoid", "2,2"]) == 1
    assert "colour 1: max clique >= 2" in capsys.readouterr().out


_ASSERTED = '"certificate": {"type": "asserted", "source": "s"}'


_NOT_A_FACT = "a fact needs a list of integer parameters, a certificate " \
    "object and a flags object"
_BAD_GAMMA = "a gamma value needs a [num, den] base of integers, den != 0, " \
    "and an integer root"


_NOT_FACT_LINES = [
    ("[1, 2]", "store line [1, 2] is not a fact object"),
    ("5", "store line 5 is not a fact object"),
    ('{"id": 1, "kind": "graph_exists", "parameters": [3, 3], "value": 5, '
     f'{_ASSERTED}, "flags": []}}', _NOT_A_FACT),
    ('{"id": 1, "kind": "graph_exists", "parameters": [3, 3], "value": 5, '
     f'{_ASSERTED}, "flags": {{"special_degree_index": "0"}}}}',
     "special_degree_index must be a position in (3, 3), got '0'"),
    ('{"id": 1, "kind": "graph_exists", "parameters": [3, 3], "value": 5, '
     '"certificate": "asserted", "flags": {}}', _NOT_A_FACT),
    ('{"id": 1, "kind": "graph_exists", "parameters": 5, "value": 5, '
     f'{_ASSERTED}, "flags": {{}}}}', _NOT_A_FACT),
    ('{"id": 1, "kind": "gamma_lower_bound", "parameters": [3], '
     f'"value": {{"root": 2}}, {_ASSERTED}, "flags": {{}}}}', _BAD_GAMMA),
    ('{"id": 1, "kind": "gamma_lower_bound", "parameters": [3], '
     f'"value": {{"base": 5, "root": 2}}, {_ASSERTED}, "flags": {{}}}}',
     _BAD_GAMMA),
    ('{"id": 1, "kind": "gamma_lower_bound", "parameters": [3], '
     f'"value": {{"base": [5, 0], "root": 2}}, {_ASSERTED}, "flags": {{}}}}',
     _BAD_GAMMA),
    ('{"id": 1, "kind": "ramsey_lower_bound", "parameters": [3, 3], '
     '"value": 6, "certificate": {"type": "derived", "rule": "r7", '
     '"parents": 5}, "flags": {}}',
     "a derived certificate needs a list of integer parent ids"),
    ('{"id": 1, "kind": "graph_exists", "parameters": [3, 3], "value": 5, '
     '"certificate": {"type": "explicit", "path": 5}, "flags": {}}',
     "an explicit certificate needs a string path"),
    ('{"id": 1, "kind": "graph_exists", "parameters": [3, 3], "value": 5, '
     '"certificate": {"type": "asserted"}, "flags": {}}',
     "an asserted certificate needs a string source"),
    ('{"id": 1, "kind": "graph_exists", "parameters": [3, 3], '
     f'"value": true, {_ASSERTED}, "flags": {{}}}}',
     "fact value True is not a number"),
    ('{"id": true, "kind": "graph_exists", "parameters": [3, 3], "value": 5, '
     f'{_ASSERTED}, "flags": {{}}}}', "fact id True is not an integer"),
    ('{"id": 1, "kind": "graph_exists", "parameters": [3, 3], "value": 5, '
     f'{_ASSERTED}, "flags": {{"template": true, "phi": "x"}}}}',
     "phi must be an integer >= 0, got 'x'"),
    ('{"id": 1, "kind": "graph_exists", "parameters": [3, 3], "value": 5, '
     f'{_ASSERTED}, "flags": {{"special_degree": "x", '
     '"special_degree_index": 0}}',
     "special_degree must be an integer >= 1, got 'x'"),
    ('{"id": 1, "kind": "ramsey_lower_bound", "parameters": [3, 3], '
     '"value": 6, "certificate": {"type": "derived", "rule": ["r7"], '
     '"parents": []}, "flags": {}}',
     "a derived certificate needs a string rule"),
    # a rule is checked wherever it is present: dominance_key hashes it
    ('{"id": 1, "kind": "graph_exists", "parameters": [3, 3], "value": 5, '
     '"certificate": {"type": "asserted", "source": "s", "rule": ["x"]}, '
     '"flags": {}}', "a derived certificate needs a string rule"),
    (f'{{"id": 1, "parameters": [3, 3], "value": 5, {_ASSERTED}, '
     '"flags": {}}', "a fact needs a 'kind' field"),
    (f'{{"id": 1, "kind": "graph_exists", "parameters": [3, 3], {_ASSERTED}, '
     '"flags": {}}', "a fact needs a 'value' field"),
    # an unhashable type once ended in a TypeError traceback
    ('{"id": 1, "kind": "graph_exists", "parameters": [3, 3], "value": 5, '
     '"certificate": {"type": ["asserted"]}, "flags": {}}',
     "unknown certificate type ['asserted']"),
]
_NOT_FACT_IDS = ["list", "number", "flags-list", "index-string",
                 "certificate-string", "parameters-int", "gamma-no-base",
                 "gamma-base-int", "gamma-zero-den", "parents-int", "path-int",
                 "asserted-no-source",
                 "value-bool", "id-bool", "phi-string", "degree-string",
                 "rule-list", "asserted-rule-list", "no-kind", "no-value",
                 "type-list"]


@pytest.mark.parametrize("line, message", _NOT_FACT_LINES, ids=_NOT_FACT_IDS)
def test_store_line_that_is_not_a_fact_exits_2(line, message, tmp_path,
                                                capsys):
    """Each refusal names what is wrong, not the bare text of a KeyError."""
    path = tmp_path / "facts.jsonl"
    path.write_text(line + "\n")
    assert dispatch(["ledger", "--store", str(path), "best",
                     "graph(3,3)"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


_FACT = ('{"id": 1, "kind": "graph_exists", "parameters": [3, 3], '
         f'"value": 5, {_ASSERTED}, "flags": {{}}}}')


@pytest.mark.parametrize("text", [
    _FACT + ' {"id": 2}\n',
    _FACT.replace('"value"', '\n"value"') + "\n",
], ids=["extra-data", "split-fact"])
def test_store_line_that_is_not_one_object_exits_2(text, tmp_path, capsys):
    """Each store line holds exactly one fact: data after it, or a fact
    split over two lines (which joined would load), is refused with json's
    own message after the store and the line's number, and even a command
    that saves leaves the store as it was."""
    first = text.splitlines()[0].strip()  # as the reader reads it
    with pytest.raises(json.JSONDecodeError) as refusal:
        json.loads(first)
    path = tmp_path / "facts.jsonl"
    path.write_text(text)
    assert dispatch(["ledger", "--store", str(path), "derive"]) == 2
    assert capsys.readouterr().err == f"error: {path}:1: {refusal.value}\n"
    assert path.read_text() == text


@pytest.mark.parametrize("argv", [
    ["seed"], ["derive"], ["best", "graph(3,3)"],
    ["table", "--k", "3", "--r", "2"], ["add", "{c5}", "--avoid", "3,3"],
    ["assert", "3,3", "5", "--source", "s"],
], ids=["seed", "derive", "best", "table", "add", "assert"])
def test_store_line_that_is_not_json_is_named(argv, pentagon_file, tmp_path,
                                              capsys):
    """A line that is not JSON is named by the store and its number, which
    counts the lines a fact can be on, as a fact's id does, before json's
    own message, which alone once named line 1 of no file."""
    path = tmp_path / "facts.jsonl"
    text = _FACT + "\n\nnot json\n"
    path.write_text(text)
    argv = [a.format(c5=pentagon_file) for a in argv]
    assert dispatch(["ledger", "--store", str(path), *argv]) == 2
    assert capsys.readouterr() == (
        "", f"error: {path}:2: Expecting value: line 1 column 1 (char 0)\n")
    assert path.read_text() == text


@pytest.mark.parametrize("text", ['{"kind": "cyclic"}', None],
                         ids=["no-order", "truncated"])
def test_stored_certificate_that_no_longer_parses_is_named(
        text, pentagon_file, tmp_path, capsys):
    """A stored certificate overwritten with what no colouring reader
    accepts is named once, by the path it was read from: the colouring
    reader's bare message once named no file."""
    path = tmp_path / "facts.jsonl"
    args = ["ledger", "--store", str(path)]
    assert dispatch([*args, "add", pentagon_file, "--avoid", "3,3",
                     "--cyclic"]) == 0
    c5 = Path(pentagon_file)
    if text is None:
        text = c5.read_text()[:40]
    c5.write_text(text)
    with pytest.raises(colouring.ColouringError) as refusal:
        colouring.parse_colouring(text)
    before = path.read_bytes()
    capsys.readouterr()
    assert dispatch([*args, "best", "graph(3,3)"]) == 2
    assert capsys.readouterr() == (
        "", f"error: certificate {tmp_path / 'pentagon.json'}: "
        f"{refusal.value}\n")
    assert path.read_bytes() == before


# the rows that refuse a fact's field, which BoundFact checks: the store
# reader only decodes the line
_FIELD_ROWS = ["flags-list", "certificate-string", "parameters-int",
               "value-bool", "id-bool", "index-string", "phi-string",
               "degree-string"]


@pytest.mark.parametrize("line, message", [
    dict(zip(_NOT_FACT_IDS, _NOT_FACT_LINES))[name] for name in _FIELD_ROWS],
    ids=_FIELD_ROWS)
def test_bound_fact_refuses_what_the_store_reader_refuses(line, message):
    """The same fields given to `BoundFact` end in the same LedgerError:
    a library fact with a boolean value, or a list of flags, was once
    built, and `add_fact` stored it or raised an AttributeError."""
    obj = json.loads(line)
    with pytest.raises(LedgerError, match=f"^{re.escape(message)}$"):
        BoundFact(obj["kind"], obj["parameters"], obj["value"],
                  obj["certificate"], obj["flags"], obj["id"])


@pytest.mark.parametrize("field", ["kind", "value"])
def test_store_line_without_a_field_names_it(field, tmp_path, capsys):
    """A missing field once ended in the bare text of a KeyError."""
    fact = {"id": 1, "kind": "graph_exists", "parameters": [3, 3],
            "value": 5, "certificate": {"type": "asserted", "source": "s"},
            "flags": {}}
    del fact[field]
    path = tmp_path / "facts.jsonl"
    path.write_text(json.dumps(fact) + "\n")
    assert dispatch(["ledger", "--store", str(path), "best",
                     "graph(3,3)"]) == 2
    assert capsys.readouterr().err == (f"error: a fact needs a {field!r} "
                                       "field\n")


@pytest.mark.parametrize("argv", [["best", "graph(3,3)"],
                                  ["derive", "--rules", "r7", "--depth", "1"]],
                         ids=["best", "derive"])
def test_asserted_certificate_without_a_source_names_it(argv, tmp_path,
                                                        capsys):
    """Such a line once loaded, and `ledger best` then ended in the bare
    text of a KeyError, "error: 'source'"."""
    path = tmp_path / "facts.jsonl"
    path.write_text(json.dumps({
        "id": 1, "kind": "graph_exists", "parameters": [3, 3], "value": 5,
        "certificate": {"type": "asserted"}, "flags": {}}) + "\n")
    before = path.read_bytes()
    assert dispatch(["ledger", "--store", str(path), *argv]) == 2
    assert capsys.readouterr().err == \
        "error: an asserted certificate needs a string source\n"
    assert path.read_bytes() == before


def _gamma_line(fact_id, base, root):
    return json.dumps({"id": fact_id, "kind": "gamma_lower_bound",
                       "parameters": [3],
                       "value": {"base": base, "root": root},
                       "certificate": {"type": "asserted", "source": "s"},
                       "flags": {}})


@pytest.mark.parametrize("values, message", [
    ([([-82, 25], 2)], "gamma base must be >= 0, got -82/25"),
    ([([82, 25], 1), ([83, 25], 3_000_000)],
     "gamma root must be 1..64, got 3000000"),
], ids=["negative-base", "huge-root"])
def test_gamma_value_out_of_range_exits_2(values, message, tmp_path,
                                          capsys):
    """A negative base ended `ledger best` in a decimal traceback, and a
    root of 3,000,000 stalled it for seconds on one exact comparison."""
    path = tmp_path / "facts.jsonl"
    path.write_text("".join(_gamma_line(i, base, root) + "\n" for i, (
        base, root) in enumerate(values, start=1)))
    start = time.monotonic()
    assert dispatch(["ledger", "--store", str(path), "best",
                     "gamma(3)"]) == 2
    assert time.monotonic() - start < 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_assert_phi_needs_template(store, capsys):
    """--phi without --template used to store the fact without its phi."""
    argv = ["ledger", "assert", "3,3,3", "14", "--source", "s", "--phi", "4"]
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: phi applies only with template\n"
    assert not os.path.exists(store)
    assert dispatch([*argv, "--template"]) == 0
    with open(store) as f:
        assert json.loads(f.read())["flags"] == {"template": True, "phi": 4}


def test_assert_degree_index_needs_degree(store, capsys):
    """--degree-index without --degree used to be dropped, storing no
    flags; --degree alone stores index 0."""
    argv = ["ledger", "assert", "5,5,3", "20", "--source", "s"]
    assert dispatch([*argv, "--degree-index", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: special_degree_index applies only with special_degree\n"
    assert not os.path.exists(store)
    assert dispatch([*argv, "--degree", "7", "--degree-index", "2"]) == 0
    assert dispatch(["ledger", "assert", "5,5,3", "21", "--source", "s",
                     "--degree", "8"]) == 0
    with open(store) as f:
        assert [json.loads(line)["flags"] for line in f] == [
            {"special_degree": 7, "special_degree_index": 2},
            {"special_degree": 8, "special_degree_index": 0}]


_IMPOSSIBLE_FACTS = [
    # (assert arguments, the store line's value and flags, the error)
    pytest.param(["5,5,3", "0"], 0, {}, "graph order must be >= 1, got 0",
                 id="order-0"),
    pytest.param(["5,5,3", "-4"], -4, {}, "graph order must be >= 1, got -4",
                 id="order-negative"),
    pytest.param(["5,5,3", "93", "--template", "--phi", "-1"], 93,
                 {"template": True, "phi": -1},
                 "phi must be an integer >= 0, got -1", id="phi-negative"),
    pytest.param(["7,7,3", "673", "--degree", "0"], 673,
                 {"special_degree": 0, "special_degree_index": 0},
                 "special_degree must be an integer >= 1, got 0",
                 id="degree-0"),
    pytest.param(["3,-3", "5"], 5, {},
                 "clique bounds must be >= 1, got (3, -3)",
                 id="bound-negative"),
    pytest.param(["3,0", "5"], 5, {}, "clique bounds must be >= 1, got (3, 0)",
                 id="bound-0"),
]


@pytest.mark.parametrize("args, value, flags, message", _IMPOSSIBLE_FACTS)
def test_assert_refuses_an_impossible_fact(args, value, flags, message,
                                           store, capsys):
    """An order below 1 once reached r10 as a negative gamma base and
    ended the whole closure; the store is left as it was."""
    assert dispatch(["ledger", "assert", "3,3", "5", "--source", "s"]) == 0
    with open(store, "rb") as f:
        before = f.read()
    capsys.readouterr()
    assert dispatch(["ledger", "assert", *args[:2], "--source", "s",
                     *args[2:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    with open(store, "rb") as f:
        assert f.read() == before


# a Ramsey value below 1 breaks the monotonicity that dominance relies on:
# R(3,3) >= -5 once derived R(5,5) >= 37 and R(9,9) >= -215
@pytest.mark.parametrize("kind, args, value, flags, message", [
    pytest.param("graph_exists", *p.values, id=p.id)
    for p in _IMPOSSIBLE_FACTS] + [
    pytest.param("ramsey_lower_bound", ["3,3"], -5, {},
                 "Ramsey value must be >= 1, got -5", id="ramsey-negative"),
    pytest.param("ramsey_lower_bound", ["3,3"], 0, {},
                 "Ramsey value must be >= 1, got 0", id="ramsey-0"),
    pytest.param("ramsey_lower_bound", ["3,-3"], 6, {},
                 "clique bounds must be >= 1, got (3, -3)",
                 id="ramsey-bound-negative"),
    # a line without bounds once loaded, and r7 and r6 derived R() >= 6
    # and R() >= 26 from it
    pytest.param("graph_exists", [""], 5, {},
                 "a fact needs at least one clique bound", id="no-bounds"),
])
def test_store_line_with_an_impossible_fact_exits_2(kind, args, value, flags,
                                                    message, tmp_path,
                                                    capsys):
    path = tmp_path / "facts.jsonl"
    path.write_text(json.dumps(
        {"id": 1, "kind": kind,
         "parameters": [int(k) for k in args[0].split(",") if k],
         "value": value,
         "certificate": {"type": "asserted", "source": "s"},
         "flags": flags}) + "\n")
    before = path.read_bytes()
    assert dispatch(["ledger", "--store", str(path), "derive"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert path.read_bytes() == before

def _derived_store(path, r7_value, r1_value, r1_parents=(1,), r1_rule="r1"):
    """graph (3,3; 5), then R(3,3) by r7 and graph (3,3,3) by r1 from it;
    the true values are 6 and 15."""
    lines = [
        {"kind": "graph_exists", "parameters": [3, 3], "value": 5,
         "certificate": {"type": "asserted", "source": "s"},
         "flags": {"cyclic": True}},
        {"kind": "ramsey_lower_bound", "parameters": [3, 3],
         "value": r7_value, "certificate": {"type": "derived", "rule": "r7",
                                            "parents": [1]}, "flags": {}},
        {"kind": "graph_exists", "parameters": [3, 3, 3], "value": r1_value,
         "certificate": {"type": "derived", "rule": r1_rule,
                         "parents": list(r1_parents)},
         "flags": {"cyclic": True}},
    ]
    path.write_text("".join(json.dumps({"id": i, **line}) + "\n"
                            for i, line in enumerate(lines, start=1)))


@pytest.mark.parametrize("argv, forged", [
    (["best", "R(3,3)"], "r7"),
    (["best", "graph(3,3,3)"], "r1"),
    (["table", "--k", "3..3", "--r", "2..3"], "r1"),
])
def test_ledger_queries_recompute_what_they_print(argv, forged, tmp_path,
                                                  capsys):
    path = tmp_path / "facts.jsonl"
    _derived_store(path, 6, 15)
    assert dispatch(["ledger", "--store", str(path), *argv]) == 0
    capsys.readouterr()
    _derived_store(path, 1000 if forged == "r7" else 6,
                   1000 if forged == "r1" else 15)
    assert dispatch(["ledger", "--store", str(path), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: fact {2 if forged == 'r7' else 3}: "
                            f"not recomputable by rule {forged}\n")


def _forge_r9_store(path):
    """The seeded store after `derive --rules r7,r8,r9 --depth 3`, with r9's
    graph (8,8,8; 7173) edited to order 7174; its id."""
    args = ["ledger", "--store", str(path)]
    assert dispatch([*args, "seed"]) == 0
    assert dispatch([*args, "derive", "--rules", "r7,r8,r9", "--depth",
                     "3"]) == 0
    lines = path.read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        fact = json.loads(line)
        if (fact["parameters"], fact["value"]) == ([8, 8, 8], 7173):
            assert fact["certificate"]["rule"] == "r9"
            fact["value"] = 7174
            lines[i] = json.dumps(fact) + "\n"
            path.write_text("".join(lines))
            return fact["id"]
    raise AssertionError("no r9 fact (8,8,8; 7173)")


@pytest.mark.parametrize("via", ["best", "table", "expect"])
def test_every_printed_bound_recomputes_its_chain(via, tmp_path, capsys):
    """`ledger best`, `ledger table` and a pipeline `expect` step refuse a
    hand-edited derived fact alike: each reads its bound through
    `Ledger.proof`."""
    path = tmp_path / "facts.jsonl"
    fid = _forge_r9_store(path)
    before = path.read_bytes()
    capsys.readouterr()
    why = f"fact {fid}: not recomputable by rule r9"
    if via == "expect":
        recipe = tmp_path / "r.json"
        recipe.write_text(json.dumps({"steps": [
            {"op": "expect", "kind": "graph", "parameters": [8, 8, 8],
             "min_value": 7173}]}))
        assert dispatch(["pipeline", str(recipe), "--store",
                         str(path)]) == 1
        assert capsys.readouterr() == (
            f"step 1: error: {why}\npipeline stopped at step 1\n", "")
    else:
        argv = (["best", "graph(8,8,8)"] if via == "best"
                else ["table", "--k", "8", "--r", "3"])
        assert dispatch(["ledger", "--store", str(path), *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {why}\n")
    assert path.read_bytes() == before


def _stat(path):
    st = os.stat(path)
    return path.read_bytes(), st.st_mtime_ns, st.st_ino


def test_store_is_rewritten_only_when_facts_are_added(tmp_path, capsys):
    """A command that adds no fact leaves the store's bytes, file and
    modification time as they were; one that adds facts writes what a
    library save of the same facts writes."""
    path = tmp_path / "facts.jsonl"
    args = ["ledger", "--store", str(path)]
    recipe = tmp_path / "r.json"
    recipe.write_text(json.dumps({"steps": [{"op": "seed"}]}))
    want = Ledger()
    load_seed_pack(want)
    assert dispatch([*args, "seed"]) == 0
    want.save(tmp_path / "want.jsonl")
    assert path.read_bytes() == (tmp_path / "want.jsonl").read_bytes()
    assert dispatch([*args, "derive", "--rules", "r7", "--depth", "1"]) == 0
    assert want.derive_closure(rules=["r7"], depth=1)
    want.save(tmp_path / "want.jsonl")
    assert path.read_bytes() == (tmp_path / "want.jsonl").read_bytes()
    capsys.readouterr()
    os.utime(path, ns=(10**18, 10**18))  # a time no rewrite could keep
    before = _stat(path)
    for argv in ([*args, "seed"],
                 [*args, "derive", "--rules", "r7", "--depth", "1"],
                 ["pipeline", str(recipe), "--store",
                  str(path)]):
        assert dispatch(argv) == 0
        assert _stat(path) == before, argv
    assert capsys.readouterr().out == ("loaded 10 seed facts\n"
                                       "step 1: seeded 10 facts\n")


def _product_store(path, kind, flags):
    """graph (3,3; 5) flagged linear, then its r3 square (3,3,3,3; 41) with
    the given kind and flags; the true ones are graph_exists and linear."""
    lines = [
        {"kind": "graph_exists", "parameters": [3, 3], "value": 5,
         "certificate": {"type": "asserted", "source": "s"},
         "flags": {"linear": True}},
        {"kind": kind, "parameters": [3, 3, 3, 3], "value": 41,
         "certificate": {"type": "derived", "rule": "r3", "parents": [1, 1]},
         "flags": flags},
    ]
    path.write_text("".join(json.dumps({"id": i, **line}) + "\n"
                            for i, line in enumerate(lines, start=1)))


@pytest.mark.parametrize("kind, flags, query", [
    ("graph_exists", {"cyclic": True}, "graph(3,3,3,3)"),
    # only graph facts carry flags, so the forged kind comes without them
    ("ramsey_lower_bound", {}, "R(3,3,3,3)"),
], ids=["flags", "kind"])
def test_ledger_best_recomputes_a_products_kind_and_flags(kind, flags, query,
                                                          tmp_path, capsys):
    path = tmp_path / "facts.jsonl"
    store = ["ledger", "--store", str(path)]
    _product_store(path, "graph_exists", {"linear": True})
    assert dispatch([*store, "best", "graph(3,3,3,3)"]) == 0
    capsys.readouterr()
    _product_store(path, kind, flags)
    assert dispatch([*store, "best", query]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: fact 2: not recomputable by rule r3\n"
    if flags.get("cyclic"):
        # r1 extends the forged cyclic flag, but no chain through it is served
        assert dispatch([*store, "derive", "--rules", "r1", "--depth", "1"]) == 0
        capsys.readouterr()
        assert dispatch([*store, "best", "graph(3,3,3,3,3)"]) == 2
        assert "fact 2: not recomputable by rule r3" in capsys.readouterr().err


def test_pipeline_expectation_recomputes_its_fact(tmp_path, capsys):
    path = tmp_path / "facts.jsonl"
    recipe = tmp_path / "expect.json"
    recipe.write_text(json.dumps({"steps": [
        {"op": "expect", "kind": "R", "parameters": [3, 3],
         "min_value": 1000}]}))
    _derived_store(path, 1000, 15)
    assert dispatch(["pipeline", str(recipe), "--store", str(path)]) == 1
    assert "step 1: error: fact 2: not recomputable by rule r7" in \
        capsys.readouterr().out


def test_ledger_queries_check_only_the_chains_they_print(tmp_path, capsys):
    """The store loads whole; a forged fact that is not printed is not
    recomputed."""
    path = tmp_path / "facts.jsonl"
    _derived_store(path, 1000, 1000)
    for argv in (["best", "graph(3,3)"],
                 ["table", "--k", "3..3", "--r", "2..2"]):
        assert dispatch(["ledger", "--store", str(path), *argv]) == 0
    assert "5 (a)" in capsys.readouterr().out


@pytest.mark.parametrize("parents, rule", [((1, 1), "r1"), ((1,), "r99")])
def test_ledger_best_rejects_a_rule_that_cannot_apply(parents, rule,
                                                      tmp_path, capsys):
    path = tmp_path / "facts.jsonl"
    _derived_store(path, 6, 15, r1_parents=parents, r1_rule=rule)
    assert dispatch(["ledger", "--store", str(path), "best",
                     "graph(3,3,3)"]) == 2
    assert "not recomputable by rule" in capsys.readouterr().err


@pytest.mark.parametrize("recipe", [
    [], "steps", {"steps": 5}, {"steps": [5]}, {"steps": [{"op": "seed"}, []]},
], ids=["list", "string", "steps-int", "step-int", "step-list"])
def test_pipeline_recipe_that_is_not_an_object_exits_2(recipe, tmp_path,
                                                        capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(recipe))
    assert dispatch(["pipeline", str(path)]) == 2
    assert "a recipe is an object whose steps are a list of objects" in \
        capsys.readouterr().err


# -- CLI paths pinned byte for byte ------------------------------------------

def test_ledger_best_gamma_prints_its_chain(store, capsys):
    assert dispatch(["ledger", "seed"]) == 0
    assert dispatch(["ledger", "derive", "--rules", "r10", "--depth", "1"]) == 0
    capsys.readouterr()
    assert dispatch(["ledger", "best", "gamma(6)"]) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "fact 2: graph (6,6,3; 235) -- asserted: published template catalogue "
        "(2022); extension of Kalbfleisch's (6,6;101)-graph\n"
        "fact 12: Gamma(6) >= 15.297058 -- derived[r10] from [2]\n")
    assert captured.err == ""


def test_ledger_assert_stores_template_and_degree_flags(store, capsys):
    assert dispatch(["ledger", "assert", "3,3,3", "14", "--source", "s",
                     "--template", "--phi", "6"]) == 0
    assert dispatch(["ledger", "assert", "3,3", "5", "--source", "d",
                     "--degree", "2", "--degree-index", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ("fact 1: graph (3, 3, 3); order 14 (asserted)\n"
                            "fact 2: graph (3, 3); order 5 (asserted)\n")
    assert captured.err == ""
    assert _stored_flags(store) == [
        {"template": True, "phi": 6},
        {"special_degree": 2, "special_degree_index": 1}]


@pytest.mark.parametrize("kind, encode", [("linear", sat.encode_linear),
                                          ("cyclic", sat.encode_cyclic)])
def test_encode_writes_stdout_as_out(kind, encode, tmp_path, capsys):
    cnf = tmp_path / "x.cnf"
    argv = ["encode", kind, "--order", "5", "--avoid", "3,3"]
    assert dispatch(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == sat.write_dimacs(encode(5, (3, 3)))
    assert captured.err == ""
    assert dispatch([*argv, "--out", str(cnf)]) == 0
    assert capsys.readouterr().out == ""
    assert cnf.read_bytes() == captured.out.encode()


def _refused(argv, out, capsys, err):
    for extra in ([], ["--out", str(out)]):
        assert dispatch([*argv, *extra]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", err)
    assert not out.exists()


def test_construct_refuses_a_compound_that_fails(pentagon_file, tmp_path,
                                                 capsys):
    # the stored avoid (2, 3) is false for C5, so the product's is too
    false = tmp_path / "c5false.json"
    save_colouring(LengthColouring("cyclic", 5, 2, (1, 2), avoid=(2, 3)),
                   false)
    _refused(["construct", "product", "--a", str(false), "--b", pentagon_file],
             tmp_path / "p.json", capsys,
             "construction failed verification; refusing to emit\n")


def test_decode_refuses_a_model_that_fails(tmp_path, capsys):
    cnf, model = tmp_path / "c5.cnf", tmp_path / "c5.model"
    assert dispatch(["encode", "cyclic", "--order", "5", "--avoid", "3,3",
                     "--out", str(cnf)]) == 0
    model.write_text("s SATISFIABLE\nv 1 -2 3 -4 0\n")  # every edge colour 1
    _refused(["decode", "--cnf", str(cnf), "--model", str(model)],
             tmp_path / "d.json", capsys,
             "decoded model fails verification; refusing to emit\n")


def test_search_template_budget_exhausted(pentagon_file, tmp_path, capsys):
    out = tmp_path / "t.json"
    for extra in ([], ["--out", str(out)]):
        assert dispatch(["search", "template", "--prototype", pentagon_file,
                         "--t", "2", "--avoid", "3,3,3", "--budget", "0",
                         *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == "iteration 1: solver budget exhausted\n"
        assert captured.err == ""
    assert not out.exists()


def test_ledger_table_takes_single_values(store, capsys):
    assert dispatch(["ledger", "seed"]) == 0
    assert dispatch(["ledger", "derive", "--rules", "r8,r9",
                     "--depth", "2"]) == 0
    capsys.readouterr()
    assert dispatch(["ledger", "table", "--k", "9", "--r", "3"]) == 0
    assert capsys.readouterr().out == \
        "| k\\r | 3 |\n|---|---|\n| 9 | 15040 (d) |\n"


_C5_STEP = {"op": "colouring", "name": "c5", "builtin": "pentagon"}


@pytest.mark.parametrize("steps, log", [
    ([_C5_STEP, {"op": "verify", "target": "c5", "avoid": [2, 3]}],
     ["step 1: colouring 'c5' order 5", "step 2: verify 'c5' FAILED"]),
    ([_C5_STEP, {"op": "add_fact", "target": "c5", "avoid": [3, 2]}],
     ["step 1: colouring 'c5' order 5",
      "step 2: error: certificate 'c5' fails verification: clique sizes "
      "(2, 2) vs bounds (3, 2)"]),
    ([{"op": "seed"}, {"op": "frobnicate"}],
     ["step 1: seeded 10 facts", "step 2: unknown op 'frobnicate'"]),
    ([{"op": "seed"}, {"name": "c5", "builtin": "pentagon"}],
     ["step 1: seeded 10 facts", "step 2: error: missing key 'op'"]),
    ([{"op": "seed"}, {"op": "expect", "kind": "foo", "parameters": [3, 3],
                       "min_value": 6}],
     ["step 1: seeded 10 facts", "step 2: error: unknown kind 'foo'"]),
    ([_C5_STEP, {"op": "verify", "target": "c6", "avoid": [3, 3]}],
     ["step 1: colouring 'c5' order 5",
      "step 2: error: no colouring named 'c6'"]),
    ([_C5_STEP, {"op": "colouring", "name": "c6", "builtin": "hexagon"}],
     ["step 1: colouring 'c5' order 5",
      "step 2: error: unknown builtin 'hexagon'"]),
    ([{"op": "seed"}, {"op": "expect", "kind": "R", "parameters": [3, "3"],
                       "min_value": 6}],
     ["step 1: seeded 10 facts",
      "step 2: error: parameters: expected a list of integers"]),
    ([{"op": "seed"}, {"op": "expect", "kind": "R", "parameters": [0, 3],
                       "min_value": 6}],
     ["step 1: seeded 10 facts",
      "step 2: error: parameters: clique bound 0 below 1"]),
    # refused before the lookup: true once confirmed R(3,3) >= True from
    # a stored R(3,3) >= 6, and "6" and a gamma's true stopped with
    # Python's own comparison and Fraction errors
    ([{"op": "seed"}, {"op": "expect", "kind": "R", "parameters": [3, 3],
                       "min_value": True}],
     ["step 1: seeded 10 facts",
      "step 2: error: min_value: expected a finite number, got True"]),
    ([{"op": "seed"}, {"op": "expect", "kind": "R", "parameters": [3, 3],
                       "min_value": "6"}],
     ["step 1: seeded 10 facts",
      "step 2: error: min_value: expected a finite number, got '6'"]),
    ([{"op": "seed"}, {"op": "expect", "kind": "gamma", "parameters": [3],
                       "min_value": True}],
     ["step 1: seeded 10 facts",
      "step 2: error: min_value: expected a finite number, got True"]),
    # NaN, which Python's json reads, compares false, so it confirmed too
    ([{"op": "seed"}, {"op": "expect", "kind": "R", "parameters": [3, 3],
                       "min_value": float("nan")}],
     ["step 1: seeded 10 facts",
      "step 2: error: min_value: expected a finite number, got nan"]),
    # true once ran one pass, and "r7" was read as the rules "r" and "7"
    ([{"op": "seed"}, {"op": "derive", "depth": True}],
     ["step 1: seeded 10 facts",
      "step 2: error: depth: expected an integer, got True"]),
    ([{"op": "seed"}, {"op": "derive", "rules": "r7"}],
     ["step 1: seeded 10 facts",
      "step 2: error: rules: expected a list of rule names, got 'r7'"]),
    # a list of pairs once stored a cyclic fact
    ([_C5_STEP, {"op": "add_fact", "target": "c5", "avoid": [3, 3],
                 "flags": [["cyclic", True]]}],
     ["step 1: colouring 'c5' order 5",
      "step 2: error: flags: expected an object, got [['cyclic', True]]"]),
    ([_C5_STEP, {"op": "add_fact", "target": "c5", "avoid": [3, 3],
                 "flags": "x"}],
     ["step 1: colouring 'c5' order 5",
      "step 2: error: flags: expected an object, got 'x'"]),
    # a list once stopped with Python's "unhashable type: 'list'"
    ([{"op": "seed"}, {"op": "expect", "kind": ["graph"],
                       "parameters": [3, 3], "min_value": 5}],
     ["step 1: seeded 10 facts", "step 2: error: unknown kind ['graph']"]),
], ids=["verify-failed", "add-fact-fails", "unknown-op", "missing-op",
        "unknown-kind", "unknown-target", "unknown-builtin",
        "expect-string-bound", "expect-bound-0", "expect-min-true",
        "expect-min-string", "expect-gamma-min-true", "expect-min-nan",
        "derive-depth-true", "derive-rules-string", "add-fact-flags-pairs",
        "add-fact-flags-string", "expect-kind-list"])
def test_pipeline_stops_at_a_failing_step(steps, log, store, tmp_path,
                                          capsys):
    recipe = tmp_path / "r.json"
    recipe.write_text(json.dumps({"name": "r", "steps": steps}))
    assert dispatch(["pipeline", str(recipe), "--store"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [*log, "pipeline stopped at step 2"]
    assert captured.err == ""
    assert not os.path.exists(store)


@pytest.mark.parametrize("min_value, line", [
    (6, "step 4: R(3,3) >= 6 confirmed (6)"),
    (6.0000000005, "step 4: expectation {'op': 'expect', 'kind': 'R', "
     "'parameters': [3, 3], 'min_value': 6.0000000005} FAILED (got 6)"),
], ids=["at-the-bound", "above-the-bound"])
def test_pipeline_expect_compares_exactly(min_value, line, tmp_path, capsys):
    """R(3,3) >= 6 does not confirm a bound above 6, however close."""
    recipe = tmp_path / "r.json"
    recipe.write_text(json.dumps({"name": "r", "steps": [
        _C5_STEP,
        {"op": "add_fact", "target": "c5", "avoid": [3, 3],
         "flags": {"cyclic": True}},
        {"op": "derive", "rules": ["r7"], "depth": 1},
        {"op": "expect", "kind": "R", "parameters": [3, 3],
         "min_value": min_value}]}))
    assert dispatch(["pipeline", str(recipe)]) == (min_value != 6)
    assert capsys.readouterr().out.splitlines()[3] == line


def test_pipeline_expect_compares_a_gamma_exactly(tmp_path, capsys):
    """Gamma(6) = 234**(1/2) = 15.29705854077...: 15.297058 holds, and a
    figure 4e-10 above it does not."""
    recipe = tmp_path / "r.json"
    steps = [{"op": "seed"}, {"op": "derive", "rules": ["r10"], "depth": 1}]
    for want in (15.297058, 15.2970585412):
        steps.append({"op": "expect", "kind": "gamma", "parameters": [6],
                      "min_value": want})
    recipe.write_text(json.dumps({"name": "r", "steps": steps}))
    assert dispatch(["pipeline", str(recipe)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[2] == "step 3: gamma(6) >= 15.297058 confirmed (15.297058)"
    assert out[3].endswith("FAILED (got 15.297058)")


_PENTAGON_EXPLICIT = json.loads(serialize_colouring(
    expand_to_explicit(pentagon())))


@pytest.mark.parametrize("doc, argv, code, out, err", [
    (pentagon(), ["verify", "{}", "--avoid", "0,0"], 2, "",
     "error: avoid: clique bound 0 below 1\n"),
    (templates.double_to_template(pentagon()).base,
     ["template-check", "{}", "--avoid", "0,0"], 2, "",
     "error: avoid: clique bound 0 below 1\n"),
    ({**_PENTAGON_EXPLICIT, "avoid": [0, 0]}, ["verify", "{}"], 2, "",
     "error: {}: avoid: clique bound 0 below 1\n"),
    ({"name": "r", "steps": [_C5_STEP, {"op": "add_fact", "target": "c5",
                                         "avoid": [3.0, 3]}]},
     ["pipeline", "{}", "--store"], 1,
     "step 1: colouring 'c5' order 5\n"
     "step 2: error: avoid: expected a list of integers\n"
     "pipeline stopped at step 2\n", ""),
    ({"name": "r", "steps": [_C5_STEP, {"op": "add_fact", "target": "c5",
                                         "avoid": [True, 3]}]},
     ["pipeline", "{}", "--store"], 1,
     "step 1: colouring 'c5' order 5\n"
     "step 2: error: avoid: expected a list of integers\n"
     "pipeline stopped at step 2\n", ""),
    ({"name": "r", "steps": [_C5_STEP, {"op": "verify", "target": "c5",
                                         "avoid": 5}]},
     ["pipeline", "{}", "--store"], 1,
     "step 1: colouring 'c5' order 5\n"
     "step 2: error: avoid: expected a list of integers\n"
     "pipeline stopped at step 2\n", ""),
    # well-formed but false: any colouring with a vertex has a K_1
    ({"kind": "cyclic", "order": 5, "num_colours": 2, "avoid": [1, 3],
      "colours": [1, 2]}, ["verify", "{}"], 1,
     "colour 1: max clique >= 1 (bound 1) CLIQUE\n"
     "colour 2: max clique = 2 (bound 3) ok\nFAIL\n", ""),
], ids=["verify-zero", "template-check-zero", "explicit-file-zero",
        "add-fact-float", "add-fact-bool", "verify-step-int",
        "cyclic-file-one"])
def test_one_bound_rule_at_every_entry(doc, argv, code, out, err, store,
                                       tmp_path, capsys):
    """A bound vector is read through colouring.clique_bounds wherever it
    enters: ints, not bools or floats, each at least 1.  Refused input
    exits 2, or fails its pipeline step, and writes no store; a refused
    colouring file is named."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc) if isinstance(doc, dict)
                    else serialize_colouring(doc))
    assert dispatch([a.format(path) for a in argv]) == code
    assert capsys.readouterr() == (out, err.format(path))
    assert not os.path.exists(store)


@pytest.mark.parametrize("flags, message", [
    ({"cyclic": "false"}, "cyclic must be true or false, got 'false'"),
    ({"linear": [1]}, "linear must be true or false, got [1]"),
    ({"template": 1, "phi": 0}, "template must be true or false, got 1"),
], ids=["cyclic-string", "linear-list", "template-int"])
def test_shape_flag_that_is_not_a_boolean_exits_2(flags, message, tmp_path,
                                                  capsys):
    """A store line's "cyclic": "false" once read as cyclic, so r1 stored
    (3,3,3;15) from it; a pipeline fact meets the same check."""
    path = tmp_path / "facts.jsonl"
    path.write_text(json.dumps({
        "id": 1, "kind": "graph_exists", "parameters": [3, 3], "value": 5,
        "certificate": {"type": "asserted", "source": "s"},
        "flags": flags}) + "\n")
    before = path.read_bytes()
    assert dispatch(["ledger", "--store", str(path), "derive", "--rules",
                     "r1,r3", "--depth", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert path.read_bytes() == before
    recipe = tmp_path / "r.json"
    recipe.write_text(json.dumps({"name": "r", "steps": [_C5_STEP, {
        "op": "add_fact", "target": "c5", "avoid": [3, 3], "flags": flags}]}))
    assert dispatch(["pipeline", str(recipe)]) == 1
    assert capsys.readouterr().out.splitlines()[1:] == [
        f"step 2: error: {message}", "pipeline stopped at step 2"]


@pytest.mark.parametrize("flags, assert_args, message", [
    ({"cylic": True}, None, "unknown flag 'cylic'"),
    ({"phi": 2}, ["--phi", "2"], "phi applies only with template"),
    ({"special_degree_index": 0}, ["--degree-index", "0"],
     "special_degree_index applies only with special_degree"),
    ({"provenance_note": 5}, None, "provenance_note must be a string, got 5"),
], ids=["misspelt", "phi-without-template", "index-without-degree",
        "note-not-a-string"])
def test_flag_refusal_is_one_at_every_entry(flags, assert_args, message,
                                            store, tmp_path, capsys):
    """A flag the table refuses is refused with one message wherever the
    fact enters: a store line (left as it was), `ledger assert` where it
    has the option, and a recipe's `add_fact`.  A misspelt cyclic flag
    once stored the pentagon unflagged, so r1 derived nothing from it."""
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({
        "id": 1, "kind": "graph_exists", "parameters": [3, 3], "value": 5,
        "certificate": {"type": "asserted", "source": "s"},
        "flags": flags}) + "\n")
    before = path.read_bytes()
    assert dispatch(["ledger", "--store", str(path), "best",
                     "graph(3,3)"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert path.read_bytes() == before
    if assert_args is not None:
        assert dispatch(["ledger", "assert", "3,3", "5", "--source", "s",
                         *assert_args]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not os.path.exists(store)
    recipe = tmp_path / "r.json"
    recipe.write_text(json.dumps({"name": "r", "steps": [_C5_STEP, {
        "op": "add_fact", "target": "c5", "avoid": [3, 3], "flags": flags}]}))
    assert dispatch(["pipeline", str(recipe), "--store"]) == 1
    assert capsys.readouterr() == (
        f"step 1: colouring 'c5' order 5\nstep 2: error: {message}\n"
        "pipeline stopped at step 2\n", "")
    assert not os.path.exists(store)


@pytest.mark.parametrize("kind, parameters, value, flags", [
    ("ramsey_lower_bound", [3, 3], 6, {"cyclic": True}),
    ("gamma_lower_bound", [3], {"base": [82, 25], "root": 1},
     {"template": True}),
    ("ramsey_lower_bound", [3, 3], 6, {"cyclic": None}),
], ids=["ramsey-cyclic", "gamma-template", "ramsey-null-flag"])
def test_flags_on_a_ramsey_or_gamma_line_exit_2(kind, parameters, value,
                                                flags, tmp_path, capsys):
    """Only graph facts carry flags.  A Ramsey line flagged cyclic once
    loaded beside its unflagged twin under a dominance key of its own, so
    the closure took both as parents; now the line is refused, even where
    its flag is null, and the store is left as it was."""
    path = tmp_path / "facts.jsonl"
    line = {"kind": kind, "parameters": parameters, "value": value,
            "certificate": {"type": "asserted", "source": "s"}}
    path.write_text(json.dumps({"id": 1, **line, "flags": {}}) + "\n"
                    + json.dumps({"id": 2, **line, "flags": flags}) + "\n")
    before = path.read_bytes()
    assert dispatch(["ledger", "--store", str(path), "derive", "--rules",
                     "r6", "--depth", "1"]) == 2
    assert capsys.readouterr() == ("", f"error: only graph facts carry "
                                       f"flags, got {flags!r} on a {kind} "
                                       "fact\n")
    assert path.read_bytes() == before


def test_forged_flags_on_a_certificate_exit_2(pentagon_file, tmp_path,
                                             capsys):
    """A store line that put template flags on the pentagon's certificate
    loaded, and r5 then r7 derived R(3,3,3) >= 21, though R(3,3,3) = 17;
    no colouring check confirms those flags, so the line is refused."""
    path = tmp_path / "facts.jsonl"
    path.write_text(json.dumps({
        "id": 1, "kind": "graph_exists", "parameters": [3, 3], "value": 5,
        "certificate": {"type": "explicit", "path": pentagon_file},
        "flags": {"linear": True, "template": True, "phi": 3,
                  "special_degree": 4}}) + "\n")
    before = path.read_bytes()
    for argv in (["derive", "--rules", "r5,r9,r10"],
                 ["derive", "--rules", "r7"], ["best", "R(3,3,3)"]):
        assert dispatch(["ledger", "--store", str(path), *argv]) == 2
        assert capsys.readouterr() == (
            "", f"error: certificate {pentagon_file} is flagged template, "
            "which no colouring check confirms\n")
    assert path.read_bytes() == before


def test_cyclic_flag_on_a_linear_colouring_is_one_refusal(store, tmp_path,
                                                          capsys):
    """`ledger add --cyclic` and a recipe's `add_fact` refuse the linear
    colouring (1,2,2) flagged cyclic with one message; the recipe once
    stored it, and r1 derived (3,3,3; 12) from it."""
    path = tmp_path / "c.json"
    save_colouring(LengthColouring("linear", 4, 2, (1, 2, 2)), path)
    why = "is flagged cyclic but its colouring is not cyclic-symmetric"
    assert dispatch(["ledger", "add", str(path), "--avoid", "3,3",
                     "--cyclic"]) == 2
    assert capsys.readouterr() == ("", f"error: certificate c.json {why}\n")
    recipe = tmp_path / "r.json"
    recipe.write_text(json.dumps({"name": "r", "steps": [
        {"op": "colouring", "name": "c", "path": str(path)},
        {"op": "add_fact", "target": "c", "avoid": [3, 3],
         "flags": {"cyclic": True}},
        {"op": "derive", "rules": ["r1"], "depth": 1}]}))
    assert dispatch(["pipeline", str(recipe), "--store"]) == 1
    assert capsys.readouterr() == (
        f"step 1: colouring 'c' order 4\nstep 2: error: certificate 'c' "
        f"{why}\npipeline stopped at step 2\n", "")
    assert not os.path.exists(store)


@pytest.mark.parametrize("argv, message", [
    (["verify", "{c5}", "--avoid", "three"], "bad avoid list 'three'"),
    (["ledger", "best", "what is R?"], "cannot parse query 'what is R?'"),
    (["ledger", "best", "R(3,,3)"], "cannot parse query 'R(3,,3)'"),
    (["pipeline", "no_such_recipe"], "no recipe 'no_such_recipe'"),
    (["pipeline", "{truncated}"],
     "recipe '{truncated}': Expecting value: line 1 column 12 (char 11)"),
    (["verify", "{missing}"],
     "[Errno 2] No such file or directory: '{missing}'"),
    (["template-check", "{c5}", "--avoid", "3,3"],
     "file does not carry a template_colour"),
    (["verify", "{bare}"], "no avoid vector given or stored in the file"),
    (["ledger", "table", "--k", "3..x", "--r", "2"], "bad range '3..x'"),
    (["ledger", "table", "--k", "3..5..7", "--r", "2"],
     "bad range '3..5..7'"),
    (["ledger", "table", "--k", "9..3", "--r", "2"], "bad range '9..3'"),
    (["ledger", "table", "--k", "3", "--r", ""], "bad range ''"),
    # an empty --avoid is given, so it is parsed, not read as absent
    (["verify", "{c5}", "--avoid", ""], "bad avoid list ''"),
    (["verify", "{bare}", "--avoid", ""], "bad avoid list ''"),
    (["ledger", "best", "R(0,3)"], "parameters: clique bound 0 below 1"),
    (["ledger", "table", "--k", "0..1", "--r", "0..1"], "bad range '0..1'"),
    (["ledger", "table", "--k", "3", "--r", "0..2"], "bad range '0..2'"),
], ids=["bad-avoid", "bad-query", "empty-query-bound", "missing-recipe",
        "truncated-recipe", "missing-file", "no-template-colour", "no-avoid", "range-not-int",
        "range-three-ends", "range-reversed", "range-empty",
        "empty-avoid-stored", "empty-avoid-bare", "query-bound-0",
        "range-k-0", "range-r-0"])
def test_usage_error_is_one_stderr_line(argv, message, store, pentagon_file,
                                        tmp_path, capsys):
    names = {"c5": pentagon_file, "missing": str(tmp_path / "nope.json"),
             "bare": str(tmp_path / "bare.json"),
             "truncated": str(tmp_path / "r.json")}
    save_colouring(LengthColouring("cyclic", 5, 2, (1, 2)), names["bare"])
    Path(names["truncated"]).write_text('{"steps": [')
    argv = [a.format(**names) for a in argv]
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(**names)}\n"


# 100,000 opening brackets, then as many closing ones: valid JSON that
# Python's decoder cannot descend into
_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("name, text, argv", [
    ("deep.jsonl", _DEEP + "\n", ["ledger", "--store", "{}", "best", "R(3,3)"]),
    ("deep.jsonl", _DEEP + "\n", ["ledger", "--store", "{}", "derive"]),
    ("deep.json", _DEEP, ["verify", "{}", "--avoid", "3,3"]),
    ("deep.cnf", f"c meta {_DEEP}\np cnf 0 0\n", ["solve", "{}"]),
    ("deep_recipe.json", _DEEP, ["pipeline", "{}", "--store"]),
], ids=["ledger-best", "ledger-derive", "verify", "solve-meta", "pipeline"])
def test_nested_json_exits_2(name, text, argv, store, tmp_path, capsys):
    """JSON nested too deeply to decode is refused by each reader with its
    own error, not a RecursionError and a traceback, and no store is
    written."""
    assert dispatch(["ledger", "seed"]) == 0
    path = tmp_path / name
    path.write_text(text)
    files = (Path(store), path)
    before = [f.read_bytes() for f in files]
    capsys.readouterr()
    assert dispatch([a.format(path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "maximum recursion depth" in captured.err
    assert "Traceback" not in captured.err
    assert [f.read_bytes() for f in files] == before


def test_store_line_too_nested_to_print_is_abbreviated(tmp_path, capsys):
    """A store line that decodes to no fact object is named by an
    abbreviated value: 500 nested arrays once made a message of some
    1,000 brackets."""
    path = tmp_path / "facts.jsonl"
    path.write_text("[" * 500 + "]" * 500 + "\n")
    assert dispatch(["ledger", "--store", str(path), "best",
                     "graph(3,3)"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: store line [[")
    assert err.endswith(" is not a fact object\n")
    assert err.count("\n") == 1 and len(err) < 100


@pytest.mark.parametrize("argv, message", [
    (["verify", "{}", "--avoid", "1201"], "a clique branch of"),
    (["verify", "{}", "--avoid", "1201", "--exact"], "a clique branch of"),
    (["encode", "linear", "--order", "1100", "--avoid", "1100"],
     "listing the 1100-cliques of colour 1"),
], ids=["verify", "verify-exact", "encode"])
def test_search_too_deep_to_recurse_exits_2(argv, message, tmp_path,
                                            capsys):
    """A search whose branch outgrows Python's recursion limit ends in its
    module's error, not a RecursionError and a traceback: here a clique
    of 1,200 vertices, and 1,100-cliques to list."""
    path = tmp_path / "one.json"
    save_colouring(LengthColouring("linear", 1200, 1, (1,) * 1199), path)
    assert dispatch([a.format(path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.endswith(" too deep for Python's recursion limit\n")
    assert "Traceback" not in err


def test_search_within_the_recursion_limit_still_runs(tmp_path, capsys):
    path = tmp_path / "one.json"
    save_colouring(LengthColouring("linear", 600, 1, (1,) * 599), path)
    assert dispatch(["verify", str(path), "--avoid", "601", "--exact"]) == 0
    assert "max clique = 600" in capsys.readouterr().out


def test_ledger_add_parses_its_certificate_once(store, pentagon_file,
                                                monkeypatch, capsys):
    """`ledger add` verifies the colouring it read for the fact's order and
    kind, rather than reading the file again; the next load re-verifies
    it from the file."""
    parse, parsed = colouring.parse_colouring, []

    def counted(text):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(colouring, "parse_colouring", counted)
    assert dispatch(["ledger", "add", pentagon_file, "--avoid", "3,3",
                     "--cyclic"]) == 0
    assert len(parsed) == 1
    assert dispatch(["ledger", "best", "graph(3,3)"]) == 0
    assert len(parsed) == 2
    assert "explicit: " in capsys.readouterr().out


def test_pipeline_store_forms(tmp_path, monkeypatch, capsys):
    """`pipeline` writes no store without --store; `--store` alone writes
    $RAMSEYKIT_FACTS, or ramsey_facts.jsonl when that is unset, as `ledger`
    does; and `--store PATH` writes PATH.  Each log is the same."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RAMSEYKIT_FACTS", raising=False)
    argv = ["pipeline", "desk_scale_compounds"]
    env, named = tmp_path / "env.jsonl", tmp_path / "named.jsonl"
    default = tmp_path / "ramsey_facts.jsonl"
    logs = []
    for extra, env_value, written in (
            ([], None, None), ([], str(env), None),
            (["--store"], None, default), (["--store"], str(env), env),
            (["--store", str(named)], str(env), named)):
        if env_value is not None:
            monkeypatch.setenv("RAMSEYKIT_FACTS", env_value)
        assert dispatch([*argv, *extra]) == 0
        logs.append(capsys.readouterr())
        made = sorted(p.name for p in tmp_path.iterdir())
        assert made == ([written.name, written.name + ".lock"] if written
                        else []), (extra, env_value)
        if written:
            assert dispatch(["ledger", "--store", str(written), "best",
                             "R(3,3,3,3)"]) == 0
            assert capsys.readouterr().out.splitlines()[-1] == \
                "fact 6: R(3,3,3,3) >= 42 -- derived[r7] from [3]"
        for p in tmp_path.iterdir():
            p.unlink()
        monkeypatch.delenv("RAMSEYKIT_FACTS", raising=False)
    assert logs == [logs[0]] * len(logs)
    assert logs[0].err == ""
