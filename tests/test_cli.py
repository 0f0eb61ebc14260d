import hashlib
import json
import os
import random
import threading
from dataclasses import replace

import numpy as np
import pytest

from ramseykit import cli, cliques, sat, templates
from ramseykit.cli import _locked_store, dispatch, run_pipeline
from ramseykit.cliques import is_clique, max_clique_in_colour
from ramseykit.colouring import (
    ExplicitColouring,
    LengthColouring,
    expand_to_explicit,
    load_colouring,
    pentagon,
    save_colouring,
    serialize_colouring,
    single_edge,
    translation_transitive,
)
from ramseykit.constructions import (
    paley_colouring,
    product_cyclic,
    product_linear,
    song_product,
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
], ids=["empty", "no-header", "clause-count", "variable-range",
        "zero-literal", "short-header", "negative-variables",
        "negative-clauses", "meta-not-object", "variable-count"])
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


@pytest.mark.parametrize("text, message", [
    ('c meta {"kind": "cyclic", "order": 3000000, "avoid": [3, 3]}\n'
     'p cnf 2 0\n', "declares 2 variables, too few for 'c meta' order"),
    ('c meta {"kind": "linear", "order": 9, "avoid": [3]}\nc fixed 1 1\n'
     'p cnf 2 0\n', "declares 2 variables, too few for 'c meta' order 9"),
    ('c meta {"kind": "cyclic", "order": 5, "avoid": []}\np cnf 0 0\n',
     "'c meta' has an empty avoid"),
] + [(f'c meta {{"kind": "cyclic", "order": {order}, "avoid": {avoid}}}\n'
      'p cnf 4 0\n', "needs int order and avoid >= 1")
     for order, avoid in _BAD_META_TYPES.values()],
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


@pytest.mark.parametrize("order, avoid", _BAD_META_TYPES.values(),
                         ids=_BAD_META_TYPES)
def test_decode_rejects_meta_types(order, avoid, tmp_path, capsys):
    """A model decodes against a `c meta` of the wrong types to exit 2,
    not to a traceback from the clique check."""
    cnf, model = tmp_path / "bad.cnf", tmp_path / "model.txt"
    cnf.write_text(f'c meta {{"kind": "cyclic", "order": {order}, '
                   f'"avoid": {avoid}}}\np cnf 4 0\n')
    model.write_text("s SATISFIABLE\nv 1 -2 3 -4 0\n")
    assert dispatch(["decode", "--cnf", str(cnf), "--model", str(model)]) == 2
    assert "needs int order and avoid >= 1" in capsys.readouterr().err


def test_solve_dev_null_is_not_satisfiable(capsys):
    assert dispatch(["solve", os.devnull]) == 2
    assert capsys.readouterr().out == ""


def test_ledger_derive_rejects_r2(store, capsys):
    assert dispatch(["ledger", "seed"]) == 0
    assert dispatch(["ledger", "derive", "--rules", "r2"]) == 2
    assert "unknown rule 'r2'" in capsys.readouterr().err


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
    assert dispatch(["pipeline", str(path), "--use-store"]) == 1
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
    """The grid product Paley 29 x C5 is translation-transitive, so verify
    searches it through vertex 0; the full search stays its oracle, with
    the witness it has always found."""
    s145 = _song_p29_c5(tmp_path, capsys)
    g = load_colouring(s145)
    assert translation_transitive(g)
    oracle = [max_clique_in_colour(g, s) for s in (1, 2)]
    assert oracle[0] == (8, (113, 114, 118, 119, 138, 139, 143, 144))
    assert dispatch(["verify", s145, "--exact", "--witness"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for s, (size, _) in enumerate(oracle, start=1):
        head = lines.index(f"colour {s}: max clique = {size} (bound 9) ok")
        wit = json.loads(lines[head + 1].split(": ", 1)[1])
        assert len(wit) == size and wit[0] == 0 and is_clique(g, s, wit)


def test_untransitive_explicit_verify_output_is_pinned(tmp_path, capsys):
    """An explicit colouring that no translation set moves around keeps the
    full search: verify's output on Paley 13 x C5 under a shuffled vertex
    numbering is byte-for-byte that of the full search alone."""
    g = song_product(expand_to_explicit(paley_colouring(13)),
                     expand_to_explicit(pentagon()))
    perm = list(range(g.order))
    random.Random(65).shuffle(perm)
    h = ExplicitColouring(g.order, 2, g.edge_colour[np.ix_(perm, perm)],
                          avoid=(7, 7))
    assert not translation_transitive(h)
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


@pytest.mark.parametrize("line", [
    "[1, 2]",
    "5",
    '{"id": 1, "kind": "graph_exists", "parameters": [3, 3], "value": 5, '
    f'{_ASSERTED}, "flags": []}}',
    '{"id": 1, "kind": "graph_exists", "parameters": [3, 3], "value": 5, '
    f'{_ASSERTED}, "flags": {{"special_degree_index": "0"}}}}',
    '{"id": 1, "kind": "graph_exists", "parameters": [3, 3], "value": 5, '
    '"certificate": "asserted", "flags": {}}',
    '{"id": 1, "kind": "graph_exists", "parameters": 5, "value": 5, '
    f'{_ASSERTED}, "flags": {{}}}}',
    '{"id": 1, "kind": "gamma_lower_bound", "parameters": [3], '
    f'"value": {{"root": 2}}, {_ASSERTED}, "flags": {{}}}}',
    '{"id": 1, "kind": "gamma_lower_bound", "parameters": [3], '
    f'"value": {{"base": 5, "root": 2}}, {_ASSERTED}, "flags": {{}}}}',
    '{"id": 1, "kind": "gamma_lower_bound", "parameters": [3], '
    f'"value": {{"base": [5, 0], "root": 2}}, {_ASSERTED}, "flags": {{}}}}',
    '{"id": 1, "kind": "ramsey_lower_bound", "parameters": [3, 3], '
    '"value": 6, "certificate": {"type": "derived", "rule": "r7", '
    '"parents": 5}, "flags": {}}',
    '{"id": 1, "kind": "graph_exists", "parameters": [3, 3], "value": 5, '
    '"certificate": {"type": "explicit", "path": 5}, "flags": {}}',
    '{"id": 1, "kind": "graph_exists", "parameters": [3, 3], "value": true, '
    f'{_ASSERTED}, "flags": {{}}}}',
    '{"id": true, "kind": "graph_exists", "parameters": [3, 3], "value": 5, '
    f'{_ASSERTED}, "flags": {{}}}}',
    '{"id": 1, "kind": "graph_exists", "parameters": [3, 3], "value": 5, '
    f'{_ASSERTED}, "flags": {{"template": true, "phi": "x"}}}}',
    '{"id": 1, "kind": "graph_exists", "parameters": [3, 3], "value": 5, '
    f'{_ASSERTED}, "flags": {{"special_degree": "x", '
    '"special_degree_index": 0}}',
    '{"id": 1, "kind": "ramsey_lower_bound", "parameters": [3, 3], '
    '"value": 6, "certificate": {"type": "derived", "rule": ["r7"], '
    '"parents": []}, "flags": {}}',
    # a rule is checked wherever it is present: dominance_key hashes it
    '{"id": 1, "kind": "graph_exists", "parameters": [3, 3], "value": 5, '
    '"certificate": {"type": "asserted", "source": "s", "rule": ["x"]}, '
    '"flags": {}}',
], ids=["list", "number", "flags-list", "index-string",
        "certificate-string", "parameters-int", "gamma-no-base",
        "gamma-base-int", "gamma-zero-den", "parents-int", "path-int",
        "value-bool", "id-bool", "phi-string", "degree-string",
        "rule-list", "asserted-rule-list"])
def test_store_line_that_is_not_a_fact_exits_2(line, tmp_path, capsys):
    path = tmp_path / "facts.jsonl"
    path.write_text(line + "\n")
    assert dispatch(["ledger", "--store", str(path), "best",
                     "graph(3,3)"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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


def test_pipeline_expectation_recomputes_its_fact(tmp_path, capsys):
    path = tmp_path / "facts.jsonl"
    recipe = tmp_path / "expect.json"
    recipe.write_text(json.dumps({"steps": [
        {"op": "expect", "kind": "R", "parameters": [3, 3],
         "min_value": 1000}]}))
    _derived_store(path, 1000, 15)
    assert dispatch(["pipeline", str(recipe), "--use-store",
                     "--store", str(path)]) == 1
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
