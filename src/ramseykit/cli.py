"""Command-line entry point wiring all modules together.

Exit codes: 0 = success / check passes, 1 = domain negative (a failed check,
an UNSAT instance, a search without result), 2 = usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from importlib import resources

from . import colouring as col
from . import constructions as cons
from . import ledger as led
from . import sat
from .cliques import CliqueReport, ramsey_check
from .templates import (
    TemplateGraph,
    TemplateError,
    double_to_template,
    repetition_check,
    template_usable,
)

PASS, FAIL, ERROR = 0, 1, 2

FACT_STORE_ENV = "RAMSEYKIT_FACTS"
DEFAULT_FACT_STORE = "ramsey_facts.jsonl"


def _parse_avoid(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise SystemExit(f"error: bad avoid list {text!r}")


def _print_report(report: CliqueReport, avoid) -> None:
    for s, (size, k, exact) in enumerate(
            zip(report.per_colour_max, avoid, report.exact), start=1):
        rel = "=" if exact else ">="
        verdict = "ok" if (exact and size < k) or size < k else "CLIQUE"
        print(f"colour {s}: max clique {rel} {size} (bound {k}) {verdict}")
        if report.witness[s - 1]:
            print(f"  witness: {list(report.witness[s - 1])}")
    print("PASS" if report.passes else "FAIL")


# -- subcommands ------------------------------------------------------------

def cmd_verify(args) -> int:
    c = col.load_colouring(args.file)
    avoid = _parse_avoid(args.avoid) if args.avoid else c.avoid
    if avoid is None:
        print("error: no avoid vector given or stored in the file",
              file=sys.stderr)
        return ERROR
    report = ramsey_check(c, avoid, exact=args.exact,
                          want_witness=args.witness)
    _print_report(report, avoid)
    return PASS if report.passes else FAIL


def cmd_template_check(args) -> int:
    c = col.load_colouring(args.file)
    if not isinstance(c, col.LengthColouring) or c.template_colour is None:
        print("error: file does not carry a template_colour", file=sys.stderr)
        return ERROR
    avoid = _parse_avoid(args.avoid)
    try:
        T = TemplateGraph(c.as_linear(), c.template_colour)
    except TemplateError as e:
        print(f"not a template: {e}")
        return FAIL
    print(f"template order {T.order}, phi {T.phi}")
    ok = template_usable(T, avoid, reps=args.reps, rainbow_n=args.rainbow_n)
    for q in range(1, args.reps + 1):
        rep = repetition_check(T, q, avoid)
        print(f"repetition q={q}: {'ok' if rep.passes else 'FAIL'}")
    print("PASS" if ok else "FAIL")
    return PASS if ok else FAIL


def _emit_colouring(c, args, default_comment=None) -> None:
    if args.out:
        col.save_colouring(c, args.out)
    else:
        sys.stdout.write(col.serialize_colouring(c))


def cmd_construct(args) -> int:
    if args.rule == "paley":
        if args.q is None:
            print("error: paley needs --q", file=sys.stderr)
            return ERROR
        out = cons.paley_colouring(args.q)
        _emit_colouring(out, args)
        return PASS
    a = col.load_colouring(args.a)
    if args.rule == "song":
        b = col.load_colouring(args.b)
        ga = a if isinstance(a, col.ExplicitColouring) else col.expand_to_explicit(a)
        gb = b if isinstance(b, col.ExplicitColouring) else col.expand_to_explicit(b)
        out = cons.song_product(ga, gb)
    elif args.rule == "product":
        b = col.load_colouring(args.b)
        if a.kind == col.CYCLIC and b.kind == col.CYCLIC:
            out = cons.product_cyclic(a, b)
        else:
            out = cons.product_linear(a, b)
    elif args.rule == "template":
        if a.template_colour is not None:
            T = TemplateGraph(a.as_linear(), a.template_colour)
        else:
            T = double_to_template(a)
        b = col.load_colouring(args.b)
        out = cons.template_compound(T, b)
    else:
        raise SystemExit(f"error: unknown construction {args.rule!r}")
    if out.avoid is not None and not args.no_verify:
        report = ramsey_check(out, out.avoid)
        if not report.passes:
            print("construction failed verification; refusing to emit",
                  file=sys.stderr)
            return FAIL
    elif args.no_verify:
        if isinstance(out, col.LengthColouring):
            out = col.LengthColouring(out.kind, out.order, out.num_colours,
                                      out.colour_of, avoid=out.avoid,
                                      template_colour=out.template_colour,
                                      comment="unverified")
        else:
            out = col.ExplicitColouring(out.order, out.num_colours,
                                        out.edge_colour, avoid=out.avoid,
                                        comment="unverified")
    _emit_colouring(out, args)
    return PASS


def cmd_encode(args) -> int:
    avoid = _parse_avoid(args.avoid)
    if args.kind == "cyclic":
        inst = sat.encode_cyclic(args.order, avoid, clause_cap=args.clause_cap)
    elif args.kind == "linear":
        inst = sat.encode_linear(args.order, avoid, clause_cap=args.clause_cap)
    else:
        proto = col.load_colouring(args.prototype)
        if proto.kind != col.CYCLIC:
            proto = col.to_cyclic(proto)
        spec = sat.SearchSpec(proto, args.t, proto.num_colours + 1, avoid)
        inst = sat.encode_extension(spec, clause_cap=args.clause_cap)
    text = sat.write_dimacs(inst)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return PASS


def cmd_solve(args) -> int:
    with open(args.cnf, encoding="utf-8") as f:
        inst = sat.read_dimacs(f.read())
    result = sat.solve_internal(inst, conflict_budget=args.budget)
    print(f"s {result.status}")
    if result.status == sat.SAT:
        print("v " + " ".join(str(lit) for lit in result.model) + " 0")
        if args.model_out:
            with open(args.model_out, "w", encoding="utf-8", newline="\n") as f:
                f.write("s SATISFIABLE\n")
                f.write("v " + " ".join(str(lit) for lit in result.model)
                        + " 0\n")
        return PASS
    return FAIL


def cmd_decode(args) -> int:
    with open(args.cnf, encoding="utf-8") as f:
        inst = sat.read_dimacs(f.read())
    with open(args.model, encoding="utf-8") as f:
        doc = f.read()
    decoded = sat.parse_model(doc, inst)
    if decoded is None:
        print("s UNSATISFIABLE")
        return FAIL
    report = ramsey_check(decoded, inst.meta["avoid"])
    if not report.passes:
        print("decoded model fails verification; refusing to emit",
              file=sys.stderr)
        return FAIL
    if args.out:
        col.save_colouring(decoded, args.out)
    else:
        sys.stdout.write(col.serialize_colouring(decoded))
    return PASS


def cmd_search(args) -> int:
    proto = col.load_colouring(args.prototype)
    if proto.kind != col.CYCLIC:
        proto = col.to_cyclic(proto)
    avoid = _parse_avoid(args.avoid)
    spec = sat.SearchSpec(proto, args.t, proto.num_colours + 1, avoid)
    result = sat.search_template(spec, reps=args.reps,
                                 rainbow_n=args.rainbow_n,
                                 conflict_budget=args.budget)
    for line in result.log:
        print(line)
    if result.status == "found":
        out = result.template.base
        if args.out:
            col.save_colouring(out, args.out)
        else:
            sys.stdout.write(col.serialize_colouring(out))
        return PASS
    return FAIL


# -- ledger -----------------------------------------------------------------

@contextmanager
def _locked_store(path):
    lock_path = path + ".lock"
    fd = os.open(lock_path, os.O_CREAT | os.O_RDWR)
    try:
        try:
            import fcntl

            fcntl.flock(fd, fcntl.LOCK_EX)
        except ImportError:  # non-POSIX: best effort
            pass
        yield
    finally:
        os.close(fd)


def _store_path(args) -> str:
    return args.store or os.environ.get(FACT_STORE_ENV, DEFAULT_FACT_STORE)


def _load_store(path) -> led.Ledger:
    if os.path.exists(path):
        return led.Ledger.load(path)
    return led.Ledger()


def cmd_ledger(args) -> int:
    path = _store_path(args)
    with _locked_store(path):
        ledger = _load_store(path)
        if args.ledger_cmd == "seed":
            ids = led.load_seed_pack(ledger)
            print(f"loaded {len(ids)} seed facts")
            ledger.save(path)
            return PASS
        if args.ledger_cmd == "add":
            avoid = _parse_avoid(args.avoid)
            flags = {}
            if args.cyclic:
                flags["cyclic"] = True
            else:
                flags["linear"] = True
            fact = led.graph_fact(
                avoid, _order_of(args.file),
                {"type": "explicit", "path": args.file}, **flags)
            fid = ledger.add_fact(fact)
            print(f"fact {fid}: graph {avoid}; order {fact.value} (explicit)")
            ledger.save(path)
            return PASS
        if args.ledger_cmd == "assert":
            params = _parse_avoid(args.params)
            flags = {}
            if args.cyclic:
                flags["cyclic"] = True
            if args.template:
                flags["template"] = True
                flags["phi"] = args.phi
            if args.degree is not None:
                flags["special_degree"] = args.degree
                flags["special_degree_index"] = args.degree_index
            fact = led.graph_fact(params, args.order,
                                  led.asserted(args.source), **flags)
            fid = ledger.add_fact(fact)
            print(f"fact {fid}: graph {params}; order {args.order} (asserted)")
            ledger.save(path)
            return PASS
        if args.ledger_cmd == "derive":
            rules = args.rules.split(",") if args.rules else None
            new = ledger.derive_closure(rules=rules, depth=args.depth)
            for f in new:
                print(_fact_line(f))
            ledger.save(path)
            return PASS
        if args.ledger_cmd == "best":
            kind, params = _parse_query(args.query)
            fact = ledger.best_bound(kind, params)
            if fact is None:
                print("no matching fact")
                return FAIL
            for f in ledger.provenance_chain(fact):
                print(_fact_line(f))
            return PASS
        if args.ledger_cmd == "table":
            k_lo, k_hi = _parse_range(args.k)
            r_lo, r_hi = _parse_range(args.r)
            sys.stdout.write(ledger.emit_table(range(k_lo, k_hi + 1),
                                               range(r_lo, r_hi + 1),
                                               fmt=args.format))
            return PASS
    raise SystemExit(f"error: unknown ledger command {args.ledger_cmd!r}")


def _order_of(path) -> int:
    return col.load_colouring(path).order


def _fact_line(f: led.BoundFact) -> str:
    value = f.value.render() if isinstance(f.value, led.GammaValue) else f.value
    cert = f.certificate
    if cert["type"] == "derived":
        prov = f"derived[{cert['rule']}] from {cert['parents']}"
        if cert.get("note"):
            prov += f" ({cert['note']})"
    elif cert["type"] == "asserted":
        prov = f"asserted: {cert['source']}"
    else:
        prov = f"explicit: {cert['path']}"
    name = {led.GRAPH: "graph", led.RAMSEY: "R", led.GAMMA: "Gamma"}[f.kind]
    params = ",".join(str(k) for k in f.parameters)
    if f.kind == led.GRAPH:
        head = f"graph ({params}; {value})"
    elif f.kind == led.RAMSEY:
        head = f"R({params}) >= {value}"
    else:
        head = f"Gamma({params}) >= {value}"
    return f"fact {f.fact_id}: {head} -- {prov}"


def _parse_query(text: str):
    import re

    m = re.fullmatch(r"\s*(R|gamma|Gamma|graph)\s*\(([\d,\s]+)\)\s*", text)
    if not m:
        raise SystemExit(f"error: cannot parse query {text!r}")
    kind = {"R": led.RAMSEY, "gamma": led.GAMMA, "Gamma": led.GAMMA,
            "graph": led.GRAPH}[m.group(1)]
    params = tuple(int(x) for x in m.group(2).split(","))
    return kind, params


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    v = int(text)
    return v, v


# -- pipeline ---------------------------------------------------------------

def run_pipeline(recipe: dict, store_path: str | None = None) -> tuple[int, list[str]]:
    """Execute a recipe's steps in order; stop at the first failure.

    Fact-store changes are applied only if every step succeeds.
    """
    log: list[str] = []
    ledger = _load_store(store_path) if store_path else led.Ledger()
    bag: dict[str, object] = {}
    dirty = False
    for i, step in enumerate(recipe.get("steps", []), start=1):
        op = step["op"]
        try:
            if op == "seed":
                ids = led.load_seed_pack(ledger)
                log.append(f"step {i}: seeded {len(ids)} facts")
                dirty = True
            elif op == "colouring":
                c = _resolve_colouring(step)
                bag[step["name"]] = c
                log.append(f"step {i}: colouring '{step['name']}' "
                           f"order {c.order}")
            elif op == "construct":
                c = _pipeline_construct(step, bag)
                bag[step["name"]] = c
                log.append(f"step {i}: built '{step['name']}' via "
                           f"{step['rule']}, order {c.order}")
            elif op == "verify":
                target = bag[step["target"]]
                avoid = tuple(step["avoid"])
                report = ramsey_check(target, avoid)
                if not report.passes:
                    log.append(f"step {i}: verify '{step['target']}' FAILED")
                    return i, log
                log.append(f"step {i}: verified '{step['target']}' "
                           f"against {avoid}")
            elif op == "add_fact":
                target = bag[step["target"]]
                avoid = tuple(step["avoid"])
                report = ramsey_check(target, avoid)
                if not report.passes:
                    log.append(f"step {i}: fact for '{step['target']}' "
                               "fails verification")
                    return i, log
                flags = dict(step.get("flags", {}))
                fact = led.graph_fact(
                    avoid, target.order,
                    led.asserted(f"constructed in pipeline "
                                 f"{recipe.get('name', '?')}"),
                    **flags)
                fid = ledger.add_fact(fact)
                log.append(f"step {i}: fact {fid} added for "
                           f"'{step['target']}'")
                dirty = True
            elif op == "derive":
                new = ledger.derive_closure(rules=step.get("rules"),
                                            depth=step.get("depth", 2))
                log.append(f"step {i}: derived {len(new)} facts")
                dirty = True
            elif op == "expect":
                kind = {"graph": led.GRAPH, "R": led.RAMSEY,
                        "gamma": led.GAMMA}[step["kind"]]
                fact = ledger.best_bound(kind, tuple(step["parameters"]))
                want = step["min_value"]
                got = (float(fact.value) if fact is not None else None)
                if fact is None or got < float(want) - 1e-9:
                    log.append(f"step {i}: expectation {step} FAILED "
                               f"(got {got})")
                    return i, log
                log.append(f"step {i}: {step['kind']}"
                           f"({','.join(map(str, step['parameters']))}) "
                           f">= {want} confirmed ({_render(fact.value)})")
            else:
                log.append(f"step {i}: unknown op {op!r}")
                return i, log
        except Exception as e:  # any step error is a pipeline failure
            log.append(f"step {i}: error: {e}")
            return i, log
    if dirty and store_path:
        ledger.save(store_path)
    return 0, log


def _render(value):
    return value.render() if isinstance(value, led.GammaValue) else value


def _resolve_colouring(step: dict):
    if "builtin" in step:
        return {"single_edge": col.single_edge,
                "pentagon": col.pentagon}[step["builtin"]]()
    if "inline" in step:
        return col.parse_colouring(json.dumps(step["inline"]))
    return col.load_colouring(step["path"])


def _pipeline_construct(step: dict, bag: dict):
    rule = step["rule"]
    if rule == "paley":
        return cons.paley_colouring(step["q"])
    a = bag[step["a"]]
    if rule == "product":
        if a.kind == col.CYCLIC and bag[step["b"]].kind == col.CYCLIC:
            return cons.product_cyclic(a, bag[step["b"]])
        return cons.product_linear(a, bag[step["b"]])
    if rule == "template":
        T = double_to_template(a)
        return cons.template_compound(T, bag[step["b"]])
    if rule == "song":
        ga = a if isinstance(a, col.ExplicitColouring) else col.expand_to_explicit(a)
        b = bag[step["b"]]
        gb = b if isinstance(b, col.ExplicitColouring) else col.expand_to_explicit(b)
        return cons.song_product(ga, gb)
    raise ValueError(f"unknown construction rule {rule!r}")


def _load_recipe(name_or_path: str) -> dict:
    if os.path.exists(name_or_path):
        with open(name_or_path, encoding="utf-8") as f:
            return json.load(f)
    shipped = resources.files("ramseykit.data") / "recipes" / f"{name_or_path}.json"
    if shipped.is_file():
        return json.loads(shipped.read_text())
    raise SystemExit(f"error: no recipe {name_or_path!r}")


def cmd_pipeline(args) -> int:
    recipe = _load_recipe(args.recipe)
    store = _store_path(args) if args.use_store else None
    failed_step, log = run_pipeline(recipe, store_path=store)
    for line in log:
        print(line)
    if failed_step:
        print(f"pipeline stopped at step {failed_step}")
        return FAIL
    return PASS


# -- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ramseykit",
        description="Construct, verify and derive lower bounds for "
                    "multicolour Ramsey numbers.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="clique-check a colouring file")
    v.add_argument("file")
    v.add_argument("--avoid", help="comma-separated clique bounds")
    v.add_argument("--exact", action="store_true",
                   help="full clique numbers, no early exit")
    v.add_argument("--witness", action="store_true")
    v.set_defaults(fn=cmd_verify)

    t = sub.add_parser("template-check", help="validate a template graph")
    t.add_argument("file")
    t.add_argument("--avoid", required=True,
                   help="bounds of the non-template colours")
    t.add_argument("--reps", type=int, default=8)
    t.add_argument("--rainbow-n", type=int, default=4)
    t.set_defaults(fn=cmd_template_check)

    c = sub.add_parser("construct", help="build a compound colouring")
    c.add_argument("rule", choices=["product", "template", "song", "paley"])
    c.add_argument("--a")
    c.add_argument("--b")
    c.add_argument("--q", type=int, help="prime order for paley")
    c.add_argument("--out")
    c.add_argument("--no-verify", action="store_true")
    c.set_defaults(fn=cmd_construct)

    e = sub.add_parser("encode", help="emit a DIMACS CNF search instance")
    e.add_argument("kind", choices=["cyclic", "linear", "extension"])
    e.add_argument("--order", type=int)
    e.add_argument("--avoid", required=True)
    e.add_argument("--prototype", help="prototype colouring (extension)")
    e.add_argument("--t", type=int, help="extension width")
    e.add_argument("--clause-cap", type=int, default=sat.DEFAULT_CLAUSE_CAP)
    e.add_argument("--out")
    e.set_defaults(fn=cmd_encode)

    s = sub.add_parser("solve", help="run the internal solver on a .cnf")
    s.add_argument("cnf")
    s.add_argument("--budget", type=int, default=sat.DEFAULT_CONFLICT_BUDGET)
    s.add_argument("--model-out")
    s.set_defaults(fn=cmd_solve)

    d = sub.add_parser("decode", help="decode a solver model to a colouring")
    d.add_argument("--cnf", required=True)
    d.add_argument("--model", required=True)
    d.add_argument("--out")
    d.set_defaults(fn=cmd_decode)

    se = sub.add_parser("search", help="iterative searches")
    se_sub = se.add_subparsers(dest="search_kind", required=True)
    st = se_sub.add_parser("template", help="prototype-extension template search")
    st.add_argument("--prototype", required=True)
    st.add_argument("--t", type=int, required=True)
    st.add_argument("--avoid", required=True)
    st.add_argument("--reps", type=int, default=8)
    st.add_argument("--rainbow-n", type=int, default=4)
    st.add_argument("--budget", type=int, default=sat.DEFAULT_CONFLICT_BUDGET)
    st.add_argument("--out")
    st.set_defaults(fn=cmd_search)

    lg = sub.add_parser("ledger", help="fact store operations")
    lg.add_argument("--store", help="fact store path "
                    f"(default ${FACT_STORE_ENV} or {DEFAULT_FACT_STORE})")
    lg_sub = lg.add_subparsers(dest="ledger_cmd", required=True)
    ls = lg_sub.add_parser("seed", help="load the shipped asserted-fact pack")
    la = lg_sub.add_parser("add", help="add a verified colouring file")
    la.add_argument("file")
    la.add_argument("--avoid", required=True)
    la.add_argument("--cyclic", action="store_true")
    lassert = lg_sub.add_parser("assert", help="record an asserted fact")
    lassert.add_argument("params", help="comma-separated clique bounds")
    lassert.add_argument("order", type=int)
    lassert.add_argument("--source", required=True)
    lassert.add_argument("--cyclic", action="store_true")
    lassert.add_argument("--template", action="store_true")
    lassert.add_argument("--phi", type=int)
    lassert.add_argument("--degree", type=int)
    lassert.add_argument("--degree-index", type=int, default=0)
    ld = lg_sub.add_parser("derive", help="close the ledger under rules")
    ld.add_argument("--rules", help="comma-separated rule ids (default all)")
    ld.add_argument("--depth", type=int, default=2)
    lb = lg_sub.add_parser("best", help="best bound for a query")
    lb.add_argument("query", help='e.g. "R(3,3,3,3)", "gamma(5)", "graph(3,3)"')
    lt = lg_sub.add_parser("table", help="grid of best diagonal orders")
    lt.add_argument("--k", required=True, help="range a..b")
    lt.add_argument("--r", required=True, help="range a..b")
    lt.add_argument("--format", choices=["md", "csv"], default="md")
    for sp in (ls, la, lassert, ld, lb, lt):
        sp.set_defaults(fn=cmd_ledger)
    lg.set_defaults(fn=cmd_ledger)

    pl = sub.add_parser("pipeline", help="run a recipe file")
    pl.add_argument("recipe", help="path or shipped recipe name")
    pl.add_argument("--store")
    pl.add_argument("--use-store", action="store_true",
                    help="apply fact changes to the fact store")
    pl.set_defaults(fn=cmd_pipeline)

    return p


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return ERROR if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except SystemExit as e:
        if isinstance(e.code, str):
            print(e.code, file=sys.stderr)
            return ERROR
        return e.code if e.code is not None else 0
    except (OSError, ValueError, KeyError, led.LedgerError) as e:
        print(f"error: {e}", file=sys.stderr)
        return ERROR


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
