"""Command-line entry point wiring all modules together.

Exit codes: 0 = success / check passes, 1 = domain negative (a failed check,
an UNSAT instance, a search without result), 2 = usage or I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from fractions import Fraction
from importlib import resources
from math import isfinite

from . import colouring as col
from . import constructions as cons
from . import ledger as led
from . import sat
from .cliques import CliqueReport, ramsey_check
from .templates import (
    TF,
    TemplateGraph,
    covering_q,
    double_to_template,
    validate_template,
)

PASS, FAIL, ERROR = 0, 1, 2

FACT_STORE_ENV = "RAMSEYKIT_FACTS"
DEFAULT_FACT_STORE = "ramsey_facts.jsonl"


def _parse_avoid(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"bad avoid list {text!r}") from None


def _print_report(report: CliqueReport, avoid, witness: bool) -> None:
    for s, (size, k, exact) in enumerate(
            zip(report.per_colour_max, avoid, report.exact), start=1):
        rel = "=" if exact else ">="
        verdict = "ok" if size < k else "CLIQUE"
        print(f"colour {s}: max clique {rel} {size} (bound {k}) {verdict}")
        if witness and report.witness[s - 1]:
            print(f"  witness: {list(report.witness[s - 1])}")
    print("PASS" if report.passes else "FAIL")


# -- subcommands ------------------------------------------------------------

def cmd_verify(args) -> int:
    c = col.load_colouring(args.file)
    avoid = c.avoid if args.avoid is None else _parse_avoid(args.avoid)
    if avoid is None:
        raise ValueError("no avoid vector given or stored in the file")
    report = ramsey_check(c, avoid, exact=args.exact)
    _print_report(report, avoid, args.witness)
    return PASS if report.passes else FAIL


def cmd_template_check(args) -> int:
    c = col.load_colouring(args.file)
    if not isinstance(c, col.LengthColouring) or c.template_colour is None:
        raise ValueError("file does not carry a template_colour")
    avoid = _parse_avoid(args.avoid)
    base = c.as_linear()
    failure = validate_template(base, c.template_colour, avoid)
    if failure is not None and failure.stage == TF:
        print(f"not a template: {failure}")
        return FAIL
    T = TemplateGraph(base, c.template_colour)
    print(f"template order {T.order}, phi {T.phi}")
    print(failure or f"repetition q=1..{covering_q(T, avoid)}: ok, "
          "covers every prototype")
    print("PASS" if failure is None else "FAIL")
    return PASS if failure is None else FAIL


def _write(text: str, path: str | None) -> None:
    """Write `text` to the file `path`, or to stdout when there is none."""
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _require(what: str, operands, names) -> None:
    """ValueError (exit 2) naming the first of `names` missing or None."""
    for name in names:
        if operands.get(name) is None:
            raise ValueError(f"{what}: missing operand {name!r}")


def _length(what: str, name: str, c):
    """`c` if it is a length colouring, else ValueError (exit 2)."""
    if not isinstance(c, col.LengthColouring):
        raise ValueError(f"{what}: operand {name!r} must be a length "
                         "colouring, not an explicit one")
    return c


def _explicit(c):
    return (c if isinstance(c, col.ExplicitColouring)
            else col.expand_to_explicit(c))


def _product(a, b):
    a = _length("construct product", "a", a)
    b = _length("construct product", "b", b)
    if a.kind == col.CYCLIC and b.kind == col.CYCLIC:
        return cons.product_cyclic(a, b)
    return cons.product_linear(a, b)


def _template(a, b):
    a = _length("construct template", "a", a)
    b = _length("construct template", "b", b)
    # a colouring without a template colour is doubled into a template
    if a.template_colour is not None:
        T = TemplateGraph(a.as_linear(), a.template_colour)
    else:
        T = double_to_template(a)
    return cons.template_compound(T, b)


# rule -> (operand names, builder); operands a and b are colourings
CONSTRUCTIONS = {
    "paley": (("q",), cons.paley_colouring),
    "product": (("a", "b"), _product),
    "template": (("a", "b"), _template),
    "song": (("a", "b"), lambda a, b: cons.song_product(_explicit(a),
                                                        _explicit(b))),
}


def construct(rule: str, operands, resolve):
    """Build `rule` from the named `operands`; `resolve` turns operand a or
    b into a colouring (a file path for the CLI, a step name in a recipe)."""
    if rule not in CONSTRUCTIONS:
        raise ValueError(f"unknown construction rule {rule!r}")
    names, build = CONSTRUCTIONS[rule]
    _require(f"construct {rule}", operands, names)
    return build(*(operands[n] if n == "q" else resolve(operands[n])
                   for n in names))


def cmd_construct(args) -> int:
    out = construct(args.rule, vars(args), col.load_colouring)
    if out.avoid is not None and not args.no_verify:
        report = ramsey_check(out, out.avoid)
        if not report.passes:
            print("construction failed verification; refusing to emit",
                  file=sys.stderr)
            return FAIL
    elif args.no_verify:
        out = replace(out, comment="unverified")
    _write(col.serialize_colouring(out), args.out)
    return PASS


def cmd_encode(args) -> int:
    avoid = _parse_avoid(args.avoid)
    what = f"encode {args.kind}"
    _require(what, vars(args),
             ("prototype", "t") if args.kind == "extension" else ("order",))
    if args.kind == "cyclic":
        inst = sat.encode_cyclic(args.order, avoid, clause_cap=args.clause_cap)
    elif args.kind == "linear":
        inst = sat.encode_linear(args.order, avoid, clause_cap=args.clause_cap)
    else:
        inst = sat.encode_extension(_extension_spec(what, args, avoid),
                                    clause_cap=args.clause_cap)
    _write(sat.write_dimacs(inst), args.out)
    return PASS


def cmd_solve(args) -> int:
    with open(args.cnf, encoding="utf-8") as f:
        inst = sat.read_dimacs(f.read())
    result = sat.solve_internal(inst, conflict_budget=args.budget)
    print(f"c conflicts {result.conflicts} decisions {result.decisions}")
    print(f"s {result.status}")
    if result.status == sat.SAT:
        values = "v " + " ".join(str(lit) for lit in result.model) + " 0"
        print(values)
        if args.model_out:
            _write(f"s SATISFIABLE\n{values}\n", args.model_out)
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
    _write(col.serialize_colouring(decoded), args.out)
    return PASS


def _extension_spec(what: str, args, avoid) -> sat.SearchSpec:
    proto = col.to_cyclic(_length(what, "prototype",
                                  col.load_colouring(args.prototype)))
    return sat.SearchSpec(proto, args.t, avoid)


def cmd_search(args) -> int:
    spec = _extension_spec("search template", args, _parse_avoid(args.avoid))
    result = sat.search_template(spec, conflict_budget=args.budget)
    for line in result.log:
        print(line)
    if result.status == "found":
        _write(col.serialize_colouring(result.template.base), args.out)
        return PASS
    return FAIL


# -- ledger -----------------------------------------------------------------

@contextmanager
def _locked_store(path):
    fd = os.open(path + ".lock", os.O_CREAT | os.O_RDWR)
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
    return led.Ledger.load(path) if os.path.exists(path) else led.Ledger()


def cmd_ledger(args) -> int:
    path = _store_path(args)
    with _locked_store(path):
        ledger = _load_store(path)
        loaded = len(ledger.facts)
        if args.ledger_cmd == "best":
            chain = ledger.proof(*_parse_query(args.query))
            if not chain:
                print("no matching fact")
                return FAIL
            for f in chain:
                print(_fact_line(f))
        elif args.ledger_cmd == "table":
            sys.stdout.write(ledger.emit_table(_parse_range(args.k),
                                               _parse_range(args.r),
                                               fmt=args.format))
        elif args.ledger_cmd == "seed":
            ids = led.load_seed_pack(ledger)
            print(f"loaded {len(ids)} seed facts")
        elif args.ledger_cmd == "add":
            avoid = _parse_avoid(args.avoid)
            store_dir = os.path.dirname(path) or "."
            # relative to the real store directory, where loads climb; read once
            file_dir, name = os.path.split(args.file)
            cert_path = os.path.relpath(os.path.join(
                os.path.realpath(file_dir), name), os.path.realpath(store_dir))
            c = col.load_colouring(os.path.join(store_dir, cert_path))
            flags = ({"cyclic": True} if args.cyclic else
                     {"linear": True} if isinstance(c, col.LengthColouring)
                     else {})  # an explicit colouring has no length form
            fact = led.graph_fact(
                avoid, c.order, {"type": "explicit", "path": cert_path},
                **flags)
            fid = ledger.add_fact(fact, store_dir, c)
            print(f"fact {fid}: graph {avoid}; order {fact.value} (explicit)")
        elif args.ledger_cmd == "assert":
            params = _parse_avoid(args.params)
            flags = {"cyclic": True} if args.cyclic else {}
            if args.template or args.phi is not None:  # phi null if absent
                flags.update(template=args.template or None, phi=args.phi)
            if args.degree is not None or args.degree_index is not None:
                flags.update(special_degree=args.degree,
                             special_degree_index=args.degree_index or 0)
            fact = led.graph_fact(params, args.order,
                                  led.asserted(args.source), **flags)
            fid = ledger.add_fact(fact)
            print(f"fact {fid}: graph {params}; order {args.order} (asserted)")
        else:  # derive
            rules = None if args.rules is None else args.rules.split(",")
            for f in ledger.derive_closure(rules=rules, depth=args.depth):
                print(_fact_line(f))
        if len(ledger.facts) > loaded:  # facts are append-only
            ledger.save(path)
    return PASS


# The name of each fact kind in printed facts, `ledger best` queries and
# recipe `expect` steps; gamma may also be written in lower case.
KIND_NAMES = {led.GRAPH: "graph", led.RAMSEY: "R", led.GAMMA: "Gamma"}
_KINDS = {**{name: kind for kind, name in KIND_NAMES.items()},
          "gamma": led.GAMMA}


def _fact_line(f: led.BoundFact) -> str:
    cert = f.certificate
    if cert["type"] == "derived":
        prov = f"derived[{cert['rule']}] from {cert['parents']}"
        if cert.get("note"):
            prov += f" ({cert['note']})"
    elif cert["type"] == "asserted":
        prov = f"asserted: {cert['source']}"
    else:
        prov = f"explicit: {cert['path']}"
    name = KIND_NAMES[f.kind]
    params = ",".join(str(k) for k in f.parameters)
    head = (f"{name} ({params}; {f.value})" if f.kind == led.GRAPH
            else f"{name}({params}) >= {f.value}")
    return f"fact {f.fact_id}: {head} -- {prov}"


def _parse_query(text: str):
    m = re.fullmatch(r"\s*(\w+)\s*\(((?:\s*\d+\s*,)*\s*\d+\s*)\)\s*", text)
    if not m or m.group(1) not in _KINDS:
        raise ValueError(f"cannot parse query {text!r}")
    return _KINDS[m.group(1)], col.clique_bounds(
        [int(k) for k in m.group(2).split(",")], name="parameters")


def _parse_range(text: str) -> range:
    """`a..b`, or one value `a`, as the range a..b, with 1 <= a <= b."""
    ends = text.split("..")
    try:
        lo, hi = int(ends[0]), int(ends[-1])
        if len(ends) <= 2 and 1 <= lo <= hi:
            return range(lo, hi + 1)
    except ValueError:
        pass
    raise ValueError(f"bad range {text!r}")


# -- pipeline ---------------------------------------------------------------

class _Step(dict):
    """A recipe step; a key it lacks is a ValueError that names the key."""

    def __missing__(self, key):
        raise ValueError(f"missing key {key!r}")


def run_pipeline(recipe: dict, store_path: str | None = None) -> tuple[int, list[str]]:
    """Execute a recipe's steps in order; stop at the first failure.

    The fact store is rewritten only if every step succeeds and facts were
    added, as `ledger` rewrites it.  A recipe that is not an object, or a
    step that is not one, is a ValueError.
    """
    steps = recipe.get("steps", []) if isinstance(recipe, dict) else None
    if not (isinstance(steps, list)
            and all(isinstance(step, dict) for step in steps)):
        raise ValueError("a recipe is an object whose steps are a list of "
                         "objects")
    log: list[str] = []
    ledger = _load_store(store_path) if store_path else led.Ledger()
    loaded = len(ledger.facts)
    bag: dict[str, object] = {}

    def named(name):
        if name not in bag:
            raise ValueError(f"no colouring named {name!r}")
        return bag[name]

    for i, step in enumerate(map(_Step, steps), start=1):
        try:
            op = step["op"]
            if op == "seed":
                ids = led.load_seed_pack(ledger)
                log.append(f"step {i}: seeded {len(ids)} facts")
            elif op == "colouring":
                c = _resolve_colouring(step)
                bag[step["name"]] = c
                log.append(f"step {i}: colouring '{step['name']}' "
                           f"order {c.order}")
            elif op == "construct":
                c = construct(step["rule"], step, named)
                bag[step["name"]] = c
                log.append(f"step {i}: built '{step['name']}' via "
                           f"{step['rule']}, order {c.order}")
            elif op == "verify":
                target = named(step["target"])
                avoid = col.clique_bounds(step["avoid"])
                report = ramsey_check(target, avoid)
                if not report.passes:
                    log.append(f"step {i}: verify '{step['target']}' FAILED")
                    return i, log
                log.append(f"step {i}: verified '{step['target']}' "
                           f"against {avoid}")
            elif op == "add_fact":
                target = named(step["target"])
                flags = step.get("flags", {})
                if not isinstance(flags, dict):
                    raise ValueError(f"flags: expected an object, got "
                                     f"{flags!r}")
                fact = led.graph_fact(
                    col.clique_bounds(step["avoid"]), target.order,
                    led.asserted(f"constructed in pipeline "
                                 f"{recipe.get('name', '?')}"), **flags)
                led.check_certificate(fact, target, f"'{step['target']}'")
                fid = ledger.add_fact(fact)
                log.append(f"step {i}: fact {fid} added for "
                           f"'{step['target']}'")
            elif op == "derive":
                new = ledger.derive_closure(rules=step.get("rules"),
                                            depth=step.get("depth", 2))
                log.append(f"step {i}: derived {len(new)} facts")
            elif op == "expect":
                kind = _KINDS.get(step["kind"])
                if kind is None:
                    raise ValueError(f"unknown kind {step['kind']!r}")
                want = step["min_value"]
                if not (type(want) is int
                        or type(want) is float and isfinite(want)):
                    raise ValueError(f"min_value: expected a finite number, "
                                     f"got {want!r}")
                chain = ledger.proof(kind, col.clique_bounds(
                    step["parameters"], name="parameters"))
                got = chain[-1].value if chain else None
                if got is None or got < (led.GammaValue(Fraction(str(want)))
                                         if kind == led.GAMMA else want):
                    log.append(f"step {i}: expectation {step} FAILED "
                               f"(got {got})")
                    return i, log
                log.append(f"step {i}: {step['kind']}"
                           f"({','.join(map(str, step['parameters']))}) "
                           f">= {want} confirmed ({got})")
            else:
                log.append(f"step {i}: unknown op {op!r}")
                return i, log
        except Exception as e:  # any step error is a pipeline failure
            log.append(f"step {i}: error: {e}")
            return i, log
    if store_path and len(ledger.facts) > loaded:
        ledger.save(store_path)
    return 0, log


def _resolve_colouring(step: dict):
    if "builtin" in step:
        builtins = {"single_edge": col.single_edge, "pentagon": col.pentagon}
        if step["builtin"] not in builtins:
            raise ValueError(f"unknown builtin {step['builtin']!r}")
        return builtins[step["builtin"]]()
    if "inline" in step:
        return col.parse_colouring(json.dumps(step["inline"]))
    return col.load_colouring(step["path"])


def _load_recipe(name_or_path: str) -> dict:
    if os.path.exists(name_or_path):
        with open(name_or_path, encoding="utf-8") as f:
            text = f.read()
    else:
        shipped = (resources.files("ramseykit.data") / "recipes"
                   / f"{name_or_path}.json")
        if not shipped.is_file():
            raise ValueError(f"no recipe {name_or_path!r}")
        text = shipped.read_text()
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ValueError(f"recipe {name_or_path!r}: {e}") from None


def cmd_pipeline(args) -> int:
    if args.store and not args.use_store:
        raise ValueError("pipeline: --store applies only with --use-store")
    recipe = _load_recipe(args.recipe)
    store = _store_path(args) if args.use_store else None
    with _locked_store(store) if store else nullcontext():
        failed_step, log = run_pipeline(recipe, store_path=store)
    for line in log:
        print(line)
    if failed_step:
        print(f"pipeline stopped at step {failed_step}")
        return FAIL
    return PASS


# -- parser -----------------------------------------------------------------

@functools.cache  # parsing leaves the parser as it was
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
    # Hidden and ignored: the tiling count follows from the template
    # (templates.covering_q).  --reps stays only because
    # perfbench/workloads.py still passes `--reps 4` to template-check.
    t.add_argument("--reps", type=int, help=argparse.SUPPRESS)
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
    e.add_argument("--clause-cap", type=int, default=sat.DEFAULT_CLAUSE_CAP,
                   help="most cliques to list before giving up")
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
    st.add_argument("--budget", type=int, default=sat.DEFAULT_CONFLICT_BUDGET)
    st.add_argument("--out")
    st.set_defaults(fn=cmd_search)

    lg = sub.add_parser("ledger", help="fact store operations")
    lg.add_argument("--store", help="fact store path "
                    f"(default ${FACT_STORE_ENV} or {DEFAULT_FACT_STORE})")
    lg_sub = lg.add_subparsers(dest="ledger_cmd", required=True)
    lg_sub.add_parser("seed", help="load the shipped asserted-fact pack")
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
    lassert.add_argument("--degree-index", type=int)
    ld = lg_sub.add_parser("derive", help="close the ledger under rules")
    ld.add_argument("--rules", help="comma-separated rule ids (default all)")
    ld.add_argument("--depth", type=int, default=2)
    lb = lg_sub.add_parser("best", help="best bound for a query")
    lb.add_argument("query", help='e.g. "R(3,3,3,3)", "gamma(5)", "graph(3,3)"')
    lt = lg_sub.add_parser("table", help="grid of best diagonal orders")
    lt.add_argument("--k", required=True, help="range a..b")
    lt.add_argument("--r", required=True, help="range a..b")
    lt.add_argument("--format", choices=["md", "csv"], default="md")
    lg.set_defaults(fn=cmd_ledger)

    pl = sub.add_parser("pipeline", help="run a recipe file")
    pl.add_argument("recipe", help="path or shipped recipe name")
    pl.add_argument("--store", help="fact store path (needs --use-store)")
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
    except (OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return ERROR


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
