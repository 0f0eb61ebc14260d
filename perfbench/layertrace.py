"""Layer tracing from outside the program.

`install()` wraps the public functions of each ramseykit module and replaces
every binding of them: the defining module and each module that bound the
name with `from ... import` (cli, sat, templates and ledger each hold their
own `ramsey_check`), so nested calls are recorded too.  Each call becomes a
span (name, parent span, job, start, end, counts); spans stay in memory
until `Tracer.dump` writes them out, and `layer_metrics` derives per-layer
busy times, self times and counts from them.

`Ledger.derive_closure` is replaced by a wrapper that runs the original one
pass at a time (`depth=1` per call), so each closure pass is its own span.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent, job, start, end, counts]
        self._stack: list[int] = []
        self.job: str | None = None
        self.active = True

    def call(self, name, fn, args, kwargs, count=None):
        if not self.active:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        span = [name, self._stack[-1] if self._stack else None, self.job,
                time.perf_counter(), None, None]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            out = fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            self._stack.pop()
        if count is not None:
            span[5] = count(out, args, kwargs)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, parent, job, start, end, counts in self.spans:
                f.write(json.dumps({"name": name, "parent": parent,
                                    "job": job, "start": start, "end": end,
                                    "counts": counts}) + "\n")


def _order_of(out, args, kwargs):
    return {"order": out.order}


def _clique_report(out, args, kwargs):
    return {"order": args[0].order, "colours": len(out.exact),
            "early_stops": sum(1 for e in out.exact if not e)}


def _clauses(out, args, kwargs):
    return {"clauses": len(out.clauses)}


def _solve(out, args, kwargs):
    return {"conflicts": out.conflicts, "decisions": out.decisions}


def _text_out(out, args, kwargs):
    return {"bytes": len(out)}


def _text_in(out, args, kwargs):
    return {"bytes": len(args[0])}


def _search(out, args, kwargs):
    return {"iterations": out.iterations}


def _new_facts(out, args, kwargs):
    return {"kept": len(out), "total": len(args[0].facts)}


def _store_size(out, args, kwargs):
    return {"bytes": os.path.getsize(args[1])}


# (module, attribute, span name, count function)
FUNCTIONS = (
    ("cli", "dispatch", "cli.dispatch", None),
    ("cliques", "ramsey_check", "cliques.ramsey_check", _clique_report),
    ("cliques", "max_clique_in_colour", "cliques.max_clique_in_colour", None),
    ("colouring", "expand_to_explicit", "colouring.expand", None),
    ("colouring", "load_colouring", "colouring.load", None),
    ("colouring", "save_colouring", "colouring.save", None),
    ("colouring", "parse_colouring", "colouring.parse", _text_in),
    ("colouring", "serialize_colouring", "colouring.serialize", _text_out),
    ("constructions", "paley_colouring", "constructions.paley", _order_of),
    ("constructions", "product_linear", "constructions.product_linear",
     _order_of),
    ("constructions", "product_cyclic", "constructions.product_cyclic",
     _order_of),
    ("constructions", "template_compound", "constructions.template_compound",
     _order_of),
    ("constructions", "song_product", "constructions.song_product",
     _order_of),
    ("templates", "template_usable", "templates.template_usable", None),
    ("templates", "repetition_check", "templates.repetition_check", None),
    ("templates", "tiled_colouring", "templates.tiled_colouring", _order_of),
    ("sat", "encode_cyclic", "sat.encode", _clauses),
    ("sat", "encode_linear", "sat.encode", _clauses),
    ("sat", "encode_extension", "sat.encode", _clauses),
    ("sat", "write_dimacs", "sat.write_dimacs", _text_out),
    ("sat", "read_dimacs", "sat.read_dimacs", _text_in),
    ("sat", "solve_internal", "sat.solve", _solve),
    ("sat", "parse_model", "sat.decode", None),
    ("sat", "decode_model", "sat.decode", None),
    ("sat", "search_template", "sat.search_template", _search),
    ("ledger", "load_seed_pack", "ledger.seed_pack", None),
)
# Ledger methods: (attribute, span name, count function)
LEDGER_METHODS = (
    ("save", "ledger.save", _store_size),
    ("add_fact", "ledger.add_fact", None),
    ("best_bound", "ledger.query", None),
    ("provenance_chain", "ledger.query", None),
    ("emit_table", "ledger.query", None),
    ("recompute_check", "ledger.query", None),
)


def _wrapper(tracer, name, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, count)
    return traced


def _rebind(original, replacement) -> None:
    """Replace `original` in every ramseykit module namespace holding it."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "ramseykit" and not mod_name.startswith("ramseykit."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install() -> Tracer:
    """Wrap the layer functions; return the tracer recording their spans."""
    import importlib

    tracer = Tracer()
    for mod, attr, name, count in FUNCTIONS:
        module = importlib.import_module(f"ramseykit.{mod}")
        fn = getattr(module, attr)
        _rebind(fn, _wrapper(tracer, name, fn, count))

    from ramseykit.ledger import Ledger

    for attr, name, count in LEDGER_METHODS:
        setattr(Ledger, attr,
                _wrapper(tracer, name, getattr(Ledger, attr), count))
    load = Ledger.__dict__["load"].__func__
    Ledger.load = classmethod(_wrapper(tracer, "ledger.load", load, None))

    one_pass = Ledger.derive_closure

    def derive_by_pass(self, rules=None, depth=2, max_colours=16):
        new = []
        for _ in range(depth):
            got = tracer.call("ledger.pass", one_pass,
                              (self,), {"rules": rules, "depth": 1,
                                        "max_colours": max_colours},
                              _new_facts)
            new.extend(got)
            if not got:
                break
        return new

    Ledger.derive_closure = _wrapper(tracer, "ledger.derive", derive_by_pass,
                                     _new_facts)
    return tracer


# -- derived metrics ---------------------------------------------------------

MODULES = ("cliques", "colouring", "constructions", "templates", "sat",
           "ledger", "cli")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics from spans; names are `<module>.<metric>`."""
    def duration(i):
        return spans[i][4] - spans[i][3]

    def under(i, names):
        """True if an ancestor of span i has a name in `names`."""
        p = spans[i][1]
        while p is not None:
            if spans[p][0] in names:
                return True
            p = spans[p][1]
        return False

    def busy(names, outside=()):
        """Time covered by spans in `names`, nested ones counted once."""
        names = set(names)
        return sum(duration(i) for i, s in enumerate(spans)
                   if s[0] in names and not under(i, names | set(outside)))

    def calls(name):
        return [s for s in spans if s[0] == name]

    def total(name, key, outermost=None):
        return sum((s[5] or {}).get(key, 0) for i, s in enumerate(spans)
                   if s[0] == name
                   and (outermost is None or not under(i, outermost)))

    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[1] is not None:
            child_time[s[1]] += duration(i)
    self_time = {m: 0.0 for m in MODULES}
    for i, s in enumerate(spans):
        self_time[s[0].split(".")[0]] += duration(i) - child_time[i]

    builds = {"constructions.paley", "constructions.product_linear",
              "constructions.product_cyclic",
              "constructions.template_compound", "constructions.song_product"}
    io_names = {"colouring.load", "colouring.save", "colouring.parse",
                "colouring.serialize"}
    reports = calls("cliques.ramsey_check")
    colours = sum(s[5]["colours"] for s in reports)
    passes = [duration(i) for i, s in enumerate(spans)
              if s[0] == "ledger.pass"]
    derives = calls("ledger.derive")
    searches = calls("sat.search_template")
    m = {
        "cliques.check_s": busy({"cliques.ramsey_check"}),
        "cliques.checks": len(reports),
        "cliques.colour_search_s": busy({"cliques.max_clique_in_colour"}),
        "cliques.colour_searches": len(calls("cliques.max_clique_in_colour")),
        "cliques.vertices_checked": sum(s[5]["order"] for s in reports),
        "cliques.early_stop_ratio": (
            sum(s[5]["early_stops"] for s in reports) / colours
            if colours else 0.0),
        "colouring.expand_s": busy({"colouring.expand"}),
        "colouring.expand_calls": len(calls("colouring.expand")),
        "colouring.io_s": busy(io_names),
        "colouring.io_bytes": (total("colouring.parse", "bytes")
                               + total("colouring.serialize", "bytes")),
        "constructions.build_s": busy(builds),
        "constructions.builds": sum(
            1 for i, s in enumerate(spans)
            if s[0] in builds and not under(i, builds)),
        "constructions.vertices_built": sum(
            s[5]["order"] for i, s in enumerate(spans)
            if s[0] in builds and not under(i, builds)),
        "templates.validate_s": busy({"templates.template_usable",
                                      "templates.repetition_check"}),
        "templates.repetition_checks": len(calls("templates.repetition_check")),
        "templates.tiled_vertices": total("templates.tiled_colouring",
                                          "order"),
        "sat.encode_s": busy({"sat.encode"}),
        "sat.clauses": total("sat.encode", "clauses"),
        "sat.dimacs_s": busy({"sat.write_dimacs", "sat.read_dimacs"}),
        "sat.dimacs_bytes": (total("sat.write_dimacs", "bytes")
                             + total("sat.read_dimacs", "bytes")),
        "sat.solve_s": busy({"sat.solve"}),
        "sat.solves": len(calls("sat.solve")),
        "sat.conflicts": total("sat.solve", "conflicts"),
        "sat.decisions": total("sat.solve", "decisions"),
        "sat.decode_s": busy({"sat.decode"}),
        "sat.search_s": busy({"sat.search_template"}),
        "sat.search_iterations": sum(s[5]["iterations"] for s in searches),
        "sat.refinements": sum(s[5]["iterations"] - 1 for s in searches),
        "ledger.derive_s": busy({"ledger.derive"}),
        "ledger.pass_s": max(passes, default=0.0),
        "ledger.passes": len(passes),
        "ledger.facts_kept": total("ledger.derive", "kept"),
        "ledger.facts_total": max((s[5]["total"] for s in derives),
                                  default=0),
        "ledger.load_s": busy({"ledger.load"}),
        "ledger.save_s": busy({"ledger.save"}),
        "ledger.store_bytes": max((s[5]["bytes"] for s in
                                   calls("ledger.save")), default=0),
        "ledger.reverify_s": sum(
            duration(i) for i, s in enumerate(spans)
            if s[0] == "cliques.ramsey_check" and under(i, {"ledger.load"})),
        "ledger.add_s": busy({"ledger.add_fact"},
                             outside={"ledger.load", "ledger.derive"}),
        "ledger.query_s": busy({"ledger.query"}),
        "cli.dispatch_s": busy({"cli.dispatch"}),
        "cli.commands": len(calls("cli.dispatch")),
    }
    for module in MODULES:
        m[f"{module}.self_s"] = self_time[module]
    m["trace.spans"] = len(spans)
    return m
