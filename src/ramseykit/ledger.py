"""Persistent database of graph-existence facts and derived lower bounds.

Facts come in three kinds: graph_exists (a colouring of some order with the
stated clique bounds), ramsey_lower_bound (R(...) >= value), and
gamma_lower_bound (limiting growth rate, stored as an exact radical).
Certificates are explicit (a verified colouring file), asserted (a sourced
claim), or derived (a rule application with parent facts), and every derived
value is recomputable from its parents.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field, replace
from decimal import ROUND_DOWN, Decimal, localcontext
from fractions import Fraction
from importlib import resources

from .colouring import ExplicitColouring, check_cyclic_symmetry, load_colouring
from .cliques import ramsey_check
from .constructions import grid_bound
from .templates import compound_order, doubled_shape

GRAPH = "graph_exists"
RAMSEY = "ramsey_lower_bound"
GAMMA = "gamma_lower_bound"

_log = logging.getLogger(__name__)


class LedgerError(ValueError):
    pass


@dataclass(frozen=True)
class GammaValue:
    """Exact radical base**(1/root); rendered to 6 decimals, rounded down.

    Rounding toward zero keeps the rendered figure a valid lower bound.
    """

    base: Fraction
    root: int = 1

    def __post_init__(self):
        object.__setattr__(self, "base", Fraction(self.base))
        if self.root < 1:
            raise LedgerError(f"root must be >= 1, got {self.root}")

    def render(self, places: int = 6) -> str:
        with localcontext() as ctx:
            ctx.prec = 50
            x = Decimal(self.base.numerator) / Decimal(self.base.denominator)
            val = x ** (Decimal(1) / Decimal(self.root)) if self.root > 1 else x
            quantum = Decimal(1).scaleb(-places)
            return str(val.quantize(quantum, rounding=ROUND_DOWN))

    def __float__(self) -> float:
        return float(self.base) ** (1.0 / self.root)

    def _cmp_key(self, other: "GammaValue"):
        # a**(1/p) vs c**(1/q)  <=>  a**q vs c**p, exactly in rationals
        return self.base ** other.root, other.base ** self.root

    def __lt__(self, other):
        a, b = self._cmp_key(other)
        return a < b

    def __le__(self, other):
        a, b = self._cmp_key(other)
        return a <= b


@dataclass(frozen=True)
class BoundFact:
    kind: str
    parameters: tuple[int, ...]
    value: int | GammaValue
    certificate: dict
    flags: dict = field(default_factory=dict)
    fact_id: int | None = None

    def __post_init__(self):
        if self.kind not in (GRAPH, RAMSEY, GAMMA):
            raise LedgerError(f"unknown fact kind {self.kind!r}")
        ctype = self.certificate.get("type")
        if ctype not in ("explicit", "asserted", "derived"):
            raise LedgerError(f"unknown certificate type {ctype!r}")
        if self.kind == GAMMA and not isinstance(self.value, GammaValue):
            raise LedgerError("gamma facts need a GammaValue")
        if self.kind != GAMMA and not isinstance(self.value, int):
            raise LedgerError("order/bound facts need an integer value")
        idx = self.flags.get("special_degree_index")
        if idx is not None and not (type(idx) is int
                                    and 0 <= idx < len(self.parameters)):
            raise LedgerError(f"special_degree_index {idx} is not a "
                              f"position in {self.parameters}")

    @property
    def sorted_parameters(self) -> tuple[int, ...]:
        return tuple(sorted(self.parameters))

    def identity(self):
        value_key = (
            (self.value.base, self.value.root)
            if isinstance(self.value, GammaValue) else self.value
        )
        return (self.kind, self.parameters, value_key,
                json.dumps([self.certificate, self.flags], sort_keys=True))


def graph_fact(parameters, order, certificate, **flags) -> BoundFact:
    return BoundFact(GRAPH, tuple(parameters), order, certificate, dict(flags))


def asserted(source: str) -> dict:
    return {"type": "asserted", "source": source}


def derived(rule: str, parents: list[int], note: str | None = None) -> dict:
    cert = {"type": "derived", "rule": rule, "parents": list(parents)}
    if note:
        cert["note"] = note
    return cert


# ---------------------------------------------------------------------------
# Derivation rules.  Each rule is pure: given parent facts it either returns
# a new fact (without an id) or None when inapplicable.

def _is_linear_graph(f: BoundFact) -> bool:
    # every cyclic colouring is in particular linear
    return f.kind == GRAPH and (f.flags.get("linear") or f.flags.get("cyclic"))


def _is_cyclic_graph(f: BoundFact) -> bool:
    return f.kind == GRAPH and bool(f.flags.get("cyclic"))


def _is_template_graph(f: BoundFact) -> bool:
    return f.kind == GRAPH and bool(f.flags.get("template"))


def _rule_giraud(f: BoundFact, k_new: int = 3):
    """Add one colour with bound k_new to a cyclic graph: order x (2k-3).
    Needs two bounds >= 3: the edge (3; 2) would give (3, 3; 6), R(3,3) = 6."""
    if not _is_cyclic_graph(f) or sum(k >= 3 for k in f.parameters) < 2:
        return None
    params = f.parameters + (k_new,)
    value = (2 * k_new - 3) * f.value
    return BoundFact(GRAPH, params, value, derived("r1", [f.fact_id]),
                     {"cyclic": True})


def _rule_product(f1: BoundFact, f2: BoundFact):
    """The template compound of the doubled left factor; cyclic when both
    factors are, as `constructions.product_cyclic` builds it."""
    if not (_is_linear_graph(f1) and _is_linear_graph(f2)):
        return None
    order = compound_order(*doubled_shape(f1.value), f2.value)
    shape = ("cyclic" if _is_cyclic_graph(f1) and _is_cyclic_graph(f2)
             else "linear")
    return BoundFact(GRAPH, f1.parameters + f2.parameters, order,
                     derived("r3", [f1.fact_id, f2.fact_id]), {shape: True})


def _rule_template_compound(ft: BoundFact, fg: BoundFact):
    """Template of order t with offset phi, times a linear graph."""
    if not (_is_template_graph(ft) and ft.flags.get("phi") is not None
            and ft.parameters and ft.parameters[-1] == 3):
        return None
    if not _is_linear_graph(fg):
        return None
    params = ft.parameters[:-1] + fg.parameters  # drop the template's 3
    value = compound_order(ft.value, ft.flags["phi"], fg.value)
    return BoundFact(GRAPH, params, value,
                     derived("r5", [ft.fact_id, fg.fact_id]),
                     {"linear": True})


def _rule_song(f1: BoundFact, f2: BoundFact):
    """Pointwise product of Ramsey lower bounds (bounds matched sorted)."""
    if not (f1.kind == RAMSEY and f2.kind == RAMSEY):
        return None
    if len(f1.parameters) != len(f2.parameters):
        return None
    p1 = f1.sorted_parameters
    p2 = f2.sorted_parameters
    if any(k < 2 for k in p1 + p2):
        return None
    params = tuple(grid_bound(a, b) for a, b in zip(p1, p2))
    return BoundFact(RAMSEY, params, grid_bound(f1.value, f2.value),
                     derived("r6", [f1.fact_id, f2.fact_id]))


def _rule_graph_to_bound(f: BoundFact):
    if f.kind != GRAPH:
        return None
    note = f.flags.get("provenance_note")
    return BoundFact(RAMSEY, f.parameters, f.value + 1,
                     derived("r7", [f.fact_id], note=note))


def _rule_quadruple_twice(f: BoundFact):
    """Two quadrupling steps: (3, k_2, ..., k_r; n) -> (9, k_2+1, ...; 16n).

    Applies to cyclic graphs with exactly one bound equal to 3 (the
    triangle-free colour).  A known colour-degree in that colour propagates
    through the composite degree formula 9*d + 7*n + 5.
    """
    if not _is_cyclic_graph(f):
        return None
    if f.parameters.count(3) != 1 or len(f.parameters) < 2:
        return None
    i3 = f.parameters.index(3)
    others = tuple(k + 1 for j, k in enumerate(f.parameters) if j != i3)
    params = (9,) + others
    flags = {}
    d = f.flags.get("special_degree")
    if d is not None:
        flags["special_degree"] = 9 * d + 7 * f.value + 5
        flags["special_degree_index"] = 0
    return BoundFact(GRAPH, params, 16 * f.value,
                     derived("r8", [f.fact_id]), flags)


def _rule_degree_neighbourhood(f: BoundFact):
    """Regular colour degree D: the neighbourhood in that colour induces a
    graph with the colour's bound reduced by one and order D."""
    if f.kind != GRAPH:
        return None
    d = f.flags.get("special_degree")
    idx = f.flags.get("special_degree_index")
    if d is None or idx is None:
        return None
    k = f.parameters[idx]
    if k <= 2:
        return None
    params = (f.parameters[:idx] + (k - 1,) + f.parameters[idx + 1:])
    return BoundFact(GRAPH, params, d, derived("r9", [f.fact_id]))


def _rule_gamma_from_template(f: BoundFact):
    """Diagonal (k x p, 3)-template of order t gives Gamma(k) >= (t-1)**(1/p)."""
    if not _is_template_graph(f):
        return None
    non_template = tuple(k for k in f.parameters if k != 3)
    p = len(non_template)
    if p == 0 or len(non_template) != len(f.parameters) - 1:
        return None
    if len(set(non_template)) != 1:
        return None
    k = non_template[0]
    return BoundFact(GAMMA, (k,), GammaValue(Fraction(f.value - 1), p),
                     derived("r10", [f.fact_id]))


def _rule_abbott_fifth(f: BoundFact):
    """R_r(5) >= (R_r(3) - 1)**2 + 1, and Gamma(5) >= Gamma(3)**2."""
    if f.kind == GAMMA and f.parameters == (3,):
        g = f.value
        return BoundFact(GAMMA, (5,),
                         GammaValue(g.base ** 2, g.root),
                         derived("r11", [f.fact_id]))
    if f.kind == RAMSEY and f.parameters and set(f.parameters) == {3}:
        r = len(f.parameters)
        return BoundFact(RAMSEY, (5,) * r, (f.value - 1) ** 2 + 1,
                         derived("r11", [f.fact_id]))
    return None


UNARY_RULES = {
    "r1": _rule_giraud,
    "r7": _rule_graph_to_bound,
    "r8": _rule_quadruple_twice,
    "r9": _rule_degree_neighbourhood,
    "r10": _rule_gamma_from_template,
    "r11": _rule_abbott_fifth,
}

BINARY_RULES = {
    "r3": _rule_product,
    "r5": _rule_template_compound,
    "r6": _rule_song,
}

_RULES = UNARY_RULES | BINARY_RULES
ALL_RULES = tuple(sorted(_RULES))
_FOLDED = {"r2": "r3", "r4": "r3"}  # retired product rules, read as r3


def _room(f: BoundFact, max_colours: int) -> int:
    return max_colours - len(f.parameters)


# The parents each binary rule can accept, left and right; given the left
# parent, a colour count n for the right one; and whether the right parent
# must have exactly n colours rather than at most n, the most for the
# product to fit in max_colours.  All are read before a product is built,
# so the closure never builds a product it would drop for length, nor
# offers a rule a pair it would refuse for length.
_JOINS = {
    "r3": (_is_linear_graph, _is_linear_graph, _room, False),
    "r5": (_is_template_graph, _is_linear_graph,
           lambda ft, max_colours: _room(ft, max_colours) + 1, False),
    # r6 keeps the length of its parents, which must be equal
    "r6": (lambda f: f.kind == RAMSEY, lambda f: f.kind == RAMSEY,
           lambda f, max_colours: len(f.parameters), True),
}


def dominance_key(f: BoundFact) -> tuple:
    """Everything a rule reads of a fact except its value, plus its rule.

    Each rule is non-decreasing in its parents' values, and its output's key
    depends only on its parents' keys; the one exception is r8, whose
    output's special_degree rises with its parent's value, and r9 is
    non-decreasing in that.  So among facts of one key only the best can
    give a best product.  The rule label keeps a rule's facts apart from
    another rule's better facts of the same shape, such as r10's template
    rate beside r11's squared rate for Gamma(5).
    """
    flags = f.flags
    template = _is_template_graph(f)
    idx = flags.get("special_degree_index")
    return (f.kind, f.sorted_parameters, f.certificate.get("rule"),
            bool(flags.get("cyclic")), bool(flags.get("linear")), template,
            flags.get("phi"),
            template and bool(f.parameters) and f.parameters[-1] == 3,
            flags.get("special_degree"),
            None if idx is None else f.parameters[idx])


class Ledger:
    """In-memory fact set; `save` rewrites its store file whole, atomically,
    and `load` reads one back."""

    def __init__(self):
        self.facts: list[BoundFact] = []
        # (dominance key, value) -> its fact, or identity -> fact once shared
        self._held: dict = {}
        self._best: dict = {}  # dominance key -> first fact of the best value
        # (kind, sorted parameters) -> the same, for best_bound
        self._top: dict = {}

    def add_fact(self, f: BoundFact, base_dir: str = ".") -> int:
        """Store a fact; idempotent on identical facts.

        An explicit certificate is re-verified every time it is offered: the
        referenced colouring file must pass the fact's parameter vector, and
        the fact is stored, and looked up, with the certificate marked
        verified.  The fact is built anew only for what changes, so a store
        line that already carries its mark and its id is kept as it is.
        """
        if f.certificate.get("type") == "explicit":
            self._verify_explicit(f, base_dir)
            if f.certificate.get("verified") is not True:
                f = replace(f, certificate={**f.certificate, "verified": True})
        return self._store(f, dominance_key(f)).fact_id

    def _store(self, f: BoundFact, key: tuple) -> BoundFact:
        """The stored fact identical to f, else f stored; `key` is f's
        dominance key.  Identical facts share their key and value, so only
        a fact offered where one is held has its identity encoded."""
        slot = (key, f.value)
        held = self._held.get(slot)
        if held is not None:
            if type(held) is not dict:
                held = self._held[slot] = {held.identity(): held}
            identity = f.identity()
            if identity in held:
                return held[identity]
        fid = len(self.facts) + 1
        fact = f if f.fact_id == fid else replace(f, fact_id=fid)
        self.facts.append(fact)
        if held is None:
            self._held[slot] = fact
        else:
            held[identity] = fact
        for index, k in ((self._best, key), (self._top, key[:2])):
            best = index.get(k)
            if best is None or best.value < fact.value:
                index[k] = fact
        return fact

    def _verify_explicit(self, f: BoundFact, base_dir: str) -> None:
        if f.kind != GRAPH:
            raise LedgerError("explicit certificates apply to graph facts")
        path = f.certificate.get("path")
        if not path:
            raise LedgerError("explicit certificate without a file path")
        full = path if os.path.isabs(path) else os.path.join(base_dir, path)
        colouring = load_colouring(full)
        if colouring.order != f.value:
            raise LedgerError(
                f"certificate order {colouring.order} != fact order {f.value}"
            )
        if f.flags.get("cyclic") and not check_cyclic_symmetry(colouring):
            raise LedgerError(f"certificate {path} is flagged cyclic but its "
                              "colouring is not cyclic-symmetric")
        if f.flags.get("linear") and isinstance(colouring, ExplicitColouring):
            raise LedgerError(f"certificate {path} is flagged linear but its "
                              "colouring is explicit")
        report = ramsey_check(colouring, f.parameters)
        if not report.passes:
            raise LedgerError(
                f"certificate fails verification: clique sizes "
                f"{report.per_colour_max} vs bounds {f.parameters}"
            )

    def get(self, fact_id: int) -> BoundFact:
        return self.facts[fact_id - 1]

    # -- closure ----------------------------------------------------------

    def derive_closure(self, rules=None, depth: int = 2,
                       max_colours: int = 16) -> list[BoundFact]:
        """Apply the rule set to fixpoint, bounded by `depth` passes.

        `rules` defaults to `ALL_RULES`; "r4" names r3; repeats run once.

        The closure is semi-naive over each key's best fact (see
        `dominance_key`).  Only the best fact of a key is a parent, and a
        product is stored only if it beats the best fact of its key, so
        dominated facts are never stored.  The first pass of a call joins
        all best facts, since a store does not record which pairs were
        joined; each later pass applies unary rules to the facts new in the
        previous pass, and binary rules to the pairs with at least one new
        fact.  Pairs a rule cannot accept, or whose product would have more
        than `max_colours` colours, are skipped before a product is built.

        Parents are taken in id order, so the result is deterministic for a
        given insertion order, one call of depth d leaves the same facts as
        d calls of depth 1, and re-running is idempotent.
        """
        if depth < 0:
            raise LedgerError(f"depth: must be >= 0, got {depth}")
        requested = list(ALL_RULES if rules is None else rules)
        for r in requested:
            if r not in _RULES and r != "r4":  # r4 still names r3
                raise LedgerError(f"unknown rule {r!r}")
        enabled = list(dict.fromkeys(_FOLDED.get(r, r) for r in requested))
        new_facts: list[BoundFact] = []
        new_ids = None  # first pass: every best fact counts as new
        for pass_no in range(1, depth + 1):
            parents = sorted(self._best.values(), key=lambda f: f.fact_id)
            if new_ids is None:
                new_ids = {f.fact_id for f in parents}
            fresh = [f for f in parents if f.fact_id in new_ids]
            counts = dict.fromkeys(("pairs", "by_length", "built",
                                    "dominated"), 0)
            added: list[tuple[BoundFact, tuple]] = []  # (fact, its key)

            def offer(out):
                if out is None:
                    return
                counts["built"] += 1
                if len(out.parameters) > max_colours:
                    counts["by_length"] += 1
                    return
                key = dominance_key(out)
                best = self._best.get(key)
                if best is not None and not best.value < out.value:
                    counts["dominated"] += 1
                    return
                # a rule's product carries no explicit certificate
                added.append((self._store(out, key), key))

            for rule_id in enabled:
                if rule_id in UNARY_RULES:
                    fn = UNARY_RULES[rule_id]
                    for f in fresh:
                        offer(fn(f))
                    continue
                fn = BINARY_RULES[rule_id]
                accept_left, accept_right, room, exact = _JOINS[rule_id]
                right = [f for f in parents if accept_right(f)]
                right_new = [f for f in fresh if accept_right(f)]
                fits = _by_colours(right, exact)
                fits_new = _by_colours(right_new, exact)
                for f1 in parents:
                    if not accept_left(f1):
                        continue
                    # pairs of two old parents were joined in the last pass
                    new = f1.fact_id in new_ids
                    partners = (fits if new else fits_new)(
                        room(f1, max_colours))
                    counts["by_length"] += (len(right if new else right_new)
                                            - len(partners))
                    counts["pairs"] += len(partners)
                    for f2 in partners:
                        offer(fn(f1, f2))
            _log.debug("derive pass %d: %d pairs tried, %d skipped by "
                       "length, %d products built, %d kept, %d dominated",
                       pass_no, counts["pairs"], counts["by_length"],
                       counts["built"], len(added), counts["dominated"])
            new_facts.extend(f for f, _ in added)
            if not added:
                break
            new_ids = {f.fact_id for f, key in added if self._best[key] is f}
        return new_facts

    # -- queries ----------------------------------------------------------

    def best_bound(self, kind: str, parameters) -> BoundFact | None:
        """First stored fact of the best value for kind and parameters,
        up to colour order."""
        return self._top.get((kind, tuple(sorted(parameters))))

    def provenance_chain(self, f: BoundFact) -> list[BoundFact]:
        """The fact and all its ancestors, oldest first."""
        seen: dict[int, BoundFact] = {}

        def walk(fact: BoundFact):
            if fact.fact_id in seen:
                return
            if fact.certificate.get("type") == "derived":
                for pid in fact.certificate["parents"]:
                    walk(self.get(pid))
            seen[fact.fact_id] = fact

        walk(f)
        return list(seen.values())

    def recompute_check(self, facts=None) -> None:
        """Re-derive every derived fact of `facts` (default: the whole
        store) from its parents; raise on mismatch."""
        for f in self.facts if facts is None else facts:
            if f.certificate.get("type") != "derived":
                continue
            rule_id, parents = f.certificate["rule"], f.certificate["parents"]
            rule = _FOLDED.get(rule_id, rule_id)
            fn = _RULES.get(rule)
            out = None
            if fn is not None and len(parents) == (1 if rule in UNARY_RULES
                                                   else 2):
                out = fn(*(self.get(p) for p in parents))
            if out is None or out.value != f.value or out.parameters != f.parameters:
                raise LedgerError(
                    f"fact {f.fact_id}: not recomputable by rule {rule_id}"
                )

    def emit_table(self, k_range, r_range, fmt: str = "md") -> str:
        """Grid of best known graph orders for diagonal parameters.

        Cell markers: e = explicit certificate, a = asserted, d = derived.
        The provenance chain of each cell's fact passes `recompute_check`
        first.
        """
        ks = list(k_range)
        rs = list(r_range)
        rows = []
        header = ["k\\r"] + [str(r) for r in rs]
        rows.append(header)
        for k in ks:
            row = [str(k)]
            for r in rs:
                f = self.best_bound(GRAPH, (k,) * r)
                if f is None:
                    row.append("-")
                else:
                    self.recompute_check(self.provenance_chain(f))
                    marker = f.certificate["type"][0]
                    row.append(f"{f.value} ({marker})")
            rows.append(row)
        if fmt == "csv":
            return "\n".join(",".join(row) for row in rows) + "\n"
        if fmt == "md":
            out = ["| " + " | ".join(rows[0]) + " |",
                   "|" + "|".join("---" for _ in rows[0]) + "|"]
            for row in rows[1:]:
                out.append("| " + " | ".join(row) + " |")
            return "\n".join(out) + "\n"
        raise LedgerError(f"unknown table format {fmt!r}")

    # -- persistence ------------------------------------------------------

    def save(self, path) -> None:
        """Write the store whole, or leave the old one as it was: the facts
        go to a temporary file that replaces the store once on disk."""
        tmp = f"{path}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8", newline="\n") as f:
                f.write("".join([json.dumps(_fact_to_json(fact)) + "\n"
                                 for fact in self.facts]))
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise

    @classmethod
    def load(cls, path) -> "Ledger":
        """Read a store; explicit certificate paths resolve against its
        directory.

        Each fact must load under its stored id, and a derived fact's
        parents must come before it, so provenance cannot be rewired by
        reordering or editing lines.
        """
        base_dir = os.path.dirname(path) or "."
        ledger = cls()
        read = explicit = 0
        with open(path, encoding="utf-8") as f:
            for read, fact in enumerate(_read_facts(f), start=1):
                explicit += fact.certificate.get("type") == "explicit"
                fid = ledger.add_fact(fact, base_dir)
                if fact.fact_id != fid:
                    raise LedgerError(f"{path}: fact stored as id "
                                      f"{fact.fact_id} loads as id {fid}")
                for pid in fact.certificate.get("parents", ()):
                    if not 1 <= pid < fid:
                        raise LedgerError(f"{path}: fact {fid} names parent "
                                          f"{pid}, which does not come "
                                          "before it")
        _log.debug("loaded %s: %d facts read, %d explicit certificates "
                   "re-verified", path, read, explicit)
        return ledger


def _by_colours(facts: list[BoundFact], exact: bool):
    """n -> the facts with exactly (or, unless `exact`, at most) n colours,
    in the given order."""
    groups: dict[int, list[BoundFact]] = {}
    for f in facts:
        groups.setdefault(len(f.parameters), []).append(f)
    if exact:
        return lambda n: groups.get(n, [])
    longest = max(groups, default=0)
    upto = [[f for f in facts if len(f.parameters) <= n]
            for n in range(longest + 1)]
    return lambda n: upto[min(n, longest)] if n >= 0 else []


def _fact_to_json(f: BoundFact) -> dict:
    value = (
        {"base": [f.value.base.numerator, f.value.base.denominator],
         "root": f.value.root}
        if isinstance(f.value, GammaValue) else f.value
    )
    return {"id": f.fact_id, "kind": f.kind, "parameters": list(f.parameters),
            "value": value, "certificate": f.certificate, "flags": f.flags}


def _ints(xs) -> bool:
    return isinstance(xs, list) and set(map(type, xs)) <= {int}


def _fact_from_json(obj) -> BoundFact:
    """The fact of one store line; LedgerError unless it is a fact object."""
    if not isinstance(obj, dict):
        raise LedgerError(f"store line {obj!r} is not a fact object")
    params, cert = obj.get("parameters"), obj.get("certificate")
    flags = obj.get("flags", {})
    if not (_ints(params) and isinstance(cert, dict)
            and isinstance(flags, dict)):
        raise LedgerError("a fact needs a list of integer parameters, a "
                          "certificate object and a flags object")
    ctype = cert.get("type")
    if (ctype == "derived" or "parents" in cert) and not _ints(
            cert.get("parents")):
        raise LedgerError("a derived certificate needs a list of integer "
                          "parent ids")
    if (ctype == "derived" or "rule" in cert) and not isinstance(
            cert.get("rule"), str):
        raise LedgerError("a derived certificate needs a string rule")
    if ctype == "explicit" and not isinstance(cert.get("path"), str):
        raise LedgerError("an explicit certificate needs a string path")
    for name in ("phi", "special_degree"):  # the rules do arithmetic on them
        flag = flags.get(name)
        if flag is not None and type(flag) is not int:
            raise LedgerError(f"{name} {flag!r} is not an integer")
    value, fact_id = obj["value"], obj.get("id")
    if type(value) is bool:
        raise LedgerError(f"fact value {value!r} is not a number")
    if not (fact_id is None or type(fact_id) is int):
        raise LedgerError(f"fact id {fact_id!r} is not an integer")
    if isinstance(value, dict):
        base, root = value.get("base"), value.get("root")
        if not (_ints(base) and len(base) == 2 and base[1]
                and type(root) is int):
            raise LedgerError("a gamma value needs a [num, den] base of "
                              "integers, den != 0, and an integer root")
        value = GammaValue(Fraction(*base), root)
    return BoundFact(obj["kind"], tuple(params), value, cert, flags, fact_id)


def _read_facts(lines):
    """The facts of a store's lines, blank lines skipped."""
    for line in lines:
        line = line.strip()
        if line:
            yield _fact_from_json(json.loads(line))


def load_seed_pack(ledger: Ledger) -> list[int]:
    """Load the shipped asserted-fact pack into a ledger."""
    text = (resources.files("ramseykit.data") / "seed_facts.jsonl").read_text()
    return [ledger.add_fact(fact) for fact in _read_facts(text.splitlines())]
