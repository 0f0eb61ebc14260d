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
import reprlib
from bisect import bisect_left
from dataclasses import MISSING, dataclass, field, replace
from decimal import ROUND_DOWN, Decimal, localcontext
from fractions import Fraction
from importlib import resources
from operator import attrgetter
from typing import Callable, NamedTuple

from .colouring import (ColouringError, ExplicitColouring,
                        check_cyclic_symmetry, load_colouring)
from .cliques import ramsey_check
from .constructions import grid_bound
from .templates import compound_order, doubled_shape

GRAPH = "graph_exists"
RAMSEY = "ramsey_lower_bound"
GAMMA = "gamma_lower_bound"

# Far above any root a rule makes (r10's root is a template's number of
# non-template colours); comparing two gammas takes a power of each base to
# the other's root, so an unbounded root could stall every query.
MAX_GAMMA_ROOT = 64

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
        if type(self.base) is int:
            object.__setattr__(self, "base", Fraction(self.base))
        elif not isinstance(self.base, Fraction):
            raise LedgerError(f"gamma base must be an integer or a Fraction, "
                              f"got {self.base!r}")
        if self.base < 0:
            raise LedgerError(f"gamma base must be >= 0, got {self.base}")
        if not (type(self.root) is int and 1 <= self.root <= MAX_GAMMA_ROOT):
            raise LedgerError(f"gamma root must be 1..{MAX_GAMMA_ROOT}, "
                              f"got {self.root!r}")

    def render(self, places: int = 6) -> str:
        with localcontext() as ctx:
            ctx.prec = 50
            x = Decimal(self.base.numerator) / Decimal(self.base.denominator)
            val = x ** (Decimal(1) / Decimal(self.root)) if self.root > 1 else x
            quantum = Decimal(1).scaleb(-places)
            return str(val.quantize(quantum, rounding=ROUND_DOWN))

    __str__ = render

    def __lt__(self, other):
        # a**(1/p) vs c**(1/q)  <=>  a**q vs c**p, exactly in rationals
        return self.base ** other.root < other.base ** self.root


class Flag(NamedTuple):
    """A fact flag: `fits(value, parameters)` tests a value other than null,
    and `holds` says in words what fits ({} is the parameters); the flag it
    `needs` set; and the colouring check that `confirms` it, with why that
    check fails, or None where none does.  A flag is a boolean by default."""
    fits: Callable = lambda v, _: type(v) is bool
    holds: str = "true or false"
    needs: str | None = None
    confirms: tuple | None = None


# The rules do arithmetic on phi and special_degree, and build orders from
# them; r7 carries a provenance note to its product.
FLAGS = {
    "cyclic": Flag(confirms=(check_cyclic_symmetry,
                             "its colouring is not cyclic-symmetric")),
    "linear": Flag(confirms=(lambda c: not isinstance(c, ExplicitColouring),
                             "its colouring is explicit")),
    "template": Flag(),
    "phi": Flag(lambda v, _: type(v) is int and v >= 0, "an integer >= 0",
                "template"),
    "special_degree": Flag(lambda v, _: type(v) is int and v >= 1,
                           "an integer >= 1"),
    "special_degree_index": Flag(lambda v, p: type(v) is int
                                 and 0 <= v < len(p), "a position in {}",
                                 "special_degree"),
    "provenance_note": Flag(lambda v, _: type(v) is str, "a string",
                            confirms=(lambda c: True, "")),  # claims nothing
}


_INT = frozenset({int})


def _ints(xs, seq=list) -> bool:
    return isinstance(xs, seq) and _INT.issuperset(map(type, xs))


# Certificate field -> the type that needs it, the test its value must pass
# wherever it appears (`dominance_key` hashes any rule), and the refusal.
CERTIFICATE = {
    "parents": ("derived", _ints,
                "a derived certificate needs a list of integer parent ids"),
    "rule": ("derived", lambda v: type(v) is str,
             "a derived certificate needs a string rule"),
    "path": ("explicit", lambda v: type(v) is str and v != "",
             "an explicit certificate needs a string path"),
    "source": ("asserted", lambda v: type(v) is str,
               "an asserted certificate needs a string source"),
}
# certificate type -> (field, needed, test, refusal), in `CERTIFICATE` order
CERTIFICATE_TYPES = {
    t: tuple((name, need == t, fits, refusal)
             for name, (need, fits, refusal) in CERTIFICATE.items())
    for t in ("derived", "explicit", "asserted")}


@dataclass(frozen=True, init=False)
class BoundFact:
    kind: str
    parameters: tuple[int, ...]
    value: int | GammaValue
    certificate: dict
    flags: dict = field(default_factory=dict)
    fact_id: int | None = None

    def __init__(self, kind, parameters, value, certificate, flags=MISSING,
                 fact_id=None):
        """Check every field, then set each in the instance dict, faster
        than the `object.__setattr__` of a generated frozen `__init__`."""
        if type(parameters) is list:  # as read; rules build tuples
            parameters = tuple(parameters)
        if flags is MISSING:
            flags = {}
        if not (_ints(parameters, tuple) and isinstance(certificate, dict)
                and isinstance(flags, dict)):
            raise LedgerError("a fact needs a list of integer parameters, a "
                              "certificate object and a flags object")
        if not parameters:
            raise LedgerError("a fact needs at least one clique bound")
        if kind not in (GRAPH, RAMSEY, GAMMA):
            raise LedgerError(f"unknown fact kind {kind!r}")
        if not (fact_id is None or type(fact_id) is int):
            raise LedgerError(f"fact id {fact_id!r} is not an integer")
        if flags and kind != GRAPH:
            raise LedgerError(f"only graph facts carry flags, got "
                              f"{flags!r} on a {kind} fact")
        if kind == GAMMA:
            if not isinstance(value, GammaValue):
                raise LedgerError("gamma facts need a GammaValue")
        elif type(value) is not int:
            raise LedgerError(f"fact value {value!r} is not a number")
        # below 1, (v-1)**2 + 1 and (a-1)(b-1) + 1 fall as v, a or b rise,
        # and dominance needs every rule non-decreasing in its parents
        elif value < 1:
            what = "graph order" if kind == GRAPH else "Ramsey value"
            raise LedgerError(f"{what} must be >= 1, got {value}")
        if min(parameters) < 1:
            raise LedgerError(f"clique bounds must be >= 1, got {parameters}")
        for name, v in flags.items():  # null reads as unset
            flag = FLAGS.get(name)
            if flag is None:
                raise LedgerError(f"unknown flag {name!r}")
            if v is None:
                continue
            if not flag.fits(v, parameters):
                what = flag.holds.format(parameters)
                raise LedgerError(f"{name} must be {what}, got {v!r}")
            # a needed flag that fits is never 0, so `in` reads null and false
            if flag.needs and flags.get(flag.needs) in (None, False):
                raise LedgerError(f"{name} applies only with {flag.needs}")
        d = vars(self)
        d["kind"], d["parameters"], d["value"] = kind, parameters, value
        d["certificate"], d["flags"], d["fact_id"] = certificate, flags, fact_id

    @property
    def sorted_parameters(self) -> tuple[int, ...]:
        return tuple(sorted(self.parameters))

    def identity(self):
        value_key = ((self.value.base, self.value.root)
                     if isinstance(self.value, GammaValue) else self.value)
        return (self.kind, self.parameters, value_key,
                json.dumps([self.certificate, self.flags], sort_keys=True))


def graph_fact(parameters, order, certificate, **flags) -> BoundFact:
    return BoundFact(GRAPH, parameters, order, certificate, flags)


def check_certificate(f: BoundFact, colouring, name: str) -> None:
    """LedgerError unless `colouring`, named `name` in messages, certifies
    graph fact `f`: order, clique bounds and each flag it sets (`FLAGS`)."""
    if f.kind != GRAPH:
        raise LedgerError("explicit certificates apply to graph facts")
    if colouring.order != f.value:
        raise LedgerError(f"certificate order {colouring.order} != fact "
                          f"order {f.value}")
    for flag_name, value in f.flags.items():
        if value is None or value is False:  # 0 is set
            continue
        confirms = FLAGS[flag_name].confirms
        if confirms is None:
            raise LedgerError(f"certificate {name} is flagged {flag_name}, "
                              "which no colouring check confirms")
        if not confirms[0](colouring):
            raise LedgerError(f"certificate {name} is flagged {flag_name} "
                              f"but {confirms[1]}")
    report = ramsey_check(colouring, f.parameters)
    if not report.passes:
        raise LedgerError(f"certificate {name} fails verification: clique "
                          f"sizes {report.per_colour_max} vs bounds "
                          f"{f.parameters}")


def asserted(source: str) -> dict:
    return {"type": "asserted", "source": source}


def derived(rule: str, parents: list[int], note: str | None = None) -> dict:
    cert = {"type": "derived", "rule": rule, "parents": list(parents)}
    if note:
        cert["note"] = note
    return cert


# ---------------------------------------------------------------------------
# Derivation rules, declared in `RULES`.  Each rule is pure: given parents
# that pass its tests it returns a `Product` (kind, parameters, value,
# flags), or None where a condition on their parameters or values fails.
# A product is not a fact: the closure builds one only where it stores it,
# and `_fact` then attaches the derived certificate and the id.

class Product(NamedTuple):
    """What a rule derives, before it is a fact: no certificate, no id."""
    kind: str
    parameters: tuple[int, ...]
    value: int | GammaValue
    flags: dict
    note: str | None = None  # r7 carries its parent's provenance note


# only graph facts carry flags, so a flag test is also a graph test
def _is_linear_graph(f: BoundFact) -> bool:
    # every cyclic colouring is in particular linear
    return f.flags.get("linear") or f.flags.get("cyclic")


def _is_cyclic_graph(f: BoundFact) -> bool:
    return bool(f.flags.get("cyclic"))


def _is_template_graph(f: BoundFact) -> bool:
    return bool(f.flags.get("template"))


def _rule_giraud(f: BoundFact):
    """Add one colour with bound 3 to a cyclic graph: order x 3.
    Needs two bounds >= 3: the edge (3; 2) would give (3, 3; 6), R(3,3) = 6."""
    if sum(k >= 3 for k in f.parameters) < 2:
        return None
    return Product(GRAPH, f.parameters + (3,), 3 * f.value, {"cyclic": True})


def _rule_product(f1: BoundFact, f2: BoundFact):
    """The template compound of the doubled left factor; cyclic when both
    factors are, as `constructions.product_cyclic` builds it."""
    order = compound_order(*doubled_shape(f1.value), f2.value)
    shape = ("cyclic" if _is_cyclic_graph(f1) and _is_cyclic_graph(f2)
             else "linear")
    return Product(GRAPH, f1.parameters + f2.parameters, order, {shape: True})


def _rule_template_compound(ft: BoundFact, fg: BoundFact):
    """Template of order t with offset phi, times a linear graph."""
    params = ft.parameters[:-1] + fg.parameters  # drop the template's 3
    value = compound_order(ft.value, ft.flags["phi"], fg.value)
    return Product(GRAPH, params, value, {"linear": True})


def _rule_song(f1: BoundFact, f2: BoundFact):
    """Pointwise product of Ramsey lower bounds (bounds matched sorted)."""
    if len(f1.parameters) != len(f2.parameters):
        return None
    p1 = f1.sorted_parameters
    p2 = f2.sorted_parameters
    if any(k < 2 for k in p1 + p2):
        return None
    params = tuple(grid_bound(a, b) for a, b in zip(p1, p2))
    return Product(RAMSEY, params, grid_bound(f1.value, f2.value), {})


def _rule_graph_to_bound(f: BoundFact):
    return Product(RAMSEY, f.parameters, f.value + 1, {},
                   f.flags.get("provenance_note"))


def _rule_quadruple_twice(f: BoundFact):
    """Two quadrupling steps: (3, k_2, ..., k_r; n) -> (9, k_2+1, ...; 16n).

    Applies to cyclic graphs with exactly one bound equal to 3 (the
    triangle-free colour).  A known colour-degree in that colour propagates
    through the composite degree formula 9*d + 7*n + 5.
    """
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
    return Product(GRAPH, params, 16 * f.value, flags)


def _rule_degree_neighbourhood(f: BoundFact):
    """Regular colour degree D: the neighbourhood in that colour induces a
    graph with the colour's bound reduced by one and order D."""
    idx = f.flags["special_degree_index"]  # which needs special_degree
    k = f.parameters[idx]
    if k <= 2:
        return None
    params = (f.parameters[:idx] + (k - 1,) + f.parameters[idx + 1:])
    return Product(GRAPH, params, f.flags["special_degree"], {})


def _rule_gamma_from_template(f: BoundFact):
    """Diagonal (k x p, 3)-template of order t gives Gamma(k) >= (t-1)**(1/p)."""
    non_template = tuple(k for k in f.parameters if k != 3)
    p = len(non_template)
    if not (1 <= p <= MAX_GAMMA_ROOT
            and len(non_template) == len(f.parameters) - 1):
        return None
    if len(set(non_template)) != 1:
        return None
    k = non_template[0]
    return Product(GAMMA, (k,), GammaValue(Fraction(f.value - 1), p), {})


def _rule_abbott_fifth(f: BoundFact):
    """R_r(5) >= (R_r(3) - 1)**2 + 1, and Gamma(5) >= Gamma(3)**2."""
    if f.kind == GAMMA and f.parameters == (3,):
        g = f.value
        return Product(GAMMA, (5,), GammaValue(g.base ** 2, g.root), {})
    if f.kind == RAMSEY and set(f.parameters) == {3}:
        r = len(f.parameters)
        return Product(RAMSEY, (5,) * r, (f.value - 1) ** 2 + 1, {})
    return None


class Rule(NamedTuple):
    """A rule's function, one test per parent, and, for a binary rule, its
    join (room, exact): given the left parent, `room(left, max_colours)` is
    a colour count n, and the right parent must have exactly n colours if
    `exact`, else at most n, the most for the product to fit.  A
    `symmetric` rule derives the same key and value from (B, A) as from
    (A, B), so the closure joins each unordered pair once."""
    fn: Callable
    tests: tuple
    join: tuple | None = None
    symmetric: bool = False


RULES = {
    "r1": Rule(_rule_giraud, (_is_cyclic_graph,)),
    "r3": Rule(_rule_product, (_is_linear_graph, _is_linear_graph),
               (lambda f, max_colours: max_colours - len(f.parameters),
                False), symmetric=True),
    # a template with a phi whose last bound, 3, the product drops
    "r5": Rule(_rule_template_compound,
               (lambda f: (_is_template_graph(f) and f.parameters[-1:] == (3,)
                           and f.flags.get("phi") is not None),
                _is_linear_graph),
               (lambda f, max_colours: max_colours - len(f.parameters) + 1,
                False)),
    # r6 keeps the length of its parents, which must be equal
    "r6": Rule(_rule_song, (lambda f: f.kind == RAMSEY,) * 2,
               (lambda f, max_colours: len(f.parameters), True),
               symmetric=True),
    "r7": Rule(_rule_graph_to_bound, (lambda f: f.kind == GRAPH,)),
    "r8": Rule(_rule_quadruple_twice, (_is_cyclic_graph,)),
    "r9": Rule(_rule_degree_neighbourhood,
               (lambda f: f.flags.get("special_degree_index") is not None,)),
    "r10": Rule(_rule_gamma_from_template, (_is_template_graph,)),
    "r11": Rule(_rule_abbott_fifth, (lambda f: True,)),  # reads two kinds
}
ALL_RULES = tuple(sorted(RULES))
_FOLDED = {"r2": "r3", "r4": "r3"}  # retired product rules, read as r3


def _product(rule_id: str, parents) -> Product | None:
    """The product rule `rule_id` derives from `parents`, or None if it
    derives none: the rule is unknown, the parents are too few or too many,
    or one fails its test or the rule's own conditions."""
    rule = RULES.get(_FOLDED.get(rule_id, rule_id))
    if (rule is None or len(parents) != len(rule.tests)
            or not all(test(f) for test, f in zip(rule.tests, parents))):
        return None
    return rule.fn(*parents)


def _fact(rule_id: str, parents, p: Product,
          fact_id: int | None = None) -> BoundFact:
    """Product `p` of rule `rule_id` on `parents` as a fact, with its derived
    certificate; r2 and r4 are recorded as r3."""
    cert = derived(_FOLDED.get(rule_id, rule_id),
                   [f.fact_id for f in parents], note=p.note)
    return BoundFact(p.kind, p.parameters, p.value, cert, p.flags, fact_id)


def apply_rule(rule_id: str, parents) -> BoundFact | None:
    """The fact rule `rule_id` derives from `parents`, or None if it
    derives none (see `_product`): the rule's product with its derived
    certificate attached, and no id.  r2 and r4 read as r3."""
    p = _product(rule_id, parents)
    return None if p is None else _fact(rule_id, parents, p)


def _key(kind: str, parameters: tuple, rule: str | None, flags: dict) -> tuple:
    """The dominance key of a fact or product with these fields; see
    `dominance_key`."""
    template = bool(flags.get("template"))
    idx = flags.get("special_degree_index")
    return (kind, tuple(sorted(parameters)), rule,
            bool(flags.get("cyclic")), bool(flags.get("linear")), template,
            flags.get("phi"),
            template and parameters[-1] == 3,
            flags.get("special_degree"),
            None if idx is None else parameters[idx])


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
    return _key(f.kind, f.parameters, f.certificate.get("rule"), f.flags)


class Ledger:
    """In-memory fact set; `save` rewrites its store file whole, atomically,
    and `load` reads one back."""

    def __init__(self):
        self.facts: list[BoundFact] = []
        # fact id -> the store line `load` read it from, as `save` writes it
        self._lines: dict[int, str] = {}
        # (dominance key, value) -> its fact, or identity -> fact once shared
        self._held: dict = {}
        self._best: dict = {}  # dominance key -> first fact of the best value
        # (kind, sorted parameters) -> the same, for best_bound
        self._top: dict = {}

    def add_fact(self, f: BoundFact, base_dir: str = ".", colouring=None) -> int:
        """Store a fact whose certificate fits `CERTIFICATE`; idempotent.

        An explicit certificate is re-verified every time it is offered:
        the fact and its colouring, `colouring` if given (the file its path
        names, already read), else that file under `base_dir`, must pass
        `check_certificate`, and the fact is then stored as it was offered.
        A derived fact's parents must be stored facts, which come before
        it, so provenance cannot be rewired by reordering or editing lines.
        """
        cert = f.certificate
        ctype = cert.get("type")
        checks = CERTIFICATE_TYPES.get(ctype) if type(ctype) is str else None
        if checks is None:
            raise LedgerError(f"unknown certificate type {ctype!r}")
        for name, needed, fits, refusal in checks:
            if (needed or name in cert) and not fits(cert.get(name)):
                raise LedgerError(refusal)
        fid = len(self.facts) + 1
        for pid in cert.get("parents", ()):
            if not 1 <= pid < fid:
                raise LedgerError(f"fact {fid} names parent {pid}, which "
                                  "does not come before it")
        if ctype == "explicit":
            path = cert["path"]
            if colouring is None:
                try:  # an absolute path replaces base_dir
                    colouring = load_colouring(os.path.join(base_dir, path))
                except ColouringError as e:  # e names the file
                    raise LedgerError(f"certificate {e}") from None
            check_certificate(f, colouring, path)
        return self._store(f, dominance_key(f)).fact_id

    def _store(self, f: BoundFact, key: tuple) -> BoundFact:
        """The stored fact identical to f, else f stored; `key` is f's
        dominance key.  Identical facts share their key and value, so only
        a fact offered where one is held has its identity encoded."""
        slot = (key, f.value)
        best = self._best.get(key)
        # a fact that beats its key's best has no identical fact held
        held = (None if best is None or best.value < f.value
                else self._held.get(slot))
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
        # the best of a key's (kind, sorted parameters) is at least its best
        if best is None or best.value < fact.value:
            self._best[key] = fact
            top = self._top.get(shape := key[:2])
            if top is None or top.value < fact.value:
                self._top[shape] = fact
        return fact

    def get(self, fact_id: int) -> BoundFact:
        if not 1 <= fact_id <= len(self.facts):
            raise LedgerError(f"no fact {fact_id}")
        return self.facts[fact_id - 1]

    # -- closure ----------------------------------------------------------

    def derive_closure(self, rules=None, depth: int = 2,
                       max_colours: int = 16) -> list[BoundFact]:
        """Apply the rule set to fixpoint, bounded by `depth` passes.

        `depth` is an integer; `rules`, a list or tuple of rule names,
        defaults to `ALL_RULES`; "r4" names r3; repeats run once.

        The closure is semi-naive over each key's best fact (see
        `dominance_key`).  Only the best fact of a key is a parent, and a
        product is stored only if it beats the best fact of its key, so
        dominated facts are never stored.  The first pass of a call joins
        all best facts, since a store does not record which pairs were
        joined; each later pass applies unary rules to the facts new in the
        previous pass, and binary rules to the pairs with at least one new
        fact.  Each rule's parent tests and join come from `RULES`, as
        `apply_rule` reads them: a fact or pair that fails a test, or whose
        product would have more than `max_colours` colours, is skipped
        before a product is built.

        A symmetric rule (r3, r6) joins each unordered pair once: the
        partners of f1 are only the facts from f1's id on, a slice of the
        id-ordered partner list.  This is exact.  r3's value is
        (n2-1)(2n1-1) + 1 + (n1-1) = 2n1n2 - n1 - n2 + 1, its key sorts the
        joined parameters, and it is cyclic exactly when both parents are;
        r6 zips the sorted parameters through `grid_bound`, which is
        symmetric.  Both apply one test to each parent, and their joins are
        symmetric, so (B, A) has the key and value of (A, B).  The full
        join offers (A, B) first, whether each of A and B is new or old:
        f1 rises through the parents and each partner list is in id order.
        An offer that does not beat the best fact of its key is never
        stored, so (B, A) never was, and the stored facts, their ids and
        their parents' order are those of the full join.

        A rule returns a `Product`, and the closure keys it from its fields
        (`_key`); only a product that beats the best fact of its key is
        built as a fact, once, with its certificate and its id.  It passes
        `BoundFact`'s checks like any stored fact.  A dominated product
        skips them, but no rule builds an invalid product from valid
        parents: graph orders stay >= 1 (3n, 16n, a special degree >= 1, or
        a compound order (n-1)(t-1) + 1 + phi with n, t >= 1 and phi >= 0),
        Ramsey values stay >= 1 (n + 1, (a-1)(b-1) + 1 with a, b >= 1, or
        (v-1)**2 + 1), a product keeps at least one clique bound, each
        >= 1 (a parent's bounds, 3, 5, 9, k + 1, k - 1 with k > 2, or
        (a-1)(b-1) + 1 with a, b >= 2), r8's special degree 9d + 7n + 5 is
        >= 1 and its index 0 names a colour, and r10 and r11 build their
        `GammaValue`s, which check themselves, from a base t - 1 >= 0 or a
        square.

        Parents are taken in id order, so the result is deterministic for a
        given insertion order, one call of depth d leaves the same facts as
        d calls of depth 1, and re-running is idempotent.
        """
        if type(depth) is not int:
            raise LedgerError(f"depth: expected an integer, got {depth!r}")
        if depth < 0:
            raise LedgerError(f"depth: must be >= 0, got {depth}")
        if rules is None:
            rules = ALL_RULES
        elif not (isinstance(rules, (list, tuple))
                  and all(type(r) is str for r in rules)):
            raise LedgerError(f"rules: expected a list of rule names, "
                              f"got {rules!r}")
        for r in rules:
            if _FOLDED.get(r, r) not in RULES:
                raise LedgerError(f"unknown rule {r!r}")
        enabled = list(dict.fromkeys(_FOLDED.get(r, r) for r in rules))
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

            def offer(rule_id, parents, out):
                if out is None:
                    return
                counts["built"] += 1
                if len(out.parameters) > max_colours:
                    counts["by_length"] += 1
                    return
                key = _key(out.kind, out.parameters, rule_id, out.flags)
                best = self._best.get(key)
                if best is not None and not best.value < out.value:
                    counts["dominated"] += 1
                    return
                # no fact of this key holds this value, so `_store` keeps
                # the fact as built; a product carries no explicit certificate
                fact = _fact(rule_id, parents, out, len(self.facts) + 1)
                added.append((self._store(fact, key), key))

            for rule_id in enabled:
                fn, tests, join, symmetric = RULES[rule_id]
                if join is None:
                    test, = tests
                    for f in fresh:
                        if test(f):
                            offer(rule_id, (f,), fn(f))
                    continue
                accept_left, accept_right = tests
                room, exact = join
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
                    if symmetric:  # (f2, f1) with f2 before f1 is a mirror
                        partners = partners[bisect_left(
                            partners, f1.fact_id, key=_fact_id):]
                    counts["pairs"] += len(partners)
                    for f2 in partners:
                        offer(rule_id, (f1, f2), fn(f1, f2))
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
            out = _product(rule_id, [self.get(p) for p in parents])
            if out is None or ((out.kind, out.parameters, out.value, out.flags)
                               != (f.kind, f.parameters, f.value, f.flags)):
                raise LedgerError(f"fact {f.fact_id}: not recomputable by "
                                  f"rule {rule_id}")

    def proof(self, kind: str, parameters) -> list[BoundFact]:
        """`provenance_chain` of `best_bound(kind, parameters)` once
        `recompute_check` passes on it; [] if there is no such fact."""
        f = self.best_bound(kind, parameters)
        if f is None:
            return []
        chain = self.provenance_chain(f)
        self.recompute_check(chain)
        return chain

    def emit_table(self, k_range, r_range, fmt: str = "md") -> str:
        """Grid of best known graph orders for diagonal parameters.

        Cell markers: e = explicit certificate, a = asserted, d = derived.
        Each cell's fact is read through `proof`.
        """
        rs = list(r_range)
        rows = [["k\\r"] + [str(r) for r in rs]]
        for k in k_range:
            row = [str(k)]
            for r in rs:
                chain = self.proof(GRAPH, (k,) * r)
                if chain:
                    f = chain[-1]
                    row.append(f"{f.value} ({f.certificate['type'][0]})")
                else:
                    row.append("-")
            rows.append(row)
        if fmt == "csv":
            return "\n".join(",".join(row) for row in rows) + "\n"
        if fmt == "md":
            out = ["| " + " | ".join(row) + " |" for row in rows]
            out.insert(1, "|" + "|".join("---" for _ in rows[0]) + "|")
            return "\n".join(out) + "\n"
        raise LedgerError(f"unknown table format {fmt!r}")

    # -- persistence ------------------------------------------------------

    def save(self, path) -> None:
        """Write the store whole, or leave the old one as it was: the facts
        go to a temporary file that replaces the store once on disk.  A fact
        that `load` kept as it read it is written as the line it was read
        from; only the others are encoded."""
        tmp = f"{path}.tmp"
        lines = self._lines
        try:
            with open(tmp, "w", encoding="utf-8", newline="\n") as f:
                f.write("".join([
                    (lines[fact.fact_id] if fact.fact_id in lines
                     else json.dumps(_fact_to_json(fact))) + "\n"
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

        Each fact must load under its stored id, its line number, which
        is checked before `add_fact` checks that its parents come first;
        a duplicate line loads as its first copy's id.  Every fact keeps
        the line it was read from, bytes and all, for `save`.
        """
        base_dir = os.path.dirname(path) or "."
        ledger = cls()
        read = explicit = 0
        with open(path, encoding="utf-8") as f:
            for read, line, fact in _read_facts(f, path):
                explicit += fact.certificate.get("type") == "explicit"
                fid = (ledger.add_fact(fact, base_dir)
                       if fact.fact_id == read else read)
                if fact.fact_id != fid:
                    raise LedgerError(f"{path}: fact stored as id "
                                      f"{fact.fact_id} loads as id {fid}")
                ledger._lines[fid] = line
        _log.debug("loaded %s: %d facts read, %d explicit certificates "
                   "re-verified", path, read, explicit)
        return ledger


_fact_id = attrgetter("fact_id")


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


def _fact_from_json(obj) -> BoundFact:
    """The fact of one store line, whose fields `BoundFact` checks;
    LedgerError unless it is an object with a kind and a value."""
    if not isinstance(obj, dict):
        raise LedgerError(f"store line {reprlib.repr(obj)} is not a fact object")
    try:
        kind, value = obj["kind"], obj["value"]
    except KeyError as e:
        raise LedgerError(f"a fact needs a {e.args[0]!r} field") from None
    if isinstance(value, dict):
        base = value.get("base")
        if not (_ints(base) and len(base) == 2 and base[1]):
            raise LedgerError("a gamma value needs a [num, den] base of "
                              "integers, den != 0, and an integer root")
        value = GammaValue(Fraction(*base), value.get("root"))
    return BoundFact(kind, obj.get("parameters"), value,
                     obj.get("certificate"), obj.get("flags", {}),
                     obj.get("id"))


_DECODE = json.JSONDecoder().raw_decode


def _decode(line: str):
    """`json.loads(line)` for a stripped line, less its wrapper's cost: one
    JSON value and nothing else, or `json.loads`'s own error; a value
    nested too deeply to decode is a RecursionError."""
    try:
        obj, end = _DECODE(line)
    except json.JSONDecodeError:
        end = None
    if end != len(line):
        json.loads(line)  # raises: no JSON, data after it, or a BOM
    return obj


def _read_facts(lines, name):
    """(n, line, fact) for the n-th non-blank line, stripped; a line that
    is not one JSON value is a LedgerError "name:n: <json's message>"."""
    for n, line in enumerate(filter(None, map(str.strip, lines)), 1):
        try:
            obj = _decode(line)
        except (json.JSONDecodeError, RecursionError) as e:
            raise LedgerError(f"{name}:{n}: {e}") from None
        yield n, line, _fact_from_json(obj)


def load_seed_pack(ledger: Ledger) -> list[int]:
    """Load the shipped asserted-fact pack into a ledger."""
    text = (resources.files("ramseykit.data") / "seed_facts.jsonl").read_text()
    return [ledger.add_fact(fact) for _, _, fact in
            _read_facts(text.splitlines(), "seed_facts.jsonl")]
