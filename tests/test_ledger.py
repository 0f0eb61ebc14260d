import hashlib
import json
import logging
import random
import re
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from ramseykit import ledger as led
from ramseykit.cli import run_pipeline
from ramseykit.cliques import ramsey_check
from ramseykit.colouring import (
    LengthColouring,
    expand_to_explicit,
    pentagon,
    save_colouring,
    single_edge,
)
from ramseykit.constructions import (
    paley_colouring,
    product_cyclic,
    product_linear,
    song_product,
    template_compound,
)
from ramseykit.ledger import (
    ALL_RULES,
    GAMMA,
    GRAPH,
    RAMSEY,
    RULES,
    BoundFact,
    GammaValue,
    Ledger,
    LedgerError,
    _fact_from_json,
    _key,
    _product,
    apply_rule,
    asserted,
    derived,
    dominance_key,
    graph_fact,
    load_seed_pack,
)
from ramseykit.templates import TemplateGraph, double_to_template


def _seeded():
    ledger = Ledger()
    load_seed_pack(ledger)
    return ledger


def test_gamma_value_render_truncates():
    assert GammaValue(Fraction(234), 2).render() == "15.297058"
    assert GammaValue(Fraction(82, 25)).render() == "3.280000"
    assert GammaValue(Fraction(976), 3).render() == "9.919351"
    # rendering truncates: sqrt(234) = 15.2970585..., never rounded up
    assert GammaValue(Fraction(2), 1).render(places=2) == "2.00"


def test_gamma_value_exact_comparison():
    # a**(1/p) < c**(1/q) iff a**q < c**p, compared exactly in rationals
    a = GammaValue(Fraction(234), 2)
    b = GammaValue(Fraction(976), 3)
    assert b < a
    assert not a < b
    assert GammaValue(Fraction(9), 2) < GammaValue(Fraction(82, 25), 1)


def test_gamma_value_validation():
    for base, root in ((2, 0), (2, 65), (Fraction(-82, 25), 2)):
        with pytest.raises(LedgerError):
            GammaValue(Fraction(base), root)
    assert GammaValue(Fraction(0), 64).render() == "0.000000"


@pytest.mark.parametrize("base", ["x", None, float("inf"), True, 2.5, "1/2"],
                         ids=["string", "none", "inf", "true", "float",
                              "fraction-string"])
def test_gamma_base_is_an_integer_or_a_fraction(base):
    with pytest.raises(LedgerError, match=r"^gamma base must be an integer "
                       r"or a Fraction, got "):
        GammaValue(base)


def test_gamma_base_builds_from_an_integer_or_a_fraction():
    assert GammaValue(3, 2) == GammaValue(Fraction(3), 2)
    assert type(GammaValue(3).base) is Fraction
    assert GammaValue(Fraction(82, 25)).render() == "3.280000"


def test_r10_derives_no_root_above_the_bound():
    """r10's root is a template's number of non-template colours; past the
    bound GammaValue would refuse it, so the rule derives nothing."""
    for p, root in ((64, 64), (65, None)):
        f = replace(graph_fact((5,) * p + (3,), 100, asserted("s"),
                               template=True, phi=1), fact_id=1)
        out = apply_rule("r10", [f])
        assert (out and out.value.root) == root


def test_fact_validation():
    with pytest.raises(LedgerError):
        BoundFact("wrong_kind", (3, 3), 5, asserted("x"))
    with pytest.raises(LedgerError, match="unknown certificate type"):
        Ledger().add_fact(BoundFact(GRAPH, (3, 3), 5, {"type": "imagined"}))
    with pytest.raises(LedgerError):
        BoundFact(GAMMA, (3,), 5, asserted("x"))  # needs a GammaValue
    with pytest.raises(LedgerError, match="only graph facts carry flags"):
        BoundFact(RAMSEY, (3, 3), 6, asserted("x"), {"cyclic": None})


_NO_PARENTS = "a derived certificate needs a list of integer parent ids"

# certificate -> the refusal of `add_fact`, or None where it stores it
_CERTIFICATES = {
    "asserted": (asserted("s"), None),
    "derived": (derived("r7", [1]), None),
    "asserted-rule": ({"type": "asserted", "source": "s", "rule": "x"},
                      None),
    "parents-string": ({"type": "derived", "rule": "r7", "parents": "ab"},
                       _NO_PARENTS),
    "no-parents": ({"type": "derived", "rule": "r7"}, _NO_PARENTS),
    "rule-list": ({"type": "derived", "rule": ["r7"], "parents": [1]},
                  "a derived certificate needs a string rule"),
    "no-source": ({"type": "asserted"},
                  "an asserted certificate needs a string source"),
    "empty-path": ({"type": "explicit", "path": ""},
                   "an explicit certificate needs a string path"),
    "no-type": ({"source": "s"}, "unknown certificate type None"),
}


@pytest.mark.parametrize("name", list(_CERTIFICATES))
def test_add_fact_reads_the_certificate_table(name, tmp_path):
    """A refused certificate leaves the ledger as it was, with a
    LedgerError that names the field: parents "ab" once raised a
    TypeError, a derived fact without parents was stored and then
    `provenance_chain` raised a KeyError, and an asserted fact without a
    source was stored and saved into a store that `load` refused.  A
    stored one saves into a store that loads again."""
    cert, refusal = _CERTIFICATES[name]
    ledger = _ledger_of([graph_fact((3, 3), 5, asserted("c5"))])
    fact = BoundFact(RAMSEY, (3, 3), 6, cert)

    def state():
        return (list(ledger.facts), dict(ledger._held), dict(ledger._best),
                dict(ledger._top))

    if refusal is not None:
        before = state()
        with pytest.raises(LedgerError, match=f"^{re.escape(refusal)}$"):
            ledger.add_fact(fact)
        assert state() == before
        return
    ledger.add_fact(fact)
    path = tmp_path / "facts.jsonl"
    ledger.save(path)
    assert ([repr(f) for f in Ledger.load(path).facts]
            == [repr(f) for f in ledger.facts])


_NOT_A_FACT = ("a fact needs a list of integer parameters, a certificate "
               "object and a flags object")

# fact -> the refusal of its construction, or None where `add_fact`
# stores it
_LIBRARY_FACTS = {
    "value-true": (lambda: BoundFact(GRAPH, (3, 3), True, asserted("s")),
                   "fact value True is not a number"),
    "bound-true": (lambda: BoundFact(GRAPH, (True, 3), 5, asserted("s")),
                   _NOT_A_FACT),
    "bound-float": (lambda: BoundFact(GRAPH, (3.0, 3), 5, asserted("s")),
                    _NOT_A_FACT),
    "root-float": (lambda: BoundFact(GAMMA, (3,), GammaValue(5, 2.5),
                                     asserted("s")),
                   "gamma root must be 1..64, got 2.5"),
    "root-true": (lambda: BoundFact(GAMMA, (3,), GammaValue(5, True),
                                    asserted("s")),
                  "gamma root must be 1..64, got True"),
    "certificate-string": (lambda: BoundFact(GRAPH, (3, 3), 5, "asserted"),
                           _NOT_A_FACT),
    "flags-list": (lambda: BoundFact(GRAPH, (3, 3), 5, asserted("s"),
                                     ["cyclic"]), _NOT_A_FACT),
    "no-bounds": (lambda: BoundFact(GRAPH, (), 5, asserted("s")),
                  "a fact needs at least one clique bound"),
    "id-true": (lambda: BoundFact(GRAPH, (3, 3), 5, asserted("s"), {}, True),
                "fact id True is not an integer"),
    "bounds-list": (lambda: BoundFact(GRAPH, [3, 3], 5, asserted("s"),
                                      {"cyclic": True}), None),
    "gamma": (lambda: BoundFact(GAMMA, (3,), GammaValue(Fraction(82, 25), 2),
                                asserted("s")), None),
    "ramsey": (lambda: BoundFact(RAMSEY, (4, 3), 9, asserted("s")), None),
}


@pytest.mark.parametrize("name", list(_LIBRARY_FACTS))
def test_bound_fact_checks_every_field(name, tmp_path):
    """Only the store reader once checked these fields, so `add_fact`
    stored a fact that `save` wrote and `load` refused, or ended in an
    AttributeError; a stored fact loads back with its identity."""
    build, refusal = _LIBRARY_FACTS[name]
    ledger = Ledger()
    if refusal is not None:
        with pytest.raises(LedgerError, match=f"^{re.escape(refusal)}$"):
            ledger.add_fact(build())
        assert ledger.facts == []
        return
    fact = ledger.get(ledger.add_fact(build()))
    assert type(fact.parameters) is tuple
    path = tmp_path / "facts.jsonl"
    ledger.save(path)
    assert Ledger.load(path).get(1).identity() == fact.identity()


def test_add_fact_idempotent():
    ledger = Ledger()
    f = graph_fact((3, 3), 5, asserted("test"), cyclic=True)
    first = ledger.add_fact(f)
    second = ledger.add_fact(f)
    assert first == second
    assert len(ledger.facts) == 1


def test_explicit_certificate_verified_on_ingest(tmp_path):
    path = tmp_path / "pent.json"
    save_colouring(pentagon(), path)
    ledger = Ledger()
    good = graph_fact((3, 3), 5, {"type": "explicit", "path": str(path)})
    fid = ledger.add_fact(good)
    assert ledger.get(fid).certificate == good.certificate  # as offered

    bad = graph_fact((2, 3), 5, {"type": "explicit", "path": str(path)})
    with pytest.raises(LedgerError, match="fails verification"):
        ledger.add_fact(bad)

    wrong_order = graph_fact((3, 3), 6, {"type": "explicit", "path": str(path)})
    with pytest.raises(LedgerError, match="order"):
        ledger.add_fact(wrong_order)


def test_graph_to_bound_rule():
    ledger = Ledger()
    ledger.add_fact(graph_fact((3, 3), 5, asserted("test"), cyclic=True))
    ledger.derive_closure(rules=["r7"], depth=1)
    best = ledger.best_bound(RAMSEY, (3, 3))
    assert best is not None and best.value == 6


def test_cyclic_product_rule():
    ledger = Ledger()
    ledger.add_fact(graph_fact((3, 3), 5, asserted("test"), cyclic=True))
    ledger.derive_closure(rules=["r4", "r7"], depth=2)
    best = ledger.best_bound(RAMSEY, (3, 3, 3, 3))
    assert best is not None and best.value == 42
    assert ledger.best_bound(GRAPH, (3, 3, 3, 3)).value == 41


def test_add_colour_rule():
    ledger = Ledger()
    ledger.add_fact(graph_fact((3, 3), 5, asserted("test"), cyclic=True))
    new = ledger.derive_closure(rules=["r1"], depth=1)
    f = next(f for f in new if f.parameters == (3, 3, 3))
    assert f.value == 15  # (2*3 - 3) * 5


def test_quadruple_twice_rule():
    ledger = _seeded()
    ledger.derive_closure(rules=["r8"], depth=1)
    f = ledger.best_bound(GRAPH, (9, 9, 9))
    assert f is not None
    assert f.value == 16 * 940
    assert f.certificate["rule"] == "r8"


def test_degree_chain():
    ledger = _seeded()
    ledger.derive_closure(rules=["r8", "r9"], depth=2)
    f = ledger.best_bound(GRAPH, (8, 8, 8))
    assert f is not None
    assert f.value == 9 * 273 + 7 * 673 + 5 == 7173


def test_gamma_rules():
    ledger = _seeded()
    ledger.derive_closure(rules=["r10", "r11"], depth=2)
    g6 = ledger.best_bound(GAMMA, (6,))
    assert g6.value.base == 234 and g6.value.root == 2
    g5 = ledger.best_bound(GAMMA, (5,))
    # the squared three-colour rate beats the cube-root template rate
    assert g5.value.base == Fraction(82, 25) ** 2
    r10_g5 = [f for f in ledger.facts if f.kind == GAMMA
              and f.parameters == (5,) and f.certificate.get("rule") == "r10"]
    renders = sorted(f.value.render() for f in r10_g5)
    assert "9.919351" in renders  # cube root of 976


def test_closure_idempotent_and_order_independent():
    ledger = _seeded()
    ledger.derive_closure(rules=["r7", "r8", "r9"], depth=3)
    count = len(ledger.facts)
    again = ledger.derive_closure(rules=["r7", "r8", "r9"], depth=3)
    assert again == []
    assert len(ledger.facts) == count

    # reversed seeding converges to the same best bounds
    from dataclasses import replace

    reversed_ledger = Ledger()
    tmp = Ledger()
    load_seed_pack(tmp)
    for f in reversed(tmp.facts):
        reversed_ledger.add_fact(replace(f, fact_id=None))
    reversed_ledger.derive_closure(rules=["r7", "r8", "r9"], depth=3)
    for params in ((9, 9, 9), (8, 8, 8)):
        assert (ledger.best_bound(GRAPH, params).value
                == reversed_ledger.best_bound(GRAPH, params).value)


def test_recompute_check():
    ledger = _seeded()
    ledger.derive_closure(depth=2)
    ledger.recompute_check()


def test_provenance_chain():
    ledger = _seeded()
    ledger.derive_closure(rules=["r8", "r9", "r7"], depth=3)
    best = ledger.best_bound(RAMSEY, (8, 8, 8))
    chain = ledger.provenance_chain(best)
    assert chain[-1] is best
    assert chain[0].certificate["type"] == "asserted"
    rules = [f.certificate.get("rule") for f in chain]
    assert rules == [None, "r8", "r9", "r7"]


def test_best_bound_sorts_parameters():
    ledger = Ledger()
    ledger.add_fact(graph_fact((3, 6, 6), 337, asserted("test"), cyclic=True))
    assert ledger.best_bound(GRAPH, (6, 3, 6)).value == 337


def test_emit_table():
    ledger = _seeded()
    ledger.derive_closure(rules=["r8"], depth=1)
    md = ledger.emit_table(range(8, 10), range(3, 4))
    assert "| 9 | 15040 (d) |" in md
    assert "| 8 | - |" in md
    csv = ledger.emit_table(range(9, 10), range(3, 4), fmt="csv")
    assert "9,15040 (d)" in csv


def _store_with_every_certificate(tmp_path) -> Ledger:
    """Seed facts, facts derived from them and one explicit fact, whose
    colouring file sits beside the store."""
    save_colouring(pentagon(), tmp_path / "pent.json")
    ledger = _seeded()
    ledger.add_fact(graph_fact((3, 3), 5, {"type": "explicit",
                                           "path": "pent.json"}, cyclic=True),
                    base_dir=str(tmp_path))
    ledger.derive_closure(rules=["r7", "r8", "r10"], depth=2)
    return ledger


def test_save_load_roundtrip(tmp_path):
    ledger = _store_with_every_certificate(tmp_path)
    path = tmp_path / "facts.jsonl"
    ledger.save(path)
    back = Ledger.load(path)
    assert len(back.facts) == len(ledger.facts)
    assert (back.best_bound(RAMSEY, (9, 9, 9)).value
            == ledger.best_bound(RAMSEY, (9, 9, 9)).value)
    g6 = back.best_bound(GAMMA, (6,))
    assert g6.value.render() == "15.297058"
    assert back.best_bound(RAMSEY, (3, 3)).value == 6
    back.recompute_check()
    again = tmp_path / "again.jsonl"
    back.save(again)
    assert again.read_bytes() == path.read_bytes()


def test_load_builds_each_fact_once(tmp_path, monkeypatch):
    ledger = _store_with_every_certificate(tmp_path)
    path = tmp_path / "facts.jsonl"
    ledger.save(path)
    explicit = sum(f.certificate["type"] == "explicit" for f in ledger.facts)
    assert explicit == 1 and len(ledger.facts) > 20
    built = []
    init = BoundFact.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BoundFact, "__init__", counting)
    Ledger.load(path)
    assert len(built) == len(ledger.facts)


def test_explicit_fact_reverified_when_added_again(tmp_path):
    path = tmp_path / "c.json"
    save_colouring(pentagon(), path)
    ledger = Ledger()
    fact = graph_fact((3, 3), 5, {"type": "explicit", "path": str(path)},
                      cyclic=True)
    fid = ledger.add_fact(fact)
    # the file now holds a colouring with a monochromatic K_5
    save_colouring(LengthColouring("cyclic", 5, 2, (1, 1)), path)
    for again in (fact, ledger.get(fid)):
        with pytest.raises(LedgerError, match="fails verification"):
            ledger.add_fact(again)
    assert len(ledger.facts) == 1


def test_explicit_fact_offered_with_its_colouring(monkeypatch):
    """A colouring given to `add_fact` is the one checked, and the path
    the fact names is never opened: a colouring that breaks the fact's
    bounds is refused with `check_certificate`'s message, and the store
    is left as it was."""
    def unopened(path):
        raise AssertionError(f"{path} was opened")

    monkeypatch.setattr(led, "load_colouring", unopened)
    ledger = _seeded()
    before = list(ledger.facts)
    cert = {"type": "explicit", "path": "pent.json"}
    refusal = ("certificate pent.json fails verification: clique sizes "
               "(2, 2) vs bounds (2, 3)")
    with pytest.raises(LedgerError, match=f"^{re.escape(refusal)}$"):
        ledger.add_fact(graph_fact((2, 3), 5, cert), colouring=pentagon())
    assert ledger.facts == before
    assert ledger.best_bound(GRAPH, (2, 3)) is None
    fid = ledger.add_fact(graph_fact((3, 3), 5, cert), colouring=pentagon())
    assert ledger.get(fid).certificate == cert


def test_gamma_render_keeps_global_precision():
    from decimal import getcontext

    ctx = getcontext()
    saved = ctx.prec
    ctx.prec = 17
    try:
        GammaValue(Fraction(976), 3).render()
        assert getcontext().prec == 17
    finally:
        ctx.prec = saved


def test_special_degree_index_must_name_a_colour():
    with pytest.raises(LedgerError, match="special_degree_index"):
        graph_fact((3, 3), 5, asserted("x"), special_degree=2,
                   special_degree_index=2)


# -- the closure against a naive oracle ---------------------------------------

def _exact(f):
    """Everything a rule reads of a fact: only exact repeats are dropped."""
    return (f.kind, f.parameters, json.dumps(f.flags, sort_keys=True),
            f.value)


def _applied(rule_id):
    return lambda *parents: apply_rule(rule_id, parents)


# The rules as `apply_rule` applies them, parent tests included: the tests
# define each rule, so the oracle shares them, and checks the closure's
# semi-naive loop, its join and its dominance pruning.
UNARY = {r: _applied(r) for r, rule in RULES.items() if rule.join is None}
BINARY = {r: _applied(r) for r, rule in RULES.items()
          if rule.join is not None}


def _naive_closure(facts, depth, max_colours, binary=BINARY):
    """Every unary rule on every fact and every rule of `binary` on every
    ordered pair of facts, in each pass."""
    facts = [replace(f, fact_id=i) for i, f in enumerate(facts, 1)]
    seen = {_exact(f) for f in facts}
    for _ in range(depth):
        produced = []
        for fn in UNARY.values():
            produced += [fn(f) for f in facts]
        for fn in binary.values():
            produced += [fn(a, b) for a in facts for b in facts]
        added = False
        for out in produced:
            if (out is None or len(out.parameters) > max_colours
                    or _exact(out) in seen):
                continue
            seen.add(_exact(out))
            facts.append(replace(out, fact_id=len(facts) + 1))
            added = True
        if not added:
            break
    return facts


def _best_values(facts):
    best = {}
    for f in facts:
        key = (f.kind, f.sorted_parameters)
        if key not in best or best[key] < f.value:
            best[key] = f.value
    return best


def _random_pack(rng):
    """Cyclic, linear and template graphs over few shapes and orders, so
    that facts of one key collide; some with a special degree, and Gamma(3).
    """
    facts = []
    for _ in range(rng.randint(3, 4)):
        shape = rng.choice(("cyclic", "linear", "template"))
        params = tuple(rng.randint(3, 4) for _ in range(rng.randint(1, 2)))
        if shape == "template":
            params += (3,)
            flags = {"template": True, "cyclic": rng.random() < 0.5,
                     "phi": rng.choice((None, 0, 1))}
        else:
            flags = {shape: True}
        order = rng.randint(5, 30)
        if rng.random() < 0.4:
            flags["special_degree"] = rng.randint(2, order - 1)
            flags["special_degree_index"] = rng.randrange(len(params))
        facts.append(graph_fact(params, order, asserted("random"), **flags))
    if rng.random() < 0.5:
        base = Fraction(rng.randint(5, 40), rng.randint(1, 4))
        facts.append(BoundFact(GAMMA, (3,), GammaValue(base, rng.randint(1, 2)),
                               asserted("random")))
    return facts


def _ledger_of(facts):
    ledger = Ledger()
    for f in facts:
        ledger.add_fact(f)
    return ledger


def _split_product(label, accepts, shape):
    """A product rule as the ledger had two: r3 multiplied linear graphs,
    cyclic ones among them, into a linear graph, and r4 multiplied cyclic
    graphs into a cyclic one.  The order is 2ab - a - b + 1."""
    def rule(f1, f2):
        if not (f1.kind == f2.kind == GRAPH and accepts(f1) and accepts(f2)):
            return None
        a, b = f1.value, f2.value
        return BoundFact(GRAPH, f1.parameters + f2.parameters,
                         2 * a * b - a - b + 1,
                         derived(label, [f1.fact_id, f2.fact_id]),
                         {shape: True})
    return rule


SPLIT_PRODUCTS = BINARY | {
    "r3": _split_product(
        "r3", lambda f: f.flags.get("linear") or f.flags.get("cyclic"),
        "linear"),
    "r4": _split_product("r4", lambda f: f.flags.get("cyclic"), "cyclic"),
}


@pytest.mark.parametrize("seed", range(12))
def test_closure_matches_naive_oracle(seed):
    """Against every rule on every fact and pair, and against the split
    product rules: r3's cyclic product reaches every best value that a
    linear product beside a cyclic one of the same order reached."""
    pack = _random_pack(random.Random(seed))
    for depth in (1, 2, 3):
        ledger = _ledger_of(pack)
        ledger.derive_closure(depth=depth, max_colours=6)
        for binary in (BINARY, SPLIT_PRODUCTS):
            oracle = _naive_closure(pack, depth, max_colours=6, binary=binary)
            assert _best_values(ledger.facts) == _best_values(oracle), (
                depth, sorted(binary))


@pytest.mark.parametrize("seed", [0, 3, 6, 9])
def test_depth_four_closure_matches_naive_oracle(seed):
    pack = _random_pack(random.Random(seed))
    ledger = _ledger_of(pack)
    ledger.derive_closure(depth=4, max_colours=6)
    oracle = _naive_closure(pack, 4, max_colours=6)
    assert _best_values(ledger.facts) == _best_values(oracle)


def test_r6_is_offered_equal_colour_counts_only(monkeypatch):
    """r6 refuses parents with different colour counts, so the closure
    offers it none, and keeps the facts it kept when it offered r6 every
    partner with at most as many colours."""
    rule, offered = RULES["r6"], []

    def traced(f1, f2):
        offered.append((len(f1.parameters), len(f2.parameters)))
        return rule.fn(f1, f2)

    def closures():
        out = []
        for depth in (1, 2, 3):
            ledger = _seeded()
            ledger.derive_closure(depth=depth)
            out.append([(f.fact_id, f.identity()) for f in ledger.facts])
        return out

    monkeypatch.setitem(RULES, "r6", rule._replace(fn=traced))
    grouped = closures()
    assert offered and all(a == b for a, b in offered)
    room, exact = rule.join
    assert exact
    monkeypatch.setitem(RULES, "r6", rule._replace(fn=traced,
                                                   join=(room, False)))
    offered.clear()
    assert closures() == grouped
    assert any(a != b for a, b in offered)


def _raised(f, step):
    if isinstance(f.value, GammaValue):
        return replace(f, value=GammaValue(f.value.base * (1 + step),
                                           f.value.root))
    return replace(f, value=f.value + step)


def _degree_free_key(f):
    flags = {k: v for k, v in f.flags.items() if k != "special_degree"}
    return _key(f.kind, f.parameters, f.certificate.get("rule"), flags)


def test_rules_are_monotone_within_a_key():
    facts = []
    for seed in range(12):
        ledger = _ledger_of(_random_pack(random.Random(seed)))
        ledger.derive_closure(depth=2, max_colours=6)
        facts += ledger.facts
    seeded = _seeded()
    seeded.derive_closure(rules=["r7", "r8"], depth=1)
    facts += seeded.facts
    rng = random.Random(0)
    for rule_id in ALL_RULES:
        fn = _applied(rule_id)
        if RULES[rule_id].join is None:
            cases = [(f,) for f in facts]
        else:
            cases = [(rng.choice(facts), rng.choice(facts))
                     for _ in range(20000)]
        cases = [c for c in cases if fn(*c) is not None]
        assert cases, rule_id
        for parents in cases[:300]:
            out = fn(*parents)
            for i in range(len(parents)):
                for step in (1, 7):
                    bumped = list(parents)
                    bumped[i] = _raised(parents[i], step)
                    up = fn(*bumped)
                    assert up is not None and not up.value < out.value
                    if rule_id == "r8":
                        # r8 carries the value into special_degree, and r9
                        # is non-decreasing in it
                        assert _degree_free_key(up) == _degree_free_key(out)
                        assert (up.flags.get("special_degree", 0)
                                >= out.flags.get("special_degree", 0))
                    else:
                        assert dominance_key(up) == dominance_key(out)


def test_depth_one_passes_equal_one_deep_closure():
    one = _seeded()
    one.derive_closure(depth=3)
    stepped = _seeded()
    for _ in range(3):
        stepped.derive_closure(depth=1)
    assert ([(f.fact_id, f.identity()) for f in stepped.facts]
            == [(f.fact_id, f.identity()) for f in one.facts])


R3_R4_R7_R11 = ["r3", "r4", "r7", "r8", "r9", "r10", "r11"]


@pytest.mark.parametrize("rules, depth, count, digest", [
    (R3_R4_R7_R11, 3, 775, "87ca88bfcd72dc145f024a8a6eac15ef"
                           "48e1c172a5e4f63a4d9872e7fa59a8d9"),
    (None, 2, 506, "33fab3bfaa2bf96fec462e2113f9cae7"
                   "7ffe9d4475aa01dc27f73877625b964f"),
    (None, 3, 2987, "e425f6b7cc7474130e32507cc5bf2c22"
                    "afe6e2ab79cf2097e9c90e4614d22bb2"),
    (None, 4, 22257, "4b8c9069fab167582a2bdded26f51e4e"
                     "2137a60d98012b853f85feb97ac4d8c0"),
], ids=["r3r4r7-r11-d3", "all-d2", "all-d3", "all-d4"])
def test_seeded_closure_is_pinned(rules, depth, count, digest):
    """Every fact, id and identity of four seed-pack closures: how the
    closure builds its facts must not change which ones it stores."""
    ledger = _seeded()
    ledger.derive_closure(rules=rules, depth=depth)
    assert len(ledger.facts) == count
    pinned = repr([(f.fact_id, f.identity()) for f in ledger.facts])
    assert hashlib.sha256(pinned.encode()).hexdigest() == digest


def test_closure_builds_only_the_facts_it_stores(monkeypatch):
    """A dominated product is never built as a fact, and a stored one is
    built once, with its id."""
    built = []
    init = BoundFact.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    ledger = _seeded()
    monkeypatch.setattr(BoundFact, "__init__", counted)
    new = ledger.derive_closure(rules=R3_R4_R7_R11, depth=3)
    assert len(new) == 765
    assert [id(f) for f in built] == [id(f) for f in new]


SYMMETRIC = sorted(r for r, rule in RULES.items() if rule.symmetric)


def test_symmetric_rules_give_one_product_for_both_orders():
    """What the closure's half join rests on: one test for both parents, a
    symmetric join, and the key, value and flags of (A, B) for (B, A)."""
    assert SYMMETRIC == ["r3", "r6"]
    ledger = _seeded()
    ledger.derive_closure(depth=2)
    rng = random.Random(0)
    for rule_id in SYMMETRIC:
        rule = RULES[rule_id]
        test, other = rule.tests
        assert test is other
        room, exact = rule.join
        eligible = [f for f in ledger.facts if test(f)]
        products = 0
        for _ in range(3000):
            a, b = rng.choice(eligible), rng.choice(eligible)
            fits = [(len(right.parameters) == room(left, 16) if exact
                     else len(right.parameters) <= room(left, 16))
                    for left, right in ((a, b), (b, a))]
            assert fits[0] == fits[1]
            ab, ba = _product(rule_id, (a, b)), _product(rule_id, (b, a))
            assert (ab is None) == (ba is None)
            if ab is None:
                continue
            products += 1
            assert (_key(ab.kind, ab.parameters, rule_id, ab.flags)
                    == _key(ba.kind, ba.parameters, rule_id, ba.flags))
            assert (ab.value, ab.flags) == (ba.value, ba.flags)
        assert products > 500, rule_id


def test_symmetric_rules_join_each_pair_once(monkeypatch):
    """The closure calls r3 and r6 on each unordered pair once, the lower
    id first."""
    calls = {rule_id: [] for rule_id in SYMMETRIC}
    for rule_id, seen in calls.items():
        rule = RULES[rule_id]

        def traced(f1, f2, fn=rule.fn, seen=seen):
            seen.append((f1.fact_id, f2.fact_id))
            return fn(f1, f2)

        monkeypatch.setitem(RULES, rule_id, rule._replace(fn=traced))
    for rules, depth in ((R3_R4_R7_R11, 3), (None, 2), (None, 3)):
        ledger = _seeded()
        ledger.derive_closure(rules=rules, depth=depth)
        for rule_id, seen in calls.items():
            assert seen or rule_id not in (rules or ALL_RULES), rule_id
            assert all(a <= b for a, b in seen), rule_id
            assert len(set(seen)) == len(seen), rule_id
            seen.clear()


@pytest.mark.parametrize("seed", range(6))
def test_symmetric_join_stores_what_the_full_join_stores(seed, monkeypatch):
    pack = _random_pack(random.Random(seed))

    def closure():
        ledger = _ledger_of(pack)
        ledger.derive_closure(depth=3, max_colours=6)
        return [(f.fact_id, f.identity()) for f in ledger.facts]

    half = closure()
    for rule_id in SYMMETRIC:
        monkeypatch.setitem(RULES, rule_id,
                            RULES[rule_id]._replace(symmetric=False))
    assert closure() == half


def test_closure_is_byte_deterministic(tmp_path):
    paths = []
    for name in ("a.jsonl", "b.jsonl"):
        ledger = _seeded()
        ledger.derive_closure(depth=2)
        ledger.save(tmp_path / name)
        paths.append(tmp_path / name)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_cyclic_product_is_stored_once():
    # the product of two cyclic graphs is cyclic, which r1 and r8 can
    # extend; no linear copy of it is stored beside it
    ledger = Ledger()
    ledger.add_fact(graph_fact((3, 3), 5, asserted("test"), cyclic=True))
    ledger.add_fact(graph_fact((4, 4), 17, asserted("test"), cyclic=True))
    new = ledger.derive_closure(rules=["r3", "r4"], depth=1)
    products = {(f.certificate["rule"], tuple(sorted(f.flags)))
                for f in new if f.sorted_parameters == (3, 3, 4, 4)}
    assert products == {("r3", ("cyclic",))}
    assert {f.value for f in new if f.sorted_parameters == (3, 3, 4, 4)} == {149}


def test_dominated_products_are_not_stored():
    ledger = Ledger()
    ledger.add_fact(graph_fact((3, 3), 5, asserted("test"), cyclic=True))
    ledger.add_fact(graph_fact((3, 3), 4, asserted("test"), cyclic=True))
    new = ledger.derive_closure(rules=["r1"], depth=1)
    assert [(f.parameters, f.value) for f in new] == [((3, 3, 3), 15)]


def test_closure_logs_one_record_per_pass(caplog):
    ledger = _seeded()
    with caplog.at_level(logging.DEBUG, logger="ramseykit.ledger"):
        ledger.derive_closure(rules=["r8", "r9"], depth=3)
    messages = [r.getMessage() for r in caplog.records]
    # r8 then r9 each add facts; the third pass finds nothing new
    assert len(messages) == 3
    assert all("pairs tried" in m and "dominated" in m for m in messages)


def test_rule_label_keeps_each_rules_best_fact():
    # r11's Gamma(5) >= 10.7584 is better than r10's cube-root template
    # rate, but the r10 fact is still kept when r11 runs first
    ledger = _seeded()
    ledger.derive_closure(rules=["r11", "r10"], depth=1)
    rates = {f.certificate["rule"]: f.value.render() for f in ledger.facts
             if f.kind == GAMMA and f.parameters == (5,)}
    assert rates == {"r11": "10.758400", "r10": "9.919351"}


T = {"template": True}


@pytest.mark.parametrize("weak, weak_flags, strong, strong_flags, rule", [
    # cyclic: r1 extends only the cyclic template
    ((3, 3), dict(T, cyclic=True, phi=None), (3, 3), dict(T, phi=None), "r1"),
    # linear: r3 multiplies only linear graphs
    ((3, 3), {"linear": True}, (3, 3), {}, "r3"),
    # template: r10 reads only templates
    ((3, 4), dict(T, phi=None), (3, 4), {}, "r10"),
    # phi: r5 needs an offset
    ((4, 3), dict(T, phi=0), (4, 3), dict(T, phi=None), "r5"),
    # the last bound: r5 drops it and needs it to be 3
    ((4, 3), dict(T, phi=0), (3, 4), dict(T, phi=0), "r5"),
    # special_degree: r9 gives it as the order
    ((4, 4), {"special_degree": 3, "special_degree_index": 0},
     (4, 4), {"special_degree": 2, "special_degree_index": 0}, "r9"),
    # the bound at special_degree_index, which r9 lowers
    ((3, 4), {"special_degree": 3, "special_degree_index": 1},
     (3, 4), {"special_degree": 3, "special_degree_index": 0}, "r9"),
])
def test_facts_apart_in_what_a_rule_reads(weak, weak_flags, strong,
                                          strong_flags, rule):
    """A better fact that a rule reads differently does not hide a worse
    one from it."""
    ledger = Ledger()
    ledger.add_fact(graph_fact((3, 3), 5, asserted("partner"), linear=True))
    weak_id = ledger.add_fact(
        graph_fact(weak, 10, asserted("weak"), **weak_flags))
    ledger.add_fact(graph_fact(strong, 20, asserted("strong"), **strong_flags))
    new = ledger.derive_closure(rules=[rule], depth=1)
    assert any(weak_id in f.certificate["parents"] for f in new)


# -- each graph rule against the construction it stands for -------------------

def _paley(q, avoid):
    p = paley_colouring(q)
    return LengthColouring(p.kind, q, 2, p.colour_of, avoid=avoid)


def _parent(c, fact_id, kind=GRAPH, value=None, **flags):
    fact = BoundFact(kind, c.avoid, c.order if value is None else value,
                     asserted("test"), flags)
    return replace(fact, fact_id=fact_id)


def _rule_cases():
    """(rule, parents, the construction built from the parents' colourings,
    the product's flags)."""
    c5, e, p13 = pentagon(), single_edge(), _paley(13, (4, 4))
    for a, b in ((c5, e), (p13, c5), (e, p13)):
        yield ("r3", (_parent(a, 1, linear=True), _parent(b, 2, linear=True)),
               product_linear(a, b), {"linear": True})
    for a, b in ((c5, c5), (p13, c5)):
        yield ("r3", (_parent(a, 1, cyclic=True), _parent(b, 2, cyclic=True)),
               product_cyclic(a, b), {"cyclic": True})
    # a searched (3,4,3)-template of order 19, phi 7, which is not a doubling
    searched = TemplateGraph(LengthColouring(
        "linear", 19, 3, (1, 2, 2, 1, 2, 2, 1, 3, 1, 2, 3, 3, 3, 3, 3, 2, 1, 3),
        avoid=(3, 4, 3), template_colour=3))
    for T, b in ((double_to_template(c5), c5),
                 (double_to_template(e), c5),
                 (double_to_template(p13), c5), (searched, c5)):
        ft = _parent(T.base, 1, template=True, phi=T.phi)
        yield ("r5", (ft, _parent(b, 2, linear=True)),
               template_compound(T, b), {"linear": True})
    # r6 reads Ramsey bounds: a graph of order m gives R > m
    g, h = expand_to_explicit(c5), expand_to_explicit(p13)
    yield ("r6", (_parent(g, 1, RAMSEY, g.order + 1),
                  _parent(h, 2, RAMSEY, h.order + 1)), song_product(g, h), {})


@pytest.mark.parametrize("rule, parents, built, flags", [
    pytest.param(rule, parents, built, flags,
                 id=f"{rule}-{'cyclic-' if flags.get('cyclic') else ''}"
                    f"order{built.order}")
    for rule, parents, built, flags in _rule_cases()])
def test_rule_value_is_the_built_order(rule, parents, built, flags):
    out = apply_rule(rule, parents)
    assert out.flags == flags
    if rule == "r6":
        assert out.value == built.order + 1
    else:
        assert out.value == built.order
    assert built.avoid == out.parameters
    assert ramsey_check(built, out.parameters).passes


# -- each rule's parent tests, as `RULES` declares them ------------------------

def _g(params, order, **flags):
    return graph_fact(params, order, asserted("s"), **flags)


_R33 = BoundFact(RAMSEY, (3, 3), 6, asserted("s"))

# parents each rule applies to, and the flag it reads of the first one
_GOOD_PARENTS = {
    "r1": ([_g((3, 3), 5, cyclic=True)], "cyclic"),
    "r3": ([_g((3, 3), 5, cyclic=True), _g((3,), 2, linear=True)], "cyclic"),
    "r5": ([_g((4, 3), 10, template=True, phi=0),
            _g((3, 3), 5, linear=True)], "phi"),
    "r6": ([_R33, _R33], None),
    "r7": ([_g((3, 3), 5)], None),
    "r8": ([_g((3, 4), 13, cyclic=True)], "cyclic"),
    # an index needs its degree, so a parent without the index is the one
    # a fact can be
    "r9": ([_g((3, 4), 13, special_degree=4, special_degree_index=1)],
           "special_degree_index"),
    "r10": ([_g((5, 3), 20, template=True)], "template"),
    "r11": ([_R33], None),
}


def _broken(parents, flag, wrong):
    """`parents` with the first of another kind (and no flags, which only
    graph facts carry), without `flag`, or one too many or too few."""
    first = parents[0]
    if wrong == "kind":
        return [replace(first, kind=RAMSEY if first.kind == GRAPH
                        else GRAPH, flags={}), *parents[1:]]
    if wrong == "flag":
        return [replace(first, flags={**first.flags, flag: None}),
                *parents[1:]]
    return parents * 2 if len(parents) == 1 else parents[:1]


@pytest.mark.parametrize("rule, wrong", [
    (rule, wrong) for rule in ALL_RULES for wrong in ("kind", "flag", "count")
    if wrong != "flag" or _GOOD_PARENTS[rule][1]])
def test_a_rule_refuses_parents_that_fail_its_tests(rule, wrong):
    """A stored fact that names a rule over parents failing the rule's tests
    does not recompute, though it claims what the rule derives from
    parents that pass them."""
    assert sorted(_GOOD_PARENTS) == sorted(RULES)
    good, flag = _GOOD_PARENTS[rule]
    ledger = Ledger()
    parent_ids = [[ledger.add_fact(f) for f in parents]
                  for parents in (good, _broken(good, flag, wrong))]
    built, refused = ([apply_rule(rule, [ledger.get(i) for i in ids])
                       for ids in parent_ids])
    assert built is not None and refused is None
    claims = [ledger.add_fact(replace(built, certificate=derived(rule, ids)))
              for ids in parent_ids]
    ledger.recompute_check([ledger.get(claims[0])])
    with pytest.raises(LedgerError, match=f"fact {claims[1]}: not "
                                          f"recomputable by rule {rule}$"):
        ledger.recompute_check([ledger.get(claims[1])])


def _store_line(fact_id, params, value, certificate, **flags):
    return json.dumps({"id": fact_id, "kind": GRAPH,
                       "parameters": list(params), "value": value,
                       "certificate": certificate, "flags": flags}) + "\n"


@pytest.mark.parametrize("value, recomputes", [(14, True), (15, False)])
def test_r2_store_loads_and_recomputes_as_r3(tmp_path, value, recomputes):
    # r2, the equal-k product, and r4, the cyclic product, were folded into
    # r3; stores keep their labels
    path = tmp_path / "facts.jsonl"
    for rule, shape in (("r2", "linear"), ("r4", "cyclic")):
        flag = {shape: True}
        path.write_text(
            _store_line(1, (3, 3), 5, asserted("c5"), **flag)
            + _store_line(2, (3,), 2, asserted("edge"), **flag)
            + _store_line(3, (3, 3, 3), value, derived(rule, [1, 2]), **flag))
        ledger = Ledger.load(path)
        assert ledger.get(3).certificate["rule"] == rule
        if recomputes:
            ledger.recompute_check()
        else:
            with pytest.raises(LedgerError, match="fact 3: not recomputable "
                                                  f"by rule {rule}"):
                ledger.recompute_check()


def _best_by_scan(ledger):
    """Each key's first fact of the best value, by a scan of every fact in
    id order, as `best_bound` found it before it had an index."""
    best = {}
    for f in ledger.facts:
        key = (f.kind, f.sorted_parameters)
        if key not in best or best[key].value < f.value:
            best[key] = f
    return best


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_best_bound_index_matches_scan(depth):
    ledger = _seeded()
    ledger.derive_closure(depth=depth)
    scan = _best_by_scan(ledger)
    assert len(scan) > 50
    for (kind, params), fact in scan.items():
        assert ledger.best_bound(kind, params) is fact
        assert ledger.best_bound(kind, params[::-1]) is fact
    assert ledger.best_bound(GRAPH, (99,)) is None


def test_index_keeps_the_first_fact_of_a_tied_value():
    ledger = Ledger()
    first = ledger.add_fact(graph_fact((3, 4), 8, asserted("a")))
    ledger.add_fact(graph_fact((4, 3), 8, asserted("b"), cyclic=True))
    ledger.add_fact(graph_fact((3, 4), 7, asserted("c")))
    assert ledger.best_bound(GRAPH, (3, 4)).fact_id == first


def _derived_store(tmp_path):
    ledger = _seeded()
    ledger.derive_closure(rules=["r7", "r8"], depth=1)
    path = tmp_path / "facts.jsonl"
    ledger.save(path)
    return path


def test_load_rejects_a_moved_line(tmp_path):
    path = _derived_store(tmp_path)
    lines = path.read_text().splitlines(keepends=True)
    assert json.loads(lines[-1])["certificate"]["type"] == "derived"
    path.write_text(lines[-1] + "".join(lines[:-1]))
    with pytest.raises(LedgerError, match=f"stored as id {len(lines)} "
                                          "loads as id 1"):
        Ledger.load(path)


def test_load_rejects_a_parent_after_its_child(tmp_path):
    path = tmp_path / "facts.jsonl"
    path.write_text(
        _store_line(1, (3, 3), 5, asserted("c5"), cyclic=True)
        + _store_line(2, (3, 3, 3), 14, derived("r3", [1, 3]), linear=True)
        + _store_line(3, (3,), 2, asserted("edge"), linear=True))
    with pytest.raises(LedgerError, match="fact 2 names parent 3"):
        Ledger.load(path)


@pytest.mark.parametrize("parent", [-1, 0, 2])
def test_add_fact_refuses_a_parent_that_is_not_stored(parent):
    """Parents -1 and 0 would read as Python's negative indexes, and a
    fact's own id comes after nothing stored; each is refused on add,
    as on load, and leaves the ledger as it was.  Ids outside the store
    are no fact to `get` either."""
    ledger = Ledger()
    c5 = ledger.add_fact(graph_fact((3, 3), 5, asserted("c5"), cyclic=True))
    bad = BoundFact(RAMSEY, (3, 3), 6, derived("r7", [parent]))
    with pytest.raises(LedgerError, match=f"fact 2 names parent {parent}, "
                                          "which does not come before it"):
        ledger.add_fact(bad)
    assert len(ledger.facts) == 1
    for fact_id in (-1, 0, 2):
        with pytest.raises(LedgerError, match=f"no fact {fact_id}"):
            ledger.get(fact_id)
    good = ledger.add_fact(replace(bad, certificate=derived("r7", [c5])))
    ledger.recompute_check()
    assert ledger.get(good).value == 6


def test_failed_save_leaves_the_old_store(tmp_path, monkeypatch):
    path = _derived_store(tmp_path)
    before = path.read_bytes()
    ledger = Ledger.load(path)
    ledger.derive_closure(rules=["r1"], depth=1)
    real_dumps = json.dumps
    written = []

    def failing_dumps(obj, *args, **kwargs):
        if len(written) == 3:
            raise RuntimeError("disk full")
        written.append(obj)
        return real_dumps(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", failing_dumps)
    with pytest.raises(RuntimeError, match="disk full"):
        ledger.save(path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["facts.jsonl"]
    ledger.save(path)
    assert len(Ledger.load(path).facts) == len(ledger.facts)


@pytest.mark.parametrize("colouring, flags, message", [
    # lengths 1 and 3 differ, so the colouring has no cyclic form
    (LengthColouring("linear", 4, 2, (1, 2, 2)), {"cyclic": True},
     "is flagged cyclic but its colouring is not cyclic-symmetric"),
    (song_product(expand_to_explicit(pentagon()),
                  expand_to_explicit(pentagon())), {"cyclic": True},
     "is flagged cyclic but its colouring is not cyclic-symmetric"),
    (expand_to_explicit(pentagon()), {"linear": True},
     "is flagged linear but its colouring is explicit"),
    # no colouring check confirms these flags, so r5, r9 and r10 would read
    # them unchecked: these once gave (3,3,3; 20), so R(3,3,3) >= 21
    (pentagon(), {"linear": True, "template": True, "phi": 3,
                  "special_degree": 4},
     "is flagged template, which no colouring check confirms"),
    (pentagon(), {"phi": 0, "template": True},  # set, though 0 == False
     "is flagged phi, which no colouring check confirms"),
    (expand_to_explicit(pentagon()),
     {"special_degree": 2, "special_degree_index": 0},
     "is flagged special_degree, which no colouring check confirms"),
], ids=["linear-as-cyclic", "grid-as-cyclic", "explicit-as-linear",
        "template", "phi-0", "special-degree"])
def test_certificate_flags_must_fit_the_colouring(tmp_path, colouring, flags,
                                                  message):
    """`ledger add`, store loads and pipeline `add_fact` meet one check, with
    one message naming the file or the recipe's colouring."""
    save_colouring(colouring, tmp_path / "c.json")
    avoid = ramsey_check(colouring, (99,) * colouring.num_colours,
                         exact=True).per_colour_max
    params = tuple(k + 1 for k in avoid)
    cert = {"type": "explicit", "path": "c.json"}
    refusal = re.escape(f"certificate c.json {message}")
    with pytest.raises(LedgerError, match=f"^{refusal}$"):
        Ledger().add_fact(graph_fact(params, colouring.order, cert, **flags),
                          base_dir=str(tmp_path))
    path = tmp_path / "facts.jsonl"
    path.write_text(_store_line(1, params, colouring.order, cert, **flags))
    with pytest.raises(LedgerError, match=f"^{refusal}$"):
        Ledger.load(path)

    def pipeline(flags):
        return run_pipeline({"name": "r", "steps": [
            {"op": "colouring", "name": "c", "path": str(tmp_path / "c.json")},
            {"op": "add_fact", "target": "c", "avoid": list(params),
             "flags": flags}]})

    failed, log = pipeline(flags)
    assert (failed, log[1:]) == (2, [f"step 2: error: certificate 'c' "
                                     f"{message}"])
    # without the contradicting flags the certificate is accepted
    Ledger().add_fact(graph_fact(params, colouring.order, cert),
                      base_dir=str(tmp_path))
    assert pipeline({})[0] == 0


def test_cyclic_flag_fits_cyclic_colourings(tmp_path):
    for i, c in enumerate([pentagon(), pentagon().as_linear(),
                           expand_to_explicit(paley_colouring(13))]):
        save_colouring(c, tmp_path / f"c{i}.json")
        params = (3, 3) if c.order == 5 else (4, 4)
        Ledger().add_fact(graph_fact(
            params, c.order, {"type": "explicit", "path": f"c{i}.json"},
            cyclic=True), base_dir=str(tmp_path))


# -- ingestion: dedupe by (dominance key, value) -----------------------------

class _IdentityLedger:
    """Ingestion as one dict from each offered fact's JSON identity to its
    id, the reference for `Ledger.add_fact`'s dedupe.  A fact naming a
    parent that is not yet stored is refused."""

    def __init__(self):
        self.facts = []
        self._ids = {}

    def add_fact(self, f):
        if not set(f.certificate.get("parents", ())) <= set(
                range(1, len(self.facts) + 1)):
            raise LedgerError("a parent is not stored")
        identity = f.identity()
        if identity in self._ids:
            return self._ids[identity]
        fid = len(self.facts) + 1
        self.facts.append(f if f.fact_id == fid else replace(f, fact_id=fid))
        self._ids[identity] = fid
        return fid


def _random_fact(rng, pent):
    """A fact over few kinds, parameters, values, certificates and flags, so
    that many share a dominance key and value without being identical."""
    kind = rng.choice((GRAPH, GRAPH, RAMSEY, GAMMA))
    params = rng.choice(((3, 3), (3, 4), (4, 3), (3, 3, 3)))
    value = rng.choice((5, 8))
    if kind == GAMMA:
        params = (3,)
        # equal rates, stored unreduced: sqrt(4) = 2 = 8/4
        value = rng.choice((GammaValue(Fraction(4), 2), GammaValue(Fraction(2)),
                            GammaValue(Fraction(8, 4))))
    cert = rng.choice((
        asserted("a"), asserted("b"), {"source": "a", "type": "asserted"},
        derived("r7", [1]), {"parents": [1], "rule": "r7", "type": "derived"},
        derived("r3", [1, 2], note="n"),
    ))
    flags = {}
    if kind == GRAPH:
        flags = rng.choice(({}, {"cyclic": True},
                            {"cyclic": True, "provenance_note": "n"},
                            {"linear": True}, {"template": True, "phi": 0},
                            {"phi": 0, "template": True},
                            {"special_degree": 2, "special_degree_index": 0}))
        # an explicit certificate as an older store wrote it, with its
        # "verified" mark, is another certificate
        if params == (3, 3) and value == 5 and rng.random() < 0.3:
            cert = rng.choice(({"type": "explicit", "path": pent},
                               {"path": pent, "type": "explicit",
                                "verified": True}))
            flags = {}
    return BoundFact(kind, params, value, cert, dict(flags))


@pytest.mark.parametrize("seed", range(6))
def test_add_fact_matches_identity_dict_oracle(seed, tmp_path):
    pent = str(tmp_path / "pent.json")
    save_colouring(pentagon(), pent)
    rng = random.Random(seed)
    ledger, oracle = Ledger(), _IdentityLedger()
    offered = []
    for _ in range(300):
        roll = rng.random()
        if offered and roll < 0.2:  # a planted duplicate
            f = rng.choice(offered)
        elif ledger.facts and roll < 0.3:  # a stored fact, with its id
            f = rng.choice(ledger.facts)
        elif offered and roll < 0.4:  # its certificate's keys reversed
            f = rng.choice(offered)
            f = replace(f, certificate=dict(reversed(f.certificate.items())))
        else:
            f = _random_fact(rng, pent)
        offered.append(f)
        try:
            want = oracle.add_fact(f)
        except LedgerError:
            with pytest.raises(LedgerError, match="does not come before"):
                ledger.add_fact(f)
            continue
        assert ledger.add_fact(f) == want
    assert [repr(f) for f in ledger.facts] == [repr(f) for f in oracle.facts]
    # the streams reach every case the buckets must tell apart
    stored = {(f.kind, f.parameters, f.certificate.get("type"))
              for f in ledger.facts}
    assert len(ledger.facts) > 60 and (GRAPH, (3, 3), "explicit") in stored


def _oracle_load(path) -> Ledger:
    """`Ledger.load` one line at a time: `json.loads` on each stripped line,
    then `_fact_from_json`, then `add_fact`, checking each fact's id."""
    ledger = Ledger()
    base_dir = str(path.parent)
    lines = [line.strip() for line in path.read_text().splitlines()]
    for read, line in enumerate(filter(None, lines), start=1):
        fact = _fact_from_json(json.loads(line))
        fid = ledger.add_fact(fact, base_dir) if fact.fact_id == read else read
        if fact.fact_id != fid:
            raise LedgerError(f"{path}: fact stored as id {fact.fact_id} "
                              f"loads as id {fid}")
        if ledger.facts[-1] is fact:
            ledger._lines[fid] = line
    return ledger


def _paley_store(tmp_path) -> Ledger:
    """Explicit cyclic Paley certificates beside the seed pack, and what
    the closure derives from them."""
    ledger = _seeded()
    for q, bound in ((13, 4), (17, 4), (29, 5)):
        save_colouring(paley_colouring(q), tmp_path / f"p{q}.json")
        ledger.add_fact(graph_fact((bound, bound), q, {
            "type": "explicit", "path": f"p{q}.json"}, cyclic=True),
            base_dir=str(tmp_path))
    ledger.derive_closure(depth=2)
    return ledger


def _same_load(path):
    got, want = Ledger.load(path), _oracle_load(path)
    assert ([(f.fact_id, f.identity()) for f in got.facts]
            == [(f.fact_id, f.identity()) for f in want.facts])
    assert got._lines == want._lines
    assert ({k: f.fact_id for k, f in got._best.items()}
            == {k: f.fact_id for k, f in want._best.items()})
    for key in want._best:
        assert (got.best_bound(*key[:2]).fact_id
                == want.best_bound(*key[:2]).fact_id)
    return got


_ORACLE_CLOSURES = {"r3r4r7-r11-d3": (R3_R4_R7_R11, 3), "all-d2": (None, 2)}


@pytest.mark.parametrize("store", [*_ORACLE_CLOSURES, "paley"])
def test_load_matches_a_per_line_oracle(store, tmp_path):
    """The store reader against `json.loads` on each line: the same facts,
    ids and identities, kept lines, best facts and best bounds."""
    if store == "paley":
        ledger = _paley_store(tmp_path)
    else:
        ledger = _seeded()
        ledger.derive_closure(*_ORACLE_CLOSURES[store])
    path = tmp_path / "facts.jsonl"
    ledger.save(path)
    lines = path.read_text().splitlines(keepends=True)
    if store == "paley":  # one as an older store wrote it, with a mark
        marked = len(_seeded().facts) + 1
        fact = json.loads(lines[marked - 1])
        fact["certificate"]["verified"] = True
        lines[marked - 1] = json.dumps(fact) + "\n"
    # blank lines and padding, which both readers skip and strip
    path.write_text("\n" + "  \t" + "\n  ".join(lines) + "\n\n")
    got = _same_load(path)
    assert len(got.facts) == len(ledger.facts) > 100
    assert sorted(got._lines) == [f.fact_id for f in got.facts]


@pytest.mark.parametrize("text", [
    '{"id": 1} x', '{"id": 1} {"id": 2}', '{"id": 1}{"id": 2}', "1 2",
    '{"id": 1, "kind": "graph_exists",', '"value": 5}', "[1, 2", "nul",
    "\ufeff{}", '{"id": 1 "kind": 2}',
], ids=["word", "two-objects", "no-space", "two-numbers", "first-half",
        "second-half", "open-list", "bad-literal", "bom", "missing-comma"])
def test_load_refuses_what_json_loads_refuses(text, tmp_path):
    """A line that is not exactly one JSON value fails with the message
    `json.loads` gives for it, position included, after the store and the
    line's number."""
    with pytest.raises(json.JSONDecodeError) as want:
        json.loads(text)
    path = tmp_path / "facts.jsonl"
    path.write_text(text + "\n", encoding="utf-8")
    with pytest.raises(LedgerError) as got:
        Ledger.load(path)
    assert str(got.value) == f"{path}:1: {want.value}"


def test_seed_pack_line_that_is_not_json_is_named(tmp_path, monkeypatch):
    """The seed pack is read by the store's reader, so a bad line in it is
    named as a store line is."""
    (tmp_path / "seed_facts.jsonl").write_text("\nnot json\n")
    monkeypatch.setattr(led, "resources",
                        SimpleNamespace(files=lambda package: tmp_path))
    with pytest.raises(LedgerError, match=re.escape(
            "seed_facts.jsonl:1: Expecting value: line 1 column 1 (char 0)")):
        load_seed_pack(Ledger())


def test_load_encodes_no_identity(tmp_path, monkeypatch):
    ledger = _store_with_every_certificate(tmp_path)
    path = tmp_path / "facts.jsonl"
    ledger.save(path)
    calls = []
    identity = BoundFact.identity

    def counting(self):
        calls.append(self)
        return identity(self)

    monkeypatch.setattr(BoundFact, "identity", counting)
    assert len(Ledger.load(path).facts) == len(ledger.facts)
    assert calls == []


def test_save_writes_back_the_lines_it_read(tmp_path, monkeypatch):
    """A store that was itself saved loads and saves again with no fact
    encoded and the same bytes; a loaded line keeps its key order and its
    spacing."""
    ledger = _store_with_every_certificate(tmp_path)
    path = tmp_path / "facts.jsonl"
    ledger.save(path)
    lines = path.read_text().splitlines(keepends=True)
    lines[0] = json.dumps(json.loads(lines[0]), sort_keys=True,
                          separators=(",", ":")) + "\n"
    path.write_text("".join(lines))
    before = path.read_bytes()
    calls = []
    dumps = json.dumps

    def counting(*args, **kwargs):
        calls.append(args)
        return dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", counting)
    Ledger.load(path).save(path)
    assert calls == []
    assert path.read_bytes() == before


@pytest.mark.parametrize("mark", [{}, {"verified": True}],
                         ids=["hand-written", "older-mark"])
def test_explicit_line_saves_back_as_read(mark, tmp_path):
    """An explicit line is re-verified on load and saved back byte for
    byte: written by hand without a "verified" mark, or by an older store
    with one, which is an ordinary certificate field."""
    save_colouring(pentagon(), tmp_path / "pent.json")
    path = tmp_path / "facts.jsonl"
    path.write_text(
        _store_line(1, (3, 3), 5, {"type": "explicit", "path": "pent.json",
                                   **mark}, cyclic=True)
        + _store_line(2, (4, 4), 17, asserted("s"), cyclic=True))
    before = path.read_bytes()
    ledger = Ledger.load(path)
    assert ledger.get(1).certificate == {"type": "explicit",
                                         "path": "pent.json", **mark}
    ledger.save(path)
    assert path.read_bytes() == before


def test_load_rejects_a_duplicate_with_reordered_certificate(tmp_path):
    path = tmp_path / "facts.jsonl"
    cert = asserted("c5")
    path.write_text(
        _store_line(1, (3, 3), 5, cert, cyclic=True)
        + _store_line(2, (3, 3), 5, dict(reversed(cert.items())),
                      cyclic=True))
    with pytest.raises(LedgerError, match="stored as id 2 loads as id 1"):
        Ledger.load(path)


def test_load_logs_one_record(tmp_path, caplog):
    ledger = _store_with_every_certificate(tmp_path)
    path = tmp_path / "facts.jsonl"
    ledger.save(path)
    with caplog.at_level(logging.DEBUG, logger="ramseykit.ledger"):
        Ledger.load(path)
    assert [r.getMessage() for r in caplog.records] == [
        f"loaded {path}: {len(ledger.facts)} facts read, 1 explicit "
        "certificates re-verified"]


@pytest.mark.parametrize("params", [(3,), (2, 3)])
def test_r1_refuses_a_single_edge(params):
    """The single edge has one bound >= 3; adding a colour to it would
    claim a triangle-free 2-colouring of K_6."""
    edge = graph_fact(params, 2, asserted("z"), cyclic=True)
    assert apply_rule("r1", [replace(edge, fact_id=1)]) is None
    ledger = Ledger()
    ledger.add_fact(edge)
    ledger.derive_closure(depth=2)
    assert derived("r1", [1]) not in [f.certificate for f in ledger.facts]
    best = ledger.best_bound(RAMSEY, params + (3,))
    assert best is None or best.value <= 6  # R(3,3) = R(2,3,3) = 6
