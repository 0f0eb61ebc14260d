import json
import logging
import random
from dataclasses import replace
from fractions import Fraction

import pytest

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
    BINARY_RULES,
    GAMMA,
    GRAPH,
    RAMSEY,
    UNARY_RULES,
    _JOINS,
    BoundFact,
    GammaValue,
    Ledger,
    LedgerError,
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
    with pytest.raises(LedgerError):
        GammaValue(Fraction(2), 0)


def test_fact_validation():
    with pytest.raises(LedgerError):
        BoundFact("wrong_kind", (3, 3), 5, asserted("x"))
    with pytest.raises(LedgerError):
        BoundFact(GRAPH, (3, 3), 5, {"type": "imagined"})
    with pytest.raises(LedgerError):
        BoundFact(GAMMA, (3,), 5, asserted("x"))  # needs a GammaValue


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
    assert ledger.get(fid).certificate["verified"] is True

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
    post_init = BoundFact.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(BoundFact, "__post_init__", counting)
    Ledger.load(path)
    others = len(ledger.facts) - explicit
    assert others <= len(built) <= others + 2 * explicit


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


def _naive_closure(facts, depth, max_colours, binary=BINARY_RULES):
    """Every unary rule on every fact and every rule of `binary` on every
    ordered pair of facts, in each pass."""
    facts = [replace(f, fact_id=i) for i, f in enumerate(facts, 1)]
    seen = {_exact(f) for f in facts}
    for _ in range(depth):
        produced = []
        for fn in UNARY_RULES.values():
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


SPLIT_PRODUCTS = BINARY_RULES | {
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
        for binary in (BINARY_RULES, SPLIT_PRODUCTS):
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
    song, offered = BINARY_RULES["r6"], []

    def traced(f1, f2):
        offered.append((len(f1.parameters), len(f2.parameters)))
        return song(f1, f2)

    def closures():
        out = []
        for depth in (1, 2, 3):
            ledger = _seeded()
            ledger.derive_closure(depth=depth)
            out.append([(f.fact_id, f.identity()) for f in ledger.facts])
        return out

    monkeypatch.setitem(BINARY_RULES, "r6", traced)
    grouped = closures()
    assert offered and all(a == b for a, b in offered)
    accept, _, room, exact = _JOINS["r6"]
    assert exact
    monkeypatch.setitem(_JOINS, "r6", (accept, accept, room, False))
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
    return dominance_key(replace(f, flags=flags))


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
        if rule_id in UNARY_RULES:
            fn = UNARY_RULES[rule_id]
            cases = [(f,) for f in facts]
        else:
            fn = BINARY_RULES[rule_id]
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
        avoid=(3, 4, 3)), 3)
    for T, b in ((double_to_template(c5), c5),
                 (double_to_template(c5, compact=True), e),
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
    out = BINARY_RULES[rule](*parents)
    assert out.flags == flags
    if rule == "r6":
        assert out.value == built.order + 1
    else:
        assert out.value == built.order
    assert built.avoid == out.parameters
    assert ramsey_check(built, out.parameters).passes


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
     "flagged cyclic"),
    (song_product(expand_to_explicit(pentagon()),
                  expand_to_explicit(pentagon())), {"cyclic": True},
     "flagged cyclic"),
    (expand_to_explicit(pentagon()), {"linear": True}, "flagged linear"),
])
def test_certificate_flags_must_fit_the_colouring(tmp_path, colouring, flags,
                                                  message):
    save_colouring(colouring, tmp_path / "c.json")
    avoid = ramsey_check(colouring, (99,) * colouring.num_colours,
                         exact=True).per_colour_max
    params = tuple(k + 1 for k in avoid)
    cert = {"type": "explicit", "path": "c.json"}
    with pytest.raises(LedgerError, match=message):
        Ledger().add_fact(graph_fact(params, colouring.order, cert, **flags),
                          base_dir=str(tmp_path))
    path = tmp_path / "facts.jsonl"
    path.write_text(_store_line(1, params, colouring.order, cert, **flags))
    with pytest.raises(LedgerError, match=message):
        Ledger.load(path)
    # without the contradicting flag the certificate is accepted
    Ledger().add_fact(graph_fact(params, colouring.order, cert),
                      base_dir=str(tmp_path))


def test_cyclic_flag_fits_cyclic_colourings(tmp_path):
    for i, c in enumerate([pentagon(), pentagon().as_linear(),
                           expand_to_explicit(paley_colouring(13))]):
        save_colouring(c, tmp_path / f"c{i}.json")
        params = (3, 3) if c.order == 5 else (4, 4)
        Ledger().add_fact(graph_fact(
            params, c.order, {"type": "explicit", "path": f"c{i}.json"},
            cyclic=True), base_dir=str(tmp_path))
