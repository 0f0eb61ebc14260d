"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single pass/fail line (run pytest with -s or read
captured output).  Criterion 3 pins the three-colour boundary of the
length-colouring searches: both encodings are SAT at order 14 (Schur
number S(3) = 13) and UNSAT at order 15, and the cyclic search stays
UNSAT at orders 16 and 17.  R(3,3,3) > 16 still holds, but its only
witnesses are Cayley colourings over Z_2^4, which no length colouring
(cyclic over Z_16 or linear) expresses; criterion 3 therefore verifies
the Greenwood-Gleason colouring of K_16 directly as an explicit
colouring.  The companion test at the bottom enumerates every cyclic
three-colouring of orders 15 and 16 as an oracle independent of the
solver.
"""

import hashlib
import random
import time
from fractions import Fraction

from ramseykit.cliques import max_clique_in_colour, ramsey_check
from ramseykit.colouring import (
    ExplicitColouring,
    LengthColouring,
    check_cyclic_symmetry,
    expand_to_explicit,
    explicit_from_upper_triangle,
    pentagon,
    single_edge,
)
from ramseykit.constructions import (
    paley_colouring,
    product_linear,
    song_product,
    template_compound,
)
from ramseykit.ledger import GAMMA, GRAPH, RAMSEY, Ledger, load_seed_pack
from ramseykit.sat import (
    decode_model,
    encode_cyclic,
    encode_linear,
    solve_internal,
    write_dimacs,
)
from ramseykit.templates import (
    _tf_violation,
    double_to_template,
    repetition_check,
)

from conftest import (
    all_cyclic_colourings,
    colour_degree,
    max_clique_brute,
    neighbourhood_restrict,
    random_colouring,
)


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(1)
    checked = 0
    mismatches = 0
    for _ in range(200):
        kind = rng.choice(["linear", "cyclic"])
        c = random_colouring(rng, kind, rng.randint(4, 12), rng.randint(1, 4))
        g = expand_to_explicit(c)
        for s in range(1, c.num_colours + 1):
            fast, _ = max_clique_in_colour(g, s)
            if fast != max_clique_brute(g, s):
                mismatches += 1
        checked += 1
    elapsed = time.monotonic() - start
    ok = checked >= 200 and mismatches == 0 and elapsed < 60
    assert _report(1, ok, f"{checked} colourings, {mismatches} mismatches, "
                          f"{elapsed:.1f}s")


def test_criterion_02_two_colour_boundary():
    start = time.monotonic()
    results = {}
    for name, enc in (("cyclic", encode_cyclic), ("linear", encode_linear)):
        results[name, 5] = solve_internal(enc(5, (3, 3))).status
        results[name, 6] = solve_internal(enc(6, (3, 3))).status
    elapsed = time.monotonic() - start
    ok = (results["cyclic", 5] == results["linear", 5] == "SAT"
          and results["cyclic", 6] == results["linear", 6] == "UNSAT"
          and elapsed < 5)
    assert _report(2, ok, f"{results}, {elapsed:.2f}s")


def _greenwood_gleason_colouring() -> ExplicitColouring:
    """The Greenwood-Gleason triangle-free 3-colouring of K_16.

    Vertices are GF(16) = GF(2)[x]/(x^4 + x + 1), written as 4-bit
    integers; edge {u, v} gets colour (log_x(u xor v) mod 3) + 1, so each
    colour class is the Cayley graph of a coset of the cubic residues over
    the additive group Z_2^4.
    """
    log = {}
    power = 1
    for k in range(15):
        log[power] = k
        power <<= 1
        if power & 0b10000:
            power ^= 0b10011
    colours = [log[u ^ v] % 3 + 1 for u in range(16) for v in range(u + 1, 16)]
    return explicit_from_upper_triangle(16, 3, colours)


def test_criterion_03_three_colour_boundary():
    start = time.monotonic()
    status = {}
    models_ok = {}
    for name, enc in (("cyclic", encode_cyclic), ("linear", encode_linear)):
        for order in (14, 15):
            cnf = enc(order, (3, 3, 3))
            res = solve_internal(cnf)
            status[name, order] = res.status
            if res.status == "SAT":
                decoded = decode_model(res.model, cnf)
                models_ok[name, order] = (
                    decoded.order == order
                    and ramsey_check(decoded, (3, 3, 3)).passes)
    for order in (16, 17):
        status["cyclic", order] = solve_internal(
            encode_cyclic(order, (3, 3, 3))).status
    witness16 = ramsey_check(_greenwood_gleason_colouring(), (3, 3, 3)).passes
    elapsed = time.monotonic() - start
    ok = (status["cyclic", 14] == status["linear", 14] == "SAT"
          and models_ok.get(("cyclic", 14)) is True
          and models_ok.get(("linear", 14)) is True
          and status["cyclic", 15] == status["linear", 15] == "UNSAT"
          and status["cyclic", 16] == status["cyclic", 17] == "UNSAT"
          and witness16
          and elapsed < 60)
    assert _report(3, ok, f"{status}, order-14 models {models_ok}, "
                          f"GF(16) witness {witness16}, {elapsed:.2f}s")


def test_criterion_04_product_chain():
    start = time.monotonic()
    e = single_edge()
    p5 = product_linear(e, e)
    p14 = product_linear(p5, e)
    p41 = product_linear(p5, p5)
    orders_ok = (p5.order, p14.order, p41.order) == (5, 14, 41)
    formula_ok = all(
        out.order == ((2 * a.order - 1) * (2 * b.order - 1) + 1) // 2
        for a, b, out in ((e, e, p5), (p5, e, p14), (p5, p5, p41))
    )
    verified = (ramsey_check(p5, (3, 3)).passes
                and ramsey_check(p14, (3, 3, 3)).passes
                and ramsey_check(p41, (3, 3, 3, 3)).passes)
    elapsed = time.monotonic() - start
    ok = orders_ok and formula_ok and verified and elapsed < 10
    assert _report(4, ok, f"orders {(p5.order, p14.order, p41.order)}, "
                          f"verified {verified}, {elapsed:.2f}s")


def test_criterion_05_product_cyclicity():
    start = time.monotonic()
    prod = product_linear(pentagon(), pentagon())
    symmetric = prod.order == 41 and check_cyclic_symmetry(prod)
    verified = ramsey_check(prod, (3, 3, 3, 3)).passes
    elapsed = time.monotonic() - start
    ok = symmetric and verified and elapsed < 10
    assert _report(5, ok, f"order {prod.order}, symmetric {symmetric}, "
                          f"verified {verified}, {elapsed:.2f}s")


def test_criterion_06_template_product_identity():
    from itertools import product as iproduct

    from ramseykit.colouring import LengthColouring

    start = time.monotonic()
    passing = []
    for order in range(2, 8):
        r = 2 if order > 2 else 1
        for combo in iproduct(range(1, r + 1), repeat=order - 1):
            c = LengthColouring("linear", order, r, combo)
            if ramsey_check(c, (3,) * r).passes:
                passing.append(c)
    pairs = 0
    mismatches = 0
    for A in passing:
        for B in passing:
            direct = product_linear(A, B)
            via = template_compound(double_to_template(A), B)
            pairs += 1
            if via.colour_of != direct.colour_of or via.order != direct.order:
                mismatches += 1
    elapsed = time.monotonic() - start
    ok = pairs == len(passing) ** 2 and mismatches == 0
    assert _report(6, ok, f"{len(passing)} passing colourings, {pairs} pairs, "
                          f"{mismatches} mismatches, {elapsed:.2f}s")


def test_criterion_07_template_validity():
    T = double_to_template(pentagon())
    tf = _tf_violation(T.base, T.template_colour) is None
    phi_ok = T.phi == 4
    reps_ok = all(repetition_check(T, q, (3, 3)).passes for q in range(1, 9))
    # the rainbow prototype of order n gives each length its own colour
    rainbow_ok = all(
        ramsey_check(template_compound(T, LengthColouring(
                         "linear", n, n - 1, tuple(range(1, n)))),
                     (3, 3) + (3,) * (n - 1)).passes
        for n in range(2, 7))
    ok = tf and phi_ok and reps_ok and rainbow_ok
    assert _report(7, ok, f"tf {tf}, phi {T.phi}, repetitions {reps_ok}, "
                          f"rainbow compounds {rainbow_ok}")


def test_criterion_08_grid_product():
    start = time.monotonic()
    g = expand_to_explicit(pentagon())
    prod = song_product(g, g)
    sizes = [max_clique_brute(prod, s, order_cap=25) for s in (1, 2)]
    elapsed = time.monotonic() - start
    ok = prod.order == 25 and max(sizes) <= 4 and elapsed < 10
    assert _report(8, ok, f"order {prod.order}, clique numbers {sizes}, "
                          f"{elapsed:.2f}s")


def test_criterion_09_ledger_reproduction():
    start = time.monotonic()
    ledger = Ledger()
    load_seed_pack(ledger)
    ledger.derive_closure(rules=["r7", "r8", "r9", "r10", "r11"], depth=3)
    r999 = ledger.best_bound(RAMSEY, (9, 9, 9))
    r888 = ledger.best_bound(RAMSEY, (8, 8, 8))
    r366 = ledger.best_bound(RAMSEY, (3, 6, 6))
    r388 = ledger.best_bound(RAMSEY, (3, 8, 8))
    g6 = ledger.best_bound(GAMMA, (6,))
    g5_template = next(
        (f for f in ledger.facts
         if f.kind == GAMMA and f.parameters == (5,)
         and f.certificate.get("rule") == "r10" and f.value.root == 3),
        None)
    g999 = ledger.best_bound(GRAPH, (9, 9, 9))
    seed388 = ledger.best_bound(GRAPH, (3, 8, 8))
    elapsed = time.monotonic() - start
    checks = {
        "R(9,9,9)": r999 is not None and r999.value >= 15041,
        "sixteen-fold": (g999 is not None and seed388 is not None
                         and g999.value == 16 * seed388.value == 15040),
        "R(8,8,8)": (r888 is not None and r888.value >= 7174
                     and 9 * 273 + 7 * 673 + 5 == 7173),
        "R(3,6,6)": r366 is not None and r366.value >= 338,
        "R(3,8,8)": r388 is not None and r388.value >= 941,
        "gamma6": (g6 is not None and g6.value.base == Fraction(234)
                   and g6.value.root == 2
                   and g6.value.render() == "15.297058"),
        "gamma5": (g5_template is not None
                   and abs(float(g5_template.value.render()) - 9.919) <= 0.001),
        "time": elapsed < 5,
    }
    ok = all(checks.values())
    assert _report(9, ok, f"{checks}, {elapsed:.2f}s")


def test_criterion_10_dimacs_golden():
    doc5_first = write_dimacs(encode_cyclic(5, (3, 3)))
    doc5_second = write_dimacs(encode_cyclic(5, (3, 3)))
    doc6_first = write_dimacs(encode_cyclic(6, (3, 3)))
    doc6_second = write_dimacs(encode_cyclic(6, (3, 3)))
    sha5 = hashlib.sha256(doc5_first.encode()).hexdigest()
    sha6 = hashlib.sha256(doc6_first.encode()).hexdigest()
    ok = (doc5_first == doc5_second and doc6_first == doc6_second
          and sha5 == "36192eba9c0615afdfd0c1506842e4eefa"
                      "8c9ab3748d450516824acccb8afd16"
          and sha6 == "061eb93191acf613db27b9f97ebe88b17b"
                      "83d4929482b111805b5ac424a34530")
    assert _report(10, ok, f"sha256 {sha5[:12]}.. / {sha6[:12]}..")


def test_criterion_11_quadratic_residue_colouring():
    start = time.monotonic()
    c = paley_colouring(17)
    g = expand_to_explicit(c)
    sizes = [max_clique_brute(g, s, order_cap=17) for s in (1, 2)]
    elapsed = time.monotonic() - start
    ok = c.order == 17 and max(sizes) <= 3 and elapsed < 30
    assert _report(11, ok, f"order 17 clique numbers {sizes}, {elapsed:.2f}s")


def test_criterion_12_neighbourhood_rule():
    start = time.monotonic()
    rng = random.Random(12)
    done = 0
    failures = 0
    while done < 50:
        kind = rng.choice(["linear", "cyclic"])
        c = random_colouring(rng, kind, rng.randint(5, 11), rng.randint(2, 3))
        g = expand_to_explicit(c)
        sizes = [max_clique_brute(g, s) for s in range(1, c.num_colours + 1)]
        avoid = [k + 1 for k in sizes]
        s = rng.randint(1, c.num_colours)
        v = rng.randrange(g.order)
        if colour_degree(g, v, s) == 0:
            continue
        h = neighbourhood_restrict(g, v, s)
        dec = list(avoid)
        dec[s - 1] -= 1
        if not ramsey_check(h, dec).passes:
            failures += 1
        done += 1
    elapsed = time.monotonic() - start
    ok = done >= 50 and failures == 0
    assert _report(12, ok, f"{done} colourings, {failures} failures, "
                           f"{elapsed:.1f}s")


def test_companion_no_cyclic_three_colouring_at_order_16():
    """Companion evidence for criterion 3: brute enumeration.

    Every cyclic length colouring of order 15 uses 7 length classes and
    every one of order 16 uses 8; all 3**7 = 2187 and 3**8 = 6561
    assignments are checked with the explicit clique oracle.  None avoids
    a monochromatic triangle in all three colours, so the solver's UNSAT
    answers at cyclic orders 15 and 16 in criterion 3 are the correct
    ones.  Order 14 does admit one, e.g. lengths coloured 1,2,2,1,3,3,1,
    which is verified here as well.
    """
    for order in (15, 16):
        hits = [c for c in all_cyclic_colourings(order, 3)
                if ramsey_check(c, (3, 3, 3)).passes]
        assert hits == [], order
    from ramseykit.colouring import LengthColouring
    witness14 = LengthColouring("cyclic", 14, 3, (1, 2, 2, 1, 3, 3, 1))
    assert ramsey_check(witness14, (3, 3, 3)).passes
    print("companion  : PASS - exhaustive check, no cyclic three-colouring "
          "of order 15 or 16 exists; order 14 witness verified")
