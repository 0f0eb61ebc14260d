import random
from itertools import combinations, product

import pytest

from ramseykit import templates
from ramseykit.cliques import max_clique_in_colour, ramsey_check
from ramseykit.colouring import (
    ColouringError,
    LengthColouring,
    expand_to_explicit,
    pentagon,
    single_edge,
)
from ramseykit.constructions import template_compound
from ramseykit.templates import (
    REPETITION,
    TF,
    TemplateError,
    TemplateFailure,
    TemplateGraph,
    covering_q,
    double_to_template,
    is_tf_template,
    repetition_check,
    template_usable,
    tiled_colouring,
    validate_template,
)

# found by the extension search from a cyclic order-8 prototype; frozen here
TEMPLATE_343 = LengthColouring(
    "linear", 19, 3,
    (1, 2, 2, 1, 2, 2, 1, 3, 1, 2, 3, 3, 3, 3, 3, 2, 1, 3),
    template_colour=3,
)


def test_is_tf_template_positive():
    base = double_to_template(pentagon()).base
    assert is_tf_template(base, 3)
    assert not is_tf_template(base, 1)  # class misses the top length


def test_is_tf_template_rejects_triangle():
    # template class {2, 3, 5}: 2 + 3 = 5 is a monochromatic triangle
    c = LengthColouring("linear", 6, 2, (1, 2, 2, 1, 2))
    assert not is_tf_template(c, 2)


def test_is_tf_template_requires_linear():
    with pytest.raises(TemplateError):
        is_tf_template(pentagon(), 1)


def test_template_graph_validates():
    # colour class {2, 3} misses the top length 4
    with pytest.raises(TemplateError):
        TemplateGraph(pentagon().as_linear(), 2)


def test_doubling_pentagon():
    T = double_to_template(pentagon())
    assert T.order == 10
    assert T.template_colour == 3
    assert T.base.colour_of == (1, 2, 2, 1, 3, 3, 3, 3, 3)
    assert T.template_lengths() == {5, 6, 7, 8, 9}
    assert T.phi == 4
    assert T.base.avoid == (3, 3, 3)


def test_doubling_compact_variant():
    T = double_to_template(pentagon(), compact=True)
    assert T.order == 9
    assert T.template_lengths() == {5, 6, 7, 8}
    assert T.phi == 4


def test_tiled_colouring_order_and_pattern():
    T = double_to_template(pentagon())
    tiled = tiled_colouring(T, 3)
    assert tiled.order == 3 * 9 + 1 + 4
    # residues 1..4 repeat the pentagon pattern
    assert tiled.colour(1) == tiled.colour(10) == tiled.colour(19) == 1
    assert tiled.colour(2) == tiled.colour(11) == 2
    assert tiled.colour(5) == tiled.colour(14) == 3


def test_repetition_check_doubled_pentagon():
    T = double_to_template(pentagon())
    for q in range(1, 9):
        assert repetition_check(T, q, (3, 3)).passes


def test_repetition_check_avoid_arity():
    T = double_to_template(pentagon())
    with pytest.raises(Exception):
        repetition_check(T, 2, (3, 3, 3))


def test_template_usable_doubled_pentagon():
    T = double_to_template(pentagon())
    assert template_usable(T, (3, 3))


def test_template_usable_doubled_edge():
    T = double_to_template(single_edge())
    assert T.order == 4
    assert T.phi == 1
    assert template_usable(T, (3,))


def test_frozen_search_template_is_valid():
    T = TemplateGraph(TEMPLATE_343, 3)
    assert T.phi == 7
    assert template_usable(T, (3, 4))


def test_validate_template_passes_doubled_pentagon():
    T = double_to_template(pentagon())
    assert validate_template(T.base, 3, (3, 3)) is None


def test_validate_template_tf_triangle():
    # template class {2, 3, 5}: the triple is the witness
    c = LengthColouring("linear", 6, 2, (1, 2, 2, 1, 2))
    assert validate_template(c, 2, (3,)) == TemplateFailure(
        TF, 2, lengths=(2, 3, 5))


def test_validate_template_tf_missing_top_length():
    # class {2, 3} of the linear pentagon is sum-free but misses length 4
    assert validate_template(pentagon().as_linear(), 2, (3,)) == \
        TemplateFailure(TF, 2, lengths=())


def test_validate_template_repetition_witness():
    # colour 2 of the doubled pentagon holds an edge, so bound 2 fails at q=1
    T = double_to_template(pentagon())
    failure = validate_template(T.base, 3, (3, 2))
    assert failure == TemplateFailure(REPETITION, 2, 1, (3,))
    assert "repetition q=1: FAIL, colour 2" in str(failure)


def _random_template(rng):
    """A random template graph: linear, colour 3 a tf-template class."""
    while True:
        order = rng.randint(4, 9)
        colours = [rng.randint(1, 3) for _ in range(order - 2)] + [3]
        base = LengthColouring("linear", order, 3, tuple(colours))
        if is_tf_template(base, 3):
            return TemplateGraph(base, 3)


def _rainbow(n):
    """Linear prototype of order n giving each length its own colour: every
    class is a single length, so no colour holds a triangle."""
    return LengthColouring("linear", n, n - 1, tuple(range(1, n)))


@pytest.mark.parametrize("seed", range(3))
def test_rainbow_compound_is_a_repetition(seed):
    """The compound with a rainbow prototype of order n passes iff the
    (n-1)-fold tiling does: its non-template classes are the tiling's, and
    each rainbow colour is one sum-free block of template residues."""
    rng = random.Random(seed)
    for _ in range(20):
        T = _random_template(rng)
        avoid = (rng.randint(2, 4), rng.randint(2, 4))
        for n in range(2, 6):
            compound = template_compound(T, _rainbow(n))
            got = ramsey_check(compound, avoid + (3,) * (n - 1)).passes
            assert got == repetition_check(T, n - 1, avoid).passes, \
                (T.base, avoid, n)


def _oracle_first_failure(base, s, avoid, last):
    """Stage, colour and q of the first failing check up to the last-fold
    tiling, by exhaustive means: brute-force triangles, then full
    branch-and-bound clique numbers."""
    g = expand_to_explicit(base)
    top = base.colour_of[-1] == s
    if not top or max_clique_in_colour(g, s)[0] >= 3:
        return TF, s, None
    T = TemplateGraph(base, s)
    non_template = T.non_template_colours()
    for q in range(1, last + 1):
        tiled = expand_to_explicit(tiled_colouring(T, q))
        for colour, k in zip(non_template, avoid):
            if max_clique_in_colour(tiled, colour)[0] >= k:
                return REPETITION, colour, q
    return None


def test_covering_q():
    # q* = max(1, ceil(((k-1)(P-1) - phi) / P)), P = t-1, k the top bound
    linear5 = TemplateGraph(LengthColouring("linear", 5, 3, (3, 1, 1, 3)), 3)
    assert covering_q(linear5, (3, 3)) == 2  # ceil(6 / 4)
    T = double_to_template(pentagon())
    assert covering_q(T, (3, 3)) == 2  # ceil((16 - 4) / 9)
    assert covering_q(T, (2, 2)) == 1  # ceil((8 - 4) / 9)
    assert covering_q(T, (3, 9)) == 7  # ceil((64 - 4) / 9)
    assert covering_q(TemplateGraph(TEMPLATE_343, 3), (3, 4)) == 3
    edge = double_to_template(single_edge())  # P = 3, phi = 1
    assert [covering_q(edge, (k,)) for k in range(2, 7)] == [1, 1, 2, 3, 3]


def _random_cases(rng, n):
    """n random linear bases with colour 3 mostly on the top length, each
    with bounds for colours 1, 2 and the ascending oracle's first failure
    up to q = max(avoid) + 2, past every q* of these bounds."""
    for _ in range(n):
        order = rng.randint(5, 9)
        colours = [rng.choice((1, 2, 2, 3)) for _ in range(order - 2)]
        colours.append(3 if rng.random() < 0.9 else rng.randint(1, 2))
        base = LengthColouring("linear", order, 3, tuple(colours))
        avoid = (rng.randint(2, 5), rng.randint(4, 6))
        yield base, avoid, _oracle_first_failure(base, 3, avoid,
                                                 max(avoid) + 2)


@pytest.mark.parametrize("seed", range(4))
def test_validate_template_matches_exhaustive_oracle(seed):
    """`validate_template`'s verdict, stage and colour are those of the
    ascending oracle run past q*: no tiling fails first beyond q*.  A
    failure's lengths carry its colour in the base."""
    for base, avoid, want in _random_cases(random.Random(seed), 100):
        case = (base, avoid)
        failure = validate_template(base, 3, avoid)
        got = None if failure is None else (failure.stage, failure.colour)
        assert got == (want and want[:2]), case
        if failure is None:
            continue
        assert all(base.colour_of[l - 1] == failure.colour
                   for l in failure.lengths), case
        if failure.stage == TF and failure.lengths:
            x, y, z = failure.lengths
            assert x + y == z, case


def test_doubling_schedule_matches_ascending_oracle(monkeypatch):
    """`validate_template` checks q = 1, 2, 4, ... below q*, then q*, and
    no tiling on a tf failure.  A failure's q is the ascending oracle's
    when that tiling is checked, else it lies between the oracle's and q*;
    its tiling holds a clique of the reported colour."""
    calls = []
    real = templates.repetition_check

    def spy(T, q, avoid):
        calls.append(q)
        return real(T, q, avoid)

    monkeypatch.setattr(templates, "repetition_check", spy)
    unchecked = set()  # oracle q's that fall between checked tilings
    for seed in range(4):
        for base, avoid, want in _random_cases(random.Random(seed), 100):
            case = (base, avoid)
            calls.clear()
            failure = validate_template(base, 3, avoid)
            if failure is not None and failure.stage == TF:
                assert calls == [], case
                continue
            last = covering_q(TemplateGraph(base, 3), avoid)
            schedule = [q for q in (1, 2, 4) if q < last] + [last]
            if failure is None:
                assert calls == schedule, case
                continue
            assert calls == schedule[:len(calls)], case
            if want[2] in schedule:
                assert failure.q == want[2], case
            else:
                unchecked.add(want[2])
            assert want[2] <= failure.q <= last, case
            tiled = expand_to_explicit(
                tiled_colouring(TemplateGraph(base, 3), failure.q))
            assert max_clique_in_colour(tiled, failure.colour)[0] >= \
                avoid[failure.colour - 1], case
    assert 3 in unchecked, unchecked


def test_failure_between_checked_tilings():
    """q* = 4 schedules q = 1, 2, 4.  The 3-fold tiling of the linear
    (3, 2, 2, 2, 3) already holds a colour-2 4-clique, so the failure comes
    from the 4-fold check, and its q is the least tiling that holds the
    witness found there: span 17 over P = 5 and phi = 0 needs q = 4."""
    base = LengthColouring("linear", 6, 3, (3, 2, 2, 2, 3))
    avoid = (5, 4)
    T = TemplateGraph(base, 3)
    assert covering_q(T, avoid) == 4
    assert _oracle_first_failure(base, 3, avoid, 4) == (REPETITION, 2, 3)
    assert repetition_check(T, 4, avoid).witness[1] == (0, 9, 13, 17)
    failure = validate_template(base, 3, avoid)
    assert (failure.stage, failure.colour, failure.q) == (REPETITION, 2, 4)
    assert str(failure) == \
        "repetition q=4: FAIL, colour 2 clique on base lengths [2, 3, 4]"


def test_compound_of_valid_template_passes():
    """The construction theorem on every small case: a template passing
    `validate_template` and a prototype B below its own bounds give a
    compound below the template's non-template bounds and B's bounds.
    Templates: every tf template of order 4-6 in three colours under
    bounds 3-4; prototypes: every 2-colour linear one of order 2-6 at its
    clique numbers + 1, and the rainbow ones of order 2-6."""
    protos = [(_rainbow(n), (3,) * (n - 1)) for n in range(2, 7)]
    for n in range(2, 7):
        for colours in product((1, 2), repeat=n - 1):
            B = LengthColouring("linear", n, 2, colours)
            sizes = ramsey_check(B, (n + 1, n + 1), exact=True).per_colour_max
            protos.append((B, tuple(size + 1 for size in sizes)))
    templates_passed = 0
    for order in range(4, 7):
        for colours in product((1, 2, 3), repeat=order - 2):
            base = LengthColouring("linear", order, 3, colours + (3,))
            if not is_tf_template(base, 3):
                continue
            T = TemplateGraph(base, 3)
            for avoid in product((3, 4), repeat=2):
                if validate_template(base, 3, avoid) is not None:
                    continue
                templates_passed += 1
                for B, bounds in protos:
                    compound = template_compound(T, B)
                    assert ramsey_check(compound, avoid + bounds).passes, \
                        (base, avoid, B)
    assert templates_passed


def test_validate_template_checks_avoid_length_first():
    T = double_to_template(pentagon())
    triangle = LengthColouring("linear", 6, 2, (1, 2, 2, 1, 2))
    for base, s, avoid in ((T.base, 3, (3,)), (T.base, 3, (3, 3, 3, 3)),
                           (triangle, 2, (3, 3))):
        with pytest.raises(ColouringError, match="avoid: expected"):
            validate_template(base, s, avoid)


def test_repetition_check_returns_witnesses():
    T = double_to_template(pentagon())
    report = repetition_check(T, 2, (3, 2))
    assert not report.passes
    tiled = expand_to_explicit(tiled_colouring(T, 2))
    wit = report.witness[1]
    assert len(wit) == 2
    assert all(tiled.colour(a, b) == 2 for a, b in combinations(wit, 2))


def test_template_usable_is_validate_template(monkeypatch):
    calls = []
    real = templates.validate_template

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(templates, "validate_template", spy)
    T = double_to_template(pentagon())
    assert template_usable(T, (3, 3))
    assert not template_usable(T, (3, 2))
    assert len(calls) == 2
