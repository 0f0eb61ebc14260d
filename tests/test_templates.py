import random
from itertools import combinations

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
    double_to_template,
    is_tf_template,
    phi,
    rainbow_colouring,
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
    assert phi(T) == 4
    assert T.base.avoid == (3, 3, 3)


def test_doubling_compact_variant():
    T = double_to_template(pentagon(), compact=True)
    assert T.order == 9
    assert T.template_lengths() == {5, 6, 7, 8}
    assert phi(T) == 4


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


def test_rainbow_colouring():
    r = rainbow_colouring(5)
    assert r.order == 5
    assert r.num_colours == 4
    assert r.colour_of == (1, 2, 3, 4)
    # singleton classes cannot hold a triangle
    assert ramsey_check(r, (3, 3, 3, 3)).passes


def test_template_usable_doubled_pentagon():
    T = double_to_template(pentagon())
    assert template_usable(T, (3, 3), reps=8)


def test_template_usable_doubled_edge():
    T = double_to_template(single_edge())
    assert T.order == 4
    assert phi(T) == 1
    assert template_usable(T, (3,), reps=6)


def test_frozen_search_template_is_valid():
    T = TemplateGraph(TEMPLATE_343, 3)
    assert phi(T) == 7
    assert template_usable(T, (3, 4), reps=6)


def test_validate_template_passes_doubled_pentagon():
    T = double_to_template(pentagon())
    assert validate_template(T.base, 3, (3, 3), reps=8) is None


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
            compound = template_compound(T, rainbow_colouring(n))
            got = ramsey_check(compound, avoid + (3,) * (n - 1)).passes
            assert got == repetition_check(T, n - 1, avoid).passes, \
                (T.base, avoid, n)


def _oracle_first_failure(base, s, avoid, reps):
    """Stage, colour and q of the first failing check, by exhaustive means:
    brute-force triangles, then full branch-and-bound clique numbers."""
    g = expand_to_explicit(base)
    top = base.colour_of[-1] == s
    if not top or max_clique_in_colour(g, s)[0] >= 3:
        return TF, s, None
    T = TemplateGraph(base, s)
    non_template = T.non_template_colours()
    for q in range(1, reps + 1):
        tiled = expand_to_explicit(tiled_colouring(T, q))
        for colour, k in zip(non_template, avoid):
            if max_clique_in_colour(tiled, colour)[0] >= k:
                return REPETITION, colour, q
    return None


@pytest.mark.parametrize("seed", range(4))
def test_validate_template_matches_exhaustive_oracle(seed):
    rng = random.Random(seed)
    for _ in range(25):
        order = rng.randint(5, 9)
        colours = [rng.randint(1, 3) for _ in range(order - 2)]
        colours.append(3 if rng.random() < 0.9 else rng.randint(1, 2))
        base = LengthColouring("linear", order, 3, tuple(colours))
        avoid = (rng.randint(2, 4), rng.randint(3, 4))
        reps = rng.randint(0, 3)
        failure = validate_template(base, 3, avoid, reps)
        want = _oracle_first_failure(base, 3, avoid, reps)
        got = None if failure is None else (
            failure.stage, failure.colour, failure.q)
        assert got == want, (base, avoid, reps)
        if failure is None:
            continue
        # the witness lengths all carry the failing colour in the base
        assert all(base.colour_of[l - 1] == failure.colour
                   for l in failure.lengths)
        if failure.stage == TF and failure.lengths:
            x, y, z = failure.lengths
            assert x + y == z


def test_doubling_schedule_matches_ascending_oracle(monkeypatch):
    """`validate_template` checks only q = 1, 2, 4, ..., reps.  Its verdict
    and stage are the ascending oracle's; so is its failure when the
    oracle's q is checked.  Otherwise the reported q lies between the
    oracle's and reps, and its tiling holds a clique of the reported colour."""
    calls = []
    real = templates.repetition_check

    def spy(T, q, avoid):
        calls.append(q)
        return real(T, q, avoid)

    monkeypatch.setattr(templates, "repetition_check", spy)
    unchecked = set()  # oracle q's that fell between scheduled checks
    for seed in range(4):
        rng = random.Random(seed)
        for _ in range(100):
            order = rng.randint(6, 10)
            colours = [rng.choice((1, 2, 2, 3)) for _ in range(order - 2)]
            colours.append(3 if rng.random() < 0.9 else rng.randint(1, 2))
            base = LengthColouring("linear", order, 3, tuple(colours))
            avoid = (rng.randint(3, 5), rng.randint(4, 6))
            first = _oracle_first_failure(base, 3, avoid, 8)
            for reps in range(9):
                case = (base, avoid, reps)
                schedule = [q for q in (1, 2, 4) if q < reps] + [reps][:reps]
                want = first
                if first and first[2] is not None and first[2] > reps:
                    want = None  # the ascending oracle stops at reps
                calls.clear()
                failure = validate_template(base, 3, avoid, reps)
                assert calls == schedule[:len(calls)], case
                if failure is None:
                    assert want is None and calls == schedule, case
                    continue
                got = (failure.stage, failure.colour, failure.q)
                assert want is not None and got[0] == want[0], case
                if want[2] is None or want[2] in schedule:
                    assert got == want, case
                    continue
                unchecked.add(want[2])
                assert want[2] <= failure.q <= reps, case
                tiled = expand_to_explicit(
                    tiled_colouring(TemplateGraph(base, 3), failure.q))
                assert max_clique_in_colour(tiled, failure.colour)[0] >= \
                    avoid[failure.colour - 1], case
    assert unchecked & {3, 5, 6, 7}, unchecked


def test_validate_template_checks_avoid_length_first():
    T = double_to_template(pentagon())
    triangle = LengthColouring("linear", 6, 2, (1, 2, 2, 1, 2))
    for base, s, avoid in ((T.base, 3, (3,)), (T.base, 3, (3, 3, 3, 3)),
                           (triangle, 2, (3, 3))):
        with pytest.raises(ColouringError, match="avoid: expected"):
            validate_template(base, s, avoid, reps=0)


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
    assert template_usable(T, (3, 3), reps=2)
    assert not template_usable(T, (3, 2), reps=2)
    assert len(calls) == 2
