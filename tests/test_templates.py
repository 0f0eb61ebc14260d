import random
from itertools import combinations

import pytest

from ramseykit import templates
from ramseykit.cliques import max_clique_in_colour
from ramseykit.colouring import (
    LengthColouring,
    expand_to_explicit,
    pentagon,
    single_edge,
)
from ramseykit.constructions import template_compound
from ramseykit.templates import (
    RAINBOW,
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
    from ramseykit.cliques import ramsey_check
    assert ramsey_check(r, (3, 3, 3, 3)).passes


def test_template_usable_doubled_pentagon():
    T = double_to_template(pentagon())
    assert template_usable(T, (3, 3), reps=8, rainbow_n=6)


def test_template_usable_doubled_edge():
    T = double_to_template(single_edge())
    assert T.order == 4
    assert phi(T) == 1
    assert template_usable(T, (3,), reps=6, rainbow_n=5)


def test_frozen_search_template_is_valid():
    T = TemplateGraph(TEMPLATE_343, 3)
    assert phi(T) == 7
    assert template_usable(T, (3, 4), reps=6, rainbow_n=5)


def test_validate_template_passes_doubled_pentagon():
    T = double_to_template(pentagon())
    assert validate_template(T.base, 3, (3, 3), reps=8, rainbow_n=6) is None


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
    assert failure == TemplateFailure(REPETITION, 2, 1, (2,))
    assert "repetition q=1: FAIL, colour 2" in str(failure)


def test_validate_template_rainbow_failure():
    T = double_to_template(pentagon())
    failure = validate_template(T.base, 3, (3, 2), reps=0, rainbow_n=2)
    assert failure == TemplateFailure(RAINBOW, 2)
    assert validate_template(T.base, 3, (3, 2), reps=0, rainbow_n=1) is None


def _oracle_first_failure(base, s, avoid, reps, rainbow_n):
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
    if rainbow_n >= 2:
        compound = expand_to_explicit(
            template_compound(T, rainbow_colouring(rainbow_n)))
        bounds = tuple(avoid) + (3,) * (rainbow_n - 1)
        for colour, k in enumerate(bounds, start=1):
            if max_clique_in_colour(compound, colour)[0] >= k:
                return RAINBOW, colour, None
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
        reps, rainbow_n = rng.randint(0, 3), rng.randint(1, 4)
        failure = validate_template(base, 3, avoid, reps, rainbow_n)
        want = _oracle_first_failure(base, 3, avoid, reps, rainbow_n)
        got = None if failure is None else (
            failure.stage, failure.colour, failure.q)
        assert got == want, (base, avoid, reps, rainbow_n)
        if failure is None or failure.stage == RAINBOW:
            continue
        # the witness lengths all carry the failing colour in the base
        assert all(base.colour_of[l - 1] == failure.colour
                   for l in failure.lengths)
        if failure.stage == TF and failure.lengths:
            x, y, z = failure.lengths
            assert x + y == z


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
    assert template_usable(T, (3, 3), reps=2, rainbow_n=3)
    assert not template_usable(T, (3, 2), reps=2, rainbow_n=3)
    assert len(calls) == 2
