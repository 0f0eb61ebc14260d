import random
from itertools import combinations

import pytest

import numpy as np

from ramseykit import cliques, colouring
from ramseykit.cliques import (
    BRUTE_ORDER_CAP,
    OracleCapError,
    _colour_bitrows,
    _length_bitrows,
    colour_degree,
    is_clique,
    max_clique_brute,
    max_clique_in_colour,
    neighbourhood_restrict,
    ramsey_check,
)
from ramseykit.colouring import (
    ExplicitColouring,
    expand_to_explicit,
    pentagon,
    preserves_colours,
    translation,
    translation_transitive,
)
from ramseykit.constructions import paley_colouring, song_product

from conftest import random_colouring


def test_pentagon_clique_numbers():
    g = expand_to_explicit(pentagon())
    for s in (1, 2):
        size, wit = max_clique_in_colour(g, s)
        assert size == 2
        assert is_clique(g, s, wit)
        assert max_clique_brute(g, s) == 2


def test_ramsey_check_pass_and_fail():
    report = ramsey_check(pentagon(), (3, 3))
    assert report.passes
    report = ramsey_check(pentagon(), (2, 3))
    assert not report.passes


def test_witnesses_are_real_cliques():
    rng = random.Random(11)
    for _ in range(40):
        c = random_colouring(rng, rng.choice(["linear", "cyclic"]),
                             rng.randint(4, 10), rng.randint(2, 3))
        g = expand_to_explicit(c)
        report = ramsey_check(c, (2,) * c.num_colours, exact=True)
        for s in range(1, c.num_colours + 1):
            wit = report.witness[s - 1]
            assert wit is not None
            assert len(wit) == report.per_colour_max[s - 1]
            assert is_clique(g, s, wit)


def test_branch_and_bound_matches_brute_force():
    # smaller companion of the main oracle-equivalence run
    rng = random.Random(23)
    for _ in range(60):
        c = random_colouring(rng, rng.choice(["linear", "cyclic"]),
                             rng.randint(4, 10), rng.randint(1, 3))
        g = expand_to_explicit(c)
        for s in range(1, c.num_colours + 1):
            size, _ = max_clique_in_colour(g, s)
            assert size == max_clique_brute(g, s)


def test_stop_at_early_exit_is_sound():
    g = expand_to_explicit(random_colouring(random.Random(3), "linear", 12, 2))
    full, _ = max_clique_in_colour(g, 1)
    capped, wit = max_clique_in_colour(g, 1, stop_at=2)
    assert capped >= min(full, 2)
    assert is_clique(g, 1, wit)


def test_brute_force_order_cap():
    g = expand_to_explicit(random_colouring(random.Random(5), "cyclic", 18, 2))
    with pytest.raises(OracleCapError):
        max_clique_brute(g, 1)
    assert max_clique_brute(g, 1, order_cap=18) >= 2


def test_colour_degree_constant_on_cyclic():
    rng = random.Random(17)
    for _ in range(20):
        c = random_colouring(rng, "cyclic", rng.randint(4, 12), rng.randint(1, 3))
        g = expand_to_explicit(c)
        for s in range(1, c.num_colours + 1):
            degs = {colour_degree(g, v, s) for v in range(g.order)}
            assert len(degs) == 1  # vertex-transitive layout


def test_neighbourhood_restrict_shape():
    c = pentagon()
    g = expand_to_explicit(c)
    h = neighbourhood_restrict(g, 0, 1)
    assert h.order == colour_degree(g, 0, 1) == 2
    # neighbours of 0 in colour 1 are vertices 1 and 4, joined by colour 2
    assert h.edge_colour[0][1] == 2


def test_neighbourhood_theorem_random():
    # in a colouring with no K_k in colour s, the s-neighbourhood of any
    # vertex has no K_{k-1} in colour s
    rng = random.Random(29)
    done = 0
    while done < 25:
        c = random_colouring(rng, "linear", rng.randint(5, 10), 2)
        g = expand_to_explicit(c)
        sizes = [max_clique_brute(g, s) for s in (1, 2)]
        avoid = [k + 1 for k in sizes]
        s = rng.randint(1, 2)
        v = rng.randrange(g.order)
        if colour_degree(g, v, s) == 0:
            continue
        h = neighbourhood_restrict(g, v, s)
        dec = list(avoid)
        dec[s - 1] -= 1
        assert ramsey_check(h, dec).passes
        done += 1


@pytest.mark.parametrize("seed", range(4))
def test_vertex_zero_path_matches_full_search(seed):
    """Length colourings are searched through vertex 0; the full search over
    the expanded matrix, and brute force at small orders, are the oracles."""
    rng = random.Random(seed)
    for _ in range(40):
        c = random_colouring(rng, rng.choice(["linear", "cyclic"]),
                             rng.randint(2, 60), rng.randint(1, 3))
        g = expand_to_explicit(c)
        avoid = tuple(rng.randint(2, 7) for _ in range(c.num_colours))
        exact = rng.random() < 0.5
        report = ramsey_check(c, avoid, exact=exact)
        full = [max_clique_in_colour(g, s)[0]
                for s in range(1, c.num_colours + 1)]
        if c.order <= BRUTE_ORDER_CAP:
            assert full == [max_clique_brute(g, s)
                            for s in range(1, c.num_colours + 1)]
        for s, k in enumerate(avoid, start=1):
            size, wit = report.per_colour_max[s - 1], report.witness[s - 1]
            if exact:
                assert size == full[s - 1]
            else:
                # an early stop may report any clique of at least the bound
                stopped = max_clique_in_colour(g, s, stop_at=k)[0]
                assert min(size, k) == min(stopped, k) == min(full[s - 1], k)
                assert size <= full[s - 1]
            assert len(wit) == size and wit[0] == 0
            assert is_clique(g, s, wit)
        assert report.passes == all(n < k for n, k in zip(full, avoid))
        assert report.passes == ramsey_check(g, avoid).passes


def test_length_bitrows_equal_expanded_rows():
    rng = random.Random(41)
    for _ in range(30):
        c = random_colouring(rng, rng.choice(["linear", "cyclic"]),
                             rng.randint(2, 40), rng.randint(1, 3))
        g = expand_to_explicit(c)
        for s in range(1, c.num_colours + 1):
            assert _length_bitrows(c, s) == _colour_bitrows(g, s)


def test_explicit_bitrows_match_entrywise_reference():
    rng = np.random.default_rng(43)
    for order in (1, 2, 7, 8, 9, 33):
        upper = np.triu(rng.integers(1, 4, size=(order, order)), 1)
        g = ExplicitColouring(order, 3, upper + upper.T)
        for s in (1, 2, 3):
            want = [sum(1 << j for j in range(order)
                        if j != i and g.edge_colour[i, j] == s)
                    for i in range(order)]
            assert _colour_bitrows(g, s) == want


def test_length_colouring_is_never_expanded(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("length colouring took the explicit path")

    for name in ("max_clique_in_colour", "_colour_bitrows"):
        monkeypatch.setattr(cliques, name, refuse)
    monkeypatch.setattr(colouring, "expand_to_explicit", refuse)
    report = ramsey_check(paley_colouring(197), (9, 9), exact=True)
    assert report.per_colour_max == (8, 8) and report.passes
    linear = random_colouring(random.Random(7), "linear", 30, 2)
    assert ramsey_check(linear, (30, 30), exact=True).passes


def _grid(rng, factors, num_colours):
    """Grid product of random cyclic factors of the given orders."""
    g = None
    for order in factors:
        h = expand_to_explicit(random_colouring(rng, "cyclic", order,
                                                num_colours))
        g = h if g is None else song_product(g, h)
    return g


def _transitive_cases(rng):
    """Circulants, grid products and iterated grid products."""
    for _ in range(12):
        r = rng.randint(1, 3)
        yield expand_to_explicit(
            random_colouring(rng, "cyclic", rng.randint(2, 40), r))
        yield _grid(rng, [rng.randint(2, 9) for _ in range(2)], r)
        yield _grid(rng, [rng.randint(2, 4) for _ in range(3)], r)


def _relabelled(rng, g):
    perm = list(range(g.order))
    rng.shuffle(perm)
    return ExplicitColouring(g.order, g.num_colours,
                             g.edge_colour[np.ix_(perm, perm)])


@pytest.mark.parametrize("seed", range(3))
def test_transitive_explicit_path_matches_full_search(seed, monkeypatch):
    """Circulant and grid-product matrices are searched through vertex 0;
    the same matrices under a shuffled numbering fall back to the full
    search.  Either way each colour, exact and early-stop, agrees with the
    full search, and with brute force at small orders."""
    rng = random.Random(100 + seed)
    full_searches = []
    oracle = max_clique_in_colour

    def counted(g, s, stop_at=None):
        full_searches.append(g.order)
        return oracle(g, s, stop_at)

    monkeypatch.setattr(cliques, "max_clique_in_colour", counted)
    for g in _transitive_cases(rng):
        relabelled = _relabelled(rng, g)
        # at these seeds every shuffled matrix of order 12 or more with two
        # colours in use has lost its transitive translations
        mixed = g.order >= 12 and len(np.unique(g.edge_colour)) > 2
        assert translation_transitive(g)
        assert not mixed or not translation_transitive(relabelled)
        for h in (g, relabelled):
            vertex_zero = translation_transitive(h)
            full = [oracle(h, s)[0] for s in range(1, h.num_colours + 1)]
            if h.order <= BRUTE_ORDER_CAP:
                assert full == [max_clique_brute(h, s)
                                for s in range(1, h.num_colours + 1)]
            avoid = tuple(rng.randint(2, 7) for _ in full)
            for exact in (True, False):
                full_searches.clear()
                report = ramsey_check(h, avoid, exact=exact)
                assert len(full_searches) == (0 if vertex_zero
                                              else h.num_colours)
                for s, k in enumerate(avoid, start=1):
                    size, wit = (report.per_colour_max[s - 1],
                                 report.witness[s - 1])
                    if exact:
                        assert size == full[s - 1]
                    else:
                        assert min(size, k) == min(full[s - 1], k)
                        assert size <= full[s - 1]
                    assert len(wit) == size and is_clique(h, s, wit)
                    assert wit[0] == 0 or not vertex_zero
                assert report.passes == all(n < k for n, k in
                                            zip(full, avoid))


def test_translations_and_transitivity():
    assert list(translation(6, 3, 1)) == [1, 2, 0, 4, 5, 3]
    assert list(translation(6, 6, 2)) == [2, 3, 4, 5, 0, 1]
    g = expand_to_explicit(paley_colouring(13))
    assert preserves_colours(g, translation(13, 13, 1))
    # 3 is a residue mod 13, so multiplying by it is an automorphism, but
    # not a translation; 2 is not, and moves colours
    times = lambda a: np.arange(13) * a % 13
    assert preserves_colours(g, times(3))
    assert not preserves_colours(g, times(2))
    assert translation_transitive(g)
    # order 0 keeps the full search; order 1 is trivially transitive
    assert not translation_transitive(ExplicitColouring(0, 1, np.zeros((0, 0))))
    assert translation_transitive(ExplicitColouring(1, 1, np.zeros((1, 1))))


def test_partial_orbit_falls_back_to_full_search():
    """Even-even and even-odd edges take colour 1, odd-odd edges colour 2.
    The shift by 2 keeps the colours, but 0's orbit is only the even
    vertices, and no colour-2 clique goes through 0."""
    ids = np.arange(6)
    odd = ids % 2 == 1
    mat = np.where(odd[:, None] & odd[None, :], 2, 1)
    np.fill_diagonal(mat, 0)
    g = ExplicitColouring(6, 2, mat)
    assert preserves_colours(g, translation(6, 6, 2))
    assert not translation_transitive(g)
    report = ramsey_check(g, (5, 5), exact=True)
    assert report.per_colour_max == (4, 3)
    assert report.witness[1] == (1, 3, 5)
