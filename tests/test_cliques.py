import random
from itertools import combinations
from math import gcd

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
    CYCLIC,
    ExplicitColouring,
    LengthColouring,
    expand_to_explicit,
    length_colours,
    multipliers,
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


# -- orbital branching under the multiplier group ------------------------------

def _plain_vertex_zero(adj, stop_at):
    """The vertex-0 search without orbit pruning, kept as the oracle for
    sizes and witnesses: branch-and-bound on 0's neighbourhood, every
    top-level vertex branched on in greedy-colouring order."""
    stop = None if stop_at is None else stop_at - 1
    best_size, best = 0, ()

    def expand(r, cand):
        nonlocal best_size, best
        if stop is not None and best_size >= stop:
            return
        for v, bound in reversed(cliques._greedy_colour_order(adj, cand)):
            if len(r) + bound <= best_size:
                return
            r.append(v)
            sub = cand & adj[v]
            if sub:
                expand(r, sub)
            elif len(r) > best_size:
                best_size, best = len(r), tuple(sorted(r))
            r.pop()
            cand &= ~(1 << v)
            if stop is not None and best_size >= stop:
                return

    expand([], adj[0])
    return best_size + 1, (0,) + best


def _units(m):
    return [a for a in range(1, m) if gcd(a, m) == 1]


def _subgroup(m, gens):
    """The subgroup of Z_m^* generated by -1 and `gens`."""
    group, frontier = {1}, [1]
    while frontier:
        x = frontier.pop()
        for g in (m - 1, *gens):
            y = x * g % m
            if y not in group:
                group.add(y)
                frontier.append(y)
    return group


def _coset_colouring(rng, m, r, group):
    """A random cyclic colouring constant on each orbit {h*l : h in group}
    of the nonzero residues; -1 in group makes it reflection-symmetric."""
    colour = {}
    for l in range(1, m):
        if l not in colour:
            s = rng.randint(1, r)
            for h in group:
                colour[h * l % m] = s
    return LengthColouring(CYCLIC, m, r,
                           tuple(colour[l] for l in range(1, m // 2 + 1)))


def _random_cyclic(rng, m, r):
    """A random cyclic colouring of order m; half the time constant on the
    cosets of a random subgroup H of Z_m^* that contains -1."""
    if rng.random() < 0.5:
        return random_colouring(rng, "cyclic", m, r)
    gens = rng.sample(_units(m), min(rng.randint(0, 2), len(_units(m))))
    return _coset_colouring(rng, m, r, _subgroup(m, gens))


def _brute_multipliers(c):
    m = c.order
    return [a for a in _units(m)
            if all(c.colour(a * l % m) == c.colour(l) for l in range(1, m))]


def _cubic_residues(p):
    """The 3-colouring of Z_p by the cosets of the cubic residues."""
    cubes = {pow(x, 3, p) for x in range(1, p)}
    g = next(a for a in range(2, p) if a not in cubes)
    colour = {}
    for x in cubes:
        for s in range(3):
            colour[x * pow(g, s, p) % p] = s + 1
    return LengthColouring(CYCLIC, p, 3,
                           tuple(colour[l] for l in range(1, p // 2 + 1)))


def test_multipliers_match_brute_force():
    rng = random.Random(61)
    for m in range(2, 61):
        for _ in range(3):
            c = _random_cyclic(rng, m, rng.randint(1, 3))
            units = multipliers(c)
            assert units.tolist() == _brute_multipliers(c)
            assert {1, m - 1} <= set(units.tolist())
    # a planted subgroup is always found, and Paley's is the residues
    c = _coset_colouring(rng, 91, 2, _subgroup(91, [3]))
    assert _subgroup(91, [3]) <= set(multipliers(c).tolist())
    residues = sorted({x * x % 13 for x in range(1, 13)})
    assert multipliers(paley_colouring(13)).tolist() == residues
    with pytest.raises(colouring.ColouringError):
        multipliers(random_colouring(rng, "linear", 9, 2))


@pytest.mark.parametrize("seed", range(4))
def test_orbit_pruned_check_matches_plain_vertex_zero(seed):
    """Every colour of random cyclic colourings, plain and with planted
    coset symmetry, prime and composite orders, exact and early-stop: the
    orbit-pruned check gives the plain vertex-0 search's sizes and
    witnesses, and the full search's (and brute force's) clique numbers."""
    rng = random.Random(700 + seed)
    for _ in range(30):
        m = rng.choice((rng.randint(2, 16), rng.randint(17, 70),
                        rng.choice((45, 63, 65, 77, 85, 91))))
        c = _random_cyclic(rng, m, rng.randint(1, 3))
        g = expand_to_explicit(c)
        full = [max_clique_in_colour(g, s)[0]
                for s in range(1, c.num_colours + 1)]
        if m <= BRUTE_ORDER_CAP:
            assert full == [max_clique_brute(g, s)
                            for s in range(1, c.num_colours + 1)]
        avoid = tuple(rng.randint(2, 7) for _ in full)
        for exact in (True, False):
            report = ramsey_check(c, avoid, exact=exact)
            for s, k in enumerate(avoid, start=1):
                stop = None if exact else k
                plain = _plain_vertex_zero(_length_bitrows(c, s), stop)
                got = (report.per_colour_max[s - 1], report.witness[s - 1])
                assert got == plain
                assert is_clique(g, s, got[1])
                if exact:
                    assert got[0] == full[s - 1]
                else:
                    assert min(got[0], k) == min(full[s - 1], k)


def test_orbit_mates_stay_candidates_of_later_branches():
    """A skipped orbit-mate leaves the candidates only when its turn comes.
    Dropping the whole orbit at once would be sound for sizes, but it
    changes the greedy colouring of later branches: here the colour-2
    witness would become (0, 10, 12, 14, 16, 26, 28, 30, 32, 42, 44, 46)."""
    c = LengthColouring(CYCLIC, 48, 2, (2, 2, 2, 2, 2, 2, 2, 1, 1, 2, 1, 2,
                                        1, 2, 1, 2, 2, 2, 1, 2, 2, 2, 2, 1))
    report = ramsey_check(c, (49, 49), exact=True)
    plain = _plain_vertex_zero(_length_bitrows(c, 2), None)
    assert (report.per_colour_max[1], report.witness[1]) == plain
    assert plain == (12, (0, 6, 10, 12, 16, 22, 26, 28, 32, 38, 42, 44))


@pytest.mark.parametrize("m, gens, seed", [
    (12, [], 1), (15, [4], 0), (45, [19], 0), (40, [19], 0),
    (60, [7, 11], 6), (48, [5], 1)])
def test_multiplier_orbits_match_set_oracle(m, gens, seed):
    """Each orbit mask has exactly the bits {a*v mod m : a in M}, also for
    the non-units v, which several multipliers send to one residue.  The
    seeds give colourings whose multipliers are exactly the planted group."""
    c = _coset_colouring(random.Random(seed), m, 2, _subgroup(m, gens))
    units = multipliers(c).tolist()
    assert set(units) == _subgroup(m, gens)
    orbit = cliques._multiplier_orbits(c, length_colours(c))
    for v in range(m):
        mask = orbit(v)
        assert {x for x in range(m) if mask >> x & 1} == \
            {a * v % m for a in units}
    if m % 2 == 0:
        assert orbit(m // 2) == 1 << m // 2
    if m == 15:
        assert orbit(3) == 1 << 3 | 1 << 12


@pytest.mark.parametrize("m, colour_of, sizes", [
    (40, (3, 2, 1, 1, 2, 2, 2, 1, 2, 2, 2, 1, 2, 2, 2, 2, 1, 1, 3, 2),
     (4, 8, 2)),
    (60, (2, 3, 3, 2, 3, 3, 2, 2, 3, 2, 2, 1, 2, 3, 1, 2, 2, 3, 2, 3, 3, 3,
          2, 1, 3, 3, 3, 2, 2, 3), (5, 3, 6)),
])
def test_orbits_of_non_units_keep_the_clique_number(m, colour_of, sizes):
    """Composite orders where the largest clique of some colour is found
    only through a non-unit neighbour of 0.  A mask that adds the images of
    such a vertex instead of setting them carries into bits outside its
    orbit, and skipping those loses the clique: colour 2 of the first and
    colour 3 of the second would read one less and pass their bound."""
    c = LengthColouring(CYCLIC, m, 3, colour_of)
    g = expand_to_explicit(c)
    report = ramsey_check(c, sizes, exact=True)
    assert report.per_colour_max == sizes and not report.passes
    for s in range(1, 4):
        assert max_clique_in_colour(g, s)[0] == sizes[s - 1]
        plain = _plain_vertex_zero(_length_bitrows(c, s), None)
        assert (report.per_colour_max[s - 1], report.witness[s - 1]) == plain


def test_paley_401_branches_on_one_neighbour_per_colour(monkeypatch):
    """The residues act transitively on each colour's neighbourhood of 0,
    so after the first branch every other neighbour is skipped; the
    multipliers are computed once and shared by both colours."""
    branched, computed = [], []
    search, units_of = cliques._search, cliques.multipliers

    def traced_search(adj, cand, stop_at, best_size, best, orbit=None):
        def counted(v):
            mask = orbit(v)
            branched.append((v, mask == cand))
            return mask
        return search(adj, cand, stop_at, best_size, best,
                      None if orbit is None else counted)

    def traced_units(*args):
        computed.append(args[0].order)
        return units_of(*args)

    monkeypatch.setattr(cliques, "_search", traced_search)
    monkeypatch.setattr(cliques, "multipliers", traced_units)
    report = ramsey_check(paley_colouring(401), (10, 10), exact=True)
    assert report.per_colour_max == (9, 9)
    assert [whole for _, whole in branched] == [True, True]
    assert computed == [401]


def test_early_stop_on_the_first_branch_computes_no_multipliers(monkeypatch):
    def refuse(*args):
        raise AssertionError("multipliers computed for an early stop")

    monkeypatch.setattr(cliques, "multipliers", refuse)
    report = ramsey_check(paley_colouring(101), (5, 5))
    assert report.per_colour_max == (5, 5) and not report.passes


def test_paper_scale_clique_numbers():
    paley = ramsey_check(paley_colouring(401), (10, 10), exact=True)
    assert paley.per_colour_max == (9, 9)
    assert paley.witness == ((0, 93, 196, 298, 356, 391, 392, 396, 400),
                             (0, 249, 264, 279, 310, 325, 340, 371, 386))
    cubic = ramsey_check(_cubic_residues(1831), (8, 8, 8), exact=True)
    assert cubic.per_colour_max == (7, 7, 7) and cubic.passes
    assert cubic.witness == ((0, 520, 1352, 1773, 1777, 1811, 1827),
                             (0, 214, 454, 1591, 1750, 1753, 1809),
                             (0, 164, 1218, 1335, 1668, 1752, 1785))
