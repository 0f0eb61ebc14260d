import random
from itertools import combinations, product
from math import gcd, prod

import pytest

import numpy as np

from ramseykit import cliques, colouring
from ramseykit.cliques import (
    _colour_bitrows,
    _length_bitrows,
    is_clique,
    max_clique_in_colour,
    ramsey_check,
)
from ramseykit.colouring import (
    CYCLIC,
    ExplicitColouring,
    LengthColouring,
    cayley_table,
    expand_to_explicit,
    length_colours,
    multipliers,
    pentagon,
    preserves_colours,
    translation,
)
from ramseykit.constructions import paley_colouring, song_product

from conftest import (
    BRUTE_ORDER_CAP,
    OracleCapError,
    colour_degree,
    max_clique_brute,
    neighbourhood_restrict,
    random_colouring,
    translation_transitive,
)


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
    assert translation_transitive(g) and cayley_table(g).shape == (13,)
    # order 0 keeps the full search; order 1 is trivially transitive
    empty = ExplicitColouring(0, 1, np.zeros((0, 0)))
    assert not translation_transitive(empty) and cayley_table(empty) is None
    point = ExplicitColouring(1, 1, np.zeros((1, 1)))
    assert translation_transitive(point) and cayley_table(point).shape == (1,)
    assert ramsey_check(point, (2,), exact=True).witness == ((0,),)


def test_partial_orbit_falls_back_to_full_search():
    """Even-even and even-odd edges take colour 1, odd-odd edges colour 2.
    The shift by 2 keeps the colours, but 0's orbit is only the even
    vertices, and no colour-2 clique goes through 0."""
    g = _even_odd_colouring()
    assert preserves_colours(g, translation(6, 6, 2))
    assert cayley_table(g) is None and not translation_transitive(g)
    report = ramsey_check(g, (5, 5), exact=True)
    assert report.per_colour_max == (4, 3)
    assert report.witness[1] == (1, 3, 5)


@pytest.mark.parametrize("kind", ["cyclic", "linear", "cayley",
                                  "not-cayley"])
def test_lone_vertex_is_the_clique_on_every_path(kind):
    """Bound 1 stops each colour before it branches, and colour 3 has no
    edge.  On each of ramsey_check's three paths both give size 1 and the
    witness (0,), the clique every search starts from."""
    cyclic = LengthColouring(CYCLIC, 6, 3, (1, 2, 1))
    c = {"cyclic": cyclic,
         "linear": LengthColouring("linear", 6, 3, (1, 2, 1, 2, 1)),
         "cayley": expand_to_explicit(cyclic),
         "not-cayley": ExplicitColouring(
             6, 3, _even_odd_colouring().edge_colour)}[kind]
    if isinstance(c, ExplicitColouring):
        assert (cayley_table(c) is None) == (kind == "not-cayley")
    early = ramsey_check(c, (1, 1, 1))
    assert early.per_colour_max == (1, 1, 1)
    assert early.witness == ((0,),) * 3
    assert early.exact == (False,) * 3 and not early.passes
    exact = ramsey_check(c, (7, 7, 7), exact=True)
    assert exact.per_colour_max[2] == 1 and exact.witness[2] == (0,)
    assert exact.passes and exact.exact == (True,) * 3


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
    orbit = cliques._multiplier_orbits(c, cayley_table(c))
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

    def traced_search(adj, r, cand, stop_at, orbit=None):
        def counted(v):
            mask = orbit(v)
            branched.append((v, mask == cand))
            return mask
        return search(adj, r, cand, stop_at,
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


def test_reflections_only_is_exact_when_it_says_so(monkeypatch):
    """True only for colourings whose multipliers are +-1, on random and
    planted-symmetry cyclic colourings of prime and composite orders; and
    a check it clears computes no multipliers and skips no vertex."""
    rng = random.Random(83)
    said = {True: 0, False: 0}
    for _ in range(400):
        m = rng.choice((rng.randint(2, 40), rng.randint(41, 130)))
        c = _random_cyclic(rng, m, rng.randint(1, 3))
        only = cliques._reflections_only(c, length_colours(c))
        if only:
            assert set(_brute_multipliers(c)) <= {1, m - 1}
        said[only] += 1
    assert min(said.values()) > 100
    assert not cliques._reflections_only(paley_colouring(101),
                                         length_colours(paley_colouring(101)))

    def refuse(*args):
        raise AssertionError("orbits built for a colouring with M = {1, -1}")

    c = random_colouring(random.Random(5), "cyclic", 89, 2)
    assert cliques._reflections_only(c, length_colours(c))
    monkeypatch.setattr(cliques, "_multiplier_orbits", refuse)
    report = ramsey_check(c, (89, 89), exact=True)
    for s in (1, 2):
        plain = _plain_vertex_zero(_length_bitrows(c, s), None)
        assert (report.per_colour_max[s - 1], report.witness[s - 1]) == plain


# -- explicit colourings under their multiplier tuples -------------------------

def _digits(x, shape):
    """Vertex x as its digit tuple in the mixed radix `shape`."""
    out = []
    for f in reversed(shape):
        x, d = divmod(x, f)
        out.append(d)
    return tuple(reversed(out))


def _index(digits, shape):
    """The vertex of a digit tuple, each digit taken mod its factor."""
    x = 0
    for d, f in zip(digits, shape):
        x = x * f + d % f
    return x


def _vertex_map(shape, a):
    """The map x -> a*x, digit by digit, on the vertices of
    Z_{f_1} x ... x Z_{f_k} numbered in mixed radix."""
    return np.array([_index([b * d for b, d in zip(a, _digits(x, shape))],
                            shape) for x in range(prod(shape))])


def _brute_pairs(table):
    """Every unit tuple whose map keeps the colour of each vertex's edge to
    0, as its vertex index, by trying each tuple on every vertex."""
    shape = table.shape
    flat = table.ravel()
    return [_index(a, shape) for a in product(*map(_units, shape))
            if (flat[_vertex_map(shape, a)] == flat).all()]


def _planted_cayley(rng, shape, r, gens):
    """A random r-colouring of Z_{f_1} x ... x Z_{f_k}, `shape` being the
    f_j, constant on each orbit of the nonzero vertices under the tuples
    generated by (-1, ..., -1) and `gens`."""
    one = (1,) * len(shape)
    group, frontier = {one}, [one]
    while frontier:
        a = frontier.pop()
        for g in (tuple(f - 1 for f in shape), *gens):
            t = tuple(x * y % f for x, y, f in zip(a, g, shape))
            if t not in group:
                group.add(t)
                frontier.append(t)
    maps = [_vertex_map(shape, a) for a in group]
    table = np.zeros(prod(shape), dtype=np.int32)
    for x in range(1, table.size):
        if not table[x]:
            s = rng.randint(1, r)
            for perm in maps:
                table[perm[x]] = s
    return _cayley_colouring(table.reshape(shape), r)


def _cayley_colouring(table, r):
    """The colouring whose edge {x, y} takes the colour table[y - x], the
    difference taken digit by digit; table[-x] = table[x] keeps it
    symmetric."""
    shape, flat = table.shape, table.ravel()
    digits = [_digits(x, shape) for x in range(flat.size)]
    return ExplicitColouring(flat.size, r, np.array(
        [[flat[_index([b - a for a, b in zip(dx, dy)], shape)]
          for dy in digits] for dx in digits]))


def _planted_unit(rng, m):
    return rng.choice([a for a in range(1, m) if gcd(a, m) == 1])


def _explicit_cayley_cases(rng):
    """Grid products of planted-coset cyclic factors, planted Cayley
    colourings, and circulants, over two and three factors of prime and
    composite orders; then GF(16), which is Z_2^4."""
    from test_acceptance import _greenwood_gleason_colouring

    for shape in ((9, 4), (5, 3), (4, 4), (7, 6), (3, 5), (6, 6), (2, 9),
                  (5, 8), (3, 4, 5), (2, 3, 3), (4, 2, 5)):
        r = rng.randint(1, 3)
        grid = None
        for m in shape:
            h = expand_to_explicit(_coset_colouring(
                rng, m, r, _subgroup(m, rng.sample(_units(m), 1))))
            grid = h if grid is None else song_product(grid, h)
        yield grid
        gens = [tuple(_planted_unit(rng, m) for m in shape)]
        yield _planted_cayley(rng, shape, r, gens)
        yield expand_to_explicit(_random_cyclic(rng, prod(shape), r))
    yield _greenwood_gleason_colouring()


@pytest.mark.parametrize("seed", range(3))
def test_explicit_orbit_check_matches_plain_vertex_zero(seed):
    """Explicit Cayley colourings of one to four cyclic factors, exact and
    early-stop: the orbit-pruned check gives the plain vertex-0 search's
    sizes and witnesses, and the full search's (and brute force's) clique
    numbers.  The table is row 0 reshaped, and every edge takes the colour
    of its digit-wise difference."""
    rng = random.Random(900 + seed)
    for g in _explicit_cayley_cases(rng):
        table = cayley_table(g)
        assert np.array_equal(table.ravel(), g.edge_colour[0])
        assert _cayley_colouring(table, g.num_colours) == g
        colours = range(1, g.num_colours + 1)
        full = [max_clique_in_colour(g, s)[0] for s in colours]
        if g.order <= BRUTE_ORDER_CAP:
            assert full == [max_clique_brute(g, s) for s in colours]
        avoid = tuple(rng.randint(2, 7) for _ in full)
        for exact in (True, False):
            report = ramsey_check(g, avoid, exact=exact)
            for s, k in enumerate(avoid, start=1):
                stop = None if exact else k
                plain = _plain_vertex_zero(_colour_bitrows(g, s), stop)
                got = (report.per_colour_max[s - 1], report.witness[s - 1])
                assert got == plain
                assert is_clique(g, s, got[1])
                if exact:
                    assert got[0] == full[s - 1]
                else:
                    assert min(got[0], k) == min(full[s - 1], k)


@pytest.mark.parametrize("seed", range(2))
def test_multiplier_pairs_match_brute_force(seed):
    """multipliers gives exactly the tuples that keep every colour, each
    tuple's vertex map keeps the whole matrix, and every orbit mask, of
    unit and non-unit vertices alike, holds exactly the images of its
    vertex.  A circulant's tuples are its cyclic form's multipliers."""
    rng = random.Random(950 + seed)
    shapes = set()  # one to four factors, GF(16) being (2, 2, 2, 2)
    for g in _explicit_cayley_cases(rng):
        table = cayley_table(g)
        shape = table.shape
        shapes.add(shape)
        pairs = multipliers(g).tolist()
        assert pairs == _brute_pairs(table)
        assert pairs == multipliers(g, table).tolist()
        maps = [_vertex_map(shape, _digits(x, shape)) for x in pairs]
        assert all(preserves_colours(g, perm) for perm in maps)
        orbit = cliques._multiplier_orbits(g, table)
        for x in range(g.order):
            mask = orbit(x)
            assert {y for y in range(g.order) if mask >> y & 1} == \
                {int(perm[x]) for perm in maps}
        if len(shape) == 1:
            c = LengthColouring(CYCLIC, g.order, g.num_colours,
                                tuple(table[1:g.order // 2 + 1].tolist()))
            assert expand_to_explicit(c) == g
            assert pairs == multipliers(c).tolist()
    assert {len(shape) for shape in shapes} == {1, 2, 3, 4}
    # Z_2 x Z_13: row 0 is Paley 13's, kept by the six residues, and so
    # is vertex (1, 1)'s colour, but row 1 only by +-1: 3*2 = 6 moves its
    # colour.  (1, v) and (1, -v) both lie above vertex 13, so the
    # vertices checked are one of each pair {x, -x}, not 1..13
    table = np.zeros((2, 13), dtype=np.int32)
    table[0, 1:] = length_colours(paley_colouring(13))
    table[1] = 1
    table[1, [5, 6, 7, 8]] = 2
    g = _cayley_colouring(table, 2)
    assert np.array_equal(cayley_table(g), table)
    assert multipliers(g).tolist() == _brute_pairs(table) == [14, 25]
    # Z_9 x Z_4: (3, 2) has no unit coordinate, and (-1, -1) fixes
    # (0, 2), whose orbit is that vertex alone
    g = _planted_cayley(random.Random(1), (9, 4), 2, [(2, 1)])
    assert cayley_table(g).shape == (9, 4)
    orbit = cliques._multiplier_orbits(g, cayley_table(g))
    assert orbit(2) == 1 << 2
    assert orbit(3 * 4 + 2) == 1 << 3 * 4 + 2 | 1 << 6 * 4 + 2


def _even_odd_colouring():
    """Order 6: even-even and even-odd edges take colour 1, odd-odd edges
    colour 2."""
    odd = np.arange(6) % 2 == 1
    mat = np.where(odd[:, None] & odd[None, :], 2, 1)
    np.fill_diagonal(mat, 0)
    return ExplicitColouring(6, 2, mat)


@pytest.mark.parametrize("seed", range(2))
def test_cayley_table_is_found_exactly_when_translations_are_transitive(
        seed):
    """`cayley_table` tries one divisor chain of digit shifts at a time;
    the oracle closes 0's orbit under every translation that keeps the
    colours.  On circulants, two- and three-factor grids, planted Cayley
    colourings, GF(16), their shuffled numberings, the partial orbit and
    orders 0 and 1, a table is found exactly when the oracle says
    transitive."""
    rng = random.Random(1300 + seed)
    cases = [*_transitive_cases(rng), *_explicit_cayley_cases(rng)]
    cases += [_relabelled(rng, g) for g in cases]
    cases += [_even_odd_colouring(), ExplicitColouring(0, 1, np.zeros((0, 0))),
              ExplicitColouring(1, 1, np.zeros((1, 1)))]
    said = {True: 0, False: 0}
    for g in cases:
        found = cayley_table(g) is not None
        assert found == translation_transitive(g)
        said[found] += 1
    assert min(said.values()) > 40


def test_colourings_without_a_two_factor_form_get_no_orbit(monkeypatch):
    """A grid product under a shuffled numbering has no Cayley table and no
    transitive translations: it builds no orbit and gets the full search,
    with the full search's clique numbers."""
    def refuse(*args):
        raise AssertionError("orbits built without a Cayley table")

    rng = random.Random(31)
    grid = _grid(rng, [4, 5], 2)
    g = _relabelled(rng, grid)
    monkeypatch.setattr(cliques, "_multiplier_orbits", refuse)
    assert cayley_table(g) is None and not translation_transitive(g)
    with pytest.raises(colouring.ColouringError):
        multipliers(g)
    report = ramsey_check(g, (g.order,) * g.num_colours, exact=True)
    assert report.per_colour_max == tuple(
        max_clique_in_colour(g, s)[0] for s in range(1, g.num_colours + 1))
    assert report.witness[0][0] != 0
    assert cayley_table(grid).shape == (4, 5)


def _song_p29_c5():
    return song_product(expand_to_explicit(paley_colouring(29)),
                        expand_to_explicit(pentagon()))


def test_paley_29_grid_branches_under_its_pairs(monkeypatch):
    """Paley 29 x C5 has the 28 pairs (quadratic residue, +-1), computed
    once for both colours; they cut its exact check from 3,469 nodes to
    413, with the plain vertex-0 search's witnesses."""
    g = _song_p29_c5()
    residues = {x * x % 29 for x in range(1, 29)}
    pairs = [divmod(x, 5) for x in multipliers(g).tolist()]
    assert sorted(pairs) == sorted((a, b) for a in residues for b in (1, 4))
    nodes, computed = [0], []
    greedy, units_of = cliques._greedy_colour_order, cliques.multipliers

    def counted(adj, cand):
        nodes[0] += 1
        return greedy(adj, cand)

    def traced_units(*args):
        computed.append(args[0].order)
        return units_of(*args)

    monkeypatch.setattr(cliques, "_greedy_colour_order", counted)
    monkeypatch.setattr(cliques, "multipliers", traced_units)
    report = ramsey_check(g, (9, 9), exact=True)
    assert (nodes[0], computed) == (413, [145])
    nodes[0] = 0
    plain = [_plain_vertex_zero(_colour_bitrows(g, s), None) for s in (1, 2)]
    assert nodes[0] == 3469
    assert list(zip(report.per_colour_max, report.witness)) == plain
    assert report.per_colour_max == (8, 8) and report.passes


def test_three_factor_grid_branches_under_its_tuples(monkeypatch):
    """C5 x C5 x Paley 13 (order 325) is found as Z_5 x Z_5 x Z_13, with
    the 24 tuples (+-1, +-1, quadratic residue); they cut its exact check
    from 309,831 nodes to 42,228, with the plain vertex-0 search's sizes
    and witnesses."""
    c5 = expand_to_explicit(pentagon())
    g = song_product(song_product(c5, c5),
                     expand_to_explicit(paley_colouring(13)))
    assert cayley_table(g).shape == (5, 5, 13)
    residues = {x * x % 13 for x in range(1, 13)}
    assert [_digits(x, (5, 5, 13)) for x in multipliers(g).tolist()] == [
        (a, b, c) for a in (1, 4) for b in (1, 4) for c in sorted(residues)]
    nodes = [0]
    greedy = cliques._greedy_colour_order

    def counted(adj, cand):
        nodes[0] += 1
        return greedy(adj, cand)

    monkeypatch.setattr(cliques, "_greedy_colour_order", counted)
    report = ramsey_check(g, (13, 13), exact=True)
    assert nodes[0] == 42228
    nodes[0] = 0
    monkeypatch.setattr(cliques, "_multiplier_orbits", lambda c, table: None)
    assert ramsey_check(g, (13, 13), exact=True) == report
    assert nodes[0] == 309831
    assert report.per_colour_max == (12, 12) and report.passes
    assert report.witness[0] == (0, 9, 12, 60, 61, 64, 307, 308, 311, 320,
                                 321, 324)


def test_early_stop_on_the_first_branch_computes_no_pairs(monkeypatch):
    def refuse(*args):
        raise AssertionError("pairs computed for an early stop")

    monkeypatch.setattr(cliques, "multipliers", refuse)
    report = ramsey_check(_song_p29_c5(), (5, 5))
    assert report.exact == (False, False) and not report.passes
