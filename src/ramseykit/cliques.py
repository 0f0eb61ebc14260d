"""Exact per-colour clique numbers and Ramsey-property verification.

There is one search: a branch-and-bound over bitset adjacency rows with a
greedy-colouring upper bound, which extends a seed clique.  The full
search (`max_clique_in_colour`) extends the empty clique over all
vertices.  When every clique has a copy through vertex 0 (a length
colouring, linear or cyclic, or an explicit Cayley colouring of a product
of cyclic groups: a circulant, a grid product of any number of factors,
GF(16) as Z_2^4), `ramsey_check` extends the clique (0,) inside 0's
neighbourhood, skipping at the first level the orbit-mates of each
vertex it has branched on under the colouring's multipliers.  The full
search, and the exhaustive oracle that lives with the tests in
`tests/conftest.py`, provide independent ground truth, so nothing
emitted by the constructions or the SAT search is trusted without a
second opinion.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import combinations
from math import gcd

import numpy as np

from .colouring import (
    CYCLIC,
    ColouringError,
    ExplicitColouring,
    LengthColouring,
    cayley_table,
    clique_bounds,
    length_colours,
    multipliers,
)


@dataclass(frozen=True)
class CliqueReport:
    """Per-colour clique sizes of a colouring, checked against clique bounds.

    When a colour's search stopped early (a clique matching its bound was
    found), `exact[s-1]` is False and `per_colour_max[s-1]` is a lower bound.
    `witness[s-1]` is a colour-s clique of that size.
    """

    per_colour_max: tuple[int, ...]
    witness: tuple[tuple[int, ...], ...]
    passes: bool
    exact: tuple[bool, ...]

    def first_failure(self, avoid) -> int:
        """Index of the first colour whose clique reaches its bound."""
        return next(i for i, (size, k) in enumerate(
            zip(self.per_colour_max, avoid)) if size >= k)


def _bits_to_int(bits) -> int:
    """A boolean vector as an int, entry j at bit j."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(),
                          "little")


def _colour_bitrows(g: ExplicitColouring, s: int) -> list[int]:
    """Adjacency of the colour-s subgraph as one bitmask per vertex."""
    return [_bits_to_int(row) for row in g.edge_colour == s]


def _length_bitrows(c: LengthColouring, s: int,
                    lengths: np.ndarray | None = None) -> list[int]:
    """Colour-s bitmask rows of a length colouring, built from its lengths.

    Bits m - l and m + l of one mask mark the lengths l of colour s, with
    m = order - 1; vertex v's row is that mask shifted to centre on v.  A
    cyclic colouring's linear form colours |u - v| by its cyclic length, so
    both kinds share it.  `lengths` is `length_colours(c)`, folded once per
    check by the caller.
    """
    n = c.order
    m = n - 1
    if lengths is None:
        lengths = length_colours(c)
    mask = _bits_to_int(np.concatenate((lengths[::-1], [0], lengths)) == s)
    full = (1 << n) - 1
    return [(mask >> (m - v)) & full for v in range(n)]


def _greedy_colour_order(adj: list[int], cand: int) -> list[tuple[int, int]]:
    """Order candidate vertices with greedy-colouring bounds (ascending)."""
    ordered: list[tuple[int, int]] = []
    colour_no = 0
    remaining = cand
    while remaining:
        colour_no += 1
        avail = remaining
        while avail:
            bit = avail & -avail
            v = bit.bit_length() - 1
            ordered.append((v, colour_no))
            avail &= ~(adj[v] | bit)
            remaining ^= bit
    return ordered


def _search(adj: list[int], r: list[int], cand: int, stop_at: int | None,
            orbit: Callable[[int], int] | None = None
            ) -> tuple[int, tuple[int, ...]]:
    """The largest clique that extends the clique `r` inside the set `cand`.

    `r` is [] or [0], and every vertex of `cand` is adjacent to all of
    `r`.  The search starts from the lone clique (0,) of size 1, which it
    returns when nothing larger is found.  Branch-and-bound with
    greedy-colouring bounds (Tomita and Seki, DMTCS 2003).  With `stop_at`
    the search returns as soon as it holds a clique of that size.
    Deterministic: candidate vertices are expanded lowest-index-first
    within the bound ordering.

    `orbit(v)`, when given, is the bitmask of v's orbit under a group of
    automorphisms of the graph that fix `r` and map `cand` onto itself.
    Once the first level has searched every clique through v, a later
    first-level vertex of that orbit can only give cliques of the same
    sizes, so its branch is skipped (orbital branching: Ostrowski,
    Linderoth, Rossi and Smriglio, Math. Programming 126, 2011).  A skipped
    branch would find no larger clique, and the vertex leaves `cand` when
    its turn comes, as it does after a branch, so sizes and witnesses are
    those of the plain search.  Deeper levels search the same either way.
    """
    best = (0,)

    def expand(cand: int, orbit: Callable[[int], int] | None):
        nonlocal best
        done = 0  # the orbits of the vertices already branched on
        for v, bound in reversed(_greedy_colour_order(adj, cand)):
            if len(r) + bound <= len(best):
                return
            bit = 1 << v
            cand &= ~bit
            if done & bit:
                continue
            r.append(v)
            sub = cand & adj[v]
            if sub:
                expand(sub, None)
            elif len(r) > len(best):
                best = tuple(sorted(r))
            r.pop()
            if stop_at is not None and len(best) >= stop_at:
                return
            if orbit is not None and cand:
                done |= orbit(v)

    if stop_at is None or stop_at > 1:
        try:
            expand(cand, orbit)
        except RecursionError:
            raise ColouringError(f"a clique branch of {len(r)} vertices is "
                                 "too deep for Python's recursion limit") from None
    return len(best), best


def max_clique_in_colour(
    g: ExplicitColouring,
    s: int,
    stop_at: int | None = None,
) -> tuple[int, tuple[int, ...]]:
    """Exact maximum clique in the colour-s subgraph, with a witness.

    With `stop_at` the search returns as soon as a clique of that size is
    found; the reported size is then a lower bound.  The search covers every
    vertex, so it is also the oracle for `ramsey_check`'s vertex-0 path.
    """
    if not (1 <= s <= g.num_colours):
        raise ColouringError(f"colour {s} out of range 1..{g.num_colours}")
    if g.order == 0:
        return 0, ()
    return _search(_colour_bitrows(g, s), [], (1 << g.order) - 1, stop_at)


def _multiplier_orbits(c: LengthColouring | ExplicitColouring,
                       table: np.ndarray | None = None
                       ) -> Callable[[int], int]:
    """v -> bitmask of v's images a*v under the multiplier tuples a of c,
    for every colour, taken digit by digit in the shape of `table`,
    `cayley_table(c)`.

    The tuples fix 0 and keep each colour, so they map each colour's
    neighbourhood of 0 onto itself.  They, and the table when it is not
    given, are computed on the first call, and only then.
    """
    units = None

    def orbit(v: int) -> int:
        nonlocal units, table
        if units is None:
            if table is None:
                table = cayley_table(c)
            units = np.unravel_index(multipliers(c, table), table.shape)
        shape = table.shape
        images = np.ravel_multi_index(
            [a * d % f for a, d, f in
             zip(units, np.unravel_index(v, shape), shape)], shape)
        # a non-unit v has fewer images than there are tuples
        return sum(1 << x for x in set(images.tolist()))

    return orbit


def _reflections_only(c: LengthColouring, lengths: np.ndarray) -> bool:
    """True only if +-1 are the cyclic colouring's only multipliers, where
    skipping -v saves the search nothing.  a and m - a are multipliers
    together, so it looks for a unit 1 < a < m/2 with c(a*l) = c(l) on the
    first 12 lengths; a random colouring's candidates fail within a few."""
    m, colour = c.order, lengths.tolist()
    top = min(m // 2, 12)
    for a in range(2, (m + 1) // 2):
        l = 1
        while l <= top and colour[a * l % m - 1] == colour[l - 1]:
            l += 1
        if l > top and gcd(a, m) == 1:
            return False
    return True


def is_clique(g: ExplicitColouring, s: int, vertices) -> bool:
    return all(g.edge_colour[a, b] == s
               for a, b in combinations(vertices, 2))


def ramsey_check(
    c: LengthColouring | ExplicitColouring,
    avoid,
    exact: bool = False,
) -> CliqueReport:
    """Check that every colour's clique number stays below its bound.

    By default each colour's search stops as soon as a clique matching its
    bound is found; pass exact=True for full clique numbers.  There are
    three paths.  A length colouring is never expanded: its rows are built
    from its lengths, and a cyclic one branches under its multipliers.  An
    explicit colouring with a `cayley_table` (a circulant, a grid product
    of any number of factors, GF(16)) branches under its multiplier tuples.
    Shifting a clique by minus its least vertex keeps every edge length of
    a length colouring, and shifting it by minus any of its vertices keeps
    every colour of a Cayley colouring, so on both the search extends (0,)
    inside 0's neighbourhood: witnesses start at 0, and sizes and witnesses
    are those of the search without the multipliers.  Any other colouring,
    such as a grid under a shuffled numbering, gets the full search.
    """
    avoid = clique_bounds(avoid, c.num_colours)
    orbit = None
    if isinstance(c, LengthColouring):
        lengths = length_colours(c)
        if c.kind == CYCLIC and not _reflections_only(c, lengths):
            orbit = _multiplier_orbits(c)

        def rows(c, s):
            return _length_bitrows(c, s, lengths)
    elif (table := cayley_table(c)) is not None:
        rows = _colour_bitrows
        orbit = _multiplier_orbits(c, table)
    else:
        rows = None
    sizes: list[int] = []
    witnesses: list[tuple[int, ...]] = []
    exact_flags: list[bool] = []
    passes = True
    for s, k in enumerate(avoid, start=1):
        stop = None if exact else k
        if rows is None:
            size, wit = max_clique_in_colour(c, s, stop)
        else:
            adj = rows(c, s)
            size, wit = _search(adj, [0], adj[0], stop, orbit)
        sizes.append(size)
        witnesses.append(wit)
        exact_flags.append(exact or size < k)
        if size >= k:
            passes = False
    return CliqueReport(tuple(sizes), tuple(witnesses), passes,
                        tuple(exact_flags))
