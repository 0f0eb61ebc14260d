"""Exact per-colour clique numbers and Ramsey-property verification.

The search is a branch-and-bound over bitset adjacency rows with a greedy
colouring upper bound.  A length colouring is searched through vertex 0
only, on rows built from its lengths; for a cyclic one the top level skips
the orbit-mates, under its multipliers l -> a*l, of each neighbour of 0 it
has branched on.  An explicit colouring is searched through vertex 0 when
translations checked on its matrix move 0 to every vertex, and over all
its vertices otherwise.  The full search
(`max_clique_in_colour`) and an exhaustive oracle (`max_clique_brute`)
provide independent ground truth, so nothing emitted by the constructions
or the SAT search is trusted without a second opinion.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .colouring import (
    CYCLIC,
    ColouringError,
    ExplicitColouring,
    LengthColouring,
    length_colours,
    multipliers,
    translation_transitive,
)

BRUTE_ORDER_CAP = 16


class OracleCapError(ValueError):
    """The exhaustive oracle refuses orders above its cap."""


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


def _search(adj: list[int], cand: int, stop_at: int | None, best_size: int,
            best: tuple[int, ...], orbit: Callable[[int], int] | None = None
            ) -> tuple[int, tuple[int, ...]]:
    """The larger of `best` and the largest clique inside the set `cand`.

    Branch-and-bound with greedy-colouring bounds (Tomita and Seki, DMTCS
    2003).  With `stop_at` the search returns as soon as it holds a clique
    of that size.  Deterministic: candidate vertices are expanded
    lowest-index-first within the bound ordering.

    `orbit(v)`, when given, is the bitmask of v's orbit under a group of
    automorphisms of the graph that map `cand` onto itself.  Once the top
    level has searched every clique through v, a later top-level vertex of
    that orbit can only give cliques of the same sizes, so its branch is
    skipped (orbital branching: Ostrowski, Linderoth, Rossi and Smriglio,
    Math. Programming 126, 2011).  A skipped branch would find no larger
    clique, and the vertex leaves `cand` when its turn comes, as it does
    after a branch, so sizes and witnesses are those of the plain search.
    Below the top level the search is the same either way.
    """

    def expand(r: list[int], cand: int):
        nonlocal best_size, best
        if stop_at is not None and best_size >= stop_at:
            return
        ordered = _greedy_colour_order(adj, cand)
        for v, bound in reversed(ordered):
            if len(r) + bound <= best_size:
                return
            r.append(v)
            sub = cand & adj[v]
            if sub:
                expand(r, sub)
            elif len(r) > best_size:
                best_size = len(r)
                best = tuple(sorted(r))
            r.pop()
            cand &= ~(1 << v)
            if stop_at is not None and best_size >= stop_at:
                return

    if stop_at is not None and best_size >= stop_at:
        return best_size, best
    done = 0  # the orbits of the top-level vertices already branched on
    for v, bound in reversed(_greedy_colour_order(adj, cand)):
        if bound <= best_size:
            break
        bit = 1 << v
        cand &= ~bit
        if done & bit:
            continue
        sub = cand & adj[v]
        if sub:
            expand([v], sub)
        elif best_size < 1:
            best_size, best = 1, (v,)
        if stop_at is not None and best_size >= stop_at:
            break
        if orbit is not None and cand:
            done |= orbit(v)
    return best_size, best


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
    full = (1 << g.order) - 1
    return _search(_colour_bitrows(g, s), full, stop_at, 1, (0,))


def _clique_through_zero(adj: list[int], stop_at: int | None,
                         orbit: Callable[[int], int] | None = None
                         ) -> tuple[int, tuple[int, ...]]:
    """Maximum clique of the graph with bit rows `adj`, found through 0.

    Valid when every clique has a copy of the same size through vertex 0.
    Shifting a clique by minus its least vertex keeps every edge length of
    a length colouring, linear or cyclic; a translation-transitive explicit
    colouring has an automorphism taking any vertex to 0.  Then the clique
    number is 1 + the clique number of 0's neighbourhood.  `orbit` is as in
    `_search`, for a group that fixes 0 and keeps the colour.
    """
    size, wit = _search(adj, adj[0],
                        None if stop_at is None else stop_at - 1, 0, (),
                        orbit)
    return size + 1, (0,) + wit


def _multiplier_orbits(c: LengthColouring,
                       lengths: np.ndarray) -> Callable[[int], int]:
    """v -> bitmask of {a*v mod m : a in multipliers(c)}, for every colour.

    The multipliers fix 0 and keep each colour of the cyclic colouring c,
    so they map each colour's neighbourhood of 0 onto itself.  They are
    computed on the first call, and only then.
    """
    units = None

    def orbit(v: int) -> int:
        nonlocal units
        if units is None:
            units = multipliers(c, lengths).tolist()
        # a non-unit v has fewer images than there are multipliers
        return sum(1 << x for x in {a * v % c.order for a in units})

    return orbit


def is_clique(g: ExplicitColouring, s: int, vertices) -> bool:
    vs = list(vertices)
    return all(
        g.edge_colour[vs[a], vs[b]] == s
        for a in range(len(vs))
        for b in range(a + 1, len(vs))
    )


def max_clique_brute(g: ExplicitColouring, s: int,
                     order_cap: int = BRUTE_ORDER_CAP) -> int:
    """Exhaustive maximum clique size in colour s.  Ground truth for testing."""
    from itertools import combinations

    if g.order > order_cap:
        raise OracleCapError(
            f"order {g.order} above brute-force cap {order_cap}"
        )
    if g.order == 0:
        return 0
    best = 1
    for k in range(2, g.order + 1):
        if not any(is_clique(g, s, sub)
                   for sub in combinations(range(g.order), k)):
            break
        best = k
    return best


def ramsey_check(
    c: LengthColouring | ExplicitColouring,
    avoid,
    exact: bool = False,
) -> CliqueReport:
    """Check that every colour's clique number stays below its bound.

    By default each colour's search stops as soon as a clique matching its
    bound is found; pass exact=True for full clique numbers.  A length
    colouring is never expanded, and a translation-transitive explicit one
    is searched through vertex 0: their witnesses start at 0.  Any other
    colouring gets the full search.
    """
    avoid = tuple(avoid)
    if len(avoid) != c.num_colours:
        raise ColouringError(
            f"avoid: expected {c.num_colours} bounds, got {len(avoid)}"
        )
    orbit = None
    if isinstance(c, LengthColouring):
        lengths = length_colours(c)
        if c.kind == CYCLIC:
            orbit = _multiplier_orbits(c, lengths)

        def rows(c, s):
            return _length_bitrows(c, s, lengths)
    elif translation_transitive(c):
        rows = _colour_bitrows
    else:
        rows = None
    sizes: list[int] = []
    witnesses: list[tuple[int, ...]] = []
    exact_flags: list[bool] = []
    passes = True
    for s, k in enumerate(avoid, start=1):
        stop = None if exact else k
        size, wit = (max_clique_in_colour(c, s, stop) if rows is None
                     else _clique_through_zero(rows(c, s), stop, orbit))
        sizes.append(size)
        witnesses.append(wit)
        exact_flags.append(exact or size < k)
        if size >= k:
            passes = False
    return CliqueReport(tuple(sizes), tuple(witnesses), passes,
                        tuple(exact_flags))


def colour_degree(g: ExplicitColouring, v: int, s: int) -> int:
    """Number of colour-s neighbours of vertex v."""
    if not (0 <= v < g.order):
        raise ColouringError(f"vertex {v} out of range for order {g.order}")
    return int((g.edge_colour[v] == s).sum())


def neighbourhood_restrict(g: ExplicitColouring, v: int, s: int) -> ExplicitColouring:
    """Induced colouring on the colour-s neighbourhood of v.

    If g passes (k_1, ..., k_r), the result passes the same vector with k_s
    reduced by one.
    """
    if not (0 <= v < g.order):
        raise ColouringError(f"vertex {v} out of range for order {g.order}")
    nbrs = [u for u in range(g.order) if u != v and g.edge_colour[v, u] == s]
    sub = g.edge_colour[nbrs][:, nbrs]
    return ExplicitColouring(len(nbrs), g.num_colours, sub)
