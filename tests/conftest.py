"""Shared helpers for the test suite, and the oracles no library path
runs: the brute-force clique search, colour degrees, neighbourhood
restriction and the cyclic distance of two vertices."""

from itertools import combinations

import numpy as np

from ramseykit.cliques import is_clique
from ramseykit.colouring import (
    ColouringError,
    ExplicitColouring,
    LengthColouring,
    length_domain_size,
    preserves_colours,
    translation,
)

BRUTE_ORDER_CAP = 16


class OracleCapError(ValueError):
    """The exhaustive oracle refuses orders above its cap."""


def max_clique_brute(g: ExplicitColouring, s: int,
                     order_cap: int = BRUTE_ORDER_CAP) -> int:
    """Exhaustive maximum clique size in colour s.  Ground truth for testing."""
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


def cyclic_length(i: int, j: int, m: int) -> int:
    """Canonical cyclic distance between vertices i and j on m vertices."""
    if not (0 <= i < m and 0 <= j < m):
        raise ColouringError(f"vertex out of range for order {m}: ({i}, {j})")
    if i == j:
        raise ColouringError(f"degenerate edge ({i}, {i})")
    d = abs(j - i)
    return min(d, m - d)


def random_colouring(rng, kind, order, num_colours):
    """A uniformly random length colouring of the given shape."""
    n = length_domain_size(kind, order)
    colours = tuple(rng.randint(1, num_colours) for _ in range(n))
    return LengthColouring(kind, order, num_colours, colours)


def all_linear_colourings(order, num_colours):
    """Every linear colouring of the given order, in lexicographic order."""
    from itertools import product

    n = order - 1
    for combo in product(range(1, num_colours + 1), repeat=n):
        yield LengthColouring("linear", order, num_colours, combo)


def all_cyclic_colourings(order, num_colours):
    from itertools import product

    n = order // 2
    for combo in product(range(1, num_colours + 1), repeat=n):
        yield LengthColouring("cyclic", order, num_colours, combo)


def translation_transitive(g):
    """True iff the translations that preserve g's colours, over b | c |
    order with b < c, move vertex 0 to every vertex.

    The oracle for `cayley_table` on explicit colourings: it closes the
    orbit of 0 under every such translation that passes, not only those
    of one divisor chain.  Order 0 is not transitive.
    """
    n = g.order
    if n == 0:
        return False
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    kept = []
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    for c in reversed(divisors):
        for b in (d for d in divisors if d < c and c % d == 0):
            if reached.all():
                return True
            perm = translation(n, c, b)
            if not preserves_colours(g, perm):
                continue
            kept.append(perm)
            while True:
                grown = reached.copy()
                for p in kept:
                    grown[p[reached]] = True
                if np.array_equal(grown, reached):
                    break
                reached = grown
    return bool(reached.all())
