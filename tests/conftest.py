"""Shared helpers for the test suite."""

import numpy as np

from ramseykit.colouring import (
    LengthColouring,
    length_domain_size,
    preserves_colours,
    translation,
)


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
