"""Length colourings and exact clique checking.

A colouring here assigns a colour to each edge length |j - i| of a complete
graph.  If the class of each colour is free of the right-sized cliques, the
colouring is a lower-bound certificate: R(k_1, ..., k_r) > order.
"""

from ramseykit import (
    expand_to_explicit,
    max_clique_brute,
    max_clique_in_colour,
    pentagon,
    ramsey_check,
    serialize_colouring,
)

# The pentagon: colour 1 on cyclic distance 1, colour 2 on distance 2.
p = pentagon()
print("the pentagon colouring:")
print(serialize_colouring(p))

# Neither colour contains a triangle, so R(3,3) > 5.
report = ramsey_check(p, (3, 3), exact=True)
for s, size in enumerate(report.per_colour_max, start=1):
    print(f"colour {s}: largest clique has {size} vertices "
          f"(witness {report.witness[s - 1]})")
print("passes (3,3):", report.passes)

# The fast branch-and-bound checker and the brute-force oracle always agree;
# the test suite verifies this on hundreds of random colourings.
g = expand_to_explicit(p)
for s in (1, 2):
    fast, _ = max_clique_in_colour(g, s)
    slow = max_clique_brute(g, s)
    print(f"colour {s}: branch-and-bound {fast}, brute force {slow}")
