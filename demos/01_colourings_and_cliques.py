"""Length colourings and exact clique checking.

A colouring here assigns a colour to each edge length |j - i| of a complete
graph.  If the class of each colour is free of the right-sized cliques, the
colouring is a lower-bound certificate: R(k_1, ..., k_r) > order.
"""

from ramseykit import (
    LengthColouring,
    expand_to_explicit,
    max_clique_brute,
    max_clique_in_colour,
    multipliers,
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

# At the paper's orders the exact check leans on symmetry.  The cubic
# residues mod 1831 and their two cosets colour K_1831 with three colours.
# Multiplying every length by a cubic residue keeps each colour and fixes
# vertex 0, so once the search has branched on one neighbour of 0 it skips
# that neighbour's whole orbit: one branch per colour.
q = 1831
cubes = {pow(x, 3, q) for x in range(1, q)}
gen = next(a for a in range(2, q) if a not in cubes)
coset = {x * pow(gen, s, q) % q: s + 1 for x in cubes for s in range(3)}
cubic = LengthColouring("cyclic", q, 3,
                        tuple(coset[l] for l in range(1, q // 2 + 1)))
print(f"cubic residues mod {q}: {len(multipliers(cubic))} multipliers "
      f"keep every colour")
report = ramsey_check(cubic, (8, 8, 8), exact=True)
print("clique numbers:", report.per_colour_max,
      "passes (8,8,8):", report.passes)
