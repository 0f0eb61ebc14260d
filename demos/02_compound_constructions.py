"""Compound constructions: big certificates from small ones.

Starting from a single edge, the banded product builds verified colourings
of orders 5, 14 and 41, showing R(3,3) > 5, R(3,3,3) > 14 and
R(3,3,3,3) > 41 without any search.
"""

from ramseykit import (
    expand_to_explicit,
    max_clique_in_colour,
    paley_colouring,
    product_cyclic,
    product_linear,
    pentagon,
    ramsey_check,
    single_edge,
    song_product,
)

e = single_edge()
p5 = product_linear(e, e)
p14 = product_linear(p5, e)
p41 = product_linear(p5, p5)

for name, c, avoid in (("edge*edge", p5, (3, 3)),
                       ("p5*edge", p14, (3, 3, 3)),
                       ("p5*p5", p41, (3, 3, 3, 3))):
    ok = ramsey_check(c, avoid).passes
    print(f"{name}: order {c.order}, avoids {avoid}: {ok}")

# The product of two cyclic colourings is cyclic again.
cyc = product_cyclic(pentagon(), pentagon())
print(f"pentagon*pentagon is {cyc.kind} of order {cyc.order}")

# The grid product multiplies orders and combines clique bounds pointwise:
# two triangle-free factors give a K5-free result of order 25.
g = expand_to_explicit(pentagon())
grid = song_product(g, g)
sizes = ramsey_check(grid, (5, 5), exact=True).per_colour_max
full = tuple(max_clique_in_colour(grid, s)[0] for s in (1, 2))
print(f"grid product: order {grid.order}, clique numbers {sizes}, "
      f"full search {full}")

# Quadratic residues modulo a prime q = 1 (mod 4) give another classic
# family; q = 17 yields a (4,4) certificate.
paley = paley_colouring(17)
print("paley(17) avoids (4,4):", ramsey_check(paley, (4, 4)).passes)
