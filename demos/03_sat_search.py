"""SAT encodings and the template search loop.

Colouring existence questions become CNF instances: one boolean variable per
(length, colour) pair, clique clauses over vertex subsets.  The internal
DPLL solver settles small instances in milliseconds, and an iterative
refinement loop searches for extendable template graphs.
"""

from ramseykit import (
    LengthColouring,
    SearchSpec,
    encode_cyclic,
    pentagon,
    ramsey_check,
    search_template,
    solve_internal,
    write_dimacs,
)
from ramseykit.sat import decode_model

# R(3,3) = 6: order 5 is satisfiable, order 6 is not.
for m in (5, 6):
    inst = encode_cyclic(m, (3, 3))
    result = solve_internal(inst)
    print(f"cyclic order {m}, two triangle-free colours: {result.status}")

# The DIMACS output carries enough comments to decode a model later.
print()
print(write_dimacs(encode_cyclic(5, (3, 3))))

# Three colours: order 14 works, order 17 is impossible (R(3,3,3) = 17).
inst14 = encode_cyclic(14, (3, 3, 3))
model = decode_model(solve_internal(inst14).model, inst14)
print("order 14 model verifies:", ramsey_check(model, (3, 3, 3)).passes)
print("order 17:", solve_internal(encode_cyclic(17, (3, 3, 3))).status)

# Template search: extend a cyclic prototype of order n to a linear graph
# of order 2n + t whose new colour class is triangle-free and periodic.
# From an order-8 two-colour prototype a usable order-19 template emerges.
proto = LengthColouring("cyclic", 8, 2, (1, 2, 2, 1))
result = search_template(SearchSpec(proto, 3, (3, 4, 3)), reps=4)
print(f"search status: {result.status} after {result.iterations} iteration(s)")
if result.template is not None:
    T = result.template
    print(f"template order {T.order}, phi {T.phi}")

# The pentagon does not extend this way; the loop proves exhaustion.
result = search_template(SearchSpec(pentagon(), 2, (3, 3, 3)))
print("pentagon extension:", result.status)
