import hashlib
import random
from dataclasses import replace
from itertools import product as iproduct

import numpy as np
import pytest

from ramseykit.cliques import ramsey_check
from ramseykit.colouring import (
    LengthColouring,
    check_cyclic_symmetry,
    expand_to_explicit,
    pentagon,
    single_edge,
)
from ramseykit.constructions import (
    paley_colouring,
    product_cyclic,
    product_linear,
    song_product,
    template_compound,
)
from ramseykit.templates import double_to_template

from conftest import all_linear_colourings, max_clique_brute, random_colouring


def test_product_order_formula():
    e = single_edge()
    p5 = product_linear(e, e)
    assert p5.order == 5
    p14 = product_linear(p5, e)
    assert p14.order == 14
    p41 = product_linear(p5, p5)
    assert p41.order == 41
    for A, B, out in ((e, e, p5), (p5, e, p14), (p5, p5, p41)):
        m, n = A.order, B.order
        assert out.order == ((2 * m - 1) * (2 * n - 1) + 1) // 2


def test_product_chain_verifies():
    e = single_edge()
    p5 = product_linear(e, e)
    assert ramsey_check(p5, (3, 3)).passes
    assert p5.avoid == (3, 3)
    p14 = product_linear(p5, e)
    assert ramsey_check(p14, (3, 3, 3)).passes
    p41 = product_linear(p5, p5)
    assert ramsey_check(p41, (3, 3, 3, 3)).passes


def test_product_band_layout():
    # residues 1..m-1 carry the first factor, 0 and m..2m-2 the second
    p5 = product_linear(single_edge(), single_edge())
    assert p5.colour_of == (1, 2, 2, 1)
    p14 = product_linear(p5, single_edge())
    assert p14.colour_class(1) == {1, 4, 10, 13}
    assert p14.colour_class(2) == {2, 3, 11, 12}
    assert p14.colour_class(3) == {5, 6, 7, 8, 9}


def test_product_cyclic_closure():
    prod = product_cyclic(pentagon(), pentagon())
    assert prod.kind == "cyclic"
    assert prod.order == 41
    assert ramsey_check(prod, (3, 3, 3, 3)).passes
    # the linear form of the same product is reflection symmetric
    lin = product_linear(pentagon(), pentagon())
    assert check_cyclic_symmetry(lin)


def test_product_cyclic_requires_cyclic_inputs():
    with pytest.raises(Exception):
        product_cyclic(pentagon().as_linear(), pentagon())


def test_template_compound_matches_product_spot():
    A = product_linear(single_edge(), single_edge())
    for B in (single_edge(), A):
        via_template = template_compound(double_to_template(A), B)
        direct = product_linear(A, B)
        assert via_template.order == direct.order
        assert via_template.colour_of == direct.colour_of


def test_template_compound_order_formula():
    T = double_to_template(pentagon())
    B = pentagon().as_linear()
    out = template_compound(T, B)
    assert out.order == (T.order - 1) * (B.order - 1) + 1 + T.phi
    assert out.avoid == (3, 3, 3, 3)


def test_template_colour_never_appears():
    T = double_to_template(pentagon())
    out = template_compound(T, pentagon().as_linear())
    classes = {out.colour(l) for l in range(1, out.order)}
    assert classes == {1, 2, 3, 4}  # two from each factor, none left template


def test_song_product_shape():
    g = expand_to_explicit(pentagon())
    prod = song_product(g, g)
    assert prod.order == 25
    assert prod.avoid == (5, 5)
    for s in (1, 2):
        assert max_clique_brute(prod, s, order_cap=25) <= 4


def _song_reference(G, H):
    """The grid product entry by entry: G's colour between blocks, H's
    inside one."""
    a, b = G.order, H.order
    mat = np.zeros((a * b, a * b), dtype=np.int32)
    for u, v, u2, v2 in iproduct(range(a), range(b), range(a), range(b)):
        if (u, v) != (u2, v2):
            mat[u * b + v, u2 * b + v2] = (G.edge_colour[u, u2] if u != u2
                                           else H.edge_colour[v, v2])
    return mat


@pytest.mark.parametrize("seed", range(4))
def test_song_product_matches_entrywise_reference(seed):
    rng = random.Random(seed)
    for _ in range(25):
        r = rng.randint(1, 3)
        kind = rng.choice(("linear", "cyclic"))
        G, H = (expand_to_explicit(random_colouring(rng, kind,
                                                    rng.randint(2, 8), r))
                for _ in range(2))
        assert np.array_equal(song_product(G, H).edge_colour,
                              _song_reference(G, H))


def test_paley_5_is_pentagon():
    p = paley_colouring(5)
    assert p.kind == "cyclic"
    assert p.colour_of == pentagon().colour_of


def test_paley_13():
    p = paley_colouring(13)
    assert p.order == 13
    # quadratic residues mod 13: 1, 3, 4, 9, 10, 12
    assert p.as_linear().colour_class(1) == {1, 3, 4, 9, 10, 12}


def test_paley_rejects_bad_orders():
    with pytest.raises(Exception):
        paley_colouring(7)  # 7 = 3 mod 4, residues are not symmetric
    with pytest.raises(Exception):
        paley_colouring(15)  # composite


def _digest(colourings):
    h = hashlib.sha256()
    for c in colourings:
        h.update(f"{c.order} {c.num_colours} {c.avoid} "
                 f"{list(c.colour_of)}\n".encode())
    return h.hexdigest()


def test_small_exhaustive_template_product_identity():
    # the product is the compound of the doubled left factor; these digests
    # were taken from the banded loop it replaced, over every small passing
    # pair
    passing = []
    for order in range(2, 8):
        for c in all_linear_colourings(order, 2 if order > 2 else 1):
            avoid = (3,) * c.num_colours
            if ramsey_check(c, avoid).passes:
                passing.append(replace(c, avoid=avoid))
    # no two-colour triangle-free linear colouring exists beyond order 5
    assert len(passing) == 9
    products = [product_linear(A, B) for A in passing for B in passing]
    assert _digest(products) == (
        "f502edacc948ba7616298e4de405bf67e18adc53dbc2038dff78baefd76883ae")


def _paley(q, avoid):
    p = paley_colouring(q)
    return LengthColouring(p.kind, q, 2, p.colour_of, avoid=avoid)


@pytest.mark.parametrize("a, b, order, digest", [
    ("c5", "c5", 41,
     "d7879aec553e4754f8ffd2bcd63df5ddc5b44a2a7a99964abeeee8cdc8304913"),
    ("p41", "c5", 365,
     "85d301173092e88b58fae6508052e0bb9a5e35df6e354d4ea2edd3862de0e18b"),
    ("p13", "p13", 313,
     "1af28a41cfa91c77e3d780625e13ac3ad80b8701c00f0e081c2faa2de379162f"),
    ("p17lin", "c5", 149,
     "b197c3c7a7705a65c607f9e6a8b01d79304c81386b5425b1a376c700fdf0946e"),
], ids=["c5xc5", "p41xc5", "p13xp13", "p17linxc5"])
def test_product_is_pinned(a, b, order, digest):
    factors = {"c5": pentagon(),
               "p41": product_cyclic(pentagon(), pentagon()),
               "p13": _paley(13, (4, 4)),
               "p17lin": _paley(17, (4, 4)).as_linear()}
    out = product_linear(factors[a], factors[b])
    assert out.order == order
    assert _digest([out]) == digest
