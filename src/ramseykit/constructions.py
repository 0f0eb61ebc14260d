"""Compound constructions for linear/cyclic Ramsey graphs, plus seed
generators.

Every construction here is an explicit colouring rule whose output order is
given by a closed formula; callers are expected to re-verify outputs with the
clique checker before treating them as certificates.  The CLI's `construct`
checks an output that carries clique bounds, as a compound of two bounded
operands does, and refuses to emit one that fails; `--no-verify` marks the
output `unverified` instead, and an output without bounds gets neither.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .colouring import (
    CYCLIC,
    LINEAR,
    ColouringError,
    ExplicitColouring,
    LengthColouring,
    to_cyclic,
)
from .templates import TemplateGraph, double_to_template, tiled_colouring


def product_linear(A: LengthColouring, B: LengthColouring) -> LengthColouring:
    """Banded product of two linear colourings: the template compound of
    the doubled A with B.

    Writing a length l as (2m-1)q + r with r in [0, 2m-2]: colours of A
    fill the residues 1..m-1, and B (with offset colour ids) fills residue 0
    and the band m..2m-2.
    """
    return template_compound(double_to_template(A), B)


def product_cyclic(A: LengthColouring, B: LengthColouring) -> LengthColouring:
    """Product of two cyclic colourings; the result is again cyclic
    (`to_cyclic` raises if it were not reflection-symmetric)."""
    if A.kind != CYCLIC or B.kind != CYCLIC:
        raise ColouringError("product_cyclic requires cyclic inputs")
    return to_cyclic(product_linear(A, B))


def template_compound(T: TemplateGraph, B: LengthColouring) -> LengthColouring:
    """Compound of a template graph with a linear prototype.

    The (n-1)-fold tiling of T, of order (t-1)(n-1) + 1 + T.phi, keeps its
    non-template colours; its template-coloured lengths are filled block by
    block from B (offset colour ids).  The template colour itself never
    appears in the output.
    """
    B = B.as_linear()
    tiled = tiled_colouring(T, B.order - 1)
    non_template = T.non_template_colours()
    p = len(non_template)
    remap = {s: i + 1 for i, s in enumerate(non_template)}
    # the i-th block of t-1 lengths takes B's colour of length i
    colours = tuple(
        B.colour_of[(l - 1) // (T.order - 1)] + p
        if s == T.template_colour else remap[s]
        for l, s in enumerate(tiled.colour_of, start=1))
    avoid = None
    if T.base.avoid is not None and B.avoid is not None:
        avoid = tuple(T.base.avoid[s - 1] for s in non_template) + tuple(B.avoid)
    return LengthColouring(LINEAR, tiled.order, p + B.num_colours, colours,
                           avoid=avoid)


def grid_bound(p: int, q: int) -> int:
    """(p-1)(q-1) + 1: the grid product's clique bound from its factors'
    bounds, and a Ramsey lower bound from two factor lower bounds."""
    return (p - 1) * (q - 1) + 1


def song_product(G: ExplicitColouring, H: ExplicitColouring) -> ExplicitColouring:
    """Grid product on vertex pairs (u, v), lexicographically numbered u*b + v.

    Edges between distinct u-blocks take G's colour; edges inside a block
    take H's.  If G avoids (p_i + 1) and H avoids (q_i + 1) colourwise, the
    product avoids (p_i q_i + 1).
    """
    if G.num_colours != H.num_colours:
        raise ColouringError(
            f"colour-count mismatch: {G.num_colours} vs {H.num_colours}"
        )
    a, b = G.order, H.order
    # G's diagonal is 0, so the first term leaves the blocks for the second
    mat = (np.kron(G.edge_colour, np.ones((b, b), dtype=np.int32))
           + np.kron(np.eye(a, dtype=np.int32), H.edge_colour))
    avoid = None
    if G.avoid is not None and H.avoid is not None:
        avoid = tuple(grid_bound(p, q) for p, q in zip(G.avoid, H.avoid))
    return ExplicitColouring(a * b, G.num_colours, mat, avoid=avoid)


def paley_colouring(q: int) -> LengthColouring:
    """Cyclic 2-colouring of order q from quadratic residues mod q.

    Needs q prime with q = 1 (mod 4), so that -1 is a residue and the
    residue classes are symmetric under l -> q - l.
    """
    if q < 2 or any(q % d == 0 for d in range(2, isqrt(q) + 1)):
        raise ColouringError(f"{q} is not prime")
    if q % 4 != 1:
        raise ColouringError(f"{q} is not 1 mod 4")
    residues = {pow(x, 2, q) for x in range(1, q)}
    colours = tuple(1 if l in residues else 2 for l in range(1, q // 2 + 1))
    return LengthColouring(CYCLIC, q, 2, colours)
