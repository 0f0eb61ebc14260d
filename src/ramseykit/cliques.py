"""Exact per-colour clique numbers and Ramsey-property verification.

The fast path is a branch-and-bound over bitset adjacency rows with a greedy
colouring upper bound.  An exhaustive oracle (`max_clique_brute`) provides
independent ground truth at small orders, so nothing emitted by the
constructions or the SAT search is trusted without a second opinion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .colouring import (
    ColouringError,
    ExplicitColouring,
    LengthColouring,
    expand_to_explicit,
)

BRUTE_ORDER_CAP = 16


class OracleCapError(ValueError):
    """The exhaustive oracle refuses orders above its cap."""


@dataclass(frozen=True)
class CliqueReport:
    """Per-colour clique sizes of a colouring, checked against clique bounds.

    When a colour's search stopped early (a clique matching its bound was
    found), `exact[s-1]` is False and `per_colour_max[s-1]` is a lower bound.
    """

    per_colour_max: tuple[int, ...]
    witness: tuple[tuple[int, ...] | None, ...]
    passes: bool
    exact: tuple[bool, ...]

    def first_failure(self, avoid) -> int:
        """Index of the first colour whose clique reaches its bound."""
        return next(i for i, (size, k) in enumerate(
            zip(self.per_colour_max, avoid)) if size >= k)


def _colour_bitrows(g: ExplicitColouring, s: int) -> list[int]:
    """Adjacency of the colour-s subgraph as one bitmask per vertex."""
    rows = [0] * g.order
    mat = g.edge_colour
    for i in range(g.order):
        row = 0
        for j in range(g.order):
            if j != i and mat[i, j] == s:
                row |= 1 << j
        rows[i] = row
    return rows


def _greedy_colour_order(adj: list[int], cand: int) -> list[tuple[int, int]]:
    """Order candidate vertices with greedy-colouring bounds (ascending)."""
    ordered: list[tuple[int, int]] = []
    colour_no = 0
    remaining = cand
    while remaining:
        colour_no += 1
        avail = remaining
        while avail:
            v = (avail & -avail).bit_length() - 1
            ordered.append((v, colour_no))
            avail &= ~adj[v] & ~(1 << v)
            remaining &= ~(1 << v)
    return ordered


def max_clique_in_colour(
    g: ExplicitColouring,
    s: int,
    stop_at: int | None = None,
) -> tuple[int, tuple[int, ...]]:
    """Exact maximum clique in the colour-s subgraph, with a witness.

    With `stop_at` the search returns as soon as a clique of that size is
    found; the reported size is then a lower bound.  Deterministic: candidate
    vertices are expanded lowest-index-first within the bound ordering.
    """
    if not (1 <= s <= g.num_colours):
        raise ColouringError(f"colour {s} out of range 1..{g.num_colours}")
    n = g.order
    adj = _colour_bitrows(g, s)
    best_size = 1 if n >= 1 else 0
    best = (0,) if n >= 1 else ()

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

    full = (1 << n) - 1
    expand([], full)
    return best_size, best


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
    want_witness: bool = False,
) -> CliqueReport:
    """Check that every colour's clique number stays below its bound.

    By default each colour's search stops as soon as a clique matching its
    bound is found; pass exact=True for full clique numbers.
    """
    g = c if isinstance(c, ExplicitColouring) else expand_to_explicit(c)
    avoid = tuple(avoid)
    if len(avoid) != g.num_colours:
        raise ColouringError(
            f"avoid: expected {g.num_colours} bounds, got {len(avoid)}"
        )
    sizes: list[int] = []
    witnesses: list[tuple[int, ...] | None] = []
    exact_flags: list[bool] = []
    passes = True
    for s, k in enumerate(avoid, start=1):
        stop = None if exact else k
        size, wit = max_clique_in_colour(g, s, stop_at=stop)
        sizes.append(size)
        witnesses.append(wit if want_witness else None)
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
