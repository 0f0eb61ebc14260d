"""Edge-colourings of complete graphs keyed by edge-length.

A *linear* colouring assigns a colour to each length 1..m-1; the colour of
edge (i, j) is the colour of |j - i|.  A *cyclic* colouring additionally
satisfies c(l) = c(m - l), which we make structural by storing only the
lengths 1..floor(m/2).  An ExplicitColouring is the fully expanded edge
matrix used by the clique verifier.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache

import numpy as np

LINEAR = "linear"
CYCLIC = "cyclic"
EXPLICIT = "explicit"


class ColouringError(ValueError):
    """Raised for malformed or inconsistent colourings and colouring files."""


def clique_bounds(avoid, colours: int | None = None, *,
                  name: str = "avoid") -> tuple[int, ...]:
    """`avoid` as a tuple: the one check of a bound vector.  ColouringError
    unless it is a list or tuple of ints, not bools, each at least 1, with
    `colours` entries if given, else at least one.  A bound of 1 is
    well-formed: it fails on any colouring with a vertex.  Messages begin
    with `name`, the field the vector was read from."""
    if not (isinstance(avoid, (list, tuple))
            and all(type(k) is int for k in avoid)):
        raise ColouringError(f"{name}: expected a list of integers")
    if colours is not None and len(avoid) != colours:
        raise ColouringError(f"{name}: expected {colours} bounds, "
                             f"got {len(avoid)}")
    if not avoid and colours is None:
        raise ColouringError(f"{name}: at least one clique bound is needed")
    if min(avoid, default=1) < 1:
        raise ColouringError(f"{name}: clique bound {min(avoid)} below 1")
    return tuple(avoid)


def length_domain_size(kind: str, order: int) -> int:
    if kind == LINEAR:
        return order - 1
    if kind == CYCLIC:
        return order // 2
    raise ColouringError(f"kind: unknown colouring kind {kind!r}")


@dataclass(frozen=True)
class LengthColouring:
    """Colour-per-length representation of a linear or cyclic colouring."""

    kind: str
    order: int
    num_colours: int
    colour_of: tuple[int, ...]  # colour_of[l - 1] is the colour of length l
    avoid: tuple[int, ...] | None = None
    template_colour: int | None = None
    comment: str | None = None

    def __post_init__(self):
        if self.kind not in (LINEAR, CYCLIC):
            raise ColouringError(f"kind: expected linear or cyclic, got {self.kind!r}")
        if self.order < 2:
            raise ColouringError(f"order: must be >= 2, got {self.order}")
        if self.num_colours < 1:
            raise ColouringError(f"num_colours: must be >= 1, got {self.num_colours}")
        want = length_domain_size(self.kind, self.order)
        if len(self.colour_of) != want:
            raise ColouringError(
                f"colours: expected {want} entries for {self.kind} order "
                f"{self.order}, got {len(self.colour_of)}"
            )
        for idx, c in enumerate(self.colour_of):
            if type(c) is not int:
                raise ColouringError(f"colours[{idx}]: colour {c!r} is not "
                                     "an integer")
            if not (1 <= c <= self.num_colours):
                raise ColouringError(
                    f"colours[{idx}]: colour {c} out of range 1..{self.num_colours}"
                )
        if self.avoid is not None:
            clique_bounds(self.avoid, self.num_colours)
        if self.template_colour is not None and not (
            1 <= self.template_colour <= self.num_colours
        ):
            raise ColouringError(
                f"template_colour: {self.template_colour} out of range "
                f"1..{self.num_colours}"
            )

    def as_linear(self) -> "LengthColouring":
        """The same colouring over the full length range 1..order-1."""
        if self.kind == LINEAR:
            return self
        return LengthColouring(
            LINEAR, self.order, self.num_colours,
            tuple(length_colours(self).tolist()),
            avoid=self.avoid, template_colour=self.template_colour,
        )

    def colour_class(self, s: int) -> set[int]:
        """Stored lengths carrying colour s."""
        return {l for l in range(1, len(self.colour_of) + 1)
                if self.colour_of[l - 1] == s}


@dataclass(frozen=True, eq=False)
class ExplicitColouring:
    """Full edge-colour matrix of a coloured complete graph.  Instances
    compare by identity; compare matrices with `np.array_equal`."""

    order: int
    num_colours: int
    edge_colour: np.ndarray = field(repr=False)  # symmetric (m, m), 0 diagonal
    avoid: tuple[int, ...] | None = None
    comment: str | None = None

    def __post_init__(self):
        m = self.order
        mat = np.asarray(self.edge_colour, dtype=np.int32)
        object.__setattr__(self, "edge_colour", mat)
        if mat.shape != (m, m):
            raise ColouringError(f"edge_colour: expected shape ({m}, {m})")
        if not np.array_equal(mat, mat.T):
            raise ColouringError("edge_colour: matrix is not symmetric")
        if np.any(np.diagonal(mat) != 0):
            raise ColouringError("edge_colour: diagonal must be zero")
        off = mat[~np.eye(m, dtype=bool)]
        if m >= 2 and (off.min() < 1 or off.max() > self.num_colours):
            raise ColouringError(
                f"edge_colour: entries must lie in 1..{self.num_colours}"
            )
        if self.avoid is not None:
            clique_bounds(self.avoid, self.num_colours)

    def upper_triangle(self) -> list[int]:
        """Row-major list of colours for pairs (i, j), i < j."""
        return self.edge_colour[np.triu_indices(self.order, 1)].tolist()


def explicit_from_upper_triangle(order: int, num_colours: int,
                                 entries: list[int], **extra) -> ExplicitColouring:
    m = order
    want = m * (m - 1) // 2
    if len(entries) != want:
        raise ColouringError(
            f"colours: expected {want} upper-triangular entries for order {m}, "
            f"got {len(entries)}"
        )
    try:
        values = np.array(entries, dtype=np.int32)
    except OverflowError:
        raise ColouringError(
            f"colours: entries must lie in 1..{num_colours}") from None
    mat = np.zeros((m, m), dtype=np.int32)
    mat[np.triu_indices(m, 1)] = values
    return ExplicitColouring(order, num_colours, mat + mat.T, **extra)


def expand_to_explicit(c: LengthColouring) -> ExplicitColouring:
    """Expand a length colouring to its full edge-colour matrix."""
    m = c.order
    ids = np.arange(m, dtype=np.int32)
    by_gap = np.concatenate(([0], length_colours(c))).astype(np.int32)
    mat = by_gap[np.abs(ids[:, None] - ids[None, :])]
    return ExplicitColouring(m, c.num_colours, mat, avoid=c.avoid)


def translation(n: int, c: int, b: int) -> np.ndarray:
    """The vertex map i -> (i//c)c + (i mod c + b) mod c on n vertices.

    With c = n it is the cyclic shift by b.  With b | c it adds 1 to the
    digit of place value b in a mixed-radix numbering whose next place
    value is c, without carry: for a grid product numbered u|H| + v,
    translation(n, n, |H|) shifts u and translation(n, |H|, 1) shifts v.
    """
    ids = np.arange(n)
    return ids - ids % c + (ids % c + b) % c


def preserves_colours(g: ExplicitColouring, perm: np.ndarray) -> bool:
    """True iff the vertex map i -> perm[i] keeps every edge colour of g.

    Row 0 is compared first, so most maps that fail cost O(order).
    """
    mat = g.edge_colour
    return g.order == 0 or bool(
        np.array_equal(mat[perm[0], perm], mat[0])
        and np.array_equal(mat[np.ix_(perm, perm)], mat))


def length_colours(c: LengthColouring) -> np.ndarray:
    """The colour of every length 1..order-1; entry l - 1 is c(l).

    A cyclic colouring's stored lengths 1..m//2 are followed by the
    lengths below m/2 reversed, as c(m - l) = c(l).
    """
    stored = np.asarray(c.colour_of)
    if c.kind == LINEAR:
        return stored
    return np.concatenate((stored, stored[:(c.order - 1) // 2][::-1]))


def cayley_table(c: LengthColouring | ExplicitColouring) -> np.ndarray | None:
    """The colour table F of c as a Cayley colouring of a product of
    cyclic groups Z_{f_1} x ... x Z_{f_k}, or None.

    Vertex i is the digit tuple `np.unravel_index(i, F.shape)`, and F is
    row 0 reshaped, so F[x] is the colour of x's edge to 0.  A cyclic
    length colouring is the 1-D case, shape (m,).  An explicit colouring
    of order n has this form when a chain of divisors n = c_0 > c_1 > ...
    > c_k = 1 has digit shifts `translation(n, c_{j-1}, c_j)` that all keep
    its colours; then f_j = c_{j-1}/c_j.  Each step tries the smaller
    divisors first, so a circulant is 1-D and GF(16) is Z_2^4, and backs
    up from a dead end.  Linear colourings, and explicit ones with no
    such chain (order 0 among them), give None.
    """
    if isinstance(c, LengthColouring):
        if c.kind != CYCLIC:
            return None
        return np.concatenate(([0], length_colours(c)))
    n = c.order
    divisors = [d for d in range(1, n) if n % d == 0]

    @cache
    def chain(top: int) -> tuple[int, ...] | None:
        """The c_j after `top`, down to 1, or None."""
        if top == 1:
            return ()
        for b in (d for d in divisors if d < top and top % d == 0):
            if (preserves_colours(c, translation(n, top, b))
                    and (rest := chain(b)) is not None):
                return (b, *rest)
        return None

    steps = chain(n)
    if steps is None:
        return None
    shape = [hi // lo for hi, lo in zip((n, *steps), steps)]
    return c.edge_colour[0].reshape(shape or (1,))  # order 1: shape (1,)


def multipliers(c: LengthColouring | ExplicitColouring,
                table: np.ndarray | None = None) -> np.ndarray:
    """The unit tuples a of Z_{f_1} x ... x Z_{f_k} with F[a*x] = F[x] for
    every vertex x, where F = `cayley_table(c)` has shape (f_1, ..., f_k)
    and a*x multiplies digit by digit.

    Each tuple's map x -> a*x fixes vertex 0 and keeps every edge colour,
    so it maps cliques to cliques of the same colour.  A tuple is given as
    its vertex index, ascending: a for the units of a cyclic colouring,
    with c(a*l) = c(l) for every length l, and a*q + b for a pair of
    Z_p x Z_q.  Only the tuples that keep the colour of vertex (1, ..., 1)
    are tested, all at once, on blocks of vertices that double in size; a
    tuple is dropped after the first block where it fails.  `table` is
    `cayley_table(c)`, when the caller already has it.
    """
    if table is None:
        table = cayley_table(c)
        if table is None:
            raise ColouringError(
                "multipliers: needs a cyclic colouring or a Cayley colour "
                "table")
    shape = table.shape
    flat = table.ravel()
    ids = np.arange(flat.size)
    digits = np.unravel_index(ids, shape)
    # a tuple with a non-unit digit sends a vertex other than 0, such as
    # (0, .., f_j/gcd(a_j, f_j), .., 0), to 0, whose entry 0 is no colour,
    # so only unit tuples pass
    cand = ids[flat == flat[np.ravel_multi_index([1 % f for f in shape],
                                                 shape)]]
    # F(-x) = F(x) and each map commutes with x -> -x, so one vertex of
    # each pair {x, -x} suffices: for a cyclic colouring the lengths 1..m/2
    minus = np.ravel_multi_index([-d % f for d, f in zip(digits, shape)],
                                 shape)
    half = ids[ids <= minus][1:]
    units = [d[cand] for d in digits]
    start, width = 0, 64
    while start < half.size:
        block = half[start:start + width]
        images = np.ravel_multi_index(
            [np.outer(a, d[block]) % f
             for a, d, f in zip(units, digits, shape)], shape)
        keep = (flat[images] == flat[block]).all(axis=1)
        units = [a[keep] for a in units]
        start, width = start + width, 2 * width
    return np.ravel_multi_index(units, shape)


def check_cyclic_symmetry(c: LengthColouring | ExplicitColouring) -> bool:
    """True iff c admits a cyclic form.

    A length colouring needs c(l) = c(m - l) for every length; an explicit
    one must be circulant, kept by the shift i -> i + 1 mod m.
    """
    if isinstance(c, ExplicitColouring):
        return preserves_colours(c, translation(c.order, max(c.order, 1), 1))
    lengths = length_colours(c)
    return bool(np.array_equal(lengths, lengths[::-1]))


def to_cyclic(c: LengthColouring) -> LengthColouring:
    """Cyclic representation of a reflection-symmetric linear colouring."""
    if c.kind == CYCLIC:
        return c
    if not check_cyclic_symmetry(c):
        raise ColouringError("colouring is not reflection-symmetric")
    half = tuple(c.colour_of[: c.order // 2])
    return LengthColouring(CYCLIC, c.order, c.num_colours, half,
                           avoid=c.avoid, template_colour=c.template_colour)


# ---------------------------------------------------------------------------
# File format.  One JSON object; canonical key order is fixed so that
# serialization is byte-exact and golden-file friendly.

_KEY_ORDER = ("kind", "order", "num_colours", "avoid", "colours",
              "template_colour", "comment")


def serialize_colouring(c: LengthColouring | ExplicitColouring) -> str:
    if isinstance(c, LengthColouring):
        kind, colours, template = c.kind, list(c.colour_of), c.template_colour
    elif isinstance(c, ExplicitColouring):
        kind, colours, template = EXPLICIT, c.upper_triangle(), None
    else:
        raise ColouringError(f"cannot serialize {type(c).__name__}")
    values = (kind, c.order, c.num_colours,
              None if c.avoid is None else list(c.avoid), colours, template,
              c.comment)
    return ("{\n" + ",\n".join(f'  "{key}": {_indented(value)}'
                                for key, value in zip(_KEY_ORDER, values)
                                if value is not None) + "\n}\n")


def _indented(value) -> str:
    """`value` as json.dumps(obj, indent=2) writes a field of obj.  An int
    list is written by one join, not by the encoder's pass per entry."""
    if not isinstance(value, list):
        return json.dumps(value)
    if not value:
        return "[]"
    return "[\n    " + ",\n    ".join(map(str, value)) + "\n  ]"


def parse_colouring(text: str) -> LengthColouring | ExplicitColouring:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ColouringError(f"document: invalid JSON ({e})") from None
    if not isinstance(obj, dict):
        raise ColouringError("document: expected a JSON object")
    for key in obj:
        if key not in _KEY_ORDER:
            raise ColouringError(f"{key}: unknown field")
    for key in ("kind", "order", "num_colours", "colours"):
        if key not in obj:
            raise ColouringError(f"{key}: missing required field")
    kind = obj["kind"]
    order = _expect_int(obj, "order")
    num_colours = _expect_int(obj, "num_colours")
    colours = obj["colours"]
    if not (isinstance(colours, list)
            and all(type(x) is int for x in colours)):
        raise ColouringError("colours: expected a list of integers")
    avoid = clique_bounds(obj["avoid"]) if "avoid" in obj else None
    comment = obj.get("comment")
    if comment is not None and not isinstance(comment, str):
        raise ColouringError("comment: expected a string")
    if kind == EXPLICIT:
        if "template_colour" in obj:
            raise ColouringError("template_colour: not valid on explicit colourings")
        return explicit_from_upper_triangle(order, num_colours, colours,
                                            avoid=avoid, comment=comment)
    template_colour = obj.get("template_colour")
    if template_colour is not None and type(template_colour) is not int:
        raise ColouringError("template_colour: expected an integer")
    return LengthColouring(kind, order, num_colours, tuple(colours),
                           avoid=avoid, template_colour=template_colour,
                           comment=comment)


def _expect_int(obj: dict, key: str) -> int:
    v = obj[key]
    if type(v) is not int:
        raise ColouringError(f"{key}: expected an integer")
    return v


def load_colouring(path) -> LengthColouring | ExplicitColouring:
    """The colouring in the file `path`; a refusal names the file."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    try:
        return parse_colouring(text)
    except ColouringError as e:
        raise ColouringError(f"{path}: {e}") from None


def save_colouring(c, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(serialize_colouring(c))


# Small named colourings used throughout.

def single_edge() -> LengthColouring:
    """Order-2 one-colour colouring, the base case for compound chains."""
    return LengthColouring(LINEAR, 2, 1, (1,), avoid=(3,))


def pentagon() -> LengthColouring:
    """The classic triangle-free 2-colouring of K_5 (cyclic, order 5)."""
    return LengthColouring(CYCLIC, 5, 2, (1, 2), avoid=(3, 3))
