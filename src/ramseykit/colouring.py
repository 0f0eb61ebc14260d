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

import numpy as np

LINEAR = "linear"
CYCLIC = "cyclic"
EXPLICIT = "explicit"


class ColouringError(ValueError):
    """Raised for malformed or inconsistent colourings and colouring files."""


def length_domain_size(kind: str, order: int) -> int:
    if kind == LINEAR:
        return order - 1
    if kind == CYCLIC:
        return order // 2
    raise ColouringError(f"kind: unknown colouring kind {kind!r}")


def cyclic_length(i: int, j: int, m: int) -> int:
    """Canonical cyclic distance between vertices i and j on m vertices."""
    if not (0 <= i < m and 0 <= j < m):
        raise ColouringError(f"vertex out of range for order {m}: ({i}, {j})")
    if i == j:
        raise ColouringError(f"degenerate edge ({i}, {i})")
    d = abs(j - i)
    return min(d, m - d)


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
            if not (1 <= c <= self.num_colours):
                raise ColouringError(
                    f"colours[{idx}]: colour {c} out of range 1..{self.num_colours}"
                )
        if self.avoid is not None:
            if len(self.avoid) != self.num_colours:
                raise ColouringError(
                    f"avoid: expected {self.num_colours} entries, got {len(self.avoid)}"
                )
            for idx, k in enumerate(self.avoid):
                if k < 2:
                    raise ColouringError(f"avoid[{idx}]: clique bound {k} below 2")
        if self.template_colour is not None and not (
            1 <= self.template_colour <= self.num_colours
        ):
            raise ColouringError(
                f"template_colour: {self.template_colour} out of range "
                f"1..{self.num_colours}"
            )

    def colour(self, l: int) -> int:
        """Colour of length l, for any l in 1..order-1."""
        m = self.order
        if not (1 <= l <= m - 1):
            raise ColouringError(f"length {l} out of range 1..{m - 1}")
        if self.kind == CYCLIC:
            l = min(l, m - l)
        return self.colour_of[l - 1]

    def as_linear(self) -> "LengthColouring":
        """The same colouring over the full length range 1..order-1."""
        if self.kind == LINEAR:
            return self
        full = tuple(self.colour(l) for l in range(1, self.order))
        return LengthColouring(
            LINEAR, self.order, self.num_colours, full,
            avoid=self.avoid, template_colour=self.template_colour,
        )

    def colour_class(self, s: int) -> set[int]:
        """Stored lengths carrying colour s."""
        return {l for l in range(1, len(self.colour_of) + 1)
                if self.colour_of[l - 1] == s}


@dataclass(frozen=True)
class ExplicitColouring:
    """Full edge-colour matrix of a coloured complete graph."""

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

    def colour(self, i: int, j: int) -> int:
        if i == j:
            raise ColouringError(f"degenerate edge ({i}, {i})")
        return int(self.edge_colour[i, j])

    def upper_triangle(self) -> list[int]:
        """Row-major list of colours for pairs (i, j), i < j."""
        return self.edge_colour[np.triu_indices(self.order, 1)].tolist()

    def __eq__(self, other):
        return (
            isinstance(other, ExplicitColouring)
            and self.order == other.order
            and self.num_colours == other.num_colours
            and np.array_equal(self.edge_colour, other.edge_colour)
        )

    def __hash__(self):
        return hash((self.order, self.num_colours, tuple(self.upper_triangle())))


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

    With c = n it is the cyclic shift by b; with c = |H| and b = 1 it
    shifts the right factor of a grid product numbered u|H| + v.
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


def translation_transitive(g: ExplicitColouring) -> bool:
    """True iff the translations that preserve g's colours, over b | c |
    order with b < c, move vertex 0 to every vertex.

    The orbit of 0 grows with each translation that passes, and the test
    stops once it is every vertex.  Order 0 is not transitive.
    """
    n = g.order
    if n == 0:
        return False
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    kept: list[np.ndarray] = []
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


def length_colours(c: LengthColouring) -> np.ndarray:
    """The colour of every length 1..order-1; entry l - 1 is c(l).

    A cyclic colouring's stored lengths are unfolded with one gather,
    colour_of[min(l, m - l) - 1], rather than one `colour` call per length.
    """
    stored = np.asarray(c.colour_of)
    if c.kind == LINEAR:
        return stored
    lengths = np.arange(1, c.order)
    return stored[np.minimum(lengths, c.order - lengths) - 1]


def multipliers(c: LengthColouring,
                colours: np.ndarray | None = None) -> np.ndarray:
    """The units a of Z_m, ascending, with c(a*l) = c(l) for every length l.

    Each such a fixes vertex 0 and keeps every edge colour of a cyclic
    colouring of order m, so it maps cliques to cliques of the same colour.
    Non-units are skipped, so m may be composite.  Only the candidates with
    c(a) = c(1) are tested, all at once, on blocks of lengths that double
    in size; a candidate is dropped after the first block where it fails.
    `colours` is `length_colours(c)`, when the caller already has it.
    """
    if c.kind != CYCLIC:
        raise ColouringError("multipliers: needs a cyclic colouring")
    m = c.order
    if colours is None:
        colours = length_colours(c)
    cand = np.arange(1, m)
    cand = cand[(np.gcd(cand, m) == 1) & (colours[cand - 1] == colours[0])]
    # c(a(m - l)) = c(m - al) = c(al), so the stored lengths suffice
    start, width = 2, 64
    while start <= m // 2 and cand.size:
        block = np.arange(start, min(start + width, m // 2 + 1))
        images = np.outer(cand, block) % m
        cand = cand[(colours[images - 1] == colours[block - 1]).all(axis=1)]
        start, width = start + width, 2 * width
    return cand


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
    obj: dict = {}
    if isinstance(c, LengthColouring):
        obj["kind"] = c.kind
        obj["order"] = c.order
        obj["num_colours"] = c.num_colours
        if c.avoid is not None:
            obj["avoid"] = list(c.avoid)
        obj["colours"] = list(c.colour_of)
        if c.template_colour is not None:
            obj["template_colour"] = c.template_colour
        if c.comment is not None:
            obj["comment"] = c.comment
    elif isinstance(c, ExplicitColouring):
        obj["kind"] = EXPLICIT
        obj["order"] = c.order
        obj["num_colours"] = c.num_colours
        if c.avoid is not None:
            obj["avoid"] = list(c.avoid)
        obj["colours"] = c.upper_triangle()
        if c.comment is not None:
            obj["comment"] = c.comment
    else:
        raise ColouringError(f"cannot serialize {type(c).__name__}")
    return json.dumps(obj, indent=2) + "\n"


def parse_colouring(text: str) -> LengthColouring | ExplicitColouring:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
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
    if not (isinstance(colours, list) and all(isinstance(x, int) for x in colours)):
        raise ColouringError("colours: expected a list of integers")
    avoid = None
    if "avoid" in obj:
        if not (isinstance(obj["avoid"], list)
                and all(isinstance(x, int) for x in obj["avoid"])):
            raise ColouringError("avoid: expected a list of integers")
        avoid = tuple(obj["avoid"])
    comment = obj.get("comment")
    if comment is not None and not isinstance(comment, str):
        raise ColouringError("comment: expected a string")
    if kind == EXPLICIT:
        if "template_colour" in obj:
            raise ColouringError("template_colour: not valid on explicit colourings")
        return explicit_from_upper_triangle(order, num_colours, colours,
                                            avoid=avoid, comment=comment)
    template_colour = obj.get("template_colour")
    if template_colour is not None and not isinstance(template_colour, int):
        raise ColouringError("template_colour: expected an integer")
    return LengthColouring(kind, order, num_colours, tuple(colours),
                           avoid=avoid, template_colour=template_colour,
                           comment=comment)


def _expect_int(obj: dict, key: str) -> int:
    v = obj[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise ColouringError(f"{key}: expected an integer")
    return v


def load_colouring(path) -> LengthColouring | ExplicitColouring:
    with open(path, encoding="utf-8") as f:
        return parse_colouring(f.read())


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
