"""Template graphs: validation, the phi offset, repetition and doubling.

A template graph is a linear colouring whose designated template colour
class, read as a set of lengths, is triangle-free and contains the top
length.  Such graphs drive the template compound construction; their phi
value (lowest template length minus one) is the additive bonus in the
compound's order.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations

from .colouring import LINEAR, ColouringError, LengthColouring
from .cliques import CliqueReport, ramsey_check

TF, REPETITION = "tf-template", "repetition"


class TemplateError(ValueError):
    pass


def _tf_violation(c: LengthColouring, s: int) -> tuple[int, ...] | None:
    """None if colour s is a tf-template class of c.

    Otherwise the first triple (x, y, x + y) of the class, or () when the
    class is sum-free but misses the top length order-1.
    """
    if c.kind != LINEAR:
        raise TemplateError("template test requires a linear colouring")
    if not (1 <= s <= c.num_colours):
        raise ColouringError(f"colour {s} out of range 1..{c.num_colours}")
    cls = c.colour_class(s)
    # A monochromatic triangle in a linear colouring is exactly a triple of
    # lengths x, y, x + y in one class.
    ordered = sorted(cls)
    # y runs from x up to the largest length with x + y still a length
    triple = next(((x, y, x + y) for i, x in enumerate(ordered)
                   for y in ordered[i:bisect_right(ordered, c.order - 1 - x)]
                   if x + y in cls), None)
    if triple is not None:
        return triple
    return None if (c.order - 1) in cls else ()


def is_tf_template(c: LengthColouring, s: int) -> bool:
    """True iff colour s is a triangle-free length class containing order-1."""
    return _tf_violation(c, s) is None


@dataclass(frozen=True)
class TemplateGraph:
    """A linear colouring with a validated tf-template colour class."""

    base: LengthColouring
    template_colour: int

    def __post_init__(self):
        if not is_tf_template(self.base, self.template_colour):
            raise TemplateError(
                f"colour {self.template_colour} is not a tf-template of the base"
            )

    @property
    def order(self) -> int:
        return self.base.order

    @property
    def phi(self) -> int:
        """Lowest template-coloured length minus one."""
        return min(self.template_lengths()) - 1

    def template_lengths(self) -> set[int]:
        return self.base.colour_class(self.template_colour)

    def non_template_colours(self) -> list[int]:
        return [s for s in range(1, self.base.num_colours + 1)
                if s != self.template_colour]


def compound_order(t: int, bonus: int, n: int) -> int:
    """Order of the compound of a template of order t and phi `bonus` with
    a prototype of order n, and of the template's (n-1)-fold tiling."""
    return (n - 1) * (t - 1) + 1 + bonus


def _residue(l: int, t: int) -> int:
    """The base length that length l repeats in a tiling of order-t blocks."""
    return (l - 1) % (t - 1) + 1


def tiled_colouring(T: TemplateGraph, q: int) -> LengthColouring:
    """Repeat the template pattern q times: order q*(t-1) + 1 + phi.

    Length l takes the base colour of its residue ((l-1) mod (t-1)) + 1, so
    template-coloured residues stay in the template colour.
    """
    if q < 1:
        raise TemplateError(f"repetition count must be >= 1, got {q}")
    t = T.order
    order = compound_order(t, T.phi, q + 1)
    colours = tuple(T.base.colour_of[_residue(l, t) - 1]
                    for l in range(1, order))
    return LengthColouring(LINEAR, order, T.base.num_colours, colours,
                           template_colour=T.template_colour)


def _check_avoid(base: LengthColouring, avoid) -> tuple[int, ...]:
    """`avoid` as a tuple, if it bounds each non-template colour of `base`."""
    avoid = tuple(avoid)
    if len(avoid) != base.num_colours - 1:
        raise ColouringError(f"avoid: expected {base.num_colours - 1} bounds "
                             f"for the non-template colours, got {len(avoid)}")
    return avoid


def repetition_check(T: TemplateGraph, q: int, avoid) -> CliqueReport:
    """Clique check of the q-fold tiling, on the non-template colours only.

    `avoid` lists the clique bounds of the non-template colours in colour
    order.  The template colour is unconstrained here: its class grows with
    the tiling by design.  The report carries a witness per colour, in
    vertices of the tiling.
    """
    avoid = _check_avoid(T.base, avoid)
    tiled = tiled_colouring(T, q)
    # Unconstrain the template colour: bound = order + 1 can never fail.
    i = T.template_colour - 1
    report = ramsey_check(tiled, avoid[:i] + (tiled.order + 1,) + avoid[i:])
    fields = (report.per_colour_max, report.witness, report.exact)
    sizes, wits, exact = (xs[:i] + xs[i + 1:] for xs in fields)
    return CliqueReport(sizes, wits, report.passes, exact)


def doubled_shape(m: int, compact: bool = False) -> tuple[int, int]:
    """Order and phi of `double_to_template` on a colouring of order m."""
    return (2 * m - 1 if compact else 2 * m), m - 1


def double_to_template(g: LengthColouring, compact: bool = False) -> TemplateGraph:
    """Template from a plain linear colouring by doubling.

    Lengths 1..m-1 copy g; the top band takes a fresh template colour.  The
    default output has order 2m (top band [m, 2m-1], phi = m-1); with
    compact=True the order is 2m-1 (band [m, 2m-2]).
    """
    lin = g.as_linear()
    tcol = lin.num_colours + 1
    order, bonus = doubled_shape(lin.order, compact)
    colours = lin.colour_of + (tcol,) * (order - 1 - bonus)
    avoid = lin.avoid + (3,) if lin.avoid is not None else None
    base = LengthColouring(LINEAR, order, tcol, colours, avoid=avoid,
                           template_colour=tcol)
    return TemplateGraph(base, tcol)


@dataclass(frozen=True)
class TemplateFailure:
    """The first check a template candidate fails, with its witness lengths:
    a tf failure's triple (x, y, x + y), or () if the top length is
    missing; a repetition clique's lengths folded onto base residues, with
    q the least tiling that holds the clique."""

    stage: str  # TF | REPETITION
    colour: int
    q: int | None = None
    lengths: tuple[int, ...] = ()

    def __str__(self) -> str:
        if self.stage == TF:
            if not self.lengths:
                return f"colour {self.colour} misses the top length"
            return f"colour {self.colour} has the triangle lengths {self.lengths}"
        return (f"repetition q={self.q}: FAIL, colour {self.colour} clique "
                f"on base lengths {list(self.lengths)}")


def covering_q(T: TemplateGraph, avoid) -> int:
    """q*: the one tiling whose clique check covers every prototype order.

    In a tiling the colour of a length l depends only on l mod P, P = t-1,
    and lengths divisible by P take the top length's template colour.  So
    a k-clique of a non-template colour keeps its colours when each gap
    between consecutive vertices is cut to its residue in 1..P-1, and that
    copy spans at most (k-1)(P-1).  The q-fold tiling has lengths up to
    qP + phi, so the least q that holds every copy, for the largest bound
    k in `avoid`, is q* = max(1, ceil(((k-1)(P-1) - phi) / P)) <= k-1.
    """
    P = T.order - 1
    span = (max(avoid, default=1) - 1) * (P - 1)
    return max(1, -(-(span - T.phi) // P))


def validate_template(base: LengthColouring, template_colour: int, avoid
                      ) -> TemplateFailure | None:
    """The first failing stage of the template checks, or None.

    Stages: `template_colour` is a tf-template class of `base`; the q-fold
    tilings stay below the non-template bounds `avoid`.  A compound with a
    prototype of order n has the non-template colour classes of the
    (n-1)-fold tiling, and the q*-fold tiling of `covering_q` holds a copy
    of every clique of every tiling, so a pass covers every prototype
    order.  Emitted compounds are clique-checked on their own as well.
    Tilings nest (the (q-1)-fold one is the q-fold one on its first
    vertices), so only q = 1, 2, 4, ... below q*, then q*, are checked; a
    failure reports the least q whose tiling holds its witness.
    """
    avoid = _check_avoid(base, avoid)
    triple = _tf_violation(base, template_colour)
    if triple is not None:
        return TemplateFailure(TF, template_colour, lengths=triple)
    T = TemplateGraph(base, template_colour)
    last = covering_q(T, avoid)
    for q in [2 ** i for i in range((last - 1).bit_length())] + [last]:
        report = repetition_check(T, q, avoid)
        if not report.passes:
            i = report.first_failure(avoid)
            wit, t = report.witness[i], T.order
            residues = {_residue(b - a, t) for a, b in combinations(wit, 2)}
            least = -(-(max(wit) - min(wit) - T.phi) // (t - 1))
            return TemplateFailure(REPETITION, T.non_template_colours()[i],
                                   max(1, least), tuple(sorted(residues)))
    return None


def template_usable(T: TemplateGraph, avoid) -> bool:
    """True iff `validate_template` finds no failure."""
    return validate_template(T.base, T.template_colour, avoid) is None
