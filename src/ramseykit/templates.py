"""Template graphs: validation, the phi offset, repetition and doubling.

A template graph is a linear colouring whose designated template colour
class, read as a set of lengths, is triangle-free and contains the top
length.  Such graphs drive the template compound construction; their phi
value (lowest template length minus one) is the additive bonus in the
compound's order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .colouring import LINEAR, ColouringError, LengthColouring
from .cliques import CliqueReport, ramsey_check

TF, REPETITION, RAINBOW = "tf-template", "repetition", "rainbow"


class TemplateError(ValueError):
    pass


def _template_lengths(c: LengthColouring, s: int) -> set[int]:
    return {l for l in range(1, c.order) if c.colour_of[l - 1] == s}


def _tf_violation(c: LengthColouring, s: int) -> tuple[int, ...] | None:
    """None if colour s is a tf-template class of c.

    Otherwise the first triple (x, y, x + y) of the class, or () when the
    class is sum-free but misses the top length order-1.
    """
    if c.kind != LINEAR:
        raise TemplateError("template test requires a linear colouring")
    if not (1 <= s <= c.num_colours):
        raise ColouringError(f"colour {s} out of range 1..{c.num_colours}")
    cls = _template_lengths(c, s)
    # A monochromatic triangle in a linear colouring is exactly a triple of
    # lengths x, y, x + y in one class.
    ordered = sorted(cls)
    triple = next(((x, y, x + y) for x in ordered for y in ordered
                   if x <= y and x + y in cls), None)
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
        return phi(self)

    def template_lengths(self) -> set[int]:
        return _template_lengths(self.base, self.template_colour)

    def non_template_colours(self) -> list[int]:
        return [s for s in range(1, self.base.num_colours + 1)
                if s != self.template_colour]


def phi(T: TemplateGraph) -> int:
    """Lowest template-coloured length minus one."""
    cls = T.template_lengths()
    if not cls:
        raise TemplateError("empty template colour class")
    return min(cls) - 1


def tiled_colouring(T: TemplateGraph, q: int) -> LengthColouring:
    """Repeat the template pattern q times: order q*(t-1) + 1 + phi.

    Length l takes the base colour of its residue ((l-1) mod (t-1)) + 1, so
    template-coloured residues stay in the template colour.
    """
    if q < 1:
        raise TemplateError(f"repetition count must be >= 1, got {q}")
    t = T.order
    order = q * (t - 1) + 1 + phi(T)
    colours = tuple(
        T.base.colour_of[((l - 1) % (t - 1))]
        for l in range(1, order)
    )
    return LengthColouring(LINEAR, order, T.base.num_colours, colours,
                           template_colour=T.template_colour)


def repetition_check(T: TemplateGraph, q: int, avoid) -> CliqueReport:
    """Clique check of the q-fold tiling, on the non-template colours only.

    `avoid` lists the clique bounds of the non-template colours in colour
    order.  The template colour is unconstrained here: its class grows with
    the tiling by design.  The report carries a witness per colour, in
    vertices of the tiling.
    """
    avoid = tuple(avoid)
    non_template = T.non_template_colours()
    if len(avoid) != len(non_template):
        raise ColouringError(
            f"avoid: expected {len(non_template)} bounds for the non-template "
            f"colours, got {len(avoid)}"
        )
    tiled = tiled_colouring(T, q)
    # Unconstrain the template colour: bound = order + 1 can never fail.
    full_avoid = [tiled.order + 1] * tiled.num_colours
    for s, k in zip(non_template, avoid):
        full_avoid[s - 1] = k
    report = ramsey_check(tiled, full_avoid, want_witness=True)
    sizes = tuple(report.per_colour_max[s - 1] for s in non_template)
    wits = tuple(report.witness[s - 1] for s in non_template)
    exact = tuple(report.exact[s - 1] for s in non_template)
    passes = all(sz < k for sz, k in zip(sizes, avoid))
    return CliqueReport(sizes, wits, passes, exact)


def double_to_template(g: LengthColouring, compact: bool = False) -> TemplateGraph:
    """Template from a plain linear colouring by doubling.

    Lengths 1..m-1 copy g; the top band takes a fresh template colour.  The
    default output has order 2m (top band [m, 2m-1], phi = m-1); with
    compact=True the order is 2m-1 (band [m, 2m-2]).
    """
    lin = g.as_linear()
    m = lin.order
    tcol = lin.num_colours + 1
    order = 2 * m - 1 if compact else 2 * m
    colours = lin.colour_of + tuple([tcol] * (order - m))
    avoid = lin.avoid + (3,) if lin.avoid is not None else None
    base = LengthColouring(LINEAR, order, tcol, colours, avoid=avoid,
                           template_colour=tcol)
    return TemplateGraph(base, tcol)


def rainbow_colouring(n: int) -> LengthColouring:
    """Linear colouring of order n giving every length its own colour.

    Each colour class is a single length, hence sum-free: no colour can hold
    a triangle.
    """
    if n < 2:
        raise ColouringError(f"order: must be >= 2, got {n}")
    return LengthColouring(LINEAR, n, n - 1, tuple(range(1, n)),
                           avoid=(3,) * (n - 1))


@dataclass(frozen=True)
class TemplateFailure:
    """The first check a template candidate fails, with its witness lengths:
    a tf failure's triple (x, y, x + y), or () if the top length is
    missing; a repetition clique's lengths folded onto base residues; ()
    for a rainbow failure, whose `colour` is a colour of the compound."""

    stage: str  # TF | REPETITION | RAINBOW
    colour: int
    q: int | None = None
    lengths: tuple[int, ...] = ()

    def __str__(self) -> str:
        if self.stage == TF:
            if not self.lengths:
                return f"colour {self.colour} misses the top length"
            return f"colour {self.colour} has the triangle lengths {self.lengths}"
        if self.stage == REPETITION:
            return (f"repetition q={self.q}: FAIL, colour {self.colour} clique "
                    f"on base lengths {list(self.lengths)}")
        return f"rainbow compound: FAIL, colour {self.colour}"


def validate_template(base: LengthColouring, template_colour: int, avoid,
                      reps: int = 8,
                      rainbow_n: int = 4) -> TemplateFailure | None:
    """The first failing stage of the template checks, or None.

    Stages: `template_colour` is a tf-template class of `base`; the q-fold
    tilings, q = 1..reps, stay below the non-template bounds `avoid`; the
    compound with a rainbow prototype of order `rainbow_n` (if >= 2)
    verifies.  Emitted compounds are clique-checked on their own as well.
    """
    from .constructions import template_compound

    triple = _tf_violation(base, template_colour)
    if triple is not None:
        return TemplateFailure(TF, template_colour, lengths=triple)
    T = TemplateGraph(base, template_colour)
    avoid = tuple(avoid)
    for q in range(1, reps + 1):
        report = repetition_check(T, q, avoid)
        if not report.passes:
            i = report.first_failure(avoid)
            residues = {(b - a - 1) % (T.order - 1) + 1
                        for a, b in combinations(report.witness[i], 2)}
            return TemplateFailure(REPETITION, T.non_template_colours()[i], q,
                                   tuple(sorted(residues)))
    if rainbow_n >= 2:
        compound = template_compound(T, rainbow_colouring(rainbow_n))
        compound_avoid = avoid + (3,) * (rainbow_n - 1)
        report = ramsey_check(compound, compound_avoid)
        if not report.passes:
            return TemplateFailure(RAINBOW,
                                   report.first_failure(compound_avoid) + 1)
    return None


def template_usable(T: TemplateGraph, avoid, reps: int = 8,
                    rainbow_n: int = 4) -> bool:
    """True iff `validate_template` finds no failure."""
    return validate_template(T.base, T.template_colour, avoid, reps,
                             rainbow_n) is None
