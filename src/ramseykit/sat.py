"""CNF encodings of length-colouring searches, DIMACS I/O, an internal
complete solver, and the iterative template search loop.

Variables are (length, colour) pairs over the free lengths; each length gets
exactly one colour (one at-least-one clause plus pairwise at-most-one).  For
each colour s with bound k, every k-clique {0, v_1, ..., v_{k-1}} of lengths
free or fixed to s contributes a clause forbidding all its lengths being
colour s at once; fixing vertex 0 is valid because length-based colourings
are translation (linear) or rotation (cyclic) invariant.  Rotations and
reflections of Z_m also keep a clique's lengths, so cyclic listing keeps one
clique per rotation-and-reflection class.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from itertools import combinations
from math import comb

import numpy as np

from .colouring import (CYCLIC, LINEAR, LengthColouring, clique_bounds,
                        length_colours, length_domain_size)
from .templates import TF, TemplateGraph, validate_template

DEFAULT_CLAUSE_CAP = 10_000_000
DEFAULT_CONFLICT_BUDGET = 1_000_000
MAX_ITERATIONS = 200  # solves per template search

EXTENSION = "extension"  # the `c meta` kind of `encode_extension`

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"

class EncodingError(ValueError):
    pass


class ClauseCapError(EncodingError):
    """More cliques to list than the configured cap."""


@dataclass(frozen=True)
class VarMap:
    """Bijection between (length, colour) pairs and DIMACS variable ids."""

    free_lengths: tuple[int, ...]
    num_colours: int
    _pos: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_pos", {l: i for i, l in enumerate(self.free_lengths)}
        )

    @property
    def num_vars(self) -> int:
        return len(self.free_lengths) * self.num_colours

    def id(self, l: int, s: int) -> int:
        if l not in self._pos or not (1 <= s <= self.num_colours):
            raise EncodingError(f"no variable for length {l}, colour {s}")
        return self._pos[l] * self.num_colours + s

    def decode(self, var: int) -> tuple[int, int]:
        """(length, colour) of a variable id."""
        if not (1 <= var <= self.num_vars):
            raise EncodingError(f"variable {var} out of range")
        pos, s = divmod(var - 1, self.num_colours)
        return self.free_lengths[pos], s + 1


@dataclass(frozen=True)
class CnfInstance:
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    var_map: VarMap
    fixed: dict  # length -> colour, over canonical fixed lengths
    meta: dict   # encoding kind, target order, parameters, extension data


@dataclass(frozen=True)
class SearchSpec:
    """Prototype-extension search: target order N = 2n + t, template colour
    the first after the prototype's."""

    prototype: LengthColouring
    t: int
    avoid: tuple[int, ...]

    def __post_init__(self):
        if self.prototype.kind != CYCLIC:
            raise EncodingError("extension prototype must be cyclic")
        n = self.prototype.order
        if self.t < 1:
            raise EncodingError(f"extension width t must be >= 1, got {self.t}")
        if self.t >= 2 * n:
            raise EncodingError(f"extension width t={self.t} too large for order {n}")
        clique_bounds(self.avoid, self.prototype.num_colours + 1)

    @property
    def template_colour(self) -> int:
        return self.prototype.num_colours + 1

    @property
    def target_order(self) -> int:
        return 2 * self.prototype.order + self.t


def fold_length(l: int, n: int, t: int) -> int:
    """Canonical representative of a length in the extension encoding.

    Lengths above the prototype band are reflection-symmetric: the band
    [n, N-1] is mirrored about its own midpoint, so the top length N-1
    shares the template colour fixed at length n, and the lengths [2n, N-1]
    vary together with the searched band.  Folding twice is the identity.
    """
    N = 2 * n + t
    if not (1 <= l <= N - 1):
        raise EncodingError(f"length {l} out of range 1..{N - 1}")
    if l <= n - 1:
        return l
    return min(l, 3 * n + t - 1 - l)


def _fold(meta: dict):
    """d -> the canonical length whose colour a difference d takes: cyclic
    lengths fold onto 1..m//2, linear lengths are their own, and extension
    lengths fold through `fold_length`."""
    kind, m = meta["kind"], meta["order"]
    if kind == CYCLIC:
        return lambda d: min(d, m - d)
    if kind == LINEAR:
        return lambda d: d
    n, t = meta["prototype_order"], meta["t"]
    return lambda d: fold_length(d, n, t)


def _var_map(meta: dict, fixed: dict) -> VarMap:
    """Variables over the canonical lengths not in `fixed`, in length order."""
    fold = _fold(meta)
    free = {fold(d) for d in range(1, meta["order"])} - set(fixed)
    return VarMap(tuple(sorted(free)), len(meta["avoid"]))


def _exactly_one_clauses(var_map: VarMap) -> list[tuple[int, ...]]:
    clauses = []
    r = var_map.num_colours
    for l in var_map.free_lengths:
        clauses.append(tuple(var_map.id(l, s) for s in range(1, r + 1)))
        for s1, s2 in combinations(range(1, r + 1), 2):
            clauses.append((-var_map.id(l, s1), -var_map.id(l, s2)))
    return clauses


def _clique_clauses(meta: dict, var_map: VarMap, fixed: dict,
                    clause_cap: int) -> list[tuple[int, ...]]:
    """A clause per distinct free-length set of the listed cliques: for
    colour s with bound k, the sets {0 < v_1 < ... < v_{k-1} < order} whose
    differences d all have `fold(d)` free or fixed to s.  A length fixed
    to s adds no literal.  ClauseCapError past `clause_cap` listed cliques.

    Rotating or reflecting a cyclic clique keeps its folded lengths, so
    cyclic listing keeps one clique per class: the wrap gap order - v_{k-1}
    is the largest gap and v_1 is at most the last inner gap.  Each level
    picks v <= min(order - G - rem, (order + u - rem) // 2), where G is the
    largest gap so far, u the last vertex and rem the vertices still to add
    after v; the last level also needs v >= u + v_1.  Children draw on the
    unmasked candidates, since a deeper level allows larger vertices.
    """
    order, fold = meta["order"], _fold(meta)
    cyclic = meta["kind"] == CYCLIC
    clauses = []
    listed = 0
    for s, k in enumerate(meta["avoid"], start=1):
        allowed = 0
        bit = [0] * order  # difference -> bit of its free length, 0 if fixed
        for d in range(1, order):
            l = fold(d)
            bit[d] = 0 if l in fixed else 1 << var_map._pos[l]
            allowed |= (fixed.get(l, s) == s) << d
        adj = [allowed << v for v in range(order)]  # cand drops bits >= order
        masks = set()

        def grow(clique, cand, mask, gap):
            nonlocal listed
            rem = k - 1 - len(clique)  # vertices to add after this one
            pick = cand
            if cyclic:
                u = clique[-1]
                hi = min(order - gap - rem, (order + u - rem) // 2)
                if hi <= u:
                    return
                pick &= (2 << hi) - 1
                if rem == 0 and len(clique) > 1:
                    pick &= -1 << (u + clique[1])
            if rem == 0:  # each candidate closes a clique
                listed += pick.bit_count()
                if listed > clause_cap:
                    raise ClauseCapError(f"clause cap {clause_cap} exceeded"
                                         "; it counts listed cliques")
            while pick:
                low = pick & -pick
                pick ^= low
                v = low.bit_length() - 1
                m = mask
                for u in clique:
                    m |= bit[v - u]
                if rem == 0:
                    masks.add(m)
                else:
                    grow(clique + (v,), cand & adj[v], m,
                         max(gap, v - clique[-1]))

        try:
            if k == 1:  # {0} alone, a clique with no lengths (never cyclic)
                grow((), 1, 0, 0)
            else:
                grow((0,), adj[0], 0, 0)
        except RecursionError:
            raise EncodingError(f"listing the {k}-cliques of colour {s} is "
                                "too deep for Python's recursion limit") from None
        lits = [-var_map.id(l, s) for l in var_map.free_lengths]
        for mask in masks:
            clause = []
            while mask:  # top bit first: lits fall as bits rise
                clause.append(lits[top := mask.bit_length() - 1])
                mask ^= 1 << top
            clauses.append(tuple(clause))
    return clauses


def _finish(clauses: list[tuple[int, ...]], var_map: VarMap,
            fixed: dict, meta: dict) -> CnfInstance:
    # a stable sort by length keeps the lexicographic order within a length
    canonical = sorted(sorted(set(clauses)), key=len)
    return CnfInstance(var_map.num_vars, tuple(canonical), var_map, fixed, meta)


def _encode(meta: dict, fixed: dict, clause_cap: int, least=0) -> CnfInstance:
    """Exactly-one clauses over the free lengths, then the clique clauses of
    order `meta["order"]` under the fold of `meta`.  A negative cap, or one
    below `least` cliques to list, is refused before any listing."""
    if clause_cap < 0:
        raise EncodingError(f"clause cap: must be >= 0, got {clause_cap}")
    if least > clause_cap:
        raise ClauseCapError(f"at least {least} cliques to list exceed the "
                             f"clause cap of {clause_cap} listed cliques")
    var_map = _var_map(meta, fixed)
    clauses = _exactly_one_clauses(var_map)
    clauses += _clique_clauses(meta, var_map, fixed, clause_cap)
    return _finish(clauses, var_map, fixed, meta)


def _encode_free(kind: str, m: int, avoid, clause_cap: int) -> CnfInstance:
    avoid = clique_bounds(avoid)
    if m < 3:
        raise EncodingError(f"order must be >= 3, got {m}")
    if min(avoid) < 2:  # the cyclic listing starts from an edge {0, v_1}
        raise EncodingError(f"clique bound {min(avoid)} below 2")
    # listed cliques, at least: each cyclic class has <= 2k members through 0
    listed = sum(-(-comb(m - 1, k - 1) // (2 * k if kind == CYCLIC else 1))
                 for k in avoid)
    return _encode({"kind": kind, "order": m, "avoid": avoid}, {}, clause_cap,
                   listed)


def encode_cyclic(m: int, avoid, clause_cap: int = DEFAULT_CLAUSE_CAP) -> CnfInstance:
    """CNF for a free search over cyclic colourings of order m."""
    return _encode_free(CYCLIC, m, avoid, clause_cap)


def encode_linear(m: int, avoid, clause_cap: int = DEFAULT_CLAUSE_CAP) -> CnfInstance:
    """CNF for a free search over linear colourings of order m."""
    return _encode_free(LINEAR, m, avoid, clause_cap)


def _extension_fixed(spec: SearchSpec) -> dict[int, int]:
    n = spec.prototype.order
    t = spec.t
    fixed = dict(enumerate(length_colours(spec.prototype).tolist(), start=1))
    fixed[n] = spec.template_colour
    # the band [n+t+1, 2n-1] carries the template colour; its reflections
    # fold back into [n+t, 2n-2], so record canonical representatives
    for l in range(n + t + 1, 2 * n):
        fixed[fold_length(l, n, t)] = spec.template_colour
    return fixed


def encode_extension(spec: SearchSpec,
                     clause_cap: int = DEFAULT_CLAUSE_CAP) -> CnfInstance:
    """CNF for extending a cyclic prototype of order n to a linear template
    graph of order N = 2n + t.

    Lengths 1..n-1 are fixed to the prototype's colours, length n and the
    band [n+t+1, 2n-1] to the template colour; what remains of the band
    [n+1, n+t] after reflection folding is free.  Clique clauses come from
    the cliques through 0 at order N of lengths free or fixed to s, so none
    is satisfied by a fixed length; ClauseCapError past `clause_cap` of them.
    """
    meta = {"kind": EXTENSION, "order": spec.target_order,
            "avoid": tuple(spec.avoid), "prototype_order": spec.prototype.order,
            "t": spec.t, "template_colour": spec.template_colour}
    return _encode(meta, _extension_fixed(spec), clause_cap)


def write_dimacs(instance: CnfInstance) -> str:
    """Standard DIMACS CNF with `c map <length> <colour> <id>` comments.

    Additional `c meta`/`c fixed` comments make the file self-describing, so
    models can be decoded from the .cnf alone.  A pure function of the
    instance: identical instances serialize to identical bytes.
    """
    lines = []
    for var in range(1, instance.var_map.num_vars + 1):
        l, s = instance.var_map.decode(var)
        lines.append(f"c map {l} {s} {var}")
    lines.append("c meta " + json.dumps(instance.meta, sort_keys=True))
    for l in sorted(instance.fixed):
        lines.append(f"c fixed {l} {instance.fixed[l]}")
    lines.append(f"p cnf {instance.num_vars} {len(instance.clauses)}")
    # one %-format per clause line: "%d " once per literal, then the 0
    width = max(map(len, instance.clauses), default=0)
    formats = ["%d " * n + "0" for n in range(width + 1)]
    lines += [formats[len(cl)] % cl for cl in instance.clauses]
    return "\n".join(lines) + "\n"


# a clause line as `write_dimacs` writes it: nonzero literals of at most 18
# digits (exact in int64), one space after each, and a closing 0.  Matched a
# line at a time: over a whole file the regex engine's backtracking stack
# grows by megabytes.
_CLAUSE_LINE = re.compile(r"(?:-?[1-9][0-9]{0,17} )*0")


def _clause_lines(rows: list[str], num_vars: int
                  ) -> list[tuple[int, ...]] | None:
    """The clauses of `rows`, parsed in one call; None unless every row but
    the empty ones is a `_CLAUSE_LINE` whose literals all name one of the
    `num_vars` variables."""
    rows = list(filter(None, rows))
    if not all(map(_CLAUSE_LINE.fullmatch, rows)):
        return None
    flat = np.fromstring(" ".join(rows), dtype=np.int64, sep=" ")
    if flat.size and max(-int(flat.min()), int(flat.max())) > num_vars:
        return None
    lits = flat.tolist()
    ends = np.flatnonzero(flat == 0).tolist()
    return [tuple(lits[a + 1:b]) for a, b in zip([-1] + ends, ends)]


def read_dimacs(text: str) -> CnfInstance:
    """Reconstruct a CnfInstance from `write_dimacs` output.

    The `p cnf` header is required, before the first clause, with counts
    >= 0; the clause count must match it, and every literal must name a
    variable in range.  The variables are those the `c meta` and `c fixed`
    lines imply (`c map` lines are for readers); a file without `c meta`
    has none, so it can be solved but not decoded.  A `c meta` kind other
    than cyclic, linear or extension is refused, and so is a field that
    is not an integer: the order, an extension's prototype_order and t,
    whose order must be 2 * prototype_order + t, and any template_colour.
    A `c fixed` line is refused, by its text, when it fixes a length twice,
    a length that is not one of the order's canonical lengths, or a colour
    outside 1..len(avoid).

    Each non-comment line after the header is one clause, its closing 0
    optional.  When the lines after the header are all clauses as
    `write_dimacs` writes them, with every literal in range, they are read
    in bulk; otherwise line by line, which reports the first fault.
    """
    fixed: dict[int, int] = {}
    fixed_lines: dict[int, str] = {}  # length -> the line that fixes it
    meta: dict = {}
    clauses: list[tuple[int, ...]] = []
    header = None
    lines = text.splitlines()
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        if line.startswith("c meta "):
            try:
                meta = json.loads(line[7:])
            except (json.JSONDecodeError, RecursionError) as e:
                raise EncodingError(f"bad 'c meta' line: {e!r}") from None
        elif line.startswith("c fixed "):
            try:
                l, s = (int(x) for x in line[8:].split())
            except ValueError:
                raise EncodingError(f"bad 'c fixed' line: {line!r}") from None
            if l in fixed:
                raise EncodingError(f"'c fixed' line {line!r} fixes length "
                                    f"{l} a second time")
            fixed[l], fixed_lines[l] = s, line
        elif line.startswith("c"):
            continue
        elif line.startswith("p"):
            parts = line.split()
            if header is not None or len(parts) != 4 or parts[1] != "cnf":
                raise EncodingError(f"bad DIMACS header {line!r}")
            header = int(parts[2]), int(parts[3])
            if min(header) < 0:
                raise EncodingError(f"negative count in DIMACS header {line!r}")
            bulk = _clause_lines(lines[i + 1:], header[0])
            if bulk is not None:
                clauses = bulk
                break
        else:
            if header is None:
                raise EncodingError("DIMACS clause before the 'p cnf' header")
            try:
                lits = [int(x) for x in line.split()]
            except ValueError:
                raise EncodingError(f"bad DIMACS clause line: {line!r}"
                                    ) from None
            if lits and lits[-1] == 0:
                lits = lits[:-1]
            bad = next((x for x in lits if not 1 <= abs(x) <= header[0]), None)
            if bad is not None:
                raise EncodingError(f"DIMACS literal {bad} outside the "
                                    f"{header[0]} declared variables")
            clauses.append(tuple(lits))
    if header is None:
        raise EncodingError("DIMACS input has no 'p cnf' header")
    num_vars, num_clauses = header
    if len(clauses) != num_clauses:
        raise EncodingError(f"DIMACS header declares {num_clauses} clauses, "
                            f"found {len(clauses)}")
    var_map = VarMap((), 0)
    if meta:
        try:
            meta["avoid"] = clique_bounds(meta["avoid"])
            if type(meta["order"]) is not int:  # not bool, nor float
                raise EncodingError("'c meta' needs int order and avoid >= 1")
            # every fold is at most two-to-one, so the lengths 1..order-1
            # need at least (order-1)/2 canonical lengths, free or fixed
            if meta["order"] - 1 > 2 * (num_vars + len(fixed)):
                raise EncodingError(
                    f"DIMACS header declares {num_vars} variables, too few "
                    f"for 'c meta' order {meta['order']}")
            _check_meta(meta)
            fold = _fold(meta)
            for l, s in fixed.items():
                if not (0 < l < meta["order"] and fold(l) == l):
                    raise EncodingError(
                        f"'c fixed' line {fixed_lines[l]!r}: length {l} is "
                        f"not a canonical length of order {meta['order']}")
                if not 0 < s <= len(meta["avoid"]):
                    raise EncodingError(
                        f"'c fixed' line {fixed_lines[l]!r}: colour {s} out "
                        f"of range 1..{len(meta['avoid'])}")
            var_map = _var_map(meta, fixed)
        except (KeyError, TypeError) as e:
            raise EncodingError(f"bad 'c meta' line: {e!r}") from None
        if var_map.num_vars != num_vars:
            raise EncodingError(f"DIMACS header declares {num_vars} variables"
                                f", 'c meta' and 'c fixed' give "
                                f"{var_map.num_vars}")
    return CnfInstance(num_vars, tuple(clauses), var_map, fixed, meta)


def _check_meta(meta: dict) -> None:
    """EncodingError unless the `c meta` kind and integer fields, past its
    order, are ones `_fold` and `decode_model` can read."""
    kind = meta["kind"]
    if kind not in (CYCLIC, LINEAR, EXTENSION):  # kind may be unhashable
        raise EncodingError(f"'c meta' kind {kind!r} is not {CYCLIC}, "
                            f"{LINEAR} or {EXTENSION}")
    names = ("prototype_order", "t") if kind == EXTENSION else ()
    for name in names + ("template_colour",) * ("template_colour" in meta):
        if type(meta.get(name)) is not int:  # not bool, nor float
            raise EncodingError(f"'c meta' {name} must be an integer, got "
                                f"{meta.get(name)!r}")
    if kind == EXTENSION and not (
            meta["t"] >= 1 and meta["prototype_order"] >= 1
            and meta["order"] == 2 * meta["prototype_order"] + meta["t"]):
        raise EncodingError(f"'c meta' order {meta['order']} is not "
                            "2 * prototype_order + t, both >= 1")


class ModelError(ValueError):
    pass


def _literals_from_document(doc: str) -> set[int] | None:
    """The literals of a solver output document; None if it declares the
    instance unsatisfiable."""
    lits: set[int] = set()
    saw_v = False
    for line in doc.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("s"):
            # `s UNSATISFIABLE` (DIMACS output format) or `s UNSAT` (solve)
            if "UNSAT" in line:
                return None
            continue
        if line.startswith("v"):
            saw_v = True
            line = line[1:]
        tokens = line.split()
        try:
            values = [int(tok) for tok in tokens]
        except ValueError:
            if saw_v:
                raise ModelError(f"malformed model line: {line!r}") from None
            continue
        lits.update(v for v in values if v != 0)
    if not lits:
        raise ModelError("no literals found in solver output")
    return lits


def decode_model(lits, instance: CnfInstance) -> LengthColouring:
    """Rebuild the full colouring from a model's true literals: each length
    takes the colour, fixed or chosen, of its canonical length.  Extensions
    come back as linear colourings with their template colour."""
    if not instance.meta:
        raise ModelError("no 'c meta' line, so the model cannot be decoded")
    var_map = instance.var_map
    chosen: dict[int, int] = {}
    for lit in lits:
        if lit > 0:
            l, s = var_map.decode(lit)
            if l in chosen and chosen[l] != s:
                raise ModelError(f"length {l} assigned two colours")
            chosen[l] = s
    for l in var_map.free_lengths:
        if l not in chosen:
            raise ModelError(f"no true colour variable for length {l}")
    meta = instance.meta
    kind = CYCLIC if meta["kind"] == CYCLIC else LINEAR
    fold = _fold(meta)
    colour = {**chosen, **instance.fixed}
    colours = tuple(colour[fold(l)] for l in
                    range(1, length_domain_size(kind, meta["order"]) + 1))
    return LengthColouring(kind, meta["order"], len(meta["avoid"]), colours,
                           template_colour=meta.get("template_colour"))


def parse_model(doc: str, instance: CnfInstance) -> LengthColouring | None:
    """Decode a solver output document; None for an UNSAT document.

    Decoded colourings are untrusted: callers must run ramsey_check before
    accepting them.
    """
    lits = _literals_from_document(doc)
    return None if lits is None else decode_model(lits, instance)


@dataclass
class SolveResult:
    status: str  # SAT | UNSAT | UNKNOWN
    model: tuple[int, ...] | None = None  # true/false literal per variable
    conflicts: int = 0
    decisions: int = 0


def solve_internal(instance: CnfInstance,
                   conflict_budget: int = DEFAULT_CONFLICT_BUDGET) -> SolveResult:
    """Complete CDCL solver: unit propagation, first-UIP clause learning and
    backjumping (Chaff, DAC 2001; MiniSat, SAT 2003).

    SAT answers carry a model satisfying every clause; UNSAT only after a
    conflict that no decision caused; UNKNOWN iff the conflicts exceed the
    budget.  Every conflict counts, one before any decision too.
    Decision order is static: highest occurrence count, ties by lowest
    variable id; each decision sets its variable True.
    Propagation watches two literals per clause and records each implied
    literal's level and reason clause.  A conflict is analysed back to its
    first unique implication point (UIP); the learned clause is watched like
    the others and, after a backjump to its second-highest level, implies
    the UIP's negation.  The backjump resumes the decision order where the
    first undone decision found it, so decisions stay linear in the
    variables.  There are no restarts and no clause deletion.
    """
    if conflict_budget < 0:
        raise ValueError(f"budget: must be >= 0, got {conflict_budget}")
    num_vars = instance.num_vars
    if any(len(cl) == 0 for cl in instance.clauses):
        return SolveResult(UNSAT)

    # indexed by literal: entry -v aliases the upper half of the list
    value = [0] * (2 * num_vars + 1)  # 1 true, -1 false, 0 unassigned
    watches: list[list[list[int]]] = [[] for _ in value]
    # indexed by a true literal: its decision level, the clause that implied
    # it (None for a decision or a unit), and its mark in conflict analysis
    level = [0] * len(value)
    reason: list[list[int] | None] = [None] * len(value)
    seen = [False] * len(value)
    trail: list[int] = []  # true literals, in the order they were set
    # (trail position, decision_order position) of each decision
    levels: list[tuple[int, int]] = []
    conflicts = decisions = 0

    def assign(lit: int, lv: int, why: list[int] | None) -> None:
        value[lit], value[-lit] = 1, -1
        trail.append(lit)
        level[lit], reason[lit] = lv, why

    occurrences = [0] * (num_vars + 1)
    ok = True
    for cl in instance.clauses:
        for lit in cl:
            occurrences[abs(lit)] += 1
        if len(cl) > 1:
            cl = list(cl)
            watches[cl[0]].append(cl)
            watches[cl[1]].append(cl)
        elif value[cl[0]] == 0:  # unit clauses hold before any decision
            assign(cl[0], 0, None)
        elif value[cl[0]] == -1:  # two unit clauses disagree
            ok = False
    decision_order = sorted(range(1, num_vars + 1),
                            key=lambda v: (-occurrences[v], v))
    pick = 0  # every variable before decision_order[pick] is assigned

    def propagate(head: int) -> list[int] | None:
        """Propagate the trail from position `head`; the clause whose
        literals are all false, or None at the fixpoint."""
        d = len(levels)
        while head < len(trail):
            false_lit = -trail[head]
            head += 1
            watching = iter(watches[false_lit])
            kept = []
            for cl in watching:
                other = cl[0]
                if other == false_lit:
                    other = cl[1]
                if value[other] == 1:  # satisfied: no need to move a watch
                    kept.append(cl)
                    continue
                cl[0], cl[1] = other, false_lit
                for j in range(2, len(cl)):
                    if value[cl[j]] != -1:  # watch it instead
                        cl[1], cl[j] = cl[j], false_lit
                        watches[cl[1]].append(cl)
                        break
                else:  # every position but cl[0] is false
                    kept.append(cl)
                    if value[other]:
                        kept.extend(watching)
                        watches[false_lit] = kept
                        return cl
                    value[other], value[-other] = 1, -1  # assign(), inlined
                    trail.append(other)
                    level[other], reason[other] = d, cl
            watches[false_lit] = kept
        return None

    conflict = propagate(0) if ok else []
    while True:
        if conflict is None:
            if len(trail) == num_vars:
                model = tuple(v if value[v] == 1 else -v
                              for v in range(1, num_vars + 1))
                return SolveResult(SAT, model, conflicts, decisions)
            while value[decision_order[pick]] != 0:
                pick += 1
            lit = decision_order[pick]
            decisions += 1
            levels.append((len(trail), pick))
            assign(lit, len(levels), None)
            conflict = propagate(len(trail) - 1)
            continue
        conflicts += 1
        if conflicts > conflict_budget:
            return SolveResult(UNKNOWN, None, conflicts, decisions)
        if not levels:
            return SolveResult(UNSAT, None, conflicts, decisions)
        # walk the trail back from the conflict, resolving on each literal
        # of this level, until one literal of this level is left: the UIP
        d = len(levels)
        learnt = [0]  # learnt[0] becomes the UIP's negation
        pending = 0  # marked literals of this level not yet resolved on
        i = len(trail)
        lits = conflict
        while True:
            for q in lits:
                if not seen[-q]:
                    lv = level[-q]
                    if lv == d:
                        seen[-q] = True
                        pending += 1
                    elif lv:  # a literal false at level 0 is left out
                        seen[-q] = True
                        learnt.append(q)
            i -= 1
            while not seen[trail[i]]:
                i -= 1
            uip = trail[i]
            seen[uip] = False
            pending -= 1
            if not pending:
                break
            lits = reason[uip][1:]  # its first literal is uip itself
        learnt[0] = -uip
        back = top = 0
        for j in range(1, len(learnt)):
            seen[-learnt[j]] = False
            if level[-learnt[j]] > back:
                back, top = level[-learnt[j]], j
        pos, pick = levels[back]
        for undone in trail[pos:]:
            value[undone] = value[-undone] = 0
        del trail[pos:], levels[back:]
        if top:
            learnt[1], learnt[top] = learnt[top], learnt[1]
            watches[learnt[0]].append(learnt)
            watches[learnt[1]].append(learnt)
        assign(-uip, back, learnt if top else None)
        conflict = propagate(len(trail) - 1)


@dataclass
class TemplateSearchResult:
    status: str  # found | none | budget
    template: TemplateGraph | None
    iterations: int
    log: list[str]


def _violation_clause(lengths, colour, instance: CnfInstance
                      ) -> tuple[int, ...] | None:
    """Clause blocking a monochromatic clique, over its free lengths.

    None when the violation touches only fixed lengths (the search is then
    unsatisfiable as posed).
    """
    fold = _fold(instance.meta)
    free = {fold(l) for l in lengths} - set(instance.fixed)
    return tuple(sorted(-instance.var_map.id(l, colour) for l in free)) or None


def search_template(spec: SearchSpec,
                    conflict_budget: int = DEFAULT_CONFLICT_BUDGET
                    ) -> TemplateSearchResult:
    """Encode, solve, validate, refine: loop until a validated template graph
    comes out, the encoding is exhausted, or MAX_ITERATIONS solves have run.

    A candidate meets one check, `validate_template`; a failure adds a
    clause over the free lengths of its witness, or ends the search as
    unsatisfiable as posed if it has none.  A clique check of `spec.avoid`
    would never fail: the encoder lists every k-clique {0 < v_1 < ...} of
    order N whose folded lengths are free or fixed to s, and a monochromatic
    clique of the decoded linear colouring, shifted to 0, is one of them, so
    the model breaks its clause, or the clause is empty and the instance is
    UNSAT.  The tilings are clique-checked, and the 1-fold one starts with
    the candidate.  The tf stage never reports a missing top length, since
    N-1 folds onto length n, fixed to the template colour.
    """
    if conflict_budget < 0:
        raise ValueError(f"budget: must be >= 0, got {conflict_budget}")
    base = encode_extension(spec, clause_cap=DEFAULT_CLAUSE_CAP)
    extra: list[tuple[int, ...]] = []
    log: list[str] = []
    for iteration in range(1, MAX_ITERATIONS + 1):
        instance = replace(base, clauses=base.clauses + tuple(extra))
        result = solve_internal(instance, conflict_budget=conflict_budget)
        if result.status == UNSAT:
            log.append(f"iteration {iteration}: exhausted, no template exists "
                       "in this encoding")
            return TemplateSearchResult("none", None, iteration, log)
        if result.status == UNKNOWN:
            log.append(f"iteration {iteration}: solver budget exhausted")
            return TemplateSearchResult("budget", None, iteration, log)
        colouring = decode_model(result.model, instance)
        failure = validate_template(colouring, spec.avoid[:-1])
        if failure is None:
            template = TemplateGraph(colouring)
            log.append(f"iteration {iteration}: validated template of order "
                       f"{spec.target_order}, phi {template.phi}")
            return TemplateSearchResult("found", template, iteration, log)
        phrase = (f"repetition q={failure.q} failed" if failure.stage != TF
                  else f"template triangle at lengths {failure.lengths}")
        cl = _violation_clause(failure.lengths, failure.colour, instance)
        if cl is None:
            log.append(f"iteration {iteration}: {phrase}; "
                       "unsatisfiable as posed")
            return TemplateSearchResult("none", None, iteration, log)
        extra.append(cl)
        log.append(f"iteration {iteration}: {phrase}, refined")

    log.append(f"stopped after {MAX_ITERATIONS} iterations")
    return TemplateSearchResult("budget", None, MAX_ITERATIONS, log)
