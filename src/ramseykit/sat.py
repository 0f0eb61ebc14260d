"""CNF encodings of length-colouring searches, DIMACS I/O, an internal
complete solver, and the iterative template search loop.

Variables are (length, colour) pairs over the free lengths; each length gets
exactly one colour (one at-least-one clause plus pairwise at-most-one).  For
each colour s with bound k, every vertex subset {0, v_1, ..., v_{k-1}}
contributes a clause forbidding all its pairwise lengths being colour s
simultaneously; fixing vertex 0 is valid because length-based colourings are
translation (linear) or rotation (cyclic) invariant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations

from .colouring import (
    CYCLIC,
    LINEAR,
    ColouringError,
    LengthColouring,
    cyclic_length,
)
from .cliques import ramsey_check
from .templates import (
    RAINBOW,
    TF,
    TemplateGraph,
    validate_template,
)

DEFAULT_CLAUSE_CAP = 10_000_000
DEFAULT_CONFLICT_BUDGET = 1_000_000

SAT = "SAT"
UNSAT = "UNSAT"
UNKNOWN = "UNKNOWN"


class EncodingError(ValueError):
    pass


class ClauseCapError(EncodingError):
    """Predicted clause count exceeds the configured cap."""


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
    """Prototype-extension search: target order N = 2n + t."""

    prototype: LengthColouring
    t: int
    template_colour: int
    avoid: tuple[int, ...]

    def __post_init__(self):
        if self.prototype.kind != CYCLIC:
            raise EncodingError("extension prototype must be cyclic")
        n = self.prototype.order
        if self.t < 1:
            raise EncodingError(f"extension width t must be >= 1, got {self.t}")
        if self.t >= 2 * n:
            raise EncodingError(f"extension width t={self.t} too large for order {n}")
        if self.template_colour != self.prototype.num_colours + 1:
            raise EncodingError(
                "template colour must be the first colour after the prototype's"
            )
        if len(self.avoid) != self.prototype.num_colours + 1:
            raise EncodingError(
                f"avoid: expected {self.prototype.num_colours + 1} bounds, "
                f"got {len(self.avoid)}"
            )

    @property
    def target_order(self) -> int:
        return 2 * self.prototype.order + self.t


def _exactly_one_clauses(var_map: VarMap) -> list[tuple[int, ...]]:
    clauses = []
    r = var_map.num_colours
    for l in var_map.free_lengths:
        clauses.append(tuple(var_map.id(l, s) for s in range(1, r + 1)))
        for s1, s2 in combinations(range(1, r + 1), 2):
            clauses.append((-var_map.id(l, s1), -var_map.id(l, s2)))
    return clauses


def _check_clause_cap(m: int, avoid, clause_cap: int) -> None:
    from math import comb

    predicted = sum(comb(m - 1, k - 1) for k in avoid)
    if predicted > clause_cap:
        raise ClauseCapError(
            f"predicted {predicted} clique clauses exceeds cap {clause_cap}"
        )


def _finish(clauses: list[tuple[int, ...]], var_map: VarMap,
            fixed: dict, meta: dict) -> CnfInstance:
    canonical = sorted(set(clauses), key=lambda cl: (len(cl), cl))
    return CnfInstance(var_map.num_vars, tuple(canonical), var_map, fixed, meta)


def _encode_free(kind: str, m: int, avoid, clause_cap: int) -> CnfInstance:
    avoid = tuple(avoid)
    if m < 3:
        raise EncodingError(f"order must be >= 3, got {m}")
    for k in avoid:
        if k < 2:
            raise EncodingError(f"clique bound {k} below 2")
    _check_clause_cap(m, avoid, clause_cap)
    r = len(avoid)
    half = m // 2 if kind == CYCLIC else m - 1
    var_map = VarMap(tuple(range(1, half + 1)), r)
    clauses = _exactly_one_clauses(var_map)
    for s, k in enumerate(avoid, start=1):
        for rest in combinations(range(1, m), k - 1):
            verts = (0,) + rest
            lits = set()
            for i, j in combinations(verts, 2):
                l = cyclic_length(i, j, m) if kind == CYCLIC else j - i
                lits.add(-var_map.id(l, s))
            clauses.append(tuple(sorted(lits)))
    meta = {"kind": kind, "order": m, "avoid": avoid}
    return _finish(clauses, var_map, {}, meta)


def encode_cyclic(m: int, avoid, clause_cap: int = DEFAULT_CLAUSE_CAP) -> CnfInstance:
    """CNF for a free search over cyclic colourings of order m."""
    return _encode_free(CYCLIC, m, avoid, clause_cap)


def encode_linear(m: int, avoid, clause_cap: int = DEFAULT_CLAUSE_CAP) -> CnfInstance:
    """CNF for a free search over linear colourings of order m."""
    return _encode_free(LINEAR, m, avoid, clause_cap)


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


def _extension_fixed(spec: SearchSpec) -> dict[int, int]:
    n = spec.prototype.order
    t = spec.t
    fixed = {l: spec.prototype.colour(l) for l in range(1, n)}
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
    [n+1, n+t] after reflection folding is free.  Clique clauses run over
    vertex subsets at
    order N and are simplified against the fixed assignments: clauses with a
    satisfied fixed literal are dropped, falsified fixed literals removed.
    """
    n = spec.prototype.order
    t = spec.t
    N = spec.target_order
    avoid = tuple(spec.avoid)
    _check_clause_cap(N, avoid, clause_cap)
    fixed = _extension_fixed(spec)
    free = sorted(
        {fold_length(l, n, t) for l in range(n + 1, n + t + 1)} - set(fixed)
    )
    r = len(avoid)
    var_map = VarMap(tuple(free), r)
    clauses = _exactly_one_clauses(var_map)
    for s, k in enumerate(avoid, start=1):
        for rest in combinations(range(1, N), k - 1):
            verts = (0,) + rest
            lits = set()
            satisfied = False
            for i, j in combinations(verts, 2):
                l = fold_length(j - i, n, t)
                if l in fixed:
                    if fixed[l] != s:
                        satisfied = True
                        break
                    # fixed literal is false in this clause: drop it
                else:
                    lits.add(-var_map.id(l, s))
            if not satisfied:
                clauses.append(tuple(sorted(lits)))
    meta = {"kind": "extension", "order": N, "avoid": avoid,
            "prototype_order": n, "t": t,
            "template_colour": spec.template_colour}
    return _finish(clauses, var_map, fixed, meta)


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
    for cl in instance.clauses:
        lines.append(" ".join(str(lit) for lit in cl) + " 0" if cl else "0")
    return "\n".join(lines) + "\n"


def read_dimacs(text: str) -> CnfInstance:
    """Reconstruct a CnfInstance from `write_dimacs` output."""
    mapping: dict[int, tuple[int, int]] = {}
    fixed: dict[int, int] = {}
    meta: dict = {}
    clauses: list[tuple[int, ...]] = []
    num_vars = 0
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("c map "):
            l, s, var = (int(x) for x in line[6:].split())
            mapping[var] = (l, s)
        elif line.startswith("c meta "):
            meta = json.loads(line[7:])
        elif line.startswith("c fixed "):
            l, s = (int(x) for x in line[8:].split())
            fixed[l] = s
        elif line.startswith("c"):
            continue
        elif line.startswith("p cnf"):
            num_vars = int(line.split()[2])
        else:
            lits = [int(x) for x in line.split()]
            if lits and lits[-1] == 0:
                lits = lits[:-1]
            clauses.append(tuple(lits))
    if "avoid" in meta:
        meta["avoid"] = tuple(meta["avoid"])
    num_colours = len(meta.get("avoid", ()))
    free_lengths = tuple(
        mapping[v][0] for v in sorted(mapping)
        if (v - 1) % max(num_colours, 1) == 0
    ) if num_colours else ()
    var_map = VarMap(free_lengths, num_colours)
    return CnfInstance(num_vars, tuple(clauses), var_map, fixed, meta)


class ModelError(ValueError):
    pass


class UnsatDocument(Exception):
    """The solver output declares the instance unsatisfiable (not an error
    in itself; callers turn it into an explicit no-model result)."""


def _literals_from_document(doc: str) -> set[int]:
    lits: set[int] = set()
    saw_v = False
    for line in doc.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("s"):
            if "UNSATISFIABLE" in line:
                raise UnsatDocument()
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
    """Rebuild the full colouring from a model's true literals."""
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
    kind = meta["kind"]
    order = meta["order"]
    r = len(meta["avoid"])
    if kind == CYCLIC:
        colours = tuple(chosen[l] for l in range(1, order // 2 + 1))
        return LengthColouring(CYCLIC, order, r, colours)
    if kind == LINEAR:
        colours = tuple(chosen[l] for l in range(1, order))
        return LengthColouring(LINEAR, order, r, colours)
    # extension: complete through the fold
    n = meta["prototype_order"]
    t = meta["t"]

    def colour_at(l: int) -> int:
        canon = fold_length(l, n, t)
        if canon in instance.fixed:
            return instance.fixed[canon]
        return chosen[canon]

    colours = tuple(colour_at(l) for l in range(1, order))
    return LengthColouring(LINEAR, order, r, colours,
                           template_colour=meta["template_colour"])


def parse_model(doc: str, instance: CnfInstance) -> LengthColouring | None:
    """Decode a solver output document; None for an UNSAT document.

    Decoded colourings are untrusted: callers must run ramsey_check before
    accepting them.
    """
    try:
        lits = _literals_from_document(doc)
    except UnsatDocument:
        return None
    return decode_model(lits, instance)


@dataclass
class SolveResult:
    status: str  # SAT | UNSAT | UNKNOWN
    model: tuple[int, ...] | None = None  # true/false literal per variable
    conflicts: int = 0
    decisions: int = 0


def solve_internal(instance: CnfInstance,
                   conflict_budget: int = DEFAULT_CONFLICT_BUDGET) -> SolveResult:
    """Complete DPLL with unit propagation and conflict clause recording.

    SAT answers carry a model satisfying every clause; UNSAT only after the
    search space is exhausted; UNKNOWN iff the conflict budget runs out.
    Decision order: highest occurrence count, ties by lowest variable id.
    """
    num_vars = instance.num_vars
    clauses = [tuple(cl) for cl in instance.clauses]
    if any(len(cl) == 0 for cl in clauses):
        return SolveResult(UNSAT)

    occurrences = [0] * (num_vars + 1)
    for cl in clauses:
        for lit in cl:
            occurrences[abs(lit)] += 1
    decision_order = sorted(range(1, num_vars + 1),
                            key=lambda v: (-occurrences[v], v))

    assign: dict[int, bool] = {}
    trail: list[tuple[int, bool]] = []  # (var, is_decision)
    learned: list[tuple[int, ...]] = []
    conflicts = 0
    decisions = 0

    def value(lit: int):
        v = assign.get(abs(lit))
        if v is None:
            return None
        return v if lit > 0 else not v

    def propagate() -> bool:
        """Exhaustive unit propagation; False on conflict."""
        changed = True
        while changed:
            changed = False
            for cl in clauses + learned:
                unassigned = None
                satisfied = False
                count = 0
                for lit in cl:
                    val = value(lit)
                    if val is True:
                        satisfied = True
                        break
                    if val is None:
                        unassigned = lit
                        count += 1
                        if count > 1:
                            break
                if satisfied or count > 1:
                    continue
                if count == 0:
                    return False
                assign[abs(unassigned)] = unassigned > 0
                trail.append((abs(unassigned), False))
                changed = True
        return True

    def backtrack() -> int | None:
        """Undo to the most recent decision; return its variable."""
        while trail:
            var, is_decision = trail.pop()
            del assign[var]
            if is_decision:
                return var
        return None

    # (var, tried_both) stack of open decisions
    open_decisions: list[tuple[int, bool]] = []

    while True:
        if propagate():
            if len(assign) == num_vars:
                model = tuple(v if assign[v] else -v
                              for v in range(1, num_vars + 1))
                return SolveResult(SAT, model, conflicts, decisions)
            var = next(v for v in decision_order if v not in assign)
            assign[var] = True
            trail.append((var, True))
            open_decisions.append((var, False))
            decisions += 1
        else:
            conflicts += 1
            if conflicts > conflict_budget:
                return SolveResult(UNKNOWN, None, conflicts, decisions)
            # record the negation of the current decision assignment
            decision_lits = tuple(
                -(v if assign[v] else -v) for v, _ in open_decisions
                if v in assign
            )
            if decision_lits:
                learned.append(decision_lits)
            while True:
                var = backtrack()
                if var is None:
                    return SolveResult(UNSAT, None, conflicts, decisions)
                dvar, tried_both = open_decisions.pop()
                if not tried_both:
                    assign[var] = False
                    trail.append((var, True))
                    open_decisions.append((var, True))
                    break


@dataclass
class TemplateSearchResult:
    status: str  # found | none | budget
    template: TemplateGraph | None
    iterations: int
    log: list[str]


def _violation_clause(lengths, colour, instance: CnfInstance,
                      n: int, t: int) -> tuple[int, ...] | None:
    """Clause blocking a monochromatic clique, over its free lengths.

    None when the violation touches only fixed lengths (the search is then
    unsatisfiable as posed).
    """
    lits = set()
    for l in lengths:
        canon = fold_length(l, n, t)
        if canon not in instance.fixed:
            lits.add(-instance.var_map.id(canon, colour))
    return tuple(sorted(lits)) if lits else None


def search_template(spec: SearchSpec,
                    reps: int = 8,
                    rainbow_n: int = 4,
                    conflict_budget: int = DEFAULT_CONFLICT_BUDGET,
                    max_iterations: int = 200,
                    clause_cap: int = DEFAULT_CLAUSE_CAP) -> TemplateSearchResult:
    """Encode, solve, validate, refine: loop until a validated template graph
    comes out or the encoding is exhausted.

    Validation is `validate_template`; each failure adds a clause
    (clique-specific where any free length participates, whole-model
    blocking otherwise) and the instance is re-solved.
    """
    n = spec.prototype.order
    t = spec.t
    N = spec.target_order
    base_instance = encode_extension(spec, clause_cap=clause_cap)
    extra: list[tuple[int, ...]] = []
    log: list[str] = []

    # Every template must carry the template colour on the top length N-1,
    # which folds onto a single canonical length; require it up front.
    top = fold_length(N - 1, n, t)
    if top in base_instance.fixed:
        if base_instance.fixed[top] != spec.template_colour:
            log.append("top length folds onto a fixed non-template colour; "
                       "no template exists in this encoding")
            return TemplateSearchResult("none", None, 0, log)
    else:
        extra.append((base_instance.var_map.id(top, spec.template_colour),))

    non_template_avoid = spec.avoid[:-1]
    for iteration in range(1, max_iterations + 1):
        instance = CnfInstance(
            base_instance.num_vars,
            base_instance.clauses + tuple(extra),
            base_instance.var_map,
            base_instance.fixed,
            base_instance.meta,
        )
        result = solve_internal(instance, conflict_budget=conflict_budget)
        if result.status == UNSAT:
            log.append(f"iteration {iteration}: exhausted, no template exists "
                       "in this encoding")
            return TemplateSearchResult("none", None, iteration, log)
        if result.status == UNKNOWN:
            log.append(f"iteration {iteration}: solver budget exhausted")
            return TemplateSearchResult("budget", None, iteration, log)
        colouring = decode_model(result.model, instance)

        # soundness gate: never trust a decoded model
        report = ramsey_check(colouring, spec.avoid, want_witness=True)
        if not report.passes:
            bad = report.first_failure(spec.avoid) + 1
            wit = report.witness[bad - 1]
            lengths = {abs(j - i) for i, j in combinations(wit, 2)}
            cl = _violation_clause(lengths, bad, instance, n, t)
            if cl is None:
                log.append(f"iteration {iteration}: fixed lengths alone break "
                           f"colour {bad}; unsatisfiable as posed")
                return TemplateSearchResult("none", None, iteration, log)
            extra.append(cl)
            log.append(f"iteration {iteration}: clique violation in colour "
                       f"{bad}, refined")
            continue

        failure = validate_template(colouring, spec.template_colour,
                                    non_template_avoid, reps, rainbow_n)
        if failure is None:
            template = TemplateGraph(colouring, spec.template_colour)
            log.append(f"iteration {iteration}: validated template of order "
                       f"{N}, phi {template.phi}")
            return TemplateSearchResult("found", template, iteration, log)
        if failure.stage == RAINBOW:
            extra.append(_block_model(result.model))
            log.append(f"iteration {iteration}: rainbow compound failed, "
                       "blocked model")
            continue
        if not failure.lengths:
            log.append(f"iteration {iteration}: template class misses the "
                       "top length despite the unit constraint")
            return TemplateSearchResult("none", None, iteration, log)
        cl = _violation_clause(failure.lengths, failure.colour, instance, n, t)
        if failure.stage == TF:
            fixed_msg = "fixed template lengths form a triangle"
            refined_msg = f"template triangle at lengths {failure.lengths}"
        else:
            fixed_msg = f"repetition q={failure.q} fails on fixed lengths"
            refined_msg = f"repetition q={failure.q} failed"
        if cl is None:
            log.append(f"iteration {iteration}: {fixed_msg}; "
                       "unsatisfiable as posed")
            return TemplateSearchResult("none", None, iteration, log)
        extra.append(cl)
        log.append(f"iteration {iteration}: {refined_msg}, refined")

    log.append(f"stopped after {max_iterations} iterations")
    return TemplateSearchResult("budget", None, max_iterations, log)


def _block_model(model) -> tuple[int, ...]:
    return tuple(-lit for lit in model)

