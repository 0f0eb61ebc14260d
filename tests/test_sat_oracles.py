"""The clique-listing encoder and the watched-literal solver against the
subset enumerator and the clause-scanning DPLL that they replaced.

The references below are the earlier implementations: the encoder walks
every (k-1)-subset through vertex 0, and the solver rescans every clause on
every propagation sweep.
"""

import random
from itertools import combinations

import pytest

from ramseykit import sat
from ramseykit.colouring import CYCLIC, LINEAR, LengthColouring, cyclic_length
from ramseykit.constructions import paley_colouring
from ramseykit.sat import (
    DEFAULT_CONFLICT_BUDGET,
    SAT,
    UNKNOWN,
    UNSAT,
    ClauseCapError,
    CnfInstance,
    SearchSpec,
    SolveResult,
    VarMap,
    encode_cyclic,
    encode_extension,
    encode_linear,
    fold_length,
    search_template,
    solve_internal,
    write_dimacs,
)

_IMPLIED, _FIRST, _FLIPPED = 0, 1, 2


def reference_encode_free(kind, m, avoid):
    avoid = tuple(avoid)
    r = len(avoid)
    half = m // 2 if kind == CYCLIC else m - 1
    var_map = VarMap(tuple(range(1, half + 1)), r)
    clauses = sat._exactly_one_clauses(var_map)
    for s, k in enumerate(avoid, start=1):
        for rest in combinations(range(1, m), k - 1):
            verts = (0,) + rest
            lits = set()
            for i, j in combinations(verts, 2):
                l = cyclic_length(i, j, m) if kind == CYCLIC else j - i
                lits.add(-var_map.id(l, s))
            clauses.append(tuple(sorted(lits)))
    meta = {"kind": kind, "order": m, "avoid": avoid}
    return sat._finish(clauses, var_map, {}, meta)


def reference_encode_extension(spec):
    n = spec.prototype.order
    t = spec.t
    N = spec.target_order
    avoid = tuple(spec.avoid)
    fixed = sat._extension_fixed(spec)
    free = sorted(
        {fold_length(l, n, t) for l in range(n + 1, n + t + 1)} - set(fixed)
    )
    var_map = VarMap(tuple(free), len(avoid))
    clauses = sat._exactly_one_clauses(var_map)
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
                else:
                    lits.add(-var_map.id(l, s))
            if not satisfied:
                clauses.append(tuple(sorted(lits)))
    meta = {"kind": "extension", "order": N, "avoid": avoid,
            "prototype_order": n, "t": t,
            "template_colour": spec.template_colour}
    return sat._finish(clauses, var_map, fixed, meta)


def reference_listed(spec):
    """Cliques the subset walk keeps: subsets with no length fixed to
    another colour."""
    n, t, N = spec.prototype.order, spec.t, spec.target_order
    fixed = sat._extension_fixed(spec)
    count = 0
    for s, k in enumerate(spec.avoid, start=1):
        for rest in combinations(range(1, N), k - 1):
            verts = (0,) + rest
            count += all(fixed.get(fold_length(j - i, n, t), s) == s
                         for i, j in combinations(verts, 2))
    return count


def reference_solve(instance, conflict_budget=DEFAULT_CONFLICT_BUDGET):
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

    assign = {}
    trail = []
    conflicts = 0
    decisions = 0

    def value(lit):
        v = assign.get(abs(lit))
        if v is None:
            return None
        return v if lit > 0 else not v

    def propagate():
        changed = True
        while changed:
            changed = False
            for cl in clauses:
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
                trail.append((abs(unassigned), _IMPLIED))
                changed = True
        return True

    while True:
        if propagate():
            if len(assign) == num_vars:
                model = tuple(v if assign[v] else -v
                              for v in range(1, num_vars + 1))
                return SolveResult(SAT, model, conflicts, decisions)
            var = next(v for v in decision_order if v not in assign)
            assign[var] = True
            trail.append((var, _FIRST))
            decisions += 1
        else:
            conflicts += 1
            if conflicts > conflict_budget:
                return SolveResult(UNKNOWN, None, conflicts, decisions)
            while True:
                if not trail:
                    return SolveResult(UNSAT, None, conflicts, decisions)
                var, branch = trail.pop()
                del assign[var]
                if branch == _FIRST:
                    break
            assign[var] = False
            trail.append((var, _FLIPPED))


def _random_free_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        kind = rng.choice((CYCLIC, LINEAR))
        m = rng.randint(3, 20)
        avoid = tuple(rng.randint(2, 5) for _ in range(rng.randint(1, 3)))
        yield kind, m, avoid


def _random_spec(rng):
    n = rng.randint(3, 14)
    r = rng.randint(1, 2)
    colours = tuple(rng.randint(1, r) for _ in range(n // 2))
    proto = LengthColouring(CYCLIC, n, r, colours)
    t = rng.randint(1, 2 * n - 1)
    # bound 1 included; large bounds only at small orders keep the
    # reference walk short
    top = 5 if 2 * n + t <= 30 else 4
    avoid = tuple(rng.randint(1, top) for _ in range(r + 1))
    return SearchSpec(proto, t, avoid)


@pytest.mark.parametrize("seed", range(3))
def test_free_encoding_matches_subset_walk(seed):
    for kind, m, avoid in _random_free_cases(seed, 40):
        encode = encode_cyclic if kind == CYCLIC else encode_linear
        want = write_dimacs(reference_encode_free(kind, m, avoid))
        assert write_dimacs(encode(m, avoid)) == want, (kind, m, avoid)


@pytest.mark.parametrize("seed", range(3))
def test_extension_encoding_matches_subset_walk(seed):
    rng = random.Random(100 + seed)
    for _ in range(40):
        spec = _random_spec(rng)
        assert write_dimacs(encode_extension(spec)) == \
            write_dimacs(reference_encode_extension(spec)), spec


def test_extension_bound_one_is_the_empty_clause():
    spec = SearchSpec(paley_colouring(5), 2, (3, 1, 3))
    inst = encode_extension(spec)
    assert inst.clauses[0] == ()
    assert write_dimacs(inst) == write_dimacs(reference_encode_extension(spec))


def test_extension_cap_counts_listed_cliques():
    spec = SearchSpec(paley_colouring(13), 4, (4, 4, 3))
    listed = reference_listed(spec)
    assert listed > len(encode_extension(spec).clauses)
    encode_extension(spec, clause_cap=listed)
    with pytest.raises(ClauseCapError, match="counts listed cliques"):
        encode_extension(spec, clause_cap=listed - 1)


def test_free_cap_fails_before_listing(monkeypatch):
    def no_listing(*args, **kwargs):
        raise AssertionError("listing started")

    monkeypatch.setattr(sat, "_clique_clauses", no_listing)
    with pytest.raises(ClauseCapError, match="listed cliques"):
        encode_cyclic(30, (5, 5), clause_cap=100)


def test_paley_101_extension_fits_default_cap():
    """The prototype of the (6,6,3;235) template: a predicted count of
    C(234, 5) per colour stopped it before cliques were listed."""
    spec = SearchSpec(paley_colouring(101), 33, (6, 6, 3))
    inst = encode_extension(spec)
    assert inst.meta["order"] == 235
    assert (inst.num_vars, len(inst.clauses)) == (96, 165_234)


def _random_cnf(rng):
    num_vars = rng.randint(1, 12)
    clauses = []
    for _ in range(rng.randint(0, 4 * num_vars)):
        length = rng.choices(range(5), weights=(1, 6, 10, 10, 8))[0]
        clauses.append(tuple(rng.choice((1, -1)) * rng.randint(1, num_vars)
                             for _ in range(length)))
    if clauses and rng.random() < 0.3:  # duplicate literal
        cl = rng.choice(clauses)
        if cl:
            clauses.append(cl + (cl[0],))
    if rng.random() < 0.3:  # tautology
        v = rng.randint(1, num_vars)
        clauses.append((v, -v, rng.randint(1, num_vars)))
    var_map = VarMap(tuple(range(1, num_vars + 1)), 1)
    return CnfInstance(num_vars, tuple(clauses), var_map, {}, {})


def _outcome(result):
    return (result.status, result.model, result.conflicts, result.decisions)


@pytest.mark.parametrize("seed", range(4))
def test_solver_matches_clause_scan_on_random_cnfs(seed):
    rng = random.Random(seed)
    statuses = set()
    for _ in range(750):
        inst = _random_cnf(rng)
        budget = rng.choice((DEFAULT_CONFLICT_BUDGET, 0, 1, 5))
        want = _outcome(reference_solve(inst, budget))
        assert _outcome(solve_internal(inst, budget)) == want, inst.clauses
        statuses.add(want[0])
    assert statuses == {SAT, UNSAT, UNKNOWN}


ENCODED_CORPUS = [
    (encode_cyclic, 6, (3, 3)), (encode_cyclic, 14, (3, 3, 3)),
    (encode_cyclic, 16, (3, 3, 3)), (encode_linear, 14, (3, 3, 3)),
    (encode_linear, 15, (3, 3, 3)), (encode_cyclic, 17, (4, 4)),
    (encode_linear, 18, (4, 4)), (encode_cyclic, 14, (3, 5)),
    (encode_linear, 13, (3, 5)), (encode_cyclic, 21, (3, 6)),
    (encode_cyclic, 22, (3, 3, 4)), (encode_cyclic, 35, (3, 3, 5)),
]


@pytest.mark.parametrize("encode, m, avoid", ENCODED_CORPUS)
def test_solver_matches_clause_scan_on_encodings(encode, m, avoid):
    inst = encode(m, avoid)
    for budget in (DEFAULT_CONFLICT_BUDGET, 0, 1, 5):
        assert _outcome(solve_internal(inst, budget)) == \
            _outcome(reference_solve(inst, budget)), budget


@pytest.mark.parametrize("proto, t, avoid", [
    (LengthColouring(CYCLIC, 8, 2, (1, 2, 2, 1)), 3, (3, 4, 3)),
    (LengthColouring(CYCLIC, 8, 2, (1, 2, 2, 1)), 5, (4, 4, 3)),
    (paley_colouring(13), 3, (4, 4, 3)),
    (paley_colouring(17), 2, (4, 5, 3)),
])
def test_search_template_matches_references(proto, t, avoid, monkeypatch):
    spec = SearchSpec(proto, t, avoid)
    got = search_template(spec)
    monkeypatch.setattr(sat, "encode_extension",
                        lambda s, clause_cap: reference_encode_extension(s))
    monkeypatch.setattr(sat, "solve_internal", reference_solve)
    want = search_template(spec)
    colours = [None if r.template is None else r.template.base.colour_of
               for r in (got, want)]
    assert (got.status, got.iterations, got.log, colours[0]) == \
        (want.status, want.iterations, want.log, colours[1])
