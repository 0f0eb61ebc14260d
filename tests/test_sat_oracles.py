"""The clique-listing encoder, the DIMACS reader and the watched-literal
solver against the subset enumerator, the line-by-line reader and the
clause-scanning DPLL that they replaced.

The references below are the earlier implementations: the encoder walks
every (k-1)-subset through vertex 0, the reader parses and range-checks
each clause line on its own, and the solver rescans every clause on every
propagation sweep.
"""

import json
import random
from itertools import combinations
from math import comb

import pytest

from ramseykit import sat
from ramseykit.colouring import CYCLIC, LINEAR, LengthColouring, pentagon
from ramseykit.constructions import paley_colouring
from ramseykit.sat import (
    DEFAULT_CONFLICT_BUDGET,
    SAT,
    UNKNOWN,
    UNSAT,
    ClauseCapError,
    CnfInstance,
    EncodingError,
    SearchSpec,
    SolveResult,
    VarMap,
    encode_cyclic,
    encode_extension,
    encode_linear,
    fold_length,
    read_dimacs,
    search_template,
    solve_internal,
    write_dimacs,
)

from conftest import cyclic_length

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


def reference_read_dimacs(text):
    fixed = {}
    meta = {}
    clauses = []
    header = None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("c meta "):
            meta = json.loads(line[7:])
        elif line.startswith("c fixed "):
            l, s = (int(x) for x in line[8:].split())
            fixed[l] = s
        elif line.startswith("c"):
            continue
        elif line.startswith("p"):
            parts = line.split()
            if header is not None or len(parts) != 4 or parts[1] != "cnf":
                raise EncodingError(f"bad DIMACS header {line!r}")
            header = int(parts[2]), int(parts[3])
            if min(header) < 0:
                raise EncodingError(f"negative count in DIMACS header {line!r}")
        else:
            if header is None:
                raise EncodingError("DIMACS clause before the 'p cnf' header")
            lits = [int(x) for x in line.split()]
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
            meta["avoid"] = tuple(meta["avoid"])
            if not meta["avoid"]:
                raise EncodingError("'c meta' has an empty avoid")
            if meta["order"] - 1 > 2 * (num_vars + len(fixed)):
                raise EncodingError(
                    f"DIMACS header declares {num_vars} variables, too few "
                    f"for 'c meta' order {meta['order']}")
            var_map = sat._var_map(meta, fixed)
        except (KeyError, TypeError) as e:
            raise EncodingError(f"bad 'c meta' line: {e!r}") from None
        if var_map.num_vars != num_vars:
            raise EncodingError(f"DIMACS header declares {num_vars} variables"
                                f", 'c meta' and 'c fixed' give "
                                f"{var_map.num_vars}")
    return CnfInstance(num_vars, tuple(clauses), var_map, fixed, meta)


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


def _dihedral_classes(m, k):
    """The k-subsets of Z_m up to rotation and reflection, by brute force."""
    classes = set()
    for c in combinations(range(m), k):
        classes.add(min(tuple(sorted((sign * v + r) % m for v in c))
                        for r in range(m) for sign in (1, -1)))
    return len(classes)


def test_cyclic_cap_precheck_is_a_lower_bound():
    # the lister lists at least one clique through 0 per class
    for m in range(3, 15):
        for k in range(2, min(m, 6) + 1):
            assert -(-comb(m - 1, k - 1) // (2 * k)) <= _dihedral_classes(m, k)


def test_cyclic_cap_is_left_to_the_lister():
    """Σ C(m-1, k-1) = 60,165 for (3,3,5;37), but only 7,007 cliques are
    listed, so a cap of 10,000 fits."""
    capped = encode_cyclic(37, (3, 3, 5), clause_cap=10_000)
    assert write_dimacs(capped) == write_dimacs(encode_cyclic(37, (3, 3, 5)))
    encode_cyclic(37, (3, 3, 5), clause_cap=7_007)
    with pytest.raises(ClauseCapError, match="counts listed cliques"):
        encode_cyclic(37, (3, 3, 5), clause_cap=7_006)


def test_paley_101_extension_fits_default_cap():
    """The prototype of the (6,6,3;235) template: a predicted count of
    C(234, 5) per colour stopped it before cliques were listed."""
    spec = SearchSpec(paley_colouring(101), 33, (6, 6, 3))
    inst = encode_extension(spec)
    assert inst.meta["order"] == 235
    assert (inst.num_vars, len(inst.clauses)) == (96, 165_234)


@pytest.mark.parametrize("m, avoid", [
    (30, (3, 3, 5)), (35, (3, 3, 5)), (37, (3, 3, 5)), (21, (3, 6)),
    (23, (3, 6)), (17, (6, 6)), (25, (3, 3, 4, 4)),
])
def test_cyclic_listing_matches_subset_walk(m, avoid):
    """The largest free cyclic instances of the benchmark, a k = 6 case at
    both bounds and a four-colour case."""
    assert write_dimacs(encode_cyclic(m, avoid)) == \
        write_dimacs(reference_encode_free(CYCLIC, m, avoid))


def test_cyclic_listing_keeps_one_clique_per_class():
    """The rotations that move one of a clique's k vertices to 0, and their
    reflections, give one clause, so cyclic listing keeps about one clique
    through 0 in 2k: (3,3,5;37) fits a cap of an eighth of them."""
    meta = {"kind": CYCLIC, "order": 37, "avoid": (3, 3, 5)}
    through_zero = 2 * comb(36, 2) + comb(36, 4)
    assert sat._encode(meta, {}, through_zero // 8) == \
        encode_cyclic(37, (3, 3, 5))


_FAULTS = ("range", "int64", "token", "zero", "count", "before", "header",
           "negative")


def _dimacs_text(rng):
    """A DIMACS text and the number of its clause lines."""
    pick = rng.randrange(4)
    if pick == 0:
        inst = encode_cyclic(rng.randint(3, 14), (rng.randint(2, 4),
                                                  rng.randint(2, 4)))
    elif pick == 1:
        inst = encode_linear(rng.randint(3, 10), (3, rng.randint(2, 4)))
    elif pick == 2:
        inst = encode_extension(_random_spec(rng), clause_cap=10 ** 5)
    else:
        inst = _random_cnf(rng)
    return write_dimacs(inst)


def _vary(rng, text, fault, plain=False):
    """`text` with one fault when `fault` names one, and unless `plain`
    with its clause lines reformatted as the reader allows."""
    lines = text.splitlines()
    head = next(i for i, line in enumerate(lines) if line.startswith("p"))
    pre, header, body = lines[:head], lines[head], lines[head + 1:]
    num_vars = int(header.split()[2])
    out = []
    for line in body if not plain else ():
        toks = line.split()
        if rng.random() < 0.1 and len(toks) > 1:  # no closing 0
            toks = toks[:-1]
        if rng.random() < 0.1:
            toks = [("0" + t if t[0] != "-" else t) for t in toks]
        sep = rng.choice((" ", " ", " ", "\t", "  ", " \t "))
        line = sep.join(toks)
        if rng.random() < 0.1:
            line = rng.choice((" ", "\t")) + line + rng.choice(("", " "))
        out.append(line)
        if rng.random() < 0.05:
            out.append(rng.choice(("c between clauses", "c", "", "   ")))
    out = out if not plain else list(body)
    rows = [i for i, line in enumerate(out)
            if line.strip() and line.strip()[0] != "c"]
    if fault in ("range", "int64", "token", "zero") and not rows:
        fault = "count"
    if fault in ("range", "int64", "token", "zero"):
        i = rng.choice(rows)
        toks = out[i].split()
        bad = {"range": str(rng.choice((1, -1)) * (num_vars + 1)),
               "int64": rng.choice(("99999999999999999999",
                                    "-99999999999999999999",
                                    "9223372036854775808")),
               "token": rng.choice(("x", "1.5", "-", "--2", "1-2", "2e3")),
               "zero": "0"}[fault]
        toks.insert(rng.randrange(len(toks)), bad)
        out[i] = " ".join(toks)
    elif fault == "count":
        if rows and rng.random() < 0.5:
            del out[rng.choice(rows)]
        else:
            out.insert(rng.randrange(len(out) + 1), "1 0")
    elif fault == "before":
        pre.insert(rng.randrange(len(pre) + 1), "1 0")
    elif fault == "header":
        out.insert(rng.randrange(len(out) + 1),
                   rng.choice((header, "p cnf 3", "p dnf 3 4")))
    elif fault == "negative":
        header = f"p cnf {num_vars} -1"
    newline = "\n" if plain else rng.choice(("\n", "\n", "\r\n"))
    return newline.join(pre + [header] + out) + newline


def _read_outcome(read, text):
    try:
        return read(text)
    except ValueError as e:
        return type(e), str(e)


@pytest.mark.parametrize("seed", range(3))
def test_reader_matches_line_reader(seed):
    rng = random.Random(200 + seed)
    errors = 0
    for _ in range(150):
        text = _dimacs_text(rng)
        cases = [text, _vary(rng, text, None)]
        cases += [_vary(rng, text, fault, plain)
                  for fault in _FAULTS for plain in (False, True)]
        for case in cases:
            want = _read_outcome(reference_read_dimacs, case)
            assert _read_outcome(read_dimacs, case) == want, case
            errors += isinstance(want, tuple)
    assert errors == 150 * 2 * len(_FAULTS)  # every fault is caught


def test_reader_takes_written_clauses_in_bulk():
    text = write_dimacs(encode_cyclic(37, (3, 3, 5)))
    rows = text[text.index("\np ") + 1:].splitlines()[1:]
    assert sat._clause_lines(rows, 54) == \
        list(reference_read_dimacs(text).clauses)
    assert sat._clause_lines(rows, 53) is None  # range check
    assert sat._clause_lines(rows[:-1] + [rows[-1][:-2]], 54) is None
    assert sat._clause_lines([], 0) == []
    assert sat._clause_lines(["", "1 0", ""], 1) == [(1,)]
    big = "999999999999999999 -1 0"
    assert sat._clause_lines([big], 10 ** 18) == [(999999999999999999, -1)]
    assert sat._clause_lines(["9" + big], 10 ** 19) is None  # 19 digits
    assert read_dimacs(f"p cnf {10 ** 19} 1\n9{big}\n").clauses == \
        ((9999999999999999999, -1),)


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


# the extension searches of perfbench's sat-search workload, and one whose
# prototype's fixed lengths already hold an edge of colour 1
@pytest.mark.parametrize("proto, t, avoid", [
    (LengthColouring(CYCLIC, 8, 2, (1, 2, 2, 1)), 3, (3, 4, 3)),
    (paley_colouring(13), 3, (4, 4, 3)),
    (paley_colouring(13), 4, (4, 4, 3)),
    (pentagon(), 2, (3, 3, 3)),
    (pentagon(), 3, (3, 3, 3)),
    (pentagon(), 2, (2, 3, 3)),
])
def test_listed_clause_is_the_refinement_clause(proto, t, avoid):
    """The encoder lists, for each clique through 0 whose lengths are free
    or fixed to s, the very tuple that `search_template` adds when a
    candidate holds that clique in colour s, so eager and lazy clauses for
    one clique are one clause.  A clique of fixed lengths alone has no
    refinement clause, and the listing then holds the empty clause."""
    spec = SearchSpec(proto, t, avoid)
    inst = encode_extension(spec)
    clauses = set(inst.clauses)
    n, N = proto.order, spec.target_order
    for s, k in enumerate(avoid, start=1):
        for rest in combinations(range(1, N), k - 1):
            lengths = [j - i for i, j in combinations((0,) + rest, 2)]
            folded = {fold_length(d, n, t) for d in lengths}
            if any(inst.fixed.get(l, s) != s for l in folded):
                continue
            cl = sat._violation_clause(lengths, s, inst)
            if folded <= set(inst.fixed):
                assert cl is None and () in clauses, (s, rest)
            else:
                assert cl in clauses, (s, rest)
