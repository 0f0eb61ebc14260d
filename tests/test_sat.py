import hashlib
import random
import time

import pytest

from ramseykit import sat, templates
from ramseykit.cliques import ramsey_check
from ramseykit.colouring import (
    CYCLIC,
    ColouringError,
    LengthColouring,
    length_domain_size,
    pentagon,
)
from ramseykit.constructions import paley_colouring
from ramseykit.sat import (
    ClauseCapError,
    EncodingError,
    ModelError,
    SearchSpec,
    decode_model,
    encode_cyclic,
    encode_extension,
    encode_linear,
    fold_length,
    parse_model,
    read_dimacs,
    search_template,
    solve_internal,
    write_dimacs,
)

from conftest import all_cyclic_colourings, all_linear_colourings

GOLDEN_SHA_M5 = "36192eba9c0615afdfd0c1506842e4eefa8c9ab3748d450516824acccb8afd16"
GOLDEN_SHA_M6 = "061eb93191acf613db27b9f97ebe88b17b83d4929482b111805b5ac424a34530"


def _exists(kind, order, avoid):
    gen = all_cyclic_colourings if kind == "cyclic" else all_linear_colourings
    return any(ramsey_check(c, avoid).passes for c in gen(order, len(avoid)))


def _cyclic34_prototype():
    inst = encode_cyclic(8, (3, 4))
    result = solve_internal(inst)
    assert result.status == "SAT"
    return decode_model(result.model, inst)


def test_solver_agrees_with_enumeration():
    cases = [
        ("cyclic", m, avoid)
        for m in range(4, 10) for avoid in ((3, 3), (3, 4))
    ] + [
        ("linear", m, avoid)
        for m in range(4, 9) for avoid in ((3, 3), (3, 4))
    ]
    for kind, m, avoid in cases:
        inst = encode_cyclic(m, avoid) if kind == "cyclic" else encode_linear(m, avoid)
        result = solve_internal(inst)
        expected = "SAT" if _exists(kind, m, avoid) else "UNSAT"
        assert result.status == expected, (kind, m, avoid)
        if result.status == "SAT":
            model = decode_model(result.model, inst)
            assert model.kind == kind and model.order == m
            assert ramsey_check(model, avoid).passes


def test_three_colour_order_14():
    inst = encode_cyclic(14, (3, 3, 3))
    result = solve_internal(inst)
    assert result.status == "SAT"
    assert ramsey_check(decode_model(result.model, inst), (3, 3, 3)).passes


def test_var_map_layout():
    inst = encode_cyclic(5, (3, 3))
    vm = inst.var_map
    assert vm.free_lengths == (1, 2)
    assert vm.num_vars == 4
    assert vm.id(1, 1) == 1 and vm.id(2, 2) == 4
    for v in range(1, 5):
        l, s = vm.decode(v)
        assert vm.id(l, s) == v


def test_clause_cap():
    with pytest.raises(ClauseCapError):
        encode_cyclic(30, (5, 5), clause_cap=100)


def test_dimacs_deterministic_and_golden():
    doc5a = write_dimacs(encode_cyclic(5, (3, 3)))
    doc5b = write_dimacs(encode_cyclic(5, (3, 3)))
    assert doc5a == doc5b
    assert hashlib.sha256(doc5a.encode()).hexdigest() == GOLDEN_SHA_M5
    doc6 = write_dimacs(encode_cyclic(6, (3, 3)))
    assert hashlib.sha256(doc6.encode()).hexdigest() == GOLDEN_SHA_M6


def test_dimacs_roundtrip():
    for inst in (encode_cyclic(7, (3, 3)), encode_linear(5, (3, 3))):
        text = write_dimacs(inst)
        back = read_dimacs(text)
        assert write_dimacs(back) == text
        assert back.meta == inst.meta
        assert back.var_map.free_lengths == inst.var_map.free_lengths


def test_read_dimacs_ignores_map_lines():
    for inst in (encode_cyclic(7, (3, 3)), encode_linear(5, (3, 3)),
                 encode_extension(SearchSpec(PROTO8, 5, (4, 4, 3)))):
        text = write_dimacs(inst)
        bare = "".join(line for line in text.splitlines(keepends=True)
                       if not line.startswith("c map "))
        back = read_dimacs(bare)
        assert back.var_map == inst.var_map
        assert write_dimacs(back) == text


def test_parse_model_sat_document():
    inst = encode_cyclic(5, (3, 3))
    doc = "c solver chatter\ns SATISFIABLE\nv 1 -2 -3 4 0\n"
    model = parse_model(doc, inst)
    assert model is not None
    assert model.colour_of == (1, 2)


def test_parse_model_unsat_document():
    inst = encode_cyclic(6, (3, 3))
    assert parse_model("s UNSATISFIABLE\n", inst) is None


def test_parse_model_malformed():
    inst = encode_cyclic(5, (3, 3))
    with pytest.raises(ModelError):
        parse_model("v 1 two 0\n", inst)
    with pytest.raises(ModelError):
        parse_model("s SATISFIABLE\n", inst)  # no literals at all


def test_decode_model_conflicting_assignment():
    inst = encode_cyclic(5, (3, 3))
    with pytest.raises(ModelError):
        decode_model([1, 2, 3, 4], inst)  # both colours true on length 1


def test_fold_length_is_idempotent():
    for n, t in ((5, 1), (5, 2), (5, 3), (8, 3), (8, 5)):
        N = 2 * n + t
        for l in range(1, N):
            canon = fold_length(l, n, t)
            assert 1 <= canon <= N - 1
            assert fold_length(canon, n, t) == canon
    with pytest.raises(EncodingError):
        fold_length(0, 5, 2)


@pytest.mark.parametrize("encode", [encode_cyclic, encode_linear])
def test_free_encoding_refuses_an_empty_avoid(encode):
    """An instance with no colours would be written with a `c meta` avoid
    that `read_dimacs` refuses, so the encoder refuses it first."""
    with pytest.raises(ColouringError,
                       match="avoid: at least one clique bound is needed"):
        encode(5, ())


def test_extension_width_one_is_fully_determined():
    spec = SearchSpec(pentagon(), 1, (3, 3, 3))
    inst = encode_extension(spec)
    assert inst.num_vars == 0
    assert solve_internal(inst).status == "UNSAT"


def test_extension_width_two_frees_one_length():
    spec = SearchSpec(pentagon(), 2, (3, 3, 3))
    inst = encode_extension(spec)
    assert inst.var_map.free_lengths == (6,)
    assert inst.num_vars == 3
    assert inst.fixed == {1: 1, 2: 2, 3: 2, 4: 1, 5: 3, 7: 3, 8: 3}


def test_search_spec_validation():
    with pytest.raises(EncodingError):
        SearchSpec(pentagon().as_linear(), 2, (3, 3, 3))
    with pytest.raises(EncodingError):
        SearchSpec(pentagon(), 0, (3, 3, 3))
    with pytest.raises(ColouringError,
                       match="avoid: expected 3 bounds, got 2"):
        SearchSpec(pentagon(), 2, (3, 3))


def test_search_template_exhausts_pentagon():
    spec = SearchSpec(pentagon(), 2, (3, 3, 3))
    result = search_template(spec)
    assert result.status == "none"
    assert result.template is None


def test_search_template_finds_known_case():
    proto = _cyclic34_prototype()
    assert proto.colour_of == (1, 2, 2, 1)
    spec = SearchSpec(proto, 3, (3, 4, 3))
    result = search_template(spec)
    assert result.status == "found"
    assert result.iterations == 1
    T = result.template
    assert T.order == 19
    assert T.phi == 7
    assert ramsey_check(T.base, (3, 4, 3)).passes
    assert T.base.colour_of == (
        1, 2, 2, 1, 2, 2, 1, 3, 1, 2, 3, 3, 3, 3, 3, 2, 1, 3)


def test_solver_counts_work():
    result = solve_internal(encode_cyclic(17, (3, 3, 3)))
    assert result.status == "UNSAT"
    assert result.conflicts > 0


def test_solver_budget_gives_unknown():
    result = solve_internal(encode_cyclic(17, (3, 3, 3)), conflict_budget=2)
    assert result.status == "UNKNOWN"


@pytest.mark.parametrize("encode, m, avoid, budget, want", [
    (encode_linear, 15, (3, 3, 3), None, ("UNSAT", 180, 179, None)),
    (encode_cyclic, 22, (3, 3, 4), None, ("SAT", 34, 40, "66aa88c8df9f749c")),
    (encode_cyclic, 24, (3, 3, 4), None, ("SAT", 284, 291, "6f0b8e90f57626d5")),
    (encode_cyclic, 37, (3, 3, 5), None, ("SAT", 24, 37, "bda0d041d6d9ae4f")),
    (encode_cyclic, 27, (3, 3, 4), 700, ("UNKNOWN", 701, 704, None)),
])
def test_solver_search_is_pinned(encode, m, avoid, budget, want):
    """Status, work counters and model of the chronological search: a
    rewrite that keeps the clause scan and decision order keeps all four."""
    kwargs = {} if budget is None else {"conflict_budget": budget}
    result = solve_internal(encode(m, avoid), **kwargs)
    digest = None if result.model is None else \
        hashlib.sha256(repr(result.model).encode()).hexdigest()[:16]
    assert (result.status, result.conflicts, result.decisions, digest) == want


def test_solver_decisions_are_linear_in_variables():
    """Each decision resumes the decision order where the last one stopped:
    50,000 free variables take 50,000 decisions in about 0.1 s, where a scan
    from the start each time would take tens of seconds."""
    start = time.perf_counter()
    result = solve_internal(read_dimacs("p cnf 50000 0\n"))
    assert time.perf_counter() - start < 2.0
    assert (result.status, result.conflicts, result.decisions) == \
        ("SAT", 0, 50000)
    assert result.model == tuple(range(1, 50001))


PROTO8 = LengthColouring("cyclic", 8, 2, (1, 2, 2, 1))
EXHAUSTED = "exhausted, no template exists in this encoding"


@pytest.mark.parametrize("proto, t, avoid, log", [
    # tf-triangle refinements only
    (pentagon(), 5, (3, 3, 4), [
        "iteration 1: template triangle at lengths (5, 7, 12), refined",
        "iteration 2: template triangle at lengths (5, 6, 11), refined",
        "iteration 3: template triangle at lengths (5, 5, 10), refined",
        f"iteration 4: {EXHAUSTED}"]),
    # two repetition refinements
    (PROTO8, 5, (4, 4, 3), [
        "iteration 1: repetition q=2 failed, refined",
        "iteration 2: repetition q=2 failed, refined",
        f"iteration 3: {EXHAUSTED}"]),
    (paley_colouring(17), 2, (4, 5, 3), [
        "iteration 1: repetition q=2 failed, refined",
        f"iteration 2: {EXHAUSTED}"]),
])
def test_search_template_refinement_logs(proto, t, avoid, log):
    result = search_template(SearchSpec(proto, t, avoid))
    assert (result.status, result.iterations, result.log) == \
        ("none", len(log), log)


def test_failed_repetition_tiles_once(monkeypatch):
    """Each repetition check builds one tiling and runs one clique search;
    a failure's refinement clause reuses that search's witness."""
    counts = {"checks": 0, "tilings": 0, "searches": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for attr, name in (("repetition_check", "checks"),
                       ("tiled_colouring", "tilings"),
                       ("ramsey_check", "searches")):
        monkeypatch.setattr(templates, attr,
                            counting(name, getattr(templates, attr)))
    result = search_template(SearchSpec(PROTO8, 5, (4, 4, 3)))
    assert result.log.count("iteration 1: repetition q=2 failed, refined") == 1
    # two candidates, each passing q=1 and failing q=2
    assert counts == {"checks": 4, "tilings": 4, "searches": 4}


def test_search_template_stops_after_max_iterations(monkeypatch):
    monkeypatch.setattr(sat, "MAX_ITERATIONS", 1)
    result = search_template(SearchSpec(PROTO8, 5, (4, 4, 3)))
    assert (result.status, result.iterations, result.template) == \
        ("budget", 1, None)
    assert result.log == ["iteration 1: repetition q=2 failed, refined",
                          "stopped after 1 iterations"]


def test_template_triangle_on_fixed_lengths_is_unsatisfiable_as_posed():
    """Length 3 is fixed to the template colour, and 3 + 3 = 6 folds onto
    it: no clause can block the triangle."""
    proto = LengthColouring(CYCLIC, 3, 3, (3,))
    result = search_template(SearchSpec(proto, 1, (2, 4, 4, 4)))
    assert (result.status, result.iterations, result.log) == ("none", 1, [
        "iteration 1: template triangle at lengths (3, 3, 6); "
        "unsatisfiable as posed"])


def _random_extension_spec(rng):
    r = rng.choice((1, 2))
    n = rng.randint(3, 8)
    colours = tuple(rng.randint(1, r)
                    for _ in range(length_domain_size(CYCLIC, n)))
    return SearchSpec(LengthColouring(CYCLIC, n, r, colours),
                      rng.randint(1, 2 * n - 1),
                      tuple(rng.randint(3, 5) for _ in range(r + 1)))


def test_decoded_candidates_pass_the_clique_check(monkeypatch):
    """Why `search_template` runs no clique check of `spec.avoid`: the
    encoder blocks every monochromatic clique through 0, so each decoded
    candidate, refined or not, already passes it."""
    candidates = []

    def checked(lits, instance):
        colouring = decode_model(lits, instance)
        candidates.append(ramsey_check(colouring, spec.avoid).passes)
        return colouring

    monkeypatch.setattr(sat, "decode_model", checked)
    refined = 0
    for seed in range(300):
        spec = _random_extension_spec(random.Random(seed))
        result = search_template(spec, conflict_budget=20_000)
        refined += any(line.endswith(", refined") for line in result.log)
    assert all(candidates)
    assert len(candidates) > 150 and refined > 30


def test_top_length_folds_onto_the_template_colour():
    """Why no template search needs a top-length constraint: N-1 folds onto
    length n, which every extension fixes to the template colour."""
    for proto in (pentagon(), PROTO8, paley_colouring(13)):
        n = proto.order
        for t in range(1, 2 * n):
            spec = SearchSpec(proto, t, (3,) * (proto.num_colours + 1))
            assert fold_length(spec.target_order - 1, n, t) == n
            assert sat._extension_fixed(spec)[n] == spec.template_colour == \
                proto.num_colours + 1
