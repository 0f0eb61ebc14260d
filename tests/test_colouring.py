import json
import random
import re

import numpy as np
import pytest

from ramseykit.colouring import (
    ColouringError,
    ExplicitColouring,
    LengthColouring,
    check_cyclic_symmetry,
    expand_to_explicit,
    explicit_from_upper_triangle,
    length_colours,
    length_domain_size,
    load_colouring,
    parse_colouring,
    pentagon,
    save_colouring,
    serialize_colouring,
    single_edge,
    to_cyclic,
)

from conftest import cyclic_length, random_colouring


def test_cyclic_length_basics():
    assert cyclic_length(0, 1, 5) == 1
    assert cyclic_length(0, 4, 5) == 1
    assert cyclic_length(1, 3, 5) == 2
    assert cyclic_length(3, 1, 5) == 2
    assert cyclic_length(0, 3, 6) == 3


def test_length_domain_size():
    assert length_domain_size("linear", 10) == 9
    assert length_domain_size("cyclic", 10) == 5
    assert length_domain_size("cyclic", 11) == 5


def test_pentagon_shape():
    p = pentagon()
    assert p.kind == "cyclic"
    assert p.order == 5
    assert p.num_colours == 2
    assert length_colours(p).tolist() == [1, 2, 2, 1]
    assert p.colour_class(1) == {1}  # stored lengths only
    assert p.as_linear().colour_class(1) == {1, 4}
    assert p.as_linear().colour_class(2) == {2, 3}


def test_single_edge_shape():
    e = single_edge()
    assert e.kind == "linear"
    assert e.order == 2
    assert length_colours(e).tolist() == [1]


def test_constructor_validation():
    with pytest.raises(ColouringError):
        LengthColouring("diagonal", 5, 2, (1, 2))
    with pytest.raises(ColouringError):
        LengthColouring("cyclic", 5, 2, (1,))  # wrong tuple size
    with pytest.raises(ColouringError):
        LengthColouring("cyclic", 5, 2, (1, 3))  # colour out of range
    with pytest.raises(ColouringError):
        LengthColouring("linear", 1, 1, ())
    # save_colouring once wrote True, which is not JSON, and 1.0, which
    # parse_colouring refuses
    for bad in (True, 1.0):
        with pytest.raises(ColouringError, match=re.escape(
                f"colours[1]: colour {bad!r} is not an integer")):
            LengthColouring("linear", 3, 2, (1, bad))


def test_as_linear_expands_reflection():
    lin = pentagon().as_linear()
    assert lin.kind == "linear"
    assert lin.colour_of == (1, 2, 2, 1)
    # already linear: identity
    assert lin.as_linear() is lin


def test_expand_to_explicit_symmetry():
    g = expand_to_explicit(pentagon())
    assert isinstance(g, ExplicitColouring)
    assert g.order == 5
    for i in range(5):
        for j in range(5):
            if i != j:
                assert g.edge_colour[i][j] == g.edge_colour[j][i]
                expected = 1 if cyclic_length(i, j, 5) == 1 else 2
                assert g.edge_colour[i][j] == expected


def test_cyclic_symmetry_check_and_conversion():
    lin = pentagon().as_linear()
    assert check_cyclic_symmetry(lin)
    back = to_cyclic(lin)
    assert back.kind == "cyclic"
    assert back.colour_of == (1, 2)

    broken = LengthColouring("linear", 5, 2, (1, 2, 2, 2))
    assert not check_cyclic_symmetry(broken)
    with pytest.raises(ColouringError):
        to_cyclic(broken)


def test_serialize_canonical_layout():
    text = serialize_colouring(pentagon())
    assert text.endswith("\n")
    data = json.loads(text)
    assert list(data) == ["kind", "order", "num_colours", "avoid", "colours"]
    # key order is fixed, so serialization is byte-deterministic
    assert text == serialize_colouring(pentagon())


def _serialize_cases():
    p = pentagon()
    yield p
    yield LengthColouring("cyclic", 5, 2, (1, 2))
    yield LengthColouring("linear", 4, 3, (3, 1, 2), avoid=(3, 4, 5),
                          template_colour=2, comment='doubled "C5"\n\u00e9')
    yield LengthColouring("linear", 2, 1, (1,), template_colour=1)
    yield LengthColouring("cyclic", 3, 1, (1,), comment="")
    yield expand_to_explicit(p)
    yield explicit_from_upper_triangle(3, 2, [1, 2, 1], avoid=(3, 3),
                                       comment="three\tvertices")
    yield ExplicitColouring(1, 1, [[0]])
    yield ExplicitColouring(0, 2, np.zeros((0, 0)), avoid=(2, 2))


def test_serialize_is_json_dumps_with_indent_2():
    """Length and explicit colourings, with and without avoid,
    template_colour and comment, and empty colour lists: the bytes are
    json.dumps(obj, indent=2) + newline of the same fields."""
    for c in _serialize_cases():
        obj = {"kind": getattr(c, "kind", "explicit"), "order": c.order,
               "num_colours": c.num_colours}
        if c.avoid is not None:
            obj["avoid"] = list(c.avoid)
        obj["colours"] = (list(c.colour_of) if isinstance(c, LengthColouring)
                          else c.upper_triangle())
        if getattr(c, "template_colour", None) is not None:
            obj["template_colour"] = c.template_colour
        if c.comment is not None:
            obj["comment"] = c.comment
        assert serialize_colouring(c) == json.dumps(obj, indent=2) + "\n"
    assert '"colours": []' in serialize_colouring(ExplicitColouring(
        0, 1, np.zeros((0, 0))))


@pytest.mark.parametrize("field, value, message", [
    ("colours", [True, 2], "colours: expected a list of integers"),
    ("avoid", [3, True], "avoid: expected a list of integers"),
    ("template_colour", True, "template_colour: expected an integer"),
])
def test_parse_rejects_booleans(field, value, message):
    obj = {"kind": "cyclic", "order": 5, "num_colours": 2, "avoid": [3, 3],
           "colours": [1, 2], field: value}
    with pytest.raises(ColouringError, match=message):
        parse_colouring(json.dumps(obj))


def test_parse_roundtrip():
    p = pentagon()
    assert parse_colouring(serialize_colouring(p)) == p
    lin = p.as_linear()
    assert parse_colouring(serialize_colouring(lin)) == lin


def test_parse_explicit_roundtrip():
    g = explicit_from_upper_triangle(3, 2, [1, 2, 1])
    text = serialize_colouring(g)
    back = parse_colouring(text)
    assert back.order == 3
    assert (back.edge_colour == g.edge_colour).all()


def test_parse_rejects_bad_documents():
    with pytest.raises(ColouringError, match="kind"):
        parse_colouring('{"kind": "weird", "order": 5, "num_colours": 2, "colours": [1, 2]}')
    with pytest.raises(ColouringError, match="colours"):
        parse_colouring('{"kind": "cyclic", "order": 5, "num_colours": 2, "colours": [1]}')
    with pytest.raises(ColouringError):
        parse_colouring("not json at all")


def test_save_load_roundtrip(tmp_path):
    path = tmp_path / "pent.json"
    save_colouring(pentagon(), path)
    assert load_colouring(path) == pentagon()


def test_random_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        kind = rng.choice(["linear", "cyclic"])
        c = random_colouring(rng, kind, rng.randint(3, 12), rng.randint(1, 4))
        assert parse_colouring(serialize_colouring(c)) == c
