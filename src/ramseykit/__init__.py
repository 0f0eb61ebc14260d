"""Multicolour Ramsey lower bounds: colourings, clique verification,
compound constructions, SAT encodings, and a derivation ledger."""

from .colouring import (
    ColouringError,
    ExplicitColouring,
    LengthColouring,
    check_cyclic_symmetry,
    cyclic_length,
    expand_to_explicit,
    load_colouring,
    multipliers,
    parse_colouring,
    pentagon,
    save_colouring,
    serialize_colouring,
    single_edge,
    to_cyclic,
)
from .cliques import (
    CliqueReport,
    colour_degree,
    max_clique_brute,
    max_clique_in_colour,
    neighbourhood_restrict,
    ramsey_check,
)
from .templates import (
    TemplateFailure,
    TemplateGraph,
    covering_q,
    double_to_template,
    is_tf_template,
    repetition_check,
    template_usable,
    validate_template,
)
from .constructions import (
    paley_colouring,
    product_cyclic,
    product_linear,
    song_product,
    template_compound,
)
from .sat import (
    CnfInstance,
    SearchSpec,
    encode_cyclic,
    encode_extension,
    encode_linear,
    parse_model,
    search_template,
    solve_internal,
    write_dimacs,
)
from .ledger import BoundFact, GammaValue, Ledger, load_seed_pack

__all__ = [name for name in dir() if not name.startswith("_")]
