"""Exact algebraic statistics: likelihood correspondences of discrete models.

The package computes, over the rationals and without any floating
point, the likelihood ideal of a statistical model — the equations
tying a model point p to the data u for which p is a critical point of
the likelihood — along with maximum-likelihood degrees, toric ideals
of monomial parametrizations, log-linear and graphical model matrices,
and the Groebner machinery underneath.
"""

from .errors import (
    AlgstatError,
    DegenerateFiberError,
    GuardrailError,
    InputError,
    NotBinomialIdealError,
    ParseError,
    UnstableCountError,
)
from .exactmath import (
    IntMatrix,
    det,
    format_int_matrix,
    hnf,
    integer_kernel,
    lattice_span_equal,
    parse_int_matrix,
)
from .ring import (
    GREVLEX,
    LEX,
    MonomialOrder,
    PolyRing,
    Polynomial,
    map_to_ring,
    parse_polynomial,
    print_polynomial,
)
from .groebner import (
    GroebnerBasis,
    Ideal,
    buchberger,
    eliminate,
    format_ideal,
    ideal_contains,
    ideal_equal,
    intersect,
    is_zero_dimensional,
    krull_dimension,
    minors,
    normal_form,
    parse_ideal_text,
    quotient_dimension,
    s_polynomial,
    saturate,
    saturate_by_product,
)
from .models import (
    DiscreteRandomVariable,
    ModelGraph,
    SplitMix64,
    derive_seed,
    maximal_cliques,
    parse_model_json,
)
from .toric import (
    ToricModel,
    make_loglinear_matrix,
    rational_normal_scroll,
    toric_ideal,
    toric_model,
    toric_polytope,
)
from .likelihood import (
    LikelihoodIdeal,
    compute_lc,
    compute_lc_general,
    compute_lc_toric,
    lc_ring,
    ml_degree,
)
from .cli import emit_json, load_model, run

__version__ = "0.1.0"

__all__ = [
    "AlgstatError",
    "DegenerateFiberError",
    "GuardrailError",
    "InputError",
    "NotBinomialIdealError",
    "ParseError",
    "UnstableCountError",
    "IntMatrix",
    "det",
    "format_int_matrix",
    "hnf",
    "integer_kernel",
    "lattice_span_equal",
    "parse_int_matrix",
    "GREVLEX",
    "LEX",
    "MonomialOrder",
    "PolyRing",
    "Polynomial",
    "map_to_ring",
    "parse_polynomial",
    "print_polynomial",
    "GroebnerBasis",
    "Ideal",
    "buchberger",
    "eliminate",
    "format_ideal",
    "ideal_contains",
    "ideal_equal",
    "intersect",
    "is_zero_dimensional",
    "krull_dimension",
    "minors",
    "normal_form",
    "parse_ideal_text",
    "quotient_dimension",
    "s_polynomial",
    "saturate",
    "saturate_by_product",
    "DiscreteRandomVariable",
    "ModelGraph",
    "SplitMix64",
    "derive_seed",
    "maximal_cliques",
    "parse_model_json",
    "ToricModel",
    "make_loglinear_matrix",
    "rational_normal_scroll",
    "toric_ideal",
    "toric_model",
    "toric_polytope",
    "LikelihoodIdeal",
    "compute_lc",
    "compute_lc_general",
    "compute_lc_toric",
    "lc_ring",
    "ml_degree",
    "emit_json",
    "load_model",
    "run",
    "__version__",
]
