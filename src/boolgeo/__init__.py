"""Equation solving and algebraic-set classification over finite boolean
algebras.

The pipeline: parse a boolean equation system (:mod:`boolgeo.syntax`),
reduce it to its canonical orthogonal form (:mod:`boolgeo.ortho`),
enumerate or count solutions over an algebra of any rank
(:mod:`boolgeo.solve`), classify the solution set
(:mod:`boolgeo.geometry`) and verify the exact counting formulas
(:mod:`boolgeo.stats`).
"""

# The submodule that defines each public name.  A name is imported from it
# when first read (PEP 562), so that ``import boolgeo`` loads no submodule
# and each command of ``boolgeo.cli`` loads only the modules it uses.
_SOURCES = {
    "algebra": (
        "MAX_RANK",
        "Element",
        "atoms",
        "complement",
        "elements",
        "format_element",
        "join",
        "meet",
        "parse_element",
    ),
    "errors": (
        "BoolgeoError",
        "InconsistentSystemError",
        "LimitExceededError",
        "MissingVariableError",
        "ParseError",
        "RankMismatchError",
        "SystemMismatchError",
    ),
    "geometry": (
        "Decomposition",
        "are_isomorphic",
        "coordinate_atoms",
        "coordinate_rank",
        "decompose",
        "irr_count",
        "irreducibility_rank",
        "is_irreducible",
    ),
    "ortho": (
        "DEFAULT_MAX_VARS",
        "MintermIndex",
        "OrthogonalSystem",
        "XPoint",
        "ZPoint",
        "bits_to_index",
        "format_minterm",
        "index_to_bits",
        "orthogonalize",
        "truth_table",
        "x_from_z",
        "z_from_x",
    ),
    "solve": (
        "count_solutions",
        "eval_term",
        "is_consistent",
        "satisfies",
        "solutions_x",
        "solutions_z",
    ),
    "stats": (
        "ExactRational",
        "asymptotic_irr",
        "avg_ir_rank",
        "avg_irr_closed",
        "avg_irr_exhaustive",
        "iso_pair_asymptotic",
        "iso_pair_probability",
        "sample_ortho",
        "sample_systems",
    ),
    "syntax": (
        "Complement",
        "Const",
        "Equation",
        "Join",
        "Meet",
        "System",
        "Term",
        "Var",
        "format_equation",
        "format_system",
        "format_term",
        "parse_system",
        "parse_term",
    ),
}
_SOURCE = {name: module for module, names in _SOURCES.items() for name in names}
_SUBMODULES = {*_SOURCES, "cli"}

__version__ = "0.1.0"

__all__ = [
    "BoolgeoError",
    "Complement",
    "Const",
    "Decomposition",
    "DEFAULT_MAX_VARS",
    "Element",
    "Equation",
    "ExactRational",
    "InconsistentSystemError",
    "Join",
    "LimitExceededError",
    "MAX_RANK",
    "Meet",
    "MintermIndex",
    "MissingVariableError",
    "OrthogonalSystem",
    "ParseError",
    "RankMismatchError",
    "System",
    "SystemMismatchError",
    "Term",
    "Var",
    "XPoint",
    "ZPoint",
    "are_isomorphic",
    "asymptotic_irr",
    "atoms",
    "avg_ir_rank",
    "avg_irr_closed",
    "avg_irr_exhaustive",
    "bits_to_index",
    "complement",
    "coordinate_atoms",
    "coordinate_rank",
    "count_solutions",
    "decompose",
    "elements",
    "eval_term",
    "format_element",
    "format_equation",
    "format_minterm",
    "format_system",
    "format_term",
    "index_to_bits",
    "irr_count",
    "irreducibility_rank",
    "is_consistent",
    "is_irreducible",
    "iso_pair_asymptotic",
    "iso_pair_probability",
    "join",
    "meet",
    "orthogonalize",
    "parse_element",
    "parse_system",
    "parse_term",
    "sample_ortho",
    "sample_systems",
    "satisfies",
    "solutions_x",
    "solutions_z",
    "truth_table",
    "x_from_z",
    "z_from_x",
]


def __getattr__(name: str):
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
