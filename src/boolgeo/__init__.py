"""Equation solving and algebraic-set classification over finite boolean
algebras.

The pipeline: parse a boolean equation system (:mod:`boolgeo.syntax`),
reduce it to its canonical orthogonal form (:mod:`boolgeo.ortho`),
enumerate or count solutions over an algebra of any rank
(:mod:`boolgeo.solve`), classify the solution set
(:mod:`boolgeo.geometry`) and give the exact counting formulas of the
uniform model over all orthogonal systems (:mod:`boolgeo.stats`).
"""

# The submodule that defines each public name, and the one list of those
# names: ``__all__`` is derived from it.  A name is imported from its
# submodule when first read (PEP 562), so that ``import boolgeo`` loads no
# submodule and each command of ``boolgeo.cli`` loads only the modules it
# uses.
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

__all__ = sorted(_SOURCE, key=lambda name: (name[0].islower(), name.casefold()))


def __getattr__(name: str):
    if name in _SUBMODULES:
        source = name
    elif name in _SOURCE:
        source = _SOURCE[name]
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import statement's own machinery, which ``python -X importtime``
    # reports and importlib.import_module bypasses; it binds the submodule
    # as an attribute of this package.
    __import__(f"{__name__}.{source}")
    module = globals()[source]
    if name == source:
        return module
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
