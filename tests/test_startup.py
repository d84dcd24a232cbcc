"""What a fresh interpreter imports to start the command line, the lazy
package namespace, and a reader that closes standard output early."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import boolgeo

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Modules the argument parser never needs; each costs milliseconds to import.
HEAVY = ("dataclasses", "inspect", "fractions", "decimal", "csv", "json", "typing", "boolgeo.stats")

# The public names, in their documented order.
ALL = [
    "BoolgeoError", "Complement", "Const", "Decomposition", "DEFAULT_MAX_VARS", "Element",
    "Equation", "ExactRational", "InconsistentSystemError", "Join", "LimitExceededError",
    "MAX_RANK", "Meet", "MintermIndex", "MissingVariableError", "OrthogonalSystem",
    "ParseError", "RankMismatchError", "System", "SystemMismatchError", "Term", "Var",
    "XPoint", "ZPoint", "are_isomorphic", "asymptotic_irr", "atoms", "avg_ir_rank",
    "avg_irr_closed", "avg_irr_exhaustive", "bits_to_index", "complement", "coordinate_atoms",
    "coordinate_rank", "count_solutions", "decompose", "elements", "eval_term",
    "format_element", "format_equation", "format_minterm", "format_system", "format_term",
    "index_to_bits", "irr_count", "irreducibility_rank", "is_consistent", "is_irreducible",
    "iso_pair_asymptotic", "iso_pair_probability", "join", "meet", "orthogonalize",
    "parse_element", "parse_system", "parse_term", "sample_ortho", "sample_systems",
    "satisfies", "solutions_x", "solutions_z", "truth_table", "x_from_z", "z_from_x",
]  # fmt: skip


def fresh_modules(code: str) -> set[str]:
    """The modules a new interpreter (without site) holds after ``code``
    runs with the package sources first on sys.path."""
    script = f"import sys; sys.path.insert(0, {SRC!r}); {code}; print(*sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def boolgeo_modules(modules: set[str]) -> set[str]:
    return {name for name in modules if name.split(".")[0] == "boolgeo"}


def test_building_the_parser_imports_no_heavy_module():
    modules = fresh_modules("import boolgeo.cli; boolgeo.cli.build_parser()")
    assert not modules & set(HEAVY)


def test_bare_import_loads_no_submodule():
    assert boolgeo_modules(fresh_modules("import boolgeo")) == {"boolgeo"}


# A fresh run of each command: stats adds its own module, and no other
# command loads a boolgeo module that building the parser does not.
COMMANDS = {
    "orthogonalize": ["orthogonalize", "-e", "x1 * x2 = x2"],
    "orthogonalize-json": ["orthogonalize", "--format", "text", "-e", '{"n": 2, "A": [2]}'],
    "solve": ["solve", "--rank", "2", "--limit", "5", "-e", "x1 * x2 = x2"],
    "decompose": ["decompose", "--rank", "1", "-e", "x1 = x1"],
    "classify": ["classify", "--rank", "2", "-e", "x1 + x2 = 1"],
    "iso": ["iso", "-e", "x1 = 1", "-e", "x1 = 0"],
    "stats": ["stats", "--avg-ir", "4"],
}


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS)
def test_commands_load_the_parser_modules(argv):
    parser = boolgeo_modules(fresh_modules("import boolgeo.cli; boolgeo.cli.build_parser()"))
    modules = fresh_modules(f"import boolgeo.cli; boolgeo.cli.main({argv!r})")
    assert boolgeo_modules(modules) == parser | ({"boolgeo.stats"} if argv[0] == "stats" else set())
    assert not modules & {"dataclasses", "inspect", "typing"}


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS)
def test_well_formed_commands_build_no_argparse_parser(argv):
    # The option table's reader parses these; argparse, and the gettext
    # and locale lookups its parsers make, are left to help and errors.
    modules = fresh_modules(f"import boolgeo.cli; boolgeo.cli.main({argv!r})")
    assert not modules & {"argparse", "gettext", "locale"}


def test_importtime_lists_every_boolgeo_module_loaded():
    # Submodules the package imports on attribute access (cli's
    # ``from . import geometry``) appear in the listing like the others.
    script = f"import sys; sys.path.insert(0, {SRC!r}); import boolgeo.cli; print(*sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = boolgeo_modules(set(proc.stdout.split()))
    listed = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if "|" in line}
    assert "boolgeo.geometry" in loaded
    assert loaded <= listed


def test_every_public_name_resolves():
    assert boolgeo.__all__ == ALL
    for name in ALL:
        getattr(boolgeo, name)
    assert set(ALL) <= set(dir(boolgeo))
    assert boolgeo.Element is boolgeo.algebra.Element
    assert boolgeo.avg_ir_rank is boolgeo.stats.avg_ir_rank


def test_star_import():
    namespace = {}
    exec("from boolgeo import *", namespace)
    assert set(ALL) <= set(namespace)
    assert namespace["Element"] is boolgeo.algebra.Element


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        boolgeo.nope  # noqa: B018


def test_submodules_resolve_as_attributes():
    modules = fresh_modules(
        "import boolgeo; assert boolgeo.stats.avg_ir_rank(2) == 1; assert boolgeo.ortho.mask_text"
    )
    assert {"boolgeo.stats", "boolgeo.ortho"} <= modules
    assert "boolgeo.cli" not in modules


CLI = f"import sys; sys.path.insert(0, {SRC!r}); from boolgeo.cli import main; sys.exit(main())"
# Buffered stdout, as a pipe gets it by default.
BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


@pytest.mark.parametrize(
    "argv,code,out,err",
    [
        (["--help"], 0, "usage: boolgeo [-h] command ...\n", ""),
        (["decompose"], 4, "", "error: the following arguments are required: --rank\n"),
    ],
)
def test_help_and_usage_errors_in_a_fresh_process(argv, code, out, err):
    proc = subprocess.run(
        [sys.executable, "-S", "-c", CLI, *argv], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == code
    assert proc.stdout.startswith(out) and proc.stderr == err


@pytest.mark.parametrize("env", [BUFFERED, {**BUFFERED, "PYTHONUNBUFFERED": "1"}], ids=["buffered", "unbuffered"])
def test_closed_stdout_ends_quietly_with_exit_zero(env):
    # 2**16 points far overfill the pipe, so the writer meets the closed end.
    proc = subprocess.Popen(
        [sys.executable, "-c", CLI, "solve", "--rank", "16", "-e", "x1 = x1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert proc.stdout.readline() == b"x1={}\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == b""


@pytest.mark.parametrize("env", [BUFFERED, {**BUFFERED, "PYTHONUNBUFFERED": "1"}], ids=["buffered", "unbuffered"])
def test_stdout_closed_before_a_short_output_ends_quietly(env):
    # The reader is gone before the interpreter has started, so the output
    # meets the closed pipe when it is flushed, or written when unbuffered.
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CLI, "solve", "--rank", "2", "--limit", "5", "-e", "x1 = x1"],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_an_error_keeps_its_exit_code_when_stdout_is_closed():
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", CLI, "solve", "--rank", "2", "-e", "x1 = = 1"],
            stdout=write,
            stderr=subprocess.PIPE,
            env=BUFFERED,
            timeout=60,
        )
    finally:
        os.close(write)
    assert proc.returncode == 1 and proc.stderr.startswith(b"error: ")
