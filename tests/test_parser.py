"""The command-line surface, byte for byte: ``--help`` of boolgeo and of
each command, the usage errors that exit 4, the parsed arguments that
reach :func:`boolgeo.cli.run`, and the reader of well-formed command
lines against argparse."""

import io
import sys
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from boolgeo import cli

COMMANDS = ("orthogonalize", "solve", "decompose", "classify", "iso", "stats")

# As Python 3.10-3.12 render them at COLUMNS=80.
HELP = {
    "": """\
usage: boolgeo [-h] command ...

Command-line front end.

positional arguments:
  command
    orthogonalize
                 reduce a system to orthogonal form
    solve        enumerate or count solutions
    decompose    split into irreducible components
    classify     coordinate rank, irreducibility, component count
    iso          decide whether two systems' solution sets are isomorphic
    stats        exact averages and probabilities

options:
  -h, --help     show this help message and exit
""",
    "orthogonalize": """\
usage: boolgeo orthogonalize [-h] [-e EXPR | -f PATH] [--max-vars MAX_VARS]
                             [--format {text,json,csv}]

options:
  -h, --help            show this help message and exit
  -e EXPR, --expr EXPR  inline system text
  -f PATH, --file PATH  read system from a file
  --max-vars MAX_VARS   variable limit (default 16 for .beq input, none below
                        the hard cap for JSON input; $BOOLGEO_MAX_VARS)
  --format {text,json,csv}
                        output format (default json)
""",
    "solve": """\
usage: boolgeo solve [-h] [-e EXPR | -f PATH] [--max-vars MAX_VARS]
                     [--format {text,json,csv}] --rank RANK [--limit LIMIT]
                     [--count] [--z]

options:
  -h, --help            show this help message and exit
  -e EXPR, --expr EXPR  inline system text
  -f PATH, --file PATH  read system from a file
  --max-vars MAX_VARS   variable limit (default 16 for .beq input, none below
                        the hard cap for JSON input; $BOOLGEO_MAX_VARS)
  --format {text,json,csv}
                        output format (default text)
  --rank RANK           algebra rank r
  --limit LIMIT         emit at most this many solutions
  --count               print the exact solution count only
  --z                   emit minterm-space points instead
""",
    "decompose": """\
usage: boolgeo decompose [-h] [-e EXPR | -f PATH] [--max-vars MAX_VARS]
                         [--format {text,json,csv}] --rank RANK

options:
  -h, --help            show this help message and exit
  -e EXPR, --expr EXPR  inline system text
  -f PATH, --file PATH  read system from a file
  --max-vars MAX_VARS   variable limit (default 16 for .beq input, none below
                        the hard cap for JSON input; $BOOLGEO_MAX_VARS)
  --format {text,json,csv}
                        output format (default text)
  --rank RANK           algebra rank r
""",
    "classify": """\
usage: boolgeo classify [-h] [-e EXPR | -f PATH] [--max-vars MAX_VARS]
                        [--format {text,json,csv}] --rank RANK

options:
  -h, --help            show this help message and exit
  -e EXPR, --expr EXPR  inline system text
  -f PATH, --file PATH  read system from a file
  --max-vars MAX_VARS   variable limit (default 16 for .beq input, none below
                        the hard cap for JSON input; $BOOLGEO_MAX_VARS)
  --format {text,json,csv}
                        output format (default text)
  --rank RANK           algebra rank r
""",
    "iso": """\
usage: boolgeo iso [-h] [-e EXPR] [--max-vars MAX_VARS]
                   [--format {text,json,csv}]
                   [files ...]

positional arguments:
  files                 system files (two total inputs needed)

options:
  -h, --help            show this help message and exit
  -e EXPR, --expr EXPR  inline system text (repeatable)
  --max-vars MAX_VARS   variable limit (default 16 for .beq input, none below
                        the hard cap for JSON input; $BOOLGEO_MAX_VARS)
  --format {text,json,csv}
                        output format (default text)
""",
    "stats": """\
usage: boolgeo stats [-h] [--format {text,json,csv}] [--avg-irr M R]
                     [--avg-ir M] [--iso-prob M] [--exhaustive]
                     [--samples SAMPLES] [--seed SEED]

options:
  -h, --help            show this help message and exit
  --format {text,json,csv}
                        output format (default text)
  --avg-irr M R         average component count; M may be a comma list
  --avg-ir M            average irreducibility rank; M may be a comma list
  --iso-prob M          isomorphic-pair probability; M may be a comma list
  --exhaustive          compute --avg-irr by full enumeration
  --samples SAMPLES     add a Monte Carlo estimate from N samples
  --seed SEED           seed for --samples (default 0)
""",
}

# Python 3.13 prints an option's metavar once ("-e, --expr EXPR") and
# indents the command list past its longest name.
HELP_3_13 = {
    **HELP,
    "": """\
usage: boolgeo [-h] command ...

Command-line front end.

positional arguments:
  command
    orthogonalize  reduce a system to orthogonal form
    solve          enumerate or count solutions
    decompose      split into irreducible components
    classify       coordinate rank, irreducibility, component count
    iso            decide whether two systems' solution sets are isomorphic
    stats          exact averages and probabilities

options:
  -h, --help       show this help message and exit
""",
    "orthogonalize": """\
usage: boolgeo orthogonalize [-h] [-e EXPR | -f PATH] [--max-vars MAX_VARS]
                             [--format {text,json,csv}]

options:
  -h, --help            show this help message and exit
  -e, --expr EXPR       inline system text
  -f, --file PATH       read system from a file
  --max-vars MAX_VARS   variable limit (default 16 for .beq input, none below
                        the hard cap for JSON input; $BOOLGEO_MAX_VARS)
  --format {text,json,csv}
                        output format (default json)
""",
    "solve": """\
usage: boolgeo solve [-h] [-e EXPR | -f PATH] [--max-vars MAX_VARS]
                     [--format {text,json,csv}] --rank RANK [--limit LIMIT]
                     [--count] [--z]

options:
  -h, --help            show this help message and exit
  -e, --expr EXPR       inline system text
  -f, --file PATH       read system from a file
  --max-vars MAX_VARS   variable limit (default 16 for .beq input, none below
                        the hard cap for JSON input; $BOOLGEO_MAX_VARS)
  --format {text,json,csv}
                        output format (default text)
  --rank RANK           algebra rank r
  --limit LIMIT         emit at most this many solutions
  --count               print the exact solution count only
  --z                   emit minterm-space points instead
""",
    "decompose": """\
usage: boolgeo decompose [-h] [-e EXPR | -f PATH] [--max-vars MAX_VARS]
                         [--format {text,json,csv}] --rank RANK

options:
  -h, --help            show this help message and exit
  -e, --expr EXPR       inline system text
  -f, --file PATH       read system from a file
  --max-vars MAX_VARS   variable limit (default 16 for .beq input, none below
                        the hard cap for JSON input; $BOOLGEO_MAX_VARS)
  --format {text,json,csv}
                        output format (default text)
  --rank RANK           algebra rank r
""",
    "classify": """\
usage: boolgeo classify [-h] [-e EXPR | -f PATH] [--max-vars MAX_VARS]
                        [--format {text,json,csv}] --rank RANK

options:
  -h, --help            show this help message and exit
  -e, --expr EXPR       inline system text
  -f, --file PATH       read system from a file
  --max-vars MAX_VARS   variable limit (default 16 for .beq input, none below
                        the hard cap for JSON input; $BOOLGEO_MAX_VARS)
  --format {text,json,csv}
                        output format (default text)
  --rank RANK           algebra rank r
""",
    "iso": """\
usage: boolgeo iso [-h] [-e EXPR] [--max-vars MAX_VARS]
                   [--format {text,json,csv}]
                   [files ...]

positional arguments:
  files                 system files (two total inputs needed)

options:
  -h, --help            show this help message and exit
  -e, --expr EXPR       inline system text (repeatable)
  --max-vars MAX_VARS   variable limit (default 16 for .beq input, none below
                        the hard cap for JSON input; $BOOLGEO_MAX_VARS)
  --format {text,json,csv}
                        output format (default text)
""",
}


def expected_help(command):
    return (HELP_3_13 if sys.version_info >= (3, 13) else HELP)[command]


@pytest.fixture(autouse=True)
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize(
    "argv,command",
    [
        (["--help"], ""),
        (["-h"], ""),
        *[([name, "--help"], name) for name in COMMANDS],
        (["solve", "-h", "--rank", "x"], "solve"),
    ],
)
def test_help(argv, command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 0
    assert capsys.readouterr() == (expected_help(command), "")


def invalid_choice(argument, value, choices):
    """argparse's message for a value outside its choices, in both of the
    ways its releases quote the choices."""
    return {
        f"argument {argument}: invalid choice: {value!r} (choose from {listed})"
        for listed in (", ".join(map(repr, choices)), ", ".join(choices))
    }


@pytest.mark.parametrize(
    "argv,messages",
    [
        ([], {"the following arguments are required: command"}),
        (["nope"], invalid_choice("command", "nope", COMMANDS)),
        (["solve"], {"the following arguments are required: --rank"}),
        (["solve", "--rank", "x"], {"argument --rank: invalid int value: 'x'"}),
        (
            ["solve", "--rank", "1", "-e", "x1 = 1", "-f", "system.beq"],
            {"argument -f/--file: not allowed with argument -e/--expr"},
        ),
        (["solve", "--rank", "1", "--bogus"], {"unrecognized arguments: --bogus"}),
        (["solve", "--rank", "1", "extra"], {"unrecognized arguments: extra"}),
        (["--bogus"], {"the following arguments are required: command"}),
        (["stats", "--format", "xml"], invalid_choice("--format", "xml", ("text", "json", "csv"))),
        (["iso", "a.beq", "--max-vars", "q"], {"argument --max-vars: invalid int value: 'q'"}),
        # Checked after parsing, before any output.
        (["solve", "--rank", "1", "--limit", "-1", "-e", "x1 = 1"], {"--limit must be nonnegative"}),
        (["stats", "--avg-ir", "4", "--samples", "0"], {"--samples must be positive"}),
        (["stats", "--avg-irr", "4", "x"], {"--avg-irr R must be an integer"}),
    ],
)
def test_usage_error_exits_4(argv, messages, capsys):
    assert cli.main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.endswith("\n")
    assert err[len("error: ") : -1] in messages


def test_usage_error_class():
    with pytest.raises(cli._UsageError, match="^the following arguments are required: --rank$"):
        cli.build_parser().parse_args(["decompose"])


NAMESPACES = [
    (
        ["orthogonalize", "-e", "x1 = x2", "--max-vars", "3", "--format", "csv"],
        {"command": "orthogonalize", "expr": "x1 = x2", "path": None, "max_vars": 3, "fmt": "csv"},
    ),
    (
        ["solve", "-f", "p.beq", "--max-vars", "5", "--format", "json", "--rank", "3",
         "--limit", "7", "--count", "--z"],
        {
            "command": "solve", "expr": None, "path": "p.beq", "max_vars": 5, "fmt": "json",
            "rank": 3, "limit": 7, "count_only": True, "z_space": True,
        },
    ),
    (
        ["decompose", "-e", "x1 = 1", "--rank", "2", "--format", "csv"],
        {"command": "decompose", "expr": "x1 = 1", "path": None, "max_vars": None, "fmt": "csv",
         "rank": 2},
    ),
    (
        ["classify", "-f", "s.json", "--rank", "4", "--max-vars", "9"],
        {"command": "classify", "expr": None, "path": "s.json", "max_vars": 9, "fmt": "text",
         "rank": 4},
    ),
    (
        ["iso", "a.beq", "b.beq", "-e", "x1 = 0", "-e", "x2 = 1", "--max-vars", "4",
         "--format", "json"],
        {
            "command": "iso", "files": ["a.beq", "b.beq"], "expr": ["x1 = 0", "x2 = 1"],
            "max_vars": 4, "fmt": "json",
            "inputs": [("x1 = 0", None), ("x2 = 1", None), (None, "a.beq"), (None, "b.beq")],
        },
    ),
    (
        ["stats", "--avg-irr", "4,8", "2", "--avg-ir", "16", "--iso-prob", "2,4",
         "--exhaustive", "--samples", "10", "--seed", "3", "--format", "csv"],
        {
            "command": "stats", "fmt": "csv", "avg_irr": ((4, 8), 2), "avg_ir": (16,),
            "iso_prob": (2, 4), "exhaustive": True, "samples": 10, "seed": 3,
        },
    ),
]


@pytest.mark.parametrize("argv,expected", NAMESPACES)
def test_parsed_arguments(argv, expected):
    assert vars(cli.config_from_args(cli.build_parser().parse_args(argv))) == expected


def test_one_parser_parses_every_command_in_turn():
    parser = cli.build_parser()
    for argv, expected in NAMESPACES + NAMESPACES:
        assert vars(cli.config_from_args(parser.parse_args(argv))) == expected
    with pytest.raises(cli._UsageError) as error:
        parser.parse_args(["nope"])
    assert str(error.value) in invalid_choice("command", "nope", COMMANDS)


def test_each_call_builds_a_new_parser():
    first, second = cli.build_parser(), cli.build_parser()
    assert first is not second
    first.parse_args(["decompose", "--rank", "1"])
    with pytest.raises(cli._UsageError, match="--rank"):
        second.parse_args(["decompose"])


# --- the reader against argparse ------------------------------------------

# {command: {option string or positional: its add_argument keywords}}
ROWS = {
    name: {flag: kw for flags, kw in (*exclusive, *rows) for flag in flags}
    for name, (_, exclusive, rows) in cli._OPTIONS.items()
}
ANY_ROW = {flag: kw for rows in ROWS.values() for flag, kw in rows.items()}
OPTION_STRINGS = sorted(flag for flag in ANY_ROW if flag[0] == "-")
# Spellings that argparse parses or refuses and the reader leaves to it.
ODD = ["--", "-h", "--help", "--rank=1", "--ra", "--form", "--format=json", "-ex1", "--avg", "-"]
INTS = ["1", "2", "3", " 7", "+2", "1_0", "٣"]
VALUES = [*INTS, "4,8", "json", "csv", "text", "x1 = x1", "a.beq", "solve", "-1", "", "-", "xml"]


@st.composite
def argvs(draw):
    """Command lines near the accepted shapes: often the required options
    first, then mostly the command's own options with as many values as
    they take, each value mostly of the option's type; also other
    commands' options, odd spellings, positionals and junk values."""
    command = draw(st.sampled_from([*COMMANDS * 3, "nope", "-h", ""]))
    own = [flag for flag in ROWS.get(command, ()) if flag[0] == "-"] or OPTION_STRINGS
    argv = [command]
    if draw(st.booleans()):
        required = [flag for flag, kw in ROWS.get(command, {}).items() if kw.get("required")]
        argv += [item for flag in required for item in (flag, draw(st.sampled_from(INTS)))]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["own"] * 16 + ["other", "odd", "positional"]))
        if kind == "positional":
            argv.append(draw(st.sampled_from(VALUES)))
            continue
        flag = draw(st.sampled_from({"own": own, "other": OPTION_STRINGS, "odd": ODD}[kind]))
        kw = {**ANY_ROW, **ROWS.get(command, {})}.get(flag, {})
        arity = 0 if kw.get("action") == "store_true" else kw.get("nargs", 1)
        count = draw(st.sampled_from([arity] * 16 + [0, 1, 2]))
        good = list(kw.get("choices") or (INTS if kw.get("type") is int else VALUES))
        argv.append(flag)
        argv += draw(st.lists(st.sampled_from(good * 8 + VALUES), min_size=count, max_size=count))
    return argv


def argparse_namespace(argv):
    try:
        return cli._argparse_parser().parse_args(argv, SimpleNamespace())
    except (cli._UsageError, SystemExit):
        return None


def outcome(argv):
    """main's exit code, stdout and stderr for argv, with empty stdin."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(""), io.StringIO(), io.StringIO()
    try:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argvs())
def test_the_reader_declines_or_agrees_with_argparse(argv):
    read = cli._read(list(argv))
    if read is not None:
        expected = argparse_namespace(argv)
        assert type(read) is type(expected) is SimpleNamespace
        assert vars(read) == vars(expected)
    # main answers the same with the reader and with argparse alone.
    with mock.patch.object(cli, "_read", lambda argv: None):
        alone = outcome(argv)
    assert outcome(argv) == alone


@pytest.mark.parametrize("argv,expected", NAMESPACES)
def test_the_reader_accepts_well_formed_command_lines(argv, expected):
    assert vars(cli.config_from_args(cli._read(argv))) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--rank=2"],
        ["decompose", "--ra", "2"],
        ["decompose", "--rank", "-1"],
        ["decompose", "--rank", "2", "--"],
        ["decompose", "--rank", "2", "-h"],
        ["iso", "a.beq", "-e", "x1 = 1", "b.beq"],
        ["solve", "--rank", "2", "-e", "x1 = 1", "-f", "a.beq"],
        ["solve", "--rank", "two"],
        ["stats", "--format", "xml"],
        ["stats", "--avg-irr", "4"],
    ],
)
def test_the_reader_declines_what_argparse_must_word(argv):
    assert cli._read(argv) is None


def test_both_paths_return_one_namespace_type():
    read = cli.build_parser().parse_args(["decompose", "--rank", "2"])
    fallback = cli.build_parser().parse_args(["decompose", "--rank=2"])
    assert type(read) is type(fallback) is SimpleNamespace
    assert vars(read) == vars(fallback)
