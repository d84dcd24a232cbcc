"""Command-line behavior: formats, exit codes, pipelines."""

import io
import json

from boolgeo.cli import build_parser, config_from_args, main, run


def invoke(argv, stdin_text=""):
    """Run the CLI against in-memory streams; returns (code, out, err)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = config_from_args(args)
    except Exception as exc:  # argparse usage errors
        return 4, "", str(exc)
    out, err = io.StringIO(), io.StringIO()
    code = run(cfg, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


SYSTEM = "x1 * x2 = x2"


class TestOrthogonalize:
    def test_json_default(self):
        code, out, _ = invoke(["orthogonalize", "-e", SYSTEM])
        assert code == 0
        assert json.loads(out) == {"n": 2, "A": [2], "layout": "lsb-first"}

    def test_text(self):
        code, out, _ = invoke(["orthogonalize", "-e", SYSTEM, "--format", "text"])
        assert code == 0
        assert out == "z_(0,1) = 0\n"

    def test_text_empty_zero_set(self):
        code, out, _ = invoke(["orthogonalize", "-e", "x1 = x1", "--format", "text"])
        assert code == 0
        assert out == ""

    def test_csv(self):
        code, out, _ = invoke(["orthogonalize", "-e", SYSTEM, "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,zeroed_count,zeroed"
        assert lines[1] == "2,1,2"

    def test_stdin(self):
        code, out, _ = invoke(["orthogonalize"], stdin_text=SYSTEM)
        assert code == 0
        assert json.loads(out)["A"] == [2]

    def test_file_input(self, tmp_path):
        path = tmp_path / "system.beq"
        path.write_text(SYSTEM + "\n", encoding="utf-8")
        code, out, _ = invoke(["orthogonalize", "-f", str(path)])
        assert code == 0
        assert json.loads(out)["A"] == [2]

    def test_json_passthrough(self):
        code, out, _ = invoke(
            ["orthogonalize", "-e", '{"n": 2, "A": [2]}']
        )
        assert code == 0
        assert json.loads(out) == {"n": 2, "A": [2], "layout": "lsb-first"}


class TestSolve:
    def test_text_lines(self):
        code, out, _ = invoke(["solve", "--rank", "1", "-e", SYSTEM])
        assert code == 0
        assert out.splitlines() == [
            "x1={} x2={}",
            "x1={0} x2={}",
            "x1={0} x2={0}",
        ]

    def test_limit(self):
        code, out, _ = invoke(["solve", "--rank", "2", "-e", SYSTEM, "--limit", "4"])
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_count(self):
        code, out, _ = invoke(["solve", "--rank", "2", "-e", SYSTEM, "--count"])
        assert code == 0
        assert out.strip() == "9"

    def test_count_json(self):
        code, out, _ = invoke(
            ["solve", "--rank", "2", "-e", SYSTEM, "--count", "--format", "json"]
        )
        assert json.loads(out) == {"count": 9}

    def test_json_solutions(self):
        code, out, _ = invoke(
            ["solve", "--rank", "1", "-e", SYSTEM, "--format", "json"]
        )
        payload = json.loads(out)
        assert payload["layout"] == "lsb-first"
        assert payload["rank"] == 1
        assert payload["solutions"] == [
            {"x1": [], "x2": []},
            {"x1": [0], "x2": []},
            {"x1": [0], "x2": [0]},
        ]

    def test_z_space(self):
        code, out, _ = invoke(["solve", "--rank", "1", "-e", SYSTEM, "--z"])
        assert code == 0
        first = out.splitlines()[0]
        assert first == "z_(0,0)={0} z_(1,0)={} z_(0,1)={} z_(1,1)={}"

    def test_csv(self):
        code, out, _ = invoke(
            ["solve", "--rank", "1", "-e", SYSTEM, "--format", "csv"]
        )
        lines = out.strip().splitlines()
        assert lines[0] == "x1,x2"
        assert lines[1] == "{},{}"
        assert lines[3] == "{0},{0}"

    def test_ortho_json_input_uses_default_names(self):
        code, out, _ = invoke(
            ["solve", "--rank", "1", "-e", '{"n": 1, "A": []}']
        )
        assert out.splitlines() == ["x1={}", "x1={0}"]


class TestDecompose:
    def test_text(self):
        code, out, _ = invoke(["decompose", "--rank", "2", "-e", SYSTEM])
        assert code == 0
        assert out.splitlines() == [
            "component 1: z_(0,0) = 0, z_(0,1) = 0",
            "component 2: z_(1,0) = 0, z_(0,1) = 0",
            "component 3: z_(0,1) = 0, z_(1,1) = 0",
        ]

    def test_json(self):
        code, out, _ = invoke(
            ["decompose", "--rank", "2", "-e", SYSTEM, "--format", "json"]
        )
        payload = json.loads(out)
        assert payload["components"] == [
            {"n": 2, "A": [0, 2]},
            {"n": 2, "A": [1, 2]},
            {"n": 2, "A": [2, 3]},
        ]

    def test_irreducible_single_component(self):
        code, out, _ = invoke(["decompose", "--rank", "3", "-e", SYSTEM])
        assert out.splitlines() == ["component 1: z_(0,1) = 0"]

    def test_pipeline_equals_direct(self):
        _, ortho_out, _ = invoke(["orthogonalize", "-e", SYSTEM])
        _, piped, _ = invoke(
            ["decompose", "--rank", "2", "--format", "json"], stdin_text=ortho_out
        )
        _, direct, _ = invoke(
            ["decompose", "--rank", "2", "-e", SYSTEM, "--format", "json"]
        )
        assert json.loads(piped)["components"] == json.loads(direct)["components"]


class TestClassify:
    def test_text(self):
        code, out, _ = invoke(["classify", "--rank", "2", "-e", SYSTEM])
        assert code == 0
        assert out.splitlines() == [
            "coordinate rank: 3",
            "irreducibility rank: 3",
            "irreducible over rank 2: no",
            "components over rank 2: 3",
        ]

    def test_json(self):
        code, out, _ = invoke(
            ["classify", "--rank", "3", "-e", SYSTEM, "--format", "json"]
        )
        assert json.loads(out) == {
            "n": 2,
            "rank": 3,
            "coordinate_rank": 3,
            "irreducibility_rank": 3,
            "irreducible": True,
            "components": 1,
        }


class TestIso:
    def test_isomorphic_pair(self):
        code, out, _ = invoke(["iso", "-e", "x1 * x2 = x2", "-e", "x1 * x2 = x1"])
        assert code == 0
        assert out.strip() == "isomorphic (|A1| = 1, |A2| = 1)"

    def test_non_isomorphic_pair(self):
        code, out, _ = invoke(["iso", "-e", "x1 = x1", "-e", "x1 = 1"])
        assert code == 0
        assert out.strip() == "not isomorphic (|A1| = 0, |A2| = 1)"

    def test_json(self):
        code, out, _ = invoke(
            ["iso", "-e", "x1 * x2 = x2", "-e", "x1 * x2 = x1", "--format", "json"]
        )
        assert json.loads(out) == {"n": 2, "a1": 1, "a2": 1, "isomorphic": True}

    def test_file_and_inline_mix(self, tmp_path):
        path = tmp_path / "second.beq"
        path.write_text("x1 * x2 = x1", encoding="utf-8")
        code, out, _ = invoke(["iso", "-e", "x1 * x2 = x2", str(path)])
        assert code == 0
        assert "isomorphic" in out

    def test_wrong_input_count(self):
        code, _, err = invoke(["iso", "-e", "x1 = 1"])
        assert code == 4
        assert "two systems" in err

    def test_mismatched_variable_counts(self):
        code, _, err = invoke(["iso", "-e", "x1 = 1", "-e", "x1 * x2 = x2"])
        assert code == 4


class TestStats:
    def test_iso_prob_bare_line(self):
        code, out, _ = invoke(["stats", "--iso-prob", "2"])
        assert code == 0
        assert out == "3/8 (0.375)\n"

    def test_avg_irr(self):
        code, out, _ = invoke(["stats", "--avg-irr", "4", "2"])
        assert out == "29/16 (1.8125)\n"

    def test_avg_irr_exhaustive_route(self):
        code, out, _ = invoke(["stats", "--avg-irr", "4", "2", "--exhaustive"])
        assert out == "29/16 (1.8125)\n"

    def test_avg_ir(self):
        code, out, _ = invoke(["stats", "--avg-ir", "4"])
        assert out == "2 (2.0)\n"

    def test_sweep_is_labeled(self):
        code, out, _ = invoke(["stats", "--iso-prob", "1,2"])
        assert out.splitlines() == [
            "iso-prob m=1: 1/2 (0.5)",
            "iso-prob m=2: 3/8 (0.375)",
        ]

    def test_csv_sweep(self):
        code, out, _ = invoke(["stats", "--avg-irr", "4,8", "2", "--format", "csv"])
        lines = out.strip().splitlines()
        assert lines[0] == "kind,m,r,exact,approx,samples,seed,empirical"
        assert lines[1].startswith("avg-irr,4,2,29/16,1.8125")
        assert lines[2].startswith("avg-irr,8,2,")

    def test_json(self):
        code, out, _ = invoke(["stats", "--iso-prob", "2", "--format", "json"])
        payload = json.loads(out)
        assert payload["results"][0]["exact"] == "3/8"
        assert payload["results"][0]["approx"] == 0.375

    def test_empirical_is_seeded_and_reproducible(self):
        argv = ["stats", "--iso-prob", "8", "--samples", "2000", "--seed", "9"]
        code, out1, _ = invoke(argv)
        _, out2, _ = invoke(argv)
        assert code == 0
        assert out1 == out2
        lines = out1.splitlines()
        assert lines[0].startswith("iso-prob m=8:")
        assert "rng=mt19937" in lines[1]
        rate = float(lines[1].split()[1])
        exact = 12870 / 65536
        assert abs(rate - exact) < 0.05

    def test_requires_a_computation(self):
        code, _, err = invoke(["stats"])
        assert code == 4

    def test_exhaustive_needs_avg_irr(self):
        code, _, _ = invoke(["stats", "--iso-prob", "2", "--exhaustive"])
        assert code == 4

    def test_samples_need_power_of_two(self):
        code, _, err = invoke(["stats", "--iso-prob", "3", "--samples", "10"])
        assert code == 4
        assert "power of two" in err


class TestExitCodes:
    def test_parse_error_is_1(self):
        code, _, err = invoke(["orthogonalize", "-e", "x1 = ("])
        assert code == 1
        assert "line 1" in err

    def test_bad_json_is_1(self):
        code, _, err = invoke(["orthogonalize", "-e", "{not json"])
        assert code == 1

    def test_deep_nesting_is_1(self):
        text = "(" * 1200 + "x1" + ")" * 1200 + " = x1 * x2"
        code, out, err = invoke(["orthogonalize"], text)
        assert (code, out) == (1, "")
        assert err.startswith("error: line 1, column 201: term nested")

    def test_long_flat_join_is_1(self):
        text = " + ".join(f"x{i % 4 + 1}" for i in range(3000)) + " = x1"
        code, out, err = invoke(["orthogonalize"], text)
        assert (code, out) == (1, "")
        assert "nested more than" in err

    def test_limit_is_2(self):
        code, _, err = invoke(
            ["orthogonalize", "-e", "x1 = x2", "--max-vars", "1"]
        )
        assert code == 2

    def test_env_limit(self, monkeypatch):
        monkeypatch.setenv("BOOLGEO_MAX_VARS", "1")
        code, _, _ = invoke(["orthogonalize", "-e", "x1 = x2"])
        assert code == 2

    def test_explicit_limit_applies_to_json_input(self, monkeypatch):
        text = json.dumps({"n": 20, "A": [], "layout": "lsb-first"})
        code, out, err = invoke(["classify", "--rank", "2", "--max-vars", "4"], text)
        assert (code, out) == (2, "")
        assert err == (
            "error: system has 20 variables, limit is 4 "
            "(override with max_vars or $BOOLGEO_MAX_VARS)\n"
        )
        monkeypatch.setenv("BOOLGEO_MAX_VARS", "19")
        code, out, _ = invoke(["solve", "--rank", "2", "--count"], text)
        assert (code, out) == (2, "")
        code, out, _ = invoke(["solve", "--rank", "2", "--count", "--max-vars", "20"], text)
        assert (code, out) == (0, f"{(1 << 20) ** 2}\n")

    def test_json_input_without_a_limit_keeps_the_hard_cap(self):
        text = json.dumps({"n": 20, "A": [], "layout": "lsb-first"})
        code, out, _ = invoke(["solve", "--rank", "2", "--count"], text)
        assert (code, out) == (0, f"{(1 << 20) ** 2}\n")

    def test_inconsistent_is_3(self):
        argv = ["classify", "--rank", "2", "-e", "x1 = 0; x1 = 1"]
        code, _, err = invoke(argv)
        assert code == 3
        code, _, _ = invoke(["decompose", "--rank", "2", "-e", "x1 = 0; x1 = 1"])
        assert code == 3

    def test_solve_tolerates_inconsistency(self):
        code, out, _ = invoke(["solve", "--rank", "2", "-e", "x1 = 0; x1 = 1"])
        assert code == 0
        assert out == ""

    def test_bad_rank_is_4(self):
        code, _, _ = invoke(["solve", "--rank", "0", "-e", SYSTEM])
        assert code == 4

    def test_unknown_flag_is_4(self):
        code, _, _ = invoke(["solve", "--frobnicate", "-e", SYSTEM])
        assert code == 4

    def test_missing_file_is_4(self):
        code, _, _ = invoke(["orthogonalize", "-f", "/nonexistent/path.beq"])
        assert code == 4

    def test_avg_irr_r_too_big_is_4(self):
        code, _, _ = invoke(["stats", "--avg-irr", "4", "5"])
        assert code == 4


def test_main_returns_exit_code(capsys):
    assert main(["stats", "--iso-prob", "2"]) == 0
    assert capsys.readouterr().out == "3/8 (0.375)\n"
    assert main(["stats"]) == 4
