"""End-to-end CLI behavior: exit codes, formats, file round trips."""

import json
import math

import pytest

from luinv import catalog_state, cli, format_perms, from_iroa, parse_oa, state_to_dict
from luinv import witness as witness_mod
from luinv.cli import main, parse_angle
from luinv.invariants import PermutationSet
from tests.conftest import EXAMPLE_OA_TEXT, GHZ_OA_TEXT

CYCLIC3_TEXT = "3 3\n1 2 3\n2 3 1\n3 1 2\n"


@pytest.fixture
def oa_file(tmp_path):
    path = tmp_path / "example.oa"
    path.write_text(EXAMPLE_OA_TEXT)
    return str(path)


@pytest.fixture
def ghz_file(tmp_path):
    path = tmp_path / "ghz.oa"
    path.write_text(GHZ_OA_TEXT)
    return str(path)


@pytest.fixture
def perms_file(tmp_path):
    path = tmp_path / "cyclic.perms"
    path.write_text(CYCLIC3_TEXT)
    return str(path)


def write_state(tmp_path, name, state):
    path = tmp_path / name
    path.write_text(json.dumps(state_to_dict(state)))
    return str(path)


class TestParseAngle:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0", 0.0),
            ("1.25", 1.25),
            ("pi", math.pi),
            ("-pi", -math.pi),
            ("2*pi", 2 * math.pi),
            ("pi/3", math.pi / 3),
            ("3*pi/4", 3 * math.pi / 4),
            ("-pi/2", -math.pi / 2),
        ],
    )
    def test_accepted(self, text, value):
        assert parse_angle(text) == pytest.approx(value, abs=0)

    @pytest.mark.parametrize("text", ["", "pie", "pi//2", "two*pi", "1..5"])
    def test_rejected(self, text):
        from luinv.cli import CliError

        with pytest.raises(CliError):
            parse_angle(text)


class TestOaValidate:
    def test_pass(self, oa_file, capsys):
        code = main(["oa", "validate", oa_file, "--strength", "2", "--irredundant", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "OA(r=9, N=3, d=3)" in out
        assert "strength 2: holds, lambda=1" in out
        assert "irredundant k=1: yes" in out

    def test_failed_check_exits_2(self, oa_file, capsys):
        assert main(["oa", "validate", oa_file, "--strength", "3"]) == 2
        assert "strength 3: fails" in capsys.readouterr().out

    def test_irredundant_failure(self, oa_file, capsys):
        assert main(["oa", "validate", oa_file, "--irredundant", "2"]) == 2
        assert "irredundant k=2: no" in capsys.readouterr().out

    def test_json_output(self, oa_file, capsys):
        code = main(
            ["oa", "validate", oa_file, "--strength", "1", "--json"]
        )
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["r"] == 9
        assert data["strength"] == {"k": 1, "holds": True, "index_lambda": 3}

    def test_missing_file(self, tmp_path, capsys):
        code = main(["oa", "validate", str(tmp_path / "nope.oa")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_k_is_usage_error(self, oa_file, capsys):
        assert main(["oa", "validate", oa_file, "--strength", "9"]) == 1

    def test_explicit_d(self, tmp_path, capsys):
        path = tmp_path / "two.oa"
        path.write_text("0 0\n1 1\n")
        assert main(["oa", "validate", str(path), "--d", "3"]) == 0
        assert "d=3" in capsys.readouterr().out


class TestStateBuild:
    def test_catalog_to_file(self, tmp_path, capsys):
        out = tmp_path / "ghz.json"
        code = main(["state", "build", "--catalog", "ghz", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["num_parties"] == 3
        assert len(data["terms"]) == 2

    def test_catalog_to_stdout(self, capsys):
        code = main(["state", "build", "--catalog", "ame43"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["local_dim"] == 3

    def test_from_oa_with_phase(self, oa_file, tmp_path):
        out = tmp_path / "marked.json"
        code = main(
            [
                "state",
                "build",
                "--from-oa",
                oa_file,
                "--phase",
                "0,0,0=pi",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        marked = next(t for t in data["terms"] if t["idx"] == [0, 0, 0])
        assert marked["re"] == pytest.approx(-1 / 3)

    def test_catalog_with_theta(self, tmp_path):
        out = tmp_path / "s.json"
        assert (
            main(
                [
                    "state",
                    "build",
                    "--catalog",
                    "ame52",
                    "--theta",
                    "pi/4",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert len(json.loads(out.read_text())["terms"]) == 16

    def test_requires_exactly_one_source(self, oa_file, capsys):
        assert main(["state", "build"]) == 1
        assert (
            main(["state", "build", "--from-oa", oa_file, "--catalog", "ghz"]) == 1
        )

    def test_unknown_catalog(self, capsys):
        assert main(["state", "build", "--catalog", "w"]) == 1

    def test_bad_phase_spec(self, oa_file):
        assert (
            main(["state", "build", "--from-oa", oa_file, "--phase", "0,0,0"]) == 1
        )

    def test_phase_key_not_a_row(self, oa_file):
        assert (
            main(["state", "build", "--from-oa", oa_file, "--phase", "0,0,1=1"])
            == 1
        )


class TestEntCheck:
    def test_ame_pass(self, tmp_path, capsys):
        path = write_state(tmp_path, "ame43.json", catalog_state("ame43"))
        assert main(["ent", "check", path, "--ame"]) == 0
        assert "pass" in capsys.readouterr().out

    def test_k_fail(self, tmp_path, capsys):
        handles = {(0, 0, 0): 1 / math.sqrt(2), (1, 1, 1): 1 / math.sqrt(2)}
        from luinv import SparseState

        path = write_state(tmp_path, "ghz.json", SparseState(3, 2, handles))
        # single parties are maximally mixed, so k=1 passes
        assert main(["ent", "check", path, "--k", "1"]) == 0
        capsys.readouterr()

    def test_ame_fail_exits_2(self, tmp_path, capsys):
        from luinv import from_iroa, parse_oa

        s = from_iroa(parse_oa("0 0 0 0\n1 1 1 1"))
        path = write_state(tmp_path, "ghz4.json", s)
        assert main(["ent", "check", path, "--ame"]) == 2
        assert "fail" in capsys.readouterr().out

    def test_json_report(self, tmp_path, capsys):
        path = write_state(tmp_path, "ame43.json", catalog_state("ame43"))
        assert main(["ent", "check", path, "--ame", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"k", "pass", "max_deviation", "worst_subset"}
        assert data["pass"] is True

    def test_requires_exactly_one_mode(self, tmp_path):
        path = write_state(tmp_path, "s.json", catalog_state("ghz"))
        assert main(["ent", "check", path]) == 1
        assert main(["ent", "check", path, "--k", "1", "--ame"]) == 1

    def test_bad_tol(self, tmp_path):
        path = write_state(tmp_path, "s.json", catalog_state("ame43"))
        assert main(["ent", "check", path, "--ame", "--tol", "-1"]) == 1

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["ent", "check", str(path), "--ame"]) == 1

    def test_unnormalized_state(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(
            json.dumps(
                {
                    "num_parties": 1,
                    "local_dim": 2,
                    "terms": [{"idx": [0], "re": 2.0, "im": 0.0}],
                }
            )
        )
        assert main(["ent", "check", str(path), "--k", "1"]) == 1


class TestInvCompute:
    def test_text_output(self, tmp_path, perms_file, capsys):
        path = write_state(
            tmp_path, "psi.json", catalog_state("psi3d", d=3, theta=math.pi)
        )
        assert main(["inv", "compute", path, perms_file]) == 0
        out = capsys.readouterr().out
        assert "engine: sparse" in out
        value_line = next(l for l in out.splitlines() if l.startswith("value:"))
        # the imaginary part is rounding noise of either sign
        assert complex(value_line.split()[1]).real == pytest.approx(57 / 729)

    def test_engines_agree(self, tmp_path, perms_file, capsys):
        path = write_state(tmp_path, "psi.json", catalog_state("psi3d", d=2))
        values = {}
        for engine in ("dense", "sparse", "auto"):
            assert (
                main(
                    [
                        "inv",
                        "compute",
                        path,
                        perms_file,
                        "--engine",
                        engine,
                        "--json",
                    ]
                )
                == 0
            )
            data = json.loads(capsys.readouterr().out)
            values[engine] = complex(data["re"], data["im"])
        assert values["dense"] == pytest.approx(values["sparse"], abs=1e-12)
        assert values["auto"] == pytest.approx(values["sparse"], abs=1e-12)

    def test_json_fields(self, tmp_path, perms_file, capsys):
        path = write_state(tmp_path, "psi.json", catalog_state("psi3d", d=3))
        assert main(["inv", "compute", path, perms_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"re", "im", "engine", "term_count"}
        assert data["term_count"] == 81

    def test_dense_term_count_dash(self, tmp_path, perms_file, capsys):
        path = write_state(tmp_path, "psi.json", catalog_state("psi3d", d=2))
        assert main(["inv", "compute", path, perms_file, "--engine", "dense"]) == 0
        assert "term_count: -" in capsys.readouterr().out

    def test_small_dense_cap_rejected(self, tmp_path, perms_file):
        path = write_state(tmp_path, "psi.json", catalog_state("psi3d", d=2))
        assert (
            main(["inv", "compute", path, perms_file, "--dense-cap", "10"]) == 1
        )

    def test_cap_exceeded_is_io_error(self, tmp_path, perms_file):
        path = write_state(tmp_path, "psi.json", catalog_state("psi3d", d=3))
        assert (
            main(
                [
                    "inv",
                    "compute",
                    path,
                    perms_file,
                    "--engine",
                    "dense",
                    "--dense-cap",
                    "1000",
                ]
            )
            == 1
        )

    def test_bad_perm_file(self, tmp_path):
        path = write_state(tmp_path, "psi.json", catalog_state("psi3d", d=2))
        bad = tmp_path / "bad.perms"
        bad.write_text("3 3\n1 2 3\n")
        assert main(["inv", "compute", path, str(bad)]) == 1

    def test_party_mismatch(self, tmp_path, perms_file):
        path = write_state(tmp_path, "ame.json", catalog_state("ame43"))
        assert main(["inv", "compute", path, perms_file]) == 1


class TestWitnessFind:
    def test_certified_exit_0(self, oa_file, tmp_path, capsys):
        out = tmp_path / "w.json"
        assert main(["witness", "find", oa_file, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["certified"] is True
        assert data["n"] == 3
        assert len(data["theta_values"]) == 4

    def test_stdout_when_no_out(self, oa_file, capsys):
        assert main(["witness", "find", oa_file]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["marked_row"] == [0, 1, 1]

    def test_absent_witness_exit_2(self, ghz_file, capsys):
        assert main(["witness", "find", ghz_file]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"witness": None}
        assert "no witness" in captured.err

    def test_single_point_grid_certified(self, oa_file, capsys):
        # certification reads the exact term counts, not the grid spread
        assert main(["witness", "find", oa_file, "--theta-grid", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["certified"] is True

    def test_constant_family_exit_2(self, oa_file, monkeypatch, capsys):
        monkeypatch.setattr(witness_mod, "_term_counts", lambda oa, w: {0: 1})
        assert main(["witness", "find", oa_file]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out)["certified"] is False
        assert "not certified" in captured.err

    def test_custom_grid(self, oa_file, capsys):
        assert (
            main(["witness", "find", oa_file, "--theta-grid", "0,pi/2,pi"]) == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["theta_values"] == [0.0, math.pi / 2, math.pi]

    def test_kernel_index_flag(self, oa_file, capsys):
        assert main(["witness", "find", oa_file, "--kernel-index", "1"]) == 0
        capsys.readouterr()
        assert main(["witness", "find", oa_file, "--kernel-index", "5"]) == 1


class TestWitnessScan:
    def test_csv_shape(self, oa_file, capsys):
        assert main(["witness", "scan", oa_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "theta,re,im"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(1 / 9)
        assert float(first[2]) == pytest.approx(0.0, abs=1e-12)

    def test_scan_values_vary(self, oa_file, capsys):
        assert main(["witness", "scan", oa_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        values = [float(line.split(",")[1]) for line in lines]
        assert max(values) - min(values) > 1e-6

    def test_scan_to_file(self, oa_file, tmp_path):
        out = tmp_path / "scan.csv"
        grid = "0,pi"
        assert (
            main(
                ["witness", "scan", oa_file, "--theta-grid", grid, "--out", str(out)]
            )
            == 0
        )
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3

    def test_scan_absent(self, ghz_file, capsys):
        assert main(["witness", "scan", ghz_file]) == 2


class TestParserReuse:
    """main() builds its parser once per process; no option may carry over
    from one call to the next."""

    def test_parser_built_once(self):
        assert cli._parser() is cli._parser()

    def test_options_read_their_defaults_again(self, oa_file, tmp_path, capsys):
        assert main(["oa", "validate", oa_file, "--d", "5", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["local_dim"] == 5
        assert main(["oa", "validate", oa_file]) == 0
        assert capsys.readouterr().out == "OA(r=9, N=3, d=3)\n"
        phased, plain = tmp_path / "phased.json", tmp_path / "plain.json"
        build = ["state", "build", "--from-oa", oa_file, "--out"]
        assert main(build + [str(phased), "--phase", "0,0,0=pi"]) == 0
        assert main(build + [str(plain)]) == 0
        plain_state = from_iroa(parse_oa(EXAMPLE_OA_TEXT))
        want = json.loads(json.dumps(state_to_dict(plain_state)))
        assert json.loads(plain.read_text()) == want
        assert json.loads(phased.read_text()) != want


class TestUsageErrors:
    def test_no_command(self):
        assert main([]) == 1

    def test_unknown_subcommand(self):
        assert main(["oa", "frobnicate"]) == 1

    def test_perm_file_round_trip(self, tmp_path, capsys):
        p = PermutationSet(2, ((2, 1), (1, 2), (2, 1)))
        path = tmp_path / "p.perms"
        path.write_text(format_perms(p))
        state_path = write_state(tmp_path, "s.json", catalog_state("ghz"))
        assert main(["inv", "compute", state_path, str(path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert complex(data["re"], data["im"]) == pytest.approx(0.5)
