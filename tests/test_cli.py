import json
import math

import pytest

from ndmonogamy import classical, quantum, verify
from ndmonogamy.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBounds:
    def test_text_table_and_exit_zero(self, capsys):
        code, out, _ = run_cli(["bounds"], capsys)
        assert code == 0
        assert "kcbs+chsh" in out
        lines = out.strip().splitlines()
        assert lines[0].startswith("expression")

    def test_json_values_match_library(self, capsys):
        code, out, _ = run_cli(["bounds", "--format", "json"], capsys)
        assert code == 0
        rows = {r["expression"]: r for r in json.loads(out)}
        assert rows["kcbs"]["classical_min"] == -3.0
        assert rows["kcbs"]["nd_min"] == pytest.approx(-5.0, abs=1e-9)
        assert rows["kcbs"]["quantum_min"] == pytest.approx(
            5.0 - 4.0 * math.sqrt(5.0), abs=1e-10
        )
        assert rows["chsh"]["classical_min"] == -2.0
        assert rows["chsh"]["nd_min"] == pytest.approx(-4.0, abs=1e-9)
        assert rows["kcbs+chsh"]["nd_min"] == pytest.approx(-5.0, abs=1e-9)
        assert rows["kcbs+chsh"]["quantum_min"] == pytest.approx(-5.0, abs=1e-9)

    def test_json_quantum_column_is_the_eigensystem_minimum(self, capsys):
        code, out, _ = run_cli(["bounds", "--format", "json"], capsys)
        assert code == 0
        for row, bound in zip(json.loads(out), classical.BOUNDS):
            w, _ = quantum.eigensystem(quantum.expression_operator(bound.expression))
            assert repr(row["quantum_min"]) == repr(float(w[0])), row["expression"]

    def test_json_nd_column_is_the_exact_bounds(self, capsys):
        code, out, _ = run_cli(["bounds", "--format", "json"], capsys)
        assert code == 0
        nd = {r["expression"]: r["nd_min"] for r in json.loads(out)}
        assert nd == {row.name: row.nd for row in classical.BOUNDS}
        assert '"nd_min": -5.0,' in out

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "bounds.json"
        code, _, _ = run_cli(
            ["bounds", "--format", "json", "--out", str(target)], capsys
        )
        assert code == 0
        assert json.loads(target.read_text())

    def test_io_error_exit_three(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        code, _, err = run_cli(
            ["bounds", "--out", str(blocker / "impossible.txt")], capsys
        )
        assert code == 3
        assert "cannot write" in err


class TestRegion:
    def test_export_files_and_contents(self, tmp_path, capsys):
        out_dir = tmp_path / "region"
        code, out, _ = run_cli(
            ["region", "--samples", "80", "--out", str(out_dir)], capsys
        )
        assert code == 0
        boundary = (out_dir / "boundary.csv").read_text().strip().splitlines()
        assert boundary[0] == "branch,phi,theta,chsh,kcbs"
        assert len(boundary) == 1 + 160  # 80 per branch
        rows = [line.split(",") for line in boundary[1:]]
        kcbs_values = [float(r[4]) for r in rows]
        assert min(kcbs_values) == pytest.approx(5 - 4 * math.sqrt(5), abs=1e-6)
        for r in rows:
            assert float(r[3]) + float(r[4]) >= -5.0 - 1e-9

        touch = (out_dir / "touching_point.csv").read_text().strip().splitlines()
        _, _, _, chsh, kcbs = touch[1].split(",")
        assert float(chsh) == pytest.approx(-2.08, abs=0.01)
        assert float(kcbs) == pytest.approx(-2.92, abs=0.01)

        nd_line = (out_dir / "nd_line.csv").read_text().strip().splitlines()
        assert nd_line[0] == "chsh,kcbs"
        for line in nd_line[1:]:
            c, k = map(float, line.split(","))
            assert c + k == pytest.approx(-5.0, abs=1e-12)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        first = tmp_path / "a"
        second = tmp_path / "b"
        run_cli(["region", "--samples", "40", "--out", str(first)], capsys)
        run_cli(["region", "--samples", "40", "--out", str(second)], capsys)
        for name in ("boundary.csv", "nd_line.csv", "touching_point.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_out_naming_a_file_is_io_error(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("a file, not a directory")
        code, out, err = run_cli(["region", "--samples", "6", "--out", str(target)], capsys)
        assert code == 3
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"cannot write to {target}: ")

    def test_boundary_csv_that_is_a_directory_is_io_error(self, tmp_path, capsys):
        (tmp_path / "boundary.csv").mkdir()
        code, out, err = run_cli(["region", "--samples", "6", "--out", str(tmp_path)], capsys)
        assert code == 3
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"cannot write to {tmp_path}: ")
        assert "boundary.csv" in err

    def test_too_few_samples_is_usage_error(self, capsys):
        code, _, err = run_cli(["region", "--samples", "1"], capsys)
        assert code == 2
        assert "samples" in err


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--samples", "3000", "--seed", "42"], capsys
        )
        assert code == 0
        assert "[FAIL]" not in out
        assert out.count("[PASS]") >= 12

    def test_json_summary_seed_stable(self, tmp_path, capsys):
        args = [
            "verify",
            "--samples",
            "2000",
            "--seed",
            "7",
            "--format",
            "json",
        ]
        code1, out1, _ = run_cli(args, capsys)
        code2, out2, _ = run_cli(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["passed"] is True
        assert payload["seed"] == 7

    def test_fault_injection_names_block_check(self, capsys):
        code, out, err = run_cli(
            ["verify", "--samples", "1000", "--perturb-chsh", "0.25"], capsys
        )
        assert code == 1
        assert "first failing invariant: chsh-block-structure" in err
        assert "[FAIL] chsh-block-structure" in out

    def test_summary_written_to_file(self, tmp_path, capsys):
        target = tmp_path / "summary.json"
        code, _, _ = run_cli(
            ["verify", "--samples", "1000", "--out", str(target)], capsys
        )
        assert code == 0
        assert json.loads(target.read_text())["passed"] is True

    def test_nonpositive_samples_usage_error(self, capsys):
        code, _, _ = run_cli(["verify", "--samples", "0"], capsys)
        assert code == 2

    def test_tol_flag_is_usage_error(self, capsys):
        # the slack of the pointwise bounds is fixed; no flag loosens the check
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--tol", "1e-9"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_perturbation_usage_error(self, value, capsys):
        code, out, err = run_cli(["verify", f"--perturb-chsh={value}"], capsys)
        assert code == 2
        assert out == ""
        assert err.strip().splitlines() == ["--perturb-chsh must be finite"]

    def test_negative_seed_usage_error(self, capsys):
        code, _, err = run_cli(["verify", "--seed", "-1"], capsys)
        assert code == 2
        assert err.strip().splitlines() == ["--seed must be non-negative"]


def test_bounds_table_drives_bounds_and_verify(monkeypatch, capsys):
    rows = list(classical.BOUNDS)
    rows[0] = rows[0]._replace(classical=-4.0)  # kcbs, really -3
    monkeypatch.setattr(classical, "BOUNDS", tuple(rows))
    code, _, err = run_cli(["bounds"], capsys)
    assert code == 1
    assert "bound check failed: kcbs: classical -3.0" in err
    results = verify.verify_all(samples=1000, seed=42)
    assert [r.name for r in results if not r.passed] == ["classical-bounds"]


def test_wrong_nd_bound_fails_its_certificate(monkeypatch, capsys):
    rows = list(classical.BOUNDS)
    rows[0] = rows[0]._replace(nd=-4.0)  # kcbs, really -5
    monkeypatch.setattr(classical, "BOUNDS", tuple(rows))
    code, out, err = run_cli(["bounds", "--format", "json"], capsys)
    assert code == 1
    assert out == ""
    assert err == "bound check failed: kcbs: no-disturbance certificate fails: b.y is -5, not -4\n"
    results = verify.verify_all(samples=1000, seed=42)
    assert [r.name for r in results if not r.passed] == ["nd-lp-bounds"]


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
