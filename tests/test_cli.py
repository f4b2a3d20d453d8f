import argparse
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import modnudge
from modnudge import experiments as ex
from modnudge.cli import build_parser, main

TINY_TWIN = [
    "--set", "n=32", "--set", "nu=1e-2", "--set", "k=0.02", "--set", "T=0.2",
    "--set", "operator_scale=4", "--set", "chi_list=0,10", "--set", "chi=10",
    "--set", "forcing_amplitude=0.1", "--set", "windows=0.04:0.16", "--set", "seed=4",
]


def run_twin_cli(outdir, extra=()):
    return main(["twin", "--no-alternates", "--outdir", str(outdir), *TINY_TWIN, *extra])


class TestConverge:
    def test_writes_table_and_plot_files(self, tmp_path, capsys):
        rc = main([
            "converge", "--outdir", str(tmp_path), "--plot-data",
            "--set", "n=32", "--set", "k=0.2", "--set", "k_list=0.2,0.1",
            "--set", "T=0.4", "--set", "chi=100", "--set", "operator_scale=4",
            "--schemes", "2a-explicit,standard",
        ])
        assert rc == 0
        table = (tmp_path / "convergence.csv").read_text().splitlines()
        assert table[0] == "scheme,k,error,rate"
        assert len(table) == 5  # two schemes x two steps
        assert (tmp_path / "plot_converge_2a-explicit.dat").exists()
        assert "rate" in capsys.readouterr().out

    def test_config_file_plus_override(self, tmp_path):
        cfg = tmp_path / "conv.cfg"
        cfg.write_text(
            "n = 32\nnu = 1\nk = 0.2\nT = 0.4\nchi = 100\n"
            "operator_scale = 4\nk_list = 0.2,0.1\n"
        )
        rc = main([
            "converge", "--config", str(cfg), "--outdir", str(tmp_path / "out"),
            "--set", "k_list=0.2", "--schemes", "none",
        ])
        assert rc == 0
        lines = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("none,0.2")

    def test_config_file_starts_from_the_converge_defaults(self, tmp_path):
        keys = ["n=32", "k_list=0.5,0.25"]
        cfg = tmp_path / "conv.cfg"
        cfg.write_text("\n".join(k.replace("=", " = ") for k in keys))
        common = ["converge", "--schemes", "2a-explicit"]
        assert main([*common, "--config", str(cfg), "--outdir", str(tmp_path / "f")]) == 0
        sets = [arg for key in keys for arg in ("--set", key)]
        assert main([*common, "--outdir", str(tmp_path / "s"), *sets]) == 0
        assert (tmp_path / "f" / "convergence.csv").read_bytes() == \
            (tmp_path / "s" / "convergence.csv").read_bytes()

    def test_default_schemes_are_those_the_operator_admits(self, tmp_path):
        rc = main(["converge", "--outdir", str(tmp_path), "--set", "scheme=2a-implicit",
                   "--set", "operator=differential-filter", "--set", "operator_scale=0.25"])
        assert rc == 0
        rows = (tmp_path / "convergence.csv").read_text().splitlines()[1:]
        assert list(dict.fromkeys(r.split(",")[0] for r in rows)) == [
            "2a-implicit", "2b", "standard"]

    @pytest.mark.parametrize("schemes,sets", [
        ("2a-implicit,bogus", []),
        ("2a-implicit,2a-explicit", ["--set", "scheme=2a-implicit",
                                     "--set", "operator=differential-filter"]),
    ])
    def test_every_scheme_is_checked_before_any_solve(
            self, tmp_path, monkeypatch, capsys, schemes, sets):
        calls = []
        monkeypatch.setattr(ex, "manufactured_error", lambda *a, **kw: calls.append(a))
        rc = main(["converge", "--outdir", str(tmp_path), "--schemes", schemes, *sets])
        assert rc == 2 and calls == []
        assert not (tmp_path / "convergence.csv").exists()
        assert schemes.split(",")[1] in capsys.readouterr().err


class TestTwin:
    def test_outputs_and_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_twin_cli(a, ["--plot-data"]) == 0
        assert run_twin_cli(b) == 0
        for name in ("twin_errors.csv", "horizons.csv", "ledger_chi-0.csv",
                     "ledger_2a-explicit-chi-10.csv"):
            assert (a / name).exists(), name
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        assert (a / "plot_twin_chi-0.dat").exists()
        header = (a / "ledger_chi-0.csv").read_text().splitlines()[0]
        assert header.split(",")[:4] == ["n", "t", "err_l2", "errtilde_l2"]

    def test_alternate_schemes_run_by_default(self, tmp_path):
        assert main(["twin", "--outdir", str(tmp_path), *TINY_TWIN]) == 0
        text = (tmp_path / "twin_errors.csv").read_text()
        for tag in ("chi-0", "2a-explicit-chi-10", "standard-chi-10", "2b-chi-10"):
            assert tag in text

    def test_env_var_overrides_outdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MODNUDGE_OUTDIR", str(tmp_path / "env"))
        assert run_twin_cli(tmp_path / "flag") == 0
        assert (tmp_path / "env" / "twin_errors.csv").exists()
        assert not (tmp_path / "flag").exists()


class TestHorizon:
    def test_reports_from_twin_series(self, tmp_path, capsys):
        assert run_twin_cli(tmp_path) == 0
        rc = main([
            "horizon", "--series", str(tmp_path / "twin_errors.csv"),
            "--outdir", str(tmp_path / "h"), "--windows", "0.04:0.16",
            "--epsilons", "0.1,0.5",
        ])
        assert rc == 0
        lines = (tmp_path / "h" / "horizons.csv").read_text().splitlines()
        assert lines[0].startswith("run,T1,T2,epsilon")
        assert len(lines) == 1 + 2 * 2  # two variants x two epsilons
        assert "lam=" in capsys.readouterr().out

    def test_window_endpoints_snap_to_samples(self, tmp_path):
        assert run_twin_cli(tmp_path) == 0
        rc = main([
            "horizon", "--series", str(tmp_path / "twin_errors.csv"),
            "--outdir", str(tmp_path / "h"), "--windows", "0.041:0.159",
            "--variant", "chi-0",
        ])
        assert rc == 0
        row = (tmp_path / "h" / "horizons.csv").read_text().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(0.04)
        assert float(row[2]) == pytest.approx(0.16)

    def test_empty_epsilon_list_returns_2(self, tmp_path, capsys):
        series = tmp_path / "twin_errors.csv"
        series.write_text("variant,t,rel_err\nchi-0,0,0.5\nchi-0,0.1,0.6\nchi-0,0.2,0.7\n")
        rc = main(["horizon", "--series", str(series), "--windows", "0:0.2",
                   "--epsilons", "", "--outdir", str(tmp_path / "h")])
        assert rc == 2
        assert "--epsilons" in capsys.readouterr().err
        assert not (tmp_path / "h" / "horizons.csv").exists()

    def test_unknown_variant_fails(self, tmp_path, capsys):
        assert run_twin_cli(tmp_path) == 0
        rc = main(["horizon", "--series", str(tmp_path / "twin_errors.csv"),
                   "--variant", "nope"])
        assert rc == 2
        assert "nope" in capsys.readouterr().err


class TestCondlab:
    def test_sweep_csv(self, tmp_path):
        rc = main([
            "condlab", "--outdir", str(tmp_path), "--plot-data",
            "--set", "fem_n=64", "--set", "fem_m=8", "--set", "kchi_list=1,10,100",
        ])
        assert rc == 0
        lines = (tmp_path / "condlab.csv").read_text().splitlines()
        assert lines[0] == "n,m,space_kind,k_chi,cond,cond_ratio,deviation"
        ratios = [float(line.split(",")[5]) for line in lines[1:]]
        assert len(ratios) == 3
        assert max(ratios) / min(ratios) < 5.0
        assert (tmp_path / "plot_condlab_nested-linear.dat").exists()

    def test_mesh_the_sweep_cannot_assemble_exits_2_before_any_output(
        self, tmp_path, monkeypatch, capsys
    ):
        # 256 fine elements do not nest 7 coarse ones; refused while the
        # config is read, before the output directory exists
        monkeypatch.delenv("MODNUDGE_OUTDIR", raising=False)
        outdir = tmp_path / "out"
        assert main(["condlab", "--outdir", str(outdir), "--set", "fem_m=7"]) == 2
        assert "multiple" in capsys.readouterr().err
        assert not outdir.exists()

    def test_default_nested_sweep_deviation_is_roundoff(self, tmp_path):
        # nested spaces make the implicit update equal the explicit one
        assert main(["condlab", "--outdir", str(tmp_path)]) == 0
        rows = (tmp_path / "condlab.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["nested-linear"] * 5
        assert max(float(row.split(",")[6]) for row in rows) <= 1e-12

    def test_reruns_write_identical_csv(self, tmp_path):
        for sub in ("a", "b"):
            assert main([
                "condlab", "--outdir", str(tmp_path / sub),
                "--set", "fem_n=64", "--set", "fem_m=8", "--set", "kchi_list=1,100,1e4",
            ]) == 0
        assert (tmp_path / "a" / "condlab.csv").read_bytes() == \
            (tmp_path / "b" / "condlab.csv").read_bytes()

    def test_config_file_mode_does_not_change_the_sweep(self, tmp_path):
        keys = ["fem_n=64", "fem_m=8", "kchi_list=1,100"]
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("\n".join(k.replace("=", " = ") for k in keys))
        assert main(["condlab", "--config", str(cfg), "--outdir", str(tmp_path / "f")]) == 0
        sets = [arg for key in keys for arg in ("--set", key)]
        assert main(["condlab", "--outdir", str(tmp_path / "s"), *sets]) == 0
        assert (tmp_path / "f" / "condlab.csv").read_bytes() == \
            (tmp_path / "s" / "condlab.csv").read_bytes()


class TestProps:
    def test_pass_and_tamper_exit_codes(self, tmp_path, capsys, request):
        assert main(["props", "--count", "12", "--outdir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "all hard property suites passed" in out
        assert (tmp_path / "props.csv").exists()

        request.getfixturevalue("tampered_gain")
        assert main(["props", "--count", "12"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "equivalence" in out

    def test_env_var_overrides_outdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MODNUDGE_OUTDIR", str(tmp_path / "env"))
        assert main(["props", "--count", "10", "--outdir", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "env" / "props.csv").exists()
        assert not (tmp_path / "flag").exists()


class TestErrors:
    def test_bad_override_returns_2(self, capsys):
        rc = main(["twin", "--set", "bogus=1"])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_explicit_plus_filter_rejected_with_message(self, capsys):
        rc = main(["twin", "--set", "operator=differential-filter",
                   "--set", "operator_scale=0.5"])
        assert rc == 2
        assert "idempotent" in capsys.readouterr().err

    def test_off_grid_horizon_window_fails_before_stepping(self, tmp_path, capsys):
        # the default windows of T=0.02 start at 0.008, between samples k=0.01 apart
        rc = main(["twin", "--outdir", str(tmp_path), "--set", "n=32", "--set", "T=0.02"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "window 0.008:0.012" in err and "k=0.01" in err
        assert not (tmp_path / "twin_errors.csv").exists()

    @pytest.mark.parametrize("sets,message", [
        (["operator_scale=8.7"], "whole-number"),
        (["operator=cell-average", "operator_scale=7"], "must divide"),
    ], ids=["fractional-scale", "cells-not-dividing-n"])
    def test_unusable_operator_scale_fails_before_stepping(self, tmp_path, capsys, sets, message):
        extra = [arg for pair in sets for arg in ("--set", pair)]
        assert run_twin_cli(tmp_path, extra) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "twin_errors.csv").exists()

    def test_empty_chi_list_returns_2(self, tmp_path, capsys):
        rc = main(["twin", "--no-alternates", "--outdir", str(tmp_path), "--set", "n=16",
                   "--set", "operator_scale=4", "--set", "T=0.1", "--set", "chi_list="])
        assert rc == 2
        assert "chi_list" in capsys.readouterr().err
        assert not (tmp_path / "twin_errors.csv").exists()

    def test_empty_override_value_returns_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("MODNUDGE_OUTDIR", raising=False)
        rc = main(["condlab", "--set", "outdir=", "--set", "fem_n=16", "--set", "fem_m=4",
                   "--set", "kchi_list=1"])
        assert rc == 2
        assert "empty key or value" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_module_entry_point(self):
        # the child imports the same package as this process, installed or not
        src = str(Path(modnudge.__file__).parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-m", "modnudge.cli", "props", "--count", "12"],
            capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert "all hard property suites passed" in proc.stdout


# run in a fresh interpreter: no subcommand loads scipy, which the package
# does not depend on
IMPORT_GUARD = """
import sys
from modnudge import cli

out, tiny_twin = sys.argv[1], sys.argv[2:]
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert cli.main(["twin", "--outdir", out + "/twin", *tiny_twin]) == 0
assert cli.main(["twin", "--outdir", out + "/cellavg", *tiny_twin, "--set", "scheme=2a-implicit",
                 "--set", "operator=cell-average", "--set", "operator_scale=8"]) == 0
assert cli.main(["horizon", "--series", out + "/twin/twin_errors.csv", "--windows", "0.04:0.16",
                 "--outdir", out + "/horizon"]) == 0
assert cli.main(["converge", "--outdir", out + "/converge", "--set", "n=16", "--set", "k=0.2",
                 "--set", "k_list=0.2,0.1", "--set", "T=0.4", "--set", "chi=100",
                 "--set", "operator_scale=4"]) == 0
for kind in ("nested-linear", "piecewise-constant"):
    assert cli.main(["condlab", "--outdir", out + "/" + kind, "--set", "fem_n=16",
                     "--set", "fem_m=4", "--set", "fem_kind=" + kind, "--set", "kchi_list=1"]) == 0
assert cli.main(["props", "--count", "12"]) == 0
assert not scipy_modules(), scipy_modules()
print("import guard ok")
"""


def test_no_subcommand_loads_scipy(tmp_path):
    src = str(Path(modnudge.__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(tmp_path), *TINY_TWIN],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert "import guard ok" in proc.stdout


def test_package_source_never_imports_scipy():
    """No module of the package names scipy in an import, lazy ones included."""
    package = Path(modnudge.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_readme_synopsis_lists_every_option():
    """The README's "Command line" block names exactly each subcommand's options."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    documented: dict[str, set[str]] = {}
    for line in block.strip().splitlines():
        head = re.match(r"modnudge (\w+)", line)
        if head:
            command = head.group(1)
        documented.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    defined = {
        name: {opt for a in sub._actions for opt in a.option_strings
               if opt.startswith("--") and opt != "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert documented == defined
