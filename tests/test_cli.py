"""Command line behavior: wire formats, exit codes, seeds, and rendering.

Most tests drive main() in process for speed; one test goes through
`python -m` to cover the real entry point.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import pytest

from momentpack import BoxSpec, gen_guillotine
from momentpack import parse_instance, parse_layout, serialize_instance, serialize_layout
from momentpack.cli import build_parser, main, render_svg


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_dominoes(tmp_path):
    path = tmp_path / "dominoes.json"
    path.write_text('{"box": [2, 2], "rects": [[1, 2], [1, 2]]}\n')
    return path


# -- Parser shape -------------------------------------------------------------


def test_parser_has_all_subcommands():
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert set(sub.choices) == {"gen", "solve", "verify", "identities", "render"}


def test_solve_mode_choices_enforced():
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(["solve", "x.json", "--mode", "diagonal"])
    assert err.value.code == 2


def test_smax_flag_spelled_exactly():
    args = build_parser().parse_args(["solve", "x.json", "--smax", "4"])
    assert args.smax == 4
    args = build_parser().parse_args(["verify", "a.json", "b.json", "--smax", "2"])
    assert args.smax == 2


# -- gen ----------------------------------------------------------------------


def test_gen_guillotine_writes_instance_and_layout(capsys, tmp_path):
    inst_path = tmp_path / "g.json"
    lay_path = tmp_path / "g.layout.json"
    code, out, _ = run_cli(
        capsys,
        "gen",
        "guillotine",
        "--seed",
        "7",
        "--cuts",
        "5",
        "--box",
        "10",
        "8",
        "--out",
        str(inst_path),
        "--layout-out",
        str(lay_path),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["rects"] == 6
    inst = parse_instance(inst_path.read_text())
    layout = parse_layout(lay_path.read_text())
    want_inst, want_layout = gen_guillotine(7, 5, BoxSpec(10.0, 8.0))
    assert serialize_instance(inst) == serialize_instance(want_inst)
    assert serialize_layout(layout) == serialize_layout(want_layout)


def test_gen_family_writes_numbered_files(capsys, tmp_path):
    out_dir = tmp_path / "family"
    code, out, _ = run_cli(
        capsys, "gen", "family", "--max-box", "2", "--max-side", "2",
        "--out-dir", str(out_dir),
    )
    assert code == 0
    assert json.loads(out)["count"] == 7
    files = sorted(p.name for p in out_dir.iterdir())
    assert files[0] == "instance_0000.json"
    assert len(files) == 7
    parse_instance((out_dir / files[-1]).read_text())


def test_gen_harmonic(capsys, tmp_path):
    path = tmp_path / "h.json"
    code, out, _ = run_cli(capsys, "gen", "harmonic", "--n", "4", "--out", str(path))
    assert code == 0
    inst = parse_instance(path.read_text())
    assert inst.n_rects == 4
    assert json.loads(path.read_text())["rects"][3] == ["1/4", "1/5"]


def test_pack_seed_env_overrides_flag(capsys, tmp_path, monkeypatch):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    monkeypatch.setenv("PACK_SEED", "3")
    code, out, _ = run_cli(
        capsys, "gen", "guillotine", "--seed", "99", "--cuts", "4", "--out", str(a)
    )
    assert code == 0
    assert json.loads(out)["seed"] == 3
    monkeypatch.delenv("PACK_SEED")
    run_cli(capsys, "gen", "guillotine", "--seed", "3", "--cuts", "4", "--out", str(b))
    assert a.read_text() == b.read_text()


def test_pack_seed_must_be_integer(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PACK_SEED", "many")
    code, _, err = run_cli(
        capsys, "gen", "guillotine", "--out", str(tmp_path / "x.json")
    )
    assert code == 2
    assert "PACK_SEED" in json.loads(err)["error"]


# -- solve --------------------------------------------------------------------


def test_solve_writes_layout_and_exits_zero(capsys, tmp_path):
    inst_path = write_dominoes(tmp_path)
    out_path = tmp_path / "solution.json"
    code, out, _ = run_cli(
        capsys, "solve", str(inst_path), "--restarts", "32", "--out", str(out_path)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "converged_verified"
    assert "wall_time_s" not in doc
    layout = parse_layout(out_path.read_text())
    assert len(layout.placements) == 2


def test_solve_default_output_path(capsys, tmp_path):
    inst_path = write_dominoes(tmp_path)
    code, _, _ = run_cli(capsys, "solve", str(inst_path), "--restarts", "32")
    assert code == 0
    assert (tmp_path / "dominoes.json.layout.json").exists()


def test_solve_infeasible_area_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"box": [2, 2], "rects": [[1, 1]]}\n')
    code, out, _ = run_cli(capsys, "solve", str(path))
    doc = json.loads(out)
    assert code == 1
    assert doc["status"] == "exhausted"
    assert doc["reason"] == "area"
    assert doc["final_residual_inf"] is None


def test_solve_output_is_deterministic(capsys, tmp_path):
    inst_path = write_dominoes(tmp_path)
    _, out1, _ = run_cli(capsys, "solve", str(inst_path), "--seed", "5")
    _, out2, _ = run_cli(capsys, "solve", str(inst_path), "--seed", "5")
    assert out1 == out2


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_solve_tol_must_be_finite_and_non_negative(capsys, tmp_path, tol):
    inst_path = write_dominoes(tmp_path)
    code, out, err = run_cli(capsys, "solve", str(inst_path), "--tol", tol)
    assert code == 2
    assert out == ""
    assert "residual_tol" in json.loads(err)["error"]


@pytest.mark.parametrize("restarts", ["1", "2", "9"])
@pytest.mark.parametrize("via_env", [False, True])
def test_solve_seed_must_be_non_negative(capsys, tmp_path, monkeypatch, via_env, restarts):
    inst_path = write_dominoes(tmp_path)
    argv = ["solve", str(inst_path), "--restarts", restarts]
    if via_env:
        monkeypatch.setenv("PACK_SEED", "-1")
    else:
        argv += ["--seed", "-1"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "seed must be >= 0, got -1" in json.loads(err)["error"]


# -- verify -------------------------------------------------------------------


def test_verify_passing_layout(capsys, tmp_path):
    inst_path = write_dominoes(tmp_path)
    lay_path = tmp_path / "layout.json"
    lay_path.write_text('{"placements": [[0, 0, 1, 2], [1, 0, 2, 2]]}\n')
    code, out, _ = run_cli(capsys, "verify", str(inst_path), str(lay_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["corner_cancellation"] is True
    assert doc["max_moment_residual"] <= 1e-9


def test_verify_failing_layout_exits_one(capsys, tmp_path):
    inst_path = write_dominoes(tmp_path)
    lay_path = tmp_path / "layout.json"
    lay_path.write_text('{"placements": [[0, 0, 1, 2], [0.5, 0, 1.5, 2]]}\n')
    code, out, _ = run_cli(capsys, "verify", str(inst_path), str(lay_path))
    assert code == 1
    assert json.loads(out)["pass"] is False


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_verify_tol_must_be_finite_and_non_negative(capsys, tmp_path, tol):
    inst_path = write_dominoes(tmp_path)
    lay_path = tmp_path / "layout.json"
    lay_path.write_text('{"placements": [[0, 0, 1, 2], [1, 0, 2, 2]]}\n')
    for exact in ([], ["--exact"]):
        argv = ["verify", *exact, str(inst_path), str(lay_path), "--tol", tol]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "tol" in json.loads(err)["error"]


def test_verify_exact_mode(capsys, tmp_path):
    inst_path = write_dominoes(tmp_path)
    lay_path = tmp_path / "layout.json"
    lay_path.write_text('{"placements": [[0, 0, 1, 2], [1, 0, 2, 2]]}\n')
    code, out, _ = run_cli(capsys, "verify", "--exact", str(inst_path), str(lay_path))
    assert code == 0
    assert json.loads(out) == {"pass": True, "mode": "exact"}


def test_verify_exact_non_rational_input_exits_two(capsys, tmp_path):
    # Rect 1 already fails its sides; the non-rational side of rect 2 is
    # still an input error, not a failing layout.
    inst_path = tmp_path / "inst.json"
    inst_path.write_text('{"box": [2, 1], "rects": [[1, 1], [0.5, 2]], "rotation": false}\n')
    lay_path = tmp_path / "layout.json"
    lay_path.write_text('{"placements": [[0, 0, 2, 1], [1, 0, 2, 1]]}\n')
    code, out, err = run_cli(capsys, "verify", "--exact", str(inst_path), str(lay_path))
    assert code == 2
    assert out == ""
    assert "non-rational" in err


# -- identities ---------------------------------------------------------------


def test_identities_json_document(capsys):
    code, out, _ = run_cli(capsys, "identities", "--n-trunc", "500")
    assert code == 0
    doc = json.loads(out)
    assert doc["n_trunc"] == 500
    ids = [row["id"] for row in doc["identities"]]
    assert ids == [
        "X_FIRST",
        "Y_FIRST",
        "XY_CROSS",
        "SUM_SQUARES",
        "SUM_OF_SUM_SQ",
        "DIFF_SQ",
    ]
    for row in doc["identities"]:
        assert row["abs_diff"] <= 1e-9


def test_identities_table(capsys):
    code, out, _ = run_cli(capsys, "identities", "--n-trunc", "100", "--table")
    assert code == 0
    assert "identity" in out.splitlines()[0]
    assert len(out.splitlines()) == 7


# -- render -------------------------------------------------------------------


def test_render_svg_structure():
    inst = parse_instance('{"box": [2, 2], "rects": [[1, 2], [1, 2]]}')
    layout = parse_layout('{"placements": [[0, 0, 1, 2], [1, 0, 2, 2]]}')
    svg = render_svg(inst, layout, px_per_unit=50.0, labels=True)
    assert svg.startswith("<svg")
    assert svg.count("<rect") == 3  # box outline + two rectangles
    assert svg.count("<text") == 2
    assert 'width="100"' in svg


def test_render_cli_writes_file(capsys, tmp_path):
    inst_path = write_dominoes(tmp_path)
    lay_path = tmp_path / "layout.json"
    lay_path.write_text('{"placements": [[0, 0, 1, 2], [1, 0, 2, 2]]}\n')
    out_path = tmp_path / "picture.svg"
    code, out, _ = run_cli(
        capsys, "render", str(inst_path), str(lay_path), str(out_path)
    )
    assert code == 0
    assert json.loads(out)["rect_elements"] == 3
    assert out_path.read_text().startswith("<svg")


@pytest.mark.parametrize("scale", ["0", "-5", "nan", "inf"])
def test_render_scale_must_be_finite_and_positive(capsys, tmp_path, scale):
    inst_path = write_dominoes(tmp_path)
    lay_path = tmp_path / "layout.json"
    lay_path.write_text('{"placements": [[0, 0, 1, 2], [1, 0, 2, 2]]}\n')
    out_path = tmp_path / "picture.svg"
    code, out, err = run_cli(
        capsys, "render", str(inst_path), str(lay_path), str(out_path), "--scale-px", scale
    )
    assert code == 2
    assert out == ""
    assert "px_per_unit" in json.loads(err)["error"]
    assert not out_path.exists()


def test_render_count_mismatch_is_input_error(capsys, tmp_path):
    inst_path = write_dominoes(tmp_path)
    lay_path = tmp_path / "layout.json"
    lay_path.write_text('{"placements": [[0, 0, 1, 2]]}\n')
    code, _, err = run_cli(
        capsys, "render", str(inst_path), str(lay_path), str(tmp_path / "x.svg")
    )
    assert code == 2
    assert "error" in json.loads(err)


# -- Error handling and entry points ------------------------------------------


def test_missing_file_exits_two(capsys):
    code, _, err = run_cli(capsys, "solve", "/nonexistent/instance.json")
    assert code == 2
    assert "error" in json.loads(err)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "momentpack", "identities", "--n-trunc", "100"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert len(doc["identities"]) == 6
