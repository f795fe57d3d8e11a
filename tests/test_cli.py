"""Command line behavior: wire formats, exit codes, seeds, and rendering.

Most tests drive main() in process for speed; one test goes through
`python -m` to cover the real entry point.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import warnings

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


def test_solve_unwritable_out_exits_two_with_empty_stdout(capsys, tmp_path):
    # The dominoes verify, so solve writes a layout; into a missing
    # directory that is an input error, and no report is printed.
    inst_path = write_dominoes(tmp_path)
    out_path = tmp_path / "missing" / "solution.json"
    code, out, err = run_cli(
        capsys, "solve", str(inst_path), "--restarts", "32", "--out", str(out_path)
    )
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)
    assert not out_path.exists()


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


def test_solve_bad_smax_exits_two_before_the_area_gate(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"box": [2, 2], "rects": [[1, 1]]}\n')
    code, out, err = run_cli(capsys, "solve", str(path), "--smax", "0")
    assert code == 2
    assert out == ""
    assert "max_order must be >= 1" in json.loads(err)["error"]


def test_solve_output_is_deterministic(capsys, tmp_path):
    inst_path = write_dominoes(tmp_path)
    _, out1, _ = run_cli(capsys, "solve", str(inst_path), "--seed", "5")
    _, out2, _ = run_cli(capsys, "solve", str(inst_path), "--seed", "5")
    assert out1 == out2


@pytest.mark.parametrize("restarts", ["1", "2", "9"])
def test_solve_seed_must_be_non_negative(capsys, tmp_path, restarts):
    inst_path = write_dominoes(tmp_path)
    argv = ["solve", str(inst_path), "--restarts", restarts, "--seed", "-1"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "seed must be >= 0, got -1" in json.loads(err)["error"]


def test_gen_guillotine_seed_must_be_non_negative(capsys, tmp_path):
    out_path = tmp_path / "n.json"
    code, out, err = run_cli(capsys, "gen", "guillotine", "--seed", "-1", "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "seed must be >= 0, got -1"
    assert not out_path.exists()


def test_gen_guillotine_names_a_bad_box(capsys, tmp_path):
    out_path = tmp_path / "n.json"
    code, out, err = run_cli(capsys, "gen", "guillotine", "--box", "0", "1", "--out", str(out_path))
    assert code == 2
    assert json.loads(err)["error"] == "box: sides must be positive, got 0.0 x 1.0"
    assert not out_path.exists()


def test_solve_names_the_bad_rect(capsys, tmp_path):
    inst_path = tmp_path / "z.json"
    inst_path.write_text('{"box": [2, 1], "rects": [[1, 1], [0, 1]]}\n')
    code, out, err = run_cli(capsys, "solve", str(inst_path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "rect 2: sides must be positive, got 0 x 1"


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


def test_verify_of_sides_that_overflow_prints_no_warning(capsys, tmp_path):
    # Corner differences past the largest float overflow to infinity; the
    # report says so and numpy must not warn about it.
    inst_path = tmp_path / "big.json"
    inst_path.write_text('{"box": [1e308, 1e308], "rects": [[1e308, 1e308]]}\n')
    lay_path = tmp_path / "big.layout.json"
    lay_path.write_text('{"placements": [[-1e308, 0, 1.7e308, 1e308]]}\n')
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "verify", str(inst_path), str(lay_path))
    assert code == 1
    assert '"pass": false' in out
    assert (caught, err) == ([], "")


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


@pytest.mark.parametrize("smax", ["0", "-3"])
def test_verify_smax_must_be_positive(capsys, tmp_path, smax):
    inst_path = write_dominoes(tmp_path)
    lay_path = tmp_path / "layout.json"
    lay_path.write_text('{"placements": [[0, 0, 1, 2], [1, 0, 2, 2]]}\n')
    for exact in ([], ["--exact"]):
        argv = ["verify", *exact, str(inst_path), str(lay_path), "--smax", smax]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"max_order must be >= 1, got {smax}" in json.loads(err)["error"]


def write_huge_tiling(tmp_path):
    # One rectangle filling a box whose width, 10**400, no float can hold.
    inst_path = tmp_path / "huge.json"
    inst_path.write_text(json.dumps({"box": [10**400, 1], "rects": [[10**400, 1]]}))
    lay_path = tmp_path / "huge.layout.json"
    lay_path.write_text(json.dumps({"placements": [[0, 0, 10**400, 1]]}))
    return inst_path, lay_path


@pytest.mark.parametrize("command", ["solve", "verify", "render"])
def test_integers_too_large_for_a_float_are_input_errors(capsys, tmp_path, command):
    inst_path, lay_path = write_huge_tiling(tmp_path)
    svg_path = tmp_path / "huge.svg"
    argv = {
        "solve": ["solve", str(inst_path)],
        "verify": ["verify", str(inst_path), str(lay_path)],
        "render": ["render", str(inst_path), str(lay_path), str(svg_path)],
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "too large" in json.loads(err)["error"]
    assert not svg_path.exists()


def test_verify_exact_checks_integers_too_large_for_a_float(capsys, tmp_path):
    inst_path, lay_path = write_huge_tiling(tmp_path)
    code, out, _ = run_cli(capsys, "verify", "--exact", str(inst_path), str(lay_path))
    assert code == 0
    assert json.loads(out) == {"pass": True, "mode": "exact"}


def test_verify_exact_mode(capsys, tmp_path):
    inst_path = write_dominoes(tmp_path)
    lay_path = tmp_path / "layout.json"
    lay_path.write_text('{"placements": [[0, 0, 1, 2], [1, 0, 2, 2]]}\n')
    code, out, _ = run_cli(capsys, "verify", "--exact", str(inst_path), str(lay_path))
    assert code == 0
    assert json.loads(out) == {"pass": True, "mode": "exact"}


def test_verify_empty_instance_exits_one(capsys, tmp_path):
    # No rectangles leave the whole box uncovered: both verifiers fail it.
    inst_path = tmp_path / "empty.json"
    inst_path.write_text('{"box": [1, 1], "rects": []}\n')
    lay_path = tmp_path / "empty.layout.json"
    lay_path.write_text('{"placements": []}\n')
    code, out, _ = run_cli(capsys, "verify", str(inst_path), str(lay_path))
    assert code == 1
    assert out == (
        '{"pass": false, "containment_violations": [], "overlap_violations": [], '
        '"size_violations": [], "area_gap": -1.0, "tol": 1e-07, '
        '"corner_cancellation": false, "max_moment_residual": 1.0}\n'
    )
    code, out, _ = run_cli(capsys, "verify", "--exact", str(inst_path), str(lay_path))
    assert code == 1
    assert out == '{"pass": false, "mode": "exact"}\n'


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


@pytest.mark.parametrize(
    "command, kind",
    [("verify", "instance"), ("verify", "layout"), ("solve", "instance")],
)
def test_documents_nested_too_deep_are_input_errors(capsys, tmp_path, command, kind):
    # json.loads gives up on 100,000 nested lists with a RecursionError.
    inst_path = write_dominoes(tmp_path)
    lay_path = tmp_path / "layout.json"
    lay_path.write_text('{"placements": [[0, 0, 1, 2], [1, 0, 2, 2]]}\n')
    deep = {"instance": inst_path, "layout": lay_path}[kind]
    body = {"instance": '{"box": %s, "rects": []}', "layout": '{"placements": %s}'}[kind]
    deep.write_text(body % ("[" * 100_000 + "]" * 100_000))
    argv = [command, str(inst_path)] + ([str(lay_path)] if command == "verify" else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"].startswith(f"malformed {kind} document: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{inst}", "--smax", "1000000000"],
        ["verify", "{inst}", "{layout}", "--smax", "1000000000"],
        ["identities", "--n-trunc", "100000000000000000"],
    ],
)
def test_systems_too_large_to_allocate_are_input_errors(capsys, tmp_path, argv):
    # Each first large array asks for far more than any address space
    # (about 7 EiB and 711 PiB), so numpy fails before touching memory.
    inst_path = write_dominoes(tmp_path)
    lay_path = tmp_path / "layout.json"
    lay_path.write_text('{"placements": [[0, 0, 1, 2], [1, 0, 2, 2]]}\n')
    argv = [a.format(inst=inst_path, layout=lay_path) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "allocate" in json.loads(err)["error"]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "momentpack", "identities", "--n-trunc", "100"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert len(doc["identities"]) == 6
