"""Command line behavior: wire formats, exit codes, seeds, and rendering.

Most tests drive main() in process for speed; one test goes through
`python -m` to cover the real entry point.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest

from momentpack import BoxSpec, gen_guillotine
from momentpack import parse_instance, parse_layout, serialize_instance, serialize_layout
from momentpack import cli, search
from momentpack.cli import build_parser, main, render_svg


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_loads(text):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


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


def test_parser_defaults_are_immutable():
    # The parser is shared by every call in the process, and argparse hands
    # a default to the namespace as it is: one a call could change in place
    # would carry into the next call.
    parsers = [build_parser()]
    defaults = {}
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            else:
                defaults[parser.prog, action.dest] = action.default
        defaults.update(((parser.prog, k), v) for k, v in parser._defaults.items())
    assert defaults["momentpack gen guillotine", "box"] == (1.0, 1.0)
    immutable = (type(None), bool, int, float, str, types.FunctionType)
    for key, value in defaults.items():
        items = value if isinstance(value, tuple) else (value,)
        assert all(isinstance(v, immutable) for v in items), key


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
    summary = strict_loads(out)
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
    assert strict_loads(out)["count"] == 7
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
    assert strict_loads(path.read_text())["rects"][3] == ["1/4", "1/5"]


# -- solve --------------------------------------------------------------------


def test_solve_writes_layout_and_exits_zero(capsys, tmp_path):
    inst_path = write_dominoes(tmp_path)
    out_path = tmp_path / "solution.json"
    code, out, _ = run_cli(
        capsys, "solve", str(inst_path), "--restarts", "32", "--out", str(out_path)
    )
    assert code == 0
    doc = strict_loads(out)
    assert doc["status"] == "converged_verified"
    assert "wall_time_s" not in doc
    layout = parse_layout(out_path.read_text())
    assert len(layout.placements) == 2


def test_solve_rotatable_places_given_sides_after_lm_steps(capsys, tmp_path):
    # A 2x1 and a 1x2 made 4e-8 too tall: they tile the 2x2 box only within
    # the verifier's tolerance, stacked with the second turned, so the win
    # takes LM steps.  LM moves rectangles, never their sides: each placed
    # side is a given one, upright or turned.  Fixed mode cannot turn the
    # second, and no layout passes.
    inst_path = tmp_path / "near.json"
    inst_path.write_text('{"box": [2, 2], "rects": [[2, 1], [1, 2.00000004]]}\n')
    out_path = tmp_path / "near.layout.json"
    argv = ["solve", str(inst_path), "--mode", "rotatable", "--restarts", "8", "--out"]
    code, out, _ = run_cli(capsys, *argv, str(out_path))
    doc = strict_loads(out)
    assert code == 0 and doc["status"] == "converged_verified"
    assert doc["iterations_total"] > 0
    inst = parse_instance(inst_path.read_text())
    for r, p in zip(inst.rects, parse_layout(out_path.read_text()).placements):
        dx, dy = float(p.x_hi) - float(p.x_lo), float(p.y_hi) - float(p.y_lo)
        w, h = float(r.width), float(r.height)
        upright, turned = max(abs(dx - w), abs(dy - h)), max(abs(dx - h), abs(dy - w))
        assert min(upright, turned) <= 1e-12 * 2
    code, out, _ = run_cli(capsys, "verify", str(inst_path), str(out_path))
    assert code == 0 and strict_loads(out)["pass"] is True
    argv[3], argv[-1:] = "fixed", ["--out", str(tmp_path / "fixed.json")]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1 and strict_loads(out)["status"] == "exhausted"


def test_solve_rotatable_tiles_as_drawn_after_a_pruned_restart(capsys, tmp_path, monkeypatch):
    # The guillotine of `gen guillotine --seed 10` (found by a search over
    # seeds at the gen defaults): at the solve defaults in rotatable mode,
    # start 0's search backtracks, builds the width-sum table and, searching
    # again pruned by it, tiles the box with every rectangle turned, so the
    # table's turned-shape bits are read.  The start verifies as drawn.
    inst_path, out_path = tmp_path / "g.json", tmp_path / "g.layout.json"
    code, _, _ = run_cli(capsys, "gen", "guillotine", "--seed", "10", "--out", str(inst_path))
    assert code == 0
    # The recorder hands the search the table it records, so the restart
    # really is pruned by it.
    tables, width_sums = [], search._width_sums
    monkeypatch.setattr(
        search, "_width_sums", lambda *args: tables.append(width_sums(*args)) or tables[-1]
    )
    argv = ["solve", str(inst_path), "--mode", "rotatable", "--out", str(out_path)]
    code, out, _ = run_cli(capsys, *argv)
    doc = strict_loads(out)
    assert code == 0 and doc["status"] == "converged_verified"
    assert doc["start_index"] == 0 and doc["iterations_total"] == 0
    assert len(tables) == 1 and tables[0] is not None
    inst = parse_instance(inst_path.read_text())
    layout = parse_layout(out_path.read_text())
    for r, p in zip(inst.rects, layout.placements):
        assert r.width != r.height
        assert (p.x_hi - p.x_lo, p.y_hi - p.y_lo) == pytest.approx((r.height, r.width))
    code, out, _ = run_cli(capsys, "verify", str(inst_path), str(out_path))
    assert code == 0 and strict_loads(out)["pass"] is True


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
    assert "error" in strict_loads(err)
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
    doc = strict_loads(out)
    assert code == 1
    assert doc["status"] == "exhausted"
    assert doc["reason"] == "area"
    assert doc["final_residual_inf"] is None


def test_solve_with_no_complete_fill_exits_one(capsys, tmp_path):
    # Two 2x2 squares and a unit square pass the area and fit gates of a
    # 3x3 box, but no gap fill tiles it: no start is tried, no layout is
    # reported or written, and two runs print the same bytes.
    path = tmp_path / "untiled.json"
    path.write_text('{"box": [3, 3], "rects": [[2, 2], [2, 2], [1, 1]]}\n')
    outs = []
    for _ in range(2):
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 1 and err == ""
        outs.append(out)
    assert '"best_layout": null' in outs[0] and '"reason": "fill"' in outs[0]
    assert outs[0] == outs[1]
    assert strict_loads(outs[0])["start_index"] == -1
    assert not (tmp_path / "untiled.json.layout.json").exists()


def test_solve_bad_smax_exits_two_before_the_area_gate(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"box": [2, 2], "rects": [[1, 1]]}\n')
    code, out, err = run_cli(capsys, "solve", str(path), "--smax", "0")
    assert code == 2
    assert out == ""
    assert "max_order must be >= 1" in strict_loads(err)["error"]


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
    assert "seed must be >= 0, got -1" in strict_loads(err)["error"]


def test_gen_guillotine_seed_must_be_non_negative(capsys, tmp_path):
    out_path = tmp_path / "n.json"
    code, out, err = run_cli(capsys, "gen", "guillotine", "--seed", "-1", "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert strict_loads(err)["error"] == "seed must be >= 0, got -1"
    assert not out_path.exists()


def test_gen_guillotine_names_a_bad_box(capsys, tmp_path):
    out_path = tmp_path / "n.json"
    code, out, err = run_cli(capsys, "gen", "guillotine", "--box", "0", "1", "--out", str(out_path))
    assert code == 2
    assert strict_loads(err)["error"] == "box: sides must be positive, got 0.0 x 1.0"
    assert not out_path.exists()


def test_solve_names_the_bad_rect(capsys, tmp_path):
    inst_path = tmp_path / "z.json"
    inst_path.write_text('{"box": [2, 1], "rects": [[1, 1], [0, 1]]}\n')
    code, out, err = run_cli(capsys, "solve", str(inst_path))
    assert code == 2
    assert out == ""
    assert strict_loads(err)["error"] == "rect 2: sides must be positive, got 0 x 1"


# -- verify -------------------------------------------------------------------


def test_verify_passing_layout(capsys, tmp_path):
    inst_path = write_dominoes(tmp_path)
    lay_path = tmp_path / "layout.json"
    lay_path.write_text('{"placements": [[0, 0, 1, 2], [1, 0, 2, 2]]}\n')
    code, out, _ = run_cli(capsys, "verify", str(inst_path), str(lay_path))
    assert code == 0
    doc = strict_loads(out)
    assert doc["pass"] is True
    assert doc["corner_cancellation"] is True
    assert doc["max_moment_residual"] <= 1e-9


def test_verify_failing_layout_exits_one(capsys, tmp_path):
    inst_path = write_dominoes(tmp_path)
    lay_path = tmp_path / "layout.json"
    lay_path.write_text('{"placements": [[0, 0, 1, 2], [0.5, 0, 1.5, 2]]}\n')
    code, out, _ = run_cli(capsys, "verify", str(inst_path), str(lay_path))
    assert code == 1
    assert strict_loads(out)["pass"] is False


def test_verify_of_sides_that_overflow_prints_no_warning(capsys, tmp_path):
    # Corner differences past the largest float overflow to infinity; the
    # report says so, as strict JSON with nulls, and numpy must not warn.
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
    doc = strict_loads(out)
    assert doc["size_violations"] == [[1, None, None]]
    assert doc["area_gap"] is None
    assert doc["max_moment_residual"] is None


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
        assert "tol" in strict_loads(err)["error"]


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
        assert f"max_order must be >= 1, got {smax}" in strict_loads(err)["error"]


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
    assert "too large" in strict_loads(err)["error"]
    assert not svg_path.exists()


def test_verify_exact_checks_integers_too_large_for_a_float(capsys, tmp_path):
    inst_path, lay_path = write_huge_tiling(tmp_path)
    code, out, _ = run_cli(capsys, "verify", "--exact", str(inst_path), str(lay_path))
    assert code == 0
    assert strict_loads(out) == {"pass": True, "mode": "exact"}


def test_verify_exact_mode(capsys, tmp_path):
    inst_path = write_dominoes(tmp_path)
    lay_path = tmp_path / "layout.json"
    lay_path.write_text('{"placements": [[0, 0, 1, 2], [1, 0, 2, 2]]}\n')
    code, out, _ = run_cli(capsys, "verify", "--exact", str(inst_path), str(lay_path))
    assert code == 0
    assert strict_loads(out) == {"pass": True, "mode": "exact"}


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
    doc = strict_loads(out)
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
    assert strict_loads(out)["rect_elements"] == 3
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
    assert "px_per_unit" in strict_loads(err)["error"]
    assert not out_path.exists()


def test_render_count_mismatch_is_input_error(capsys, tmp_path):
    inst_path = write_dominoes(tmp_path)
    lay_path = tmp_path / "layout.json"
    lay_path.write_text('{"placements": [[0, 0, 1, 2]]}\n')
    code, _, err = run_cli(
        capsys, "render", str(inst_path), str(lay_path), str(tmp_path / "x.svg")
    )
    assert code == 2
    assert "error" in strict_loads(err)


# -- Error handling and entry points ------------------------------------------


def test_missing_file_exits_two(capsys):
    code, _, err = run_cli(capsys, "solve", "/nonexistent/instance.json")
    assert code == 2
    assert "error" in strict_loads(err)


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
    assert strict_loads(err)["error"].startswith(f"malformed {kind} document: ")


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
    assert "allocate" in strict_loads(err)["error"]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "momentpack", "identities", "--n-trunc", "100"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = strict_loads(proc.stdout)
    assert len(doc["identities"]) == 6


# -- One parser per process ---------------------------------------------------


def test_main_builds_one_parser_for_many_calls(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(3):
        assert run_cli(capsys, "identities", "--n-trunc", "100")[0] == 0
    assert len(built) == 9  # momentpack and its eight subcommand parsers
    assert build_parser() is build_parser() is built[0]


def test_a_call_after_other_flags_prints_what_a_fresh_process_prints(capsys, tmp_path):
    inst_path = write_dominoes(tmp_path)
    code, _, _ = run_cli(
        capsys, "solve", str(inst_path), "--seed", "5", "--restarts", "3",
        "--mode", "rotatable", "--out", str(tmp_path / "other.json"),
    )
    assert code == 0
    layout_path = tmp_path / "dominoes.json.layout.json"
    in_process = run_cli(capsys, "solve", str(inst_path)), layout_path.read_text()
    layout_path.unlink()
    proc = subprocess.run(
        [sys.executable, "-m", "momentpack", "solve", str(inst_path)],
        capture_output=True,
        text=True,
    )
    assert in_process == ((proc.returncode, proc.stdout, proc.stderr), layout_path.read_text())


def test_a_usage_error_leaves_the_parser_working(capsys, tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["solve", "x.json", "--mode", "diagonal"])
    assert err.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    inst_path = write_dominoes(tmp_path)
    lay_path = tmp_path / "layout.json"
    lay_path.write_text('{"placements": [[0, 0, 1, 2], [1, 0, 2, 2]]}\n')
    code, out, err = run_cli(capsys, "verify", str(inst_path), str(lay_path))
    assert (code, err) == (0, "")
    assert strict_loads(out)["pass"] is True


# -- Output -------------------------------------------------------------------

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    ("doc", "text"),
    [
        (
            {"a": [1, 2.5, (3, {"b": (0.1, -0.0, None)})], "c": True, "e": np.float64(0.3)},
            '{"a": [1, 2.5, [3, {"b": [0.1, -0.0, null]}]], "c": true, "e": 0.3}',
        ),
        ([[], {}, ()], "[[], {}, []]"),
        (NAN, "null"),
        (INF, "null"),
        (-INF, "null"),
        (np.float64(NAN), "null"),
        ({"a": 1.0, "b": NAN}, '{"a": 1.0, "b": null}'),
        ([0.5, INF, {"c": [-INF]}], '[0.5, null, {"c": [null]}]'),
        ((1.0, NAN), "[1.0, null]"),
        ({"a": (np.float64(-INF), 2)}, '{"a": [null, 2]}'),
    ],
)
def test_emit_prints_non_finite_floats_as_null(capsys, doc, text):
    cli._emit(doc)
    assert capsys.readouterr().out == text + "\n"
