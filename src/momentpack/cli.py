"""Command line front end.

Subcommands: gen (guillotine | harmonic | family fixtures), solve, verify,
identities, render.  Output is JSON by default; --table prints aligned text
where it exists.  Exit codes: 0 success / verified, 1 clean negative result
(infeasible or unverified), 2 usage or input errors, among them documents
nested too deep to decode and systems too large to allocate.  main may be
called many times in one process and reuses one parser.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import moments as mo
from .harmonic import IdentityId, rhs_constant, rhs_derive
from .instances import (
    Instance,
    Layout,
    _check_placement_count,
    _named_spec,
    gen_guillotine,
    harmonic_prefix,
    parse_instance,
    parse_layout,
    serialize_instance,
    serialize_layout,
)
from .oracle import enumerate_small_family
from .solver import SolveConfig, solve_multistart
from .verify import (
    DEFAULT_TOL,
    _check_tol,
    corner_cancellation,
    moment_residual_of_layout,
    verify_exact,
    verify_layout,
)

__all__ = ["main", "run", "render_svg"]

_PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#e15759",
    "#76b7b2",
    "#59a14f",
    "#edc948",
    "#b07aa1",
    "#ff9da7",
    "#9c755f",
    "#bab0ac",
)


def render_svg(
    inst: Instance, layout: Layout, px_per_unit: float = 100.0, labels: bool = False
) -> str:
    """SVG picture of a layout: box outline plus one rect per placement,
    y axis flipped so the origin sits at the bottom-left."""
    if not 0 < px_per_unit < math.inf:
        raise ValueError(f"px_per_unit must be finite and > 0, got {px_per_unit!r}")
    a = float(inst.box.width)
    b = float(inst.box.height)
    w_px = a * px_per_unit
    h_px = b * px_per_unit
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w_px:g}" height="{h_px:g}" '
        f'viewBox="0 0 {w_px:g} {h_px:g}">',
        f'<rect x="0" y="0" width="{w_px:g}" height="{h_px:g}" fill="white" '
        f'stroke="black" stroke-width="2"/>',
    ]
    for i, p in enumerate(layout.placements):
        x = float(p.x_lo) * px_per_unit
        y = (b - float(p.y_hi)) * px_per_unit
        w = float(p.dx) * px_per_unit
        h = float(p.dy) * px_per_unit
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(
            f'<rect x="{x:g}" y="{y:g}" width="{w:g}" height="{h:g}" '
            f'fill="{color}" fill-opacity="0.85" stroke="#222" stroke-width="1"/>'
        )
        if labels:
            cx = float(p.cx) * px_per_unit
            cy = (b - float(p.cy)) * px_per_unit
            parts.append(
                f'<text x="{cx:g}" y="{cy:g}" text-anchor="middle" '
                f'dominant-baseline="central" font-size="{px_per_unit / 5:g}">{i + 1}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)


def _read(path: str) -> str:
    return Path(path).read_text()


def _finite(doc: object) -> object:
    """doc with each float that is not finite, which JSON cannot hold, as None."""
    if isinstance(doc, dict):
        return {k: _finite(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_finite(v) for v in doc]
    return None if isinstance(doc, float) and not math.isfinite(doc) else doc


def _emit(doc: object) -> None:
    print(json.dumps(_finite(doc), allow_nan=False))


# -- Subcommands -------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "guillotine":
        inst, layout = gen_guillotine(args.seed, args.cuts, _named_spec(*args.box, "box"))
        Path(args.out).write_text(serialize_instance(inst) + "\n")
        summary = {"kind": "guillotine", "seed": args.seed, "rects": inst.n_rects, "out": args.out}
        if args.layout_out:
            Path(args.layout_out).write_text(serialize_layout(layout) + "\n")
            summary["layout_out"] = args.layout_out
        _emit(summary)
        return 0
    if args.kind == "harmonic":
        inst = harmonic_prefix(args.n)
        Path(args.out).write_text(serialize_instance(inst) + "\n")
        _emit({"kind": "harmonic", "rects": inst.n_rects, "out": args.out})
        return 0
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    count = 0
    for inst in enumerate_small_family(args.max_box, args.max_side):
        path = out_dir / f"instance_{count:04d}.json"
        path.write_text(serialize_instance(inst) + "\n")
        count += 1
    _emit({"kind": "family", "count": count, "out_dir": str(out_dir)})
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.instance))
    mode = mo.ROTATABLE if args.mode == "rotatable" else mo.FIXED
    cfg = SolveConfig(restarts=args.restarts, seed=args.seed)
    report = solve_multistart(inst, cfg, max_order=args.smax, mode=mode)
    doc = report.to_dict()
    # Timing is run-dependent; identical inputs must print identical output.
    doc.pop("wall_time_s")
    verified = report.status == "converged_verified"
    if verified:
        # Before the report, so a layout that cannot be written prints none.
        out = args.out or (args.instance + ".layout.json")
        Path(out).write_text(serialize_layout(report.best_layout) + "\n")
    _emit(doc)
    return 0 if verified else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.instance))
    layout = parse_layout(_read(args.layout))
    if args.exact:
        # The exact check reads neither --tol nor --smax, but a bad value is
        # still an input error.  Neither check turns the instance into
        # floats, so integers too large for a float stay checkable.
        _check_tol(args.tol)
        mo._check_max_order(args.smax)
        ok = verify_exact(inst, layout)
        _emit({"pass": ok, "mode": "exact"})
        return 0 if ok else 1
    report = verify_layout(inst, layout, tol=args.tol)
    doc = report.to_dict()
    doc["corner_cancellation"] = corner_cancellation(layout, inst.box, tol=args.tol)
    doc["max_moment_residual"] = moment_residual_of_layout(inst, layout, args.smax)
    _emit(doc)
    return 0 if report.passed else 1


def _cmd_identities(args: argparse.Namespace) -> int:
    rows = []
    for ident in IdentityId:
        closed = rhs_constant(ident)
        derived = rhs_derive(ident, args.n_trunc)
        rows.append(
            {
                "id": ident.name,
                "closed_form": closed,
                "derived": derived,
                "abs_diff": abs(closed - derived),
            }
        )
    if args.table:
        width = max(len(r["id"]) for r in rows)
        print(f"{'identity':<{width}}  {'closed form':>20}  {'derived':>20}  {'|diff|':>12}")
        for r in rows:
            print(
                f"{r['id']:<{width}}  {r['closed_form']:>20.15f}  "
                f"{r['derived']:>20.15f}  {r['abs_diff']:>12.3e}"
            )
    else:
        _emit({"n_trunc": args.n_trunc, "identities": rows})
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.instance))
    layout = parse_layout(_read(args.layout))
    _check_placement_count(inst, layout)
    svg = render_svg(inst, layout, px_per_unit=args.scale_px, labels=args.labels)
    Path(args.out).write_text(svg + "\n")
    _emit({"out": args.out, "rect_elements": inst.n_rects + 1})
    return 0


# -- Parser ------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The momentpack parser, built once and shared by every call in the
    process: read it, never change it.  Every default is immutable, so no
    call can leak a value into the next."""
    parser = argparse.ArgumentParser(
        prog="momentpack",
        description="Rectangle packing via truncated moment systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate fixture instances")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)
    g = gen_sub.add_parser("guillotine", help="random guillotine dissection")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--cuts", type=int, default=4)
    g.add_argument("--box", type=float, nargs=2, default=(1.0, 1.0), metavar=("A", "B"))
    g.add_argument("--out", required=True)
    g.add_argument("--layout-out", default=None)
    g.set_defaults(func=_cmd_gen)
    h = gen_sub.add_parser("harmonic", help="harmonic family prefix")
    h.add_argument("--n", type=int, required=True)
    h.add_argument("--out", required=True)
    h.set_defaults(func=_cmd_gen)
    f = gen_sub.add_parser("family", help="all small integer instances")
    f.add_argument("--max-box", type=int, default=4)
    f.add_argument("--max-side", type=int, default=4)
    f.add_argument("--out-dir", required=True)
    f.set_defaults(func=_cmd_gen)

    p_solve = sub.add_parser("solve", help="multistart solve an instance")
    p_solve.add_argument("instance")
    p_solve.add_argument("--smax", type=int, default=None)
    p_solve.add_argument("--mode", choices=["fixed", "rotatable"], default="fixed")
    p_solve.add_argument("--restarts", type=int, default=64, help="starts at most, tried in "
                         "index order; the first that verifies wins")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--out", default=None)
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="verify a layout against an instance")
    p_verify.add_argument("instance")
    p_verify.add_argument("layout")
    p_verify.add_argument("--exact", action="store_true")
    p_verify.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_verify.add_argument("--smax", type=int, default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_id = sub.add_parser("identities", help="harmonic family identity table")
    p_id.add_argument("--n-trunc", type=int, default=1_000_000)
    p_id.add_argument("--table", action="store_true")
    p_id.set_defaults(func=_cmd_identities)

    p_render = sub.add_parser("render", help="render a layout to SVG")
    p_render.add_argument("instance")
    p_render.add_argument("layout")
    p_render.add_argument("out")
    p_render.add_argument("--scale-px", type=float, default=100.0)
    p_render.add_argument("--labels", action="store_true")
    p_render.set_defaults(func=_cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
