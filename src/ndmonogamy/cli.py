"""Command-line surface: bounds table, region export, invariant suite.

Exit codes: 0 success, 1 invariant failure, 2 usage error, 3 I/O error,
a failed write to stdout included.  All numeric output uses '.' decimals
and fixed significant-digit formatting, so identical seeds and flags give
byte-identical files.  Each command imports only the modules it runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_IO = 3

TABLE_DIGITS = 12


def _bounds_rows() -> list[dict]:
    from . import classical, nodisturbance, quantum

    rows = []
    for row in classical.BOUNDS:
        # eigh, not eigensystem, whose phase fix works on vectors unused here,
        # and not eigvalsh, whose LAPACK path moves the last bits of 12 minima
        w = np.linalg.eigh(quantum.expression_operator(row.expression)).eigenvalues
        rows.append(
            {
                "expression": row.name,
                "classical_min": classical.classical_bound(row.expression).minimum,
                "nd_min": nodisturbance.certified_nd_minimum(row),
                "quantum_min": float(w[0]),
            }
        )
    return rows


def _check_bounds_rows(rows: list[dict]) -> list[str]:
    """The printed table against :data:`ndmonogamy.classical.BOUNDS`.

    The no-disturbance column needs no comparison here: it is
    ``certified_nd_minimum(row)``, which returns the row's own bound or
    raises.
    """
    from . import classical

    expected = {row.name: row for row in classical.BOUNDS}
    problems = []
    for row in rows:
        ref = expected[row["expression"]]
        if row["classical_min"] != ref.classical:
            problems.append(f"{row['expression']}: classical {row['classical_min']}")
        if ref.quantum is not None and abs(row["quantum_min"] - ref.quantum) > 1e-9:
            problems.append(f"{row['expression']}: quantum {row['quantum_min']}")
    return problems


def _format_bounds_text(rows: list[dict]) -> str:
    header = f"{'expression':<12} {'classical':>18} {'no-disturbance':>18} {'quantum':>18}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['expression']:<12} "
            f"{row['classical_min']:>18.{TABLE_DIGITS}g} "
            f"{row['nd_min']:>18.{TABLE_DIGITS}g} "
            f"{row['quantum_min']:>18.{TABLE_DIGITS}g}"
        )
    return "\n".join(lines)


def cmd_bounds(args: argparse.Namespace) -> int:
    from .errors import InvalidCertificate

    try:
        rows = _bounds_rows()
    except InvalidCertificate as exc:
        print(f"bound check failed: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    text = (
        json.dumps(rows, indent=2)
        if args.format == "json"
        else _format_bounds_text(rows)
    )
    if args.out:
        try:
            Path(args.out).write_text(text + "\n")
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        print(text)
    problems = _check_bounds_rows(rows)
    if problems:
        for p in problems:
            print(f"bound check failed: {p}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_region(args: argparse.Namespace) -> int:
    if args.samples < 2:
        print("region export needs --samples >= 2", file=sys.stderr)
        return EXIT_USAGE
    from . import classical, region

    boundary = region.sample_boundary(args.samples)
    touch = region.touching_point()
    line_chsh = np.linspace(classical.CHSH_ND_BOUND, 1.0, args.samples)
    line_kcbs = classical.MONOGAMY_BOUND - line_chsh
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "boundary.csv", "w") as file:
            region.write_boundary_csv(file, boundary)
        with open(out_dir / "touching_point.csv", "w") as file:
            region.write_point_csv(file, touch)
        with open(out_dir / "nd_line.csv", "w") as file:
            region.write_csv(file, "chsh,kcbs", line_chsh, line_kcbs)
    except OSError as exc:
        print(f"cannot write to {out_dir}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(
        f"wrote {len(boundary)} boundary points, {len(line_chsh)} line samples and "
        f"the touching point ({touch.chsh:.6f}, {touch.kcbs:.6f}) to {out_dir}"
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from . import quantum, verify

    chsh_matrix = None
    if args.perturb_chsh:
        chsh_matrix = quantum.chsh_operator()
        chsh_matrix[0, 1] += args.perturb_chsh  # cross-block entry, test hook
        chsh_matrix[1, 0] += args.perturb_chsh
    results = verify.verify_all(args.samples, args.seed, chsh_matrix)
    summary = verify.summary_json(results, args.samples, args.seed)
    if args.format == "json":
        print(summary)
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"[{status}] {r.name}: {r.detail}")
    if args.out:
        try:
            Path(args.out).write_text(summary + "\n")
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_IO
    failures = [r.name for r in results if not r.passed]
    if failures:
        print(f"first failing invariant: {failures[0]}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ndmonogamy",
        description=(
            "Classical, no-disturbance and quantum bounds for the "
            "pentagon/Bell monogamy scenario, with reproduction data export."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="print the bounds table")
    p_bounds.add_argument("--format", choices=("text", "json"), default="text")
    p_bounds.add_argument("--out", default=None, help="write the table to a file")
    p_bounds.set_defaults(func=cmd_bounds)

    p_region = sub.add_parser("region", help="export boundary and line CSVs")
    p_region.add_argument(
        "--samples", type=int, default=100_000, help="boundary points per branch"
    )
    p_region.add_argument("--out", default="region_out", help="output directory")
    p_region.set_defaults(func=cmd_region)

    p_verify = sub.add_parser(
        "verify",
        help="run the invariant suite",
        description=(
            "Run the invariant suite; exit 0 iff every check passes. "
            "region-membership passes only if the random states include at "
            "least one that violates only the KCBS bound and one that "
            "violates only the CHSH bound, so small --samples fail by chance: "
            "14 of seeds 0-39 fail at 500 samples, 6 at 1000 and none at 2000."
        ),
    )
    p_verify.add_argument(
        "--samples", type=int, default=100_000, help="random states in the region-membership sweep"
    )
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--out", default=None, help="write the JSON summary to a file")
    p_verify.add_argument(
        "--perturb-chsh",
        type=float,
        default=0.0,
        help="fault-injection test hook: add this to a cross-block entry",
    )
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "samples", 1) < 1:
        print("--samples must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if not math.isfinite(getattr(args, "perturb_chsh", 0.0)):
        print("--perturb-chsh must be finite", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "seed", 0) < 0:
        print("--seed must be non-negative", file=sys.stderr)
        return EXIT_USAGE
    # The commands catch their own file errors, so an OSError here
    # (BrokenPipeError included) is a failed write to stdout.
    try:
        code = args.func(args)
        sys.stdout.flush()
    except OSError as exc:
        print(f"cannot write stdout: {exc}", file=sys.stderr)
        # Else the interpreter's final flush fails again and exits 120.
        sys.stdout = open(os.devnull, "w")
        return EXIT_IO
    return code


if __name__ == "__main__":
    sys.exit(main())
