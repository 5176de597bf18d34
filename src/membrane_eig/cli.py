"""Command-line interface.

Subcommands:
  eigs   closed-form eigensystem at one deformation gradient
  check  run the randomized verification suite (exit 0 iff all pass)
  solve  run a quasi-static solve from a JSON scene file
  bench  time the analytic route against the finite-difference oracle

All output is deterministic for fixed inputs: floats are printed with repr,
JSON uses sorted keys, and nothing includes timestamps or wall times
(except bench, whose purpose is timing).
"""

import argparse
import json
import sys

import numpy as np

from .checks import run_bench, run_checks
from .fem import LineSearchFailed, LinearSolveFailed
from .invariants import DegenerateHessian, invariant_eigensystem
from .models import DomainError, sheet_eigensystem
from .scene import solve_scene
from .svd import svd32

__all__ = ["main"]


def _parse_f(text):
    parts = text.split(",")
    if len(parts) != 6:
        raise ValueError("--f needs 6 comma-separated numbers (row-major 3x2)")
    return np.array([float(p) for p in parts]).reshape(3, 2)


def _integer_at_least(least):
    # An argparse type: an integer >= least, or an argparse error (exit 2).
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < least:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {least}, got {text!r}"
            )
        return value

    return parse


_seed = _integer_at_least(0)
_trials = _integer_at_least(1)


def _format_eig(label, f, eig, as_json):
    if as_json:
        payload = {
            "kind": label,
            "f": f.tolist(),
            "eigenvalues": [float(v) for v in eig.values],
            "eigenmatrices": eig.matrices.tolist(),
        }
        return json.dumps(payload, sort_keys=True, indent=2)
    lines = [f"eigensystem: {label}"]
    lines.append("f =")
    for row in f:
        lines.append(f"  [{float(row[0])!r}, {float(row[1])!r}]")
    for k, (lam, q) in enumerate(eig.pairs()):
        lines.append(f"lambda[{k}] = {float(lam)!r}")
        for row in q:
            lines.append(f"  [{float(row[0])!r}, {float(row[1])!r}]")
    return "\n".join(lines)


def _cmd_eigs(args):
    # Both failures are ValueErrors: a degenerate or inadmissible F is a
    # well-formed input with no answer (exit 1), any other is malformed
    # input (exit 2).
    try:
        f = _parse_f(args.f)
        svd = svd32(f)
        if args.invariant is not None:
            eig = invariant_eigensystem(args.invariant, svd)
            label = args.invariant
        else:
            eig = sheet_eigensystem(args.mu, svd)
            label = f"sheet(mu={args.mu!r})"
    except (DegenerateHessian, DomainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(_format_eig(label, f, eig, args.json))
    return 0


def _cmd_check(args):
    reports = run_checks(seed=args.seed, trials=args.trials)
    all_passed = all(r.passed for r in reports)
    if args.json:
        payload = {
            "seed": args.seed,
            "trials": args.trials,
            "all_passed": all_passed,
            "checks": [r.to_dict() for r in reports],
        }
        print(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False))
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            line = (
                f"{status}  {r.name:<30} trials={r.trials:<5} "
                f"max_err={r.max_error!r}  tol={r.tol!r}"
            )
            print(line)
            if not r.passed and r.counterexample is not None:
                print(f"      counterexample: {r.counterexample!r}")
        n_pass = sum(1 for r in reports if r.passed)
        print(f"{n_pass}/{len(reports)} checks passed")
    return 0 if all_passed else 1


def _cmd_solve(args):
    try:
        _, report, output_dir = solve_scene(args.scene)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (LineSearchFailed, LinearSolveFailed) as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 1
    final = report.history[-1]
    print(f"termination: {report.termination}")
    print(f"iterations: {report.iterations}")
    print(f"final energy: {final.energy!r}")
    print(f"final grad norm: {final.grad_norm!r}")
    print(f"output: {output_dir}")
    return 0 if report.termination == "converged" else 1


def _cmd_bench(args):
    report = run_bench(trials=args.trials)
    print(report.table())
    print()
    print(report.csv(), end="")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="membrane-eig",
        description="Closed-form membrane energy eigensystems and solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eigs = sub.add_parser("eigs", help="eigensystem at one 3x2 gradient")
    p_eigs.add_argument(
        "--f",
        required=True,
        help="6 comma-separated numbers, row-major 3x2",
    )
    p_eigs.add_argument("--mu", type=float, default=1.0)
    p_eigs.add_argument("--invariant", choices=["I1", "I2", "I3"], default=None)
    p_eigs.add_argument("--json", action="store_true")
    p_eigs.set_defaults(fn=_cmd_eigs)

    p_check = sub.add_parser("check", help="run the verification suite")
    p_check.add_argument("--seed", type=_seed, default=42)
    p_check.add_argument("--trials", type=_trials, default=1000)
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(fn=_cmd_check)

    p_solve = sub.add_parser("solve", help="solve a JSON scene")
    p_solve.add_argument("--scene", required=True)
    p_solve.set_defaults(fn=_cmd_solve)

    p_bench = sub.add_parser("bench", help="time analytic vs oracle spectra")
    p_bench.add_argument("--trials", type=_trials, default=200)
    p_bench.set_defaults(fn=_cmd_bench)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)
