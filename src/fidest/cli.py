"""Command-line front end producing machine-readable run reports.

Every subcommand prints a single JSON report to stdout:
{command, inputs, results, seed, tolerances, wall_time_ms}. Failures print a
one-line JSON error object to stderr and exit nonzero: 2 for a command line
that argparse rejects, 1 for any other bad input. All randomness is
controlled by --seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

import numpy as np

from . import approx, nogo, qcore, symmetry, witness


def _report(command: str, inputs: dict, results: dict, seed: int,
            tolerances: dict, started: float) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "seed": seed,
        "tolerances": tolerances,
        "wall_time_ms": (time.perf_counter() - started) * 1000,
    }


def cmd_witness(args) -> dict:
    started = time.perf_counter()
    if args.demo:
        p, alpha, beta = 0.0, 1 / math.sqrt(2), 1 / math.sqrt(2)
        gamma, delta = math.pi, 0.0
    else:
        missing = [name for name in ("p", "alpha", "beta")
                   if getattr(args, name) is None]
        if missing:
            raise ValueError(
                f"missing required flags without --demo: {missing}")
        p, alpha, beta = args.p, args.alpha, args.beta
        gamma, delta = args.gamma, args.delta
        norm = math.hypot(alpha, beta)
        if norm <= 0:
            raise ValueError("alpha and beta cannot both be zero")
        alpha, beta = alpha / norm, beta / norm  # inputs like 0.7071 are fine
    psi = witness.build_entangled_state(p, alpha, beta, gamma, delta)
    w = witness.construct_witness(qcore.matrix_unit_basis(2))
    out = witness.estimator_map(qcore.pure_state_projector(psi), w)
    inputs = {"p": p, "alpha": alpha, "beta": beta,
              "gamma": gamma, "delta": delta, "demo": bool(args.demo)}
    results = {
        "one_component": out.one_component,
        "zero_component": out.zero_component,
        "predicted_one_component": p + 2 * (1 - p) * alpha * beta * math.cos(gamma - delta),
    }
    return _report("witness", inputs, results, args.seed,
                   {"state_norm": 1e-9}, started)


def cmd_optimal_test(args) -> dict:
    started = time.perf_counter()
    best, delta_min = approx.optimize_invariant_test()
    test = approx.InvariantTest(sigma=best.sigma, alpha_coef=best.alpha_coef,
                                d=args.d)
    numeric = approx.delta_numeric(test, args.grid, seed=args.seed)
    if args.out:
        qcore.save_matrix(args.out, test.to_operator())
    if args.sweep:
        pts = np.linspace(0.0, 1.0, args.sweep_points)
        with open(args.sweep, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sigma", "alpha", "delta_closed", "delta_numeric"])
            for s in pts:
                for a in pts:
                    sweep_test = approx.InvariantTest(sigma=float(s),
                                                      alpha_coef=float(a),
                                                      d=args.d)
                    writer.writerow([
                        f"{s:.6f}", f"{a:.6f}",
                        f"{approx.delta_closed_form(sweep_test):.12f}",
                        f"{approx.delta_numeric(sweep_test, 101, seed=args.seed, haar_pairs=10):.12f}",
                    ])
    inputs = {"grid": args.grid, "d": args.d, "out": args.out,
              "sweep": args.sweep}
    results = {"sigma": best.sigma, "alpha": best.alpha_coef,
               "delta_min": delta_min, "delta_numeric": numeric}
    return _report("optimal-test", inputs, results, args.seed,
                   {"numeric_vs_closed": 1e-6}, started)


def _random_effect(dim: int, rng, top: float = 1.0) -> np.ndarray:
    u = qcore.haar_random_unitary(dim, rng)
    spectrum = rng.uniform(0.0, top, size=dim)
    return (u * spectrum) @ u.conj().T


def random_test_family(count: int, d: int, seed) -> list[np.ndarray]:
    """Alternating family: tests dominating the symmetric projector (equal
    pairs pass by construction) and generic random effects."""
    rng = np.random.default_rng(seed)
    p_sym, p_anti = symmetry.sym_antisym_projectors(d)
    out = []
    for i in range(count):
        if i % 2 == 0:
            t_prime = _random_effect(d * d, rng)
            t = p_sym + p_anti @ t_prime @ p_anti
        else:
            t = _random_effect(d * d, rng, top=0.95)
        out.append((t + t.conj().T) / 2)
    return out


def cmd_nogo(args) -> dict:
    started = time.perf_counter()
    if args.test_file:
        t = qcore.load_matrix(args.test_file)
        jobs = [(t, args.seed)]
        inputs = {"test_file": args.test_file, "d": int(math.isqrt(t.shape[0]))}
    elif args.random_family:
        tests = random_test_family(args.random_family, args.d, args.seed)
        jobs = [(t, args.seed + i) for i, t in enumerate(tests)]
        inputs = {"random_family": args.random_family, "d": args.d}
    else:
        raise ValueError("provide --test-file or --random-family")
    certificates = []
    for t, seed in jobs:
        cert = nogo.theorem_one_check(t, seed=seed)
        if not cert.verify(t):
            raise RuntimeError("certificate failed self-verification")
        certificates.append(nogo.certificate_to_json(cert))
    results = {"certificates": certificates,
               "count": len(certificates)}
    return _report("nogo", inputs, results, args.seed,
                   {"certificate_recompute": 1e-9,
                    "equal_pair": nogo.EQUAL_PAIR_TOL}, started)


def _read_instance(path: str, default_grid: int) -> tuple[int, int, int, int]:
    """Parse a JSON instance spec {d, n, m, grid?} into integer sizes;
    a malformed spec raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError(
            f"instance spec must be a JSON object {{d, n, m, grid}}, "
            f"got {type(spec).__name__}")
    missing = [key for key in ("d", "n", "m") if key not in spec]
    if missing:
        raise ValueError(f"instance spec lacks keys {missing}")
    sizes = [spec["d"], spec["n"], spec["m"], spec.get("grid", default_grid)]
    for key, value in zip(("d", "n", "m", "grid"), sizes):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"instance {key} = {value!r} is not an integer")
    return tuple(sizes)


def cmd_general(args) -> dict:
    # the only command that solves an LP, so the only one that loads SciPy
    from . import general

    started = time.perf_counter()
    if args.instance:
        d, n, m, grid_points = _read_instance(args.instance, args.grid)
    else:
        if args.d is None or args.n is None or args.m is None:
            raise ValueError("provide --d, --n and --m (or --instance)")
        d, n, m = args.d, args.n, args.m
        grid_points = args.grid

    inst = general.make_instance(d, n, m, grid_points=grid_points)
    coeffs, value = general.solve_minimax(inst, refine_tol=args.refine_tol)
    profile = general.error_profile(inst, coeffs)
    if args.profile_out:
        with open(args.profile_out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["gamma", "l1_error"])
            for g, e in zip(inst.gamma_grid, profile):
                writer.writerow([f"{g:.12f}", f"{e:.12f}"])
    inputs = {"d": d, "n": n, "m": m, "grid": grid_points,
              "refine_tol": args.refine_tol}
    results = {
        "value_l1": value,
        "value_per_outcome": value / 2,
        "coefficients": [[float(x) for x in row] for row in coeffs.alpha],
        "block_dims": [symmetry.weyl_block_dimension(d, n, l)
                       for l in range(n + 1)],
        "profile": [[float(g), float(e)]
                    for g, e in zip(inst.gamma_grid, profile)],
        "max_profile_error": float(np.max(profile)),
    }
    return _report("general", inputs, results, args.seed,
                   {"refine_tol": args.refine_tol, "column_sum": 1e-10},
                   started)


def _positive_int(text: str) -> int:
    """argparse type for sizes and counts: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def _finite_float(text: str) -> float:
    """argparse type for real inputs: a finite number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{value} is not a finite number")
    return value


def _positive_float(text: str) -> float:
    """argparse type for tolerances: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"{value} is not a positive finite number")
    return value


class _UsageError(Exception):
    """A command line that argparse rejects."""


class _Parser(argparse.ArgumentParser):
    """Raises _UsageError where argparse would print usage text and exit."""

    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fidest",
        description="Fidelity-estimation toolkit: witness negativity, "
                    "no-go certificates, the optimal universal test, and "
                    "copies/samples minimax strategies.")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed controlling all randomness")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    w = sub.add_parser("witness", help="evaluate the extended estimator")
    w.add_argument("--p", type=_finite_float, default=None)
    w.add_argument("--alpha", type=_finite_float, default=None)
    w.add_argument("--beta", type=_finite_float, default=None)
    w.add_argument("--gamma", type=_finite_float, default=0.0)
    w.add_argument("--delta", type=_finite_float, default=0.0)
    w.add_argument("--demo", action="store_true",
                   help="maximally violating inputs (one_component = -1)")
    w.set_defaults(func=cmd_witness)

    o = sub.add_parser("optimal-test", help="optimal invariant test")
    o.add_argument("--grid", type=_positive_int, default=1000)
    o.add_argument("--d", type=int, default=2)
    o.add_argument("--out", type=str, default=None,
                   help="write the optimal effect as matrix JSON")
    o.add_argument("--sweep", type=str, default=None,
                   help="write a coefficient-grid CSV to this path")
    o.add_argument("--sweep-points", type=_positive_int, default=21)
    o.set_defaults(func=cmd_optimal_test)

    g = sub.add_parser("nogo", help="violation certificates for test operators")
    g.add_argument("--test-file", type=str, default=None,
                   help="matrix JSON of the test operator")
    g.add_argument("--random-family", type=_positive_int, default=None)
    g.add_argument("--d", type=int, default=2)
    g.set_defaults(func=cmd_nogo)

    a = sub.add_parser("general", help="copies/samples minimax strategy")
    a.add_argument("--d", type=int, default=None)
    a.add_argument("--n", type=int, default=None)
    a.add_argument("--m", type=int, default=None)
    a.add_argument("--grid", type=int, default=129)
    a.add_argument("--refine-tol", type=_positive_float, default=1e-4)
    a.add_argument("--profile-out", type=str, default=None,
                   help="write the per-angle L1 error profile CSV")
    a.add_argument("--instance", type=str, default=None,
                   help="JSON instance spec {d, n, m, grid}")
    a.set_defaults(func=cmd_general)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    try:
        report = args.func(args)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 1
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
