"""The three workloads: inputs generated from the seed, ops, and output checks.

Every op is a ``run`` whose wall time is the op latency and a ``check`` that
raises ``CheckFailed`` when the output misses its reference. Inputs come from
the benchmark's own seeded generators, never from helpers of the program, so
a change to the program cannot change the load.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from functools import partial
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


class CheckFailed(Exception):
    """An op's output does not match its reference."""


class Op(NamedTuple):
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def load_reference(wrong: bool) -> tuple[dict, float]:
    """Minimax values per "d,n,m"; ``wrong`` shifts every value by 1e-3 so
    the self-test can see that a wrong reference is counted as a failure."""
    doc = json.loads((BENCH_DIR / "reference.json").read_text())
    shift = 1e-3 if wrong else 0.0
    return ({k: v + shift for k, v in doc["value_l1"].items()},
            float(doc["tolerance"]))


class Workload:
    """Default hooks; a workload overrides what it measures itself."""

    kernel = "cpu"  # the reference kernel of calibrate.py timed between ops

    def after_pass(self, records) -> list[tuple[int, str]]:
        return []

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def extra(self) -> dict:
        return {}

    def span_dumps(self) -> list[dict]:
        return []


# ---------------------------------------------------------------- minimax

MINIMAX_INSTANCES = [(d, n, m) for d in (2, 3) for n in (1, 2, 3, 4)
                     for m in (1, 2, 4, 8)]
MINIMAX_SMOKE = [(2, 1, 1), (3, 1, 1), (2, 2, 2), (3, 2, 2)]


class Minimax(Workload):
    """make_instance + solve_minimax + error_profile over the (d, n, m) grid.

    The instances have no random part, and their order is fixed: the seed
    does not change this workload. The order decides which op pays the
    first-touch cost of the symmetry caches, so a fixed order keeps that
    cost on the same ops in every run. ``run.py`` runs each pass in a fresh
    process, so every pass starts with those caches empty.
    """

    def __init__(self, seed: int, smoke: bool, wrong_reference: bool):
        from fidest import general
        self.general = general
        self.reference, self.tol = load_reference(wrong_reference)
        self.instances = MINIMAX_SMOKE if smoke else MINIMAX_INSTANCES

    def pass_ops(self, index: int) -> list[Op]:
        return [Op(f"minimax{key}", partial(self._solve, *key),
                   partial(self._check, key)) for key in self.instances]

    def _solve(self, d: int, n: int, m: int):
        inst = self.general.make_instance(d, n, m)
        coeffs, value = self.general.solve_minimax(inst)
        return value, self.general.error_profile(inst, coeffs)

    def _check(self, key, out) -> None:
        value, profile = out
        d, n, m = key
        ref = self.reference[f"{d},{n},{m}"]
        require(abs(value - ref) <= self.tol,
                f"value_l1 {value!r} != reference {ref!r}")
        if n == m == 1:
            require(abs(value - 2 / 3) <= 1e-9, f"value_l1 {value!r} != 2/3")
        worst = max(float(e) for e in profile)
        require(min(float(e) for e in profile) >= 0.0
                and worst <= value + 1e-9,
                f"error profile max {worst!r} exceeds value_l1 {value!r}")

    def after_pass(self, records) -> list[tuple[int, str]]:
        """d-independence: the (3, n, m) value equals the (2, n, m) value."""
        values = {op.name: (i, out[0])
                  for i, (op, out, _, error) in enumerate(records) if error is None}
        failures = []
        for n, m in sorted({(n, m) for d, n, m in self.instances if d == 3}):
            this = values.get(f"minimax{(3, n, m)}")
            other = values.get(f"minimax{(2, n, m)}")
            if this and other and abs(this[1] - other[1]) > 1e-9:
                failures.append((this[0], f"d=3 value {this[1]!r} != d=2 value "
                                          f"{other[1]!r} at n={n}, m={m}"))
        return failures


# ---------------------------------------------------------------- certify

def haar_unitary(dim: int, rng):
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def swap(d: int):
    s = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


def matrix_units(d: int):
    out = []
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            out.append(e)
    return out


def gell_mann(d: int):
    """Identity/sqrt(d) plus the generalized Gell-Mann matrices, each with
    unit Hilbert-Schmidt norm."""
    out = [np.eye(d, dtype=complex) / math.sqrt(d)]
    for k in range(1, d):
        for j in range(k):
            for re, im in ((1.0, 0.0), (0.0, 1.0)):
                g = np.zeros((d, d), dtype=complex)
                g[j, k] = re - 1j * im
                g[k, j] = re + 1j * im
                out.append(g / math.sqrt(2))
    for k in range(1, d):
        g = np.zeros((d, d), dtype=complex)
        g[np.arange(k), np.arange(k)] = 1.0
        g[k, k] = -float(k)
        out.append(g / math.sqrt(k * (k + 1)))
    return out


CERT_DIMS = (2, 3, 4)
WITNESS_DIMS = (2, 3, 4, 5, 6)


class Certify(Workload):
    """No-go certificates on both branches, decision-rule forcing, the
    partial-information sweep, the witness on two bases and the optimal test."""

    def __init__(self, seed: int, smoke: bool, wrong_reference: bool):
        from fidest import approx, nogo, witness
        self.approx, self.nogo, self.witness = approx, nogo, witness
        rng = np.random.default_rng(seed)
        per_kind = 1 if smoke else 30
        ops = []
        for d in CERT_DIMS:
            p_sym = (np.eye(d * d) + swap(d)) / 2
            p_anti = np.eye(d * d) - p_sym
            for i in range(2 * per_kind):
                u = haar_unitary(d * d, rng)
                if i % 2 == 0:
                    # Dominates P_sym: every equal pair scores exactly 1.
                    inner = (u * rng.uniform(0.0, 1.0, d * d)) @ u.conj().T
                    t, kind = p_sym + p_anti @ inner @ p_anti, "orthogonal_pair_fails"
                else:
                    t = (u * rng.uniform(0.0, 0.95, d * d)) @ u.conj().T
                    kind = "equal_pair_fails"
                t = (t + t.conj().T) / 2
                ops.append(Op(f"certificate-d{d}-{i}",
                              partial(self._certify, t, int(rng.integers(2**31))),
                              partial(self._check_certificate, t, kind)))
        for i in range(4 if smoke else 20):
            # Rule type i % 4 agrees with the forced rule (1, 0, 0, 0) on the
            # coordinates before position i % 4 and differs at it, so the
            # search stops at probe i % 4 for every seed.
            values = [1.0, 0.0, 0.0, 0.0]
            pos = i % 4
            values[pos] = (float(rng.uniform(0.05, 0.95)) if pos == 0
                           else float(rng.uniform(0.05, 1.0)))
            for j in range(pos + 1, 4):
                values[j] = float(rng.uniform(0.0, 1.0))
            rule = nogo.DecisionRule(*values)
            ops.append(Op(f"forcing-{pos}-{i}",
                          partial(nogo.forcing_check, rule, 50,
                                  int(rng.integers(2**31))),
                          partial(self._check_forcing, values)))
        trials = 2_000 if smoke else 200_000
        ops.append(Op("partial-info",
                      partial(approx.partial_info_check, trials,
                              int(rng.integers(2**31))),
                      partial(self._check_partial_info, trials)))
        for d in WITNESS_DIMS[:2] if smoke else WITNESS_DIMS:
            ops.append(Op(f"witness-d{d}",
                          partial(self._witnesses, matrix_units(d), gell_mann(d)),
                          partial(self._check_witnesses, swap(d))))
        ops.append(Op("optimal-test",
                      partial(self._optimal, int(rng.integers(2, 5)),
                              int(rng.integers(2**31))),
                      self._check_optimal))
        random.Random(seed).shuffle(ops)
        self.ops = ops

    def pass_ops(self, index: int) -> list[Op]:
        return self.ops

    def _certify(self, t, seed):
        cert = self.nogo.theorem_one_check(t, seed=seed)
        return cert, cert.verify(t), self.nogo.certificate_to_json(cert)

    def _check_certificate(self, t, kind, out) -> None:
        cert, verified, doc = out
        require(verified, "certificate failed verify()")
        require(cert.kind == kind, f"branch {cert.kind!r}, expected {kind!r}")
        require(doc["kind"] == cert.kind and doc["value"] == cert.value,
                "certificate JSON does not match the certificate")
        pi, tau = parse_matrix(doc["pi"]).ravel(), parse_matrix(doc["tau"]).ravel()
        v = np.kron(pi, tau)
        value = float(np.real(v.conj() @ t @ v))
        require(abs(value - cert.value) <= 1e-9,
                f"recomputed value {value!r} != {cert.value!r}")
        overlap = abs(np.vdot(pi, tau))
        if kind == "equal_pair_fails":
            require(abs(overlap - 1.0) <= 1e-9 and value < 1.0 - 1e-9,
                    "equal-pair certificate does not fail the equal pair")
        else:
            require(overlap <= 1e-10 and value > 1e-9,
                    "orthogonal-pair certificate does not fail the orthogonal pair")

    def _check_forcing(self, rule, found) -> None:
        require(found is not None, "non-forced rule yielded no counterexample")
        d = found.pi.shape[0]
        eye = np.eye(d)
        p11, p10, p01, p00 = rule

        def expect(op):
            return float(np.real(np.trace(found.rho @ op)))

        vote = (p11 * expect(np.kron(found.pi, found.tau))
                + p10 * expect(np.kron(found.pi, eye - found.tau))
                + p01 * expect(np.kron(eye - found.pi, found.tau))
                + p00 * expect(np.kron(eye - found.pi, eye - found.tau)))
        fidelity = float(np.real(np.trace(found.pi @ found.tau)))
        deviation = abs(vote - fidelity)
        require(deviation > 1e-6 and abs(deviation - found.deviation) <= 1e-9,
                f"counterexample deviation {found.deviation!r}, "
                f"recomputed {deviation!r}")

    def _check_partial_info(self, trials, report) -> None:
        require(report.trials == trials
                and report.decided + report.undecided == trials,
                "partial-info trial counts do not add up")
        require(report.all_agree, "the optimal test misjudged a decided pair")
        require(report.max_identity_dev <= 1e-10,
                f"overlap identity off by {report.max_identity_dev!r}")

    def _witnesses(self, units, gm):
        return (self.witness.construct_witness(units),
                self.witness.construct_witness(gm))

    def _check_witnesses(self, swap_op, out) -> None:
        w_units, w_gm = out
        require(float(np.max(np.abs(w_units - w_gm))) <= 1e-10,
                "witness depends on the operator basis")
        require(float(np.max(np.abs(w_units - swap_op))) <= 1e-10,
                "witness is not P_sym - P_anti")

    def _optimal(self, d, seed):
        best, delta_min = self.approx.optimize_invariant_test()
        test = self.approx.InvariantTest(sigma=best.sigma,
                                         alpha_coef=best.alpha_coef, d=d)
        return best, delta_min, self.approx.delta_numeric(test, 1000, seed=seed)

    def _check_optimal(self, out) -> None:
        best, delta_min, numeric = out
        require(abs(delta_min - 1 / 3) <= 1e-9, f"delta_min {delta_min!r} != 1/3")
        require(abs(best.sigma - 2 / 3) <= 1e-6 and best.alpha_coef <= 1e-6,
                f"optimum ({best.sigma!r}, {best.alpha_coef!r}) != (2/3, 0)")
        require(abs(numeric - 1 / 3) <= 1e-6, f"delta_numeric {numeric!r} != 1/3")


def parse_matrix(doc):
    """The benchmark's own reader of the matrix wire format."""
    flat = np.array([complex(re, im) for re, im in doc["entries"]])
    return flat.reshape(doc["rows"], doc["cols"])


# -------------------------------------------------------------------- cli

class Cli(Workload):
    """One cold ``python -m fidest.cli`` process per op, in a fixed order.

    The cache directory is emptied at the start of every pass, so each pass
    has the same miss-then-hit sequence for the large ``general`` instance.
    """

    kernel = "spawn"

    def __init__(self, seed: int, smoke: bool, wrong_reference: bool,
                 workdir: Path, traced: bool):
        import jsonschema
        schema = json.loads((ROOT / "schemas" / "report.json").read_text())
        self.validator = jsonschema.Draft202012Validator(schema)
        self.reference, self.tol = load_reference(wrong_reference)
        self.workdir = workdir
        self.cache = workdir / "cache"
        self.spans_dir = workdir / "spans"
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        self.traced = traced
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        FIDELITY_CACHE_DIR=str(self.cache))
        self.big = (2, 1, 1) if smoke else (3, 4, 4)
        (workdir / "instance.json").write_text(json.dumps(
            dict(zip("dnm", self.big))))
        rng = random.Random(seed)
        self.witness_args = {
            "p": rng.uniform(0.0, 1.0), "alpha": rng.uniform(0.1, 1.0),
            "beta": rng.uniform(0.1, 1.0),
            "gamma": rng.uniform(0.0, 2 * math.pi),
            "delta": rng.uniform(0.0, 2 * math.pi)}
        self.seeds = [rng.randrange(10**6) for _ in range(3)]
        self.test_d = rng.choice((2, 3))
        self.family = 4 if smoke else 20
        self.op_count = 0
        self.latency_s: dict[str, list[float]] = {}
        self.startup_s: list[float] = []
        self.cache_bytes: list[int] = []

    def pass_ops(self, index: int) -> list[Op]:
        shutil.rmtree(self.cache, ignore_errors=True)
        w = self.witness_args
        d, n, m = self.big
        ops = [
            ("witness-demo", ["witness", "--demo"], self._check_demo),
            ("witness-p", ["--seed", str(self.seeds[0]), "witness"]
             + [f"--{k}={v!r}" for k, v in w.items()], self._check_witness),
            ("optimal-test", ["--seed", str(self.seeds[1]), "optimal-test",
                              "--d", str(self.test_d), "--out", "T.json"],
             self._check_optimal),
            ("nogo-test-file", ["nogo", "--test-file", "T.json"],
             self._check_test_file),
            ("nogo-family", ["--seed", str(self.seeds[2]), "nogo",
                             "--random-family", str(self.family), "--d", "3"],
             self._check_family),
            ("general-small", ["general", "--d", "2", "--n", "2", "--m", "2",
                               "--profile-out", "profile.csv"],
             partial(self._check_general, (2, 2, 2), True)),
            ("general-miss", ["general", "--d", str(d), "--n", str(n),
                              "--m", str(m)],
             partial(self._check_general, self.big, False)),
            ("general-hit", ["general", "--instance", "instance.json"],
             partial(self._check_general, self.big, False)),
        ]
        return [Op(name, partial(self._cli, argv), check)
                for name, argv, check in ops]

    def _cli(self, argv: list[str]):
        if self.traced:
            out = self.spans_dir / f"op-{self.op_count}.json"
            cmd = [sys.executable, str(BENCH_DIR / "cli_boot.py"), str(out),
                   str(self.op_count), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "fidest.cli", *argv]
        self.op_count += 1
        return subprocess.run(cmd, cwd=self.workdir, env=self.env,
                              capture_output=True, text=True, timeout=120)

    def _report(self, proc) -> dict:
        require(proc.returncode == 0,
                f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        try:
            report = json.loads(proc.stdout)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"stdout is not one JSON document: {exc}") from exc
        errors = [e.message for e in self.validator.iter_errors(report)]
        require(not errors, f"report fails schemas/report.json: {errors[:3]}")
        return report

    def _check_demo(self, proc) -> None:
        one = self._report(proc)["results"]["one_component"]
        require(abs(one + 1.0) <= 1e-9, f"one_component {one!r} != -1")

    def _check_witness(self, proc) -> None:
        res = self._report(proc)["results"]
        w = self.witness_args
        norm = math.hypot(w["alpha"], w["beta"])
        expected = w["p"] + 2 * (1 - w["p"]) * (w["alpha"] / norm) * (
            w["beta"] / norm) * math.cos(w["gamma"] - w["delta"])
        require(abs(res["one_component"] - expected) <= 1e-9,
                f"one_component {res['one_component']!r} != {expected!r}")
        require(abs(res["one_component"] + res["zero_component"] - 1) <= 1e-12,
                "estimator components do not sum to 1")

    def _check_optimal(self, proc) -> None:
        res = self._report(proc)["results"]
        require(abs(res["delta_min"] - 1 / 3) <= 1e-9,
                f"delta_min {res['delta_min']!r} != 1/3")
        require(abs(res["delta_numeric"] - 1 / 3) <= 1e-6,
                f"delta_numeric {res['delta_numeric']!r} != 1/3")
        d = self.test_d
        t = parse_matrix(json.loads((self.workdir / "T.json").read_text()))
        expected = (2 / 3) * (np.eye(d * d) + swap(d)) / 2
        require(t.shape == expected.shape
                and float(np.max(np.abs(t - expected))) <= 1e-9,
                "T.json is not (2/3) P_sym")

    def _check_test_file(self, proc) -> None:
        res = self._report(proc)["results"]
        require(res["count"] == 1, f"{res['count']} certificates, expected 1")
        cert = res["certificates"][0]
        require(cert["kind"] == "equal_pair_fails"
                and abs(cert["value"] - 2 / 3) <= 1e-9,
                f"certificate {cert['kind']!r} value {cert['value']!r}, "
                "expected an equal pair scoring 2/3")

    def _check_family(self, proc) -> None:
        res = self._report(proc)["results"]
        require(res["count"] == self.family == len(res["certificates"]),
                f"{res['count']} certificates, expected {self.family}")
        kinds = {c["kind"] for c in res["certificates"]}
        require(kinds <= {"equal_pair_fails", "orthogonal_pair_fails"},
                f"unknown certificate kinds {kinds}")

    def _check_general(self, key, with_profile: bool, proc) -> None:
        report = self._report(proc)
        value = report["results"]["value_l1"]
        ref = self.reference[",".join(map(str, key))]
        require(abs(value - ref) <= self.tol,
                f"value_l1 {value!r} != reference {ref!r} for {key}")
        if with_profile:
            rows = (self.workdir / "profile.csv").read_text().splitlines()
            grid = report["inputs"]["grid"]
            require(len(rows) == grid + 1,
                    f"profile CSV has {len(rows)} lines, expected {grid + 1}")

    def after_pass(self, records) -> list[tuple[int, str]]:
        for op, proc, latency, error in records:
            self.latency_s.setdefault(op.name, []).append(latency)
            if error is None:
                wall_ms = json.loads(proc.stdout)["wall_time_ms"]
                self.startup_s.append(latency - wall_ms / 1000)
        self.cache_bytes.append(sum(p.stat().st_size
                                    for p in self.cache.rglob("*") if p.is_file()))
        return []

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def extra(self) -> dict:
        def median_ms(values):
            return statistics.median(values) * 1000 if values else 0.0
        return {
            "cli.startup_ms": median_ms(self.startup_s),
            "cli.general_miss_ms": median_ms(self.latency_s.get("general-miss")),
            "cli.general_hit_ms": median_ms(self.latency_s.get("general-hit")),
            "cli.cache_bytes": max(self.cache_bytes, default=0),
        }

    def span_dumps(self) -> list[dict]:
        return [json.loads(p.read_text())
                for p in sorted(self.spans_dir.glob("op-*.json"))]
