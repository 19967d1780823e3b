"""fidest benchmark.

    python3 perfbench/run.py --workload {minimax,certify,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. With ``--trace 0`` it measures the
end-to-end metrics of one workload; with ``--trace 1`` it runs one fixed pass
of every workload untraced and one traced and reports the per-layer metrics.
It prints a summary line (environment, sample counts, failures) and, as the
last line, ``{"correct", "attempted", "failed", "metrics"}``. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("minimax", "certify", "cli")
# minimax runs each pass in a fresh process so that every pass starts with
# the symmetry caches empty; the others run all their passes in one process.
ONE_PASS_PER_PROCESS = {"minimax"}
SETUP_SAMPLES = 5
# One BLAS thread: on a few shared cores a second thread measures the
# scheduler rather than the program.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
IMPORT_SAMPLES = 3
TRACED_PASSES = 1
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.import_ms": "ms",
    "cli.startup_ms": "ms",
    "cli.cmd_general_self_ms": "ms",
    "cli.cache_bytes": "bytes",
    "cli.general_miss_ms": "ms",
    "cli.general_hit_ms": "ms",
    "qcore.json_ms": "ms",
    "qcore.json_calls": "count",
    "qcore.eigh_ms": "ms",
    "qcore.haar_ms": "ms",
    "qcore.haar_states": "count",
    "qcore.check_ms": "ms",
    "qcore.check_calls": "count",
    "symmetry.isotypic_projectors_ms": "ms",
    "symmetry.symmetric_embedding_ms": "ms",
    "symmetry.collective_generators_ms": "ms",
    "symmetry.embed_state_power.calls": "count",
    "symmetry.embed_state_power_ms": "ms",
    "general.lp_solves": "count",
    "general.highs_ms": "ms",
    "general.target_distribution.calls": "count",
    "general.target_distribution_ms": "ms",
    "general.solve_self_ms": "ms",
    "general.beta_polynomials_ms": "ms",
    "general.beta_for_angle.calls": "count",
    "general.error_profile_ms": "ms",
    "nogo.theorem_one_check_ms": "ms",
    "nogo.verify_ms": "ms",
    "nogo.branch.equal_pair_fails": "count",
    "nogo.branch.orthogonal_pair_fails": "count",
    "nogo.forcing_check_ms": "ms",
    "nogo.vote_probability.calls": "count",
    "approx.partial_info_check_ms": "ms",
    "approx.pairs_per_s": "1/s",
    "approx.delta_numeric_ms": "ms",
    "witness.construct_witness_ms": "ms",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    """Starts the benchmark's processes under one overall deadline."""

    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.children = 0

    def _spawn(self, cmd: list[str]) -> tuple[float, str]:
        """Run cmd to completion in its own process group; returns the
        monotonic start time and stdout."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("benchmark deadline passed")
        started = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"timed out: {' '.join(cmd)}") from None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"exit {proc.returncode}: {' '.join(cmd)}")
        return started, out

    def child(self, workload: str, *, setup_only=False, trace=0,
              passes=0) -> dict:
        """One workload process; adds ``setup_s`` measured from its spawn."""
        self.children += 1
        workdir = self.workdir / f"child-{self.children}"
        workdir.mkdir(parents=True)
        out = workdir / "result.json"
        a = self.args
        cmd = [sys.executable, str(BENCH_DIR / "child.py"),
               "--workload", workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--trace", str(trace),
               "--passes", str(passes), "--workdir", str(workdir),
               "--out", str(out)]
        if setup_only:
            cmd.append("--setup-only")
        if a.smoke:
            cmd.append("--smoke")
        if a.wrong_reference:
            cmd.append("--wrong-reference")
        if trace:
            cmd += ["--spans-out", str(spans_path(workload))]
        started, _ = self._spawn(cmd)
        result = json.loads(out.read_text())
        result["setup_s"] = result["ready_at"] - started
        shutil.rmtree(workdir, ignore_errors=True)
        return result

    def import_ms(self) -> float:
        """Median fresh-interpreter `import fidest.cli`, in ms."""
        code = ("import time; t = time.perf_counter(); import fidest.cli; "
                "print(time.perf_counter() - t)")
        samples = [float(self._spawn([sys.executable, "-c", code])[1])
                   for _ in range(IMPORT_SAMPLES)]
        return statistics.median(samples) * 1000


def spans_path(workload: str) -> Path:
    return OUT_DIR / f"spans-{workload}.json"


def nearest_rank(ordered: list[float], q: float) -> float:
    """The q-quantile of an ascending list by the nearest-rank method: always
    one of the values, at a rank that depends only on the list's length."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def host_factor(kernel: str, samples: list[float]) -> float:
    """Nominal over measured time of a reference kernel: below 1 when the
    host runs slow, so that a time times the factor reads as at nominal
    speed."""
    import calibrate  # after main() has set THREAD_ENV, as numpy reads it
    return calibrate.NOMINAL_S[kernel] / statistics.median(samples)


def summarize(runs: list[dict], setups: list[float],
              normalize: bool) -> tuple[dict, dict]:
    """End-to-end metrics of a run's passes, and the per-op samples.

    Each op's latency is its median over the passes, so a host slowdown
    during part of the run moves few ops; with ``normalize``, every latency
    is first scaled by the host factor of its own pass and ``setup_s`` by
    that of the whole run."""
    per_op: dict[str, list[float]] = {}
    for r in runs:
        factors = [host_factor(r["kernel"], c) if normalize else 1.0
                   for c in r["calibration"]]
        for name, latency, index in zip(r["names"], r["latencies"],
                                        r["op_pass"]):
            per_op.setdefault(name, []).append(latency * factors[index])
    medians = sorted(statistics.median(v) for v in per_op.values())
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    setup_factor = host_factor(runs[0]["kernel"], [
        x for r in runs for c in r["calibration"] for x in c]) if normalize else 1.0
    values = {
        "setup_s": statistics.median(setups) * setup_factor,
        # Ops per second of a pass at each op's median latency.
        "ops_per_s": len(medians) / sum(medians) * (attempted - failed) / attempted,
        "latency_p50_ms": nearest_rank(medians, 0.5) * 1000,
        "latency_p90_ms": nearest_rank(medians, 0.9) * 1000,
        "peak_rss_mb": max(r["peak_rss_kb"] for r in runs) / 1024,
    }
    return values, per_op


def run_untraced(runner: Runner, workload: str,
                 smoke: bool) -> tuple[dict, dict]:
    """Whole passes over the workload's ops until ``--seconds`` of them have
    been measured; see ``summarize``."""
    seconds = runner.args.seconds
    runs = []
    if workload in ONE_PASS_PER_PROCESS:
        while not runs or sum(r["loop_s"] for r in runs) < seconds:
            runs.append(runner.child(workload, passes=1))
    else:
        runs.append(runner.child(workload))
    setups = [r["setup_s"] for r in runs]
    while len(setups) < (2 if smoke else SETUP_SAMPLES):
        setups.append(runner.child(workload, setup_only=True)["setup_s"])
    values, per_op = summarize(runs, setups, normalize=True)
    raw, _ = summarize(runs, setups, normalize=False)
    latencies = [x for v in per_op.values() for x in v]
    p90 = values["latency_p90_ms"] / 1000
    calibration = [x for r in runs for c in r["calibration"] for x in c]
    samples = {"passes": sum(r["passes"] for r in runs), "ops": len(per_op),
               "latency": len(latencies),
               "beyond_p90": sum(1 for x in latencies if x > p90),
               "setup": len(setups),
               "measured_s": sum(r["loop_s"] for r in runs),
               "calibration": len(calibration),
               "host_factor": host_factor(runs[0]["kernel"], calibration),
               "unnormalized": raw}
    main = {"attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "failures": [f for r in runs for f in r["failures"]][:20]}
    return values, {"main": main, "samples": samples}


def run_traced(runner: Runner, workload: str) -> tuple[dict, dict]:
    """One untraced and one traced pass of every workload, so that every
    layer is reached; the per-layer metrics cover all three traced passes and
    ``trace.overhead_s`` is that of ``workload``."""
    import spans

    import_ms = runner.import_ms()
    values: dict = {}
    main = {"attempted": 0, "failed": 0, "failures": []}
    loop_s = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            result = runner.child(name, trace=trace, passes=TRACED_PASSES)
            loop_s[name, trace] = result["loop_s"]
            for key in ("attempted", "failed", "failures"):
                main[key] += result[key]
            if trace:
                values.update(result["extra"])
    dumps = [dump for name in WORKLOADS
             for dump in json.loads(spans_path(name).read_text())]
    values.update(spans.layer_metrics(spans.SpanSet(dumps)))
    values["cli.import_ms"] = import_ms
    values["trace.overhead_s"] = loop_s[workload, 1] - loop_s[workload, 0]
    samples = {"passes": TRACED_PASSES, "ops": main["attempted"],
               "import": IMPORT_SAMPLES}
    return values, {"main": main, "samples": samples}


def _openblas() -> dict:
    """OpenBLAS build string and thread count of the library numpy loads."""
    info: dict = {"config": None, "threads": None}
    spec = importlib.util.find_spec("numpy")
    if spec is None or not spec.submodule_search_locations:
        return info
    libs = Path(list(spec.submodule_search_locations)[0]).parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", "_64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    return {"config": config().decode(), "threads": threads()}
    return info


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "openblas": _openblas(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and two setup samples (self-test)")
    parser.add_argument("--wrong-reference", action="store_true",
                        help="shift the minimax reference values (self-test)")
    args = parser.parse_args()
    os.environ.update(THREAD_ENV)
    # On SIGTERM, unwind so that the running child's process group is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    missing = [p for p in ("src/fidest/cli.py", "schemas/report.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a fidest checkout, missing {missing}",
              file=sys.stderr)
        return 2

    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(args, workdir)
    try:
        if args.trace:
            values, info = run_traced(runner, args.workload)
            units = PER_LAYER
        else:
            values, info = run_untraced(runner, args.workload, args.smoke)
            units = END_TO_END
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    main_run = info["main"]
    attempted, failed = main_run["attempted"], main_run["failed"]
    summary = {
        "workload": args.workload, "trace": args.trace,
        "samples": info["samples"],
        "failed_ratio": failed / attempted if attempted else 1.0,
        "failures": main_run["failures"],
        "env": environment(args.seed),
    }
    for line in main_run["failures"]:
        print(f"perfbench: failed op {line}", file=sys.stderr)
    print(json.dumps({"summary": summary}))
    print(json.dumps({
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
