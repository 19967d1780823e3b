"""Workload process: set up one workload, run its ops in a closed loop and
write the raw measurements as JSON.

``run.py`` starts one of these per workload run, so every run begins in a
fresh interpreter with the program's caches empty, the way a user's does.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path


CALIBRATE_EVERY_S = {"cpu": 0.5, "spawn": 0.0}


def run_loop(wl, seconds: float, passes: int, tracer) -> dict:
    """Run whole passes: a fixed number, or until ``seconds`` have elapsed.

    One client, closed loop: the next op starts when the previous one ends.
    An op that raises or misses its reference counts as failed. Between ops,
    at the start of each pass and then at most every ``CALIBRATE_EVERY_S``,
    the workload's reference kernel is timed; ``calibration`` holds its times
    per pass.
    """
    import calibrate
    every = CALIBRATE_EVERY_S[wl.kernel]
    calibration: list[list[float]] = []
    latencies: list[float] = []
    names: list[str] = []
    op_pass: list[int] = []
    failures: list[str] = []
    attempted = failed = 0
    done = 0
    start = time.perf_counter()
    while True:
        records = []
        calibration.append([])
        calibrated_at = float("-inf")
        for op in wl.pass_ops(done):
            if tracer is not None:
                tracer.current_op = attempted
            if time.perf_counter() - calibrated_at >= every:
                calibration[-1].append(calibrate.kernel_s(wl.kernel))
                calibrated_at = time.perf_counter()
            out = error = None
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a failing op is counted, never fatal
                error = exc
            latency = time.perf_counter() - t0
            if error is None:
                try:
                    op.check(out)
                except Exception as exc:
                    error = exc
            records.append((op, out, latency, error))
            latencies.append(latency)
            names.append(op.name)
            op_pass.append(done)
            attempted += 1
        bad = {i: f"{records[i][0].name}: {records[i][3]!r}"
               for i in range(len(records)) if records[i][3] is not None}
        for i, message in wl.after_pass(records):
            bad.setdefault(i, f"{records[i][0].name}: {message}")
        failed += len(bad)
        failures.extend(bad.values())
        done += 1
        if (done >= passes) if passes else (time.perf_counter() - start >= seconds):
            break
    return {"latencies": latencies, "names": names, "op_pass": op_pass,
            "kernel": wl.kernel, "calibration": calibration,
            "attempted": attempted, "failed": failed,
            "failures": failures[:20], "passes": done,
            "loop_s": time.perf_counter() - start}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=("minimax", "certify", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=0,
                        help="run exactly this many passes (0: time-bounded)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--wrong-reference", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans-out", type=Path,
                        help="where a traced run writes its spans")
    args = parser.parse_args()

    tracer = None
    if args.trace and args.workload != "cli":
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    import workloads
    common = (args.seed, args.smoke, args.wrong_reference)
    if args.workload == "minimax":
        wl = workloads.Minimax(*common)
    elif args.workload == "certify":
        wl = workloads.Certify(*common)
    else:
        wl = workloads.Cli(*common, workdir=args.workdir,
                           traced=bool(args.trace))
    result = {"ready_at": time.monotonic()}

    if not args.setup_only:
        result.update(run_loop(wl, args.seconds, args.passes, tracer))
        result["peak_rss_kb"] = wl.peak_rss_kb()
        result["extra"] = wl.extra()
        if args.trace:
            dumps = wl.span_dumps() + ([tracer.to_json()] if tracer else [])
            args.spans_out.parent.mkdir(parents=True, exist_ok=True)
            args.spans_out.write_text(json.dumps(dumps))
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
