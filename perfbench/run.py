"""Stage-level benchmark of the talentflow pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
Workloads: report_dirty and graph_sweep, as BENCHMARK.json lists them, and
report_default (see workloads.py and README.md). One client runs a closed loop: each pass starts after the last
one ended, in a process forked from the benchmark after set-up, so a pass's
peak memory is its own. Passes repeat until they have taken --seconds in
total. wall_s is their total time over their number: the core's speed
drifts over seconds, and the mean over the whole run tracks that drift
less than the median pass does. peak_rss_mb and setup_s are medians.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics (wall_s, peak_rss_mb, setup_s); with --trace 1, with
the per-layer metrics of one traced pass, which must write the same bytes
as one untraced pass.
"""

from __future__ import annotations

import os

# One thread per process: the benchmark runs one client and forks its passes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 5  # setup_s is their median


def run_in_child(fn, *args) -> dict:
    """Run fn(*args) in a forked child; return its dict, or {"error": ...}."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            payload = json.dumps(fn(*args))
        except BaseException:
            payload = json.dumps({"error": traceback.format_exc()})
            code = 1
        with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "r", encoding="utf-8") as fh:
            data = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    try:
        result = json.loads(data)
    except json.JSONDecodeError:
        result = {"error": f"child exited with status {status} and no result"}
    if os.waitstatus_to_exitcode(status) != 0 and "error" not in result:
        result["error"] = f"child exited with status {status}"
    return result


class Tally:
    """Operations attempted and failed: pipeline passes and oracle checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def passed(self, result: dict, what: str) -> bool:
        self.attempted += 1
        if "error" in result:
            self.failures.append(f"{what} raised:\n{result['error']}")
            return False
        self.checks(result.get("checks", []))
        return True

    def checks(self, checks) -> None:
        for name, ok in checks:
            self.attempted += 1
            if not ok:
                self.failures.append(f"check failed: {name}")


def traced_pass(workload, state, out_dir: Path) -> dict:
    import spans

    tracer = spans.Tracer()
    with tracer.installed():
        result = workload.run_pass(state, out_dir)
    layers = tracer.values()
    layers["trace.overhead_s"] = len(tracer.spans) * spans.cost_per_span()
    # The probe's fits are not the program's work: keep only their warnings.
    probe = spans.Tracer()
    with probe.installed():
        workload.probe(tracer.pagerank_tables)
    warned = probe.counts.get("graphalgo.powerlaw_warnings")
    if warned is not None:
        layers["graphalgo.powerlaw_warnings"] = warned
    result["layers"] = layers
    return result


def measure(workload, spec, seconds: float, trace: bool, work: Path) -> tuple[dict, Tally]:
    """Set up, run the passes and check them; returns (metrics, tally)."""
    import spans
    import workloads

    tally = Tally()
    setup_tracer = spans.Tracer()
    setup_times = []
    for _ in range(1 if trace else SETUP_REPEATS):
        state = None  # drop the previous set-up before the next one
        start = perf_counter()
        with setup_tracer.installed() if trace else nullcontext():
            state = workload.setup(spec, work)
        setup_times.append(perf_counter() - start)

    out_dirs: list[Path] = []
    timed: list[dict] = []
    while not timed or (not trace and sum(r["wall_s"] for r in timed) < seconds):
        out_dir = work / f"pass{len(out_dirs)}"
        result = run_in_child(workload.run_pass, state, out_dir)
        if not tally.passed(result, f"pass {len(timed) + 1}"):
            break
        out_dirs.append(out_dir)
        timed.append(result)

    metrics: dict[str, tuple[float, str]] = {}
    if trace and timed:
        out_dir = work / "traced"
        traced = run_in_child(traced_pass, workload, state, out_dir)
        if tally.passed(traced, "traced pass"):
            tally.checks(
                (f"traced pass: {name}", ok)
                for name, ok in workloads.same_files(out_dir, out_dirs[0])
            )
            out_dirs.append(out_dir)
            values = spans.layer_metrics(spans.merge(setup_tracer.values(), traced["layers"]))
            tally.checks(
                (f"per-layer metric {name} fired", False)
                for name in spans.missing(values, workload.name)
            )
            metrics = {
                m["name"]: (float(values.get(m["name"], 0.0)), m["unit"])
                for m in spans.PER_LAYER
            }
    elif timed:
        metrics = {
            "wall_s": (statistics.fmean(r["wall_s"] for r in timed), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in timed), "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
    tally.checks(workload.check_run(state, out_dirs, work, run_in_child))
    passes = " ".join(f"{r['wall_s']:.3f}" for r in timed)
    setups = " ".join(f"{t:.3f}" for t in setup_times)
    print(f"{workload.name} seed={spec.seed}: {len(timed)} timed pass(es) [{passes}] s, "
          f"{len(setup_times)} set-up(s) [{setups}] s")
    return metrics, tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "talentflow" / "__init__.py").is_file():
        print(f"error: no talentflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import talentflow
    import workloads

    if Path(talentflow.__file__).resolve().parent != SRC / "talentflow":
        print(f"error: imported talentflow from {talentflow.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    workload = workloads.WORKLOADS[args.workload]
    try:
        metrics, tally = measure(
            workload, workload.spec(args.seed), args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    for failure in tally.failures:
        print(failure, file=sys.stderr)
    if not metrics:
        print("error: no pass completed; no metrics to report", file=sys.stderr)
        return 1
    failed = len(tally.failures)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6f} {unit}")
    print(f"  {'failed_ratio':34s} {failed / tally.attempted:14.6f} "
          f"({failed} of {tally.attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
