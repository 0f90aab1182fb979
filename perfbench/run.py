"""Run one workload of the qwp benchmark and print its metrics.

    python3 perfbench/run.py --workload confluence --seed 1 --seconds 40 --trace 0

Closed loop, one client: jobs run one after another in this process, each
sent when the previous one returned.  A set-up is a fresh import of qwp,
seeded input generation, presentations and spaces.  The run sets up once,
then repeats passes over the fixed job list for at most ``--seconds`` and
reports the median pass as ``wall_s``.  Before each pass it times further
set-ups, whose outputs are thrown away, for about ``SETUP_SHARE`` of the
last pass, so that the set-ups are spread over the same window as the
passes; ``setup_s`` is the median of all of them.  ``job_p50_ms`` and
``job_p90_ms`` are percentiles over the jobs of each one's median latency
across the passes.  Every output is checked after its pass; a job that
raised or failed a check counts in ``failed``.

``--trace 1`` instead runs untraced passes for half the time, wraps qwp's
public functions (tracing.py) and runs traced passes for the other half,
then prints the per-layer metrics and writes the spans to
``.perfbench/trace-<workload>-<seed>.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
output was correct, 1 when one was not, and 2 when qwp's sources are
missing.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import Tracer, instrument  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

DEFAULT_SEED = 1
SETUP_SHARE = 0.1
END_TO_END = {
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def calibration_s():
    """Time of a fixed pure-Python loop: reported as host context, never used to rescale."""
    start = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return perf_counter() - start


def run_metadata():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "calibration_s": calibration_s(),
    }


def qwp_modules():
    return {m: sys.modules[m] for m in sys.modules if m == "qwp" or m.startswith("qwp.")}


def import_qwp(src):
    """A fresh import of qwp from ``src``; earlier imports are dropped first."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in qwp_modules():
        del sys.modules[name]
    qwp = importlib.import_module("qwp")
    if Path(qwp.__file__).resolve().parent != (src / "qwp").resolve():
        raise ImportError(f"qwp was imported from {qwp.__file__}, not from {src}")
    return qwp


def setup(workload, seed, ref, tiny, src):
    start = perf_counter()
    jobs = generate(workload, seed, import_qwp(src), ref, tiny)
    return perf_counter() - start, jobs


def spare_setups(seconds, *args):
    """Set-ups for at least ``seconds``, at least one; their times only.

    The qwp modules the jobs use are put back afterwards, so a function
    that qwp imports at call time comes from the same modules as the rest.
    """
    kept = qwp_modules()
    times = []
    while not times or sum(times) < seconds:
        times.append(setup(*args)[0])
    for name in qwp_modules():
        del sys.modules[name]
    sys.modules.update(kept)
    return times


def run_pass(jobs, tracer=None):
    """One timed pass over ``jobs``; returns (wall seconds, latencies, failures)."""
    outputs = {}
    latencies = []
    failures = {}
    start = perf_counter()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        began = perf_counter()
        try:
            outputs[job.key] = job.run()
        except Exception as exc:  # noqa: BLE001 - a failing job is counted, not fatal
            failures[job.key] = f"{type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - began)
    wall = perf_counter() - start
    for job in jobs:
        if job.key in failures:
            continue
        try:
            message = job.check(outputs[job.key], outputs)
        except Exception as exc:  # noqa: BLE001 - a check that breaks is a failure
            message = f"check raised {type(exc).__name__}: {exc}"
        if message:
            failures[job.key] = message
    return wall, latencies, failures


def measure(jobs, seconds, tracer=None, before_pass=None):
    """Passes for at most ``seconds``, at least one.

    ``before_pass(last)`` runs before each pass, with the wall time of the
    last pass (0 before the first).  A round of both starts only if another
    one as long as the last still fits.  Each pass starts from a collected
    heap, so garbage left by earlier work does not land in its time.
    """
    passes = []
    deadline = perf_counter() + seconds
    last = 0.0
    while not passes or perf_counter() + last <= deadline:
        began = perf_counter()
        if before_pass is not None:
            before_pass(passes[-1][0] if passes else 0.0)
        gc.collect()
        passes.append(run_pass(jobs, tracer))
        last = perf_counter() - began
    return passes


def job_latencies(passes):
    """Each job's median latency over the passes, so a burst in one pass does not count."""
    return [statistics.median(per_job) for per_job in zip(*(lat for _, lat, _ in passes))]


def end_to_end(passes, setups):
    latencies = job_latencies(passes)
    values = {
        "wall_s": statistics.median(wall for wall, _, _ in passes),
        "job_p50_ms": 1000 * statistics.median(latencies),
        "job_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def describe(metrics, passes, setups):
    samples = len(passes[0][1])
    each = f"{samples} jobs, each the median of {len(passes)} passes"
    notes = {
        "wall_s": f"median of {len(passes)} passes",
        "job_p50_ms": each,
        "job_p90_ms": f"{each}; {samples - int(0.9 * samples)} beyond",
        "setup_s": f"median of {len(setups)} set-ups",
        "peak_rss_mb": "this process",
    }
    for name, metric in metrics.items():
        note = notes.get(name, "per pass")
        print(f"{name} {metric['value']:.6g} {metric['unit']} ({note})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a small job list, for smoke runs")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "qwp" / "__init__.py").is_file():
        print(f"error: no qwp sources under {src}", file=sys.stderr)
        return 2
    ref = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    meta = run_metadata()
    meta.update(workload=args.workload, seed=args.seed, trace=args.trace)
    print("meta " + json.dumps(meta, sort_keys=True))

    spent, jobs = setup(args.workload, args.seed, ref, args.tiny, src)
    setups = [spent]
    print(f"workload {args.workload}: {len(jobs)} jobs per pass, closed loop, one client")

    if args.trace:
        plain = measure(jobs, args.seconds / 2)
        tracer = Tracer()
        instrument(tracer, qwp_modules())
        traced = measure(jobs, args.seconds / 2, tracer)
        passes = plain + traced
        ratio = statistics.median(w for w, _, _ in traced) / statistics.median(w for w, _, _ in plain)
        metrics = tracer.layer_metrics(len(traced), ratio)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.json", meta)
    else:
        def before_pass(last):
            setups.extend(spare_setups(SETUP_SHARE * last, args.workload, args.seed, ref,
                                       args.tiny, src))

        passes = measure(jobs, args.seconds, before_pass=before_pass)
        metrics = end_to_end(passes, setups)

    attempted = sum(len(lat) for _, lat, _ in passes)
    failures = {}
    for _, _, failed in passes:
        failures.update(failed)
    failed = sum(len(f) for _, _, f in passes)
    for key, message in sorted(failures.items())[:20]:
        print(f"FAILED {key}: {message}")
    describe(metrics, passes, setups)
    print("pass_walls_s " + " ".join(f"{wall:.4f}" for wall, _, _ in passes))
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
