"""Record reference.json: expected outputs, costs and excluded inputs.

    python3 perfbench/record.py

Run once at the baseline commit, on a quiet machine.  For every pool input
it stores a digest of the printed output (normal forms, certificates, CLI
report bytes), which later runs compare against.  Confluence words also get
a cost, the median time both strategies took over ``COST_ROUNDS`` rounds
through the pool, so a seed can draw one word from each band of equal
cost rank.  Inputs that do not finish within the per-job budget are listed
under ``excluded`` with the reason and are never drawn.
"""

import json
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads as W  # noqa: E402
from run import ROOT, import_qwp  # noqa: E402

WORD_BUDGET_S = 1.0
COST_ROUNDS = 3
LENS_BUDGET_S = 1.0
KNOWN_LENS_BLOWUP = (15, (1, 2, 7, 11))


class OverBudget(BaseException):
    """Raised by the budget timer; not an Exception, so run_command's handler lets it through."""


def _alarm(signum, frame):
    raise OverBudget()


def within(budget, fn):
    """fn() and its seconds, or (None, None) when it runs past ``budget``."""
    signal.setitimer(signal.ITIMER_REAL, budget)
    start = perf_counter()
    try:
        out = fn()
    except OverBudget:
        return None, None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return out, perf_counter() - start


def record_confluence(qwp):
    """Digests and costs of the pool words.

    The first round also checks each word and excludes those over budget;
    the rounds go through the whole pool in turn, so drift of the host's
    speed lands on every word alike."""
    jobs = [W.word_job(qwp, index, entry, None) for index, entry in enumerate(W.confluence_pool())]
    times, digests, excluded = [], [], []
    for job in jobs:
        out, spent = within(WORD_BUDGET_S, job.run)
        if out is None:
            times.append(None)
            digests.append(None)
            excluded.append({
                "input": job.key,
                "reason": f"both strategies together take over {WORD_BUDGET_S} s at the baseline; "
                          "the random strategy's cost on such words swings 8-20+ s with its seed, "
                          "more than a run can average (rewriting tail, ROADMAP item 2)",
            })
            continue
        problem = job.check(out, {})
        if problem:
            raise SystemExit(f"{job.key}: {problem}")
        times.append([spent])
        digests.append(job.record(out))
    for _ in range(COST_ROUNDS - 1):
        for job, spent in zip(jobs, times):
            if spent is not None:
                start = perf_counter()
                job.run()
                spent.append(perf_counter() - start)
    costs = [None if t is None else round(1000 * statistics.median(t), 3) for t in times]
    return {"costs_ms": costs, "digests": digests, "excluded": excluded}


def record_certificates(qwp):
    digests = {}
    for spec in W.certificate_specs():
        build, *verifies = W.certificate_jobs_for(qwp, spec, None)
        certs = build.run()
        for job in verifies:
            problem = job.check(job.run(), {})
            if problem:
                raise SystemExit(f"{job.key}: {problem}")
        digests[W.certificate_key(spec)] = build.record(certs)
    excluded = [{
        "input": "weighted_resolution (1, 2, 3)",
        "reason": "a single build takes about 15 s at the baseline (Euclid over Q(q)[t], "
                  "ROADMAP item 3), longer than a pass; (3, 4) and the N=6..8 cyclic builds "
                  "exercise the same code",
    }]
    return {"digests": digests, "excluded": excluded}


def record_cli(qwp):
    digests, candidates, excluded = {}, {}, []
    survey = W.lens_survey()
    rung = KNOWN_LENS_BLOWUP[0], len(KNOWN_LENS_BLOWUP[1])
    survey[rung].append(KNOWN_LENS_BLOWUP[1])
    for (N, k), tuples in survey.items():
        kept = candidates.setdefault(f"{N},{k}", [])
        for weights in tuples:
            job = W.cli_job(qwp, "lens", W.lens_argv(N, weights), None)
            out, _ = within(LENS_BUDGET_S, job.run)
            if out is None:
                excluded.append({
                    "input": " ".join(W.lens_argv(N, weights)),
                    "reason": f"smith_normal_form runs past {LENS_BUDGET_S} s at the baseline "
                              "(coefficient blowup, ROADMAP item 4)",
                })
                continue
            problem = job.check(out, {})
            if problem:
                raise SystemExit(f"{job.key}: {problem}")
            if list(weights) not in kept:
                kept.append(list(weights))
            digests[" ".join(W.lens_argv(N, weights))] = job.record(out)
    for kind, groups in W.cli_pool().items():
        for argv in (argv for group in groups for argv in group):
            job = W.cli_job(qwp, kind, argv, None)
            out = job.run()
            problem = job.check(out, {})
            if problem:
                error = json.loads(out[1]).get("error", {})
                excluded.append({
                    "input": " ".join(argv),
                    "reason": f"fails at the baseline ({problem}): "
                              f"{error.get('type')}: {error.get('message')}",
                })
                print(f"excluded {job.key}: {excluded[-1]['reason']}", flush=True)
                continue
            if kind in W.EXACT_CLI_KINDS:
                digests[" ".join(argv)] = job.record(out)
    return {"digests": digests, "lens_candidates": candidates, "excluded": excluded}


RECORDERS = {"cli": record_cli, "certificates": record_certificates, "confluence": record_confluence}


def main():
    signal.signal(signal.SIGALRM, _alarm)
    qwp = import_qwp(ROOT / "src")
    ref = {}
    for name, fn in RECORDERS.items():
        start = perf_counter()
        ref[name] = fn(qwp)
        print(f"recorded {name} in {perf_counter() - start:.1f} s", flush=True)
    path = BENCH / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
