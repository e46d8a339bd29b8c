"""diffalg benchmark: run one seeded workload and print its metrics.

    python3 perfbench/run.py --workload groebner --seed 1 --seconds 30 --trace 0

Run from the root of a diffalg checkout; the benchmark imports diffalg from
``src/`` next to this directory and exits non-zero without a result if it is
missing. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Load model: one process with one job in flight, in a closed loop; the next
job starts when the previous one returns. A pass runs every job of the
workload once, in order.

1. An untimed warm-up pass (the interpreter's specialising warm-up made a
   first pass about 50% slower than later ones). Its outputs are the ones
   checked against the references, after timing.
2. Timed passes until ``--seconds`` have passed. Every timed output must
   equal the warm-up's. Between jobs, every 20 ms, the calibration kernel
   is timed (see calibration.py). Between passes, outside the timed
   budget, run the ``setup_s`` probes: nine fresh interpreters, each timed
   from launch until ``import diffalg``, seeded input generation and
   parsing are done and the first job could start; ``setup_s`` is their
   median.

A job's time is its mean over the timed passes, and every reported time is
in reference seconds: wall seconds times the calibration's scale, which
cancels the shared machine's drifting speed. With ``--trace 0`` the metrics
are the end-to-end ones: ``jobs_per_s`` (jobs over the sum of their mean
times: one mean pass), ``job_ms.p50`` and ``job_ms.p90`` (interpolated
deciles over the jobs; a failed job ranks above every job that passed),
``setup_s`` and ``peak_rss_mb``. ``failed`` over ``attempted`` is the share
of timed job runs that raised, changed output, or failed their check.
Standard error shows the wall-clock ``jobs_per_s`` and the kernel's mean
time next to them.

With ``--trace 1`` the first half of the time runs untraced and the second
half with spans installed (see spans.py); the metrics are the per-layer ones
plus ``trace.overhead_jobs_per_s``, traced minus untraced ``jobs_per_s``
(each half calibrated on its own).
The full span table is written to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 9
READY = "perfbench-ready"


def _use_checkout():
    """Import diffalg from this checkout's src/, or stop with an error."""
    if not (SRC / "diffalg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no diffalg sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import diffalg

    if Path(diffalg.__file__).resolve().parent != SRC / "diffalg":
        sys.exit(f"perfbench: imported diffalg from {diffalg.__file__}, not {SRC}")


def _probe_child(name, seed):
    """Child side of setup_probe: build the inputs, report ready, clean up."""
    from perfbench import workloads

    wl = workloads.build(name, seed, SCRATCH)
    print(READY, flush=True)
    wl.close()


def setup_probe(name, seed):
    """Seconds from launching a fresh interpreter until its inputs are ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
        line = child.stdout.readline()
        elapsed = perf_counter() - t0
        child.stdout.read()
        code = child.wait(timeout=60)
    if line.strip() != READY or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return elapsed


def run_pass(jobs, warm, per_job, failed_runs, cal):
    """One timed pass: each job's seconds go to per_job[i]; between jobs,
    ``cal`` samples the calibration kernel."""
    for i, job in enumerate(jobs):
        cal.tick()
        t0 = perf_counter()
        try:
            out = job.run()
            dt = perf_counter() - t0
            same = job.summary(out) == warm[i]
        except Exception:  # a failed job is counted, reported once, and the run goes on
            dt = perf_counter() - t0
            same = False
            if i not in failed_runs:
                print(f"perfbench: job {i} ({job.kind}) raised:", file=sys.stderr)
                traceback.print_exc()
        per_job[i].append(dt)
        if not same:
            failed_runs[i] = failed_runs.get(i, 0) + 1


def timed_passes(jobs, warm, seconds, failed_runs, cal, tracer=None, buckets=None,
                 between=None):
    """Passes until ``seconds`` of wall time are used (at least one); with a
    tracer, each pass records into a fresh bucket appended to ``buckets``.
    ``between(pass_number)`` runs after each pass, outside the time budget.
    Returns each job's list of times."""
    from perfbench.spans import Bucket

    per_job = [[] for _ in jobs]
    start = perf_counter()
    while not per_job[0] or perf_counter() - start < seconds:
        if tracer is not None:
            tracer.bucket = Bucket()
            buckets.append(tracer.bucket)
        run_pass(jobs, warm, per_job, failed_runs, cal)
        if between is not None:
            t0 = perf_counter()
            between(len(per_job[0]))
            start += perf_counter() - t0
    return per_job


def warm_up(jobs):
    outputs, summaries = [], []
    for job in jobs:
        try:
            out = job.run()
            summary = job.summary(out)
        except Exception as exc:  # recorded as the job's output and failed in checks
            traceback.print_exc()
            out, summary = exc, None
        outputs.append(out)
        summaries.append(summary)
    return outputs, summaries


def jobs_per_s(per_job, scale=1.0):
    """Jobs over the time of a mean pass; ``scale`` is reference seconds per
    wall second (1 for wall time)."""
    return len(per_job) / (scale * sum(map(statistics.fmean, per_job)))


def end_to_end(per_job, bad_jobs, setup_s, rss_mb, scale):
    """End-to-end metrics, every time in reference seconds."""
    job_ms = [1e3 * scale * statistics.fmean(ts) for ts in per_job]
    ceiling = 1e3 * scale * sum(map(sum, per_job))  # above any passing job's time
    ranked = [ceiling if i in bad_jobs else ms for i, ms in enumerate(job_ms)]
    deciles = statistics.quantiles(ranked, n=10, method="inclusive")
    return {
        "jobs_per_s": {"value": jobs_per_s(per_job, scale), "unit": "1/s"},
        "job_ms.p50": {"value": deciles[4], "unit": "ms"},
        "job_ms.p90": {"value": deciles[8], "unit": "ms"},
        "setup_s": {"value": scale * setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _use_checkout()
    from perfbench import workloads
    from perfbench.calibration import Calibration
    from perfbench.spans import Tracer, layer_metrics, span_table

    if args.workload not in workloads.NAMES:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    SCRATCH.mkdir(parents=True, exist_ok=True)
    if args.setup_probe:
        _probe_child(args.workload, args.seed)
        return 0

    clock = [perf_counter()]

    def phase(what):
        now = perf_counter()
        print(f"perfbench: {what} {now - clock[0]:.2f} s", file=sys.stderr)
        clock[0] = now

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        wl = workloads.build(args.workload, args.seed, SCRATCH)
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_bucket = tracer.bucket if tracer is not None else None
    try:
        t0 = perf_counter()
        outputs, warm = warm_up(wl.jobs)
        step = max(1, round(args.seconds / (perf_counter() - t0) / SETUP_PROBES))
        phase("warm-up pass")
        failed_runs = {}
        if tracer is None:
            # Set-up probes between passes sample the machine's speed over
            # the whole run, like the passes do.
            probes = []
            cal = Calibration()

            def probe(done):
                if done % step == 0 and len(probes) < SETUP_PROBES:
                    probes.append(setup_probe(args.workload, args.seed))

            per_job = timed_passes(wl.jobs, warm, args.seconds, failed_runs, cal,
                                   between=probe)
            while len(probes) < SETUP_PROBES:
                probes.append(setup_probe(args.workload, args.seed))
            setup_s = statistics.median(probes)
            passes = len(per_job[0])
        else:
            plain_cal = Calibration()
            plain = timed_passes(wl.jobs, warm, args.seconds / 2, failed_runs, plain_cal)
            buckets = []
            cal = Calibration()
            tracer.install()
            try:
                per_job = timed_passes(wl.jobs, warm, args.seconds / 2, failed_runs, cal,
                                       tracer, buckets)
            finally:
                tracer.uninstall()
            passes = len(plain[0]) + len(per_job[0])
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        phase(f"{passes} timed passes (kernel: "
              f"{len(cal.samples)} samples, mean {1e3 * cal.mean:.3f} ms; "
              f"wall jobs/s {jobs_per_s(per_job):.2f})")

        from perfbench import reference

        wrong = reference.check(wl, outputs)
        phase("reference checks")
    finally:
        wl.close()

    attempted = passes * len(wl.jobs)
    failed = sum(passes if i in wrong else failed_runs.get(i, 0) for i in range(len(wl.jobs)))
    for i, reason in sorted(wrong.items())[:10]:
        print(f"perfbench: job {i} ({wl.jobs[i].kind}): {reason}", file=sys.stderr)
    if tracer is None:
        metrics = end_to_end(per_job, set(wrong) | set(failed_runs), setup_s, rss_mb, cal.scale)
    else:
        metrics = layer_metrics(setup_bucket, buckets)
        metrics["trace.overhead_jobs_per_s"] = {
            "value": jobs_per_s(per_job, cal.scale) - jobs_per_s(plain, plain_cal.scale),
            "unit": "1/s"}
        trace_file = SCRATCH / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "setup": span_table(setup_bucket),
            "passes": [span_table(b) for b in buckets],
        }, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
