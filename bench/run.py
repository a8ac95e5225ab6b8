"""ctxtree benchmark: time one workload's jobs end to end, or trace its layers.

    python3 bench/run.py --workload chain-p100 --seed 1 --seconds 25 --trace 0

Run from anywhere inside a source checkout; the library is imported from the
checkout's ``src/``.  One process, one library thread, BLAS/OpenMP pinned to
one thread.  The set-up draws the workload's inputs from ``--seed`` and
writes them under ``.bench_work/`` (removed on exit); one untimed warm-up job
follows.

``--trace 0`` runs pairs of jobs back to back for ``--seconds`` and reports
the end-to-end metrics.  Each pair is one job on the library under test and
one on ``ctxtree_ref``, a frozen copy of the library kept in this directory,
run step by step in turn.  ``--trace 1`` alternates an untraced ``learn``
with a traced job for ``--seconds``, then runs the CLI once on its own, and
reports the per-layer metrics.  Every tested job's output is checked; each
check is one attempted operation.  The last line of standard output is the
result object; the line before it records the machine, versions and, for
every timing, its median, minimum, maximum and sample count.  Among those
timings is a fixed CPU loop run before and after the measured jobs, which
shows whether the host was slowed during the run.

``job_s`` and ``learn_s`` are the median over pairs of the tested time over
the reference's time, times the reference's time on a quiet host (the
workload's ``ref_s``).  The shared host this was built on slows whole runs
by up to 1.7 times, for half a minute and more, and the two sides of a pair
slow alike; their ratio is what a change to the library moves.  ``setup_s``
is the median of three import times plus the median of three set-ups.
"""

import os

# pinned before numpy loads so no BLAS/OpenMP pool starts beside the timed work
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 3
CLI_TIMEOUT_S = 60
PROBE_REPS = 3


class Tally:
    """Attempted and failed operations; one check of one job is one operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()

    def record(self, checks: dict) -> bool:
        bad = [name for name, ok in checks.items() if not ok]
        self.attempted += len(checks)
        self.failed += len(bad)
        self.failures.update(bad)
        return not bad


def attempt(tally, fn):
    """Run one job; a job that raises is one failed operation."""
    try:
        return fn()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        tally.record({"completed": False})
        return None


class RunClock:
    """The measuring window of a run.  A round starts only while it can end
    inside the window, judged by the longest round so far, so a run lasts
    ``seconds`` and not up to one slow job more."""

    def __init__(self, seconds):
        self.deadline = perf_counter() + seconds
        self.mark = perf_counter()
        self.longest = 0.0

    def lap(self):
        now = perf_counter()
        self.longest = max(self.longest, now - self.mark)
        self.mark = now

    def room(self):
        return perf_counter() + self.longest <= self.deadline


def summary(values):
    return {"median": statistics.median(values), "n": len(values), "min": min(values), "max": max(values)}


def timed_run(inp, seconds, tally, expected):
    """Pairs of jobs back to back for ``seconds``: one on the library under
    test and one on the frozen reference copy, step by step in turn.  Pairs
    whose tested job failed a check are left out, so a broken model never
    reads as a fast one."""
    from pipeline import check_job, run_jobs

    attempt(tally, lambda: run_jobs(inp, [inp.reference]))  # the reference's untimed warm-up
    pairs, tries = [], 0
    clock = RunClock(seconds)
    while tries == 0 or clock.room():
        tries += 1
        # which side goes first alternates, so neither gains from going first
        flip = tries % 2 == 0
        sides = [inp.reference, inp.target] if flip else [inp.target, inp.reference]
        gc.collect()  # every pair starts from the same heap, outside the timing
        jobs = attempt(tally, lambda: run_jobs(inp, sides))
        clock.lap()
        if jobs is not None and flip:
            jobs.reverse()
        if jobs is not None and tally.record(check_job(inp, jobs[0], expected)):
            pairs.append(jobs)
    if not pairs:
        raise RuntimeError(f"no job passed its checks: {dict(tally.failures)}")
    return {
        "job_s": [job.job_s for job, _ in pairs],
        "learn_s": [job.learn_s for job, _ in pairs],
        "ref.job_s": [ref.job_s for _, ref in pairs],
        "ref.learn_s": [ref.learn_s for _, ref in pairs],
    }


def ratio_median(tested, ref):
    return statistics.median(t / r for t, r in zip(tested, ref))


def run_cli(inp, expected, workdir):
    """One ``ctxtree learn`` process on the workload's CSV, run alone, with the
    CLI's defaults except the flags that pose the same problem as ``learn``."""
    cfg = inp.config
    out = workdir / "cli_model.json"
    cmd = [
        sys.executable, "-m", "ctxtree.cli", "learn",
        "--data", str(inp.csv_path),
        "--possible-parents", str(inp.pp_path),
        "--iterations", str(cfg.chain.iterations),
        "--burn-in", str(cfg.chain.burn_in),
        "--seed", str(cfg.chain.seed),
        "--out", str(out),
    ]  # fmt: skip
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return perf_counter() - start, False
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return elapsed, False
    return elapsed, out.read_text() == expected + "\n"


def traced_run(inp, seconds, tally, workdir):
    """Untraced ``learn`` and a traced job alternately for ``seconds``, then
    the CLI once; returns per-layer metrics as (value, unit) and the raw
    samples behind them."""
    from ctxtree import learn, load_csv
    from pipeline import Tracer, check_job, problem_sizes, traced_job

    w = inp.workload
    data = load_csv(inp.csv_path)
    tr = Tracer()
    learn_s, extras, expected = [], [], None
    clock = RunClock(seconds)
    while not learn_s or clock.room():
        gc.collect()
        start = perf_counter()
        expected = learn(data, inp.config).to_json()
        learn_s.append(perf_counter() - start)
        gc.collect()
        out = attempt(tally, lambda: traced_job(inp, tr))
        if out is not None:
            job, ex = out
            checks = check_job(inp, job, expected)
            checks["score_paths_agree"] = math.isclose(ex.z_sum, job.lml, rel_tol=1e-9)
            tally.record(checks)
            extras.append(ex)
        clock.lap()
    if not extras:
        raise RuntimeError("every traced job raised")
    cli_s, cli_ok = run_cli(inp, expected, workdir)
    tally.record({"cli_same_model": cli_ok})

    samples = {name: tr.per_job(name) for name in (
        "counts.load_csv", "counts.build", "scoring.build", "scoring.lml", "order_mcmc.run",
        "learn.optimal_staging", "model_ops.estimate", "model_ops.sample", "model_ops.joint_table",
        "model_ops.kl", "model_ops.log_density", "ldag.export",
    )}  # fmt: skip
    samples["learn.phase_sum"] = tr.children_per_job("learn")
    samples["learn.untraced"] = learn_s
    samples["cli.learn"] = [cli_s]
    best = {name: min(v) for name, v in samples.items()}
    sizes = problem_sizes(w, inp.pp)
    # the traced jobs of a run fit the same model (check "same_model"), so
    # the values that are not times come from the first
    ex = extras[0]
    metrics = {
        "counts.load_csv_s": (best["counts.load_csv"], "s"),
        "counts.build_s": (best["counts.build"], "s"),
        "counts.row_passes": (sizes["row_passes"], "count"),
        "counts.cells": (sizes["cells"], "count"),
        "counts.cells_per_s": (sizes["cells"] / best["counts.build"], "1/s"),
        "scoring.build_s": (best["scoring.build"], "s"),
        "scoring.z_entries": (sizes["z_entries"], "count"),
        "scoring.los_entries": (sizes["los_entries"], "count"),
        "scoring.stagings_covered": (sizes["stagings_covered"], "count"),
        "scoring.los_per_s": (sizes["los_entries"] / best["scoring.build"], "1/s"),
        "scoring.lml_s": (best["scoring.lml"], "s"),
        "order_mcmc.run_s": (best["order_mcmc.run"], "s"),
        "order_mcmc.steps_per_s": (w.iterations / best["order_mcmc.run"], "1/s"),
        "order_mcmc.moved_frac": (1 - ex.chain.move_distances[0] / w.iterations, "ratio"),
        "order_mcmc.map_score": (ex.map_score, "nats"),
        "learn.staging_opt_s": (best["learn.optimal_staging"], "s"),
        "learn.stagings_searched": (ex.stagings_searched, "count"),
        "model_ops.estimate_s": (best["model_ops.estimate"], "s"),
        "model_ops.sample_s": (best["model_ops.sample"], "s"),
        "model_ops.joint_table_s": (best["model_ops.joint_table"], "s"),
        "model_ops.kl_s": (best["model_ops.kl"], "s"),
        "model_ops.kl_nats": (ex.kl_nats, "nats"),
        "model_ops.log_density_rows_per_s": (len(inp.heldout) / best["model_ops.log_density"], "1/s"),
        "ldag.export_s": (best["ldag.export"], "s"),
        "cli.learn_s": (cli_s, "s"),
        "trace.overhead_frac": (best["learn.phase_sum"] / best["learn.untraced"] - 1, "ratio"),
    }
    return metrics, samples


def host_probe():
    """Wall times of a fixed pure-Python loop.  They are taken before and after
    the measured jobs and only recorded, never applied to a metric, so that a
    comparison of two runs can tell a slowed host from a slower program."""
    times = []
    for _ in range(PROBE_REPS):
        start = perf_counter()
        total = 0
        for i in range(2_000_000):
            total += i * i
        times.append(perf_counter() - start)
    return times


def import_times():
    """Wall time of ``import ctxtree`` in fresh interpreters: the cold-process
    cost every CLI call and script pays."""
    cmd = [sys.executable, "-c", "import ctxtree"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, timeout=CLI_TIMEOUT_S)
        times.append(perf_counter() - start)
    return times


def run(w, seed, seconds, trace, workdir):
    """One benchmark run; returns (result object, info record)."""
    from pipeline import check_job, run_job
    from workloads import make_inputs

    import_s = import_times()
    setup_s = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        inp = make_inputs(w, seed, workdir)
        setup_s.append(perf_counter() - start)

    tally = Tally()
    warm = attempt(tally, lambda: run_job(inp))
    expected = None
    if warm is not None:
        tally.record(check_job(inp, warm, None))
        expected = warm.fitted.to_json()
    # read before the timed jobs: allocator fragmentation lifts the high-water
    # mark with each further job, and how many fit in a run depends on the host
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux

    probe_before = host_probe()
    if trace:
        metrics, samples = traced_run(inp, seconds, tally, workdir)
    else:
        samples = timed_run(inp, seconds, tally, expected)
        ref_job_s, ref_learn_s = w.ref_s
        metrics = {
            "job_s": (ref_job_s * ratio_median(samples["job_s"], samples["ref.job_s"]), "s"),
            "learn_s": (ref_learn_s * ratio_median(samples["learn_s"], samples["ref.learn_s"]), "s"),
            "setup_s": (statistics.median(import_s) + statistics.median(setup_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    samples["host_probe.before"] = probe_before
    samples["host_probe.after"] = host_probe()
    samples["setup"] = setup_s
    samples["import"] = import_s
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    info = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "threads": inp.config.threads,
        "failed_checks": dict(tally.failures),
        "samples": {name: summary(v) for name, v in samples.items()},
    }
    return result, info


def machine_info():
    import numpy
    import scipy

    caches = {name.lower(): getconf(name) for name in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE")}
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(SRC / "ctxtree"),
        # the reference copy must not change; a different digest means it did
        "ref_sha256": src_digest(Path(__file__).resolve().parent / "ctxtree_ref"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches_bytes": caches,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def getconf(name):
    """A numeric system value from getconf (Python's os.sysconf lacks the cache
    sizes), or None where it is unknown."""
    try:
        proc = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    value = proc.stdout.strip()
    return int(value) if proc.returncode == 0 and value.isdigit() else None


def git_sha():
    """HEAD of the checkout, or None outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, env=env, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest(package):
    """SHA-256 over a package's sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        h.update(str(path.relative_to(package)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    # a terminated run still removes its files and kills a running CLI process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    if not (SRC / "ctxtree" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC / 'ctxtree'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ctxtree
    import workloads

    if not Path(ctxtree.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported ctxtree from {ctxtree.__file__}, not {SRC}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = WORK / f"{w.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, info = run(w, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    info.update(machine_info())
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
