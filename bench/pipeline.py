"""One benchmark job, its traced twin, and the checks every job's output must pass.

A job is what a library user does with a dataset: load the CSV, ``learn``,
export the LDAG, sample from the fitted model, score it, and (where the joint
space is small enough) compute the exact KL divergence from the truth.

The traced job calls the public functions ``learn`` calls, in the same order,
and records a span around each call from here, outside the library.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import combinations
from time import perf_counter
from typing import Optional, Sequence

import numpy as np

from ctxtree import (
    CStree,
    ChainTrace,
    Dataset,
    EnumSpec,
    build_count_table,
    build_score_tables,
    count_stagings,
    estimate_parameters,
    export_dot,
    joint_table,
    kl_divergence,
    load_csv,
    log_density,
    log_marginal_likelihood,
    map_order,
    optimal_staging,
    run_chain,
    sample,
    to_ldag,
)

from workloads import BETA, JOINT_LIMIT, Inputs, Side, Workload

# KL(truth || fitted) above this on an exact-KL workload fails the job.  At
# n = 200k most seeds give about 2e-4 nats and the worst seed whose single
# chain stays in a poor local mode 0.136 nats (README.md); the ceiling sits
# just above that worst case.
KL_CEILING = 0.2


@dataclass
class Job:
    job_s: float
    learn_s: float
    fitted: CStree
    sampled: Dataset
    lml: float
    kl: Optional[float]


@dataclass
class Span:
    name: str
    job: int
    parent: Optional[int]
    start: float
    end: float = math.nan


@dataclass
class Tracer:
    """In-memory spans; spans of one traced job share a job number."""

    spans: list[Span] = field(default_factory=list)
    job: int = 0
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, self.job, parent, perf_counter())
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._stack.pop()

    def per_job(self, name: str) -> list[float]:
        """Summed duration of the spans called ``name``, one value per job."""
        totals: dict[int, float] = {}
        for s in self.spans:
            if s.name == name:
                totals[s.job] = totals.get(s.job, 0.0) + (s.end - s.start)
        return [totals[j] for j in sorted(totals)]

    def children_per_job(self, name: str) -> list[float]:
        """Summed duration of the direct children of the spans called ``name``."""
        totals: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None and self.spans[s.parent].name == name:
                totals[s.job] = totals.get(s.job, 0.0) + (s.end - s.start)
        return [totals[j] for j in sorted(totals)]


def job_steps(inp: Inputs, side: Side):
    """The job as three steps (load, learn, use the model) over one side's
    library, and the dict they fill."""
    w, lib, cfg = inp.workload, side.lib, side.config
    out = {}

    def load():
        out["data"] = lib.load_csv(inp.csv_path)

    def fit():
        out["fitted"] = lib.learn(out["data"], cfg)

    def use():
        fitted = out["fitted"]
        lib.export_dot(lib.to_ldag(fitted))
        out["sampled"] = lib.sample(fitted, w.n, np.random.default_rng(inp.sample_seed))
        out["lml"] = lib.log_marginal_likelihood(fitted, out["data"], cfg.prior)
        out["kl"] = lib.kl_divergence(side.truth, fitted) if w.exact_kl else None

    return (load, fit, use), out


def run_jobs(inp: Inputs, sides: Sequence[Side]) -> list[Job]:
    """One job per side, run step by step in turn, so that every side's
    step meets the host in nearly the same state.  The turn order reverses
    at each step, so a host that speeds up or slows down across the job
    favours no side."""
    plans = [job_steps(inp, side) for side in sides]
    times = [[0.0, 0.0, 0.0] for _ in sides]
    for k in range(3):
        turns = list(zip(plans, times))
        for (steps, _), t in turns if k % 2 == 0 else reversed(turns):
            start = perf_counter()
            steps[k]()
            t[k] = perf_counter() - start
    return [
        Job(sum(t), t[1], out["fitted"], out["sampled"], out["lml"], out["kl"])
        for (_, out), t in zip(plans, times)
    ]


def run_job(inp: Inputs) -> Job:
    """One job on the library under test."""
    return run_jobs(inp, [inp.target])[0]


@dataclass
class TracedExtras:
    chain: ChainTrace
    z_sum: float
    map_score: float
    stagings_searched: int
    kl_nats: float


def traced_job(inp: Inputs, tr: Tracer) -> tuple[Job, TracedExtras]:
    """The job with a span around each library call ``learn`` makes, plus
    the layer measurements (joint table, log densities, KL) that no job
    needs on every workload."""
    w, cfg = inp.workload, inp.config
    tr.job += 1
    searched = 0
    with tr.span("job") as job_span:
        with tr.span("counts.load_csv"):
            data = load_csv(inp.csv_path)
        with tr.span("learn") as learn_span:
            with tr.span("counts.build"):
                counts = build_count_table(data, inp.pp, cfg.beta, max_cells=cfg.max_cells)
            with tr.span("scoring.build"):
                tables = build_score_tables(counts, cfg.prior)
            with tr.span("order_mcmc.run"):
                chain = run_chain(tables, cfg.chain)
            with tr.span("order_mcmc.map_order"):
                order = map_order(chain)
            stagings = []
            for lvl in range(1, w.p):
                var = order[lvl]
                usable = sorted(inp.pp[var] & set(order[:lvl]))
                spec = EnumSpec.for_level(data.space, order, lvl, cfg.beta, usable)
                searched += count_stagings(spec)
                with tr.span("learn.optimal_staging"):
                    stagings.append(optimal_staging(var, spec, tables))
            tree = CStree(order, data.space, stagings, names=data.names, labels=data.labels)
            with tr.span("model_ops.estimate"):
                fitted = estimate_parameters(tree, data, cfg.estimator, cfg.prior)
        with tr.span("ldag.export"):
            export_dot(to_ldag(fitted))
        with tr.span("model_ops.sample"):
            sampled = sample(fitted, w.n, np.random.default_rng(inp.sample_seed))
        with tr.span("scoring.lml"):
            lml = log_marginal_likelihood(fitted, data, cfg.prior)
        kl = None
        if w.exact_kl:
            with tr.span("model_ops.kl"):
                kl = kl_divergence(inp.truth, fitted)

    marginal = leading_marginal(fitted, JOINT_LIMIT)
    with tr.span("model_ops.joint_table"):
        joint_table(marginal)
    with tr.span("model_ops.log_density"):
        for row in inp.heldout:
            log_density(fitted, row)
    kl_nats = kl
    if kl_nats is None:
        with tr.span("model_ops.kl"):
            kl_nats = monte_carlo_kl(inp.truth, fitted, inp.heldout)
    job = Job(job_span.end - job_span.start, learn_span.end - learn_span.start, fitted, sampled, lml, kl)
    # the score tables' evidence of the fitted stagings, to set against the
    # direct-from-data log marginal likelihood
    z_sum = sum(
        tables.z(fitted.governed_var(lvl), stage.context)
        for lvl, staging in enumerate(fitted.stagings)
        for stage in staging.stages
    )
    extras = TracedExtras(chain, z_sum, tables.order_score(order), searched, kl_nats)
    return job, extras


def leading_marginal(tree: CStree, limit: int) -> CStree:
    """The CStree of the longest leading run of ordered variables whose joint
    space has at most ``limit`` outcomes, relabelled 0..m-1.

    The first m levels of a CStree are exactly the marginal of its first m
    ordered variables, so this is the whole model when its joint space fits.
    """
    cards = tree.space.cards
    m, size = 0, 1
    while m < tree.p and size * cards[tree.order[m]] <= limit:
        size *= cards[tree.order[m]]
        m += 1
    keep = tree.order[:m]
    new = {v: j for j, v in enumerate(keep)}
    doc = tree.to_json_dict()
    sub = {
        "order": list(range(m)),
        "cards": [cards[v] for v in keep],
        "stagings": [
            [
                {"context": {str(new[int(v)]): x for v, x in e["context"].items()}, "probs": e["probs"]}
                for e in level
            ]
            for level in doc["stagings"][:m]
        ],
    }
    return CStree.from_json_dict(sub)


def monte_carlo_kl(truth: CStree, fitted: CStree, rows: np.ndarray) -> float:
    """KL(truth || fitted) estimated as the mean log-density ratio over rows
    drawn from the truth, for joint spaces too large to tabulate."""
    return float(np.mean([log_density(truth, r) - log_density(fitted, r) for r in rows]))


def check_job(inp: Inputs, job: Job, expected: Optional[str]) -> dict[str, bool]:
    """Each check of a job's output, by name.  A check that raises fails."""
    w = inp.workload
    checks = {
        "context_bound": lambda: job.fitted.max_context_size() <= BETA,
        "heldout_finite": lambda: all(
            math.isfinite(log_density(job.fitted, row)) for row in inp.heldout
        ),
        "sample_range": lambda: _rows_in_range(job.sampled.rows, w),
    }
    if job.kl is not None:
        checks["kl_ceiling"] = lambda: job.kl < KL_CEILING
    if expected is not None:
        # byte-identical to the expected model: learn is deterministic given
        # the chain seed, and the traced pipeline must reproduce it
        checks["same_model"] = lambda: job.fitted.to_json() == expected
    results = {}
    for name, check in checks.items():
        try:
            results[name] = bool(check())
        except Exception:  # a crashing check is a failed check, not a stopped run
            results[name] = False
    return results


def _rows_in_range(rows: np.ndarray, w: Workload) -> bool:
    return (
        rows.shape == (w.n, w.p)
        and bool((rows >= 0).all())
        and bool((rows < np.asarray(w.cards)).all())
    )


def problem_sizes(w: Workload, pp) -> dict[str, int]:
    """Work the count and score layers must do, computed from K and beta."""
    cards = w.cards
    sizes = dict.fromkeys(("row_passes", "cells", "z_entries", "los_entries", "stagings_covered"), 0)
    for i in range(w.p):
        k_i = sorted(pp[i])
        for size in range(BETA + 1):
            for svars in combinations(k_i, size):
                q = math.prod(cards[v] for v in svars)
                sizes["row_passes"] += 1
                sizes["cells"] += q * cards[i]
                sizes["z_entries"] += q
        sizes["los_entries"] += 1 << len(k_i)
        for size in range(len(k_i) + 1):
            for subset in combinations(k_i, size):
                spec = EnumSpec(subset, [cards[v] for v in subset], subset, BETA)
                sizes["stagings_covered"] += count_stagings(spec)
    return sizes
