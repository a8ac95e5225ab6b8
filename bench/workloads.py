"""Benchmark workloads and the inputs each one derives from a workload seed.

A workload fixes problem shape only: cardinalities, row count, the size and
kind of the possible-parent sets, and chain length.  Everything random (the
truth model, the data, the possible-parent sets, the chain seed, the held-out
rows and the seed `sample` uses inside a job) is drawn from one generator
seeded with the workload seed, so the same seed gives the same inputs and the
library sees them only as inputs.  README.md in this directory and
BENCHMARK.json say why each workload was chosen.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Any

import numpy as np

import ctxtree
import ctxtree_ref
from ctxtree import (
    CStree,
    Dataset,
    LearnConfig,
    PossibleParents,
    StateSpace,
    random_cstree,
    sample,
    write_csv,
)

BETA = 2
HELDOUT_ROWS = 500
# joint tables cover at most this many outcomes; exact KL needs the whole joint within it
JOINT_LIMIT = 1 << 20


@dataclass(frozen=True)
class Workload:
    """Problem shape.  ``pp_rule`` says how K_i is drawn: "random" picks
    k_size other variables uniformly; "balanced" picks an equal share of each
    cardinality, so the score-table work is the same for every seed; "truth"
    starts from the truth's context variables for i and tops up at random to
    k_size.  Burn-in is ChainConfig's default, a fifth of the iterations.
    A job ends with the exact ``kl_divergence(truth, fitted)`` only where
    ``exact_kl`` is set, which needs a joint space of at most JOINT_LIMIT
    outcomes.

    ``ref_s`` is the (job, learn) wall time of the frozen reference copy of
    the library (``ctxtree_ref``): the fastest seen on a 2-core x86-64 VM
    while the benchmark was defined.  run.py reports job and learn times as
    their ratio to the reference's, times these."""

    name: str
    cards: tuple[int, ...]
    n: int
    k_size: int
    pp_rule: str
    iterations: int
    ref_s: tuple[float, float] = (1.0, 1.0)
    exact_kl: bool = False

    @property
    def p(self) -> int:
        return len(self.cards)

    @property
    def joint_size(self) -> int:
        return math.prod(self.cards)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chain-p100", (2,) * 100, n=1000, k_size=4, pp_rule="random", iterations=2000, ref_s=(0.81, 0.71)
        ),
        Workload(
            "tables-k8-mixed", (2, 3) * 5, n=2000, k_size=8, pp_rule="balanced", iterations=3000, ref_s=(1.75, 1.71)
        ),
        Workload(
            "data-n200k",
            (2,) * 20,
            n=200_000,
            k_size=6,
            pp_rule="truth",
            iterations=2000,
            ref_s=(7.9, 2.45),
            exact_kl=True,
        ),
    )
}


@dataclass(frozen=True)
class Side:
    """One implementation of the library and the job inputs built from its
    own classes."""

    lib: ModuleType
    config: Any
    truth: Any


@dataclass
class Inputs:
    """Everything one run of a workload feeds the library; ``reference``
    poses the same problem to the frozen reference copy."""

    workload: Workload
    truth: CStree
    pp: PossibleParents
    config: LearnConfig
    reference: Side
    data: Dataset
    heldout: np.ndarray
    sample_seed: int
    csv_path: Path
    pp_path: Path

    @property
    def target(self) -> Side:
        """The library under test, from the checkout's ``src/``."""
        return Side(ctxtree, self.config, self.truth)


def truth_context_vars(truth: CStree) -> list[set[int]]:
    """For each variable, the variables its truth staging conditions on."""
    parents: list[set[int]] = [set() for _ in range(truth.p)]
    for lvl, staging in enumerate(truth.stagings):
        var = truth.governed_var(lvl)
        for stage in staging.stages:
            parents[var].update(stage.context.vars)
    return parents


def draw_possible_parents(w: Workload, truth: CStree, rng: np.random.Generator) -> PossibleParents:
    p = w.p
    base = truth_context_vars(truth) if w.pp_rule == "truth" else [set() for _ in range(p)]
    sets = []
    for i in range(p):
        chosen = set(base[i])
        if w.pp_rule == "balanced":
            kinds = sorted(set(w.cards))
            for d in kinds:
                pool = [j for j in range(p) if j != i and w.cards[j] == d]
                picks = rng.choice(pool, size=w.k_size // len(kinds), replace=False)
                chosen.update(int(j) for j in picks)
        else:
            pool = [j for j in range(p) if j != i and j not in chosen]
            need = max(w.k_size - len(chosen), 0)
            chosen.update(int(j) for j in rng.choice(pool, size=need, replace=False))
        sets.append(chosen)
    return PossibleParents(sets)


def learn_config(w: Workload, pp: PossibleParents, chain_seed: int, lib: ModuleType = ctxtree):
    chain = lib.ChainConfig(iterations=w.iterations, seed=chain_seed)
    sets = lib.PossibleParents([set(pp[i]) for i in range(w.p)])
    # one score/count thread keeps the load within two cores
    return lib.LearnConfig(beta=BETA, prior=lib.PriorSpec(), chain=chain, possible_parents=sets, threads=1)


def make_inputs(w: Workload, seed: int, workdir: Path) -> Inputs:
    """Draw the workload's inputs from ``seed`` and write the CSV and the
    possible-parents file the job and the CLI read."""
    rng = np.random.default_rng(seed)
    truth = random_cstree(StateSpace(w.cards), BETA, rng)
    pp = draw_possible_parents(w, truth, rng)
    chain_seed = int(rng.integers(1 << 31))
    data = sample(truth, w.n, rng)
    heldout = sample(truth, HELDOUT_ROWS, rng).rows
    sample_seed = int(rng.integers(1 << 31))
    csv_path = workdir / "data.csv"
    pp_path = workdir / "possible_parents.json"
    write_csv(data, csv_path)
    with open(pp_path, "w") as fh:
        json.dump({str(i): sorted(pp[i]) for i in range(w.p)}, fh)
    ref = ctxtree_ref
    reference = Side(ref, learn_config(w, pp, chain_seed, ref), ref.CStree.from_json_dict(truth.to_json_dict()))
    return Inputs(
        w, truth, pp, learn_config(w, pp, chain_seed), reference, data, heldout, sample_seed, csv_path, pp_path
    )
