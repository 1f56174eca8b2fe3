"""Experiment orchestration: run every selector across the budget grid on
test instances, evaluate with paired Monte Carlo rollouts, and emit CSV
reports plus run metadata."""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import baselines
from .diffusion import SeedSet, live_arcs
from .graph import (Graph, Instance, InstancePool, ProbabilityModel,
                    UniformProbabilities, build_instance_pool, load_edge_list)
from .metrics import FairnessConfig, evaluate_seed_set
from .seeding import derive_seed
from .trainer import (TrainConfig, TrainedPolicy, select_seed_set,
                      stage_seeds, train)

ALGORITHMS = ("rl", "random", "highdegree", "pagerank", "parity", "fairpagerank")

RESULT_COLUMNS = ("algorithm", "budget", "instance", "profit_mean",
                  "profit_std", "fairness_mean", "min_community_ratio",
                  "tau_ok", "seed_size", "seed_cost")
TIMING_COLUMNS = ("algorithm", "budget", "instance", "seconds")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str
    directed: bool = False
    prob_model: ProbabilityModel = UniformProbabilities()
    budgets: tuple[float, ...] = (500, 1000, 1500, 2000, 2500, 3000)
    m: int = 1000
    algorithms: tuple[str, ...] = ALGORITHMS
    train: TrainConfig = field(default_factory=TrainConfig)
    n_train: int = 12
    n_test: int = 8
    nodes_per_instance: int = 500
    cost_range: tuple[float, float] = (1.0, 100.0)
    benefit_range: tuple[float, float] = (1.0, 100.0)
    minority_fraction: float = 0.2
    fairness: FairnessConfig = field(default_factory=FairnessConfig)
    out_dir: str = "results"
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not self.algorithms:
            raise ValueError("need at least one algorithm")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")
        if len(set(self.algorithms)) < len(self.algorithms):
            raise ValueError("algorithms must be distinct")
        b = self.budgets  # a repeated budget or algorithm writes its rows twice
        if not b or not all(0 < x < np.inf for x in b) or \
                not all(x < y for x, y in zip(b, b[1:])):
            raise ValueError("budgets must be nonempty, positive, finite and "
                             "strictly ascending")


@dataclass(frozen=True)
class ExperimentResult:
    algorithm: str
    budget: float
    instance: str
    profit_mean: float
    profit_std: float
    fairness_mean: float        # E[min_c ratio_c]
    min_community_ratio: float  # min_c E[ratio_c]; >= fairness_mean
    tau_ok: bool                # min_community_ratio >= the --tau threshold
    seed_size: int
    seed_cost: float
    seconds: float


def build_pool(cfg: ExperimentConfig, source: Graph | None = None) -> InstancePool:
    if source is None:
        source = load_edge_list(cfg.dataset, cfg.directed)
    return build_instance_pool(
        source, cfg.n_train, cfg.n_test, cfg.nodes_per_instance,
        derive_seed(cfg.seed, "pool"), prob_model=cfg.prob_model,
        cost_range=cfg.cost_range, benefit_range=cfg.benefit_range,
        minority_fraction=cfg.minority_fraction)


def eval_seed(cfg: ExperimentConfig, instance: Instance, budget: float) -> int:
    """Seed of the evaluation stream at (instance, exact budget)."""
    return derive_seed(cfg.seed, "eval", instance.id, repr(float(budget)))


def derived_seeds(cfg: ExperimentConfig, pool: InstancePool,
                  has_policy: bool) -> dict:
    """The sub-seeds a run derives: the pool's, training's stages (from
    `cfg.train.seed`, when the run trains or loads a policy) and each test
    instance's evaluation stream per budget, keyed by repr of the budget."""
    seeds = {"pool": pool.seed,
             "eval": {inst.id: {repr(float(b)): eval_seed(cfg, inst, b)
                                for b in cfg.budgets} for inst in pool.test}}
    if has_policy:
        seeds.update(stage_seeds(cfg.train.seed))
    return seeds


def _select(algorithm: str, instance: Instance, budget: float,
            policy: TrainedPolicy | None, cfg: ExperimentConfig,
            embeddings, ranking) -> SeedSet:
    g, attrs, parts = instance.graph, instance.attrs, instance.parts
    if algorithm == "rl":
        if policy is None:
            raise ValueError("rl selection requires a trained policy")
        return select_seed_set(policy, instance, budget, embeddings())
    if algorithm == "random":
        rng = np.random.default_rng(
            derive_seed(cfg.seed, "random-baseline", instance.id,
                        repr(float(budget))))
        return baselines.random_seeds(g, attrs, budget, rng)
    if algorithm == "highdegree":
        return baselines.high_degree_seeds(g, attrs, budget)
    if algorithm == "pagerank":
        return baselines.pagerank_seeds(g, attrs, budget, ranking())
    if algorithm == "parity":
        return baselines.parity_seeds(g, attrs, parts, budget)
    if algorithm == "fairpagerank":
        return baselines.fair_pagerank_seeds(g, attrs, parts, budget,
                                             ranking())
    raise ValueError(f"unknown algorithm {algorithm!r}")


def run_experiment(cfg: ExperimentConfig, pool: InstancePool | None = None,
                   policy: TrainedPolicy | None = None
                   ) -> list[ExperimentResult]:
    """Evaluate each (algorithm, budget, test instance) triple.

    Rollout streams are derived from (seed, instance, exact budget) only, so
    all algorithms are compared under common random numbers: the live arcs
    of a budget's m rollouts are drawn once, before its algorithms run, and
    every seed set at that budget is reached through the same draw. The
    draws are made in order on the calling thread, and one (m * E / 8
    bytes, 64 rollouts to a word) is alive at a time. Timing covers seed
    selection only; Monte Carlo evaluation is shared and excluded. Work that
    depends on the instance alone (embeddings, PageRank) is done once per
    instance and timed with the first selection that uses it.
    """
    if pool is None:
        pool = build_pool(cfg)
    if "rl" in cfg.algorithms and policy is None:
        policy = train(cfg.train, pool)
    results = []
    for instance in pool.test:
        embeddings = cache(lambda: policy.embeddings_for(instance))
        ranking = cache(lambda: baselines.pagerank(instance.graph))
        for budget in cfg.budgets:
            live = live_arcs(instance.graph, cfg.m,
                             eval_seed(cfg, instance, budget))
            for algorithm in cfg.algorithms:
                t0 = time.perf_counter()
                seeds = _select(algorithm, instance, budget, policy, cfg,
                                embeddings, ranking)
                elapsed = time.perf_counter() - t0
                assert seeds.total_cost <= budget + 1e-9, "budget violated"
                report, profits, _ = evaluate_seed_set(
                    instance.graph, instance.attrs, instance.parts, seeds,
                    live, cfg.fairness)
                results.append(ExperimentResult(
                    algorithm=algorithm,
                    budget=float(budget),
                    instance=instance.id,
                    profit_mean=report.profit,
                    profit_std=float(profits.std()),
                    fairness_mean=report.fairness,
                    min_community_ratio=float(min(report.community_ratios)),
                    tau_ok=report.tau_ok,
                    seed_size=len(seeds),
                    seed_cost=seeds.total_cost,
                    seconds=elapsed,
                ))
            del live  # free this draw before the next one is made
    results.sort(key=lambda r: (r.algorithm, r.budget, r.instance))
    return results


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(results: list[ExperimentResult], out_dir: str,
                meta: dict | None = None) -> dict[str, str]:
    """Write results.csv, timings.csv, summary.csv, and run_meta.json.

    Wall-clock seconds live in timings.csv so results.csv stays
    byte-reproducible for identical configs and seeds.
    """
    os.makedirs(out_dir, exist_ok=True)
    rows = sorted(results, key=lambda r: (r.algorithm, r.budget, r.instance))
    paths = {
        "results": os.path.join(out_dir, "results.csv"),
        "timings": os.path.join(out_dir, "timings.csv"),
        "summary": os.path.join(out_dir, "summary.csv"),
        "meta": os.path.join(out_dir, "run_meta.json"),
    }
    with open(paths["results"], "w") as fh:
        fh.write(",".join(RESULT_COLUMNS) + "\n")
        for r in rows:
            fh.write(",".join(_fmt(getattr(r, c)) for c in RESULT_COLUMNS) + "\n")
    with open(paths["timings"], "w") as fh:
        fh.write(",".join(TIMING_COLUMNS) + "\n")
        for r in rows:
            fh.write(",".join(_fmt(getattr(r, c)) for c in TIMING_COLUMNS) + "\n")
    groups: dict[tuple[str, float], list[ExperimentResult]] = {}
    for r in rows:
        groups.setdefault((r.algorithm, r.budget), []).append(r)
    with open(paths["summary"], "w") as fh:
        fh.write("algorithm,budget,instances,profit_mean,fairness_mean,"
                 "min_community_ratio,seed_size_mean,seed_cost_mean\n")
        for (alg, budget), grp in sorted(groups.items()):
            fh.write(",".join([
                alg, _fmt(budget), str(len(grp)),
                _fmt(float(np.mean([g.profit_mean for g in grp]))),
                _fmt(float(np.mean([g.fairness_mean for g in grp]))),
                _fmt(float(np.mean([g.min_community_ratio for g in grp]))),
                _fmt(float(np.mean([g.seed_size for g in grp]))),
                _fmt(float(np.mean([g.seed_cost for g in grp]))),
            ]) + "\n")
    with open(paths["meta"], "w") as fh:
        json.dump(meta or {}, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return paths
