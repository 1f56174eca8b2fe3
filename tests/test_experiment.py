import csv
import os
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from fairseed import baselines, embedding, experiment, trainer
from fairseed.diffusion import live_arcs
from fairseed.experiment import (ALGORITHMS, ExperimentConfig,
                                 ExperimentResult, build_pool, emit_report,
                                 eval_seed, run_experiment)
from fairseed.graph import InstancePool, UniformProbabilities
from fairseed.metrics import evaluate_seed_set
from fairseed.seeding import derive_seed
from fairseed.trainer import TrainConfig, select_seed_set, train

from conftest import make_instance, read_lines


def small_pool():
    edges_a = [(0, 1, 0.4), (1, 2, 0.4), (2, 3, 0.4), (3, 4, 0.4), (4, 5, 0.4),
               (0, 5, 0.4), (1, 4, 0.4)]
    a = make_instance("train-00", 6, edges_a, cost=[2, 1, 3, 2, 1, 2],
                      benefit=[4, 5, 3, 2, 6, 1], labels=[0, 0, 1, 1, 1, 1])
    b = make_instance("test-00", 6, edges_a, cost=[1, 2, 2, 3, 1, 2],
                      benefit=[3, 4, 5, 2, 1, 6], labels=[0, 1, 1, 1, 0, 1])
    return InstancePool(train=(a,), test=(b,), seed=0)


def small_config(**kw):
    defaults = dict(
        dataset="unused", directed=False, budgets=(3.0, 6.0), m=50,
        algorithms=("random", "highdegree", "pagerank", "parity",
                    "fairpagerank"),
        train=TrainConfig(budget=4.0, episodes=6, batch_size=4, d_emb=8,
                          t_emb=2, seed=3),
        n_train=1, n_test=1, nodes_per_instance=6, seed=11)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestRunExperiment:
    def test_row_count_and_grid(self):
        cfg = small_config()
        results = run_experiment(cfg, pool=small_pool())
        assert len(results) == 2 * 5  # budgets x algorithms x 1 instance
        assert {r.budget for r in results} == {3.0, 6.0}

    def test_single_sample_std_zero(self):
        cfg = small_config(m=1, algorithms=("highdegree",))
        results = run_experiment(cfg, pool=small_pool())
        assert all(r.profit_std == 0.0 for r in results)

    def test_empty_seed_set_zero_metrics(self):
        cfg = small_config(budgets=(0.5,), algorithms=("highdegree",))
        results = run_experiment(cfg, pool=small_pool())
        assert results[0].seed_size == 0
        assert results[0].profit_mean == 0.0
        assert results[0].fairness_mean == 0.0

    def test_budget_respected(self):
        cfg = small_config()
        for r in run_experiment(cfg, pool=small_pool()):
            assert r.seed_cost <= r.budget

    def test_rl_trains_when_no_policy(self):
        cfg = small_config(algorithms=("rl",), budgets=(4.0,))
        results = run_experiment(cfg, pool=small_pool())
        assert len(results) == 1
        assert results[0].algorithm == "rl"

    def test_instance_work_shared_across_budgets(self, monkeypatch):
        cfg = small_config(algorithms=ALGORITHMS, budgets=(2.0, 4.0, 6.0))
        pool = small_pool()
        policy = train(cfg.train, pool)
        inst = pool.test[0]
        calls = {"pagerank": 0, "embed": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(baselines, "pagerank",
                            counted("pagerank", baselines.pagerank))
        monkeypatch.setattr(trainer, "compute_embeddings",
                            counted("embed", embedding.compute_embeddings))
        results = run_experiment(cfg, pool=pool, policy=policy)
        assert calls == {"pagerank": 1, "embed": 1}
        # each row's seed set is the one a standalone selection picks
        g, attrs, parts = inst.graph, inst.attrs, inst.parts
        standalone = {
            "rl": lambda b: select_seed_set(policy, inst, b),
            "pagerank": lambda b: baselines.pagerank_seeds(g, attrs, b),
            "fairpagerank": lambda b: baselines.fair_pagerank_seeds(
                g, attrs, parts, b),
        }
        for r in results:
            if r.algorithm in standalone:
                s = standalone[r.algorithm](r.budget)
                assert (r.seed_size, r.seed_cost) == (len(s), s.total_cost)

    def test_repeat_identical(self):
        cfg = small_config()
        a = run_experiment(cfg, pool=small_pool())
        b = run_experiment(cfg, pool=small_pool())
        for ra, rb in zip(a, b):
            assert ra.profit_mean == rb.profit_mean
            assert ra.seed_size == rb.seed_size

    def test_streams_keyed_on_exact_budget(self, monkeypatch):
        # 3.2 and 3.7 share int(budget) but must not share random streams
        states = {}

        def recorded(g, attrs, budget, rng):
            states[budget] = rng.bit_generator.state["state"]["state"]
            return random_seeds(g, attrs, budget, rng)

        random_seeds = baselines.random_seeds
        monkeypatch.setattr(baselines, "random_seeds", recorded)
        cfg = small_config(algorithms=("random", "highdegree"),
                           budgets=(3.2, 3.7))
        rows = {(r.algorithm, r.budget): r
                for r in run_experiment(cfg, pool=small_pool())}
        assert states[3.2] != states[3.7]
        # one seed set at both budgets, scored on different eval streams
        a, b = rows["highdegree", 3.2], rows["highdegree", 3.7]
        assert (a.seed_size, a.seed_cost) == (b.seed_size, b.seed_cost)
        assert a.profit_mean != b.profit_mean

    def test_rows_match_evaluation_on_a_fresh_draw(self, monkeypatch):
        # the draw shared by a budget's algorithms gives each seed set the
        # report that its own, freshly drawn stream gives
        chosen = {}

        def recorded(algorithm, instance, budget, *args):
            s = select(algorithm, instance, budget, *args)
            chosen[algorithm, float(budget), instance.id] = s
            return s

        select = experiment._select
        monkeypatch.setattr(experiment, "_select", recorded)
        cfg = small_config(algorithms=ALGORITHMS)
        pool = small_pool()
        inst = pool.test[0]
        rows = run_experiment(cfg, pool=pool, policy=train(cfg.train, pool))
        assert len(rows) == len(chosen) == 2 * len(ALGORITHMS)
        for r in rows:
            fresh = live_arcs(inst.graph, cfg.m,
                              derive_seed(cfg.seed, "eval", inst.id,
                                          repr(r.budget)))
            s = chosen[r.algorithm, r.budget, r.instance]
            report, profits, _ = evaluate_seed_set(
                inst.graph, inst.attrs, inst.parts, s, fresh, cfg.fairness)
            assert (r.profit_mean, r.profit_std, r.fairness_mean,
                    r.min_community_ratio, r.tau_ok) \
                == (report.profit, float(profits.std()), report.fairness,
                    min(report.community_ratios), report.tau_ok)
            assert r.min_community_ratio >= r.fairness_mean - 1e-12
            assert (r.seed_size, r.seed_cost) == (len(s), s.total_cost)

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(budgets=(5.0, 1.0))
        with pytest.raises(ValueError):
            small_config(algorithms=("nope",))
        with pytest.raises(ValueError):
            small_config(m=0)
        with pytest.raises(ValueError):
            small_config(budgets=(float("nan"),))
        with pytest.raises(ValueError, match="seed"):
            small_config(seed=-1)

    @pytest.mark.parametrize("kw", [
        dict(budgets=(500.0, 500.0)), dict(budgets=(3.0, 6.0, 6.0)),
        dict(budgets=()), dict(algorithms=("random", "random")),
        dict(algorithms=("parity", "highdegree", "parity")),
    ])
    def test_repeated_or_empty_grid_rejected(self, kw):
        # a repeated budget or algorithm would write each of its rows twice
        with pytest.raises(ValueError):
            small_config(**kw)


def two_test_pool():
    pool = small_pool()
    b = pool.test[0]
    c = make_instance("test-01", 6, [(0, 2, 0.5), (2, 4, 0.5), (4, 0, 0.5),
                                     (1, 3, 0.5), (3, 5, 0.5)],
                      cost=[2, 1, 1, 2, 3, 1], benefit=[1, 2, 3, 4, 5, 6],
                      labels=[0, 0, 0, 1, 1, 1])
    return InstancePool(train=pool.train, test=(b, c), seed=0)


class TestInlineDraws:
    """Each evaluation draw is made on the calling thread just before its
    (instance, budget) is selected and evaluated."""

    def test_each_stream_drawn_once_and_alone(self, monkeypatch):
        cfg = small_config(budgets=(2.0, 4.0, 6.0))
        pool = two_test_pool()
        calls, alive = [], []

        def recorded(g, m, seed):
            # the previous pair's draw was freed before this one is made
            assert all(ref() is None for ref in alive)
            calls.append((g, m, seed))
            live = live_arcs(g, m, seed)
            alive.append(weakref.ref(live))
            return live

        monkeypatch.setattr(experiment, "live_arcs", recorded)
        run_experiment(cfg, pool=pool)
        assert calls == [(inst.graph, cfg.m, eval_seed(cfg, inst, b))
                         for inst in pool.test for b in cfg.budgets]
        assert [ref() for ref in alive] == [None] * len(calls)

    def test_starts_no_thread(self, monkeypatch):
        before = threading.active_count()
        during = []

        def counted(g, m, seed):
            during.append(threading.active_count())
            return live_arcs(g, m, seed)

        monkeypatch.setattr(experiment, "live_arcs", counted)
        run_experiment(small_config(), pool=two_test_pool())
        assert during and set(during) == {before}

    def test_error_in_a_draw_propagates(self, monkeypatch):
        draws = []

        def failing(g, m, seed):
            draws.append(seed)
            if len(draws) == 2:
                raise RuntimeError("draw failed")
            return live_arcs(g, m, seed)

        monkeypatch.setattr(experiment, "live_arcs", failing)
        with pytest.raises(RuntimeError, match="^draw failed$"):
            run_experiment(small_config(), pool=two_test_pool())
        assert len(draws) == 2  # no draw is made after the failed one


class TestEmitReport:
    def test_files_and_columns(self, tmp_path):
        cfg = small_config()
        results = run_experiment(cfg, pool=small_pool())
        paths = emit_report(results, str(tmp_path), meta={"seed": cfg.seed})
        header = read_lines(paths["results"])[0].strip()
        assert header == ("algorithm,budget,instance,profit_mean,profit_std,"
                          "fairness_mean,min_community_ratio,tau_ok,"
                          "seed_size,seed_cost")
        assert read_lines(paths["timings"])[0].strip() \
            == "algorithm,budget,instance,seconds"
        assert os.path.exists(paths["summary"])
        assert os.path.exists(paths["meta"])

    def test_summary_reports_both_fairness_quantities(self, tmp_path):
        results = run_experiment(small_config(), pool=small_pool())
        paths = emit_report(results, str(tmp_path))
        with open(paths["summary"]) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0])[4:6] == ["fairness_mean", "min_community_ratio"]
        for row in rows:
            group = [r for r in results if r.algorithm == row["algorithm"]
                     and r.budget == float(row["budget"])]
            assert float(row["min_community_ratio"]) == \
                float(np.mean([r.min_community_ratio for r in group]))
            assert float(row["min_community_ratio"]) >= \
                float(row["fairness_mean"]) - 1e-12

    def test_zero_results_header_only(self, tmp_path):
        paths = emit_report([], str(tmp_path))
        lines = read_lines(paths["results"])
        assert len(lines) == 1

    def test_rerun_byte_identical(self, tmp_path):
        cfg = small_config()
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        emit_report(run_experiment(cfg, pool=small_pool()), out1)
        emit_report(run_experiment(cfg, pool=small_pool()), out2)
        assert Path(out1, "results.csv").read_bytes() \
            == Path(out2, "results.csv").read_bytes()


class TestBuildPool:
    def test_from_edge_list(self, tmp_path):
        path = tmp_path / "g.txt"
        lines = [f"{i} {j}" for i in range(30) for j in (i + 1, i + 7) if j < 30]
        path.write_text("\n".join(lines) + "\n")
        cfg = small_config(dataset=str(path), nodes_per_instance=15,
                           prob_model=UniformProbabilities(0.2))
        pool = build_pool(cfg)
        assert len(pool.train) == 1 and len(pool.test) == 1
        inst = pool.train[0]
        assert inst.graph.n == 15
        assert np.all(inst.graph.probs == 0.2)
