"""Acceptance suite: one test per release criterion.

Each test prints a single `criterion N: PASS/FAIL` line (visible with -s or
on failure) and the pytest -v status line doubles as the per-criterion
verdict. Criteria with runtime budgets assert on wall-clock time too.
"""

import itertools
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from fairseed.baselines import high_degree_seeds, pagerank, parity_seeds
from fairseed.cli import EXIT_OK, main
from fairseed.diffusion import (SeedSet, estimate_spread_and_benefit,
                                exact_expected_profit,
                                exact_expected_shaped_objective, simulate_ic)
from fairseed.embedding import init_embedding_params
from fairseed.experiment import ExperimentConfig, run_experiment
from fairseed.graph import (InstancePool, UniformProbabilities,
                            graph_from_edges)
from fairseed.metrics import community_ratios
from fairseed.qnet import QNetwork, hidden_table, q_loss_and_grad
from fairseed.seeding import derive_seed
from fairseed.trainer import (TrainConfig, TrainedPolicy, run_episode,
                              select_seed_set, train)

from conftest import (make_attrs, make_instance, outside_replay,
                      random_tiny_instance, replay_record)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_oracle_equivalence():
    # 50 random tiny graphs: MC profit at m=50k within 4 SE of the
    # enumeration oracle in at least 48 cases, under a minute.
    t0 = time.time()
    rng = np.random.default_rng(101)
    m = 50_000
    hits = 0
    for case in range(50):
        inst = random_tiny_instance(rng)
        k = int(rng.integers(1, inst.graph.n + 1))
        nodes = rng.choice(inst.graph.n, size=k, replace=False)
        s = SeedSet.build(list(nodes), inst.attrs)
        exact = exact_expected_profit(inst.graph, inst.attrs, s)
        _, mean_benefit, benefits = estimate_spread_and_benefit(
            inst.graph, inst.attrs, s, m, derive_seed(101, case))
        mc = mean_benefit - s.total_cost
        se = float(benefits.std(ddof=1)) / np.sqrt(m)
        # deterministic cascades have se at float-roundoff scale; keep a
        # roundoff floor so the 4 SE band never dips below representability
        tol = max(4.0 * se, 1e-9 * max(1.0, abs(exact)))
        hits += abs(mc - exact) <= tol
    elapsed = time.time() - t0
    _verdict(1, hits >= 48 and elapsed < 60.0,
             f"{hits}/50 within 4 SE, {elapsed:.1f}s")


def test_criterion_2_gradient_correctness():
    # central finite differences on every parameter coordinate across 100
    # random (net, batch) pairs; relative error <= 1e-4 wherever the
    # analytic gradient is above the dead-zone threshold.
    t0 = time.time()
    rng = np.random.default_rng(202)
    eps = 1e-5
    worst = 0.0
    checked = 0
    for pair in range(100):
        in_dim = int(rng.integers(3, 9))
        hidden = int(rng.integers(4, 11))
        net = QNetwork.init(in_dim, int(rng.integers(1 << 30)), hidden=hidden)
        k = int(rng.integers(1, 5))
        states = rng.normal(size=(k, in_dim))
        targets = rng.normal(size=k)
        _, grads = q_loss_and_grad(net, states, targets)
        for name in net.PARAM_NAMES:
            param = getattr(net, name)
            analytic = grads[name]
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = param[idx]
                param[idx] = orig + eps
                lp, _ = q_loss_and_grad(net, states, targets)
                param[idx] = orig - eps
                lm, _ = q_loss_and_grad(net, states, targets)
                param[idx] = orig
                a = analytic[idx]
                if abs(a) > 1e-8:
                    rel = abs((lp - lm) / (2.0 * eps) - a) / abs(a)
                    worst = max(worst, rel)
                    checked += 1
    elapsed = time.time() - t0
    _verdict(2, worst <= 1e-4 and elapsed < 60.0,
             f"worst rel err {worst:.2e} over {checked} coords, {elapsed:.1f}s")


def _policy_toy_instance():
    # two 5-node stars, one per community; uniform costs and benefits so
    # only the pair of hubs reaches the optimum
    edges = [(0, i, 0.5) for i in range(1, 5)] + \
            [(5, i, 0.5) for i in range(6, 10)]
    return make_instance("policy-toy", 10, edges, directed=False,
                         cost=[5.0] * 10, benefit=[10.0] * 10,
                         labels=[0] * 5 + [1] * 5)


def test_criterion_3_toy_policy_optimality():
    # budget admits at most 2 of the 10 equal-cost nodes; the greedy policy
    # after 500 episodes must land within 5% of the exhaustive optimum of
    # the exact shaped objective on >= 4 of 5 master seeds.
    t0 = time.time()
    inst = _policy_toy_instance()
    budget, phi = 10.0, 1.0
    best = 0.0  # empty set scores zero
    for r in (1, 2):
        for combo in itertools.combinations(range(inst.graph.n), r):
            s = SeedSet.build(list(combo), inst.attrs)
            if s.total_cost > budget:
                continue
            best = max(best, exact_expected_shaped_objective(
                inst.graph, inst.attrs, inst.parts, s, phi))
    wins = 0
    outcomes = []
    for master_seed in range(5):
        cfg = TrainConfig(budget=budget, episodes=500, fairness_weight=phi,
                          seed=master_seed)
        pool = InstancePool(train=(inst,), test=(inst,), seed=master_seed)
        policy = train(cfg, pool)
        s = select_seed_set(policy, inst, budget)
        value = exact_expected_shaped_objective(inst.graph, inst.attrs,
                                                inst.parts, s, phi)
        outcomes.append(value / best)
        wins += value >= 0.95 * best
    elapsed = time.time() - t0
    ratios = ", ".join(f"{r:.3f}" for r in outcomes)
    _verdict(3, wins >= 4 and elapsed < 300.0,
             f"{wins}/5 seeds within 5% (ratios {ratios}), {elapsed:.1f}s")


def test_criterion_4_budget_safety():
    # 1000 fuzzed (instance, budget, algorithm) triples never overspend,
    # and training episodes never log a negative remaining budget.
    from fairseed import baselines

    rng = np.random.default_rng(404)
    instances = [random_tiny_instance(rng, max_nodes=12, max_arcs=30)
                 for _ in range(25)]
    d_emb, t_emb = 8, 2
    policy = TrainedPolicy(
        net=QNetwork.init(d_emb + 3, 17, hidden=16),
        embed=init_embedding_params(d_emb, 18), t_emb=t_emb)
    algos = ("rl", "random", "highdegree", "pagerank", "parity",
             "fairpagerank")
    episodes_checked = 0
    for trial in range(1000):
        inst = instances[int(rng.integers(len(instances)))]
        budget = float(rng.uniform(0.5, 30.0))
        algo = algos[int(rng.integers(len(algos)))]
        g, attrs, parts = inst.graph, inst.attrs, inst.parts
        if algo == "rl":
            s = select_seed_set(policy, inst, budget)
            cfg = TrainConfig(budget=budget, d_emb=d_emb, t_emb=t_emb)
            table = hidden_table(policy.net, policy.embeddings_for(inst),
                                 attrs.cost, budget)
            ts = run_episode(table, inst, cfg, float(rng.random()), rng)
            assert all(t.budget_after >= 0.0 for t in ts)
            episodes_checked += 1
        elif algo == "random":
            s = baselines.random_seeds(g, attrs, budget, rng)
        elif algo == "highdegree":
            s = baselines.high_degree_seeds(g, attrs, budget)
        elif algo == "pagerank":
            s = baselines.pagerank_seeds(g, attrs, budget)
        elif algo == "parity":
            s = baselines.parity_seeds(g, attrs, parts, budget)
        else:
            s = baselines.fair_pagerank_seeds(g, attrs, parts, budget)
        assert s.total_cost <= budget, (algo, budget, s)
    _verdict(4, True,
             f"1000 triples clean, {episodes_checked} episodes budget-safe")


def test_criterion_5_fairness_metric_correctness():
    # 20 constructed partitions with hand-specified influenced sets checked
    # against a direct pure-python evaluation; integer benefits keep both
    # sides exactly representable
    rng = np.random.default_rng(505)
    for case in range(20):
        n = int(rng.integers(3, 13))
        k = int(rng.integers(2, min(n, 4) + 1))
        labels = np.concatenate([np.arange(k),
                                 rng.integers(0, k, size=n - k)])
        rng.shuffle(labels)
        benefit = rng.integers(1, 11, size=n).astype(float)
        attrs = make_attrs(n, benefit=benefit, labels=labels)
        from fairseed.graph import CommunityPartition
        parts = CommunityPartition.from_labels(attrs.community, attrs.benefit)
        mask = rng.random(n) < 0.5
        ratios = community_ratios(mask, parts)
        assert ratios.shape == (k,)
        expected_ratios = []
        for c in range(k):
            total = sum(benefit[v] for v in range(n) if labels[v] == c)
            realized = sum(benefit[v] for v in range(n)
                           if labels[v] == c and mask[v])
            expected_ratios.append(realized / total)
            assert ratios[c] == expected_ratios[-1]
        assert ratios.min() == min(expected_ratios)

    # f = 0 when any community has zero influenced benefit
    attrs = make_attrs(4, benefit=[1, 2, 3, 4], labels=[0, 0, 1, 1])
    from fairseed.graph import CommunityPartition
    parts = CommunityPartition.from_labels(attrs.community, attrs.benefit)
    none_in_c1 = np.array([True, True, False, False])
    assert community_ratios(none_in_c1, parts).min() == 0.0
    # f = 1 when every node is influenced
    everyone = np.ones(4, dtype=bool)
    assert community_ratios(everyone, parts).min() == 1.0
    _verdict(5, True, "20 partitions exact, f=0 and f=1 edge cases hold")


def test_criterion_6_training_loop_mechanics(monkeypatch):
    # epsilon trajectory and update cadence over a full 720-episode run
    inst = make_instance(
        "mech", 6,
        [(0, 1, 0.4), (1, 2, 0.4), (2, 3, 0.4), (3, 4, 0.4), (4, 5, 0.4),
         (0, 5, 0.4)],
        cost=[2, 3, 1, 4, 2, 3], benefit=[5, 4, 3, 2, 1, 6],
        labels=[0, 0, 1, 1, 1, 1])
    cfg = TrainConfig(budget=6.0, episodes=720, d_emb=8, t_emb=2, seed=6)
    events = []
    train(cfg, InstancePool(train=(inst,), test=(), seed=0),
          progress=events.append)
    assert len(events) == 720
    steps = 0
    for ev in events:
        e = ev["episode"]
        assert ev["epsilon"] == max(
            cfg.epsilon_start * cfg.epsilon_decay ** e, cfg.epsilon_min)
        if e % cfg.update_period != 0 or ev["buffer_size"] < cfg.batch_size:
            assert ev["loss"] is None
        else:
            assert ev["loss"] is not None
            steps += 1
    assert steps > 0

    # FIFO replay: with a capacity of 64, every transition sampled is one
    # of the last 64 run, over a run that fills the buffer many times
    cap = 64
    run, batches = replay_record(monkeypatch)
    train(replace(cfg, episodes=200, replay_capacity=cap),
          InstancePool(train=(inst,), test=(), seed=0))
    wrapped = sum(n > 2 * cap for _, n in batches)
    assert len(run) > 5 * cap and wrapped > 50
    assert outside_replay(run, batches, cap) == 0
    _verdict(6, True,
             f"FIFO at capacity {cap} over {len(run)} transitions verified, "
             f"720-step epsilon exact, {steps} updates")


def test_criterion_7_baseline_exactness():
    # PageRank on a 3-cycle is uniform
    cycle = graph_from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)],
                             directed=True)
    pr = pagerank(cycle)
    assert np.all(np.abs(pr - 1.0 / 3.0) <= 1e-9)

    # Parity on an equal-cost 20:80 ring with room for 10 seeds picks 2/8
    labels = [0] * 4 + [1] * 16
    ring = make_instance("ring", 20,
                         [(i, (i + 1) % 20, 0.5) for i in range(20)],
                         labels=labels)
    s = parity_seeds(ring.graph, ring.attrs, ring.parts, budget=10.0)
    chosen = ring.attrs.community[list(s.nodes)]
    assert len(s) == 10
    assert (chosen == 0).sum() == 2 and (chosen == 1).sum() == 8

    # High Degree on a star takes the center first
    star = graph_from_edges(5, [(0, i, 0.5) for i in range(1, 5)],
                            directed=False)
    attrs = make_attrs(5)
    assert high_degree_seeds(star, attrs, budget=1.0).nodes == (0,)
    _verdict(7, True, "pagerank 1/3 exact, parity 2/8, star center first")


def test_criterion_8_determinism(tmp_path):
    # full train + eval twice with one master seed: results.csv must be
    # byte-identical
    dataset = tmp_path / "graph.txt"
    lines = [f"{i} {j}" for i in range(40) for j in (i + 1, i + 9) if j < 40]
    dataset.write_text("\n".join(lines) + "\n")
    shared = ["--dataset", str(dataset), "--seed", "9", "--episodes", "30",
              "--batch-size", "8", "--d-emb", "16", "--t-emb", "2",
              "--n-train", "2", "--n-test", "2",
              "--nodes-per-instance", "20", "--budget", "8"]
    blobs = []
    for run in ("a", "b"):
        ckpt = str(tmp_path / f"{run}.npz")
        assert main(["train", *shared, "--checkpoint-out", ckpt]) == EXIT_OK
        out = str(tmp_path / f"out-{run}")
        assert main(["eval", *shared, "--checkpoint-in", ckpt,
                     "--budgets", "5,9", "--m", "200",
                     "--algorithms",
                     "rl,random,highdegree,pagerank,parity,fairpagerank",
                     "--out", out]) == EXIT_OK
        with open(os.path.join(out, "results.csv"), "rb") as fh:
            blobs.append(fh.read())
    _verdict(8, blobs[0] == blobs[1],
             f"results.csv identical across runs ({len(blobs[0])} bytes)")


def test_criterion_9_scale_smoke():
    # end-to-end: sample 500-node instances from a 2000-node synthetic
    # source, train the full 720 episodes, evaluate all algorithms at
    # m=1000 over six budgets, all inside 30 minutes
    nx = pytest.importorskip("networkx")
    t0 = time.time()
    src = nx.barabasi_albert_graph(2000, 3, seed=99)
    source = graph_from_edges(2000, [(u, v, 0.1) for u, v in src.edges()],
                              directed=False)
    cfg = ExperimentConfig(
        dataset="synthetic-ba", directed=False,
        prob_model=UniformProbabilities(0.1),
        budgets=(500.0, 1000.0, 1500.0, 2000.0, 2500.0, 3000.0),
        m=1000,
        train=TrainConfig(budget=1000.0, episodes=720, seed=0),
        n_train=2, n_test=1, nodes_per_instance=500, seed=0)
    from fairseed.experiment import build_pool
    pool = build_pool(cfg, source=source)
    assert all(inst.graph.n == 500 for inst in pool.train + pool.test)
    results = run_experiment(cfg, pool=pool)
    elapsed = time.time() - t0
    assert len(results) == 6 * 6  # budgets x algorithms, one test instance
    assert all(r.seed_cost <= r.budget for r in results)
    _verdict(9, elapsed < 1800.0, f"train+eval finished in {elapsed:.0f}s")
