"""Tests of the benchmark itself, at reduced input sizes.

Run with `python3 -m pytest benchmarks/tests -q` from the repository root.
Each workload runs end to end, traced and untraced, and each output check
is shown to reject a deliberately wrong output.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import clock  # noqa: E402
import fairseed.trainer  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL = workloads.Sizes(
    source_nodes=150, nodes_per_instance=40, eval_test=2, episodes=12,
    train_budget=150.0, budgets=(100.0, 200.0), m=200, reference_rollouts=400,
    tiny_cases=6, tiny_rollouts=4000)


def small(name: str, seed: int = 3):
    wl = workloads.WORKLOADS[name](seed, SMALL)
    wl.setup()
    with spans.Tracer(timing=False, observers=wl.observers()):
        _, out = wl.round()
    return wl, out


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [layer[:3] for layer in layers.LAYERS]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_end_to_end(name, trace):
    record = run.run_workload(name, 5, 0.0, trace, sizes=SMALL)
    result = record["result"]
    assert record["failures"] == []
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == sum(r["operations"] for r in record["rounds"])
    assert len(record["rounds"]) >= run.MIN_ROUNDS
    want = [layer[0] for layer in layers.LAYERS] if trace \
        else [m[0] for m in run.END_TO_END]
    assert list(result["metrics"]) == want
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tracer_puts_every_function_back():
    before = {(mod, attr): obj for mod in spans.TRACED_MODULES
              for attr, obj in vars(sys.modules[f"fairseed.{mod}"]).items()}
    at = fairseed.seeding.RolloutStreams.at
    with spans.Tracer():
        assert fairseed.trainer.train is not before[("trainer", "train")]
    after = {(mod, attr): obj for mod in spans.TRACED_MODULES
             for attr, obj in vars(sys.modules[f"fairseed.{mod}"]).items()}
    assert after == before
    assert fairseed.seeding.RolloutStreams.at is at


def test_traced_counts_match_the_configuration():
    record = run.run_workload("eval-ba500", 4, 0.0, True, sizes=SMALL)
    metrics = record["result"]["metrics"]
    sets = 6 * len(SMALL.budgets) * SMALL.eval_test
    assert metrics["diffusion.rollout_masks_rollouts"]["value"] == sets * SMALL.m
    assert metrics["metrics.evaluate_seed_set_calls"]["value"] == sets


def test_clock_leaves_its_kernel_out_and_scales_each_segment():
    timer = clock.Clock(gap=0.0)
    begin = time.perf_counter()
    for _ in range(3):
        sum(i * i for i in range(20_000))
        timer.tick()
    wall, scaled = timer.stop()
    total = time.perf_counter() - begin
    assert len(timer.kernels) == 4
    assert 0.0 < wall <= total - sum(timer.kernels)
    # each segment is scaled by REFERENCE_S over the kernel after it
    ratios = [clock.REFERENCE_S / k for k in timer.kernels]
    lo, hi = min(ratios) * wall, max(ratios) * wall
    assert lo * (1 - 1e-9) <= scaled <= hi * (1 + 1e-9)


def test_reference_simulator_on_a_certain_cascade():
    # a path 0 -> 1 -> 2 with p = 1 reaches every node in every rollout
    profit, fair = reference.simulate(
        3, [0, 1], [1, 2], [1.0, 1.0], [1.0, 2.0, 4.0], np.array([0, 0, 1]),
        [0.5, 1.0, 1.0], [0], 10, np.random.default_rng(0))
    assert np.allclose(profit, 6.5) and np.allclose(fair, 1.0)


def test_perturbed_profit_is_rejected():
    wl, (rows, evaluations) = small("eval-ba500")
    assert wl.check((rows, evaluations)) == []
    g, s, rep = next(e for e in evaluations
                     if e[0] is wl.pool.test[0].graph and len(e[1]) > 1)
    wrong = dataclasses.replace(rep, profit=2.0 * rep.profit + 100.0)
    evaluations = [(gg, ss, wrong if rr is rep else rr)
                   for gg, ss, rr in evaluations]
    rows = [dataclasses.replace(r, profit_mean=wrong.profit)
            if (r.profit_mean, r.fairness_mean) == (rep.profit, rep.fairness)
            else r for r in rows]
    bad = wl.check((rows, evaluations))
    assert any("profit" in b and "reference" in b for b in bad)


def test_over_budget_seed_set_is_rejected():
    wl, (rows, evaluations) = small("eval-ba500")
    rows = list(rows)
    rows[0] = dataclasses.replace(rows[0], seed_cost=rows[0].budget + 1.0)
    assert any("over budget" in b for b in wl.check((rows, evaluations)))


def test_overspent_transition_is_rejected():
    wl, (policy, episodes) = small("train-ba500")
    assert wl.check((policy, episodes)) == []
    inst, transitions = next((i, ts) for i, ts in episodes if ts)
    t = transitions[0]
    transitions[0] = dataclasses.replace(t, budget_after=-1.0)
    assert any("budget_after" in b for b in wl.check((policy, episodes)))


def test_oracle_mismatch_is_rejected():
    wl, out = small("mc-tiny")
    assert wl.check(out) == []
    exact, mc, se = out[0]
    out[0] = (exact + 1e-6, mc, se)
    assert any("exact_expected_profit" in b for b in wl.check(out))


def test_estimates_far_from_the_oracle_are_rejected():
    wl, out = small("mc-tiny")
    out = [(exact, exact + 1.0, 1e-3) for exact, _, _ in out]
    assert any("within 4 SE" in b for b in wl.check(out))


def test_changed_digest_is_rejected(monkeypatch):
    real = fairseed.trainer.train
    calls = []

    def drifting(*args, **kwargs):
        policy = real(*args, **kwargs)
        calls.append(1)
        if len(calls) > 1:
            policy.net.b2[0] = np.nextafter(policy.net.b2[0], np.inf)
        return policy

    monkeypatch.setattr(fairseed.trainer, "train", drifting)
    record = run.run_workload("train-ba500", 5, 0.0, False, sizes=SMALL)
    assert record["result"]["correct"] is False
    assert "round 2 output differs from round 1" in record["failures"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "mc-tiny",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
