"""Command-line front end.

Subcommands:
  train   build an instance pool, train a policy, save a checkpoint
  eval    run selectors across the budget grid and write CSV reports
  oracle  exact expected profit on a tiny graph (live-arc enumeration)
  sample  materialize an instance pool to disk

Flags may also come from a flat key=value config file (--config); explicit
flags win. Exit codes: 0 ok, 1 usage error, 2 data error, 3 checkpoint
mismatch.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .diffusion import SeedSet, exact_expected_profit
from .graph import (AttributeFileError, EdgeListError, TrivalencyProbabilities,
                    UniformProbabilities, assign_edge_probabilities,
                    load_edge_list, load_node_attributes)
from .experiment import (ALGORITHMS, ExperimentConfig, build_pool, emit_report,
                         run_experiment)
from .metrics import FairnessConfig
from .trainer import (CheckpointError, TrainConfig, load_checkpoint,
                      save_checkpoint, train)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECKPOINT = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected lo,hi range, got {text!r}")
    return float(parts[0]), float(parts[1])


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(","))


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--dataset", help="edge-list file (SNAP format)")
    p.add_argument("--directed", action=argparse.BooleanOptionalAction,
                   default=False)
    p.add_argument("--prob-model", choices=["uniform", "trivalency"],
                   default="uniform")
    p.add_argument("--p", type=float, default=0.1,
                   help="edge probability for the uniform model")
    p.add_argument("--n-train", type=int, default=12)
    p.add_argument("--n-test", type=int, default=8)
    p.add_argument("--nodes-per-instance", type=int, default=500)
    p.add_argument("--cost-range", type=_parse_range, default=(1.0, 100.0))
    p.add_argument("--benefit-range", type=_parse_range, default=(1.0, 100.0))
    p.add_argument("--minority-fraction", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=float, default=1000.0)
    p.add_argument("--episodes", type=int, default=720)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--gamma", type=float, default=0.95)
    p.add_argument("--eps-start", type=float, default=1.0)
    p.add_argument("--eps-min", type=float, default=0.05)
    p.add_argument("--eps-decay", type=float, default=0.995)
    p.add_argument("--replay-capacity", type=int, default=10_000)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--update-period", type=int, default=2)
    p.add_argument("--phi", type=float, default=1.0,
                   help="fairness reward-shaping weight")
    p.add_argument("--d-emb", type=int, default=64)
    p.add_argument("--t-emb", type=int, default=3)


def build_parser() -> _Parser:
    parser = _Parser(prog="fairseed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a seed-selection policy")
    _add_data_flags(p_train)
    _add_train_flags(p_train)
    p_train.add_argument("--checkpoint-out", required=True)
    p_train.add_argument("--log", help="per-episode progress CSV path")

    p_eval = sub.add_parser("eval", help="run the experiment grid")
    _add_data_flags(p_eval)
    _add_train_flags(p_eval)
    p_eval.add_argument("--checkpoint-in",
                        help="trained policy; omitting it trains first when "
                             "'rl' is among the algorithms")
    p_eval.add_argument("--budgets", type=_parse_floats,
                        default=(500, 1000, 1500, 2000, 2500, 3000))
    p_eval.add_argument("--m", type=int, default=1000)
    p_eval.add_argument("--algorithms", default=",".join(ALGORITHMS))
    p_eval.add_argument("--tau", type=float, default=0.0)
    p_eval.add_argument("--out", default="results")

    p_oracle = sub.add_parser("oracle",
                              help="exact expected profit on a tiny graph")
    p_oracle.add_argument("--config", help="flat key=value config file")
    p_oracle.add_argument("--dataset", required=True)
    p_oracle.add_argument("--directed", action=argparse.BooleanOptionalAction,
                          default=False)
    p_oracle.add_argument("--p", type=float, default=0.1)
    p_oracle.add_argument("--attrs",
                          help="node attribute CSV; defaults to unit cost/benefit")
    p_oracle.add_argument("--seeds", type=_parse_ints, required=True,
                          help="comma-separated seed node ids (original ids)")

    p_sample = sub.add_parser("sample", help="write an instance pool to disk")
    _add_data_flags(p_sample)
    _add_train_flags(p_sample)
    p_sample.add_argument("--out", default="pool")
    return parser


def _load_config_tokens(argv: list[str]) -> list[str]:
    """Expand --config FILE into flag tokens placed before the explicit ones."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise UsageError("--config requires a file path")
    path = argv[i + 1]
    tokens = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value")
                key, value = (s.strip() for s in line.split("=", 1))
                flag = "--" + key.replace("_", "-")
                if value.lower() in ("true", "false"):
                    tokens.append(flag if value.lower() == "true"
                                  else "--no-" + flag[2:])
                else:
                    tokens.extend([flag, value])
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    # keep the subcommand first, then config tokens, then explicit flags
    return argv[:1] + tokens + argv[1:i] + argv[i + 2:]


def _prob_model(args):
    if args.prob_model == "trivalency":
        return TrivalencyProbabilities()
    return UniformProbabilities(args.p)


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        budget=args.budget, episodes=args.episodes, learning_rate=args.lr,
        discount=args.gamma, epsilon_start=args.eps_start,
        epsilon_min=args.eps_min, epsilon_decay=args.eps_decay,
        replay_capacity=args.replay_capacity, batch_size=args.batch_size,
        update_period=args.update_period, fairness_weight=args.phi,
        d_emb=args.d_emb, t_emb=args.t_emb, seed=args.seed)


def _experiment_config(args, algorithms=None, budgets=None, m=1,
                       tau=0.0, out_dir="results") -> ExperimentConfig:
    if not args.dataset:
        raise UsageError("--dataset is required")
    return ExperimentConfig(
        dataset=args.dataset, directed=args.directed,
        prob_model=_prob_model(args),
        budgets=budgets or (args.budget,), m=m,
        algorithms=algorithms or ALGORITHMS,
        train=_train_config(args),
        n_train=args.n_train, n_test=args.n_test,
        nodes_per_instance=args.nodes_per_instance,
        cost_range=args.cost_range, benefit_range=args.benefit_range,
        minority_fraction=args.minority_fraction,
        fairness=FairnessConfig(threshold=tau),
        out_dir=out_dir, seed=args.seed)


def _cmd_train(args) -> int:
    cfg = _experiment_config(args)
    pool = build_pool(cfg)
    progress_rows = []
    policy = train(cfg.train, pool,
                   progress=progress_rows.append if args.log else None)
    if args.log:
        with open(args.log, "w", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["episode", "epsilon", "buffer_size", "loss",
                                "shaped_return"])
            writer.writeheader()
            writer.writerows(progress_rows)
    save_checkpoint(args.checkpoint_out, policy, cfg.train)
    print(f"checkpoint written to {args.checkpoint_out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    algorithms = tuple(a for a in args.algorithms.split(",") if a)
    cfg = _experiment_config(args, algorithms=algorithms,
                             budgets=tuple(args.budgets), m=args.m,
                             tau=args.tau, out_dir=args.out)
    policy = None
    if args.checkpoint_in:
        policy, _ = load_checkpoint(args.checkpoint_in, expect_d_emb=args.d_emb)
    pool = build_pool(cfg)
    results = run_experiment(cfg, pool=pool, policy=policy)
    meta = {
        "config": vars(args), "seed": cfg.seed,
        "algorithms": algorithms, "budgets": cfg.budgets, "m": cfg.m,
    }
    paths = emit_report(results, cfg.out_dir, meta=meta)
    print(f"wrote {paths['results']}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    g = load_edge_list(args.dataset, args.directed)
    g = assign_edge_probabilities(g, UniformProbabilities(args.p), seed=0)
    if args.attrs:
        attrs, _ = load_node_attributes(args.attrs, g)
    else:
        from .graph import NodeAttrs
        attrs = NodeAttrs(cost=np.ones(g.n), benefit=np.ones(g.n),
                          community=np.zeros(g.n, dtype=np.int64))
    remap = {int(orig): i for i, orig in enumerate(g.original_ids)}
    try:
        seeds = SeedSet.build([remap[v] for v in args.seeds], attrs)
    except KeyError as exc:
        raise EdgeListError(f"seed node {exc} not in graph") from exc
    value = exact_expected_profit(g, attrs, seeds)
    print(f"exact expected profit: {value!r}")
    return EXIT_OK


def _cmd_sample(args) -> int:
    cfg = _experiment_config(args)
    pool = build_pool(cfg)
    os.makedirs(args.out, exist_ok=True)
    names = []
    for inst in pool.train + pool.test:
        base = os.path.join(args.out, inst.id)
        src, dst, p = inst.graph.arc_arrays()
        with open(base + ".edges", "w") as fh:
            fh.write("# u v p (arcs; undirected edges stored both ways)\n")
            for u, v, pr in zip(src, dst, p):
                fh.write(f"{u} {v} {pr!r}\n")
        with open(base + ".attrs.csv", "w") as fh:
            fh.write("node_id,cost,benefit,community\n")
            for v in range(inst.graph.n):
                fh.write(f"{v},{inst.attrs.cost[v]!r},{inst.attrs.benefit[v]!r},"
                         f"{inst.attrs.community[v]}\n")
        names.append(inst.id)
    with open(os.path.join(args.out, "pool.json"), "w") as fh:
        json.dump({"seed": pool.seed, "train": names[: len(pool.train)],
                   "test": names[len(pool.train):]}, fh, indent=2)
    print(f"wrote {len(names)} instances to {args.out}")
    return EXIT_OK


COMMANDS = {"train": _cmd_train, "eval": _cmd_eval, "oracle": _cmd_oracle,
            "sample": _cmd_sample}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _load_config_tokens(argv)
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EdgeListError, AttributeFileError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except ValueError as exc:
        # config validation failures (bad ranges, unknown algorithms, ...)
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
