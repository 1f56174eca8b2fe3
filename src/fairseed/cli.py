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
import subprocess
import sys
from dataclasses import asdict, fields, replace

import numpy as np
import scipy

from . import __version__
from .diffusion import SeedSet, exact_expected_profit
from .graph import (AttributeFileError, EdgeListError, NodeAttrs,
                    TrivalencyProbabilities, UniformProbabilities,
                    assign_edge_probabilities, load_edge_list,
                    load_node_attributes)
from .experiment import (ExperimentConfig, build_pool, derived_seeds,
                         emit_report, run_experiment)
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


# Flags that set a config field carry no default: absent ones stay out of
# the parsed namespace (argument_default=SUPPRESS), so each dataclass fills
# in its own default. A flag's dest is the field it sets.
def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--dataset", help="edge-list file (SNAP format)")
    p.add_argument("--directed", action=argparse.BooleanOptionalAction)
    p.add_argument("--prob-model", choices=["uniform", "trivalency"])
    p.add_argument("--p", type=float,
                   help="edge probability for the uniform model")
    p.add_argument("--n-train", type=int)
    p.add_argument("--n-test", type=int)
    p.add_argument("--nodes-per-instance", type=int)
    p.add_argument("--cost-range", type=_parse_range)
    p.add_argument("--benefit-range", type=_parse_range)
    p.add_argument("--minority-fraction", type=float)
    p.add_argument("--seed", type=int)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget", type=float)
    p.add_argument("--episodes", type=int)
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--gamma", dest="discount", type=float)
    p.add_argument("--eps-start", dest="epsilon_start", type=float)
    p.add_argument("--eps-min", dest="epsilon_min", type=float)
    p.add_argument("--eps-decay", dest="epsilon_decay", type=float)
    p.add_argument("--replay-capacity", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--update-period", type=int)
    p.add_argument("--phi", dest="fairness_weight", type=float,
                   help="fairness reward-shaping weight")
    p.add_argument("--d-emb", type=int)
    p.add_argument("--t-emb", type=int)


def build_parser() -> _Parser:
    parser = _Parser(prog="fairseed")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, help: str) -> _Parser:
        return sub.add_parser(name, help=help,
                              argument_default=argparse.SUPPRESS)

    p_train = add_parser("train", "train a seed-selection policy")
    _add_data_flags(p_train)
    _add_train_flags(p_train)
    p_train.add_argument("--checkpoint-out", required=True)
    p_train.add_argument("--log", help="per-episode progress CSV path")

    p_eval = add_parser("eval", "run the experiment grid")
    _add_data_flags(p_eval)
    _add_train_flags(p_eval)
    p_eval.add_argument("--checkpoint-in",
                        help="trained policy; omitting it trains first when "
                             "'rl' is among the algorithms")
    p_eval.add_argument("--budgets", type=_parse_floats)
    p_eval.add_argument("--m", type=int)
    p_eval.add_argument("--algorithms",
                        type=lambda text: tuple(filter(None, text.split(","))))
    p_eval.add_argument("--tau", dest="threshold", type=float)
    p_eval.add_argument("--out", dest="out_dir")

    p_oracle = add_parser("oracle", "exact expected profit on a tiny graph")
    p_oracle.add_argument("--config", help="flat key=value config file")
    p_oracle.add_argument("--dataset", required=True)
    p_oracle.add_argument("--directed", action=argparse.BooleanOptionalAction)
    p_oracle.add_argument("--p", type=float)
    p_oracle.add_argument("--attrs",
                          help="node attribute CSV; defaults to unit cost/benefit")
    p_oracle.add_argument("--seeds", type=_parse_ints, required=True,
                          help="comma-separated seed node ids (original ids)")

    p_sample = add_parser("sample", "write an instance pool to disk")
    _add_data_flags(p_sample)
    _add_train_flags(p_sample)
    p_sample.add_argument("--out", default="pool")
    return parser


def _load_config_tokens(argv: list[str]) -> list[str]:
    """Expand the first --config FILE or --config=FILE into flag tokens
    placed before the explicit ones; any other config flag is left for
    `main` to reject."""
    for i, token in enumerate(argv):
        flag, eq, path = token.partition("=")
        if flag == "--config":
            break
    else:
        return argv
    rest = argv[i + 1:]
    if not eq:
        if not rest:
            raise UsageError("--config requires a file path")
        path, rest = rest[0], rest[1:]
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
    return argv[:1] + tokens + argv[1:i] + rest


def _config(args) -> ExperimentConfig:
    """The run's config from the flags given; each config dataclass supplies
    its own defaults for the rest and checks the values when built."""
    given = vars(args)
    if "dataset" not in given:
        raise UsageError("--dataset is required")

    def flags_for(cls) -> dict:
        return {f.name: given[f.name] for f in fields(cls) if f.name in given}

    model = (TrivalencyProbabilities if given.get("prob_model") == "trivalency"
             else UniformProbabilities)
    return ExperimentConfig(**{
        **flags_for(ExperimentConfig),
        "prob_model": model(**flags_for(model)),
        "train": TrainConfig(**flags_for(TrainConfig)),
        "fairness": FairnessConfig(**flags_for(FairnessConfig)),
    })


def _check_writable(flag: str, path: str, directory: bool = False) -> None:
    """Raise UsageError unless the file (or directory, parents included)
    that a command writes when done can be made at `path`; creates none."""
    target, want_dir = os.path.abspath(path), directory
    while not os.path.exists(target) and (directory or not want_dir):
        target, want_dir = os.path.dirname(target), True
    if os.path.isdir(target) != want_dir or not os.access(target, os.W_OK):
        raise UsageError(f"cannot write {flag} {path}")


def _cmd_train(args) -> int:
    cfg = _config(args)
    log = getattr(args, "log", None)
    _check_writable("--checkpoint-out", args.checkpoint_out)
    if log:
        _check_writable("--log", log)
    pool = build_pool(cfg)
    progress_rows = []
    policy = train(cfg.train, pool,
                   progress=progress_rows.append if log else None)
    if log:
        with open(log, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=progress_rows[0].keys())
            writer.writeheader()
            writer.writerows(progress_rows)
    save_checkpoint(args.checkpoint_out, policy, cfg.train)
    print(f"checkpoint written to {args.checkpoint_out}")
    return EXIT_OK


def _git_commit() -> str | None:
    """HEAD of the git checkout this package's source is tracked in, or None
    when there is none (an installed copy, no git, not a work tree)."""
    here = os.path.dirname(os.path.abspath(__file__))

    def git(*cmd: str) -> str:
        return subprocess.run(["git", *cmd], cwd=here, capture_output=True,
                              text=True, timeout=30, check=True).stdout

    try:
        git("ls-files", "--error-unmatch", os.path.basename(__file__))
        return git("rev-parse", "--verify", "HEAD").strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def _cmd_eval(args) -> int:
    cfg = _config(args)
    checkpoint = getattr(args, "checkpoint_in", None)
    _check_writable("--out", cfg.out_dir, directory=True)
    policy = None
    if checkpoint:
        policy, trained = load_checkpoint(checkpoint)
        # --seed stays the experiment's; other train flags must match
        clash = [f"{k}={v!r}" for k, v in asdict(trained).items()
                 if k != "seed" and vars(args).get(k, v) != v]
        if clash:
            raise CheckpointError("flags contradict the checkpoint, trained "
                                  f"with {', '.join(clash)}")
        cfg = replace(cfg, train=trained)
    pool = build_pool(cfg)
    results = run_experiment(cfg, pool=pool, policy=policy)
    meta = {"config": asdict(cfg), "checkpoint": checkpoint,
            "seeds": derived_seeds(cfg, pool,
                                   bool(checkpoint) or "rl" in cfg.algorithms),
            "versions": {"fairseed": __version__, "numpy": np.__version__,
                         "scipy": scipy.__version__}}
    commit = _git_commit()
    if commit is not None:
        meta["git_commit"] = commit
    paths = emit_report(results, cfg.out_dir, meta=meta)
    print(f"wrote {paths['results']}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    cfg = _config(args)
    g = load_edge_list(cfg.dataset, cfg.directed)
    g = assign_edge_probabilities(g, cfg.prob_model, seed=0)
    if "attrs" in args:
        attrs, _ = load_node_attributes(args.attrs, g)
    else:
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
    cfg = _config(args)
    _check_writable("--out", args.out, directory=True)
    pool = build_pool(cfg)
    os.makedirs(args.out, exist_ok=True)
    names = []
    for inst in pool.train + pool.test:
        base = os.path.join(args.out, inst.id)
        # Python floats: their repr reads back bit for bit
        src, dst, p = (a.tolist() for a in inst.graph.arc_arrays())
        with open(base + ".edges", "w") as fh:
            fh.write("# u v p (arcs; undirected edges stored both ways); "
                     "v v (a node with no arc, read back as a node)\n")
            fh.writelines(f"{u} {v} {pr!r}\n" for u, v, pr in zip(src, dst, p))
            fh.writelines(f"{v} {v}\n" for v in
                          sorted(set(range(inst.graph.n)) - {*src, *dst}))
        cost, benefit = inst.attrs.cost.tolist(), inst.attrs.benefit.tolist()
        with open(base + ".attrs.csv", "w") as fh:
            fh.write("node_id,cost,benefit,community\n")
            fh.writelines(f"{v},{cost[v]!r},{benefit[v]!r},{label}\n"
                          for v, label in enumerate(inst.attrs.community))
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
        if "config" in vars(args):  # a second, nested or abbreviated one
            raise UsageError(f"config {args.config} is not read: give one "
                             "--config, in full, on the command line")
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
    except (ValueError, OSError) as exc:
        # bad settings (ranges, unknown algorithms, ...), unwritable outputs
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
