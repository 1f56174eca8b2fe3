import json
import os
from dataclasses import asdict

import numpy as np
import pytest
import scipy

import fairseed
from fairseed import cli
from fairseed.cli import EXIT_CHECKPOINT, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from fairseed.experiment import ExperimentConfig
from fairseed.graph import InstancePool
from fairseed.seeding import derive_seed

from conftest import read_lines


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "graph.txt"
    lines = ["# test graph"]
    lines += [f"{i} {j}" for i in range(40) for j in (i + 1, i + 9) if j < 40]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# node costs in [1, 5], so a budget of 6 always affords a node
FAST_TRAIN = ["--episodes", "6", "--batch-size", "4", "--d-emb", "8",
              "--t-emb", "2", "--n-train", "1", "--n-test", "1",
              "--nodes-per-instance", "12", "--budget", "6",
              "--cost-range", "1,5"]


def run_train(dataset, tmp_path, extra=()):
    ckpt = str(tmp_path / "policy.npz")
    code = main(["train", "--dataset", dataset, "--checkpoint-out", ckpt,
                 "--seed", "7", *FAST_TRAIN, *extra])
    return code, ckpt


class TestTrainCommand:
    def test_writes_checkpoint_and_log(self, dataset, tmp_path):
        log = str(tmp_path / "progress.csv")
        code, ckpt = run_train(dataset, tmp_path, extra=["--log", log])
        assert code == EXIT_OK
        assert os.path.exists(ckpt)
        lines = read_lines(log)
        assert lines[0].startswith("episode,")
        assert len(lines) == 7

    def test_missing_dataset_is_data_error(self, tmp_path):
        code, _ = run_train(str(tmp_path / "nope.txt"), tmp_path)
        assert code == EXIT_DATA

    def test_single_community_split_is_usage_error(self, dataset, tmp_path):
        # ceil(0.95 * 12) == 12: every node would be in the minority
        code, _ = run_train(dataset, tmp_path,
                            extra=["--minority-fraction", "0.95"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("extra", [
        ["--phi", "nan"], ["--phi", "inf"], ["--lr", "-1"], ["--lr", "nan"],
        ["--cost-range", "1,inf"], ["--benefit-range", "nan,2"],
    ])
    def test_non_finite_or_negative_setting_is_usage_error(self, dataset,
                                                           tmp_path, extra):
        code, ckpt = run_train(dataset, tmp_path, extra=extra)
        assert code == EXIT_USAGE
        assert not os.path.exists(ckpt)

    def test_no_dataset_is_usage_error(self, tmp_path):
        code = main(["train", "--checkpoint-out", str(tmp_path / "x.npz")])
        assert code == EXIT_USAGE

    def test_budget_below_every_node_is_usage_error(self, dataset, tmp_path,
                                                    capsys):
        # FAST_TRAIN costs start at 1, so no episode could select a node
        code, ckpt = run_train(dataset, tmp_path, extra=["--budget", "0.5"])
        assert code == EXIT_USAGE
        assert "cheapest node" in capsys.readouterr().err
        assert not os.path.exists(ckpt)

    def test_budget_over_cost_overflow_is_usage_error(self, dataset, tmp_path,
                                                      capsys):
        # budget / cheapest cost is inf: k_max has no integer floor
        code, ckpt = run_train(dataset, tmp_path,
                               extra=["--cost-range", "1e-300,2e-300",
                                      "--budget", "1e300"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("usage error:") and "Traceback" not in err
        assert not os.path.exists(ckpt)


class TestEvalCommand:
    def test_end_to_end(self, dataset, tmp_path):
        code, ckpt = run_train(dataset, tmp_path)
        assert code == EXIT_OK
        out = str(tmp_path / "results")
        code = main(["eval", "--dataset", dataset, "--checkpoint-in", ckpt,
                     "--seed", "7", *FAST_TRAIN,
                     "--budgets", "4,8", "--m", "20",
                     "--algorithms", "rl,random,highdegree", "--out", out])
        assert code == EXIT_OK
        lines = read_lines(os.path.join(out, "results.csv"))
        assert len(lines) == 1 + 2 * 3
        assert os.path.exists(os.path.join(out, "timings.csv"))
        assert os.path.exists(os.path.join(out, "run_meta.json"))

    def test_run_meta_records_config_and_checkpoint(self, dataset, tmp_path):
        code, ckpt = run_train(dataset, tmp_path)
        assert code == EXIT_OK
        out = tmp_path / "r"
        code = main(["eval", "--dataset", dataset, "--checkpoint-in", ckpt,
                     "--seed", "7", *FAST_TRAIN, "--budgets", "4",
                     "--m", "5", "--algorithms", "rl", "--out", str(out)])
        assert code == EXIT_OK
        meta = json.loads((out / "run_meta.json").read_text())
        assert sorted(set(meta) - {"git_commit"}) \
            == ["checkpoint", "config", "seeds", "versions"]
        assert meta["checkpoint"] == ckpt
        assert meta["versions"] == {"fairseed": fairseed.__version__,
                                    "numpy": np.__version__,
                                    "scipy": scipy.__version__}
        assert meta["config"]["train"]["d_emb"] == 8
        assert meta["config"]["algorithms"] == ["rl"]

    def test_run_meta_records_sub_seeds(self, dataset, tmp_path):
        # training's stage seeds come from the checkpoint's own config
        # (seed 7); the pool and evaluation seeds from this run's (seed 8)
        code, ckpt = run_train(dataset, tmp_path)
        assert code == EXIT_OK
        out = tmp_path / "r"
        code = main(["eval", "--dataset", dataset, "--checkpoint-in", ckpt,
                     "--seed", "8", *FAST_TRAIN, "--budgets", "4,5.5",
                     "--m", "5", "--algorithms", "rl", "--out", str(out)])
        assert code == EXIT_OK
        seeds = json.loads((out / "run_meta.json").read_text())["seeds"]
        assert seeds == {
            "pool": derive_seed(8, "pool"),
            "embed": derive_seed(7, "embed"),
            "qnet": derive_seed(7, "qnet"),
            "loop": derive_seed(7, "loop"),
            "eval": {"test-00": {"4.0": derive_seed(8, "eval", "test-00", "4.0"),
                                 "5.5": derive_seed(8, "eval", "test-00", "5.5")}},
        }

    def test_run_meta_git_commit_when_available(self, dataset, tmp_path,
                                                monkeypatch):
        def eval_into(name):
            out = tmp_path / name
            code = main(["eval", "--dataset", dataset, "--seed", "7",
                         *FAST_TRAIN, "--budgets", "4", "--m", "5",
                         "--algorithms", "random", "--out", str(out)])
            assert code == EXIT_OK
            return json.loads((out / "run_meta.json").read_text())

        commit = cli._git_commit()
        meta = eval_into("here")
        assert meta.get("git_commit") == commit
        assert commit is None or len(commit) in (40, 64)
        assert "embed" not in meta["seeds"]  # nothing was trained

        def no_git(*args, **kwargs):
            raise FileNotFoundError("git")
        monkeypatch.setattr(cli.subprocess, "run", no_git)
        assert cli._git_commit() is None
        assert "git_commit" not in eval_into("nogit")

    def test_checkpoint_mismatch(self, dataset, tmp_path):
        code, ckpt = run_train(dataset, tmp_path)
        assert code == EXIT_OK
        code = main(["eval", "--dataset", dataset, "--checkpoint-in", ckpt,
                     "--d-emb", "64", "--m", "5", "--algorithms", "rl",
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_CHECKPOINT

    def test_wrong_parameter_shape_is_checkpoint_error(self, dataset,
                                                       tmp_path):
        code, ckpt = run_train(dataset, tmp_path)
        assert code == EXIT_OK
        with np.load(ckpt) as data:
            arrays = dict(data)
        arrays["b1"] = np.zeros(3)
        np.savez(ckpt, **arrays)
        code = main(["eval", "--dataset", dataset, "--checkpoint-in", ckpt,
                     "--seed", "7", *FAST_TRAIN, "--m", "5",
                     "--algorithms", "rl", "--out", str(tmp_path / "r")])
        assert code == EXIT_CHECKPOINT

    @pytest.mark.parametrize("key", ["hidden", "in_dim", "d_emb", "t_emb"])
    def test_missing_metadata_key_is_checkpoint_error(self, dataset, tmp_path,
                                                      key):
        code, ckpt = run_train(dataset, tmp_path)
        assert code == EXIT_OK
        with np.load(ckpt) as data:
            arrays = dict(data)
        meta = json.loads(bytes(arrays["meta"]).decode())
        del meta[key]
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(ckpt, **arrays)
        code = main(["eval", "--dataset", dataset, "--checkpoint-in", ckpt,
                     "--seed", "7", *FAST_TRAIN, "--m", "5",
                     "--algorithms", "rl", "--out", str(tmp_path / "r")])
        assert code == EXIT_CHECKPOINT

    @pytest.mark.parametrize("meta", [["a list"], {"t_emb": 0},
                                      {"t_emb": "x"}, {"hidden": 1.5},
                                      {"config": ["x"]}],
                             ids=["list", "t_emb-0", "t_emb-x", "hidden-float",
                                  "config-list"])
    def test_malformed_metadata_is_checkpoint_error(self, dataset, tmp_path,
                                                    meta):
        code, ckpt = run_train(dataset, tmp_path)
        assert code == EXIT_OK
        with np.load(ckpt) as data:
            arrays = dict(data)
        if isinstance(meta, dict):
            meta = {**json.loads(bytes(arrays["meta"]).decode()), **meta}
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(ckpt, **arrays)
        out = tmp_path / "r"
        code = main(["eval", "--dataset", dataset, "--checkpoint-in", ckpt,
                     "--seed", "7", *FAST_TRAIN, "--m", "5",
                     "--algorithms", "rl", "--out", str(out)])
        assert code == EXIT_CHECKPOINT
        assert not out.exists()

    def test_nan_parameter_is_checkpoint_error(self, dataset, tmp_path):
        code, ckpt = run_train(dataset, tmp_path)
        assert code == EXIT_OK
        with np.load(ckpt) as data:
            arrays = dict(data)
        arrays["w2"] = np.full_like(arrays["w2"], np.nan)
        np.savez(ckpt, **arrays)
        out = tmp_path / "r"
        code = main(["eval", "--dataset", dataset, "--checkpoint-in", ckpt,
                     "--seed", "7", *FAST_TRAIN, "--m", "5",
                     "--algorithms", "rl", "--out", str(out)])
        assert code == EXIT_CHECKPOINT
        assert not out.exists()

    def test_baselines_without_checkpoint(self, dataset, tmp_path):
        out = str(tmp_path / "r2")
        code = main(["eval", "--dataset", dataset, "--seed", "3", *FAST_TRAIN,
                     "--budgets", "5", "--m", "10",
                     "--algorithms", "random,parity", "--out", out])
        assert code == EXIT_OK

    @pytest.mark.parametrize("extra", [
        ["--budgets", "500,500"], ["--algorithms", "random,random"],
    ])
    def test_repeated_grid_value_is_usage_error(self, dataset, tmp_path,
                                                extra):
        out = tmp_path / "r4"
        code = main(["eval", "--dataset", dataset, *FAST_TRAIN, "--m", "5",
                     "--algorithms", "random", *extra, "--out", str(out)])
        assert code == EXIT_USAGE
        assert not out.exists()

    def test_unknown_algorithm_is_usage_error(self, dataset, tmp_path):
        code = main(["eval", "--dataset", dataset, *FAST_TRAIN,
                     "--m", "5", "--algorithms", "bogus",
                     "--out", str(tmp_path / "r3")])
        assert code == EXIT_USAGE


class TestOracleCommand:
    def test_exact_value(self, tmp_path, capsys):
        path = tmp_path / "tiny.txt"
        path.write_text("0 1\n")
        code = main(["oracle", "--dataset", str(path), "--directed",
                     "--p", "0.5", "--seeds", "0"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        # unit benefits: E = 1 + 0.5, unit cost: profit 0.5
        assert "0.5" in out

    def test_nan_attribute_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "tiny.txt"
        path.write_text("0 1\n")
        attrs = tmp_path / "attrs.csv"
        attrs.write_text("node_id,cost,benefit,community\n"
                         "0,1,nan,0\n1,1,1,0\n")
        code = main(["oracle", "--dataset", str(path), "--attrs", str(attrs),
                     "--seeds", "0"])
        assert code == EXIT_DATA
        assert "nan" not in capsys.readouterr().out

    def test_repeated_attribute_row_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "path.txt"
        path.write_text("0 1\n1 2\n")
        attrs = tmp_path / "attrs.csv"
        attrs.write_text("node_id,cost,benefit,community\n"
                         "0,1,1,0\n1,1,1,0\n2,1,1,0\n1,99,1,0\n")
        code = main(["oracle", "--dataset", str(path), "--attrs", str(attrs),
                     "--seeds", "0"])
        assert code == EXIT_DATA
        assert "listed twice" in capsys.readouterr().err

    @pytest.mark.parametrize("labels", [(-1, 0, 0), (0, 2, 2)])
    def test_bad_community_labels_are_data_errors(self, tmp_path, labels):
        # -1 would leave node 0 in no community; 0, 2, 2 leaves community 1
        # empty
        path = tmp_path / "path.txt"
        path.write_text("0 1\n1 2\n")
        attrs = tmp_path / "attrs.csv"
        attrs.write_text("node_id,cost,benefit,community\n" + "".join(
            f"{v},1,1,{c}\n" for v, c in enumerate(labels)))
        code = main(["oracle", "--dataset", str(path), "--attrs", str(attrs),
                     "--seeds", "0"])
        assert code == EXIT_DATA

    def test_unknown_seed_node(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("0 1\n")
        code = main(["oracle", "--dataset", str(path), "--seeds", "9"])
        assert code == EXIT_DATA


class TestSampleCommand:
    def test_writes_pool(self, dataset, tmp_path):
        out = str(tmp_path / "pool")
        code = main(["sample", "--dataset", dataset, *FAST_TRAIN, "--out", out])
        assert code == EXIT_OK
        files = sorted(os.listdir(out))
        assert "pool.json" in files
        assert any(f.endswith(".edges") for f in files)
        assert any(f.endswith(".attrs.csv") for f in files)


class TestConfigFile:
    def test_flags_override_config(self, dataset, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "dataset = {}\nepisodes = 4\nbatch-size = 4\nd-emb = 8\n"
            "t-emb = 2\nn-train = 1\nn-test = 1\nnodes-per-instance = 10\n"
            "budget = 6\ncost-range = 1,5\ndirected = false\n".format(dataset))
        ckpt = str(tmp_path / "p.npz")
        log = str(tmp_path / "log.csv")
        code = main(["train", "--config", str(cfg), "--episodes", "2",
                     "--checkpoint-out", ckpt, "--log", log])
        assert code == EXIT_OK
        assert len(read_lines(log)) == 3  # explicit --episodes 2 wins

    def test_config_equals_form(self, dataset, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "dataset = {}\nepisodes = 4\nbatch-size = 4\nd-emb = 8\n"
            "t-emb = 2\nn-train = 1\nn-test = 1\nnodes-per-instance = 10\n"
            "budget = 6\ncost-range = 1,5\n".format(dataset))
        log = str(tmp_path / "log.csv")
        code = main(["train", f"--config={cfg}",
                     "--checkpoint-out", str(tmp_path / "p.npz"),
                     "--log", log])
        assert code == EXIT_OK
        assert len(read_lines(log)) == 5  # episodes = 4 from the file

    def test_bad_config_line(self, dataset, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("episodes 4\n")
        code = main(["train", "--config", str(cfg), "--dataset", dataset,
                     "--checkpoint-out", str(tmp_path / "p.npz")])
        assert code == EXIT_USAGE

    def test_missing_config_file(self, dataset, tmp_path):
        code = main(["train", "--config", str(tmp_path / "none.cfg"),
                     "--dataset", dataset,
                     "--checkpoint-out", str(tmp_path / "p.npz")])
        assert code == EXIT_USAGE


# flag, value, path of the field it sets in asdict(ExperimentConfig), and
# the parsed value
CONFIG_FLAGS = [
    ("--directed", None, ("directed",), True),
    ("--prob-model", "trivalency", ("prob_model",),
     {"choices": [0.1, 0.01, 0.001]}),
    ("--p", "0.3", ("prob_model", "p"), 0.3),
    ("--n-train", "3", ("n_train",), 3),
    ("--n-test", "2", ("n_test",), 2),
    ("--nodes-per-instance", "40", ("nodes_per_instance",), 40),
    ("--cost-range", "2,50", ("cost_range",), [2.0, 50.0]),
    ("--benefit-range", "3,60", ("benefit_range",), [3.0, 60.0]),
    ("--minority-fraction", "0.3", ("minority_fraction",), 0.3),
    ("--budget", "77", ("train", "budget"), 77.0),
    ("--episodes", "5", ("train", "episodes"), 5),
    ("--lr", "0.02", ("train", "learning_rate"), 0.02),
    ("--gamma", "0.5", ("train", "discount"), 0.5),
    ("--eps-start", "0.9", ("train", "epsilon_start"), 0.9),
    ("--eps-min", "0.2", ("train", "epsilon_min"), 0.2),
    ("--eps-decay", "0.9", ("train", "epsilon_decay"), 0.9),
    ("--replay-capacity", "500", ("train", "replay_capacity"), 500),
    ("--batch-size", "16", ("train", "batch_size"), 16),
    ("--update-period", "3", ("train", "update_period"), 3),
    ("--phi", "2.5", ("train", "fairness_weight"), 2.5),
    ("--d-emb", "8", ("train", "d_emb"), 8),
    ("--t-emb", "2", ("train", "t_emb"), 2),
    ("--budgets", "5,9", ("budgets",), [5.0, 9.0]),
    ("--m", "20", ("m",), 20),
    ("--algorithms", "random,parity", ("algorithms",), ["random", "parity"]),
    ("--tau", "0.4", ("fairness", "threshold"), 0.4),
    ("--out", "elsewhere", ("out_dir",), "elsewhere"),
]


class TestConfigFlags:
    """Each config flag reaches its own dataclass field, and a flag left out
    leaves the dataclass default in place."""

    @pytest.fixture
    def recorded_config(self, dataset, tmp_path, monkeypatch):
        # the grid itself is not run: only the config it would run with
        monkeypatch.setattr(cli, "build_pool",
                            lambda cfg: InstancePool(train=(), test=(), seed=0))
        monkeypatch.setattr(cli, "run_experiment",
                            lambda cfg, pool, policy: [])
        monkeypatch.chdir(tmp_path)

        def run(*flags):
            assert main(["eval", "--dataset", dataset, *flags]) == EXIT_OK
            out = "elsewhere" if "--out" in flags else "results"
            with open(os.path.join(out, "run_meta.json")) as fh:
                return json.load(fh)["config"]
        return run

    @staticmethod
    def defaults(dataset):
        return json.loads(json.dumps(asdict(ExperimentConfig(dataset=dataset))))

    def test_no_flags_gives_dataclass_defaults(self, dataset,
                                               recorded_config):
        assert recorded_config() == self.defaults(dataset)

    def test_seed_sets_both_seeds(self, dataset, recorded_config):
        want = self.defaults(dataset)
        want["seed"] = want["train"]["seed"] = 4
        assert recorded_config("--seed", "4") == want

    @pytest.mark.parametrize("flag,value,path,parsed", CONFIG_FLAGS,
                             ids=[row[0] for row in CONFIG_FLAGS])
    def test_flag_lands_on_its_field(self, dataset, recorded_config, flag,
                                     value, path, parsed):
        want = self.defaults(dataset)
        node = want
        for key in path[:-1]:
            node = node[key]
        assert node[path[-1]] != parsed
        node[path[-1]] = parsed
        given = [flag] if value is None else [flag, value]
        assert recorded_config(*given) == want
