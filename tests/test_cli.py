import json
import os

import numpy as np
import pytest

from fairseed.cli import EXIT_CHECKPOINT, EXIT_DATA, EXIT_OK, EXIT_USAGE, main


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "graph.txt"
    lines = ["# test graph"]
    lines += [f"{i} {j}" for i in range(40) for j in (i + 1, i + 9) if j < 40]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


FAST_TRAIN = ["--episodes", "6", "--batch-size", "4", "--d-emb", "8",
              "--t-emb", "2", "--n-train", "1", "--n-test", "1",
              "--nodes-per-instance", "12", "--budget", "6"]


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
        lines = open(log).readlines()
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

    def test_no_dataset_is_usage_error(self, tmp_path):
        code = main(["train", "--checkpoint-out", str(tmp_path / "x.npz")])
        assert code == EXIT_USAGE


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
        lines = open(os.path.join(out, "results.csv")).readlines()
        assert len(lines) == 1 + 2 * 3
        assert os.path.exists(os.path.join(out, "timings.csv"))
        assert os.path.exists(os.path.join(out, "run_meta.json"))

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

    def test_baselines_without_checkpoint(self, dataset, tmp_path):
        out = str(tmp_path / "r2")
        code = main(["eval", "--dataset", dataset, "--seed", "3", *FAST_TRAIN,
                     "--budgets", "5", "--m", "10",
                     "--algorithms", "random,parity", "--out", out])
        assert code == EXIT_OK

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
            "budget = 6\ndirected = false\n".format(dataset))
        ckpt = str(tmp_path / "p.npz")
        log = str(tmp_path / "log.csv")
        code = main(["train", "--config", str(cfg), "--episodes", "2",
                     "--checkpoint-out", ckpt, "--log", log])
        assert code == EXIT_OK
        assert len(open(log).readlines()) == 3  # explicit --episodes 2 wins

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
