import json

import numpy as np
import pytest

from odpc import persist
from odpc.cli import PipelineConfig, load_config, main
from odpc.errors import ConfigError
from odpc.head import load_checkpoint


FAST_CONFIG = {
    "epochs": 2,
    "seed": 3,
    "synthetic_center_scale": 4.0,
}


def write_config(tmp_path, extra=None):
    doc = dict(FAST_CONFIG)
    doc.update(extra or {})
    path = tmp_path / "config.json"
    persist.write_json(path, doc)
    return str(path)


def test_defaults_match_published_settings():
    cfg = PipelineConfig()
    assert cfg.batch_size == 32
    assert cfg.epochs == 160
    assert cfg.lr == 1e-5
    assert cfg.momentum == 0.99
    assert cfg.step_size == 30
    assert cfg.gamma == 0.25
    assert cfg.temperature == 0.005
    assert cfg.mix_lambda == 0.5
    assert cfg.knn_k == 200
    assert cfg.target_tpr == 0.95
    assert cfg.peers_per_class == 3
    assert cfg.hidden_dims == (512, 512, 512)


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    persist.write_json(path, {"epochs": 5, "learning_rate": 0.1})
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "learning_rate" in str(err.value)


def test_load_config_validates_values(tmp_path):
    path = tmp_path / "config.json"
    persist.write_json(path, {"temperature": -1.0})
    with pytest.raises(ConfigError):
        load_config(path)


def test_removed_knn_backend_key_is_usage_error(tmp_path, capsys):
    config = write_config(tmp_path, {"knn_backend": "exact"})
    out = tmp_path / "results.csv"
    rc = main(["eval", "--config", config, "--repeats", "1", "--out", str(out)])
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "ConfigError"
    assert "knn_backend" in doc["message"]
    assert not out.exists()


def test_usage_error_exit_code(tmp_path, capsys):
    rc = main(["gen-peers", "--out", str(tmp_path / "p.json")])  # no classes given
    assert rc == 2
    err = capsys.readouterr().err.strip()
    doc = json.loads(err.splitlines()[-1])
    assert doc["error"] == "ConfigError"


def test_gen_peers_stub_six_classes(tmp_path, capsys):
    out = tmp_path / "peers.json"
    rc = main([
        "gen-peers",
        "--classes", "airplane,automobile,ship,truck,bird,cat",
        "--n", "3", "--seed", "5",
        "--cache", str(tmp_path / "llm_cache.json"),
        "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["classes"]) == 6
    assert sum(len(v) for v in doc["classes"].values()) == 18
    for label, peers in doc["classes"].items():
        assert label not in peers


def test_encode_then_train_then_project(tmp_path, capsys):
    data_dir = tmp_path / "data"
    cfg = write_config(tmp_path, {"epochs": 1})
    assert main(["encode", "--config", cfg, "--protocol", "synthetic", "--out", str(data_dir)]) == 0
    assert (data_dir / "train.fb").exists()
    assert (data_dir / "labels.json").exists()

    peers_path = tmp_path / "peers.json"
    assert main([
        "gen-peers", "--config", cfg, "--labels", str(data_dir / "labels.json"),
        "--cache", str(tmp_path / "llm_cache.json"), "--out", str(peers_path),
    ]) == 0

    ckpt = tmp_path / "head.ckpt"
    hist = tmp_path / "loss_history.csv"
    assert main([
        "train", "--config", cfg,
        "--features", str(data_dir / "all.fb"),
        "--labels", str(data_dir / "labels.json"),
        "--peers", str(peers_path),
        "--out", str(ckpt), "--history", str(hist),
    ]) == 0
    head = load_checkpoint(ckpt)
    assert head.num_id_classes == 10
    lines = hist.read_text().strip().splitlines()
    assert lines[0] == "epoch,lr,total,pcc1,pcc2,pcc3,ce"
    assert len(lines) == 2

    proj = tmp_path / "proj.csv"
    assert main([
        "project", "--features", str(data_dir / "test.fb"), "--out", str(proj),
    ]) == 0
    assert proj.read_text().startswith("sample_id,x,y,label,id_or_ood")


def test_train_zero_epochs_checkpoint_equals_init(tmp_path):
    data_dir = tmp_path / "data"
    cfg = write_config(tmp_path, {"epochs": 0})
    main(["encode", "--config", cfg, "--protocol", "synthetic", "--out", str(data_dir)])
    peers_path = tmp_path / "peers.json"
    main(["gen-peers", "--config", cfg, "--labels", str(data_dir / "labels.json"),
          "--cache", str(tmp_path / "c.json"), "--out", str(peers_path)])
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    for out in (a, b):
        assert main([
            "train", "--config", cfg, "--features", str(data_dir / "all.fb"),
            "--labels", str(data_dir / "labels.json"), "--peers", str(peers_path),
            "--out", str(out), "--history", str(tmp_path / "h.csv"),
        ]) == 0
    assert a.read_bytes() == b.read_bytes()
    head = load_checkpoint(a)
    assert head.epoch == 0


def test_eval_synthetic_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path, {"epochs": 1})
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    for out in (out1, out2):
        rc = main(["eval", "--config", cfg, "--protocol", "synthetic",
                   "--repeats", "2", "--seed", "7", "--out", str(out)])
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert lines[0] == "protocol,repeat,seed,auroc,openness"
    assert len(lines) == 3


def test_eval_imported_protocol_requires_inputs(tmp_path, capsys):
    rc = main(["eval", "--protocol", "cifar10_6v4", "--out", str(tmp_path / "r.csv")])
    assert rc == 2


def test_report_from_results(tmp_path):
    cfg = write_config(tmp_path, {"epochs": 1})
    res = tmp_path / "results.csv"
    main(["eval", "--config", cfg, "--protocol", "synthetic", "--repeats", "2",
          "--seed", "1", "--out", str(res)])
    table = tmp_path / "table.md"
    assert main(["report", "--results", str(res), "--out", str(table)]) == 0
    assert "synthetic" in table.read_text()


def test_eval_epochs_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, {"epochs": 160})
    out = tmp_path / "r.csv"
    rc = main(["eval", "--config", cfg, "--protocol", "synthetic", "--repeats", "1",
               "--seed", "0", "--epochs", "1", "--out", str(out)])
    assert rc == 0


def test_runtime_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.fb"
    rc = main(["project", "--features", str(missing), "--out", str(tmp_path / "p.csv")])
    assert rc == 2  # missing input file is a usage error


def test_encode_import_validates_and_rewrites(tmp_path, rng):
    src = tmp_path / "in.fb"
    persist.write_bank(rng.standard_normal((5, 8)).astype(np.float32), src, normalized=False)
    out = tmp_path / "out.fb"
    assert main(["encode", "--import", str(src), "--out", str(out)]) == 0
    a, _ = persist.read_bank(src)
    b, _ = persist.read_bank(out)
    assert np.array_equal(a, b)


def test_gen_peers_http_without_endpoint_is_usage_error(tmp_path, capsys):
    rc = main(["gen-peers", "--classes", "a,b", "--provider", "http",
               "--out", str(tmp_path / "p.json")])
    assert rc == 2
    doc = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert doc["error"] == "ConfigError"
