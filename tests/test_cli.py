import contextlib
import csv
import io
import json
import logging
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import fields, is_dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import json_paths, shipped_class_names, unit_rows
import odpc
from odpc import bench, persist
from odpc.bench import PipelineSettings
from odpc.cli import CONFIG_KEYS, load_config, main
from odpc.errors import ConfigError
from odpc.head import load_checkpoint
from odpc.peer_gen import normalize_label


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
    settings = load_config(None).settings
    training = settings.training
    assert training.batch_size == 32
    assert training.epochs == 160
    assert training.lr == 1e-5
    assert training.momentum == 0.99
    assert training.step_size == 30
    assert training.gamma == 0.25
    assert training.loss.temperature == 0.005
    assert training.loss.mix_lambda == 0.5
    assert settings.knn.k == 200
    assert settings.knn.target_tpr == 0.95
    assert settings.peer.peers_per_class == 3
    assert settings.hidden_dims == (512, 512, 512)


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


# The 28 keys the config has always accepted.
ACCEPTED_KEYS = {
    "epochs", "batch_size", "lr", "momentum", "step_size", "gamma", "seed",
    "temperature", "mix_lambda", "pcc_form", "knn_k", "target_tpr",
    "peers_per_class", "prompt_template", "description_template", "provider",
    "max_requery_attempts", "offline", "llm_endpoint", "llm_model", "hidden_dims",
    "encoder_seed", "raw_dim", "feature_dim", "synthetic_center_scale",
    "synthetic_common_scale", "synthetic_noise_scale", "variant",
}


def test_config_keys_resolve_to_fields_and_defaults_are_the_modules():
    assert set(CONFIG_KEYS) == ACCEPTED_KEYS
    cfg = load_config(None)
    for key, paths in CONFIG_KEYS.items():
        for path in paths:
            owner_path, _, name = path.rpartition(".")
            owner = attrgetter(owner_path)(cfg) if owner_path else cfg
            assert is_dataclass(owner) and name in {f.name for f in fields(owner)}, (key, path)
    assert cfg.settings == PipelineSettings()
    assert (cfg.provider, cfg.llm_endpoint, cfg.llm_model) == ("stub", "", "")


def test_shared_keys_set_every_field_they_name(tmp_path):
    path = tmp_path / "config.json"
    persist.write_json(path, {"raw_dim": 32, "seed": 4, "knn_k": 50, "feature_dim": 256})
    settings = load_config(path).settings
    assert settings.encoder.raw_dim == settings.synthetic.raw_dim == 32
    assert settings.training.seed == settings.synthetic.seed == 4
    assert settings.knn.k == 50
    assert settings.encoder.out_dim == 256
    assert settings.hidden_dims == (512, 512, 512)


# JSON values by Python type; every list here is wrong for every key,
# hidden_dims included (it takes exactly 3 integers).
_JSON_BY_TYPE = {
    bool: st.booleans(),
    int: st.integers(),
    float: st.floats(allow_nan=False, allow_infinity=False),
    str: st.text(max_size=8),
    type(None): st.none(),
    dict: st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
    list: st.lists(st.integers(), max_size=5).filter(lambda v: len(v) != 3)
    | st.lists(st.integers() | st.floats() | st.booleans() | st.text(max_size=3),
               min_size=3, max_size=3).filter(lambda v: any(type(x) is not int for x in v)),
}


def _wrong_json(default):
    legal = {float: {int, float}, tuple: set()}.get(type(default), {type(default)})
    return st.one_of([s for t, s in _JSON_BY_TYPE.items() if t not in legal])


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "config.json"


@pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
@given(data=st.data())
def test_wrong_json_type_is_config_error_naming_the_key(config_path, key, data):
    default = attrgetter(CONFIG_KEYS[key][0])(load_config(None))
    value = data.draw(_wrong_json(default))
    persist.write_json(config_path, {key: value})
    with pytest.raises(ConfigError, match=f"'{key}'"):
        load_config(config_path)


@pytest.mark.parametrize(
    "doc,flags",
    [
        ({"epochs": "3"}, []),
        ({"hidden_dims": 5}, []),
        ({"offline": "no"}, []),
        ({"epochs": True}, []),
        ({"momentum": float("nan")}, []),
        ({"lr": 10**400}, []),
        ({"hidden_dims": [0, 512, 512]}, []),
        ({"seed": -1}, []),
        ({}, ["--seed", "-2"]),
        ({"synthetic_noise_scale": -1}, []),
        ({"synthetic_center_scale": -3}, []),
        ({"synthetic_common_scale": -0.5}, []),
    ],
    ids=["epochs-string", "hidden-dims-int", "offline-string", "epochs-bool", "momentum-nan",
         "lr-beyond-float", "hidden-dims-zero", "negative-seed", "negative-seed-flag",
         "negative-noise-scale", "negative-center-scale", "negative-common-scale"],
)
def test_bad_config_value_is_one_line_usage_error(tmp_path, capsys, doc, flags):
    config = tmp_path / "config.json"
    persist.write_json(config, doc)
    out = tmp_path / "results.csv"
    rc = main(["eval", "--config", str(config), "--repeats", "1", "--out", str(out), *flags])
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ConfigError"
    assert not out.exists()


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


@pytest.mark.parametrize(
    ("argv", "named"),
    [
        (["gen-peers", "--classes", "a,b", "--bogus"], "--bogus"),
        (["encode", "--out", "data", "--bogus"], "--bogus"),
        (["train", "--features", "all.fb", "--labels", "labels.json", "--peers", "peers.json",
          "--bogus"], "--bogus"),
        (["eval", "--offline"], "--offline"),
        (["eval", "--repeats", "abc"], "--repeats"),
        (["report", "--results", "results.csv", "--bogus"], "--bogus"),
        (["project", "--features", "all.fb", "--bogus"], "--bogus"),
        ([], "command"),
    ],
    ids=["gen-peers", "encode", "train", "eval", "eval-bad-type", "report", "project", "bare"],
)
def test_parser_rejection_is_one_line_usage_error(tmp_path, monkeypatch, capsys, argv, named):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "ConfigError" and named in doc["message"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--help"], ["eval", "--help"]])
def test_help_exits_0_with_usage_on_stdout(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: odpc") and captured.err == ""


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


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("names", [("cat", "dog", "ship"),
                                   ("goldfish, Carassius auratus", "tench", 'say "cheese"')],
                         ids=["plain", "comma-and-quote"])
def test_project_with_labels_and_ood_features(tmp_path, rng, names):
    _write_labelled_bank(tmp_path, rng, names, dim=8)
    n_ood = 4
    persist.write_bank(unit_rows(rng, n_ood, 8).astype(np.float32), tmp_path / "ood.fb", normalized=True)
    proj = tmp_path / "proj.csv"
    assert main(["project", "--features", str(tmp_path / "all.fb"), "--labels", str(tmp_path / "labels.json"),
                 "--ood-features", str(tmp_path / "ood.fb"), "--out", str(proj)]) == 0
    samples = persist.read_json(tmp_path / "labels.json")["samples"]
    header, *rows = _read_csv(proj)
    assert header == ["sample_id", "x", "y", "label", "id_or_ood"]
    assert len(rows) == len(samples) + n_ood and all(len(row) == 5 for row in rows)
    id_rows, ood_rows = rows[: len(samples)], rows[len(samples):]
    assert [(r[0], r[3], r[4]) for r in id_rows] == [(s["id"], s["class"], "id") for s in samples]
    assert [r[0] for r in ood_rows] == [f"ood{i:06d}" for i in range(n_ood)]
    assert all(r[3:] == ["unknown", "ood"] for r in ood_rows)


@pytest.mark.parametrize("ood_dim", [6, 16])
def test_project_ood_bank_of_another_width_is_usage_error(tmp_path, rng, capsys, ood_dim):
    _write_labelled_bank(tmp_path, rng, ("cat", "dog", "ship"), dim=8)
    ood = tmp_path / "ood.fb"
    persist.write_bank(unit_rows(rng, 4, ood_dim).astype(np.float32), ood, normalized=True)
    proj = tmp_path / "proj.csv"
    capsys.readouterr()
    rc = main(["project", "--features", str(tmp_path / "all.fb"), "--ood-features", str(ood),
               "--out", str(proj)])
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "ShapeError"
    named = (str(ood), str(tmp_path / "all.fb"), f"{ood_dim}-d", "8-d")
    assert all(part in doc["message"] for part in named)
    assert not proj.exists()


def _manifest_with_carriage_return(path, source, where):
    """``source``'s labels.json with a carriage return in its first class or
    in sample 4's id, written to ``path``; returns what the error must name."""
    doc = persist.read_json(source)
    if where == "class":
        old, new = doc["classes"][0], doc["classes"][0] + "\r1"
        doc["classes"][0] = new
        for sample in doc["samples"]:
            if sample["class"] == old:
                sample["class"] = new
        named = repr(new)
    else:
        doc["samples"][4]["id"] = "s\r4"
        named = "sample 4"
    persist.write_json(path, doc)
    return named


@pytest.mark.parametrize("where", ["class", "id"])
def test_project_manifest_with_carriage_return_is_usage_error(tmp_path, rng, capsys, where):
    _write_labelled_bank(tmp_path, rng, ("cat", "dog", "ship"), dim=8)
    labels = tmp_path / "edited.json"
    named = _manifest_with_carriage_return(labels, tmp_path / "labels.json", where)
    proj = tmp_path / "proj.csv"
    capsys.readouterr()
    rc = main(["project", "--features", str(tmp_path / "all.fb"), "--labels", str(labels),
               "--out", str(proj)])
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "ConfigError"
    assert str(labels) in doc["message"] and named in doc["message"]
    assert not proj.exists()


def test_train_skip_warnings_go_to_stdout_not_stderr(tmp_path, rng):
    """Run as a child process: under pytest the root logger has handlers, so
    Python's last-resort handler, which writes to stderr, would never fire."""
    names, labels = ["cat", "dog"], np.repeat([0, 1], [390, 10])
    persist.write_bank(unit_rows(rng, labels.size, 8).astype(np.float32), tmp_path / "all.fb",
                       normalized=True)
    bench.write_manifest(tmp_path / "labels.json", "two", names, labels, np.ones(labels.size, bool),
                         [f"s{i}" for i in range(labels.size)])
    cfg = write_config(tmp_path, {"epochs": 1, "feature_dim": 8, "hidden_dims": [8, 8, 8]})
    handlers = list(logging.getLogger("odpc").handlers)
    assert main(["gen-peers", "--config", cfg, "--classes", "cat,dog",
                 "--out", str(tmp_path / "peers.json")]) == 0
    assert logging.getLogger("odpc").handlers == handlers
    src = str(Path(odpc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "odpc.cli", "train", "--config", cfg,
         "--features", str(tmp_path / "all.fb"), "--labels", str(tmp_path / "labels.json"),
         "--peers", str(tmp_path / "peers.json"), "--out", str(tmp_path / "head.ckpt"),
         "--history", str(tmp_path / "history.csv")],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert re.search(r"^warning: epoch 0: skipped \d+ single-class batch\(es\)$", proc.stdout, re.M)


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


def test_eval_synthetic_rejects_imported_inputs(tmp_path, capsys):
    out = tmp_path / "results.csv"
    rc = main(["eval", "--protocol", "synthetic", "--features", str(tmp_path / "missing.fb"),
               "--labels", str(tmp_path / "missing.json"), "--repeats", "1", "--epochs", "0",
               "--out", str(out)])
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "ConfigError"
    assert all(word in doc["message"] for word in ("--features", "--labels", "cifar10_6v4"))
    assert not out.exists()


def _write_labelled_bank(directory, rng, names, dim):
    """A bank of two train rows and one test row per class, with its labels.json."""
    labels = np.repeat(np.arange(len(names)), 3)
    is_train = np.tile([True, True, False], len(names))
    persist.write_bank(unit_rows(rng, labels.size, dim).astype(np.float32), directory / "all.fb",
                       normalized=True)
    ids = [f"s{i:05d}" for i in range(labels.size)]
    bench.write_manifest(directory / "labels.json", "generated", list(names), labels, is_train, ids)


CIFAR10_NAMES = shipped_class_names("cifar10")
CIFAR100_NAMES = shipped_class_names("cifar100")
# The classes of the bank each protocol runs on. Tiny ImageNet's 200 are more
# than synthetic_class_names gives, so that bank is written directly.
IMPORTED_PROTOCOL_CLASSES = {
    "cifar10_6v4": CIFAR10_NAMES,
    "cifar_plus_10": CIFAR10_NAMES + CIFAR100_NAMES,
    "cifar_plus_50": CIFAR10_NAMES + CIFAR100_NAMES,
    "cifar100_20v80": CIFAR100_NAMES,
    "tinyimagenet_20v180": tuple(f"n{i:08d}" for i in range(200)),
}


@pytest.mark.parametrize("protocol", list(IMPORTED_PROTOCOL_CLASSES))
def test_eval_runs_every_imported_protocol(tmp_path, rng, protocol):
    _write_labelled_bank(tmp_path, rng, IMPORTED_PROTOCOL_CLASSES[protocol], dim=8)
    cfg = write_config(tmp_path, {"knn_k": 2, "feature_dim": 8, "hidden_dims": [8, 8, 8]})
    out = tmp_path / "results.csv"
    rc = main(["eval", "--config", cfg, "--protocol", protocol, "--features", str(tmp_path / "all.fb"),
               "--labels", str(tmp_path / "labels.json"), "--repeats", "1", "--epochs", "0",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith(f"{protocol},0,3,")


def test_eval_knn_k_beyond_train_rows_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"knn_k": 5000})
    out = tmp_path / "results.csv"
    capsys.readouterr()
    rc = main(["eval", "--config", cfg, "--protocol", "synthetic", "--repeats", "1",
               "--out", str(out)])
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "ConfigError"
    assert "knn_k 5000" in doc["message"] and "1200 train rows" in doc["message"]
    assert not out.exists()


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


@pytest.fixture(scope="module")
def train_inputs(tmp_path_factory):
    """A synthetic bank, its labels manifest, peers and the config that made them."""
    root = tmp_path_factory.mktemp("train_inputs")
    cfg = write_config(root, {"epochs": 0})
    data_dir = root / "data"
    assert main(["encode", "--config", cfg, "--protocol", "synthetic", "--out", str(data_dir)]) == 0
    peers = root / "peers.json"
    assert main(["gen-peers", "--config", cfg, "--labels", str(data_dir / "labels.json"),
                 "--cache", str(root / "llm_cache.json"), "--out", str(peers)]) == 0
    return {"config": cfg, "features": str(data_dir / "all.fb"),
            "labels": str(data_dir / "labels.json"), "peers": str(peers)}


def _train_usage_error(tmp_path, capsys, inputs, **replaced):
    """Run ``train`` with some inputs replaced; return its single stderr JSON line."""
    paths = dict(inputs, **{key: str(path) for key, path in replaced.items()})
    ckpt, hist = tmp_path / "head.ckpt", tmp_path / "history.csv"
    capsys.readouterr()
    rc = main(["train", "--config", paths["config"], "--features", paths["features"],
               "--labels", paths["labels"], "--peers", paths["peers"],
               "--out", str(ckpt), "--history", str(hist)])
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert not ckpt.exists() and not hist.exists()
    return json.loads(lines[0])


def _edited_manifest(tmp_path, inputs, edit):
    doc = persist.read_json(inputs["labels"])
    edit(doc["samples"])
    path = tmp_path / "labels.json"
    persist.write_json(path, doc)
    return path


# An lr at which the loss stops being finite within the first epoch.
DIVERGING = {"epochs": 3, "lr": 1e6, "momentum": 0.0}


def _diverging_argv(tmp_path, inputs, command):
    """``command`` under the DIVERGING config, writing only into ``tmp_path / "out"``."""
    out = tmp_path / "out"
    out.mkdir()
    cfg = write_config(tmp_path, DIVERGING)
    if command == "train":
        return out, ["train", "--config", cfg, "--features", inputs["features"],
                     "--labels", inputs["labels"], "--peers", inputs["peers"],
                     "--out", str(out / "head.ckpt"), "--history", str(out / "history.csv")]
    return out, ["eval", "--config", cfg, "--repeats", "1", "--out", str(out / "results.csv")]


@pytest.mark.parametrize("command", ["train", "eval"])
def test_diverging_run_is_runtime_error_with_one_stderr_line(tmp_path, train_inputs, command):
    """Run as a child process, so numpy's warnings would reach the real stderr."""
    out, argv = _diverging_argv(tmp_path, train_inputs, command)
    src = str(Path(odpc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "odpc.cli", *argv],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    doc = json.loads(lines[0])
    assert doc["error"] == "DivergenceError"
    # eval names the repeat and its seed; the config's seed is 3.
    repeat = "" if command == "train" else r"repeat 0 \(seed 3\): "
    assert re.match(repeat + r"epoch 0, batch \d+: the loss is .* at lr 1000000\.0", doc["message"])
    assert re.search(r"^warning: RuntimeWarning: ", proc.stdout, re.M)
    assert list(out.iterdir()) == []


def test_eval_divergence_names_the_repeat_and_its_seed(tmp_path, capsys):
    out = tmp_path / "results.csv"
    cfg = write_config(tmp_path, {"epochs": 2, "lr": 1e6, "momentum": 0.0})
    capsys.readouterr()
    assert main(["eval", "--config", cfg, "--repeats", "2", "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "DivergenceError"
    assert re.match(r"repeat 0 \(seed 3\): epoch 0, batch \d+: the loss is .* at lr 1000000\.0",
                    doc["message"])
    assert not out.exists()


def test_python_warnings_go_to_stdout_until_main_returns(tmp_path, capsys, train_inputs):
    out, argv = _diverging_argv(tmp_path, train_inputs, "eval")
    shown, handlers = warnings.showwarning, list(logging.getLogger("odpc").handlers)
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert re.search(r"^warning: RuntimeWarning: ", captured.out, re.M)
    assert len(captured.err.splitlines()) == 1
    assert warnings.showwarning is shown and logging.getLogger("odpc").handlers == handlers
    assert list(out.iterdir()) == []


def test_train_zero_epochs_bank_of_another_width_is_usage_error(tmp_path, rng, capsys):
    # The default config encodes descriptions 512-d; the bank is 64-d.
    names, labels = ["cat", "dog"], np.repeat([0, 1], 20)
    persist.write_bank(unit_rows(rng, labels.size, 64).astype(np.float32), tmp_path / "all.fb",
                       normalized=True)
    bench.write_manifest(tmp_path / "labels.json", "two", names, labels, np.ones(labels.size, bool),
                         [f"s{i}" for i in range(labels.size)])
    assert main(["gen-peers", "--classes", "cat,dog", "--out", str(tmp_path / "peers.json")]) == 0
    ckpt, hist = tmp_path / "head.ckpt", tmp_path / "history.csv"
    capsys.readouterr()
    rc = main(["train", "--features", str(tmp_path / "all.fb"), "--labels", str(tmp_path / "labels.json"),
               "--peers", str(tmp_path / "peers.json"), "--epochs", "0",
               "--out", str(ckpt), "--history", str(hist)])
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "ConfigError" and "64-d" in doc["message"] and "512" in doc["message"]
    assert not ckpt.exists() and not hist.exists()


def test_train_reads_its_train_rows_in_place(tmp_path, monkeypatch):
    """``odpc train --epochs 0`` on a 20,000 x 64 bank allocates, from the end
    of loading its inputs to the end of ``bench.fit``, less than half the
    bytes of its train rows: no copy of them is made. tracemalloc sees
    numpy's buffers."""
    rng = np.random.default_rng(0)
    names = list(shipped_class_names("cifar10"))
    labels = np.repeat(np.arange(len(names)), 2000)
    is_train = np.arange(labels.size) % 10 != 0
    persist.write_bank(unit_rows(rng, labels.size, 64).astype(np.float32), tmp_path / "all.fb",
                       normalized=True)
    bench.write_manifest(tmp_path / "labels.json", "cifar10", names, labels, is_train,
                         [f"s{i}" for i in range(labels.size)])
    cfg = write_config(tmp_path, {"epochs": 0, "feature_dim": 64, "hidden_dims": [64, 64, 64]})
    assert main(["gen-peers", "--config", cfg, "--classes", ",".join(names),
                 "--out", str(tmp_path / "peers.json")]) == 0
    load, fit, peaks = bench.load_manifest_dataset, bench.fit, []

    def loaded_then_traced(*args):
        dataset = load(*args)
        tracemalloc.start()
        return dataset

    def traced_fit(*args, **kwargs):
        state = fit(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1])
        return state

    monkeypatch.setattr(bench, "load_manifest_dataset", loaded_then_traced)
    monkeypatch.setattr(bench, "fit", traced_fit)
    try:
        assert main(["train", "--config", cfg, "--features", str(tmp_path / "all.fb"),
                     "--labels", str(tmp_path / "labels.json"), "--peers", str(tmp_path / "peers.json"),
                     "--out", str(tmp_path / "head.ckpt"), "--history", str(tmp_path / "h.csv")]) == 0
    finally:
        tracemalloc.stop()
    train_bytes = int(is_train.sum()) * 64 * np.dtype(np.float32).itemsize
    assert len(peaks) == 1 and peaks[0] < train_bytes / 2


def test_train_manifest_unknown_class_is_usage_error(tmp_path, capsys, train_inputs):
    labels = _edited_manifest(tmp_path, train_inputs, lambda samples: samples[3].update({"class": "nope"}))
    doc = _train_usage_error(tmp_path, capsys, train_inputs, labels=labels)
    assert doc["error"] == "ConfigError"
    assert "sample 3" in doc["message"] and "'nope'" in doc["message"]


def test_train_manifest_sample_without_split_is_usage_error(tmp_path, capsys, train_inputs):
    labels = _edited_manifest(tmp_path, train_inputs, lambda samples: samples[5].pop("split"))
    doc = _train_usage_error(tmp_path, capsys, train_inputs, labels=labels)
    assert doc["error"] == "ConfigError"
    assert "sample 5" in doc["message"] and "'split'" in doc["message"]


@pytest.mark.parametrize("trained", [0, 1])
def test_train_manifest_with_train_rows_of_fewer_than_2_classes_is_usage_error(
        tmp_path, capsys, train_inputs, trained):
    kept = persist.read_json(train_inputs["labels"])["classes"][:trained]
    labels = _edited_manifest(tmp_path, train_inputs, lambda samples: [
        sample.update(split="test") for sample in samples if sample["class"] not in kept])
    doc = _train_usage_error(tmp_path, capsys, train_inputs, labels=labels)
    assert doc["error"] == "ConfigError"
    assert f"--labels {labels}: {trained} class(es) have train rows" in doc["message"]


def test_train_peers_without_a_trained_class_is_usage_error(tmp_path, capsys, train_inputs):
    doc = persist.read_json(train_inputs["peers"])
    lacking = sorted(doc["classes"])[1]
    del doc["classes"][lacking]
    peers = tmp_path / "peers.json"
    persist.write_json(peers, doc)
    error = _train_usage_error(tmp_path, capsys, train_inputs, peers=peers)
    assert error["error"] == "ConfigError"
    assert str(peers) in error["message"] and repr(lacking) in error["message"]


def test_train_sizes_classifier_by_the_peers_of_trained_classes_only(tmp_path, train_inputs):
    classes = persist.read_json(train_inputs["labels"])["classes"]
    untrained = set(classes[-2:])
    labels = _edited_manifest(tmp_path, train_inputs, lambda samples: [
        sample.update(split="test") for sample in samples if sample["class"] in untrained])
    ckpt = tmp_path / "head.ckpt"
    assert main(["train", "--config", train_inputs["config"], "--features", train_inputs["features"],
                 "--labels", str(labels), "--peers", train_inputs["peers"],
                 "--out", str(ckpt), "--history", str(tmp_path / "history.csv")]) == 0
    peers = persist.read_json(train_inputs["peers"])["classes"]
    assert set(peers) == set(classes)
    trained = {normalize_label(p) for name in classes[:-2] for p in peers[name]}
    every = {normalize_label(p) for name in classes for p in peers[name]}
    head = load_checkpoint(ckpt)
    assert (head.num_id_classes, head.num_peer_outputs) == (len(classes) - 2, len(trained))
    assert len(trained) < len(every)


@pytest.mark.parametrize("where", ["class", "id"])
def test_train_manifest_with_carriage_return_is_usage_error(tmp_path, capsys, train_inputs, where):
    labels = tmp_path / "labels.json"
    named = _manifest_with_carriage_return(labels, train_inputs["labels"], where)
    doc = _train_usage_error(tmp_path, capsys, train_inputs, labels=labels)
    assert doc["error"] == "ConfigError"
    assert str(labels) in doc["message"] and named in doc["message"]


@pytest.mark.parametrize("which", ["config", "labels", "peers"])
def test_train_truncated_json_is_usage_error(tmp_path, capsys, train_inputs, which):
    path = tmp_path / f"{which}.json"
    text = open(train_inputs[which], encoding="utf-8").read()
    path.write_text(text[: len(text) // 2], encoding="utf-8")
    doc = _train_usage_error(tmp_path, capsys, train_inputs, **{which: path})
    assert doc["error"] == "ConfigError"
    assert str(path) in doc["message"]


def test_gen_peers_truncated_llm_cache_is_usage_error(tmp_path, capsys):
    cache = tmp_path / "llm_cache.json"
    cache.write_text('{"entries": {', encoding="utf-8")
    out = tmp_path / "peers.json"
    rc = main(["gen-peers", "--classes", "cat,dog", "--cache", str(cache), "--out", str(out)])
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "ConfigError"
    assert not out.exists()


def _each_entry(edit):
    return lambda doc: [edit(entry) for entry in doc["entries"].values()]


@pytest.mark.parametrize(
    "edit",
    [lambda doc: doc.update(entries=5),
     lambda doc: doc.update(entries=list(doc["entries"].values())),
     lambda doc: doc["entries"].update({key: "x" for key in doc["entries"]}),
     _each_entry(lambda entry: entry.update(response="wolf")),
     _each_entry(lambda entry: entry["response"].append(3)),
     _each_entry(lambda entry: entry.pop("fetched_at")),
     _each_entry(lambda entry: entry.update(fetched_at=0))],
    ids=["entries-number", "entries-list", "entry-string", "response-string",
         "response-number-item", "no-fetched-at", "fetched-at-number"],
)
def test_gen_peers_malformed_llm_cache_is_usage_error(tmp_path, capsys, edit):
    cache = tmp_path / "llm_cache.json"
    argv = ["gen-peers", "--classes", "cat,dog", "--cache", str(cache)]
    assert main([*argv, "--out", str(tmp_path / "warm.json")]) == 0
    doc = persist.read_json(cache)
    edit(doc)
    persist.write_json(cache, doc)
    out = tmp_path / "peers.json"
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "ConfigError" and str(cache) in error["message"]
    assert not out.exists()


@pytest.fixture(scope="module")
def small_pipeline_files(tmp_path_factory):
    """A 3-class, 8-d labelled bank, its config, and the peers.json and warm
    llm_cache.json that gen-peers made for it."""
    root = tmp_path_factory.mktemp("small_pipeline")
    _write_labelled_bank(root, np.random.default_rng(0), ["cat", "dog", "owl"], dim=8)
    files = {"config": write_config(root, {"epochs": 0, "feature_dim": 8, "hidden_dims": [8, 8, 8]}),
             "features": str(root / "all.fb"), "labels": str(root / "labels.json"),
             "peers": str(root / "peers.json"), "cache": str(root / "llm_cache.json")}
    assert main(["gen-peers", "--config", files["config"], "--labels", files["labels"],
                 "--cache", files["cache"], "--out", files["peers"]]) == 0
    return files


_JSON_TYPE = {type(None): "null", bool: "boolean", int: "number", float: "number", str: "string",
              list: "array", dict: "object"}
_JSON_VALUES = (None, True, 7, 2.5, "abc", [], ["x"], {}, {"k": "v"})


@given(data=st.data())
def test_mutated_peers_or_cache_file_exits_cleanly(small_pipeline_files, data):
    """One key of a valid peers.json or llm_cache.json dropped, or one value
    replaced by a JSON value of another type: ``train`` or ``gen-peers``
    either succeeds with all its outputs or exits 1 or 2 with one JSON line
    on stderr and no output, never with a traceback."""
    files = small_pipeline_files
    which = data.draw(st.sampled_from(["peers", "cache"]))
    doc = persist.read_json(files[which])
    *parents, last = data.draw(st.sampled_from(list(json_paths(doc))))
    parent = doc
    for key in parents:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[last]
    else:
        kind = _JSON_TYPE[type(parent[last])]
        parent[last] = data.draw(st.sampled_from(
            [v for v in _JSON_VALUES if _JSON_TYPE[type(v)] != kind]))
    with tempfile.TemporaryDirectory() as tmp:
        mutated = Path(tmp) / f"{which}.json"
        persist.write_json(mutated, doc)
        if which == "peers":
            outputs = [Path(tmp) / "head.ckpt", Path(tmp) / "history.csv"]
            argv = ["train", "--features", files["features"], "--labels", files["labels"],
                    "--peers", str(mutated), "--history", str(outputs[1])]
        else:
            outputs = [Path(tmp) / "out.json"]
            argv = ["gen-peers", "--labels", files["labels"], "--cache", str(mutated)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([*argv, "--config", files["config"], "--out", str(outputs[0])])
        lines = err.getvalue().splitlines()
        if rc == 0:
            assert all(path.exists() for path in outputs)
        else:
            assert rc in (1, 2)
            assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "message"}
            assert not any(path.exists() for path in outputs)


def test_gen_peers_writes_the_cache_once_cold_and_never_warm(tmp_path, monkeypatch):
    cache = tmp_path / "llm_cache.json"
    writes, write_json = [], persist.write_json

    def counting(path, obj):
        writes.append(Path(path))
        write_json(path, obj)

    monkeypatch.setattr(persist, "write_json", counting)
    argv = ["gen-peers", "--classes", ",".join(f"class {i}" for i in range(40)),
            "--cache", str(cache)]
    for out in ("cold.json", "warm.json"):
        assert main([*argv, "--out", str(tmp_path / out)]) == 0
    assert writes.count(cache) == 1 and len(writes) == 3


@pytest.fixture(scope="module")
def cifar10_bank_files(tmp_path_factory):
    """A 10-class, 8-d labelled bank, a config that trains it for 0 epochs,
    and the peers.json gen-peers made for its classes."""
    root = tmp_path_factory.mktemp("cifar10_bank")
    _write_labelled_bank(root, np.random.default_rng(0), CIFAR10_NAMES, dim=8)
    files = {"config": write_config(root, {"epochs": 0, "knn_k": 2, "feature_dim": 8,
                                           "hidden_dims": [8, 8, 8]}),
             "features": str(root / "all.fb"), "labels": str(root / "labels.json"),
             "peers": str(root / "peers.json")}
    assert main(["gen-peers", "--config", files["config"], "--labels", files["labels"],
                 "--out", files["peers"]]) == 0
    return files


def _mutated_manifest(doc, data):
    """``doc`` with one key of it or of one sample dropped, one value given
    another JSON type, one class name repeated, or one split changed."""
    kind = data.draw(st.sampled_from(["drop", "retype", "repeat-class", "split"]))
    samples = doc["samples"]
    i = data.draw(st.integers(0, len(samples) - 1))
    if kind == "drop":
        key = data.draw(st.sampled_from([*doc, *(("samples", i, key) for key in samples[i])]))
        parent, last = (doc, key) if isinstance(key, str) else (samples[i], key[2])
        del parent[last]
    elif kind == "retype":
        *parents, last = data.draw(st.sampled_from(list(json_paths(doc))))
        parent = doc
        for key in parents:
            parent = parent[key]
        kind = _JSON_TYPE[type(parent[last])]
        parent[last] = data.draw(st.sampled_from(
            [v for v in _JSON_VALUES if _JSON_TYPE[type(v)] != kind]))
    elif kind == "repeat-class":
        doc["classes"].insert(data.draw(st.integers(0, len(doc["classes"]))),
                              data.draw(st.sampled_from(doc["classes"])))
    else:
        samples[i]["split"] = data.draw(st.sampled_from(
            [v for v in ("train", "test", "val", "Train", "") if v != samples[i]["split"]]))
    return doc


def _mutated_bank(raw: bytes, data) -> bytes:
    """``raw`` with one byte flipped, or cut short."""
    at = data.draw(st.integers(0, len(raw) - 1))
    if data.draw(st.booleans()):
        return raw[:at]
    return raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255))]) + raw[at + 1:]


@given(data=st.data())
def test_mutated_manifest_or_bank_exits_cleanly(cifar10_bank_files, data):
    """A valid labels.json mutated by ``_mutated_manifest``, or the bank by
    ``_mutated_bank``: ``train`` and ``eval`` each either succeed with all
    their outputs or exit 1 or 2 with one JSON line on stderr and no output,
    never with a traceback."""
    files = dict(cifar10_bank_files)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if data.draw(st.booleans()):
            files["labels"] = str(tmp / "labels.json")
            persist.write_json(files["labels"],
                               _mutated_manifest(persist.read_json(cifar10_bank_files["labels"]), data))
        else:
            files["features"] = str(tmp / "all.fb")
            Path(files["features"]).write_bytes(
                _mutated_bank(Path(cifar10_bank_files["features"]).read_bytes(), data))
        inputs = ["--config", files["config"], "--features", files["features"],
                  "--labels", files["labels"]]
        runs = [(["train", *inputs, "--peers", files["peers"], "--out", str(tmp / "head.ckpt"),
                  "--history", str(tmp / "history.csv")], [tmp / "head.ckpt", tmp / "history.csv"]),
                (["eval", *inputs, "--protocol", "cifar10_6v4", "--epochs", "0", "--repeats", "1",
                  "--out", str(tmp / "results.csv")], [tmp / "results.csv"])]
        for argv, outputs in runs:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(argv)
            lines = err.getvalue().splitlines()
            if rc == 0:
                assert all(path.exists() for path in outputs)
            else:
                assert rc in (1, 2)
                assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "message"}
                assert not any(path.exists() for path in outputs)


def _history_after_train(tmp_path, inputs, extra):
    config = write_config(tmp_path, extra)
    hist = tmp_path / "history.csv"
    rc = main(["train", "--config", config, "--features", inputs["features"],
               "--labels", inputs["labels"], "--peers", inputs["peers"],
               "--out", str(tmp_path / "head.ckpt"), "--history", str(hist)])
    assert rc == 0
    lines = hist.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_train_honours_ce_only_variant(tmp_path, train_inputs):
    rows = _history_after_train(tmp_path, train_inputs, {"epochs": 2, "variant": "ce_only"})
    assert len(rows) == 2
    for row in rows:
        assert (row["pcc1"], row["pcc2"], row["pcc3"]) == ("0.0", "0.0", "0.0")
        assert row["total"] == row["ce"]


def test_train_passthrough_variant_is_usage_error(tmp_path, capsys, train_inputs):
    config = write_config(tmp_path, {"epochs": 0, "variant": "passthrough"})
    doc = _train_usage_error(tmp_path, capsys, train_inputs, config=config)
    assert doc["error"] == "ConfigError"
    assert "passthrough" in doc["message"]


@pytest.mark.parametrize(
    "peers_doc",
    [{"classes": ["a"]}, {"classes": {"a": "wolf"}},
     {"classes": {"a": ["wolf"]}, "description_template": "a photo"},
     {"classes": {"a": ["wolf"]}, "provenance": 5},
     {"classes": {"a": ["wolf"]}, "provenance": "abc"},
     {"classes": {"a": ["wolf"]}, "provenance": {"provider": 3}}],
    ids=["list", "string-peers", "template-without-placeholder", "provenance-number",
         "provenance-string", "provenance-number-value"],
)
def test_train_malformed_peers_is_usage_error(tmp_path, capsys, train_inputs, peers_doc):
    peers = tmp_path / "peers.json"
    persist.write_json(peers, peers_doc)
    doc = _train_usage_error(tmp_path, capsys, train_inputs, peers=peers)
    assert doc["error"] == "ConfigError"
    assert str(peers) in doc["message"]


def test_gen_peers_labels_classes_not_a_list_is_usage_error(tmp_path, capsys):
    labels = tmp_path / "labels.json"
    persist.write_json(labels, {"classes": "cat,dog"})
    out = tmp_path / "peers.json"
    rc = main(["gen-peers", "--labels", str(labels), "--cache", str(tmp_path / "c.json"),
               "--out", str(out)])
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "ConfigError"
    assert not out.exists()


@pytest.mark.parametrize(
    "bad_row",
    ["synthetic,1,8", "synthetic,1,8,abc,13.39", "synthetic,1,8,0.8,",
     "synthetic,1,8," + "9" * 200_000 + ",13.39",
     # Values eval cannot write: an AUROC off nan and [0, 1], an openness off [0, 100).
     "synthetic,1,8,inf,13.39", "synthetic,1,8,-0.5,13.39", "synthetic,1,8,1.5,13.39",
     "synthetic,1,8,0.8,100", "synthetic,1,8,0.8,-1", "synthetic,1,8,0.8,nan"],
    ids=["short-row", "auroc-abc", "openness-empty", "field-beyond-csv-limit",
         "auroc-inf", "auroc-negative", "auroc-above-1", "openness-100", "openness-negative",
         "openness-nan"],
)
def test_report_row_with_wrong_field_count_is_runtime_error(tmp_path, capsys, bad_row):
    results = tmp_path / "results.csv"
    results.write_text(
        "protocol,repeat,seed,auroc,openness\n"
        "synthetic,0,7,nan,13.39\n"
        f"{bad_row}\n",
        encoding="utf-8",
    )
    table = tmp_path / "table.md"
    rc = main(["report", "--results", str(results), "--out", str(table)])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "FormatError"
    assert str(results) in doc["message"] and "line 3" in doc["message"]
    assert not table.exists()


def test_report_text_not_utf8_is_runtime_error(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_bytes("protocol,repeat,seed,auroc,openness\n".encode("utf-16"))
    table = tmp_path / "table.md"
    capsys.readouterr()
    rc = main(["report", "--results", str(results), "--out", str(table)])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "FormatError"
    assert str(results) in doc["message"] and "UTF-8" in doc["message"]
    assert not table.exists()


@pytest.mark.parametrize(
    ("argv", "error", "code"),
    [
        (["encode", "--import", "{dir}", "--out", "{tmp}/out.fb"], "IsADirectoryError", 2),
        (["report", "--results", "{dir}", "--out", "{tmp}/table.md"], "IsADirectoryError", 2),
        (["eval", "--config", "{dir}", "--repeats", "1", "--out", "{tmp}/r.csv"],
         "IsADirectoryError", 2),
        (["report", "--results", "{results}", "--out", "{dir}"], "IsADirectoryError", 2),
        (["report", "--results", "{results}/x", "--out", "{tmp}/table.md"],
         "NotADirectoryError", 2),
        (["report", "--results", "{results}", "--out", "{results}/t.md"], "NotADirectoryError", 2),
        (["encode", "--out", "{results}/x"], "NotADirectoryError", 2),
        (["report", "--results", "{tmp}/" + "x" * 300, "--out", "{tmp}/table.md"], "OSError", 1),
    ],
    ids=["encode-import-dir", "report-results-dir", "eval-config-dir", "report-out-dir",
         "results-under-a-file", "report-out-under-a-file", "encode-out-under-a-file",
         "name-too-long"],
)
def test_unusable_path_is_one_line_error(tmp_path, capsys, argv, error, code):
    directory = tmp_path / "dir"
    directory.mkdir()
    results = tmp_path / "results.csv"
    results.write_text("protocol,repeat,seed,auroc,openness\nsynthetic,0,7,0.9,13.39\n",
                       encoding="utf-8")
    rc = main([arg.format(dir=directory, tmp=tmp_path, results=results) for arg in argv])
    assert rc == code
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir", "results.csv"]
