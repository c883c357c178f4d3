"""Command-line pipeline orchestration.

One JSON config drives everything; flags override config values. Commands:

    gen-peers   generate peer labels -> peers.json
    encode      produce feature bank files (synthetic toy data, or re-validate imports)
    train       train the head on the manifest's train rows, with the config's
                variant (not passthrough) -> checkpoint + loss_history.csv
    eval        repeated split/train/score runs -> results.csv
    report      aggregate results.csv -> table.md
    project     2-D PCA of a feature bank -> proj.csv

``train`` and ``eval`` fit the head through the same ``bench.fit``, so a
config trains the same way in both.

Usage errors (bad config, missing inputs) exit with code 2; runtime
failures exit with code 1; each prints a one-line JSON error to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import bench, persist
from .encoders import ToyEncoderConfig, import_embeddings, toy_encode_images
from .errors import ConfigError, InvalidArgumentError, OdpcError
from .head import save_checkpoint
from .knn_detector import KnnConfig
from .losses import LossConfig
from .peer_gen import (
    HttpLlmProvider,
    LlmCache,
    PeerGenConfig,
    StubProvider,
    generate_peer_classes,
    load_peers,
    save_peers,
)
from .trainer import TrainingConfig, write_loss_history

# Not called here since ``train`` fits through ``bench.fit``: perfbench's
# tracer (perfbench/spans.py TARGETS) wraps these attributes of odpc.cli.
from .encoders import toy_encode_texts  # noqa: F401
from .head import init_head  # noqa: F401
from .trainer import train  # noqa: F401

USAGE_EXIT = 2
RUNTIME_EXIT = 1


@dataclass(frozen=True)
class PipelineConfig:
    """Flat config mirrored by config.json; unknown keys are rejected."""

    epochs: int = 160
    batch_size: int = 32
    lr: float = 1e-5
    momentum: float = 0.99
    step_size: int = 30
    gamma: float = 0.25
    temperature: float = 0.005
    mix_lambda: float = 0.5
    pcc_form: str = "per_anchor"
    knn_k: int = 200
    target_tpr: float = 0.95
    peers_per_class: int = 3
    prompt_template: str = PeerGenConfig().prompt_template
    description_template: str = PeerGenConfig().description_template
    provider: str = "stub"
    max_requery_attempts: int = 5
    offline: bool = False
    llm_endpoint: str = ""
    llm_model: str = ""
    hidden_dims: tuple[int, ...] = (512, 512, 512)
    encoder_seed: int = 0
    raw_dim: int = 64
    feature_dim: int = 512
    seed: int = 0
    synthetic_center_scale: float = bench.SyntheticSpec().center_scale
    synthetic_common_scale: float = bench.SyntheticSpec().common_scale
    synthetic_noise_scale: float = 1.0
    variant: str = "pcc_ce"

    def training_config(self) -> TrainingConfig:
        return TrainingConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            lr=self.lr,
            momentum=self.momentum,
            step_size=self.step_size,
            gamma=self.gamma,
            seed=self.seed,
            loss=LossConfig(
                temperature=self.temperature,
                mix_lambda=self.mix_lambda,
                pcc_form=self.pcc_form,
            ),
        )

    def knn_config(self) -> KnnConfig:
        return KnnConfig(k=self.knn_k, target_tpr=self.target_tpr)

    def peer_config(self) -> PeerGenConfig:
        return PeerGenConfig(
            peers_per_class=self.peers_per_class,
            prompt_template=self.prompt_template,
            description_template=self.description_template,
            max_requery_attempts=self.max_requery_attempts,
            offline=self.offline,
        )

    def encoder_config(self) -> ToyEncoderConfig:
        return ToyEncoderConfig(seed=self.encoder_seed, raw_dim=self.raw_dim, out_dim=self.feature_dim)

    def synthetic_spec(self) -> bench.SyntheticSpec:
        return bench.SyntheticSpec(
            raw_dim=self.raw_dim,
            center_scale=self.synthetic_center_scale,
            common_scale=self.synthetic_common_scale,
            noise_scale=self.synthetic_noise_scale,
            seed=self.seed,
        )

    def settings(self) -> bench.PipelineSettings:
        return bench.PipelineSettings(
            training=self.training_config(),
            knn=self.knn_config(),
            peer=self.peer_config(),
            encoder=self.encoder_config(),
            synthetic=self.synthetic_spec(),
            variant=self.variant,
            hidden_dims=tuple(self.hidden_dims),
        )


def load_config(path: str | Path | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    doc = persist.read_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    known = {f.name for f in fields(PipelineConfig)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {unknown}")
    if "hidden_dims" in doc:
        doc["hidden_dims"] = tuple(doc["hidden_dims"])
    try:
        cfg = PipelineConfig(**doc)
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: PipelineConfig) -> None:
    # Constructing the per-module configs runs every invariant check.
    cfg.training_config()
    cfg.knn_config()
    cfg.peer_config()
    cfg.encoder_config()
    if cfg.provider not in ("stub", "http"):
        raise ConfigError(f"provider must be 'stub' or 'http', got {cfg.provider!r}")
    if len(cfg.hidden_dims) != 3:
        raise ConfigError("hidden_dims must list exactly 3 layer widths")
    if cfg.variant not in bench.VARIANTS:
        raise ConfigError(f"variant must be one of {bench.VARIANTS}")


def _apply_overrides(cfg: PipelineConfig, args: argparse.Namespace) -> PipelineConfig:
    updates = {}
    for flag in ("seed", "provider", "epochs"):
        value = getattr(args, flag, None)
        if value is not None:
            updates[flag] = value
    if getattr(args, "offline", False):
        updates["offline"] = True
    return replace(cfg, **updates) if updates else cfg


def _make_provider(cfg: PipelineConfig):
    if cfg.provider == "stub":
        return StubProvider(seed=cfg.seed)
    if not cfg.llm_endpoint or not cfg.llm_model:
        raise ConfigError("http provider needs llm_endpoint and llm_model in the config")
    return HttpLlmProvider(endpoint=cfg.llm_endpoint, model=cfg.llm_model)


def _read_class_list(args: argparse.Namespace) -> list[str]:
    if getattr(args, "classes", None):
        return [c.strip() for c in args.classes.split(",") if c.strip()]
    if getattr(args, "labels", None):
        return list(bench.catalog_from_manifest(args.labels).classes)
    raise ConfigError("provide --classes or --labels")


# ---------------------------------------------------------------------------
# commands

def _cmd_gen_peers(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    if args.n is not None:
        cfg = replace(cfg, peers_per_class=args.n)
    labels = _read_class_list(args)
    cache = LlmCache(args.cache) if args.cache else LlmCache()
    peer_cfg = cfg.peer_config()
    peer_set = generate_peer_classes(labels, peer_cfg, _make_provider(cfg), cache)
    save_peers(peer_set, peer_cfg, args.out)
    print(f"wrote {args.out}: {sum(len(v) for v in peer_set.peers.values())} peer labels "
          f"for {len(labels)} classes")
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    out_dir = Path(args.out)
    if args.import_path:
        matrix = import_embeddings(args.import_path)
        persist.write_bank(matrix.values, out_dir if out_dir.suffix else out_dir / "features.fb",
                           normalized=matrix.normalized)
        print(f"validated and re-wrote {matrix.rows}x{matrix.dim} bank")
        return 0
    if args.protocol != "synthetic":
        raise ConfigError("encode generates data only for --protocol synthetic; use --import for real banks")
    spec = cfg.synthetic_spec()
    names, raw, labels, is_train = bench.generate_synthetic_raw(spec)
    feats = toy_encode_images(raw, cfg.encoder_config())
    out_dir.mkdir(parents=True, exist_ok=True)
    persist.write_bank(feats.values[is_train], out_dir / "train.fb", normalized=True)
    persist.write_bank(feats.values[~is_train], out_dir / "test.fb", normalized=True)
    persist.write_bank(feats.values, out_dir / "all.fb", normalized=True)
    ids = [f"s{i:06d}" for i in range(feats.rows)]
    bench.write_manifest(out_dir / "labels.json", "synthetic", names, labels, is_train, ids)
    print(f"wrote synthetic banks + labels.json to {out_dir}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    features = import_embeddings(args.features)
    dataset = bench.load_manifest_dataset(args.labels, features)
    peer_set, peers_doc = load_peers(args.peers)
    settings = cfg.settings()
    peer_cfg = replace(settings.peer, description_template=peers_doc.get(
        "description_template", cfg.description_template))
    known = [dataset.class_names[g] for g in np.unique(dataset.labels[dataset.is_train])]
    state = bench.fit(dataset, known, peer_set, replace(settings, peer=peer_cfg), cfg.seed)
    save_checkpoint(state.head, args.out)
    write_loss_history(state.history, args.history)
    print(f"trained {cfg.epochs} epochs; checkpoint -> {args.out}, history -> {args.history}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    settings = cfg.settings()
    dataset = None
    catalog = None
    if args.protocol != "synthetic":
        if not args.features or not args.labels:
            raise ConfigError(f"protocol {args.protocol} needs --features and --labels")
        dataset = bench.load_manifest_dataset(args.labels, import_embeddings(args.features))
        catalog = bench.catalog_from_manifest(args.labels)
    result = bench.run_benchmark(
        args.protocol, args.repeats, settings, base_seed=cfg.seed,
        dataset=dataset, catalog=catalog,
    )
    bench.write_results_csv([result], args.out)
    print(f"{args.protocol}: AUROC {result.mean:.4f} +- {result.std:.4f} "
          f"over {args.repeats} repeats -> {args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    rows = bench.read_results_csv(args.results)
    if not rows:
        raise InvalidArgumentError(f"{args.results}: no result rows")
    bench.write_table_md(rows, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    features = import_embeddings(args.features)
    data = features.values
    labels = ["id"] * features.rows
    flags = [True] * features.rows
    ids = None
    if args.labels:
        dataset = bench.load_manifest_dataset(args.labels, features)
        labels = [dataset.class_names[int(g)] for g in dataset.labels]
        ids = dataset.sample_ids
    if args.ood_features:
        ood = import_embeddings(args.ood_features)
        data = np.vstack([data, ood.values])
        labels = labels + ["unknown"] * ood.rows
        flags = flags + [False] * ood.rows
        if ids is not None:
            ids = ids + [f"ood{i:06d}" for i in range(ood.rows)]
    bench.export_projection(data, labels, args.out, id_flags=flags, sample_ids=ids)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="odpc", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--config", default=None, help="config.json path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--offline", action="store_true")

    p = sub.add_parser("gen-peers", help="generate peer-class labels")
    common(p)
    p.add_argument("--classes", help="comma-separated ID class labels")
    p.add_argument("--labels", help="labels.json manifest to read classes from")
    p.add_argument("--provider", choices=["stub", "http"], default=None)
    p.add_argument("--n", type=int, default=None, help="peer labels per class")
    p.add_argument("--cache", default=None, help="llm_cache.json path")
    p.add_argument("--out", default="peers.json")
    p.set_defaults(func=_cmd_gen_peers)

    p = sub.add_parser("encode", help="produce feature bank files")
    common(p)
    p.add_argument("--protocol", default="synthetic")
    p.add_argument("--import", dest="import_path", default=None,
                   help="validate + rewrite an existing bank file")
    p.add_argument("--out", required=True, help="output directory (or file with --import)")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("train", help="train the projection head")
    common(p)
    p.add_argument("--features", required=True, help="feature bank (.fb) of all samples")
    p.add_argument("--labels", required=True, help="labels.json manifest")
    p.add_argument("--peers", required=True, help="peers.json")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--out", default="checkpoint.bin")
    p.add_argument("--history", default="loss_history.csv")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="run the benchmark pipeline")
    common(p)
    p.add_argument("--protocol", default="synthetic", choices=list(bench.PROTOCOLS))
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--features", default=None, help="feature bank for imported protocols")
    p.add_argument("--labels", default=None, help="labels manifest for imported protocols")
    p.add_argument("--out", default="results.csv")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="summarize results.csv as a markdown table")
    p.add_argument("--results", required=True)
    p.add_argument("--out", default="table.md")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("project", help="export a 2-D PCA of features")
    p.add_argument("--features", required=True)
    p.add_argument("--ood-features", default=None)
    p.add_argument("--labels", default=None)
    p.add_argument("--out", default="proj.csv")
    p.set_defaults(func=_cmd_project)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, InvalidArgumentError, FileNotFoundError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return USAGE_EXIT
    except OdpcError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
