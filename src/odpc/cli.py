"""Command-line pipeline orchestration.

One JSON config drives everything. Each key is a line of ``CONFIG_KEYS``
naming the dataclass field(s) it sets; its default and JSON type are that
field's. The flags --seed, --epochs, --provider, --n (peers_per_class) and,
on gen-peers, --offline override the config through the same table. Commands:

    gen-peers   generate peer labels -> peers.json
    encode      produce feature bank files (synthetic toy data, or re-validate imports)
    train       train the head on the manifest's train rows, with the config's
                variant (not passthrough) and the peers file's description
                template -> checkpoint + loss_history.csv
    eval        repeated split/train/score runs -> results.csv
    report      aggregate results.csv -> table.md
    project     2-D PCA of a feature bank -> proj.csv

``train`` and ``eval`` fit the head through the same ``bench.fit``, so a
config trains the same way in both.

Usage errors (bad config, missing inputs, arguments the parser rejects)
exit with code 2; runtime failures exit with code 1; each prints a one-line
JSON error to stderr.
Warnings (batches skipped in training, numpy's RuntimeWarnings) go to stdout
as ``warning:`` lines.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import warnings
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import bench, persist
from .encoders import EmbeddingMatrix, import_embeddings
from .errors import ConfigError, InvalidArgumentError, OdpcError, ShapeError
from .head import save_checkpoint
from .peer_gen import (
    HttpLlmProvider,
    LlmCache,
    StubProvider,
    generate_peer_classes,
    load_peers,
    save_peers,
)
from .trainer import write_loss_history

# Not called here since ``train`` fits through ``bench.fit``: perfbench's
# tracer (perfbench/spans.py TARGETS) wraps these attributes of odpc.cli.
from .encoders import toy_encode_texts  # noqa: F401
from .head import init_head  # noqa: F401
from .trainer import train  # noqa: F401

USAGE_EXIT = 2
RUNTIME_EXIT = 1
USAGE_ERRORS = (InvalidArgumentError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
                PermissionError)


@dataclass(frozen=True)
class CliConfig:
    """The pipeline settings plus the config keys only the CLI reads."""

    settings: bench.PipelineSettings = field(default_factory=bench.PipelineSettings)
    provider: str = "stub"
    llm_endpoint: str = ""
    llm_model: str = ""

    def __post_init__(self):
        if self.provider not in ("stub", "http"):
            raise ConfigError(f"provider must be 'stub' or 'http', got {self.provider!r}")


# JSON config key -> the CliConfig field path(s) it sets. A key's default
# and JSON type are those of the field, so a new key is a dataclass field
# plus one line here.
CONFIG_KEYS: dict[str, tuple[str, ...]] = {
    "epochs": ("settings.training.epochs",),
    "batch_size": ("settings.training.batch_size",),
    "lr": ("settings.training.lr",),
    "momentum": ("settings.training.momentum",),
    "step_size": ("settings.training.step_size",),
    "gamma": ("settings.training.gamma",),
    "seed": ("settings.training.seed", "settings.synthetic.seed"),
    "temperature": ("settings.training.loss.temperature",),
    "mix_lambda": ("settings.training.loss.mix_lambda",),
    "pcc_form": ("settings.training.loss.pcc_form",),
    "knn_k": ("settings.knn.k",),
    "target_tpr": ("settings.knn.target_tpr",),
    "peers_per_class": ("settings.peer.peers_per_class",),
    "prompt_template": ("settings.peer.prompt_template",),
    "description_template": ("settings.peer.description_template",),
    "max_requery_attempts": ("settings.peer.max_requery_attempts",),
    "offline": ("settings.peer.offline",),
    "encoder_seed": ("settings.encoder.seed",),
    "raw_dim": ("settings.encoder.raw_dim", "settings.synthetic.raw_dim"),
    "feature_dim": ("settings.encoder.out_dim",),
    "synthetic_center_scale": ("settings.synthetic.center_scale",),
    "synthetic_common_scale": ("settings.synthetic.common_scale",),
    "synthetic_noise_scale": ("settings.synthetic.noise_scale",),
    "variant": ("settings.variant",),
    "hidden_dims": ("settings.hidden_dims",),
    "provider": ("provider",),
    "llm_endpoint": ("llm_endpoint",),
    "llm_model": ("llm_model",),
}


def _fits(value, default) -> bool:
    """Whether a JSON value has the type of a field's default: a bool is no
    number, an int field takes no float, a float field takes no NaN, Infinity
    or integer beyond the float range, and a tuple is a list of its length."""
    if isinstance(default, tuple):
        return (isinstance(value, list) and len(value) == len(default)
                and all(map(_fits, value, default)))
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    if isinstance(default, float):
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, type(default))


def _set(obj, path: str, value):
    """``obj`` with the field at the dotted ``path`` replaced, rebuilding (and
    so re-checking) each dataclass on the way."""
    first, _, rest = path.partition(".")
    if rest:
        value = _set(getattr(obj, first), rest, value)
    return replace(obj, **{first: value})


def _apply_config(cfg: CliConfig, doc: dict, source: str) -> CliConfig:
    """Set each key of ``doc`` at its CONFIG_KEYS paths.

    A key not in the table, or a value whose JSON type differs from the
    field's default, is a ConfigError naming ``source`` and the key. Every
    rebuilt dataclass runs its own checks.
    """
    unknown = sorted(set(doc) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"{source}: unknown config keys {unknown}")
    defaults = CliConfig()
    for key, value in doc.items():
        paths = CONFIG_KEYS[key]
        default = attrgetter(paths[0])(defaults)
        if not _fits(value, default):
            raise ConfigError(f"{source}: config key {key!r} takes the JSON type of its "
                              f"default {json.dumps(default)}, got {json.dumps(value)}")
        if isinstance(value, list):
            value = tuple(value)
        for path in paths:
            cfg = _set(cfg, path, value)
    return cfg


def load_config(path: str | Path | None) -> CliConfig:
    """The module dataclasses' defaults, overridden by the JSON config at ``path``."""
    if path is None:
        return CliConfig()
    doc = persist.read_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return _apply_config(CliConfig(), doc, str(path))


def _command_config(args: argparse.Namespace) -> CliConfig:
    """``--config``'s settings, then the flags named after config keys."""
    flags = {key: getattr(args, key)
             for key in ("seed", "epochs", "provider", "offline", "peers_per_class")
             if getattr(args, key, None) is not None}
    return _apply_config(load_config(args.config), flags, "command line")


def _make_provider(cfg: CliConfig):
    if cfg.provider == "stub":
        return StubProvider(seed=cfg.settings.training.seed)
    if not cfg.llm_endpoint or not cfg.llm_model:
        raise ConfigError("http provider needs llm_endpoint and llm_model in the config")
    return HttpLlmProvider(endpoint=cfg.llm_endpoint, model=cfg.llm_model)


def _read_class_list(args: argparse.Namespace) -> list[str]:
    if getattr(args, "classes", None):
        return [c.strip() for c in args.classes.split(",") if c.strip()]
    if getattr(args, "labels", None):
        return bench.read_manifest(args.labels)["classes"]
    raise ConfigError("provide --classes or --labels")


# ---------------------------------------------------------------------------
# commands

def _cmd_gen_peers(args: argparse.Namespace) -> int:
    cfg = _command_config(args)
    labels = _read_class_list(args)
    peer_cfg = cfg.settings.peer
    peer_set = generate_peer_classes(labels, peer_cfg, _make_provider(cfg), LlmCache(args.cache or None))
    save_peers(peer_set, peer_cfg, args.out)
    print(f"wrote {args.out}: {sum(len(v) for v in peer_set.peers.values())} peer labels "
          f"for {len(labels)} classes")
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    settings = _command_config(args).settings
    out_dir = Path(args.out)
    if args.import_path:
        # Checked as import_embeddings checks it, then written back byte for byte.
        matrix = persist.republish_bank(
            args.import_path, out_dir if out_dir.suffix else out_dir / "features.fb", EmbeddingMatrix)
        print(f"validated and re-wrote {matrix.rows}x{matrix.dim} bank")
        return 0
    if args.protocol != "synthetic":
        raise ConfigError("encode generates data only for --protocol synthetic; use --import for real banks")
    ds = bench.synthetic_feature_dataset(settings.synthetic, settings.encoder)
    values = ds.features.values
    persist.write_bank(values[ds.is_train], out_dir / "train.fb", normalized=True)
    persist.write_bank(values[~ds.is_train], out_dir / "test.fb", normalized=True)
    persist.write_bank(values, out_dir / "all.fb", normalized=True)
    bench.write_manifest(out_dir / "labels.json", "synthetic", ds.class_names, ds.labels,
                         ds.is_train, ds.sample_ids)
    print(f"wrote synthetic banks + labels.json to {out_dir}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    settings = _command_config(args).settings
    dataset = bench.load_manifest_dataset(args.labels, import_embeddings(args.features))
    peer_set, _ = load_peers(args.peers)
    # The classes with train rows, in manifest order.
    known = [dataset.class_names[g] for g in np.unique(dataset.labels[dataset.is_train])]
    if len(known) < 2:
        raise ConfigError(f"--labels {args.labels}: {len(known)} class(es) have train rows; "
                          "training needs at least 2")
    missing = [name for name in known if name not in peer_set.peers]
    if missing:
        raise ConfigError(f"{args.peers}: no entry for classes {missing}")
    peers = replace(peer_set, peers={name: peer_set.peers[name] for name in known})
    training = settings.training
    state = bench.fit(dataset, peers, settings, training.seed)
    save_checkpoint(state.head, args.out)
    write_loss_history(state.history, args.history)
    print(f"trained {training.epochs} epochs; checkpoint -> {args.out}, history -> {args.history}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    settings = _command_config(args).settings
    dataset = None
    if args.protocol == "synthetic":
        if args.features or args.labels:
            raise ConfigError("--protocol synthetic makes its own data and takes no --features "
                              "or --labels; evaluate an imported bank with --protocol cifar10_6v4")
    elif not args.features or not args.labels:
        raise ConfigError(f"protocol {args.protocol} needs --features and --labels")
    else:
        dataset = bench.load_manifest_dataset(args.labels, import_embeddings(args.features))
    result = bench.run_benchmark(
        args.protocol, args.repeats, settings, base_seed=settings.training.seed, dataset=dataset,
    )
    bench.write_results_csv(result, args.out)
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
        if ood.dim != features.dim:
            raise ShapeError(f"{args.ood_features} is {ood.dim}-d but {args.features} is {features.dim}-d")
        data = np.vstack([data, ood.values])
        labels = labels + ["unknown"] * ood.rows
        flags = flags + [False] * ood.rows
        if ids is not None:
            ids = ids + [f"ood{i:06d}" for i in range(ood.rows)]
    bench.export_projection(data, labels, args.out, id_flags=flags, sample_ids=ids)
    print(f"wrote {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Rejections are ConfigErrors for ``main``'s JSON line; sub-commands share the class."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="odpc", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--config", default=None, help="config.json path")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("gen-peers", help="generate peer-class labels")
    common(p)
    p.add_argument("--offline", action="store_const", const=True, default=None)
    p.add_argument("--classes", help="comma-separated ID class labels")
    p.add_argument("--labels", help="labels.json manifest to read classes from")
    p.add_argument("--provider", choices=["stub", "http"], default=None)
    p.add_argument("--n", dest="peers_per_class", type=int, default=None,
                   help="peer labels per class")
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
    log = logging.getLogger("odpc")
    handler = logging.StreamHandler(sys.stdout)  # both undone on return: main may run again
    handler.setFormatter(logging.Formatter("warning: %(message)s"))
    log.addHandler(handler)
    shown = warnings.showwarning
    # Python warnings (numpy's RuntimeWarnings among them) take the same stdout lines.
    warnings.showwarning = lambda message, category, *_: log.warning(
        "%s: %s", category.__name__, message)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # only --help exits, with 0, once its usage is on stdout
        return exc.code
    except (OdpcError, OSError, MemoryError) as exc:  # numpy's MemoryError is a private subclass
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(json.dumps({"error": name, "message": str(exc)}), file=sys.stderr)
        return USAGE_EXIT if isinstance(exc, USAGE_ERRORS) else RUNTIME_EXIT
    finally:
        warnings.showwarning = shown
        log.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
