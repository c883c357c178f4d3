"""Trainable MLP head on top of the frozen encoders.

Three shared fully connected layers (ReLU between them) project both image
and text features; a final affine classifier maps the last projection to
one logit per in-distribution class plus one per distinct peer label. Only
image features are ever classified; peer logits exist as extra rejection
capacity and receive no cross-entropy supervision.

Parameters are held as float32 (the storage precision); all math upcasts
to float64. ``float64_head`` makes that upcast once, so a caller that runs
the forward and the backward of one step shares a single copy.

Checkpoints are ``persist`` manifest frames; this module builds and checks the manifest.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import persist
from .encoders import EmbeddingMatrix
from .errors import FormatError, InvalidArgumentError, ShapeError

CK_MAGIC = b"ODPCCK01"
CK_VERSION = 1

N_SHARED_LAYERS = 3


@dataclass
class MlpHead:
    weights: list[np.ndarray]      # N_SHARED_LAYERS of (dim, dim), applied as x @ W.T
    biases: list[np.ndarray]       # N_SHARED_LAYERS of (dim,)
    clf_weight: np.ndarray         # (num_outputs, dim)
    clf_bias: np.ndarray           # (num_outputs,)
    num_id_classes: int
    num_peer_outputs: int
    seed: int
    epoch: int = 0

    @property
    def feature_dim(self) -> int:
        return int(self.weights[0].shape[1])

    @property
    def num_outputs(self) -> int:
        return int(self.clf_weight.shape[0])

    def param_items(self) -> list[tuple[str, np.ndarray]]:
        """Named parameters in canonical (checkpoint) order."""
        return named_tensors(self)


def tensor_names(n_layers: int = N_SHARED_LAYERS) -> list[str]:
    """Parameter names in canonical (checkpoint) order."""
    names = [f"fc{i}.{kind}" for i in range(1, n_layers + 1) for kind in ("weight", "bias")]
    return names + ["classifier.weight", "classifier.bias"]


def named_tensors(params) -> list[tuple[str, np.ndarray]]:
    """(name, array) pairs of a head, or of anything laid out like one
    (``weights``, ``biases``, ``clf_weight``, ``clf_bias``), in canonical order."""
    arrays = [a for pair in zip(params.weights, params.biases) for a in pair]
    arrays += [params.clf_weight, params.clf_bias]
    return list(zip(tensor_names(len(params.weights)), arrays))


@dataclass
class ForwardActivations:
    per_layer: list[np.ndarray]    # post-ReLU outputs of the shared layers, (batch, dim) each
    logits: np.ndarray             # (batch, num_outputs)


def init_head(
    num_id_classes: int,
    num_peer_outputs: int,
    seed: int,
    feature_dim: int = 512,
    hidden_dims: tuple[int, ...] | None = None,
) -> MlpHead:
    """Initialize a head: weights uniform in +-1/sqrt(fan_in), biases zero.

    hidden_dims defaults to (feature_dim,) * 3; exactly three shared layers
    are supported.
    """
    if num_id_classes < 2:
        raise InvalidArgumentError(f"need at least 2 ID classes, got {num_id_classes}")
    if num_peer_outputs < 0:
        raise InvalidArgumentError(f"num_peer_outputs must be >= 0, got {num_peer_outputs}")
    dims = tuple(hidden_dims) if hidden_dims is not None else (feature_dim,) * N_SHARED_LAYERS
    if len(dims) != N_SHARED_LAYERS:
        raise InvalidArgumentError(f"exactly {N_SHARED_LAYERS} hidden dims required, got {dims}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    weights, biases = [], []
    fan_in = feature_dim
    for dim in dims:
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(dim, fan_in)).astype(np.float32)
        weights.append(w)
        biases.append(np.zeros(dim, dtype=np.float32))
        fan_in = dim
    num_outputs = num_id_classes + num_peer_outputs
    bound = 1.0 / np.sqrt(fan_in)
    clf_w = rng.uniform(-bound, bound, size=(num_outputs, fan_in)).astype(np.float32)
    clf_b = np.zeros(num_outputs, dtype=np.float32)
    return MlpHead(
        weights=weights,
        biases=biases,
        clf_weight=clf_w,
        clf_bias=clf_b,
        num_id_classes=num_id_classes,
        num_peer_outputs=num_peer_outputs,
        seed=seed,
    )


def _f64(arr: np.ndarray) -> np.ndarray:
    return np.asarray(arr, dtype=np.float64)


def float64_head(head: MlpHead) -> MlpHead:
    """The head with every parameter cast to float64; float64 ones are shared."""
    return replace(
        head,
        weights=[_f64(w) for w in head.weights],
        biases=[_f64(b) for b in head.biases],
        clf_weight=_f64(head.clf_weight),
        clf_bias=_f64(head.clf_bias),
    )


def _as_batch(features: EmbeddingMatrix | np.ndarray) -> np.ndarray:
    values = features.values if isinstance(features, EmbeddingMatrix) else features
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D batch, got shape {arr.shape}")
    return arr


def forward_with_cache(
    head: MlpHead, features: EmbeddingMatrix | np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Forward pass keeping what backprop needs.

    Returns (hs, zs, logits) where hs[0] is the input and hs[l] the
    post-ReLU output of layer l, zs[l-1] its pre-activation. Parameters
    are cast to float64 here unless they already are (see ``float64_head``).
    """
    x = _as_batch(features)
    if x.shape[1] != head.feature_dim:
        raise ShapeError(
            f"feature dim {x.shape[1]} does not match head dim {head.feature_dim}"
        )
    hs = [x]
    zs = []
    for w, b in zip(head.weights, head.biases):
        z = hs[-1] @ _f64(w).T + _f64(b)
        zs.append(z)
        hs.append(np.maximum(z, 0.0))
    logits = hs[-1] @ _f64(head.clf_weight).T + _f64(head.clf_bias)
    return hs, zs, logits


def softmax(logits: np.ndarray) -> np.ndarray:
    if logits.shape[0] == 0:
        return np.zeros_like(logits)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def forward(head: MlpHead, features: EmbeddingMatrix | np.ndarray) -> ForwardActivations:
    """Run features through the shared layers and the classifier.

    Image and text features go through the same three layers; the caller
    decides which logits (image ones) feed the cross-entropy.
    """
    hs, _, logits = forward_with_cache(head, features)
    return ForwardActivations(per_layer=hs[1:], logits=logits)


def save_checkpoint(head: MlpHead, path: str | Path) -> None:
    """Write all parameters plus metadata; atomic, lossless for float32."""
    items = head.param_items()
    manifest = {
        "version": CK_VERSION,
        "feature_dim": head.feature_dim,
        "hidden_dims": [int(w.shape[0]) for w in head.weights],
        "num_id_classes": head.num_id_classes,
        "num_peer_outputs": head.num_peer_outputs,
        "seed": head.seed,
        "epoch": head.epoch,
        "tensors": [{"name": name, "shape": list(np.shape(arr))} for name, arr in items],
    }
    persist.write_manifest_frame(path, CK_MAGIC, manifest, [arr for _, arr in items])


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _tensor_shapes(path: str | Path, manifest: dict) -> list[list[int]]:
    """Validate a checkpoint manifest; returns its tensor shapes in file order."""
    if manifest.get("version") != CK_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {manifest.get('version')}")
    counts = ("num_id_classes", "num_peer_outputs", "seed", "epoch")
    if not all(_is_count(manifest.get(key)) for key in counts):
        raise FormatError(f"{path}: manifest lacks one of the non-negative integers {list(counts)}")
    tensors = manifest.get("tensors")
    if not isinstance(tensors, list) or not all(
        isinstance(t, dict) and isinstance(t.get("shape"), list) and all(map(_is_count, t["shape"]))
        for t in tensors
    ):
        raise FormatError(f"{path}: manifest tensors are not a list of named shapes")
    if sorted(str(t.get("name")) for t in tensors) != sorted(tensor_names()):
        raise FormatError(f"{path}: unexpected tensor set {[t.get('name') for t in tensors]}")
    return [t["shape"] for t in tensors]


def load_checkpoint(path: str | Path) -> MlpHead:
    """Read a checkpoint back; validates magic, manifest, sizes, and CRC."""
    manifest, tensors = persist.read_manifest_frame(path, CK_MAGIC, _tensor_shapes)
    arrays = dict(zip((t["name"] for t in manifest["tensors"]), tensors))
    shapes = [arrays[name].shape for name in tensor_names()]
    fan_in = shapes[0][1:]
    for weight, bias in zip(shapes[::2], shapes[1::2]):
        if len(weight) != 2 or weight[1:] != fan_in or bias != weight[:1]:
            raise FormatError(f"{path}: tensor shapes do not chain fc1 -> fc2 -> fc3 -> classifier")
        fan_in = weight[:1]
    head = MlpHead(
        weights=[arrays[f"fc{i}.weight"] for i in range(1, N_SHARED_LAYERS + 1)],
        biases=[arrays[f"fc{i}.bias"] for i in range(1, N_SHARED_LAYERS + 1)],
        clf_weight=arrays["classifier.weight"],
        clf_bias=arrays["classifier.bias"],
        num_id_classes=manifest["num_id_classes"],
        num_peer_outputs=manifest["num_peer_outputs"],
        seed=manifest["seed"],
        epoch=manifest["epoch"],
    )
    if head.num_outputs != head.num_id_classes + head.num_peer_outputs:
        raise FormatError(f"{path}: classifier rows disagree with class counts")
    return head
