"""Trainable MLP head on top of the frozen encoders.

Three shared fully connected layers (ReLU between them) project both image
and text features; a final affine classifier maps the last projection to
one logit per in-distribution class plus one per distinct peer label. Only
image features are ever classified; peer logits exist as extra rejection
capacity and receive no cross-entropy supervision.

All parameters live in one flat float32 array, ``MlpHead.params``, in
checkpoint order (``tensor_names``); ``weights``, ``biases``, ``clf_weight``
and ``clf_bias`` are views into it. All math runs in float64.
``MlpHead.like`` lays the same views over another flat buffer: a training
run's float64 mirror of the parameters and its gradient share the layout,
so the optimizer updates them in one pass over one array.

Checkpoints are ``persist`` manifest frames whose payload is ``params``;
this module builds and checks the manifest.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import persist
from .errors import FormatError, InvalidArgumentError, ShapeError

CK_MAGIC = b"ODPCCK01"
CK_VERSION = 1

N_SHARED_LAYERS = 3


def tensor_names() -> list[str]:
    """Parameter names in canonical (checkpoint) order."""
    names = [f"fc{i}.{kind}" for i in range(1, N_SHARED_LAYERS + 1) for kind in ("weight", "bias")]
    return names + ["classifier.weight", "classifier.bias"]


def param_shapes(dims: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Parameter shapes, in ``tensor_names`` order, for layer widths ``dims``."""
    return [shape for fan_in, width in zip(dims, dims[1:]) for shape in ((width, fan_in), (width,))]


@dataclass
class MlpHead:
    params: np.ndarray             # every parameter, flat, in tensor_names() order
    dims: tuple[int, ...]          # feature_dim, the N_SHARED_LAYERS hidden widths, classifier rows
    num_id_classes: int
    num_peer_outputs: int
    seed: int
    epoch: int = 0
    # Views into params, set by __post_init__. A weight is (width, fan_in), applied as x @ W.T.
    weights: list[np.ndarray] = field(init=False, repr=False, compare=False)
    biases: list[np.ndarray] = field(init=False, repr=False, compare=False)
    clf_weight: np.ndarray = field(init=False, repr=False, compare=False)
    clf_bias: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.dims = tuple(map(int, self.dims))
        if len(self.dims) != N_SHARED_LAYERS + 2:
            raise ShapeError(f"a head has {N_SHARED_LAYERS + 2} layer widths, got {self.dims}")
        shapes = param_shapes(self.dims)
        sizes = [math.prod(shape) for shape in shapes]
        if np.shape(self.params) != (sum(sizes),):
            raise ShapeError(f"params of shape {np.shape(self.params)} do not hold the "
                             f"{sum(sizes)} parameters of layer widths {self.dims}")
        parts = np.split(self.params, np.cumsum(sizes)[:-1])
        views = [part.reshape(shape) for part, shape in zip(parts, shapes)]
        self.weights, self.biases = views[0:-2:2], views[1:-2:2]
        self.clf_weight, self.clf_bias = views[-2:]

    @property
    def feature_dim(self) -> int:
        return self.dims[0]

    def like(self, flat: np.ndarray) -> MlpHead:
        """This head's layout and metadata laid over ``flat`` (shared, not copied)."""
        return replace(self, params=flat)


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
    hidden = tuple(hidden_dims) if hidden_dims is not None else (feature_dim,) * N_SHARED_LAYERS
    if len(hidden) != N_SHARED_LAYERS:
        raise InvalidArgumentError(f"exactly {N_SHARED_LAYERS} hidden dims required, got {hidden}")
    dims = (feature_dim, *hidden, num_id_classes + num_peer_outputs)
    size = sum(math.prod(shape) for shape in param_shapes(dims))
    head = MlpHead(np.zeros(size, dtype=np.float32), dims, num_id_classes, num_peer_outputs, seed)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    for w in head.weights + [head.clf_weight]:
        bound = 1.0 / np.sqrt(w.shape[1])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return head


def _f64(arr: np.ndarray) -> np.ndarray:
    return np.asarray(arr, dtype=np.float64)


def _as_batch(features: np.ndarray) -> np.ndarray:
    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D batch, got shape {arr.shape}")
    return arr


def forward_with_cache(head: MlpHead, features: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Forward pass keeping what backprop needs.

    Returns (hs, logits) where hs[0] is the input and hs[l] the post-ReLU
    output of layer l, written over its own pre-activation: backprop masks
    with ``hs[l] > 0``, which holds where the pre-activation is positive.
    Parameters are cast to float64 here unless they already are (see
    ``MlpHead.like``).
    """
    x = _as_batch(features)
    if x.shape[1] != head.feature_dim:
        raise ShapeError(
            f"feature dim {x.shape[1]} does not match head dim {head.feature_dim}"
        )
    hs = [x]
    for w, b in zip(head.weights, head.biases):
        z = hs[-1] @ _f64(w).T + _f64(b)
        hs.append(np.maximum(z, 0.0, out=z))
    logits = hs[-1] @ _f64(head.clf_weight).T + _f64(head.clf_bias)
    return hs, logits


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def forward(head: MlpHead, features: np.ndarray) -> list[np.ndarray]:
    """The post-ReLU outputs of the shared layers, (batch, width) each.

    Image and text features go through the same three layers.
    """
    return forward_with_cache(head, features)[0][1:]


def _manifest(dims: tuple[int, ...], num_id_classes: int, num_peer_outputs: int,
              seed: int, epoch: int) -> dict:
    """The checkpoint manifest of a head with these layer widths and counts:
    what ``save_checkpoint`` writes, and all that ``load_checkpoint`` accepts."""
    tensors = [{"name": name, "shape": list(shape)}
               for name, shape in zip(tensor_names(), param_shapes(dims))]
    return {"version": CK_VERSION, "feature_dim": dims[0], "hidden_dims": list(dims[1:-1]),
            "num_id_classes": num_id_classes, "num_peer_outputs": num_peer_outputs,
            "seed": seed, "epoch": epoch, "tensors": tensors}


def save_checkpoint(head: MlpHead, path: str | Path) -> None:
    """Write all parameters plus metadata; atomic, lossless for float32."""
    manifest = _manifest(head.dims, head.num_id_classes, head.num_peer_outputs, head.seed, head.epoch)
    persist.write_manifest_frame(path, CK_MAGIC, manifest, [head.params])


def _declared(path: str | Path, manifest: dict) -> tuple:
    """The ``_manifest`` arguments ``manifest`` declares; FormatError unless its
    widths and counts are non-negative integers, with N_SHARED_LAYERS hidden widths."""
    keys = ("feature_dim", "num_id_classes", "num_peer_outputs", "seed", "epoch")
    counts, hidden = [manifest.get(key) for key in keys], manifest.get("hidden_dims")
    if not (isinstance(hidden, list) and len(hidden) == N_SHARED_LAYERS and all(
            isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in counts + hidden)):
        raise FormatError(f"{path}: manifest lacks one of the non-negative integers {list(keys)} "
                          f"or the {N_SHARED_LAYERS} of hidden_dims")
    feature_dim, num_id_classes, num_peer_outputs, seed, epoch = counts
    dims = (feature_dim, *hidden, num_id_classes + num_peer_outputs)
    return dims, num_id_classes, num_peer_outputs, seed, epoch


def _payload_shape(path: str | Path, manifest: dict) -> list[tuple[int]]:
    """Check that ``manifest`` is the one ``_manifest`` makes of the widths and
    counts it declares; returns the one flat shape of its payload."""
    if manifest.get("version") != CK_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {manifest.get('version')}")
    declared = _declared(path, manifest)
    if json.dumps(manifest, sort_keys=True) != json.dumps(_manifest(*declared), sort_keys=True):
        raise FormatError(f"{path}: manifest is not what a head of widths {list(declared[0])} is saved with")
    return [(sum(math.prod(shape) for shape in param_shapes(declared[0])),)]


def load_checkpoint(path: str | Path) -> MlpHead:
    """Read a checkpoint back; validates magic, manifest, sizes, and CRC.

    The manifest must be exactly the one ``save_checkpoint`` writes for the
    widths and counts it declares; the payload is read straight into the
    head's flat ``params``.
    """
    manifest, (params,) = persist.read_manifest_frame(path, CK_MAGIC, _payload_shape)
    return MlpHead(params, *_declared(path, manifest))
