"""OOD detection with LLM-generated peer classes, a contrastive projection
head over frozen encoders, and k-th nearest-neighbor scoring."""

from .bench import (
    BenchmarkSplit,
    ClassCatalog,
    EvalResult,
    PipelineSettings,
    SyntheticSpec,
    auroc,
    export_projection,
    make_split,
    openness,
    run_benchmark,
)
from .encoders import (
    EmbeddingMatrix,
    ToyEncoderConfig,
    import_embeddings,
    toy_encode_images,
    toy_encode_texts,
)
from .errors import (
    ConfigError,
    CorruptFileError,
    DegenerateBatchError,
    DivergenceError,
    FormatError,
    GenerationError,
    InvalidArgumentError,
    OdpcError,
    OfflineError,
    ShapeError,
)
from .head import MlpHead, forward, init_head, load_checkpoint, save_checkpoint
from .knn_detector import (
    Decision,
    FeatureBank,
    KnnConfig,
    build_bank,
    calibrate_threshold,
    detect,
    knn_scores,
)
from .losses import LossConfig, ce_loss, pcc_loss
from .peer_gen import (
    HttpLlmProvider,
    LlmCache,
    PeerClassSet,
    PeerGenConfig,
    StubProvider,
    build_prompt,
    generate_peer_classes,
    render_description,
)
from .trainer import TrainingConfig, TrainingState, lr_at, sgd_step, train

__version__ = "0.1.0"
