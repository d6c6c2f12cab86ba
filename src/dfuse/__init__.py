"""Desk-scale teacher-student dual-encoder refinement with weight-space fusion.

The pipeline: generate a synthetic corpus with planted video-text
correspondence, pretrain a teacher on single-frame pairs, train a student on
labeled pairs plus teacher-distilled soft targets over unlabeled data, blend
teacher and student weights, and evaluate zero-shot retrieval and
classification with diagnostic exports.
"""

from .checkpointio import Checkpoint, load_checkpoint, save_checkpoint
from .corpus import (
    Corpus,
    SynthConfig,
    build_corpus,
    gen_corpus,
    load_corpus,
)
from .encoder import (
    EncoderConfig,
    ParamVector,
    encode_text_batch,
    encode_video_batch,
    init_params,
    sample_frame_indices,
    sample_frames,
)
from .errors import (
    CheckpointChecksumError,
    CheckpointFormatError,
    CheckpointLayoutError,
    CheckpointMagicError,
    CorpusFormatError,
    CorpusRecordError,
    DegenerateEmbeddingError,
    DfuseError,
    TrainingDivergedError,
    UsageError,
    ValidationError,
)
from .evaluation import (
    DEFAULT_TEMPLATE,
    EvalReport,
    PromptSet,
    RankList,
    build_prompt_set,
    class_embeddings,
    delta_table,
    evaluate_model,
    median_rank,
    prepare_eval,
    rank_distribution,
    recall_at_k,
    retrieval_ranks,
    topk_accuracy,
)
from .fusion import FusionConfig, fuse_weights, sweep_alpha
from .gradcheck import finite_difference_grad, run_gradcheck
from .losses import LossConfig, total_loss_grad
from .numerics import l2_normalize_rows, similarity_matrix
from .training import (
    OptimizerState,
    TrainConfig,
    adamw_step,
    init_optimizer_state,
    make_pseudo_labels,
    pretrain_teacher,
    train_student,
    validation_loss,
)

__version__ = "0.1.0"
