"""Collaborative edge/cloud decoding with ratio verification and sparse
logit steering recovery."""

from .core import (
    PROB_FLOOR,
    ConfigError,
    DistributionError,
    PrivateContext,
    ProtocolConfig,
    SequenceError,
    SpecSteerError,
    VocabError,
    Vocabulary,
    kl_divergence,
    make_streams,
    softmax,
    total_variation,
)
from .fusion import (
    FusedTarget,
    fused_target,
    one_step_protocol_law,
    pmi_reward,
    recovery_distribution,
    verification_alpha,
)
from .models import NGramModel, TableModel, condition_private, train_ngram
from .protocol import (
    CloudVerifier,
    DraftBatch,
    EdgeSession,
    RoundTrace,
    SparseSteeringPayload,
    Verdict,
    autoregressive_decode,
    exact_partition_fn,
    run_session,
)
from .metrics import (
    LLM_PROFILE,
    SLM_PROFILE,
    ChannelModel,
    CostModel,
    LatencyModel,
    ModelProfile,
    acceptance_rate,
    expected_speedup,
    speedup,
    summarize,
)
from .toydata import ToyWorld, assemble_world, toy_world
from .transport import (
    FrameLog,
    run_edge_socket,
    run_simulated_session,
    scan_frame_log,
    serve_cloud_once,
)

__version__ = "0.1.0"
