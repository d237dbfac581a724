"""Self-supervised video-level track representation learning and clustering."""

from .trackio import (
    EmbeddingTrack,
    SyntheticSpec,
    TrackSet,
    generate_synthetic,
    load_trackset,
    save_trackset,
)
from .constraints import CannotLinkMatrix, derive_cannot_links, sample_pairs
from .encoder import (
    EncoderConfig,
    EncoderParams,
    attention_profile,
    backward,
    forward_eval,
    forward_train,
    init_params,
)
from .vcl import (
    CentreTable,
    TrainConfig,
    grad_z,
    onecycle_lr,
    sample_clip_consecutive,
    train,
    update_centre,
    vc_loss,
)
from .baselines import pairwise_contrastive_loss, temporal_average, train_pairwise
from .clustereval import KnownK, Threshold, c_dif, hac, nmi, sdbw, wcp

__version__ = "0.1.0"
