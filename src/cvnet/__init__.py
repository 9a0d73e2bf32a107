"""Complex-valued recurrent networks with Wirtinger-calculus autodiff."""

from .autodiff import (
    JacobianPair,
    Var,
    backward,
    backward_dual,
    compose_pairs,
    is_holomorphic_numeric,
    wirtinger_pair_numeric,
)
from .complex_ops import make_rng, sample_circular_gaussian
from .datagen import (
    DatasetBundle,
    DatasetKind,
    Observation,
    WaveformSpec,
    generate_bundle,
    read_dataset,
    split_frames,
    write_dataset,
)
from .gradcheck import run_gradcheck
from .nn import (
    ActivationKind,
    RecurrentModel,
    init_model,
    load_model,
    mse_loss,
    predict_frame,
    save_model,
)
from .spectral import dft, filter_response, idft
from .trainer import (
    SearchSpace,
    TrainConfig,
    TrialResult,
    evaluate,
    lr_at,
    random_search,
    train,
    zero_baseline_mse,
)

__all__ = [
    "ActivationKind",
    "DatasetBundle",
    "DatasetKind",
    "JacobianPair",
    "Observation",
    "RecurrentModel",
    "SearchSpace",
    "TrainConfig",
    "TrialResult",
    "Var",
    "WaveformSpec",
    "backward",
    "backward_dual",
    "compose_pairs",
    "dft",
    "evaluate",
    "filter_response",
    "generate_bundle",
    "idft",
    "init_model",
    "is_holomorphic_numeric",
    "load_model",
    "lr_at",
    "make_rng",
    "mse_loss",
    "predict_frame",
    "random_search",
    "read_dataset",
    "run_gradcheck",
    "sample_circular_gaussian",
    "save_model",
    "split_frames",
    "train",
    "wirtinger_pair_numeric",
    "write_dataset",
    "zero_baseline_mse",
]

__version__ = "0.1.0"
