"""Signed-normalized-distance-map co-segmentation toolkit.

A numpy library (plus a thin CLI) covering the full pipeline: exact
Euclidean distance transforms, the signed normalized distance map codec,
an IOU-style loss family with analytic gradients, a small reverse-mode
autodiff engine, a toy dense Siamese U-Net, a deterministic synthetic
pair generator, and training/evaluation/ablation tooling.
"""

from .distance import boundary_mask, boundary_set, edt, edt_squared, edt_squared_brute
from .errors import SndmError
from .losses import (
    LossConfig,
    LossReport,
    grad_check_loss,
    loss_dice,
    loss_iou3d,
    loss_iou3d_edge,
    loss_iou3d_penalized,
    penalty_factor,
)
from .metrics import MetricsReport, jaccard, pixel_accuracy, precision
from .network import (
    NetConfig,
    NetParams,
    forward_pair,
    init_params,
    load_net,
    save_net,
)
from .raster import (
    read_float_map,
    read_image,
    read_mask,
    write_float_map,
    write_image,
    write_mask,
)
from .sndm import sndm_decode, sndm_encode
from .synth import GenConfig, PairSample, gen_dataset, gen_pair, load_dataset, make_pairs
# the function train() is not re-exported, so ``sndmseg.train`` names the module
from .train import (
    AblationConfig,
    AdamState,
    TrainConfig,
    TrainResult,
    ablation,
    adam_step,
    evaluate,
    grad_check_net,
    reference_config,
)

__all__ = [
    "AblationConfig",
    "AdamState",
    "GenConfig",
    "LossConfig",
    "LossReport",
    "MetricsReport",
    "NetConfig",
    "NetParams",
    "PairSample",
    "SndmError",
    "TrainConfig",
    "TrainResult",
    "ablation",
    "adam_step",
    "boundary_mask",
    "boundary_set",
    "edt",
    "edt_squared",
    "edt_squared_brute",
    "evaluate",
    "forward_pair",
    "gen_dataset",
    "gen_pair",
    "grad_check_loss",
    "grad_check_net",
    "init_params",
    "jaccard",
    "load_dataset",
    "load_net",
    "loss_dice",
    "loss_iou3d",
    "loss_iou3d_edge",
    "loss_iou3d_penalized",
    "make_pairs",
    "penalty_factor",
    "pixel_accuracy",
    "precision",
    "read_float_map",
    "read_image",
    "read_mask",
    "reference_config",
    "save_net",
    "sndm_decode",
    "sndm_encode",
    "write_float_map",
    "write_image",
    "write_mask",
]
