"""Energy-based feature fusion between segmentation and depth, with
reliability-masked distillation, on deterministic synthetic scenes."""

from .autodiff import DiffGraph, Tensor, grad_check
from .config import CONFIG_KEYS, RunConfig, load_config, parse_config_text
from .fusion import (
    FusionParams,
    PatternPair,
    Scheme,
    eb2f_apply,
    fuse,
    hopfield_energy,
    hopfield_gradient,
    hopfield_update,
)
from .metrics import MetricsRow, build_data, build_model, evaluate, run_experiment
from .model import Mode, ModelParams, Predictions, forward_pass, init_model
from .numeric import ContractError
from .objectives import (
    IGNORE,
    LabelMap,
    LabelSource,
    LossBundle,
    berhu_loss,
    berhu_map,
    four_term_total,
    overall_loss,
    pseudo_label,
    seg_nll,
    supervised_loss,
)
from .reliability import (
    ReliabilityMask,
    depth_energy_map,
    energy_softmax_identity,
    free_energy_map,
    reliability_mask,
    rfa_dep_loss,
    rfa_seg_loss,
    rfa_total,
)
from .rng import RngState
from .scenes import Domain, Scene, ShiftSpec, gen_scene, make_domain_pair, shift_scene
# train() and sweep() are not re-exported: they would shadow their modules,
# so they are reached as energyfuse.train.train and energyfuse.sweep.sweep
from .sweep import write_loss_trace_csv, write_metrics_csv
from .tensor_io import dump_tensor, load_tensor
from .train import TrainingDiverged
from .verify import run_verification

__version__ = "0.1.0"
