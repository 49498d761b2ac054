"""Multi-metric MRF deformable registration with learned metric aggregation."""

from .volume import (
    ControlGrid,
    DeformationField,
    LabelSpace,
    SegmentationMask,
    Volume,
    interpolate_dense,
    make_control_grid,
    warp,
    warp_mask,
)
from .metrics import METRIC_NAMES, WeightMatrix
from .graphreg import (
    MrfInstance,
    PyramidConfig,
    build_instance,
    initialize_label_space,
    refine_label_space,
    register,
    solve,
)
from .learn import (
    TrainConfig,
    TrainingSample,
    assemble_model,
    impute_latent,
    most_violated,
    solve_qp,
    train_class,
)
from .evaluation import exact_dice, run_benchmark
from .synth import SynthSpec, synth_dataset

__version__ = "0.1.0"
