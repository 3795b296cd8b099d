"""Two-stage video latent generation toolkit.

Stage 1 ("preview"): flow-matching ODE sampling that starts at the model's
optimal resolution, then downscales the clean-latent estimate and reinjects
noise to finish cheaply at low resolution.  Stage 2 ("refine"): a small
shift-window-attention transformer trained on degraded/clean latent pairs
upsamples the preview in a handful of steps.  A closed-form cost model
accounts for the FLOPs of both stages.
"""

from .costmodel import (
    PipelineSpec,
    StageSpec,
    affine_fit,
    recommended_pipeline,
    pipeline_report,
    stage_flops,
    step_division_curve,
)
from .denoiser import (
    AdamW,
    DegradationConfig,
    DenoiserParams,
    ToyCodec,
    TrainConfig,
    backward,
    degrade_pair,
    forward_velocity,
    load_checkpoint,
    refine,
    refiner_loss,
    save_checkpoint,
    synth_video,
    train_base,
    train_refiner,
)
from .errors import ConfigError, ContractError, FormatError, ShapeError, VidflowError
from .grids import (
    Extent5,
    LatentGrid,
    Rng,
    axpy,
    mse,
    read_lgr1,
    resize_spatial,
    sample_gaussian,
    write_lgr1,
)
from .preview import (
    Conditioning,
    PreviewConfig,
    PreviewResult,
    SigmaSchedule,
    build_schedule,
    estimate_clean,
    euler_step,
    generate_preview,
    reshift_noise,
    sample_ode,
)
from .windows import (
    AttentionWeights,
    BlockWeights,
    RoPEConfig,
    WindowSpec,
    swin_block_pair,
    window_attention,
)

__version__ = "0.1.0"
