"""CritiFusion: inference-time semantic refinement for latent diffusion.

A critique committee scores how well a generated latent matches its
prompt; a confidence-adaptive scheduler turns the score into corrective
img2img parameters; a frequency-domain fusion keeps the base layout while
adopting the refined detail.  An exactly solvable toy backbone makes the
whole pipeline verifiable to numeric tolerance.
"""

from .cadr import CadrConfig, CadrParams, cadr_from_alignment
from .criticore import CommitteeConfig, PromptBundle, make_prompt_bundle
from .diffusion import Conditioning, VarianceSchedule, base_sample, make_schedule
from .latents import LatentField, read_latent, write_latent
from .pipeline import (
    PipelineConfig,
    RunRecord,
    SweepTable,
    ablate,
    run_critifusion,
    sweep_ensemble,
    sweep_k,
)
from .spectral import TaperSpec, spec_fuse

__version__ = "1.0.0"

__all__ = [
    "CadrConfig",
    "CadrParams",
    "cadr_from_alignment",
    "CommitteeConfig",
    "PromptBundle",
    "make_prompt_bundle",
    "Conditioning",
    "VarianceSchedule",
    "base_sample",
    "make_schedule",
    "LatentField",
    "read_latent",
    "write_latent",
    "PipelineConfig",
    "RunRecord",
    "SweepTable",
    "ablate",
    "run_critifusion",
    "sweep_ensemble",
    "sweep_k",
    "TaperSpec",
    "spec_fuse",
    "__version__",
]
