"""Learned classifier-free guidance weights for diffusion samplers.

The package fits a guidance weight function omega(s, t, c) by asking the
guided sampler to be consistent with itself: pushing noisier points one
transition step toward the data should look, in distribution, like noising
the data directly. Everything runs on a 2D Gaussian-mixture test bed with
closed-form denoisers, so claims are checkable against exact math.
"""

from .denoisers import (AnalyticDenoiser, DenoiserTrainConfig, MogSpec, NeuralDenoiser,
                        posterior_mean, train_neural_denoiser)
from .evaluation import EvalReport, EvalRow, energy_mmd, mmd_with_se, run_figure_protocol
from .guidance import ConstantWeight, GuidanceNet, guided_denoise, mean_abs_weight
from .objectives import (MmdParams, ParticleBatch, TimePairSampler, build_particles,
                         guided_score_matching_loss, l2_loss, mmd_loss, reward_loss)
from .sampler import SampleConfig, sample, sample_trajectory
from .schedule import NoiseSchedule, ddim_transition, noise_sample
from .trainer import TrainConfig, TrainRecord, TrainingDiverged, train_guidance

__version__ = "0.1.0"

__all__ = [
    "AnalyticDenoiser", "ConstantWeight", "DenoiserTrainConfig", "EvalReport", "EvalRow",
    "GuidanceNet", "MmdParams", "MogSpec", "NeuralDenoiser", "NoiseSchedule", "ParticleBatch",
    "SampleConfig", "TimePairSampler", "TrainConfig", "TrainRecord",
    "TrainingDiverged", "build_particles", "ddim_transition", "energy_mmd",
    "guided_denoise", "guided_score_matching_loss", "l2_loss", "mean_abs_weight",
    "mmd_loss", "mmd_with_se", "noise_sample", "posterior_mean", "reward_loss",
    "run_figure_protocol", "sample", "sample_trajectory", "train_guidance",
    "train_neural_denoiser",
]
