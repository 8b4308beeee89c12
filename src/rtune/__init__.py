"""Continual adaptation of frozen time-series forecasters via wavelet-guided
synthetic replay and temperature-scaled distillation."""

from .benchmark import desk_config, prepare_benchmark, run_arm
from .data import (gen_benchmark_tasks, make_windows, read_series_csv,
                   zscore_apply, zscore_fit, zscore_invert)
from .forecaster import (Forecaster, init_forecaster, load_checkpoint,
                         save_checkpoint)
from .metrics import evaluate_model, mae, mse, relative_change
from .reference import (build_train_set, distill_loss, soften,
                        soften_jacobian, split_train_test, task_loss,
                        total_loss)
from .replay import build_replay_set, sample_latents
from .tuner import (METHODS, TuneConfig, TuneReport, method_config, r_tune,
                    r_tune_group)
from .wavelet import FilterBank, build_db4_bank, rwt_decompose, rwt_reconstruct

__version__ = "0.1.0"

__all__ = [
    "FilterBank", "Forecaster", "TuneConfig", "TuneReport",
    "build_db4_bank", "rwt_decompose", "rwt_reconstruct",
    "sample_latents", "build_replay_set", "build_train_set",
    "init_forecaster", "soften", "soften_jacobian",
    "save_checkpoint", "load_checkpoint",
    "distill_loss", "task_loss", "total_loss",
    "METHODS", "method_config", "r_tune", "r_tune_group",
    "zscore_fit", "zscore_apply", "zscore_invert",
    "make_windows", "split_train_test", "read_series_csv",
    "gen_benchmark_tasks", "mae", "mse", "evaluate_model", "relative_change",
    "prepare_benchmark", "run_arm", "desk_config",
]
