"""Echo-state-network spatiotemporal classification with interchangeable
output layers: a ridge-trained linear readout and Tucker-2/HOOI
nearest-core classifiers, plus dataset tooling and a randomized
experiment harness."""

from .numlin import ridge_solve, SingularSystemError
from .tucker import TuckerModel, hooi, project_core, fit_per_class
from .esn import Reservoir, make_reservoir, run
from .classify import (OutputWeights, Prediction, train_output_weights,
                       classify_pointwise, classify_block,
                       classify_global_tensor, classify_perclass_tensor)
from .data import (Dataset, gen_sine_square, load_usps, load_jv, add_noise,
                   make_digit_file, make_vowel_files)
from .harness import (ExperimentConfig, ResultRow, run_experiment,
                      summarize, figure_series, template_config,
                      load_config, save_config)

__version__ = "0.1.0"
