"""One-bit compressed sensing with generative priors.

A numpy library covering the full pipeline: ReLU generators, correlated
one-bit measurement sampling, latent least-squares decoding with sparse
baselines, Monte-Carlo validators for the supporting random-matrix theory,
and constructive ReLU memorization networks, plus a reproducible experiment
harness with a CLI (``obgcs``).
"""

from .decoders import (DecoderResult, LsDecoderConfig, biht_decode,
                       estimation_error, hard_threshold, ls_decode,
                       project_l1_ball, pv_convex_decode)
from .errors import (CapacityError, DegenerateConeError, DimensionMismatchError,
                     DivergenceError, MalformedFileError, NonFiniteError, ObgcsError,
                     ShapeError)
from .generator import (GeneratorNetwork, architecture_summary, forward,
                        forward_batch, latent_vjp, latent_vjp_batch,
                        lipschitz_upper_bound, synth_generator)
from .harness import (CellResult, ExperimentGrid, fit_scaling,
                      flip_robustness_report, read_csv, run_grid, write_csv)
from .measurement import (BinaryObservation, CovarianceSpec, MeasurementEnsemble,
                          observe, sample_ensemble, scaling_constant, sigma_norm,
                          sign_pm1)
from .memorizer import (MemorizerNet, build_indexed_memorizer,
                        build_theorem_generator, recall_bit)
from .serialization import (load_ensemble, load_generator, load_observation,
                            save_ensemble, save_generator, save_observation)
from .theory import (EpsNet, MeanWidthEstimate, SrecReport, build_eps_net,
                     check_jl, check_srec, concentration_diagnostics,
                     estimate_local_mean_width, mean_width_of_directions)

__version__ = "0.1.0"
