"""Coverage and spectral efficiency of mmWave wearable networks under
human-body blockage: closed-form expressions and a Monte Carlo simulator."""

from .model import (ConfigError, GainPairTable, NetworkConfig, SectorPattern,
                    config_from_keys, config_hash, db_to_linear, gain_pairs,
                    linear_to_db, load_config, parse_config_text, validate,
                    with_overrides)
from .geometry import (blockage_probability, blocking_area, classify_los,
                       sample_ppp_annulus, sample_ppp_disk)
from .losball import (los_ball_radius, los_ball_radius_limit,
                      mean_los_interferers)
from .quadrature import (QuadratureNotConverged, adaptive_gauss_legendre,
                         integrate_batch)
from .analytic import (CoverageParams, beta_tilde, coverage_ccdf,
                       coverage_params, ergodic_spectral_efficiency,
                       laplace_term, nlos_mean_power, spectral_efficiency_ccdf)
from .mcsim import (FULL, LOSBALL, EmpiricalDistribution, empirical_ccdf,
                    estimate_ergodic_se, estimate_mean_los_count,
                    sample_full_field, sample_nakagami_power, simulate_ccdf,
                    simulate_se_ccdf, simulate_sinr_samples)
from .experiments import (ExperimentPlan, IoError, ToleranceExceeded,
                          UnknownFigure, emit_figure_config, run_plan,
                          write_csv)

__version__ = "0.1.0"
