"""Design and verification toolkit for sliding-mode control of buildings
with an active tuned mass damper: modal reduction, pole-placement sliding
design, frequency-band tuning, an LQR baseline, and a nonlinear earthquake
simulator."""

from .errors import ConfigError, InfeasibleTuningError, NumericalError
from .freqresp import (DEFAULT_BAND, DEFAULT_SAMPLES, dump_frequency_response,
                       frequency_grid)
from .lqr import (LqrResult, LqrSpec, MaxValues, bryson_weights,
                  lqr_equivalent_polespec, solve_lqr, solve_riccati)
from .sim import (Accelerogram, FeedbackLaw, LqrControl, PassiveControl, ReachingReport,
                  SimulationTrace, SmcControl, load_accelerogram, reaching_check,
                  simulate, summarize, synthetic_accelerogram, write_trace_csv)
from .smc import SlidingDesign, design_sliding_controller, switching_gain
from .structure import (AtmdParams, BuildingModel, BuildingSetup,
                        ExcitationBounds, ModalModel, PlantStateSpace,
                        RayleighSpec, assemble_plant, build_shear_building,
                        controllability_matrix, controllability_rcond,
                        load_building_config, modal_reduce, natural_modes,
                        plant_from_setup, rayleigh_damping)
from .tuning import (KappaBounds, TuningConfig, TuningResult, export_mesh, feasible_region,
                     load_tuning_config, tune)

__version__ = "0.1.0"
