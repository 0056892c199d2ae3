"""Secure SWIPT downlink optimization with an intelligent reflecting surface.

A multi-antenna access point serves an information receiver under a secrecy
constraint while an energy harvester collects power from the same signal; an
IRS with unit-modulus phase shifts assists.  Two alternating-optimization
solvers maximize the harvested power: a semidefinite-relaxation method (own
interior-point SDP solver included) that recovers its phase profile by
Gaussian randomization and takes the exact beamformer for it, and a
low-complexity successive-convex-approximation method with closed-form phase
updates; both share the exact fixed-profile beamformer step.  Brute-force
grid oracles and a batch experiment harness round out the package.
"""

from .channel import ChannelSet, ScenarioConfig, dbm_to_watt, generate_scenario, path_loss_gain
from .errors import (GridTooLarge, InvalidInput, IrsSwiptError, NotPSD, NumericalFailure,
                     PhaseStepInfeasible, SubproblemInfeasible)
from .experiments import ExperimentSpec, ResultRow, compare_complexity, emit_csv, parse_csv, run_experiment
from .linalg import herm_eig, max_eigval, psd_sqrt
from .metrics import (Beamformer, FeasibilityReport, PhaseProfile, SolveResult, check_feasible,
                      harvested_power, rate_bob, rate_eve, secrecy_rate)
from .oracle import GridSpec, grid_search_joint, grid_search_phases
from .sca import bisect_mu, build_phase_data, sca_ao, sca_w_step, u_of_mu
from .sdp import SdpProblem, SdpSolution, UnitDiagonalSdp, solve_sdp
from .sdr import randomize_v, randomize_w, sdr_ao, solve_v_sdp, solve_w_sdp

__version__ = "0.1.0"
