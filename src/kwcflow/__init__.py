"""Solver and verification suite for coupled grain-boundary order-parameter flows."""

from .grid import (Grid, build_grid, save_field, load_field, cosine_field, bump_field,
                   random_smooth_field)
from .model import (Parameters, ModelFunctions, ModelBounds, AssumptionReport,
                    reference_model, gamma_eps, grad_gamma_eps, hess_gamma_eps,
                    angle_gradient, interfacial_energy, interfacial_flux, interfacial_force,
                    kwc_energy, EnergyBreakdown, validate_assumptions)
from .elliptic import (SolveReport, SolverError, LinearResolventProblem,
                       linear_resolvent, SingularResolventProblem,
                       singular_resolvent, check_h2_bound)
from .evolution import (SystemState, Forcings, Trajectory,
                        StepFailedError, compile_expression,
                        prepare_initial_theta, initial_velocities, run,
                        energy_inequality_residual, write_timeseries)

__version__ = "0.1.0"
