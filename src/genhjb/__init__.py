"""Generator learning and HJB synthesis for controlled diffusions.

The package learns the infinitesimal generator of a control-affine
stochastic system from drift samples by kernel ridge regression, then
solves a finite-dimensional Hamilton-Jacobi-Bellman final-value problem in
the same kernel basis to produce a value function and a feedback policy.
"""

from .dynamics import (ControlAffineSystem, GeneratorDataset, StateGridSpec,
                       accumulated_cost, dataset_from_states,
                       drift_under_input, generate_dataset, read_dataset,
                       simulate_closed_loop, write_dataset)
from .errors import (ConditioningError, ConfigError, DivergenceError,
                     NumericalDomainError, NumericalError, StepSizeError)
from .evaluation import (CostBenchSpec, PipelineSpec, SweepSpec,
                         rmse_to_reference, run_cost_bench, run_pipeline,
                         run_sweep)
from .generator import (GeneratorModel, fit, generator_apply, load_model,
                        save_model, target_kernel_matrix)
from .hjb import (HjbConfig, HjbSolution, load_solution, policy_at, policy_on,
                  save_solution, smoothed_policy_at, solve_fvp, value_at,
                  value_on)
from .kernels import KernelSpec, fd_check_derivatives
from .penalty import (ControlPenalty, conjugate, dual_value,
                      symmetric_box_penalty, u_star)
from .systems import (Benchmark, cartpole_systems, linear_1d_system,
                      linear_2d_system, lqr_feedback, make_benchmark,
                      pendulum_systems)

__version__ = "0.1.0"
