"""Learn a feedback for dx = (x + u) dt and compare it with the exact one.

For q(x) = 1.5 x^2 and r(u) = u^2 / 2 the stationary Riccati equation
p^2 - 2p - 3 = 0 gives p = 3, so the optimal feedback is u*(x) = -3x.
The pipeline below never sees that answer; it learns the generator from
drift samples and recovers the policy from the value function.
"""
from functools import partial

import numpy as np

from genhjb import KernelSpec, PipelineSpec, make_benchmark, run_pipeline
from genhjb.evaluation import rmse_to_reference
from genhjb.hjb import HjbConfig, policy_at, policy_on, value_at

# linear-1d is this plant on a 200-point grid over [-2, 2], with
# q(x) = 1.5 x^2 and r(u) = u^2 / 2 on the box |u| <= 5
bench = make_benchmark("linear-1d")
pen = bench.pen
spec = PipelineSpec(bench=bench, kernel=KernelSpec("squared-exponential", 1.0),
                    gamma=1e-8, hjb=HjbConfig(dt=0.01, horizon_steps=1000))
sol = run_pipeline(spec)

print("    x     value   learned u   exact -3x")
for x in np.linspace(-1.0, 1.0, 9):
    v = value_at(sol, [x])
    u = policy_at(sol, pen, [x])[0]
    print(f"{x:+.2f}  {v:8.3f}  {u:+10.4f}  {-3.0 * x:+10.4f}")

# the score passes its 1000 states to both feedbacks in batches
rmse = rmse_to_reference(partial(policy_on, sol, pen),
                         lambda X: -3.0 * X, [-1.0], [1.0],
                         n_points=1000, seed=0)
print(f"\npolicy RMSE on [-1, 1]: {rmse:.5f}")
