"""Bring a torque-limited pendulum upright with a learned feedback.

The available torque (1.5 Nm) is far below what a direct lift needs, so
the policy has to manage the pendulum's energy and time its catch at the
top.  The value function is learned on angle-embedded states
(cos, sin, omega); rollouts integrate the physical (theta, omega) twin
and embed on the fly.
"""
import numpy as np

from genhjb import KernelSpec, PipelineSpec, make_benchmark, run_pipeline
from genhjb.dynamics import accumulated_cost, simulate_closed_loop
from genhjb.hjb import HjbConfig, smoothed_policy_at

bench = make_benchmark("pendulum")
spec = PipelineSpec(bench=bench, kernel=KernelSpec("smoothed-laplace", 25.0),
                    gamma=1e-12, hjb=HjbConfig(dt=0.02, horizon_steps=500))
print(f"fitting on {bench.grid.n_points} grid points "
      "and solving 500 backward steps...")
sol = run_pipeline(spec)

policy = lambda q: smoothed_policy_at(sol, bench.pen,
                                      bench.grid.embed_point(q))
stage = lambda q: bench.stage_cost(bench.grid.embed_point(q))

# near the bottom and spinning fast, 5 seconds of closed loop at 50 Hz;
# the policy must shed most of that energy and catch the pendulum on top
x0 = np.array([3.0, 5.0])
states, inputs = simulate_closed_loop(bench.sim_system, policy, x0,
                                      dt=1e-3, steps=5000, noise=False,
                                      control_interval=20)
cost = accumulated_cost(states, inputs, stage, bench.pen, 1e-3)

print("\n   t      theta    omega   torque")
for k in range(0, 5001, 500):
    th, om = states[k]
    u = inputs[min(k, 4999), 0]
    print(f"{k / 1000.0:4.1f}  {th:+8.3f}  {om:+7.2f}  {u:+7.3f}")

final_angle = abs(np.arctan2(np.sin(states[-1, 0]), np.cos(states[-1, 0])))
print(f"\nfinal distance to upright: {final_angle:.3f} rad, "
      f"|omega| = {abs(states[-1, 1]):.3f}")
print(f"accumulated cost: {cost:.1f}")

zero_states, zero_inputs = simulate_closed_loop(
    bench.sim_system, lambda q: np.zeros(1), x0, dt=1e-3, steps=5000,
    noise=False, control_interval=20)
zero_cost = accumulated_cost(zero_states, zero_inputs, stage, bench.pen, 1e-3)
print(f"doing nothing instead would cost: {zero_cost:.1f}")
