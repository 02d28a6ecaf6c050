"""How the policy error depends on the kernel lengthscale and data size.

Sweeping sigma over several decades traces the usual U-shape: too narrow
and the fit cannot interpolate between samples, too wide and everything
blurs together.  At a good sigma the error is already flat in the number
of data points, so a 25-point dataset does about as well as 400.
"""
import numpy as np
from dataclasses import replace

from genhjb import KernelSpec, PipelineSpec, make_benchmark
from genhjb.evaluation import SweepSpec, run_sweep
from genhjb.hjb import HjbConfig

# linear-1d: dx = (x + u) dt on [-2, 2] with q(x) = 1.5 x^2 and r(u) = u^2 / 2,
# whose exact feedback -3x is the benchmark's reference
base = PipelineSpec(bench=make_benchmark("linear-1d"),
                    kernel=KernelSpec("squared-exponential", 1.0),
                    gamma=1e-8, hjb=HjbConfig(dt=0.01, horizon_steps=1000))

print("lengthscale sweep (RMSE against the exact feedback):")
spec = SweepSpec(base=base, variable="lengthscale",
                 values=tuple(np.geomspace(0.5, 300.0, 9)),
                 region_lo=np.array([-1.0]), region_hi=np.array([1.0]),
                 n_points=1000, seed=0)
rows = run_sweep(spec)
for r in rows:
    # longer bar = better policy, 20 characters per decade of accuracy
    bar = "#" * int(np.clip(-20.0 * np.log10(max(r["rmse"], 1e-4)), 0, 70))
    note = r["error"] or ""
    print(f"  sigma={r['value']:9.3f}  rmse={r['rmse']:9.5f}  {bar}{note}")

best = min((r for r in rows if np.isfinite(r["rmse"])), key=lambda r: r["rmse"])
print(f"\nbest sigma {best['value']:.3f}; now varying the dataset size there:")
spec = SweepSpec(base=replace(base, kernel=KernelSpec("squared-exponential",
                                                      best["value"])),
                 variable="dataset_size", values=(25, 50, 100, 200, 400),
                 region_lo=np.array([-1.0]), region_hi=np.array([1.0]),
                 n_points=1000, seed=0)
for r in run_sweep(spec):
    print(f"  N={r['n_points']:4d}  rmse={r['rmse']:9.5f}")
