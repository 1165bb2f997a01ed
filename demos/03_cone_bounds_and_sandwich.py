"""
Why the iteration converges: order, bounds, and a sandwich
==========================================================

The stacked update C -> F(C) is matrix-monotone, subhomogeneous, and
maps the whole PSD cone into the order interval [L, U] with
L = F(0) and U = A^T Omega^{-1} A.  Iterating from the bottom of the
interval gives a nondecreasing sequence, iterating from above the fixed
point gives a nonincreasing one, and both squeeze onto the same C*.
This script shows all three facts numerically on one random instance.
"""

import numpy as np

from gabp import analysis, cones, network

net = network.generate_random(seed=3, num_nodes=5, topology="er", er_prob=0.6)
op = analysis.build_stacked(net)
sizes = {d: op.block_dims.count(d) for d in sorted(set(op.block_dims))}
print(f"stacked operator: C is block diagonal with {len(op.edge_order)} edge blocks "
      f"(blocks per size {sizes}), {op.phi} interference replicas")

bounds = analysis.bounds_ul(op)
print(f"bounds: lambda_min(L) = {cones.min_eigenvalue_blocks(bounds.l_blocks):.4f}, "
      f"lambda_max(U) = {np.max(cones.eigvalsh_blocks(bounds.u_blocks)):.4f}")

# monotonicity and scaling, spot checked on random PSD inputs
rng = np.random.default_rng(0)
report = analysis.property_harness(op, trials=50, seed=11)
print(f"harness: {report.monotone_checks} monotone, {report.scaling_checks} "
      f"scaling, {report.bounds_checks} bounds checks, "
      f"{len(report.failures)} violations")
print(f"  worst monotone margin {report.worst_monotone_margin:+.2e} "
      f"(PSD difference, >= 0 is a pass)")
print(f"  worst scaling margin  {report.worst_scaling_margin:+.2e} "
      f"(alpha*F(C) - F(alpha*C) must be PD)")

# the squeeze: iterate from L and from 2*C*
c_star, iters, ok = analysis.find_fixed_point(op)
print(f"\nfixed point found in {iters} operator applications "
      f"(converged: {ok})")
sandwich = analysis.sandwich_sequences(op, c_star, alpha=2.0, target=1e-10)
print(f"\nsandwich from below (L) and above (2 C*), part-metric distances:")
for k in range(0, sandwich.steps, max(1, sandwich.steps // 8)):
    print(f"  step {k:3d}:  lower {sandwich.lower_distances[k]:.3e}   "
          f"upper {sandwich.upper_distances[k]:.3e}")
print(f"lower sequence Loewner-nondecreasing: {sandwich.lower_monotone}")
print(f"upper sequence Loewner-nonincreasing: {sandwich.upper_monotone}")
print(f"fixed point stayed inside the sandwich: {sandwich.contains_fixed_point}")
print(f"both reached part distance < 1e-10 in {sandwich.steps} steps: "
      f"{sandwich.reached_target}")
