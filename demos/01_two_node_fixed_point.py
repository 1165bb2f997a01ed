"""
The smallest loopy instance, solved by hand and by the engine
=============================================================

Two scalar variables, each observed by the other's factor, all priors,
noises, and coefficients equal to 1.  The information recursion on every
edge collapses to the scalar map c -> (1 + c) / (2 + c), whose fixed
point is the positive root of c^2 + c - 1 = 0.  This script runs the
engine on that instance and prints the trajectory next to the closed
form.
"""

import numpy as np

from gabp import engine, network, oracle

c_star = (np.sqrt(5.0) - 1.0) / 2.0
net = network.two_node_symmetric(y=(0.3, -0.2))

result = engine.run(net, engine.ScheduleConfig(tol_frobenius=1e-14))
print(f"converged={result.converged} after {result.iterations} iterations")
print(f"closed-form fixed point  c* = (sqrt(5)-1)/2 = {c_star:.12f}")

# every directed edge carries the same scalar info by symmetry
for edge in result.state.edges:
    c = result.state.messages[edge].info[0, 0]
    print(f"  info on f_{edge.factor} -> x_{edge.variable}: {c:.12f}"
          f"   (error {abs(c - c_star):.1e})")

# the first few iterations of the scalar map, against the engine's trace
print("\nscalar map vs engine, first five iterations:")
c = 0.0
for rec in result.trace.records[1:6]:
    c = (1.0 + c) / (2.0 + c)
    # the blocks are scalars, so column 0 of a trace row is the first edge's info
    c_engine = result.trace.info[result.trace.rows[rec.iteration], 0]
    print(f"  l={rec.iteration}:  map {c:.10f}   engine {c_engine:.10f}"
          f"   delta recorded {rec.frobenius_delta:.2e}")

# means agree with the centralized least-squares solution; variances do
# not, because the graph has a cycle and loopy beliefs are overconfident
report = oracle.compare(net, result.beliefs)
y1, y2 = (net.node(i).obs[0] for i in (1, 2))
print(f"\nbelief mean of x_1: {result.beliefs[1].mean[0]:.12f}")
print(f"centralized (y1+y2)/5: {(y1 + y2) / 5.0:.12f}")
print(f"belief variance of x_1: {result.beliefs[1].cov[0, 0]:.10f} = 1/sqrt(5)")
print(f"centralized variance:   {3.0 / 5.0:.10f} = 3/5")
print(f"mean error {report.max_mean_error:.1e}, "
      f"covariance gap {report.cov_errors[1]:.6f} (expected: loopy beliefs "
      "are exact in mean only)")
