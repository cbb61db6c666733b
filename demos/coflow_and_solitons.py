"""
Laplacian coflow on the coclosed family and its algebraic solitons
==================================================================

On the 6-parameter coclosed diagonal family the coflow d psi/dt = lap psi
closes into a cubic ODE on the parameters.  The bracket norm never
increases, symmetric subfamilies carry conserved quantities, and the
stationary directions are algebraic solitons that the solver enumerates
in closed form.
"""

import numpy as np

from g2solv.coflow import (
    CoclosedParams,
    FlowOptions,
    integrate,
    modified_soliton_residual,
    soliton_solve,
)

# a generic start in the (a, a, b, -b, c, c) subfamily
p0 = CoclosedParams(2.0, 2.0, 1.0, -1.0, 0.5, 0.5)
traj = integrate(p0, 50.0, FlowOptions(samples=501))
n = traj.norms()
print("status:", traj.status)
print("N(0) =", n[0], " N(50) =", n[-1], " max increase:", np.diff(n).max())

# the normalized state drifts toward the symmetric direction, but only at
# an algebraic 1/t rate
direction = traj.params[-1] / np.linalg.norm(traj.params[-1])
target = np.array([1, 1, 1, -1, 1, 1]) / np.sqrt(6)
print("distance to (1,1,1,-1,1,1)/sqrt(6):", np.abs(direction - target).max())

# the (a, a, b, b, c, c) subfamily conserves the product ab exactly and
# converges onto the c = 0 slice
traj2 = integrate(CoclosedParams(1.0, 1.0, 2.0, 2.0, 1.0, 1.0), 50.0,
                  FlowOptions(samples=501))
ab = traj2.params[:, 0] * traj2.params[:, 2]
print("ab =", ab[-1], " drift:", np.abs(ab - ab[0]).max())
print("limit direction:", np.round(traj2.params[-1] / np.linalg.norm(traj2.params[-1]), 10))

# solitons: over each admissible (a1, a2, b1, b2) the stationarity
# conditions are two quadratics in (c1, c2) with explicit solutions
for base in [(1.0, 1.0, 1.0, -1.0), (1.0, -1.0, 1.0, -1.0), (0.0, 0.0, 1.0, 1.0)]:
    sols = soliton_solve(*base)
    print("base", base, "->", len(sols), "solution(s)")
    for sol in sols:
        print("   c =", (sol.params.c1, sol.params.c2),
              " lambda =", sol.lam, " residual =", f"{sol.residual:.2e}")

# an exact soliton start moves self-similarly: the direction is frozen
# while the norm decays
sol = soliton_solve(1.0, 1.0, 1.0, -1.0)[0]
traj3 = integrate(sol.params, 10.0, FlowOptions(samples=101))
dirs = traj3.params / np.linalg.norm(traj3.params, axis=1)[:, None]
print("soliton direction drift:", np.abs(dirs - dirs[0]).max())
print("soliton norm ratio:", traj3.norms()[-1] / traj3.norms()[0])

# the same points are not stationary for the modified flow at m = 1: the
# residual stays bounded away from zero
print("modified residual at m=1:", modified_soliton_residual(sol.params, 1.0)["residual"])
