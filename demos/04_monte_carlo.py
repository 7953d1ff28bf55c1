"""
Path-level Monte Carlo verification
===================================

The closed-form S-transform of the mollified current can be checked by
brute force: simulate Brownian paths, shift each by phi (by Cameron-Martin
the S-transform is the mean on the shifted path, S F(phi) = E[F(w + phi)]),
form the Ito sum of the mollified current on the shifted path, and average.
Each block of paths draws from its own stream, keyed on
(seed, block), so the estimate is bit-identical no matter how many threads
run the blocks.
"""

import numpy as np

from hidacur import (CurrentParams, MCConfig, TestFunction, mc_s_transform,
                     s_current_mollified)

phi = TestFunction([[0.5, -0.2]])
cfg = MCConfig(d=1, T=1.0, x=(0.5,), n_paths=50_000, n_steps=1024,
               eps2=0.05, seed=2026)

est = mc_s_transform(cfg, phi)
closed = s_current_mollified(CurrentParams([0.5], 1.0), phi, 0.05, tol=1e-11)

z = abs(est.mean[0] - closed[0]) / est.stderr[0]
print(f"monte carlo : {est.mean[0]:.6f} +- {est.stderr[0]:.6f}")
print(f"closed form : {closed[0]:.6f}")
print(f"z-score     : {z:.2f}  (|z| <= 4 expected)")

# determinism: the same config gives the same bits at any thread count
bodies = {mc_s_transform(cfg, phi, n_threads=k).to_json() for k in (1, 4)}
print("bit-identical across 1 vs 4 threads:", len(bodies) == 1)
