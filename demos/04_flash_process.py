"""A toy spontaneous-localization process with the same covariance split.

Flashes - (time, site, particle) records of localization hits - are drawn
from a lambda stream: Poisson waiting times, uniform particle choice, and
Born-weighted hit centers. For an entangled two-particle state the exact
joint law of the two first hits does not depend on which particle is hit
first, but the realized pair of hit sites drawn from shared lambda words
does.
"""

import numpy as np

import chronobell as cb

n = 16
kernel = cb.make_hit_kernel(n, width=2.0)
psi = cb.make_entangled_pair(n, n // 4, 3 * n // 4)
lam = cb.generate_lambda_file(seed=4, count=256 * 2_000)

print("=== one run of the hit process (rate 1, duration 4, two particles) ===")
history = cb.run_flash_process(psi, kernel, rate=1.0, duration=4.0,
                               stream=lam.stream().split(0, block=256))
print("  time    particle  site")
for record in history.records:
    print(f"  {record.time:6.3f}  {record.particle:8d}  {record.site:4d}")
final_density = history.final_state.site_probabilities().sum(axis=1)
print("final particle-0 density peaks at site", int(np.argmax(final_density)))

print()
print("=== hit-order invariance of the exact first-hit law ===")
report = cb.ordering_invariance_exact(psi, kernel)
print(f"max |J(1 then 2) - J(2 then 1)| = {report.max_diff:.2e}  "
      f"(tolerance {report.tolerance:.0e})")

print()
print("=== realized hit pairs from shared lambda words ===")
print("lam1   lam2   0-first pair  1-first pair  same?")
root = lam.stream()
for t in range(8):
    u1, u2 = root.split(t, block=2).take(2)
    p01 = cb.sample_flash_pair(psi, kernel, 0, u1, u2)
    p10 = cb.sample_flash_pair(psi, kernel, 1, u1, u2)
    print(f"{u1:.3f}  {u2:.3f}  {str(p01):>12}  {str(p10):>12}  "
          f"{'yes' if p01 == p10 else 'NO'}")

differs = 0
runs = 2_000
for t in range(runs):
    u1, u2 = root.split(t, block=2).take(2)
    differs += cb.sample_flash_pair(psi, kernel, 0, u1, u2) != cb.sample_flash_pair(
        psi, kernel, 1, u1, u2)
print(f"divergence over {runs} shared-lambda draws: {differs / runs:.3f}")

print()
print("=== Poisson statistics over an ensemble ===")
# run r of the batch equals run_flash_process on lam.stream().split(r, block=256)
ensemble = cb.run_flash_processes(psi, kernel, 1.0, 4.0, lam.stream(), runs=1_000, block=256)
counts = ensemble.hit_counts
print(f"mean hits {counts.mean():.3f} (expected 8.0), "
      f"variance/mean {counts.var() / counts.mean():.3f} (Poisson: 1)")
