"""Distributions are order-invariant; realizations are not.

Both measurement orders draw from the same stored lambda file: the first
party's outcome uses the trial's first word, the second party's outcome uses
the second word after collapse. Exact distributions agree to machine
precision between the two orders - yet replaying the very same words under
the other order flips the realized outcome pairs on a macroscopic fraction
of trials. One simulation, two chronologies, two different histories.
"""

import numpy as np

import chronobell as cb

singlet = cb.make_singlet()
a = cb.BlochSetting.from_angle(0, "A")
b = cb.BlochSetting.from_angle(0, "B")
b45 = cb.BlochSetting.from_angle(45, "B")

lam = cb.generate_lambda_file(seed=20250810, count=64 * 40_000)

print("=== exact distributions under both orders ===")
report = cb.distribution_covariance_check(singlet, [a], [b, b45])
print(f"max entrywise difference AB vs BA: {report.max_distribution_diff:.2e}"
      f"  (tolerance {report.tolerance:.0e}, pass={report.distribution_pass})")

print()
print("=== ten trials, same lambda words, both orders ===")
print("trial  lam1   lam2   AB pair   BA pair   same?")
root = lam.stream()
for t in range(10):
    sub = root.split(t)
    r_ab = cb.run_trial(singlet, a, b, "AB", sub)
    sub.rewind()
    r_ba = cb.run_trial(singlet, a, b, "BA", sub)
    same = "yes" if r_ab.pair == r_ba.pair else "NO"
    print(f"{t:5d}  {r_ab.lambdas[0]:.3f}  {r_ab.lambdas[1]:.3f}   "
          f"{r_ab.pair}   {r_ba.pair}   {same}")

print()
print("=== divergence fractions at 10000 trials ===")
div = cb.realization_divergence(singlet, [a], [b, b45], 10_000, lam.stream())
print(f"a=z, b=z   : {div.divergence_fraction[0, 0]:.4f}   (exact value 1.0)")
print(f"a=z, b=45d : {div.divergence_fraction[0, 1]:.4f}   (exact value (1+1/sqrt2)/2 = 0.8536)")

product = cb.make_product_state()
div0 = cb.realization_divergence(product, [a], [b], 2_000, lam.stream())
print(f"product |00>, z/z: {div0.divergence_fraction[0, 0]:.4f}   (deterministic, no split)")

print()
print("=== and yet each order, on its own, is a faithful simulation ===")
exact = cb.exact_table(singlet, [a], [b, b45])
for chronology in ("AB", "BA"):
    table = cb.estimate_table(singlet, [a], [b, b45], chronology, 10_000, lam.stream())
    tv = table.total_variation(exact).max()
    print(f"chronology {chronology}: max total variation from the exact table "
          f"at 1e4 trials = {tv:.4f}")
