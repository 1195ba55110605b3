"""Tour of the distribution families: densities, transforms, moments, sampling.

Run:  python demos/01_distributions.py
"""

import numpy as np

from hypoexp import EME, Erlang, Exponential, Hypoexponential

print("=" * 70)
print("Four ways to sum exponential stages")
print("=" * 70)

exp1 = Exponential(rate=1.0)
erl = Erlang(n=3, rate=1.0)
hypo = Hypoexponential(rates=(1.0, 2.0, 4.0))
eme = EME(n=3, rate=1.0, w=5.0)  # three unit-rate stages plus one at rate 1/5

for dist in (exp1, erl, hypo, eme):
    print(f"\n{dist}")
    print(f"  mean {dist.mean:.4f}   variance {dist.var:.4f}")
    print("  x      pdf        cdf        laplace")
    for x in (0.5, 1.0, 2.0, 5.0):
        print(f"  {x:<5g} {dist.pdf(x):<10.6f} {dist.cdf(x):<10.6f} {dist.laplace(x):<10.6f}")

print()
print("=" * 70)
print("The EME family sits between hypoexponential and Erlang")
print("=" * 70)

# one ordinary stage plus one at half speed == two-rate hypoexponential
a = EME(1, 1.0, 2.0)
b = Hypoexponential((1.0, 0.5))
x = 1.3
print(f"\nEME(1, 1, 2).pdf({x})            = {a.pdf(x):.15f}")
print(f"Hypoexponential(1, 1/2).pdf({x}) = {b.pdf(x):.15f}")

# as w -> 1 the odd stage blends in and the law becomes Erlang(n+1)
print()
for w in (2.0, 1.1, 1.0001, 1.0):
    d = EME(2, 1.0, w)
    print(f"w={w:<7g} pdf(2.0) = {d.pdf(2.0):.10f}")
print(f"Erlang(3, 1).pdf(2.0) = {Erlang(3, 1.0).pdf(2.0):.10f}")

print()
print("=" * 70)
print("Sampling is inverse-CDF per stage: exact, reproducible")
print("=" * 70)

rng = np.random.default_rng(20)
batch = eme.sample(200_000, rng)
print(f"\n{len(batch)} draws from {eme}")
print(f"  sample mean {batch.mean():.4f}  (law: {eme.mean:.4f})")
print(f"  sample var  {batch.var():.4f}  (law: {eme.var:.4f})")
