"""Absorption times of sequential-stage chains vs their analytic laws.

A process that must pass through stages 1 -> 2 -> ... -> k before absorbing,
holding an exponential time in each, has a hypoexponential absorption time
for any stage rates, repeated or not: a ``StageChain`` is its own law.
Erlang (every stage at the same rate) and EME (k equal stages plus one odd
stage) are the closed forms of special layouts.

Run:  python demos/04_absorption_chains.py
"""

import numpy as np

from hypoexp import (
    EME,
    Erlang,
    Exponential,
    StageChain,
    eme_chain,
    simulate_absorption,
    validate_against,
)

rng = np.random.default_rng(99)
N = 100_000

print("chain of five unit-rate states (absorption after the fifth)")
chain5 = StageChain((1.0,) * 5)
times = simulate_absorption(chain5, N, rng)
print(f"  simulated mean {times.mean():.4f}  analytic {chain5.mean:.4f}")
check = validate_against(times, Erlang(5, 1.0))
print(f"  KS vs Erlang(5, 1): {check.ks_distance:.5f} "
      f"(1% threshold {check.threshold:.5f}) -> {'pass' if check.passed else 'FAIL'}")

print("\ncell-cycle style chain: k fast stages, one slow exit stage")
k, rate_fast, rate_slow = 3, 2.0, 0.4
chain = eme_chain(k, rate_fast, rate_slow)
print(f"  stages: {chain.rates}")
times = simulate_absorption(chain, N, rng)
law = EME(n=k, rate=rate_fast, w=rate_fast / rate_slow)
check = validate_against(times, law)
print(f"  absorption law: {law}")
print(f"  KS {check.ks_distance:.5f} vs threshold {check.threshold:.5f} "
      f"-> {'pass' if check.passed else 'FAIL'}")

print("\nrepeated rates need no closed form: the chain is its own law")
chain = StageChain((1.0, 1.0, 2.0, 2.0, 3.0))
times = simulate_absorption(chain, N, rng)
check = validate_against(times, chain)
print(f"  {chain}: cdf(2) = {chain.cdf(2.0):.6f}, pdf(2) = {chain.pdf(2.0):.6f}")
print(f"  KS {check.ks_distance:.5f} vs threshold {check.threshold:.5f} "
      f"-> {'pass' if check.passed else 'FAIL'}")

print("\nnegative control: two-stage times are NOT exponential")
times = simulate_absorption(StageChain((1.0, 1.0)), N, rng)
check = validate_against(times, Exponential(1.0))
print(f"  KS {check.ks_distance:.5f} vs threshold {check.threshold:.5f} "
      f"-> {'pass' if check.passed else 'FAIL (as it should)'}")
