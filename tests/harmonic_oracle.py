"""Alternating-binomial forms of the harmonic sums, an oracle for
`scaling.harmonic_h` and `scaling.harmonic_s`.

    H_n = n sum_k (-1)^(k+n-1) C(n-1, k) / (n-k)^2
    S_n = n sum_k (-1)^(k+n-1) C(n-1, k) / (n-k)^3

Both cancel catastrophically for n beyond about 20, so the tests compare
against them only at small n; the package accumulates the sums exactly.
"""

import math

import numpy as np


def _alternating(n: int, power: int) -> float:
    k = np.arange(n)
    terms = ((-1.0) ** (k + n - 1) * [math.comb(n - 1, int(j)) for j in k]
             / (n - k) ** power)
    return float(n * np.sum(terms))


def harmonic_h_alternating(n: int) -> float:
    """Alternating-binomial form of H_n = sum_{k<=n} 1/k."""
    return _alternating(n, 2)


def harmonic_s_alternating(n: int) -> float:
    """Alternating-binomial form of S_n = sum_{k<=n} H_k/k."""
    return _alternating(n, 3)
