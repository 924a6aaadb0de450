"""The enumerated posynomial view of z_dc, an oracle for the DC kernel.

With the phase-aligned transmit phases every cosine in the DC terms of
z_dc equals one, so z_dc is a posynomial in the amplitudes with one
monomial per (tone tuple, antenna tuple) pair.  The package computes z_dc
from `rectenna.DCKernel` without enumerating anything; the tests compare
it against this enumeration.
"""

import math
from itertools import product

import numpy as np

from multisine_wpt.channel import ChannelRealization
from multisine_wpt.rectenna import RectennaParams


def _dc_prefactor(order: int) -> float:
    """DC share of cos^i, binomial(i, i/2) / 2^i: 1/2, 3/8, 5/16."""
    return math.comb(order, order // 2) / 2 ** order


def quartic_tuples(n_tones: int):
    """Ordered (n0, n1, n2, n3) with n0 + n1 == n2 + n3."""
    for n0 in range(n_tones):
        for n1 in range(n_tones):
            total = n0 + n1
            for n2 in range(max(0, total - n_tones + 1), min(n_tones, total + 1)):
                yield n0, n1, n2, total - n2


def _triples_by_sum(n_tones: int) -> dict[int, list[tuple[int, int, int]]]:
    groups: dict[int, list[tuple[int, int, int]]] = {}
    for a in range(n_tones):
        for b in range(n_tones):
            for c in range(n_tones):
                groups.setdefault(a + b + c, []).append((a, b, c))
    return groups


def sextic_tuples(n_tones: int):
    """Ordered (n0..n5) with n0 + n1 + n2 == n3 + n4 + n5."""
    groups = _triples_by_sum(n_tones)
    for triples in groups.values():
        for left in triples:
            for right in triples:
                yield left + right


def quartic_tuple_count(n_tones: int) -> int:
    """Cardinality N*(2N^2 + 1)/3 of the order-4 index set."""
    return n_tones * (2 * n_tones ** 2 + 1) // 3


def zdc_posynomial(channel: ChannelRealization,
                   params: RectennaParams) -> tuple[np.ndarray, np.ndarray]:
    """z_dc(S, Phi*) as an explicit posynomial over the N*M amplitudes.

    Returns (coefficients, exponents): term k is
    coefficients[k] * prod_j s_j**exponents[k, j].

    With the phase-aligned choice Phi* every cosine in the DC terms equals
    one, leaving positive coefficients only.  Variable j = n*M + m is the
    amplitude of tone n on antenna m.  One monomial per (tone-tuple,
    antenna-tuple) pair, so term counts match the index-set cardinalities:
    N*M^2 at order 2, N(2N^2+1)/3 * M^4 at order 4 and correspondingly
    more at order 6.  Terms whose channel amplitude product vanishes are
    dropped (the variable never contributes).
    """
    amps = np.abs(channel.require_single_rectenna())
    n, m = amps.shape
    r_ant = params.diode.r_ant
    k = dict(zip(params.orders, params.k))
    coeffs: list[float] = []
    rows: list[np.ndarray] = []

    def add(order, tone_idx, ant_idx):
        c = k[order] * r_ant ** (order / 2) * _dc_prefactor(order)
        e = np.zeros(n * m)
        for nj, mj in zip(tone_idx, ant_idx):
            c *= amps[nj, mj]
            e[nj * m + mj] += 1.0
        if c > 0.0:
            coeffs.append(c)
            rows.append(e)

    for tone in range(n):
        for ants in product(range(m), repeat=2):
            add(2, (tone, tone), ants)
    if params.truncation_order >= 4:
        for tones in quartic_tuples(n):
            for ants in product(range(m), repeat=4):
                add(4, tones, ants)
    if params.truncation_order >= 6:
        for tones in sextic_tuples(n):
            for ants in product(range(m), repeat=6):
                add(6, tones, ants)
    if not coeffs:
        raise ValueError("channel has no usable gain (all amplitudes zero)")
    return np.array(coeffs), np.vstack(rows)
