"""The exact finite-n laws of exact_laws.py against brute force and known values."""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from bruteforce import enumerate_ground_state, enumerate_log_partition
from exact_laws import gaussian_mean_free_energy, mean_log_partition, tree_minimum_moments, tree_minimum_pmf
from cayleycodec import EnergyDistribution
from cayleycodec.theory import FreeEnergyLimit


def every_pattern(values, probs, d, n):
    """Every assignment of `values` to the branches of the depth-n tree,
    as (probability, energies_by_gen)."""
    cuts = np.cumsum([0] + [d**i for i in range(1, n + 1)])
    idx = np.array(list(itertools.product(range(len(values)), repeat=int(cuts[-1]))))
    weights = np.prod(np.asarray(probs)[idx], axis=1)
    for weight, flat in zip(weights, np.asarray(values, dtype=float)[idx]):
        yield weight, {i: flat[cuts[i - 1]:cuts[i]] for i in range(1, n + 1)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_minimum_law_matches_enumeration(n):
    probs = [0.25, 0.75]
    law = np.zeros(n + 1)
    for weight, energies in every_pattern([0, 1], probs, 2, n):
        _, emin = enumerate_ground_state(energies, 2, n)
        law[int(emin)] += weight
    exact = tree_minimum_pmf([0, 1], probs, 2, n)[n]
    assert np.max(np.abs(exact - law)) <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mean_log_partition_matches_enumeration(n):
    values, probs, beta, d, h = [-0.4, 1.0], [0.3, 0.7], 1.5, 2, 0.1
    expected = sum(
        weight * enumerate_log_partition(energies, d, n, beta)
        for weight, energies in every_pattern(values, probs, d, n)
    )
    exact = mean_log_partition([beta * v for v in values], probs, d, n, h)[n]
    assert abs(exact - expected) <= 1e-10


def test_gaussian_free_energy_discretisation_error():
    f = gaussian_mean_free_energy(3.0, 2, 20)[19]
    f_half = gaussian_mean_free_energy(3.0, 2, 20, h=0.05)[19]
    assert abs(f - f_half) < 1e-6


def test_gaussian_free_energy_values():
    f = gaussian_mean_free_energy(3.0, 2, 20)
    assert round(f[19], 4) == 1.0084
    assert round(f[9], 4) == 0.9210


def test_hamming4_expected_gap_values():
    # D(R) at R = ln 2 for the uniform quaternary source under Hamming
    # distortion: ln 4 - h(D) - D ln 3 = ln 2.
    rate = lambda D: math.log(4) + D * math.log(D) + (1 - D) * math.log(1 - D) - D * math.log(3)
    target = brentq(lambda D: rate(D) - math.log(2), 1e-9, 0.75 - 1e-9, xtol=1e-14)
    laws = tree_minimum_pmf([0, 1], [0.25, 0.75], 2, 18)
    gaps = [laws[n] @ np.arange(laws[n].size) / n - target for n in (10, 14, 18)]
    assert [round(g, 4) for g in gaps] == [0.1389, 0.1131, 0.0961]


@pytest.mark.parametrize("values, probs, d", [
    ([0, 1], [0.25, 0.75], 2),
    ([0, 1], [0.25, 0.75], 3),
    ([0, 1, 2], [0.2, 0.5, 0.3], 2),
    ([0, 2, 3], [0.3, 0.3, 0.4], 2),
])
def test_tree_minimum_has_the_bramson_log_term(values, probs, d):
    # E M_n = n D0 + (3 / (2 beta_c)) ln n + C + o(1) (Bramson 1978; Addario-Berry & Reed, Hu & Shi 2009):
    # C(n) settles, its last step smaller than the one before and than half of the ln 2 / (2 beta_c) it
    # would take with 1 / beta_c in place of 3 / (2 beta_c)
    limit = FreeEnergyLimit.for_distribution(EnergyDistribution.discrete(values, probs), d)
    means, _ = tree_minimum_moments(values, probs, d, 1000)
    c = {n: means[n] - n * limit.d0 - 1.5 / limit.beta_c * math.log(n) for n in (250, 500, 1000)}
    step = abs(c[1000] - c[500])
    assert step < abs(c[500] - c[250])
    assert step < 0.5 * math.log(2) / (2 * limit.beta_c)
