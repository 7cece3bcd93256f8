"""Assignment solver against the brute-force enumerator and hand cases."""

import itertools

import numpy as np
import pytest

from oracles import permutation_matrix
from wproc.assignment import Permutation, max_trace_matching, solve_lap
from wproc.errors import InvalidArgumentError, InvalidInputError

_BRUTE_FORCE_LIMIT = 8


def brute_force_lap(cost) -> tuple[Permutation, float]:
    """Exhaustive minimum over all n! permutations; refuses n > 8.

    Ties resolve to the lexicographically smallest mapping because
    permutations are enumerated in lexicographic order.
    """
    cost = np.asarray(cost, dtype=np.float64)
    n = cost.shape[0]
    if n > _BRUTE_FORCE_LIMIT:
        raise InvalidArgumentError(
            f"brute force refused for n={n} > {_BRUTE_FORCE_LIMIT} (factorial blowup)"
        )
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    totals = cost[np.arange(n), perms].sum(axis=1)
    best = int(np.argmin(totals))
    return Permutation(perms[best]), float(totals[best])


def test_permutation_validation():
    with pytest.raises(InvalidInputError):
        Permutation(mapping=np.array([0, 0, 2]))
    with pytest.raises(InvalidInputError):
        Permutation(mapping=np.array([[0, 1]]))
    with pytest.raises(InvalidInputError):
        Permutation(mapping=np.array([], dtype=np.int64))


def test_permutation_inverse_and_matrix():
    p = Permutation(mapping=np.array([2, 0, 1]))
    assert p.inverse().mapping.tolist() == [1, 2, 0]
    m = permutation_matrix(p)
    assert m.tolist() == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    assert p.inverse().inverse().mapping.tolist() == p.mapping.tolist()


def test_hand_computed_three_by_three():
    cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
    # Optimum assigns 0->1, 1->0, 2->2 for total 1 + 2 + 2 = 5.
    perm, total = solve_lap(cost)
    assert total == 5.0
    assert perm.mapping.tolist() == [1, 0, 2]


def test_matches_brute_force_on_randoms():
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(2, 8))
        cost = rng.uniform(0, 10, (n, n))
        _, fast = solve_lap(cost)
        _, brute = brute_force_lap(cost)
        assert fast == brute


def test_all_ties_cost():
    cost = np.full((5, 5), 3.0)
    _, total = solve_lap(cost)
    assert total == 15.0


def test_identity_is_found():
    n = 6
    cost = np.ones((n, n))
    cost[np.arange(n), np.arange(n)] = 0.0
    perm, total = solve_lap(cost)
    assert total == 0.0
    assert perm.mapping.tolist() == list(range(n))


def test_brute_force_tie_break_is_lexicographic():
    cost = np.zeros((3, 3))
    perm, _ = brute_force_lap(cost)
    assert perm.mapping.tolist() == [0, 1, 2]


def test_brute_force_refuses_large_n():
    with pytest.raises(InvalidArgumentError):
        brute_force_lap(np.zeros((9, 9)))


def test_rejects_non_square():
    with pytest.raises(InvalidInputError):
        solve_lap(np.zeros((3, 4)))


def test_max_trace_matching_maximizes():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        score = rng.standard_normal((n, n))
        perm = max_trace_matching(score)
        got = score[np.arange(n), perm.mapping].sum()
        _, brute_min = brute_force_lap(-score)
        assert got == pytest.approx(-brute_min, abs=1e-12)
