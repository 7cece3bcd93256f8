"""Known-answer and distribution tests for the portable generator.

The oracle below reimplements the SplitMix64 finalizer in pure Python
integers so the numpy uint64 arithmetic in the package is checked
against something that cannot share its bugs.
"""

import numpy as np
import pytest

from wproc.rng import PortableRng

M = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(z):
    z &= M
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M
    return (z ^ (z >> 31)) & M


def oracle_stream(seed, n):
    key = mix64(seed & M)
    return [mix64((key + (i + 1) * GOLDEN) & M) for i in range(n)]


def test_seed_zero_matches_published_splitmix_vector():
    # mix64(0) == 0, so seed 0 walks the reference SplitMix64 sequence
    # for the all-zero initial state.
    got = [int(v) for v in PortableRng(0).u64(5)]
    assert got == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
        0x1B39896A51A8749B,
    ]


@pytest.mark.parametrize("seed", [0, 1, 7, 0xDEADBEEF, M])
def test_u64_matches_independent_oracle(seed):
    got = [int(v) for v in PortableRng(seed).u64(64)]
    assert got == oracle_stream(seed, 64)


def test_u64_counter_continues_across_calls():
    r = PortableRng(9)
    got = [int(v) for v in r.u64(3)] + [int(v) for v in r.u64(2)]
    assert got == [int(v) for v in PortableRng(9).u64(5)]


def test_uniform_matches_bit_construction():
    r = PortableRng(5)
    u = r.uniform((100,))
    raw = PortableRng(5).u64(100)
    want = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53
    assert np.array_equal(u, want)
    assert u.min() >= 0.0 and u.max() < 1.0


def test_normal_matches_box_muller_oracle():
    r = PortableRng(11)
    z = r.normal((7,), sigma=2.0)
    raw = PortableRng(11).u64(8)
    u1 = ((raw[:4] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * 2.0**-53
    u2 = (raw[4:] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    rad = np.sqrt(-2.0 * np.log(u1))
    ang = 2.0 * np.pi * u2
    want = 2.0 * np.concatenate([rad * np.cos(ang), rad * np.sin(ang)])[:7]
    assert np.array_equal(z, want)


def test_normal_moments():
    z = PortableRng(123).normal((200000,))
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    # Box-Muller halves must not be systematically skewed.
    assert abs(np.mean(z > 0) - 0.5) < 0.005


def test_permutation_matches_fisher_yates_oracle():
    n = 17
    r = PortableRng(3)
    got = r.permutation(n)
    draws = [int(v) for v in PortableRng(3).u64(n - 1)]
    a = list(range(n))
    for i in range(n - 1, 0, -1):
        j = draws[n - 1 - i] % (i + 1)
        a[i], a[j] = a[j], a[i]
    assert got.tolist() == a


def test_permutation_small_n():
    assert PortableRng(0).permutation(0).tolist() == []
    assert PortableRng(0).permutation(1).tolist() == [0]
    assert sorted(PortableRng(4).permutation(2).tolist()) == [0, 1]


def test_permutation_covers_all_orders():
    # 3! = 6 outcomes; 600 seeds should hit each roughly 100 times.
    counts = {}
    for seed in range(600):
        key = tuple(PortableRng(seed).permutation(3).tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    assert min(counts.values()) > 60


def test_sample_without_replacement_matches_oracle():
    pool, k = 23, 9
    got = PortableRng(8).sample_without_replacement(pool, k)
    draws = [int(v) for v in PortableRng(8).u64(k)]
    a = list(range(pool))
    for i in range(k):
        j = i + draws[i] % (pool - i)
        a[i], a[j] = a[j], a[i]
    assert got.tolist() == a[:k]
    assert len(set(got.tolist())) == k


@pytest.mark.parametrize("pool, k", [(1, 1), (2000, 2000), (5000, 600)])
def test_sample_without_replacement_matches_oracle_at_scale(pool, k):
    got = PortableRng(21).sample_without_replacement(pool, k)
    draws = [int(v) for v in PortableRng(21).u64(k)]
    a = list(range(pool))
    for i in range(k):
        j = i + draws[i] % (pool - i)
        a[i], a[j] = a[j], a[i]
    assert got.dtype == np.int64
    assert got.tolist() == a[:k]


def test_sample_without_replacement_bounds():
    with pytest.raises(ValueError):
        PortableRng(0).sample_without_replacement(3, 4)
    assert PortableRng(0).sample_without_replacement(3, 0).tolist() == []
    assert sorted(PortableRng(1).sample_without_replacement(5, 5).tolist()) == list(
        range(5)
    )


def test_spawn_streams_are_deterministic_and_distinct():
    r = PortableRng(42)
    a = r.spawn(1).u64(4)
    b = r.spawn(2).u64(4)
    c = PortableRng(42).spawn(1).u64(4)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, PortableRng(42).u64(4))


def test_spawn_does_not_advance_parent():
    r = PortableRng(7)
    before = [int(v) for v in PortableRng(7).u64(3)]
    r.spawn(5)
    assert [int(v) for v in r.u64(3)] == before
