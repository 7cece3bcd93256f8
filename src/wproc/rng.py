"""Portable deterministic random number generation.

All randomness in the package flows through :class:`PortableRng`, a
counter-based generator built on the SplitMix64 mixing function: output ``i``
of a stream is ``mix64(key + (i + 1) * GOLDEN)`` where ``key`` is derived from
the user seed.  The construction uses only 64-bit integer arithmetic mod
2**64, so a seed reproduces the exact same stream on every platform and numpy
version, which is what makes seeded CLI runs byte-reproducible.  Gaussian
variates come from Box-Muller applied to this stream.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PortableRng"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK64 = (1 << 64) - 1
_INV53 = float(2.0**-53)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on an uint64 array (wrapping arithmetic)."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


class PortableRng:
    """Counter-based SplitMix64 stream with a fixed 64-bit seed.

    Instances are cheap; every consumer that needs an independent stream
    should derive one via :meth:`spawn` rather than sharing an instance.
    """

    def __init__(self, seed: int):
        seed = int(seed) & _MASK64
        # One mixing round decorrelates nearby seeds before streaming.
        self._key = _mix64(np.array([seed], dtype=np.uint64))[0]
        self._counter = 0

    def spawn(self, stream: int) -> "PortableRng":
        """Derive an independent child stream from this seed."""
        child = PortableRng(0)
        salt = np.array([int(self._key), int(stream) & _MASK64], dtype=np.uint64)
        child._key = _mix64(_mix64(salt[:1] ^ _GOLDEN) + salt[1:])[0]
        child._counter = 0
        return child

    def u64(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs."""
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        return _mix64(self._key + idx * _GOLDEN)

    def uniform(self, shape) -> np.ndarray:
        """Uniforms in [0, 1) with 53-bit resolution."""
        n = int(np.prod(shape))
        u = (self.u64(n) >> np.uint64(11)).astype(np.float64) * _INV53
        return u.reshape(shape)

    def normal(self, shape, sigma: float = 1.0) -> np.ndarray:
        """Standard normals via Box-Muller (u1 drawn in (0, 1] so log is safe)."""
        n = int(np.prod(shape))
        m = (n + 1) // 2
        u1 = ((self.u64(m) >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * _INV53
        u2 = (self.u64(m) >> np.uint64(11)).astype(np.float64) * _INV53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return (sigma * z).reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        a = np.arange(n, dtype=np.int64)
        if n < 2:
            return a
        draws = self.u64(n - 1)
        for i in range(n - 1, 0, -1):
            j = int(draws[n - 1 - i] % np.uint64(i + 1))
            a[i], a[j] = a[j], a[i]
        return a

    def sample_without_replacement(self, pool: int, k: int) -> np.ndarray:
        """``k`` distinct indices from range(pool), via partial Fisher-Yates."""
        if k > pool:
            raise ValueError(f"cannot sample {k} from pool of {pool}")
        # The swaps run on a virtual range(pool): slots holds only the
        # entries a swap has moved, and slot i is never read after step i.
        slots = {}
        out = []
        for i, r in enumerate(self.u64(k).tolist()):
            j = i + r % (pool - i)
            out.append(slots.get(j, j))
            slots[j] = slots.get(i, i)
        return np.array(out, dtype=np.int64)
