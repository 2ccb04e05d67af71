"""Reproducible random sampling on the unit disc.

All randomness in the package flows through `RngStream`, a thin wrapper
around the Philox4x64-10 counter-based generator.  The 128-bit Philox key
is exactly ``(master_seed, stream_index)``, so the output sequence is a
pure function of ``(master_seed, stream_index, counter)`` and distinct
stream indices give statistically independent streams.  This derivation
is part of the package contract: it never changes without a major
version bump, and it is what makes runs bit-reproducible across thread
counts and platforms.

Disc points are produced by the polar method (radius = sqrt(u1),
angle = 2*pi*u2), consuming exactly two uniforms per point in that
order.  This fixed consumption schedule keeps independently written
implementations aligned on the same bit stream.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

_MASK64 = (1 << 64) - 1


class RngStream:
    """One Philox substream, identified by (master_seed, stream_index).

    The `counter` attribute counts uniform doubles consumed so far; it is
    diagnostic only (the underlying generator advances itself).  Streams
    are value-like: each instance owns its generator and can be used from
    any thread without sharing mutable state.
    """

    __slots__ = ("master_seed", "stream_index", "counter", "_gen")

    def __init__(self, master_seed, stream_index):
        self.master_seed = int(master_seed) & _MASK64
        self.stream_index = int(stream_index) & _MASK64
        self.counter = 0
        key = np.array([self.master_seed, self.stream_index], dtype=np.uint64)
        self._gen = Generator(Philox(key=key))

    def __repr__(self):
        return "RngStream(seed=%d, stream=%d, counter=%d)" % (
            self.master_seed,
            self.stream_index,
            self.counter,
        )

    def uniforms(self, count):
        """Next `count` uniform doubles in [0, 1)."""
        self.counter += int(count)
        return self._gen.random(int(count))


def derive_substream(master_seed, trial_index):
    """Stream for a given trial; bijective in trial_index for fixed seed."""
    return RngStream(master_seed, trial_index)


def sample_disc_array(stream, count):
    """`count` i.i.d. uniform points of the open unit disc, as complex.

    Polar method: consumes pairs (u_radius, u_angle) per point, in draw
    order, so sample_disc_array(s, a+b) == concat of a then b points.
    """
    u = stream.uniforms(2 * count)
    radius = np.sqrt(u[0::2])
    angle = (2.0 * np.pi) * u[1::2]
    return radius * np.exp(1j * angle)

