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

All uniforms of a draw are taken first, on the caller's thread.  Only
then is the polar step, which is elementwise, split: from `_SPLIT`
points on, one helper thread computes the second half while the caller
computes the first.  No bit depends on the split or on the thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

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


# draws of at least this many points split their polar step over two threads
_SPLIT = 1 << 16


def _new_helper():
    # the executor starts its one thread on first use, so importing starts none
    global _helper
    _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="lemlab-disc")


_new_helper()
if hasattr(os, "register_at_fork"):  # POSIX only
    # a forked child inherits no helper thread: with the parent's executor its
    # halves would all run inline, and the cancelled items would pile up
    os.register_at_fork(after_in_child=_new_helper)


def _polar_into(u, z):
    """z[k] = sqrt(u[2k]) * exp(2j*pi*u[2k+1]) in place; z must be zeros.

    Bit for bit the same as sqrt(u[0::2]) * exp(1j * (2*pi*u[1::2])):
    1j * a forms (0*a - 1*0, 0*0 + 1*a) = (+0, a), and (r + 0i)(c + is)
    takes the same products as z *= r.
    """
    np.multiply(2.0 * np.pi, u[1::2], out=z.imag)
    np.exp(z, out=z)
    z *= np.sqrt(u[0::2])


def sample_disc_array(stream, count):
    """`count` i.i.d. uniform points of the open unit disc, as complex.

    Polar method: consumes pairs (u_radius, u_angle) per point, in draw
    order, so sample_disc_array(s, a+b) == concat of a then b points.
    The uniforms are all drawn first, on the caller's thread; from
    `_SPLIT` points on, the polar step of the second half then runs on a
    helper thread (numpy releases the GIL), or inline when the helper is
    busy with another caller's half.  The output does not depend on it.
    """
    u = stream.uniforms(2 * count)
    z = np.zeros(int(count), dtype=np.complex128)
    if z.size < _SPLIT:
        _polar_into(u, z)
        return z
    half = z.size // 2
    future = _helper.submit(_polar_into, u[2 * half :], z[half:])
    _polar_into(u[: 2 * half], z[:half])
    if future.cancel():
        _polar_into(u[2 * half :], z[half:])
    else:
        future.result()
    return z

