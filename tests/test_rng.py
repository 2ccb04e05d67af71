import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy import stats

from lemlab.rng import _SPLIT, RngStream, derive_substream, sample_disc_array

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def documented_disc(seed, index, count):
    raw = Generator(Philox(key=np.array([seed, index], dtype=np.uint64))).random(2 * count)
    return np.sqrt(raw[0::2]) * np.exp(2j * np.pi * raw[1::2])


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_substreams_deterministic():
    a = derive_substream(42, 7).uniforms(64)
    b = derive_substream(42, 7).uniforms(64)
    assert np.array_equal(a, b)


def test_substreams_distinct():
    a = derive_substream(42, 0).uniforms(64)
    b = derive_substream(42, 1).uniforms(64)
    assert not np.any(a == b)


def test_chunking_does_not_change_stream():
    s1 = derive_substream(9, 3)
    s2 = derive_substream(9, 3)
    whole = s1.uniforms(101)
    parts = np.concatenate([s2.uniforms(7), s2.uniforms(90), s2.uniforms(4)])
    assert np.array_equal(whole, parts)
    assert s2.counter == 101


def test_polar_construction_is_the_documented_one():
    # points must come from radius = sqrt(u1), angle = 2 pi u2 applied to
    # the raw Philox(key=(seed, stream)) double stream, pairs in order
    raw = Generator(Philox(key=np.array([5, 11], dtype=np.uint64))).random(8)
    expect = np.sqrt(raw[0::2]) * np.exp(2j * np.pi * raw[1::2])
    got = sample_disc_array(derive_substream(5, 11), 4)
    assert np.array_equal(got, expect)


@pytest.mark.parametrize("count", [0, 1, 1001, _SPLIT - 1, _SPLIT, _SPLIT + 1, 1 << 20])
def test_in_place_split_polar_step_keeps_every_bit(count):
    got = sample_disc_array(derive_substream(6, count), count)
    assert got.dtype == np.complex128
    assert same_bits(got, documented_disc(6, count, count))


def test_split_draw_is_two_unsplit_draws():
    a, b = _SPLIT - 3, _SPLIT - 5
    whole = sample_disc_array(derive_substream(8, 1), a + b)
    s = derive_substream(8, 1)
    parts = np.concatenate([sample_disc_array(s, a), sample_disc_array(s, b)])
    assert a + b >= _SPLIT and same_bits(whole, parts)
    assert s.counter == 2 * (a + b)


def test_concurrent_split_draws_match_serial_draws():
    # two callers share the one helper; whichever finds it busy runs
    # its second half inline
    count, rounds = 3 * _SPLIT, 6
    serial = [sample_disc_array(derive_substream(10, k), count) for k in range(2)]
    with ThreadPoolExecutor(2) as pool:
        for _ in range(rounds):
            got = list(pool.map(lambda k: sample_disc_array(derive_substream(10, k), count),
                                range(2)))
            assert all(same_bits(g, e) for g, e in zip(got, serial))


def run_python(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)


def test_idle_helper_keeps_no_interpreter_alive():
    r = run_python(
        "import lemlab\n"
        "from lemlab.rng import _SPLIT, derive_substream, sample_disc_array\n"
        "print(sample_disc_array(derive_substream(1, 0), 3 * _SPLIT).sum())\n"
    )
    assert r.returncode == 0, r.stderr
    assert complex(r.stdout) == sample_disc_array(derive_substream(1, 0), 3 * _SPLIT).sum()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_its_own_helper():
    r = run_python(
        "import os\n"
        "import numpy as np\n"
        "from lemlab import rng\n"
        "want = rng.sample_disc_array(rng.derive_substream(1, 0), 3 * rng._SPLIT)\n"
        "parents = rng._helper\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    got = rng.sample_disc_array(rng.derive_substream(1, 0), 3 * rng._SPLIT)\n"
        "    ok = rng._helper is not parents and np.array_equal(got, want)\n"
        "    os._exit(0 if ok else 1)\n"
        "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == "0\n"


def test_import_starts_no_thread():
    r = run_python("import threading\nimport lemlab\nprint(threading.active_count())\n")
    assert r.returncode == 0, r.stderr
    assert r.stdout == "1\n"


def test_support_strictly_inside_disc():
    z = sample_disc_array(derive_substream(1, 0), 100_000)
    assert np.abs(z).max() < 1.0


def test_mean_of_samples_near_zero():
    n = 1_000_000
    z = sample_disc_array(derive_substream(2024, 0), n)
    tol = 3.0 * (1.0 / np.sqrt(2.0)) / np.sqrt(n)
    assert abs(z.real.mean()) < tol
    assert abs(z.imag.mean()) < tol


def test_mean_of_reciprocal_is_conjugate():
    # E[1/(z0 - X)] = conj(z0) for z0 in the disc
    n = 1_000_000
    z0 = 0.3 + 0.4j
    x = sample_disc_array(derive_substream(7, 0), n)
    v = 1.0 / (z0 - x)
    for part, target in ((v.real, z0.real), (v.imag, -z0.imag)):
        se = part.std(ddof=1) / np.sqrt(n)
        assert abs(part.mean() - target) < 3.0 * se


def test_uniformity_chi2_equal_area_sectors():
    n = 1_000_000
    z = sample_disc_array(derive_substream(13, 0), n)
    ring = np.floor(8.0 * np.abs(z) ** 2).astype(int)
    ang = np.floor(8.0 * (np.angle(z) / (2.0 * np.pi) % 1.0)).astype(int)
    counts = np.bincount(np.clip(ring, 0, 7) * 8 + ang, minlength=64)
    expected = n / 64.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < stats.chi2.ppf(1.0 - 1e-3, 63)


@pytest.mark.parametrize("r", [0.0, 0.5, 0.9, 1.0])
def test_mean_log_distance_closed_form(r):
    n = 1_000_000
    x = sample_disc_array(derive_substream(77, int(r * 10)), n)
    v = np.log(np.abs(r - x))
    se = v.std(ddof=1) / np.sqrt(n)
    assert abs(v.mean() - (r * r - 1.0) / 2.0) < 3.0 * se


@pytest.mark.parametrize("x", [-2.0, -1.5, -1.0])
def test_log_distance_left_tail_is_exponential(x):
    # P(log|r - X| <= x) = e^{2x} whenever x <= log(1 - r)
    r = 0.5
    assert x <= np.log(1.0 - r)
    n = 1_000_000
    pts = sample_disc_array(derive_substream(78, int(10 * x)), n)
    p_hat = float(np.mean(np.log(np.abs(r - pts)) <= x))
    p = np.exp(2.0 * x)
    se = np.sqrt(p * (1.0 - p) / n)
    assert abs(p_hat - p) < 3.0 * se


def test_stream_is_value_like():
    s = RngStream(3, 4)
    assert s.master_seed == 3 and s.stream_index == 4 and s.counter == 0
    s.uniforms(10)
    assert s.counter == 10
