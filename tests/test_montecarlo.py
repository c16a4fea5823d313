import dataclasses
import functools
import hashlib
import math
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import ndtr

from fptkit import (
    BoundaryCurve,
    McConfig,
    McRun,
    SourceSpec,
    TimeGrid,
    cpu_workers,
    ks_distance,
    psi,
    simulate,
    solve_marching,
)
from fptkit import montecarlo

POINT = SourceSpec.point(0.0)
CONST = BoundaryCurve.constant(1.0)

TRUE_CDF_1 = 2.0 * psi(1.0)  # reflection principle: P(hit 1 by t=1) = 0.31731...

# the hits of `TestRefinement::test_golden_stream`: coarse increments from
# NumPy's legacy standard_normal on PCG64 seeded by SeedSequence([seed, i // 256]),
# refinement words from Philox4x32-10 keyed by the seed's 32-bit halves at
# counter (block lo, block hi, path lo, path hi), word j being half j % 2 of
# block j // 2
GOLDEN_HITS_SHA256 = "6c8aad390fca8978628a44952acd1829085fc080826e669e59f9cb0a3a236f9b"

MASK32 = 0xFFFFFFFF


def _philox4x32(ctr, key):
    """Philox4x32-10 (Salmon et al., SC'11) on Python ints, or object arrays of them."""
    (c0, c1, c2, c3), (k0, k1) = ctr, key
    for _ in range(10):
        p0, p1 = 0xD2511F53 * c0, 0xCD9E8D57 * c2
        c0, c1, c2, c3 = (p1 >> 32) ^ c1 ^ k0, p1 & MASK32, (p0 >> 32) ^ c3 ^ k1, p0 & MASK32
        k0, k1 = (k0 + 0x9E3779B9) & MASK32, (k1 + 0xBB67AE85) & MASK32
    return c0, c1, c2, c3


@functools.lru_cache(maxsize=None)
def _stream_words(seed, n_paths, n_words):
    """Words [0, n_words) of paths 0..n_paths-1, one row per path, read-only.

    Word j of path i is half h = j % 2 of the block at counter
    (j // 2, i) under key seed: (lane 2h+1 << 32) | lane 2h.
    """
    path, block = np.meshgrid(np.arange(n_paths, dtype=object),
                              np.arange(-(-n_words // 2), dtype=object), indexing="ij")
    l0, l1, l2, l3 = _philox4x32((block & MASK32, block >> 32, path & MASK32, path >> 32),
                                 (seed & MASK32, seed >> 32))
    words = np.stack(((l1 << 32) | l0, (l3 << 32) | l2), axis=-1).astype(np.uint64)
    words = words.reshape(n_paths, -1)[:, :n_words]
    words.flags.writeable = False
    return words


def _coarse_increments(seed, n_paths, n):
    """The coarse normals Z_0..Z_{n-1} of paths 0..n_paths-1 as the stream defines them.

    Path i's are row i % 256 of the legacy standard_normal draw of
    RandomState(PCG64(SeedSequence([seed, i // 256]))), here always drawn
    with all 256 rows.
    """
    return np.concatenate([
        np.random.RandomState(np.random.PCG64(np.random.SeedSequence([seed, block])))
        .standard_normal((256, n))
        for block in range(-(-n_paths // 256))
    ])[:n_paths]


class _EcdfStub:
    """Minimal estimate-like wrapper exposing the run's own ecdf on a node-less grid."""

    def __init__(self, run):
        self._run = run
        self.grid = SimpleNamespace(T=run.config.T, nodes=np.empty(0))

    def cdf(self, t):
        return self._run.ecdf(t)


@pytest.fixture(scope="module")
def base_run():
    cfg = McConfig(n_paths=20_000, dt=1e-3, T=1.0, seed=42)
    return simulate(POINT, CONST, cfg)


class TestConfig:
    def test_dt_cap(self):
        with pytest.raises(ValueError, match="T/10"):
            McConfig(n_paths=10, dt=0.2, T=1.0, seed=0)

    def test_positive_paths(self):
        with pytest.raises(ValueError):
            McConfig(n_paths=0, dt=1e-3, T=1.0, seed=0)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            McConfig(n_paths=10, dt=1e-3, T=1.0, seed=-1)
        McConfig(n_paths=10, dt=1e-3, T=1.0, seed=2 ** 64 - 1)

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("n_paths", 10.5), ("seed", True), ("n_paths", np.True_), ("seed", "3"),
    ])
    def test_rejects_non_integers(self, field, value):
        kwargs = {"n_paths": 10, "dt": 1e-3, "T": 1.0, "seed": 0, field: value}
        with pytest.raises(TypeError, match=field):
            McConfig(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("seed", np.int64(3)), ("seed", np.uint64(3)), ("n_paths", np.int32(10)),
    ])
    def test_stores_numpy_integers_as_int(self, field, value):
        kwargs = {"n_paths": 10, "dt": 1e-3, "T": 1.0, "seed": 3, field: value}
        cfg = McConfig(**kwargs)
        assert type(getattr(cfg, field)) is int
        run = simulate(POINT, CONST, cfg)
        plain = simulate(POINT, CONST, McConfig(n_paths=10, dt=1e-3, T=1.0, seed=3))
        assert run.hit_times.tobytes() == plain.hit_times.tobytes()
        assert run.summary() == plain.summary()

    @pytest.mark.parametrize("field", ["dt", "T"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        kwargs = {"n_paths": 10, "dt": 1e-3, "T": 1.0, "seed": 0, field: value}
        with pytest.raises(ValueError, match="finite"):
            McConfig(**kwargs)


class TestSimulate:
    def test_reflection_principle(self, base_run):
        # 3 sigma binomial band around 2 Psi(1)
        sigma = math.sqrt(TRUE_CDF_1 * (1 - TRUE_CDF_1) / base_run.config.n_paths)
        assert abs(base_run.ecdf(1.0) - TRUE_CDF_1) <= 3.0 * sigma

    def test_seed_determinism(self, base_run):
        again = simulate(POINT, CONST, base_run.config)
        assert np.array_equal(base_run.hit_times, again.hit_times)
        assert again.n_censored == base_run.n_censored

    def test_worker_count_invariance(self, base_run):
        cfg = McConfig(n_paths=10_000, dt=1e-3, T=1.0, seed=base_run.config.seed)
        one = simulate(POINT, CONST, cfg, workers=1)
        for workers in (2, 4):
            many = simulate(POINT, CONST, cfg, workers=workers)
            assert np.array_equal(one.hit_times, many.hit_times)
            assert one.n_censored == many.n_censored
            assert one.n_draws == many.n_draws

    def test_calling_process_simulates_the_first_range(self, forks):
        # k workers fork k - 1 helpers; one worker forks none
        cfg = McConfig(n_paths=3 * montecarlo.BLOCK_PATHS, dt=1e-3, T=1.0, seed=3)
        runs = []
        for workers in (1, 2, 3):
            del forks[:]
            runs.append(simulate(POINT, CONST, cfg, workers=workers))
            assert len(forks) == workers - 1
        for run in runs[1:]:
            assert np.array_equal(run.hit_times, runs[0].hit_times)
            assert run.n_draws == runs[0].n_draws

    def test_dt_refinement_bias_does_not_grow(self):
        # with the bridge correction the dt = 1e-2 error is already at the
        # noise floor; refining dt must not push it out beyond 2 sigma
        n = 4000
        sigma = math.sqrt(TRUE_CDF_1 * (1 - TRUE_CDF_1) / n)
        errs = []
        for dt in (1e-2, 1e-3, 1e-4):
            run = simulate(POINT, CONST, McConfig(n_paths=n, dt=dt, T=1.0, seed=11))
            errs.append(abs(run.ecdf(1.0) - TRUE_CDF_1))
        assert errs[1] <= errs[0] + 2.0 * sigma
        assert errs[2] <= errs[0] + 2.0 * sigma

    def test_monotone_in_boundary(self, base_run):
        # shared seed couples the paths: raising the barrier can only
        # delay each path's hit
        higher = simulate(POINT, BoundaryCurve.constant(1.5), base_run.config)
        for t in (0.25, 0.5, 1.0):
            assert higher.ecdf(t) < base_run.ecdf(t)

    def test_censoring_accounting(self, base_run):
        assert len(base_run.hit_times) + base_run.n_censored == base_run.config.n_paths
        assert np.all(base_run.hit_times > 0.0)
        assert np.all(base_run.hit_times <= base_run.config.T)

    def test_rejects_source_above_boundary(self):
        cfg = McConfig(n_paths=10, dt=1e-3, T=1.0, seed=0)
        with pytest.raises(ValueError, match="below"):
            simulate(SourceSpec.point(2.0), CONST, cfg)

    def test_rejects_smeared_source(self):
        cfg = McConfig(n_paths=10, dt=1e-3, T=1.0, seed=0)
        with pytest.raises(ValueError, match="point"):
            simulate(SourceSpec.uniform_bump(0.0, 0.1), CONST, cfg)


def _has_mallopt():
    if not sys.platform.startswith("linux"):
        return False
    import ctypes

    return hasattr(ctypes.CDLL(None), "mallopt")


@pytest.mark.skipif(not _has_mallopt(), reason="needs Linux and a C library with mallopt")
def test_second_call_reuses_the_heap():
    # a fresh process, so no earlier test has set the allocator policy: the
    # arrays the first call freed serve the second without page faults
    # (2,700-3,400 faults in that call when glibc trims its heap)
    script = """
import resource
from fptkit import BoundaryCurve, McConfig, SourceSpec, simulate
args = (SourceSpec.point(0.0), BoundaryCurve.linear(1.0, 0.5),
        McConfig(n_paths=2048, dt=1e-4, T=1.0, seed=5))
simulate(*args)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
simulate(*args)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    src_dir = str(Path(montecarlo.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src_dir, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 500


def _fine_scheme_hits(src, curve, cfg):
    """Hit times of the fine scheme on full paths, one fine node at a time.

    The coarse increments come from `_coarse_increments`, and every other
    word of path i from `_stream_words`, the plain-int Philox4x32-10 above:
    word m is the Lévy midpoint normal of node m and word n + 1 + k the
    bridge uniform of substep k.  Words 2j and 2j + 1 give the Box-Muller
    pair R cos θ, R cos(θ - π/2).  Every node is built, so no interval is
    skipped.
    """
    n = math.ceil(cfg.T / cfg.dt - 1e-9)
    t = np.minimum(np.arange(n + 1) * cfg.dt, cfg.T)
    x = np.asarray(curve.value(t), dtype=float)
    stride = 2 ** max(0, math.floor(math.log2(n)) - 6)
    coarse = np.append(np.arange(0, n, stride), n)

    words = _stream_words(cfg.seed, cfg.n_paths, 2 * n + 2)
    u = (words >> np.uint64(11)).astype(float) * 2.0 ** -53
    r = np.sqrt(-2.0 * np.log(((words[:, 0::2] >> np.uint64(11)).astype(float) + 0.5) * 2.0 ** -53))
    theta = 2.0 * math.pi * u[:, 1::2]
    z = np.stack((r * np.cos(theta), r * np.cos(theta - math.pi / 2)),
                 axis=-1).reshape(cfg.n_paths, -1)

    b = np.empty((cfg.n_paths, n + 1))
    b[:, 0] = src.r0
    z_coarse = _coarse_increments(cfg.seed, cfg.n_paths, len(coarse) - 1)
    b[:, coarse[1:]] = src.r0 + np.cumsum(np.sqrt(np.diff(t[coarse])) * z_coarse, axis=1)
    todo = list(zip(coarse[:-1], coarse[1:]))
    while todo:
        lo, hi = todo.pop()
        if hi - lo < 2:
            continue
        m = (lo + hi) // 2
        span = t[hi] - t[lo]
        b[:, m] = (b[:, lo] + (t[m] - t[lo]) / span * (b[:, hi] - b[:, lo])
                   + np.sqrt((t[m] - t[lo]) * (t[hi] - t[m]) / span) * z[:, m])
        todo += [(lo, m), (m, hi)]

    gap = x - b
    crossed = gap[:, 1:] <= 0.0
    arg = np.minimum(-2.0 * gap[:, :-1] * gap[:, 1:] / np.diff(t), 0.0)
    crossed |= u[:, n + 1:2 * n + 1] < np.exp(arg)
    hit = crossed.any(axis=1)
    return np.sort(t[np.argmax(crossed, axis=1)[hit] + 1])


class TestRefinement:
    """The dyadic refinement against the fine scheme on full paths."""

    @pytest.mark.parametrize("curve", [
        CONST,
        BoundaryCurve.linear(0.8, -0.3),
        BoundaryCurve.power(1.0, 0.5, 0.75),
        BoundaryCurve.power(1.0, -0.5, 0.6),
        # a dip three fine steps wide inside one coarse interval: only its
        # sag below the chord makes that interval refine
        BoundaryCurve.sampled([0.0, 0.395, 0.3964, 0.3978, 1.2], [1.0, 1.0, 0.1, 1.0, 1.0]),
    ], ids=["bridge-constant", "bridge-linear", "bridge-power", "bridge-power-convex",
            "bridge-sampled-dip"])  # "bridge": the scheme has the bridge correction
    def test_matches_full_fine_paths(self, curve):
        # dt = 0.0014: n = 715 steps, a short last step and a 3-step last
        # coarse interval, so the tree is ragged
        cfg = McConfig(n_paths=200, dt=0.0014, T=1.0, seed=7)
        run = simulate(POINT, curve, cfg)
        expected = _fine_scheme_hits(POINT, curve, cfg)
        assert len(expected) > 20
        assert run.hit_times.tobytes() == expected.tobytes()

    def test_golden_stream(self):
        # pins the random stream: a change here must be deliberate
        cfg = McConfig(n_paths=512, dt=1e-3, T=1.0, seed=20261018)
        run = simulate(POINT, BoundaryCurve.linear(1.0, 0.5), cfg)
        digest = hashlib.sha256(run.hit_times.tobytes()).hexdigest()
        assert digest == GOLDEN_HITS_SHA256

    def test_far_boundary_draws_few_words(self):
        cfg = McConfig(n_paths=2048, dt=1e-4, T=1.0, seed=5)
        run = simulate(POINT, BoundaryCurve.linear(1.0, 0.5), cfg)
        full = 2 * cfg.n_paths * 10_000
        assert run.n_censored > cfg.n_paths / 2
        assert cfg.n_paths * 64 <= run.n_draws < 0.01 * full
        assert run.summary()["n_draws"] == run.n_draws


class TestPhilox:
    """The counter-addressed generator against published and independent values."""

    @staticmethod
    def lanes(seed, path, block):
        """`montecarlo._philox` at one (seed, path, block), as Python ints."""
        got = montecarlo._philox(seed, np.array([path], dtype=np.uint64),
                                 np.array([block], dtype=np.uint64))
        return tuple(int(lane[0]) for lane in got)

    # Random123's Philox4x32-10 known answers: counter c0..c3, key k0, k1 -> lanes
    @pytest.mark.parametrize("ctr, key, lanes", [
        ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
        ((MASK32,) * 4, (MASK32,) * 2, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
        ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0),
         (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
    ], ids=["zeros", "ones", "pi"])
    def test_known_answers(self, ctr, key, lanes):
        seed, path, block = key[0] | key[1] << 32, ctr[2] | ctr[3] << 32, ctr[0] | ctr[1] << 32
        assert self.lanes(seed, path, block) == lanes
        assert _philox4x32(ctr, key) == lanes

    def test_matches_plain_int_philox(self):
        rng = np.random.default_rng(20261019)
        triples = [(2 ** 64 - 1, 2 ** 64 - 1, 2 ** 64 - 1), (2 ** 64 - 1, 0, 2 ** 32),
                   (0, 2 ** 32, 2 ** 32 - 1)]
        triples += [tuple(int(v) for v in rng.integers(0, 2 ** 64, 3, dtype=np.uint64))
                    for _ in range(50)]
        for seed, path, block in triples:
            ctr = (block & MASK32, block >> 32, path & MASK32, path >> 32)
            assert self.lanes(seed, path, block) == _philox4x32(ctr, (seed & MASK32, seed >> 32))

    @staticmethod
    def uniforms():
        """The 53-bit uniforms of words [0, 2^8) of paths [0, 2^12), one row per path."""
        path, word = (a.ravel() for a in np.meshgrid(np.arange(2 ** 12, dtype=np.uint64),
                                                     np.arange(2 ** 8), indexing="ij"))
        return montecarlo._variates(20261018, path, word, len(word)).reshape(2 ** 12, -1)

    def test_neighbouring_paths_and_blocks_are_uncorrelated(self):
        # paths i, i + 1 at one word, and blocks b, b + 1 (words j, j + 2) of one path
        u = self.uniforms()
        for a, b in ((u[:-1], u[1:]), (u[:, :-2], u[:, 2:])):
            assert abs(np.corrcoef(a.ravel(), b.ravel())[0, 1]) <= 4.0 / math.sqrt(a.size)

    def test_uniforms_are_uniform(self):
        # 2^20 uniforms pooled over paths and words: KS distance within the
        # 99.9% Kolmogorov bound
        u = np.sort(self.uniforms().ravel())
        k = len(u)
        ks = max(np.max(np.arange(1, k + 1) / k - u), np.max(u - np.arange(k) / k))
        assert ks <= 1.95 / math.sqrt(k)


class TestNormals:
    """Box-Muller on the two words of each Philox block."""

    def test_a_word_does_not_depend_on_the_other_words_of_its_call(self):
        # uniforms and normals of paths 0..49, words 0..39, drawn all at once,
        # then shuffled and split into calls of mixed parity and kind
        path, word = (a.ravel() for a in np.meshgrid(np.arange(50, dtype=np.uint64),
                                                     np.arange(40), indexing="ij"))
        uniform = np.arange(len(word)) % 3 == 0
        ref = np.empty(len(word))
        ref[uniform] = montecarlo._variates(5, path[uniform], word[uniform], len(path[uniform]))
        ref[~uniform] = montecarlo._variates(5, path[~uniform], word[~uniform], 0)
        rng = np.random.default_rng(3)
        for call in np.array_split(rng.permutation(len(word)), 7):
            call = np.concatenate((call[uniform[call]], call[~uniform[call]]))
            got = montecarlo._variates(5, path[call], word[call], np.count_nonzero(uniform[call]))
            assert got.tobytes() == ref[call].tobytes()

    @staticmethod
    def normals():
        """The normals of words [0, 2^8) of paths [0, 2^12), one row per path."""
        path, word = (a.ravel() for a in np.meshgrid(np.arange(2 ** 12, dtype=np.uint64),
                                                     np.arange(2 ** 8), indexing="ij"))
        return montecarlo._variates(20261018, path, word, 0).reshape(2 ** 12, -1)

    def test_normals_are_standard_normal(self):
        assert_standard_normal(self.normals())

    def test_pair_is_uncorrelated(self):
        z = self.normals()
        cos, sin = z[:, 0::2].ravel(), z[:, 1::2].ravel()
        assert abs(np.corrcoef(cos, sin)[0, 1]) <= 4.0 / math.sqrt(len(cos))


def assert_standard_normal(z):
    """KS distance of the pooled sample to Phi within the 99.9% Kolmogorov bound."""
    z = np.sort(z.ravel())
    n = len(z)
    cdf = ndtr(z)
    ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    assert ks <= 1.95 / math.sqrt(n)


class TestCoarseNormals:
    """The coarse increments: NumPy's legacy standard_normal on PCG64, one
    stream block per 256 paths (`_coarse_increments`), to which
    `TestRefinement` pins `simulate`."""

    @staticmethod
    def normals():
        """The 2^8 coarse normals of each of paths [0, 2^12): 16 stream blocks."""
        return _coarse_increments(20261018, 2 ** 12, 2 ** 8)

    def test_neighbouring_paths_and_blocks_are_uncorrelated(self):
        # paths i, i + 1, and the same row of stream blocks b, b + 1 (paths i, i + 256)
        z = self.normals()
        for a, b in ((z[:-1], z[1:]), (z[:-256], z[256:])):
            assert abs(np.corrcoef(a.ravel(), b.ravel())[0, 1]) <= 4.0 / math.sqrt(a.size)

    def test_normals_are_standard_normal(self):
        assert_standard_normal(self.normals())


class TestSchedule:
    """How blocks are spread over the frontier and the workers cannot change results."""

    # "bridge": the scheme has the bridge correction
    @pytest.mark.parametrize("curve", [BoundaryCurve.linear(1.0, 0.5)], ids=["bridge"])
    def test_hits_and_draws_do_not_depend_on_schedule(self, monkeypatch, curve):
        cfg = McConfig(n_paths=1000, dt=1e-3, T=1.0, seed=13)
        ref = simulate(POINT, curve, cfg)
        assert 100 < len(ref.hit_times) < 900
        for frontier in (1, 10 ** 6):
            monkeypatch.setattr(montecarlo, "FRONTIER_INTERVALS", frontier)
            for workers in (1, 3):
                run = simulate(POINT, curve, cfg, workers=workers)
                assert run.hit_times.tobytes() == ref.hit_times.tobytes()
                assert run.n_draws == ref.n_draws

    @pytest.mark.parametrize("curve, r0", [
        (BoundaryCurve.linear(1.0, 0.5), 0.0),
        (CONST, 0.9),
    ], ids=["far", "near"])
    def test_peak_memory_is_one_frontier(self, curve, r0):
        # the plan tables are 0.25 MB; the rest is one frontier of a few
        # thousand intervals and its Philox call, whatever the number of paths
        cfg = McConfig(n_paths=8192, dt=1e-4, T=1.0, seed=5)
        tracemalloc.start()
        try:
            simulate(SourceSpec.point(r0), curve, cfg, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20


class TestCpuWorkers:
    @pytest.mark.parametrize("affinity, cpu_count, cap, expected", [
        ({0}, 8, None, 1),
        ({0, 1, 2}, 64, None, 3),
        (set(range(16)), 16, None, 4),
        ({0, 1}, 8, "3", 2),
        ({0, 1, 2}, 8, "1", 1),
        (None, 2, None, 2),
        (None, None, None, 1),
    ])
    def test_workers_follow_cpu_affinity(self, monkeypatch, affinity, cpu_count, cap,
                                         expected):
        # a cpuset or taskset mask, not the machine's CPU count, caps the processes
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(affinity),
                                raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        if cap is None:
            monkeypatch.delenv("FPT_THREADS", raising=False)
        else:
            monkeypatch.setenv("FPT_THREADS", cap)
        assert cpu_workers() == expected


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestHelpers:
    """`simulate` forks a helper for each range but the first, and runs the
    range of any helper that did not finish it itself; no helper outlives
    the call.
    """

    MC = McConfig(n_paths=4 * montecarlo.BLOCK_PATHS, dt=1e-3, T=1.0, seed=3)

    def results(self, workers):
        """The simulation's hits and draws on `workers` workers."""
        run = simulate(POINT, BoundaryCurve.linear(1.0, 0.5), self.MC, workers=workers)
        return run.hit_times.tobytes(), run.n_draws

    def patch_work(self, monkeypatch, fault):
        """Call `fault(*args)` before each range's `_simulate_range`, in every process."""
        work = montecarlo._simulate_range

        def patched(*args):
            fault(*args)
            return work(*args)

        monkeypatch.setattr(montecarlo, "_simulate_range", patched)

    def test_an_error_in_the_caller_reaps_the_helpers(self, monkeypatch, forks):
        pid = os.getpid()

        def fails_in_caller(*args):
            if os.getpid() == pid:
                raise RuntimeError("the caller's share failed")

        self.patch_work(monkeypatch, fails_in_caller)
        with pytest.raises(RuntimeError, match="caller's share"):
            self.results(2)
        assert len(forks) == 1
        assert_no_child_left()

    def test_ignored_sigchld_reaps_the_helpers_itself(self, forks):
        serial = self.results(1)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            parallel = self.results(2)
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert parallel == serial
        assert len(forks) == 1

    def test_ignored_sigchld_waits_for_no_other_child(self, forks):
        # where SIGCHLD is ignored, a wait for any child blocks until every
        # child has exited: the unrelated one would hold simulate for 20 s
        serial = self.results(1)
        other = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(20)"])
        try:
            previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
            try:
                parallel = self.results(4)
            finally:
                signal.signal(signal.SIGCHLD, previous)
            assert other.poll() is None
        finally:
            other.kill()
            other.wait()
        assert parallel == serial
        assert len(forks) == 3
        assert_no_child_left()

    def test_a_dead_helper_leaves_its_blocks_to_the_caller(self, monkeypatch, forks):
        serial = self.results(1)
        pid = os.getpid()

        def dies_in_helper(*args):
            # the helpers of ranges 2 and 3, while range 1's finishes
            if os.getpid() != pid and args[2] >= 2 * montecarlo.BLOCK_PATHS:
                os._exit(1)

        self.patch_work(monkeypatch, dies_in_helper)
        assert self.results(4) == serial
        assert len(forks) == 3
        assert_no_child_left()

    def test_without_fork_the_caller_does_all_the_work(self, monkeypatch, forks):
        serial = self.results(1)
        monkeypatch.delattr(os, "fork")
        assert self.results(4) == serial
        assert forks == []

    def test_helpers_inherit_numpy_random(self, tmp_path):
        # in a fresh process, simulate loads numpy.random before it forks, so
        # no helper imports it again (12-23 ms and private pages each)
        script = """
import os, sys
from fptkit import BoundaryCurve, McConfig, SourceSpec, montecarlo, simulate
work, caller = montecarlo._simulate_range, os.getpid()

def patched(*args):
    if os.getpid() != caller:
        with open(sys.argv[1], "a") as fh:
            fh.write(f"{'numpy.random' in sys.modules}\\n")
    return work(*args)

montecarlo._simulate_range = patched
loaded = "numpy.random" in sys.modules
simulate(SourceSpec.point(0.0), BoundaryCurve.linear(1.0, 0.5),
         McConfig(n_paths=3 * montecarlo.BLOCK_PATHS, dt=1e-3, T=1.0, seed=3), workers=3)
print(loaded)
"""
        src_dir = str(Path(montecarlo.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src_dir, os.environ.get("PYTHONPATH", "")])}
        log = tmp_path / "helpers.txt"
        proc = subprocess.run([sys.executable, "-c", script, str(log)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
        assert log.read_text() == "True\nTrue\n"


class TestKsDistance:
    def test_degenerate_self_test(self, base_run):
        assert ks_distance(base_run, _EcdfStub(base_run)) == 0.0

    def test_against_solver(self, base_run):
        est = solve_marching(POINT, CONST, TimeGrid(T=1.0, N=1024, q=2.0))
        # binomial noise floor at n = 2e4 plus solver error
        assert ks_distance(base_run, est) <= 0.015

    def test_negative_control(self, base_run):
        # solving with a deliberately wrong boundary must be detected
        est = solve_marching(POINT, BoundaryCurve.constant(1.2), TimeGrid(T=1.0, N=1024, q=2.0))
        assert ks_distance(base_run, est) >= 0.03

    def test_horizon_mismatch(self, base_run):
        est = solve_marching(POINT, CONST, TimeGrid(T=2.0, N=256, q=2.0))
        with pytest.raises(ValueError, match="horizon"):
            ks_distance(base_run, est)

    def test_power_boundary_cross_check(self):
        # no closed form here: solver vs Monte Carlo.  At T = 1, 0.015
        # covers the noise of 2e4 paths, which hides a ~1e-3 CDF error; at
        # T = 4 the bound is 1.95/sqrt(n) for 1e5 paths, which a quadrature
        # weight built from gamma = theta fails (KS 0.019)
        for theta, T, n_paths, seed, bound in ((0.75, 1.0, 20_000, 9, 0.015),
                                               (0.6, 4.0, 100_000, 11, 0.0062)):
            curve = BoundaryCurve.power(1.0, 0.5, theta)
            cfg = McConfig(n_paths=n_paths, dt=1e-3, T=T, seed=seed)
            run = simulate(POINT, curve, cfg, workers=2)
            est = solve_marching(POINT, curve, TimeGrid(T=T, N=1024, q=2.0))
            assert ks_distance(run, est) <= bound

    def test_rough_sampled_boundary_cross_check(self):
        # X = 1 + 0.3 sum_{k<14} 2^-0.7k (cos(2^k t) - 1) on 2^14 + 1 knots over
        # [0, 4] is rough at every scale above the knot spacing, which is the MC
        # step.  MC reads F(4) = 0.84905 +- 0.00253; marching at N = 1024 reads
        # 0.84734 with the cell's chord on the diagonal, and read 0.88277, 13
        # standard errors off, with the slope of the knot piece ending at t_i
        t = np.linspace(0.0, 4.0, 2 ** 14 + 1)
        k = np.arange(14)[:, None]
        curve = BoundaryCurve.sampled(
            t, 1.0 + 0.3 * np.sum(2.0 ** (-0.7 * k) * (np.cos(2.0 ** k * t) - 1.0), axis=0))
        n_paths = 20_000
        run = simulate(POINT, curve, McConfig(n_paths=n_paths, dt=2.0 ** -12, T=4.0, seed=11),
                       workers=2)
        est = solve_marching(POINT, curve, TimeGrid(T=4.0, N=1024, q=1.0))
        mc = run.ecdf(4.0)
        assert abs(est.cdf(4.0) - mc) <= 3.0 * math.sqrt(mc * (1.0 - mc) / n_paths)


class TestSerialization:
    def test_hits_csv(self, base_run, tmp_path):
        base_run.hits_to_csv(tmp_path / "hits.csv")
        lines = (tmp_path / "hits.csv").read_text().splitlines()
        assert lines[0] == "t"
        assert len(lines) == 1 + len(base_run.hit_times)

    def test_hits_csv_bytes_are_those_of_a_row_by_row_write(self, tmp_path):
        # 17 significant digits, whatever the value: subnormals and values
        # near the top of the double range
        hits = np.array([5e-324, 2.2250738585072014e-308 / 3, 0.1, 1 / 3, 1.0, 1e300])
        run = McRun(config=McConfig(n_paths=7, dt=1.0, T=1e300, seed=0), hit_times=hits,
                    n_draws=0)
        run.hits_to_csv(tmp_path / "hits.csv")
        expected = "t\n" + "".join(f"{t:.17g}\n" for t in hits)
        assert (tmp_path / "hits.csv").read_bytes() == expected.encode()

    def test_summary_fields(self, base_run):
        s = base_run.summary()
        assert s["n_hits"] + s["n_censored"] == s["n_paths"]
        assert 0.0 <= s["ecdf_at_horizon"] <= 1.0
        assert {f.name: s[f.name] for f in dataclasses.fields(McConfig)} == dataclasses.asdict(
            base_run.config)


class TestRun:
    """`McRun` holds a sorted, read-only copy of its hit times."""

    CFG = McConfig(n_paths=4, dt=0.1, T=1.0, seed=0)

    def test_rejects_unsorted_hits(self):
        with pytest.raises(ValueError, match="sorted"):
            McRun(config=self.CFG, hit_times=[0.9, 0.2, 0.5], n_draws=0)

    def test_hits_cannot_change_after_construction(self):
        hits = np.array([0.2, 0.5, 0.9])
        run = McRun(config=self.CFG, hit_times=hits, n_draws=0)
        hits[:] = 0.1
        with pytest.raises(dataclasses.FrozenInstanceError):
            run.hit_times = np.arange(10.0)
        with pytest.raises(ValueError, match="read-only"):
            run.hit_times[0] = 0.6
        assert run.ecdf(0.6) == 0.5
        assert run.n_censored == 1

    def test_hits_are_float64(self):
        run = McRun(config=self.CFG, hit_times=[1], n_draws=0)
        assert run.hit_times.dtype == np.float64
        assert run.summary()["hit_time_quantiles"]["0.5"] == 1.0
