import hashlib
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import ndtr

from fptkit import (
    BoundaryCurve,
    McConfig,
    SourceSpec,
    TimeGrid,
    ks_distance,
    psi,
    simulate,
    solve_marching,
)
from fptkit import montecarlo

POINT = SourceSpec.point(0.0)
CONST = BoundaryCurve.constant(1.0)

TRUE_CDF_1 = 2.0 * psi(1.0)  # reflection principle: P(hit 1 by t=1) = 0.31731...

GOLDEN_HITS_SHA256 = "96caa9cfa0d3ccccb5817affd2706fc791a08c01dc9565f5ba07faa877509dba"


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

    def test_calling_process_simulates_the_first_range(self, monkeypatch):
        # k workers start a pool of k - 1 processes; none for one worker
        pools = []
        pool = montecarlo.ProcessPoolExecutor

        def recorded(max_workers):
            pools.append(max_workers)
            return pool(max_workers=max_workers)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", recorded)
        cfg = McConfig(n_paths=3 * montecarlo.BLOCK_PATHS, dt=1e-3, T=1.0, seed=3)
        runs = [simulate(POINT, CONST, cfg, workers=w) for w in (1, 2, 3)]
        assert pools == [1, 2]
        for run in runs[1:]:
            assert np.array_equal(run.hit_times, runs[0].hit_times)
            assert run.n_draws == runs[0].n_draws

    def test_bridge_off_undercounts(self):
        # discrete monitoring misses crossings; the deficit at dt = 1e-2
        # far exceeds one binomial sigma
        n = 20_000
        on = simulate(POINT, CONST, McConfig(n_paths=n, dt=1e-2, T=1.0, seed=42))
        off = simulate(
            POINT, CONST,
            McConfig(n_paths=n, dt=1e-2, T=1.0, seed=42, bridge_correction=False),
        )
        sigma = math.sqrt(TRUE_CDF_1 * (1 - TRUE_CDF_1) / n)
        assert off.ecdf(1.0) < TRUE_CDF_1 - sigma
        assert off.ecdf(1.0) < on.ecdf(1.0)

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


def _fine_scheme_hits(src, curve, cfg):
    """Hit times of the fine scheme on full paths, one fine node at a time.

    Every word comes from numpy's own `Philox(key=[seed, i]).random_raw()`:
    words [0, K) are the coarse increments, word K + m the Lévy midpoint
    normal of node m and word K + n + 1 + k the bridge uniform of substep k.
    Words 2j and 2j + 1 give the Box-Muller pair R cos θ, R sin θ.  Every
    node is built, so no interval is skipped.
    """
    n = math.ceil(cfg.T / cfg.dt - 1e-9)
    t = np.minimum(np.arange(n + 1) * cfg.dt, cfg.T)
    x = np.asarray(curve.value(t), dtype=float)
    stride = 2 ** max(0, math.floor(math.log2(n)) - 6)
    coarse = np.append(np.arange(0, n, stride), n)
    K = len(coarse) - 1

    n_words = 2 * ((K + 2 * n + 2) // 2)
    words = np.stack([
        np.random.Philox(key=np.array([cfg.seed, i], dtype=np.uint64)).random_raw(n_words)
        for i in range(cfg.n_paths)
    ])
    u = (words >> np.uint64(11)).astype(float) * 2.0 ** -53
    r = np.sqrt(-2.0 * np.log(((words[:, 0::2] >> np.uint64(11)).astype(float) + 0.5) * 2.0 ** -53))
    theta = 2.0 * math.pi * u[:, 1::2]
    z = np.stack((r * np.cos(theta), r * np.sin(theta)), axis=-1).reshape(cfg.n_paths, -1)

    b = np.empty((cfg.n_paths, n + 1))
    b[:, 0] = src.r0
    b[:, coarse[1:]] = src.r0 + np.cumsum(np.sqrt(np.diff(t[coarse])) * z[:, :K], axis=1)
    todo = list(zip(coarse[:-1], coarse[1:]))
    while todo:
        lo, hi = todo.pop()
        if hi - lo < 2:
            continue
        m = (lo + hi) // 2
        span = t[hi] - t[lo]
        b[:, m] = (b[:, lo] + (t[m] - t[lo]) / span * (b[:, hi] - b[:, lo])
                   + np.sqrt((t[m] - t[lo]) * (t[hi] - t[m]) / span) * z[:, K + m])
        todo += [(lo, m), (m, hi)]

    gap = x - b
    crossed = gap[:, 1:] <= 0.0
    if cfg.bridge_correction:
        arg = np.minimum(-2.0 * gap[:, :-1] * gap[:, 1:] / np.diff(t), 0.0)
        crossed |= u[:, K + n + 1:K + 2 * n + 1] < np.exp(arg)
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
    ], ids=["constant", "linear", "power", "power-convex", "sampled-dip"])
    @pytest.mark.parametrize("bridge", [True, False], ids=["bridge", "no-bridge"])
    def test_matches_full_fine_paths(self, curve, bridge):
        # dt = 0.0014: n = 715 steps, a short last step and a 3-step last
        # coarse interval, so the tree is ragged
        cfg = McConfig(n_paths=200, dt=0.0014, T=1.0, seed=7, bridge_correction=bridge)
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


class TestNormals:
    """Box-Muller on the lane pairs of each Philox block."""

    def test_coarse_walk_and_refinement_draw_the_same_bits(self):
        paths = np.arange(3, 200, dtype=np.uint64)
        n = 37  # odd: the last word's partner lies past the words the walk keeps
        coarse = montecarlo._leading_normals(20261018, paths, n)
        path, word = (a.ravel() for a in np.meshgrid(paths, np.arange(n), indexing="ij"))
        order = np.argsort(word % 2, kind="stable")  # the refinement's order: even lanes first
        refined = np.empty(len(word))
        refined[order] = montecarlo._variates(20261018, path[order], word[order], 0,
                                              np.count_nonzero(word % 2 == 0))
        assert refined.tobytes() == coarse.ravel().tobytes()

    def test_normals_are_standard_normal(self):
        # 2^20 normals: KS distance to Phi within the 99.9% Kolmogorov bound
        z = montecarlo._leading_normals(20261018, np.arange(2 ** 12, dtype=np.uint64), 2 ** 8)
        z = np.sort(z.ravel())
        n = len(z)
        cdf = ndtr(z)
        ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
        assert ks <= 1.95 / math.sqrt(n)

    def test_pair_is_uncorrelated(self):
        z = montecarlo._leading_normals(20261018, np.arange(2 ** 12, dtype=np.uint64), 2 ** 8)
        cos, sin = z[:, 0::2].ravel(), z[:, 1::2].ravel()
        assert abs(np.corrcoef(cos, sin)[0, 1]) <= 4.0 / math.sqrt(len(cos))


class TestSchedule:
    """How paths are spread over blocks, frontier and workers cannot change results."""

    @pytest.mark.parametrize("bridge", [True, False], ids=["bridge", "no-bridge"])
    def test_hits_and_draws_do_not_depend_on_schedule(self, monkeypatch, bridge):
        curve = BoundaryCurve.linear(1.0, 0.5)
        cfg = McConfig(n_paths=1000, dt=1e-3, T=1.0, seed=13, bridge_correction=bridge)
        ref = simulate(POINT, curve, cfg)
        assert 100 < len(ref.hit_times) < 900
        for block in (7, montecarlo.BLOCK_PATHS):
            for frontier in (1, 10 ** 6):
                monkeypatch.setattr(montecarlo, "BLOCK_PATHS", block)
                monkeypatch.setattr(montecarlo, "FRONTIER_INTERVALS", frontier)
                for workers in (1, 3):
                    run = simulate(POINT, curve, cfg, workers=workers)
                    assert run.hit_times.tobytes() == ref.hit_times.tobytes()
                    assert run.n_draws == ref.n_draws

    def test_hits_and_draws_do_not_depend_on_philox_chunk(self, monkeypatch):
        cfg = McConfig(n_paths=300, dt=1e-3, T=1.0, seed=13)
        ref = simulate(SourceSpec.point(0.5), CONST, cfg)
        for chunk in (64, 10 ** 6):
            monkeypatch.setattr(montecarlo, "PHILOX_CHUNK", chunk)
            run = simulate(SourceSpec.point(0.5), CONST, cfg)
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


class TestSerialization:
    def test_hits_csv(self, base_run, tmp_path):
        base_run.hits_to_csv(tmp_path / "hits.csv")
        lines = (tmp_path / "hits.csv").read_text().splitlines()
        assert lines[0] == "t"
        assert len(lines) == 1 + len(base_run.hit_times)

    def test_summary_fields(self, base_run):
        s = base_run.summary()
        assert s["n_hits"] + s["n_censored"] == s["n_paths"]
        assert 0.0 <= s["ecdf_at_horizon"] <= 1.0
