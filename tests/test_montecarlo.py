"""Deterministic parallel Monte Carlo verification of the closed forms."""

import dataclasses
import hashlib
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from hidacur import (CurrentParams, MCConfig, TestFunction, mc_s_transform,
                     mollified_current_sample, s_current_mollified,
                     simulate_increments)
from hidacur import montecarlo
from hidacur.experiments import MC_ACCEPTANCE_CASES, mc_acceptance_phi
from hidacur.montecarlo import (BLOCK_SIZE, CHUNK_PATHS, _box_muller,
                                default_threads)


def small_cfg(**kw):
    base = dict(d=1, T=1.0, x=(0.5,), n_paths=4096, n_steps=256,
                eps2=0.05, seed=99)
    base.update(kw)
    return MCConfig(**base)


def zero_grid(cfg):
    """phi = 0 on the left endpoints: the current of the unshifted path."""
    return np.zeros((cfg.d, cfg.n_steps))


def direct_formula(cfg, inc, phi_grid, eps2):
    """(g, f) of each drawn path (row 0) and its mirror -dB (row 1), shape
    (2, 2, paths, d), written out step by step in float64, and the lowest
    log-density met: f = sum_k p_eps2(x - c(t_k) - B(t_k)) dB(t_k) and
    g = f + sum_k p_eps2(...) phi(t_k) dt."""
    x = np.asarray(cfg.x)
    dt = cfg.T / cfg.n_steps
    norm = (2 * np.pi * eps2) ** (-cfg.d / 2)
    steps = np.stack([inc, -inc]).astype(np.float64)  # (2, paths, M, d)
    expected = np.zeros((2,) + steps[:, :, 0].shape)
    b = np.zeros(steps[:, :, 0].shape)  # B(t_k) + c(t_k)
    lowest = np.inf
    for k in range(cfg.n_steps):
        expo = -np.sum((x - b) ** 2, axis=-1, keepdims=True) / (2 * eps2)
        lowest = min(lowest, math.log(norm) + expo.min())
        dens, drift = norm * np.exp(expo), phi_grid[:, k] * dt
        expected[0] += dens * (steps[:, :, k] + drift)
        expected[1] += dens * steps[:, :, k]
        b += steps[:, :, k] + drift
    return expected, lowest


def all_increments(cfg):
    """Every block's drawn increments, concatenated along the path axis."""
    return np.concatenate([simulate_increments(cfg, b)
                           for b in range(cfg.n_blocks)])


class TestIncrements:
    def test_mean_centered(self):
        cfg = small_cfg(n_paths=200_000, n_steps=2)
        flat = all_increments(cfg).ravel().astype(np.float64)
        stderr = flat.std() / np.sqrt(flat.size)
        assert abs(flat.mean()) <= 4 * stderr

    def test_variance_matches_dt(self):
        cfg = small_cfg(n_paths=4000, n_steps=128)
        inc = all_increments(cfg).astype(np.float64)
        dt = cfg.T / cfg.n_steps
        assert inc.var() == pytest.approx(dt, rel=0.01)

    def test_deterministic_per_block(self):
        cfg = small_cfg()
        a = simulate_increments(cfg, 1)
        b = simulate_increments(cfg, 1)
        assert np.array_equal(a, b)

    def test_blocks_differ(self):
        cfg = small_cfg()
        assert not np.array_equal(simulate_increments(cfg, 0),
                                  simulate_increments(cfg, 1))

    def test_block_out_of_range(self):
        cfg = small_cfg()
        with pytest.raises(IndexError):
            simulate_increments(cfg, cfg.n_blocks)

    def test_law_of_one_block(self):
        # 2^20 draws of one block (512 drawn paths) against N(0, T/M):
        # Kolmogorov-Smirnov and the fourth moment E z^4 = 3
        # (Var z^4 = 105 - 9 = 96)
        cfg = small_cfg(n_paths=1024, n_steps=2048)
        z = simulate_increments(cfg, 0).ravel().astype(np.float64)
        z /= math.sqrt(cfg.T / cfg.n_steps)
        assert stats.kstest(z, "norm").pvalue > 1e-3
        assert abs(np.mean(z ** 4) - 3.0) <= 4 * math.sqrt(96.0 / z.size)

    def test_tail_cutoff(self):
        # all-zero bits give the smallest radius uniform 2^-25 and angle
        # 2 pi 2^-25, so the largest draw is sqrt(50 ln 2) ~ 5.89 sigma
        class ZeroBits:
            def random_raw(self, n):
                return np.zeros(n, dtype=np.uint64)

        z = np.empty(2, dtype=np.float32)
        _box_muller(ZeroBits(), z, 1.0)
        assert z[0] == pytest.approx(math.sqrt(50 * math.log(2)), rel=1e-6)
        assert stats.norm.sf(z[0]) * 2 == pytest.approx(4e-9, rel=0.05)

    @pytest.mark.parametrize("word", [0, 2 ** 64 - 1], ids=["zeros", "ones"])
    @pytest.mark.parametrize("count", [8, 7])
    def test_extreme_words_stay_in_the_bound(self, word, count):
        # in float32, k + 1/2 rounds to an even integer for k >= 2^23, so the
        # all-ones word (k = 2^24 - 1) gives u = 1 exactly: radius 0, draw 0
        class ConstantBits:
            def random_raw(self, n):
                return np.full(n, word, dtype=np.uint64)

        var = 0.25
        z = np.empty(count, dtype=np.float32)
        _box_muller(ConstantBits(), z, var)
        assert np.all(np.isfinite(z))
        # float32 rounding of the log and the square root, ~1e-7 relative
        assert np.all(np.abs(z) <= math.sqrt(50 * math.log(2) * var)
                      * (1.0 + 1e-6))
        if word:
            assert np.all(z == 0.0)

    def test_seeds_at_and_above_2_63_key_their_own_streams(self):
        # a key passed through float64 would merge 2^63 + 12345 and
        # 2^63 + 12346 into 2^63 + 12288, and 2^64 - 1 into seed 0
        seeds = [0, 1, 2 ** 63, 2 ** 63 + 1, 2 ** 63 + 12288, 2 ** 63 + 12345,
                 2 ** 63 + 12346, 2 ** 64 - 2, 2 ** 64 - 1]
        draws = [simulate_increments(small_cfg(n_paths=4, n_steps=8, seed=s),
                                     0).tobytes() for s in seeds]
        assert len(set(draws)) == len(seeds)

    @pytest.mark.parametrize("seed", [0, 20260501, 2 ** 63 - 1])
    def test_stream_is_sfc64_keyed_by_seed_and_block(self, seed):
        # block 1 holds the last 8 paths, 4 drawn paths in one chunk, drawn
        # by Box-Muller from SFC64 seeded with SeedSequence(seed, (block,))
        cfg = small_cfg(n_paths=BLOCK_SIZE + 8, n_steps=16, seed=seed)
        z = np.empty(4 * 16, dtype=np.float32)
        bitgen = np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(1,)))
        _box_muller(bitgen, z, cfg.T / cfg.n_steps)
        assert np.array_equal(simulate_increments(cfg, 1),
                              z.reshape(4, 1, 16).transpose(0, 2, 1))

    def test_seed_and_block_are_not_interchangeable(self):
        # (seed, block) = (0, 1) and (1, 0) key different streams
        draws = [simulate_increments(
            small_cfg(n_paths=BLOCK_SIZE + 8, n_steps=16, seed=seed), block)
            for seed, block in [(0, 1), (1, 0)]]
        assert not np.array_equal(draws[0][:4], draws[1][:4])

    def test_odd_count_and_partial_chunk(self):
        # 37 paths are 19 antithetic pairs: 19 drawn paths
        cfg = small_cfg(n_paths=37, n_steps=5)
        inc = simulate_increments(cfg, 0)
        assert inc.shape == (19, 5, 1) and inc.dtype == np.float32
        assert np.all(np.isfinite(inc))
        assert np.array_equal(inc, simulate_increments(cfg, 0))


class TestMollifiedCurrentSample:
    def test_huge_eps2_is_constant_density_limit(self):
        # p_eps2 ~ (2 pi eps2)^(-d/2) constant, so the sample is that
        # constant times B(T)
        cfg = small_cfg(eps2=1e6, n_paths=16)
        inc = simulate_increments(cfg, 0).astype(np.float64)
        sample = mollified_current_sample(cfg, inc, zero_grid(cfg))[1][0]
        endpoint = inc.sum(axis=1)
        expected = (2 * np.pi * cfg.eps2) ** -0.5 * endpoint
        assert np.allclose(sample, expected, rtol=1e-4)

    def test_far_x_vanishes(self):
        cfg = small_cfg(x=(100.0,), eps2=0.01, n_paths=64)
        inc = simulate_increments(cfg, 0).astype(np.float64)
        sample = mollified_current_sample(cfg, inc, zero_grid(cfg))
        assert np.all(np.abs(sample) < 1e-30)

    def test_matches_direct_formula(self):
        # the kernel against direct_formula for each drawn path and its
        # mirror, unshifted (phi = 0) and shifted; 40 drawn paths fill one
        # kernel chunk and part of a second, and the kernel's buffers follow
        # the dtype of the increments
        cfg = MCConfig(d=2, T=1.0, x=(0.3, -0.2), n_paths=80, n_steps=64,
                       eps2=0.05, seed=7)
        inc = simulate_increments(cfg, 0).astype(np.float64)
        assert len(inc) == 40
        zero = zero_grid(cfg)
        shift = TestFunction([[0.5, -0.2], [0.3]]).eval_all(
            np.arange(cfg.n_steps) * (cfg.T / cfg.n_steps))

        expected, _ = direct_formula(cfg, inc, zero, cfg.eps2)
        shifted, _ = direct_formula(cfg, inc, shift, cfg.eps2)
        for layout in (inc, np.ascontiguousarray(inc)):
            for grid, ref in [(zero, expected), (shift, shifted)]:
                assert np.allclose(mollified_current_sample(cfg, layout, grid),
                                   ref, rtol=1e-12, atol=1e-14)
        # at eps2 = 0.01 some log-densities fall below the kernel's floor of
        # -72 and below float32's smallest normal exp, about -87
        narrow, lowest = direct_formula(cfg, inc, zero, 0.01)
        assert lowest < -87.0
        for eps2, grid, ref in [(cfg.eps2, zero, expected),
                                (0.01, zero, narrow),
                                (cfg.eps2, shift, shifted)]:
            sample32 = mollified_current_sample(
                dataclasses.replace(cfg, eps2=eps2), inc.astype(np.float32),
                grid)
            for part, ref_part in zip(sample32, ref):
                assert part.dtype == np.float32
                assert part.shape == (2, 40, 2)
                for row in range(2):
                    assert np.allclose(part[row], ref_part[row], rtol=1e-4,
                                       atol=1e-5 * np.abs(ref_part[row]).max())

    @pytest.mark.parametrize("d, n_paths, n_steps", [
        (2, 80, 1), (2, 80, 15), (2, 80, 17), (2, 80, 4097), (1, 69, 100),
        (3, 80, 64)],
        ids=["steps-1", "steps-15", "steps-17", "steps-4097",
             "odd-paths-partial-chunk", "d-3"])
    def test_blocked_scan_matches_direct_formula(self, d, n_paths, n_steps):
        # the prefix sum runs in 16-step blocks: step counts that leave a
        # partial block (or only one), 35 drawn paths that leave a chunk of
        # 3, and three components, each against direct_formula at
        # test_matches_direct_formula's tolerances
        x = (0.3, -0.2, 0.1)[:d]
        cfg = MCConfig(d=d, T=1.0, x=x, n_paths=n_paths, n_steps=n_steps,
                       eps2=0.05, seed=7)
        inc = simulate_increments(cfg, 0).astype(np.float64)
        shift = TestFunction([[0.5, -0.2], [0.3], [-0.4, 0.1]][:d]).eval_all(
            np.arange(cfg.n_steps) * (cfg.T / cfg.n_steps))
        for grid in (zero_grid(cfg), shift):
            ref, _ = direct_formula(cfg, inc, grid, cfg.eps2)
            assert np.allclose(mollified_current_sample(cfg, inc, grid), ref,
                               rtol=1e-12, atol=1e-14)
            sample32 = mollified_current_sample(cfg, inc.astype(np.float32),
                                                grid)
            for part, ref_part in zip(sample32, ref):
                assert part.shape == (2, len(inc), d)
                for row in range(2):
                    assert np.allclose(part[row], ref_part[row], rtol=1e-4,
                                       atol=1e-5 * np.abs(ref_part[row]).max())

    @pytest.mark.parametrize("case", range(len(MC_ACCEPTANCE_CASES)))
    def test_float32_scan_matches_float64_at_4096_steps(self, case):
        # criterion 5's cases at its 4,096 steps, 32 drawn paths: the
        # float32 kernel against the same increments in float64, within
        # 32 float32 epsilons of the largest sample (a serial float32
        # prefix sum over 4,096 steps is off by 12 to 68 of them here)
        c = MC_ACCEPTANCE_CASES[case]
        cfg = MCConfig(d=c["d"], T=1.0, x=tuple(c["x"]), n_paths=64,
                       n_steps=4096, eps2=c["eps2"], seed=c["seed"])
        inc = simulate_increments(cfg, 0)
        grid = mc_acceptance_phi(cfg.d, cfg.eps2).eval_all(
            np.arange(cfg.n_steps) * (cfg.T / cfg.n_steps))
        tol = 32 * np.finfo(np.float32).eps
        for part, ref in zip(
                mollified_current_sample(cfg, inc, grid),
                mollified_current_sample(cfg, inc.astype(np.float64), grid)):
            assert np.abs(part - ref).max() <= tol * np.abs(ref).max()

    def test_zero_phi_is_the_unshifted_current_bit_for_bit(self):
        # at phi = 0 the centre x_j - c_j(t_k) is x_j, so g == f == the
        # unshifted float32 Ito sums, written out here with the scalar x_j in
        # the kernel's order of operations over one chunk (32 drawn paths):
        # B_j and x_j scaled by 1/sqrt(2 eps2), B_j from a blocked scan
        cfg = MCConfig(d=2, T=1.0, x=(0.3, -0.2), n_paths=64, n_steps=64,
                       eps2=0.05, seed=7)
        inc = simulate_increments(cfg, 0)
        g, f = mollified_current_sample(cfg, inc, zero_grid(cfg))
        # 64 steps are 4 blocks of 16: column 0 of each block's row holds
        # its offset, the scaled sum of the blocks before it, and one
        # stacked product adds the increments before each step
        scale = 1.0 / math.sqrt(2.0 * cfg.eps2)
        scan = np.zeros((17, 16), dtype=np.float32)
        scan[0] = 1.0
        scan[1:] = np.triu(np.full((16, 16), scale), k=1)
        q = np.zeros((2, 32, 64), dtype=np.float32)
        for j in range(2):
            buf = np.zeros((32, 4, 17), dtype=np.float32)
            buf[:, :, 1:] = inc[:, :, j].reshape(32, 4, 16)
            totals = buf[:, :, 1:] @ np.full(16, scale, dtype=np.float32)
            buf[:, 1:, 0] = np.cumsum(totals[:, :-1], axis=1)
            b = (buf @ scan).reshape(32, 64)
            for r, sign in enumerate((-1.0, 1.0)):
                q[r] += (b + sign * np.float32(cfg.x[j] * scale)) ** 2
        q = -math.log(2.0 * math.pi * cfg.eps2) - q
        dens = np.exp(np.maximum(q, -72.0))
        old = np.array([[np.vecdot(dens[r], inc[:, :, j])
                         for j in range(2)] for r in range(2)])
        old[1] *= -1.0
        old = old.transpose(0, 2, 1)
        assert np.array_equal(f, old)
        assert np.array_equal(g, f)

    def test_no_subnormal_densities(self):
        # block 0 of criterion 5's d = 2, eps2 = 0.01 case, in float32, on
        # its shifted path: without the log-density floor, exp returns
        # subnormals there
        case = next(c for c in MC_ACCEPTANCE_CASES
                    if c["d"] == 2 and c["eps2"] == 0.01)
        cfg = MCConfig(d=2, T=1.0, x=tuple(case["x"]), n_paths=200_000,
                       n_steps=4096, eps2=0.01, seed=case["seed"])
        inc = simulate_increments(cfg, 0)
        assert inc.dtype == np.float32
        grid = mc_acceptance_phi(2, 0.01).eval_all(
            np.arange(cfg.n_steps) * (cfg.T / cfg.n_steps))
        with np.errstate(under="raise"):
            sample = mollified_current_sample(cfg, inc, grid)
        assert np.all(np.isfinite(sample))

    def test_ito_sum_is_centered(self):
        # 100,000 drawn paths, row 0 of each: f stays centred on the
        # shifted path, whose density is still adapted
        cfg = small_cfg(n_paths=200_000, n_steps=64, x=(0.3,))
        grid = TestFunction([[0.5]]).eval_all(
            np.arange(cfg.n_steps) * (cfg.T / cfg.n_steps))
        samples = np.concatenate([mollified_current_sample(
            cfg, simulate_increments(cfg, b), grid)[1][0]
            for b in range(cfg.n_blocks)]).astype(np.float64)
        stderr = samples.std() / np.sqrt(len(samples))
        assert abs(samples.mean()) <= 4 * stderr


class TestMCSTransform:
    def test_phi_zero_centered(self):
        # at phi = 0 the shift is 0, so g == f is its own control variate
        # and the estimate is exactly 0 +- 0
        cfg = small_cfg(n_paths=20_000)
        est = mc_s_transform(cfg, TestFunction.zero(1, 2))
        assert est.mean.tolist() == [0.0]
        assert est.stderr.tolist() == [0.0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            mc_s_transform(small_cfg(), TestFunction([[0.2], [0.1]]))

    def test_x_orthogonal_component_is_exactly_zero(self):
        # criterion 5's d = 2 case: phi_1 = 0 adds no drift, so g_1 == f_1,
        # beta = 1 and the estimate is 0 +- 0, as the closed form is 0
        case = next(c for c in MC_ACCEPTANCE_CASES if c["d"] == 2)
        phi = mc_acceptance_phi(2, case["eps2"])
        cfg = MCConfig(d=2, T=1.0, x=tuple(case["x"]), n_paths=4096,
                       n_steps=256, eps2=case["eps2"], seed=case["seed"])
        est = mc_s_transform(cfg, phi)
        assert est.mean[1] == 0.0 and est.stderr[1] == 0.0
        assert est.stderr[0] > 0.0
        assert s_current_mollified(CurrentParams(case["x"], 1.0), phi,
                                   case["eps2"])[1] == 0.0

    def test_agrees_with_the_wick_exponential_weight(self):
        # S F(phi) = E[F(w) exp(<w, phi> - |phi|^2 / 2)] by definition and
        # E[F(w + phi)] by Cameron-Martin: the weighted mean over unshifted
        # pairs, with <w, phi> a left-endpoint sum and |phi| over [0, T]
        phi = TestFunction([[0.5, -0.2]])
        cfg = small_cfg(n_paths=20_000, n_steps=256)
        t_left = np.arange(cfg.n_steps) * (cfg.T / cfg.n_steps)
        log_c = -0.5 * phi.l2_norm_on_interval(0.0, cfg.T) ** 2
        pairs = []
        for b in range(cfg.n_blocks):
            inc = simulate_increments(cfg, b).astype(np.float64)
            current = mollified_current_sample(cfg, inc, zero_grid(cfg))[1]
            s = inc[:, :, 0] @ phi.eval(t_left, 0)
            weight = np.exp(np.stack([s, -s]) + log_c)
            pairs.append(0.5 * (current[:, :, 0] * weight).sum(axis=0))
        weighted = np.concatenate(pairs)
        est = mc_s_transform(cfg, phi)
        stderr = math.hypot(weighted.std(ddof=1) / math.sqrt(len(weighted)),
                            est.stderr[0])
        assert abs(weighted.mean() - est.mean[0]) <= 4 * stderr

    def test_matches_closed_form_d1(self, rng):
        phi = TestFunction([[0.5]])
        cfg = small_cfg(n_paths=40_000, n_steps=1024, eps2=0.05, seed=11)
        est = mc_s_transform(cfg, phi)
        closed = s_current_mollified(CurrentParams([0.5], 1.0), phi, 0.05,
                                     tol=1e-11)
        assert np.all(np.abs(est.mean - closed) <= 4 * est.stderr)

    def test_matches_closed_form_d2(self, rng):
        phi = TestFunction([[0.4, 0.2], [0.3]])
        cfg = MCConfig(d=2, T=1.0, x=(1.0, 0.0), n_paths=40_000, n_steps=1024,
                       eps2=0.05, seed=12)
        est = mc_s_transform(cfg, phi)
        closed = s_current_mollified(CurrentParams([1.0, 0.0], 1.0), phi,
                                     0.05, tol=1e-11)
        assert np.all(np.abs(est.mean - closed) <= 4 * est.stderr)

    def test_unbiased_over_seed_replicates(self):
        # |mean - closed| <= 4 stderr in >= 95% of 40 replicates
        phi = TestFunction([[0.5]])
        closed = s_current_mollified(CurrentParams([0.5], 1.0), phi, 0.05,
                                     tol=1e-11)
        hits = 0
        for seed in range(40):
            cfg = small_cfg(n_paths=2000, n_steps=64, seed=seed)
            est = mc_s_transform(cfg, phi)
            hits += bool(np.all(np.abs(est.mean - closed) <= 4 * est.stderr))
        assert hits >= 38

    @pytest.mark.parametrize("n_paths", [37, BLOCK_SIZE + 1])
    def test_odd_path_count_evaluates_ceil_half_pairs(self, n_paths):
        # an odd count evaluates one extra mirrored path: the samples and
        # the stderr are over ceil(n/2) pair means
        phi = TestFunction([[0.5, -0.2]])
        cfg = small_cfg(n_paths=n_paths, n_steps=32)
        pairs = math.ceil(n_paths / 2)
        assert sum(len(simulate_increments(cfg, b))
                   for b in range(cfg.n_blocks)) == pairs
        bodies = {mc_s_transform(cfg, phi, n_threads=k).to_json()
                  for k in (1, 2, 8)}
        assert len(bodies) == 1
        body = json.loads(bodies.pop())
        assert np.all(np.isfinite(body["mean"] + body["stderr"]))
        assert body["n_effective"] == n_paths
        t_left = np.arange(cfg.n_steps) * (cfg.T / cfg.n_steps)
        g, f = map(np.concatenate, zip(*(
            montecarlo._block_moments(cfg, phi.eval_all(t_left), b)
            for b in range(cfg.n_blocks))))
        assert g.shape == f.shape == (pairs, cfg.d)
        # the one-pass moment algebra, independent of the estimator's
        sg, sgg, sf, sff, sgf = (g.sum(0), (g * g).sum(0), f.sum(0),
                                 (f * f).sum(0), (g * f).sum(0))
        mean_g, mean_f = sg / pairs, sf / pairs
        var_f = sff / pairs - mean_f ** 2
        cov = sgf / pairs - mean_g * mean_f
        beta = cov / var_f
        var = (sgg / pairs - mean_g ** 2 - beta * cov) * pairs / (pairs - 1)
        assert body["mean"] == pytest.approx(mean_g - beta * mean_f, rel=1e-9)
        assert body["stderr"] == pytest.approx(np.sqrt(var / pairs), rel=1e-9)

    def test_single_pair_has_zero_stderr(self):
        # one path is one pair: n - 1 = 0, so the stderr divides by 1
        phi = TestFunction([[0.5, -0.2]])
        cfg = small_cfg(n_paths=1, n_steps=32)
        bodies = {mc_s_transform(cfg, phi, n_threads=k).to_json()
                  for k in (1, 2)}
        assert len(bodies) == 1
        body = json.loads(bodies.pop())
        assert np.all(np.isfinite(body["mean"]))
        assert body["stderr"] == [0.0]

    def test_one_draw_and_one_kernel_call_per_block(self, monkeypatch):
        # perfbench's tracer splits block time into rng and kernel by
        # wrapping these module globals, and its own test pins one call of
        # each per block.  The draw call opens the block's stream and sizes
        # the block, one path per pair; the kernel then draws each chunk of
        # CHUNK_PATHS drawn paths in stream order and reads it once: its
        # (g, f) are the kernel's on the whole block's array, bit for bit
        cfg = MCConfig(d=2, T=1.0, x=(0.5, 0.0), n_paths=2 * BLOCK_SIZE + 37,
                       n_steps=8, eps2=0.05, seed=3)
        phi = TestFunction([[0.5], [0.3]])
        calls = {"rng": [], "kernel": [], "block": [], "chunks": []}
        rng = montecarlo.simulate_increments
        kernel = montecarlo.mollified_current_sample
        box_muller = montecarlo._box_muller
        block_moments = montecarlo._block_moments

        def drawing(cfg, block, *args):
            out = rng(cfg, block, *args)
            calls["rng"].append((block, out.size))
            return out

        def running(cfg, draws, *args):
            out = kernel(cfg, draws, *args)
            calls["kernel"].append((draws, [a.copy() for a in out]))
            return out

        def chunk(bitgen, z, var):
            box_muller(bitgen, z, var)
            calls["chunks"].append(z.size)

        def block(cfg, phi_grid, b, *args):
            calls["block"].append(b)
            return block_moments(cfg, phi_grid, b, *args)

        for attr, fn in [("simulate_increments", drawing),
                         ("mollified_current_sample", running),
                         ("_box_muller", chunk), ("_block_moments", block)]:
            monkeypatch.setattr(montecarlo, attr, fn)
        mc_s_transform(cfg, phi, n_threads=2)
        pairs = [(cfg.block_paths(b) + 1) // 2 for b in range(cfg.n_blocks)]
        assert sorted(calls["block"]) == list(range(cfg.n_blocks))
        assert sorted(calls["rng"]) == [
            (b, p * cfg.n_steps * cfg.d) for b, p in enumerate(pairs)]
        assert sum(calls["chunks"]) == (
            math.ceil(cfg.n_paths / 2) * cfg.n_steps * cfg.d)
        assert len(calls["chunks"]) == sum(
            math.ceil(p / CHUNK_PATHS) for p in pairs)
        assert len(calls["kernel"]) == cfg.n_blocks
        grid = phi.eval_all(np.arange(cfg.n_steps) * (cfg.T / cfg.n_steps))
        for draws, (g, f) in calls["kernel"]:
            whole = kernel(cfg, rng(cfg, draws.block), grid)
            assert np.array_equal(g, whole[0]) and np.array_equal(f, whole[1])

    def test_one_workspace_per_worker_bounds_allocation(self):
        # criterion 5's d = 2 case at 2,048 paths and 4,096 steps: a block's
        # increments alone are 16 MiB, and one thread's workspace 3.5 MiB;
        # tracemalloc's peak was 18.8 MiB with a block-sized array per block
        case = next(c for c in MC_ACCEPTANCE_CASES if c["d"] == 2)
        cfg = MCConfig(d=2, T=1.0, x=tuple(case["x"]), n_paths=2048,
                       n_steps=4096, eps2=case["eps2"], seed=case["seed"])
        phi = mc_acceptance_phi(2, case["eps2"])
        mc_s_transform(cfg, phi, n_threads=1)
        tracemalloc.start()
        try:
            mc_s_transform(cfg, phi, n_threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * 2 ** 20

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_one_workspace_built_per_worker(self, monkeypatch, n_threads):
        # a workspace per block would rebuild its constants and buffers for
        # each of the 4 blocks
        built = []

        class Counted(montecarlo._Workspace):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "_Workspace", Counted)
        cfg = small_cfg(n_paths=4 * BLOCK_SIZE, n_steps=16)
        assert cfg.n_blocks == 4
        mc_s_transform(cfg, TestFunction([[0.5, 0.2]]), n_threads=n_threads)
        assert 1 <= len(built) <= n_threads

    @pytest.mark.parametrize("n_threads", [0, -2, 2.5, True, "2"])
    def test_thread_count_not_a_positive_integer_rejected(self, n_threads):
        # True ran one thread, 2.5 was accepted and 0 meant the default
        with pytest.raises(ValueError, match=(
                f"n_threads must be an integer >= 1, got {n_threads!r}")):
            mc_s_transform(small_cfg(n_paths=8, n_steps=4),
                           TestFunction([[0.5]]), n_threads=n_threads)

    def test_stderr_shrinks_like_inverse_sqrt_n(self):
        stderrs = []
        ns = [1000, 10_000, 100_000]
        phi = TestFunction([[0.5]])
        for n in ns:
            cfg = small_cfg(n_paths=n, n_steps=128, seed=5)
            est = mc_s_transform(cfg, phi)
            stderrs.append(est.stderr[0])
        slope = np.polyfit(np.log(ns), np.log(stderrs), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)

    def test_grid_bias_below_noise(self):
        # halving M changes the estimate by < 1 stderr at the acceptance M;
        # tested with common random numbers (coarse increments summed from
        # the fine paths) so the paired difference isolates the grid bias
        phi = TestFunction([[0.5]])
        # 20,000 drawn paths, row 0 of each
        cfg_hi = small_cfg(n_paths=40_000, n_steps=4096, seed=21)
        cfg_lo = small_cfg(n_paths=40_000, n_steps=2048, seed=21)
        t_hi = np.arange(cfg_hi.n_steps) * cfg_hi.T / cfg_hi.n_steps
        t_lo = np.arange(cfg_lo.n_steps) * cfg_lo.T / cfg_lo.n_steps
        g_hi, g_lo = [], []
        for b in range(cfg_hi.n_blocks):
            inc = simulate_increments(cfg_hi, b).astype(np.float64)
            inc_lo = inc.reshape(inc.shape[0], -1, 2, 1).sum(axis=2)
            g_hi.append(mollified_current_sample(
                cfg_hi, inc, phi.eval_all(t_hi))[0][0, :, 0])
            g_lo.append(mollified_current_sample(
                cfg_lo, inc_lo, phi.eval_all(t_lo))[0][0, :, 0])
        g_hi = np.concatenate(g_hi)
        g_lo = np.concatenate(g_lo)
        stderr_hi = g_hi.std() / np.sqrt(len(g_hi))
        bias = abs(g_hi.mean() - g_lo.mean())
        assert bias <= stderr_hi


class TestDeterminism:
    def test_bit_identical_across_thread_counts(self):
        phi = TestFunction([[0.5, -0.2]])
        cfg = small_cfg(n_paths=8192, n_steps=128)
        bodies = {mc_s_transform(cfg, phi, n_threads=k).to_json()
                  for k in (1, 2, 8)}
        assert len(bodies) == 1

    def test_identical_config_identical_estimate(self):
        phi = TestFunction([[0.3]])
        cfg = small_cfg()
        a = mc_s_transform(cfg, phi)
        b = mc_s_transform(cfg, phi)
        assert a.to_json() == b.to_json()

    def test_env_var_caps_threads(self, monkeypatch):
        monkeypatch.setenv("HIDACUR_THREADS", "3")
        assert default_threads() == 3
        monkeypatch.delenv("HIDACUR_THREADS")
        assert default_threads() == min(8, len(os.sched_getaffinity(0)))

    @pytest.mark.parametrize("env, shown", [
        ("0", "0"), ("-4", "-4"), ("two", "'two'"), ("2.5", "'2.5'")])
    def test_env_var_not_a_positive_integer_rejected(self, monkeypatch, env,
                                                     shown):
        # 0 and -4 ran one thread, and "two" raised int()'s message, which
        # did not name the variable
        monkeypatch.setenv("HIDACUR_THREADS", env)
        with pytest.raises(ValueError, match=re.escape(
                f"HIDACUR_THREADS must be an integer >= 1, got {shown}")):
            default_threads()

    # (d, n_steps): SHA-256 of the estimate body at n_paths = 2 BLOCK_SIZE +
    # 37, whose last block of 37 paths draws 19, a partial chunk; neither
    # step count is a multiple of SCAN_STEPS
    PINNED_BODIES = {
        (1, 4090): "e27c3feb456434f35a0036374c7123656a21c05219e9a6aba18b054c0bfd5326",
        (2, 4090): "0a754ccea4e3fe56bccd823adf6d4d7aacb667d3d20929c571760965edc2cbd7",
        (3, 4090): "077b9a2d01458cc7129983807611d6780f248f12e095c9c33ac2e194faa862ee",
        (1, 17): "274541eb2a56c14f219648eea277a3407a38fb33e0521d6f8c1da4dbfacb0cf9",
        (2, 17): "96ce214a5015266caad092ae1edfbab1de4ed5876f3aec6de72a2cff63d63749",
        (3, 17): "8b2bfee629e516d7f436ef8b2be36ba82896ba132375964bf978c9b05dfdcb53",
    }

    @pytest.mark.parametrize("n_threads", [1, 3])
    @pytest.mark.parametrize("d, n_steps", list(PINNED_BODIES))
    def test_pinned_bodies(self, d, n_steps, n_threads):
        # any change to the draws, the kernel or the chunk loop that moves
        # a bit of the estimate changes its body's digest
        cfg = MCConfig(d=d, T=1.0, x=(0.3, -0.2, 0.1)[:d],
                       n_paths=2 * BLOCK_SIZE + 37, n_steps=n_steps,
                       eps2=0.05, seed=20261020)
        phi = TestFunction([[0.5, -0.2], [0.3], [-0.4, 0.1]][:d])
        body = mc_s_transform(cfg, phi, n_threads=n_threads).to_json()
        assert hashlib.sha256(body.encode()).hexdigest() == \
            self.PINNED_BODIES[d, n_steps]


class TestSerialization:
    def test_estimate_json_fields(self):
        # the body criterion 8 compares: its keys, in this order, name the
        # block size and dtype the paths were drawn in
        cfg = small_cfg(n_paths=512)
        est = mc_s_transform(cfg, TestFunction([[0.2]]))
        body = json.loads(est.to_json())
        assert list(body) == ["mean", "stderr", "n_effective", "config"]
        assert body["n_effective"] == 512
        assert list(body["config"].items()) == [
            ("d", 1), ("T", 1.0), ("x", [0.5]), ("n_paths", 512),
            ("n_steps", 256), ("eps2", 0.05), ("seed", 99),
            ("block_size", 1024), ("dtype", "float32")]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            MCConfig(d=1, T=1.0, x=(0.5, 0.3), n_paths=10, n_steps=10,
                     eps2=0.05, seed=0)
        with pytest.raises(ValueError):
            small_cfg(eps2=0.0)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, 7.0, True])
    def test_seed_not_a_u64_rejected(self, seed):
        # a float seed would be truncated into the key: 1.5 would draw the
        # paths of seed 1, and JSON true those of seed 1
        with pytest.raises(ValueError, match="seed"):
            small_cfg(seed=seed)

    @pytest.mark.parametrize("field,value", [
        ("d", 1.0), ("n_paths", 2048.0), ("n_steps", 64.5), ("n_steps", "64"),
        ("n_paths", True), ("d", True)])
    def test_count_not_an_integer_rejected(self, field, value):
        # 2048.0 paths ran and wrote a float into the estimate body; 64.5
        # steps failed later with a TypeError that named no field; JSON true
        # ran as 1
        with pytest.raises(ValueError, match=field):
            small_cfg(**{field: value})

    @pytest.mark.parametrize("kw", [
        {"x": (math.nan,)}, {"x": (math.inf,)}, {"x": (-math.inf,)},
        {"T": math.inf}, {"T": math.nan}, {"eps2": math.inf},
        {"eps2": math.nan}])
    def test_non_finite_inputs_rejected(self, kw):
        # each gave a NaN mean or 0 +- 0 without an error
        with pytest.raises(ValueError, match="finite"):
            small_cfg(**kw)

    @pytest.mark.parametrize("kw, message", [
        ({"x": (math.nan,)}, "x must be finite, got [nan]"),
        ({"T": math.inf}, "T must be finite and > 0, got inf"),
        ({"T": 0.0}, "T must be finite and > 0, got 0.0"),
        ({"x": (0.5, 0.1)}, "x must have length d=1")])
    def test_point_check_messages(self, kw, message):
        # x and T are checked by CurrentParams, the length by MCConfig
        with pytest.raises(ValueError) as exc:
            small_cfg(**kw)
        assert str(exc.value) == message

    @pytest.mark.parametrize("field, value", [
        ("n_paths", 0), ("n_steps", 0), ("n_paths", -4)])
    def test_count_below_one_rejected(self, field, value):
        with pytest.raises(ValueError,
                           match=f"{field} must be an integer >= 1, got {value}"):
            small_cfg(**{field: value})

    def test_x_is_stored_as_a_tuple_of_floats(self):
        cfg = small_cfg(d=2, x=np.array([1, 0]))
        assert cfg.x == (1.0, 0.0) and all(type(v) is float for v in cfg.x)

    def test_integer_t_and_eps2_write_one_body(self):
        # T=1 wrote "T": 1 and T=1.0 "T": 1.0, two bodies for one point
        phi = TestFunction([[0.2]])
        bodies = [mc_s_transform(small_cfg(T=T, eps2=eps2, n_paths=64,
                                           n_steps=16), phi).to_json()
                  for T, eps2 in ((1, 1), (1.0, 1.0), (np.int64(1), 1.0))]
        assert bodies[0] == bodies[1] == bodies[2]
        cfg = small_cfg(T=2, eps2=1)
        assert type(cfg.T) is float and type(cfg.eps2) is float
