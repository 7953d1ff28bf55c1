"""Path-level verification of the closed-form S-transforms.

Brownian paths are simulated blockwise, each block from its own SFC64
stream seeded by SeedSequence(seed, spawn_key=(block,)) for any seed in
[0, 2^64), so every (path, step, component) increment is a pure function of
the config and the result is bit-identical no matter how many worker threads
run the blocks.  The normals come from a vectorised Box-Muller transform of
the raw SFC64 bits (see ``simulate_increments``).  A block (``BLOCK_SIZE``
paths) is the unit of keying and of thread work.  Each drawn path w is
evaluated with its mirror -w, also Brownian, so a block of n paths draws
ceil(n/2) paths.  The sampler and kernel run over chunks of ``CHUNK_PATHS``
drawn paths, whose arrays stay in the core's L2 cache while the passes over
them run.  Paths are drawn and summed in ``DTYPE`` (float32), and each block
returns its pair means in float64.  By Cameron-Martin the S-transform is
the mean on the shifted path, S F(phi) = E[F(w + phi)] (Kuo, White Noise
Distribution Theory, 1996), so the mollified current is realized on w + phi
as a left-endpoint (Ito) sum

    sum_k p_eps2(x - c(t_k) - B(t_k)) (dB(t_k) + phi(t_k) dt),

with c(t_k) = sum_{i<k} phi(t_i) dt (the identity is exact on the grid).
For the adapted, square-integrable mollified integrand this Ito sum
coincides with the anticipating integral the closed forms describe.

B(t_k) comes from a two-level blocked prefix sum (Blelloch, Prefix sums and
their applications, 1990), not a serial cumsum, which runs at about 3 ns a
step and is not vectorised.  Each path's increments go into blocks of
``SCAN_STEPS`` = 16 steps, one row of a (paths, blocks, 17) buffer each,
zero-padded past n_steps.  Column 0 of a row holds the block's offset, the
cumsum of the block totals before it, which come from one product with a
ones vector.  One product of the buffer with a fixed (17, 16) matrix,
whose row 0 is all ones and rows 1.. strictly upper-triangular ones, then
gives B(t_k) for the whole chunk, scaled by 1/sqrt(2 eps2) through the
matrix.  Both products are stacked, at most ``SCAN_BLOCKS`` = 128 rows to
a BLAS call, so no call does 262,144 multiply-adds, OpenBLAS's threshold for
spawning its own threads, which compete with the block threads (a 2-D
(4096, 17) x (17, 16) product ran about 90x slower on 2 vCPUs).  Each
B(t_k) adds at most 15 increments to a sum of at most 255 block totals at
4,096 steps, so the float32 scan is no less accurate than the serial one:
against the same increments in float64, its (g, f) on criterion 5's cases
are within 12 float32 epsilons of the largest sample, the serial sum's
within 68.

The kernel floors the log-density at -72 before exponentiating.  Below
about -87 a float32 exp is subnormal, and exp and the sum over subnormals
run over 10x slower.  The floored density e^-72 ~ 5e-32 times any increment
above ~1e-5 standard deviations is still a normal float32, and it changes no
sum it joins.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .errors import check_int, check_positive, check_seed
from .stransform import CurrentParams

__all__ = ["MCConfig", "MCEstimate", "simulate_increments",
           "mollified_current_sample", "mc_s_transform", "default_threads"]

BLOCK_SIZE = 1024
# bulk path arithmetic; reductions stay float64
DTYPE = np.float32
# paths per chunk: a chunk's float32 arrays (32 paths x 4096 steps is
# 512 KiB per component) stay in L2 through the sampler and kernel passes
CHUNK_PATHS = 32
# the kernel's prefix sum: steps per scan block, and scan blocks per BLAS
# call (128 x 17 x 16 multiply-adds, under OpenBLAS's threading threshold)
SCAN_STEPS = 16
SCAN_BLOCKS = 128


@dataclass(frozen=True)
class MCConfig:
    d: int
    T: float
    x: tuple
    n_paths: int
    n_steps: int
    eps2: float
    seed: int

    def __post_init__(self):
        for name in ("d", "n_paths", "n_steps"):
            check_int(name, getattr(self, name), 1)
        p = CurrentParams(self.x, self.T)
        if p.d != self.d:
            raise ValueError(f"x must have length d={self.d}")
        check_seed(self.seed)
        for name, value in (("x", tuple(p.x.tolist())), ("T", p.T),
                            ("eps2", check_positive("eps2", self.eps2))):
            object.__setattr__(self, name, value)

    @property
    def n_blocks(self):
        return math.ceil(self.n_paths / BLOCK_SIZE)

    def block_paths(self, block):
        return min(BLOCK_SIZE, self.n_paths - block * BLOCK_SIZE)


@dataclass(frozen=True, eq=False)
class MCEstimate:
    mean: np.ndarray            # (d,)
    stderr: np.ndarray          # (d,)
    config: MCConfig

    def to_json(self):
        # the body also names the block size and dtype the paths were drawn in
        return json.dumps({
            "mean": self.mean.tolist(),
            "stderr": self.stderr.tolist(),
            "n_effective": self.config.n_paths,
            "config": {**asdict(self.config), "block_size": BLOCK_SIZE,
                       "dtype": np.dtype(DTYPE).name},
        })


def simulate_increments(cfg, block):
    """Drawn increments dB for one path block, shape (ceil(n/2), n_steps, d).

    i.i.d. N(0, T/M) per step per component; deterministic in (seed, block).
    The block's n = ``cfg.block_paths(block)`` paths are antithetic pairs:
    one path of each pair is drawn, and its mirror is -dB.

    The block's stream is SFC64 seeded by SeedSequence(seed,
    spawn_key=(block,)): keyed, not advanced, so a block never depends on
    scheduling, and about half Philox's cost per 64-bit word.  It is read in
    chunks of ``CHUNK_PATHS`` paths.  Each 32-bit half of a raw 64-bit word
    gives a midpoint uniform u = (k + 1/2) 2^-24 from its top 24 bits k, in
    (0, 1]: in float32, k + 1/2 rounds to an even integer for k >= 2^23, so
    k = 2^24 - 1 gives u = 1 exactly.  A vectorised Box-Muller transform
    pairs a radius uniform u1 from the first half of a chunk's words with an
    angle uniform u2 from the second half and returns sqrt(-2 ln u1)
    cos(2 pi u2) and sqrt(-2 ln u1) sin(2 pi u2); u1 = 1 gives radius 0 and
    a draw of exactly 0.  Since u1 >= 2^-25, no draw exceeds
    sqrt(50 ln 2) ~ 5.9 standard deviations, which a true normal does with
    probability ~4e-9.

    The array is a view of a C-ordered (paths, d, n_steps) buffer, so each
    component of each path is contiguous along time.
    """
    if not 0 <= block < cfg.n_blocks:
        raise IndexError(f"block {block} out of range")
    n, m, d = (cfg.block_paths(block) + 1) // 2, cfg.n_steps, cfg.d
    bitgen = np.random.SFC64(np.random.SeedSequence(cfg.seed,
                                                    spawn_key=(block,)))
    out = np.empty((n, d, m), dtype=DTYPE)
    for lo in range(0, n, CHUNK_PATHS):
        _box_muller(bitgen, out[lo:lo + CHUNK_PATHS].reshape(-1), cfg.T / m)
    return out.transpose(0, 2, 1)


def _box_muller(bitgen, z, var):
    """Fill the 1-d array z with N(0, var) draws from bitgen's raw output."""
    count = z.size
    half = (count + 1) // 2
    bits = bitgen.random_raw(half).view(np.uint32)
    np.right_shift(bits, 8, out=bits)
    u = bits.astype(z.dtype)
    u += 0.5
    u *= 2.0 ** -24
    radius, angle = u[:half], u[half:]
    np.log(radius, out=radius)
    radius *= -2.0 * var
    np.sqrt(radius, out=radius)
    angle *= 2.0 * math.pi
    rest = count - half
    np.cos(angle, out=z[:half])
    z[:half] *= radius
    np.sin(angle[:rest], out=z[half:])
    z[half:] *= radius[:rest]


def mollified_current_sample(cfg, increments, phi_grid):
    """Ito sums (g, f) of the mollified current on the shifted paths w + phi
    (row 0) and -w + phi (row 1), each shape (2, paths, d).

    f = +-sum_k p_eps2(x - c(t_k) -+ B(t_k)) dB(t_k), an Ito sum of an adapted
    integrand and so exactly centred; g adds sum_k p_eps2(...) phi(t_k) dt.
    increments is (paths, n_steps, d) and phi_grid, phi at the left endpoints,
    (d, n_steps); B(t_0) = 0, and p_eps2 is the d-dimensional Gaussian density
    of variance eps2.  Paths are taken ``CHUNK_PATHS`` at a time, and one
    blocked prefix sum per component (see the module docstring) serves both
    rows.  B and the centre x - c enter scaled by 1/sqrt(2 eps2), so the
    log-density is log_norm - sum_j (scaled B_j -+ scaled centre_j)^2.
    """
    inc = np.asarray(increments)
    n, m, d = inc.shape
    log_norm = -0.5 * d * math.log(2.0 * math.pi * cfg.eps2)
    scale = 1.0 / math.sqrt(2.0 * cfg.eps2)
    drift = np.asarray(phi_grid) * (cfg.T / m)           # phi_j(t_k) dt
    # the scaled centre x_j - c_j(t_k) both rows share, and the drift
    centre, drift = np.array([(np.asarray(cfg.x)[:, None] + drift
                               - drift.cumsum(axis=1)) * scale, drift],
                             dtype=inc.dtype)
    # scan matrix: row 0 adds the block's offset, rows 1.. the scaled
    # increments before each step of the block
    scan = np.zeros((SCAN_STEPS + 1, SCAN_STEPS), dtype=inc.dtype)
    scan[0] = 1.0
    scan[1:] = np.triu(np.full((SCAN_STEPS, SCAN_STEPS), scale), k=1)
    ones = np.full(SCAN_STEPS, scale, dtype=inc.dtype)
    full, rem = divmod(m, SCAN_STEPS)
    per_call = min(-(-m // SCAN_STEPS), SCAN_BLOCKS)
    blocks = -(-m // (SCAN_STEPS * per_call)) * per_call  # zero-padded

    def stacked(a):  # (paths, blocks, k) as (calls, per_call, k)
        return a.reshape(-1, per_call, a.shape[-1])

    g, f = np.empty((2, 2, n, d), dtype=inc.dtype)
    p = min(n, CHUNK_PATHS)
    # column 0: the block's exclusive offset; columns 1..: its increments
    buf = np.zeros((p, blocks, SCAN_STEPS + 1), dtype=inc.dtype)
    b = np.empty((p, blocks * SCAN_STEPS), dtype=inc.dtype)  # scaled B_j(t_k)
    s = np.empty((p, m), dtype=inc.dtype)                    # scratch
    q = np.empty((2, p, m), dtype=inc.dtype)  # |B -+ centre|^2, log p, p
    for lo in range(0, n, CHUNK_PATHS):
        rows = slice(lo, lo + CHUNK_PATHS)
        chunk = inc[rows]
        p = len(chunk)
        bufk, bk, sk, qk = buf[:p], b[:p], s[:p], q[:, :p]
        for j in range(d):
            steps = chunk[:, :, j]
            bufk[:, :full, 1:] = steps[:, :full * SCAN_STEPS].reshape(
                p, full, SCAN_STEPS)
            if rem:
                bufk[:, full, 1:rem + 1] = steps[:, full * SCAN_STEPS:]
            totals = np.matmul(stacked(bufk[:, :, 1:]), ones)
            np.cumsum(totals.reshape(p, blocks)[:, :-1], axis=1,
                      out=bufk[:, 1:, 0])
            np.matmul(stacked(bufk), scan, out=stacked(bk.reshape(
                p, blocks, SCAN_STEPS)))
            for qr, sign in zip(qk, (-1.0, 1.0)):
                term = qr if j == 0 else sk
                term[:] = sign * centre[j]  # faster than a broadcast add
                np.square(np.add(term, bk[:, :m], out=term), out=term)
                if j:
                    qr += term
        np.subtract(log_norm, qk, out=qk)
        np.maximum(qk, -72.0, out=qk)  # no subnormal densities (see above)
        dens = np.exp(qk, out=qk)
        for j in range(d):
            np.vecdot(dens, chunk[:, :, j], out=f[:, rows, j])
            np.vecdot(dens, drift[j], out=g[:, rows, j])
    f[1] *= -1.0
    g += f
    return g, f


def _block_moments(cfg, phi_grid, block):
    """One block's pair means (g, f), each (pairs, d) float64: g of the
    shifted current, f of its Ito part."""
    inc = simulate_increments(cfg, block)
    # float64 regardless of the path dtype
    return tuple(0.5 * row.astype(np.float64).sum(axis=0)
                 for row in mollified_current_sample(cfg, inc, phi_grid))


def default_threads():
    env = os.environ.get("HIDACUR_THREADS")
    if env:
        return max(1, int(env))
    return min(8, os.cpu_count() or 1)


def mc_s_transform(cfg, phi, n_threads=None):
    """Empirical S-transform of the mollified current at phi.

    Estimates E[current(w + phi)] componentwise, the current's mean on the
    shifted path, over cfg.n_paths paths in antithetic pairs (w, -w); the
    stderr is over the ceil(n/2) pair means of each block of n, so an odd
    n_paths evaluates one extra mirrored path.  Blocks are independent work
    units, and their pair means are joined in block order, so the estimate
    is bit-identical for any thread count.  Holding the pair means costs 32
    bytes per pair and component: 3.2 MB for 100,000 pairs at d = 2.

    The Ito part f of the shifted current g, whose mean is exactly zero for
    -w as for w, is subtracted as a control variate, h = g - beta f, with
    beta the regression coefficient of g on f over the pairs; this leaves
    the expectation unchanged up to O(1/N) and removes the noise g shares
    with f.
    """
    if phi.dimension != cfg.d:
        raise ValueError("test function dimension does not match d")
    n_threads = n_threads or default_threads()
    phi_grid = phi.eval_all(np.arange(cfg.n_steps) * (cfg.T / cfg.n_steps))

    # results in block order; _block_moments is looked up as a global per call
    with ThreadPoolExecutor(max_workers=n_threads) as ex:
        g, f = map(np.concatenate, zip(*ex.map(
            lambda b: _block_moments(cfg, phi_grid, b), range(cfg.n_blocks))))

    fc = f - f.mean(axis=0)
    sff = (fc * fc).sum(axis=0)
    beta = np.divide(((g - g.mean(axis=0)) * fc).sum(axis=0), sff,
                     out=np.zeros_like(sff), where=sff > 0)
    h = g - beta * f
    stderr = np.sqrt(h.var(axis=0) / max(len(h) - 1, 1))
    return MCEstimate(mean=h.mean(axis=0), stderr=stderr, config=cfg)
