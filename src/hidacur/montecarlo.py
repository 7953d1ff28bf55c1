"""Path-level verification of the closed-form S-transforms.

Brownian paths are simulated blockwise, each block from its own SFC64
stream seeded by SeedSequence(seed, spawn_key=(block,)) for any seed in
[0, 2^64), so every (path, step, component) increment is a pure function of
the config and the result is bit-identical no matter how many worker threads
run the blocks.  The normals come from a vectorised Box-Muller transform of
the raw SFC64 bits (see ``simulate_increments``).  A block (``BLOCK_SIZE``
paths) is the unit of keying and of thread work.  Each drawn path w is
evaluated with its mirror -w, also Brownian, so a block of n paths draws
ceil(n/2) paths.  A block is streamed one chunk of ``CHUNK_PATHS`` drawn
paths at a time: the kernel draws each chunk from the block's stream into
its worker's workspace just before it reads it, while the chunk's
increments (512 KiB per component at 4,096 steps) are still in the core's
L2 cache, and keeps only the chunk's (g, f) sums.  So a worker holds one
workspace, 3.0 MiB at d = 1 and 3.5 MiB at d = 2 at 4,096 steps, not a
block's increments (8 and 16 MiB); streams stay keyed per block.  Paths
are drawn and summed in ``DTYPE`` (float32), and each block returns its
pair means in float64.  By Cameron-Martin the S-transform is
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
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from types import SimpleNamespace

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


def simulate_increments(cfg, block, out=None):
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
    component of each path is contiguous along time.  Given out, a
    (CHUNK_PATHS, d, n_steps) workspace array, nothing is drawn yet: the
    block comes back as ``_Draws``, which draws each chunk into out when
    the kernel reaches it, the same draws in the same order.
    """
    draws = _Draws(cfg, block, out)
    if out is not None:
        return draws
    for _ in draws:  # every chunk into its own rows
        pass
    return draws.out.transpose(0, 2, 1)


class _Draws:
    """One block's increments, drawn from its stream a chunk at a time as
    they are read, so that a block makes one draw call and one kernel call
    (perfbench's tracer wraps both) while no array holds the whole block.

    shape, dtype, size and nbytes are those of the block's (paths, n_steps,
    d) array.  Iterating, once, draws each chunk of ``CHUNK_PATHS`` drawn
    paths in stream order and yields (lo, chunk), chunk a (paths, n_steps,
    d) view of out: of rows lo.. when out holds the whole block, else of
    its first rows, which the next chunk overwrites.
    """

    def __init__(self, cfg, block, out=None):
        if not 0 <= block < cfg.n_blocks:
            raise IndexError(f"block {block} out of range")
        self.block = block
        self.stream = np.random.SFC64(np.random.SeedSequence(
            cfg.seed, spawn_key=(block,)))
        self.var = cfg.T / cfg.n_steps
        self.shape = ((cfg.block_paths(block) + 1) // 2, cfg.n_steps, cfg.d)
        self.out = (np.empty((self.shape[0], cfg.d, cfg.n_steps), dtype=DTYPE)
                    if out is None else out)
        self.dtype = self.out.dtype
        self.size = math.prod(self.shape)
        self.nbytes = self.size * self.dtype.itemsize

    def __iter__(self):
        n = self.shape[0]
        for lo in range(0, n, CHUNK_PATHS):
            start = lo % len(self.out)  # lo in a whole block, else 0
            rows = self.out[start:start + min(CHUNK_PATHS, n - lo)]
            _box_muller(self.stream, rows.reshape(-1), self.var)
            yield lo, rows.transpose(0, 2, 1)


def _box_muller(bitgen, z, var):
    """Fill the 1-d float32 array z with N(0, var) draws from bitgen's raw
    output.  The radius uniforms are cast into z and the angle uniforms
    into the radius bits they follow, so the raw words are the only array
    allocated."""
    count = z.size
    half = (count + 1) // 2
    bits = bitgen.random_raw(half).view(np.uint32)
    np.right_shift(bits, 8, out=bits)
    radius, angle = z[:half], bits[:half].view(z.dtype)
    for u, k in ((radius, bits[:half]), (angle, bits[half:])):
        np.add(k, z.dtype.type(0.5), out=u, dtype=z.dtype)  # cast and + 1/2
        u *= 2.0 ** -24
    np.log(radius, out=radius)
    radius *= -2.0 * var
    np.sqrt(radius, out=radius)
    angle *= 2.0 * math.pi
    rest = count - half
    np.sin(angle[:rest], out=z[half:])
    z[half:] *= radius[:rest]
    np.cos(angle, out=angle)
    radius *= angle


class _Workspace:
    """One worker's arrays for chunks of up to ``paths`` drawn paths, reused
    by every chunk it runs, and the kernel's constants ``const``, which
    every worker of one ``mc_s_transform`` call shares read-only.

    The sampler's (paths, d, n_steps) increments and the kernel's scan
    buffer, scaled B, scratch and q are slices of one zeroed buffer, which
    glibc's malloc then keeps for the next call's: as five separate arrays
    they cost about 2,050 minor page faults per mc-grid op against 9.  The
    scan buffer's column 0 holds each scan block's exclusive offset and
    columns 1.. its increments; past n_steps and in block 0's offset it
    stays zero, as no chunk writes there.
    """

    def __init__(self, const, paths=CHUNK_PATHS):
        d, m = const.centre.shape
        blocks = const.blocks
        shapes = [(paths, d, m), (paths, blocks, SCAN_STEPS + 1),
                  (paths, blocks * SCAN_STEPS), (paths, m), (2, paths, m)]
        sizes = [math.prod(shape) for shape in shapes]
        flat = np.zeros(sum(sizes), dtype=const.centre.dtype)
        self.const = const
        # q holds |B -+ centre|^2, then log p, then p
        self.increments, self.buf, self.b, self.s, self.q = (
            part.reshape(shape) for part, shape in
            zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes))


def _kernel_constants(cfg, phi_grid, dtype):
    """The kernel's per-config constants for phi_grid (phi at the left
    endpoints, (d, n_steps)) in dtype: log_norm, the scaled centre and the
    drift, each (d, n_steps), the scan matrix and ones vector, and the scan
    layout (scan blocks per BLAS call, and scan blocks zero-padded to a
    multiple of it)."""
    m = cfg.n_steps
    scale = 1.0 / math.sqrt(2.0 * cfg.eps2)
    drift = np.asarray(phi_grid) * (cfg.T / m)           # phi_j(t_k) dt
    # the scaled centre x_j - c_j(t_k) both rows share, and the drift
    centre, drift = np.array([(np.asarray(cfg.x)[:, None] + drift
                               - drift.cumsum(axis=1)) * scale, drift],
                             dtype=dtype)
    # scan matrix: row 0 adds the block's offset, rows 1.. the scaled
    # increments before each step of the block
    scan = np.zeros((SCAN_STEPS + 1, SCAN_STEPS), dtype=dtype)
    scan[0] = 1.0
    scan[1:] = np.triu(np.full((SCAN_STEPS, SCAN_STEPS), scale), k=1)
    per_call = min(-(-m // SCAN_STEPS), SCAN_BLOCKS)
    return SimpleNamespace(
        log_norm=-0.5 * cfg.d * math.log(2.0 * math.pi * cfg.eps2),
        centre=centre, drift=drift, scan=scan,
        ones=np.full(SCAN_STEPS, scale, dtype=dtype), per_call=per_call,
        blocks=-(-m // (SCAN_STEPS * per_call)) * per_call)


def mollified_current_sample(cfg, increments, phi_grid, work=None):
    """Ito sums (g, f) of the mollified current on the shifted paths w + phi
    (row 0) and -w + phi (row 1), each shape (2, paths, d).

    f = +-sum_k p_eps2(x - c(t_k) -+ B(t_k)) dB(t_k), an Ito sum of an adapted
    integrand and so exactly centred; g adds sum_k p_eps2(...) phi(t_k) dt.
    increments is (paths, n_steps, d), an array or a block's ``_Draws``,
    and phi_grid, phi at the left endpoints, (d, n_steps); B(t_0) = 0, and
    p_eps2 is the d-dimensional Gaussian density of variance eps2.  Paths
    are taken ``CHUNK_PATHS`` at a time, and one blocked prefix sum per
    component (see the module docstring) serves both rows.  B and the
    centre x - c enter scaled by 1/sqrt(2 eps2), so the log-density is
    log_norm - sum_j (scaled B_j -+ scaled centre_j)^2.

    work is a ``_Workspace`` built for cfg and phi_grid in the increments'
    dtype, which a worker reuses for every chunk of its blocks; by default
    one is built for this call.  A ``_Draws`` is drawn into work's
    increments one chunk at a time, each chunk just before the kernel reads
    it, while it is still in the core's cache.
    """
    if isinstance(increments, _Draws):
        inc = chunks = increments
    else:
        inc = np.asarray(increments)
        chunks = ((lo, inc[lo:lo + CHUNK_PATHS])
                  for lo in range(0, len(inc), CHUNK_PATHS))
    n, m, d = inc.shape
    if work is None:
        work = _Workspace(_kernel_constants(cfg, phi_grid, inc.dtype),
                          min(n, CHUNK_PATHS))
    c = work.const
    full, rem = divmod(m, SCAN_STEPS)

    def stacked(a):  # (paths, blocks, k) as (calls, per_call, k)
        return a.reshape(-1, c.per_call, a.shape[-1])

    g, f = np.empty((2, 2, n, d), dtype=inc.dtype)
    for lo, chunk in chunks:
        rows = slice(lo, lo + CHUNK_PATHS)
        p = len(chunk)
        bufk, bk, sk, qk = work.buf[:p], work.b[:p], work.s[:p], work.q[:, :p]
        for j in range(d):
            steps = chunk[:, :, j]
            bufk[:, :full, 1:] = steps[:, :full * SCAN_STEPS].reshape(
                p, full, SCAN_STEPS)
            if rem:
                bufk[:, full, 1:rem + 1] = steps[:, full * SCAN_STEPS:]
            totals = np.matmul(stacked(bufk[:, :, 1:]), c.ones)
            np.cumsum(totals.reshape(p, c.blocks)[:, :-1], axis=1,
                      out=bufk[:, 1:, 0])
            np.matmul(stacked(bufk), c.scan, out=stacked(bk.reshape(
                p, c.blocks, SCAN_STEPS)))
            for qr, sign in zip(qk, (-1.0, 1.0)):
                term = qr if j == 0 else sk
                term[:] = sign * c.centre[j]  # faster than a broadcast add
                np.square(np.add(term, bk[:, :m], out=term), out=term)
                if j:
                    qr += term
        np.subtract(c.log_norm, qk, out=qk)
        np.maximum(qk, -72.0, out=qk)  # no subnormal densities (see above)
        dens = np.exp(qk, out=qk)
        for j in range(d):
            np.vecdot(dens, chunk[:, :, j], out=f[:, rows, j])
            np.vecdot(dens, c.drift[j], out=g[:, rows, j])
    f[1] *= -1.0
    g += f
    return g, f


def _block_moments(cfg, phi_grid, block, work=None):
    """One block's pair means (g, f), each (pairs, d) float64: g of the
    shifted current, f of its Ito part.

    The kernel draws each chunk of ``CHUNK_PATHS`` drawn paths into work (a
    ``_Workspace`` for cfg and phi_grid in ``DTYPE``, by default one built
    for this block) as it reaches it, so no array holds the whole block.
    """
    if work is None:
        work = _Workspace(_kernel_constants(cfg, phi_grid, DTYPE))
    draws = simulate_increments(cfg, block, work.increments)
    # float64 regardless of the path dtype
    return tuple(0.5 * row.astype(np.float64).sum(axis=0) for row in
                 mollified_current_sample(cfg, draws, phi_grid, work))


def default_threads():
    """HIDACUR_THREADS when it is set, else the CPUs this process may run
    on, at most 8."""
    env = os.environ.get("HIDACUR_THREADS")
    if env:
        return check_int("HIDACUR_THREADS",
                         int(env) if env.removeprefix("-").isdecimal()
                         else env, 1)
    return min(8, len(os.sched_getaffinity(0)))


def mc_s_transform(cfg, phi, n_threads=None):
    """Empirical S-transform of the mollified current at phi.

    Estimates E[current(w + phi)] componentwise, the current's mean on the
    shifted path, over cfg.n_paths paths in antithetic pairs (w, -w); the
    stderr is over the ceil(n/2) pair means of each block of n, so an odd
    n_paths evaluates one extra mirrored path.  Blocks are independent work
    units on n_threads worker threads (by default ``default_threads()``),
    and their pair means are joined in block order, so the estimate is
    bit-identical for any thread count.  The kernel's constants are built
    once per call and shared; each worker allocates one workspace, 3.5 MiB
    at 4,096 steps and d = 2, and streams each of its blocks through it a
    chunk at a time.  Holding the pair means costs 32 bytes per pair
    and component: 3.2 MB for 100,000 pairs at d = 2.

    The Ito part f of the shifted current g, whose mean is exactly zero for
    -w as for w, is subtracted as a control variate, h = g - beta f, with
    beta the regression coefficient of g on f over the pairs; this leaves
    the expectation unchanged up to O(1/N) and removes the noise g shares
    with f.
    """
    if phi.dimension != cfg.d:
        raise ValueError("test function dimension does not match d")
    n_threads = (default_threads() if n_threads is None
                 else check_int("n_threads", n_threads, 1))
    phi_grid = phi.eval_all(np.arange(cfg.n_steps) * (cfg.T / cfg.n_steps))
    const = _kernel_constants(cfg, phi_grid, DTYPE)
    local = threading.local()  # each worker's workspace

    def block_moments(block):
        if not hasattr(local, "work"):
            local.work = _Workspace(const)
        # _block_moments is looked up as a global per call
        return _block_moments(cfg, phi_grid, block, local.work)

    # results in block order
    with ThreadPoolExecutor(max_workers=n_threads) as ex:
        g, f = map(np.concatenate,
                   zip(*ex.map(block_moments, range(cfg.n_blocks))))

    fc = f - f.mean(axis=0)
    sff = (fc * fc).sum(axis=0)
    beta = np.divide(((g - g.mean(axis=0)) * fc).sum(axis=0), sff,
                     out=np.zeros_like(sff), where=sff > 0)
    h = g - beta * f
    stderr = np.sqrt(h.var(axis=0) / max(len(h) - 1, 1))
    return MCEstimate(mean=h.mean(axis=0), stderr=stderr, config=cfg)
