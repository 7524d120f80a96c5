"""Counter-based random streams for reproducible parallel Monte Carlo.

Every Monte Carlo sample owns a substream addressed by
``(master_seed, sample_index)``.  Draw ``j`` of a substream is a pure
function of those three integers, so an ensemble can be evaluated
serially, in blocks, or across a process pool and always produce
bit-identical per-sample results.

The generator is Philox4x32-10.  The 128-bit counter is laid out as
``(block_index, sample_index)`` and the 64-bit key is the master seed,
which makes substreams disjoint by construction.  Known-answer vectors
from the reference implementation are pinned in the test suite.

Draw indices count *uniform* slots.  One Philox block yields four
32-bit words and so two 53-bit slots: slot ``2b`` is built from words
``(w0, w1)`` of block ``b`` and slot ``2b + 1`` from ``(w2, w3)``.  Slot
arithmetic wraps modulo 2**64, so slot ``2**64 - 1`` is followed by
slot 0.  ``uniforms`` draws ``width`` consecutive slots per address and
computes each block it touches once: from an even start ``d`` the slots
pair up in blocks ``d >> 1, (d >> 1) + 1, ...``; from an odd start the
first slot is the second lane of block ``d >> 1`` and the rest pair up
from block ``(d + 1) >> 1`` on.

A standard normal consumes two consecutive uniform slots (Box-Muller,
cosine branch), so a normal drawn at an even slot shares one block and
a normal drawn at an odd slot straddles two.  Callers that mix draw
kinds keep a single per-sample cursor in uniform units.

``uniforms`` runs in a small C kernel where one can be built: the
Philox block, the lane choice, the odd-start and wrap slot logic and the
53-bit float.  That is integer arithmetic plus one IEEE add and a
power-of-two scale, so the kernel's output is bit-identical to the numpy
body (``_numpy_uniforms`` on ``philox_words``), which stays as its
reference and as the fallback.  The kernel has two bodies.  The scalar
loop computes one address at a time.  On x86-64 CPUs with AVX-512F and
AVX-512DQ, found at run time, a vector body computes eight addresses at
once wherever 8 consecutive addresses start at slots of one parity; mixed
groups and the tail of fewer than 8 take the scalar loop.  Its products
are the same 32x32->64-bit products and its float conversion is exact
below 2**53, so both bodies give the same bits.  One library serves every
x86-64 host; it lives in ``__pycache__/`` next to this file, under a name
that carries a hash of the C source, the compiler flags and the machine
type.  The first draw in a process loads it; if it is missing, that draw
compiles it with ``cc`` into a temporary file and renames it into place.
Every load checks both bodies, on this CPU, against known answers of the
numpy body (kept as a CRC-32 that the tests recompute), so a library
built where the vector body could not run is checked where it does.
With no ``cc`` on ``PATH``, a failed compile or check, an unwritable
``__pycache__`` or a library that does not load, draws run in numpy
silently, with the same bits.  Box-Muller stays in numpy: libm's ``log``
and ``cos`` do not round like numpy's SIMD loops, so normals computed in
C would differ in the last bits.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
import os
import platform
import shutil
import struct
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_WEYL0 = 0x9E3779B9
_WEYL1 = 0xBB67AE85
_ROUNDS = 10

_U64 = np.uint64
_ONE = np.uint64(1)
_EVEN = np.uint64(0xFFFFFFFFFFFFFFFE)
_TWO_NEG53 = 2.0 ** -53


@dataclass(frozen=True)
class RngContract:
    """Addresses one sample's substream.

    ``master_seed`` is a 64-bit integer; ``sample_index`` is the first
    index an ensemble consumer will use (sample ``i`` of an estimator
    runs on substream ``sample_index + i``).
    """

    master_seed: int
    sample_index: int = 0

    def __post_init__(self):
        if not 0 <= int(self.master_seed) < 2 ** 64:
            raise ValueError("master_seed must fit in 64 bits")
        if int(self.sample_index) < 0:
            raise ValueError("sample_index must be nonnegative")


@functools.lru_cache(maxsize=64)
def _key_schedule(master_seed):
    k0 = master_seed & 0xFFFFFFFF
    k1 = (master_seed >> 32) & 0xFFFFFFFF
    return tuple(
        (
            _U64((k0 + r * _WEYL0) & 0xFFFFFFFF),
            _U64((k1 + r * _WEYL1) & 0xFFFFFFFF),
        )
        for r in range(_ROUNDS)
    )


def philox_words(master_seed, sample_index, block_index):
    """Philox4x32-10 block function: the raw 4x32-bit output of each counter block.

    Lanes are held in uint64 with values < 2^32; the four lanes and two
    products live in buffers that every round overwrites in place.
    """
    samp, blk = np.broadcast_arrays(
        np.asarray(sample_index, dtype=np.uint64), np.asarray(block_index, dtype=np.uint64)
    )
    c0 = blk & _MASK32
    c1 = blk >> _SHIFT32
    c2 = samp & _MASK32
    c3 = samp >> _SHIFT32
    # 0-d inputs yield numpy scalars, which the in-place rounds cannot update
    c0, c1, c2, c3 = (np.asarray(c) for c in (c0, c1, c2, c3))
    p0 = np.empty_like(c0)
    p1 = np.empty_like(c0)
    for k0, k1 in _key_schedule(int(master_seed)):
        np.multiply(c0, _M0, out=p0)
        np.multiply(c2, _M1, out=p1)
        np.right_shift(p1, _SHIFT32, out=c0)
        c0 ^= c1
        c0 ^= k0
        np.bitwise_and(p1, _MASK32, out=c1)
        np.right_shift(p0, _SHIFT32, out=c2)
        c2 ^= c3
        c2 ^= k1
        np.bitwise_and(p0, _MASK32, out=c3)
    return c0, c1, c2, c3


def uniforms(master_seed, sample_index, draw_index, width=1):
    """Uniform variates in the half-open interval (0, 1].

    ``sample_index`` and ``draw_index`` broadcast to a shape ``S``; the
    result has shape ``S + (width,)`` and holds slots ``d, d+1, ...,
    d+width-1`` of each address.  Each variate carries 53 random bits and
    is offset by half an ulp, so 0.0 never occurs (safe under log).  The
    largest slot value, 2**53 - 1, rounds up to exactly 1.0.
    """
    if width < 1:
        raise ValueError("width must be at least 1")
    samp = np.asarray(sample_index, dtype=np.uint64)
    draw = np.asarray(draw_index, dtype=np.uint64)
    samp, draw = np.broadcast_arrays(samp, draw)
    kernel = _kernel()
    if kernel is None:
        return _numpy_uniforms(master_seed, samp, draw, width)
    out = np.empty(draw.shape + (width,))
    if out.size:
        # the kernel reads flat contiguous addresses; broadcast views are copied
        samp = np.ascontiguousarray(samp)
        draw = np.ascontiguousarray(draw)
        kernel(int(master_seed) & _SEED_MASK, samp.ctypes.data, draw.ctypes.data, draw.size, int(width),
               out.ctypes.data)
    return out


def _numpy_uniforms(master_seed, samp, draw, width):
    """The numpy body of ``uniforms`` on broadcast uint64 addresses: the kernel's reference.

    Every address computes the blocks from its even slot ``d & ~1`` on (one
    more where an odd start and an even width end on a first lane) and reads
    its slots from offset ``d & 1``.  The 53-bit integers are written into
    one float buffer, which is offset and scaled in place."""
    odd = (draw & _ONE).astype(bool)
    blocks = (width + 1) // 2 + (width % 2 == 0 and bool(np.any(odd)))
    # first slot of every block the addresses touch, wrapping modulo 2**64, halved in place to the block
    block = (draw & _EVEN)[..., None] + np.arange(0, 2 * blocks, 2, dtype=np.uint64)
    block >>= _ONE
    words = philox_words(master_seed, samp[..., None], block)
    del block
    slots = np.empty(draw.shape + (blocks, 2))
    for lane, (high, low) in enumerate((words[:2], words[2:])):
        high <<= np.uint64(21)
        low >>= np.uint64(11)
        high |= low
        slots[..., lane] = high  # below 2**53, so the float is exact
    del words, high, low
    slots = slots.reshape(draw.shape + (2 * blocks,))
    if not np.any(odd):
        u = slots[..., :width]
    elif np.all(odd):
        u = slots[..., 1:width + 1]
    else:
        u = np.where(odd[..., None], slots[..., 1:width + 1], slots[..., :width])
    u += 0.5
    u *= _TWO_NEG53
    return u


# The C form of ``_numpy_uniforms``: one Philox4x32-10 block per pair of
# slots, the same lane choice and 2**64 slot wrap, the same 53-bit float.
# ``pathkernel_uniforms_scalar`` computes one address at a time;
# ``pathkernel_uniforms`` runs the AVX-512 body where the CPU has it.
_KERNEL_SOURCE = r"""
#include <stddef.h>
#include <stdint.h>

static void philox(uint64_t seed, uint64_t sample, uint64_t block, uint32_t w[4])
{
    uint32_t c0 = (uint32_t)block, c1 = (uint32_t)(block >> 32);
    uint32_t c2 = (uint32_t)sample, c3 = (uint32_t)(sample >> 32);
    uint32_t k0 = (uint32_t)seed, k1 = (uint32_t)(seed >> 32);
    for (int r = 0; r < 10; r++) {
        uint64_t p0 = (uint64_t)c0 * 0xD2511F53u, p1 = (uint64_t)c2 * 0xCD9E8D57u;
        c0 = (uint32_t)(p1 >> 32) ^ c1 ^ k0;
        c1 = (uint32_t)p1;
        c2 = (uint32_t)(p0 >> 32) ^ c3 ^ k1;
        c3 = (uint32_t)p0;
        k0 += 0x9E3779B9u;
        k1 += 0xBB67AE85u;
    }
    w[0] = c0, w[1] = c1, w[2] = c2, w[3] = c3;
}

static double u53(uint32_t a, uint32_t b)
{
    return ((double)(((uint64_t)a << 21) | (b >> 11)) + 0.5) * 0x1p-53;
}

void pathkernel_uniforms_scalar(uint64_t seed, const uint64_t *sample, const uint64_t *draw,
                                size_t n, size_t width, double *out)
{
    for (size_t i = 0; i < n; i++, out += width) {
        uint64_t slot = draw[i];
        uint32_t w[4];
        size_t k = 0;
        if (slot & 1) { /* an odd start is the second lane of its block */
            philox(seed, sample[i], slot >> 1, w);
            out[k++] = u53(w[2], w[3]);
            slot++; /* unsigned: wraps modulo 2**64 */
        }
        for (; k < width; slot += 2) {
            philox(seed, sample[i], slot >> 1, w);
            out[k++] = u53(w[0], w[1]);
            if (k < width)
                out[k++] = u53(w[2], w[3]);
        }
    }
}

#if defined(__x86_64__)
#include <immintrin.h>

#define AVX512 __attribute__((target("avx512f,avx512dq")))

/* philox() on eight counters, one per 64-bit lane; every word stays below 2**32 */
static inline AVX512 void philox8(const __m512i key[10][2], __m512i block, __m512i sample, __m512i w[4])
{
    const __m512i low = _mm512_set1_epi64(0xFFFFFFFF);
    const __m512i m0 = _mm512_set1_epi64(0xD2511F53), m1 = _mm512_set1_epi64(0xCD9E8D57);
    __m512i c0 = _mm512_and_si512(block, low), c1 = _mm512_srli_epi64(block, 32);
    __m512i c2 = _mm512_and_si512(sample, low), c3 = _mm512_srli_epi64(sample, 32);
    for (int r = 0; r < 10; r++) {
        /* the products of the low 32 bits of each lane */
        __m512i p0 = _mm512_mul_epu32(c0, m0), p1 = _mm512_mul_epu32(c2, m1);
        c0 = _mm512_xor_si512(_mm512_xor_si512(_mm512_srli_epi64(p1, 32), c1), key[r][0]);
        c1 = _mm512_and_si512(p1, low);
        c2 = _mm512_xor_si512(_mm512_xor_si512(_mm512_srli_epi64(p0, 32), c3), key[r][1]);
        c3 = _mm512_and_si512(p0, low);
    }
    w[0] = c0, w[1] = c1, w[2] = c2, w[3] = c3;
}

static inline AVX512 __m512d u53x8(__m512i a, __m512i b)
{
    __m512i bits = _mm512_or_si512(_mm512_slli_epi64(a, 21), _mm512_srli_epi64(b, 11));
    /* below 2**53, so the conversion is exact and the float is u53()'s */
    return _mm512_mul_pd(_mm512_add_pd(_mm512_cvtepi64_pd(bits), _mm512_set1_pd(0.5)), _mm512_set1_pd(0x1p-53));
}

/* Eight addresses at once where their start slots share one parity; mixed
   groups and the n % 8 tail take the scalar loop. */
static AVX512 void uniforms_avx512(uint64_t seed, const uint64_t *sample, const uint64_t *draw,
                                   size_t n, size_t width, double *out)
{
    const __m512i one = _mm512_set1_epi64(1), blocks = _mm512_set1_epi64(INT64_MAX);
    /* lane j writes row j of the group, width doubles apart */
    const __m512i rows = _mm512_mullo_epi64(_mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0),
                                            _mm512_set1_epi64((long long)width));
    __m512i key[10][2], w[4];
    uint32_t k0 = (uint32_t)seed, k1 = (uint32_t)(seed >> 32);
    for (int r = 0; r < 10; r++, k0 += 0x9E3779B9u, k1 += 0xBB67AE85u)
        key[r][0] = _mm512_set1_epi64(k0), key[r][1] = _mm512_set1_epi64(k1);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        double *o = out + i * width;
        __m512i d = _mm512_loadu_si512(draw + i), s = _mm512_loadu_si512(sample + i);
        __mmask8 odd = _mm512_test_epi64_mask(d, one);
        if (odd != 0 && odd != 0xFF) {
            pathkernel_uniforms_scalar(seed, sample + i, draw + i, 8, width, o);
            continue;
        }
        __m512i block = _mm512_srli_epi64(d, 1);
        size_t k = 0;
        /* an odd start is the second lane of its first block */
        for (int skip = odd != 0; k < width; skip = 0) {
            philox8(key, block, s, w);
            if (!skip)
                _mm512_i64scatter_pd(o + k++, rows, u53x8(w[0], w[1]), 8);
            if (k < width)
                _mm512_i64scatter_pd(o + k++, rows, u53x8(w[2], w[3]), 8);
            /* the next block, modulo 2**63 as the scalar slot wraps modulo 2**64 */
            block = _mm512_and_si512(_mm512_add_epi64(block, one), blocks);
        }
    }
    pathkernel_uniforms_scalar(seed, sample + i, draw + i, n - i, width, out + i * width);
}
#endif

void pathkernel_uniforms(uint64_t seed, const uint64_t *sample, const uint64_t *draw,
                         size_t n, size_t width, double *out)
{
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq")) {
        uniforms_avx512(seed, sample, draw, n, width, out);
        return;
    }
#endif
    pathkernel_uniforms_scalar(seed, sample, draw, n, width, out);
}
"""
_KERNEL_FLAGS = ("-O3", "-shared", "-fPIC")
_SEED_MASK = 2 ** 64 - 1


def _kernel_path():
    """The cached library: a hash of the C source, the flags and the machine type names it.

    The hash is importlib's source hash, the one hash-based ``.pyc`` files
    carry; ``hashlib.sha256`` would load OpenSSL, which costs 3.5 MB and
    5 ms in every process that draws, pool workers included.
    """
    tag = importlib.util.source_hash("\0".join((_KERNEL_SOURCE, *_KERNEL_FLAGS, platform.machine())).encode())
    return Path(__file__).with_name("__pycache__") / f"philox-{tag.hex()}.so"


def _load(path):
    """The library's two bodies: ``pathkernel_uniforms`` (vector where the CPU runs it) and the scalar loop."""
    lib = ctypes.CDLL(str(path))
    bodies = lib.pathkernel_uniforms, lib.pathkernel_uniforms_scalar
    for fn in bodies:
        fn.argtypes = [ctypes.c_uint64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t, ctypes.c_size_t,
                       ctypes.c_void_p]
        fn.restype = None
    return bodies


def _check_addresses():
    """Sample and draw indices of the known-answer check, at width ``_CHECK_WIDTH``.

    Two 8-address groups of even starts, two of odd starts, one mixed group
    and a 3-address tail.  Each group holds the 2**33 carry into the block's
    high counter word and starts whose blocks wrap from 2**63 - 1 to 0 at
    their first or second step.
    """
    even = [0, 6, 2 ** 33 - 4, 2 ** 33 - 2, 2 ** 63, 2 ** 64 - 6, 2 ** 64 - 4, 2 ** 64 - 2]
    draw = [*even, *even[::-1], *(d + 1 for d in even), *(d + 1 for d in even[::-1]),
            *(d + i % 2 for i, d in enumerate(even)), 2 ** 64 - 1, 3, 2 ** 33 - 2]
    sample = [i * 0x9E3779B97F4A7C15 % 2 ** 64 for i in range(len(draw))]
    return sample, draw


def _crc(variates):
    """CRC-32 of float64 variates packed little-endian."""
    return zlib.crc32(struct.pack(f"<{len(variates)}d", *variates))


# The numpy body's variates at the check addresses, as their CRC-32; the
# test suite recomputes it from ``_numpy_uniforms``.  Running the numpy body
# in every process instead would cost about 1 ms and 0.66 MB of resident
# memory, mostly numpy's uint64 loops paged in for the check alone.
_CHECK_SEED = 0x299F31D0A4093822
_CHECK_WIDTH = 5
_CHECK_CRC = 0x6BCAFAFE


def _passes_check(bodies):
    """True if every kernel body in ``bodies`` gives the numpy body's variates at the check addresses."""
    sample, draw = _check_addresses()
    n = len(draw)
    samp, draw = (ctypes.c_uint64 * n)(*sample), (ctypes.c_uint64 * n)(*draw)
    out = (ctypes.c_double * (n * _CHECK_WIDTH))()
    for fn in bodies:
        ctypes.memset(out, 0, ctypes.sizeof(out))  # no variate is 0, so a slot left unwritten fails
        fn(_CHECK_SEED, samp, draw, n, _CHECK_WIDTH, out)
        if _crc(out) != _CHECK_CRC:
            return False
    return True


def _build(path):
    """Compile the kernel to ``path`` if a ``cc`` on PATH builds one."""
    import subprocess  # 4 ms to import; only a build needs it

    cc = shutil.which("cc")
    if cc is None:
        return False
    path.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    os.close(fd)
    try:
        try:
            done = subprocess.run([cc, *_KERNEL_FLAGS, "-x", "c", "-", "-o", tmp], input=_KERNEL_SOURCE.encode(),
                                  capture_output=True, timeout=120, check=False)
        except subprocess.SubprocessError:
            return False
        if done.returncode != 0:
            return False
        os.chmod(tmp, 0o755)  # mkstemp's 0o600 would hide the library from other users
        # processes compiling at once each write their own file; the last rename wins whole
        os.replace(tmp, path)
        return True
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.lru_cache(maxsize=None)
def _kernel():
    """The compiled ``pathkernel_uniforms``, or None where it cannot be had.

    Every load checks both bodies against known answers of the numpy body:
    a library built on a host without AVX-512 has a vector body that only
    a host with it runs, so a check at build time would not cover it.
    """
    path = _kernel_path()
    try:
        if path.exists() or _build(path):
            bodies = _load(path)
            if _passes_check(bodies):
                return bodies[0]
    except OSError:
        pass
    return None


def box_muller(u):
    """Standard normals from uniform slot pairs along the last axis.

    ``(..., 2k)`` uniforms give ``(..., k)`` normals; slot ``2i`` sets the
    radius and slot ``2i + 1`` the angle (cosine branch).
    """
    # np.log may round differently on strided input; contiguous radius
    # slots keep the bits independent of how the draw was laid out
    radius = np.ascontiguousarray(u[..., 0::2])
    return np.sqrt(-2.0 * np.log(radius)) * np.cos(2.0 * np.pi * u[..., 1::2])


class StreamCursor:
    """Per-sample draw positions for an ensemble of substreams.

    Consumption through this object is what guarantees that a sample's
    variates depend only on its own history, never on which other
    samples happen to share a batch.
    """

    def __init__(self, master_seed, sample_indices):
        self.master_seed = int(master_seed)
        self.samples = np.asarray(sample_indices, dtype=np.uint64)
        if self.samples.ndim != 1:
            raise ValueError("sample_indices must be one-dimensional")
        self.pos = np.zeros(self.samples.shape[0], dtype=np.uint64)

    def __len__(self):
        return self.samples.shape[0]

    def uniforms(self, cols=1):
        """(n, cols) uniforms for every sample; advances cursors by cols."""
        out = uniforms(self.master_seed, self.samples, self.pos, cols)
        self.pos += np.uint64(cols)
        return out

    def normals(self, cols=1):
        """(n, cols) standard normals; advances cursors by 2*cols."""
        out = box_muller(uniforms(self.master_seed, self.samples, self.pos, 2 * cols))
        self.pos += np.uint64(2 * cols)
        return out

    def uniforms_at(self, rows, cols=1):
        """(len(rows), cols) uniforms for the samples in ``rows`` (index array); advances those cursors by cols."""
        out = uniforms(self.master_seed, self.samples[rows], self.pos[rows], cols)
        self.pos[rows] += np.uint64(cols)
        return out
