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

Box-Muller is computed from IEEE basic operations only (add, subtract,
multiply, divide, sqrt, and exact bit and exponent operations), in a
fixed order, so its bits do not depend on the host's libm or SIMD level.
The normal of the pair (u0, u1) is sqrt(log(u0) * -2) * cos(2 pi u1):

- cos(2 pi u1): x = 4 u1, t = x + 1.5 * 2**52, k = t - 1.5 * 2**52 and
  f = x - k, all exact; q = k mod 4 is the two low bits of t.  With
  z = f * f, C = Horner(cos coefficients, z) and S = Horner(sin
  coefficients, z) * f, where Horner(c, z) is c[n-1], then acc * z + c[k]
  for k = n-2 down to 0; cos(2 pi u) is C, -S, -C, S and sin(2 pi u) is
  S, C, -S, -C for q = 0, 1, 2, 3 (a negation flips the sign bit).
- log u0: u0 = 2**e m with m in [1/2, 1) from the exponent bits; where
  m < sqrt(1/2), m = m * 2 and e = e - 1.  Then f = m - 1,
  s = f / (f + 2), z = s * s, h = (f * f) * 0.5, r = Horner(log
  coefficients, z) * z, and log u0 = e ln2_hi + (e ln2_lo + (f - (h -
  (h + r) * s))).

The coefficients are printed by ``tools/box_muller_coefficients.py``.
The largest errors on 10**5 draws are under 2**-52 for cos and sin and
1.2 ulp for log.  The same cos and sin serve every angle drawn from a
uniform (``cos_sin_2pi``: the H^3 directions and the H^3 bridge's
azimuth).

``cos`` (the ``cos`` potential of ``feynman_kac``) takes cos x of general
arguments with the same quarter-turn choice, after Cody and Waite's
reduction in the split of fdlibm's ``__ieee754_rem_pio2``:

- t = x * (2/pi) + 1.5 * 2**52, k = t - 1.5 * 2**52 = rint(x 2/pi), and
  q = k mod 4 the two low bits of t;
- r = (x - k * pio2_hi) - k * pio2_lo, where pio2_hi holds the leading 33
  bits of pi/2, so k * pio2_hi and the first difference are exact for
  |k| <= 2**20, and pio2_lo is the double nearest the rest;
- z = r * r, C = Horner(cos r coefficients, z) and S = Horner(sin r / r
  coefficients, z) * r, each 9 Taylor terms in r**2; cos x is C, -S, -C, S
  for q = 0, 1, 2, 3.

That holds for |x| < 2**20 * pio2_hi (about 1.647e6), with an absolute
error below 2**-52.  Larger and non-finite arguments take ``np.cos``, so
their bits may still depend on the host.

``StreamCursor.normals`` and ``StreamCursor.gaussian_step`` (the Gaussian
and lattice steps and the Gaussian bridge step of ``heat_kernel``) draw a
block's normals in one pass that makes no array but its output.  The pass
goes tile by tile, 512 normals (8 KB of uniform slots) at a time, so that
a tile stays in L1: the Philox body fills a stack tile with the slots of
``normals(dim)``, in the order ``box_muller(uniforms(...))`` reads them,
the Box-Muller loop turns it into normals, and for a step a last loop
writes v = base + scale * z per value, wrapped where periods are given as
``wrap`` does it: q = floor(v / L), v = v - q * L, then v - L where
v >= L.  The floor is exact, and is computed from exact operations so that
no body calls libm.  Rows of up to 64 normals go whole, as many as a tile
holds; wider rows go in chunks of 64 normals, 8 rows a tile, so that the
Philox body still draws eight addresses at once.

The exact H^3 step (``heat_kernel``) is two passes around numpy's ``cosh``
and ``sinh``, whose bits come from numpy's SIMD dispatch and so stay
numpy's.  ``StreamCursor.h3_draw`` goes 64 rows a tile: the Philox body
fills each row's 8 slots from its cursor, as ``uniforms(8)`` reads them,
the Box-Muller loop turns slot pairs 0-5 into z0, z1, z2 and the angle
loop takes slot 7's angle, and a last loop writes the radius
r = s sqrt(((z0 + s)^2 + z1^2) + z2^2) and the direction of
``sphere_directions`` (slots 6-7).  ``h3_exp`` then writes each row of
``exp_point_arrays`` with its operations in its order, from base rows read
at a row stride (0 for the H^3 bridge's one endpoint), with its rescaled
x0 where the squares overflow, and counts the rows that leave the float
range.

``uniforms``, ``box_muller``, ``cos_sin_2pi``, ``cos`` and those passes
run in a small C kernel where one can be built, with the bits of the numpy
bodies (``_numpy_uniforms`` on ``philox_words``, ``_numpy_box_muller``,
``_numpy_cos_sin_2pi``, ``_numpy_cos``, for the step pass ``box_muller`` of
``uniforms``, then base + scale * z and ``wrap``, and for the H^3 passes
the step's numpy expression and ``exp_point_arrays``), which stay as its
reference and as the fallback.  Philox is integer arithmetic plus one IEEE
add and a power-of-two scale; the other loops are the numpy bodies'
operations in their order, compiled with ``-ffp-contract=off`` so that no
multiply and add fuse into an FMA, and each of them is written once.  The
kernel has two bodies, chosen once per load: the scalar body runs the
loops compiled for the base instruction set, and on x86-64 CPUs with
AVX-512F and AVX-512DQ the vector body runs them compiled for AVX-512,
which GCC vectorizes eight values wide with the same operations on every
value.  Philox alone has a vector form written by hand, on eight addresses
whose start slots share one parity, with the same 32x32->64-bit products
and a float conversion exact below 2**53: its loop rewritten lane by lane
and compiled for AVX-512 gave the same bits but ran about 5 times slower.
One library serves every x86-64 host; it lives in ``__pycache__/`` next to
this file, under a name that carries a hash of the C source, the compiler
flags and the machine type.  The first draw in a process loads it; if it
is missing, that draw compiles it with ``cc`` into a temporary file and
renames it into place.  Every load checks both bodies, on this CPU, against
known answers of the numpy body (kept as a CRC-32 that the tests
recompute), so a library built where the vector body could not run is
checked where it does.  With no ``cc`` on ``PATH``, a failed compile or
check, an unwritable ``__pycache__`` or a library that does not load,
draws, normals, steps and cosines run in numpy silently, with the same
bits; normals, steps and cosines are then several times slower than in the
kernel.  The H^3 exp map's numpy body, ``exp_point_arrays``, lives here for
that reason, with ``sphere_directions``; ``manifold`` imports both.
"""

from __future__ import annotations

import array
import ctypes
import functools
import importlib.util
import math
import os
import platform
import shutil
import sys
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

# The Box-Muller polynomials, printed by tools/box_muller_coefficients.py
# (mpmath, rounded once): cos(pi f / 2) and sin(pi f / 2) / f in f**2,
# (log((1 + s) / (1 - s)) - 2 s) / s**3 in s**2, and log 2 split so that
# e * _LN2_HI is exact.
_COS_COEFFS = tuple(map(float.fromhex, (
    "0x1.0000000000000p+0", "-0x1.3bd3cc9be45dep+0", "0x1.03c1f081b5ac4p-2", "-0x1.55d3c7e3cbffap-6",
    "0x1.e1f506891babbp-11", "-0x1.a6d1f2a204a8cp-16", "0x1.f9d38a3763cc3p-22", "-0x1.b6e24f44b128fp-28",
    "0x1.20c62c2f2d7f5p-34", "-0x1.2a0c591af8314p-41", "0x1.ef6e308d6d1c4p-49",
)))
_SIN_COEFFS = tuple(map(float.fromhex, (
    "0x1.921fb54442d18p+0", "-0x1.4abbce625be53p-1", "0x1.466bc6775aae2p-4", "-0x1.32d2cce62bd86p-8",
    "0x1.50783487ee782p-13", "-0x1.e3074fde8871fp-19", "0x1.e8f434d018d63p-25", "-0x1.6fadb9f155744p-31",
    "0x1.aaec32af93359p-38", "-0x1.8a404211f9547p-45", "0x1.2877020d52cf0p-52",
)))
_LOG_COEFFS = tuple(map(float.fromhex, (
    "0x1.5555555555555p-1", "0x1.999999999999ap-2", "0x1.2492492492492p-2", "0x1.c71c71c71c71cp-3",
    "0x1.745d1745d1746p-3", "0x1.3b13b13b13b14p-3", "0x1.1111111111111p-3", "0x1.e1e1e1e1e1e1ep-4",
    "0x1.af286bca1af28p-4", "0x1.8618618618618p-4", "0x1.642c8590b2164p-4", "0x1.47ae147ae147bp-4",
    "0x1.2f684bda12f68p-4", "0x1.1a7b9611a7b96p-4",
)))
_LN2_HI = float.fromhex("0x1.62e42fee00000p-1")
_LN2_LO = float.fromhex("0x1.a39ef35793c76p-33")
# The cos body's constants, printed by the same tool: cos r and sin r / r
# in r**2, 2/pi, and pi/2 split so that k * _PIO2_HI is exact for |k| <= 2**20.
_COS_R_COEFFS = tuple(map(float.fromhex, (
    "0x1.0000000000000p+0", "-0x1.0000000000000p-1", "0x1.5555555555555p-5", "-0x1.6c16c16c16c17p-10",
    "0x1.a01a01a01a01ap-16", "-0x1.27e4fb7789f5cp-22", "0x1.1eed8eff8d898p-29", "-0x1.93974a8c07c9dp-37",
    "0x1.ae7f3e733b81fp-45",
)))
_SIN_R_COEFFS = tuple(map(float.fromhex, (
    "0x1.0000000000000p+0", "-0x1.5555555555555p-3", "0x1.1111111111111p-7", "-0x1.a01a01a01a01ap-13",
    "0x1.71de3a556c734p-19", "-0x1.ae64567f544e4p-26", "0x1.6124613a86d09p-33", "-0x1.ae7f3e733b81fp-41",
    "0x1.952c77030ad4ap-49",
)))
_TWO_OVER_PI = float.fromhex("0x1.45f306dc9c883p-1")
_PIO2_HI = float.fromhex("0x1.921fb54400000p+0")
_PIO2_LO = float.fromhex("0x1.0b4611a626331p-34")
# below it x * _TWO_OVER_PI rounds to at most 2**20 in magnitude, so k * _PIO2_HI is exact
_COS_BOUND = 2.0 ** 20 * _PIO2_HI

_SQRT_HALF = float.fromhex("0x1.6a09e667f3bcdp-1")
_ROUND = float.fromhex("0x1.8p52")  # x + _ROUND - _ROUND is x rounded to an integer, for |x| < 2**51


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
# ``pathkernel_uniforms_scalar`` computes one address at a time and
# ``pathkernel_uniforms_avx512`` eight, in AVX-512 intrinsics: the scalar
# loop rewritten lane by lane and compiled for AVX-512 ran about 5 times slower.
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
                                size_t n, size_t width, double *restrict out)
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
AVX512 void pathkernel_uniforms_avx512(uint64_t seed, const uint64_t *sample, const uint64_t *draw,
                                       size_t n, size_t width, double *restrict out)
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
"""


def _c_constants():
    """The Box-Muller and cos constants as C definitions, as hex literals: the numpy bodies' doubles exactly."""
    arrays = "".join(f"static const double {name}[{len(values)}] = {{{', '.join(v.hex() for v in values)}}};\n"
                     for name, values in (("COS_COEFFS", _COS_COEFFS), ("SIN_COEFFS", _SIN_COEFFS),
                                          ("LOG_COEFFS", _LOG_COEFFS), ("COS_R_COEFFS", _COS_R_COEFFS),
                                          ("SIN_R_COEFFS", _SIN_R_COEFFS)))
    scalars = "".join(f"#define {name} {value.hex()}\n" for name, value in (
        ("LN2_HI", _LN2_HI), ("LN2_LO", _LN2_LO), ("SQRT_HALF", _SQRT_HALF), ("ROUND", _ROUND),
        ("TWO_OVER_PI", _TWO_OVER_PI), ("PIO2_HI", _PIO2_HI), ("PIO2_LO", _PIO2_LO), ("COS_BOUND", _COS_BOUND)))
    return arrays + scalars


# The C form of ``_numpy_box_muller``, ``_numpy_cos_sin_2pi`` and
# ``_numpy_cos``: the same IEEE operations in the same order, so the same
# bits.  Each loop reads element i of ``u`` at ``u[i * stride]`` (a pair's
# angle one further on).
_KERNEL_SOURCE += _c_constants() + r"""
#include <math.h>
#include <string.h>

static inline double horner(const double *c, int n, double z)
{
    double acc = c[n - 1];
    for (int k = n - 2; k >= 0; k--)
        acc = acc * z + c[k];
    return acc;
}

/* cos and sin of q quarter turns plus r, from the n-term polynomials C and
   S of the reduced argument in z = r * r: C(z) and S(z) * r, chosen and
   negated by the two low bits of q */
static inline void quarter(uint64_t q, double r, double z, const double *cc, const double *sc, int n,
                           double *c, double *s)
{
    double cf = horner(cc, n, z), sf = horner(sc, n, z) * r;
    double cq = q & 1 ? sf : cf, sq = q & 1 ? cf : sf;
    *c = (q + 1) & 2 ? -cq : cq;
    *s = q & 2 ? -sq : sq;
}

/* cos(2 pi u) and sin(2 pi u): 4u = k + f with k an integer and |f| <= 1/2,
   both exact; the quarter turn k mod 4 is the low bits of the rounding sum */
static inline void turn(double u, double *c, double *s)
{
    double x = 4.0 * u, t = x + ROUND, f = x - (t - ROUND);
    uint64_t q;
    memcpy(&q, &t, sizeof q);
    quarter(q, f, f * f, COS_COEFFS, SIN_COEFFS, 11, c, s);
}

/* cos x for |x| < COS_BOUND: x = k pi/2 + r with k = rint(x 2/pi), and
   r = (x - k PIO2_HI) - k PIO2_LO, where k PIO2_HI and the first difference
   are exact; other x give a value that the caller replaces */
static inline double cos_reduced(double x)
{
    double t = x * TWO_OVER_PI + ROUND, k = t - ROUND, r = (x - k * PIO2_HI) - k * PIO2_LO, c, s;
    uint64_t q;
    memcpy(&q, &t, sizeof q);
    quarter(q, r, r * r, COS_R_COEFFS, SIN_R_COEFFS, 9, &c, &s);
    return c;
}

/* log u for u in [2**-1022, 1]: u = 2**e m with m in [sqrt(1/2), sqrt(2)) and f = m - 1 */
static inline double log_unit(double u)
{
    uint64_t bits;
    double m;
    memcpy(&bits, &u, sizeof bits);
    double e = (double)((int64_t)(bits >> 52) - 1022);
    bits = (bits & 0x000FFFFFFFFFFFFFu) | 0x3FE0000000000000u;
    memcpy(&m, &bits, sizeof m);
    if (m < SQRT_HALF)
        m = m * 2.0, e = e - 1.0;
    double f = m - 1.0, s = f / (f + 2.0), z = s * s, h = f * f * 0.5;
    double r = horner(LOG_COEFFS, 14, z) * z;
    return e * LN2_HI + (e * LN2_LO + (f - (h - (h + r) * s)));
}

/* The _scalar entries run each loop compiled for the base instruction set,
   the _avx512 entries compiled for AVX-512, which GCC vectorizes with
   64-byte vectors and the same operations on every element.  Outputs are
   restrict: no loop reads what it writes, so GCC needs no alias checks. */
static inline void normals(const double *u, size_t n, ptrdiff_t stride, double *restrict out)
{
    for (size_t i = 0; i < n; i++) {
        double c, s;
        turn(u[i * stride + 1], &c, &s);
        out[i] = sqrt(log_unit(u[i * stride]) * -2.0) * c;
    }
}

static inline void angles(const double *u, size_t n, ptrdiff_t stride, double *restrict cos, double *restrict sin)
{
    for (size_t i = 0; i < n; i++)
        turn(u[i * stride], cos + i, sin + i);
}

/* returns the count of x past the bound or not finite, whose values the caller replaces */
static inline size_t cosines(const double *x, size_t n, ptrdiff_t stride, double *restrict out)
{
    size_t far = 0;
    for (size_t i = 0; i < n; i++) {
        double v = x[i * stride];
        out[i] = cos_reduced(v);
        far += !(fabs(v) < COS_BOUND);
    }
    return far;
}

/* floor x, from exact operations, so that no body calls libm: |x| < 2**52
   rounds to an integer as (|x| + 2**52) - 2**52, one step down where that
   rounded up; larger x, infinities and NaN are their own floor */
static inline double floor_exact(double x)
{
    double a = fabs(x), t = a < 0x1p52 ? copysign((a + 0x1p52) - 0x1p52, x) : x;
    return t > x ? t - 1.0 : t;
}

/* out = base + scale * z, wrapped into [0, L) by L = per[k] where per is
   given: v - floor(v / L) L, less L where the rounding lands on L */
static inline void steps(const double *base, double scale, const double *z, const double *per, size_t n,
                         double *restrict out)
{
    for (size_t k = 0; k < n; k++) {
        double v = base[k] + scale * z[k];
        if (per) {
            double L = per[k];
            v = v - floor_exact(v / L) * L;
            v = v >= L ? v - L : v;
        }
        out[k] = v;
    }
}

/* Normals per tile: 8 KB of uniform slots, so that the slots, their
   normals and the rows they make stay in L1. */
#define TILE_NORMALS 512

typedef void uniforms_fn(uint64_t, const uint64_t *, const uint64_t *, size_t, size_t, double *);

/* The dim normals of each of n samples from its slots pos[i] on, written to
   the rows of out (n by dim) or, where base is given, made into the step
   base + scale * z row by row and wrapped where per is given.  A tile holds
   the slots of rows rows and cols columns: rows of up to 64 normals are
   whole and run as one flat loop, wider ones go in chunks of 64. */
static inline __attribute__((always_inline)) void
draw_steps(uniforms_fn *uniforms, uint64_t seed, const uint64_t *sample, const uint64_t *pos, size_t n, size_t dim,
           const double *base, double scale, const double *per, double *restrict out)
{
    /* at least 8 rows a tile, so the Philox body runs on groups of eight */
    size_t cols = dim < TILE_NORMALS / 8 ? dim : TILE_NORMALS / 8, rows = TILE_NORMALS / cols;
    double u[2 * TILE_NORMALS], z[TILE_NORMALS], period[TILE_NORMALS];
    uint64_t start[8]; /* the slots of chunk k, for the 8 rows of a tile of wide rows */
    int whole = cols == dim;
    if (per && whole)
        for (size_t k = 0; k < rows * dim; k++)
            period[k] = per[k % dim];
    for (size_t i = 0; i < n; i += rows) {
        size_t r = rows < n - i ? rows : n - i;
        for (size_t k = 0; k < dim; k += cols) {
            size_t c = cols < dim - k ? cols : dim - k;
            const uint64_t *draw = pos + i;
            if (k) {
                for (size_t j = 0; j < r; j++)
                    start[j] = pos[i + j] + 2 * k; /* unsigned: wraps modulo 2**64 */
                draw = start;
            }
            uniforms(seed, sample + i, draw, r, 2 * c, u);
            for (size_t j = 0; j < (whole ? 1 : r); j++) {
                size_t m = whole ? r * c : c, at = (i + j) * dim + k;
                if (!base) {
                    normals(u + 2 * j * c, m, 2, out + at);
                    continue;
                }
                normals(u + 2 * j * c, m, 2, z);
                steps(base + at, scale, z, per ? (whole ? period : per + k) : 0, m, out + at);
            }
        }
    }
}

/* The H^3 step's radius and direction from rows of 8 slots u, with z0, z1,
   z2 the normals of slot pairs 0-5 and (cos, sin) the angle of slot 7:
   r = s sqrt(((z0 + s)^2 + z1^2) + z2^2), and with c = 1 - 2 u6 and
   rim = sqrt(max(1 - c^2, 0)) the direction (rim cos, rim sin, c). */
static inline void h3_rows(const double *u, const double *z0, const double *z1, const double *z2, const double *cos,
                           const double *sin, size_t n, double s, double *restrict radius, double *restrict d0,
                           double *restrict d1, double *restrict d2)
{
    for (size_t i = 0; i < n; i++) {
        double a = z0[i] + s, c = 1.0 - 2.0 * u[8 * i + 6], w = 1.0 - c * c, rim = sqrt(w < 0.0 ? 0.0 : w);
        radius[i] = s * sqrt((a * a + z1[i] * z1[i]) + z2[i] * z2[i]);
        d0[i] = rim * cos[i];
        d1[i] = rim * sin[i];
        d2[i] = c;
    }
}

/* Rows per tile of the H^3 draw: their 8 slots each fill as many doubles as a step tile. */
#define TILE_H3 (TILE_NORMALS / 8)

/* The radius and direction of one H^3 step for each of n samples, from its
   slots pos[i] to pos[i] + 7, drawn as uniforms(8) draws them; the
   direction is written one coordinate a row of dir, n doubles apart. */
static inline __attribute__((always_inline)) void
draw_h3(uniforms_fn *uniforms, uint64_t seed, const uint64_t *sample, const uint64_t *pos, size_t n, double s,
        double *restrict radius, double *restrict dir)
{
    double u[8 * TILE_H3], z[3][TILE_H3], cos[TILE_H3], sin[TILE_H3];
    for (size_t i = 0; i < n; i += TILE_H3) {
        size_t r = TILE_H3 < n - i ? TILE_H3 : n - i;
        uniforms(seed, sample + i, pos + i, r, 8, u);
        for (int j = 0; j < 3; j++)
            normals(u + 2 * j, r, 8, z[j]);
        angles(u + 7, r, 8, cos, sin);
        h3_rows(u, z[0], z[1], z[2], cos, sin, r, s, radius + i, dir + i, dir + n + i, dir + 2 * n + i);
    }
}

/* exp_point_arrays on n rows: base row i at base + i stride, its direction
   one coordinate a row of dir (n doubles apart), ch = cosh r and sh = sinh r.
   With c = ((p1 d0 + p2 d1) + p3 d2) / (1 + p0), out_k = ch p_k + sh (d_k-1
   + c p_k) for k = 1..3 and out_0 = sqrt(1 + ((o1^2 + o2^2) + o3^2)).
   Returns the count of rows whose out_0 is not finite. */
static inline size_t h3_exp(const double *base, ptrdiff_t stride, const double *dir, const double *ch,
                            const double *sh, size_t n, double *restrict out)
{
    size_t far = 0;
    for (size_t i = 0; i < n; i++) {
        const double *p = base + i * stride;
        double d0 = dir[i], d1 = dir[n + i], d2 = dir[2 * n + i];
        double c = (p[1] * d0 + p[2] * d1 + p[3] * d2) / (1.0 + p[0]);
        double o1 = ch[i] * p[1] + sh[i] * (d0 + c * p[1]);
        double o2 = ch[i] * p[2] + sh[i] * (d1 + c * p[2]);
        double o3 = ch[i] * p[3] + sh[i] * (d2 + c * p[3]);
        double o0 = sqrt(1.0 + (o1 * o1 + o2 * o2 + o3 * o3));
        out[4 * i] = o0, out[4 * i + 1] = o1, out[4 * i + 2] = o2, out[4 * i + 3] = o3;
        far += !(o0 <= 0x1.fffffffffffffp+1023);
    }
    return far;
}

/* Past r ~ 355 the squares overflow though cosh r is finite to 710: where
   out_0 is infinite and out_1..3 finite, out_0 is their scaled norm
   m sqrt(((o1/m)^2 + (o2/m)^2) + (o3/m)^2), m = max |o_k|.  Returns the count
   of rows with a coordinate that is still not finite. */
static size_t h3_rescale(size_t n, double *out)
{
    size_t bad = 0;
    for (size_t i = 0; i < n; i++, out += 4) {
        double a1 = fabs(out[1]), a2 = fabs(out[2]), a3 = fabs(out[3]);
        if (out[0] == INFINITY && a1 <= 0x1.fffffffffffffp+1023 && a2 <= 0x1.fffffffffffffp+1023
            && a3 <= 0x1.fffffffffffffp+1023) {
            double m = a1 > a2 ? a1 : a2;
            m = m > a3 ? m : a3;
            double v1 = out[1] / m, v2 = out[2] / m, v3 = out[3] / m;
            out[0] = m * sqrt((v1 * v1 + v2 * v2) + v3 * v3);
        }
        bad += !(out[0] <= 0x1.fffffffffffffp+1023);
    }
    return bad;
}

void pathkernel_normals_scalar(const double *u, size_t n, ptrdiff_t stride, double *restrict out)
{
    normals(u, n, stride, out);
}

void pathkernel_angles_scalar(const double *u, size_t n, ptrdiff_t stride, double *restrict cos, double *restrict sin)
{
    angles(u, n, stride, cos, sin);
}

size_t pathkernel_cos_scalar(const double *x, size_t n, ptrdiff_t stride, double *restrict out)
{
    return cosines(x, n, stride, out);
}

void pathkernel_steps_scalar(uint64_t seed, const uint64_t *sample, const uint64_t *pos, size_t n, size_t dim,
                             const double *base, double scale, const double *per, double *restrict out)
{
    draw_steps(pathkernel_uniforms_scalar, seed, sample, pos, n, dim, base, scale, per, out);
}

void pathkernel_h3_draw_scalar(uint64_t seed, const uint64_t *sample, const uint64_t *pos, size_t n, double s,
                               double *restrict radius, double *restrict dir)
{
    draw_h3(pathkernel_uniforms_scalar, seed, sample, pos, n, s, radius, dir);
}

size_t pathkernel_h3_exp_scalar(const double *base, ptrdiff_t stride, const double *dir, const double *ch,
                                const double *sh, size_t n, double *restrict out)
{
    return h3_exp(base, stride, dir, ch, sh, n, out) ? h3_rescale(n, out) : 0;
}

#if defined(__x86_64__)
/* The common strides, adjacent pairs and adjacent values, are constants
   here, so that their loops load whole vectors where other strides build
   them value by value. */
AVX512 void pathkernel_normals_avx512(const double *u, size_t n, ptrdiff_t stride, double *restrict out)
{
    stride == 2 ? normals(u, n, 2, out) : normals(u, n, stride, out);
}

AVX512 void pathkernel_angles_avx512(const double *u, size_t n, ptrdiff_t stride, double *restrict cos,
                                     double *restrict sin)
{
    angles(u, n, stride, cos, sin);
}

AVX512 size_t pathkernel_cos_avx512(const double *x, size_t n, ptrdiff_t stride, double *restrict out)
{
    return stride == 1 ? cosines(x, n, 1, out) : cosines(x, n, stride, out);
}

AVX512 void pathkernel_steps_avx512(uint64_t seed, const uint64_t *sample, const uint64_t *pos, size_t n, size_t dim,
                                    const double *base, double scale, const double *per, double *restrict out)
{
    draw_steps(pathkernel_uniforms_avx512, seed, sample, pos, n, dim, base, scale, per, out);
}

AVX512 void pathkernel_h3_draw_avx512(uint64_t seed, const uint64_t *sample, const uint64_t *pos, size_t n, double s,
                                      double *restrict radius, double *restrict dir)
{
    draw_h3(pathkernel_uniforms_avx512, seed, sample, pos, n, s, radius, dir);
}

/* base rows of 4 adjacent doubles, and one row read for every output row */
AVX512 size_t pathkernel_h3_exp_avx512(const double *base, ptrdiff_t stride, const double *dir, const double *ch,
                                       const double *sh, size_t n, double *restrict out)
{
    size_t far = stride == 4 ? h3_exp(base, 4, dir, ch, sh, n, out)
                 : stride == 0 ? h3_exp(base, 0, dir, ch, sh, n, out) : h3_exp(base, stride, dir, ch, sh, n, out);
    return far ? h3_rescale(n, out) : 0;
}
#endif

/* 1 where the CPU runs the _avx512 entries */
int pathkernel_avx512(void)
{
#if defined(__x86_64__)
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq");
#else
    return 0;
#endif
}
"""
# -ffp-contract=off: GNU C would fuse a * b + c into one FMA under the avx512f
# target, which rounds once where the numpy body rounds twice.
# -fno-math-errno: sqrt is the IEEE instruction alone, with no libm call
_KERNEL_FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")
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
    """The library's two bodies: the one ``_kernel`` runs and the scalar loops.

    The first is the ``_avx512`` entries where ``pathkernel_avx512()`` finds
    that this CPU runs them, else the ``_scalar`` ones.  Each body is its
    ``uniforms`` function, with the Box-Muller, cos and step functions of
    the same body as its ``normals``, ``angles``, ``cos`` and ``steps``
    attributes, and its H^3 draw and exp-map passes as ``h3_draw`` and
    ``h3_exp``."""
    lib = ctypes.CDLL(str(path))
    lib.pathkernel_avx512.argtypes = []
    lib.pathkernel_avx512.restype = ctypes.c_int
    bodies = []
    for body in ("_avx512" if lib.pathkernel_avx512() else "_scalar", "_scalar"):
        uniforms, normals, angles, cos, steps, h3_draw, h3_exp = (
            getattr(lib, f"pathkernel_{name}{body}")
            for name in ("uniforms", "normals", "angles", "cos", "steps", "h3_draw", "h3_exp"))
        uniforms.argtypes = [ctypes.c_uint64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t, ctypes.c_size_t,
                             ctypes.c_void_p]
        normals.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_ssize_t, ctypes.c_void_p]
        angles.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_void_p]
        cos.argtypes = normals.argtypes
        steps.argtypes = [*uniforms.argtypes[:5], ctypes.c_void_p, ctypes.c_double, ctypes.c_void_p, ctypes.c_void_p]
        h3_draw.argtypes = [*uniforms.argtypes[:4], ctypes.c_double, ctypes.c_void_p, ctypes.c_void_p]
        h3_exp.argtypes = [ctypes.c_void_p, ctypes.c_ssize_t, *[ctypes.c_void_p] * 3, ctypes.c_size_t, ctypes.c_void_p]
        for fn in (uniforms, normals, angles, steps, h3_draw):
            fn.restype = None
        cos.restype = h3_exp.restype = ctypes.c_size_t
        uniforms.normals, uniforms.angles, uniforms.cos, uniforms.steps = normals, angles, cos, steps
        uniforms.h3_draw, uniforms.h3_exp = h3_draw, h3_exp
        bodies.append(uniforms)
    return tuple(bodies)


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
    packed = array.array("d", variates)
    if sys.byteorder == "big":
        packed.byteswap()
    return zlib.crc32(packed)


# The numpy body's variates at the check addresses, as their CRC-32; the
# test suite recomputes it from ``_numpy_uniforms``.  Running the numpy body
# in every process instead would cost about 1 ms and 0.66 MB of resident
# memory, mostly numpy's uint64 loops paged in for the check alone.
_CHECK_SEED = 0x299F31D0A4093822
_CHECK_WIDTH = 5
_CHECK_CRC = 0x6BCAFAFE


def _box_muller_check_inputs():
    """Uniform pairs (radius, angle), flattened, of the Box-Muller known-answer check.

    Nine pairs of edge points, then 28 pairs of 53-bit slot values from a
    Weyl sequence: four groups of 8 and a 5-pair tail.  The radii are 1.0,
    the smallest slot value 2**-54, 1 - 2**-53, 1/2, and mantissas at and on
    either side of sqrt(1/2) at two exponents; the angles are the quarter
    turns 1/4, 1/2, 3/4, 1, and 1 - 2**-53, 2**-54 and three odd eighths.
    """
    below, above = math.nextafter(_SQRT_HALF, 0.0), math.nextafter(_SQRT_HALF, 1.0)
    radii = [1.0, 2.0 ** -54, _SQRT_HALF, below, above, below / 2, above / 2, 0.5, 1.0 - 2.0 ** -53]
    angles = [0.25, 0.5, 0.75, 1.0, 1.0 - 2.0 ** -53, 2.0 ** -54, 0.125, 0.375, 0.875]
    weyl = [((i * 0x9E3779B97F4A7C15 % 2 ** 64 >> 11) + 0.5) * _TWO_NEG53 for i in range(1, 57)]
    return [u for pair in zip(radii, angles) for u in pair] + weyl


# The numpy body's normals at the check pairs, then at every other pair (read
# 4 doubles apart, a stride with no entry of its own), then its cosines and sines
# of every check input (``_numpy_box_muller`` and ``_numpy_cos_sin_2pi``),
# as their CRC-32; the tests recompute it.
_BOX_MULLER_CRC = 0x40AFB197


def _cos_check_inputs():
    """Arguments of the cos known-answer check: five groups of 8 and a 7-value tail.

    Edges first: +-0, the smallest subnormal and the smallest normal, the
    double nearest pi/4 and the next one up (either side of the first
    quadrant change), doubles near k pi/2 for k = 1, -1, 2, 3, 4 and
    1000003, and the largest double below the reduction bound, both signs;
    then 29 values from a Weyl sequence at magnitudes 2**-19 to 2**20.  Four
    arguments, inside a full group, are past the bound or not finite: the
    bound itself, -inf, NaN and 1e300.
    """
    below = math.nextafter(_COS_BOUND, 0.0)
    edges = [0.0, -0.0, 5e-324, -2.0 ** -1022, math.pi / 4, math.nextafter(math.pi / 4, 1.0), math.pi / 2,
             -math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi, 1000003 * math.pi / 2, below, -below]
    weyl = [((i * 0x9E3779B97F4A7C15 % 2 ** 64 >> 11) * _TWO_NEG53 - 0.5) * 2.0 ** (3 * i % 41 - 19)
            for i in range(1, 30)]
    far = [_COS_BOUND, -math.inf, math.nan, 1e300]
    return edges + weyl[:10] + far + weyl[10:]


# The numpy body's cosines of the cos check inputs, then of every fourth
# input (read 4 doubles apart, a stride with no entry of its own), each list
# without the arguments past the bound, as their CRC-32; the tests
# recompute it.
_COS_CRC = 0x878F3906


# The periods of the step check's wrapped runs, one per coordinate.
_STEP_PERIODS = (1.0, 2.5, 0.3)


def _steps_check_runs():
    """Runs of the step known-answer check, as (rows, dim, base, scale, periods), on the first ``rows`` check addresses.

    At every check address: 3 normals, then base + 0.75 z from base rows of
    a Weyl sequence in [-4, 4), plain and wrapped into ``_STEP_PERIODS``.
    At the first 9: 65 normals, wider than a tile's 64 columns, so each row
    takes two chunks.  At the first 8, with scale 0, the wrap's edges: the
    rows e * periods for e = -1e-17 (whose quotient's floor is -1, so that
    the difference rounds to L), 0, -0.0, 1 (exactly L), 1e300, inf, -inf and NaN.
    """
    n, dim = len(_check_addresses()[1]), len(_STEP_PERIODS)
    weyl = [((i * 0x9E3779B97F4A7C15 % 2 ** 64 >> 11) * _TWO_NEG53 - 0.5) * 8.0 for i in range(1, n * dim + 1)]
    edges = [e * p for e in (-1e-17, 0.0, -0.0, 1.0, 1e300, math.inf, -math.inf, math.nan) for p in _STEP_PERIODS]
    return [(n, dim, None, 1.0, None), (n, dim, weyl, 0.75, None), (n, dim, weyl, 0.75, _STEP_PERIODS),
            (9, 65, None, 1.0, None), (8, dim, edges, 0.0, _STEP_PERIODS)]


def _nan_free_crc(values):
    """``_crc`` of values with every NaN read as one NaN: the check pins where NaN falls, not its sign or payload."""
    return _crc([math.nan if v != v else v for v in values])


# The numpy body's outputs of the step check runs, in order (``_numpy_box_muller``
# of ``_numpy_uniforms``, then base + scale * z and ``wrap``), as their
# ``_nan_free_crc``; the tests recompute it.
_STEPS_CRC = 0xA3CFB76F


# The step scales of the H^3 draw check: an ordinary one, and one whose
# (z0 + s)^2 overflows, so that r is infinite.
_H3_SCALES = (0.75, 2.0 ** 520)


@functools.lru_cache(maxsize=1)  # both bodies run the check; the tuples are not written
def _h3_check_inputs():
    """Addresses and exp-map inputs of the H^3 known-answer check: (sample, draw, base, ch, sh), as tuples.

    The check addresses twice over, so that the draw spans two tiles of 64
    rows.  The exp map runs on as many rows as there are check addresses,
    each with a base row off the origin: x1..x3 from a Weyl sequence in
    [-4, 4) and x0 = sqrt(1 + |x|^2).  ch and sh stand for cosh r and
    sinh r, given so that the check does not depend on numpy's: 1 + |w|
    and |w'| from the same sequence, but on the first 8 rows
    the edges 1 and 0 (r = 0), 2**600 (the squares overflow and x0 is
    rescaled), 2**800, 2**1020 and 2**1022 (rows leave the float range, in
    the rescaled x0 or in a coordinate), the largest double, inf and NaN.
    """
    sample, draw = _check_addresses()
    n = len(draw)
    weyl = [((i * 0x9E3779B97F4A7C15 % 2 ** 64 >> 11) * _TWO_NEG53 - 0.5) * 8.0 for i in range(1, 5 * n - 15)]
    base = []
    for x in zip(weyl[0:n], weyl[n:2 * n], weyl[2 * n:3 * n]):
        base += [math.sqrt(1.0 + (x[0] * x[0] + x[1] * x[1] + x[2] * x[2])), *x]
    edges = [2.0 ** 600, 2.0 ** 800, 2.0 ** 1020, 2.0 ** 1022, sys.float_info.max, math.inf, math.nan]
    ch = [1.0, *edges, *(1.0 + abs(w) for w in weyl[3 * n:4 * n - 8])]
    sh = [0.0, *edges, *map(abs, weyl[4 * n - 8:])]
    return tuple(sample * 2), tuple(draw * 2), tuple(base), tuple(ch), tuple(sh)


# The numpy body's outputs of the H^3 check, in order: r and the directions
# (x, then y, then z coordinates) of ``StreamCursor.h3_draw`` at every
# address at scale 0.75 and at the first 8 at 2**520, then ``_numpy_h3_exp``
# on the first rows of the first draw's directions from their base rows and
# from the first base row alone, as their ``_nan_free_crc``; the tests
# recompute it.
_H3_CRC = 0x32E54E3F


# The check buffers are array.array objects, so that the check makes no ctypes
# array type: ctypes keeps every one it makes for the life of the process.
def _uniforms_pass(fn):
    """True if the kernel body ``fn`` gives the numpy body's variates at the check addresses."""
    sample, draw = (array.array("Q", a) for a in _check_addresses())
    n = len(draw)
    out = array.array("d", bytes(8 * n * _CHECK_WIDTH))  # zeros: no variate is 0, so a slot left unwritten fails
    fn(_CHECK_SEED, sample.buffer_info()[0], draw.buffer_info()[0], n, _CHECK_WIDTH, out.buffer_info()[0])
    return _crc(out) == _CHECK_CRC


def _box_muller_pass(fn):
    """True if the kernel body ``fn`` gives the numpy body's normals, cosines and sines at the check inputs."""
    inputs = _box_muller_check_inputs()
    m = len(inputs)
    u = array.array("d", inputs)
    every, other = m // 2, len(inputs[::4])
    nan = array.array("d", [math.nan])  # which no body writes
    normals, cos, sin = nan * (every + other), nan * m, nan * m
    fn.normals(u.buffer_info()[0], every, 2, normals.buffer_info()[0])
    fn.normals(u.buffer_info()[0], other, 4, normals.buffer_info()[0] + 8 * every)
    fn.angles(u.buffer_info()[0], m, 1, cos.buffer_info()[0], sin.buffer_info()[0])
    return _crc([*normals, *cos, *sin]) == _BOX_MULLER_CRC


def _cos_pass(fn):
    """True if the kernel body ``fn`` gives the numpy body's cosines at the cos check inputs,
    and counts the arguments past the bound."""
    inputs = _cos_check_inputs()
    buf = array.array("d", inputs)
    got = []
    for stride in (1, 4):
        x = inputs[::stride]
        out = array.array("d", [math.nan]) * len(x)
        far = fn.cos(buf.buffer_info()[0], len(x), stride, out.buffer_info()[0])
        near = [abs(v) < _COS_BOUND for v in x]
        if far != near.count(False):
            return False
        got += [c for c, keep in zip(out, near) if keep]
    return _crc(got) == _COS_CRC


def _steps_pass(fn):
    """True if the kernel body ``fn`` gives the numpy body's normals and steps in the step check runs."""
    sample, draw = (array.array("Q", a) for a in _check_addresses())
    got = []
    for n, dim, base, scale, periods in _steps_check_runs():
        base, periods = (None if a is None else array.array("d", a) for a in (base, periods))
        out = array.array("d", [math.nan]) * (n * dim)
        fn.steps(_CHECK_SEED, sample.buffer_info()[0], draw.buffer_info()[0], n, dim,
                 base and base.buffer_info()[0], scale, periods and periods.buffer_info()[0], out.buffer_info()[0])
        got += out
    return _nan_free_crc(got) == _STEPS_CRC


def _h3_pass(fn):
    """True if the kernel body ``fn`` gives the numpy body's H^3 draws and exp-map rows in the H^3 check,
    and counts the rows that leave the float range."""
    sample, draw, base, ch, sh = _h3_check_inputs()
    sample, draw = (array.array("Q", a) for a in (sample, draw))
    base, ch, sh = (array.array("d", a) for a in (base, ch, sh))
    got = array.array("d")
    for s, rows in zip(_H3_SCALES, (len(draw), 8)):
        r, direction = (array.array("d", [math.nan]) * (k * rows) for k in (1, 3))
        fn.h3_draw(_CHECK_SEED, sample.buffer_info()[0], draw.buffer_info()[0], rows, s, r.buffer_info()[0],
                   direction.buffer_info()[0])
        got += r + direction
        if rows == len(draw):
            # the exp map's directions: the first rows of each coordinate of this draw
            n = len(ch)
            first = direction[:n] + direction[rows:rows + n] + direction[2 * rows:2 * rows + n]
    for stride in (4, 0):
        out = array.array("d", [math.nan]) * (4 * n)
        bad = fn.h3_exp(base.buffer_info()[0], stride, first.buffer_info()[0], ch.buffer_info()[0],
                        sh.buffer_info()[0], n, out.buffer_info()[0])
        # where x0 is finite so is its row, which the CRC pins
        if bad != sum(not math.isfinite(x0) for x0 in out[::4]):
            return False
        got += out
    return _nan_free_crc(got) == _H3_CRC


def _passes_check(bodies):
    """True if every kernel body in ``bodies`` passes the uniform, Box-Muller, cos, step and H^3 known-answer checks."""
    return all(check(fn) for fn in bodies
               for check in (_uniforms_pass, _box_muller_pass, _cos_pass, _steps_pass, _h3_pass))


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
    """The body that ``_load`` chose for this CPU, or None where it cannot be had.

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


def _strided(a, width):
    """``a`` as rows of ``width`` adjacent doubles a fixed positive number of doubles apart: (rows, stride).

    Copies only where the layout of ``a`` has no such form."""
    rows = np.asarray(a, dtype=np.float64).reshape(-1, width)
    step, item = rows.strides
    if (item != 8 and width > 1) or step <= 0 or step % 8:
        rows = np.ascontiguousarray(rows)
    return rows, rows.strides[0] // 8


def box_muller(u):
    """Standard normals from uniform slot pairs along the last axis.

    ``(..., 2k)`` uniforms in (0, 1] give ``(..., k)`` normals
    sqrt(-2 log u0) cos(2 pi u1); slot ``2i`` is u0, the radius, and slot
    ``2i + 1`` is u1, the angle (cosine branch).
    """
    if np.shape(u)[-1] % 2:
        raise ValueError("box_muller takes slot pairs: the last axis must have even length")
    kernel = _kernel()
    if kernel is None:
        return _numpy_box_muller(u)
    pairs, stride = _strided(u, 2)
    out = np.empty(pairs.shape[0])
    if out.size:
        kernel.normals(pairs.ctypes.data, out.size, stride, out.ctypes.data)
    return out.reshape(np.shape(u)[:-1] + (np.shape(u)[-1] // 2,))


def cos_sin_2pi(u):
    """(cos 2 pi u, sin 2 pi u) for u in [0, 1], each of u's shape: the angle arithmetic of ``box_muller``."""
    kernel = _kernel()
    if kernel is None:
        return _numpy_cos_sin_2pi(u)
    flat, stride = _strided(u, 1)
    cos, sin = np.empty(flat.shape[0]), np.empty(flat.shape[0])
    if cos.size:
        kernel.angles(flat.ctypes.data, cos.size, stride, cos.ctypes.data, sin.ctypes.data)
    return cos.reshape(np.shape(u)), sin.reshape(np.shape(u))


def cos(x):
    """cos x, elementwise, of x's shape.

    Below ``_COS_BOUND`` (2**20 times pi/2's leading 33 bits, about
    1.647e6) in magnitude the value comes from IEEE basic operations only
    (the module docstring lists them), so it does not depend on the host;
    a strided view, such as one coordinate of rows of points, is read in
    place.  Its absolute error is below 2**-52.  Larger and non-finite
    arguments take ``np.cos``, whose bits may depend on the host's libm and
    SIMD level."""
    x = np.asarray(x, dtype=np.float64)
    kernel = _kernel()
    if kernel is None:
        out, far = _numpy_cos(x), True
    else:
        flat, stride = _strided(x, 1)
        out = np.empty(flat.shape[0])
        far = kernel.cos(flat.ctypes.data, out.size, stride, out.ctypes.data) if out.size else 0
        out = out.reshape(x.shape)
    if far:
        far = ~(np.abs(x) < _COS_BOUND)
        out[far] = np.cos(x[far])
    return out


def wrap(x, periods):
    """x reduced into [0, L) along its last axis, one period L per coordinate: x - floor(x / L) L.

    Computed in place in one new array, so a call costs that array and a
    boolean mask; x itself is never written.  Where floor's rounding lands
    the difference exactly on L (a tiny negative x), L is subtracted once
    more.  This is the numpy body of the kernel's wrapped steps, and
    ``manifold.project_arrays``."""
    x = np.asarray(x, dtype=np.float64)
    per = np.asarray(periods)
    out = np.divide(x, per)
    np.floor(out, out=out)
    np.multiply(out, per, out=out)
    np.subtract(x, out, out=out)
    np.subtract(out, per, out=out, where=out >= per)
    return out


def sphere_directions(uv):
    """Uniform unit vectors in R^3 from the uniform pairs in the rows of ``uv``."""
    c = 1.0 - 2.0 * uv[:, 0]
    s = np.sqrt(np.maximum(1.0 - c * c, 0.0))
    cos, sin = cos_sin_2pi(uv[:, 1])
    out = np.empty((len(c), 3))
    np.multiply(s, cos, out=out[:, 0])
    np.multiply(s, sin, out=out[:, 1])
    out[:, 2] = c
    return out


def exp_point_arrays(base, direction, r):
    """Geodesic from base along a unit 3-vector direction in the origin
    frame, of length r (H^3 only); broadcasts.

    The origin frame is the orthonormal frame at (1,0,0,0) parallel-transported
    along the geodesic to base p.  In it, d is the tangent vector
    (pd, d + c pv) at p, with pd = p1 d1 + p2 d2 + p3 d3 and c = pd / (1 + p0).
    So out_k = cosh(r) p_k + sinh(r) (d_k + c p_k) for k = 1..3, and out_0 is
    re-projected onto the hyperboloid as sqrt(1 + (o1^2 + o2^2 + o3^2)).
    Each sum runs left to right in the order written here.  This is the
    numpy body of ``h3_exp``.
    """
    r = np.asarray(r, dtype=np.float64)
    return _numpy_h3_exp(base, direction, np.cosh(r), np.sinh(r))


def _numpy_h3_exp(base, direction, ch, sh):
    """``exp_point_arrays`` with ch = cosh r and sh = sinh r given: the reference of the kernel's exp-map pass."""
    base = np.asarray(base, dtype=np.float64)
    direction = np.asarray(direction, dtype=np.float64)
    p = [base[..., k] for k in range(4)]
    d = [direction[..., k] for k in range(3)]
    c = (p[1] * d[0] + p[2] * d[1] + p[3] * d[2]) / (1.0 + p[0])
    out = np.empty(np.broadcast_shapes(c.shape, np.shape(ch)) + (4,))
    for k in (1, 2, 3):
        out[..., k] = ch * p[k] + sh * (d[k - 1] + c * p[k])
    o1, o2, o3 = out[..., 1], out[..., 2], out[..., 3]
    # re-project onto the hyperboloid to stop constraint drift
    with np.errstate(over="ignore"):
        out[..., 0] = np.sqrt(1.0 + (o1 * o1 + o2 * o2 + o3 * o3))
    # past r ~ 355 the squares overflow though cosh r is finite to 710;
    # there 1 is below rounding and x0 is the scaled norm of out[1:]
    inf = np.isinf(out[..., 0])
    if np.any(inf):
        huge = inf & np.all(np.isfinite(out[..., 1:]), axis=-1)
        v = out[huge, 1:]
        m = np.max(np.abs(v), axis=-1)
        out[huge, 0] = m * np.sqrt(np.sum((v / m[:, None]) ** 2, axis=-1))
    return out


def h3_exp(base, direction, r):
    """``exp_point_arrays`` of n steps, and whether every coordinate of the result is finite: (out, finite).

    ``base`` is a row of 4 or (n, 4) rows, ``direction`` (n, 3) and ``r``
    (n,).  cosh r and sinh r come from numpy; on the kernel, one pass then
    writes each row with ``exp_point_arrays``' operations in its order,
    reading the base rows in place (a single row at stride 0) and the
    directions in place where they are the transpose of (3, n) coordinate
    rows, as ``StreamCursor.h3_draw`` gives them.  Rows that leave the float
    range raise no warning."""
    r = np.asarray(r, dtype=np.float64)
    kernel = _kernel()
    with np.errstate(over="ignore", invalid="ignore"):
        if kernel is None:
            out = exp_point_arrays(base, direction, r)
            return out, bool(np.all(np.isfinite(out)))
        ch, sh = np.cosh(r), np.sinh(r)
    n = r.shape[0]
    base = np.asarray(base, dtype=np.float64)
    if base.ndim == 1:
        rows, stride = np.ascontiguousarray(np.broadcast_to(base, (4,))), 0
    else:
        rows, stride = _strided(np.broadcast_to(base, (n, 4)), 4)
    coords = np.ascontiguousarray(np.broadcast_to(direction, (n, 3)).T, dtype=np.float64)
    out = np.empty((n, 4))
    bad = kernel.h3_exp(rows.ctypes.data, stride, coords.ctypes.data, ch.ctypes.data, sh.ctypes.data, n,
                        out.ctypes.data) if n else 0
    return out, bad == 0


def _horner(coeffs, z):
    """coeffs[0] + z (coeffs[1] + z (... + z coeffs[-1])), in a new array written in place."""
    acc = np.multiply(z, coeffs[-1], out=np.empty(np.shape(z)))  # an array even where z is 0-d
    for c in coeffs[-2:0:-1]:
        acc += c
        acc *= z
    acc += coeffs[0]
    return acc


def _low_bits(t):
    """The two low bits of the float64 array ``t``'s bit patterns, as uint8: k mod 4 of t = k + 1.5 * 2**52."""
    q = np.empty(t.shape, np.uint8)
    np.bitwise_and(t.view(np.uint64), np.uint64(3), out=q, casting="unsafe")
    return q


def _numpy_cos_sin_2pi(u):
    """The numpy body of ``cos_sin_2pi``: the kernel's reference.

    4u = k + f with k = rint(4u), written (4u + 1.5 * 2**52) - 1.5 * 2**52,
    and |f| <= 1/2; both are exact.  The quarter turn q = k mod 4 is the two
    low bits of the rounding sum.  C(f) = cos(pi f / 2) and S(f) =
    sin(pi f / 2) are Horner polynomials in f**2 (times f for S), and
    cos(2 pi u) is C, -S, -C, S and sin(2 pi u) is S, C, -S, -C for
    q = 0, 1, 2, 3."""
    f = np.multiply(u, 4.0, out=np.empty(np.shape(u)))
    z = np.add(f, _ROUND, out=np.empty(f.shape))  # an array even where u is 0-d
    q = _low_bits(z)
    z -= _ROUND
    f -= z
    np.multiply(f, f, out=z)
    return _quarter(q, f, z, _COS_COEFFS, _SIN_COEFFS)


def _numpy_cos(x):
    """The numpy body of ``cos`` below ``_COS_BOUND``: the kernel's reference.

    t = x * (2/pi) + 1.5 * 2**52, k = t - 1.5 * 2**52 = rint(x * 2/pi) and
    q = k mod 4 the two low bits of t; r = (x - k * pio2_hi) - k * pio2_lo,
    where k * pio2_hi and the first difference are exact (Cody and Waite's
    reduction, in fdlibm's split).  cos r and sin r are Horner polynomials in
    r**2 (times r for sin), and cos x is C, -S, -C, S for q = 0, 1, 2, 3.
    Other arguments give values that ``cos`` replaces."""
    with np.errstate(over="ignore", invalid="ignore"):  # only past the bound
        t = np.multiply(x, _TWO_OVER_PI, out=np.empty(np.shape(x)))
        t += _ROUND
        q = _low_bits(t)
        t -= _ROUND
        r = np.multiply(t, _PIO2_HI, out=np.empty(t.shape))
        np.subtract(x, r, out=r)
        t *= _PIO2_LO
        r -= t
        np.multiply(r, r, out=t)
        cos, _ = _quarter(q, r, t, _COS_R_COEFFS, _SIN_R_COEFFS)
    return cos


def _quarter(q, r, z, cos_coeffs, sin_coeffs):
    """cos and sin of q quarter turns plus r, with z = r * r; ``r`` and ``z`` are overwritten.

    C = Horner(cos_coeffs, z) and S = Horner(sin_coeffs, z) * r; the cosine
    is C, -S, -C, S and the sine S, C, -S, -C for q mod 4 = 0, 1, 2, 3.  The
    choice and the negations are bit operations on the float buffers, which
    numpy runs far faster than masked copies."""
    cos = _horner(cos_coeffs, z)
    sin = _horner(sin_coeffs, z)
    sin *= r
    # r and z are free: a mask of all ones where q is odd, and the bits
    # in which cos and sin differ there, swap the two
    mask, swap = r.view(np.uint64), z.view(np.uint64)
    cos_bits, sin_bits = cos.view(np.uint64), sin.view(np.uint64)
    np.bitwise_and(q, np.uint8(1), out=mask)
    np.negative(mask, out=mask)
    np.bitwise_xor(cos_bits, sin_bits, out=swap)
    swap &= mask
    cos_bits ^= swap
    sin_bits ^= swap
    # the sign bit, set where q is 1 or 2 for cos and 2 or 3 for sin
    for bits, shift in ((cos_bits, np.uint8(1)), (sin_bits, np.uint8(0))):
        np.bitwise_and(q + shift, np.uint8(2), out=mask)
        mask <<= np.uint64(62)
        bits ^= mask
    return cos, sin


def _numpy_log(u):
    """log u for u in [2**-1022, 1], from IEEE basic operations: the reference of the kernel's.

    u = 2**e m with m in [sqrt(1/2), sqrt(2)) (np.frexp's mantissa, doubled
    where it is below sqrt(1/2), as m + m) and f = m - 1, exact.  With
    s = f / (f + 2), h = f**2 / 2 and r = s**2 Q(s**2),
    log m = f - (h - s (h + r)), and log u = e ln2_hi + (e ln2_lo + log m)."""
    f = np.empty(np.shape(u))
    e = np.empty(f.shape, np.intc)
    np.frexp(u, f, e)
    low = f < _SQRT_HALF
    s = np.multiply(f, low)  # m or 0: a masked multiply would run far slower
    f += s
    e -= low
    del low
    f -= 1.0
    np.add(f, 2.0, out=s)
    np.divide(f, s, out=s)
    z = s * s
    r = _horner(_LOG_COEFFS, z)
    r *= z
    h = np.multiply(f, f, out=z)
    h *= 0.5
    r += h
    r *= s
    np.subtract(h, r, out=h)
    np.subtract(f, h, out=f)
    del h, r
    np.multiply(e, _LN2_LO, out=s)
    s += f
    np.multiply(e, _LN2_HI, out=f)
    f += s
    return f


def _numpy_box_muller(u):
    """The numpy body of ``box_muller``: the kernel's reference, on IEEE basic operations only."""
    u = np.asarray(u, dtype=np.float64)
    out, _ = _numpy_cos_sin_2pi(u[..., 1::2])
    radius = _numpy_log(u[..., 0::2])
    radius *= -2.0
    np.sqrt(radius, out=radius)
    out *= radius
    return out


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
        self.samples = np.ascontiguousarray(self.samples)  # read in place by the kernel
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
        return self._normal_pass(cols)

    def gaussian_step(self, base, scale, periods=None):
        """base + scale * z for every sample, z its (n, dim) normals as ``normals(dim)`` draws them.

        ``base`` is (n, dim) or a row of dim.  Where ``periods`` are given,
        one a coordinate, each value is wrapped into [0, L) as ``wrap`` does.
        Advances cursors by 2*dim."""
        base = np.ascontiguousarray(np.broadcast_to(base, (len(self), np.shape(base)[-1])), dtype=np.float64)
        if periods is not None and len(periods) != base.shape[1]:
            raise ValueError("gaussian_step takes one period per coordinate")
        return self._normal_pass(base.shape[1], base, scale, periods)

    def _normal_pass(self, cols, base=None, scale=1.0, periods=None):
        """The pass of ``normals`` (base None) and ``gaussian_step``: one tiled kernel call, or the numpy body."""
        if cols < 1:
            raise ValueError("cols must be at least 1")
        kernel = _kernel()
        if kernel is None:
            out = box_muller(uniforms(self.master_seed, self.samples, self.pos, 2 * cols))
            if base is not None:
                out = base + scale * out
                if periods is not None:
                    out = wrap(out, periods)
        else:
            out = np.empty((len(self), cols))
            if out.size:
                # the kernel reads flat contiguous uint64 addresses and float64 periods
                sample, pos = (np.ascontiguousarray(a, dtype=np.uint64) for a in (self.samples, self.pos))
                per = None if periods is None else np.ascontiguousarray(periods, dtype=np.float64)
                kernel.steps(self.master_seed & _SEED_MASK, sample.ctypes.data, pos.ctypes.data, len(self), cols,
                             None if base is None else base.ctypes.data, scale,
                             None if per is None else per.ctypes.data, out.ctypes.data)
        self.pos += np.uint64(2 * cols)
        return out

    def h3_draw(self, s):
        """The radius and direction of one exact H^3 step for every sample, s = sqrt(2t): (r, direction).

        In the slots that ``uniforms(8)`` reads, three normals z from slot
        pairs 0-5 give r = s |z + s e_1| = s sqrt(((z0 + s)^2 + z1^2) + z2^2),
        and slots 6-7 a uniform direction (``sphere_directions``).
        ``direction`` is (n, 3); on the kernel it is the transpose of (3, n)
        coordinate rows, which ``h3_exp`` reads in place.  Advances cursors by 8."""
        kernel = _kernel()
        if kernel is None:
            u = self.uniforms(8)
            # the direction first: its temporaries then meet the draw alone, not the normals too
            direction = sphere_directions(u[:, 6:])
            # one normal per slot pair, each a contiguous column: (n, 3) normals
            # would leave the radius arithmetic on strided columns, 1.8x slower
            z0, z1, z2 = (box_muller(u[:, j:j + 2])[:, 0] for j in (0, 2, 4))
            del u  # 64 bytes a row, not to be held through the exp map
            return s * np.sqrt((z0 + s) ** 2 + z1 * z1 + z2 * z2), direction
        n = len(self)
        r, coords = np.empty(n), np.empty((3, n))
        if n:
            sample, pos = (np.ascontiguousarray(a, dtype=np.uint64) for a in (self.samples, self.pos))
            kernel.h3_draw(self.master_seed & _SEED_MASK, sample.ctypes.data, pos.ctypes.data, n, s, r.ctypes.data,
                           coords.ctypes.data)
        self.pos += np.uint64(8)
        return r, coords.T

    def uniforms_at(self, rows, cols=1):
        """(len(rows), cols) uniforms for the samples in ``rows`` (index array); advances those cursors by cols."""
        out = uniforms(self.master_seed, self.samples[rows], self.pos[rows], cols)
        self.pos[rows] += np.uint64(cols)
        return out
