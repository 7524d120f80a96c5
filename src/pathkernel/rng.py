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
reference and as the fallback.  The library lives in ``__pycache__/``
next to this file, under a name that carries a hash of the C source, the
compiler flags and the machine type.  The first draw in a process loads
it; if it is missing, that draw compiles it with ``cc`` into a temporary
file, checks it against known answers of the numpy body and renames it
into place.  With no ``cc`` on ``PATH``, a failed compile or check, an
unwritable ``__pycache__`` or a library that does not load, draws run in
numpy silently, with the same bits.  Box-Muller stays in numpy: libm's
``log`` and ``cos`` do not round like numpy's SIMD loops, so normals
computed in C would differ in the last bits.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
import os
import platform
import shutil
import tempfile
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
    """Uniform variates in the open interval (0, 1).

    ``sample_index`` and ``draw_index`` broadcast to a shape ``S``; the
    result has shape ``S + (width,)`` and holds slots ``d, d+1, ...,
    d+width-1`` of each address.  Each variate carries 53 random bits and
    is offset by half an ulp so 0.0 and 1.0 never occur (safe under log).
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

void pathkernel_uniforms(uint64_t seed, const uint64_t *sample, const uint64_t *draw,
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
    fn = ctypes.CDLL(str(path)).pathkernel_uniforms
    fn.argtypes = [ctypes.c_uint64, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t, ctypes.c_size_t,
                   ctypes.c_void_p]
    fn.restype = None
    return fn


def _matches_numpy(fn):
    """Known answers from the numpy body: both lanes, both parities, the 2**33 carry and the 2**64 wrap."""
    samp = np.array([0, 3, 2 ** 63 + 5, _SEED_MASK], dtype=np.uint64)
    draw = np.array([0, 2 ** 33 - 1, 6, _SEED_MASK], dtype=np.uint64)
    seed = 0x299F31D0A4093822
    want = _numpy_uniforms(seed, samp, draw, 3)
    got = np.empty_like(want)
    fn(seed, samp.ctypes.data, draw.ctypes.data, draw.size, 3, got.ctypes.data)
    return np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _build(path):
    """Compile the kernel to ``path`` if a ``cc`` on PATH builds one that matches the numpy body."""
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
        if done.returncode != 0 or not _matches_numpy(_load(tmp)):
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

    A cached library passed its known-answer check when it was built and
    is trusted from then on, as ``.pyc`` files next to it are.
    """
    path = _kernel_path()
    try:
        if path.exists() or _build(path):
            return _load(path)
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
        self.pos = self.pos + np.uint64(cols)
        return out

    def normals(self, cols=1):
        """(n, cols) standard normals; advances cursors by 2*cols."""
        out = box_muller(uniforms(self.master_seed, self.samples, self.pos, 2 * cols))
        self.pos = self.pos + np.uint64(2 * cols)
        return out

    def uniforms_at(self, rows, cols=1):
        """(len(rows), cols) uniforms for the samples in ``rows`` (index array); advances those cursors by cols."""
        out = uniforms(self.master_seed, self.samples[rows], self.pos[rows], cols)
        self.pos[rows] += np.uint64(cols)
        return out
