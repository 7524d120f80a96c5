import importlib.util
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathkernel import rng
from pathkernel.rng import RngContract, StreamCursor, philox_words, uniforms

U64_MAX = 2 ** 64 - 1


def words_hex(seed, sample, block):
    return [hex(int(w)) for w in philox_words(seed, sample, block)]


def reference_slots(seed, sample, draw):
    """Per-slot formula: one whole Philox block per slot, lane chosen by parity."""
    sample, draw = np.broadcast_arrays(np.asarray(sample, np.uint64), np.asarray(draw, np.uint64))
    w0, w1, w2, w3 = philox_words(seed, sample, draw >> np.uint64(1))
    odd = (draw & np.uint64(1)) == 1
    hi = np.where(odd, w2, w0)
    lo = np.where(odd, w3, w1)
    u53 = (hi << np.uint64(21)) | (lo >> np.uint64(11))
    return (u53.astype(np.float64) + 0.5) * 2.0 ** -53


def reference_uniforms(seed, sample, draw, width):
    draw = np.asarray(draw, np.uint64)
    return np.stack([reference_slots(seed, sample, draw + np.uint64(k)) for k in range(width)], axis=-1)


def reference_normals(seed, sample, draw):
    """One normal per address: the numpy Box-Muller body on the per-slot uniforms."""
    return rng._numpy_box_muller(reference_uniforms(seed, sample, draw, 2))[..., 0]


def cursor_normals(seed, sample, draw):
    """One normal per sample from a cursor placed at the given draw slots."""
    cur = StreamCursor(seed, sample)
    cur.pos[:] = draw
    return cur.normals(1)[:, 0]


def assert_same_bits(got, ref):
    got = np.asarray(got, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    assert got.shape == ref.shape
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


class TestPhiloxReference:
    """Known-answer vectors for Philox4x32-10 from the reference implementation."""

    def test_zero_counter_zero_key(self):
        assert words_hex(0, 0, 0) == ["0x6627e8d5", "0xe169c58d", "0xbc57ac4c", "0x9b00dbd8"]

    def test_all_ones(self):
        seed = 0xFFFFFFFFFFFFFFFF
        sample = 0xFFFFFFFFFFFFFFFF
        block = 0xFFFFFFFFFFFFFFFF
        assert words_hex(seed, sample, block) == [
            "0x408f276d", "0x41c83b0e", "0xa20bc7c6", "0x6d5451fd",
        ]

    def test_pi_digits_vector(self):
        # counter = (243f6a88, 85a308d3, 13198a2e, 03707344), key = (a4093822, 299f31d0)
        seed = (0x299F31D0 << 32) | 0xA4093822
        sample = (0x03707344 << 32) | 0x13198A2E
        block = (0x85A308D3 << 32) | 0x243F6A88
        assert words_hex(seed, sample, block) == [
            "0xd16cfe09", "0x94fdcceb", "0x5001e420", "0x24126ea1",
        ]


class TestStreams:
    def test_uniform_open_interval(self):
        u = uniforms(123, np.arange(20000), 0)
        assert np.all(u > 0.0) and np.all(u < 1.0)
        assert abs(u.mean() - 0.5) < 0.01

    def test_normals_moments(self):
        z = StreamCursor(7, np.arange(200000)).normals(1)[:, 0]
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.02

    def test_pure_function_of_address(self):
        a = uniforms(42, 5, 17)
        b = uniforms(42, 5, 17)
        assert a.shape == (1,)
        assert float(a[0]) == float(b[0])
        assert float(uniforms(42, 6, 17)[0]) != float(a[0])
        assert float(uniforms(43, 5, 17)[0]) != float(a[0])

    def test_partition_invariance(self):
        whole = StreamCursor(99, np.arange(100))
        w1 = whole.normals(3)
        first = StreamCursor(99, np.arange(50))
        second = StreamCursor(99, np.arange(50, 100))
        split = np.vstack([first.normals(3), second.normals(3)])
        assert np.array_equal(w1, split)

    def test_cursor_masked_draws_advance_only_requested(self):
        cur = StreamCursor(1, np.arange(4))
        cur.uniforms_at(np.array([1, 3]))
        assert list(cur.pos) == [0, 1, 0, 1]

    def test_interleaving_matches_straight_line(self):
        # a sample's draws depend on its own cursor history only
        cur = StreamCursor(5, np.arange(3))
        a0 = cur.uniforms_at(np.array([0]))[0, 0]
        a1 = cur.uniforms_at(np.array([0]))[0, 0]
        solo = StreamCursor(5, np.array([0]))
        b = solo.uniforms(2)
        assert a0 == b[0, 0] and a1 == b[0, 1]

    def test_contract_validation(self):
        with pytest.raises(ValueError):
            RngContract(-1)
        with pytest.raises(ValueError):
            RngContract(1, -2)


SEEDS = (0, 99, U64_MAX, 0x299F31D0A4093822)


def _draws(parity, n=4000, seed=0):
    """Random 64-bit draw indices: all even, all odd, or mixed."""
    g = np.random.default_rng(seed)
    d = g.integers(0, 2 ** 63, n, dtype=np.uint64) << np.uint64(1)
    if parity == "odd":
        d |= np.uint64(1)
    elif parity == "mixed":
        d |= g.integers(0, 2, n, dtype=np.uint64)
    return d


class TestFusedDraws:
    """Every draw computes whole blocks; it must match the per-slot formula bit for bit."""

    @pytest.mark.parametrize("parity", ["even", "odd", "mixed"])
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_uniforms_match_per_slot_reference(self, width, parity):
        draw = _draws(parity)
        sample = np.arange(draw.size, dtype=np.uint64) * np.uint64(7919)
        for seed in SEEDS:
            got = uniforms(seed, sample, draw, width)
            assert got.shape == (draw.size, width)
            assert_same_bits(got, reference_uniforms(seed, sample, draw, width))

    def test_uniforms_broadcast_shape(self):
        draw = np.arange(6, dtype=np.uint64).reshape(2, 3)
        sample = np.array([[4], [9]], dtype=np.uint64)
        got = uniforms(3, sample, draw, 3)
        assert got.shape == (2, 3, 3)
        assert_same_bits(got, reference_uniforms(3, sample, draw, 3))

    @pytest.mark.parametrize("parity", ["even", "odd", "mixed"])
    def test_normals_match_per_slot_reference(self, parity):
        draw = _draws(parity, seed=1)
        sample = np.arange(draw.size, dtype=np.uint64)
        for seed in SEEDS:
            assert_same_bits(cursor_normals(seed, sample, draw), reference_normals(seed, sample, draw))

    def test_cursor_methods_match_per_slot_reference(self):
        n = 257
        samples = np.arange(1000, 1000 + n, dtype=np.uint64)
        cur = StreamCursor(2024, samples)
        g = np.random.default_rng(5)
        for _ in range(12):
            # a single-slot draw on a random subset leaves the rows at mixed parities
            rows = np.flatnonzero(g.integers(0, 2, n))
            before = cur.pos.copy()
            assert_same_bits(cur.uniforms_at(rows), reference_uniforms(2024, samples[rows], before[rows], 1))
            rows = np.flatnonzero(g.integers(0, 2, n))
            for cols in (1, 2, 3):
                before = cur.pos.copy()
                got = cur.uniforms_at(rows, cols)
                assert_same_bits(got, reference_uniforms(2024, samples[rows], before[rows], cols))
                assert np.array_equal(cur.pos - before, np.isin(np.arange(n), rows) * np.uint64(cols))
            for cols in (1, 2):
                before = cur.pos.copy()
                assert_same_bits(cur.uniforms(cols), reference_uniforms(2024, samples, before, cols))
                before = cur.pos.copy()
                ref = np.stack(
                    [reference_normals(2024, samples, before + np.uint64(2 * k)) for k in range(cols)], axis=-1
                )
                assert_same_bits(cur.normals(cols), ref)
                assert np.array_equal(cur.pos, before + np.uint64(2 * cols))
        assert len(set(int(p) % 2 for p in cur.pos)) == 2

    def test_odd_draw_carries_into_block_high_word(self):
        # slot 2**33 - 1 is the second lane of block 2**32 - 1; the next slot
        # opens block 2**32, whose low counter word wraps and carries
        draw = np.array([2 ** 33 - 1, 2 ** 33 - 3], dtype=np.uint64)
        sample = np.array([3, 3], dtype=np.uint64)
        for width in (1, 2, 3, 4):
            assert_same_bits(uniforms(11, sample, draw, width), reference_uniforms(11, sample, draw, width))
        assert_same_bits(cursor_normals(11, sample, draw), reference_normals(11, sample, draw))

    def test_last_slot_wraps_to_slot_zero(self):
        draw = np.array([U64_MAX, U64_MAX - 1], dtype=np.uint64)
        sample = np.array([8, 8], dtype=np.uint64)
        for width in (1, 2, 3, 4):
            assert_same_bits(uniforms(11, sample, draw, width), reference_uniforms(11, sample, draw, width))
        assert_same_bits(cursor_normals(11, sample, draw), reference_normals(11, sample, draw))
        assert uniforms(11, 8, U64_MAX, 2)[1] == uniforms(11, 8, 0)[0]

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, U64_MAX),
        sample=st.integers(0, U64_MAX),
        draw=st.integers(0, U64_MAX),
        width=st.integers(1, 6),
    )
    def test_property_matches_per_slot_reference(self, seed, sample, draw, width):
        samp = np.array([sample], dtype=np.uint64)
        d = np.array([draw], dtype=np.uint64)
        assert_same_bits(uniforms(seed, samp, d, width), reference_uniforms(seed, samp, d, width))


def kernel_and_numpy(monkeypatch, draw):
    """draw() once on the compiled kernel (where one loads) and once on the numpy body."""
    got = draw()
    with monkeypatch.context() as m:
        m.setattr(rng, "_kernel", lambda: None)
        ref = draw()
    return got, ref


@pytest.fixture(scope="module")
def kernel_bodies():
    """The compiled library's two bodies: the one ``uniforms`` calls (vector where the CPU runs it) and the scalar loop."""
    if rng._kernel() is None:
        pytest.skip("no compiled draw kernel")
    return rng._load(rng._kernel_path())


def assert_bodies_match_numpy(bodies, seed, sample, draw, width):
    want = rng._numpy_uniforms(seed, sample, draw, width)
    for fn in bodies:
        got = np.full_like(want, np.nan)
        fn(seed, sample.ctypes.data, draw.ctypes.data, draw.size, width, got.ctypes.data)
        assert_same_bits(got, want)


def _group_draws(parity, n, seed):
    """Draw slots whose 8-row groups all start even, all odd, or mixed (one odd row per group, at rotating places)."""
    draw = _draws("even", n, seed)
    rows = np.arange(n)
    if parity == "odd":
        draw |= np.uint64(1)
    elif parity == "mixed":
        draw |= (rows % 8 == rows // 8 % 8).astype(np.uint64)
    return draw


class TestKernel:
    """The compiled draw kernel against the numpy body of ``uniforms``, bit for bit."""

    def test_kernel_loads_where_cc_exists(self):
        assert shutil.which("cc") is None or rng._kernel() is not None

    def test_load_check_holds_the_numpy_bodys_answers(self):
        sample, draw = rng._check_addresses()
        want = rng._numpy_uniforms(rng._CHECK_SEED, np.array(sample, np.uint64), np.array(draw, np.uint64),
                                   rng._CHECK_WIDTH)
        assert rng._crc(want.ravel().tolist()) == rng._CHECK_CRC
        assert rng._crc(np.nextafter(want, 1.0).ravel().tolist()) != rng._CHECK_CRC

    @pytest.mark.parametrize("parity", ["even", "odd", "mixed"])
    @pytest.mark.parametrize("width", range(1, 10))
    def test_widths_and_parities(self, monkeypatch, width, parity):
        draw = _draws(parity, n=2000, seed=width)
        sample = np.random.default_rng(width).integers(0, 2 ** 64, draw.size, dtype=np.uint64)
        for seed in SEEDS:
            got, ref = kernel_and_numpy(monkeypatch, lambda: uniforms(seed, sample, draw, width))
            assert got.shape == (draw.size, width)
            assert_same_bits(got, ref)

    @pytest.mark.parametrize("width", range(1, 10))
    def test_carry_and_wrap_slots(self, monkeypatch, width):
        # starts about slot 2**33 - 1 (block 2**32 - 1 carries into the high
        # counter word) and about slot 2**64 - 1 (which is followed by slot 0)
        draw = np.array([2 ** 33 - 3, 2 ** 33 - 2, 2 ** 33 - 1, 2 ** 33,
                         U64_MAX - 2, U64_MAX - 1, U64_MAX, 0], dtype=np.uint64)
        sample = np.array([3, U64_MAX], dtype=np.uint64)[:, None]
        got, ref = kernel_and_numpy(monkeypatch, lambda: uniforms(11, sample, draw, width))
        assert got.shape == (2, draw.size, width)
        assert_same_bits(got, ref)

    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_shapes_and_layouts(self, monkeypatch, width):
        wide = np.arange(60, dtype=np.uint64).reshape(6, 10) * np.uint64(2 ** 40 + 1)
        cases = [  # 0-d, broadcast, empty, empty 2-d, transposed and reversed, strided
            (7, 13),
            (np.array([[4], [9]], np.uint64), np.arange(5, dtype=np.uint64)),
            (np.array([], np.uint64), np.array([], np.uint64)),
            (np.zeros((3, 0), np.uint64), 5),
            (wide.T, wide[::-1, ::-1].T + np.uint64(1)),
            (wide[:, ::3], 2 ** 64 - 3),
        ]
        for sample, draw in cases:
            got, ref = kernel_and_numpy(monkeypatch, lambda: uniforms(0x299F31D0A4093822, sample, draw, width))
            assert got.shape == np.broadcast(np.asarray(sample), np.asarray(draw)).shape + (width,)
            assert_same_bits(got, ref)

    @pytest.mark.parametrize("parity", ["even", "odd", "mixed"])
    @pytest.mark.parametrize("width", range(1, 10))
    def test_both_bodies_on_groups_of_eight(self, kernel_bodies, width, parity):
        draw = _group_draws(parity, 64, width)
        sample = np.random.default_rng(width).integers(0, 2 ** 64, draw.size, dtype=np.uint64)
        for seed in SEEDS:
            assert_bodies_match_numpy(kernel_bodies, seed, sample, draw, width)

    @pytest.mark.parametrize("tail", range(1, 8))
    def test_both_bodies_on_tails(self, kernel_bodies, tail):
        # 8k + tail rows: the last rows of a vector-body call take the scalar loop
        for parity in ("even", "odd", "mixed"):
            for n in (tail, 16 + tail):
                draw = _group_draws(parity, n, tail)
                sample = np.arange(n, dtype=np.uint64) * np.uint64(7919)
                for width in range(1, 10):
                    assert_bodies_match_numpy(kernel_bodies, 0x299F31D0A4093822, sample, draw, width)

    @pytest.mark.parametrize("width", range(1, 10))
    def test_both_bodies_wrap_inside_a_group(self, kernel_bodies, width):
        # full groups of starts at and below slot 2**64 - 1: row j's blocks step
        # from 2**63 - 1 to block 0 after j + 1 blocks, not on to block 2**63
        sample = np.arange(8, dtype=np.uint64) + np.uint64(2 ** 63)
        for last in (U64_MAX, U64_MAX - 1):
            draw = np.uint64(last) - np.arange(0, 16, 2, dtype=np.uint64)
            for seed in SEEDS:
                assert_bodies_match_numpy(kernel_bodies, seed, sample, draw, width)

    def test_loops_vectorize_with_64_byte_vectors(self, tmp_path):
        # the load check proves the bits of the AVX-512 entries, not their speed: a compiler that
        # stopped vectorizing the normals, angles, cos and step loops would run them several times slower
        cc = shutil.which("cc")
        macros = cc and subprocess.run([cc, "-dM", "-E", "-x", "c", "-"], input="", capture_output=True, text=True,
                                       timeout=60).stdout
        if not macros or "__x86_64__" not in macros or "__GNUC__" not in macros or "__clang__" in macros:
            pytest.skip("the report is GCC's and the AVX-512 entries are x86-64's")
        done = subprocess.run([cc, *rng._KERNEL_FLAGS, "-fopt-info-vec-optimized", "-x", "c", "-",
                               "-o", str(tmp_path / "kernel.so")], input=rng._KERNEL_SOURCE, capture_output=True,
                              text=True, timeout=600, check=True)
        vectorized = {int(n) for n in re.findall(r"^<stdin>:(\d+):\d+: optimized: loop vectorized using 64 byte vectors",
                                                  done.stderr, re.M)}
        lines = rng._KERNEL_SOURCE.splitlines()
        for loop in ("normals", "angles", "cosines", "steps"):
            head = next(i for i, line in enumerate(lines) if re.match(rf"static inline \w+ {loop}\(", line))
            first = next(i for i in range(head, len(lines)) if "for (" in lines[i])
            assert first + 1 in vectorized, loop

    def test_uniforms_at_random_rows(self, monkeypatch):
        samples = np.arange(500, 1500, dtype=np.uint64)

        def walk():
            cur = StreamCursor(77, samples)
            g = np.random.default_rng(3)
            out = []
            for cols in (1, 2, 3, 1, 4, 1, 2, 9):
                rows = np.flatnonzero(g.integers(0, 2, samples.size))
                out.append(cur.uniforms_at(rows, cols))
                out.append(cur.normals(1))
            return np.concatenate([a.ravel() for a in out]), cur.pos

        (got, got_pos), (ref, ref_pos) = kernel_and_numpy(monkeypatch, walk)
        assert_same_bits(got, ref)
        assert np.array_equal(got_pos, ref_pos)
        assert len(set(int(p) % 2 for p in got_pos)) == 2


def box_muller_edges():
    """The load check's inputs: edge radii and angles, then 53-bit slot values."""
    return np.array(rng._box_muller_check_inputs())


def million_pairs():
    """10**6 uniform slot pairs, one row a pair, then the edge pairs."""
    u = uniforms(0x299F31D0A4093822, np.arange(10 ** 6, dtype=np.uint64), 0, 2)
    return np.concatenate([u, box_muller_edges().reshape(-1, 2)])


def body_normals(fn, pairs):
    """The normals of one kernel body on the rows of ``pairs`` (two adjacent doubles a row)."""
    out = np.full(pairs.shape[0], np.nan)
    fn.normals(pairs.ctypes.data, out.size, pairs.strides[0] // 8, out.ctypes.data)
    return out


def body_angles(fn, u):
    """(cos, sin) of 2 pi u from one kernel body, for a 1-d ``u``."""
    cos, sin = np.full(u.shape, np.nan), np.full(u.shape, np.nan)
    fn.angles(u.ctypes.data, u.size, u.strides[0] // 8, cos.ctypes.data, sin.ctypes.data)
    return cos, sin


class TestBoxMuller:
    """The Box-Muller bodies: C scalar, C vector and numpy give the same bits, close to the exact values."""

    def test_load_check_holds_the_numpy_bodys_answers(self):
        u = box_muller_edges()
        pairs = u.reshape(-1, 2)
        cos, sin = rng._numpy_cos_sin_2pi(u)
        want = [*rng._numpy_box_muller(pairs)[:, 0], *rng._numpy_box_muller(pairs[::2])[:, 0], *cos, *sin]
        assert rng._crc(want) == rng._BOX_MULLER_CRC
        assert rng._crc(np.nextafter(want, 2.0).tolist()) != rng._BOX_MULLER_CRC

    def test_both_bodies_match_numpy_normals(self, kernel_bodies):
        pairs = million_pairs()
        want = rng._numpy_box_muller(pairs)[:, 0]
        for fn in kernel_bodies:
            assert_same_bits(body_normals(fn, pairs), want)

    def test_both_bodies_match_numpy_angles(self, kernel_bodies):
        u = million_pairs().ravel()
        want = rng._numpy_cos_sin_2pi(u)
        for fn in kernel_bodies:
            for got, ref in zip(body_angles(fn, u), want):
                assert_same_bits(got, ref)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 23])
    def test_both_bodies_on_strided_rows_and_tails(self, kernel_bodies, n):
        # pairs 8 doubles apart, as the H3 step reads them, and 8k + tail rows
        draw = uniforms(5, np.arange(n, dtype=np.uint64), 0, 8)
        for j in (0, 2, 4, 6):
            pairs = draw[:, j:j + 2]
            want = rng._numpy_box_muller(pairs)[:, 0]
            cos, sin = rng._numpy_cos_sin_2pi(draw[:, j])
            for fn in kernel_bodies:
                assert_same_bits(body_normals(fn, pairs), want)
                got_cos, got_sin = body_angles(fn, draw[:, j])
                assert_same_bits(got_cos, cos)
                assert_same_bits(got_sin, sin)

    @pytest.mark.parametrize("shape", [(6, 4), (3, 2, 6), (0, 2), (4, 0), (2,)])
    def test_entry_points_match_numpy_on_every_layout(self, monkeypatch, shape):
        u = uniforms(9, np.arange(int(np.prod(shape)), dtype=np.uint64), 0)[:, 0].reshape(shape)
        layouts = [u, u[..., ::-1], np.asfortranarray(u), u[..., :2] if shape[-1] >= 2 else u]
        for a in layouts:
            got, ref = kernel_and_numpy(monkeypatch, lambda: rng.box_muller(a))
            assert got.shape == a.shape[:-1] + (a.shape[-1] // 2,)
            assert_same_bits(got, ref)
            (gc, gs), (rc, rs) = kernel_and_numpy(monkeypatch, lambda: rng.cos_sin_2pi(a))
            assert gc.shape == gs.shape == a.shape
            assert_same_bits(gc, rc)
            assert_same_bits(gs, rs)

    def test_angles_of_a_scalar(self, monkeypatch):
        (gc, gs), (rc, rs) = kernel_and_numpy(monkeypatch, lambda: rng.cos_sin_2pi(0.375))
        assert gc.shape == gs.shape == ()
        assert_same_bits(gc, rc)
        assert_same_bits(gs, rs)
        assert gc == pytest.approx(-0.5 ** 0.5) and gs == pytest.approx(0.5 ** 0.5)

    def test_odd_last_axis_is_refused(self, monkeypatch):
        # a pair would straddle two rows
        u = uniforms(9, np.arange(2, dtype=np.uint64), 0, 3)
        for kernel in (rng._kernel, lambda: None):
            monkeypatch.setattr(rng, "_kernel", kernel)
            with pytest.raises(ValueError, match="even length"):
                rng.box_muller(u)

    def test_accuracy_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        u = np.concatenate([uniforms(17, np.arange(10 ** 5, dtype=np.uint64), 0)[:, 0], box_muller_edges(),
                            [0.0, 2.0 ** -1022]])
        cos, sin = rng._numpy_cos_sin_2pi(u)
        log = rng._numpy_log(u[u > 0.0])
        with mpmath.workdps(40):
            exact_cos = np.array([float(abs(mpmath.mpf(c) - mpmath.cospi(2 * mpmath.mpf(x)))) for x, c in zip(u, cos)])
            exact_sin = np.array([float(abs(mpmath.mpf(s) - mpmath.sinpi(2 * mpmath.mpf(x)))) for x, s in zip(u, sin)])
            exact_log = [mpmath.log(mpmath.mpf(x)) for x in u[u > 0.0]]
            log_ulps = np.array([float(abs(mpmath.mpf(a) - b) / np.spacing(abs(float(b)))) if b else abs(a)
                                 for a, b in zip(log, exact_log)])
        assert exact_cos.max() <= 2.0 ** -52 and exact_sin.max() <= 2.0 ** -52
        assert log_ulps.max() <= 2.0
        assert rng._numpy_log(np.array([1.0]))[0] == 0.0  # the exact 1.0 at slot 2**53 - 1 keeps its zero normal

    def test_constants_are_the_generators(self):
        spec = importlib.util.spec_from_file_location(
            "box_muller_coefficients", Path(__file__).resolve().parent.parent / "tools" / "box_muller_coefficients.py")
        tool = importlib.util.module_from_spec(spec)
        pytest.importorskip("mpmath")
        spec.loader.exec_module(tool)
        for name, value in tool.coefficients().items():
            assert getattr(rng, name) == value
        assert rng._LN2_HI.hex().endswith("00000p-1")  # 32 leading bits: e * _LN2_HI is exact

    def test_normals_do_not_depend_on_numpy_simd_dispatch(self, tmp_path):
        # numpy's AVX-512 loops off in a fresh interpreter, numpy body in both
        code = ("from pathkernel import rng\n"
                "import numpy as np\n"
                "rng._kernel = lambda: None\n"
                "print(rng.StreamCursor(5, np.arange(4096)).normals(3).tobytes().hex())\n")
        env = dict(os.environ, PYTHONPATH=str(Path(rng.__file__).parent.parent),
                   NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0
        with pytest.MonkeyPatch.context() as m:
            m.setattr(rng, "_kernel", lambda: None)
            here = StreamCursor(5, np.arange(4096)).normals(3).tobytes().hex()
        assert proc.stdout.strip() == here


def cos_inputs():
    """10**5 arguments below the cos reduction bound, at magnitudes 2**-21 to 2**20, then the check inputs."""
    u = uniforms(23, np.arange(10 ** 5, dtype=np.uint64), 0, 2)
    x = (2.0 * u[:, 1] - 1.0) * 2.0 ** np.floor(42.0 * u[:, 0] - 21.0) * 1.5
    return np.concatenate([x[np.abs(x) < rng._COS_BOUND], rng._cos_check_inputs()])


def body_cos(fn, x):
    """(cos, count past the bound) from one kernel body, for a 1-d ``x`` of any positive stride."""
    out = np.full(x.shape, np.nan)
    far = fn.cos(x.ctypes.data, x.size, x.strides[0] // 8, out.ctypes.data)
    return out, far


def near(x):
    return np.abs(x) < rng._COS_BOUND


class TestCos:
    """The cos bodies: C scalar, C vector and numpy give the same bits below the bound, close to the exact values."""

    def test_load_check_holds_the_numpy_bodys_answers(self):
        x = np.array(rng._cos_check_inputs())
        want = [c for stride in (1, 4) for c in rng._numpy_cos(x[::stride])[near(x[::stride])]]
        assert rng._crc(want) == rng._COS_CRC
        assert rng._crc(np.nextafter(want, 2.0).tolist()) != rng._COS_CRC
        # the check covers a full vector group that holds arguments past the bound, and a tail
        assert len(x) % 8 and not near(x[24:32]).all() and near(x[24:32]).any()

    def test_both_bodies_match_numpy(self, kernel_bodies):
        x = cos_inputs()
        want = rng._numpy_cos(x)
        for fn in kernel_bodies:
            got, far = body_cos(fn, x)
            assert far == np.count_nonzero(~near(x))
            assert_same_bits(got[near(x)], want[near(x)])

    @pytest.mark.parametrize("stride", [1, 2, 4])
    @pytest.mark.parametrize("tail", range(1, 8))
    def test_both_bodies_at_strides_and_tails(self, kernel_bodies, stride, tail):
        # 8k + tail values read stride doubles apart, as the potential reads one coordinate of H3 rows
        rows = cos_inputs()[-4 * (16 + tail):].reshape(-1, 4)
        x = rows[:, 0] if stride == 4 else rows.ravel()[::stride][:16 + tail]
        assert x.strides[0] == 8 * stride
        want = rng._numpy_cos(np.ascontiguousarray(x))
        for fn in kernel_bodies:
            got, far = body_cos(fn, x)
            assert far == np.count_nonzero(~near(x))
            assert_same_bits(got[near(x)], want[near(x)])

    @pytest.mark.parametrize("shape", [(), (5,), (6, 4), (3, 2, 6), (0,), (4, 0)])
    def test_entry_point_matches_numpy_on_every_layout(self, monkeypatch, shape):
        x = cos_inputs()[-max(1, int(np.prod(shape))):][:int(np.prod(shape))].reshape(shape)
        layouts = [x, np.asfortranarray(x)]
        if x.ndim:
            layouts += [x[..., ::-1]] + ([x[..., 0]] if x.shape[-1] else [])
        for a in layouts:
            with np.errstate(invalid="ignore"):  # np.cos of the infinite check input
                got, ref = kernel_and_numpy(monkeypatch, lambda: rng.cos(a))
            assert got.shape == a.shape
            assert_same_bits(got, ref)

    def test_arguments_past_the_bound_take_np_cos(self, monkeypatch):
        x = np.array([rng._COS_BOUND, -rng._COS_BOUND, 1e300, -np.inf, np.nan, 0.5])
        with np.errstate(invalid="ignore"):
            want = np.cos(x)
        for kernel in (rng._kernel, lambda: None):
            monkeypatch.setattr(rng, "_kernel", kernel)
            with np.errstate(invalid="ignore"):
                got = rng.cos(x)
            assert_same_bits(got[:5], want[:5])
            assert_same_bits(got[5], rng._numpy_cos(x[5:])[0])

    def test_the_bound_keeps_k_pio2_hi_exact(self):
        # below the bound |rint(x 2/pi)| <= 2**20, and a 20-bit k times the 33-bit pio2_hi is exact
        below = np.nextafter(rng._COS_BOUND, 0.0)
        assert np.rint(below * rng._TWO_OVER_PI) <= 2.0 ** 20
        assert rng._COS_BOUND == 2.0 ** 20 * rng._PIO2_HI
        assert rng._PIO2_HI.hex().endswith("00000p+0")  # 33 leading bits
        k = 2.0 ** 20 - 1.0
        assert int(k) * int(rng._PIO2_HI * 2 ** 32) == int(k * rng._PIO2_HI * 2 ** 32)

    def test_accuracy_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            # the doubles nearest k pi/2, and their neighbours
            k_pio2 = np.array([float(k * mpmath.pi / 2) for k in (1, -1, 2, 3, 5, 7, 100, 12345, 2 ** 19, 2 ** 20 - 1)])
        bound = rng._COS_BOUND
        edges = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1030, -2.0 ** -1022, np.nextafter(bound, 0.0), bound,
                 np.nextafter(bound, np.inf), -bound, 1e300, -1e300]
        x = np.concatenate([cos_inputs(), k_pio2, np.nextafter(k_pio2, 0.0), np.nextafter(k_pio2, np.inf), edges])
        x = x[np.isfinite(x)]
        got = rng.cos(x)
        with mpmath.workdps(40):
            err = np.array([float(abs(mpmath.mpf(c) - mpmath.cos(mpmath.mpf(v)))) for v, c in zip(x, got)])
        assert err.max() <= 2.0 ** -52
        assert np.abs(got).max() <= 1.0

    def test_cos_potential_reads_the_first_coordinate_in_place(self, monkeypatch):
        from pathkernel.feynman_kac import cos_potential

        rows = cos_inputs()[:4 * 1001].reshape(-1, 4)
        got, ref = kernel_and_numpy(monkeypatch, lambda: cos_potential()(rows))
        assert_same_bits(got, ref)
        assert_same_bits(got, rng._numpy_cos(np.ascontiguousarray(rows[:, 0])))

    def test_cos_does_not_depend_on_numpy_simd_dispatch(self):
        # numpy's AVX-512 loops off in a fresh interpreter, on the kernel and on the numpy body
        code = ("from pathkernel import rng\n"
                "import numpy as np\n"
                "u = rng.uniforms(23, np.arange(10 ** 5, dtype=np.uint64), 0, 2)\n"
                "x = (2.0 * u[:, 1] - 1.0) * 2.0 ** np.floor(42.0 * u[:, 0] - 21.0) * 1.5\n"
                "x = np.concatenate([x[np.abs(x) < rng._COS_BOUND], rng._cos_check_inputs()])\n"
                "x = x[np.abs(x) < rng._COS_BOUND]\n"
                "print(rng._crc(rng.cos(x)), rng._kernel() is not None)\n"
                "rng._kernel = lambda: None\n"
                "print(rng._crc(rng.cos(x)))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(rng.__file__).parent.parent),
                   NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        x = cos_inputs()
        want = str(rng._crc(rng._numpy_cos(x[near(x)])))
        kernel, loaded, numpy_body = proc.stdout.split()
        assert kernel == numpy_body == want
        assert loaded == str(rng._kernel() is not None)


def reference_steps(seed, sample, pos, dim, base=None, scale=1.0, periods=None):
    """The numpy body of the step entry: Box-Muller of the uniforms, then base + scale z, wrapped."""
    z = rng._numpy_box_muller(rng._numpy_uniforms(seed, sample, pos, 2 * dim))
    if base is None:
        return z
    with np.errstate(invalid="ignore"):  # the infinite edge rows wrap to NaN
        out = base + scale * z
        return out if periods is None else rng.wrap(out, periods)


def body_steps(fn, seed, sample, pos, dim, base=None, scale=1.0, periods=None):
    """The step entry of one kernel body on contiguous uint64 addresses, into a NaN-filled (n, dim) array."""
    out = np.full((sample.size, dim), np.nan)
    per = None if periods is None else np.asarray(periods, np.float64)
    fn.steps(seed, sample.ctypes.data, pos.ctypes.data, sample.size, dim, None if base is None else base.ctypes.data,
             scale, None if per is None else per.ctypes.data, out.ctypes.data)
    return out


def step_cases(dim, n, seed):
    """(base, scale, periods) of the three step kinds: normals alone, a plain step and a wrapped one."""
    periods = np.linspace(0.5, 3.0, dim)
    base = np.random.default_rng(seed).uniform(-2.0, 3.0, (n, dim)) * periods
    return [(None, 1.0, None), (base, 0.9, None), (base, 0.9, periods)]


# (dim, n): dims on either side of a tile's 64 columns and one of 4,095 (a
# dyadic path's normals); row counts around the 8-row groups and the 512 normals of a tile
STEP_SHAPES = [(dim, n) for dim in (1, 2, 3, 4, 5) for n in (0, 1, 7, 8, 9, 513, 32768)] + [
    (dim, n) for dim in (63, 64, 65) for n in (1, 8, 9, 17, 513)] + [(4095, n) for n in (0, 1, 7, 8, 9, 17)]


class TestSteps:
    """The tiled step entry: C scalar, C vector and numpy give the same bits as Box-Muller of the uniforms."""

    def test_load_check_holds_the_numpy_bodys_answers(self):
        sample, draw = (np.array(a, np.uint64) for a in rng._check_addresses())
        runs = rng._steps_check_runs()
        want = [v for n, dim, base, scale, periods in runs
                for v in reference_steps(rng._CHECK_SEED, sample[:n], draw[:n], dim,
                                         None if base is None else np.reshape(base, (n, dim)), scale, periods).ravel()]
        assert rng._nan_free_crc(want) == rng._STEPS_CRC
        assert rng._nan_free_crc(np.nextafter(want, 2.0).tolist()) != rng._STEPS_CRC
        # the wide run takes two chunks per row, and the edge rows reach the wrap's corner cases
        assert runs[3][1] > 64
        n, dim, edges, scale, periods = runs[4]
        assert scale == 0.0 and len(edges) == n * dim
        e = np.reshape(edges, (n, dim))[0]
        assert np.all(e - np.floor(e / periods) * periods == periods)  # floor lands on L: one more L off
        assert sorted(map(str, np.reshape(edges, (n, dim))[:, 0])) == sorted(
            map(str, [-1e-17, 0.0, -0.0, 1.0, 1e300, np.inf, -np.inf, np.nan]))

    @pytest.mark.parametrize("dim, n", STEP_SHAPES)
    def test_both_bodies_match_numpy(self, kernel_bodies, dim, n):
        sample = np.arange(n, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        for parity in ("even", "odd", "mixed"):
            pos = _group_draws(parity, n, dim)
            for base, scale, periods in step_cases(dim, n, dim):
                want = reference_steps(0x299F31D0A4093822, sample, pos, dim, base, scale, periods)
                for fn in kernel_bodies:
                    assert_same_bits(body_steps(fn, 0x299F31D0A4093822, sample, pos, dim, base, scale, periods), want)

    @pytest.mark.parametrize("dim, n", [(1, 0), (1, 9), (2, 513), (3, 1), (65, 9), (4095, 8)])
    def test_cursor_entry_points_match_numpy(self, monkeypatch, dim, n):
        # a cursor on a strided index array, read where it lies in even and odd starts
        for start in (0, 1):
            for base, scale, periods in step_cases(dim, n, start):

                def draw():
                    cur = StreamCursor(41, np.arange(3 * n, dtype=np.uint64)[::3])
                    cur.pos[:] = start
                    out = cur.normals(dim) if base is None else cur.gaussian_step(base, scale, periods)
                    return out, cur.pos.copy()

                (got, got_pos), (ref, ref_pos) = kernel_and_numpy(monkeypatch, draw)
                want = reference_steps(41, np.arange(0, 3 * n, 3, dtype=np.uint64), np.full(n, start, np.uint64),
                                       dim, base, scale, periods)
                assert_same_bits(got, want)
                assert_same_bits(ref, want)
                assert np.array_equal(got_pos, ref_pos) and np.all(got_pos == start + 2 * dim)

    def test_strided_cursor_reads_its_own_samples(self):
        strided = np.arange(60, dtype=np.uint64)[::3]
        cur, flat = StreamCursor(5, strided), StreamCursor(5, strided.copy())
        assert cur.samples.flags.c_contiguous
        assert_same_bits(cur.gaussian_step(np.zeros(2), 0.5), flat.gaussian_step(np.zeros(2), 0.5))
        assert_same_bits(cur.normals(3), flat.normals(3))

    def test_a_row_base_broadcasts(self, monkeypatch):
        row = np.array([0.25, -1.0, 7.5])
        got, ref = kernel_and_numpy(monkeypatch,
                                    lambda: StreamCursor(3, np.arange(20)).gaussian_step(row, 1.5, (1.0, 2.0, 3.0)))
        assert got.shape == (20, 3)
        assert_same_bits(got, ref)
        assert np.all((got >= 0.0) & (got < [1.0, 2.0, 3.0]))

    def test_bad_arguments_are_refused(self, monkeypatch):
        for kernel in (rng._kernel, lambda: None):
            monkeypatch.setattr(rng, "_kernel", kernel)
            cur = StreamCursor(3, np.arange(4))
            with pytest.raises(ValueError, match="one period per coordinate"):
                cur.gaussian_step(np.zeros((4, 2)), 1.0, (1.0,))
            with pytest.raises(ValueError, match="at least 1"):
                cur.normals(0)
            assert np.all(cur.pos == 0)


# A fresh interpreter reports whether its kernel loaded and the bits of one draw.
_PROBE = (
    "from pathkernel import rng\n"
    "import numpy as np\n"
    "print(rng._kernel() is not None)\n"
    "print(rng.uniforms(5, np.arange(64), np.arange(64) * 3, 5).tobytes().hex())\n"
)


@pytest.fixture
def package_copy(tmp_path):
    """A copy of the pathkernel package with no cached kernel; returns its src directory."""
    src = tmp_path / "src"
    shutil.copytree(Path(rng.__file__).parent, src / "pathkernel", ignore=shutil.ignore_patterns("__pycache__"))
    return src


def probe(src, path=None):
    env = dict(os.environ, PYTHONPATH=str(src))
    if path is not None:
        env["PATH"] = path
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0 and proc.stderr == ""
    loaded, bits = proc.stdout.split()
    return loaded == "True", bits


def numpy_bits(monkeypatch):
    monkeypatch.setattr(rng, "_kernel", lambda: None)
    return uniforms(5, np.arange(64), np.arange(64) * 3, 5).tobytes().hex()


def cached_kernels(src):
    return sorted((src / "pathkernel" / "__pycache__").glob("philox-*.so"))


def build_mutant(src, good, bad):
    """The two bodies of the copy's cached library rebuilt with ``good`` replaced by ``bad``
    in the C source or in the compiler flags."""
    probe(src)
    (lib,) = cached_kernels(src)
    source, flags = rng._KERNEL_SOURCE, rng._KERNEL_FLAGS
    if good in flags:
        flags = tuple(bad if f == good else f for f in flags)
    else:
        assert source.count(good) == 1
        source = source.replace(good, bad)
    subprocess.run(["cc", *flags, "-x", "c", "-", "-o", str(lib)], input=source.encode(), capture_output=True,
                   timeout=600, check=True)
    return rng._load(lib)


class TestKernelCache:
    def test_no_compiler_falls_back_to_numpy(self, package_copy, monkeypatch):
        assert probe(package_copy, path="") == (False, numpy_bits(monkeypatch))
        assert cached_kernels(package_copy) == []

    def test_unwritable_cache_falls_back_to_numpy(self, package_copy, monkeypatch):
        # a file where the cache directory belongs: no library can be written there
        (package_copy / "pathkernel" / "__pycache__").write_text("")
        assert probe(package_copy) == (False, numpy_bits(monkeypatch))

    @pytest.mark.skipif(shutil.which("cc") is None, reason="building the kernel needs cc")
    def test_second_process_loads_the_cache_without_a_compiler(self, package_copy, monkeypatch):
        assert probe(package_copy) == (True, numpy_bits(monkeypatch))
        (lib,) = cached_kernels(package_copy)
        built = lib.stat().st_mtime_ns
        # no compiler on PATH: the kernel can only come from the cache
        assert probe(package_copy, path="") == (True, numpy_bits(monkeypatch))
        assert cached_kernels(package_copy) == [lib] and lib.stat().st_mtime_ns == built

    @pytest.mark.skipif(shutil.which("cc") is None, reason="building the kernel needs cc")
    def test_corrupt_cache_falls_back_to_numpy(self, package_copy, monkeypatch):
        probe(package_copy)
        (lib,) = cached_kernels(package_copy)
        lib.write_bytes(b"not a shared library")
        assert probe(package_copy) == (False, numpy_bits(monkeypatch))

    @pytest.mark.skipif(shutil.which("cc") is None, reason="building the kernel needs cc")
    def test_wrong_vector_body_falls_back_to_numpy(self, package_copy, monkeypatch):
        # the vector body steps its blocks by a plain + 1, so block 2**63 - 1 is followed by 2**63, not 0
        vector, scalar = build_mutant(package_copy, "_mm512_and_si512(_mm512_add_epi64(block, one), blocks)",
                                      "_mm512_add_epi64(block, one)")
        if rng._passes_check([vector]):
            pytest.skip("this CPU does not run the vector body")
        assert rng._passes_check([scalar])
        assert probe(package_copy) == (False, numpy_bits(monkeypatch))

    @pytest.mark.skipif(shutil.which("cc") is None, reason="building the kernel needs cc")
    @pytest.mark.parametrize("reach, good, bad", [
        # the radius, in the loop that both bodies run
        ("both", "sqrt(log_unit(u[i * stride]) * -2.0) * c", "sqrt(log_unit(u[i * stride]) * -2.0000000000000004) * c"),
        # a build that fuses multiplies and adds, which only the vector body's target can
        ("vector", "-ffp-contract=off", "-ffp-contract=fast"),
        # the vector entry for adjacent pairs writes one normal fewer
        ("vector", "normals(u, n, 2, out)", "normals(u, n - 1, 2, out)"),
    ], ids=["shared-radius", "fma-build", "stride-2-entry"])
    def test_wrong_box_muller_body_falls_back_to_numpy(self, package_copy, monkeypatch, reach, good, bad):
        vector, scalar = build_mutant(package_copy, good, bad)
        if reach == "vector" and rng._box_muller_pass(vector):
            pytest.skip("this CPU does not run the vector body")
        assert not rng._box_muller_pass(vector)
        assert rng._passes_check([scalar]) == (reach == "vector")
        assert probe(package_copy) == (False, numpy_bits(monkeypatch))

    @pytest.mark.skipif(shutil.which("cc") is None, reason="building the kernel needs cc")
    @pytest.mark.parametrize("reach, good, bad", [
        # the sign of the cosine in quadrants 1 and 2, in the loop that both bodies run
        ("both", "*c = (q + 1) & 2 ? -cq : cq;", "*c = q & 2 ? -cq : cq;"),
        # the reduction without its second term, in the same loop
        ("both", "r = (x - k * PIO2_HI) - k * PIO2_LO", "r = x - k * PIO2_HI"),
        # the vector entry for adjacent values writes one cosine fewer
        ("vector", "cosines(x, n, 1, out)", "cosines(x, n - 1, 1, out)"),
        # a build that fuses multiplies and adds, which only the vector body's target can
        ("vector", "-ffp-contract=off", "-ffp-contract=fast"),
    ], ids=["quadrant-sign", "scalar-pio2-lo", "stride-1-entry", "fma-build"])
    def test_wrong_cos_body_falls_back_to_numpy(self, package_copy, monkeypatch, reach, good, bad):
        vector, scalar = build_mutant(package_copy, good, bad)
        if reach == "vector" and rng._cos_pass(vector):
            pytest.skip("this CPU does not run the vector body")
        assert not rng._cos_pass(vector)
        assert rng._cos_pass(scalar) == (reach == "vector")
        assert probe(package_copy) == (False, numpy_bits(monkeypatch))

    @pytest.mark.skipif(shutil.which("cc") is None, reason="building the kernel needs cc")
    @pytest.mark.parametrize("good, bad", [
        # a difference that rounds onto L stays there
        ("v = v >= L ? v - L : v;", "v = v > L ? v - L : v;"),
        # the second chunk of a wide row starts one normal early
        ("start[j] = pos[i + j] + 2 * k;", "start[j] = pos[i + j] + 2 * k - 2;"),
    ], ids=["wrap-edge", "chunk-start"])
    def test_wrong_step_body_falls_back_to_numpy(self, package_copy, monkeypatch, good, bad):
        vector, scalar = build_mutant(package_copy, good, bad)
        for fn in (vector, scalar):
            assert not rng._steps_pass(fn)
            assert rng._uniforms_pass(fn) and rng._box_muller_pass(fn) and rng._cos_pass(fn)
        assert probe(package_copy) == (False, numpy_bits(monkeypatch))
