"""Content-keyed codec caches: cross-frame table reuse without codec state.

The regression these tests pin: decode-side Huffman tables must be built
exactly once per *distinct* serialized table, no matter how many frames,
planes, blocks, codec instances or connections carry a byte-identical
copy.  ``repro.compress.huffman`` exposes a module-level ``TABLE_BUILDS``
counter incremented by the real LUT construction, so the tests count
actual work, not cache bookkeeping.  The caches are module-level
``functools.lru_cache``s, cleared before each test so counts start fresh.
"""

import numpy as np
import pytest

from repro.compress import get_codec
from repro.compress import huffman
from repro.compress.base import CACHE_SIZE, CodecError
from repro.compress.dct import quant_tables
from repro.compress.huffman import build_code, code_for_freqs, huffman_from_bytes

_CACHES = (huffman._code_from_table, huffman._code_for_freq_bytes, quant_tables)


@pytest.fixture(autouse=True)
def fresh_caches():
    for cache in _CACHES:
        cache.cache_clear()
    yield


def _table_payload(data=b"abracadabra" * 20):
    freqs = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
    code = build_code(freqs)
    return code.to_bytes(), code


def _table_stats():
    return huffman._code_from_table.cache_info()


class TestHuffmanDedup:
    def test_identical_tables_share_one_instance(self):
        payload, _ = _table_payload()
        a, end_a = huffman_from_bytes(payload)
        b, end_b = huffman_from_bytes(bytearray(payload))
        assert a is b
        assert end_a == end_b == len(payload)
        assert _table_stats().misses == 1
        assert _table_stats().hits == 1

    def test_distinct_tables_build_separately(self):
        p1, _ = _table_payload(b"aaaabbbbcc" * 30)
        p2, _ = _table_payload(b"the quick brown fox" * 15)
        a, _ = huffman_from_bytes(p1)
        b, _ = huffman_from_bytes(p2)
        assert a is not b
        assert _table_stats().misses == 2

    def test_decode_lut_built_once_per_distinct_table(self):
        """One LUT build per distinct table across repeated decodes."""
        payload, _ = _table_payload()
        before = huffman.TABLE_BUILDS
        for _ in range(5):
            code, _ = huffman_from_bytes(payload)
            code.decode_tables()
        assert huffman.TABLE_BUILDS - before == 1

    def test_table_found_at_offset(self):
        payload, code = _table_payload()
        got, end = huffman_from_bytes(b"xyz" + payload + b"tail", 3)
        assert end == 3 + len(payload)
        assert np.array_equal(got.lengths, code.lengths)

    def test_truncated_table_rejected(self):
        payload, _ = _table_payload()
        with pytest.raises(CodecError, match="truncated code table header"):
            huffman_from_bytes(payload[:2])
        with pytest.raises(CodecError, match="truncated code table body"):
            huffman_from_bytes(payload[:-1])

    def test_implausible_size_rejected(self):
        with pytest.raises(CodecError, match="implausible"):
            huffman_from_bytes((70000).to_bytes(4, "little") + b"\0" * 8)

    def test_cached_codes_are_read_only(self):
        payload, _ = _table_payload()
        code, _ = huffman_from_bytes(payload)
        with pytest.raises(ValueError):
            code.lengths[0] = 1
        with pytest.raises(ValueError):
            code.codes[0] = 1

    def test_caches_are_bounded(self):
        assert huffman._code_from_table.cache_info().maxsize == CACHE_SIZE
        assert huffman._code_for_freq_bytes.cache_info().maxsize == CACHE_SIZE
        assert quant_tables.cache_info().maxsize == CACHE_SIZE


class TestEncodeCodeDedup:
    def test_identical_frequencies_share_one_code(self):
        freqs = np.bincount(np.arange(40) % 7, minlength=16)
        a = code_for_freqs(freqs)
        b = code_for_freqs(freqs.astype(np.int32))  # same values, other dtype
        assert a is b
        assert np.array_equal(a.lengths, build_code(freqs).lengths)

    def test_distinct_frequencies_build_separately(self):
        a = code_for_freqs(np.array([5, 1, 1, 0]))
        b = code_for_freqs(np.array([1, 5, 1, 0]))
        assert a is not b


class TestSteadyStateDecode:
    """A stream of same-shaped frames stops building tables after frame 1."""

    @pytest.mark.parametrize("name", ["jpeg", "bzip", "jpeg+bzip"])
    def test_repeat_decode_builds_no_new_tables(self, name):
        rng = np.random.default_rng(7)
        img = rng.integers(0, 256, (48, 48, 3), dtype=np.uint8)
        codec = get_codec(name)
        enc = codec.encode_image(img)
        first = codec.decode_image(enc)
        builds_after_first = _table_stats().misses
        lut_after_first = huffman.TABLE_BUILDS
        for _ in range(3):
            again = codec.decode_image(enc)
        assert _table_stats().misses == builds_after_first
        assert huffman.TABLE_BUILDS == lut_after_first
        assert _table_stats().hits > 0
        assert np.array_equal(first, again)

    def test_context_shared_across_codecs(self):
        """Separate codec instances share the module cache."""
        data = b"shared-table payload " * 50
        a = get_codec("bzip")
        b = get_codec("bzip")
        enc = a.encode(data)
        assert a.decode(enc) == data
        builds = _table_stats().misses
        assert b.decode(enc) == data
        assert _table_stats().misses == builds


class TestQuantAndScratch:
    def test_quant_tables_cached_per_quality(self):
        t1 = quant_tables(75)
        t2 = quant_tables(75)
        assert t1[0] is t2[0]
        quant_tables(30)
        info = quant_tables.cache_info()
        assert info.misses == 2
        assert info.hits == 1
        with pytest.raises(ValueError):
            t1[0][0, 0] = 1.0  # shared tables are read-only

    def test_clear_drops_caches_keeps_stats(self):
        """Clearing a cache rebuilds on next use; LUT counters survive."""
        payload, _ = _table_payload()
        a, _ = huffman_from_bytes(payload)
        a.decode_tables()
        builds = huffman.TABLE_BUILDS
        huffman._code_from_table.cache_clear()
        b, _ = huffman_from_bytes(payload)
        assert b is not a
        assert huffman.TABLE_BUILDS == builds
        b.decode_tables()
        assert huffman.TABLE_BUILDS == builds + 1


class TestDisplayInterfaceWiring:
    def test_display_interface_shares_context(self):
        """Two connections decoding the same stream build each table once."""
        from repro.daemon.display_interface import DisplayInterface
        from repro.net.transport import FramedConnection

        rng = np.random.default_rng(11)
        img = rng.integers(0, 256, (32, 32, 3), dtype=np.uint8)
        enc = get_codec("jpeg+bzip").encode_image(img)
        shown = []
        for name in ("a", "b"):
            local, _remote = FramedConnection.pair(name, name + "-peer")
            di = DisplayInterface(connection=local)
            shown.append(di._decoder("jpeg+bzip").decode_image(enc))
            if name == "a":
                builds = _table_stats().misses
                luts = huffman.TABLE_BUILDS
        assert _table_stats().misses == builds
        assert huffman.TABLE_BUILDS == luts
        assert np.array_equal(shown[0], shown[1])
