"""LZO-style fast Lempel–Ziv codec.

The paper picks LZO because it "offers fast compression and very fast
decompression … favors speed over compression ratio".  This module
implements a codec in the same family from scratch: byte-aligned LZSS with a
hash-chain match finder and greedy parsing.  Like real LZO it has

- *compression levels* — higher levels probe the hash chain deeper for a
  better ratio at slower speed;
- *allocation-free decompression* — the decoder needs only the output
  buffer;
- *byte-aligned output* — no bit I/O anywhere on the hot path.

Stream format (after an 8-byte header of magic + original length): groups of
a flag byte followed by eight items, MSB-first; flag bit 1 = match (2-byte
little-endian distance ≥ 1, then 1 byte of length − 3), flag bit 0 = one
literal byte.  Matches span 3..258 bytes and may overlap their source, which
is what makes runs cheap.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compress.base import CodecError, LosslessCodec, register_codec
from repro.compress.scan import POPCOUNT, orbit_positions

__all__ = ["LZOCodec"]

_MAGIC = b"RLZO"
_MIN_MATCH = 3
_MAX_MATCH = 258
_MAX_DIST = 65535
# 16 bits so hashes fit uint16: np.argsort(kind="stable") then radix-sorts
# the bucket keys, which is over 2x faster than a comparison sort of a
# combined (hash, position) key.  Window-value equality filters the extra
# collisions a shorter hash admits.
_HASH_BITS = 16


_CHUNK = 16  # bytes compared per extension round
# Greedy parse segment: matches never cross a segment end, so each
# segment's token chain can be pointer-doubled independently over a
# 32 KiB domain instead of the whole stream.
_SEG = 1 << 15

# Shared read-only ramp caches, grown on demand: callers must never
# mutate the returned slices.
_IOTA = np.zeros(0, dtype=np.int64)
_IOTA32 = np.zeros(0, dtype=np.int32)
_SEGRAMP = np.zeros(0, dtype=np.int32)
_ITEM_RAMP = np.zeros(0, dtype=np.int64)


# Each helper reads its global once: a concurrent call may swap in a
# grown array at any time, and only the local copy is sure to be big
# enough.


def _iota(k: int) -> np.ndarray:
    """``arange(k)`` from a shared read-only cache."""
    global _IOTA
    a = _IOTA
    if a.size < k:
        a = _IOTA = np.arange(max(k, 2 * a.size), dtype=np.int64)
    return a[:k]


def _iota32(k: int) -> np.ndarray:
    """``arange(k)`` as int32, from a shared read-only cache."""
    global _IOTA32
    a = _IOTA32
    if a.size < k:
        a = _IOTA32 = np.arange(max(k, 2 * a.size), dtype=np.int32)
    return a[:k]


def _segramp(k: int) -> np.ndarray:
    """Bytes remaining in the parse segment at each position (incl. it)."""
    global _SEGRAMP
    a = _SEGRAMP
    if a.size < k:
        i = np.arange(max(k, 2 * a.size), dtype=np.int32)
        a = _SEGRAMP = np.int32(_SEG) - (i & np.int32(_SEG - 1))
    return a[:k]


def _item_ramp(k: int) -> np.ndarray:
    """``i + (i >> 3) + 1`` per token: item offset assuming all-literal
    groups (one flag byte per eight tokens), from a shared cache."""
    global _ITEM_RAMP
    a = _ITEM_RAMP
    if a.size < k:
        i = np.arange(max(k, 2 * a.size), dtype=np.int64)
        a = _ITEM_RAMP = i + (i >> 3) + 1
    return a[:k]


def _extend_matches(
    arr: np.ndarray, src: np.ndarray, dst: np.ndarray, caps: np.ndarray
) -> np.ndarray:
    """Vectorized longest-common-prefix of ``arr[src:]`` vs ``arr[dst:]``.

    All pairs are already verified equal on their first 4 bytes; each
    round compares one 16-byte chunk per still-active pair through a
    sliding-window view (two row gathers + one byte-wise comparison), so
    the round count is ``max_lcp / 16``, not per byte, and pairs drop out
    of the active set as soon as they mismatch or hit their cap.
    """
    m = src.size
    lcp = np.minimum(np.int64(4), caps)
    if m == 0:
        return lcp
    pad = np.zeros(arr.size + _CHUNK, dtype=np.uint8)
    pad[: arr.size] = arr
    win = np.lib.stride_tricks.sliding_window_view(pad, _CHUNK)
    active = np.flatnonzero(lcp < caps)
    while active.size:
        s = src[active] + lcp[active]
        d = dst[active] + lcp[active]
        eq = win[s] == win[d]
        full = eq.all(axis=1)
        adv = np.where(full, _CHUNK, np.argmin(eq, axis=1))
        lcp[active] = np.minimum(lcp[active] + adv, caps[active])
        active = active[full & (lcp[active] < caps[active])]
    return lcp


class LZOCodec(LosslessCodec):
    """Fast byte-aligned LZ77 codec.

    Parameters
    ----------
    level:
        1 (fastest, single hash probe — the default, matching LZO1X-1's
        position in the speed/ratio space) through 9 (deepest chain search).
    """

    name = "lzo"

    def __init__(self, level: int = 1):
        if not 1 <= level <= 9:
            raise ValueError("level must be in 1..9")
        self.level = level
        # Probes per position: 1 at level 1 up to 64 at level 9.
        self._probes = 1 << ((level - 1) // 2 + (1 if level > 1 else 0))

    # -- encoding ----------------------------------------------------------

    def encode(self, data: bytes) -> bytes:
        """Vectorized greedy LZ parse.

        The stream splits into two kinds of positions, resolved by two
        disjoint vectorized mechanisms:

        1. **Run interiors** — a position strictly inside a constant byte
           run has a guaranteed distance-1 match whose greedy length is
           the closed form ``run_end - pos``; no hashing, no search.  On
           rendered frames this is the overwhelming majority.
        2. **Run boundaries** — only the remaining positions enter the
           hash machinery: one stable sort of their window hashes (the
           sorted bucket *is* the hash chain, nearest prior occurrence
           adjacent), 4-byte window equality to drop collisions, then
           :func:`_extend_matches` grows all surviving matches at once
           in 16-byte rounds.

        The greedy parse itself is the orbit of position 0 under
        ``i -> i + step(i)`` (``step`` = match length, or 1 for a
        literal), pointer-doubled per 32 KiB segment
        (:func:`~repro.compress.scan.orbit_positions` — the exact dual
        of the vectorized decoder's record walk).  Matches are clamped
        at segment ends so segments parse independently.  Emission
        scatters flags, literals and match records in one pass each.

        The stream format is unchanged and every emitted match is
        verified against the actual bytes, so any decoder (including the
        seed's) accepts the output; the parse may pick different —
        typically better — matches than the sequential hash-chain walk.
        """
        n = len(data)
        header = _MAGIC + struct.pack("<I", n)
        if n < _MIN_MATCH + 1:
            # Too short to ever match; emit all-literal groups.
            return header + self._encode_all_literals(data)

        arr = np.frombuffer(data, dtype=np.uint8)
        m = n - 3  # positions with a full 4-byte window

        # Constant-run geometry: id and distance-to-run-end per position.
        neq = arr[1:] != arr[:-1]
        run_id = np.empty(n, dtype=np.intp)
        run_id[0] = 0
        np.cumsum(neq, dtype=np.intp, out=run_id[1:])
        rend = np.append(np.flatnonzero(neq) + 1, n).astype(np.int32)
        d2e = rend[run_id]
        d2e -= _iota32(n)

        # Run-interior positions: guaranteed distance-1 match of length
        # min(d2e, 258, segment remainder) — accepted without search.
        sm = np.minimum(d2e, _segramp(n))
        np.minimum(sm, np.int32(_MAX_MATCH), out=sm)
        auto = sm >= np.int32(_MIN_MATCH)
        auto[0] = False
        auto[1:] &= ~neq  # run starts are boundaries, not interiors
        steps = np.where(auto, sm, np.int32(1))

        best_len = np.zeros(n, dtype=np.int32)
        best_dist = np.ones(n, dtype=np.int32)  # interior matches: dist 1
        # Boundary set: only these positions need hash-chain probing.
        bnd = np.flatnonzero(~auto[:m])
        k = bnd.size
        matched: list[np.ndarray] = []
        if k > 1:
            vals = (
                arr[bnd].astype(np.uint32)
                | (arr[bnd + 1].astype(np.uint32) << np.uint32(8))
                | (arr[bnd + 2].astype(np.uint32) << np.uint32(16))
                | (arr[bnd + 3].astype(np.uint32) << np.uint32(24))
            )
            hashes = (
                (vals * np.uint32(2654435761))
                >> np.uint32(32 - _HASH_BITS)
            ).astype(np.uint16)
            # Stable sort on the bucket key alone: within a bucket,
            # sorted neighbors are the nearest prior occurrences.
            order = np.argsort(hashes, kind="stable")
            h_sorted = hashes[order]
            same = np.empty(k, dtype=bool)
            same[0] = False
            np.equal(h_sorted[1:], h_sorted[:-1], out=same[1:])
            ridx = None
            for probe in range(1, self._probes + 1):
                if probe == 1:
                    # ridx >= 1 is just "not a bucket head" — the common
                    # single-probe level never pays for the full rank scan.
                    sel = np.flatnonzero(same)
                else:
                    if ridx is None:
                        # index of each sorted slot within its bucket
                        ridx = np.arange(k, dtype=np.int64)
                        ridx -= np.maximum.accumulate(
                            np.where(same, 0, ridx)
                        )
                    sel = np.flatnonzero(ridx >= probe)
                if sel.size == 0:
                    break
                pi = order[sel]
                ci = order[sel - probe]
                pos = bnd[pi]
                cand = bnd[ci]
                dist = pos - cand
                # Same-hash neighbors whose windows genuinely match (hash
                # collisions drop out here) and are near enough to encode.
                ok = (dist <= _MAX_DIST) & (vals[ci] == vals[pi])
                pos = pos[ok]
                cand = cand[ok]
                if pos.size == 0:
                    continue
                caps = np.minimum(np.int64(_MAX_MATCH), np.int64(n) - pos)
                # Pairs that sit entirely inside one constant run have
                # the closed-form LCP ``run_end - pos`` and skip the
                # chunked extension loop.
                in_run = run_id[cand] == run_id[pos + 3]
                length = np.empty(pos.size, dtype=np.int64)
                length[in_run] = np.minimum(
                    d2e[pos[in_run]], caps[in_run]
                )
                gen = ~in_run
                length[gen] = _extend_matches(
                    arr, cand[gen], pos[gen], caps[gen]
                )
                # positions are unique within a probe (order is a
                # permutation), so plain indexed updates suffice; ties keep
                # the earlier (nearer) probe's smaller distance via the
                # strict compare.
                better = length > best_len[pos]
                upd = pos[better]
                best_len[upd] = length[better]
                best_dist[upd] = dist[ok][better]
                matched.append(upd)
        if matched:
            mm = (
                matched[0]
                if len(matched) == 1
                else np.concatenate(matched)
            )
            # Duplicate updates across probes all gather the same final
            # best_len, so last-write-wins is deterministic.
            lv = np.minimum(best_len[mm], _segramp(n)[mm])
            good = lv >= np.int32(_MIN_MATCH)
            steps[mm[good]] = lv[good]

        # Greedy parse: token starts are the orbit of each segment start
        # under ``i -> i + step(i)``.  Steps never cross a segment end,
        # so each 32 KiB segment pointer-doubles over its own small
        # domain (log2(tokens-per-segment) passes of segment-size work).
        tparts = []
        for s0 in range(0, n, _SEG):
            seg = min(_SEG, n - s0)
            tp = orbit_positions(_iota(seg) + steps[s0 : s0 + seg], seg)
            if s0:
                tp += s0
            tparts.append(tp)
        tpos = tparts[0] if len(tparts) == 1 else np.concatenate(tparts)
        tlen = steps[tpos]
        midx = np.flatnonzero(tlen >= np.int32(_MIN_MATCH))
        mlen = tlen[midx].astype(np.int64)
        mdist = best_dist[tpos[midx]].astype(np.int64)
        return header + _emit_tokens(arr, tpos, midx, mlen, mdist)

    @staticmethod
    def _encode_all_literals(data: bytes) -> bytes:  # short-input fallback
        out = bytearray()
        for start in range(0, len(data), 8):
            chunk = data[start : start + 8]
            out.append(0)
            out += chunk
        return bytes(out)

    # -- decoding ----------------------------------------------------------

    def decode(self, payload: bytes) -> bytes:
        """Vectorized decode.

        The token stream parses without executing it: a flag byte fully
        determines its group's size (``9 + 2 * popcount``), so pointer
        doubling enumerates every group position, ``np.unpackbits`` expands
        the flags, and all literals scatter into the output in one pass.
        Only matches — which genuinely depend on earlier output — run in a
        Python loop, and each is a NumPy slice copy, so the loop count is
        the number of matches, not the number of bytes.
        """
        if len(payload) < 8 or payload[:4] != _MAGIC:
            raise CodecError("lzo: bad or truncated header")
        (orig_len,) = struct.unpack_from("<I", payload, 4)
        if orig_len == 0:
            return b""
        buf = np.frombuffer(payload, dtype=np.uint8)
        body = buf[8:]
        limit = body.size
        if limit == 0:
            raise CodecError("lzo: truncated stream")
        jump = (
            np.arange(limit, dtype=np.int64)
            + 9
            + 2 * POPCOUNT[body[:limit]]
        )
        gpos = orbit_positions(jump, limit)
        # Per-item geometry, groups laid out as if all were full (the final
        # group may be partial; its phantom items are trimmed below).
        is_match = np.unpackbits(body[gpos]).reshape(-1, 8).astype(bool)
        isize = np.where(is_match, 3, 1)
        ipos = (
            gpos[:, None] + np.cumsum(isize, axis=1) - isize + 1
        ).reshape(-1)
        is_match = is_match.reshape(-1)
        isize = isize.reshape(-1)
        inside = ipos + isize <= limit
        out_len = np.where(is_match, 0, 1)
        m_in = is_match & inside
        out_len[m_in] = body[ipos[m_in] + 2].astype(np.int64) + _MIN_MATCH
        # An item is consumed iff output is still short when it starts.
        starts = np.cumsum(out_len) - out_len
        needed = starts < orig_len
        if (needed & ~inside).any():
            first = int(np.flatnonzero(needed & ~inside)[0])
            raise CodecError(
                "lzo: truncated match" if is_match[first] else "lzo: truncated literal"
            )
        produced = int(out_len[needed].sum()) if needed.any() else 0
        if produced < orig_len:
            raise CodecError("lzo: truncated stream")
        if produced > orig_len:
            raise CodecError("lzo: length mismatch after decode")
        ipos = ipos[needed]
        is_match = is_match[needed]
        starts = starts[needed]
        out_len = out_len[needed]
        scatter = np.zeros(orig_len, dtype=np.uint8)
        scatter[starts[~is_match]] = body[ipos[~is_match]]
        m_pos = ipos[is_match]
        m_start = starts[is_match]
        dist = body[m_pos].astype(np.int64) | (
            body[m_pos + 1].astype(np.int64) << 8
        )
        if (dist == 0).any() or (m_start - dist < 0).any():
            raise CodecError("lzo: match distance out of range")
        # Matches genuinely depend on earlier output, so they run in
        # stream order — but as C-speed bytearray slice copies, one per
        # match, never per byte.
        out = bytearray(scatter)
        for s, d, ln in zip(
            m_start.tolist(),
            (m_start - dist).tolist(),
            out_len[is_match].tolist(),
        ):
            if s - d >= ln:
                out[s : s + ln] = out[d : d + ln]
            else:  # overlapping copy: replicate the window
                window = bytes(out[d:s])
                reps = -(-ln // len(window))
                out[s : s + ln] = (window * reps)[:ln]
        return bytes(out)


def _emit_tokens(
    arr: np.ndarray,
    tpos: np.ndarray,
    midx: np.ndarray,
    mlen: np.ndarray,
    mdist: np.ndarray,
) -> bytes:
    """Scatter the parsed tokens into the flag-grouped stream layout.

    ``tpos`` are the token start positions in stream order; token
    ``midx[j]`` is a match of ``mlen[j]`` bytes at distance ``mdist[j]``,
    every other token a literal.  Every byte position is pure arithmetic
    over the token sizes (1 literal byte or 3 match bytes, plus one flag
    byte ahead of each group of eight tokens), so flags, literals and
    match records each land in one fancy-index store.
    """
    t = tpos.size
    k = midx.size
    # item offset of token i = i + (i >> 3) + 1 + 2 * (matches before i):
    # a cached ramp plus a cumsum over the scattered match surcharges.
    grow = np.zeros(t + 1, dtype=np.int64)
    grow[midx + 1] = 2
    ipos = np.cumsum(grow[:t])
    ipos += _item_ramp(t)
    out = np.zeros(t + 2 * k + ((t + 7) >> 3), dtype=np.uint8)
    # Write every token's first byte as its literal, then overwrite the
    # k match records — cheaper than masking the literals out.
    out[ipos] = arr[tpos]
    mp = ipos[midx]
    out[mp] = mdist & 0xFF
    out[mp + 1] = mdist >> 8
    out[mp + 2] = mlen - _MIN_MATCH
    # Flag bytes, MSB-first within a group of eight tokens; a partial
    # final group keeps its low bits zero — exactly the sequential
    # writer's ``flags << (8 - nflags)``.  ``out`` is zero-initialized,
    # so only the groups that contain a match need a write; group g's
    # flag byte sits one before its first item (``ipos[8g] - 1``).
    if k:
        fb = np.bincount(midx >> 3, weights=np.int64(128) >> (midx & 7))
        grp = np.flatnonzero(fb)
        out[ipos[grp << 3] - 1] = fb[grp].astype(np.uint8)
    return out.tobytes()


register_codec("lzo", lambda **kw: LZOCodec(**kw))
