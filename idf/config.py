"""Pipeline configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass


def threshold_to_radius(threshold: float) -> int:
    """Similarity threshold (0..1] -> inclusive Hamming radius (M10).

    ``radius = round((1 - threshold) * 64)`` with Java ``Math.round``
    semantics (floor(x + 0.5)) — app/Commands.java:406-409; the web UI
    default 0.95 maps to radius 3."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    return int(math.floor((1.0 - threshold) * 64 + 0.5))


@dataclass(frozen=True)
class DedupConfig:
    """Knobs of the near-duplicate pipeline.

    Defaults mirror the reference CLI: algo phash (app/Commands.java:49),
    radius 10 (Commands.java:121 default), web threshold 0.95 == radius 3
    via ``radius = round((1 - threshold) * 64)`` (Commands.java:406-409).
    """

    algo: str = "phash"  # ahash | dhash | phash
    radius: int = 10  # inclusive Hamming radius (BKTreeIndex.java:43)
    # pigeonhole banding: m segments of 64/m bits (SURVEY §2.5 J1)
    n_segments: int = 4
    # caption MinHash-LSH (axis B, SURVEY §2.5 J2)
    caption_lsh: bool = True
    minhash_k: int = 64
    minhash_bands: int = 16  # 16 bands x 4 rows
    shingle_k: int = 3  # word shingles per caption
    # skew control: buckets larger than this are processed in chunked
    # pair-emit passes (exact, never truncated) and reported in metrics
    bucket_cap: int = 4096
    # connected components: driver min-label propagation while the edge
    # count is <= this, distributed label propagation above it. The
    # driver path holds ~10 int64 arrays of len(edges) (~1.6 GB at 20M
    # edges) — cheap for any head node; labelprop is for edge lists
    # that genuinely exceed one machine.
    cc_driver_max_edges: int = 50_000_000
    # edge dedup (J3): the same pair surfaces from ~37 band keys, so a
    # pair-keyed dedup shuffle shrinks CC's input ~25x — but it is pure
    # overhead when the raw edge list already fits the driver CC (which
    # is duplicate-invariant). Auto: dedup only above this raw count.
    edge_dedup_min_rows: int = 20_000_000
    # normalize real-JPEG rows by their own APP1 Exif orientation when
    # no orientation column overrides. OFF by default: the shipped
    # reference reads orientation as a constant 1 (Exif.java:57-59
    # stub), so EXIF-rotated copies cluster separately — reference
    # parity (FIXTURES.md §2 drink-270cw row). Flip on for corpora
    # where upright-normalized hashing is wanted.
    exif_from_bytes: bool = False
    # trust-but-verify source mode: take the input table's precomputed
    # ``phash`` column (input_hint schema) instead of decoding every
    # image, and decode only a deterministic content-keyed sample to
    # verify the column (stages/hash_stage.py:
    # precomputed_hash_stage / verify_precomputed_sample). A 100-TB
    # deployment never re-decodes a trusted corpus; the sampled decode
    # is the fidelity gate. Default "auto" (r4 verdict #9): ON when the
    # source table ships the (w, h, phash) metadata columns AND algo is
    # phash; OFF for loose-file dirs, metadata-less tables and non-phash
    # algos (resolved once per run in hash_stage.resolve_precomputed_cfg;
    # explicit True keeps the hard validation errors, explicit False
    # pins the reference's always-decode behavior). The verify gate is
    # mandatory in every precomputed run, auto-resolved or pinned.
    use_precomputed_phash: bool | str = "auto"
    phash_verify_fraction: float = 0.01
    phash_verify_max_mismatch: int = 0
    # decode stage execution (see stages/hash_stage.py: stateless tasks)
    decode_batch_size: int = 512
    seed: int = 42

    def band_rows(self) -> int:
        assert self.minhash_k % self.minhash_bands == 0
        return self.minhash_k // self.minhash_bands

    def segment_bits(self) -> int:
        assert 64 % self.n_segments == 0
        return 64 // self.n_segments

    def expansion_radius(self) -> int:
        """Per-side bit-flip expansion e = ceil(floor(r/m) / 2).

        Pigeonhole: hamming(a, b) <= r over m segments => some segment
        differs by q <= floor(r/m). If both sides emit all keys within e
        bit-flips of their segment value, they share a key iff the
        segment distance is <= 2e; 2*ceil(q/2) >= q, so recall is 1.0 by
        construction (SURVEY §2.5 J1).
        """
        q = self.radius // self.n_segments
        return (q + 1) // 2
