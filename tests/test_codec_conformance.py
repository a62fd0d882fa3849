"""Registry-driven conformance suite (runs against EVERY registered codec).

The parametrization enumerates :func:`repro.codecs.available` at collection
time, so registering a new codec automatically subjects it to the shared
contract — no test edits required:

* ``from_bytes(to_bytes(x))`` round-trips through the envelope;
* ``gather(idx)`` equals ``decode_all()[idx]`` on random index sets
  including duplicates and boundary indices;
* ``decode_range(lo, hi)`` equals the full-decode slice;
* scalar ``get`` agrees with ``gather``;
* ``filter_range(lo, hi)`` equals ``(v >= lo) & (v < hi)`` over the
  full decode, for ranges that cover, clip and miss LeCo model bands;
* the envelope rejects truncated and foreign-magic blobs with ValueError.
"""

import numpy as np
import pytest

from repro import codecs

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the CI image
    HAVE_HYPOTHESIS = False

INT_CODECS = [n for n in codecs.available()
              if codecs.info(n).supports_integers]
STR_CODECS = [n for n in codecs.available()
              if codecs.info(n).supports_strings]


def make_int_data(name: str, n: int = 600, seed: int = 7) -> np.ndarray:
    """Integer test data honouring the codec's input capabilities."""
    rng = np.random.default_rng(seed)
    values = np.concatenate([
        np.cumsum(rng.integers(0, 50, n // 2)),       # serial-correlated
        rng.integers(-(1 << 33), 1 << 33, n - n // 2),  # wide + negative
    ]).astype(np.int64)
    if codecs.info(name).requires_sorted:
        values = np.sort(np.abs(values))
    return values


def band_edges(seq, values: np.ndarray) -> list[tuple[int, int]]:
    """``(min, max)`` pairs worth probing ``filter_range`` at: the
    values' exact extremes and, for LeCo-family sequences, every
    non-empty partition's model band."""
    edges = [(int(values.min()), int(values.max()))]
    array = getattr(seq, "array", None)
    if array is not None:
        edges += [(int(lo), int(hi))
                  for lo, hi in array.partition_value_bounds() if lo <= hi]
    return edges


def assert_filter_range(seq, values: np.ndarray, lo: int, hi: int):
    expected = (values >= lo) & (values < hi)
    got = np.asarray(seq.filter_range(lo, hi), dtype=bool)
    assert np.array_equal(got, expected), (lo, hi)


#: LeCo encodings with small partitions, so one sequence holds bands that
#: a range covers, clips and misses: linear, constant (FOR, whose runs
#: give width-0 partitions) and a non-monotone regressor (whole-domain
#: bands)
LECO_BAND_CODECS = {
    "leco-linear": lambda: codecs.get("leco", partitioner=32),
    "for": lambda: codecs.get("for", frame_size=32),
    "leco-poly2": lambda: codecs.get("leco", regressor="poly2",
                                     partitioner=32),
}


def make_band_data(name: str, n: int = 600, seed: int = 11) -> np.ndarray:
    """Serial, constant-run and noisy stretches (several bands)."""
    rng = np.random.default_rng(seed)
    third = n // 3
    values = np.concatenate([
        np.cumsum(rng.integers(0, 50, third)),
        np.full(third, 1234),
        rng.integers(-1000, 1000, n - 2 * third),
    ]).astype(np.int64)
    if codecs.info(name).requires_sorted:
        values = np.sort(np.abs(values))
    return values


def make_strings(n: int = 300) -> list[bytes]:
    return [f"host-{i // 7:04d}.shard{i % 7}.example.net".encode()
            for i in range(n)]


def encode(name: str, data):
    return codecs.get(name).encode(data)


class TestIntegerConformance:
    @pytest.mark.parametrize("name", INT_CODECS)
    def test_envelope_roundtrip(self, name):
        values = make_int_data(name)
        seq = encode(name, values)
        blob = seq.to_bytes()
        assert blob[:4] == codecs.MAGIC
        revived = codecs.from_bytes(blob)
        assert len(revived) == len(values)
        assert np.array_equal(revived.decode_all(), values)
        # a second serialise/parse cycle is stable
        assert np.array_equal(
            codecs.from_bytes(revived.to_bytes()).decode_all(), values)

    @pytest.mark.parametrize("name", INT_CODECS)
    def test_gather_matches_decode_all(self, name):
        values = make_int_data(name)
        seq = encode(name, values)
        rng = np.random.default_rng(3)
        n = len(values)
        idx = np.concatenate([
            [0, n - 1, 0, n - 1],          # boundaries, duplicated
            rng.integers(0, n, 64),
            rng.integers(0, n, 16),        # extra duplicates likely
        ]).astype(np.int64)
        out = np.asarray(seq.gather(idx), dtype=np.int64)
        assert np.array_equal(out, values[idx])

    @pytest.mark.parametrize("name", INT_CODECS)
    def test_gather_empty_and_bounds(self, name):
        values = make_int_data(name)
        seq = encode(name, values)
        assert seq.gather(np.empty(0, dtype=np.int64)).size == 0
        with pytest.raises(IndexError):
            seq.gather(np.array([len(values)]))

    @pytest.mark.parametrize("name", INT_CODECS)
    def test_scalar_get_agrees(self, name):
        values = make_int_data(name)
        seq = encode(name, values)
        for pos in (0, 1, len(values) // 2, len(values) - 1):
            assert seq.get(pos) == int(values[pos])

    @pytest.mark.parametrize("name", INT_CODECS)
    def test_decode_range_matches_slice(self, name):
        values = make_int_data(name)
        seq = encode(name, values)
        n = len(values)
        for lo, hi in ((0, 0), (0, n), (7, 8), (n // 3, 2 * n // 3),
                       (n - 1, n)):
            assert np.array_equal(seq.decode_range(lo, hi), values[lo:hi])
        with pytest.raises(IndexError):
            seq.decode_range(0, n + 1)

    @pytest.mark.parametrize("name", INT_CODECS)
    def test_filter_range_at_band_edges(self, name):
        values = make_band_data(name)
        seq = encode(name, values)
        for zmin, zmax in band_edges(seq, values):
            for lo, hi in ((zmin, zmax + 1), (zmin, zmax),
                           (zmin + 1, zmax + 1), (zmax + 1, zmax + 2),
                           (zmin - 1, zmin)):
                assert_filter_range(seq, values, lo, hi)

    @pytest.mark.parametrize("name", INT_CODECS)
    def test_envelope_rejects_truncation(self, name):
        blob = encode(name, make_int_data(name)).to_bytes()
        for cut in (3, 5, len(blob) // 2, len(blob) - 1):
            with pytest.raises(ValueError):
                codecs.from_bytes(blob[:cut])

    @pytest.mark.parametrize("name", INT_CODECS)
    def test_envelope_rejects_foreign_magic(self, name):
        blob = encode(name, make_int_data(name)).to_bytes()
        with pytest.raises(ValueError):
            codecs.from_bytes(b"ZSTD" + blob[4:])

    @pytest.mark.parametrize("name", INT_CODECS)
    def test_sequential_access_flag_matches_codec(self, name):
        codec = codecs.get(name)
        assert codecs.info(name).sequential_access == \
            getattr(codec, "sequential_access", False)


class TestLecoBandFilter:
    """``filter_range`` accepts covered partitions and skips missed ones
    from their model bands alone; these encodings guarantee the band
    shapes that decision depends on."""

    def test_constant_runs_give_width_zero_partitions(self):
        values = make_band_data("for")
        seq = LECO_BAND_CODECS["for"]().encode(values)
        widths = [p.deltas.width for p in seq.array.partitions]
        assert 0 in widths
        for zmin, zmax in band_edges(seq, values):
            for lo, hi in ((zmin, zmax + 1), (zmin, zmax),
                           (zmin + 1, zmax + 2)):
                assert_filter_range(seq, values, lo, hi)

    def test_non_monotone_bands_are_the_whole_domain(self):
        values = make_band_data("leco")
        seq = LECO_BAND_CODECS["leco-poly2"]().encode(values)
        i64 = np.iinfo(np.int64)
        bounds = seq.array.partition_value_bounds()
        assert (bounds == (i64.min, i64.max)).all(axis=1).any()
        # only a range spanning all of int64 covers such a band
        assert_filter_range(seq, values, int(i64.min), int(i64.max) + 1)
        assert_filter_range(seq, values, int(i64.min), int(i64.max))
        assert_filter_range(seq, values, int(values.min()),
                            int(values.max()) + 1)

    def test_bounds_are_memoised_read_only(self):
        seq = LECO_BAND_CODECS["leco-linear"]().encode(
            make_band_data("leco"))
        bounds = seq.array.partition_value_bounds()
        assert seq.array.partition_value_bounds() is bounds
        assert not bounds.flags.writeable
        with pytest.raises(ValueError):
            bounds[0, 0] = 0


class TestStringConformance:
    @pytest.mark.parametrize("name", STR_CODECS)
    def test_envelope_roundtrip(self, name):
        strings = make_strings()
        seq = encode(name, strings)
        revived = codecs.from_bytes(seq.to_bytes())
        assert revived.decode_all() == strings

    @pytest.mark.parametrize("name", STR_CODECS)
    def test_gather_matches_decode_all(self, name):
        strings = make_strings()
        seq = encode(name, strings)
        idx = [0, len(strings) - 1, 5, 5, 17]
        assert list(seq.gather(idx)) == [strings[i] for i in idx]

    @pytest.mark.parametrize("name", STR_CODECS)
    def test_get_in_bounds(self, name):
        strings = make_strings()
        seq = encode(name, strings)
        assert seq.get(42) == strings[42]


class TestEnvelopeFormat:
    def test_unknown_codec_id_rejected(self):
        blob = codecs.envelope.pack("no-such-codec", b"\x00\x01")
        with pytest.raises(ValueError, match="no decoder"):
            codecs.from_bytes(blob)

    def test_future_version_rejected(self):
        blob = bytearray(codecs.envelope.pack("plain", b""))
        blob[4] = 99
        with pytest.raises(ValueError, match="version"):
            codecs.from_bytes(bytes(blob))

    def test_empty_blob_rejected(self):
        with pytest.raises(ValueError):
            codecs.from_bytes(b"")

    def test_registry_lookup_errors(self):
        with pytest.raises(ValueError, match="unknown codec"):
            codecs.get("no-such-codec")
        with pytest.raises(ValueError, match="unknown codec"):
            codecs.info("no-such-codec")

    def test_info_records_wire_ids(self):
        for name in codecs.available():
            assert codecs.info(name).wire_id is not None

    def test_sequences_carry_registered_wire_id(self):
        values = make_int_data("plain", n=200)
        for name in INT_CODECS:
            data = np.sort(np.abs(values)) \
                if codecs.info(name).requires_sorted else values
            seq = codecs.get(name).encode(data)
            assert seq.wire_id == codecs.info(name).wire_id, name


class TestLecoModeNames:
    def test_name_implied_mode_overrides_spec(self):
        """codecs.get("leco-var", spec=...) must run variable partitioning
        even when the spec carries the default mode."""
        values = np.cumsum(np.arange(4000) % 7).astype(np.int64)
        spec = codecs.CodecSpec(codec="leco-var")  # mode defaults to "fix"
        var_arr = codecs.get("leco-var", spec=spec).encode(values).array
        fix_arr = codecs.get("leco-fix").encode(values).array
        assert var_arr.fixed_size is None
        assert fix_arr.fixed_size is not None

    def test_generic_leco_defers_to_spec(self):
        values = np.cumsum(np.arange(4000) % 7).astype(np.int64)
        spec = codecs.CodecSpec(mode="var")
        arr = codecs.get("leco", spec=spec).encode(values).array
        assert arr.fixed_size is None


if HAVE_HYPOTHESIS:
    int_arrays = st.lists(st.integers(-(1 << 40), 1 << 40), min_size=1,
                          max_size=200).map(
                              lambda v: np.array(v, dtype=np.int64))

    class TestPropertyRoundtrip:
        @pytest.mark.parametrize("name", INT_CODECS)
        @given(values=int_arrays)
        @settings(max_examples=10, deadline=None)
        def test_roundtrip_and_gather(self, name, values):
            if codecs.info(name).requires_sorted:
                values = np.sort(np.abs(values))
            seq = encode(name, values)
            revived = codecs.from_bytes(seq.to_bytes())
            assert np.array_equal(revived.decode_all(), values)
            idx = np.arange(len(values))[::3]
            assert np.array_equal(
                np.asarray(seq.gather(idx), dtype=np.int64), values[idx])

    band_arrays = st.one_of(
        int_arrays,
        # constant runs: width-0 partitions under FOR/LeCo
        st.lists(st.tuples(st.integers(-(1 << 20), 1 << 20),
                           st.integers(1, 60)),
                 min_size=1, max_size=8).map(
            lambda runs: np.repeat(
                np.array([v for v, _ in runs], dtype=np.int64),
                [k for _, k in runs])),
        # serial-correlated stretches: tight linear bands
        st.lists(st.integers(0, 40), min_size=1, max_size=300).map(
            lambda steps: np.cumsum(np.array(steps, dtype=np.int64))),
    )

    def draw_range(data, seq, values) -> tuple[int, int]:
        """A range that covers, clips or misses the sequence's bands:
        each side is a band edge (±1) or an arbitrary nearby value."""
        edges = sorted({e + d for pair in band_edges(seq, values)
                        for e in pair for d in (-1, 0, 1)})
        vmin, vmax = int(values.min()), int(values.max())
        side = st.one_of(st.sampled_from(edges),
                         st.integers(vmin - 10, vmax + 10))
        return data.draw(side), data.draw(side)

    class TestPropertyFilterRange:
        @pytest.mark.parametrize("name", INT_CODECS)
        @given(values=band_arrays, data=st.data())
        @settings(max_examples=15, deadline=None)
        def test_registry_codecs(self, name, values, data):
            if codecs.info(name).requires_sorted:
                values = np.sort(np.abs(values))
            seq = encode(name, values)
            lo, hi = draw_range(data, seq, values)
            assert_filter_range(seq, values, lo, hi)

        @pytest.mark.parametrize("name", sorted(LECO_BAND_CODECS))
        @given(values=band_arrays, data=st.data())
        @settings(max_examples=25, deadline=None)
        def test_leco_band_shapes(self, name, values, data):
            seq = LECO_BAND_CODECS[name]().encode(values)
            lo, hi = draw_range(data, seq, values)
            assert_filter_range(seq, values, lo, hi)
