import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protobank.bank import assemble
from protobank.container import (
    FORMAT_VERSION,
    MAGIC_BANK,
    MAGIC_PARAMS,
    MemoryBank,
    PrototypeSet,
    deserialize,
    read_envelope,
    serialize,
    write_envelope,
)
from protobank.errors import DataError, FormatError


def _patch_version(blob: bytes, version: int) -> bytes:
    # rewrite the u32 version right after the magic, then fix the checksum
    body = bytearray(blob[:-8])
    struct.pack_into("<I", body, 8, version)
    return bytes(body) + struct.pack("<Q", zlib.crc32(bytes(body)) & 0xFFFFFFFF)


class TestEnvelope:
    def test_round_trip_mixed_shapes(self):
        rng = np.random.default_rng(0)
        meta = {"kind": "encoder", "config": {"k": 3}, "names": ["a", "b"]}
        tensors = {
            "scalar": np.array(3.5),
            "vec": rng.normal(size=7),
            "mat": rng.normal(size=(2, 5)),
            "empty": np.zeros((0, 4)),
        }
        blob = write_envelope(meta, tensors)
        meta2, tensors2 = read_envelope(blob)
        assert meta2 == meta
        assert set(tensors2) == set(tensors)
        for name in tensors:
            assert tensors2[name].shape == tensors[name].shape
            assert np.array_equal(tensors2[name], tensors[name])

    def test_unsupported_version_rejected(self):
        blob = write_envelope({"kind": "x"}, {"t": np.ones(2)})
        with pytest.raises(FormatError, match="version"):
            read_envelope(_patch_version(blob, 99))

    def test_trailing_bytes_rejected(self):
        blob = write_envelope({"kind": "x"}, {"t": np.ones(2)})
        body = bytearray(blob[:-8]) + b"XX"
        bad = bytes(body) + struct.pack("<Q", zlib.crc32(bytes(body)) & 0xFFFFFFFF)
        with pytest.raises(FormatError, match="trailing"):
            read_envelope(bad)

    @pytest.mark.parametrize("meta", [["kind"], "encoder", 3, None])
    def test_meta_must_be_an_object(self, meta):
        with pytest.raises(FormatError, match="json object"):
            read_envelope(write_envelope(meta, {}))

    def test_wrong_magic_rejected(self):
        blob = write_envelope({"kind": "x"}, {})
        assert blob[:8] == MAGIC_PARAMS
        with pytest.raises(FormatError):
            deserialize(blob)  # prototype/memory decoder refuses a params bundle


class TestPrototypeContainers:
    def test_version_gate_distinct_from_checksum(self):
        rng = np.random.default_rng(1)
        ps = PrototypeSet("AB", 2, rng.normal(size=(1, 2)), rng.normal(size=(1, 2)))
        with pytest.raises(FormatError, match="version"):
            deserialize(_patch_version(serialize(ps), 2))

    def test_nonfinite_payload_rejected(self):
        with pytest.raises(DataError):
            PrototypeSet("AB", 2, np.array([[1.0, np.inf]]), np.ones((1, 2)))

    def test_validation_rules(self):
        with pytest.raises(DataError):
            PrototypeSet("", 2, np.ones((1, 2)), np.ones((1, 2)))
        with pytest.raises(DataError):
            PrototypeSet("A", 2, np.ones((0, 2)), np.ones((1, 2)))
        with pytest.raises(DataError):
            PrototypeSet("A", 3, np.ones((1, 2)), np.ones((1, 3)))

    @pytest.mark.parametrize("stamp", [-1, 2**64])
    def test_created_at_outside_u64_rejected(self, stamp):
        with pytest.raises(DataError, match="created_at"):
            PrototypeSet("A", 2, np.ones((1, 2)), np.ones((1, 2)), stamp)

    def test_created_at_edges_round_trip(self):
        for stamp in (0, 2**64 - 1):
            ps = PrototypeSet("A", 2, np.ones((1, 2)), np.ones((1, 2)), stamp)
            assert deserialize(serialize(ps)).created_at == stamp

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(1, 5),
        st.integers(1, 4),
        st.integers(1, 4),
        st.text(alphabet=st.characters(codec="utf-8", exclude_characters="\x00"), min_size=1, max_size=10),
        st.integers(0, 2**63 - 1),
        st.randoms(use_true_random=False),
    )
    def test_round_trip_property(self, dim, nf, nn, sid, created, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        ps = PrototypeSet(sid, dim, rng.normal(size=(nf, dim)), rng.normal(size=(nn, dim)), created)
        assert deserialize(serialize(ps)) == ps
        bank = MemoryBank((ps,))
        assert deserialize(serialize(bank)) == bank


def _with_checksum(body: bytes) -> bytes:
    return body + struct.pack("<Q", zlib.crc32(body) & 0xFFFFFFFF)


_SET = PrototypeSet("AA", 3, np.arange(6.0).reshape(2, 3), np.ones((1, 3)), 7)
_BLOBS = (
    serialize(_SET),
    serialize(MemoryBank((_SET, PrototypeSet("BB", 3, np.ones((1, 3)), np.zeros((2, 3)))))),
)


class TestDecodeContract:
    """Whatever the bytes, `deserialize` returns a container or raises FormatError/DataError."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        st.sampled_from(range(len(_BLOBS))),
        st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, 255)), max_size=4),
        st.lists(st.tuples(st.integers(8, 80), st.integers(0, 2**32 - 1)), max_size=3),
        st.booleans(),
        st.one_of(st.none(), st.integers(0, 2**20)),
    )
    def test_mutated_or_truncated(self, which, byte_edits, u32_edits, fix_checksum, cut):
        blob = _BLOBS[which]
        body = bytearray(blob[:-8])
        for pos, value in byte_edits:
            body[pos % len(body)] = value
        for pos, value in u32_edits:  # header counts, sizes and string lengths
            if pos + 4 <= len(body):
                struct.pack_into("<I", body, pos, value)
        out = _with_checksum(bytes(body)) if fix_checksum else bytes(body) + blob[-8:]
        if cut is not None:
            out = out[: cut % (len(out) + 1)]
        try:
            decoded = deserialize(out)
        except (FormatError, DataError):
            return
        assert isinstance(decoded, (PrototypeSet, MemoryBank))

    def test_row_count_times_dim_past_int64_is_truncation(self):
        body = bytearray(_BLOBS[0][:-8])
        struct.pack_into("<II", body, 12, 2**32 - 1, 2**32 - 1)  # dim, fraud rows
        with pytest.raises(FormatError, match="truncated"):
            deserialize(_with_checksum(bytes(body)))


def _nan_last_value(blob: bytes) -> bytes:
    """`blob` with its last float64 payload value set to NaN, under a valid checksum."""
    return _with_checksum(blob[:-16] + struct.pack("<d", np.nan))


class TestNonFinitePayload:
    """A NaN that the checksum covers is refused by what the bytes decode to."""

    def test_prototype_set_is_data_error(self):
        with pytest.raises(DataError, match="non-finite") as info:
            deserialize(_nan_last_value(serialize(_SET)))
        assert not isinstance(info.value, FormatError)

    def test_memory_bank_is_data_error(self):
        entry = _nan_last_value(serialize(_SET))
        body = MAGIC_BANK + struct.pack("<III", FORMAT_VERSION, 1, len(entry)) + entry
        with pytest.raises(DataError, match="non-finite") as info:
            deserialize(_with_checksum(body))
        assert not isinstance(info.value, FormatError)

    def test_tensor_bundle_is_format_error(self):
        blob = write_envelope({"kind": "encoder"}, {"w": np.ones((2, 2))})
        with pytest.raises(FormatError, match="non-finite"):
            read_envelope(_nan_last_value(blob))

    def test_decode_and_assemble_scan_each_matrix_once(self, monkeypatch):
        scanned = []
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda a: scanned.append(a.shape) or isfinite(a))
        assemble([deserialize(serialize(_SET))])
        assert scanned == [(2, 3), (1, 3)]
