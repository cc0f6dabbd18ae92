"""Corruption regression tests for the binary store format.

The load path must never leak a bare ``struct.error`` (or worse, a
``UnicodeDecodeError``) for a truncated or damaged file: every byte
shortfall surfaces as a typed :class:`~repro.errors.StoreCorruptError`
with offset context, and non-store files raise
:class:`~repro.errors.StorageError`.
"""

import io
import struct

import pytest

from repro.errors import StorageError, StoreCorruptError
from repro.storage import persist
from repro.storage.persist import load_store, save_store
from repro.storage.store import check_document

from tests.conftest import small_database


def load_image(data: bytes):
    """Load a store image from memory: the sweeps below damage thousands
    of images, and the parser is the same one :func:`load_store` runs on
    the opened file."""
    return persist._read_image(io.BytesIO(data), "image")


@pytest.fixture
def saved(tmp_path):
    db, _ = small_database(seed=91, n_top=25)
    path = str(tmp_path / "store.rpro")
    save_store(db.store, path)
    return db, path, open(path, "rb").read()


def test_truncation_at_every_boundary(saved):
    """Sweep truncation points across the whole image: header, checksum
    block, and (via the v2 variant below) every body section."""
    _, path, data = saved
    # every header byte, then a stride through the body
    cuts = list(range(len(data) - 1, 0, -max(1, len(data) // 200)))
    cuts.extend(range(min(64, len(data))))
    for cut in cuts:
        with pytest.raises((StoreCorruptError, StorageError)) as err:
            load_image(data[:cut])
        # offset context or a typed message, never a raw struct error
        assert "store" in str(err.value)


def test_truncation_inside_v2_body_sections(saved, tmp_path, monkeypatch):
    """v1/v2 files have no body-length guard, so truncation lands inside
    individual read helpers — each must raise the typed error."""
    db, _, _ = saved
    monkeypatch.setattr(persist, "_VERSION", 2)
    path = str(tmp_path / "v2.rpro")
    save_store(db.store, path)
    data = open(path, "rb").read()
    for cut in range(len(data) - 1, 0, -max(1, len(data) // 300)):
        with pytest.raises((StoreCorruptError, StorageError)):
            load_image(data[:cut])


def test_truncation_error_reports_offset(saved, tmp_path):
    _, path, data = saved
    target = str(tmp_path / "cut.rpro")
    open(target, "wb").write(data[: len(data) // 2])
    with pytest.raises(StoreCorruptError, match=r"offset"):
        load_store(target)


def test_body_checksum_detects_bit_rot(saved, tmp_path):
    _, path, data = saved
    corrupt = bytearray(data)
    corrupt[len(data) // 2] ^= 0x01
    target = str(tmp_path / "rot.rpro")
    open(target, "wb").write(bytes(corrupt))
    with pytest.raises(StoreCorruptError, match="checksum mismatch"):
        load_store(target)


def test_header_corruption_detected(saved, tmp_path):
    _, path, data = saved
    # damage the recorded body length: the read shortfall must be typed
    corrupt = bytearray(data)
    length_at = 4 + 6 + 8 + 4  # magic | version+page_size | lsn | crc
    corrupt[length_at : length_at + 8] = struct.pack("<Q", len(data) * 2)
    target = str(tmp_path / "len.rpro")
    open(target, "wb").write(bytes(corrupt))
    with pytest.raises(StoreCorruptError):
        load_store(target)


def test_not_a_store_file(tmp_path):
    target = str(tmp_path / "nope.rpro")
    open(target, "wb").write(b"<?xml version='1.0'?><root/>")
    with pytest.raises(StorageError):
        load_store(target)


def test_unsupported_version(saved, tmp_path):
    _, path, data = saved
    corrupt = bytearray(data)
    corrupt[4:6] = struct.pack("<H", 99)
    target = str(tmp_path / "future.rpro")
    open(target, "wb").write(bytes(corrupt))
    with pytest.raises(StorageError, match="version"):
        load_store(target)


def test_empty_file(tmp_path):
    target = str(tmp_path / "empty.rpro")
    open(target, "wb").close()
    with pytest.raises(StorageError):
        load_store(target)


def test_v2_and_v3_round_trips_agree(saved, tmp_path, monkeypatch):
    """The v3 header adds integrity metadata only — the body bytes and
    the loaded store are the same as a v2 file's."""
    db, _, _ = saved
    v2 = str(tmp_path / "v2.rpro")
    v3 = str(tmp_path / "v3.rpro")
    monkeypatch.setattr(persist, "_VERSION", 2)
    save_store(db.store, v2)
    monkeypatch.setattr(persist, "_VERSION", 3)
    save_store(db.store, v3)
    monkeypatch.undo()
    old = load_store(v2)
    new = load_store(v3)
    assert old.segment.n_pages == new.segment.n_pages
    assert sorted(old.documents) == sorted(new.documents)
    for name in old.documents:
        check_document(old, old.document(name))
        check_document(new, new.document(name))
    # and the v3 file is the v2 body behind a 20-byte-longer header
    assert open(v3, "rb").read()[30:] == open(v2, "rb").read()[10:]


def test_v4_body_is_v3_body_plus_path_summaries(saved, tmp_path, monkeypatch):
    """v4 appends exactly the per-document path-summary blocks: with the
    summaries nulled, the v4 body byte-for-byte matches v3 plus one
    absent-marker byte per document."""
    db, path, data = saved
    v3 = str(tmp_path / "v3.rpro")
    monkeypatch.setattr(persist, "_VERSION", 3)
    save_store(db.store, v3)
    monkeypatch.undo()
    summaries = {
        name: doc.pathsummary for name, doc in db.store.documents.items()
    }
    try:
        for doc in db.store.documents.values():
            doc.pathsummary = None
        bare = str(tmp_path / "bare.rpro")
        save_store(db.store, bare)
    finally:
        for name, doc in db.store.documents.items():
            doc.pathsummary = summaries[name]
    bare_data = open(bare, "rb").read()
    v3_data = open(v3, "rb").read()
    assert len(bare_data) == len(v3_data) + len(db.store.documents)
    # a populated v4 file strictly extends the bare one
    assert len(data) > len(bare_data)


def test_cross_version_loads_recollect_identical_summary(
    saved, tmp_path, monkeypatch
):
    """Older files load with no summary, and recollecting it from the
    pages reproduces the fresh import's summary exactly."""
    from repro.storage.store import recollect_pathsummary

    db, path, _ = saved
    fresh = {
        name: doc.pathsummary for name, doc in db.store.documents.items()
    }
    assert all(summary is not None for summary in fresh.values())
    for version in (2, 3):
        old_path = str(tmp_path / f"v{version}.rpro")
        monkeypatch.setattr(persist, "_VERSION", version)
        save_store(db.store, old_path)
        monkeypatch.undo()
        old = load_store(old_path)
        for name, doc in old.documents.items():
            assert doc.pathsummary is None
            assert recollect_pathsummary(old, doc) == fresh[name]
    # and the v4 file round-trips the summary without recollection
    loaded = load_store(path)
    for name, doc in loaded.documents.items():
        assert doc.pathsummary == fresh[name]


def test_v4_path_summary_block_truncation_and_bit_rot(saved, tmp_path, monkeypatch):
    """Sweep damage specifically through the trailing path-summary
    blocks: with the v3 checksum monkeypatched away (header version 2
    keeps the body parser but drops the CRC guard) every cut must still
    surface as a typed error, and with the guard in place bit-rot in the
    summary bytes must be caught by the checksum."""
    db, path, data = saved
    # locate the summary region: it is everything the bare (summary-less)
    # image does not contain
    summaries = {
        name: doc.pathsummary for name, doc in db.store.documents.items()
    }
    try:
        for doc in db.store.documents.values():
            doc.pathsummary = None
        bare = str(tmp_path / "bare.rpro")
        save_store(db.store, bare)
    finally:
        for name, doc in db.store.documents.items():
            doc.pathsummary = summaries[name]
    summary_bytes = len(data) - len(open(bare, "rb").read())
    assert summary_bytes > 0
    for cut in range(len(data) - 1, len(data) - summary_bytes, -1):
        with pytest.raises((StoreCorruptError, StorageError)):
            load_image(data[:cut])
    # bit-rot anywhere in the summary region trips the body checksum
    for offset in range(len(data) - summary_bytes // 2, len(data), 7):
        corrupt = bytearray(data)
        corrupt[offset] ^= 0x40
        with pytest.raises(StoreCorruptError):
            load_image(bytes(corrupt))


def test_checkpoint_lsn_round_trips(saved, tmp_path):
    db, _, _ = saved
    db.store.checkpoint_lsn = 41
    path = str(tmp_path / "lsn.rpro")
    save_store(db.store, path)
    assert load_store(path).checkpoint_lsn == 41


def test_v2_file_loads_with_zero_lsn(saved, tmp_path, monkeypatch):
    db, _, _ = saved
    db.store.checkpoint_lsn = 41
    monkeypatch.setattr(persist, "_VERSION", 2)
    path = str(tmp_path / "v2lsn.rpro")
    save_store(db.store, path)
    assert load_store(path).checkpoint_lsn == 0


def test_save_leaves_no_temp_file(saved, tmp_path):
    import os

    db, _, _ = saved
    path = str(tmp_path / "clean.rpro")
    save_store(db.store, path)
    assert not os.path.exists(path + ".tmp")
