import os
import re
import tracemalloc

import numpy as np
import pytest

from oracles import write_cifar10, write_cifar100
from spikenas.data import (
    DATA_DIR_ENV,
    Dataset,
    RECORD_BYTES_10,
    RECORD_BYTES_100,
    load_cifar10,
    load_cifar100,
    load_dataset,
    sample_batch,
    synth_dataset,
)
from spikenas.errors import SpikeNasError


def _make_file_10(path, records):
    """records: list of (label, fill_byte)"""
    chunks = []
    for label, fill in records:
        chunks.append(bytes([label]) + bytes([fill]) * 3072)
    path.write_bytes(b"".join(chunks))


class TestLoadCifar10:
    def test_record_count(self, tmp_path):
        f = tmp_path / "batch.bin"
        _make_file_10(f, [(i % 10, i) for i in range(10)])
        assert f.stat().st_size == 30730
        ds = load_cifar10(f)
        assert len(ds) == 10

    def test_label_byte_parses(self, tmp_path):
        f = tmp_path / "batch.bin"
        _make_file_10(f, [(7, 0)])
        assert load_cifar10(f).labels[0] == 7

    def test_zero_pixels_scale_to_zero(self, tmp_path):
        f = tmp_path / "batch.bin"
        _make_file_10(f, [(0, 0)])
        ds = load_cifar10(f)
        assert not ds.scaled().any()

    def test_channel_major_layout(self, tmp_path):
        f = tmp_path / "batch.bin"
        payload = bytes([3]) + bytes([10]) * 1024 + bytes([20]) * 1024 + bytes([30]) * 1024
        f.write_bytes(payload)
        ds = load_cifar10(f)
        assert ds.pixels[0, 0, 0, 0] == 10  # red plane first
        assert ds.pixels[0, 1, 16, 16] == 20
        assert ds.pixels[0, 2, 31, 31] == 30

    def test_bad_length(self, tmp_path):
        f = tmp_path / "batch.bin"
        f.write_bytes(b"\x00" * (RECORD_BYTES_10 + 5))
        with pytest.raises(SpikeNasError, match="bytes, not a multiple of 3073"):
            load_cifar10(f)

    def test_label_out_of_range(self, tmp_path):
        f = tmp_path / "batch.bin"
        _make_file_10(f, [(10, 0)])
        with pytest.raises(SpikeNasError, match="label 10 exceeds 9"):
            load_cifar10(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpikeNasError, match="no such dataset file"):
            load_cifar10(tmp_path / "nope.bin")


class TestLoadCifar100:
    def test_single_record(self, tmp_path):
        f = tmp_path / "train.bin"
        f.write_bytes(bytes([4, 99]) + bytes(3072))
        assert f.stat().st_size == RECORD_BYTES_100
        ds = load_cifar100(f)
        assert len(ds) == 1
        assert ds.labels[0] == 99      # fine label is the class; coarse is skipped

    def test_fine_label_out_of_range(self, tmp_path):
        f = tmp_path / "train.bin"
        f.write_bytes(bytes([0, 100]) + bytes(3072))
        with pytest.raises(SpikeNasError, match="fine label 100 exceeds 99"):
            load_cifar100(f)


class TestRoundTrip:
    def test_write_then_load_cifar10_is_byte_exact(self, tmp_path):
        ds = synth_dataset(20, 10, seed=3)
        f = tmp_path / "synth.bin"
        write_cifar10(f, ds)
        back = load_cifar10(f)
        np.testing.assert_array_equal(back.pixels, ds.pixels)
        np.testing.assert_array_equal(back.labels, ds.labels)
        f2 = tmp_path / "again.bin"
        write_cifar10(f2, back)
        assert f.read_bytes() == f2.read_bytes()

    def test_write_then_load_cifar100_is_byte_exact(self, tmp_path):
        ds = synth_dataset(5, 60, seed=4)
        f = tmp_path / "synth100.bin"
        write_cifar100(f, ds)
        back = load_cifar100(f)
        np.testing.assert_array_equal(back.pixels, ds.pixels)
        np.testing.assert_array_equal(back.labels, ds.labels)
        f2 = tmp_path / "again.bin"
        write_cifar100(f2, back)
        assert f.read_bytes() == f2.read_bytes()


class TestNormalization:
    def test_endpoints(self):
        ds = Dataset(pixels=np.array([0, 255], dtype=np.uint8).reshape(2, 1, 1, 1),
                     labels=np.zeros(2, dtype=np.int64), num_classes=1)
        scaled = ds.scaled()
        assert scaled[0, 0, 0, 0] == 0.0
        assert scaled[1, 0, 0, 0] == 1.0

    def test_order_preserving(self):
        raw = np.arange(256, dtype=np.uint8).reshape(-1, 1, 1, 1)
        ds = Dataset(pixels=raw, labels=np.zeros(256, dtype=np.int64), num_classes=1)
        scaled = ds.scaled().ravel()
        assert (np.diff(scaled) > 0).all()


def _indexed_dataset(n):
    """Labels double as record identities for distinctness checks."""
    return Dataset(pixels=np.zeros((n, 3, 32, 32), dtype=np.uint8),
                   labels=np.arange(n, dtype=np.int64), num_classes=n)


class TestSampleBatch:
    def test_whole_set_in_seeded_order(self):
        ds = _indexed_dataset(10)
        batch = sample_batch(ds, 10, seed=5)
        assert sorted(batch.labels.tolist()) == list(range(10))
        again = sample_batch(ds, 10, seed=5)
        np.testing.assert_array_equal(batch.labels, again.labels)

    def test_same_seed_same_batch(self):
        ds = synth_dataset(50, 10, seed=0)
        a = sample_batch(ds, 8, seed=9)
        b = sample_batch(ds, 8, seed=9)
        np.testing.assert_array_equal(a.pixels, b.pixels)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_sixteen_distinct_reproducible(self):
        ds = _indexed_dataset(10_000)
        a = sample_batch(ds, 16, seed=1)
        assert len(set(a.labels.tolist())) == 16
        b = sample_batch(ds, 16, seed=1)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = sample_batch(ds, 16, seed=2)
        assert a.labels.tolist() != c.labels.tolist()

    def test_insufficient_data(self):
        with pytest.raises(SpikeNasError, match="requested 5 samples from 4 records"):
            sample_batch(_indexed_dataset(4), 5, seed=0)

    def test_positive_size_required(self):
        with pytest.raises(ValueError):
            sample_batch(_indexed_dataset(4), 0, seed=0)

    def test_pixels_live_in_unit_interval(self):
        batch = sample_batch(synth_dataset(30, 10, 0), 10, seed=0)
        assert batch.pixels.dtype == np.float32
        assert batch.pixels.min() >= 0.0
        assert batch.pixels.max() <= 1.0


class TestSynthDataset:
    def test_shape_and_label_range(self):
        ds = synth_dataset(100, 10, seed=42)
        assert len(ds) == 100
        assert ds.pixels.shape == (100, 3, 32, 32)
        assert ds.labels.min() >= 0
        assert ds.labels.max() <= 9

    def test_same_seed_identical_bytes(self):
        a = synth_dataset(40, 10, seed=7)
        b = synth_dataset(40, 10, seed=7)
        np.testing.assert_array_equal(a.pixels, b.pixels)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_class_means_shift_as_configured(self):
        shift = 0.03
        ds = synth_dataset(4000, 2, seed=0, class_shift=shift)
        m0 = ds.scaled(np.where(ds.labels == 0)[0]).mean()
        m1 = ds.scaled(np.where(ds.labels == 1)[0]).mean()
        assert abs((m1 - m0) - shift) < 0.05 * shift


class TestLoadDataset:
    def test_synth_by_name(self):
        ds = load_dataset("synth", seed=3)
        assert len(ds) == 512
        assert ds.num_classes == 10

    def test_unknown_name(self):
        with pytest.raises(SpikeNasError, match="unknown dataset 'mnist'"):
            load_dataset("mnist", data_dir="/tmp")

    def test_missing_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv(DATA_DIR_ENV, raising=False)
        with pytest.raises(SpikeNasError, match="no dataset files among"):
            load_dataset("cifar10", data_dir=tmp_path)
        with pytest.raises(SpikeNasError, match="no data directory given for cifar10"):
            load_dataset("cifar10", data_dir=None)

    def test_finds_batches_in_dir(self, tmp_path):
        ds = synth_dataset(12, 10, seed=1)
        write_cifar10(tmp_path / "data_batch_1.bin", ds)
        write_cifar10(tmp_path / "data_batch_2.bin", ds)
        loaded = load_dataset("cifar10", data_dir=tmp_path)
        assert len(loaded) == 24

    def test_finds_conventional_subdir_via_env(self, tmp_path, monkeypatch):
        sub = tmp_path / "cifar-100-binary"
        sub.mkdir()
        ds = synth_dataset(6, 100, seed=2)
        write_cifar100(sub / "train.bin", ds)
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        loaded = load_dataset("cifar100")
        assert len(loaded) == 6
        assert loaded.num_classes == 100


def _batch_dir(tmp_path, records):
    """data_batch_<i>.bin files of `records[i - 1]` synthetic records each."""
    for i, n in enumerate(records, start=1):
        write_cifar10(tmp_path / f"data_batch_{i}.bin", synth_dataset(n, 10, seed=i))
    return [tmp_path / f"data_batch_{i}.bin" for i in range(1, len(records) + 1)]


class TestMultiFileLoad:
    @pytest.mark.parametrize("records", [(5, 7), (4, 1, 6)])
    def test_files_stack_in_order(self, tmp_path, records):
        parts = [load_cifar10(f) for f in _batch_dir(tmp_path, records)]
        loaded = load_dataset("cifar10", data_dir=tmp_path)
        np.testing.assert_array_equal(loaded.pixels,
                                      np.concatenate([p.pixels for p in parts]))
        np.testing.assert_array_equal(loaded.labels,
                                      np.concatenate([p.labels for p in parts]))
        assert loaded.num_classes == 10

    def test_bad_label_in_second_file_is_named(self, tmp_path):
        second = _batch_dir(tmp_path, (3, 4))[1]
        raw = bytearray(second.read_bytes())
        raw[2 * RECORD_BYTES_10] = 10
        second.write_bytes(bytes(raw))
        with pytest.raises(SpikeNasError,
                           match=f"^label 10 exceeds 9 in {re.escape(str(second))}$"):
            load_dataset("cifar10", data_dir=tmp_path)

    def test_truncated_second_file_is_named(self, tmp_path):
        second = _batch_dir(tmp_path, (3, 4))[1]
        second.write_bytes(second.read_bytes()[:-1])
        size = 4 * RECORD_BYTES_10 - 1
        with pytest.raises(SpikeNasError, match=f"^{re.escape(str(second))} is {size} "
                                                "bytes, not a multiple of 3073$"):
            load_dataset("cifar10", data_dir=tmp_path)

    def test_short_read_is_an_error(self, tmp_path, monkeypatch):
        # a file that reads fewer bytes than its size must not leave
        # uninitialised records in the dataset
        first = _batch_dir(tmp_path, (3,))[0]
        real = os.path.getsize
        monkeypatch.setattr(os.path, "getsize", lambda p: real(p) + RECORD_BYTES_10)
        claimed, real_size = 4 * RECORD_BYTES_10, 3 * RECORD_BYTES_10
        with pytest.raises(SpikeNasError, match=f"^{re.escape(str(first))} is {claimed} "
                                                f"bytes but {real_size} could be read$"):
            load_dataset("cifar10", data_dir=tmp_path)

    def test_peak_memory_is_about_the_files_size(self, tmp_path):
        files = _batch_dir(tmp_path, (64, 64))
        total = sum(f.stat().st_size for f in files)
        tracemalloc.start()
        try:
            loaded = load_dataset("cifar10", data_dir=tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(loaded) == 128
        assert peak < 1.2 * total, peak / total
