"""Dataset ingestion and batch selection.

Binary files follow the classic layouts: 3073-byte records (label byte
+ 3072 channel-major pixel bytes) for the 10-class set and 3074-byte
records (coarse + fine label bytes + pixels) for the 100-class set; the
coarse label is skipped.  A load streams each file through one reused
chunk of about 1 MiB, checks its size and label bytes, and keeps only the
labels; pixels are read back by position, record by record, when a batch
is drawn, so memory stays about one chunk whatever the dataset's size.
A draw first checks that each file it reads still has the size and
modification time the load saw.
Handles keep raw uint8 pixels and scale to [0, 1] on access.  A seeded
synthetic generator with class-dependent mean shifts backs fast tests.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .arch import is_int
from .errors import SpikeNasError

DATA_DIR_ENV = "SPIKENAS_DATA_DIR"
# Dataset name -> class count.
DATASETS = {"cifar10": 10, "cifar100": 100, "synth": 10}

IMAGE_SHAPE = (3, 32, 32)
_PIXELS = 3 * 32 * 32
RECORD_BYTES_10 = 1 + _PIXELS
RECORD_BYTES_100 = 2 + _PIXELS
# Records per read chunk while loading: about 1 MiB.
_CHUNK_RECORDS = (1 << 20) // RECORD_BYTES_10


@dataclass(frozen=True)
class _RecordFiles:
    """Checked record files, read by position; `sizes` and `mtimes` (`st_mtime_ns`) are
    as the load found them."""

    paths: tuple[Path, ...]
    sizes: tuple[int, ...]
    mtimes: tuple[int, ...]
    record: int  # bytes per record, whose last _PIXELS bytes are the pixels

    def __getitem__(self, indices: np.ndarray) -> np.ndarray:
        """uint8 pixels of the given records, in the given order."""
        indices = np.asarray(indices)
        out = np.empty((indices.size, _PIXELS), dtype=np.uint8)
        ends = np.cumsum(self.sizes) // self.record
        if indices.size and not 0 <= indices.min() <= indices.max() < ends[-1]:
            raise IndexError(f"record indices must lie in 0..{ends[-1] - 1}")
        owner = np.searchsorted(ends, indices, side="right")
        for f, (path, size, mtime) in enumerate(zip(self.paths, self.sizes, self.mtimes)):
            rows = np.flatnonzero(owner == f)
            if not rows.size:
                continue
            first = ends[f] - size // self.record
            with _reading(path) as fh:
                now = os.fstat(fh.fileno())
                if now.st_size != size:
                    raise SpikeNasError(f"{path} is {now.st_size} bytes, not the {size} it "
                                        "had when the dataset was loaded")
                if now.st_mtime_ns != mtime:
                    raise SpikeNasError(f"{path} was modified after the dataset was loaded")
                for row in rows:
                    fh.seek((indices[row] - first + 1) * self.record - _PIXELS)
                    if fh.readinto(out[row].data) != _PIXELS:
                        raise SpikeNasError(f"{path} ended inside record {indices[row] - first}")
        return out.reshape(-1, *IMAGE_SHAPE)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable record store; pixels stay uint8 until sampled.

    `records` is an in-memory (n, 3, 32, 32) uint8 array or, from the
    loaders, the checked files; indexing either with record indices is the
    one way pixels are read.
    """

    records: np.ndarray | _RecordFiles
    labels: np.ndarray  # (n,) int64
    num_classes: int

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def pixels(self) -> np.ndarray:
        """Every record's uint8 pixels, (n, 3, 32, 32)."""
        return self.records[np.arange(len(self))]

    def scaled(self, indices: np.ndarray | None = None) -> np.ndarray:
        """Float pixels in [0, 1] for the given records (all by default)."""
        raw = self.pixels if indices is None else self.records[indices]
        return raw.astype(np.float32) / 255.0


@dataclass(frozen=True, eq=False)
class ImageBatch:
    pixels: np.ndarray  # (s, 3, 32, 32) float32 in [0, 1]
    labels: np.ndarray  # (s,) int64


def load_cifar10(path: str | os.PathLike) -> Dataset:
    """Parse one 10-class binary file into a dataset handle."""
    return _load_records([Path(path)], 10)


def load_cifar100(path: str | os.PathLike) -> Dataset:
    """Parse one 100-class binary file; the fine label is the class."""
    return _load_records([Path(path)], 100)


@contextmanager
def _reading(path: Path):
    """`path` open for binary reads; an OS error becomes a `SpikeNasError` naming it."""
    try:
        with open(path, "rb") as fh:
            yield fh
    except OSError as exc:
        raise SpikeNasError(f"cannot read {path}: {exc}") from exc


def _load_records(paths: list[Path], classes: int) -> Dataset:
    """Stream and check `paths` in order, keeping the labels; 100-class labels skip a byte."""
    offset = int(classes == 100)
    record = RECORD_BYTES_10 + offset
    sizes = [os.path.getsize(path) if path.is_file() else 0 for path in paths]
    mtimes = []
    chunk = np.empty(min(_CHUNK_RECORDS, max(sizes) // record) * record, dtype=np.uint8)
    labels = np.empty(sum(sizes) // record, dtype=np.int64)
    start = 0
    for path, size in zip(paths, sizes):
        if not path.is_file():
            raise SpikeNasError(f"no such dataset file: {path}")
        if size % record:
            raise SpikeNasError(f"{path} is {size} bytes, not a multiple of {record}")
        got = 0
        with _reading(path) as fh:
            mtimes.append(os.fstat(fh.fileno()).st_mtime_ns)
            while got < size and (n := fh.readinto(chunk[:size - got].data)):
                first = start + got // record
                labels[first:first + n // record] = chunk[offset:n - n % record:record]
                got += n
        if got != size:
            raise SpikeNasError(f"{path} is {size} bytes but {got} could be read")
        top = labels[start:start + size // record].max(initial=0)
        if top >= classes:
            raise SpikeNasError(
                f"{'fine ' if offset else ''}label {top} exceeds {classes - 1} in {path}")
        start += size // record
    return Dataset(records=_RecordFiles(tuple(paths), tuple(sizes), tuple(mtimes), record),
                   labels=labels, num_classes=classes)


def sample_batch(dataset: Dataset, num_samples: int, seed: int) -> ImageBatch:
    """Seeded draw of `num_samples` distinct records, order included."""
    if not is_int(num_samples) or num_samples < 1:
        raise SpikeNasError(f"batch size must be a positive integer, got {num_samples}")
    if num_samples > len(dataset):
        raise SpikeNasError(
            f"requested {num_samples} samples from {len(dataset)} records"
        )
    indices = np.random.default_rng(seed).permutation(len(dataset))[:num_samples]
    return ImageBatch(pixels=dataset.scaled(indices), labels=dataset.labels[indices])


def synth_dataset(num_records: int, classes: int, seed: int,
                  class_shift: float = 0.03, noise: float = 0.25,
                  base_level: float = 0.25) -> Dataset:
    """Seeded pseudo-random dataset with class-dependent mean pixel levels.

    Class k images are uniform noise around `base_level + k * class_shift`,
    quantized to uint8 so files written from the handle round-trip exactly.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=num_records, dtype=np.int64)
    means = base_level + labels.astype(np.float64) * class_shift
    values = means[:, None, None, None] + rng.uniform(
        -noise, noise, size=(num_records, *IMAGE_SHAPE)
    )
    pixels = np.clip(np.rint(values * 255.0), 0, 255).astype(np.uint8)
    return Dataset(records=pixels, labels=labels, num_classes=classes)


# Conventional file names inside a data directory.
_CIFAR10_SUBDIR = "cifar-10-batches-bin"
_CIFAR100_SUBDIR = "cifar-100-binary"


def load_dataset(name: str, data_dir: str | os.PathLike | None = None,
                 seed: int = 0) -> Dataset:
    """Load a dataset by name: cifar10, cifar100, or synth.

    Real datasets are searched in `data_dir` (falling back to the
    SPIKENAS_DATA_DIR environment variable), accepting either the files
    directly or the conventional extraction subdirectory.
    """
    name = name.lower()
    if name not in DATASETS:
        raise SpikeNasError(f"unknown dataset {name!r}")
    if name == "synth":
        return synth_dataset(512, DATASETS["synth"], seed)
    env = os.environ.get(DATA_DIR_ENV)
    root = Path(data_dir) if data_dir is not None else Path(env) if env else None
    if root is None:
        raise SpikeNasError(
            f"no data directory given for {name}; pass --data-dir or set {DATA_DIR_ENV}"
        )
    if name == "cifar10":
        files = _find_files(root, _CIFAR10_SUBDIR,
                            [f"data_batch_{i}.bin" for i in range(1, 6)],
                            fallback=["test_batch.bin"])
    else:
        files = _find_files(root, _CIFAR100_SUBDIR, ["train.bin"],
                            fallback=["test.bin"])
    return _load_records(files, DATASETS[name])


def _find_files(root: Path, subdir: str, names: list[str],
                fallback: list[str] = ()) -> list[Path]:
    """Training files win; test files are used only when no train file exists."""
    for candidates in (names, fallback):
        for base in (root, root / subdir):
            found = [base / n for n in candidates if (base / n).is_file()]
            if found:
                return found
    raise SpikeNasError(f"no dataset files among {list(names)} under {root}")
