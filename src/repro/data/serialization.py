"""DITTO-style serialization of records, pairs, and pipeline artifacts.

DITTO (Example 2.2 of the paper) serializes a record pair into a single
token sequence of the form::

    [CLS] COL title VAL nike men's ... [SEP] COL title VAL nike men ... [SEP]

and feeds it to a transformer.  Our matcher consumes the same serialized
text through a hashed n-gram encoder, so the serialization format is the
shared contract between the data layer and the matching layer.  The same
serialized text doubles as the canonical byte representation used to
fingerprint candidate data for the pipeline's content-addressed artifact
cache (:mod:`repro.pipeline`).

The module also provides the on-disk artifact format of that cache:
:func:`write_artifact` / :func:`read_artifact` persist a mapping of numpy
arrays plus a JSON metadata document as a single ``.npz`` file, written
atomically and loaded with ``allow_pickle=False``.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import zipfile
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..exceptions import DataError, FaultInjectionError
from ..faults import inject
from .pairs import RecordPair
from .records import Dataset, Record

CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
COL_TOKEN = "COL"
VAL_TOKEN = "VAL"


@dataclass(frozen=True)
class SerializationConfig:
    """Controls which attributes are serialized and how long the output may be.

    Attributes
    ----------
    attributes:
        Attributes to serialize, in order.  ``None`` serializes every
        attribute of the dataset schema.  The paper uses only the product
        title for matching (Section 5.1).
    max_tokens:
        Hard cap on the number of whitespace tokens of the serialized
        pair (DITTO uses 512 sub-word tokens).
    lowercase:
        Whether to lowercase values before serialization.
    """

    attributes: tuple[str, ...] | None = None
    max_tokens: int = 256
    lowercase: bool = True


def serialize_record(
    record: Record,
    attributes: Sequence[str] | None = None,
    lowercase: bool = True,
) -> str:
    """Serialize a single record into ``COL a VAL v`` segments."""
    names: Iterable[str] = attributes if attributes is not None else record.attributes
    parts: list[str] = []
    for name in names:
        value = record.values.get(name)
        if value is None:
            continue
        text = value.lower() if lowercase else value
        parts.append(f"{COL_TOKEN} {name} {VAL_TOKEN} {text}")
    return " ".join(parts)


def serialize_pair_from_texts(
    left_text: str,
    right_text: str,
    config: SerializationConfig | None = None,
) -> str:
    """Assemble the DITTO pair string from pre-serialized record texts.

    Split out of :func:`serialize_pair` so batched encoders can memoize
    :func:`serialize_record` per record and still produce byte-identical
    pair serializations.
    """
    config = config or SerializationConfig()
    serialized = f"{CLS_TOKEN} {left_text} {SEP_TOKEN} {right_text} {SEP_TOKEN}"
    tokens = serialized.split()
    if len(tokens) > config.max_tokens:
        tokens = tokens[: config.max_tokens]
        if tokens[-1] != SEP_TOKEN:
            tokens.append(SEP_TOKEN)
        serialized = " ".join(tokens)
    return serialized


def serialize_pair(
    left: Record,
    right: Record,
    config: SerializationConfig | None = None,
) -> str:
    """Serialize a record pair into a single DITTO-style string."""
    config = config or SerializationConfig()
    left_text = serialize_record(left, config.attributes, config.lowercase)
    right_text = serialize_record(right, config.attributes, config.lowercase)
    return serialize_pair_from_texts(left_text, right_text, config)


def serialize_candidates(
    dataset: Dataset,
    pairs: Sequence[RecordPair],
    config: SerializationConfig | None = None,
) -> list[str]:
    """Serialize every pair of ``pairs`` against ``dataset``."""
    config = config or SerializationConfig()
    serialized = []
    for pair in pairs:
        left = dataset[pair.left_id]
        right = dataset[pair.right_id]
        serialized.append(serialize_pair(left, right, config))
    return serialized


# --------------------------------------------------------------- artifacts

#: Version of the on-disk artifact container format.  Bump when the
#: container layout changes incompatibly; readers refuse artifacts
#: written by a *newer* format with a clear error instead of failing
#: deep inside ``np.load`` or on a missing array key.
ARTIFACT_SCHEMA_VERSION = 1

#: Metadata field carrying the artifact schema version.
SCHEMA_VERSION_KEY = "__artifact_schema__"

#: Reserved ``.npz`` entry holding the JSON metadata of an artifact.
METADATA_KEY = "__artifact_metadata__"

#: Namespace prefix applied to array keys inside the ``.npz`` container,
#: so user-chosen keys can be arbitrary strings (``file`` would otherwise
#: collide with ``np.savez``'s positional parameter).
_ARRAY_PREFIX = "array::"

#: File extension of persisted artifacts.
ARTIFACT_SUFFIX = ".npz"

#: Byte boundary every member's data starts on inside a written
#: container.  numpy pads each ``.npy`` header to 64 bytes, so aligned
#: members give memory-mapped arrays aligned data pointers — and the
#: same numpy kernels (hence the same floating-point results) as arrays
#: loaded eagerly into fresh memory.
_MEMBER_ALIGNMENT = 64

#: Zip extra-field id of alignment padding (the ``zipalign`` convention).
_ALIGNMENT_EXTRA_ID = 0xD935

#: Fixed part of a zip local file header, and the zip64 extra field (id,
#: size, and both 8-byte sizes) a local header carries when zip64 is on.
_LOCAL_HEADER_SIZE = 30
_ZIP64_EXTRA_SIZE = 20


def write_artifact(
    path: str | Path,
    arrays: Mapping[str, np.ndarray],
    metadata: Mapping[str, object] | None = None,
) -> Path:
    """Persist named arrays plus JSON metadata as one ``.npz`` artifact.

    The file is written crash-safely: the payload goes to a temp file in
    the destination directory, is fsynced to stable storage, and only
    then renamed over the target (followed by a best-effort directory
    fsync).  Concurrent readers — e.g. parallel benchmark runs sharing a
    cache directory — never observe a partially written artifact, and a
    process killed mid-write leaves any previous version of the file
    untouched and loadable.

    Parameters
    ----------
    path:
        Target file path; the ``.npz`` suffix is appended when missing.
    arrays:
        Arrays to store.  Keys may be arbitrary strings except the
        reserved :data:`METADATA_KEY`.
    metadata:
        JSON-serializable metadata stored alongside the arrays.
    """
    path = Path(path)
    if path.suffix != ARTIFACT_SUFFIX:
        path = path.with_name(path.name + ARTIFACT_SUFFIX)
    if METADATA_KEY in arrays:
        raise DataError(f"array key {METADATA_KEY!r} is reserved for metadata")
    document_fields = dict(metadata or {})
    if SCHEMA_VERSION_KEY in document_fields:
        raise DataError(f"metadata key {SCHEMA_VERSION_KEY!r} is reserved")
    document_fields[SCHEMA_VERSION_KEY] = ARTIFACT_SCHEMA_VERSION
    document = json.dumps(document_fields, sort_keys=True).encode("utf-8")
    payload: dict[str, np.ndarray] = {
        f"{_ARRAY_PREFIX}{key}": np.ascontiguousarray(value)
        for key, value in arrays.items()
    }
    payload[METADATA_KEY] = np.frombuffer(document, dtype=np.uint8)
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.stem, suffix=ARTIFACT_SUFFIX
    )
    try:
        with os.fdopen(descriptor, "wb") as handle:
            _write_aligned_npz(handle, payload)
            handle.flush()
            os.fsync(handle.fileno())
        fault = inject("storage.artifact_write")
        if fault is not None and fault.kind == "torn_write":
            _tear_write(temp_name, path, fault)
        os.replace(temp_name, path)
    except BaseException:
        if os.path.exists(temp_name):
            os.unlink(temp_name)
        raise
    _fsync_directory(path.parent)
    return path


def _write_aligned_npz(handle, payload: Mapping[str, np.ndarray]) -> None:
    """Write ``payload`` like ``np.savez``, with every member 64-byte aligned.

    ``np.savez`` places members at arbitrary offsets, so arrays mapped
    in place by :class:`LazyArtifactArrays` can end up at unaligned
    addresses, where numpy takes different code paths than for the same
    array in fresh memory.  Each local header here carries a padding
    extra field sized so the member's data starts on a
    :data:`_MEMBER_ALIGNMENT` boundary; the container stays a plain
    stored zip that ``np.load`` reads unchanged.
    """
    with zipfile.ZipFile(handle, mode="w", compression=zipfile.ZIP_STORED) as archive:
        for key, value in payload.items():
            info = zipfile.ZipInfo(f"{key}.npy")
            header_size = (
                _LOCAL_HEADER_SIZE
                + len(info.filename.encode("utf-8"))
                + len(_alignment_extra(0))
                + _ZIP64_EXTRA_SIZE
            )
            info.extra = _alignment_extra(-(handle.tell() + header_size) % _MEMBER_ALIGNMENT)
            # zip64 is forced, as np.savez does, so members may exceed 4 GiB.
            with archive.open(info, mode="w", force_zip64=True) as member:
                np.lib.format.write_array(member, value, allow_pickle=False)


def _alignment_extra(padding: int) -> bytes:
    """A zipalign-style extra field carrying ``padding`` zero bytes."""
    header = struct.pack("<HHH", _ALIGNMENT_EXTRA_ID, 2 + padding, _MEMBER_ALIGNMENT)
    return header + bytes(padding)


def _fsync_directory(directory: Path) -> None:
    """Best-effort fsync of a directory so a rename survives power loss."""
    try:
        descriptor = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir open
        return
    try:
        os.fsync(descriptor)
    except OSError:  # pragma: no cover - filesystems without dir fsync
        pass
    finally:
        os.close(descriptor)


def _tear_write(temp_name: str, path: Path, fault) -> None:
    """Enact an injected ``torn_write``: leave a truncated file behind.

    Simulates the non-atomic failure mode the tmp+rename protocol
    prevents — a crash halfway through writing the destination — by
    copying only a prefix of the payload (the fault's ``seconds`` field
    reused as a 0..1 byte fraction) directly over the target, then
    raising :class:`FaultInjectionError` as the "crash".
    """
    with open(temp_name, "rb") as source:
        payload = source.read()
    fraction = min(max(fault.seconds, 0.0), 0.99)
    torn = payload[: max(1, int(len(payload) * fraction))]
    with open(path, "wb") as target:
        target.write(torn)
    raise FaultInjectionError(f"injected torn write of {path}")


def check_artifact_schema(version: object, path: str | Path) -> None:
    """Validate an artifact's schema version against this build's reader.

    Artifacts written before versioning (no version field) are treated as
    version 1.  Artifacts written by a *newer* format raise a clear
    :class:`DataError` instead of an opaque failure on a missing or
    re-shaped entry further down the line.
    """
    if version is None:
        return
    if not isinstance(version, int) or isinstance(version, bool):
        raise DataError(
            f"artifact {path} carries a malformed schema version {version!r}"
        )
    if version > ARTIFACT_SCHEMA_VERSION:
        raise DataError(
            f"artifact {path} was written with schema version {version}, but this "
            f"build reads versions up to {ARTIFACT_SCHEMA_VERSION}; upgrade the "
            f"repro library (or re-create the artifact) to use it"
        )


#: Exception types a corrupt or truncated container surfaces through
#: ``np.load`` / ``zipfile`` / JSON parsing.  Readers convert every one
#: of these into a typed :class:`DataError` so callers see exactly one
#: failure mode for "this file is not a readable artifact" — including
#: files torn mid-write, which ``zipfile`` reports as ``BadZipFile`` (a
#: plain ``Exception``) and numpy as assorted ``EOFError``/``KeyError``/
#: ``struct.error`` variants depending on where the bytes run out.
_READ_ERRORS = (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile, struct.error)


def read_artifact(path: str | Path) -> tuple[dict[str, np.ndarray], dict[str, object]]:
    """Load an artifact written by :func:`write_artifact`.

    Returns the ``(arrays, metadata)`` pair.  Raises :class:`DataError`
    when the file is not a valid artifact — corrupt, truncated, or not
    an artifact container at all — or was written by a newer artifact
    schema than this build can read (forward-compat check).
    """
    path = Path(path)
    if path.suffix != ARTIFACT_SUFFIX:
        path = path.with_name(path.name + ARTIFACT_SUFFIX)
    try:
        with np.load(path, allow_pickle=False) as data:
            if METADATA_KEY not in data.files:
                raise DataError(f"{path} is not a pipeline artifact (missing metadata)")
            metadata = json.loads(bytes(data[METADATA_KEY].tobytes()).decode("utf-8"))
            arrays = {
                key[len(_ARRAY_PREFIX) :]: data[key]
                for key in data.files
                if key.startswith(_ARRAY_PREFIX)
            }
    except DataError:
        raise
    except _READ_ERRORS as error:
        raise DataError(f"cannot read artifact {path}: {error}") from error
    check_artifact_schema(metadata.pop(SCHEMA_VERSION_KEY, None), path)
    return arrays, metadata


# ------------------------------------------------------- lazy / mmap reads


def _zip_member_data_offsets(path: Path) -> dict[str, tuple[int, int]] | None:
    """Absolute ``(data_offset, size)`` of each stored zip member.

    Artifacts store their members with ``ZIP_STORED`` (no compression),
    as ``np.savez`` does, which means every embedded ``.npy`` file sits
    as a contiguous byte range inside the container — the precondition for memory-mapping it
    in place.  Returns ``None`` when any member is compressed or the
    local headers cannot be parsed (the caller falls back to an eager
    load).
    """
    offsets: dict[str, tuple[int, int]] = {}
    with zipfile.ZipFile(path) as archive, open(path, "rb") as raw:
        for info in archive.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                return None
            raw.seek(info.header_offset)
            header = raw.read(30)
            if len(header) != 30 or header[:4] != b"PK\x03\x04":
                return None
            name_length = int.from_bytes(header[26:28], "little")
            extra_length = int.from_bytes(header[28:30], "little")
            data_offset = info.header_offset + 30 + name_length + extra_length
            offsets[info.filename] = (data_offset, info.file_size)
    return offsets


def _read_npy_header(path: Path, offset: int) -> tuple[tuple[int, ...], bool, np.dtype, int]:
    """Parse the ``.npy`` header at ``offset``; returns shape/order/dtype/data offset."""
    with open(path, "rb") as handle:
        handle.seek(offset)
        version = np.lib.format.read_magic(handle)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
        else:  # pragma: no cover - numpy has not emitted other versions
            raise DataError(f"unsupported npy format version {version} in {path}")
        if dtype.hasobject:
            raise DataError(f"artifact {path} contains an object-dtype array")
        return tuple(shape), bool(fortran), dtype, handle.tell()


class LazyArtifactArrays(Mapping):
    """Lazy, memory-mapped view of one artifact's array payload.

    Behaves like the plain ``dict`` returned by :func:`read_artifact`,
    but each array is materialized only on first access — as a read-only
    ``np.memmap`` over the artifact file when the container permits it
    (``np.savez`` members are stored uncompressed), or by a one-off
    eager read otherwise.  Memory-mapped pages are loaded on demand and
    remain evictable by the OS, so resident memory stays bounded by what
    is actually touched instead of the artifact size — the property the
    multi-tenant :mod:`repro.serve` model registry relies on.

    Example
    -------
    >>> arrays, metadata = read_artifact_lazy("model.npz")  # doctest: +SKIP
    >>> arrays["graph::features"].shape                     # doctest: +SKIP
    (1204, 48)
    """

    def __init__(self, path: str | Path) -> None:
        """Open ``path`` and index its members without reading any array."""
        self.path = Path(path)
        self._offsets = _zip_member_data_offsets(self.path)
        self._cache: dict[str, np.ndarray] = {}
        with np.load(self.path, allow_pickle=False) as data:
            self._keys = tuple(
                key[len(_ARRAY_PREFIX) :]
                for key in data.files
                if key.startswith(_ARRAY_PREFIX)
            )

    @property
    def mapped(self) -> bool:
        """Whether member arrays can be memory-mapped in place."""
        return self._offsets is not None

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[str]:
        return iter(self._keys)

    def __contains__(self, key: object) -> bool:
        return key in self._keys

    def __getitem__(self, key: str) -> np.ndarray:
        if key in self._cache:
            return self._cache[key]
        if key not in self._keys:
            raise KeyError(key)
        member = f"{_ARRAY_PREFIX}{key}.npy"
        array: np.ndarray | None = None
        if self._offsets is not None and member in self._offsets:
            offset, _ = self._offsets[member]
            shape, fortran, dtype, data_offset = _read_npy_header(self.path, offset)
            if int(np.prod(shape)) == 0:
                # np.memmap refuses zero-length maps; an empty array has
                # no resident cost anyway.
                array = np.zeros(shape, dtype=dtype)
            else:
                array = np.memmap(
                    self.path,
                    dtype=dtype,
                    mode="r",
                    offset=data_offset,
                    shape=shape,
                    order="F" if fortran else "C",
                )
        if array is None:  # compressed or unparseable member: eager fallback
            with np.load(self.path, allow_pickle=False) as data:
                array = data[member[: -len(".npy")]]
        self._cache[key] = array
        return array


def read_artifact_lazy(
    path: str | Path,
) -> tuple[LazyArtifactArrays, dict[str, object]]:
    """Load an artifact's metadata eagerly and its arrays lazily.

    The counterpart of :func:`read_artifact` for artifacts too large to
    materialize up front: the JSON metadata is read immediately (it is
    tiny), while arrays resolve to read-only memory maps on first access
    through the returned :class:`LazyArtifactArrays`.  Raises
    :class:`DataError` for non-artifacts and newer-schema artifacts,
    exactly like the eager reader.
    """
    path = Path(path)
    if path.suffix != ARTIFACT_SUFFIX:
        path = path.with_name(path.name + ARTIFACT_SUFFIX)
    try:
        with np.load(path, allow_pickle=False) as data:
            if METADATA_KEY not in data.files:
                raise DataError(f"{path} is not a pipeline artifact (missing metadata)")
            metadata = json.loads(bytes(data[METADATA_KEY].tobytes()).decode("utf-8"))
        arrays = LazyArtifactArrays(path)
    except DataError:
        raise
    except _READ_ERRORS as error:
        raise DataError(f"cannot read artifact {path}: {error}") from error
    check_artifact_schema(metadata.pop(SCHEMA_VERSION_KEY, None), path)
    return arrays, metadata


# ------------------------------------------------------- update segments

#: Filename pattern of sidecar update segments: ``model.upd-0001.npz``,
#: ``model.upd-0002.npz``, ... next to the base artifact ``model.npz``.
#: Segments are ordinary artifacts (same container format, mmap-capable),
#: numbered consecutively from 1; readers replay them in index order.
UPDATE_SEGMENT_INFIX = ".upd-"

#: Zero-padded digits in a segment index (bounds the chain at 9999 —
#: far beyond the point where compaction should have rebased anyway).
_SEGMENT_INDEX_DIGITS = 4


def artifact_base_path(path: str | Path) -> Path:
    """Normalize ``path`` to the base artifact path (suffix appended)."""
    path = Path(path)
    if path.suffix != ARTIFACT_SUFFIX:
        path = path.with_name(path.name + ARTIFACT_SUFFIX)
    return path


def segment_path(path: str | Path, index: int) -> Path:
    """The sidecar path of update segment ``index`` (1-based) for ``path``.

    >>> segment_path("model.npz", 3).name
    'model.upd-0003.npz'
    """
    if index < 1:
        raise DataError(f"segment index must be >= 1, got {index}")
    base = artifact_base_path(path)
    stem = base.name[: -len(ARTIFACT_SUFFIX)]
    name = (
        f"{stem}{UPDATE_SEGMENT_INFIX}"
        f"{index:0{_SEGMENT_INDEX_DIGITS}d}{ARTIFACT_SUFFIX}"
    )
    return base.with_name(name)


def list_segment_paths(path: str | Path) -> list[Path]:
    """Existing update-segment files of ``path``, in replay order.

    Only the *consecutive* chain starting at index 1 is returned; a gap
    (e.g. a deleted middle segment) truncates the chain there so a
    partially cleaned directory never replays out-of-order state.  Files
    past a gap are ignored, not errors — :func:`clear_segment_paths`
    removes them wholesale.
    """
    paths: list[Path] = []
    index = 1
    while True:
        candidate = segment_path(path, index)
        if not candidate.exists():
            break
        paths.append(candidate)
        index += 1
    return paths


def clear_segment_paths(path: str | Path) -> list[Path]:
    """Delete every ``*.upd-NNNN.npz`` sidecar of ``path`` (gaps included).

    Used when a full (rebased) artifact is rewritten: stale segments from
    the previous chain must not be replayed over the new base.  Returns
    the removed paths.
    """
    base = artifact_base_path(path)
    stem = base.name[: -len(ARTIFACT_SUFFIX)]
    prefix = f"{stem}{UPDATE_SEGMENT_INFIX}"
    removed: list[Path] = []
    if not base.parent.exists():
        return removed
    for candidate in sorted(base.parent.glob(f"{prefix}*{ARTIFACT_SUFFIX}")):
        suffix_part = candidate.name[len(prefix) : -len(ARTIFACT_SUFFIX)]
        if suffix_part.isdigit():
            candidate.unlink()
            removed.append(candidate)
    return removed
