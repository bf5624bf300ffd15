"""Block codecs and dictionary encoding for store format v3.

Format v3 (see :mod:`repro.engine.store`) stores one file per column per
chunk, and each file is a **compressed block**::

    magic "RBK1" | uint32 header length | JSON header | compressed payload

The JSON header records the codec, the logical dtype/row count, the value
*encoding* applied before compression, and the uncompressed byte size (what
``engine info --sizes`` reports the compression ratio against).  Three
encodings exist:

* ``raw`` — the array's own bytes (numeric columns, and high-cardinality
  string columns whose fixed-width unicode padding compresses well);
* ``delta64`` — float64 values stored as first-order differences of their
  **uint64 bit patterns**.  Integer deltas round-trip bit-exactly (float
  deltas would not: ``cumsum`` of float differences can drift in the last
  ulp), and the slowly-varying bit patterns of a sorted column such as
  ``submit_time_s`` become small integers that compress far better than the
  raw IEEE-754 stream;
* ``dict`` — ``uint32`` codes into a per-store :class:`StringDictionary`
  persisted in the ``dictionary.json`` manifest sidecar.  Codes are assigned
  in first-appearance order and only ever *appended*, so an append to the
  store never renumbers existing chunks (checkpoints and open handles stay
  valid).

Codecs are a pluggable registry: stdlib ``zlib`` (default) and ``lzma`` are
always present; ``zstd`` and ``lz4`` register themselves only when the
optional ``zstandard`` / ``lz4`` packages are importable — they are never a
hard dependency, and a store written with an unavailable codec fails loudly
at read time with the codec name.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import zlib
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import TraceFormatError

__all__ = [
    "BLOCK_MAGIC",
    "DEFAULT_CODEC",
    "DICTIONARY_NAME",
    "StringDictionary",
    "StoreDictionary",
    "available_codecs",
    "register_codec",
    "pack_block",
    "unpack_block",
    "read_block_header",
    "delta_encode_floats",
    "delta_decode_floats",
    "durable_replace",
]

BLOCK_MAGIC = b"RBK1"
DEFAULT_CODEC = "zlib"
#: The manifest sidecar holding every dictionary-encoded column's value table.
DICTIONARY_NAME = "dictionary.json"

_ENCODINGS = ("raw", "delta64", "dict")


# ---------------------------------------------------------------------------
# Codec registry
# ---------------------------------------------------------------------------
class _Codec:
    __slots__ = ("name", "compress", "decompress")

    def __init__(self, name: str,
                 compress: Callable[[bytes, Optional[int]], bytes],
                 decompress: Callable[[bytes], bytes]):
        self.name = name
        self.compress = compress
        self.decompress = decompress


_CODECS: Dict[str, _Codec] = {}


def register_codec(name: str,
                   compress: Callable[[bytes, Optional[int]], bytes],
                   decompress: Callable[[bytes], bytes]) -> None:
    """Register (or replace) a codec under ``name``.

    ``compress(data, level)`` receives the caller's ``--level`` (``None`` for
    the codec's own default); ``decompress(data)`` must invert it exactly.
    """
    _CODECS[name] = _Codec(name, compress, decompress)


def available_codecs() -> List[str]:
    """Names of every codec usable in this process, in registration order."""
    return list(_CODECS)


def _get_codec(name: str) -> _Codec:
    codec = _CODECS.get(name)
    if codec is None:
        raise TraceFormatError(
            "codec %r is not available in this environment (have: %s); "
            "the store was probably written where the optional package "
            "providing it was installed" % (name, ", ".join(_CODECS)))
    return codec


register_codec("zlib",
               lambda data, level: zlib.compress(data, 6 if level is None else int(level)),
               zlib.decompress)


def _lzma_compress(data: bytes, level: Optional[int]) -> bytes:
    import lzma

    return lzma.compress(data, preset=1 if level is None else int(level))


def _lzma_decompress(data: bytes) -> bytes:
    import lzma

    return lzma.decompress(data)


register_codec("lzma", _lzma_compress, _lzma_decompress)

# Optional codecs: registered only when their package is importable — the
# engine never gains a hard dependency on them.
try:  # pragma: no cover - exercised only where zstandard is installed
    import zstandard as _zstd

    register_codec(
        "zstd",
        lambda data, level: _zstd.ZstdCompressor(
            level=3 if level is None else int(level)).compress(data),
        lambda data: _zstd.ZstdDecompressor().decompress(data))
except ImportError:  # pragma: no cover
    pass

try:  # pragma: no cover - exercised only where lz4 is installed
    import lz4.frame as _lz4_frame

    register_codec(
        "lz4",
        lambda data, level: _lz4_frame.compress(
            data, compression_level=0 if level is None else int(level)),
        _lz4_frame.decompress)
except ImportError:  # pragma: no cover
    pass


# ---------------------------------------------------------------------------
# Delta transform (bit-exact for arbitrary float64, NaN included)
# ---------------------------------------------------------------------------
def delta_encode_floats(array: np.ndarray) -> np.ndarray:
    """float64 → uint64 first-order differences of the raw bit patterns.

    Wrapping uint64 arithmetic is exact, so :func:`delta_decode_floats`
    reproduces every input bit-for-bit — including NaN payloads — which float
    subtraction could not guarantee.
    """
    bits = np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)
    deltas = np.empty_like(bits)
    if bits.size:
        deltas[0] = bits[0]
        np.subtract(bits[1:], bits[:-1], out=deltas[1:])  # wraps mod 2**64
    return deltas


def delta_decode_floats(deltas: np.ndarray) -> np.ndarray:
    """Invert :func:`delta_encode_floats` (exact uint64 prefix sum)."""
    bits = np.cumsum(np.asarray(deltas, dtype=np.uint64), dtype=np.uint64)
    return bits.view(np.float64)


# ---------------------------------------------------------------------------
# Block pack/unpack
# ---------------------------------------------------------------------------
def pack_block(array: np.ndarray, encoding: str, codec_name: str,
               level: Optional[int] = None,
               raw_bytes: Optional[int] = None) -> bytes:
    """Serialize one column of one chunk into a self-describing block.

    ``raw_bytes`` overrides the recorded uncompressed size — dictionary
    columns pass the *string* array's size so the reported compression ratio
    measures against the uncompressed strings, not the codes.
    """
    if encoding not in _ENCODINGS:
        raise TraceFormatError("unknown block encoding %r" % (encoding,))
    codec = _get_codec(codec_name)
    if encoding == "delta64":
        payload_array = delta_encode_floats(array)
        dtype = "<f8"
    elif encoding == "dict":
        payload_array = np.ascontiguousarray(array, dtype=np.uint32)
        dtype = "<u4"
    else:
        payload_array = np.ascontiguousarray(array)
        if payload_array.dtype.kind == "U" and payload_array.dtype.itemsize == 0:
            payload_array = payload_array.astype("<U1")
        dtype = payload_array.dtype.str
    header = {
        "codec": codec.name,
        "encoding": encoding,
        "dtype": dtype,
        "rows": int(array.shape[0]),
        "raw_bytes": int(array.nbytes if raw_bytes is None else raw_bytes),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = codec.compress(payload_array.tobytes(), level)
    return b"".join([BLOCK_MAGIC, struct.pack("<I", len(header_bytes)),
                     header_bytes, payload])


def _split_block(data: bytes, path: str) -> Tuple[Dict, bytes]:
    if len(data) < 8 or data[:4] != BLOCK_MAGIC:
        raise TraceFormatError("%s: not a v3 column block (bad magic)" % (path,))
    (header_len,) = struct.unpack("<I", data[4:8])
    if len(data) < 8 + header_len:
        raise TraceFormatError("%s: truncated v3 column block header" % (path,))
    try:
        header = json.loads(data[8:8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceFormatError("%s: invalid v3 block header: %s" % (path, exc))
    return header, data[8 + header_len:]


def unpack_block(data: bytes, path: str = "<block>") -> Tuple[Dict, np.ndarray]:
    """Decode one block back into ``(header, array)``.

    ``dict`` blocks return the **uint32 code array** — attaching the store
    dictionary (and decoding to strings lazily) is the reader's job; that is
    the code-native decode path.  The array is read-only whatever the
    encoding: the block cache hands the same one to every reader.
    """
    header, payload = _split_block(data, path)
    codec = _get_codec(header.get("codec", DEFAULT_CODEC))
    try:
        raw = codec.decompress(payload)
    except Exception as exc:  # codec libraries raise their own error types
        raise TraceFormatError("%s: cannot decompress %s block: %s"
                               % (path, codec.name, exc))
    encoding = header.get("encoding", "raw")
    rows = int(header.get("rows", 0))
    if encoding == "delta64":
        array = delta_decode_floats(np.frombuffer(raw, dtype=np.uint64))
    elif encoding == "dict":
        array = np.frombuffer(raw, dtype=np.uint32)
    elif encoding == "raw":
        array = np.frombuffer(raw, dtype=np.dtype(header["dtype"]))
    else:
        raise TraceFormatError("%s: unknown block encoding %r" % (path, encoding))
    if array.shape[0] != rows:
        raise TraceFormatError("%s: block decodes to %d rows, header says %d"
                               % (path, array.shape[0], rows))
    array.flags.writeable = False  # frombuffer already is; the delta rebuild is not
    return header, array


def read_block_header(path: str) -> Dict:
    """Read just the JSON header of a block file (for size reporting)."""
    try:
        with open(path, "rb") as handle:
            prefix = handle.read(8)
            if len(prefix) < 8 or prefix[:4] != BLOCK_MAGIC:
                raise TraceFormatError("%s: not a v3 column block (bad magic)"
                                       % (path,))
            (header_len,) = struct.unpack("<I", prefix[4:8])
            header_bytes = handle.read(header_len)
    except IOError as exc:
        raise TraceFormatError("%s: cannot read block header: %s" % (path, exc))
    try:
        return json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceFormatError("%s: invalid v3 block header: %s" % (path, exc))


# ---------------------------------------------------------------------------
# Durable replace
# ---------------------------------------------------------------------------
def durable_replace(files: Iterable[Tuple[str, bytes]]) -> None:
    """Replace files crash-safely; the one write → fsync → rename in ``src/``.

    ``files`` yields ``(path, payload)`` in commit order (a generator is
    consumed one payload at a time).  Every payload is written to
    ``<path>.tmp`` and fsynced **before the first rename**, then renamed over
    its target in the order given, so a writer that lists data files before
    the file naming them never exposes the name over data that is not
    durable.  ``os.replace`` is atomic on POSIX: a reader or a crash sees each
    path whole-old or whole-new.  On any error the temporaries are removed.
    A payload is dropped once it is durable, so a generator's next payload
    is never built while this one is still held here.
    """
    pending: List[Tuple[str, str]] = []
    try:
        for path, payload in files:
            pending.append((path + ".tmp", path))
            with open(pending[-1][0], "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            del payload
        for temporary, path in pending:
            os.replace(temporary, path)
    except BaseException:
        for temporary, _ in pending:
            with contextlib.suppress(OSError):
                os.unlink(temporary)
        raise


# ---------------------------------------------------------------------------
# Dictionary encoding
# ---------------------------------------------------------------------------
class StringDictionary:
    """One column's value table: code (uint32) ↔ string, append-only.

    Codes are positions in :attr:`values`; :meth:`encode` admits unseen
    values by appending, so growth is **monotonic** — a code minted before an
    append means the same string after it.  The decoded array and the
    value→code index are both built lazily (readers that fold over codes
    never pay for the reverse map).
    """

    __slots__ = ("values", "_array", "_index")

    def __init__(self, values: Optional[List[str]] = None):
        self.values: List[str] = list(values or [])
        self._array: Optional[np.ndarray] = None
        self._index: Optional[Dict[str, int]] = None

    def __len__(self) -> int:
        return len(self.values)

    def _ensure_index(self) -> Dict[str, int]:
        if self._index is None or len(self._index) != len(self.values):
            self._index = {value: code for code, value in enumerate(self.values)}
        return self._index

    def lookup(self, value: str) -> Optional[int]:
        """The code of ``value``, or ``None`` when it is not in the table."""
        return self._ensure_index().get(value)

    def array(self) -> np.ndarray:
        """The value table as a NumPy string array (cached per table size)."""
        if self._array is None or self._array.shape[0] != len(self.values):
            self._array = (np.asarray(self.values, dtype=np.str_)
                           if self.values else np.zeros(0, dtype="<U1"))
        return self._array

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Materialize a code array into strings (the lazy string path)."""
        codes = np.asarray(codes)
        if codes.size == 0:
            return np.zeros(0, dtype="<U1")
        self.check(codes)
        return self.array()[codes]

    def check(self, codes: np.ndarray) -> None:
        """Raise :class:`TraceFormatError` when a code is outside the table."""
        if int(codes.max(initial=0)) >= len(self.values):
            raise TraceFormatError(
                "dictionary code %d out of range (table has %d values); the "
                "dictionary sidecar is older than the chunk data"
                % (int(codes.max()), len(self.values)))

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Map a string array to codes, appending unseen values to the table.

        Vectorized through the chunk's distinct values: the per-row cost is
        one ``np.unique`` plus an integer gather, and the Python-level table
        probe runs once per *distinct* value.
        """
        values = np.asarray(values)
        if values.size == 0:
            return np.zeros(0, dtype=np.uint32)
        unique, inverse = np.unique(values, return_inverse=True)
        index = self._ensure_index()
        codes_for_unique = np.empty(unique.size, dtype=np.uint32)
        for position, value in enumerate(unique.tolist()):
            code = index.get(value)
            if code is None:
                code = len(self.values)
                self.values.append(value)
                index[value] = code
            codes_for_unique[position] = code
        return codes_for_unique[inverse.ravel()]


class StoreDictionary:
    """Every dictionary-encoded column's table, persisted as one sidecar.

    The sidecar is written *before* the manifest swap: a crash in between
    leaves a table with extra (unreferenced) entries, which is harmless —
    codes only grow, so any committed manifest reads correctly against the
    sidecar on disk or any later version of it.
    """

    VERSION = 1

    def __init__(self, columns: Optional[Dict[str, StringDictionary]] = None):
        self.columns: Dict[str, StringDictionary] = dict(columns or {})

    def column(self, name: str) -> StringDictionary:
        """The (possibly fresh) table for one column — writers grow it."""
        table = self.columns.get(name)
        if table is None:
            table = self.columns[name] = StringDictionary()
        return table

    def get(self, name: str) -> Optional[StringDictionary]:
        return self.columns.get(name)

    @classmethod
    def load(cls, directory: str) -> "StoreDictionary":
        path = os.path.join(directory, DICTIONARY_NAME)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except IOError as exc:
            raise TraceFormatError("%s: cannot read store dictionary: %s"
                                   % (path, exc))
        except json.JSONDecodeError as exc:
            raise TraceFormatError("%s: invalid store dictionary: %s" % (path, exc))
        if not isinstance(document, dict):
            raise TraceFormatError("%s: invalid store dictionary: expected an object"
                                   % (path,))
        if document.get("dictionary_version") != cls.VERSION:
            raise TraceFormatError("%s: unsupported dictionary version %r"
                                   % (path, document.get("dictionary_version")))
        columns = document.get("columns", {})
        if not (isinstance(columns, dict)
                and all(isinstance(values, list) for values in columns.values())):
            raise TraceFormatError("%s: invalid store dictionary: 'columns' must map "
                                   "column names to value lists" % (path,))
        return cls({name: StringDictionary(values) for name, values in columns.items()})

    def save(self, directory: str) -> None:
        """Write the sidecar crash-safely (see :func:`durable_replace`)."""
        document = {
            "dictionary_version": self.VERSION,
            "columns": {name: table.values
                        for name, table in sorted(self.columns.items())},
        }
        durable_replace([(os.path.join(directory, DICTIONARY_NAME),
                          (json.dumps(document) + "\n").encode("utf-8"))])

    def sidecar_bytes(self, directory: str) -> int:
        path = os.path.join(directory, DICTIONARY_NAME)
        return os.path.getsize(path) if os.path.isfile(path) else 0
