"""Section container: the one on-disk layout under the CSR store
(:mod:`repro.graph.store`) and the partition files
(:mod:`repro.partition.io`).

Layout::

    [0:M)       magic (``ContainerFormat.magic``)
    [M:M+12)    uint32 version, JSON header length, CRC32 of the JSON header
    [M+12:...)  JSON header (fits inside the 4096-byte header block)
    [4096:)     data sections, each 64-byte aligned

The JSON header carries the caller's own fields plus, per section, its
byte offset, length, dtype and CRC32, and the exact ``total_bytes`` of the
file, so a short read fails loudly (size mismatch), never as a downstream
shape error.  A writer builds a temporary file in the destination
directory and ``os.replace``s it into place: a crash mid-write leaves
either the old container or nothing — never a torn one.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.errors import GraphFormatError

__all__ = [
    "ContainerFormat",
    "ContainerWriter",
    "read_header",
    "read_sections",
    "verify_sections",
]

#: Fixed space reserved for magic + fixed fields + JSON header.
_HEADER_SPACE = 4096
#: Data sections start on multiples of this (page/cache friendly mmaps).
_ALIGN = 64
#: Block size (bytes) for streaming checksum / copy loops.
_CRC_BLOCK = 1 << 22

_FIXED = struct.Struct("<III")  # version, json length, json crc32


@dataclass(frozen=True)
class ContainerFormat:
    """What tells one kind of container from another."""

    magic: bytes
    version: int
    #: what error messages call the file ("store", "partition file")
    noun: str


def _crc32_of_range(f, offset: int, nbytes: int) -> int:
    """CRC32 of ``nbytes`` starting at ``offset``, read in bounded blocks."""
    f.seek(offset)
    crc = 0
    remaining = nbytes
    while remaining:
        block = f.read(min(_CRC_BLOCK, remaining))
        if not block:
            raise GraphFormatError(
                f"container truncated: expected {nbytes} bytes at offset {offset}"
            )
        crc = zlib.crc32(block, crc)
        remaining -= len(block)
    return crc


class ContainerWriter:
    """Builds a container in a temporary file next to ``path``.

    Sections are laid out in the order they are opened.  :meth:`stream`
    writes one sequentially and takes its CRC from the bytes as they go
    out; :meth:`reserve` hands back a memmap of the section's space for the
    caller to fill, and :meth:`commit` reads it back for the CRC.  Leaving
    the ``with`` block without a :meth:`commit` removes the temporary file.
    """

    def __init__(self, path: str | os.PathLike, fmt: ContainerFormat):
        self.path = os.fspath(path)
        self.fmt = fmt
        self.sections: dict[str, dict] = {}
        d = os.path.dirname(os.path.abspath(self.path)) or "."
        os.makedirs(d, exist_ok=True)
        fd, self.tmp_path = tempfile.mkstemp(
            prefix=os.path.basename(self.path) + ".", suffix=".tmp", dir=d
        )
        self._f = os.fdopen(fd, "r+b")
        self._end = _HEADER_SPACE
        self._committed = False

    def __enter__(self) -> "ContainerWriter":
        return self

    def __exit__(self, *exc) -> None:
        self._f.close()
        if not self._committed:
            os.unlink(self.tmp_path)

    def _open_section(self, name: str, dtype, nbytes: int = 0) -> dict:
        offset = (self._end + _ALIGN - 1) // _ALIGN * _ALIGN
        sec = self.sections[name] = {
            "offset": offset, "nbytes": nbytes,
            "dtype": np.dtype(dtype).str, "crc32": None,
        }
        self._end = offset + nbytes
        return sec

    def stream(self, name: str, arrays: Iterable[np.ndarray]) -> None:
        """Write the concatenation of ``arrays`` as section ``name``.

        The section's dtype is the first array's (an array of another dtype
        is an error, not a cast; no arrays make an empty byte section).
        Nothing is concatenated in memory, and large arrays (possibly mmap
        views themselves) go out in bounded blocks.
        """
        sec = None
        crc = 0
        for arr in arrays:
            if sec is None:
                sec = self._open_section(name, arr.dtype)
                self._f.seek(sec["offset"])
            if arr.dtype.str != sec["dtype"]:
                raise GraphFormatError(
                    f"section {name!r} mixes dtypes {sec['dtype']} and {arr.dtype.str}"
                )
            raw = np.ascontiguousarray(arr).reshape(-1).view(np.uint8)
            for i in range(0, len(raw), _CRC_BLOCK):
                block = raw[i : i + _CRC_BLOCK]
                self._f.write(block)
                crc = zlib.crc32(block, crc)
            sec["nbytes"] += len(raw)
        if sec is None:
            sec = self._open_section(name, np.uint8)
        sec["crc32"] = crc
        self._end = sec["offset"] + sec["nbytes"]

    def reserve(self, name: str, dtype, count: int) -> np.ndarray:
        """Claim ``count`` zeroed elements for section ``name``: a writable
        memmap of them, for the caller to fill and flush before
        :meth:`commit`."""
        sec = self._open_section(name, dtype, count * np.dtype(dtype).itemsize)
        self._f.flush()
        self._f.truncate(self._end)
        if not count:  # a zero-length mapping is an error
            return np.empty(0, dtype=dtype)
        return np.memmap(
            self.tmp_path, dtype=dtype, mode="r+", offset=sec["offset"], shape=(count,)
        )

    def commit(self, meta: dict, sync: bool) -> None:
        """Checksum what was reserved, write the header, rename into place.

        ``sync`` asks for an ``fsync`` before the rename (a store someone
        will keep); scratch files that are rebuilt when damaged skip it.
        """
        f = self._f
        f.flush()
        f.truncate(self._end)  # a trailing empty section still counts
        for sec in self.sections.values():
            if sec["crc32"] is None:
                sec["crc32"] = _crc32_of_range(f, sec["offset"], sec["nbytes"])
        header = dict(meta, sections=self.sections, total_bytes=self._end)
        payload = json.dumps(header, sort_keys=True).encode()
        magic = self.fmt.magic
        if len(payload) > _HEADER_SPACE - len(magic) - _FIXED.size:
            raise GraphFormatError(
                f"{self.fmt.noun} header does not fit header block"
            )
        f.seek(0)
        f.write(magic)
        f.write(_FIXED.pack(self.fmt.version, len(payload), zlib.crc32(payload)))
        f.write(payload)
        f.flush()
        if sync:
            os.fsync(f.fileno())
        f.close()
        os.replace(self.tmp_path, self.path)
        self._committed = True


def read_header(path: str | os.PathLike, fmt: ContainerFormat) -> dict:
    """Parse and validate a container header: magic, version, header CRC,
    and the file's size against the recorded ``total_bytes`` — a foreign,
    corrupt, truncated or padded file is a :class:`GraphFormatError` here."""
    with open(path, "rb") as f:
        if f.read(len(fmt.magic)) != fmt.magic:
            raise GraphFormatError(
                f"{path!r} is not a repro {fmt.noun} (bad magic)"
            )
        fixed = f.read(_FIXED.size)
        if len(fixed) != _FIXED.size:
            raise GraphFormatError(f"{path!r}: truncated {fmt.noun} header")
        version, json_len, json_crc = _FIXED.unpack(fixed)
        if version != fmt.version:
            raise GraphFormatError(
                f"{path!r}: unsupported {fmt.noun} version {version} "
                f"(this build reads version {fmt.version})"
            )
        payload = f.read(json_len)
        if len(payload) != json_len or zlib.crc32(payload) != json_crc:
            raise GraphFormatError(
                f"{path!r}: corrupt {fmt.noun} header (CRC mismatch)"
            )
        header = json.loads(payload)
        actual = f.seek(0, os.SEEK_END)
    if actual != header["total_bytes"]:
        raise GraphFormatError(
            f"{path!r}: {fmt.noun} truncated or padded "
            f"({actual} bytes on disk, header records {header['total_bytes']})"
        )
    return header


def _check_crc(path, name: str, got: int, sec: dict) -> None:
    if got != sec["crc32"]:
        raise GraphFormatError(
            f"{path!r}: section {name!r} CRC mismatch (data corrupted on disk)"
        )


def verify_sections(
    path: str | os.PathLike, header: dict, names: Optional[Iterable[str]] = None
) -> None:
    """CRC32 of the named data sections (default: every one, O(file))
    against the header."""
    sections = header["sections"]
    with open(path, "rb") as f:
        for name in sections if names is None else names:
            sec = sections[name]
            crc = _crc32_of_range(f, sec["offset"], sec["nbytes"])
            _check_crc(path, name, crc, sec)


def read_sections(
    path: str | os.PathLike, header: dict, mode: str, verify: bool = False
) -> dict[str, np.ndarray]:
    """Every section of a container as a 1-D array of its dtype.

    ``mode="ram"`` reads each section into an ordinary array and, with
    ``verify``, checks its CRC on the bytes just read.  ``mode="mmap"``
    serves read-only views of one ``np.memmap`` of the file — O(1) resident
    memory, pages fault in as they are touched; nothing is swept
    (:func:`verify_sections` does that, and pages the file in).
    """
    out: dict[str, np.ndarray] = {}
    if mode == "mmap":
        whole = np.memmap(path, dtype=np.uint8, mode="r")
        for name, sec in header["sections"].items():
            raw = whole[sec["offset"] : sec["offset"] + sec["nbytes"]]
            out[name] = raw.view(np.dtype(sec["dtype"]))
        return out
    with open(path, "rb") as f:
        for name, sec in header["sections"].items():
            dtype = np.dtype(sec["dtype"])
            f.seek(sec["offset"])
            arr = np.fromfile(f, dtype=dtype, count=sec["nbytes"] // dtype.itemsize)
            if arr.nbytes != sec["nbytes"]:
                raise GraphFormatError(f"{path!r}: truncated mid-section")
            if verify:
                _check_crc(path, name, zlib.crc32(arr.view(np.uint8)), sec)
            out[name] = arr
    return out
