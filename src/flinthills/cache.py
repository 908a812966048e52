"""On-disk cache for continued-fraction expansions.

One text document per constant: a short header (constant, precision, term
count, checksum) followed by the terms.  The checksum covers the canonical
space-joined term string.  Certified quotients are correct at any precision,
so an entry with enough terms is a hit; a corrupt one is a miss.  Entries are
replaced atomically; concurrent writers are not coordinated beyond that, and
the last rename wins.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

from .contfrac import PartialQuotients
from .errors import CacheError

CACHE_ENV = "FLINTHILLS_CACHE_DIR"
DEFAULT_CACHE_DIR = ".diophantine-cache"
_MAGIC = "flinthills-cache 1"


def cache_dir() -> Path:
    return Path(os.environ.get(CACHE_ENV, DEFAULT_CACHE_DIR))


def _payload(terms) -> str:
    return " ".join(str(t) for t in terms)


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def entry_path(constant_id: str) -> Path:
    return cache_dir() / f"{constant_id}.cfcache"


def write_entry(pq: PartialQuotients) -> Path:
    """Persist an expansion; returns the file written."""
    path = entry_path(pq.constant_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = _payload(pq.terms)
    lines = [
        _MAGIC,
        f"constant: {pq.constant_id}",
        f"precision: {pq.source_precision}",
        f"terms: {len(pq.terms)}",
        f"checksum: {_digest(payload)}",
        payload,
    ]
    # write beside the entry and rename over it, so a crash mid-write leaves
    # the previous entry (or none), never a torn one
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text("\n".join(lines) + "\n", encoding="ascii")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def read_entry(constant_id: str) -> PartialQuotients | None:
    """Load and validate a cache entry; None when absent."""
    path = entry_path(constant_id)
    if not path.exists():
        return None
    lines = path.read_text(encoding="ascii", errors="replace").splitlines()
    if len(lines) < 6 or lines[0] != _MAGIC:
        raise CacheError(f"{path}: not a cache file")
    header = {}
    for line in lines[1:5]:
        key, _, value = line.partition(":")
        header[key.strip()] = value.strip()
    try:
        precision = int(header["precision"])
        count = int(header["terms"])
        checksum = header["checksum"]
        terms = tuple(int(t) for t in " ".join(lines[5:]).split())
    except (KeyError, ValueError) as exc:
        raise CacheError(f"{path}: malformed header or payload") from exc
    if header.get("constant") != constant_id:
        raise CacheError(f"{path}: constant mismatch")
    if len(terms) != count:
        raise CacheError(f"{path}: term count {len(terms)} != declared {count}")
    if _digest(_payload(terms)) != checksum:
        raise CacheError(f"{path}: checksum mismatch")
    return PartialQuotients(constant_id=constant_id, terms=terms, source_precision=precision)


def load_quotients(constant_id: str, min_terms: int) -> PartialQuotients | None:
    """Cached quotients if there are at least min_terms, else None; a corrupt entry is a miss, with a warning."""
    try:
        pq = read_entry(constant_id)
    except CacheError as exc:
        print(f"warning: ignoring cache entry {exc}", file=sys.stderr)
        return None
    return pq if pq is not None and len(pq.terms) >= min_terms else None
