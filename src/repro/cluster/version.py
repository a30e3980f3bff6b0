"""Code-version identification for the result store.

A shard result is only reusable if the code that produced it still
behaves the same. :func:`code_version` condenses "which code is this"
into a short provenance string — the package version plus a content
hash of every ``.py`` file under :mod:`repro` — that the result store
mixes into every cache key, so a result stored by an older tree is
*missed* (and the shard re-executed) instead of silently reused, on a
warm rerun and on a resume alike.

The hash covers file *contents* (sorted by package-relative path), not
mtimes or the working directory, so two identical checkouts agree and
any edit to the source tree changes the version.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Optional

#: Hex digits of the content digest kept in the version string.
_DIGEST_CHARS = 10

_cached: Optional[str] = None


def _package_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def source_digest(root: Optional[Path] = None) -> str:
    """Content hash (first ``_DIGEST_CHARS`` hex) of the package source.

    SHA-256 over every ``.py`` file under ``root`` (default: the
    installed :mod:`repro` package), each framed by its sorted
    package-relative path and size so renames and boundary shifts
    change the digest.
    """
    base = root if root is not None else _package_root()
    digest = hashlib.sha256()
    for path in sorted(base.rglob("*.py")):
        data = path.read_bytes()
        rel = path.relative_to(base).as_posix()
        digest.update(f"{rel}\x00{len(data)}\x00".encode())
        digest.update(data)
    return digest.hexdigest()[:_DIGEST_CHARS]


def code_version(refresh: bool = False) -> str:
    """``<package version>+<source digest>``, cached per process.

    >>> code_version()           # doctest: +SKIP
    '1.0.0+a3f29c01de'
    """
    global _cached
    if _cached is None or refresh:
        import repro

        release = getattr(repro, "__version__", "0")
        _cached = f"{release}+{source_digest()}"
    return _cached
