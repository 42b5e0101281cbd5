"""Compile-on-demand build of the native (C) library.

One C library backs every native path: ``_fastpath.c`` (the whole captured
PSO iteration as one call, the tensor-core fp16 fragment product and the
Sphere objective), which ``#include``\\ s ``_philox.c`` (the Philox fills).
:mod:`repro.gpusim.fastpath` binds, gates and self-tests it; this module
only builds it:

* compiled with the system C compiler (``cc``/``gcc``/``clang``) into a
  per-user cache directory (``$TMPDIR/repro-native-<uid>``), keyed by a
  hash of both source files plus the compile flags — editing either source
  or the flags produces a new cache entry, never a stale load;
* built next to the final name and atomically renamed, so concurrent
  processes (pytest-xdist, batch workers) never load a half-written object.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

__all__ = ["build", "cache_dir", "compiler_path", "BASE_CFLAGS"]

#: Compile flags, part of the cache key.  ``-ffp-contract=off`` matters:
#: with GCC's default (``fast``) a ``-O3 -march=native`` build may fuse the
#: float multiply-adds of the velocity update into FMAs, which changes the
#: intermediate rounding and breaks bit-parity with the NumPy ufunc path.
BASE_CFLAGS = (
    "-O3",
    "-march=native",
    "-ffp-contract=off",
    "-funroll-loops",
    "-shared",
    "-fPIC",
)

#: The compiled source first; the file it ``#include``\ s joins the hash.
_SOURCES = tuple(Path(__file__).with_name(n) for n in ("_fastpath.c", "_philox.c"))


def compiler_path() -> str | None:
    """The first available system C compiler, or ``None``."""
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def cache_dir() -> Path:
    """Per-user shared-object cache directory (not created here)."""
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return Path(tempfile.gettempdir()) / f"repro-native-{uid}"


def build() -> ctypes.CDLL | None:
    """The opened library, ``cache_dir()/fastpath-<hash>.so``.

    Compiles it first when the cache holds no build of the current sources
    and flags; only that compile needs a C compiler.  ``None`` when a
    compile is needed and there is no compiler, or the compile or the
    dlopen fails.
    """
    hasher = hashlib.sha256()
    for src in _SOURCES:
        hasher.update(src.read_bytes())
        hasher.update(b"\x00")
    hasher.update(" ".join(BASE_CFLAGS).encode())
    so_dir = cache_dir()
    so_path = so_dir / f"fastpath-{hasher.hexdigest()[:16]}.so"
    if not so_path.exists():
        cc = compiler_path()
        if cc is None:
            return None
        so_dir.mkdir(mode=0o700, parents=True, exist_ok=True)
        with tempfile.NamedTemporaryFile(dir=so_dir, suffix=".so", delete=False) as tmp:
            tmp_path = Path(tmp.name)
        cmd = [cc, *BASE_CFLAGS, "-o", str(tmp_path), str(_SOURCES[0])]
        try:
            subprocess.run(cmd, check=True, capture_output=True, timeout=120)
            os.replace(tmp_path, so_path)
        except (OSError, subprocess.SubprocessError):
            tmp_path.unlink(missing_ok=True)
            return None
    try:
        return ctypes.CDLL(str(so_path))
    except OSError:
        return None
