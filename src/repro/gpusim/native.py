"""Shared loader for the optional native (C) fast paths.

Two C modules ride on this machinery: ``_philox.c`` (the Philox RNG
fills, SIMD for float32) and ``_fastpath.c`` (the whole captured PSO
iteration as one call, plus the tensor-core backend's fp16 fragment
product).  Both follow one convention, implemented here exactly once:

* compiled on demand with the system C compiler (``cc``/``gcc``/``clang``)
  into a per-user cache directory (``$TMPDIR/repro-native-<uid>``), keyed by
  a hash of *all* source files plus the extra compile flags — editing either
  source or the flags produces a new cache entry, never a stale load;
* built next to the final name and atomically renamed, so concurrent
  processes (pytest-xdist, batch workers) never load a half-written object;
* bound through :mod:`ctypes` with raw ``void*`` addresses for array
  arguments (callers pass ``arr.ctypes.data`` ints — no per-call wrapper
  objects on hot paths);
* gated by a ``REPRO_NO_NATIVE_*`` environment variable that is re-checked
  on **every** :meth:`NativeModule.load` call, so tests and benchmarks can
  toggle lanes within one process;
* verified by a known-answer self-test before first use.  No compiler, a
  failed compile, a missing symbol or a failed self-test all silently fall
  back to the pure-Python path — the two paths are bit-identical by
  contract, so which one runs is invisible except in wall-clock time.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Sequence

__all__ = ["NativeModule", "compiler_path", "BASE_CFLAGS"]

#: Flags shared by every native module.  ``-ffp-contract=off`` matters: with
#: GCC's default (``fast``) a ``-O3 -march=native`` build may fuse the
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

#: Tri-state cache sentinel: not yet attempted / None (unavailable) / CDLL.
_UNSET = object()


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


class NativeModule:
    """One compile-on-demand C module: sources -> cached .so -> bound fns.

    Parameters
    ----------
    name:
        Cache-file stem (``<name>-<hash>.so``).
    sources:
        Source files; the first is compiled, the rest are ``#include``\\ d by
        it and participate only in the cache hash.
    env_gate:
        Environment variable that disables the module when set (checked on
        every :meth:`load`).
    fn_specs:
        ``{symbol: (restype, argtypes)}`` bound onto the library handle.
    self_test:
        Optional ``lib -> bool`` known-answer check; a falsy result (or any
        exception) rejects the library.
    """

    def __init__(
        self,
        name: str,
        sources: Sequence[os.PathLike | str],
        *,
        env_gate: str,
        fn_specs: dict[str, tuple[object, list]],
        self_test: Callable[[ctypes.CDLL], bool] | None = None,
    ) -> None:
        self.name = name
        self.sources = tuple(Path(s) for s in sources)
        self.env_gate = env_gate
        self.fn_specs = dict(fn_specs)
        self.self_test = self_test
        self._lib: object = _UNSET

    # -- build ---------------------------------------------------------------
    def _build(self) -> ctypes.CDLL | None:
        cc = compiler_path()
        if cc is None:
            return None
        hasher = hashlib.sha256()
        for src in self.sources:
            hasher.update(src.read_bytes())
            hasher.update(b"\x00")
        hasher.update(" ".join(BASE_CFLAGS).encode())
        tag = hasher.hexdigest()[:16]
        so_dir = cache_dir()
        so_path = so_dir / f"{self.name}-{tag}.so"
        if not so_path.exists():
            so_dir.mkdir(mode=0o700, parents=True, exist_ok=True)
            with tempfile.NamedTemporaryFile(
                dir=so_dir, suffix=".so", delete=False
            ) as tmp:
                tmp_path = Path(tmp.name)
            cmd = [cc, *BASE_CFLAGS, "-o", str(tmp_path), str(self.sources[0])]
            try:
                subprocess.run(cmd, check=True, capture_output=True, timeout=120)
                os.replace(tmp_path, so_path)
            except (OSError, subprocess.SubprocessError):
                tmp_path.unlink(missing_ok=True)
                return None
        try:
            lib = ctypes.CDLL(str(so_path))
        except OSError:
            return None
        try:
            for fn_name, (restype, argtypes) in self.fn_specs.items():
                fn = getattr(lib, fn_name)
                fn.restype = restype
                fn.argtypes = argtypes
        except AttributeError:
            return None
        return lib

    # -- public --------------------------------------------------------------
    def load(self) -> ctypes.CDLL | None:
        """The bound library handle, or ``None`` when unavailable/disabled.

        The environment gate is consulted before the cache, so flipping it
        mid-process takes effect on the next call; the compile/bind/self-test
        result itself is cached for the life of the process.
        """
        if os.environ.get(self.env_gate):
            return None
        if self._lib is not _UNSET:
            return self._lib  # type: ignore[return-value]
        lib = None
        if all(src.exists() for src in self.sources):
            try:
                lib = self._build()
                if (
                    lib is not None
                    and self.self_test is not None
                    and not self.self_test(lib)
                ):
                    lib = None
            except Exception:
                lib = None
        self._lib = lib
        return lib

    def available(self) -> bool:
        return self.load() is not None

    def invalidate(self) -> None:
        """Drop the cached handle so the next :meth:`load` re-resolves.

        Test hook: combined with monkeypatching :func:`shutil.which` or the
        environment gate it exercises the fallback paths in-process.
        """
        self._lib = _UNSET
