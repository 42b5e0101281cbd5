"""Host-side memoization for the launch/cost pipeline.

The analytic cost model only pays off if it is cheap to evaluate: a
steady-state PSO run launches the same handful of kernels with the same
geometry thousands of times, and recomputing occupancy/roofline arithmetic
for each one is pure host overhead — the simulator-side analogue of the
per-iteration setup the paper's technique (i) removes on the GPU.

Everything memoized here is a *pure* function of immutable (frozen
dataclass) inputs: :func:`repro.gpusim.occupancy.occupancy`,
:func:`repro.gpusim.launch.resource_aware_config` and
:func:`repro.gpusim.costmodel.kernel_cost`.  Cache keys are the argument
tuples themselves, so a different :class:`~repro.gpusim.device.DeviceSpec`
or :class:`~repro.gpusim.costmodel.GpuCostParams` is simply a different key
— there is no invalidation to get wrong, and simulated time is unaffected
by construction (cached values are bit-identical to recomputed ones).
These memos are the only launch-cost tables: engines and launchers keep
none of their own, so a fresh engine's first launch of a known shape is
already a hit.

Equal specs are one object: the device presets are module constants, and
:func:`intern` maps every kernel spec an engine builds for a run to a
process-wide canonical instance, so a memo hit compares its key by
identity instead of field by field.

Debugging escape hatches:

* set the environment variable ``REPRO_NO_HOST_CACHE=1`` before import, or
  call :func:`set_enabled` ``(False)`` at runtime, to route every call to
  the uncached implementation (:func:`intern` then returns its argument);
* each memoized function keeps its original as ``fn.uncached`` and exposes
  ``fn.cache_clear()`` / ``fn.cache_info()``; :func:`clear_all_caches`
  empties every registered cache and the intern table at once.
"""

from __future__ import annotations

import functools
import os
from typing import Callable, TypeVar

__all__ = [
    "memoized",
    "intern",
    "cache_enabled",
    "set_enabled",
    "clear_all_caches",
]

F = TypeVar("F", bound=Callable[..., object])

T = TypeVar("T")

_REGISTRY: list[Callable[..., object]] = []

#: Canonical instance of every interned value, keyed by itself.
_INTERNED: dict = {}

_enabled = os.environ.get("REPRO_NO_HOST_CACHE", "").lower() not in (
    "1",
    "true",
    "yes",
)


def cache_enabled() -> bool:
    """Whether the host-side memoization layer is active."""
    return _enabled


def set_enabled(flag: bool) -> None:
    """Enable/disable all host-side caches (for debugging and tests).

    Disabling does not drop cached entries; re-enabling reuses them.
    Call :func:`clear_all_caches` to actually empty the caches.
    """
    global _enabled
    _enabled = bool(flag)


def clear_all_caches() -> None:
    """Empty every cache registered via :func:`memoized` and the intern
    table."""
    for fn in _REGISTRY:
        fn.cache_clear()  # type: ignore[attr-defined]
    _INTERNED.clear()


def intern(obj: T) -> T:
    """The process-wide canonical instance equal to *obj* (a hashable,
    immutable value such as a frozen spec); the first one seen becomes it.

    Memo keys built from interned specs hit on identity, never on a
    field-by-field ``__eq__``.
    """
    if _enabled:
        return _INTERNED.setdefault(obj, obj)
    return obj


def memoized(fn: F) -> F:
    """Memoize a pure function of hashable (frozen-dataclass) arguments.

    The wrapper honours the global enable switch on every call and keeps
    the original implementation reachable as ``wrapper.uncached`` so tests
    can compare cached and uncached results directly.
    """
    cached = functools.lru_cache(maxsize=None)(fn)

    @functools.wraps(fn)
    def wrapper(*args: object, **kwargs: object) -> object:
        if _enabled:
            return cached(*args, **kwargs)
        return fn(*args, **kwargs)

    wrapper.uncached = fn  # type: ignore[attr-defined]
    wrapper.cache_clear = cached.cache_clear  # type: ignore[attr-defined]
    wrapper.cache_info = cached.cache_info  # type: ignore[attr-defined]
    _REGISTRY.append(wrapper)
    return wrapper  # type: ignore[return-value]
