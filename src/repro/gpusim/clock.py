"""Simulated time base for a device.

The simulator never reads wall-clock time: every kernel launch, memory
transfer and allocation advances a :class:`SimClock` by a model-computed
duration.  Experiment harnesses read the clock to report "elapsed seconds"
exactly the way the paper reports nvprof timings.

The clock also supports nested named sections (:meth:`SimClock.section`) so
the per-step breakdowns of Figure 5 can be collected without threading a
profiler handle through every call site.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SimClock"]


@dataclass
class SimClock:
    """A monotonically advancing simulated clock with named sections.

    The clock can optionally *trace*: between :meth:`begin_trace` and
    :meth:`end_trace` every advance is also appended to a list of
    ``(section, seconds, dynamic)`` tuples.  Launch-graph capture
    (:mod:`repro.gpusim.graph`) uses this to record and validate the exact
    charge sequence of a steady-state iteration; tracing costs one ``is not
    None`` check per advance when off, and never changes the float
    accumulation itself.
    """

    now: float = 0.0
    section_totals: dict[str, float] = field(default_factory=dict)
    _stack: list[str] = field(default_factory=list, repr=False)
    _trace: "list[tuple[str | None, float, bool]] | None" = field(
        default=None, repr=False
    )
    # label -> its reusable section context manager (stateless, so nesting
    # the same label is fine).
    _sections: dict = field(default_factory=dict, repr=False, compare=False)

    def advance(self, seconds: float) -> float:
        """Advance simulated time by *seconds* (must be non-negative).

        The duration is attributed to the innermost active section, if any.
        Returns the new simulated time.
        """
        if seconds < 0.0:
            raise ValueError(f"cannot advance clock by negative time {seconds}")
        self.now += seconds
        label = None
        if self._stack:
            label = self._stack[-1]
            self.section_totals[label] = (
                self.section_totals.get(label, 0.0) + seconds
            )
        if self._trace is not None:
            self._trace.append((label, seconds, False))
        return self.now

    def advance_dynamic(self, seconds: float) -> float:
        """:meth:`advance`, but traced as a *dynamic* (data-dependent) charge.

        Identical float accumulation; the only difference is the marker in
        the capture trace, which tells graph validation that this slot's
        duration legitimately varies between iterations (e.g. the
        pbest-position copy, whose size is the number of improved
        particles).
        """
        if seconds < 0.0:
            raise ValueError(f"cannot advance clock by negative time {seconds}")
        self.now += seconds
        label = None
        if self._stack:
            label = self._stack[-1]
            self.section_totals[label] = (
                self.section_totals.get(label, 0.0) + seconds
            )
        if self._trace is not None:
            self._trace.append((label, seconds, True))
        return self.now

    def begin_trace(self) -> None:
        """Start recording every advance (see class docstring)."""
        self._trace = []

    def end_trace(self) -> list[tuple[str | None, float, bool]]:
        """Stop recording and return the captured charge sequence."""
        trace, self._trace = self._trace, None
        return trace if trace is not None else []

    @property
    def current_section(self) -> str | None:
        """Label of the innermost active section, or ``None`` outside any."""
        return self._stack[-1] if self._stack else None

    def section(self, label: str) -> "_Section":
        """Attribute clock advances inside the ``with`` body to *label*.

        Sections nest; time is charged to the innermost label only, so a
        parent section's total excludes its children (the harness sums them
        explicitly when it wants inclusive totals).
        """
        entered = self._sections.get(label)
        if entered is None:
            entered = self._sections[label] = _Section(self._stack, label)
        return entered

    def reset(self) -> None:
        """Zero the clock and drop all section totals."""
        self.now = 0.0
        self.section_totals.clear()
        self._stack.clear()
        self._trace = None

    def total(self, label: str) -> float:
        """Total seconds attributed to *label* (0.0 if never entered)."""
        return self.section_totals.get(label, 0.0)


class _Section:
    """The context manager of :meth:`SimClock.section` (a plain class: the
    eager iteration enters four sections, and a generator-based context
    manager costs several times more per entry)."""

    __slots__ = ("stack", "label")

    def __init__(self, stack: list, label: str) -> None:
        self.stack = stack
        self.label = label

    def __enter__(self) -> None:
        self.stack.append(self.label)

    def __exit__(self, *exc) -> bool:
        popped = self.stack.pop()
        assert popped == self.label, "section stack corrupted"
        return False
