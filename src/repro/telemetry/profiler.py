"""Cost-attribution profiler: modeled cycles by logical stack.

The paper's whole argument is *attribution* — Figure 2 / Table 1 count
where world switches come from, Table 7 counts what each hop costs.
This module turns one :class:`~repro.telemetry.TelemetrySession` into a
:class:`StackProfile`: modeled cycles, instructions, redirect calls and
per-kind boundary crossings attributed to logical stacks of the form::

    system / operation / path-step      e.g.  proxos/open/vmcall-entry

Frames come from the span tree (``category == "system"`` spans carry
the system and operation; any other span contributes its name) and the
transition instants attached to them (the path step: the label of
the trap-path row that recorded the instant, see
:data:`repro.systems.STEP_LABELS`, falling back to the raw event
kind).  Cycles not consumed by a span's children or instants stay on
the span's own stack as self time.  A counters-only session has no
spans, so its profile is empty.

Everything here is driven by **modeled** clocks and deterministic span
names, never host wall-clock, so the same workload produces
byte-identical output across runs.

Exports: collapsed-stack text (``flamegraph.pl`` input), speedscope
JSON (https://speedscope.app), and a cross-check of the profile's
per-kind crossing totals against the session's ``trace.events``
counters.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.systems import STEP_LABELS
from repro.telemetry import TelemetrySession
from repro.telemetry.spans import Span

#: Weight fields a stack can be collapsed by.
WEIGHTS = ("cycles", "instructions", "calls")

class _Entry:
    """Accumulated weights of one stack."""

    __slots__ = ("cycles", "instructions", "calls", "crossings")

    def __init__(self) -> None:
        self.cycles = 0
        self.instructions = 0
        self.calls = 0
        self.crossings: Dict[str, int] = {}

    def cross(self, kind: str, n: int = 1) -> None:
        self.crossings[kind] = self.crossings.get(kind, 0) + n


class StackProfile:
    """Modeled cost attributed to logical stacks."""

    def __init__(self, label: str = "profile") -> None:
        self.label = label
        self._entries: Dict[Tuple[str, ...], _Entry] = {}

    def _entry(self, stack: Tuple[str, ...]) -> _Entry:
        entry = self._entries.get(stack)
        if entry is None:
            entry = self._entries[stack] = _Entry()
        return entry

    # -- accumulation ---------------------------------------------------

    def add_span(self, span: Span, stack: Tuple[str, ...] = ()) -> None:
        """Attribute one span subtree under ``stack``."""
        stack = stack + _frames_for(span)
        entry = self._entry(stack)
        if span.category == "system":
            entry.calls += 1
        consumed_cycles = 0
        consumed_instructions = 0
        for event in span.events:
            args = event.args
            step = STEP_LABELS.get((event.name, args.get("detail", "")),
                                   event.name)
            cycles = args.get("cycles", 0) or 0
            instructions = args.get("instructions", 0) or 0
            leaf = self._entry(stack + (step,))
            leaf.cycles += cycles
            leaf.instructions += instructions
            leaf.cross(event.name)
            consumed_cycles += cycles
            consumed_instructions += instructions
        for child in span.children:
            self.add_span(child, stack)
            if child.cycles is not None:
                consumed_cycles += child.cycles
            if child.instructions is not None:
                consumed_instructions += child.instructions
        if span.cycles is not None:
            entry.cycles += max(0, span.cycles - consumed_cycles)
        if span.instructions is not None:
            entry.instructions += max(
                0, span.instructions - consumed_instructions)

    # -- queries --------------------------------------------------------

    def stacks(self) -> List[Tuple[str, ...]]:
        """Every stack, sorted (the canonical iteration order)."""
        return sorted(self._entries)

    def crossings_by_kind(self) -> Dict[str, int]:
        """Total attributed boundary crossings per event kind."""
        totals: Dict[str, int] = {}
        for entry in self._entries.values():
            for kind, n in entry.crossings.items():
                totals[kind] = totals.get(kind, 0) + n
        return {kind: totals[kind] for kind in sorted(totals)}

    def totals(self) -> Dict[str, int]:
        """Profile-wide weight totals."""
        return {
            "cycles": sum(e.cycles for e in self._entries.values()),
            "instructions": sum(e.instructions
                                for e in self._entries.values()),
            "calls": sum(e.calls for e in self._entries.values()),
            "crossings": sum(sum(e.crossings.values())
                             for e in self._entries.values()),
        }

    # -- exports --------------------------------------------------------

    def collapsed_stacks(self, weight: str = "cycles") -> str:
        """Collapsed-stack text, one ``frame;frame;frame N`` line per
        stack with a nonzero weight — the input format of
        ``flamegraph.pl`` and speedscope's importer.  Sorted by stack,
        so identical profiles serialize byte-identically."""
        if weight not in WEIGHTS:
            raise ValueError(f"weight must be one of {WEIGHTS}")
        lines = []
        for stack in self.stacks():
            value = getattr(self._entries[stack], weight)
            if value:
                lines.append(f"{';'.join(stack)} {value}")
        return "\n".join(lines) + ("\n" if lines else "")

    def speedscope(self, weight: str = "cycles") -> Dict[str, Any]:
        """The profile as a speedscope ``sampled`` document (one sample
        per stack, weighted by modeled ``weight``)."""
        if weight not in WEIGHTS:
            raise ValueError(f"weight must be one of {WEIGHTS}")
        frame_index: Dict[str, int] = {}
        samples: List[List[int]] = []
        weights: List[int] = []
        for stack in self.stacks():
            value = getattr(self._entries[stack], weight)
            if not value:
                continue
            sample = []
            for frame in stack:
                index = frame_index.get(frame)
                if index is None:
                    index = frame_index[frame] = len(frame_index)
                sample.append(index)
            samples.append(sample)
            weights.append(value)
        total = sum(weights)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "name": self.label,
            "activeProfileIndex": 0,
            "exporter": "repro.telemetry.profiler",
            "shared": {"frames": [{"name": name} for name in frame_index]},
            "profiles": [{
                "type": "sampled",
                "name": f"{self.label} (modeled {weight})",
                "unit": "none",
                "startValue": 0,
                "endValue": total,
                "samples": samples,
                "weights": weights,
            }],
        }


def _system_frame(system: str, variant: str) -> str:
    """The stack frame of one case-study system: the original design
    keeps the bare name (``proxos``, matching the paper's Figure-2
    vocabulary), the CrossOver-optimized variant is suffixed."""
    frame = system.lower()
    if variant == "optimized":
        frame += "+crossover"
    return frame


def _frames_for(span: Span) -> Tuple[str, ...]:
    """The stack frames one span contributes."""
    if span.category == "system":
        system = span.name.partition(".")[0]
        variant = str(span.args.get("variant", "original"))
        return (_system_frame(system, variant),
                str(span.args.get("op", "?")))
    return (span.name,)


def profile_session(session: TelemetrySession,
                    label: Optional[str] = None) -> StackProfile:
    """Build the :class:`StackProfile` of a session's span forest."""
    profile = StackProfile(label if label is not None else session.label)
    for root in session.tracer.roots:
        profile.add_span(root)
    return profile


def crosscheck(session: TelemetrySession,
               profile: Optional[StackProfile] = None) -> List[str]:
    """Verify the profile agrees with the session's flat counters.

    Every boundary crossing the profile attributes was forwarded to the
    metrics registry too, so per kind the profile total can never
    exceed the ``trace.events`` counter; when a span session's tracer
    dropped nothing, the two views must match exactly.  Returns human-readable mismatch strings (empty = clean).
    """
    if profile is None:
        profile = profile_session(session)
    errors: List[str] = []
    counted: Dict[str, int] = {}
    for key, counter in session.metrics.family("trace.events").items():
        counted[dict(key).get("kind", "?")] = counter.value
    attributed = profile.crossings_by_kind()
    exact = session.spans and session.tracer.dropped == 0
    for kind in sorted(set(counted) | set(attributed)):
        have = attributed.get(kind, 0)
        want = counted.get(kind, 0)
        if have > want:
            errors.append(
                f"profile attributes {have} {kind!r} crossings but the "
                f"session counted only {want}")
        elif exact and have != want:
            errors.append(
                f"profile attributes {have} {kind!r} crossings, session "
                f"counted {want}, and nothing was dropped")
    return errors


def write_profile(profile: StackProfile, outdir: str,
                  prefix: str = "") -> Dict[str, str]:
    """Write ``<prefix>stacks.collapsed`` and ``<prefix>speedscope.json``
    under ``outdir``; returns the paths."""
    os.makedirs(outdir, exist_ok=True)
    paths = {
        "stacks": os.path.join(outdir, f"{prefix}stacks.collapsed"),
        "speedscope": os.path.join(outdir, f"{prefix}speedscope.json"),
    }
    with open(paths["stacks"], "w") as fh:
        fh.write(profile.collapsed_stacks())
    with open(paths["speedscope"], "w") as fh:
        json.dump(profile.speedscope(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return paths
