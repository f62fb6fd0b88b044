"""Adaptive per-site mechanism selection (the configless controller).

The policy watches every dispatch through the seam in
``core/call.py``/``core/crossvm.py`` and keeps one sliding window per
(site kind, caller, callee) tuple, measured in *modeled* cycles — never
wall-clock — so decisions are a pure function of the workload and its
seed.  At each window boundary it may flip the site:

* ``world_call`` -> ``switchless`` when the observed call rate reaches
  :data:`FLIP_CALLS` per window and ring occupancy (service cycles over
  the window) stays under :data:`OCCUPANCY_CEILING` — a hot site whose
  worker can keep up without queueing;
* ``switchless`` -> ``world_call`` when the rate collapses (under a
  quarter of :data:`FLIP_CALLS`) or the cold-call ratio exceeds
  :data:`COLD_RATIO_CEILING` — paying futex wakeups per call is worse
  than just switching worlds.

Every flip is appended to a decision log so tests (and the campaign
artifact) can assert that the same seed yields the identical sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: A dispatch site: (kind, caller identity, callee identity).
Site = Tuple[str, object, object]

#: Window width on the modeled-cycle clock (shared with the engine's
#: auto-tuner).
WINDOW_CYCLES = 1_000_000
#: Calls per window that make a site hot enough to flip to switchless.
FLIP_CALLS = 32
#: Highest ring occupancy (service cycles over the window) at which a
#: hot site may still flip.
OCCUPANCY_CEILING = 0.9
#: Cold-call ratio above which a switchless site flips back.
COLD_RATIO_CEILING = 0.25


@dataclass
class SiteState:
    """Per-site sliding-window counters and the current mechanism."""

    window_start: int = 0
    mechanism: str = "world_call"
    calls: int = 0
    cold: int = 0
    service_cycles: int = 0
    windows: int = 0


class AdaptivePolicy:
    """Flips hot (site, caller, callee) tuples between mechanisms."""

    def __init__(self) -> None:
        self.sites: Dict[Site, SiteState] = {}
        #: Decision log: (site label, new mechanism, modeled cycles).
        self.flips: List[Tuple[str, str, int]] = []

    # ------------------------------------------------------------------
    # the per-call hot path (pure bookkeeping, no simulated charges)
    # ------------------------------------------------------------------

    def decide(self, site: Site, cycles: int) -> str:
        """Record one call arrival and return the site's mechanism."""
        state = self.sites.get(site)
        if state is None:
            state = self.sites[site] = SiteState(window_start=cycles)
        elif cycles < state.window_start:
            # The modeled clock ran backwards: this site's anchor came
            # from a previous machine.  Re-anchor without judging the
            # torn window (its counters mix two clock domains).
            state.window_start = cycles
            state.calls = 0
            state.cold = 0
            state.service_cycles = 0
        elif cycles - state.window_start >= WINDOW_CYCLES:
            self._roll(site, state, cycles)
        state.calls += 1
        return state.mechanism

    def note_service(self, site: Site, service_cycles: int,
                     cold: bool) -> None:
        """Feed back how a switchless-served call went."""
        state = self.sites.get(site)
        if state is not None:
            state.service_cycles += service_cycles
            if cold:
                state.cold += 1

    # ------------------------------------------------------------------
    # window boundaries
    # ------------------------------------------------------------------

    def _roll(self, site: Site, state: SiteState, cycles: int) -> None:
        window = cycles - state.window_start
        occupancy = state.service_cycles / window if window else 0.0
        cold_ratio = state.cold / state.calls if state.calls else 0.0
        new = state.mechanism
        if state.mechanism == "world_call":
            if state.calls >= FLIP_CALLS and occupancy <= OCCUPANCY_CEILING:
                new = "switchless"
        else:
            if state.calls < FLIP_CALLS // 4 or \
                    cold_ratio > COLD_RATIO_CEILING:
                new = "world_call"
        if new != state.mechanism:
            state.mechanism = new
            self.flips.append((self.site_label(site), new, cycles))
        state.windows += 1
        state.window_start = cycles
        state.calls = 0
        state.cold = 0
        state.service_cycles = 0

    def drop_world(self, wid: int) -> None:
        """Forget every world-call site touching a revoked WID.

        Surgical (per-world, not per-policy): sites for other callers
        and callees keep their mechanism, window anchors and counters,
        so a revocation in one tenant cannot disturb another tenant's
        flips.  The flip *log* is history and is kept.
        """
        for site in [s for s in self.sites
                     if s[0] == "world" and wid in (s[1], s[2])]:
            del self.sites[site]

    def rebase(self) -> None:
        """Restart every site's window at cycle zero.

        Called when the engine moves to a fresh machine (whose modeled
        clock restarts), so stale window anchors from the previous
        machine cannot wedge the boundary check.
        """
        for state in self.sites.values():
            state.window_start = 0
            state.calls = 0
            state.cold = 0
            state.service_cycles = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @staticmethod
    def site_label(site: Site) -> str:
        return ":".join(str(part) for part in site)

    def mechanism_of(self, site: Site) -> str:
        state = self.sites.get(site)
        return state.mechanism if state is not None else "world_call"

    def snapshot(self) -> Dict[str, object]:
        """Deterministic summary for artifacts and tests."""
        return {
            "flips": [list(flip) for flip in self.flips],
            "sites": {self.site_label(site): state.mechanism
                      for site, state in sorted(self.sites.items(),
                                                key=lambda kv: str(kv[0]))},
        }
