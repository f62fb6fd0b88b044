"""Reimplementations of the paper's case-study systems (Section 6).

Each system comes in two variants:

* **baseline** — the published design: every cross-VM interaction
  bounces through the hypervisor (hypercalls, virtual-interrupt
  injection, VM scheduling, full buffer copies, or — for Tahoma — an
  XML RPC over a virtual TCP link);
* **optimized** — the same functionality over VMFUNC cross-world calls
  (Section 4.3), or over full CrossOver ``world_call`` when the machine
  has the extension.

``pathmodels`` additionally encodes the static transition paths of all
eleven Table-1 systems for the survey reproduction.
"""

from repro.core import crossvm
from repro.hypervisor.paths import TRAP_AND_INJECT, step_labels
from repro.systems import (hypershell, overshadow, proxos, shadowcontext,
                           splitdriver, tahoma)
from repro.systems.base import CrossWorldSystem, SystemRedirector
from repro.systems.proxos import Proxos
from repro.systems.hypershell import HyperShell
from repro.systems.tahoma import Tahoma
from repro.systems.shadowcontext import ShadowContext
from repro.systems.fuse import UserSpaceFS
from repro.systems.minibox import MiniBox
from repro.systems.overshadow import Overshadow
from repro.systems.splitdriver import SplitDriver

#: Every single-body trap round trip, and the profiler's path-step
#: labels read off their rows.
TRAP_PATHS = (proxos.TRAP_PATH, shadowcontext.TRAP_PATH,
              hypershell.TRAP_PATH, tahoma.TRAP_PATH, overshadow.TRAP_PATH,
              *splitdriver.TRAP_PATHS.values(), crossvm.BASELINE_PATH,
              crossvm.LEGACY_PATH, TRAP_AND_INJECT)
STEP_LABELS = step_labels(TRAP_PATHS)

__all__ = [
    "CrossWorldSystem",
    "SystemRedirector",
    "Proxos",
    "HyperShell",
    "Tahoma",
    "ShadowContext",
    "UserSpaceFS",
    "MiniBox",
    "Overshadow",
    "SplitDriver",
]
