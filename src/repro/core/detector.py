"""The iGUARD detector: an instrumentation tool running "on the GPU".

This is the paper's contribution assembled: on every load/store/atomic the
detector reads the access's metadata entry, updates the sharing flags, runs
the two-tier Table 2 checks, and writes the access back into the metadata;
on every synchronization operation it updates the live counters and the
lock tables.  Everything happens inline with (simulated) kernel execution
— there is no CPU-side pass — so detection work is charged as *parallel*
cycles, and only genuine metadata-lock contention is serialized.

Since the engine extraction, this class is a thin **adapter**: the Table 2
state machine itself lives in :class:`repro.core.engine.IGuardCore`, and
``IGuard`` keeps only what is *not* detection state — cycle charging, UVM
residency, metadata-lock contention, coalescing, per-launch statistics,
and the Tool lifecycle.  The adapter feeds its one core every event in
order, as the paper's in-line checks see them.

Performance features from the paper, all modeled:

- NVBit-style one-time binary analysis cost per kernel (Figure 13 "NVBit");
- metadata pre-faulting through UVM (Figure 14, "Setup" in Figure 13);
- opportunistic coalescing of same-warp, same-address loads/atomics —
  one representative thread checks on behalf of the converged group;
- dynamic exponential backoff on the per-entry metadata locks.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

# Re-exported for compatibility: these historically lived here and are
# imported by the baselines and experiment harnesses.
from repro.core.engine import DetectorCosts, IGuardCore, LaunchStats
from repro.core.config import DEFAULT_CONFIG, IGuardConfig
from repro.core.contention import ContentionModel, ContentionParams
from repro.core.uvm import ManagedMetadataSpace, UVMParams
from repro.common.budget import mem_budget
from repro.gpu.events import AccessKind, MemoryEvent, SyncEvent
from repro.instrument.nvbit import LaunchInfo, Tool
from repro.instrument.timing import Category
from repro.obs.metrics import HOT

__all__ = ["DetectorCosts", "LaunchStats", "IGuard"]


class IGuard(Tool):
    """iGUARD attached to a simulated device.

    Typical use::

        device = Device()
        detector = device.add_tool(IGuard())
        ... allocate, launch kernels ...
        for race in detector.races.sites():
            print(race)
    """

    name = "iGUARD"

    def __init__(
        self,
        config: IGuardConfig = DEFAULT_CONFIG,
        costs: Optional[DetectorCosts] = None,
        contention_params: Optional[ContentionParams] = None,
        uvm_params: Optional[UVMParams] = None,
    ):
        # Per-instance factories, not def-time defaults: a default built
        # at function definition would be one shared instance across every
        # detector ever constructed.
        self.config = config
        self.costs = costs if costs is not None else DetectorCosts()
        self.contention_params = (
            contention_params
            if contention_params is not None
            else ContentionParams()
        )
        self.uvm_params = uvm_params if uvm_params is not None else UVMParams()
        self.device = None
        self.core = IGuardCore(config, self.costs)
        self.races = self.core.races
        self.core.report_sink = self._report_sink
        # IGUARD_MEM_BUDGET: bound metadata growth by FIFO-evicting the
        # table.  Same degradation contract as metadata_max_entries —
        # bounded recall loss, never a false positive — set by the
        # operator as a memory ceiling instead of an entry count.
        budget = mem_budget()
        if budget is not None and config.metadata_max_entries is None:
            self.core.table.max_entries = max(
                1, budget // config.metadata_entry_bytes
            )
        self.stats: List[LaunchStats] = []
        self._launch: Optional[LaunchInfo] = None
        self._contention: Optional[ContentionModel] = None
        self._uvm: Optional[ManagedMetadataSpace] = None
        self._current: Optional[LaunchStats] = None
        self._coalesce_key: Optional[Tuple[int, int]] = None
        #: The launch's INSTRUMENTATION and DETECTION accounts, bound at
        #: launch begin so the per-event charges add to them directly.
        self._instrumentation = None
        self._detection = None
        self._probe = None

    # ------------------------------------------------------------------
    # Delegation: the detection state lives on the core
    # ------------------------------------------------------------------

    @property
    def table(self):
        """The metadata table."""
        return self.core.table

    @property
    def probe(self):
        """Forensic probe, forwarded to the core."""
        return self._probe

    @probe.setter
    def probe(self, probe) -> None:
        self._probe = probe
        self.core.probe = probe

    def _report_sink(self, record, md) -> bool:
        """Log the core's report and count it in the launch's stats."""
        if self.races.report(record):
            if self._current is not None:
                self._current.races_reported += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Tool lifecycle
    # ------------------------------------------------------------------

    def attach(self, device) -> None:
        self.device = device

    def on_launch_begin(self, launch: LaunchInfo) -> None:
        self._launch = launch
        self._coalesce_key = None
        self._current = LaunchStats(kernel=launch.kernel_name)
        self.stats.append(self._current)
        accounts = launch.timing.accounts
        self._instrumentation = accounts[Category.INSTRUMENTATION]
        self._detection = accounts[Category.DETECTION]
        # Fresh synchronization and memory metadata per kernel (see
        # IGuardCore._reset_for_launch).
        self.core.begin_launch(launch)

        # NVBit binary analysis and injection (the duration-proportional
        # share is charged at launch end, once native time is known).
        launch.timing.charge(
            Category.NVBIT,
            self.costs.nvbit_fixed
            + self.costs.nvbit_per_instruction * launch.static_instruction_count,
            serial=True,
        )

        # Metadata allocation: managed (UVM) or nothing to pre-fault.
        memory = launch.device.memory
        app_bytes = memory.bytes_allocated
        metadata_needed = app_bytes * 4  # 16 bytes per 4-byte granule
        self._uvm = ManagedMetadataSpace(
            metadata_virtual_bytes=metadata_needed,
            device_free_bytes=max(0, memory.capacity_bytes - app_bytes),
            prefault=self.config.prefault and self.config.use_uvm,
            params=self.uvm_params,
        )
        self._current.uvm_prefaulted_pages = self._uvm.prefaulted_pages
        launch.timing.charge(
            Category.SETUP,
            self.costs.setup_fixed + self._uvm.setup_cycles,
            serial=True,
        )
        launch.timing.charge(Category.MISC, self.costs.misc_fixed, serial=True)

        # Contention accounting for this launch.
        concurrent_warps = max(
            1,
            min(
                launch.num_warps,
                launch.device.config.max_concurrent_lanes // launch.warp_size,
            ),
        )
        self._contention = ContentionModel(
            num_threads=launch.num_threads,
            concurrent_warps=concurrent_warps,
            dynamic_backoff=self.config.dynamic_backoff,
            params=self.contention_params,
        )

    def on_launch_end(self, launch: LaunchInfo) -> None:
        self._finish(launch)

    def on_timeout(self, launch: LaunchInfo) -> None:
        # The paper's timeout path: flush detected races to the CPU, then
        # terminate the kernel.
        self._finish(launch)

    def _finish(self, launch: LaunchInfo) -> None:
        self.core.finish_launch(launch)
        # Duration-proportional host-side shares (see DetectorCosts).
        native = launch.timing.native_time
        launch.timing.charge(
            Category.NVBIT, self.costs.nvbit_fraction * native, serial=True
        )
        launch.timing.charge(
            Category.SETUP, self.costs.setup_fraction * native, serial=True
        )
        launch.timing.charge(
            Category.MISC, self.costs.misc_fraction * native, serial=True
        )
        if self._current is not None:
            self._current.contention_cycles = (
                self._contention.serialized_cycles if self._contention else 0.0
            )
            self._current.uvm_faults = self._uvm.faults if self._uvm else 0
            self._current.metadata_entries = len(self.core.table)

    # ------------------------------------------------------------------
    # Per-event callbacks
    # ------------------------------------------------------------------
    # Both add their cycles straight to the launch's bound accounts, in
    # event order: each account sees the same sequence of additions as
    # ``TimingBreakdown.charge`` would make, so float sums are unchanged.

    def on_sync(self, event: SyncEvent, launch: LaunchInfo) -> None:
        self._instrumentation.parallel += self.costs.instrument_per_event
        self._detection.parallel += self.costs.sync_per_event
        self.core.apply_sync(event, launch)

    def on_memory(self, event: MemoryEvent, launch: LaunchInfo) -> None:
        costs = self.costs
        core = self.core
        detection = self._detection
        self._instrumentation.parallel += costs.instrument_per_event

        # Lock inference precedes race checking (Figure 6's orange boxes).
        kind = event.kind
        if kind is AccessKind.ATOMIC:
            core.infer_locks(event)

        # Opportunistic coalescing: active threads of one warp loading (or
        # atomically updating) the same location cannot race with each
        # other, so a single representative performs the metadata access
        # on behalf of the converged group (section 6.5).  The key is the
        # granule index: the real implementation's warp match runs on the
        # *metadata* address, so converged lanes touching different bytes
        # of one granule coalesce into a single check of that granule's
        # entry.
        granule = core.table.granule_of(event.address)
        if self.config.coalescing and kind in (
            AccessKind.LOAD,
            AccessKind.ATOMIC,
        ):
            key = (event.batch, granule)
            if key == self._coalesce_key:
                self._current.accesses_coalesced += 1
                if HOT.enabled:
                    HOT.detector_coalesced.inc()
                detection.parallel += costs.coalesced_skip
                return
            self._coalesce_key = key
        else:
            self._coalesce_key = None

        # Metadata residency (UVM) and entry-lock contention, both serial.
        if self.config.use_uvm and self._uvm is not None:
            fault_cost = self._uvm.access(
                granule * self.config.metadata_entry_bytes
            )
            if fault_cost:
                if HOT.enabled:
                    HOT.detector_uvm_faults.inc()
                detection.serial += fault_cost
        if self._contention is not None:
            stall = self._contention.on_metadata_access(
                granule, event.batch, event.where.warp_id
            )
            if stall:
                if HOT.enabled:
                    HOT.contention_stalls.inc()
                    HOT.contention_cycles.inc(stall)
                detection.serial += stall
        detection.parallel += costs.check_per_access

        # Quarantines a poison event (one whose check raises) instead of
        # aborting the run.
        core.handle(event, granule, launch, self._current)

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------

    @property
    def race_count(self) -> int:
        """Number of unique racy sites detected so far."""
        return self.races.num_sites

    def race_types(self):
        """The set of race types detected so far."""
        return self.races.types()

    def summary(self) -> str:
        """Multi-line human-readable report of all detected races."""
        lines = [f"iGUARD: {self.race_count} race site(s) detected"]
        for ip, race_type in self.races.sites():
            lines.append(f"  [{race_type}] at {ip}")
        return "\n".join(lines)
