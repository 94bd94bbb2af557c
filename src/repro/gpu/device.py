"""The simulated GPU device: allocation, kernel launch, instrumentation.

:class:`Device` ties the substrate together.  It owns the global memory,
the event bus carrying the instrumentation stream, and the cost
accounting; ``launch()`` spins up one
:class:`~repro.gpu.kernel.KernelThread` per thread of the grid, hands
them to a scheduler, and executes instructions on their behalf while
publishing every event on the bus.  Attached tools are bus sinks —
``device.tools`` aliases the bus's sink list, so both ``add_tool`` and
direct appends keep working.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.engine.bus import EventBus
from repro.errors import LaunchError
from repro.gpu.arch import GPUConfig, TITAN_RTX
from repro.gpu.costs import CostParams, DEFAULT_COSTS, effective_parallelism
from repro.gpu.events import AccessKind, MemoryEvent, SyncEvent, SyncKind
from repro.gpu.ids import locate, warps_in_block
from repro.gpu.instructions import (
    Atomic,
    Compute,
    Fence,
    Load,
    Scope,
    Store,
    Syncthreads,
    Syncwarp,
)
from repro.gpu.kernel import KernelThread, ThreadCtx
from repro.gpu.memory import GlobalArray, GlobalMemory
from repro.gpu.scheduler import Scheduler, SchedulerKind
from repro.instrument.nvbit import LaunchInfo, Tool
from repro.instrument.timing import Category, TimingBreakdown
from repro.obs.spans import TRACER, now_us

#: ``Scope.effective`` by raw scope value: system collapses to device.
_EFFECTIVE_SCOPE = tuple(s.effective for s in Scope)


@dataclass
class KernelRun:
    """The result of one kernel launch."""

    kernel_name: str
    grid_dim: int
    block_dim: int
    num_threads: int
    batches: int
    instructions: int
    timed_out: bool
    timing: TimingBreakdown

    @property
    def native_time(self) -> float:
        return self.timing.native_time

    @property
    def total_time(self) -> float:
        return self.timing.total_time

    @property
    def overhead(self) -> float:
        """Slowdown relative to uninstrumented execution."""
        return self.timing.overhead


class Device:
    """A simulated GPU.

    Args:
        config: hardware description (defaults to the paper's Titan RTX).
        weak_visibility: enable the store-buffer memory mode so that scoped
            races can return stale values (examples only; detection does
            not rely on it).
        costs: the cycle-cost table used for all performance accounting.
    """

    def __init__(
        self,
        config: GPUConfig = TITAN_RTX,
        weak_visibility: bool = False,
        costs: CostParams = DEFAULT_COSTS,
    ):
        self.config = config
        self.costs = costs
        self.memory = GlobalMemory(config.memory_bytes, weak_visibility)
        self.bus = EventBus()
        #: Alias of ``bus.sinks`` — the same list object, so legacy code
        #: appending tools directly still hooks into event dispatch.
        self.tools: List[Tool] = self.bus.sinks
        self.runs: List[KernelRun] = []
        self.memory.alloc_hooks.append(self.bus.publish_alloc)
        #: Optional fault-injection mutator (repro.faults.mutators); when
        #: set, every launched thread offers its instruction stream to it.
        self.mutator = None

    # ------------------------------------------------------------------
    # Tools and allocation
    # ------------------------------------------------------------------

    def add_tool(self, tool: Tool) -> Tool:
        """Attach an instrumentation tool (e.g. an iGUARD detector)."""
        return self.bus.add_sink(tool, self)

    def add_sink(self, sink):
        """Register any bus sink (a Tool, ToolSink, TraceSink, ...)."""
        return self.bus.add_sink(sink, self)

    def alloc(self, name: str, num_words: int, init=0) -> GlobalArray:
        """``cudaMalloc`` + optional ``cudaMemset``: allocate a global array."""
        return self.memory.alloc(name, num_words, init)

    # ------------------------------------------------------------------
    # Launch
    # ------------------------------------------------------------------

    def launch(
        self,
        kernel_fn,
        grid_dim: int,
        block_dim: int,
        args: Tuple = (),
        seed: int = 0,
        scheduler: Optional[SchedulerKind] = None,
        max_batches: int = 2_000_000,
        split_probability: float = 0.25,
    ) -> KernelRun:
        """Launch ``kernel_fn`` over ``grid_dim`` blocks of ``block_dim`` threads.

        Returns a :class:`KernelRun`; if the step budget expires (a racy
        kernel livelocking, section 5), the run is flagged ``timed_out``
        and attached detectors have flushed their race reports.
        """
        if block_dim < 1 or block_dim > self.config.max_threads_per_block:
            raise LaunchError(
                f"block_dim {block_dim} outside [1, "
                f"{self.config.max_threads_per_block}]"
            )
        if grid_dim < 1:
            raise LaunchError(f"grid_dim must be >= 1, got {grid_dim}")
        if scheduler is None:
            scheduler = (
                SchedulerKind.ITS
                if self.config.supports_its
                else SchedulerKind.LOCKSTEP
            )
        if scheduler is SchedulerKind.ITS and not self.config.supports_its:
            raise LaunchError(f"{self.config.name} does not support ITS")

        warp_size = self.config.warp_size
        num_threads = grid_dim * block_dim
        threads = []
        for global_tid in range(num_threads):
            loc = locate(global_tid, block_dim, warp_size)
            ctx = ThreadCtx(loc, block_dim, grid_dim, warp_size)
            threads.append(
                KernelThread(kernel_fn, ctx, args, mutator=self.mutator)
            )

        timing = TimingBreakdown(
            parallelism=effective_parallelism(
                num_threads, self.config.max_concurrent_lanes
            )
        )
        launch = LaunchInfo(
            kernel_name=getattr(kernel_fn, "__name__", "kernel"),
            grid_dim=grid_dim,
            block_dim=block_dim,
            warp_size=warp_size,
            warps_per_block=warps_in_block(block_dim, warp_size),
            num_threads=num_threads,
            timing=timing,
            device=self,
            seed=seed,
            static_instruction_count=len(kernel_fn.__code__.co_code) // 2,
        )
        self.bus.publish_launch_begin(launch)

        engine = Scheduler(
            threads,
            warp_size=warp_size,
            kind=scheduler,
            seed=seed,
            max_batches=max_batches,
            split_probability=split_probability,
        )
        executor = _Executor(self, launch)
        span_start = now_us() if TRACER.enabled else 0.0
        engine.run(executor)
        if TRACER.enabled:
            TRACER.add_complete(
                f"launch:{launch.kernel_name}",
                span_start,
                now_us() - span_start,
                cat="launch",
                tid=TRACER.tid_for("launches"),
                args={
                    "seed": seed,
                    "grid_dim": grid_dim,
                    "block_dim": block_dim,
                    "batches": engine.batch_counter,
                    "timed_out": engine.timed_out,
                },
            )
            self._emit_warp_activity(launch, engine)
        self.memory.flush_all()

        if engine.timed_out:
            self.bus.publish_timeout(launch)
        else:
            self.bus.publish_launch_end(launch)

        run = KernelRun(
            kernel_name=launch.kernel_name,
            grid_dim=grid_dim,
            block_dim=block_dim,
            num_threads=num_threads,
            batches=engine.batch_counter,
            instructions=executor.instruction_count,
            timed_out=engine.timed_out,
            timing=timing,
        )
        self.runs.append(run)
        self.bus.publish_kernel_end(run, launch)
        return run

    @staticmethod
    def _emit_warp_activity(launch: LaunchInfo, engine: Scheduler) -> None:
        """Per-warp activity spans on the synthetic "simulated time" track.

        Timestamps are scheduler batch indices, not microseconds — the
        span shows *when in the interleaving* each warp was live, which
        is the shape races hide in.  A synthetic pid keeps these off the
        wall-clock tracks.
        """
        activity = engine.span_activity
        if not activity:
            return
        pid = TRACER.synthetic_pid("simulated time (batches)")
        for warp_id, (first, last) in sorted(activity.items()):
            TRACER.add_complete(
                f"{launch.kernel_name} w{warp_id}",
                float(first),
                float(max(1, last - first)),
                cat="warp",
                pid=pid,
                tid=warp_id,
                args={"seed": launch.seed},
            )


class _Executor:
    """The scheduler's machine interface for one launch.

    The hot path dispatches on ``type(instr)`` and adds each instruction's
    price from ``CostParams.prices`` straight to the launch's shared NATIVE
    account, in instruction order, so the float sums equal those of
    ``TimingBreakdown.charge``.  Everything a call would otherwise re-resolve
    per instruction (the account, the memory, the bus publishers) is bound
    once per launch.
    """

    __slots__ = (
        "launch", "instruction_count", "_native", "_prices", "_memory",
        "_publish_memory", "_publish_sync",
    )

    def __init__(self, device: Device, launch: LaunchInfo):
        self.launch = launch
        self.instruction_count = 0
        self._native = launch.timing.accounts[Category.NATIVE]
        self._prices = device.costs.prices
        self._memory = device.memory
        self._publish_memory = device.bus.publish_memory
        self._publish_sync = device.bus.publish_sync

    # -- memory / fence / compute --------------------------------------

    def exec_instruction(self, thread: KernelThread, instr, active_mask, batch):
        kind = type(instr)
        self.instruction_count += 1
        loc = thread.ctx.location

        if kind is Atomic:
            scope = instr.scope
            self._native.parallel += self._prices[Atomic][scope]
            address = instr.address
            op = instr.op
            value = instr.value
            compare = instr.compare
            old = self._memory.device_atomic(
                op, address, value, loc.block_id, scope=scope, compare=compare
            )
            self._publish_memory(
                MemoryEvent(
                    AccessKind.ATOMIC, address, loc, thread.pending_ip,
                    active_mask, _EFFECTIVE_SCOPE[scope], op, value, old,
                    compare, batch,
                ),
                self.launch,
            )
            return old

        if kind is Load:
            self._native.parallel += self._prices[Load][0]
            address = instr.address
            value = self._memory.device_load(address, loc.block_id)
            self._publish_memory(
                MemoryEvent(
                    AccessKind.LOAD, address, loc, thread.pending_ip,
                    active_mask, Scope.DEVICE, None, None, value, None, batch,
                ),
                self.launch,
            )
            return value

        if kind is Store:
            self._native.parallel += self._prices[Store][0]
            address = instr.address
            value = instr.value
            self._memory.device_store(address, value, loc.block_id)
            self._publish_memory(
                MemoryEvent(
                    AccessKind.STORE, address, loc, thread.pending_ip,
                    active_mask, Scope.DEVICE, None, value, None, None, batch,
                ),
                self.launch,
            )
            return None

        if kind is Compute:
            self._native.parallel += self._prices[Compute][0] * instr.cycles
            return None

        if kind is Fence:
            scope = instr.scope
            self._native.parallel += self._prices[Fence][scope]
            effective = _EFFECTIVE_SCOPE[scope]
            memory = self._memory
            if memory.weak_visibility and effective is Scope.DEVICE:
                memory.flush_block(loc.block_id)
            self._publish_sync(
                SyncEvent(
                    SyncKind.FENCE, loc, thread.pending_ip, active_mask,
                    effective, batch,
                ),
                self.launch,
            )
            return None

        raise TypeError(f"unhandled instruction {instr!r}")  # pragma: no cover

    # -- barriers --------------------------------------------------------

    def on_block_barrier(self, block_id: int, threads, batch: int) -> None:
        self._barrier(SyncKind.SYNCTHREADS, Syncthreads, threads, batch)

    def on_warp_barrier(self, warp_id: int, threads, batch: int) -> None:
        self._barrier(SyncKind.SYNCWARP, Syncwarp, threads, batch)

    def _barrier(self, kind: SyncKind, instr_class, threads, batch: int) -> None:
        self._native.parallel += self._prices[instr_class][0] * len(threads)
        self.instruction_count += len(threads)
        lead = threads[0]
        self._publish_sync(
            SyncEvent(
                kind, lead.ctx.location, lead.pending_ip,
                frozenset(t.ctx.lane for t in threads), Scope.BLOCK, batch,
            ),
            self.launch,
        )
