"""The cost model, with the constants used in the paper's performance study.

Section 6 of the paper fixes the model precisely:

* block size 4 KB, 6 MB of memory available to each operator;
* seek time 10 ms, transfer time 2 ms/block for reads and 4 ms/block for
  writes, CPU cost 0.2 ms per block of data processed;
* intermediate results are pipelined (iterator model) and written to disk only
  when materialized for sharing, in which case the materialization cost is the
  cost of writing the result sequentially.

All costs are expressed in **seconds of estimated elapsed time**, as in the
paper's figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Any, Dict, NamedTuple, NoReturn, Tuple


class Cost(NamedTuple):
    """A cost broken into I/O and CPU components (both in seconds).

    A ``NamedTuple`` rather than a (frozen) dataclass: tens of thousands of
    instances are created per DAG build on the costing hot path, and tuple
    construction is several times cheaper than frozen-dataclass
    ``object.__setattr__`` initialization.  ``io``/``cpu``/``total``/``+``/
    ``scaled``/``float()`` behave as before; the one semantic widening is
    that a ``Cost`` now compares equal to a plain ``(io, cpu)`` tuple.
    Tuple *repetition* (``cost * n``), which would silently produce a
    4-tuple instead of a scaled cost, is blocked — use :meth:`scaled`.
    """

    io: float = 0.0
    cpu: float = 0.0

    def __mul__(self, factor: object) -> NoReturn:
        raise TypeError("Cost does not support *; use Cost.scaled(factor)")

    __rmul__ = __mul__

    @property
    def total(self) -> float:
        return self.io + self.cpu

    def __add__(self, other: "Cost") -> "Cost":
        return Cost(self.io + other.io, self.cpu + other.cpu)

    def scaled(self, factor: float) -> "Cost":
        return Cost(self.io * factor, self.cpu * factor)

    def __float__(self) -> float:
        return self.total


@dataclass(frozen=True)
class CostModel:
    """Cost primitives shared by the optimizer and the simulated executor.

    Instances are immutable; use :meth:`with_memory` to derive variants (the
    Section 6.4 memory-size study uses 6 MB, 32 MB, and 128 MB).
    """

    block_size: int = 4096
    memory_bytes: int = 6 * 1024 * 1024
    seek_time: float = 0.010
    read_time_per_block: float = 0.002
    write_time_per_block: float = 0.004
    cpu_time_per_block: float = 0.0002
    #: CPU cost charged per output tuple of an operator, modelling per-tuple
    #: evaluation overhead on top of the per-block charge.
    cpu_time_per_tuple: float = 0.0000002
    #: Random-I/O cost of one index probe (traversal + one leaf/data block).
    index_probe_ios: int = 2

    if TYPE_CHECKING:
        # Type-only declaration of the memo table and cached derived value
        # installed by __post_init__; guarded so the dataclass machinery does
        # not pick them up as fields.
        _memo: Dict[Tuple[Any, ...], Any]
        _memory_blocks: int

    def __post_init__(self) -> None:
        # Per-instance memo tables for the hottest pure primitives (``blocks``,
        # ``external_sort``, ``index_probe_cost``).  A DAG build prices every
        # join a node participates in, so the same (rows, width) pairs recur
        # hundreds of times; the tables are keyed on the full argument tuple
        # and the results are immutable, so hits are exact.  They live outside
        # the dataclass fields (``__eq__``/``__hash__``/``repr`` unaffected)
        # and are cleared when they grow past a bound so long-running services
        # cannot leak memory through unbounded distinct estimates.
        object.__setattr__(self, "_memo", {})
        # ``memory_blocks`` is probed several times per join costing; the
        # instance is frozen, so the derived value is fixed at construction.
        object.__setattr__(
            self, "_memory_blocks", max(3, self.memory_bytes // self.block_size)
        )

    def __getstate__(self) -> Dict[str, Any]:
        """The fields only: the memo tables are a process-local cache.

        Pickling them made the bytes of every session snapshot (which
        carries its cost model) depend on unrelated pricing done earlier in
        the same process by the shared :data:`DEFAULT_COST_MODEL`.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)  # repro-lint: ok(C002) unpickling initializes a fresh instance
        self.__post_init__()

    # The bound is enforced on the miss path of each memoized primitive (the
    # hit path is a bare dict probe — these run thousands of times per build).
    _MEMO_LIMIT = 1 << 16

    # -- derived ---------------------------------------------------------------
    @property
    def memory_blocks(self) -> int:
        """Number of buffer blocks available to one operator."""
        return self._memory_blocks

    def with_memory(self, memory_bytes: int) -> "CostModel":
        """Return a copy of the model with a different per-operator memory."""
        return replace(self, memory_bytes=memory_bytes)

    # -- primitives -------------------------------------------------------------
    def blocks(self, rows: float, tuple_width: float) -> int:
        """Number of blocks occupied by *rows* tuples of *tuple_width* bytes."""
        key = ("blocks", rows, tuple_width)
        memo = self._memo
        cached = memo.get(key)
        if cached is None:
            if rows <= 0:
                cached = 1
            else:
                per_block = max(1, int(self.block_size // max(1.0, tuple_width)))
                cached = max(1, int(math.ceil(rows / per_block)))
            if len(memo) > self._MEMO_LIMIT:
                memo.clear()
            memo[key] = cached
        return cached

    def cpu(self, blocks: float, rows: float = 0.0) -> Cost:
        """CPU cost of processing *blocks* blocks (plus optional per-tuple cost)."""
        return Cost(0.0, blocks * self.cpu_time_per_block + rows * self.cpu_time_per_tuple)

    def sequential_read(self, blocks: float) -> Cost:
        """Cost of sequentially reading *blocks* blocks (one initial seek)."""
        return Cost(self.seek_time + blocks * self.read_time_per_block, blocks * self.cpu_time_per_block)

    def sequential_write(self, blocks: float) -> Cost:
        """Cost of sequentially writing *blocks* blocks (one initial seek)."""
        return Cost(self.seek_time + blocks * self.write_time_per_block, blocks * self.cpu_time_per_block)

    def random_reads(self, count: float, blocks_each: float = 1.0) -> Cost:
        """Cost of *count* random accesses reading *blocks_each* blocks each."""
        io = count * (self.seek_time + blocks_each * self.read_time_per_block)
        return Cost(io, count * blocks_each * self.cpu_time_per_block)

    # -- composite primitives ------------------------------------------------
    def external_sort(self, blocks: float, rows: float) -> Cost:
        """Cost of an external merge sort of *blocks* blocks.

        A dataset that fits in memory is sorted at CPU cost only; otherwise
        the classic ``2 * blocks * passes`` I/O formula is used.
        """
        key = ("sort", blocks, rows)
        memo = self._memo
        cached = memo.get(key)
        if cached is None:
            cached = self._external_sort(blocks, rows)
            if len(memo) > self._MEMO_LIMIT:
                memo.clear()
            memo[key] = cached
        return cached

    def _external_sort(self, blocks: float, rows: float) -> Cost:
        if blocks <= self.memory_blocks:
            return self.cpu(blocks, rows)
        fan_in = max(2, self.memory_blocks - 1)
        runs = math.ceil(blocks / self.memory_blocks)
        passes = max(1, math.ceil(math.log(max(runs, 2), fan_in)))
        io_blocks = 2.0 * blocks * passes
        io = 2 * passes * self.seek_time + io_blocks * (
            (self.read_time_per_block + self.write_time_per_block) / 2.0
        )
        return Cost(io, io_blocks * self.cpu_time_per_block + rows * self.cpu_time_per_tuple)

    def nested_loops_spill_cost(self, outer_blocks: int, inner_blocks: int) -> Cost:
        """Spill + rescan I/O of a block nested-loops join with a buffered inner.

        The inner is written to a temporary once and re-read for every
        memory-full chunk of the outer.  Memoized: block counts quantize row
        estimates, so the same ``(outer_blocks, inner_blocks)`` pairs recur
        across the thousands of join costings of one DAG build.
        """
        key = ("bnl", outer_blocks, inner_blocks)
        memo = self._memo
        cached = memo.get(key)
        if cached is None:
            chunks = math.ceil(outer_blocks / max(1, self.memory_blocks - 2))
            cached = self.sequential_write(inner_blocks) + self.sequential_read(
                inner_blocks
            ).scaled(chunks)
            if len(memo) > self._MEMO_LIMIT:
                memo.clear()
            memo[key] = cached
        return cached

    def materialization_cost(self, rows: float, tuple_width: float) -> Cost:
        """Cost of writing a result to disk for sharing (sequential write)."""
        return self.sequential_write(self.blocks(rows, tuple_width))

    def reuse_cost(self, rows: float, tuple_width: float) -> Cost:
        """Cost of reading back a materialized result (sequential read)."""
        return self.sequential_read(self.blocks(rows, tuple_width))

    def index_build_cost(self, rows: float, tuple_width: float) -> Cost:
        """Cost of building a temporary index on a materialized result.

        Modelled as a sort of the key column plus writing the index blocks
        (keys + row ids, assumed 16 bytes per entry).
        """
        data_blocks = self.blocks(rows, tuple_width)
        index_blocks = self.blocks(rows, 16)
        sort = self.external_sort(index_blocks, rows)
        return sort + self.sequential_write(index_blocks) + self.cpu(data_blocks)

    def index_probe_cost(self, matching_rows: float, tuple_width: float) -> Cost:
        """Cost of one index lookup retrieving *matching_rows* rows."""
        key = ("probe", matching_rows, tuple_width)
        memo = self._memo
        cached = memo.get(key)
        if cached is None:
            matching_blocks = self.blocks(matching_rows, tuple_width) if matching_rows > 0 else 0
            blocks_read = self.index_probe_ios + max(0, matching_blocks - 1)
            cached = Cost(
                self.seek_time + blocks_read * self.read_time_per_block,
                blocks_read * self.cpu_time_per_block + matching_rows * self.cpu_time_per_tuple,
            )
            if len(memo) > self._MEMO_LIMIT:
                memo.clear()
            memo[key] = cached
        return cached


#: The default cost model instance used throughout the library.
DEFAULT_COST_MODEL = CostModel()
