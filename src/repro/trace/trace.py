"""Trace recording and queries.

Serialization formats.  Version 2 (what :meth:`Trace.save` writes) is a
JSON header line carrying ``format``/``version``/``n_threads``/
``n_events`` followed by one *framed* record per line::

    <payload-byte-length>:<crc32-8hex>:<json-array-payload>

The length+checksum framing makes corruption detectable per record, so
:meth:`Trace.salvage_load` can skip damaged records, resynchronize on
the next line, and report exactly what was lost
(:class:`SalvageReport`) instead of raising.  Version 1 files (bare
JSON-array lines, header without a ``version`` key) are still read by
both loaders.  Strict loading failures raise :class:`TraceLoadError`
carrying the file path, byte offset, and record index.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.isa.program import Program
from repro.machine.batch import (DEFAULT_BATCH_SIZE, ROW_FIELDS, EventBatch,
                                 event_row)
from repro.machine.events import (
    EV_LOAD, EV_STORE, N_KINDS, Event, MachineObserver,
)

#: the fields of one saved record: every row field but ``loc``
_RECORD_FIELDS = tuple(name for name in ROW_FIELDS if name != "loc")


class TraceLoadError(ValueError):
    """A malformed trace file, located precisely.

    Attributes:
        path: the file that failed to load.
        byte_offset: offset of the offending line's first byte.
        record_index: 0-based record number (-1 for the header).
    """

    def __init__(self, path: str, byte_offset: int, record_index: int,
                 reason: str) -> None:
        what = ("header" if record_index < 0
                else f"record {record_index}")
        super().__init__(
            f"{path}: {what} at byte {byte_offset}: {reason}")
        self.path = path
        self.byte_offset = byte_offset
        self.record_index = record_index


@dataclass
class SalvageReport:
    """What :meth:`Trace.salvage_load` recovered from a damaged file.

    ``records_lost`` is how far short of the header's ``n_events`` the
    recovery fell (covers truncation: records that are simply *gone*,
    not present-but-damaged); ``records_skipped`` counts lines that were
    present but undecodable.
    """

    path: str
    records_read: int = 0
    records_skipped: int = 0
    records_lost: int = 0
    header_ok: bool = True

    @property
    def clean(self) -> bool:
        return (self.header_ok and self.records_skipped == 0
                and self.records_lost == 0)

    def describe(self) -> str:
        if self.clean:
            return (f"salvage: {self.path}: clean, "
                    f"{self.records_read} records")
        parts = [f"{self.records_read} read",
                 f"{self.records_skipped} skipped",
                 f"{self.records_lost} lost"]
        if not self.header_ok:
            parts.append("header damaged")
        return f"salvage: {self.path}: {', '.join(parts)}"


def _decode_record(line: bytes, version: int) -> list:
    """Decode one record line to its 8 integer fields; raises ValueError
    with a human reason on any damage."""
    text = line.decode("utf-8").rstrip("\n")
    if version >= 2:
        length_text, sep1, rest = text.partition(":")
        crc_text, sep2, payload = rest.partition(":")
        if not sep1 or not sep2:
            raise ValueError("missing length:crc framing")
        try:
            length = int(length_text)
            crc = int(crc_text, 16)
        except ValueError:
            raise ValueError("unparseable length/crc prefix") from None
        payload_bytes = payload.encode("utf-8")
        if len(payload_bytes) != length:
            raise ValueError(
                f"payload length {len(payload_bytes)} != framed {length}")
        if zlib.crc32(payload_bytes) != crc:
            raise ValueError("checksum mismatch")
    else:
        payload = text
    fields = json.loads(payload)
    if not isinstance(fields, list) or len(fields) != 8:
        raise ValueError("record is not an 8-field array")
    for name, value in zip(_RECORD_FIELDS, fields):
        if type(value) is not int:  # bools are not integers here
            raise ValueError(f"{name} {value!r} is not an integer")
    kind = fields[0]
    if not 0 <= kind < N_KINDS:
        raise ValueError(f"event kind {kind!r} out of range")
    if fields[6] not in (0, 1):
        raise ValueError(f"taken {fields[6]!r} is not 0 or 1")
    return fields


def conflicting(a: Event, b: Event) -> bool:
    """Two accesses conflict iff they touch the same address from
    different threads and at least one is a write (paper §2.2)."""
    return (a.addr == b.addr and a.tid != b.tid
            and a.is_memory_access and b.is_memory_access
            and (a.is_write or b.is_write))


class Trace:
    """An immutable recorded program trace, held as one whole-trace
    :class:`EventBatch`; Events are built only when a query asks."""

    def __init__(self, program: Program, events: Sequence[Event],
                 n_threads: int) -> None:
        self.program = program
        self.n_threads = n_threads
        self._batch = EventBatch.from_events(events)
        #: batch size -> windows, kept because one recording is often
        #: replayed by several engines (each would re-slice otherwise)
        self._windows: Dict[int, List[EventBatch]] = {}

    @classmethod
    def from_columns(cls, program: Program, columns: Sequence[Sequence],
                     n_threads: int) -> "Trace":
        """A trace over nine columns in ``ROW_FIELDS`` order."""
        trace = cls(program, (), n_threads)
        trace._batch = EventBatch(columns)
        return trace

    @property
    def events(self) -> List[Event]:
        """The trace as Event objects (materialized once, on demand)."""
        return self._batch.to_events(self.program)

    def __len__(self) -> int:
        return self._batch.count

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def thread_trace(self, tid: int) -> List[Event]:
        """The subsequence executed by thread ``tid``."""
        return [e for e in self.events if e.tid == tid]

    def memory_events(self) -> List[Event]:
        """All LOAD/STORE events, in program-trace order."""
        return [e for e in self.events if e.kind in (EV_LOAD, EV_STORE)]

    @property
    def end_seq(self) -> int:
        """The sequence number one past the last event -- what
        ``machine.seq`` was when the recording stopped.  Analyses replayed
        over the trace receive this as their end-of-stream position."""
        return self._batch.seqs[-1] + 1 if len(self) else 0

    def accesses_by_address(self) -> Dict[int, List[Event]]:
        """Group memory accesses by word address, preserving order."""
        by_addr: Dict[int, List[Event]] = {}
        for event in self.events:
            if event.kind in (EV_LOAD, EV_STORE):
                by_addr.setdefault(event.addr, []).append(event)
        return by_addr

    def conflict_pairs(self) -> Iterator[Tuple[Event, Event]]:
        """Yield conflicting access pairs (earlier, later), per address.

        Quadratic per address; intended for tests and small traces.  The
        detectors use incremental structures instead.
        """
        for accesses in self.accesses_by_address().values():
            for i, early in enumerate(accesses):
                for late in accesses[i + 1:]:
                    if conflicting(early, late):
                        yield early, late

    def batches(self,
                batch_size: int = DEFAULT_BATCH_SIZE) -> List[EventBatch]:
        """The trace sliced into columnar :class:`EventBatch` windows.

        Each window slices the whole-trace columns (and the Events, if
        they are already materialized), once per ``batch_size``.
        Replaying the batches front to back is event-for-event
        equivalent to iterating the trace.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        windows = self._windows.get(batch_size)
        if windows is None:
            whole = self._batch
            windows = self._windows[batch_size] = [
                whole.window(start, start + batch_size)
                for start in range(0, whole.count, batch_size)]
        return windows

    # -- serialization ---------------------------------------------------------

    FORMAT_VERSION = 2

    def save(self, path: str) -> None:
        """Write the trace in the framed v2 format (see module doc)."""
        with open(path, "w") as fh:
            header = {"format": "repro-trace",
                      "version": self.FORMAT_VERSION,
                      "n_threads": self.n_threads,
                      "n_events": len(self)}
            fh.write(json.dumps(header) + "\n")
            for (kind, seq, tid, pc, _loc, addr, value, taken,
                 target) in zip(*self._batch.columns):
                payload = json.dumps([kind, seq, tid, pc, addr, value,
                                      int(taken), target])
                raw = payload.encode("utf-8")
                fh.write(f"{len(raw)}:{zlib.crc32(raw):08x}:{payload}\n")

    @staticmethod
    def _read_header(path: str, line: bytes) -> Tuple[dict, int]:
        """Parse the header line; returns (header, format version)."""
        try:
            header = json.loads(line.decode("utf-8"))
            if not isinstance(header, dict) or "n_threads" not in header:
                raise ValueError("not a trace header")
        except ValueError as exc:
            raise TraceLoadError(path, 0, -1, str(exc)) from None
        return header, int(header.get("version", 1))

    @classmethod
    def _from_records(cls, program: Program, records: List[list],
                      n_threads: int) -> "Trace":
        """A trace over decoded records, ``loc`` taken from
        ``program.code[pc]`` and ``taken`` a bool, as the machine stages."""
        kinds, seqs, tids, pcs, addrs, values, takens, targets = (
            tuple(zip(*records)) or ((),) * len(_RECORD_FIELDS))
        code = program.code
        ncode = len(code)
        locs = tuple(code[pc].loc if 0 <= pc < ncode else -1 for pc in pcs)
        return cls.from_columns(program, (
            kinds, seqs, tids, pcs, locs, addrs, values,
            tuple(map(bool, takens)), targets), n_threads)

    @classmethod
    def load(cls, path: str, program: Program) -> "Trace":
        """Strictly load a trace saved by :meth:`save` (either format
        version); the same compiled program must be supplied so events
        re-link to instructions.  Any damage raises
        :class:`TraceLoadError` locating the file, byte offset, and
        record index -- use :meth:`salvage_load` to recover what is
        readable instead."""
        records: List[list] = []
        with open(path, "rb") as fh:
            header_line = fh.readline()
            header, version = cls._read_header(path, header_line)
            offset = len(header_line)
            index = 0
            for line in fh:
                try:
                    fields = _decode_record(line, version)
                except ValueError as exc:
                    raise TraceLoadError(path, offset, index,
                                         str(exc)) from None
                records.append(fields)
                offset += len(line)
                index += 1
        expected = header.get("n_events")
        if expected is not None and expected != index:
            raise TraceLoadError(
                path, offset, index,
                f"file ends after {index} of {expected} records")
        return cls._from_records(program, records, header["n_threads"])

    @classmethod
    def salvage_load(cls, path: str,
                     program: Program) -> Tuple["Trace", "SalvageReport"]:
        """Recover everything readable from a (possibly damaged) trace.

        Damaged records are skipped and the reader resynchronizes on the
        next line; the companion :class:`SalvageReport` says exactly how
        much was read, skipped, and lost.  With a destroyed header the
        thread count is inferred from the surviving events.
        """
        report = SalvageReport(path=path)
        records: List[list] = []
        with open(path, "rb") as fh:
            header_line = fh.readline()
            try:
                header, version = cls._read_header(path, header_line)
            except TraceLoadError:
                # assume the modern format and recover what frames parse
                header, version = {}, cls.FORMAT_VERSION
                report.header_ok = False
            for line in fh:
                try:
                    fields = _decode_record(line, version)
                except ValueError:
                    report.records_skipped += 1
                    continue
                records.append(fields)
                report.records_read += 1
        expected = header.get("n_events")
        if expected is not None:
            report.records_lost = max(
                0, expected - report.records_read - report.records_skipped)
        n_threads = header.get("n_threads")
        if n_threads is None:
            n_threads = 1 + max((fields[2] for fields in records), default=0)
        return cls._from_records(program, records, n_threads), report


class TraceRecorder(MachineObserver):
    """Observer that records the full event stream of a run, as the
    nine columns a :class:`Trace` holds."""

    def __init__(self, program: Program, n_threads: int) -> None:
        self._program = program
        self._n_threads = n_threads
        self._columns: Tuple[list, ...] = tuple([] for _ in ROW_FIELDS)

    def on_event(self, event: Event) -> None:
        for column, value in zip(self._columns, event_row(event)):
            column.append(value)

    def consume_batch(self, batch: EventBatch) -> None:
        """Batched recording: extend each column by the window's."""
        for column, values in zip(self._columns, batch.columns):
            column.extend(values)

    def trace(self) -> Trace:
        return Trace.from_columns(
            self._program, tuple(map(tuple, self._columns)),
            self._n_threads)
