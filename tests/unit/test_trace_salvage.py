"""Trace framing, located load errors, and the salvaging reader."""

import json
import zlib

import pytest

from repro.engine import DetectorEngine
from repro.faults import Fault, FaultPlan, corrupt_trace_file
from repro.lang import compile_source
from repro.machine.machine import Machine
from repro.machine.scheduler import RandomScheduler
from repro.trace import SalvageReport, Trace, TraceLoadError
from tests.conftest import COUNTER_RACE


@pytest.fixture(scope="module")
def recorded():
    """A real recorded trace plus its program."""
    program = compile_source(COUNTER_RACE)
    machine = Machine(program, [("worker", (12,)), ("worker", (12,))],
                      scheduler=RandomScheduler(seed=3, switch_prob=0.5))
    result = DetectorEngine(program, ["svd"]).run_machine(machine,
                                                          keep_trace=True)
    return program, result.trace


def _tuples(trace):
    return [(e.kind, e.seq, e.tid, e.pc, e.addr, e.value, e.taken,
             e.target) for e in trace]


def _frame_record(path, index, fields):
    """Overwrite record ``index`` with a correctly framed (right length,
    right checksum) record holding ``fields``."""
    lines = path.read_bytes().splitlines(keepends=True)
    payload = json.dumps(fields).encode("utf-8")
    lines[index + 1] = b"%d:%08x:%s\n" % (len(payload), zlib.crc32(payload),
                                          payload)
    path.write_bytes(b"".join(lines))


#: well-framed records whose fields are not what Trace.save writes
BAD_FIELDS = {
    "string-pc": [0, 1, 0, "3", -1, 0, 0, -1],
    "bool-value": [0, 1, 0, 3, -1, True, 0, -1],
    "float-seq": [0, 1.0, 0, 3, -1, 0, 0, -1],
    "taken-2": [0, 1, 0, 3, -1, 0, 2, -1],
}


class TestFraming:
    def test_v2_round_trip(self, recorded, tmp_path):
        program, trace = recorded
        path = str(tmp_path / "t.trace")
        trace.save(path)
        loaded = Trace.load(path, program)
        assert _tuples(loaded) == _tuples(trace)
        assert loaded.n_threads == trace.n_threads

    def test_v2_records_are_length_crc_framed(self, recorded, tmp_path):
        program, trace = recorded
        path = tmp_path / "t.trace"
        trace.save(str(path))
        lines = path.read_bytes().splitlines()
        header = json.loads(lines[0])
        assert header["version"] == 2
        assert header["n_events"] == len(trace)
        length, crc, payload = lines[1].split(b":", 2)
        assert int(length) == len(payload)
        assert int(crc, 16) == zlib.crc32(payload)

    def test_v1_files_still_load(self, recorded, tmp_path):
        """The pre-framing format (no version, bare JSON records) must
        stay readable forever."""
        program, trace = recorded
        path = tmp_path / "v1.trace"
        with open(path, "w") as fh:
            fh.write(json.dumps({"format": "repro-trace",
                                 "n_threads": trace.n_threads,
                                 "n_events": len(trace)}) + "\n")
            for e in trace:
                fh.write(json.dumps([e.kind, e.seq, e.tid, e.pc, e.addr,
                                     e.value, int(e.taken), e.target])
                         + "\n")
        loaded = Trace.load(str(path), program)
        assert _tuples(loaded) == _tuples(trace)


class TestStrictErrors:
    def test_corrupt_record_error_is_located(self, recorded, tmp_path):
        program, trace = recorded
        path = str(tmp_path / "t.trace")
        trace.save(path)
        corrupt_trace_file(path, FaultPlan([Fault("trace.corrupt",
                                                  at=10)], seed=1))
        with pytest.raises(TraceLoadError) as exc_info:
            Trace.load(path, program)
        err = exc_info.value
        assert err.path == path
        assert err.record_index == 10
        assert err.byte_offset > 0
        assert "record 10" in str(err)
        assert path in str(err)

    def test_truncated_file_reports_missing_records(self, recorded,
                                                    tmp_path):
        program, trace = recorded
        path = str(tmp_path / "t.trace")
        trace.save(path)
        corrupt_trace_file(path, FaultPlan([Fault("trace.truncate",
                                                  at=20)]))
        # the torn record itself fails first, precisely located
        with pytest.raises(TraceLoadError, match="record 20"):
            Trace.load(path, program)

    def test_short_file_reports_missing_records(self, recorded, tmp_path):
        program, trace = recorded
        path = tmp_path / "t.trace"
        trace.save(str(path))
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:21]))  # header + 20 whole records
        with pytest.raises(TraceLoadError,
                           match=f"ends after 20 of {len(trace)}"):
            Trace.load(str(path), program)

    @pytest.mark.parametrize("bad", BAD_FIELDS)
    def test_well_framed_bad_field_is_located(self, recorded, tmp_path,
                                              bad):
        program, trace = recorded
        path = tmp_path / "t.trace"
        trace.save(str(path))
        _frame_record(path, 4, BAD_FIELDS[bad])
        with pytest.raises(TraceLoadError) as exc_info:
            Trace.load(str(path), program)
        assert exc_info.value.record_index == 4
        assert "record 4" in str(exc_info.value)

    def test_garbage_header_is_located(self, recorded, tmp_path):
        program, _trace = recorded
        path = tmp_path / "bad.trace"
        path.write_text("not json at all\n")
        with pytest.raises(TraceLoadError) as exc_info:
            Trace.load(str(path), program)
        assert exc_info.value.byte_offset == 0
        assert exc_info.value.record_index == -1


class TestSalvage:
    def test_clean_file_salvages_clean(self, recorded, tmp_path):
        program, trace = recorded
        path = str(tmp_path / "t.trace")
        trace.save(path)
        loaded, report = Trace.salvage_load(path, program)
        assert report.clean
        assert report.records_read == len(trace)
        assert report.records_skipped == report.records_lost == 0
        assert _tuples(loaded) == _tuples(trace)

    def test_corrupt_record_is_skipped_and_resynced(self, recorded,
                                                    tmp_path):
        program, trace = recorded
        path = str(tmp_path / "t.trace")
        trace.save(path)
        corrupt_trace_file(path, FaultPlan([Fault("trace.corrupt",
                                                  at=10)], seed=1))
        loaded, report = Trace.salvage_load(path, program)
        assert not report.clean
        assert report.records_read == len(trace) - 1
        assert report.records_skipped == 1
        assert report.records_lost == 0
        # every surviving record is intact, in order
        expected = _tuples(trace)
        del expected[10]
        assert _tuples(loaded) == expected
        assert "1 skipped" in report.describe()

    @pytest.mark.parametrize("bad", BAD_FIELDS)
    def test_well_framed_bad_field_is_skipped(self, recorded, tmp_path,
                                              bad):
        program, trace = recorded
        path = tmp_path / "t.trace"
        trace.save(str(path))
        _frame_record(path, 4, BAD_FIELDS[bad])
        loaded, report = Trace.salvage_load(str(path), program)
        assert report.records_read == len(trace) - 1
        assert report.records_skipped == 1
        assert report.records_lost == 0
        expected = _tuples(trace)
        del expected[4]
        assert _tuples(loaded) == expected

    def test_truncation_counts_lost_records(self, recorded, tmp_path):
        program, trace = recorded
        path = str(tmp_path / "t.trace")
        trace.save(path)
        corrupt_trace_file(path, FaultPlan([Fault("trace.truncate",
                                                  at=20)]))
        loaded, report = Trace.salvage_load(path, program)
        assert report.records_read == 20
        assert report.records_skipped == 1  # the torn line
        assert report.records_lost == len(trace) - 21
        assert _tuples(loaded) == _tuples(trace)[:20]

    def test_destroyed_header_still_salvages_records(self, recorded,
                                                     tmp_path):
        program, trace = recorded
        path = tmp_path / "t.trace"
        trace.save(str(path))
        lines = path.read_bytes().splitlines(keepends=True)
        lines[0] = b"\x00garbage\n"
        path.write_bytes(b"".join(lines))
        loaded, report = Trace.salvage_load(str(path), program)
        assert not report.header_ok
        assert report.records_read == len(trace)
        # thread count inferred from the surviving events
        assert loaded.n_threads == trace.n_threads

    def test_salvaged_trace_is_analyzable(self, recorded, tmp_path):
        """The point of salvage: detectors still run over the
        recovered prefix."""
        program, trace = recorded
        path = str(tmp_path / "t.trace")
        trace.save(path)
        corrupt_trace_file(path, FaultPlan([Fault("trace.corrupt",
                                                  at=5)], seed=2))
        loaded, report = Trace.salvage_load(path, program)
        result = DetectorEngine(program, ["svd", "frd"]).run_trace(loaded)
        assert not result.degraded
        assert result.report("frd") is not None


class TestCorruptTraceFile:
    def test_corruption_is_deterministic(self, recorded, tmp_path):
        program, trace = recorded
        a, b = str(tmp_path / "a.trace"), str(tmp_path / "b.trace")
        trace.save(a)
        trace.save(b)
        plan = FaultPlan([Fault("trace.corrupt", at=7)], seed=9)
        assert corrupt_trace_file(a, plan) == 1
        assert corrupt_trace_file(b, plan) == 1
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_position_past_eof_is_inert(self, recorded, tmp_path):
        program, trace = recorded
        path = str(tmp_path / "t.trace")
        trace.save(path)
        plan = FaultPlan([Fault("trace.corrupt", at=10 ** 6)])
        assert corrupt_trace_file(path, plan) == 0
        Trace.load(path, program)  # untouched
