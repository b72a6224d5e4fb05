"""Experiment harness: runs workloads under the detectors and produces
the paper's tables (Table 1, Table 2, §7.3 overheads and length scaling),
plus the parallel campaign engine that fans seed sweeps across a
process pool.
"""

from repro.harness.bench_gate import (FLOORS, FloorCheck, FloorSpecError,
                                      check_file, check_record,
                                      parse_floor)
from repro.harness.campaign import (CampaignAggregate, CampaignReport,
                                    CampaignResult, CampaignSpec,
                                    ConfigSpec, WorkloadSpec,
                                    derive_seed, run_campaign)
from repro.harness.heartbeat import CampaignHeartbeat
from repro.harness.journal import (CampaignJournal, JournalError,
                                   spec_fingerprint)
from repro.harness.pool import PoolStatus, WorkerStatus, parallel_map
from repro.harness.shard import (ShardError, ShardMerge, ShardPlan,
                                 drive_shards, load_plan, load_shard,
                                 merge_shards, plan_shards)
from repro.harness.runner import RunResult, run_workload
from repro.harness.table1 import characterize, table1_rows
from repro.harness.table2 import Table2Row, table2_rows, render_table2
from repro.harness.overhead import OverheadResult, measure_overhead
from repro.harness.length_sweep import LengthPoint, length_sweep
from repro.harness.render import render_table
from repro.harness.sampling import Segment, SegmentSampler, evenly_spaced_windows

__all__ = [
    "FLOORS",
    "FloorCheck",
    "FloorSpecError",
    "check_file",
    "check_record",
    "parse_floor",
    "CampaignHeartbeat",
    "CampaignJournal",
    "JournalError",
    "PoolStatus",
    "WorkerStatus",
    "spec_fingerprint",
    "CampaignAggregate",
    "CampaignReport",
    "CampaignResult",
    "CampaignSpec",
    "ConfigSpec",
    "ShardError",
    "ShardMerge",
    "ShardPlan",
    "WorkloadSpec",
    "derive_seed",
    "drive_shards",
    "load_plan",
    "load_shard",
    "merge_shards",
    "parallel_map",
    "plan_shards",
    "run_campaign",
    "LengthPoint",
    "OverheadResult",
    "RunResult",
    "Table2Row",
    "characterize",
    "length_sweep",
    "measure_overhead",
    "Segment",
    "SegmentSampler",
    "evenly_spaced_windows",
    "render_table",
    "render_table2",
    "run_workload",
    "table1_rows",
    "table2_rows",
]
