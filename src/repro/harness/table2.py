"""Table 2: the paper's main results, regenerated.

Paper rows (4 CPUs each):

====== ======= ===== ==== ============ ============== ============= =====
row    M insts segs  FN?  static FP    dyn FP /Minst  a-posteriori  CUs
                          SVD / FRD    SVD / FRD      examinations  /Minst
====== ======= ===== ==== ============ ============== ============= =====
Apache  16     1     0    1 / 2        0.2 / 1.3      2             324
Apache  16     4     N/A  2 / 3        0.1 / 0.3      48            47
MySQL   40     1     0    44 / 91      5.8 / 140      50            77
MySQL   40     6     N/A  60 / 76      8 / 29         97            77
PgSQL   16     16    N/A  46 / 4       1.8 / 0.03     87            8.6
====== ======= ===== ==== ============ ============== ============= =====

Our substitute machine executes far fewer instructions per shared access
than a real server (there is no filesystem, parser, or allocator between
critical sections), so absolute per-Minst rates are inflated by a large
constant; what must reproduce is the *shape*: zero apparent false
negatives, SVD << FRD on buggy programs, and the PgSQL crossover with a
low absolute SVD dynamic rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Set, Tuple

from repro.harness.render import render_table
from repro.harness.runner import RunResult, run_workload
from repro.workloads import (apache_log, mysql_prepared, mysql_tablelock,
                             pgsql_oltp)
from repro.workloads.base import Workload


@dataclass
class Table2Row:
    """One aggregated row (several seeded segments of one configuration),
    folded one run at a time by :meth:`add`.

    Integer sums and set unions only, so the fold is commutative and
    associative: any arrival order, worker count, or shard partition
    gives the same row.  :func:`aggregate_row` folds full ``RunResult``
    objects and the campaign aggregate folds slim ``CampaignResult``
    records, which expose the same attributes.
    """

    program: str
    buggy: bool
    segments: int = 0
    instructions: int = 0
    apparent_fn: int = 0
    svd_static_locs: Set[Any] = field(default_factory=set)
    frd_static_locs: Set[Any] = field(default_factory=set)
    svd_dynamic_fp: int = 0
    frd_dynamic_fp: int = 0
    posteriori_examinations: int = 0
    cus_created: int = 0
    bugs_found_svd: int = 0
    bugs_found_frd: int = 0
    #: campaign tasks of this cell that failed or were skipped (they
    #: are not folded; the campaign table shows them in its own column)
    failed: int = 0
    runs: List[RunResult] = field(default_factory=list)

    def add(self, result) -> None:
        self.segments += 1
        self.instructions += result.instructions
        self.svd_dynamic_fp += result.svd.dynamic_fp
        self.svd_static_locs |= result.svd.static_fp_locs
        if result.frd is not None:
            self.frd_dynamic_fp += result.frd.dynamic_fp
            self.frd_static_locs |= result.frd.static_fp_locs
            if result.frd.found_bug:
                self.bugs_found_frd += 1
        if result.svd.found_bug or result.posteriori_found_bug:
            self.bugs_found_svd += 1
        if result.apparent_false_negative:
            self.apparent_fn += 1
        self.posteriori_examinations += result.posteriori_static_entries
        self.cus_created += result.cus_created

    @property
    def svd_static_fp(self) -> int:
        return len(self.svd_static_locs)

    @property
    def frd_static_fp(self) -> int:
        return len(self.frd_static_locs)

    @property
    def apparent_fn_text(self) -> str:
        return str(self.apparent_fn) if self.buggy else "N/A"

    def svd_dynfp_per_million(self) -> float:
        return (self.svd_dynamic_fp * 1e6 / self.instructions
                if self.instructions else 0.0)

    def frd_dynfp_per_million(self) -> float:
        return (self.frd_dynamic_fp * 1e6 / self.instructions
                if self.instructions else 0.0)

    def cus_per_million(self) -> float:
        return (self.cus_created * 1e6 / self.instructions
                if self.instructions else 0.0)


def aggregate_row(program: str, buggy: bool,
                  runs: Sequence[RunResult]) -> Table2Row:
    row = Table2Row(program=program, buggy=buggy)
    for result in runs:
        row.add(result)
        row.runs.append(result)
    return row


def _runs(factories: Sequence[Tuple[Workload, int]],
          max_steps: Optional[int]) -> List[RunResult]:
    return [run_workload(workload, seed=seed, max_steps=max_steps)
            for workload, seed in factories]


def table2_rows(scale: int = 1,
                max_steps: Optional[int] = 400_000) -> List[Table2Row]:
    """Regenerate all five Table 2 rows.

    ``scale`` multiplies workload sizes (requests/queries/transactions)
    for longer segments; the default keeps the full table under a couple
    of minutes of wall time.
    """
    apache_buggy = [(apache_log(requests=24 * scale, seed=11 + s), s)
                    for s in (3,)]
    apache_clean = [(apache_log(requests=24 * scale, seed=11 + s, fixed=True), s)
                    for s in range(4)]
    mysql_buggy = [(mysql_prepared(queries=12 * scale, seed=23 + s), s)
                   for s in (3,)]
    mysql_clean = (
        [(mysql_prepared(queries=12 * scale, seed=23 + s, fixed=True), s)
         for s in range(3)]
        + [(mysql_tablelock(ops=30 * scale), s) for s in range(3)])
    pgsql_clean = [(pgsql_oltp(txns=20 * scale, seed=37 + s), s)
                   for s in range(8)]

    return [
        aggregate_row("Apache (buggy)", True, _runs(apache_buggy, max_steps)),
        aggregate_row("Apache (bug-free)", False, _runs(apache_clean, max_steps)),
        aggregate_row("MySQL (buggy)", True, _runs(mysql_buggy, max_steps)),
        aggregate_row("MySQL (bug-free)", False, _runs(mysql_clean, max_steps)),
        aggregate_row("PgSQL", False, _runs(pgsql_clean, max_steps)),
    ]


#: the paper's reference values per row, for side-by-side rendering:
#: (static FP svd/frd, dyn FP per Minst svd/frd, posteriori, CUs/Minst)
PAPER_REFERENCE = {
    "Apache (buggy)": ("1/2", "0.2/1.3", 2, 324),
    "Apache (bug-free)": ("2/3", "0.1/0.3", 48, 47),
    "MySQL (buggy)": ("44/91", "5.8/140", 50, 77),
    "MySQL (bug-free)": ("60/76", "8/29", 97, 77),
    "PgSQL": ("46/4", "1.8/0.03", 87, 8.6),
}


def render_table2(rows: Sequence[Table2Row]) -> str:
    table_rows = []
    for row in rows:
        paper = PAPER_REFERENCE.get(row.program, ("?", "?", "?", "?"))
        table_rows.append((
            row.program,
            row.segments,
            f"{row.instructions / 1e6:.2f}",
            row.apparent_fn_text,
            f"{row.svd_static_fp}/{row.frd_static_fp}",
            paper[0],
            f"{row.svd_dynfp_per_million():.3g}/{row.frd_dynfp_per_million():.3g}",
            paper[1],
            row.posteriori_examinations,
            f"{row.cus_per_million():.3g}",
        ))
    return render_table(
        ["Program", "Segs", "M insts", "FN",
         "staticFP s/f", "(paper)", "dynFP/M s/f", "(paper)",
         "a-post", "CUs/M"],
        table_rows,
        title="Table 2: main results (measured vs paper)",
    )
