"""Experiment harness: the paper's §4 tables and figures, plus the gated
benches that guard everything built on top of them.

* :mod:`~repro.harness.experiment` — testbed wiring (topology, services,
  servers, replica placement, client stacks).
* :mod:`~repro.harness.table1`, :mod:`~repro.harness.fig4`,
  :mod:`~repro.harness.fig567` — the paper's Table 1 and Figures 4–7.
* :mod:`~repro.harness.design_choices` — the paper's nine design-choice
  comparisons (cert schemes, location lookup, caching, replication, …)
  and the ``design-choices`` table over them.
* :mod:`~repro.harness.loadsim` — the §1 flash-crowd load simulator.
* :mod:`~repro.harness.kernel` — the bench registry, the gate evaluator,
  the report envelope and the one bench runner.
* the registered benches, one module each: ``security_bench``,
  ``chaos``, ``revocation_bench``, ``profile_bench``
  (crash recovery and multi-writer convergence are decided by tier-1
  tests, not benched: see the rule in :mod:`~repro.harness.kernel`).
* :mod:`~repro.harness.report` — text rendering of result tables and
  the ``bench-report`` summary.

Run ``python -m repro.harness <target>``; see :mod:`repro.harness.__main__`.
"""

from repro.harness.experiment import Testbed, ClientStack, PublishedObject
from repro.harness.fig4 import Fig4Row, run_fig4
from repro.harness.fig567 import Fig567Row, run_fig567_for_client
from repro.harness.table1 import table1_rows
from repro.harness.report import render_table

__all__ = [
    "Testbed",
    "ClientStack",
    "PublishedObject",
    "Fig4Row",
    "run_fig4",
    "Fig567Row",
    "run_fig567_for_client",
    "table1_rows",
    "render_table",
]
