"""Declarative experiment campaigns: grids of scenarios, run to a report.

This package turns the repository from "16 hard-coded experiments" into a
scenario engine: a JSON spec declares parameter grids (models, word widths,
group sizes, sparsity budgets, accelerators, quantization backends) over the
service registry's scenarios, and the engine expands them into a DAG of
content-addressed jobs, shards the jobs across the service worker pool,
checkpoints every result into a run directory (so interrupted runs resume
without recomputation), and aggregates everything into one deterministic
strict-JSON report plus a CSV table.

* :mod:`repro.campaign.spec` — spec parsing, validation, grid expansion.
* :mod:`repro.campaign.runner` — sharded execution, checkpoints, resume.
* :mod:`repro.campaign.dispatch` — federated execution across remote
  ``repro serve`` nodes, byte-identical to a local run.
* :mod:`repro.campaign.report` — aggregation into report.json / report.csv.

Entry points: ``repro campaign run|resume|report|dispatch`` on the CLI, and
the ``campaign`` scenario (``POST /campaign``) on the service.
"""

from .dispatch import CampaignDispatcher, DispatchError
from .report import build_report, report_csv, serialize_report
from .runner import CampaignRunError, CampaignRunner, run_campaign
from .spec import (
    CampaignGrid,
    CampaignJob,
    CampaignPlan,
    CampaignSpec,
    CampaignSpecError,
    expand_spec,
    load_spec,
    parse_spec,
)

__all__ = [
    "CampaignDispatcher",
    "CampaignGrid",
    "CampaignJob",
    "CampaignPlan",
    "CampaignRunError",
    "CampaignRunner",
    "CampaignSpec",
    "CampaignSpecError",
    "DispatchError",
    "build_report",
    "expand_spec",
    "load_spec",
    "parse_spec",
    "report_csv",
    "run_campaign",
    "serialize_report",
]
