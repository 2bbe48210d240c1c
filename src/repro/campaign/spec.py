"""Declarative campaign specs: JSON parameter grids over registry scenarios.

A campaign spec describes a *scenario space* instead of a single run: each
grid names one registry scenario (``prune_tensor``, ``simulate``,
``quantize_tensor``, any experiment, ...), fixes some parameters, and sweeps
others over lists of values.  Expansion takes the Cartesian product of every
grid's swept axes and yields one :class:`CampaignJob` per cell, each carrying
the stable content digest that the runner uses for checkpointing, resumption,
and work deduplication.

Spec layout (JSON object)::

    {
      "name": "pruning-grid",
      "description": "optional free text",
      "grids": [
        {
          "name": "pruning",
          "scenario": "prune_tensor",
          "params": {"rows": 64, "cols": 256},          # fixed for the grid
          "sweep": {                                     # one axis per key
            "num_columns": [2, 4],
            "strategy": ["rounded_average", "zero_point_shift"]
          },
          "depends_on": ["calibration"]                  # optional grid DAG
        }
      ]
    }

``depends_on`` edges order whole grids: a grid's jobs are dispatched only
after every job of its dependency grids has finished, which models
compress-then-simulate style pipelines.  The resulting graph must be acyclic.

Instead of ``scenario``, a grid may name a codec of the :mod:`repro.codecs`
registry directly — the sugar desugars onto the ``codec_compress`` scenario::

    {"name": "mx-sweep", "codec": "microscaling",
     "params": {"rows": 64}, "sweep": {"bits": [4, 6, 8]}}

Tensor-source keys (``rows``/``cols``/``seed``/``scale``) stay scenario-level
parameters; every other fixed/swept key is validated against the codec's
``param_schema()`` and folded into its nested parameter object.  A key that
exists in *both* namespaces (e.g. ``noisyquant``'s ``seed``) feeds both — one
value drives the synthetic tensor and the codec alike, exactly as the legacy
``quantize_tensor`` scenario behaved.  Likewise a
``pipeline:`` grid sweeps a chained codec pipeline (its stage list is fixed;
only tensor-source axes may be swept)::

    {"name": "chain", "pipeline": [{"codec": "prune"}, {"codec": "ptq"}],
     "sweep": {"seed": [0, 1, 2]}}

Expansion is fully deterministic: axes are swept in sorted key order, cells
are numbered in row-major order over those axes, and the spec digest covers
the canonicalized spec, so two expansions of one spec agree byte-for-byte on
every digest — the property the resume machinery relies on.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from ..core.hashing import stable_digest

#: ``codec_compress`` parameters describing the tensor source; in ``codec:``
#: grids these stay scenario-level while everything else nests into the
#: codec's own parameter object.  One contract shared with the codec layer
#: and the ``/v1/compress`` endpoint.
from ..codecs import TENSOR_SOURCE_PARAMS as CODEC_SOURCE_PARAMS

__all__ = [
    "CODEC_SOURCE_PARAMS",
    "CampaignGrid",
    "CampaignJob",
    "CampaignPlan",
    "CampaignSpec",
    "CampaignSpecError",
    "expand_spec",
    "load_spec",
    "parse_spec",
]


class CampaignSpecError(ValueError):
    """A campaign spec is malformed or references unknown scenarios/params."""


#: Scenarios a campaign may not contain (running a campaign inside a campaign
#: would recurse without bound through the service registry).
FORBIDDEN_SCENARIOS = frozenset({"campaign"})




@dataclass(frozen=True)
class CampaignGrid:
    """One parameter grid over a single registry scenario.

    ``codec``/``pipeline`` record the sugar a grid was written with (see the
    module docstring); both desugar onto the ``codec_compress`` scenario.
    """

    name: str
    scenario: str
    params: Mapping[str, Any] = field(default_factory=dict)
    sweep: Mapping[str, list] = field(default_factory=dict)
    depends_on: tuple[str, ...] = ()
    codec: str | None = None
    pipeline: tuple[dict, ...] | None = None

    def axes(self) -> list[tuple[str, list]]:
        """Swept axes in sorted key order (the deterministic cell order)."""
        return [(key, list(self.sweep[key])) for key in sorted(self.sweep)]

    def cells(self) -> Iterable[dict[str, Any]]:
        """Yield the merged parameter dict of every cell, row-major.

        ``codec:``/``pipeline:`` grids desugar onto ``codec_compress``
        parameters with the codec-level parameters canonicalized against the
        codec's defaults, so ``{"bits": 6}`` and a fully spelled-out
        parameter dict land on one content digest — exactly how
        scenario-level parameters canonicalize against registry defaults.
        The fixed pipeline stage list is validated/canonicalized once per
        grid, not once per cell.
        """
        from ..codecs import CodecError, get_codec, validate_stages

        codec = stages = None
        try:
            if self.pipeline is not None:
                stages = validate_stages(list(self.pipeline))
            elif self.codec is not None:
                codec = get_codec(self.codec)
        except CodecError as error:
            raise CampaignSpecError(f"grid {self.name!r}: {error}") from None

        axes = self.axes()
        keys = [key for key, _ in axes]
        for combo in itertools.product(*(values for _, values in axes)):
            merged = {**self.params, **dict(zip(keys, combo, strict=True))}
            if stages is not None:
                source = {k: v for k, v in merged.items() if k in CODEC_SOURCE_PARAMS}
                yield {
                    **source,
                    "codec": "pipeline",
                    "stages": [
                        {"codec": s["codec"], "params": dict(s["params"])}
                        for s in stages
                    ],
                }
            elif codec is not None:
                # A key living in both namespaces (e.g. noisyquant's "seed")
                # feeds both the tensor source and the codec, matching the
                # legacy quantize_tensor scenario where one seed drove the
                # synthetic matrix and the dither alike.
                schema = set(codec.defaults)
                source = {k: v for k, v in merged.items() if k in CODEC_SOURCE_PARAMS}
                codec_params = {
                    k: v for k, v in merged.items()
                    if k not in CODEC_SOURCE_PARAMS or k in schema
                }
                try:
                    canonical = codec.validate_params(codec_params)
                except CodecError as error:
                    raise CampaignSpecError(f"grid {self.name!r}: {error}") from None
                yield {**source, "codec": self.codec, "params": canonical}
            else:
                yield merged


@dataclass(frozen=True)
class CampaignSpec:
    """A parsed, validated campaign: named grids forming a DAG."""

    name: str
    description: str
    grids: tuple[CampaignGrid, ...]
    raw: dict = field(repr=False)
    #: Optional per-job wall-clock budget: the dispatcher submits every cell
    #: with this ``deadline_s``, so one wedged job cannot stall a campaign.
    deadline_s: float | None = None

    def digest(self) -> str:
        """Stable digest of the canonicalized spec (the campaign identity)."""
        return stable_digest("repro-campaign-spec", self.canonical())

    def canonical(self) -> dict:
        """The spec reduced to exactly the fields that determine its jobs.

        ``codec``/``pipeline`` sugar appears only when used, so the digests
        of plain ``scenario`` specs are unchanged from earlier revisions.
        """
        grids = []
        for grid in self.grids:
            entry: dict = {
                "name": grid.name,
                "params": dict(grid.params),
                "sweep": {key: list(values) for key, values in grid.sweep.items()},
                "depends_on": list(grid.depends_on),
            }
            # Sugar grids keep their codec/pipeline form (the scenario is
            # derived on parse), so the canonical spec round-trips through
            # parse_spec — resume re-reads exactly this.
            if grid.codec is not None:
                entry["codec"] = grid.codec
            elif grid.pipeline is not None:
                entry["pipeline"] = [dict(stage) for stage in grid.pipeline]
            else:
                entry["scenario"] = grid.scenario
            grids.append(entry)
        canonical: dict = {
            "name": self.name,
            "description": self.description,
            "grids": grids,
        }
        # Only present when set, so the digests of every pre-deadline spec
        # are unchanged — and a deadline does not change *what* is computed,
        # but it bounds each attempt, which is execution policy worth pinning
        # in the campaign identity the way shard layout is not.  That makes
        # these reads a deliberate exception to the digest-exclusion rule
        # (which targets per-job digests, where deadline_s must stay out).
        if self.deadline_s is not None:  # repro: ignore[digest-purity]
            canonical["deadline_s"] = self.deadline_s  # repro: ignore[digest-purity]
        return canonical


@dataclass(frozen=True)
class CampaignJob:
    """One expanded cell: a scenario invocation with concrete parameters."""

    cell: str  #: ``"<grid>/<index>"`` — stable human-readable cell id
    grid: str
    index: int
    scenario: str
    params: dict
    digest: str  #: content digest of ``(scenario, canonicalized params)``


@dataclass(frozen=True)
class CampaignPlan:
    """A fully expanded campaign: every job, in deterministic order."""

    spec: CampaignSpec
    jobs: tuple[CampaignJob, ...]
    #: Grid names in topological (dispatch) order.
    stage_order: tuple[str, ...]

    def spec_digest(self) -> str:
        return self.spec.digest()

    def jobs_for_grid(self, grid: str) -> list[CampaignJob]:
        return [job for job in self.jobs if job.grid == grid]

    def shard(self, shard_index: int, shard_count: int) -> "CampaignPlan":
        """Deterministic round-robin shard of every grid's cells.

        Sharding is per-grid (cell ``index % shard_count``) rather than over
        the flat job list so each shard holds a slice of *every* grid and a
        grid's ``depends_on`` edges stay meaningful inside a single shard.
        """
        if shard_count <= 0:
            raise CampaignSpecError("shard_count must be positive")
        if not 0 <= shard_index < shard_count:
            raise CampaignSpecError(
                f"shard_index must be in [0, {shard_count}), got {shard_index}"
            )
        if shard_count == 1:
            return self
        kept = tuple(
            job for job in self.jobs if job.index % shard_count == shard_index
        )
        return CampaignPlan(spec=self.spec, jobs=kept, stage_order=self.stage_order)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CampaignSpecError(message)


def _parse_grid(entry: Any, position: int) -> CampaignGrid:
    _require(isinstance(entry, dict), f"grids[{position}] must be a JSON object")
    name = entry.get("name", f"grid{position}")
    _require(isinstance(name, str) and name, f"grids[{position}].name must be a non-empty string")
    _require("/" not in name, f"grid name {name!r} must not contain '/'")

    scenario = entry.get("scenario")
    codec = entry.get("codec")
    pipeline = entry.get("pipeline")
    declared = [key for key in ("scenario", "codec", "pipeline") if entry.get(key) is not None]
    _require(
        len(declared) == 1,
        f"grid {name!r} needs exactly one of 'scenario', 'codec', or "
        f"'pipeline' (got {declared or 'none'})",
    )
    if codec is not None:
        _require(
            isinstance(codec, str) and bool(codec),
            f"grid {name!r}: 'codec' must be a non-empty string",
        )
        scenario = "codec_compress"
    elif pipeline is not None:
        _require(
            isinstance(pipeline, list) and len(pipeline) > 0,
            f"grid {name!r}: 'pipeline' must be a non-empty list of stages",
        )
        scenario = "codec_compress"
    else:
        _require(
            isinstance(scenario, str) and bool(scenario),
            f"grid {name!r} needs a non-empty string 'scenario'",
        )
    _require(
        scenario not in FORBIDDEN_SCENARIOS,
        f"grid {name!r}: scenario {scenario!r} cannot be nested inside a campaign",
    )
    params = entry.get("params", {})
    _require(isinstance(params, dict), f"grid {name!r}: 'params' must be a JSON object")
    sweep = entry.get("sweep", {})
    _require(isinstance(sweep, dict), f"grid {name!r}: 'sweep' must be a JSON object")
    for key, values in sweep.items():
        _require(
            isinstance(values, list) and len(values) > 0,
            f"grid {name!r}: sweep axis {key!r} must be a non-empty list",
        )
        _require(
            key not in params,
            f"grid {name!r}: {key!r} is both fixed in 'params' and swept in 'sweep'",
        )
    depends_on = entry.get("depends_on", [])
    _require(
        isinstance(depends_on, list) and all(isinstance(d, str) for d in depends_on),
        f"grid {name!r}: 'depends_on' must be a list of grid names",
    )
    unknown = set(entry) - {"name", "scenario", "codec", "pipeline", "params", "sweep", "depends_on"}
    _require(not unknown, f"grid {name!r}: unknown field(s) {sorted(unknown)}")

    grid = CampaignGrid(
        name=name,
        scenario=scenario,
        params=dict(params),
        sweep={key: list(values) for key, values in sweep.items()},
        depends_on=tuple(depends_on),
        codec=codec,
        pipeline=tuple(dict(stage) for stage in pipeline) if pipeline is not None else None,
    )
    _validate_codec_grid(grid)
    return grid


def _validate_codec_grid(grid: CampaignGrid) -> None:
    """Early validation of ``codec:``/``pipeline:`` sugar (parse time).

    Codec names, stage lists, and codec parameter names are checked against
    the :mod:`repro.codecs` registry so a typo fails ``parse_spec`` — the
    same place scenario-level mistakes fail — instead of every expanded cell.
    """
    if grid.codec is None and grid.pipeline is None:
        return
    from ..codecs import CodecError, get_codec, validate_stages

    _require(
        grid.codec != "pipeline",
        f"grid {grid.name!r}: write pipelines with the 'pipeline' grid field "
        "(a stage list), not codec: \"pipeline\" — stage lists are validated "
        "and canonicalized only through that form",
    )
    grid_keys = set(grid.params) | set(grid.sweep)
    try:
        if grid.pipeline is not None:
            validate_stages(list(grid.pipeline))
            foreign = sorted(grid_keys - set(CODEC_SOURCE_PARAMS))
            _require(
                not foreign,
                f"grid {grid.name!r}: pipeline grids may only set/sweep the "
                f"tensor-source parameters {sorted(CODEC_SOURCE_PARAMS)}; "
                f"got {foreign} (stage parameters belong in the stage objects)",
            )
        else:
            codec = get_codec(grid.codec)
            codec_keys = grid_keys - set(CODEC_SOURCE_PARAMS)
            codec.validate_params(dict.fromkeys(codec_keys))
    except CodecError as error:
        raise CampaignSpecError(f"grid {grid.name!r}: {error}") from None


def parse_spec(raw: Any) -> CampaignSpec:
    """Validate a decoded JSON object into a :class:`CampaignSpec`."""
    _require(isinstance(raw, dict), "campaign spec must be a JSON object")
    name = raw.get("name")
    _require(isinstance(name, str) and bool(name), "spec needs a non-empty string 'name'")
    # The name seeds the default run-directory path (runs/<name>-<digest>),
    # so it must not be able to escape it.
    _require(
        re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9 ._-]*", name) is not None,
        f"spec name {name!r} may contain only letters, digits, spaces, "
        "dots, underscores and dashes (and must start alphanumeric)",
    )
    description = raw.get("description", "")
    _require(isinstance(description, str), "'description' must be a string")
    grids_raw = raw.get("grids")
    _require(
        isinstance(grids_raw, list) and len(grids_raw) > 0,
        "spec needs a non-empty 'grids' list",
    )
    unknown = set(raw) - {"name", "description", "grids", "deadline_s"}
    _require(not unknown, f"unknown top-level field(s) {sorted(unknown)}")
    deadline_s = raw.get("deadline_s")
    if deadline_s is not None:
        _require(
            isinstance(deadline_s, (int, float))
            and not isinstance(deadline_s, bool)
            and deadline_s > 0,
            "'deadline_s' must be a positive number of seconds",
        )
        deadline_s = float(deadline_s)

    grids = tuple(_parse_grid(entry, position) for position, entry in enumerate(grids_raw))
    names = [grid.name for grid in grids]
    _require(len(set(names)) == len(names), f"duplicate grid names in {names}")
    known = set(names)
    for grid in grids:
        missing = [dep for dep in grid.depends_on if dep not in known]
        _require(
            not missing,
            f"grid {grid.name!r} depends on unknown grid(s) {missing}",
        )
        _require(
            grid.name not in grid.depends_on,
            f"grid {grid.name!r} depends on itself",
        )
    spec = CampaignSpec(
        name=name,
        description=description,
        grids=grids,
        raw=dict(raw),
        deadline_s=deadline_s,
    )
    _topological_order(spec.grids)  # raises on cycles
    return spec


def load_spec(path: str | Path) -> CampaignSpec:
    """Read and validate a campaign spec from a JSON file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise CampaignSpecError(f"{path}: invalid JSON: {error}") from None
    return parse_spec(raw)


def _topological_order(grids: tuple[CampaignGrid, ...]) -> tuple[str, ...]:
    """Kahn topological sort of the grid DAG, stable in spec order."""
    by_name = {grid.name: grid for grid in grids}
    remaining = {grid.name: set(grid.depends_on) for grid in grids}
    order: list[str] = []
    while remaining:
        ready = [name for name in (g.name for g in grids)
                 if name in remaining and not remaining[name]]
        if not ready:
            cycle = sorted(remaining)
            raise CampaignSpecError(f"grid dependency cycle among {cycle}")
        for name in ready:
            order.append(name)
            del remaining[name]
        for pending in remaining.values():
            pending.difference_update(ready)
    assert len(order) == len(by_name)
    return tuple(order)


def expand_spec(spec: CampaignSpec, registry=None) -> CampaignPlan:
    """Expand a spec into its deterministic job list.

    When ``registry`` (a :class:`repro.service.registry.ScenarioRegistry`) is
    given, every grid's scenario and parameter names are validated against it
    and each job's parameters are canonicalized against the scenario defaults
    before hashing — so ``{"seed": 0}`` and ``{}`` land on one digest, exactly
    as the service worker pool canonicalizes submissions.
    """
    from ..service.workers import job_digest

    jobs: list[CampaignJob] = []
    for grid in spec.grids:
        defaults: Mapping[str, Any] | None = None
        if registry is not None:
            try:
                declared = registry.get(grid.scenario)
            except ValueError as error:
                raise CampaignSpecError(f"grid {grid.name!r}: {error}") from None
            defaults = declared.defaults
            if grid.codec is None and grid.pipeline is None:
                unknown = sorted(
                    (set(grid.params) | set(grid.sweep)) - set(defaults)
                )
                _require(
                    not unknown,
                    f"grid {grid.name!r}: unknown parameter(s) {unknown} for scenario "
                    f"{grid.scenario!r}; accepted: {sorted(defaults)}",
                )
            else:
                # codec:/pipeline: sugar — grid keys were validated against
                # the codec registry at parse time; only the tensor-source
                # keys must exist on the scenario this sugar desugars onto.
                foreign = sorted(
                    (set(grid.params) | set(grid.sweep))
                    & set(CODEC_SOURCE_PARAMS) - set(defaults)
                )
                _require(
                    not foreign,
                    f"grid {grid.name!r}: parameter(s) {foreign} not accepted by "
                    f"scenario {grid.scenario!r}",
                )
        for index, cell_params in enumerate(grid.cells()):
            params = {**defaults, **cell_params} if defaults is not None else cell_params
            jobs.append(
                CampaignJob(
                    cell=f"{grid.name}/{index}",
                    grid=grid.name,
                    index=index,
                    scenario=grid.scenario,
                    params=params,
                    digest=job_digest(grid.scenario, params),
                )
            )
    return CampaignPlan(
        spec=spec, jobs=tuple(jobs), stage_order=_topological_order(spec.grids)
    )
