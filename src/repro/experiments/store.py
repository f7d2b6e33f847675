"""Persist experiment results as JSON.

Experiment points are expensive (minutes at paper scale), so the store
lets drivers cache results keyed by their full configuration and reload
them across sessions — e.g. to assemble EXPERIMENTS.md incrementally or
to re-plot without re-simulating.

Layout: entries fan out into two-hex-character shard subdirectories
(``ab/abcd….json``) so a store serving many concurrent campaigns (the
``repro serve`` daemon) never accumulates tens of thousands of entries
in one directory. Stores written before sharding existed used a flat
layout; reads fall through to the flat path transparently, while every
new write lands sharded.

Crash safety: every write goes to a temporary file in the same
directory and is moved into place with ``os.replace`` — a killed
process can never leave a truncated JSON file under a result key. If a
corrupt entry is found anyway (pre-hardening files, disk faults), the
load treats it as a cache miss: the bad file is moved aside to a
``.corrupt`` sidecar (preserved for inspection) and the cell re-runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import threading
from typing import Optional

from repro.cc.config import cc_config_from_dict, cc_config_to_dict
from repro.core.parameters import CCParams
from repro.experiments.config import ExperimentConfig, ScaleProfile
from repro.experiments.runner import ExperimentResult
from repro.faults.spec import faults_from_dict, faults_to_dict
from repro.transport.config import transport_from_dict, transport_to_dict

_log = logging.getLogger(__name__)


def atomic_write_json(path: str, data) -> None:
    """Write JSON to ``path`` atomically (tmp file + ``os.replace``).

    The temporary file name is unique per writer (pid + thread id), so
    concurrent writers of the same path never clobber each other's
    in-progress bytes: each finishes its own complete temp file and the
    replaces serialize to last-writer-wins on the final path.
    """
    text = json.dumps(data)
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # pragma: no cover - only on write failure
            try:
                os.remove(tmp)
            except OSError:
                pass  # best-effort cleanup of an orphaned temp file


def quarantine(path: str) -> str:
    """Move a corrupt file aside; returns the sidecar path."""
    sidecar = path + ".corrupt"
    try:
        os.replace(path, sidecar)
    except OSError:  # pragma: no cover - racing cleanup is benign
        pass
    return sidecar


def load_json_or_quarantine(path: str) -> Optional[dict]:
    """Parse a JSON file; on corruption, quarantine it and return None."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        sidecar = quarantine(path)
        _log.warning(
            "corrupt store entry %s (%s); quarantined to %s, treating as miss",
            path, exc, sidecar,
        )
        return None


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Serialize a config (including its scale profile) to plain data."""
    out = dataclasses.asdict(cfg)
    out["scale"] = dataclasses.asdict(cfg.scale)
    if cfg.cc_params is not None:
        out["cc_params"] = dataclasses.asdict(cfg.cc_params)
    # Fault-free configs omit the key entirely so their content hashes
    # (and any results stored before the fault layer existed) are
    # unchanged. Same for transport-free configs.
    out.pop("faults", None)
    if cfg.faults is not None:
        out["faults"] = faults_to_dict(cfg.faults)
    out.pop("transport", None)
    if cfg.transport is not None:
        out["transport"] = transport_to_dict(cfg.transport)
    # Default-mechanism configs (None, or an explicit untuned "ib")
    # omit the key: their content hashes — and every result stored
    # before the mechanism became selectable — are unchanged, and
    # ``--cc ib`` reuses the pre-arena cache entries.
    out.pop("cc_config", None)
    cc_config = cfg.cc_config
    if cc_config is not None and (cc_config.mechanism != "ib" or cc_config.params):
        out["cc_config"] = cc_config_to_dict(cc_config)
    return out


def config_key(cfg: ExperimentConfig) -> str:
    """A stable content hash of the full configuration."""
    return config_dict_key(config_to_dict(cfg))


def config_dict_key(data: dict) -> str:
    """:func:`config_key` of a config already run through :func:`config_to_dict`."""
    blob = json.dumps(data, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def result_to_dict(res: ExperimentResult) -> dict:
    """Serialize a result to JSON-compatible data."""
    return {
        "config": config_to_dict(res.config),
        "rates_gbps": res.rates_gbps,
        "hotspots": res.hotspots,
        "groups": res.groups,
        "tmax": res.tmax,
        "n_b": res.n_b,
        "n_c": res.n_c,
        "n_v": res.n_v,
        "fecn_marks": res.fecn_marks,
        "becns": res.becns,
        "events": res.events,
        "wall_seconds": res.wall_seconds,
        "trace_digest": res.trace_digest,
        "trace_violations": res.trace_violations,
        "trace_records": res.trace_records,
        "fault_onsets": res.fault_onsets,
        "fault_recoveries": res.fault_recoveries,
        "dropped_packets": res.dropped_packets,
        "cnps_dropped": res.cnps_dropped,
        "retx_packets": res.retx_packets,
        "retx_bytes": res.retx_bytes,
        "transport_timeouts": res.transport_timeouts,
        "failed_flows": res.failed_flows,
        "recovery_ns_total": res.recovery_ns_total,
        "flow_health": res.flow_health,
    }


def config_from_dict(data: dict) -> ExperimentConfig:
    """Rebuild an :class:`ExperimentConfig` from :func:`config_to_dict` data.

    The inverse of :func:`config_to_dict`; also the wire codec the
    ``repro serve`` daemon uses to parse submitted campaign cells.
    Raises ``KeyError``/``TypeError``/``ValueError`` on malformed input
    (missing scale, unknown fields, wrong types) — callers that accept
    untrusted payloads turn those into structured errors.
    """
    cfg_data = dict(data)
    scale = ScaleProfile(**{
        k: tuple(v) if k == "moving_lifetimes_ns" else v
        for k, v in cfg_data.pop("scale").items()
    })
    cc_params = cfg_data.pop("cc_params", None)
    faults = faults_from_dict(cfg_data.pop("faults", None))
    transport = transport_from_dict(cfg_data.pop("transport", None))
    cc_config = cc_config_from_dict(cfg_data.pop("cc_config", None))
    return ExperimentConfig(
        scale=scale,
        cc_params=CCParams(**cc_params) if cc_params else None,
        faults=faults,
        transport=transport,
        cc_config=cc_config,
        **cfg_data,
    )


def result_from_dict(data: dict) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from :func:`result_to_dict` data."""
    cfg = config_from_dict(data["config"])
    return ExperimentResult(
        config=cfg,
        rates_gbps=list(data["rates_gbps"]),
        hotspots=list(data["hotspots"]),
        groups=dict(data["groups"]),
        tmax=data["tmax"],
        n_b=data["n_b"],
        n_c=data["n_c"],
        n_v=data["n_v"],
        fecn_marks=data["fecn_marks"],
        becns=data["becns"],
        events=data["events"],
        wall_seconds=data["wall_seconds"],
        # Absent in results stored before the trace layer existed.
        trace_digest=data.get("trace_digest"),
        trace_violations=data.get("trace_violations", 0),
        trace_records=data.get("trace_records", 0),
        # Absent in results stored before the fault layer existed.
        fault_onsets=data.get("fault_onsets", 0),
        fault_recoveries=data.get("fault_recoveries", 0),
        dropped_packets=data.get("dropped_packets", 0),
        cnps_dropped=data.get("cnps_dropped", 0),
        # Absent in results stored before the transport layer existed.
        retx_packets=data.get("retx_packets", 0),
        retx_bytes=data.get("retx_bytes", 0),
        transport_timeouts=data.get("transport_timeouts", 0),
        failed_flows=data.get("failed_flows", 0),
        recovery_ns_total=data.get("recovery_ns_total", 0.0),
        flow_health=data.get("flow_health"),
    )


class ResultStore:
    """A sharded directory of JSON result files keyed by config hash.

    Entries live at ``<directory>/<key[:2]>/<key>.json`` — 256 fan-out
    shards keep per-directory entry counts civilized under multi-tenant
    serving load. Stores written before sharding existed kept every
    entry flat in ``<directory>``; :meth:`load` and ``in`` fall back to
    that legacy path transparently, so old caches keep hitting without
    a migration step. New writes always land sharded.

    Concurrent writers are safe. :meth:`save` goes through a unique
    temporary file and a single atomic ``os.replace``, so two processes
    saving the *same* key race to last-writer-wins: whichever
    ``os.replace`` lands second determines the final bytes, and readers
    observe one complete version or the other — never a torn mix. Since
    results are pure functions of their config (the key hashes the full
    config), both writers carry equivalent payloads and the race is
    benign by construction.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, cfg: ExperimentConfig) -> str:
        """The sharded path every new write lands at."""
        return self.path_for_key(config_key(cfg))

    def path_for_key(self, key: str) -> str:
        """Sharded entry path for an already-computed config key."""
        return os.path.join(self.directory, key[:2], f"{key}.json")

    def _legacy_path(self, key: str) -> str:
        """Where a pre-sharding (flat-layout) store kept this key."""
        return os.path.join(self.directory, f"{key}.json")

    def _existing_path(self, key: str) -> Optional[str]:
        """The on-disk path holding ``key`` (sharded wins), or None."""
        for path in (self.path_for_key(key), self._legacy_path(key)):
            if os.path.exists(path):
                return path
        return None

    def save(self, res: ExperimentResult) -> str:
        """Write the result's JSON file atomically; returns its path.

        Same-key concurrency is last-writer-wins (see the class
        docstring); the write itself can never be observed truncated.
        """
        path = self._path(res.config)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        atomic_write_json(path, result_to_dict(res))
        return path

    def load(self, cfg: ExperimentConfig) -> Optional[ExperimentResult]:
        """Load the cached result for ``cfg``, or None if absent.

        Reads through the sharded layout first, then the legacy flat
        layout. A corrupt entry is quarantined and treated as a miss
        rather than poisoning the whole campaign.
        """
        path = self._existing_path(config_key(cfg))
        if path is None:
            return None
        data = load_json_or_quarantine(path)
        if data is None:
            return None
        try:
            return result_from_dict(data)
        except (KeyError, TypeError, ValueError) as exc:
            sidecar = quarantine(path)
            _log.warning(
                "malformed store entry %s (%s); quarantined to %s",
                path, exc, sidecar,
            )
            return None

    def __contains__(self, cfg: ExperimentConfig) -> bool:
        """Whether a result for ``cfg`` is already stored."""
        return self._existing_path(config_key(cfg)) is not None

    def contains_key(self, key: str) -> bool:
        """Whether an entry for an already-computed key is stored."""
        return self._existing_path(key) is not None

    def get_or_run(self, cfg: ExperimentConfig) -> ExperimentResult:
        """Load a cached result or simulate and cache it."""
        cached = self.load(cfg)
        if cached is not None:
            return cached
        from repro.experiments.runner import run_experiment

        res = run_experiment(cfg)
        self.save(res)
        return res

    def keys(self) -> list:
        """Every stored config key (sharded and legacy), sorted."""
        out = set()
        for _root, name in _walk_suffix(self.directory, ".json"):
            out.add(name[:-len(".json")])
        return sorted(out)

    def __len__(self) -> int:
        """Entry count across shard subdirectories and the flat legacy
        layout (a key present in both counts once)."""
        return len(self.keys())


def _walk_suffix(directory: str, suffix: str):
    """Yield ``(dirpath, filename)`` for matching files at any depth.

    The recursive scan behind :meth:`ResultStore.__len__`,
    :func:`find_quarantined` and :func:`purge_quarantined` — entries
    (and their ``.corrupt`` sidecars) may sit in shard subdirectories
    or flat at the top level.
    """
    for root, dirs, names in os.walk(directory):
        dirs.sort()
        for name in sorted(names):
            if name.endswith(suffix):
                yield root, name


def find_quarantined(directory: str) -> list:
    """``.corrupt`` quarantine sidecars under ``directory``, sorted.

    These are corrupt cache entries moved aside by
    :func:`load_json_or_quarantine` / :meth:`ResultStore.load` and
    preserved for inspection; ``repro store gc`` lists and purges them.
    Recurses into the sharded subdirectories as well as the top level.
    """
    return sorted(
        os.path.join(root, name)
        for root, name in _walk_suffix(directory, ".corrupt")
    )


def purge_quarantined(directory: str) -> list:
    """Delete every quarantine sidecar; returns the removed paths."""
    removed = []
    for path in find_quarantined(directory):
        try:
            os.remove(path)
        except FileNotFoundError:  # pragma: no cover - racing cleanup
            continue
        removed.append(path)
    return removed
