"""Stable, content-addressed keys for simulation results.

The in-process memo cache in :mod:`repro.core.suite` keys results on a
tuple of frozen dataclasses — perfect inside one interpreter, useless
across processes (``hash()`` is salted, tuples don't serialize to
filenames). The disk store instead derives a **stable key**: every key
component is reduced to a canonical JSON document (sorted keys, typed
dataclass envelopes, exact float round-trip via ``repr``) and hashed
with SHA-256. The same inputs produce the same hex key on every
platform, every interpreter launch, and every ``PYTHONHASHSEED`` — the
property the round-trip tests assert with subprocesses.

What goes into a point key (see :func:`point_key`):

* the full :class:`~repro.core.config.BenchmarkConfig` — with the
  ``network`` alias resolved to the interconnect's canonical name, so
  ``"ipoib-qdr"`` and ``"IPoIB-QDR(32Gbps)"`` address the same record;
* the :class:`~repro.hadoop.cluster.ClusterSpec` (nested node spec
  included);
* the :class:`~repro.hadoop.job.JobConf` — this carries the runtime
  generation (``mrv1``/``yarn``) and every framework knob;
* the :class:`~repro.hadoop.costmodel.CostModel` (or ``None`` for the
  default);
* the :class:`~repro.faults.FaultPlan` (or ``None`` for a healthy run);
* the store :data:`SCHEMA_VERSION` — bump it and every old record
  becomes a clean miss (and ``repro store gc`` fodder).

Trial seeds live inside the config (``seed``), so trials are distinct
points by construction.

Serialize once. A campaign's points share one cluster, jobconf, cost
model and fault plan, so :func:`point_key` and :func:`point_components`
canonicalize each of those *once per object*: the compact canonical
JSON (and the canonical tree it came from) of every frozen, deeply
immutable dataclass component is kept in a small memo keyed by object
identity. The memo holds a strong reference to each object, so an id
can never be reused while its entry lives. It is deliberately not keyed
on value equality: ``1 == 1.0`` and ``0.0 == -0.0``, yet their
canonical texts (and therefore the keys) differ. :func:`point_key`
then hashes the document spliced from those fragments and the point's
own network-resolved config under the sorted top-level keys, which is
byte-for-byte the text :func:`canonical_json` gives for the
:func:`point_components` document.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, Optional, Tuple

from repro.core.config import BenchmarkConfig
from repro.faults import FaultPlan
from repro.hadoop.cluster import ClusterSpec
from repro.hadoop.costmodel import CostModel
from repro.hadoop.job import JobConf
from repro.store.backend import compact_text

#: Version tag hashed into every key and stamped on every record.
#: Bump when the simulation's observable outputs change (new physics,
#: recalibrated cost model, serialization changes): old records stop
#: matching and ``repro store gc`` can sweep them.
SCHEMA_VERSION = 1


#: Exact types :func:`canonical` passes through unchanged.
_SCALARS = (str, int, float, bool)

#: Dataclass type -> its field names (``dataclasses.fields`` is slow).
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def canonical(obj: object) -> object:
    """Reduce ``obj`` to JSON-serializable canonical form.

    Frozen dataclasses become ``{"__type__": ClassName, ...fields}``
    envelopes (recursively), mappings get sorted by :func:`json.dumps`
    later, and sequences become lists. Raises :class:`TypeError` for
    anything JSON can't represent faithfully.
    """
    if obj is None or type(obj) in _SCALARS:
        return obj
    names = _FIELD_NAMES.get(type(obj))
    if names is None and dataclasses.is_dataclass(obj) \
            and not isinstance(obj, type):
        names = tuple(f.name for f in dataclasses.fields(obj))
        _FIELD_NAMES[type(obj)] = names
    if names is not None:
        out = {"__type__": type(obj).__name__}
        for name in names:
            out[name] = canonical(getattr(obj, name))
        return out
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__!r} for stable hashing"
    )


def canonical_json(obj: object) -> str:
    """The canonical JSON text of ``obj`` (sorted keys, no whitespace)."""
    return compact_text(canonical(obj))


#: Most component objects the fragment memo holds before it starts over
#: (a campaign pass holds about two; the service builds two per query).
FRAGMENT_MEMO_LIMIT = 256

#: ``id(component) -> (component, canonical tree, compact text)`` for
#: frozen, deeply immutable key components. Each entry holds its
#: component, so no other live object can carry that id while the entry
#: exists. Only single ``get``/set/``clear`` calls touch it, each atomic
#: under the GIL, so the service's threads share it without a lock
#: (concurrent inserts can overshoot the limit by one entry per thread).
_FRAGMENTS: Dict[int, Tuple[object, object, str]] = {}


def _deeply_frozen(obj: object) -> bool:
    """Whether ``obj`` can never change: scalars, tuples of such, and
    frozen dataclasses whose fields are all such."""
    if obj is None or type(obj) in _SCALARS:
        return True
    if type(obj) is tuple:
        return all(_deeply_frozen(item) for item in obj)
    params = getattr(type(obj), "__dataclass_params__", None)
    if params is None or not params.frozen:
        return False
    return all(_deeply_frozen(getattr(obj, f.name))
               for f in dataclasses.fields(obj))


def _fragment(obj: object) -> Tuple[object, str]:
    """``(canonical tree, compact text)`` of one key component.

    Frozen dataclass components are canonicalized once per object and
    served from :data:`_FRAGMENTS` after that; anything else (``None``,
    mutable objects) is canonicalized on every call. The returned tree
    may be shared with the memo: callers copy it before handing it out.
    """
    entry = _FRAGMENTS.get(id(obj))
    if entry is not None:
        return entry[1], entry[2]
    tree = canonical(obj)
    text = compact_text(tree)
    if dataclasses.is_dataclass(obj) and _deeply_frozen(obj):
        if len(_FRAGMENTS) >= FRAGMENT_MEMO_LIMIT:
            _FRAGMENTS.clear()
        _FRAGMENTS[id(obj)] = (obj, tree, text)
    return tree, text


def _fresh(tree: object) -> object:
    """A copy of a canonical tree sharing no container with it."""
    if type(tree) is dict:
        return {k: _fresh(v) for k, v in tree.items()}
    if type(tree) is list:
        return [_fresh(v) for v in tree]
    return tree


def stable_digest(obj: object) -> str:
    """SHA-256 hex digest of ``obj``'s canonical JSON."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def config_components(config: BenchmarkConfig) -> dict:
    """The config's canonical envelope with the network alias resolved."""
    from repro.net.interconnect import get_interconnect

    parts = canonical(config)
    parts["network"] = get_interconnect(config.network).name
    return parts


def point_components(
    config: BenchmarkConfig,
    cluster: ClusterSpec,
    jobconf: Optional[JobConf] = None,
    cost_model: Optional[CostModel] = None,
    fault_plan: Optional[FaultPlan] = None,
    schema_version: int = SCHEMA_VERSION,
) -> dict:
    """The canonical key document of one simulation point.

    This exact document is hashed by :func:`point_key` and stored
    verbatim as each record's provenance block, so a record always
    carries the full, human-readable description of what produced it.
    Every call returns fresh dicts (safe to mutate), copied from the
    memoized fragments of the shared components.
    """
    return {
        "schema": schema_version,
        "config": config_components(config),
        "cluster": _fresh(_fragment(cluster)[0]),
        "jobconf": _fresh(_fragment(jobconf)[0]),
        "cost_model": _fresh(_fragment(cost_model)[0]),
        "fault_plan": _fresh(_fragment(fault_plan)[0]),
    }


def point_key(
    config: BenchmarkConfig,
    cluster: ClusterSpec,
    jobconf: Optional[JobConf] = None,
    cost_model: Optional[CostModel] = None,
    fault_plan: Optional[FaultPlan] = None,
    schema_version: int = SCHEMA_VERSION,
) -> str:
    """Stable store key of one fully-specified simulation point.

    The SHA-256 of ``canonical_json(point_components(...))``, built by
    splicing the components' compact fragments under the sorted
    top-level keys instead of re-walking the whole document.
    """
    config_text = compact_text(config_components(config))
    cluster_text = _fragment(cluster)[1]
    jobconf_text = _fragment(jobconf)[1]
    cost_text = _fragment(cost_model)[1]
    plan_text = _fragment(fault_plan)[1]
    document = "".join((
        '{"cluster":', cluster_text,
        ',"config":', config_text,
        ',"cost_model":', cost_text,
        ',"fault_plan":', plan_text,
        ',"jobconf":', jobconf_text,
        ',"schema":', canonical_json(schema_version), "}",
    ))
    return hashlib.sha256(document.encode("utf-8")).hexdigest()
