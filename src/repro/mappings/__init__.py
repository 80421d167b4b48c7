"""Enactment mappings: the paper's techniques plus the networked substrate.

========================  ===================================================
Name                      Description
========================  ===================================================
``simple``                Sequential reference mapping.
``multi``                 Native static Multiprocessing mapping (baseline).
``dyn_multi``             Dynamic scheduling on a global queue [Liang22].
``dyn_auto_multi``        + auto-scaling (backlog strategy), Section 3.2.
``dyn_redis``             Dynamic scheduling on a Redis Stream, Section 3.1.1.
``dyn_auto_redis``        + auto-scaling (idle-time strategy), Section 3.2.
``hybrid_redis``          Stateful-aware hybrid mapping, Section 3.1.2.
``cluster_redis``         Distributed worker processes over RESP/TCP.
========================  ===================================================

Mappings self-register through the capability-aware registry
(:mod:`repro.mappings.registry`): each class carries a
:class:`~repro.mappings.registry.Capabilities` record, third-party
backends can join via :func:`register_mapping`, and
:func:`select_mapping` resolves ``mapping="auto"`` for a given graph and
platform.  Use :func:`get_mapping` to obtain an engine by name, or the
:class:`repro.Engine` facade / :func:`repro.run` convenience.
"""

from repro.mappings.base import Mapping, normalize_inputs
from repro.mappings.registry import (
    Capabilities,
    UnknownMappingError,
    capability_table,
    get_capabilities,
    get_mapping,
    get_mapping_class,
    mapping_names,
    register_mapping,
    select_mapping,
    unregister_mapping,
)

# Importing the implementation modules runs their @register_mapping
# decorators, populating the registry with the built-ins.
from repro.mappings.cluster import ClusterRedisMapping
from repro.mappings.dynamic import DynamicMapping, DynAutoMultiMapping, DynMultiMapping
from repro.mappings.hybrid import HybridRedisMapping
from repro.mappings.multi import MultiMapping
from repro.mappings.redis_dynamic import DynAutoRedisMapping, DynRedisMapping
from repro.mappings.simple import SimpleMapping
from repro.mappings.termination import TerminationPolicy

__all__ = [
    "Capabilities",
    "ClusterRedisMapping",
    "DynAutoMultiMapping",
    "DynAutoRedisMapping",
    "DynMultiMapping",
    "DynamicMapping",
    "HybridRedisMapping",
    "Mapping",
    "MultiMapping",
    "SimpleMapping",
    "DynRedisMapping",
    "TerminationPolicy",
    "UnknownMappingError",
    "capability_table",
    "get_capabilities",
    "get_mapping",
    "get_mapping_class",
    "mapping_names",
    "normalize_inputs",
    "register_mapping",
    "select_mapping",
    "unregister_mapping",
]
