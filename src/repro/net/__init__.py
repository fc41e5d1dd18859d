"""Network substrate: interconnect models and a flow-level fabric.

The paper evaluates Hadoop MapReduce over 1 GigE, 10 GigE, IPoIB QDR
(32 Gbps), IPoIB FDR (56 Gbps) and native-InfiniBand RDMA (56 Gbps). We
have no such hardware; this subpackage substitutes *flow-level network
simulation*:

* :mod:`repro.net.interconnect` — a catalog of interconnect/protocol
  models. Each entry captures the quantities the paper's results depend
  on: effective application-level bandwidth, one-way latency, per-fetch
  setup cost, and per-byte protocol CPU cost.
* :mod:`repro.net.fabric` — a max-min-fair bandwidth-sharing fabric: the
  all-to-all shuffle creates many concurrent (mapper-node -> reducer-node)
  flows, and each NIC's ingress/egress capacity is divided among them by
  progressive filling (water-filling), exactly as TCP-fair sharing does
  on a non-blocking switch.
* :mod:`repro.net.transport` — shuffle transport models (HTTP-over-TCP
  for the stock framework, RDMA verbs for the MRoIB case study).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.net.fabric": ("FabricNode", "Flow", "NetworkFabric",
                         "compute_max_min"),
    "repro.net.interconnect": ("INTERCONNECTS", "IPOIB_FDR", "IPOIB_QDR",
                               "ONE_GIGE", "RDMA_FDR", "TEN_GIGE",
                               "InterconnectSpec", "get_interconnect"),
    "repro.net.transport": ("TransportModel", "transport_for"),
})

__all__ = [
    "FabricNode",
    "Flow",
    "INTERCONNECTS",
    "IPOIB_FDR",
    "IPOIB_QDR",
    "InterconnectSpec",
    "NetworkFabric",
    "ONE_GIGE",
    "RDMA_FDR",
    "TEN_GIGE",
    "TransportModel",
    "compute_max_min",
    "get_interconnect",
    "transport_for",
]
