"""Causal linking over trace events: primitive -> TPDU -> packet -> fate.

The tracer records flat events; this module recovers the causal chain
a violated QoS period needs for its post-mortem.  The link is the
netsim packet id, threaded through the instrumentation:

- ``tpdu.tx`` instants (transport ``vc``/``entity``) carry the packet
  id, the VC, the sequence number and the TPDU kind at the moment a
  TPDU is handed to the network -- the *parent* end of the chain.
- link-layer events (serialisation spans, ``loss``, ``drop:down``,
  ``drop:buffer``, and the bounded ``lost_packet_ids`` list on
  ``link.down``) carry the same packet id mid-flight.
- host ``rx:*`` instants carry it at delivery -- the *child* end.

:class:`ChainIndex` ingests a list of Chrome-trace events (timestamps
in microseconds, as recorded) and answers second-denominated queries:
which packets a VC sent inside a period, what happened to each, and
which fault episodes overlapped.  It is a pure in-memory index -- safe
to build from a live flight-recorder ring at violation time.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = ["ChainIndex"]

_US = 1e6

#: Event names that mark a packet as lost, mapped to a human cause.
_LOSS_CAUSES = {
    "loss": "corrupted-on-wire",
    "drop:buffer": "buffer-overflow",
    "drop:down": "link-down",
    "link.down": "lost-in-flight",
}

_DELIVERY_PREFIX = "rx:"


class ChainIndex:
    """Index of trace events by packet id, VC and fault episode."""

    def __init__(self, events: List[Dict[str, Any]]):
        #: packet id -> chronological [(ts_s, name, event), ...]
        self._by_packet: Dict[int, List[Dict[str, Any]]] = {}
        #: vc id -> chronological tpdu.tx records
        self._tx_by_vc: Dict[str, List[Dict[str, Any]]] = {}
        self._faults: List[Dict[str, Any]] = []
        for event in events:
            if event.get("ph") == "M":
                continue
            args = event.get("args") or {}
            packet_id = args.get("packet_id")
            if packet_id is not None:
                self._by_packet.setdefault(packet_id, []).append(event)
            for lost_id in args.get("lost_packet_ids") or ():
                self._by_packet.setdefault(lost_id, []).append(event)
            if event.get("name") == "tpdu.tx" and args.get("vc") is not None:
                self._tx_by_vc.setdefault(str(args["vc"]), []).append(event)
            if event.get("cat") == "fault":
                self._faults.append(event)
        for chain in self._by_packet.values():
            chain.sort(key=lambda e: e.get("ts", 0.0))
        for sends in self._tx_by_vc.values():
            sends.sort(key=lambda e: e.get("ts", 0.0))
        self._faults.sort(key=lambda e: e.get("ts", 0.0))

    # -- raw lookups -------------------------------------------------------

    def packet_fate(self, packet_id: int) -> Dict[str, Any]:
        """Summarise one packet's life: sent / delivered / lost where."""
        fate: Dict[str, Any] = {
            "packet_id": packet_id, "status": "in-flight",
            "sent_at": None, "resolved_at": None, "cause": None,
            "where": None,
        }
        for event in self._by_packet.get(packet_id, ()):
            name = event.get("name", "")
            ts_s = event.get("ts", 0.0) / _US
            if name == "tpdu.tx" and fate["sent_at"] is None:
                fate["sent_at"] = ts_s
                args = event.get("args") or {}
                fate["vc"] = args.get("vc")
                fate["seq"] = args.get("seq")
                fate["kind"] = args.get("kind")
            elif name.startswith(_DELIVERY_PREFIX):
                fate["status"] = "delivered"
                fate["resolved_at"] = ts_s
            elif name in _LOSS_CAUSES and fate["status"] != "delivered":
                fate["status"] = "lost"
                fate["cause"] = _LOSS_CAUSES[name]
                fate["resolved_at"] = ts_s
                fate["where"] = self._track_of(event)
        return fate

    def _track_of(self, event: Dict[str, Any]) -> Optional[str]:
        # pid -> track name needs the metadata events we skipped; fall
        # back to the link recorded in args when present.
        args = event.get("args") or {}
        return args.get("link") or args.get("track")

    # -- per-VC / per-window queries --------------------------------------

    def packets_for_vc(self, vc_id: str, t0: Optional[float] = None,
                       t1: Optional[float] = None) -> List[Dict[str, Any]]:
        """Fates of packets ``vc_id`` sent inside ``[t0, t1]`` seconds."""
        fates = []
        for event in self._tx_by_vc.get(str(vc_id), ()):
            ts_s = event.get("ts", 0.0) / _US
            if t0 is not None and ts_s < t0:
                continue
            if t1 is not None and ts_s > t1:
                continue
            args = event.get("args") or {}
            if args.get("packet_id") is not None:
                fates.append(self.packet_fate(args["packet_id"]))
        return fates

    def lost_packets(self, vc_id: str, t0: Optional[float] = None,
                     t1: Optional[float] = None) -> List[Dict[str, Any]]:
        """The subset of :meth:`packets_for_vc` that was lost."""
        return [
            fate for fate in self.packets_for_vc(vc_id, t0, t1)
            if fate["status"] == "lost"
        ]

    def fault_episodes(self, t0: float, t1: float) -> List[Dict[str, Any]]:
        """Fault-category events overlapping ``[t0, t1]`` seconds."""
        episodes = []
        for event in self._faults:
            start_s = event.get("ts", 0.0) / _US
            end_s = start_s + event.get("dur", 0.0) / _US
            if end_s < t0 or start_s > t1:
                continue
            episodes.append({
                "name": event.get("name"),
                "start": start_s,
                "end": end_s,
                "args": event.get("args") or {},
            })
        return episodes

    def explain_period(self, vc_id: str, t0: float, t1: float,
                       fault_lookback: Optional[float] = None) -> Dict[str, Any]:
        """Drill one sample period down to its packets and faults.

        Faults are searched over ``[t0 - fault_lookback, t1]`` (default
        lookback: two period lengths) because the episode that starves
        a period often begins in an earlier one.
        """
        if fault_lookback is None:
            fault_lookback = 2.0 * max(t1 - t0, 0.0)
        fates = self.packets_for_vc(vc_id, t0, t1)
        lost = [f for f in fates if f["status"] == "lost"]
        delivered = [f for f in fates if f["status"] == "delivered"]
        return {
            "vc": str(vc_id),
            "t0": t0,
            "t1": t1,
            "sent": len(fates),
            "delivered": len(delivered),
            "lost": lost,
            "faults": self.fault_episodes(t0 - fault_lookback, t1),
        }
