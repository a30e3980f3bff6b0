"""A reference OpenFlow controller: the classic learning switch.

OFLOPS-turbo measures switches against *some* controller behaviour;
this module provides the canonical one — MAC learning with reactive
exact-match flow installation — both as a realistic traffic source for
measurements and as an end-to-end exercise of the packet_in → flow_mod
→ packet_out control loop over the wire-level protocol.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..net.fields import is_multicast_mac, mac_to_str
from . import constants as ofp
from .actions import OutputAction
from .connection import ControlEndpoint
from .match import Match
from .messages import (
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    Hello,
    Message,
    PacketIn,
    PacketOut,
)


class LearningSwitchController:
    """Reactive L2 learning controller over one switch connection."""

    def __init__(
        self,
        endpoint: ControlEndpoint,
        idle_timeout: int = 60,
        priority: int = 0x7000,
    ) -> None:
        self.endpoint = endpoint
        self.idle_timeout = idle_timeout
        self.priority = priority
        endpoint.on_message = self._on_message
        self.mac_to_port: Dict[str, int] = {}
        self.datapath_id: Optional[int] = None
        self.packet_ins_handled = 0
        self.flows_installed = 0
        self.floods = 0
        self._next_xid = 1
        # Open the handshake from our side too.
        endpoint.send(Hello(xid=self._xid()))
        endpoint.send(FeaturesRequest(xid=self._xid()))

    def _xid(self) -> int:
        xid = self._next_xid
        self._next_xid += 1
        return xid

    def _on_message(self, message: Message) -> None:
        if isinstance(message, FeaturesReply):
            self.datapath_id = message.datapath_id
        elif isinstance(message, PacketIn):
            self._handle_packet_in(message)

    def _handle_packet_in(self, event: PacketIn) -> None:
        self.packet_ins_handled += 1
        data = event.data
        if len(data) < 14:
            return
        dst_mac = mac_to_str(data[0:6])
        src_mac = mac_to_str(data[6:12])
        self.mac_to_port[src_mac] = event.in_port

        out_port = None
        if not is_multicast_mac(dst_mac):
            out_port = self.mac_to_port.get(dst_mac)

        if out_port is None:
            # Unknown destination: flood this one packet, learn later.
            self.floods += 1
            self.endpoint.send(
                PacketOut(
                    xid=self._xid(),
                    in_port=event.in_port,
                    actions=[OutputAction(ofp.OFPP_FLOOD)],
                    data=data,
                )
            )
            return

        # Known destination: install the forwarding rule, then release
        # the trigger packet along the same path.
        self.flows_installed += 1
        self.endpoint.send(
            FlowMod(
                xid=self._xid(),
                match=Match.exact(dl_dst=dst_mac),
                priority=self.priority,
                idle_timeout=self.idle_timeout,
                actions=[OutputAction(out_port)],
            )
        )
        self.endpoint.send(
            PacketOut(
                xid=self._xid(),
                in_port=event.in_port,
                actions=[OutputAction(out_port)],
                data=data,
            )
        )
