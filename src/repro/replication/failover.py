"""Failover reads: route lookups to the nearest live replica.

:class:`ReplicaFailoverRouter` is a :class:`repro.net.network.RoutingPolicy`
that redirects each lookup to the first *live* owner in placement order.
It wraps an optional inner policy, so the flat network (no inner) and
the super-peer hierarchy (inner = ``HierarchicalRouter``) both gain
failover without duplicating their path logic: the wrapper only decides
*which peer answers* — one walk of the replica set, handed to the inner
policy as ``owner`` — and the inner policy still decides *how the
message gets there*.

Skipping a crashed owner costs a REPLICA_PROBE message per dead replica
tried (the timeout-and-retry a real requester pays), logged with zero
postings so retrieval-traffic figures charge failover its true price.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from ..net.messages import MessageKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.network import MembershipEvent, P2PNetwork
    from .manager import ReplicationManager

__all__ = ["ReplicaFailoverRouter"]


class ReplicaFailoverRouter:
    """Replication-aware :class:`RoutingPolicy` wrapper.

    Args:
        manager: the installed :class:`ReplicationManager` (placement and
            liveness come from it).
        inner: the policy being wrapped (``None`` wraps the flat overlay
            walk); its ``route_lookup`` takes the answering peer as the
            ``owner`` keyword, as ``HierarchicalRouter``'s does.
    """

    def __init__(
        self,
        manager: "ReplicationManager",
        inner: Any | None = None,
    ) -> None:
        self.manager = manager
        self.inner = inner
        #: REPLICA_PROBE messages logged (dead owners skipped by reads).
        self.failover_probes = 0

    def route_lookup(
        self,
        network: "P2PNetwork",
        source_id: int,
        key: Any,
        key_id: int,
        response_size: Callable[[Any | None], int],
    ) -> Any | None:
        # One walk decides both the probe cost and the answering peer,
        # and the inner policy is handed that peer instead of walking
        # the replica set again.
        skipped, target_id = self.manager.failover_target(key_id)
        if skipped > 0 and target_id is not None:
            # Each dead owner tried costs one probe round (request that
            # times out); postings stay zero — no data moved.
            network.log_message(
                MessageKind.REPLICA_PROBE,
                source_id,
                target_id,
                postings=0,
                hops=skipped,
                key=key,
                route="failover_probe",
            )
            self.failover_probes += skipped
        if self.inner is not None:
            return self.inner.route_lookup(
                network, source_id, key, key_id, response_size,
                owner=target_id,
            )
        return self._flat_lookup(
            network, source_id, key, key_id, target_id, response_size
        )

    def _flat_lookup(
        self,
        network: "P2PNetwork",
        source_id: int,
        key: Any,
        key_id: int,
        target_id: int | None,
        response_size: Callable[[Any | None], int],
    ) -> Any | None:
        """The flat network's two-message lookup, aimed at the effective
        owner instead of the (possibly crashed) responsible peer."""
        if target_id is None:
            # Whole replica set dead: the request still routes to the
            # primary's region and times out — log the attempt, return
            # nothing (no RESPONSE arrives; zero-posting answer).
            primary = network.overlay.responsible_peer(key_id)
            network.log_message(
                MessageKind.LOOKUP,
                source_id,
                primary,
                postings=0,
                hops=max(1, network.overlay.route_hops(source_id, key_id)),
                key=key,
                route="dark_range",
            )
            return None
        hops = max(1, network.overlay.route_hops(source_id, key_id))
        network.log_message(
            MessageKind.LOOKUP,
            source_id,
            target_id,
            postings=0,
            hops=hops,
            key=key,
            route="replica_flat",
        )
        value = network.value_at(target_id, key)
        network.log_message(
            MessageKind.RESPONSE,
            target_id,
            source_id,
            postings=response_size(value),
            hops=1,
            key=key,
            route="replica_flat",
        )
        return value

    def path_hops(self, source_id: int, key_id: int) -> int:
        """Insert/stats messages still route toward the primary's region
        (writes fan out from there), so path cost is the wrapped
        policy's — or the overlay walk on the flat network."""
        if self.inner is not None:
            return self.inner.path_hops(source_id, key_id)
        return self.manager.network.overlay.route_hops(source_id, key_id)

    def on_insert(self, key: Any, key_id: int) -> None:
        if self.inner is not None:
            self.inner.on_insert(key, key_id)

    def on_membership_change(
        self, event: "MembershipEvent | None" = None
    ) -> None:
        # Manager first: the inner policy's rebuild consults placement
        # (effective_owner) and must see the post-change ring.
        self.manager.on_membership_event(event)
        if self.inner is not None:
            self.inner.on_membership_change(event)

    def describe(self) -> dict[str, Any]:
        return {
            "failover_probes": self.failover_probes,
            "inner": type(self.inner).__name__ if self.inner else None,
        }
