//! Packets and the transport-layer header fields NUMFabric and the baseline
//! protocols carry.
//!
//! Following the paper (§5), NUMFabric adds five fields to packet headers:
//! `virtualPacketLen` and `interPacketTime` for Swift, and `pathPrice`,
//! `pathLen`, `normalizedResidual` for xWI. The baseline protocols need a
//! subset of the same machinery (an aggregated price/feedback field and its
//! reflection in ACKs), and pFabric needs a priority field. Each field
//! belongs to the packet kind that uses it:
//!
//! * [`Stamps`] ride on every packet. Switches write them as the packet
//!   leaves a queue, on data packets and ACKs alike.
//! * [`DataHeader`] rides on data packets only. The sender sets it and
//!   switches read it.
//! * [`AckHeader`] rides on ACKs only. The engine's receiver sets it and the
//!   sender's agent reads it: the cumulative byte count, `interPacketTime`,
//!   and the echo of the acknowledged data packet's stamps.
//!
//! [`PacketKind`] holds the data-only or the ACK-only set, so every field
//! means the same thing on every packet that has it.

use crate::routes::{RouteId, RouteTable};
use crate::time::SimDuration;

/// Identifier of a flow within a [`crate::network::Network`].
pub type FlowId = usize;

/// Per-packet sequence number (byte offset of the first payload byte).
pub type SeqNo = u64;

/// Wire size of the transport/IP/Ethernet headers we model, in bytes.
pub const HEADER_BYTES: u32 = 40;
/// Default MTU-sized payload in bytes.
pub const DEFAULT_PAYLOAD_BYTES: u32 = 1460;
/// Wire size of a full MTU packet.
pub const MTU_BYTES: u32 = HEADER_BYTES + DEFAULT_PAYLOAD_BYTES;

/// Feedback the switches on the path write into every packet as it is
/// dequeued. An ACK collects its own set on the reverse path; the forward
/// set it echoes lives in its [`AckHeader`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Stamps {
    /// `pathPrice` (xWI, DGD): running sum of link prices along the path.
    pub path_price: f64,
    /// RCP* feedback (`Σ R_l^{-α}`); kept separate from `path_price` so a
    /// misconfigured experiment cannot mix them up.
    pub rcp_feedback: f64,
    /// `pathLen`: number of links whose controller stamped this packet.
    pub path_len: u32,
    /// ECN congestion-experienced mark, set by a queue (DCTCP).
    pub ecn_marked: bool,
}

/// The fields only data packets carry: the sender sets them and the
/// switches on the path read them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataHeader {
    /// `virtualPacketLen` (Swift): packet length divided by the flow's
    /// weight; the STFQ scheduler advances the flow's virtual finish time by
    /// it. Zero makes the packet a control packet to WFQ.
    pub virtual_packet_len: f64,
    /// `normalizedResidual` (xWI): the flow's KKT residual divided by its
    /// path length, read by every switch on the path.
    pub normalized_residual: f64,
    /// pFabric priority (remaining flow size in bytes); smaller = higher
    /// priority.
    pub pfabric_priority: f64,
    /// ECN: whether the packet is ECN-capable (DCTCP).
    pub ecn_capable: bool,
}

impl Default for DataHeader {
    fn default() -> Self {
        Self {
            virtual_packet_len: 0.0,
            normalized_residual: 0.0,
            pfabric_priority: f64::MAX,
            ecn_capable: false,
        }
    }
}

/// The fields only ACKs carry: the engine's receiver sets them from the
/// acknowledged data packet and the sender's agent reads them. The echoed
/// stamps are the data packet's as they were at delivery; the ACK's own
/// [`Stamps`] are whatever the reverse path wrote.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AckHeader {
    /// The cumulative number of payload bytes delivered to the receiver.
    pub ack_bytes: u64,
    /// `interPacketTime` (Swift): receiver-measured spacing between this
    /// data packet and the flow's previous one; `None` for the first.
    pub inter_packet_time: Option<SimDuration>,
    /// The acknowledged data packet's `pathPrice`.
    pub reflected_path_price: f64,
    /// The acknowledged data packet's RCP* feedback.
    pub reflected_rcp_feedback: f64,
    /// The acknowledged data packet's `pathLen`.
    pub reflected_path_len: u32,
    /// The acknowledged data packet's ECN mark (DCTCP receiver feedback).
    pub ecn_echo: bool,
}

/// What kind of packet this is, with the header fields only that kind
/// carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PacketKind {
    /// A data segment.
    Data(DataHeader),
    /// A (pure) acknowledgment, carrying the reflected feedback fields.
    Ack(AckHeader),
}

/// A simulated packet.
#[derive(Debug, Clone)]
pub struct Packet {
    /// The flow this packet belongs to.
    pub flow: FlowId,
    /// Data: byte offset of the first payload byte. ACK: the acknowledged
    /// sequence number, formed as the flow's
    /// [`crate::transport::AckMode`] says.
    pub seq: SeqNo,
    /// Payload bytes carried (0 for an ACK).
    pub payload_bytes: u32,
    /// Total wire size in bytes (payload + headers).
    pub wire_bytes: u32,
    /// The route this packet follows, interned in the network's
    /// [`RouteTable`] at flow setup (copyable — forwarding never clones).
    pub route: RouteId,
    /// Index of the next link on `route` the packet has yet to traverse.
    /// [`RouteTable::intern`] refuses routes this index cannot address.
    pub hop: u16,
    /// Feedback stamped by the switches on the path.
    pub stamps: Stamps,
    /// Packet kind, with its kind-specific header fields.
    pub kind: PacketKind,
}

// Size budget. A packet moves by value several times per hop: into the
// wheel, out at dispatch, into its queue and out again. Copies above 128 B
// compile to `memcpy` calls instead of inline vector moves, and those bytes
// are a first-order cost of the packet path: padding `Packet` to 304 B read
// 25–35 % slower `wall_s` on three benchmark workloads, and splitting the
// header by kind (152 B → 104 B) read 0.83–0.90× `wall_s` on the four
// single-threaded ones (2-vCPU VM). A field that breaks the budget fails
// the build. `Event` has its own budget in `crate::event`.
const _: () = assert!(std::mem::size_of::<Packet>() <= 112);

impl Packet {
    /// Create a data packet whose sender-set fields are `header`.
    pub fn data(
        flow: FlowId,
        seq: SeqNo,
        payload_bytes: u32,
        route: RouteId,
        header: DataHeader,
    ) -> Self {
        Self {
            flow,
            seq,
            payload_bytes,
            wire_bytes: payload_bytes + HEADER_BYTES,
            route,
            hop: 0,
            stamps: Stamps::default(),
            kind: PacketKind::Data(header),
        }
    }

    /// Create a pure ACK of sequence number `seq` carrying `header`.
    pub fn ack(flow: FlowId, seq: SeqNo, route: RouteId, header: AckHeader) -> Self {
        Self {
            flow,
            seq,
            payload_bytes: 0,
            wire_bytes: HEADER_BYTES,
            route,
            hop: 0,
            stamps: Stamps::default(),
            kind: PacketKind::Ack(header),
        }
    }

    /// Whether this is a data packet (control packets are ignored by the
    /// xWI residual tracking and bypass the data queues).
    pub fn is_data(&self) -> bool {
        matches!(self.kind, PacketKind::Data(_))
    }

    /// The data-only fields, if this is a data packet.
    pub fn data_header(&self) -> Option<&DataHeader> {
        match &self.kind {
            PacketKind::Data(header) => Some(header),
            _ => None,
        }
    }

    /// The ACK-only fields, if this is an ACK.
    pub fn ack_header(&self) -> Option<&AckHeader> {
        match &self.kind {
            PacketKind::Ack(header) => Some(header),
            _ => None,
        }
    }

    /// The packet's pFabric priority: the sender's for a data packet, the
    /// lowest (`f64::MAX`) for a control packet.
    #[inline]
    pub(crate) fn pfabric_priority(&self) -> f64 {
        self.data_header().map_or(f64::MAX, |h| h.pfabric_priority)
    }

    /// The next link this packet must traverse, if it has not reached its
    /// destination yet.
    #[inline]
    pub fn next_link(&self, routes: &RouteTable) -> Option<crate::topology::LinkId> {
        routes.hop(self.route, self.hop as usize)
    }

    /// Advance to the next hop (called by the network when the packet finishes
    /// traversing a link).
    pub fn advance_hop(&mut self) {
        self.hop += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route(links: Vec<usize>) -> (RouteTable, RouteId) {
        let mut table = RouteTable::new();
        let id = table.intern(&links);
        (table, id)
    }

    #[test]
    fn data_packet_sizes_include_header() {
        let (_table, rid) = route(vec![0, 1]);
        let p = Packet::data(3, 1460, DEFAULT_PAYLOAD_BYTES, rid, DataHeader::default());
        assert_eq!(p.wire_bytes, MTU_BYTES);
        assert_eq!(p.payload_bytes, 1460);
        assert!(p.is_data());
        assert_eq!(p.flow, 3);
    }

    #[test]
    fn control_packets_are_header_only() {
        let (_table, rid) = route(vec![0]);
        let a = Packet::ack(1, 0, rid, AckHeader::default());
        assert_eq!(a.wire_bytes, HEADER_BYTES);
        assert!(!a.is_data());
        assert!(a.data_header().is_none());
        assert!(a.ack_header().is_some());
        assert_eq!(a.pfabric_priority(), f64::MAX);
    }

    #[test]
    fn hop_advancement_walks_the_route() {
        let (table, rid) = route(vec![5, 7, 9]);
        let mut p = Packet::data(0, 0, 1000, rid, DataHeader::default());
        assert_eq!(p.next_link(&table), Some(5));
        p.advance_hop();
        assert_eq!(p.next_link(&table), Some(7));
        p.advance_hop();
        assert_eq!(p.next_link(&table), Some(9));
        p.advance_hop();
        assert_eq!(p.next_link(&table), None);
    }

    #[test]
    fn header_defaults_are_neutral() {
        let s = Stamps::default();
        assert_eq!(s.path_price, 0.0);
        assert_eq!(s.path_len, 0);
        assert!(!s.ecn_marked);
        let d = DataHeader::default();
        assert_eq!(d.virtual_packet_len, 0.0);
        assert_eq!(d.pfabric_priority, f64::MAX);
        assert!(!d.ecn_capable);
        let a = AckHeader::default();
        assert!(a.inter_packet_time.is_none());
        assert_eq!(a.reflected_path_len, 0);
    }
}
