//! Streaming MRT archive reader/writer.
//!
//! [`MrtWriter`] serializes records into an in-memory archive (or any
//! `Vec<u8>`-backed file image). [`MrtReader`] iterates records back out,
//! tracking the active PEER_INDEX_TABLE so RIB entries resolve their peers
//! — exactly how consumers of RIPE/RouteViews dumps (e.g. bgpkit-parser)
//! behave.
//!
//! The reader is an `Iterator<Item = Result<MrtRecord>>`, so callers can
//! choose to abort or skip on malformed records. A record whose header
//! and length framing are intact but whose body is malformed or of a
//! type this codec does not model (e.g. `BGP4MP_STATE_CHANGE_AS4`) yields
//! an error and the reader moves on to the next frame. A broken header
//! or length ends the stream: lengths chain, so resynchronisation after a
//! corrupt frame is impossible, matching real-world tooling. So does a
//! malformed PEER_INDEX_TABLE: every later RIB entry resolves its peer
//! through that table, so skipping it would misattribute them.

use crate::error::Result;
use crate::record::{
    decode_body, encode_peer_index, encode_rib_group, encode_update, read_frame, MrtRecord,
    PeerIndexTable, RibGroup, SUBTYPE_PEER_INDEX_TABLE, TYPE_TABLE_DUMP_V2,
};
use crate::wire::Cursor;
use bgp_types::prelude::*;

/// Serializes MRT records into a contiguous archive buffer.
#[derive(Debug, Default)]
pub struct MrtWriter {
    buf: Vec<u8>,
    records: usize,
}

impl MrtWriter {
    /// New empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a BGP4MP_MESSAGE_AS4 update record.
    pub fn write_update(&mut self, msg: &UpdateMessage) -> Result<()> {
        let bytes = encode_update(msg)?;
        self.buf.extend_from_slice(&bytes);
        self.records += 1;
        Ok(())
    }

    /// Append a PEER_INDEX_TABLE record (must precede RIB records).
    pub fn write_peer_index(&mut self, table: &PeerIndexTable, timestamp: u32) -> Result<()> {
        let bytes = encode_peer_index(table, timestamp)?;
        self.buf.extend_from_slice(&bytes);
        self.records += 1;
        Ok(())
    }

    /// Append a RIB record for one prefix.
    pub fn write_rib_group(&mut self, group: &RibGroup, timestamp: u32) -> Result<()> {
        let bytes = encode_rib_group(group, timestamp)?;
        self.buf.extend_from_slice(&bytes);
        self.records += 1;
        Ok(())
    }

    /// Number of records written.
    pub fn record_count(&self) -> usize {
        self.records
    }

    /// Size of the archive in bytes.
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// Finish and take the archive bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }
}

/// Iterates records out of an MRT archive.
pub struct MrtReader<'a> {
    cursor: Cursor<'a>,
    peer_table: Option<PeerIndexTable>,
    failed: bool,
}

impl<'a> MrtReader<'a> {
    /// Wrap archive bytes.
    pub fn new(bytes: &'a [u8]) -> Self {
        MrtReader {
            cursor: Cursor::new(bytes),
            peer_table: None,
            failed: false,
        }
    }

    /// The PEER_INDEX_TABLE seen so far, if any.
    pub fn peer_table(&self) -> Option<&PeerIndexTable> {
        self.peer_table.as_ref()
    }

    /// Whether a broken frame or peer table ended the stream. An error
    /// yielded while this is still `false` was confined to one record's
    /// body, and iteration continues after it.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Decode every record, failing on the first error.
    pub fn read_all(self) -> Result<Vec<MrtRecord>> {
        let mut out = Vec::new();
        for r in self {
            out.push(r?);
        }
        Ok(out)
    }
}

/// `(type, subtype)` of the TABLE_DUMP_V2 PEER_INDEX_TABLE record.
const PEER_INDEX: (u16, u16) = (TYPE_TABLE_DUMP_V2, SUBTYPE_PEER_INDEX_TABLE);

impl Iterator for MrtReader<'_> {
    type Item = Result<MrtRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed || self.cursor.is_exhausted() {
            return None;
        }
        let (header, mut body) = match read_frame(&mut self.cursor) {
            Ok(frame) => frame,
            Err(e) => {
                // Lengths chain; once a frame is bad the stream is dead.
                self.failed = true;
                return Some(Err(e));
            }
        };
        // The body was taken off the cursor whole, so a body error
        // leaves the cursor at the next record.
        match decode_body(&header, &mut body, self.peer_table.as_ref()) {
            Ok(MrtRecord::PeerIndex(t)) => {
                self.peer_table = Some(t.clone());
                Some(Ok(MrtRecord::PeerIndex(t)))
            }
            Err(e) if (header.mrt_type, header.subtype) == PEER_INDEX => {
                // Later RIB entries would resolve against no table, or a
                // stale one: end the stream rather than misattribute.
                self.failed = true;
                Some(Err(e))
            }
            other => Some(other),
        }
    }
}

/// Lazy, record-at-a-time tuple extraction: the streaming counterpart of
/// [`extract_tuples`]. Yields `(timestamp, tuple)` pairs as records
/// decode — update messages carry their capture time, RIB entries their
/// `originated` time — applying the path-shape sanitation (AS_SET
/// removal, peer prepending, prepend collapse) per entry. Memory stays
/// bounded by one record regardless of archive size.
///
/// Errors follow [`MrtReader`]: a record the reader could frame but not
/// decode (an unmodelled type such as a state change, a malformed body)
/// yields one error, is counted in [`TupleStream::skipped_records`], and
/// iteration continues with the next record. A broken frame or peer
/// table yields its error last ([`TupleStream::is_failed`]).
pub struct TupleStream<'a> {
    reader: MrtReader<'a>,
    pending: std::collections::VecDeque<(u64, PathCommTuple)>,
    raw_entries: u64,
    kept: u64,
    shape_dropped: u64,
    skipped_records: u64,
}

impl<'a> TupleStream<'a> {
    /// Stream tuples out of archive bytes.
    pub fn new(bytes: &'a [u8]) -> Self {
        TupleStream {
            reader: MrtReader::new(bytes),
            pending: std::collections::VecDeque::new(),
            raw_entries: 0,
            kept: 0,
            shape_dropped: 0,
            skipped_records: 0,
        }
    }

    /// Raw entries seen so far (Table 1's "Entries total" accounting —
    /// final once the iterator is exhausted).
    pub fn raw_entries(&self) -> u64 {
        self.raw_entries
    }

    /// Tuples yielded so far.
    pub fn kept(&self) -> u64 {
        self.kept
    }

    /// Announcements dropped so far because the path was unusable after
    /// shape cleaning (pure AS_SET, AS0, empty).
    pub fn shape_dropped(&self) -> u64 {
        self.shape_dropped
    }

    /// Well-framed records skipped so far because their body was
    /// unsupported or malformed (each was yielded as an error).
    pub fn skipped_records(&self) -> u64 {
        self.skipped_records
    }

    /// Whether the last error yielded ended the stream.
    pub fn is_failed(&self) -> bool {
        self.reader.is_failed()
    }
}

impl Iterator for TupleStream<'_> {
    type Item = Result<(u64, PathCommTuple)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(item) = self.pending.pop_front() {
                return Some(Ok(item));
            }
            match self.reader.next()? {
                Err(e) => {
                    if !self.reader.is_failed() {
                        self.skipped_records += 1;
                    }
                    return Some(Err(e));
                }
                Ok(MrtRecord::PeerIndex(_)) => {}
                Ok(MrtRecord::Update(u)) => {
                    self.raw_entries += 1;
                    if u.announced.is_empty() {
                        continue; // withdrawals carry no usable (path, comm)
                    }
                    if let Some(path) = u.attributes.as_path.sanitize(Some(u.peer_asn)) {
                        self.kept += 1;
                        self.pending.push_back((
                            u.timestamp,
                            PathCommTuple::new(path, u.attributes.communities.clone()),
                        ));
                    } else {
                        self.shape_dropped += 1;
                    }
                }
                Ok(MrtRecord::RibEntries(entries)) => {
                    for e in entries {
                        self.raw_entries += 1;
                        if let Some(path) = e.attributes.as_path.sanitize(Some(e.peer_asn)) {
                            self.kept += 1;
                            self.pending.push_back((
                                e.originated,
                                PathCommTuple::new(path, e.attributes.communities.clone()),
                            ));
                        } else {
                            self.shape_dropped += 1;
                        }
                    }
                }
            }
        }
    }
}

/// Convenience: extract every `(path, comm)` observation from an archive,
/// sanitizing paths per the paper's §4.1 pipeline (AS_SET removal, peer
/// prepending, prepend collapse) and dropping unusable entries.
///
/// Returns the tuples plus the number of raw entries seen (for Table 1's
/// "Entries total" accounting). Withdrawals carry no path and are skipped.
/// This is [`TupleStream`] drained into a vector: well-framed records it
/// cannot decode are skipped, and only an error that ends the stream is
/// returned.
pub fn extract_tuples(bytes: &[u8]) -> Result<(Vec<PathCommTuple>, u64)> {
    let mut stream = TupleStream::new(bytes);
    let mut tuples = Vec::new();
    while let Some(item) = stream.next() {
        match item {
            Ok((_, t)) => tuples.push(t),
            Err(e) if stream.is_failed() => return Err(e),
            Err(_) => {}
        }
    }
    Ok((tuples, stream.raw_entries()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MrtError;
    use crate::record::{MrtHeader, PeerEntry};
    use crate::wire::PutExt;

    fn update(peer: u32, path: &[u32], comms: &[(u16, u16)], ts: u64) -> UpdateMessage {
        UpdateMessage::announcement(
            Asn(peer),
            ts,
            Prefix::v4([203, 0, 114, 0], 24),
            RawAsPath::from_sequence(path.iter().map(|&v| Asn(v)).collect()),
            CommunitySet::from_iter(comms.iter().map(|&(a, b)| AnyCommunity::regular(a, b))),
        )
    }

    #[test]
    fn write_read_mixed_archive() {
        let mut w = MrtWriter::new();
        let table = PeerIndexTable {
            collector_id: 1,
            view_name: "test".into(),
            peers: vec![PeerEntry {
                bgp_id: 1,
                ip: vec![192, 0, 2, 1],
                asn: Asn(64500),
            }],
        };
        w.write_peer_index(&table, 0).unwrap();
        let g = RibGroup {
            sequence: 0,
            prefix: Prefix::v4([193, 0, 0, 0], 16),
            entries: vec![(
                0,
                0,
                PathAttributes {
                    as_path: RawAsPath::from_sequence(vec![Asn(64500), Asn(3356)]),
                    ..Default::default()
                },
            )],
        };
        w.write_rib_group(&g, 0).unwrap();
        w.write_update(&update(64500, &[64500, 3356, 15169], &[(3356, 1)], 100))
            .unwrap();
        assert_eq!(w.record_count(), 3);

        let bytes = w.into_bytes();
        let records = MrtReader::new(&bytes).read_all().unwrap();
        assert_eq!(records.len(), 3);
        assert!(matches!(records[0], MrtRecord::PeerIndex(_)));
        assert!(matches!(records[1], MrtRecord::RibEntries(_)));
        assert!(matches!(records[2], MrtRecord::Update(_)));
    }

    #[test]
    fn rib_entries_resolve_peers_via_stream_state() {
        let mut w = MrtWriter::new();
        let table = PeerIndexTable {
            collector_id: 1,
            view_name: String::new(),
            peers: vec![PeerEntry {
                bgp_id: 1,
                ip: vec![10, 0, 0, 1],
                asn: Asn(7018),
            }],
        };
        w.write_peer_index(&table, 0).unwrap();
        let g = RibGroup {
            sequence: 1,
            prefix: Prefix::v4([8, 8, 0, 0], 16),
            entries: vec![(
                0,
                5,
                PathAttributes {
                    as_path: RawAsPath::from_sequence(vec![Asn(7018), Asn(15169)]),
                    ..Default::default()
                },
            )],
        };
        w.write_rib_group(&g, 0).unwrap();
        let bytes = w.into_bytes();
        let recs = MrtReader::new(&bytes).read_all().unwrap();
        match &recs[1] {
            MrtRecord::RibEntries(es) => assert_eq!(es[0].peer_asn, Asn(7018)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn extract_tuples_sanitizes() {
        let mut w = MrtWriter::new();
        // Path with prepending; peer equals first hop.
        w.write_update(&update(64500, &[64500, 64500, 3356], &[(3356, 9)], 0))
            .unwrap();
        let (tuples, raw) = extract_tuples(w.as_bytes()).unwrap();
        assert_eq!(raw, 1);
        assert_eq!(tuples.len(), 1);
        assert_eq!(tuples[0].path.asns(), &[Asn(64500), Asn(3356)]);
        assert!(tuples[0].comm.contains_upper(Asn(3356)));
    }

    #[test]
    fn extract_tuples_prepends_missing_peer() {
        // Route-server style: peer ASN not on path.
        let mut w = MrtWriter::new();
        w.write_update(&update(6695, &[64500, 3356], &[], 0))
            .unwrap();
        let (tuples, _) = extract_tuples(w.as_bytes()).unwrap();
        assert_eq!(tuples[0].path.peer(), Asn(6695));
        assert_eq!(tuples[0].path.len(), 3);
    }

    #[test]
    fn tuple_stream_matches_extract_and_carries_timestamps() {
        let mut w = MrtWriter::new();
        w.write_update(&update(64500, &[64500, 3356], &[(3356, 1)], 100))
            .unwrap();
        w.write_update(&update(64501, &[64501, 174], &[], 200))
            .unwrap();
        let bytes = w.into_bytes();

        let mut stream = TupleStream::new(&bytes);
        let streamed: Vec<(u64, PathCommTuple)> = (&mut stream).map(|r| r.unwrap()).collect();
        let (batch, raw) = extract_tuples(&bytes).unwrap();
        assert_eq!(stream.raw_entries(), raw);
        assert_eq!(streamed.len(), batch.len());
        assert_eq!(streamed[0].0, 100);
        assert_eq!(streamed[1].0, 200);
        for ((_, s), b) in streamed.iter().zip(&batch) {
            assert_eq!(s, b);
        }
    }

    #[test]
    fn tuple_stream_stops_at_first_error() {
        let mut w = MrtWriter::new();
        w.write_update(&update(1, &[1, 2], &[], 0)).unwrap();
        let mut bytes = w.into_bytes();
        bytes.truncate(bytes.len() - 3);
        let results: Vec<_> = TupleStream::new(&bytes).collect();
        assert_eq!(results.len(), 1);
        assert!(results[0].is_err());
    }

    /// A `BGP4MP_STATE_CHANGE_AS4` record (type 16 / subtype 5): peer
    /// and local AS, interface, AFI, IPv4 peer and local address, old
    /// and new FSM state.
    fn state_change_record() -> Vec<u8> {
        let mut body = Vec::new();
        body.put_u32(64500);
        body.put_u32(65000);
        body.put_u16(0);
        body.put_u16(1);
        body.extend_from_slice(&[192, 0, 2, 1, 192, 0, 2, 2]);
        body.put_u16(6);
        body.put_u16(1);
        let mut out = Vec::new();
        MrtHeader {
            timestamp: 150,
            mrt_type: crate::record::TYPE_BGP4MP,
            subtype: 5,
            length: body.len() as u32,
        }
        .encode(&mut out);
        out.extend_from_slice(&body);
        out
    }

    #[test]
    fn unmodelled_record_is_skipped_not_fatal() {
        let mut w = MrtWriter::new();
        w.write_update(&update(64500, &[64500, 3356], &[(3356, 1)], 100))
            .unwrap();
        let first = w.byte_len();
        w.write_update(&update(64501, &[64501, 174, 15169], &[(174, 7)], 200))
            .unwrap();
        let clean = w.into_bytes();
        let mut spliced = clean[..first].to_vec();
        spliced.extend_from_slice(&state_change_record());
        spliced.extend_from_slice(&clean[first..]);

        let records: Vec<_> = MrtReader::new(&spliced).collect();
        assert_eq!(records.len(), 3);
        assert_eq!(
            records[1],
            Err(MrtError::UnsupportedType {
                mrt_type: 16,
                subtype: 5
            })
        );
        assert!(records[2].is_ok());

        // The skipped record surfaces as one non-fatal error in place.
        let mut stream = TupleStream::new(&spliced);
        let items: Vec<_> = (&mut stream).collect();
        assert_eq!(items.len(), 3);
        assert!(items[1].is_err());
        assert!(!stream.is_failed());
        assert_eq!(stream.skipped_records(), 1);
        let got: Vec<(u64, PathCommTuple)> = items.into_iter().filter_map(|r| r.ok()).collect();
        let want: Vec<(u64, PathCommTuple)> =
            TupleStream::new(&clean).map(|r| r.unwrap()).collect();
        assert_eq!(got, want);
        assert_eq!(got.len(), 2);
        assert_eq!(
            extract_tuples(&spliced).unwrap(),
            extract_tuples(&clean).unwrap()
        );
    }

    #[test]
    fn malformed_body_is_skipped_but_broken_frame_ends_stream() {
        let mut w = MrtWriter::new();
        w.write_update(&update(1, &[1, 2], &[], 0)).unwrap();
        let first = w.byte_len();
        w.write_update(&update(3, &[3, 4], &[], 0)).unwrap();
        w.write_update(&update(5, &[5, 6], &[], 0)).unwrap();
        let mut bytes = w.into_bytes();
        // Corrupt the second record's BGP marker: its frame stays intact.
        bytes[first + MrtHeader::SIZE + 20] ^= 0xff;
        let mut stream = TupleStream::new(&bytes);
        let peers: Vec<Asn> = (&mut stream)
            .filter_map(|r| r.ok())
            .map(|(_, t)| t.path.peer())
            .collect();
        assert_eq!(peers, vec![Asn(1), Asn(5)]);
        assert_eq!(stream.skipped_records(), 1);
        assert_eq!(extract_tuples(&bytes).unwrap().0.len(), 2);

        // A truncated final frame is still fatal, after the good records.
        bytes.truncate(bytes.len() - 3);
        let mut stream = TupleStream::new(&bytes);
        let results: Vec<_> = (&mut stream).collect();
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok() && results[1].is_err() && results[2].is_err());
        assert!(stream.is_failed());
        assert_eq!(stream.skipped_records(), 1);
        assert!(extract_tuples(&bytes).is_err());
    }

    /// One TABLE_DUMP_V2 dump: a peer table naming `peer`, then one RIB
    /// entry learned from it. Returns the bytes and the offset of the
    /// peer table's 16-bit peer count.
    fn rib_dump(peer: u32) -> (Vec<u8>, usize) {
        let mut w = MrtWriter::new();
        let table = PeerIndexTable {
            collector_id: 1,
            view_name: String::new(),
            peers: vec![PeerEntry {
                bgp_id: 1,
                ip: vec![10, 0, 0, 1],
                asn: Asn(peer),
            }],
        };
        w.write_peer_index(&table, 0).unwrap();
        let g = RibGroup {
            sequence: 1,
            prefix: Prefix::v4([8, 8, 0, 0], 16),
            entries: vec![(
                0,
                5,
                PathAttributes {
                    as_path: RawAsPath::from_sequence(vec![Asn(peer), Asn(15169)]),
                    ..Default::default()
                },
            )],
        };
        w.write_rib_group(&g, 0).unwrap();
        // Collector id (4), empty view name (2), then the peer count.
        (w.into_bytes(), MrtHeader::SIZE + 6)
    }

    #[test]
    fn malformed_peer_table_ends_stream() {
        // Alone: without the table every RIB entry would lose its peer.
        let (mut bytes, count_at) = rib_dump(7018);
        bytes[count_at..count_at + 2].copy_from_slice(&[0xff, 0xff]);
        assert!(extract_tuples(&bytes).is_err());
        let mut stream = TupleStream::new(&bytes);
        assert!(stream.next().unwrap().is_err());
        assert!(stream.is_failed());
        assert!(stream.next().is_none());
        assert_eq!(stream.skipped_records(), 0);

        // After a valid dump: the stale table must not resolve the
        // second dump's entries.
        let (mut bytes, _) = rib_dump(7018);
        let (second, count_at) = rib_dump(3356);
        let count_at = bytes.len() + count_at;
        bytes.extend_from_slice(&second);
        bytes[count_at..count_at + 2].copy_from_slice(&[0xff, 0xff]);
        assert!(extract_tuples(&bytes).is_err());
        let results: Vec<_> = TupleStream::new(&bytes).collect();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].as_ref().unwrap().1.path.peer(), Asn(7018));
        assert!(results[1].is_err());
    }

    #[test]
    fn corrupt_archive_reports_error_then_stops() {
        let mut w = MrtWriter::new();
        w.write_update(&update(1, &[1, 2], &[], 0)).unwrap();
        let mut bytes = w.into_bytes();
        bytes.truncate(bytes.len() - 3);
        let results: Vec<_> = MrtReader::new(&bytes).collect();
        assert_eq!(results.len(), 1);
        assert!(results[0].is_err());
    }

    #[test]
    fn empty_archive_yields_nothing() {
        assert!(MrtReader::new(&[]).read_all().unwrap().is_empty());
        let (tuples, raw) = extract_tuples(&[]).unwrap();
        assert!(tuples.is_empty());
        assert_eq!(raw, 0);
    }

    #[test]
    fn withdrawal_only_updates_counted_but_not_tupled() {
        let mut w = MrtWriter::new();
        let mut u = update(1, &[1, 2], &[], 0);
        u.withdrawn = u.announced.drain(..).collect();
        w.write_update(&u).unwrap();
        let (tuples, raw) = extract_tuples(w.as_bytes()).unwrap();
        assert_eq!(raw, 1);
        assert!(tuples.is_empty());
    }
}
