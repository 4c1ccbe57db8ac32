//! Seeded inputs: one TABLE_DUMP_V2 RIB snapshot, the BGP4MP update files
//! of the live schedule, and the batch oracle the daemon's answers are
//! checked against.

use bgp_bench::{consistent_world, Rng};
use bgp_infer::engine::{InferenceConfig, InferenceEngine};
use bgp_mrt::{extract_tuples, MrtWriter, PeerEntry, PeerIndexTable, RibGroup};
use bgp_types::prelude::*;
use std::collections::{BTreeMap, HashMap};

/// Events per epoch: `bgp-served`'s default `-e`. The RIB holds a whole
/// number of epochs and every live file holds exactly one, so the daemon
/// seals once per arrival.
pub const EPOCH_EVENTS: usize = 8_192;
/// Epochs in the RIB snapshot: 122 × 8192 = 999,424 entries (about 1M).
pub const RIB_EPOCHS: usize = 122;
/// RIB entries.
pub const RIB_ENTRIES: usize = EPOCH_EVENTS * RIB_EPOCHS;
/// Entries per TABLE_DUMP_V2 record (one prefix seen from several peers).
const ENTRIES_PER_PREFIX: usize = 8;
/// One live event in ten is a tuple the RIB never held.
const LIVE_NEW_PER_MILLE: u64 = 100;
const BASE_TS: u32 = 1_621_382_400;

/// The generated world of one seed.
pub struct World {
    /// The RIB tuples, in file order.
    pub rib: Vec<PathCommTuple>,
    /// The RIB snapshot as raw MRT bytes.
    pub rib_mrt: Vec<u8>,
}

impl World {
    /// Generate the RIB world of `seed`.
    pub fn generate(seed: u64) -> Result<World, String> {
        let rib = consistent_world(RIB_ENTRIES, seed);
        let rib_mrt = encode_rib(&rib)?;
        Ok(World { rib, rib_mrt })
    }

    /// Live files `range` (each a BGP4MP file of [`EPOCH_EVENTS`]
    /// announcements: nine in ten re-announce a RIB tuple, one in ten is
    /// new). File `a` depends only on `seed` and `a`. Returns each file's
    /// bytes and the new tuples; the re-announcements add none after
    /// dedup.
    pub fn live_files(
        &self,
        seed: u64,
        range: std::ops::Range<usize>,
    ) -> Result<(Vec<Vec<u8>>, Vec<PathCommTuple>), String> {
        let mut files = Vec::with_capacity(range.len());
        let mut new = Vec::new();
        for a in range {
            let stir = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (a as u64 + 1);
            let mut rng = Rng(stir | 1);
            let mut fresh = consistent_world(EPOCH_EVENTS / 8, stir.rotate_left(17)).into_iter();
            let mut w = MrtWriter::new();
            for i in 0..EPOCH_EVENTS {
                let tuple = if rng.below(1000) < LIVE_NEW_PER_MILLE {
                    new.push(fresh.next().ok_or("live world exhausted")?);
                    new.last().expect("just pushed")
                } else {
                    &self.rib[rng.below(self.rib.len() as u64) as usize]
                };
                let ts = u64::from(BASE_TS) + 86_400 + (a * EPOCH_EVENTS + i) as u64 / 100;
                let n = rng.below(1 << 22) as u32;
                let prefix = Prefix::v4([20 + (n >> 16) as u8, (n >> 8) as u8, n as u8, 0], 24);
                w.write_update(&UpdateMessage::announcement(
                    tuple.path.peer(),
                    ts,
                    prefix,
                    RawAsPath::from_sequence(tuple.path.asns().to_vec()),
                    tuple.comm.clone(),
                ))
                .map_err(|e| format!("encode update: {e}"))?;
            }
            files.push(w.into_bytes());
        }
        Ok((files, new))
    }
}

fn encode_rib(rib: &[PathCommTuple]) -> Result<Vec<u8>, String> {
    // TABLE_DUMP_V2 resolves each entry's peer through the index table,
    // and sanitation prepends the peer when the path does not start with
    // it: make every path's first hop a listed peer.
    let mut index: BTreeMap<Asn, u16> = BTreeMap::new();
    for t in rib {
        let next = index.len();
        index.entry(t.path.peer()).or_insert_with(|| next as u16);
    }
    if index.len() > usize::from(u16::MAX) {
        return Err(format!("{} peers do not fit a peer index", index.len()));
    }
    let mut peers = vec![None; index.len()];
    for (&asn, &i) in &index {
        let n = u32::from(i) + 1;
        peers[usize::from(i)] = Some(PeerEntry {
            bgp_id: n,
            ip: vec![10, (n >> 16) as u8, (n >> 8) as u8, n as u8],
            asn,
        });
    }
    let table = PeerIndexTable {
        collector_id: 0x0A00_0001,
        view_name: String::new(),
        peers: peers.into_iter().flatten().collect(),
    };
    let mut w = MrtWriter::new();
    w.write_peer_index(&table, BASE_TS)
        .map_err(|e| format!("encode peer index: {e}"))?;
    for (g, chunk) in rib.chunks(ENTRIES_PER_PREFIX).enumerate() {
        let entries = chunk
            .iter()
            .map(|t| {
                (
                    index[&t.path.peer()],
                    BASE_TS,
                    PathAttributes {
                        origin: Some(Origin::Igp),
                        as_path: RawAsPath::from_sequence(t.path.asns().to_vec()),
                        next_hop: Some([192, 0, 2, 1]),
                        communities: t.comm.clone(),
                    },
                )
            })
            .collect();
        let group = RibGroup {
            sequence: g as u32,
            prefix: Prefix::v4([1 + (g >> 16) as u8, (g >> 8) as u8, g as u8, 0], 24),
            entries,
        };
        w.write_rib_group(&group, BASE_TS)
            .map_err(|e| format!("encode rib group: {e}"))?;
    }
    let bytes = w.into_bytes();
    // The daemon must see exactly the generated entries: no sanitation
    // drops, so the RIB stays a whole number of epochs.
    let (decoded, raw) = extract_tuples(&bytes).map_err(|e| format!("decode rib: {e}"))?;
    if decoded.len() != rib.len() || raw != rib.len() as u64 {
        return Err(format!(
            "rib round trip kept {} of {} entries",
            decoded.len(),
            rib.len()
        ));
    }
    Ok(bytes)
}

/// The batch oracle: `InferenceEngine` over the deduplicated tuples, the
/// `stream_parity` semantics of a deduplicating pipeline. Returns every
/// classified AS with its class code.
pub fn oracle<'a>(tuples: impl IntoIterator<Item = &'a PathCommTuple>) -> HashMap<u32, String> {
    let unique: TupleSet = tuples.into_iter().cloned().collect();
    let outcome = InferenceEngine::new(InferenceConfig {
        threads: 1,
        ..Default::default()
    })
    .run(&unique.to_vec());
    bgp_infer::db::records(&outcome)
        .into_iter()
        .map(|r| (r.asn.0, r.class.as_str()))
        .collect()
}
