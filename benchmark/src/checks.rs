//! Output checks, run on every invocation; any failure is fatal.
//!
//! Per-request size checks happen inline in the replay. This module is
//! the post-run audit of what the system left behind: delivered copies,
//! catalog ↔ repository agreement, and decodability of coded datasets.

use scdn_storage::coding::{decode_blocks, CodedBlockId};
use scdn_storage::object::SegmentId;
use scdn_storage::repository::Partition;

use crate::run::Epoch;
use crate::workloads::Sizes;
use crate::world::World;

/// Audit the world an epoch just ran on.
pub fn audit(world: &World, sizes: &Sizes, epoch: &Epoch) -> Result<(), String> {
    delivered_copies(world, sizes, epoch)?;
    catalog_matches_repositories(world, sizes)?;
    coded_datasets_decode(world)
}

/// Each audited requester's repository holds every segment of what it
/// fetched, each segment passes its checksum, and the segments
/// concatenate to the published bytes.
fn delivered_copies(world: &World, sizes: &Sizes, epoch: &Epoch) -> Result<(), String> {
    for &(node, slot) in &epoch.served_pairs {
        let dataset = world.datasets[slot as usize];
        let repo = world.scdn.repo(node).map_err(|e| e.to_string())?;
        let mut bytes = Vec::with_capacity(sizes.dataset_bytes);
        for ordinal in 0..sizes.segments_per_dataset() as u32 {
            let id = SegmentId { dataset, ordinal };
            let seg = repo
                .fetch(Partition::User, id)
                .map_err(|e| format!("{node:?} lacks {id:?} after a served request: {e}"))?;
            if !seg.checksum.verify(&seg.data) {
                return Err(format!("{id:?} at {node:?} fails its checksum"));
            }
            bytes.extend_from_slice(&seg.data);
        }
        if world.contents[slot as usize] != bytes {
            return Err(format!(
                "{node:?} holds bytes of {dataset:?} that differ from what was published"
            ));
        }
    }
    Ok(())
}

/// Every replica and every coded block the catalog lists is in the
/// listed host's repository.
fn catalog_matches_repositories(world: &World, sizes: &Sizes) -> Result<(), String> {
    let scdn = &world.scdn;
    for &dataset in &world.datasets {
        for host in scdn.replicas_of(dataset).map_err(|e| e.to_string())? {
            let repo = scdn.repo(host).map_err(|e| e.to_string())?;
            for ordinal in 0..sizes.segments_per_dataset() as u32 {
                if !repo.contains(SegmentId { dataset, ordinal }) {
                    return Err(format!(
                        "catalog lists {host:?} for {dataset:?} but segment {ordinal} is absent"
                    ));
                }
            }
        }
        let inventory = scdn
            .allocation()
            .coded_inventory(dataset)
            .map_err(|e| e.to_string())?;
        for (host, blocks) in inventory {
            let repo = scdn.repo(host).map_err(|e| e.to_string())?;
            for &index in blocks.iter() {
                if !repo.contains_coded(Partition::Replica, dataset, index) {
                    return Err(format!(
                        "catalog lists block {index} of {dataset:?} at {host:?} but it is absent"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// For each coded dataset, the *last* k blocks held by online hosts
/// (parity first, so the decoder really inverts) reproduce the
/// published bytes.
fn coded_datasets_decode(world: &World) -> Result<(), String> {
    let scdn = &world.scdn;
    for (slot, &dataset) in world.datasets.iter().enumerate() {
        let Some(spec) = scdn
            .allocation()
            .coding_of(dataset)
            .map_err(|e| e.to_string())?
        else {
            continue;
        };
        let mut held: Vec<(u32, _)> = Vec::new();
        for (host, blocks) in scdn
            .allocation()
            .coded_inventory(dataset)
            .map_err(|e| e.to_string())?
        {
            if !scdn.is_online(host) {
                continue;
            }
            let repo = scdn.repo(host).map_err(|e| e.to_string())?;
            for &index in blocks.iter() {
                let id = CodedBlockId { dataset, index }.segment_id();
                let seg = repo
                    .fetch(Partition::Replica, id)
                    .map_err(|e| format!("block {index} of {dataset:?} at {host:?}: {e}"))?;
                held.push((index, seg));
            }
        }
        held.sort_by_key(|&(index, _)| std::cmp::Reverse(index));
        held.dedup_by_key(|&mut (index, _)| index);
        let k = usize::from(spec.k);
        if held.len() < k {
            return Err(format!(
                "{dataset:?} has {} distinct blocks online, needs {k}",
                held.len()
            ));
        }
        let blocks: Vec<_> = held.into_iter().take(k).map(|(_, seg)| seg).collect();
        let decoded = decode_blocks(&spec, &blocks)
            .map_err(|e| format!("{dataset:?} does not decode: {e:?}"))?;
        if decoded != world.contents[slot] {
            return Err(format!(
                "{dataset:?} decodes to bytes that were not published"
            ));
        }
    }
    Ok(())
}
