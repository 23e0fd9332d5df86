//! The partitioned storage repository contributed by each participant.
//!
//! "When a shared folder is first registered in the CDN, it is partitioned
//! for transparent usage as a replica and also as general storage for the
//! user. Data stored in the replica partition are … read-only … managed by
//! the CDN." (Section V-A.)

use std::cell::{Ref, RefCell};
use std::collections::HashMap;

use crate::coding::CodedBlockId;
use crate::object::{DatasetId, Segment, SegmentId};

/// Which half of the repository an operation targets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Partition {
    /// CDN-managed replica partition (read-only to the owner).
    Replica,
    /// The owner's general-purpose partition.
    User,
}

/// Errors from repository operations.
#[derive(Debug, PartialEq, Eq)]
pub enum RepoError {
    /// Capacity would be exceeded (`needed` > `available` bytes).
    QuotaExceeded {
        /// Bytes the operation required.
        needed: u64,
        /// Bytes actually available.
        available: u64,
    },
    /// The segment is not stored here.
    NotFound(SegmentId),
    /// The owner attempted to modify the CDN-managed replica partition.
    ReplicaPartitionReadOnly,
    /// Stored data failed checksum verification.
    IntegrityFailure(SegmentId),
}

impl std::fmt::Display for RepoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepoError::QuotaExceeded { needed, available } => {
                write!(
                    f,
                    "quota exceeded: need {needed} B, {available} B available"
                )
            }
            RepoError::NotFound(id) => write!(f, "segment {id:?} not found"),
            RepoError::ReplicaPartitionReadOnly => {
                write!(f, "replica partition is read-only for the owner")
            }
            RepoError::IntegrityFailure(id) => write!(f, "segment {id:?} failed verification"),
        }
    }
}

impl std::error::Error for RepoError {}

/// A participant's storage repository, split into replica and user
/// partitions that share one capacity budget. Both partitions and the
/// usage total live in one cell, so `store` and `remove` move a segment
/// and its bytes together.
pub struct StorageRepository {
    /// Total capacity in bytes (both partitions combined).
    capacity: u64,
    shelves: RefCell<Shelves>,
}

#[derive(Default)]
struct Shelves {
    replica: HashMap<SegmentId, Segment>,
    user: HashMap<SegmentId, Segment>,
    /// Bytes stored across both partitions.
    used: u64,
}

impl Shelves {
    fn get(&self, p: Partition) -> &HashMap<SegmentId, Segment> {
        match p {
            Partition::Replica => &self.replica,
            Partition::User => &self.user,
        }
    }

    fn get_mut(&mut self, p: Partition) -> &mut HashMap<SegmentId, Segment> {
        match p {
            Partition::Replica => &mut self.replica,
            Partition::User => &mut self.user,
        }
    }
}

impl StorageRepository {
    /// Create an empty repository with the given byte capacity.
    pub fn new(capacity: u64) -> Self {
        StorageRepository {
            capacity,
            shelves: RefCell::default(),
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently used across both partitions.
    pub fn used(&self) -> u64 {
        self.shelves.borrow().used
    }

    /// Bytes still available.
    pub fn available(&self) -> u64 {
        self.capacity - self.used()
    }

    /// Number of segments stored in a partition.
    pub fn segment_count(&self, p: Partition) -> usize {
        self.shelf(p).len()
    }

    fn shelf(&self, p: Partition) -> Ref<'_, HashMap<SegmentId, Segment>> {
        Ref::map(self.shelves.borrow(), |s| s.get(p))
    }

    /// Store a segment into a partition, enforcing the shared quota.
    /// Overwrites an existing copy of the same segment (adjusting usage).
    pub fn store(&self, p: Partition, seg: Segment) -> Result<(), RepoError> {
        let shelves = &mut *self.shelves.borrow_mut();
        let used = shelves.used;
        let shelf = shelves.get_mut(p);
        let existing = shelf.get(&seg.id).map(|s| s.len() as u64).unwrap_or(0);
        let new_used = used - existing + seg.len() as u64;
        if new_used > self.capacity {
            return Err(RepoError::QuotaExceeded {
                needed: seg.len() as u64 - existing,
                available: self.capacity - used,
            });
        }
        shelf.insert(seg.id, seg);
        shelves.used = new_used;
        Ok(())
    }

    /// Fetch a segment from a partition, verifying integrity. The segment
    /// is cloned (a refcount bump) and hashed after the cell is released.
    pub fn fetch(&self, p: Partition, id: SegmentId) -> Result<Segment, RepoError> {
        let seg = self
            .shelf(p)
            .get(&id)
            .cloned()
            .ok_or(RepoError::NotFound(id))?;
        if !seg.verify() {
            return Err(RepoError::IntegrityFailure(id));
        }
        Ok(seg)
    }

    /// Fetch from either partition (replica first — it is the CDN's copy).
    /// A corrupt replica copy is never reported as `NotFound`: an intact
    /// user copy may stand in for it, otherwise the `IntegrityFailure`
    /// surfaces.
    pub fn fetch_any(&self, id: SegmentId) -> Result<Segment, RepoError> {
        match self.fetch(Partition::Replica, id) {
            Ok(seg) => Ok(seg),
            Err(RepoError::NotFound(_)) => self.fetch(Partition::User, id),
            Err(corrupt) => self.fetch(Partition::User, id).map_err(|_| corrupt),
        }
    }

    /// `true` if the segment is present in either partition.
    pub fn contains(&self, id: SegmentId) -> bool {
        let shelves = self.shelves.borrow();
        shelves.replica.contains_key(&id) || shelves.user.contains_key(&id)
    }

    /// `true` if the segment is present in partition `p` specifically.
    pub fn contains_in(&self, p: Partition, id: SegmentId) -> bool {
        self.shelf(p).contains_key(&id)
    }

    /// Remove a segment from a partition (CDN-side eviction or user
    /// deletion). The owner may not evict from the replica partition — use
    /// `owner = false` for CDN-initiated operations.
    pub fn remove(&self, p: Partition, id: SegmentId, owner: bool) -> Result<(), RepoError> {
        if owner && p == Partition::Replica {
            return Err(RepoError::ReplicaPartitionReadOnly);
        }
        let shelves = &mut *self.shelves.borrow_mut();
        let seg = shelves
            .get_mut(p)
            .remove(&id)
            .ok_or(RepoError::NotFound(id))?;
        shelves.used -= seg.len() as u64;
        Ok(())
    }

    /// All segment ids in a partition (sorted for determinism).
    pub fn list(&self, p: Partition) -> Vec<SegmentId> {
        let mut ids: Vec<SegmentId> = self.shelf(p).keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Every segment and coded block in a partition as stored, unverified,
    /// in id order.
    pub fn segments(&self, p: Partition) -> Vec<Segment> {
        let mut segments: Vec<Segment> = self.shelf(p).values().cloned().collect();
        segments.sort_unstable_by_key(|s| s.id);
        segments
    }

    /// Coded-block indices of `dataset` held in partition `p` (sorted).
    /// Plain segments of the same dataset are not included.
    pub fn list_coded(&self, p: Partition, dataset: DatasetId) -> Vec<u32> {
        let mut indices: Vec<u32> = self
            .shelf(p)
            .keys()
            .filter(|id| id.dataset == dataset)
            .filter_map(|id| CodedBlockId::from_segment_id(*id))
            .map(|b| b.index)
            .collect();
        indices.sort_unstable();
        indices
    }

    /// `true` if the repository holds coded block `index` of `dataset` in
    /// partition `p`.
    pub fn contains_coded(&self, p: Partition, dataset: DatasetId, index: u32) -> bool {
        self.contains_in(p, CodedBlockId { dataset, index }.segment_id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{DatasetId, Segment, SegmentId};
    use bytes::Bytes;

    fn seg(ds: u32, ord: u32, size: usize) -> Segment {
        Segment::new(
            SegmentId {
                dataset: DatasetId(ds),
                ordinal: ord,
            },
            Bytes::from(vec![ord as u8; size]),
        )
    }

    #[test]
    fn store_and_fetch() {
        let repo = StorageRepository::new(1024);
        let s = seg(0, 0, 100);
        repo.store(Partition::Replica, s.clone()).expect("stores");
        let got = repo.fetch(Partition::Replica, s.id).expect("fetches");
        assert_eq!(got.data, s.data);
        assert_eq!(repo.used(), 100);
        assert_eq!(repo.available(), 924);
    }

    #[test]
    fn quota_enforced_across_partitions() {
        let repo = StorageRepository::new(150);
        repo.store(Partition::Replica, seg(0, 0, 100))
            .expect("fits");
        let err = repo.store(Partition::User, seg(0, 1, 100)).unwrap_err();
        assert_eq!(
            err,
            RepoError::QuotaExceeded {
                needed: 100,
                available: 50
            }
        );
    }

    #[test]
    fn overwrite_adjusts_usage() {
        let repo = StorageRepository::new(1000);
        repo.store(Partition::User, seg(0, 0, 400)).expect("ok");
        repo.store(Partition::User, seg(0, 0, 100)).expect("ok");
        assert_eq!(repo.used(), 100);
        assert_eq!(repo.segment_count(Partition::User), 1);
    }

    #[test]
    fn owner_cannot_touch_replica_partition() {
        let repo = StorageRepository::new(1000);
        let s = seg(0, 0, 10);
        repo.store(Partition::Replica, s.clone()).expect("ok");
        assert_eq!(
            repo.remove(Partition::Replica, s.id, true).unwrap_err(),
            RepoError::ReplicaPartitionReadOnly
        );
        // The CDN itself may evict.
        repo.remove(Partition::Replica, s.id, false)
            .expect("cdn evicts");
        assert_eq!(repo.used(), 0);
    }

    #[test]
    fn fetch_missing_is_not_found() {
        let repo = StorageRepository::new(100);
        let id = SegmentId {
            dataset: DatasetId(9),
            ordinal: 0,
        };
        assert_eq!(
            repo.fetch(Partition::User, id).unwrap_err(),
            RepoError::NotFound(id)
        );
    }

    #[test]
    fn fetch_any_prefers_replica() {
        let repo = StorageRepository::new(1000);
        let s = seg(1, 0, 20);
        repo.store(Partition::User, s.clone()).expect("ok");
        assert!(repo.fetch_any(s.id).is_ok());
        repo.store(Partition::Replica, s.clone()).expect("ok");
        assert!(repo.fetch_any(s.id).is_ok());
        assert!(repo.contains(s.id));
    }

    #[test]
    fn fetch_any_reports_replica_corruption() {
        let repo = StorageRepository::new(1000);
        let good = seg(1, 0, 20);
        let mut bad = good.clone();
        let mut raw = bad.data.to_vec();
        raw[3] ^= 0x10;
        bad.data = Bytes::from(raw);
        repo.store(Partition::Replica, bad).expect("ok");
        // No user copy: the corruption must not read as "missing".
        assert_eq!(
            repo.fetch_any(good.id).unwrap_err(),
            RepoError::IntegrityFailure(good.id)
        );
        // An intact user copy stands in for the corrupt replica copy.
        repo.store(Partition::User, good.clone()).expect("ok");
        assert_eq!(repo.fetch_any(good.id).expect("user copy").data, good.data);
    }

    #[test]
    fn list_is_sorted() {
        let repo = StorageRepository::new(1000);
        repo.store(Partition::User, seg(1, 2, 1)).expect("ok");
        repo.store(Partition::User, seg(0, 5, 1)).expect("ok");
        repo.store(Partition::User, seg(1, 0, 1)).expect("ok");
        let ids = repo.list(Partition::User);
        assert_eq!(ids.len(), 3);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn coded_blocks_enumerate_separately_from_plain_segments() {
        use crate::coding::CodedBlockId;
        let repo = StorageRepository::new(4096);
        repo.store(Partition::Replica, seg(4, 0, 10)).expect("ok");
        repo.store(Partition::Replica, seg(4, 1, 10)).expect("ok");
        for index in [2u32, 0, 5] {
            let id = CodedBlockId {
                dataset: DatasetId(4),
                index,
            }
            .segment_id();
            repo.store(
                Partition::Replica,
                Segment::new(id, Bytes::from(vec![1u8; 8])),
            )
            .expect("ok");
        }
        assert_eq!(
            repo.list_coded(Partition::Replica, DatasetId(4)),
            vec![0, 2, 5]
        );
        assert!(repo.list_coded(Partition::User, DatasetId(4)).is_empty());
        assert!(repo.list_coded(Partition::Replica, DatasetId(5)).is_empty());
        assert!(repo.contains_coded(Partition::Replica, DatasetId(4), 2));
        assert!(!repo.contains_coded(Partition::Replica, DatasetId(4), 3));
    }

    #[test]
    fn corrupted_segment_detected_on_fetch() {
        let repo = StorageRepository::new(1000);
        let mut s = seg(0, 0, 32);
        // Tamper after checksum computation.
        let mut raw = s.data.to_vec();
        raw[5] ^= 0x01;
        s.data = Bytes::from(raw);
        repo.store(Partition::User, s.clone()).expect("stored");
        assert_eq!(
            repo.fetch(Partition::User, s.id).unwrap_err(),
            RepoError::IntegrityFailure(s.id)
        );
    }
}
