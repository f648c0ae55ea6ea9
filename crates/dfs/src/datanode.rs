//! Datanodes: block payload storage with capacity accounting.

use crate::block::BlockId;
use std::collections::HashMap;
use std::sync::Arc;

/// One storage node. Payloads are `Arc<[u8]>` so replica "copies" share
/// the underlying buffer — replication is accounted, not physically duplicated,
/// keeping large experiments memory-friendly while the metrics still count
/// replica bytes the way a real cluster's disks would.
#[derive(Debug)]
pub struct DataNode {
    pub id: usize,
    /// Optional capacity limit in bytes; `None` = unlimited.
    pub capacity: Option<u64>,
    used: u64,
    blocks: HashMap<BlockId, Arc<[u8]>>,
}

impl DataNode {
    pub fn new(id: usize, capacity: Option<u64>) -> Self {
        DataNode { id, capacity, used: 0, blocks: HashMap::new() }
    }

    /// Bytes currently stored on this node.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Free bytes, `u64::MAX` when unlimited.
    pub fn free(&self) -> u64 {
        match self.capacity {
            Some(cap) => cap.saturating_sub(self.used),
            None => u64::MAX,
        }
    }

    /// Number of block replicas hosted.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// True when a replica of `id` can be placed.
    pub fn can_store(&self, len: u64) -> bool {
        self.free() >= len
    }

    /// Store a replica. Caller must have checked `can_store`.
    pub fn put(&mut self, id: BlockId, data: Arc<[u8]>) {
        self.used += data.len() as u64;
        self.blocks.insert(id, data);
    }

    /// Fetch a replica if hosted here.
    pub fn get(&self, id: BlockId) -> Option<Arc<[u8]>> {
        self.blocks.get(&id).cloned()
    }

    /// Drop a replica, returning the bytes freed.
    pub fn evict(&mut self, id: BlockId) -> u64 {
        match self.blocks.remove(&id) {
            Some(b) => {
                self.used -= b.len() as u64;
                b.len() as u64
            }
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_accounting() {
        let mut n = DataNode::new(0, Some(100));
        assert_eq!(n.free(), 100);
        n.put(BlockId(1), Arc::from(&b"0123456789"[..]));
        assert_eq!(n.used(), 10);
        assert_eq!(n.free(), 90);
        assert!(n.can_store(90));
        assert!(!n.can_store(91));
        assert_eq!(n.evict(BlockId(1)), 10);
        assert_eq!(n.used(), 0);
        assert_eq!(n.evict(BlockId(1)), 0);
    }

    #[test]
    fn unlimited_node() {
        let n = DataNode::new(0, None);
        assert_eq!(n.free(), u64::MAX);
        assert!(n.can_store(u64::MAX));
    }

    #[test]
    fn get_returns_shared_payload() {
        let mut n = DataNode::new(0, None);
        let payload: Arc<[u8]> = Arc::from(&b"abc"[..]);
        n.put(BlockId(7), payload.clone());
        let got = n.get(BlockId(7)).unwrap();
        assert_eq!(got.as_ref(), b"abc");
        assert!(Arc::ptr_eq(&got, &payload), "replica reads share the stored block");
        assert!(n.get(BlockId(8)).is_none());
    }
}
