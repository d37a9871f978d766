//! Fixture: aliases of hashed containers. Fed under a replay-affecting
//! crate path; one marker on an alias must not hide its later uses.

use std::collections::HashMap; // lint: allow(unordered-iteration) — aliased below

// lint: allow(unordered-iteration) — fixed-seed lookup map
type FxMap<K, V> = HashMap<K, V>;

type Chained<V> = FxMap<u64, V>;

pub struct Index {
    by_key: FxMap<u64, u32>,
}

pub fn chained_fires(ix: &Index) -> Chained<u32> {
    ix.by_key.iter().map(|(&k, &v)| (k, v)).collect()
}

pub(crate) type Exported = HashMap<u32, u32>; // lint: allow(unordered-iteration) — still exported

pub type Visible = Chained<u8>; // lint: allow(unordered-iteration) — still exported

type Ordered = std::collections::BTreeMap<u64, u64>;

pub fn ordered_is_silent(o: &Ordered) -> usize {
    o.len()
}

pub fn allowed_use(ix: &Index) -> usize {
    let m: &FxMap<u64, u32> = &ix.by_key; // lint: allow(unordered-iteration) — lookup-only
    m.len()
}
