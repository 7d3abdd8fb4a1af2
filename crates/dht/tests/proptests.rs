//! Property-based tests for the DHT's metric space, routing tables, and
//! storage invariants.

use pier_dht::{bootstrap, Contact, Key, RoutingTable, Storage, KEY_BITS};
use pier_netsim::{HeapSize, NodeId, SimTime};
use proptest::prelude::*;

fn key_strategy() -> impl Strategy<Value = Key> {
    prop::collection::vec(any::<u8>(), 20).prop_map(|v| {
        let mut k = [0u8; 20];
        k.copy_from_slice(&v);
        Key(k)
    })
}

/// `a ^ b` byte by byte: the big-endian bytes a `Distance` stands for.
fn xor_bytes(a: &Key, b: &Key) -> [u8; 20] {
    std::array::from_fn(|i| a.0[i] ^ b.0[i])
}

/// A key in bucket `bucket` of `local`: equal to `local` above that bit,
/// different at it, `noise` below it.
fn key_in_bucket(local: &Key, bucket: usize, noise: &Key) -> Key {
    let mut key = local.with_flipped_bit(bucket);
    for bit in bucket + 1..KEY_BITS {
        if noise.bit(bit) != key.bit(bit) {
            key = key.with_flipped_bit(bit);
        }
    }
    key
}

/// The reference `closest`: every stored contact, sorted by distance.
fn naive_closest(table: &RoutingTable, target: &Key, n: usize) -> Vec<Contact> {
    let mut all: Vec<Contact> = table.contacts().collect();
    all.sort_by_key(|c| xor_bytes(&c.key, target));
    all.truncate(n);
    all
}

/// The reference `next_hop`: the nearest stored contact, if it beats the
/// local node.
fn naive_next_hop(table: &RoutingTable, target: &Key) -> Option<Contact> {
    let own = xor_bytes(&table.local().key, target);
    naive_closest(table, target, 1).into_iter().find(|c| xor_bytes(&c.key, target) < own)
}

/// A table around a random local key whose contacts sit in buckets
/// `raw % span`: a small `span` overflows shallow buckets past `k`, a large
/// one scatters single contacts over deep buckets with empty ones between.
fn table_from(local: Key, k: usize, span: usize, placed: &[(usize, Key)]) -> RoutingTable {
    let mut table = RoutingTable::new(Contact::new(local, NodeId::new(0)), k);
    for (i, (raw, noise)) in placed.iter().enumerate() {
        let key = key_in_bucket(&local, raw % span, noise);
        table.observe(Contact::new(key, NodeId::new(i as u32 + 1)), SimTime::ZERO);
    }
    table
}

proptest! {
    /// XOR metric axioms: identity, symmetry, and the XOR-triangle
    /// equality d(a,c) = d(a,b) ⊕ d(b,c) (implying the triangle
    /// inequality).
    #[test]
    fn xor_metric_axioms(a in key_strategy(), b in key_strategy(), c in key_strategy()) {
        prop_assert!(a.distance(&a).is_zero());
        prop_assert_eq!(a.distance(&b), b.distance(&a));
        let x = Key(xor_bytes(&Key(xor_bytes(&a, &b)), &Key(xor_bytes(&b, &c))));
        prop_assert_eq!(a.distance(&c), Key::ZERO.distance(&x));
        // Unique closest point: if d(a,t)==d(b,t) then a==b.
        if a.distance(&c) == b.distance(&c) {
            prop_assert_eq!(a, b);
        }
    }

    /// The integer-word `Distance` orders, counts leading zeros and reads
    /// bits exactly as the big-endian bytes of `a ^ b` do. `b` and `c`
    /// share `prefix` bytes, so the deciding byte falls anywhere in the
    /// key, the low word included.
    #[test]
    fn distance_is_big_endian_byte_order(
        a in key_strategy(),
        b in key_strategy(),
        tail in key_strategy(),
        prefix in 0usize..=20,
    ) {
        let mut c = b;
        c.0[prefix..].copy_from_slice(&tail.0[prefix..]);
        let (db, dc) = (xor_bytes(&a, &b), xor_bytes(&a, &c));
        prop_assert_eq!(a.distance(&b).cmp(&a.distance(&c)), db.cmp(&dc));
        prop_assert_eq!(a.distance(&b) == a.distance(&c), b == c);
        // Distance b↔c has at least `prefix` zero bytes in front.
        let d = xor_bytes(&b, &c);
        let lz = d
            .iter()
            .position(|&byte| byte != 0)
            .map_or(KEY_BITS, |i| i * 8 + d[i].leading_zeros() as usize);
        prop_assert_eq!(b.distance(&c).leading_zeros(), lz);
        prop_assert_eq!(b.distance(&c).is_zero(), lz == KEY_BITS);
        for bit in 0..KEY_BITS {
            prop_assert_eq!(b.distance(&c).bit(bit), Key(d).bit(bit));
        }
    }

    /// bucket_index equals the shared-prefix length, and flipping that bit
    /// moves a key into exactly that bucket.
    #[test]
    fn bucket_index_consistent(a in key_strategy(), bit in 0usize..160) {
        let flipped = a.with_flipped_bit(bit);
        prop_assert_eq!(a.bucket_index(&flipped), Some(bit));
        prop_assert_eq!(a.with_flipped_bit(bit).with_flipped_bit(bit), a);
    }

    /// Keys survive the wire format.
    #[test]
    fn key_serde_roundtrip(k in key_strategy()) {
        let bytes = pier_codec::to_bytes(&k).unwrap();
        prop_assert_eq!(pier_codec::from_bytes::<Key>(&bytes).unwrap(), k);
    }

    /// `closest(target, n)` always returns the true n nearest among stored
    /// contacts, sorted ascending.
    #[test]
    fn routing_table_closest_is_correct(
        nodes in prop::collection::hash_set(1u32..2_000, 1..120),
        target in key_strategy(),
        n in 1usize..12,
    ) {
        let mut table = RoutingTable::new(Contact::for_node(NodeId::new(0)), 20);
        for &i in &nodes {
            table.observe(Contact::for_node(NodeId::new(i)), SimTime::ZERO);
        }
        let got = table.closest(&target, n);
        // Sorted ascending by distance.
        for w in got.windows(2) {
            prop_assert!(w[0].key.distance(&target) <= w[1].key.distance(&target));
        }
        // No stored contact beats the returned set.
        if got.len() == n {
            let worst = got.last().unwrap().key.distance(&target);
            for c in table.contacts() {
                if !got.contains(&c) {
                    prop_assert!(c.key.distance(&target) >= worst);
                }
            }
        } else {
            // Fewer than n returned ⇒ the table holds fewer than n.
            prop_assert_eq!(got.len(), table.len().min(n));
        }
    }

    /// The bucket-ordered `closest` and `next_hop` return exactly what
    /// collecting every contact and sorting by distance returns — for
    /// random targets, the local key, a stored contact's key, and targets
    /// deep in the local key's neighbourhood whose own bucket is empty; for
    /// `n` from 0 to beyond the table size.
    #[test]
    fn closest_and_next_hop_match_naive_sort(
        local in key_strategy(),
        k in 1usize..=8,
        span in 1usize..=KEY_BITS,
        placed in prop::collection::vec((0usize..KEY_BITS, key_strategy()), 0..150),
        target_kind in 0u8..5,
        target_bit in 0usize..KEY_BITS,
        target_noise in key_strategy(),
        n in 0usize..200,
    ) {
        let table = table_from(local, k, span, &placed);
        let target = match target_kind {
            0 => target_noise,
            1 => local,
            // Lands in bucket `target_bit`, which is usually empty.
            2 => local.with_flipped_bit(target_bit),
            3 => key_in_bucket(&local, target_bit, &target_noise),
            _ => table.contacts().nth(target_bit % table.len().max(1)).map_or(local, |c| c.key),
        };
        prop_assert_eq!(table.closest(&target, n), naive_closest(&table, &target, n));
        let hop = table.next_hop(&target);
        prop_assert_eq!(hop, naive_next_hop(&table, &target));
        prop_assert_eq!(table.is_owner(&target), hop.is_none());
    }

    /// Greedy next_hop routing over warm tables terminates at the global
    /// owner, from any start, for any target.
    #[test]
    fn greedy_routing_reaches_owner(
        population in 8u32..120,
        start in any::<u32>(),
        target in key_strategy(),
    ) {
        let contacts: Vec<Contact> =
            (0..population).map(|i| Contact::for_node(NodeId::new(i))).collect();
        let tables = bootstrap::warm_tables(&contacts, 8, 3);
        let owner = contacts
            .iter()
            .min_by_key(|c| c.key.distance(&target))
            .unwrap()
            .node;
        let mut at = (start % population) as usize;
        let mut hops = 0;
        while let Some(hop) = tables[at].next_hop(&target) {
            at = hop.node.index();
            hops += 1;
            prop_assert!(hops < 200, "routing loop");
        }
        prop_assert_eq!(contacts[at].node, owner);
    }

    /// Storage: reads never return expired values; duplicate inserts never
    /// inflate byte accounting; expire reclaims everything eventually, heap
    /// included.
    #[test]
    fn storage_invariants(
        entries in prop::collection::vec(
            (key_strategy(), prop::collection::vec(any::<u8>(), 0..16), 1u64..100),
            0..40,
        ),
        read_at in 0u64..120,
    ) {
        let mut s = Storage::new();
        let mut max_expiry = 0u64;
        for (k, v, exp) in &entries {
            s.insert(*k, v.clone(), SimTime::from_micros(*exp));
            max_expiry = max_expiry.max(*exp);
        }
        let now = SimTime::from_micros(read_at);
        for (k, _, _) in &entries {
            for live in s.get(k, now) {
                // Every returned value was inserted with a later expiry.
                let justified = entries
                    .iter()
                    .any(|(k2, v2, e2)| k2 == k && v2.as_slice() == live && *e2 > read_at);
                prop_assert!(justified, "expired or unknown value returned");
            }
        }
        s.expire(SimTime::from_micros(max_expiry + 1));
        prop_assert_eq!(s.key_count(), 0);
        prop_assert_eq!(s.total_bytes(), 0);
        prop_assert_eq!(s.heap_bytes(), 0, "expired values keep no heap");
    }
}

/// The corners of `closest` / `next_hop` the random tables rarely hit.
#[test]
fn closest_and_next_hop_corner_cases() {
    let local = Key::hash(b"local");
    let empty = table_from(local, 4, 1, &[]);
    let other = Key::hash(b"elsewhere");
    assert!(empty.closest(&other, 8).is_empty());
    assert_eq!(empty.next_hop(&other), None);
    assert!(empty.is_owner(&other));

    // One contact per bucket 0..40, plus three deep ones.
    let placed: Vec<(usize, Key)> =
        (0..40).chain([100, 128, 159]).map(|b| (b, Key::hash(&[b as u8]))).collect();
    let table = table_from(local, 4, KEY_BITS, &placed);
    assert_eq!(table.len(), placed.len());
    for target in [local, other, local.with_flipped_bit(70), local.with_flipped_bit(159)] {
        for n in [0, 1, 8, placed.len(), placed.len() + 1, usize::MAX] {
            assert_eq!(table.closest(&target, n), naive_closest(&table, &target, n), "n={n}");
        }
        assert_eq!(table.next_hop(&target), naive_next_hop(&table, &target));
    }
    // Nothing is closer to the local key than the local node.
    assert_eq!(table.next_hop(&local), None);
    // Bucket 70 is empty: the hop comes from the deeper bucket 100 when the
    // target differs from the local key there too, and from nowhere when not.
    let bucket_100 = table.closest(&local.with_flipped_bit(100), 1)[0];
    assert_eq!(local.bucket_index(&bucket_100.key), Some(100));
    let into_empty = local.with_flipped_bit(70);
    assert_eq!(table.next_hop(&into_empty.with_flipped_bit(100)), Some(bucket_100));
    assert_eq!(table.next_hop(&into_empty), None);
}

proptest! {
    /// `Storage` is observationally equivalent to a plain
    /// insertion-ordered reference model over arbitrary op sequences —
    /// inserts (with republish-extension), filtering reads, sweeping
    /// reads, and global expiry passes, under advancing time. Small key
    /// and value pools force shared chains and duplicate values.
    #[test]
    fn storage_matches_reference_model(
        ops in prop::collection::vec(
            (0u8..4, 0u8..6, 0u8..5, 1u64..30, 0u64..10),
            1..250,
        )
    ) {
        // key -> insertion-ordered (value, expiry-in-seconds) chain.
        type Chain = Vec<(Vec<u8>, u64)>;
        let mut model: Vec<(Key, Chain)> = Vec::new();
        let mut store = Storage::new();
        let mut now = 0u64;
        let t = |s: u64| SimTime::from_micros(s * 1_000_000);
        for (op, k, v, ttl, dt) in ops {
            now += dt;
            let key = Key([k; 20]);
            let value = vec![v; (v as usize & 3) + 1];
            let chain = model.iter_mut().find(|(mk, _)| *mk == key).map(|(_, c)| c);
            match op {
                0 => {
                    let expires = now + ttl;
                    let fresh = store.insert(key, value.clone(), t(expires));
                    let chain = match chain {
                        Some(c) => c,
                        None => {
                            model.push((key, Vec::new()));
                            &mut model.last_mut().unwrap().1
                        }
                    };
                    // Republish dedups against even unswept expired values.
                    match chain.iter_mut().find(|(mv, _)| *mv == value) {
                        Some((_, e)) => {
                            prop_assert!(!fresh);
                            *e = (*e).max(expires);
                        }
                        None => {
                            prop_assert!(fresh);
                            chain.push((value, expires));
                        }
                    }
                }
                1 => {
                    // `get` filters but never sweeps.
                    let want: Vec<&[u8]> = chain
                        .map(|c| c.iter().filter(|(_, e)| *e > now).map(|(v, _)| v.as_slice()).collect())
                        .unwrap_or_default();
                    prop_assert_eq!(store.get(&key, t(now)), want);
                    prop_assert_eq!(store.count(&key, t(now)), want.len());
                }
                2 => {
                    // `fetch` sweeps the chain, then returns the live values.
                    let want: Vec<Vec<u8>> = match chain {
                        Some(c) => {
                            c.retain(|(_, e)| *e > now);
                            c.iter().map(|(v, _)| v.clone()).collect()
                        }
                        None => Vec::new(),
                    };
                    let got: Vec<Vec<u8>> =
                        store.fetch(&key, t(now)).into_iter().map(<[u8]>::to_vec).collect();
                    prop_assert_eq!(got, want);
                }
                _ => {
                    let mut dropped = 0;
                    for (_, c) in &mut model {
                        let before = c.len();
                        c.retain(|(_, e)| *e > now);
                        dropped += before - c.len();
                    }
                    prop_assert_eq!(store.expire(t(now)), dropped);
                }
            }
            model.retain(|(_, c)| !c.is_empty());
            prop_assert_eq!(store.key_count(), model.len());
            let live: usize =
                model.iter().flat_map(|(_, c)| c).map(|(v, _)| v.len()).sum();
            prop_assert_eq!(store.total_bytes(), live);
        }
    }
}
