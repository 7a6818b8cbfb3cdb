//! `nondet-iter`: clippy bans the hash collections themselves, so every
//! place that names one is flagged — the imports and the three iterated
//! collections of the audit's old `nondet_iter.rs` fixture included.

use std::collections::HashMap as Map;
use std::collections::{BTreeMap, HashSet};

pub fn iterates_param(m: &Map<u32, f64>) -> f64 {
    let mut s = 0.0;
    for (k, v) in m {
        s += v * f64::from(*k);
    }
    s
}

pub fn iterates_local_keys() -> Vec<u32> {
    Map::<u32, u32>::new().keys().copied().collect()
}

pub fn set_iter(s: &HashSet<u32>) -> usize {
    let mut n = 0;
    for v in s.iter() {
        n += *v as usize;
    }
    n
}

pub fn btree_is_fine(m: &BTreeMap<u32, f64>) -> f64 {
    let mut s = 0.0;
    for (k, v) in m {
        s += v * f64::from(*k);
    }
    s
}
