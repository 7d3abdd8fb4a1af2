//! The synthetic file catalog: distinct files with heavy-tailed replica
//! counts, assigned to hosts — the stand-in for the paper's crawled corpus
//! (315,546 file instances on 75,129 hosts in the §6.2 trace).

use crate::words::word;
use crate::zipf::{calibrate_beta, PowerLaw, Zipf};
use pier_netsim::stream_rng;
use pier_vocab::{scan, TermId};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;

/// Target fraction of file *instances* that are singletons (the paper's
/// Fig. 10 anchor: 23% of items published at replica threshold 1).
const SINGLETON_INSTANCE_MASS: f64 = 0.23;
/// Zipf skew of term popularity.
const ZIPF_S: f64 = 1.0;

/// Catalog generation parameters.
#[derive(Clone, Debug)]
pub struct CatalogConfig {
    /// Hosts that can hold replicas (the paper's leaves).
    pub hosts: usize,
    /// Distinct files.
    pub distinct_files: usize,
    /// Truncation of the replica distribution.
    pub max_replicas: usize,
    /// Term dictionary size (paper: 38,900 distinct terms observed).
    pub vocab: usize,
    /// Phrase dictionary size (recurring artist/album word pairs; paper:
    /// 193,104 distinct adjacent pairs — far fewer than random pairing
    /// would give, because pairs repeat across files).
    pub phrases: usize,
    pub seed: u64,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        CatalogConfig {
            hosts: 10_000,
            distinct_files: 20_000,
            max_replicas: 1_000,
            vocab: 8_000,
            phrases: 3_000,
            seed: 0xF11E,
        }
    }
}

/// One distinct file.
#[derive(Clone, Debug)]
pub struct DistinctFile {
    pub name: String,
    /// Pre-tokenized name as interned term ids (ground-truth matching).
    pub tokens: Vec<TermId>,
    /// Hosts holding a replica (distinct; the model's "no identical
    /// replicas reside on the same node").
    pub hosts: Vec<u32>,
}

impl DistinctFile {
    pub fn replicas(&self) -> u32 {
        self.hosts.len() as u32
    }
}

/// The generated catalog.
#[derive(Clone, Debug)]
pub struct Catalog {
    pub config: CatalogConfig,
    pub files: Vec<DistinctFile>,
    /// Per host, the distinct-file indices it shares.
    pub host_files: Vec<Vec<u32>>,
    /// The calibrated replica-distribution exponent.
    pub beta: f64,
}

impl Catalog {
    /// Generate a catalog from `config` (deterministic in the seed).
    pub fn generate(config: CatalogConfig) -> Catalog {
        assert!(config.hosts >= config.max_replicas, "more replicas than hosts");
        let mut rng = stream_rng(config.seed, 1);
        let beta = calibrate_beta(config.max_replicas, SINGLETON_INSTANCE_MASS);
        let replica_dist = PowerLaw::new(config.max_replicas, beta);
        let term_zipf = Zipf::new(config.vocab, ZIPF_S);
        let phrase_zipf = Zipf::new(config.phrases, ZIPF_S);

        // Phrase dictionary: recurring adjacent word pairs (artist names).
        let phrase_terms: Vec<(usize, usize)> = (0..config.phrases)
            .map(|_| {
                let a = term_zipf.sample(&mut rng);
                let mut b = term_zipf.sample(&mut rng);
                if b == a {
                    b = (b + 1) % config.vocab;
                }
                (a, b)
            })
            .collect();

        let extensions = ["mp3", "avi", "mpg", "zip", "jpg"];
        let mut files = Vec::with_capacity(config.distinct_files);
        let mut host_files: Vec<Vec<u32>> = vec![Vec::new(); config.hosts];
        let mut seen_names = std::collections::HashSet::new();

        for idx in 0..config.distinct_files {
            // Filename = popular phrase + 1–3 title terms + optional track
            // number + extension.
            let (pa, pb) = phrase_terms[phrase_zipf.sample(&mut rng)];
            let mut parts = vec![word(pa), word(pb)];
            for _ in 0..rng.random_range(1..=3usize) {
                parts.push(word(term_zipf.sample(&mut rng)));
            }
            if rng.random_bool(0.5) {
                parts.push(format!("{:02}", rng.random_range(1..=20u32)));
            }
            let ext = extensions[rng.random_range(0..extensions.len())];
            let mut name = format!("{}.{}", parts.join("_"), ext);
            // Distinct files must have distinct names (QDR groups by name).
            if !seen_names.insert(name.clone()) {
                name = format!("{}_{}.{}", parts.join("_"), idx, ext);
                seen_names.insert(name.clone());
            }
            let tokens = scan(&name);

            let replicas = replica_dist.sample(&mut rng).min(config.hosts);
            let hosts = sample_distinct_hosts(&mut rng, config.hosts, replicas);
            for &h in &hosts {
                host_files[h as usize].push(idx as u32);
            }
            files.push(DistinctFile { name, tokens, hosts });
        }
        // The lists grew by `push`, and a lab holds the catalog for a whole run.
        for list in &mut host_files {
            list.shrink_to_fit();
        }

        Catalog { config, files, host_files, beta }
    }

    /// Total file instances (replicas) in the network.
    pub fn instances(&self) -> u64 {
        self.files.iter().map(|f| f.replicas() as u64).sum()
    }

    /// Replica count per distinct file.
    pub fn replica_counts(&self) -> Vec<u32> {
        self.files.iter().map(|f| f.replicas()).collect()
    }

    /// Fraction of instances belonging to files with `R ≤ t` (the Fig. 10
    /// quantity, measured on the realized catalog).
    pub fn instance_mass_at_most(&self, t: u32) -> f64 {
        let num: u64 =
            self.files.iter().filter(|f| f.replicas() <= t).map(|f| f.replicas() as u64).sum();
        num as f64 / self.instances() as f64
    }

    /// Instance-weighted term frequencies — what an ultrapeer observing
    /// result traffic measures, and what the TF scheme thresholds (§5).
    pub fn term_instance_freq(&self) -> HashMap<TermId, u64> {
        let mut tf = HashMap::new();
        for f in &self.files {
            for t in &f.tokens {
                *tf.entry(*t).or_insert(0) += f.replicas() as u64;
            }
        }
        tf
    }

    /// Instance-weighted adjacent-term-pair frequencies (TPF scheme).
    pub fn pair_instance_freq(&self) -> HashMap<(TermId, TermId), u64> {
        let mut pf = HashMap::new();
        for f in &self.files {
            for w in f.tokens.windows(2) {
                *pf.entry((w[0], w[1])).or_insert(0) += f.replicas() as u64;
            }
        }
        pf
    }
}

fn sample_distinct_hosts(rng: &mut impl Rng, hosts: usize, k: usize) -> Vec<u32> {
    debug_assert!(k <= hosts);
    if k * 20 >= hosts {
        // Dense case: shuffle a full index vector, keep an exact-size copy
        // of the first `k`.
        let mut all: Vec<u32> = (0..hosts as u32).collect();
        all.shuffle(rng);
        all[..k].to_vec()
    } else {
        // Sparse case: rejection sampling.
        let mut set = std::collections::HashSet::with_capacity(k);
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let h = rng.random_range(0..hosts as u32);
            if set.insert(h) {
                out.push(h);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Catalog {
        Catalog::generate(CatalogConfig {
            hosts: 2_000,
            distinct_files: 5_000,
            max_replicas: 500,
            vocab: 2_000,
            phrases: 600,
            seed: 99,
        })
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.files.len(), b.files.len());
        assert_eq!(a.files[17].name, b.files[17].name);
        assert_eq!(a.files[17].hosts, b.files[17].hosts);
    }

    #[test]
    fn replicas_are_distinct_hosts() {
        let c = small();
        for f in &c.files {
            let set: std::collections::HashSet<_> = f.hosts.iter().collect();
            assert_eq!(set.len(), f.hosts.len(), "duplicate replica host for {}", f.name);
            assert!(f.replicas() >= 1);
        }
    }

    #[test]
    fn host_lists_hold_no_spare_capacity() {
        let c = small();
        // 2,000 hosts: files with ≥ 100 replicas take the dense path.
        assert!(c.files.iter().any(|f| f.hosts.len() * 20 >= 2_000), "a dense file exists");
        for f in &c.files {
            assert_eq!(f.hosts.capacity(), f.hosts.len(), "{}", f.name);
        }
    }

    #[test]
    fn host_files_hold_no_spare_capacity() {
        let c = small();
        assert!(c.host_files.iter().any(|l| l.len() > 1), "a host shares several files");
        for (h, list) in c.host_files.iter().enumerate() {
            assert_eq!(list.capacity(), list.len(), "host {h}");
        }
    }

    #[test]
    fn host_files_is_consistent_inverse() {
        let c = small();
        for (h, files) in c.host_files.iter().enumerate() {
            for &fi in files {
                assert!(c.files[fi as usize].hosts.contains(&(h as u32)));
            }
        }
        let total: usize = c.host_files.iter().map(|v| v.len()).sum();
        assert_eq!(total as u64, c.instances());
    }

    #[test]
    fn singleton_mass_calibrated() {
        let c = small();
        let mass = c.instance_mass_at_most(1);
        assert!((mass - 0.23).abs() < 0.03, "singleton instance mass {mass}");
    }

    #[test]
    fn names_are_distinct() {
        let c = small();
        let names: std::collections::HashSet<_> = c.files.iter().map(|f| &f.name).collect();
        assert_eq!(names.len(), c.files.len());
    }

    #[test]
    fn term_statistics_have_long_tail() {
        let c = small();
        let tf = c.term_instance_freq();
        assert!(tf.len() > 500, "vocabulary too small: {}", tf.len());
        let max = *tf.values().max().unwrap();
        let ones = tf.values().filter(|v| **v <= 2).count();
        assert!(max > 100, "head terms must be popular");
        assert!(ones > tf.len() / 20, "tail terms must exist");
        let pf = c.pair_instance_freq();
        assert!(pf.len() > tf.len() / 2, "pairs outnumber... at least comparable");
    }
}
