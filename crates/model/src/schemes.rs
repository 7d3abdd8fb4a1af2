//! Trace-driven evaluation of the rare-item publishing schemes (§5, §6.3):
//! Perfect, Random, TF, TPF, and SAM, each mapping a threshold to the set
//! of replicas published into the DHT.

use crate::recall::PublishedSet;
use pier_netsim::keyed::KeyedMap;
use pier_netsim::{stream_rng, SimRng};
use pier_vocab::TermId;
use rand::Rng;

/// Per-file inputs the schemes inspect: tokenized name + replica count.
pub struct SchemeInput<'a> {
    /// Interned tokens of each distinct file's name.
    pub tokens: &'a [Vec<TermId>],
    /// Replica count of each distinct file.
    pub replicas: &'a [u32],
}

impl SchemeInput<'_> {
    fn check(&self) {
        assert_eq!(self.tokens.len(), self.replicas.len());
    }
}

/// Perfect (§6.2): publish every replica of files with `R ≤ t`. Needs
/// global knowledge — the upper bound the practical schemes chase.
pub fn perfect(input: &SchemeInput<'_>, t: u32) -> PublishedSet {
    input.check();
    PublishedSet { per_file: input.replicas.iter().map(|&r| if r <= t { r } else { 0 }).collect() }
}

/// Random: publish each replica independently with probability `frac`,
/// irrespective of rarity — the lower bound.
pub fn random(input: &SchemeInput<'_>, frac: f64, seed: u64) -> PublishedSet {
    input.check();
    assert!((0.0..=1.0).contains(&frac));
    let mut rng = stream_rng(seed, 0x5EED);
    PublishedSet { per_file: input.replicas.iter().map(|&r| binomial(&mut rng, r, frac)).collect() }
}

/// Term Frequency: a file is rare if any of its terms has observed
/// frequency below `threshold`. All replicas publish (each host applies
/// the same criterion to the same statistics).
pub fn tf(
    input: &SchemeInput<'_>,
    term_freq: &KeyedMap<TermId, u64>,
    threshold: u64,
) -> PublishedSet {
    input.check();
    let per_file = input
        .tokens
        .iter()
        .zip(input.replicas)
        .map(|(tokens, &r)| {
            let min_tf =
                tokens.iter().map(|t| term_freq.get(t).copied().unwrap_or(0)).min().unwrap_or(0);
            if min_tf < threshold {
                r
            } else {
                0
            }
        })
        .collect();
    PublishedSet { per_file }
}

/// Term *Pair* Frequency: same, over adjacent ordered token pairs —
/// resistant to rare files that contain one popular keyword.
pub fn tpf(
    input: &SchemeInput<'_>,
    pair_freq: &KeyedMap<(TermId, TermId), u64>,
    threshold: u64,
) -> PublishedSet {
    input.check();
    let per_file = input
        .tokens
        .iter()
        .zip(input.replicas)
        .map(|(tokens, &r)| {
            let min_pf = tokens
                .windows(2)
                .map(|w| pair_freq.get(&(w[0], w[1])).copied().unwrap_or(0))
                .min()
                // Single-token names fall back to "rare" (no pair evidence).
                .unwrap_or(0);
            if min_pf < threshold {
                r
            } else {
                0
            }
        })
        .collect();
    PublishedSet { per_file }
}

/// Sampling: each replica's host samples `sample_frac` of the other hosts,
/// counts the copies it sees (plus its own), and publishes its replica if
/// that lower-bound estimate is ≤ `threshold`. At 100% sampling this
/// coincides with Perfect; at 0% every estimate is 1.
pub fn sam(
    input: &SchemeInput<'_>,
    hosts: u64,
    sample_frac: f64,
    threshold: u32,
    seed: u64,
) -> PublishedSet {
    input.check();
    assert!((0.0..=1.0).contains(&sample_frac));
    assert!(hosts > 0);
    let mut rng = stream_rng(seed, 0x5A11);
    let per_file = input
        .replicas
        .iter()
        .map(|&r| {
            let mut published = 0u32;
            for _ in 0..r {
                // Copies visible in a sample of the other hosts. Sampling
                // without replacement of frac·hosts nodes sees each of the
                // other r−1 copies with probability ≈ sample_frac.
                let seen = binomial(&mut rng, r - 1, sample_frac);
                if seen < threshold {
                    published += 1;
                }
            }
            published
        })
        .collect();
    PublishedSet { per_file }
}

/// Binomial(n, p) sampler: exact Bernoulli loop for small n, normal
/// approximation for large n (adequate for trace simulation).
fn binomial(rng: &mut SimRng, n: u32, p: f64) -> u32 {
    if p <= 0.0 || n == 0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    if n <= 64 {
        (0..n).filter(|_| rng.random_bool(p)).count() as u32
    } else {
        let mean = n as f64 * p;
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        // Box-Muller.
        let u1: f64 = rng.random_range(f64::EPSILON..1.0);
        let u2: f64 = rng.random();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (mean + sd * z).round().clamp(0.0, n as f64) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs() -> (Vec<Vec<TermId>>, Vec<u32>) {
        // File 0: rare, unique terms. File 1: a rare file made entirely of
        // *popular* terms (a live-remix with the words reordered) — the
        // case that motivates TPF over TF. File 2: popular. File 3: mid.
        let tok = |s: &str| pier_vocab::scan(s);
        let tokens = vec![
            tok("obscure bootleg"),
            tok("hit popular"),
            tok("popular hit"),
            tok("middling track"),
        ];
        let replicas = vec![1, 2, 500, 20];
        (tokens, replicas)
    }

    fn freq_maps(
        tokens: &[Vec<TermId>],
        replicas: &[u32],
    ) -> (KeyedMap<TermId, u64>, KeyedMap<(TermId, TermId), u64>) {
        let mut tf_map = KeyedMap::new();
        let mut pf_map = KeyedMap::new();
        for (t, &r) in tokens.iter().zip(replicas) {
            for tok in t {
                *tf_map.entry(*tok).or_insert(0) += r as u64;
            }
            for w in t.windows(2) {
                *pf_map.entry((w[0], w[1])).or_insert(0) += r as u64;
            }
        }
        (tf_map, pf_map)
    }

    #[test]
    fn perfect_thresholds() {
        let (tokens, replicas) = inputs();
        let input = SchemeInput { tokens: &tokens, replicas: &replicas };
        assert_eq!(perfect(&input, 0).per_file, vec![0, 0, 0, 0]);
        assert_eq!(perfect(&input, 1).per_file, vec![1, 0, 0, 0]);
        assert_eq!(perfect(&input, 2).per_file, vec![1, 2, 0, 0]);
        assert_eq!(perfect(&input, 1000).per_file, replicas);
    }

    #[test]
    fn random_overhead_tracks_fraction() {
        let (tokens, replicas) = inputs();
        let big_reps = vec![1000u32; 50];
        let big_toks = vec![tokens[0].clone(); 50];
        let input = SchemeInput { tokens: &big_toks, replicas: &big_reps };
        let p = random(&input, 0.3, 1);
        let overhead = p.overhead(&big_reps);
        assert!((overhead - 0.3).abs() < 0.02, "overhead {overhead}");
        assert_eq!(random(&input, 0.0, 1).overhead(&big_reps), 0.0);
        assert_eq!(random(&input, 1.0, 1).overhead(&big_reps), 1.0);
        let _ = replicas;
    }

    #[test]
    fn tf_publishes_rare_terms_only() {
        let (tokens, replicas) = inputs();
        let (tf_map, _) = freq_maps(&tokens, &replicas);
        let input = SchemeInput { tokens: &tokens, replicas: &replicas };
        // Threshold 5: files whose rarest term occurs < 5 times. Only
        // file 0 qualifies — file 1's terms are all popular (502 each).
        let p = tf(&input, &tf_map, 5);
        assert_eq!(p.per_file, vec![1, 0, 0, 0]);
        // Unknown terms count as frequency 0 → rare.
        let alien = vec![vec![pier_vocab::intern("neverseen")]];
        let alien_reps = vec![7u32];
        let p2 = tf(&SchemeInput { tokens: &alien, replicas: &alien_reps }, &tf_map, 5);
        assert_eq!(p2.per_file, vec![7]);
    }

    #[test]
    fn tpf_catches_rare_files_with_popular_terms() {
        let (tokens, replicas) = inputs();
        let (tf_map, pf_map) = freq_maps(&tokens, &replicas);
        let input = SchemeInput { tokens: &tokens, replicas: &replicas };
        // File 1 ("hit popular") — both terms popular, so TF misses it...
        let by_tf = tf(&input, &tf_map, 3);
        assert_eq!(by_tf.per_file[1], 0, "TF misses the rare file with popular terms");
        // ...but its ordered *pair* (hit, popular) has frequency 2 → TPF
        // catches it, while the popular ordering (popular, hit) stays out.
        let by_tpf = tpf(&input, &pf_map, 3);
        assert_eq!(by_tpf.per_file[1], 2);
        assert_eq!(by_tpf.per_file[2], 0, "popular pairs stay unpublished");
    }

    #[test]
    fn sam_full_sampling_equals_perfect() {
        let (tokens, replicas) = inputs();
        let input = SchemeInput { tokens: &tokens, replicas: &replicas };
        for t in [1u32, 2, 20, 500] {
            let s = sam(&input, 1000, 1.0, t, 9);
            let p = perfect(&input, t);
            assert_eq!(s.per_file, p.per_file, "threshold {t}");
        }
    }

    #[test]
    fn sam_zero_sampling_is_all_or_nothing() {
        let (tokens, replicas) = inputs();
        let input = SchemeInput { tokens: &tokens, replicas: &replicas };
        assert_eq!(sam(&input, 1000, 0.0, 0, 9).per_file, vec![0, 0, 0, 0]);
        assert_eq!(sam(&input, 1000, 0.0, 1, 9).per_file, replicas, "estimate is always 1");
    }

    #[test]
    fn sam_quality_improves_with_sample_size() {
        // With more sampling, fewer replicas of popular files sneak in
        // under the threshold.
        let replicas = vec![200u32; 40];
        let tokens = vec![vec![pier_vocab::intern("x")]; 40];
        let input = SchemeInput { tokens: &tokens, replicas: &replicas };
        let low = sam(&input, 10_000, 0.01, 3, 9);
        let high = sam(&input, 10_000, 0.30, 3, 9);
        let pub_low: u32 = low.per_file.iter().sum();
        let pub_high: u32 = high.per_file.iter().sum();
        assert!(
            pub_high < pub_low,
            "better sampling must reject popular files: {pub_high} vs {pub_low}"
        );
    }

    #[test]
    fn binomial_sampler_statistics() {
        let mut rng = stream_rng(4, 4);
        // Small-n exact path.
        let mean_small: f64 =
            (0..2_000).map(|_| binomial(&mut rng, 20, 0.25) as f64).sum::<f64>() / 2_000.0;
        assert!((mean_small - 5.0).abs() < 0.3, "{mean_small}");
        // Large-n approximation path.
        let mean_large: f64 =
            (0..2_000).map(|_| binomial(&mut rng, 400, 0.5) as f64).sum::<f64>() / 2_000.0;
        assert!((mean_large - 200.0).abs() < 3.0, "{mean_large}");
        assert_eq!(binomial(&mut rng, 10, 0.0), 0);
        assert_eq!(binomial(&mut rng, 10, 1.0), 10);
    }
}
