//! Seeded inputs: the 17 suite kernels, their random renumberings and
//! their literal variants. Everything the daemon sees is made here, from
//! `--seed` alone.

use std::path::Path;

use cgra_dfg::{Dfg, DfgDigest, NodeId, Operation};
use monomap_core::api::{EngineId, MapRequest};

/// Every request carries this deadline; no workload comes near it, so a
/// `Timeout` is a failure, never a data point.
pub const DEADLINE_SECONDS: f64 = 30.0;

/// xorshift64* — small, seedable, and owned by the benchmark so the
/// input stream cannot shift when the vendored `rand` stub does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // splitmix64 of the seed: xorshift must not start at 0, and
        // seeds 1, 2, 3… must not give correlated streams.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for
    /// the sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One suite kernel: its `.mk` text and the DFG `compile_one` makes of it.
pub struct Kernel {
    pub name: String,
    pub source: String,
    pub dfg: Dfg,
}

/// Compiles every `*.mk` under `dir`, sorted by file name so the kernel
/// order does not depend on directory iteration order.
pub fn load_kernels(dir: &Path) -> Result<Vec<Kernel>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "mk"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no .mk kernels in {}", dir.display()));
    }
    paths
        .iter()
        .map(|path| {
            let source =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            let dfg = monomap_frontend::compile_one(&source)
                .map_err(|e| format!("{}:{}:{}: {}", path.display(), e.line, e.col, e.message))?;
            Ok(Kernel {
                name: dfg.name().to_string(),
                source,
                dfg,
            })
        })
        .collect()
}

/// A uniformly random permutation of `0..n`.
pub fn permutation(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut perm);
    perm
}

/// The same kernel with its nodes added in another order: node `v`
/// becomes node `perm[v]`, edges keep their order. Same canonical
/// digest, different search order inside the mapper.
pub fn renumber(dfg: &Dfg, perm: &[usize]) -> Dfg {
    let mut inverse = vec![0; perm.len()];
    for (old, &new) in perm.iter().enumerate() {
        inverse[new] = old;
    }
    let mut out = Dfg::new(dfg.name());
    for &old in &inverse {
        let old = NodeId::from_index(old);
        out.add_node(dfg.op(old), dfg.node_name(old));
    }
    for e in dfg.edges() {
        out.add_edge(
            NodeId::from_index(perm[e.src.index()]),
            NodeId::from_index(perm[e.dst.index()]),
            e.operand,
            e.kind,
        );
    }
    out
}

/// The same kernel with the literal of its first `Const` node replaced.
/// Payloads are structural, so the digest changes; structure and
/// numbering, and with them the solve cost, do not.
pub fn with_literal(dfg: &Dfg, literal: i64) -> Dfg {
    let target = dfg
        .nodes()
        .find(|&v| matches!(dfg.op(v), Operation::Const(_)))
        .expect("every suite kernel has a Const node");
    let mut out = Dfg::new(dfg.name());
    for v in dfg.nodes() {
        let op = if v == target {
            Operation::Const(literal)
        } else {
            dfg.op(v)
        };
        out.add_node(op, dfg.node_name(v));
    }
    for e in dfg.edges() {
        out.add_edge(e.src, e.dst, e.operand, e.kind);
    }
    out
}

/// The wire body of a `dfg` request.
pub fn dfg_body(dfg: &Dfg) -> String {
    let mut req = MapRequest::new(EngineId::Decoupled, dfg.clone());
    req.deadline_seconds = Some(DEADLINE_SECONDS);
    serde_json::to_string(&req).expect("requests serialize")
}

/// The wire body of a `.mk` `source` request.
pub fn source_body(source: &str) -> String {
    let mut req =
        MapRequest::from_source(EngineId::Decoupled, source).expect("suite kernels compile");
    req.deadline_seconds = Some(DEADLINE_SECONDS);
    serde_json::to_string(&req).expect("requests serialize")
}

/// One request as the load generator plays it.
pub struct Item {
    /// The wire body.
    pub body: String,
    /// The DFG exactly as submitted: answers are validated against this
    /// numbering, which is what catches a mistranslated isomorph hit.
    pub dfg: Dfg,
    /// Distinct per distinct request of a workload; groups latency
    /// samples of the same request across passes.
    pub key: u32,
    /// The digest of the same kernel in its as-compiled numbering. The
    /// traced replay checks that the submitted numbering still
    /// canonicalizes to it: a renumbering's digest must not drift.
    pub digest: DfgDigest,
    /// Sent as `.mk` `source`, not as a `dfg`.
    pub from_source: bool,
}

impl Item {
    fn dfg(dfg: Dfg, key: usize, digest: DfgDigest) -> Item {
        Item {
            body: dfg_body(&dfg),
            dfg,
            key: key as u32,
            digest,
            from_source: false,
        }
    }
}

/// Seed of the cold workloads' renumbering pool. Deliberately not
/// `--seed`: cold solve time is heavy-tailed in the numbering (the same
/// kernel takes 1 ms or 1 s), so a pass over seed-drawn renumberings
/// spreads by 70 % of its median from seed to seed and no regression
/// bound could hold. Every seed therefore replays the same pool, which
/// does contain the slow numberings; `--seed` draws the literals and
/// the order of play.
///
/// The value is the one of eight candidates tried (see README.md) whose
/// pool keeps `cold_2x2` free of step-limit searches, so that the time
/// phase leads there as the workload intends, and whose 4×4 pass takes
/// about 3 s here.
const POOL_SEED: u64 = 0x6D6F_6E6F_6D61_77D0;

/// Permutations `0..perms` for kernel number `index`: 0 is the identity
/// (the kernel as compiled), the rest are draws of a stream that
/// depends on the kernel alone, so growing `perms` never changes the
/// earlier ones.
pub fn pool(kernel: &Kernel, index: usize, perms: usize) -> Vec<Vec<usize>> {
    let n = kernel.dfg.num_nodes();
    let mut rng = Rng::new(POOL_SEED + index as u64);
    (0..perms)
        .map(|p| match p {
            0 => (0..n).collect(),
            _ => permutation(n, &mut rng),
        })
        .collect()
}

/// Literals no suite kernel uses, different for every seed.
fn literal_base(rng: &mut Rng) -> i64 {
    (1 << 32) + (rng.next_u64() >> 34) as i64
}

/// A cold workload's request list: every kernel × `perms` pool
/// renumberings, each made a never-seen kernel by its own literal (or
/// all but the first of a kernel would be isomorph hits), in seeded
/// order.
pub fn cold_items(kernels: &[Kernel], seed: u64, perms: usize) -> Vec<Item> {
    let mut rng = Rng::new(seed);
    let base = literal_base(&mut rng);
    let mut items = Vec::with_capacity(kernels.len() * perms);
    for (index, kernel) in kernels.iter().enumerate() {
        for perm in pool(kernel, index, perms) {
            // Literal first, then renumber: "the first `Const`" must be
            // the same node in every numbering.
            let variant = with_literal(&kernel.dfg, base + items.len() as i64);
            let digest = variant.digest();
            items.push(Item::dfg(renumber(&variant, &perm), items.len(), digest));
        }
    }
    rng.shuffle(&mut items);
    items
}

/// The requests that prime a cache: every kernel as compiled.
pub fn prime_items(kernels: &[Kernel]) -> Vec<Item> {
    kernels
        .iter()
        .enumerate()
        .map(|(k, kernel)| Item::dfg(kernel.dfg.clone(), k, kernel.dfg.digest()))
        .collect()
}

/// The hit mix in equal thirds — the primed `dfg` body again, a seeded
/// renumbering of it, and the kernel's `.mk` source — shuffled once per
/// connection.
pub fn hit_items(kernels: &[Kernel], seed: u64, connection: u64) -> Vec<Item> {
    let mut rng = Rng::new(seed ^ (connection + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    let mut items = Vec::with_capacity(kernels.len() * 3);
    for kernel in kernels {
        let digest = kernel.dfg.digest();
        items.push(Item::dfg(kernel.dfg.clone(), items.len(), digest));
        let perm = permutation(kernel.dfg.num_nodes(), &mut rng);
        items.push(Item::dfg(renumber(&kernel.dfg, &perm), items.len(), digest));
        items.push(Item {
            body: source_body(&kernel.source),
            dfg: kernel.dfg.clone(),
            key: items.len() as u32,
            digest,
            from_source: true,
        });
    }
    rng.shuffle(&mut items);
    items
}

/// Pass number `pass` of `mixed_4x4`'s write connection: every kernel as
/// compiled × `variants` literals no earlier pass used.
pub fn never_seen_items(kernels: &[Kernel], seed: u64, pass: usize, variants: usize) -> Vec<Item> {
    let base = literal_base(&mut Rng::new(seed));
    let per_pass = variants * kernels.len();
    let mut items = Vec::with_capacity(per_pass);
    for variant in 0..variants {
        for kernel in kernels {
            let key = pass * per_pass + items.len();
            let dfg = with_literal(&kernel.dfg, base + (pass * variants + variant) as i64);
            let digest = dfg.digest();
            items.push(Item::dfg(dfg, key, digest));
        }
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernels() -> Vec<Kernel> {
        load_kernels(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../kernels")).unwrap()
    }

    fn bodies(items: &[Item]) -> Vec<&str> {
        items.iter().map(|i| i.body.as_str()).collect()
    }

    #[test]
    fn the_same_seed_gives_byte_identical_bodies_and_a_second_seed_differs() {
        let k = kernels();
        assert_eq!(k.len(), 17);
        assert_eq!(bodies(&cold_items(&k, 1, 3)), bodies(&cold_items(&k, 1, 3)));
        assert_eq!(bodies(&hit_items(&k, 1, 0)), bodies(&hit_items(&k, 1, 0)));
        assert_eq!(
            bodies(&never_seen_items(&k, 1, 2, 3)),
            bodies(&never_seen_items(&k, 1, 2, 3))
        );
        assert_ne!(bodies(&cold_items(&k, 1, 3)), bodies(&cold_items(&k, 2, 3)));
        assert_ne!(bodies(&hit_items(&k, 1, 0)), bodies(&hit_items(&k, 2, 0)));
        assert_ne!(bodies(&hit_items(&k, 1, 0)), bodies(&hit_items(&k, 1, 1)));
        assert_ne!(
            bodies(&never_seen_items(&k, 1, 0, 3)),
            bodies(&never_seen_items(&k, 2, 0, 3))
        );
    }

    #[test]
    fn a_renumbering_keeps_the_digest_and_a_literal_changes_it() {
        let mut rng = Rng::new(7);
        for (index, kernel) in kernels().iter().enumerate() {
            let digest = kernel.dfg.digest();
            let mut seen = std::collections::BTreeSet::from([digest]);
            for (p, perm) in pool(kernel, index, 4).iter().enumerate() {
                let dfg = renumber(&kernel.dfg, perm);
                dfg.validate().unwrap();
                assert_eq!(dfg.digest(), digest, "{} pool[{p}]", kernel.name);
                let variant = with_literal(&kernel.dfg, (1 << 32) + p as i64);
                variant.validate().unwrap();
                assert!(seen.insert(variant.digest()), "{} variant {p}", kernel.name);
                assert_eq!(renumber(&variant, perm).digest(), variant.digest());
            }
            let perm = permutation(kernel.dfg.num_nodes(), &mut rng);
            let drawn = renumber(&kernel.dfg, &perm);
            assert_eq!(drawn.digest(), digest);
            assert_eq!(drawn.name(), kernel.dfg.name());
        }
    }

    #[test]
    fn the_pool_is_the_same_for_every_seed_and_grows_by_appending() {
        let k = kernels();
        let short = pool(&k[11], 11, 3);
        let long = pool(&k[11], 11, 6);
        assert_eq!(short[..], long[..3]);
        assert_ne!(long[1], long[2]);
        assert_eq!(
            dfg_body(&renumber(&k[11].dfg, &long[0])),
            dfg_body(&k[11].dfg)
        );
        // Items of two seeds differ in literal and order, not in pool.
        let numbering = |seed| -> std::collections::BTreeSet<Vec<String>> {
            cold_items(&k, seed, 3)
                .iter()
                .map(|i| {
                    i.dfg
                        .nodes()
                        .map(|v| i.dfg.node_name(v).to_string())
                        .collect()
                })
                .collect()
        };
        assert_eq!(numbering(1), numbering(2));
    }

    #[test]
    fn every_request_of_a_workload_is_a_distinct_kernel_where_it_must_miss() {
        let k = kernels();
        let mut digests = std::collections::BTreeSet::new();
        for item in cold_items(&k, 3, 4) {
            assert!(digests.insert(item.dfg.digest()));
        }
        digests.clear();
        for pass in 0..2 {
            for item in never_seen_items(&k, 3, pass, 3) {
                assert!(digests.insert(item.dfg.digest()), "pass {pass}");
            }
        }
        // The hit mix, by contrast, is only ever the primed kernels.
        let primed: std::collections::BTreeSet<_> =
            prime_items(&k).iter().map(|i| i.dfg.digest()).collect();
        assert!(hit_items(&k, 3, 0)
            .iter()
            .all(|i| primed.contains(&i.dfg.digest())));
    }
}
