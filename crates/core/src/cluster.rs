//! Multi-shard cluster router: several [`FlashCosmosDevice`] shards
//! behind one operand namespace.
//!
//! A single device scales to the channels its controller owns; past
//! that, deployments scale *out* — more SSDs behind one ingest point.
//! [`FcCluster`] models that tier with the very splitter
//! [`crate::crossdie`] uses inside one device:
//!
//! * **Consistent-hash routing** — each operand name maps to one shard
//!   via rendezvous (highest-random-weight) hashing, so adding a shard
//!   moves only `1/n` of the namespace and two writers never disagree
//!   about an operand's home. All of an operand's pages, overwrites and
//!   maintenance stay on its home shard.
//! * **Cross-shard queries** — an expression whose operands span shards
//!   splits through [`crossdie::split`] keyed by home shard instead of
//!   plane: n-ary AND/OR children are bucketed by home shard
//!   (co-resident children compile into one per-shard leaf query,
//!   keeping MWS fusion on the shard), spanning children recurse, a
//!   spanning XOR merges its two sides, thresholds expand to AND/OR form
//!   first, and the cluster controller folds the per-shard partial
//!   vectors with [`crossdie::eval_merge`]. The same rules split a query
//!   over planes inside each shard, so whether a query is answerable
//!   never depends on where the rendezvous hash put its operands.
//! * **Batched submission** — [`FcCluster::submit`] compiles a whole
//!   [`QueryBatch`] into one per-shard sub-batch per shard (so each
//!   shard plans its leaves jointly: dedup and shared-term extraction
//!   still apply shard-locally), then merges per query. Shards are
//!   independent devices running concurrently, so the modeled critical
//!   path is the slowest shard's. A pass reports the device's own
//!   [`BatchStats`]: counts sum over shards, and the measured controller
//!   merge time joins `merge_us`, so [`BatchStats::bottleneck`] applies
//!   the same die/channel/merge attribution to a cluster pass as to a
//!   device batch.
//! * **Per-shard maintenance** — every shard keeps its own session,
//!   maintenance queue and scrub queue; [`FcCluster::run_maintenance`]
//!   and [`FcCluster::drain`] fan out and report per-shard stats.
//!
//! Lock order: the cluster adds no locks of its own — the registry and
//! name table are plain single-owner state (`&mut self` on the write
//! path), and each shard's internal `RwLock` discipline is unchanged.
//! Raw shard access for tests and audits goes through
//! [`FcCluster::shard_mut`], the lint-mutators chokepoint.

use std::collections::BTreeMap;
use std::time::Instant;

use fc_bits::BitVec;
use fc_ssd::SsdConfig;

use crate::batch::{
    fail_fast, BatchResults, BatchStats, QueryBatch, QueryFailure, QueryId, QueryStats,
};
use crate::crossdie;
use crate::device::{FcError, FlashCosmosDevice, OperandHandle, StoreHints};
use crate::expr::{Expr, Nnf, OperandId};
use crate::maintenance::MaintenanceStats;
use crate::session::DrainStats;

/// Where a cluster operand lives: its home shard and the shard-local
/// handle queries on that shard use.
#[derive(Debug, Clone, Copy)]
struct Slot {
    shard: usize,
    local: OperandHandle,
}

/// A cluster of [`FlashCosmosDevice`] shards behind one router.
///
/// Operand handles returned by [`FcCluster::fc_write`] live in the
/// *cluster's* id space — build [`Expr`]s from them exactly as with a
/// single device and submit through [`FcCluster::fc_read`] /
/// [`FcCluster::submit`]; the router translates to shard-local ids.
pub struct FcCluster {
    shards: Vec<FlashCosmosDevice>,
    /// Cluster operand id → home shard + local handle.
    registry: Vec<Slot>,
    /// Name → cluster operand id.
    names: BTreeMap<String, OperandId>,
}

impl FcCluster {
    /// Builds a cluster of `shards` identical devices.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(config: SsdConfig, shards: usize) -> Self {
        assert!(shards >= 1, "a cluster needs at least one shard");
        Self {
            shards: (0..shards).map(|_| FlashCosmosDevice::new(config.clone())).collect(),
            registry: Vec::new(),
            names: BTreeMap::new(),
        }
    }

    /// Read access to one shard device.
    pub fn shard(&self, shard: usize) -> &FlashCosmosDevice {
        &self.shards[shard]
    }

    /// Raw mutable access to one shard device, bypassing the router's
    /// operand registry. Escape hatch for tests, audits and benches —
    /// mutating shard state behind the router's back (overwriting
    /// operands by their shard-local names, corrupting for audit) can
    /// desynchronize the registry exactly like raw SSD access
    /// desynchronizes a device's operand table.
    pub fn shard_mut(&mut self, shard: usize) -> &mut FlashCosmosDevice {
        &mut self.shards[shard]
    }

    /// The home shard the router assigns to `name`, whether or not the
    /// operand exists yet. Rendezvous hashing: stable under lookups from
    /// any replica of the routing table, and adding a shard relocates
    /// only the names whose new shard wins the vote (~`1/n` of them).
    pub fn home_shard(&self, name: &str) -> usize {
        let h = name_hash(name);
        (0..self.shards.len())
            .max_by_key(|&s| mix(h ^ mix(s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .expect("a cluster has at least one shard")
    }

    /// The cluster handle for a stored operand name.
    pub fn operand(&self, name: &str) -> Option<OperandHandle> {
        self.names.get(name).map(|&id| OperandHandle { id })
    }

    /// Stores an operand on its home shard and returns a cluster-level
    /// handle usable in expressions submitted through the router.
    ///
    /// # Errors
    ///
    /// Fails on duplicate names or any shard-level write error.
    pub fn fc_write(
        &mut self,
        name: &str,
        data: &BitVec,
        hints: StoreHints,
    ) -> Result<OperandHandle, FcError> {
        if self.names.contains_key(name) {
            return Err(FcError::DuplicateName(name.to_string()));
        }
        let shard = self.home_shard(name);
        let local = self.shards[shard].fc_write(name, data, hints)?;
        let id = self.registry.len();
        self.registry.push(Slot { shard, local });
        self.names.insert(name.to_string(), id);
        Ok(OperandHandle { id })
    }

    /// Replaces a stored operand's data in place on its home shard. The
    /// cluster handle stays valid; shard-side generation bumps keep any
    /// cached results for the old data unservable.
    ///
    /// # Errors
    ///
    /// Fails on unknown names or any shard-level overwrite error.
    pub fn fc_overwrite(&mut self, name: &str, data: &BitVec) -> Result<OperandHandle, FcError> {
        let &id = self.names.get(name).ok_or_else(|| FcError::UnknownName(name.to_string()))?;
        let shard = self.registry[id].shard;
        let local = self.shards[shard].fc_overwrite(name, data)?;
        self.registry[id].local = local;
        Ok(OperandHandle { id })
    }

    /// Evaluates one expression across the cluster: splits it into
    /// per-shard leaf queries, runs them, and merges the partials.
    ///
    /// # Errors
    ///
    /// Fails on unknown operand ids, planner errors, or a shard-level
    /// query failure.
    pub fn fc_read(&self, expr: &Expr) -> Result<(BitVec, BatchStats), FcError> {
        let mut batch = QueryBatch::new();
        batch.push(expr.clone());
        let mut out = self.submit(&batch)?;
        fail_fast(&out.failures)?;
        Ok((out.results.swap_remove(0), out.stats))
    }

    /// Submits a batch of queries across the cluster and returns one
    /// vector per query in submission order, the pass's statistics and
    /// its per-query failures — the device's own [`BatchResults`].
    ///
    /// Every query splits into per-shard leaves; all leaves bound for
    /// the same shard form **one** shard sub-batch, so shard-local joint
    /// planning (dedup, shared-term extraction, die spreading) sees the
    /// whole cluster batch's demand on that shard. Shards execute
    /// independently; the cluster controller then merges each query's
    /// partial vectors.
    ///
    /// The statistics describe the cluster pass: counts sum over the
    /// shards, `critical_path_us` and the `busiest_*` lanes come from the
    /// slowest shard (shards run concurrently), `merge_us` is the shards'
    /// merges plus the cluster controller's measured merge, and
    /// `per_query[q]` sums the shares of query `q`'s leaves.
    ///
    /// # Errors
    ///
    /// Fails on unknown operand ids or planner errors. Shard-side
    /// *query* failures do not fail the batch: they surface per query in
    /// [`BatchResults::failures`], with the cluster-level query id and
    /// the underlying shard failure (a leaf failure fails only the
    /// queries that depend on it), and unaffected queries complete.
    pub fn submit(&self, batch: &QueryBatch) -> Result<BatchResults, FcError> {
        let shards = self.shards.len();
        let mut sub_batches: Vec<QueryBatch> = vec![QueryBatch::new(); shards];
        // Every query's leaves as (shard, shard-local QueryId), in plan
        // pre-order; each query owns one contiguous range of them.
        let mut leaves: Vec<(usize, QueryId)> = Vec::new();
        let mut plans = Vec::with_capacity(batch.len());
        // A leaf is its subtree, localized, queued on the subtree's shard.
        let mut push_leaf = |shard: usize, sub: &Nnf| -> Result<_, FcError> {
            Ok((shard, sub_batches[shard].push(self.localize(sub))))
        };
        for expr in batch.queries() {
            let nnf = expr.to_nnf();
            for id in nnf.operands() {
                self.shard_of(id)?;
            }
            let plan = crossdie::split(&nnf, &|id| self.shard_of(id).ok(), &mut push_leaf)?;
            let start = leaves.len();
            plans.push((plan.flatten(&mut leaves), start..leaves.len()));
        }

        let mut stats = BatchStats {
            queries: batch.len(),
            per_query: vec![QueryStats::default(); batch.len()],
            ..BatchStats::default()
        };
        let mut shard_shares: Vec<Vec<QueryStats>> = vec![Vec::new(); shards];
        let mut shard_results = Vec::with_capacity(shards);
        let mut shard_failures: Vec<Vec<QueryFailure>> = vec![Vec::new(); shards];
        for (s, sub) in sub_batches.iter().enumerate() {
            if sub.is_empty() {
                shard_results.push(Vec::new());
                continue;
            }
            let out = self.shards[s].submit(sub)?;
            let o = &out.stats;
            stats.senses += o.senses;
            stats.serial_senses += o.serial_senses;
            stats.chip_time_us += o.chip_time_us;
            stats.energy_uj += o.energy_uj;
            stats.deduped_queries += o.deduped_queries;
            stats.shared_units += o.shared_units;
            stats.cached_units += o.cached_units;
            stats.cached_senses += o.cached_senses;
            stats.dies_used += o.dies_used;
            stats.merge_us += o.merge_us;
            if o.critical_path_us > stats.critical_path_us {
                stats.critical_path_us = o.critical_path_us;
                stats.busiest_die_us = o.busiest_die_us;
                stats.busiest_channel_us = o.busiest_channel_us;
            }
            shard_shares[s] = out.stats.per_query;
            shard_failures[s] = out.failures;
            shard_results.push(out.results);
        }
        for (q, (_, range)) in plans.iter().enumerate() {
            let qs = &mut stats.per_query[q];
            for &(s, lq) in &leaves[range.clone()] {
                let leaf = &shard_shares[s][lq];
                qs.senses += leaf.senses;
                qs.chip_time_us += leaf.chip_time_us;
                qs.energy_uj += leaf.energy_uj;
            }
        }

        let mut results = Vec::with_capacity(plans.len());
        let mut failures = Vec::new();
        let merge_start = Instant::now();
        // Each shard-local query is exactly one leaf, so its partial
        // moves into the merge instead of being cloned.
        let mut pages: Vec<Option<BitVec>> =
            leaves.iter().map(|&(s, lq)| Some(std::mem::take(&mut shard_results[s][lq]))).collect();
        for (q, (tree, range)) in plans.iter().enumerate() {
            let failed = leaves[range.clone()]
                .iter()
                .find_map(|&(s, lq)| shard_failures[s].iter().find(|f| f.query == lq));
            if let Some(fail) = failed {
                failures.push(QueryFailure { query: q, ..*fail });
                results.push(BitVec::zeros(0));
            } else {
                results.push(crossdie::eval_merge(tree, &mut pages));
            }
        }
        stats.merge_us += merge_start.elapsed().as_secs_f64() * 1e6;
        Ok(BatchResults { results, stats, failures })
    }

    /// Fans [`FlashCosmosDevice::drain`] out to every shard. Shard
    /// sessions are independent: each drains its own queue under its own
    /// slack budget.
    ///
    /// # Errors
    ///
    /// Fails on the first shard whose drain fails.
    pub fn drain(&self) -> Result<Vec<DrainStats>, FcError> {
        self.shards.iter().map(|s| s.drain()).collect()
    }

    /// Fans [`FlashCosmosDevice::schedule_maintenance`] out to every
    /// shard, returning the total number of jobs queued.
    pub fn schedule_maintenance(&self) -> usize {
        self.shards.iter().map(|s| s.schedule_maintenance()).sum()
    }

    /// Fans [`FlashCosmosDevice::run_maintenance`] out to every shard's
    /// own maintenance queue.
    ///
    /// # Errors
    ///
    /// Fails on the first shard whose maintenance pass fails.
    pub fn run_maintenance(&self) -> Result<Vec<MaintenanceStats>, FcError> {
        self.shards.iter().map(|s| s.run_maintenance()).collect()
    }

    /// The home shard of a cluster operand id.
    fn shard_of(&self, id: OperandId) -> Result<usize, FcError> {
        self.registry.get(id).map(|s| s.shard).ok_or(FcError::UnknownOperand(id))
    }

    /// Rebuilds a normalized subtree as an [`Expr`] in shard-local
    /// operand ids. Only called on subtrees whose operands all resolved
    /// through the registry (validated by [`FcCluster::submit`]).
    fn localize(&self, nnf: &Nnf) -> Expr {
        match nnf {
            Nnf::Literal(lit) => {
                let local = Expr::var(self.registry[lit.id].local.id);
                if lit.negated {
                    Expr::not(local)
                } else {
                    local
                }
            }
            Nnf::And(children) => Expr::and(children.iter().map(|c| self.localize(c)).collect()),
            Nnf::Or(children) => Expr::or(children.iter().map(|c| self.localize(c)).collect()),
            Nnf::Xor(a, b) => Expr::xor(self.localize(a), self.localize(b)),
            Nnf::Threshold { k, children } => {
                Expr::threshold(*k, children.iter().map(|c| self.localize(c)).collect())
            }
        }
    }
}

/// FNV-1a over the operand name (stable across runs and platforms).
fn name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// SplitMix64-style finalizer: decorrelates the name hash per shard for
/// the rendezvous vote.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn pattern(bits: usize, stride: usize) -> BitVec {
        BitVec::from_fn(bits, |i| i % stride == 0)
    }

    fn cluster_with(
        names: &[&str],
        bits: usize,
        shards: usize,
    ) -> (FcCluster, HashMap<String, (OperandHandle, BitVec)>) {
        let mut cluster = FcCluster::new(SsdConfig::tiny_test(), shards);
        let mut data = HashMap::new();
        for (i, name) in names.iter().enumerate() {
            let v = pattern(bits, i + 2);
            let h = cluster.fc_write(name, &v, StoreHints::and_group(name)).unwrap();
            data.insert((*name).to_string(), (h, v));
        }
        (cluster, data)
    }

    #[test]
    fn routing_is_stable_and_uses_every_shard() {
        let cluster = FcCluster::new(SsdConfig::tiny_test(), 4);
        let mut seen = [false; 4];
        for i in 0..64 {
            let name = format!("op{i}");
            let s = cluster.home_shard(&name);
            assert_eq!(s, cluster.home_shard(&name), "routing must be deterministic");
            seen[s] = true;
        }
        assert!(seen.iter().all(|&s| s), "64 names should touch all 4 shards: {seen:?}");
    }

    #[test]
    fn adding_a_shard_only_relocates_a_fraction() {
        let small = FcCluster::new(SsdConfig::tiny_test(), 4);
        let big = FcCluster::new(SsdConfig::tiny_test(), 5);
        let names: Vec<String> = (0..200).map(|i| format!("op{i}")).collect();
        let moved = names
            .iter()
            .filter(|n| {
                let s = small.home_shard(n);
                let b = big.home_shard(n);
                // Rendezvous: a name either keeps its home or moves to
                // the NEW shard — never between old shards.
                assert!(b == s || b == 4, "{n} moved between old shards: {s} -> {b}");
                b != s
            })
            .count();
        // Expected relocation is 1/5 of the namespace; allow slack.
        assert!(moved < 80, "rendezvous hashing relocated {moved}/200 names");
    }

    #[test]
    fn cross_shard_read_matches_ground_truth() {
        let bits = 96;
        let (cluster, data) = cluster_with(&["a", "b", "c", "d", "e"], bits, 3);
        let by_id: HashMap<usize, BitVec> = data.values().map(|(h, v)| (h.id, v.clone())).collect();
        let lookup = |id: usize| by_id[&id].clone();

        let h = |n: &str| data[n].0;
        let exprs = vec![
            Expr::and(vec![h("a").into(), h("b").into(), h("c").into()]),
            Expr::or(vec![h("a").into(), h("d").into(), h("e").into()]),
            Expr::xor(h("b").into(), h("e").into()),
            Expr::or(vec![Expr::and(vec![h("a").into(), h("b").into()]), Expr::not(h("c").into())]),
            Expr::threshold(2, vec![h("a").into(), h("c").into(), h("e").into()]),
        ];
        for expr in &exprs {
            let (got, _) = cluster.fc_read(expr).unwrap();
            assert_eq!(got, expr.eval(&lookup), "cluster result diverged for {expr}");
        }
    }

    #[test]
    fn batch_submit_merges_per_query_and_attributes_merge_time() {
        let bits = 64;
        let (cluster, data) = cluster_with(&["a", "b", "c", "d"], bits, 2);
        let by_id: HashMap<usize, BitVec> = data.values().map(|(h, v)| (h.id, v.clone())).collect();
        let lookup = |id: usize| by_id[&id].clone();
        let h = |n: &str| data[n].0;

        let mut batch = QueryBatch::new();
        batch.push(Expr::and(vec![h("a").into(), h("b").into(), h("c").into(), h("d").into()]));
        batch.push(Expr::or(vec![h("a").into(), h("c").into()]));
        let out = cluster.submit(&batch).unwrap();
        assert!(out.failures.is_empty());
        for (q, expr) in batch.queries().iter().enumerate() {
            assert_eq!(out.results[q], expr.eval(&lookup), "query {q} diverged");
        }
        assert_eq!(out.stats.per_query.len(), 2);
        assert!(out.stats.senses > 0);
        let shared: f64 = out.stats.per_query.iter().map(|q| q.senses).sum();
        assert!(
            (shared - out.stats.senses as f64).abs() < 1e-9,
            "per-query shares {shared} must sum to the batch's {} senses",
            out.stats.senses
        );
        assert!(out.stats.merge_us >= 0.0);
        assert!(out.stats.critical_path_us > 0.0);
        // Attribution is always one of the three named resources.
        let _ = out.stats.bottleneck();
        assert!((0.0..=1.0).contains(&out.stats.merge_share()));
    }

    #[test]
    fn overwrite_routes_to_home_shard_and_fresh_data_is_served() {
        let bits = 64;
        let (mut cluster, data) = cluster_with(&["a", "b"], bits, 2);
        let h = |n: &str| data[n].0;
        let expr = Expr::and(vec![h("a").into(), h("b").into()]);
        let (before, _) = cluster.fc_read(&expr).unwrap();
        assert_eq!(before, data["a"].1.and(&data["b"].1));

        let fresh = pattern(bits, 7);
        let home = cluster.home_shard("a");
        let handle = cluster.fc_overwrite("a", &fresh).unwrap();
        assert_eq!(handle.id, h("a").id, "overwrite keeps the cluster handle");
        assert!(cluster.shard(home).operand("a").is_some(), "operand must stay on its home shard");
        let (after, _) = cluster.fc_read(&expr).unwrap();
        assert_eq!(after, fresh.and(&data["b"].1));
    }

    #[test]
    fn unknown_operand_is_rejected() {
        let cluster = FcCluster::new(SsdConfig::tiny_test(), 2);
        let err = cluster.fc_read(&Expr::var(7)).unwrap_err();
        assert!(matches!(err, FcError::UnknownOperand(7)));
    }

    #[test]
    fn maintenance_and_drain_fan_out_per_shard() {
        let (cluster, _) = cluster_with(&["a", "b", "c"], 64, 3);
        let drains = cluster.drain().unwrap();
        assert_eq!(drains.len(), 3);
        let maint = cluster.run_maintenance().unwrap();
        assert_eq!(maint.len(), 3);
        let _ = cluster.schedule_maintenance();
    }
}
