//! The service's caches — prepared DD solvers, autotuned operating
//! points, scattered configurations — as three fronts of one LRU.
//!
//! `DdSolver::new` is the expensive part of a cold solve — clover
//! inversion for every even site, f32/f16 conversion of the gauge and
//! clover fields, domain coloring — and it depends only on the gauge
//! configuration and the solver parameters, not on the right-hand side.
//! Propagator production issues many right-hand sides against few
//! configurations, so the service keeps the most recently used prepared
//! solvers and rebuilds only on a genuine configuration (or parameter)
//! change. Hit/miss/eviction counts are exported into the `qdd-trace`
//! metrics registry by the service. The sharded pool's unit of set-up is
//! the scatter of a configuration over a rank grid ([`ShardSetupCache`]).

use crate::shard::ShardSetup;
use qdd_autotune::TunedParams;
use qdd_core::DdSolver;
use std::sync::Arc;

/// Whether a lookup was served from the cache.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CacheOutcome {
    Hit,
    Miss,
}

/// The one LRU behind [`SetupCache`], [`TuneCache`] and
/// [`ShardSetupCache`]: 64-bit keys, cloneable values, counted
/// lookups.
struct Lru<V> {
    capacity: usize,
    /// Most recently used at the back.
    entries: Vec<(u64, V)>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<V: Clone> Lru<V> {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Self { capacity, entries: Vec::new(), hits: 0, misses: 0, evictions: 0 }
    }

    /// Look up `key`, building (and inserting) the value on a miss. `build`
    /// returning `None` is passed through and nothing is inserted.
    ///
    /// A full cache gives up its least recently used value *before* `build`
    /// runs, so at most `capacity` values are resident at any time — the
    /// service's memory high-water mark does not depend on whether the
    /// request sequence happened to overflow the cache. The price: a build
    /// that fails on a full cache still cost that entry.
    fn get_or_build(
        &mut self,
        key: u64,
        build: impl FnOnce() -> Option<V>,
    ) -> (Option<V>, CacheOutcome) {
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            self.hits += 1;
            // Refresh recency.
            let entry = self.entries.remove(pos);
            self.entries.push(entry);
            return (Some(self.entries.last().unwrap().1.clone()), CacheOutcome::Hit);
        }
        self.misses += 1;
        if self.entries.len() >= self.capacity {
            self.entries.remove(0);
            self.evictions += 1;
        }
        let Some(value) = build() else {
            return (None, CacheOutcome::Miss);
        };
        self.entries.push((key, value.clone()));
        (Some(value), CacheOutcome::Miss)
    }
}

/// Constructor and counters of a cache type wrapping one [`Lru`].
macro_rules! lru_front {
    ($cache:ty) => {
        impl $cache {
            pub fn new(capacity: usize) -> Self {
                Self(Lru::new(capacity))
            }

            pub fn len(&self) -> usize {
                self.0.entries.len()
            }

            pub fn is_empty(&self) -> bool {
                self.0.entries.is_empty()
            }

            pub fn hits(&self) -> u64 {
                self.0.hits
            }

            pub fn misses(&self) -> u64 {
                self.0.misses
            }

            pub fn evictions(&self) -> u64 {
                self.0.evictions
            }
        }
    };
}

/// An LRU cache of prepared solvers keyed by a 64-bit setup key (see
/// `request::setup_key`: config id + lattice geometry + precision policy +
/// tolerance bits).
pub struct SetupCache(Lru<Arc<DdSolver>>);
lru_front!(SetupCache);

impl SetupCache {
    /// Look up `key`, building (and inserting) the solver on a miss.
    /// `build` returning `None` (singular clover block, unknown config)
    /// is passed through uncached. A full cache evicts before it builds:
    /// at most `capacity` prepared solvers are ever resident.
    pub fn get_or_build(
        &mut self,
        key: u64,
        build: impl FnOnce() -> Option<DdSolver>,
    ) -> (Option<Arc<DdSolver>>, CacheOutcome) {
        self.0.get_or_build(key, || build().map(Arc::new))
    }

    /// Hits over lookups; 0 before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }
}

/// An LRU cache of autotuned operating points keyed by problem *shape*
/// (lattice dims + backend + precision + worker count — see
/// `service::tune_key`). The model search is cheap next to a solver
/// build, but it is per shape, not per request: the service tunes once
/// and serves the cached plan thereafter. Infeasible shapes (no
/// candidate passes the constraints) cache `None` so the search does
/// not rerun every batch.
pub struct TuneCache(Lru<Option<TunedParams>>);
lru_front!(TuneCache);

impl TuneCache {
    /// Look up `key`, running the tuner on a miss. Unlike the setup
    /// cache, a `None` outcome *is* cached — "nothing feasible" is a
    /// deterministic property of the shape.
    pub fn get_or_tune(
        &mut self,
        key: u64,
        tune: impl FnOnce() -> Option<TunedParams>,
    ) -> (Option<TunedParams>, CacheOutcome) {
        let (tuned, outcome) = self.0.get_or_build(key, || Some(tune()));
        (tuned.flatten(), outcome)
    }
}

/// An LRU of scattered configurations, shared across every shard of a
/// pool (the supervisor wraps it in a mutex): capacity and eviction are
/// pool-wide properties, so two shards never hold duplicate scatters of
/// the same configuration alive past the shared budget.
pub struct ShardSetupCache(Lru<Arc<ShardSetup>>);
lru_front!(ShardSetupCache);

impl ShardSetupCache {
    /// Look up `key`, building (and inserting) the scatter on a miss. A
    /// `None` build (unknown config) is passed through uncached. A full
    /// cache evicts before it builds, like [`SetupCache`].
    pub fn get_or_build(
        &mut self,
        key: u64,
        build: impl FnOnce() -> Option<ShardSetup>,
    ) -> Option<Arc<ShardSetup>> {
        self.0.get_or_build(key, || build().map(Arc::new)).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConfigKey, SyntheticSource};
    use qdd_core::{DdSolverConfig, FgmresConfig, MrConfig, SchwarzConfig};
    use qdd_dirac::clover::build_clover_field;
    use qdd_dirac::gamma::GammaBasis;
    use qdd_dirac::wilson::{BoundaryPhases, WilsonClover};
    use qdd_field::fields::GaugeField;
    use qdd_lattice::Dims;
    use qdd_util::rng::Rng64;

    fn solver(seed: u64) -> DdSolver {
        let dims = Dims::new(4, 4, 4, 4);
        let mut rng = Rng64::new(seed);
        let g = GaugeField::random(dims, &mut rng, 0.4);
        let basis = GammaBasis::degrand_rossi();
        let c = build_clover_field(&g, 1.2, &basis);
        let op = WilsonClover::new(g, c, 0.3, BoundaryPhases::antiperiodic_t());
        let cfg = DdSolverConfig {
            fgmres: FgmresConfig { max_basis: 8, deflate: 4, tolerance: 1e-8, max_iterations: 100 },
            schwarz: SchwarzConfig {
                block: Dims::new(2, 2, 2, 2),
                i_schwarz: 2,
                mr: MrConfig { iterations: 4, tolerance: 0.0, f16_vectors: false },
                ..Default::default()
            },
            precision: qdd_core::Precision::Single,
            ..Default::default()
        };
        DdSolver::new(op, cfg).unwrap()
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = SetupCache::new(2);
        let (a, o) = cache.get_or_build(1, || Some(solver(1)));
        assert!(a.is_some());
        assert_eq!(o, CacheOutcome::Miss);
        let _ = cache.get_or_build(2, || Some(solver(2)));
        // Touch 1 so 2 becomes the LRU entry.
        let (_, o) = cache.get_or_build(1, || panic!("must be cached"));
        assert_eq!(o, CacheOutcome::Hit);
        let _ = cache.get_or_build(3, || Some(solver(3)));
        assert_eq!(cache.evictions(), 1);
        // 2 was evicted; 1 survived.
        let (_, o) = cache.get_or_build(1, || panic!("must still be cached"));
        assert_eq!(o, CacheOutcome::Hit);
        let (_, o) = cache.get_or_build(2, || Some(solver(2)));
        assert_eq!(o, CacheOutcome::Miss);
        assert_eq!((cache.hits(), cache.misses()), (2, 4));
        assert!((cache.hit_rate() - 2.0 / 6.0).abs() < 1e-15);
    }

    #[test]
    fn full_cache_evicts_before_it_builds() {
        // At most `capacity` solvers are resident: the LRU entry is gone by
        // the time its replacement is built.
        let mut cache = SetupCache::new(1);
        let (first, _) = cache.get_or_build(1, || Some(solver(1)));
        let first = Arc::downgrade(&first.unwrap());
        let (second, _) = cache.get_or_build(2, || {
            assert!(first.upgrade().is_none(), "the evicted solver outlived the next build");
            Some(solver(2))
        });
        assert!(second.is_some());
        assert_eq!((cache.len(), cache.evictions()), (1, 1));

        // The pool-wide scatter cache is the same engine in the same order.
        let source = SyntheticSource::new(Dims::new(4, 4, 4, 4));
        let scatter = |id| ShardSetup::build(&source, ConfigKey(id), Dims::new(1, 1, 1, 2));
        let mut cache = ShardSetupCache::new(1);
        let first = Arc::downgrade(&cache.get_or_build(1, || scatter(1)).unwrap());
        let second = cache.get_or_build(2, || {
            assert!(first.upgrade().is_none(), "the evicted scatter outlived the next build");
            scatter(2)
        });
        assert!(second.is_some());
        assert_eq!((cache.len(), cache.evictions()), (1, 1));
        // The accepted price of that order: a build that fails (unknown
        // config) on a full cache has already cost the resident scatter.
        assert!(cache.get_or_build(3, || None).is_none());
        assert_eq!((cache.len(), cache.evictions(), cache.misses()), (0, 2, 3));
    }

    #[test]
    fn tune_cache_caches_feasible_and_infeasible_shapes() {
        let mut cache = TuneCache::new(2);
        let tuned = || {
            qdd_autotune::Autotuner::new(qdd_machine::BackendKind::Knc7110p)
                .tune(&qdd_autotune::TuneProblem::single_node(Dims::new(8, 8, 8, 8), 1, 24))
                .best()
                .copied()
        };
        let (t, o) = cache.get_or_tune(1, tuned);
        assert!(t.is_some());
        assert_eq!(o, CacheOutcome::Miss);
        let (t2, o) = cache.get_or_tune(1, || panic!("must be cached"));
        assert_eq!(o, CacheOutcome::Hit);
        assert_eq!(t.unwrap().key(), t2.unwrap().key());
        // "Nothing feasible" is cached, not recomputed per lookup.
        let (none, o) = cache.get_or_tune(2, || None);
        assert!(none.is_none());
        assert_eq!(o, CacheOutcome::Miss);
        let (none, o) = cache.get_or_tune(2, || panic!("infeasible result must be cached"));
        assert!(none.is_none());
        assert_eq!(o, CacheOutcome::Hit);
        // LRU eviction mirrors the setup cache.
        let _ = cache.get_or_tune(3, || None);
        assert_eq!(cache.evictions(), 1);
        assert_eq!((cache.hits(), cache.misses()), (2, 3));
    }

    #[test]
    fn failed_build_is_not_cached() {
        let mut cache = SetupCache::new(2);
        let (s, o) = cache.get_or_build(9, || None);
        assert!(s.is_none());
        assert_eq!(o, CacheOutcome::Miss);
        assert!(cache.is_empty());
        // A later successful build goes through normally.
        let (s, _) = cache.get_or_build(9, || Some(solver(9)));
        assert!(s.is_some());
        assert_eq!(cache.len(), 1);
    }
}
