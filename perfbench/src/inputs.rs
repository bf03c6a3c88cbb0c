//! Seeded input generators for the workloads.
//!
//! The `serve_cold` generator is a pure function of the run seed and the
//! caller index, so a run can be replayed in-process by the traced run
//! and re-created by the tests below.

use occu_core::dataset::{SEEN_MODELS, UNSEEN_MODELS};
use occu_core::{Dataset, DnnOccu, DnnOccuConfig};
use occu_gpusim::DeviceSpec;
use occu_models::ModelId;
use occu_tensor::SeededRng;
use std::collections::HashSet;

/// Built-in devices a spec may name.
pub const DEVICES: [&str; 5] = ["a100", "v100", "t4", "p40", "rtx2080ti"];

/// Cold specs draw batches from `1..=COLD_MAX_BATCH`.
pub const COLD_MAX_BATCH: usize = 2048;
/// The warm-up batch of `serve_cold`: outside the cold range, so no
/// timed request can be answered from a warm-up cache entry.
pub const WARM_BATCH: usize = 4096;

/// Hidden width `occu train` writes by default.
pub const HIDDEN: usize = 32;
/// Seed of the served (and initial trained) model's weights.
pub const MODEL_SEED: u64 = 7;
/// `train_fit` data is fixed rather than drawn from the run seed, so
/// that `unseen_mre_pct` is the same number on every run and any drift
/// in it is a change in the program.
pub const TRAIN_DATA_SEED: u64 = 17;
pub const EVAL_DATA_SEED: u64 = 18;
pub const TRAIN_CONFIGS_PER_MODEL: usize = 8;
pub const EVAL_CONFIGS_PER_MODEL: usize = 3;
pub const TRAIN_EPOCHS: usize = 4;

/// One `/predict` request: a zoo model at a batch size on a device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Spec {
    pub model: ModelId,
    pub batch: usize,
    pub device: &'static str,
}

impl Spec {
    /// The JSON request body.
    pub fn body(&self) -> String {
        format!(
            "{{\"model\":\"{}\",\"batch\":{},\"device\":\"{}\"}}",
            self.model.name(),
            self.batch,
            self.device
        )
    }
}

/// The fixed model every workload starts from.
pub fn fixed_model() -> DnnOccu {
    DnnOccu::new(
        DnnOccuConfig {
            hidden: HIDDEN,
            ..DnnOccuConfig::fast()
        },
        MODEL_SEED,
    )
}

/// One spec per zoo model, so `serve_cold` pays every plan compile in
/// set-up rather than in the timed phase.
pub fn cold_warmup() -> Vec<Spec> {
    ModelId::ALL
        .iter()
        .map(|&model| Spec {
            model,
            batch: WARM_BATCH,
            device: DEVICES[0],
        })
        .collect()
}

/// `serve_cold` requests of one caller. Callers own disjoint batch
/// residues, so specs never repeat across callers either; every cycle
/// of 20 requests visits all 20 zoo models once in a seeded order, so
/// each second of the run sees the same model mix.
pub struct ColdGen {
    rng: SeededRng,
    caller: usize,
    callers: usize,
    cycle: Vec<ModelId>,
    pos: usize,
    used: HashSet<Spec>,
}

impl ColdGen {
    pub fn new(seed: u64, caller: usize, callers: usize) -> Self {
        assert!(caller < callers);
        Self {
            rng: SeededRng::new(
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC01D ^ ((caller as u64 + 1) << 32),
            ),
            caller,
            callers,
            cycle: ModelId::ALL.to_vec(),
            pos: ModelId::ALL.len(),
            used: HashSet::new(),
        }
    }

    pub fn next_spec(&mut self) -> Spec {
        if self.pos == self.cycle.len() {
            shuffle(&mut self.cycle, &mut self.rng);
            self.pos = 0;
        }
        let model = self.cycle[self.pos];
        self.pos += 1;
        loop {
            let k = self.rng.index(COLD_MAX_BATCH / self.callers);
            let batch = k * self.callers + self.caller + 1;
            let device = DEVICES[self.rng.index(DEVICES.len())];
            let spec = Spec {
                model,
                batch,
                device,
            };
            if self.used.insert(spec) {
                return spec;
            }
        }
    }
}

fn shuffle<T>(xs: &mut [T], rng: &mut SeededRng) {
    for i in (1..xs.len()).rev() {
        let j = rng.index(i + 1);
        xs.swap(i, j);
    }
}

/// The `train_fit` training set: SEEN_MODELS configs labelled through
/// `occu-gpusim` on an A100.
pub fn train_data() -> Dataset {
    Dataset::generate(
        &SEEN_MODELS,
        TRAIN_CONFIGS_PER_MODEL,
        &DeviceSpec::a100(),
        TRAIN_DATA_SEED,
    )
}

/// The unseen-model evaluation set behind `unseen_mre_pct`.
pub fn eval_data() -> Dataset {
    Dataset::generate(
        &UNSEEN_MODELS,
        EVAL_CONFIGS_PER_MODEL,
        &DeviceSpec::a100(),
        EVAL_DATA_SEED,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_specs() {
        for caller in 0..2 {
            let mut a = ColdGen::new(11, caller, 2);
            let mut b = ColdGen::new(11, caller, 2);
            let xs: Vec<Spec> = (0..500).map(|_| a.next_spec()).collect();
            let ys: Vec<Spec> = (0..500).map(|_| b.next_spec()).collect();
            assert_eq!(xs, ys);
        }
        let mut a = ColdGen::new(11, 0, 2);
        let mut c = ColdGen::new(12, 0, 2);
        let xs: Vec<Spec> = (0..50).map(|_| a.next_spec()).collect();
        let zs: Vec<Spec> = (0..50).map(|_| c.next_spec()).collect();
        assert_ne!(xs, zs, "another seed must give other specs");
    }

    #[test]
    fn cold_specs_never_repeat_and_miss_the_warmup() {
        let warm: HashSet<Spec> = cold_warmup().into_iter().collect();
        let mut seen = HashSet::new();
        // Far more specs per caller than a run at today's speed sends.
        for caller in 0..2 {
            let mut g = ColdGen::new(3, caller, 2);
            for _ in 0..20_000 {
                let s = g.next_spec();
                assert!(!warm.contains(&s), "{s:?} is a warm-up spec");
                assert!(seen.insert(s), "{s:?} repeated");
            }
        }
    }

    #[test]
    fn cold_cycles_visit_every_model_once() {
        let mut g = ColdGen::new(5, 1, 2);
        for _ in 0..3 {
            let mut cycle: Vec<&str> = (0..ModelId::ALL.len())
                .map(|_| g.next_spec().model.name())
                .collect();
            cycle.sort_unstable();
            let mut all: Vec<&str> = ModelId::ALL.iter().map(|m| m.name()).collect();
            all.sort_unstable();
            assert_eq!(cycle, all);
        }
    }
}
