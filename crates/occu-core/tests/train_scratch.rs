//! A fit owns its training scratch: each worker's tape stays warm
//! across batches and epochs, so once every sample has been seen the
//! fit takes no fresh arena storage. This is its own test binary with
//! a single test because the arena counter it reads is process-wide.

use occu_core::dataset::{make_sample, Dataset};
use occu_core::gnn::{DnnOccu, DnnOccuConfig};
use occu_core::{Parallelism, TrainConfig, Trainer};
use occu_gpusim::DeviceSpec;
use occu_models::{ModelConfig, ModelId};

#[test]
fn epochs_after_the_first_take_no_fresh_arena_storage() {
    let dev = DeviceSpec::a100();
    let sample = |model: ModelId, batch_size: usize| {
        make_sample(model, ModelConfig { batch_size, ..Default::default() }, &dev)
    };
    let data = Dataset {
        samples: vec![
            sample(ModelId::LeNet, 8),
            sample(ModelId::ResNet18, 16),
            sample(ModelId::LeNet, 128),
            sample(ModelId::VitS, 4),
            sample(ModelId::ResNet18, 2),
        ],
    };
    let fresh_allocs_of_fit = |epochs: usize| {
        let mut model = DnnOccu::new(DnnOccuConfig { hidden: 16, ..DnnOccuConfig::fast() }, 3);
        let cfg = TrainConfig { epochs, batch_size: 2, parallelism: Parallelism::serial(), ..Default::default() };
        let before = occu_tensor::arena_total_fresh_allocs();
        Trainer::new(cfg).fit(&mut model, &data).expect("fit");
        occu_tensor::arena_total_fresh_allocs() - before
    };
    let one = fresh_allocs_of_fit(1);
    assert!(one > 0, "the first epoch fills the tape's arena");
    for epochs in [2, 4] {
        assert_eq!(fresh_allocs_of_fit(epochs), one, "a {epochs}-epoch fit took fresh arena storage after its first epoch");
    }
}
