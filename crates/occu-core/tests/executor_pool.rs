//! Plan executors are pooled per process, not per thread: a thread
//! that has never run a plan picks up an idle executor whose arena is
//! already warm for the shape. This is its own test binary with a
//! single test because the arena counters it reads are process-global.

use occu_core::dataset::make_sample;
use occu_core::gnn::{DnnOccu, DnnOccuConfig};
use occu_gpusim::DeviceSpec;
use occu_models::ModelId;

#[test]
fn fresh_threads_reuse_warm_executors() {
    let model = DnnOccu::new(DnnOccuConfig::fast(), 11);
    let fg = make_sample(ModelId::ResNet18, ModelId::ResNet18.default_config(), &DeviceSpec::a100())
        .features;
    let plan = model.compile_plan_for(&fg);

    // Warm the shape on this thread.
    let want = plan.predict(&fg).to_bits();
    assert_eq!(plan.predict(&fg).to_bits(), want);
    let warm = occu_tensor::arena_total_fresh_allocs();

    // Four fresh threads in turn: each one finds the executor the
    // previous execution returned, so no arena allocates again.
    for i in 0..4 {
        let got = std::thread::scope(|s| s.spawn(|| plan.predict(&fg)).join().expect("predict thread"));
        assert_eq!(got.to_bits(), want, "thread {i} answered differently");
        assert_eq!(
            occu_tensor::arena_total_fresh_allocs(),
            warm,
            "thread {i} allocated fresh scratch instead of reusing a warm executor"
        );
    }
}
