//! The discrete-event cluster simulator.

use crate::interference::colocated_slowdown;
use crate::job::Job;
use crate::policy::PackingPolicy;
use occu_gpusim::DeviceSpec;
use serde::{Deserialize, Serialize};

/// GPU description the scheduler needs (a slimmed-down
/// [`DeviceSpec`]).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Device memory in bytes.
    pub memory_bytes: u64,
    /// Label for reports.
    pub name: String,
}

impl GpuSpec {
    /// The paper's scheduler testbed GPU (4x NVIDIA P40, §VI-B).
    pub fn p40() -> Self {
        let d = DeviceSpec::p40();
        Self { memory_bytes: d.memory_bytes(), name: d.name }
    }

    /// A homogeneous cluster of `n` GPUs.
    pub fn cluster(n: usize) -> Vec<GpuSpec> {
        (0..n).map(|_| Self::p40()).collect()
    }
}

/// Result of one simulation run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimResult {
    /// Total time until the last job finishes (microseconds).
    pub makespan_us: f64,
    /// Time- and GPU-averaged NVML utilization over the makespan.
    pub avg_nvml_utilization: f64,
    /// Per-job completion time, indexed by job id.
    pub jcts: Vec<f64>,
    /// Mean JCT.
    pub mean_jct_us: f64,
    /// Peak number of co-located jobs observed on any GPU.
    pub max_colocation: usize,
}

struct Running {
    job: Job,
    remaining: f64,
}

/// Simulates FCFS first-fit packing of `jobs` onto `gpus` under
/// `policy`.
///
/// Event-driven: between events every resident job progresses at rate
/// `1 / slowdown(cumulative true occupancy on its GPU)`; events are
/// job completions, after which the queue is re-scanned. NVML
/// utilization of a GPU is `min(1, Σ resident nvml)` while any job is
/// resident (the metric saturates — §II-B).
pub fn simulate(jobs: &[Job], gpus: &[GpuSpec], policy: PackingPolicy) -> SimResult {
    assert!(!gpus.is_empty(), "simulate: need at least one GPU");
    let _span = occu_obs::span!(
        "sched.simulate",
        policy = policy.name(),
        jobs = jobs.len(),
        gpus = gpus.len(),
    );
    let obs_on = occu_obs::enabled();
    for j in jobs {
        j.validate().unwrap_or_else(|e| panic!("simulate: {e}"));
        assert!(
            gpus.iter().any(|g| j.memory_bytes <= g.memory_bytes),
            "job {} cannot fit on any GPU under any policy",
            j.id
        );
    }
    let max_id = jobs.iter().map(|j| j.id).max().unwrap_or(0);
    let mut jcts = vec![f64::NAN; max_id + 1];
    // Jobs not yet arrived, soonest last (pop from the back).
    let mut pending: Vec<Job> = jobs.iter().filter(|j| j.arrival_us > 0.0).cloned().collect();
    pending.sort_by(|a, b| b.arrival_us.total_cmp(&a.arrival_us));
    let mut queue: std::collections::VecDeque<Job> =
        jobs.iter().filter(|j| j.arrival_us <= 0.0).cloned().collect();
    let mut running: Vec<Vec<Running>> = gpus.iter().map(|_| Vec::new()).collect();
    let mut t = 0.0f64;
    let mut util_integral = 0.0f64;
    let mut max_coloc = 0usize;

    loop {
        // Admit arrivals whose time has come (FCFS by arrival).
        while pending.last().is_some_and(|j| j.arrival_us <= t + 1e-9) {
            queue.push_back(pending.pop().expect("non-empty"));
        }
        // Worst-fit placement scan over the FCFS queue: each job goes
        // to the least-loaded GPU that admits it (empty GPUs first),
        // so co-location only kicks in once the cluster is busy.
        let mut i = 0;
        while i < queue.len() {
            let mut order: Vec<usize> = (0..gpus.len()).collect();
            order.sort_by(|&a, &b| {
                let load_a: f64 = running[a].iter().map(|r| r.job.predicted_occupancy).sum();
                let load_b: f64 = running[b].iter().map(|r| r.job.predicted_occupancy).sum();
                (running[a].len(), load_a).partial_cmp(&(running[b].len(), load_b)).expect("finite loads")
            });
            let mut placed = false;
            for g in order {
                let resident: Vec<Job> = running[g].iter().map(|r| r.job.clone()).collect();
                if policy.admits(&resident, &queue[i], gpus[g].memory_bytes) {
                    let job = queue.remove(i).expect("index in range");
                    running[g].push(Running { remaining: job.work_us, job });
                    max_coloc = max_coloc.max(running[g].len());
                    if obs_on {
                        occu_obs::counter("sched.placements").inc();
                        // Scheduler-visible (predicted) occupancy the
                        // packing decision just committed this GPU to.
                        let load: f64 = running[g].iter().map(|r| r.job.predicted_occupancy).sum();
                        occu_obs::gauge(&format!("sched.gpu{g}.occupancy_sum")).set(load);
                    }
                    placed = true;
                    break;
                }
            }
            if !placed {
                // The job fits no GPU under this policy right now; it
                // waits in the FCFS queue for the next event.
                if obs_on {
                    occu_obs::counter("sched.rejections").inc();
                }
                i += 1;
            }
        }

        if running.iter().all(|r| r.is_empty()) {
            if let Some(next) = pending.last() {
                // Idle until the next arrival.
                t = next.arrival_us;
                continue;
            }
            assert!(queue.is_empty(), "deadlock: jobs stuck in queue");
            break;
        }

        // Per-GPU progress rates under the interference model.
        let mut next_event = f64::INFINITY;
        // The next arrival is also an event boundary: placement must
        // be re-evaluated when a job shows up.
        if let Some(next) = pending.last() {
            next_event = (next.arrival_us - t).max(1e-9);
        }
        let mut rates: Vec<Vec<f64>> = Vec::with_capacity(running.len());
        for slot in &running {
            let total_occ: f64 = slot.iter().map(|r| r.job.true_occupancy).sum();
            let mut slot_rates = Vec::with_capacity(slot.len());
            for r in slot {
                let others = total_occ - r.job.true_occupancy;
                let rate = 1.0 / colocated_slowdown(r.job.true_occupancy, others);
                next_event = next_event.min(r.remaining / rate);
                slot_rates.push(rate);
            }
            rates.push(slot_rates);
        }
        debug_assert!(next_event.is_finite());

        // Advance time; accumulate the utilization integral.
        for slot in &running {
            if !slot.is_empty() {
                let u: f64 = slot.iter().map(|r| r.job.nvml_utilization).sum::<f64>().min(1.0);
                util_integral += u * next_event;
            }
        }
        t += next_event;

        // Apply progress, retire finished jobs.
        for (g, slot) in running.iter_mut().enumerate() {
            let mut k = 0;
            while k < slot.len() {
                slot[k].remaining -= rates[g][k] * next_event;
                if slot[k].remaining <= 1e-6 {
                    let done = slot.remove(k);
                    rates[g].remove(k);
                    // JCT is completion minus submission.
                    jcts[done.job.id] = t - done.job.arrival_us;
                } else {
                    k += 1;
                }
            }
        }
    }

    if obs_on {
        occu_obs::gauge("sched.max_colocation").set(max_coloc as f64);
    }
    let mean_jct = if jcts.is_empty() {
        0.0
    } else {
        jcts.iter().filter(|x| x.is_finite()).sum::<f64>() / jcts.iter().filter(|x| x.is_finite()).count().max(1) as f64
    };
    SimResult {
        makespan_us: t,
        avg_nvml_utilization: if t > 0.0 { util_integral / (t * gpus.len() as f64) } else { 0.0 },
        jcts,
        mean_jct_us: mean_jct,
        max_colocation: max_coloc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs(n: usize, occ: f64, nvml: f64) -> Vec<Job> {
        (0..n)
            .map(|i| Job::exact(i, format!("j{i}"), occ, nvml, 1e6, 2 << 30))
            .collect()
    }

    #[test]
    fn single_job_runs_at_solo_speed() {
        let res = simulate(&jobs(1, 0.4, 0.9), &GpuSpec::cluster(1), PackingPolicy::SlotPacking);
        assert!((res.makespan_us - 1e6).abs() < 1.0);
        assert!((res.jcts[0] - 1e6).abs() < 1.0);
        assert_eq!(res.max_colocation, 1);
    }

    #[test]
    fn slot_packing_serializes_on_one_gpu() {
        let res = simulate(&jobs(3, 0.3, 0.9), &GpuSpec::cluster(1), PackingPolicy::SlotPacking);
        assert!((res.makespan_us - 3e6).abs() < 1.0, "3 sequential jobs");
    }

    #[test]
    fn occu_packing_beats_slot_packing_on_low_occupancy_mix() {
        // Moderate NVML per job: co-location stacks utilization below
        // the 1.0 cap, so both makespan and utilization improve.
        let pool = jobs(8, 0.3, 0.3);
        let cluster = GpuSpec::cluster(2);
        let slot = simulate(&pool, &cluster, PackingPolicy::SlotPacking);
        let occu = simulate(&pool, &cluster, PackingPolicy::OccuPacking);
        assert!(
            occu.makespan_us < slot.makespan_us,
            "occu {} should beat slot {}",
            occu.makespan_us,
            slot.makespan_us
        );
        assert!(occu.max_colocation >= 2);
        assert!(occu.avg_nvml_utilization > slot.avg_nvml_utilization);
    }

    #[test]
    fn nvml_packing_degenerates_to_slots_for_saturated_jobs() {
        // Every job reports 0.9 NVML utilization, so nvml-util-packing
        // cannot co-locate anything.
        let pool = jobs(6, 0.25, 0.9);
        let cluster = GpuSpec::cluster(2);
        let nvml = simulate(&pool, &cluster, PackingPolicy::NvmlUtilPacking);
        let slot = simulate(&pool, &cluster, PackingPolicy::SlotPacking);
        assert_eq!(nvml.max_colocation, 1);
        assert!((nvml.makespan_us - slot.makespan_us).abs() < 1.0);
    }

    #[test]
    fn colocation_inflates_individual_jcts() {
        let pool = jobs(2, 0.4, 0.9);
        let one_gpu = GpuSpec::cluster(1);
        let coloc = simulate(&pool, &one_gpu, PackingPolicy::OccuPacking);
        // Both jobs run together, each slowed by the interference
        // model: JCT > solo 1e6 for both.
        for &jct in &coloc.jcts {
            assert!(jct > 1e6);
        }
        // But makespan is below serial execution.
        assert!(coloc.makespan_us < 2e6);
    }

    #[test]
    fn memory_pressure_forces_queueing() {
        // Two jobs that each need >half the GPU cannot co-locate even
        // under occu-packing.
        let mut pool = jobs(2, 0.1, 0.2);
        for j in &mut pool {
            j.memory_bytes = 15 << 30; // P40 has 22.5 GiB
        }
        let res = simulate(&pool, &GpuSpec::cluster(1), PackingPolicy::OccuPacking);
        assert_eq!(res.max_colocation, 1);
        assert!((res.makespan_us - 2e6).abs() < 1.0);
    }

    #[test]
    fn over_allocation_hurts_when_predictions_lie() {
        // Underpredicted occupancy lets occu-packing over-pack; true
        // cumulative occupancy > 1 triggers the steep interference
        // region and slows everyone.
        let mut optimistic = jobs(4, 0.7, 0.9);
        for j in &mut optimistic {
            j.predicted_occupancy = 0.2;
        }
        let honest = jobs(4, 0.7, 0.9); // predicted == true == 0.7
        let cluster = GpuSpec::cluster(2);
        let bad = simulate(&optimistic, &cluster, PackingPolicy::OccuPacking);
        let good = simulate(&honest, &cluster, PackingPolicy::OccuPacking);
        assert!(
            bad.mean_jct_us > good.mean_jct_us,
            "over-packing should inflate JCT: {} vs {}",
            bad.mean_jct_us,
            good.mean_jct_us
        );
    }

    #[test]
    fn online_arrivals_delay_execution() {
        // One GPU, two equal jobs; the second arrives halfway through
        // the first. Under slot-packing it must wait.
        let a = Job::exact(0, "first", 0.4, 0.5, 1e6, 1 << 30);
        let b = Job::exact(1, "second", 0.4, 0.5, 1e6, 1 << 30).arriving_at(5e5);
        let res = simulate(&[a, b], &GpuSpec::cluster(1), PackingPolicy::SlotPacking);
        assert!((res.jcts[0] - 1e6).abs() < 1.0);
        // Second starts at 1e6, finishes at 2e6: JCT = 2e6 - 5e5.
        assert!((res.jcts[1] - 1.5e6).abs() < 1.0, "jct {}", res.jcts[1]);
        assert!((res.makespan_us - 2e6).abs() < 1.0);
    }

    #[test]
    fn idle_gap_before_late_arrival() {
        // A single job arriving late: the cluster idles until then.
        let j = Job::exact(0, "late", 0.3, 0.5, 1e6, 1 << 30).arriving_at(3e6);
        let res = simulate(&[j], &GpuSpec::cluster(2), PackingPolicy::OccuPacking);
        assert!((res.makespan_us - 4e6).abs() < 1.0);
        assert!((res.jcts[0] - 1e6).abs() < 1.0, "JCT excludes the pre-arrival wait");
        // Utilization accounts for the idle head.
        assert!(res.avg_nvml_utilization < 0.2);
    }

    #[test]
    fn arrival_mid_run_can_colocate() {
        // Occu-packing: a job arriving while another runs joins it.
        let a = Job::exact(0, "resident", 0.3, 0.4, 2e6, 1 << 30);
        let b = Job::exact(1, "arrival", 0.3, 0.4, 1e6, 1 << 30).arriving_at(2e5);
        let res = simulate(&[a, b], &GpuSpec::cluster(1), PackingPolicy::OccuPacking);
        assert_eq!(res.max_colocation, 2);
        // Makespan below strictly serial (2e5 + 2e6 + 1e6).
        assert!(res.makespan_us < 3.2e6);
    }

    #[test]
    fn all_jobs_complete_with_finite_jct() {
        let pool = jobs(10, 0.35, 0.85);
        for policy in PackingPolicy::table6() {
            let res = simulate(&pool, &GpuSpec::cluster(4), policy);
            assert_eq!(res.jcts.len(), 10, "{}", policy.name());
            assert!(res.jcts.iter().all(|x| x.is_finite()), "{}", policy.name());
            assert!(res.avg_nvml_utilization > 0.0 && res.avg_nvml_utilization <= 1.0);
        }
    }
}
