//! What the benchmark's numbers rest on: the wrappers change nothing, the
//! threaded run simulates what the single-threaded one does, the seed
//! reaches the inputs, and a traced run accounts for all of `run_until`.
//! Tenth-scale (`quick`) work, in process.

use numfabric_benchmark::metrics::PER_LAYER;
use numfabric_benchmark::run::{run_once, RunResult};
use numfabric_benchmark::workloads::Workload;

fn quick(workload: Workload, seed: u64, traced: bool) -> RunResult {
    let result = run_once(workload, seed, traced, true);
    assert_eq!(
        result.check_failures,
        Vec::<String>::new(),
        "{} seed {seed}",
        workload.name()
    );
    assert_eq!(result.failed, 0, "{} seed {seed}", workload.name());
    assert!(result.offered > 0 && result.bytes_delivered > 0 && result.wall_s > 0.0);
    result
}

fn outcome(r: &RunResult) -> (u64, u64, u64, u64) {
    (r.fingerprint, r.events, r.offered, r.bytes_delivered)
}

#[test]
fn wrappers_are_transparent_on_both_protocols() {
    for workload in [Workload::ChurnWs, Workload::ChurnWsPfabric] {
        let bare = quick(workload, 1, false);
        let traced = quick(workload, 1, true);
        assert_eq!(outcome(&bare), outcome(&traced), "{}", workload.name());
        // and the run repeats exactly
        assert_eq!(outcome(&bare), outcome(&quick(workload, 1, false)));
    }
}

#[test]
fn the_threaded_run_simulates_what_the_single_threaded_one_does() {
    let reference = quick(Workload::ChurnWs, 2, false);
    let threaded = quick(Workload::ChurnWsP2t2, 2, false);
    assert_eq!(outcome(&reference), outcome(&threaded));
    // wrappers meter from worker threads there; still transparent
    let traced = quick(Workload::ChurnWsP2t2, 2, true);
    assert_eq!(outcome(&reference), outcome(&traced));
}

#[test]
fn the_seed_reaches_the_inputs() {
    let a = quick(Workload::ChurnWs, 1, false);
    let b = quick(Workload::ChurnWs, 2, false);
    assert_ne!(a.fingerprint, b.fingerprint);
    // …but not the amount of work: the offered bytes are the workload's.
    assert_eq!(a.bytes_delivered, b.bytes_delivered);
    let a = quick(Workload::StrideSteady, 1, false);
    let b = quick(Workload::StrideSteady, 2, false);
    assert_ne!(a.fingerprint, b.fingerprint);
}

#[test]
fn closed_workloads_finish_their_work() {
    let shuffle = quick(Workload::ShuffleFt8, 1, false);
    assert_eq!(shuffle.offered, 128 * 127);
    assert_eq!(shuffle.bytes_delivered, 128 * 127 * 2_000);
    let stride = quick(Workload::StrideSteady, 1, false);
    assert_eq!(stride.offered, 128);
    assert!(stride.bytes_delivered >= 100_000_000);
    assert!(stride.bytes_delivered < 103_000_000, "stops within a slice");
}

#[test]
fn a_traced_run_yields_every_layer_and_accounts_for_run_until() {
    for workload in [Workload::StrideSteady, Workload::ChurnWsPfabric] {
        let r = quick(workload, 1, true);
        let get = |name: &str| r.layer(name).unwrap_or_else(|| panic!("{name} missing"));
        // Everything the child can compute by itself is there; the rest is
        // the parent's (rates against untraced runs, the 1x1 reference).
        let parents = [
            "sim.network.ns_per_event",
            "sim.network.events_per_s",
            "sim.network.parallel_speedup",
            "sim.network.parallel_cpu_ratio",
            "trace.overhead_frac",
        ];
        for metric in &PER_LAYER {
            assert_eq!(
                r.layer(metric.name).is_none(),
                parents.contains(&metric.name),
                "{}",
                metric.name
            );
        }
        // engine + layers + instrumentation = run_until, by construction of
        // the self-time accounting; each part must be a real share of it.
        let agent = get("core.agent.busy_s") + get("baselines.pfabric.busy_s");
        let layers = get("sim.queue.busy_s") + get("core.xwi.busy_s") + agent;
        let calls = get("sim.queue.enqueue_calls")
            + get("sim.queue.dequeue_calls")
            + get("core.xwi.calls")
            + get("core.agent.calls")
            + get("baselines.pfabric.calls");
        let instrumentation = calls * get("trace.timer_cost_ns") / 1e9;
        let total = get("sim.network.run_until_s");
        let rebuilt = get("sim.network.engine_self_s") + layers + instrumentation;
        assert!(
            (rebuilt - total).abs() <= 0.01 * total,
            "{}: {rebuilt} vs {total}",
            workload.name()
        );
        assert!(get("sim.network.engine_self_s") > 0.0 && layers > 0.0);
        assert!(get("sim.queue.enqueue_calls") > 0.0 && get("sim.event.hold_ns") > 0.0);
        // one protocol's layers run, the other's report nothing
        let numfabric = workload == Workload::StrideSteady;
        assert_eq!(get("core.xwi.calls") > 0.0, numfabric);
        assert_eq!(get("core.agent.calls") > 0.0, numfabric);
        assert_eq!(get("baselines.pfabric.timer_calls") > 0.0, !numfabric);
        assert_eq!(get("sim.queue.drops") > 0.0, !numfabric);
    }
}
