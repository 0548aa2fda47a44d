//! Sharded batch execution with the cluster coordinator: plan a
//! manifest across shards, run each shard's sub-manifest through the
//! worker engine, and merge the per-shard results back into a document
//! **byte-identical** to the single-process run.
//!
//! This is the library face of `tdals shard-batch`. The CLI runs each
//! shard on its own `tdals serve` daemon (spawned, or given with
//! `--connect`); here each shard runs on a [`Daemon`] in this process,
//! driven by the same client loop ([`run_jobs`]), so the example needs
//! no spawned binaries and still demonstrates the whole plan → run →
//! merge contract.
//!
//! ```sh
//! cargo run --release --example shard_batch
//! ```

use tdals::circuits::Benchmark;
use tdals::cluster::{merge, plan, ShardPolicy};
use tdals::server::{
    results_document_from_records, run_jobs, Daemon, DaemonConfig, FlowJob, Manifest,
};

/// Runs a manifest on a fresh in-process daemon and returns its results
/// document. The pool width is irrelevant to the bytes produced —
/// results are width-invariant — so use whatever this machine has.
fn run_local(manifest: &Manifest) -> Result<String, Box<dyn std::error::Error>> {
    let daemon = Daemon::new(DaemonConfig::new(tdals::core::par::available_threads()))?;
    let rows = run_jobs(
        &mut |request| daemon.call(request),
        &manifest.jobs,
        None,
        None,
        &mut |_, _, _| {},
    )?;
    Ok(format!("{}\n", results_document_from_records(rows)))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A little batch: the same benchmark under different optimizers
    // and seeds. Names must be unique — result records are keyed by
    // them downstream.
    let jobs: Vec<FlowJob> = [3u64, 5, 7, 11, 13]
        .iter()
        .map(|&seed| {
            FlowJob::benchmark(Benchmark::Int2float)
                .with_bound(0.05)
                .with_scale(6, 2)
                .with_vectors(512)
                .with_seed(seed)
                .with_name(format!("int2float-{seed}"))
        })
        .collect();
    let manifest = Manifest::new(jobs);

    // Plan 3 shards. The plan is a pure function of the manifest and
    // policy, so coordinator and post-mortem always agree on it; the
    // JSON shard map is what `tdals shard-batch --shard-map` records.
    let shard_plan = plan(&manifest, 3, ShardPolicy::SizeWeighted)?;
    println!("shard map:\n{}\n", shard_plan.to_json());

    // Run each shard the way a shard's daemon would.
    let mut shard_docs = Vec::with_capacity(shard_plan.shard_count());
    for shard in 0..shard_plan.shard_count() {
        let sub = shard_plan.manifest_for(&manifest, shard);
        let doc = run_local(&sub)?;
        println!("shard {shard}: {} job(s)", sub.jobs.len());
        shard_docs.push(doc);
    }

    // Merge validates each shard's record count and local indices
    // before stitching the global order back together.
    let merged = merge(&shard_plan, &shard_docs)?;

    // The contract, live: the merged document is the exact bytes the
    // unsharded run writes.
    let solo_doc = run_local(&manifest)?;
    assert_eq!(merged, solo_doc, "sharded and solo runs must agree");
    println!("\nmerged == solo: {} bytes, byte-identical", merged.len());
    Ok(())
}
