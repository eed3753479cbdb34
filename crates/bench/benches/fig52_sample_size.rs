//! Bench target for Figure 5.2 (messages vs sample size): prints the
//! figure, then times the coordinator's bottom-s maintenance across s.
//!
//! The grid runs past every `s` the repository uses (at most 512) to
//! 16 384, so it records where the flat sorted sample's O(s) admission
//! memmove starts to cost more than a tree's O(log s) insert.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion, Throughput};
use dds_core::centralized::BottomS;
use dds_hash::splitmix::SplitMix64;
use dds_hash::UnitValue;
use dds_sim::Element;

/// Distinct offers per iteration, each with a uniform random hash.
const OFFERS: u64 = 100_000;

fn bottom_s_offer(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig52/bottom_s_offer");
    g.sample_size(10);
    g.throughput(Throughput::Elements(OFFERS));
    for s in [1usize, 16, 100, 1024, 16_384] {
        g.bench_with_input(BenchmarkId::from_parameter(s), &s, |b, &s| {
            b.iter(|| {
                let mut bottom = BottomS::new(s);
                let mut rng = SplitMix64::new(7);
                for i in 0..OFFERS {
                    bottom.offer(Element(i), UnitValue(rng.next_u64()));
                }
                black_box(bottom.threshold())
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bottom_s_offer);

fn main() {
    dds_bench::bench_support::print_experiment("fig52");
    benches();
    Criterion::default().configure_from_args().final_summary();
}
