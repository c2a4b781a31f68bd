//! Criterion micro-benchmark of the raw-speed path this crate's figure
//! binaries lean on: bulk vs iterator arc decoding of the binary shard
//! payload. Sample sizes are capped so the sweep stays CI-friendly; the
//! `cargo bench --no-run` gate only compiles it.

use criterion::{criterion_group, criterion_main, Criterion};
use hourglass_graph::generators::{self, RmatParams};
use hourglass_graph::io_binary::{decode_arcs, decode_arcs_into, max_arc_id, ShardedArcs};

/// The loaders' old per-arc decode (iterate, range-check, push) vs the
/// new bulk path (branch-free `max_arc_id` pre-scan, then the checkless
/// `decode_arcs_into` extend) filling the same slab from the same shard
/// payload.
fn bench_decode(c: &mut Criterion) {
    let g = generators::rmat(14, 10, RmatParams::SOCIAL, 3).expect("generate");
    let n = g.num_vertices() as u32;
    let sharded = ShardedArcs::flat_from_graph(&g);
    let bytes = sharded.bucket_bytes(0);
    let mut group = c.benchmark_group("arc_decode");
    group.sample_size(20);
    group.bench_function("checked_per_arc", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            for (s, d) in decode_arcs(bytes) {
                if s < n && d < n {
                    out.push((s, d));
                }
            }
            out.len()
        })
    });
    group.bench_function("bulk_prescanned", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            if max_arc_id(bytes).is_none_or(|m| m < n) {
                decode_arcs_into(bytes, &mut out);
            } else {
                for (s, d) in decode_arcs(bytes) {
                    if s < n && d < n {
                        out.push((s, d));
                    }
                }
            }
            out.len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_decode);
criterion_main!(benches);
