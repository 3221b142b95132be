//! The persisted aggregation-path benchmark baseline.
//!
//! Criterion's output is ephemeral, so until now no PR could *prove* a
//! speedup against its predecessor. This module measures the aggregation hot
//! path — dense fold, decode-then-fold, fused decode-fold, in-place decode,
//! codec encode (plain and with error feedback), the top-k wire-contract
//! parse, and one-at-a-time versus cache-blocked batch folding — at the
//! ResNet-18/34/152 parameter counts and produces a schema-versioned JSON
//! report (`BENCH_aggregation.json` at the repo root) that is committed, so
//! this and every future perf PR has a before/after record.
//!
//! Regenerate with `just bench-baseline`; CI runs the `--quick` mode and
//! validates the committed file's schema (`just bench-baseline-check`).

use lifl_fl::aggregate::{CumulativeFedAvg, ModelUpdate};
use lifl_fl::codec::{EncodedView, ErrorFeedback, UpdateCodec};
use lifl_fl::{kernels, DenseModel};
use lifl_types::{ClientId, CodecKind, ModelKind};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Schema tag of the persisted report; bump when entry names or fields
/// change so CI flags a stale committed baseline. v2 added the
/// `encode/uniform4`, `encode/topk50` and `decode_into/uniform4` entries
/// alongside the SIMD kernel layer; v3 added `feedback_encode/uniform8|4`
/// and the `feedback_over_encode_uniform8_resnet18` cost ratio with the
/// fused error-feedback encoder; v4 re-based `sharded_fold/N` on the
/// station's fold (identity views through `fold_encoded_batch`) when the
/// dense `ModelUpdate` batch fold was deleted; v5 added `parse_topk`, the
/// wire-contract check of `EncodedView::parse` over a 5 % top-k wire; v6
/// folded `sharded_fold/{2,4,8}` into one `batch_fold` row when the batch
/// fold stopped starting threads (the three rows timed the same code).
pub const SCHEMA: &str = "lifl.bench.aggregation/v6";

/// Updates per batch in the one-at-a-time versus batch comparison.
pub const BATCH_UPDATES: usize = 8;

/// One measured benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Stable benchmark name, e.g. `fused_fold/uniform8`.
    pub name: String,
    /// Workload model label, e.g. `ResNet-18`.
    pub model: String,
    /// Parameter count of the workload model.
    pub params: u64,
    /// Timed iterations the median is taken over.
    pub iters: u64,
    /// Median wall-clock nanoseconds per iteration.
    pub median_ns: u64,
    /// Dense-equivalent payload bytes processed per iteration (`4 * params`
    /// per update touched), the common denominator across representations —
    /// except `parse_topk`, which counts the wire bytes it scans.
    pub bytes_per_iter: u64,
    /// Derived throughput in (dense-equivalent) GB/s.
    pub gb_per_s: f64,
}

/// A named ratio derived from two entries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DerivedRatio {
    /// Stable ratio name, `<numerator>_over_<denominator>_…`.
    pub name: String,
    /// For the `fused_…` and `batch_…` ratios a speedup factor (>1 means the
    /// optimised path is faster); for `feedback_over_encode_…` a cost factor
    /// — time of an error-feedback encode over a plain one, target ≤ 1.35:
    /// the add sweep is all feedback should cost.
    pub ratio: f64,
}

/// The whole persisted report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineReport {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// `"full"` or `"quick"`.
    pub mode: String,
    /// Updates per batch in the batch-fold benchmarks.
    pub batch_updates: u64,
    /// Every measured benchmark.
    pub entries: Vec<BenchEntry>,
    /// Headline speedups (fused vs decode-then-fold, batch vs one at a time).
    pub derived: Vec<DerivedRatio>,
}

impl BaselineReport {
    /// Looks up an entry's median by `(name, model)`.
    pub fn median_ns(&self, name: &str, model: &str) -> Option<u64> {
        self.entries
            .iter()
            .find(|e| e.name == name && e.model == model)
            .map(|e| e.median_ns)
    }

    /// Looks up a derived ratio by name.
    pub fn ratio(&self, name: &str) -> Option<f64> {
        self.derived
            .iter()
            .find(|d| d.name == name)
            .map(|d| d.ratio)
    }
}

/// The stable benchmark names every report must contain (per model).
pub fn required_entry_names() -> Vec<String> {
    [
        "fold_dense",
        "decode_then_fold/uniform8",
        "fused_fold/uniform8",
        "fused_fold/uniform4",
        "fused_fold/topk50",
        "decode_into/uniform8",
        "decode_into/uniform4",
        "encode/uniform8",
        "encode/uniform4",
        "encode/topk50",
        "feedback_encode/uniform8",
        "feedback_encode/uniform4",
        "parse_topk",
        "sequential_batch_fold",
        "batch_fold",
    ]
    .iter()
    .map(|n| n.to_string())
    .collect()
}

/// The derived-ratio names every report must contain.
pub fn required_ratio_names() -> Vec<&'static str> {
    vec![
        "fused_over_decode_then_fold_uniform8_resnet18",
        "fused_over_decode_then_fold_uniform8_resnet152",
        "batch_over_sequential_resnet152",
        "feedback_over_encode_uniform8_resnet18",
    ]
}

/// Validates a serialized report: parseable, current schema, and carrying
/// every required entry and ratio for every workload model.
///
/// # Errors
/// Returns a human-readable description of the first problem found.
pub fn check_report(json: &str) -> Result<BaselineReport, String> {
    let report: BaselineReport =
        serde_json::from_str(json).map_err(|e| format!("unparseable baseline report: {e:?}"))?;
    if report.schema != SCHEMA {
        return Err(format!(
            "stale baseline schema {:?} (current is {SCHEMA:?}); regenerate with `just bench-baseline`",
            report.schema
        ));
    }
    for model in ModelKind::paper_models() {
        for name in required_entry_names() {
            if report.median_ns(&name, &model.to_string()).is_none() {
                return Err(format!("missing entry {name:?} for {model}"));
            }
        }
    }
    for name in required_ratio_names() {
        if report.ratio(name).is_none() {
            return Err(format!("missing derived ratio {name:?}"));
        }
    }
    Ok(report)
}

/// Median wall-clock nanoseconds of `iters` runs of `op` (after one untimed
/// warm-up run).
fn median_ns_of(iters: u64, mut op: impl FnMut()) -> u64 {
    op();
    let mut samples: Vec<u64> = (0..iters.max(1))
        .map(|_| {
            let start = Instant::now();
            op();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2].max(1)
}

/// Deterministic pseudo-update for benchmarking (values in roughly ±1).
fn bench_update(dim: usize, salt: usize) -> Vec<f32> {
    (0..dim)
        .map(|d| (((d * 31 + salt * 17) % 251) as f32) * 0.008 - 1.0)
        .collect()
}

struct Recorder {
    entries: Vec<BenchEntry>,
    iters: u64,
}

impl Recorder {
    fn record(&mut self, name: &str, model: ModelKind, updates_touched: u64, op: impl FnMut()) {
        let bytes = updates_touched * model.parameters() * 4;
        self.record_bytes(name, model, bytes, op);
    }

    /// [`Recorder::record`] with the bytes one iteration processes given.
    fn record_bytes(&mut self, name: &str, model: ModelKind, bytes: u64, op: impl FnMut()) {
        let median = median_ns_of(self.iters, op);
        self.entries.push(BenchEntry {
            name: name.to_string(),
            model: model.to_string(),
            params: model.parameters(),
            iters: self.iters,
            median_ns: median,
            bytes_per_iter: bytes,
            gb_per_s: bytes as f64 / median as f64,
        });
        let last = self.entries.last().expect("just pushed");
        eprintln!(
            "  {:28} {:>12} ns/iter  {:>7.2} GB/s",
            format!("{}@{}", last.name, last.model),
            last.median_ns,
            last.gb_per_s
        );
    }
}

/// Runs the whole baseline suite. `quick` bounds iterations for CI smoke
/// coverage; the committed baseline should come from a full run.
pub fn run(quick: bool) -> BaselineReport {
    let iters = if quick { 2 } else { 11 };
    let mut rec = Recorder {
        entries: Vec::new(),
        iters,
    };
    for model in ModelKind::paper_models() {
        let dim = model.parameters() as usize;
        eprintln!("{model} ({dim} params):");
        let dense = DenseModel::from_vec(bench_update(dim, 0));
        let update = ModelUpdate::from_client(ClientId::new(0), dense.clone(), 3);
        let mut codec8 = UpdateCodec::new(CodecKind::Uniform8);
        let encoded8 = codec8.encode(&dense);
        let mut codec4 = UpdateCodec::new(CodecKind::Uniform4);
        let encoded4 = codec4.encode(&dense);
        let mut codec_topk = UpdateCodec::new(CodecKind::TopK { permille: 50 });
        let topk = codec_topk.encode(&dense);

        let mut acc = CumulativeFedAvg::new(dim);
        rec.record("fold_dense", model, 1, || {
            acc.fold(&update).expect("fold");
        });

        let mut acc = CumulativeFedAvg::new(dim);
        rec.record("decode_then_fold/uniform8", model, 1, || {
            // The pre-tentpole interior-aggregator path: materialise a dense
            // intermediate, then axpy it in.
            let decoded = encoded8.decode();
            acc.fold(&ModelUpdate::intermediate(decoded, 3))
                .expect("fold");
        });

        for (name, enc) in [
            ("fused_fold/uniform8", &encoded8),
            ("fused_fold/uniform4", &encoded4),
            ("fused_fold/topk50", &topk),
        ] {
            let mut acc = CumulativeFedAvg::new(dim);
            rec.record(name, model, 1, || {
                acc.fold_encoded(enc, 3).expect("fold_encoded");
            });
        }

        let mut scratch = vec![0.0f32; dim];
        rec.record("decode_into/uniform8", model, 1, || {
            encoded8.decode_into(&mut scratch).expect("decode_into");
        });
        rec.record("decode_into/uniform4", model, 1, || {
            encoded4.decode_into(&mut scratch).expect("decode_into");
        });

        rec.record("encode/uniform8", model, 1, || {
            let out = codec8.encode(&dense);
            codec8.recycle(out);
        });
        rec.record("encode/uniform4", model, 1, || {
            let out = codec4.encode(&dense);
            codec4.recycle(out);
        });
        rec.record("encode/topk50", model, 1, || {
            let out = codec_topk.encode(&dense);
            codec_topk.recycle(out);
        });
        // One client, residual warm (the recorder's untimed first run
        // installs it): every timed encode is add + fused quantize.
        for (name, kind) in [
            ("feedback_encode/uniform8", CodecKind::Uniform8),
            ("feedback_encode/uniform4", CodecKind::Uniform4),
        ] {
            let mut feedback = ErrorFeedback::new(UpdateCodec::new(kind));
            rec.record(name, model, 1, || {
                let out = feedback.encode(ClientId::new(0), &dense).expect("encode");
                feedback.recycle(out);
            });
        }
        // The wire contract's cost: every pair's index checked, at the wire
        // bytes the scan reads.
        let topk_wire = topk.wire();
        rec.record_bytes("parse_topk", model, topk_wire.len() as u64, || {
            std::hint::black_box(EncodedView::parse(std::hint::black_box(topk_wire)))
                .expect("parse");
        });

        let batch: Vec<ModelUpdate> = (0..BATCH_UPDATES)
            .map(|i| {
                ModelUpdate::from_client(
                    ClientId::new(i as u64),
                    DenseModel::from_vec(bench_update(dim, i + 1)),
                    (i + 1) as u64,
                )
            })
            .collect();
        let mut acc = CumulativeFedAvg::new(dim);
        rec.record("sequential_batch_fold", model, BATCH_UPDATES as u64, || {
            for u in &batch {
                acc.fold(u).expect("fold");
            }
        });
        // The station's fold: the same batch as identity views over its
        // little-endian bytes, through the one batch fold the engine runs.
        let views: Vec<_> = batch
            .iter()
            .map(|u| {
                let bytes = kernels::le_bytes(u.model.as_slice());
                (EncodedView::identity_over(bytes), u.samples)
            })
            .collect();
        let mut acc = CumulativeFedAvg::new(dim);
        rec.record("batch_fold", model, BATCH_UPDATES as u64, || {
            acc.fold_encoded_batch(&views).expect("fold");
        });
    }

    let report_ns = |entries: &[BenchEntry], name: &str, model: ModelKind| -> f64 {
        entries
            .iter()
            .find(|e| e.name == name && e.model == model.to_string())
            .map(|e| e.median_ns as f64)
            .expect("entry recorded above")
    };
    let derived = vec![
        DerivedRatio {
            name: "fused_over_decode_then_fold_uniform8_resnet18".to_string(),
            ratio: report_ns(
                &rec.entries,
                "decode_then_fold/uniform8",
                ModelKind::ResNet18,
            ) / report_ns(&rec.entries, "fused_fold/uniform8", ModelKind::ResNet18),
        },
        DerivedRatio {
            name: "fused_over_decode_then_fold_uniform8_resnet152".to_string(),
            ratio: report_ns(
                &rec.entries,
                "decode_then_fold/uniform8",
                ModelKind::ResNet152,
            ) / report_ns(&rec.entries, "fused_fold/uniform8", ModelKind::ResNet152),
        },
        DerivedRatio {
            name: "batch_over_sequential_resnet152".to_string(),
            ratio: report_ns(&rec.entries, "sequential_batch_fold", ModelKind::ResNet152)
                / report_ns(&rec.entries, "batch_fold", ModelKind::ResNet152),
        },
        DerivedRatio {
            name: "feedback_over_encode_uniform8_resnet18".to_string(),
            ratio: report_ns(
                &rec.entries,
                "feedback_encode/uniform8",
                ModelKind::ResNet18,
            ) / report_ns(&rec.entries, "encode/uniform8", ModelKind::ResNet18),
        },
    ];
    BaselineReport {
        schema: SCHEMA.to_string(),
        mode: if quick { "quick" } else { "full" }.to_string(),
        batch_updates: BATCH_UPDATES as u64,
        entries: rec.entries,
        derived,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> BaselineReport {
        // A structurally complete report with fabricated numbers, for schema
        // tests (running the real suite at ResNet dims is far too slow here).
        let mut entries = Vec::new();
        for model in ModelKind::paper_models() {
            for name in required_entry_names() {
                entries.push(BenchEntry {
                    name,
                    model: model.to_string(),
                    params: model.parameters(),
                    iters: 1,
                    median_ns: 100,
                    bytes_per_iter: model.parameters() * 4,
                    gb_per_s: 1.0,
                });
            }
        }
        BaselineReport {
            schema: SCHEMA.to_string(),
            mode: "quick".to_string(),
            batch_updates: BATCH_UPDATES as u64,
            entries,
            derived: required_ratio_names()
                .into_iter()
                .map(|name| DerivedRatio {
                    name: name.to_string(),
                    ratio: 2.0,
                })
                .collect(),
        }
    }

    #[test]
    fn report_roundtrips_and_passes_check() {
        let report = tiny_report();
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back = check_report(&json).expect("valid report");
        assert_eq!(back, report);
        assert_eq!(back.ratio("batch_over_sequential_resnet152"), Some(2.0));
        assert_eq!(back.median_ns("fold_dense", "ResNet-18"), Some(100));
    }

    #[test]
    fn stale_schema_is_rejected() {
        for stale in ["lifl.bench.aggregation/v0", "lifl.bench.aggregation/v5"] {
            let mut report = tiny_report();
            report.schema = stale.to_string();
            let json = serde_json::to_string(&report).unwrap();
            let err = check_report(&json).unwrap_err();
            assert!(err.contains("stale"), "{err}");
        }
    }

    #[test]
    fn missing_entries_are_rejected() {
        let mut report = tiny_report();
        report.entries.retain(|e| e.name != "batch_fold");
        let json = serde_json::to_string(&report).unwrap();
        assert!(check_report(&json).is_err());
        let mut report = tiny_report();
        report.derived.clear();
        let json = serde_json::to_string(&report).unwrap();
        assert!(check_report(&json).is_err());
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(check_report("not json").is_err());
    }

    #[test]
    fn median_is_order_insensitive_and_positive() {
        let mut calls = 0u64;
        let ns = median_ns_of(3, || calls += 1);
        assert!(ns >= 1);
        assert_eq!(calls, 4, "one warm-up plus three timed runs");
    }
}
