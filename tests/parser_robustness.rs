//! Property tests: the JSON and exposition readers return `Ok` or `Err`
//! on any input and never panic or abort.
//!
//! `pit_top` and `trace_explain --check` run both readers on HTTP bodies
//! from whatever endpoint they are given, so hostile bytes must come back
//! as an error. The inputs are the committed baseline documents (the
//! deepest JSON the workspace writes, and its expositions) mutated byte
//! by byte, plus random byte streams biased towards the structural
//! characters both grammars branch on. Any panic fails the property; a
//! stack overflow aborts the test binary.

use pit::trace::{parse_exposition, JsonValue};
use proptest::prelude::*;

/// Valid documents to mutate, each flagged `true` for JSON and `false`
/// for an exposition.
const CORPUS: [(&str, bool); 6] = [
    (include_str!("../bench/baselines/BENCH_decode.json"), true),
    (include_str!("../bench/baselines/BENCH_sparse.json"), true),
    (
        r#"{"s":"a\"b\\c\/\n\t\u00e9 ü","n":[-1.5e-3,0,1E9,true,false,null],"o":{"p":[[],{}]}}"#,
        true,
    ),
    (include_str!("../bench/baselines/METRICS_decode.prom"), false),
    (include_str!("../bench/baselines/METRICS_swap.prom"), false),
    (
        "# HELP x_seconds a \\\\ b \\n c\n# TYPE x_seconds summary\nx_seconds{quantile=\"0.5\",l=\"a\\\"b\"} 0.25\nx_seconds_sum 1.5\nx_seconds_count 6\n",
        false,
    ),
];

/// Openers that nest one level deeper each time they repeat.
const NESTERS: [&str; 3] = ["[", "{\"a\":", "[{\"a\":"];

/// Bytes both grammars branch on, drawn more often than uniform bytes.
const STRUCTURAL: &[u8] = b"{}[]\",:\\/ \n\t0123456789.-+eEtrufalsn#{}=_xu";

/// SplitMix64: the mutator's source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A byte, structural half the time and uniform otherwise.
    fn byte(&mut self) -> u8 {
        if self.below(2) == 0 {
            STRUCTURAL[self.below(STRUCTURAL.len())]
        } else {
            self.next() as u8
        }
    }
}

/// Applies `edits` random edits to `doc`: overwrite, insert or delete a
/// byte, copy a slice of the document elsewhere, open up to 100,000
/// nested arrays or objects, or truncate.
fn mutate(rng: &mut Rng, doc: &[u8], edits: usize) -> Vec<u8> {
    let mut out = doc.to_vec();
    for _ in 0..edits {
        let at = rng.below(out.len() + 1);
        match rng.below(6) {
            0 if at < out.len() => out[at] = rng.byte(),
            1 => {
                let byte = rng.byte();
                out.insert(at, byte);
            }
            2 if at < out.len() => {
                let end = (at + 1 + rng.below(16)).min(out.len());
                out.drain(at..end);
            }
            3 if !out.is_empty() => {
                let from = rng.below(out.len());
                let end = (from + 1 + rng.below(64)).min(out.len());
                let slice = out[from..end].to_vec();
                out.splice(at..at, slice);
            }
            4 => {
                let nest = NESTERS[rng.below(NESTERS.len())].repeat(1 + rng.below(100_000));
                out.splice(at..at, nest.bytes());
            }
            _ => out.truncate(at),
        }
    }
    out
}

/// Feeds `bytes` to both readers; a panic fails the calling property.
fn parse_both(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = JsonValue::parse(&text);
    let _ = parse_exposition(&text);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_documents_never_panic(seed in 0u64..u64::MAX, doc in 0usize..CORPUS.len()) {
        let mut rng = Rng(seed);
        let original = CORPUS[doc].0.as_bytes();
        for edits in [1, 2, 4, 16] {
            parse_both(&mutate(&mut rng, original, edits));
        }
    }

    #[test]
    fn random_byte_streams_never_panic(seed in 0u64..u64::MAX, len in 0usize..512) {
        let mut rng = Rng(seed);
        let bytes: Vec<u8> = (0..len).map(|_| rng.byte()).collect();
        parse_both(&bytes);
    }
}

#[test]
fn the_corpus_parses() {
    for (doc, json) in CORPUS {
        if json {
            JsonValue::parse(doc).expect("corpus JSON parses");
        } else {
            parse_exposition(doc).expect("corpus exposition parses");
        }
    }
}
