//! Seeded decoder fuzzing: byte mutations of each JSON document read from
//! disk or a socket, fed to its parser. Every case must return `Ok` or a
//! typed error; a panic fails the test and a stack overflow aborts it.

use crate::recovery_cmd::parse_plan;
use reram_exec::Journal;
use reram_experiments::trace_report::parse_span;
use reram_fault::FaultPlan;
use reram_obs::Json;
use reram_workloads::Rng64;

#[test]
fn seeded_mutations_of_every_decoder_return_ok_or_a_typed_error() {
    let path = std::env::temp_dir().join("reram_decoder_fuzz/journal.jsonl");
    let _unused = std::fs::remove_file(&path);
    Journal::open(&path)
        .expect("journal")
        .record_done("fig19/1", "a\t\"b\u{7}");
    let record = std::fs::read_to_string(&path).expect("journal record");
    let span = "{\"trace\":9007199254740993,\"span\":7,\"parent\":3,\"stage\":\"server.queue\",\
                \"start_ns\":1000,\"end_ns\":5500,\"detail\":2}";
    let stats = "{\"shards\":[{\"queued\":3,\"window\":16,\"sim_ms\":0.125}],\"service\":\
                 {\"busy\":9},\"cluster\":{\"role\":\"leader\",\"term\":2,\"lag\":0}}";
    let fault_plan = include_str!("../../../ci/fault_plan.json");
    let crash_plan = include_str!("../../../ci/crash_plan.json");
    let decode = |doc: usize, t: &str| match doc {
        0 => FaultPlan::parse_json(t).is_ok(),
        1 => parse_plan(t).is_ok(),
        2 => {
            std::fs::write(&path, t).expect("write case");
            let j = Journal::open(&path).expect("damage is quarantined, never an error");
            j.quarantined().is_empty()
        }
        3 => parse_span(t).is_some(),
        _ => Json::parse(t).is_ok(),
    };
    let mut rng = Rng64::new(0x5EED_F022);
    let docs = [fault_plan, crash_plan, &record, span, stats];
    for (i, doc) in docs.into_iter().enumerate() {
        assert!(decode(i, doc), "the unmutated document decodes: {doc}");
        let mut rejected = 0;
        for _ in 0..1000 {
            // One to four edits — insert, truncate, delete or overwrite —
            // of grammar tokens half the time and random bytes otherwise.
            let mut b = doc.as_bytes().to_vec();
            for _ in 0..=rng.gen_u64_below(4) {
                let at = rng.gen_range_usize(0, b.len() + 1);
                let tokens = b"{}[]\":,\\-.0123456789eu \n";
                let byte = (tokens.get(rng.gen_range_usize(0, 2 * tokens.len())))
                    .map_or(rng.next_u64() as u8, |&t| t);
                match (rng.gen_u64_below(4), at < b.len()) {
                    (0, _) => b.insert(at, byte),
                    (1, _) => b.truncate(at),
                    (2, true) => drop(b.remove(at)),
                    (_, true) => b[at] = byte,
                    _ => {}
                }
            }
            rejected += usize::from(!decode(i, &String::from_utf8_lossy(&b)));
        }
        assert!(rejected > 250, "{rejected} of 1000 rejected: {doc}");
    }
}
