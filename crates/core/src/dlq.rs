//! The per-tenant dead-letter queue: failed submissions parked for
//! inspection and redrive, durable through the snapshot journal.
//!
//! An entry carries the **whole compiled workflow** (every job plan,
//! the dependency edges, the inter-job temporaries), so a redrive
//! re-submits exactly the bytes that failed — no recompilation, no
//! dependence on the original query text surviving anywhere. Entries
//! serialize through the same line format the repository and
//! provenance tables use (plans via [`crate::plan_text`], strings
//! Rust-quoted):
//!
//! ```text
//! dead <id> <attempts> <tick>
//! error "<why the final attempt failed>"
//! tmp "/wf/q/tmp-0"
//! job -            (dependency list; `-` = none, else `0,2`)
//!   0 load "/data/pv"
//!   1 store "/out/q" <- 0
//! end
//! ```
//!
//! Durability composes with the journal exactly like repository
//! batches: a put appends a `dlq-put` record inside the queue's lock
//! (record order = application order), an ack appends `dlq-ack` with
//! the removed ids, and full dumps write a per-space `--dlq--` section
//! — so the queue survives crash-recovery, rides checkpoint
//! compaction, and ships to warm standbys with no extra machinery.
//! Entry ids are monotonic within a namespace (max + 1), which makes
//! replay idempotent: a re-applied put keys on its id, a re-applied
//! ack removes nothing twice.

use restore_common::{Error, Result};
use restore_dataflow::mr_compiler::CompiledJob;
use restore_dataflow::CompiledWorkflow;

/// One dead-lettered submission.
#[derive(Debug, Clone, PartialEq)]
pub struct DlqEntry {
    /// Namespace-local id (monotonic; assigned at put).
    pub id: u64,
    /// Execution attempts consumed before the submission was parked.
    pub attempts: u32,
    /// The driver tick current when the entry was parked — the
    /// session's logical clock, not wall time, so dumps stay
    /// deterministic.
    pub tick: u64,
    /// Why the final attempt failed.
    pub error: String,
    /// The compiled workflow, byte-exact for redrive.
    pub wf: CompiledWorkflow,
}

fn bad(msg: impl Into<String>) -> Error {
    Error::Other(format!("dlq entry: {}", msg.into()))
}

/// Serialize one entry onto `out` (see the module docs for the
/// grammar).
pub(crate) fn encode_entry_into(out: &mut String, e: &DlqEntry) {
    out.push_str(&format!("dead {} {} {}\n", e.id, e.attempts, e.tick));
    out.push_str(&format!("error {:?}\n", e.error));
    for t in &e.wf.tmp_paths {
        out.push_str(&format!("tmp {t:?}\n"));
    }
    for job in &e.wf.jobs {
        let deps = if job.deps.is_empty() {
            "-".to_string()
        } else {
            job.deps.iter().map(ToString::to_string).collect::<Vec<_>>().join(",")
        };
        out.push_str(&format!("job {deps}\n"));
        for line in crate::plan_text::encode_plan(&job.plan).lines() {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
        out.push_str("end\n");
    }
}

/// Unquote a `{:?}`-quoted string (the state codec's unquoter, with
/// the positional error rewritten as a plain dlq message).
fn unquote(s: &str, what: &str) -> Result<String> {
    crate::state::unquote(s, 0).map_err(|_| bad(format!("bad quoted {what} {s:?}")))
}

/// Parse the next `dead …` entry off the line iterator. Returns
/// `Ok(None)` — consuming nothing — when the next non-empty line does
/// not start an entry, so callers with mixed bodies can dispatch on
/// the leading keyword.
pub(crate) fn parse_entry_lines(
    lines: &mut std::iter::Peekable<std::str::Lines<'_>>,
) -> Result<Option<DlqEntry>> {
    let Some(head) = crate::state::next_keyword(lines, "dead ") else { return Ok(None) };
    let mut it = head.split(' ');
    let mut next_num = |what: &str| -> Result<u64> {
        it.next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad(format!("bad {what} in header {head:?}")))
    };
    let id = next_num("id")?;
    let attempts = next_num("attempts")? as u32;
    let tick = next_num("tick")?;
    if it.next().is_some() {
        return Err(bad(format!("trailing fields in header {head:?}")));
    }

    let err_line = lines.next().ok_or_else(|| bad("missing error line"))?;
    let quoted = err_line
        .strip_prefix("error ")
        .ok_or_else(|| bad(format!("expected 'error', got {err_line:?}")))?;
    let error = unquote(quoted, "error")?;

    let mut tmp_paths = Vec::new();
    while let Some(q) = crate::state::next_keyword(lines, "tmp ") {
        tmp_paths.push(unquote(q, "tmp path")?);
    }

    let mut jobs = Vec::new();
    while let Some(deps) = crate::state::next_keyword(lines, "job ") {
        let deps: Vec<usize> = if deps == "-" {
            Vec::new()
        } else {
            deps.split(',')
                .map(|d| d.parse().map_err(|_| bad(format!("bad job deps {deps:?}"))))
                .collect::<Result<_>>()?
        };
        let plan = crate::plan_text::read_plan_block(lines)
            .map_err(|e| bad(format!("in job plan: {e}")))?;
        jobs.push(CompiledJob { plan, deps });
    }
    for job in &jobs {
        if let Some(&d) = job.deps.iter().find(|&&d| d >= jobs.len()) {
            return Err(bad(format!("job dependency {d} out of range ({} jobs)", jobs.len())));
        }
    }
    Ok(Some(DlqEntry { id, attempts, tick, error, wf: CompiledWorkflow { jobs, tmp_paths } }))
}

/// Serialize a whole queue (entries in id order — the only order a
/// live queue ever holds).
pub(crate) fn save(entries: &[DlqEntry]) -> String {
    let mut out = String::new();
    for e in entries {
        encode_entry_into(&mut out, e);
    }
    out
}

/// Reload a queue serialized by [`save`].
pub(crate) fn load(text: &str) -> Result<Vec<DlqEntry>> {
    let mut entries = Vec::new();
    let mut lines = text.lines().peekable();
    while let Some(e) = parse_entry_lines(&mut lines)? {
        entries.push(e);
    }
    if let Some(line) = lines.next() {
        return Err(bad(format!("expected 'dead', got {line:?}")));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workflow() -> CompiledWorkflow {
        restore_dataflow::compile(
            "A = load '/data/pv' as (user, n:int);
             G = group A by user;
             R = foreach G generate group, SUM(A.n);
             store R into '/out/dlq';",
            "/wf/dlq",
        )
        .unwrap()
    }

    #[test]
    fn entry_round_trips_byte_identically() {
        let e = DlqEntry {
            id: 3,
            attempts: 4,
            tick: 17,
            error: "engine: node 2 \"exploded\"\nwith a newline".to_string(),
            wf: workflow(),
        };
        let text = save(std::slice::from_ref(&e));
        let back = load(&text).unwrap();
        assert_eq!(back, vec![e]);
        assert_eq!(save(&back), text, "canonical: re-encoding is byte-identical");
    }

    #[test]
    fn empty_queue_is_the_empty_string() {
        assert_eq!(save(&[]), "");
        assert_eq!(load("").unwrap(), Vec::new());
    }

    #[test]
    fn malformed_entries_are_typed_errors() {
        assert!(load("dead x 0 0\nerror \"e\"\n").is_err(), "bad id");
        assert!(load("dead 1 0 0\n").is_err(), "missing error line");
        assert!(load("dead 1 0 0\nerror \"e\"\njob -\n  0 load \"/p\"\n").is_err(), "missing end");
        assert!(
            load("dead 1 0 0\nerror \"e\"\njob 9\n  0 load \"/p\"\nend\n").is_err(),
            "dep range"
        );
        assert!(load("unexpected\n").is_err(), "junk line");
    }
}
