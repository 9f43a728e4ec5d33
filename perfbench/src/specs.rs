//! Workloads, their request pools, the seeded request order, and the
//! checked-in table of expected outputs.
//!
//! A request is one `miniperf` argv. Two placeholders stand for files
//! the benchmark owns: `{fresh}` is a journal path deleted before each
//! request, `{done}` a journal completed during set-up. Every request's
//! stdout body (the text after its `config:` line) must equal the
//! table entry named by its `expect` key: a batch request's own argv,
//! and for a `submit` the batch command it must reproduce.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RooflineCold,
    BatchMix,
    ServeWarm,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "roofline-cold" => Some(Workload::RooflineCold),
            "batch-mix" => Some(Workload::BatchMix),
            "serve-warm" => Some(Workload::ServeWarm),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::RooflineCold => "roofline-cold",
            Workload::BatchMix => "batch-mix",
            Workload::ServeWarm => "serve-warm",
        }
    }

    /// Closed-loop clients issuing requests concurrently.
    pub fn clients(self) -> usize {
        match self {
            Workload::ServeWarm => 2,
            _ => 1,
        }
    }

    /// Whole decks the traced run replays: a fixed list, so its counts
    /// repeat exactly from run to run.
    pub fn trace_decks(self) -> usize {
        match self {
            Workload::RooflineCold => 2,
            Workload::BatchMix => 4,
            Workload::ServeWarm => 1,
        }
    }
}

/// One request of a pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    /// `miniperf` arguments (program name stripped), with placeholders.
    pub argv: Vec<String>,
    /// The expected-table key whose body this request must print.
    pub expect: String,
}

impl Spec {
    fn batch(cmd: &str) -> Spec {
        Spec {
            argv: words(cmd),
            expect: cmd.to_string(),
        }
    }

    fn served(cmd: &str, expect: &str) -> Spec {
        Spec {
            argv: words(&format!("submit {cmd}")),
            expect: expect.to_string(),
        }
    }

    pub fn is_submit(&self) -> bool {
        self.argv.first().is_some_and(|w| w == "submit")
    }
}

fn words(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_string).collect()
}

const PLATFORMS: [&str; 4] = ["x60", "c910", "u74", "i5"];
/// `record` platforms: the U74 has no sampling PMU.
const SAMPLING_PLATFORMS: [&str; 3] = ["x60", "c910", "i5"];
const PERIODS: [u64; 3] = [1_000, 10_000, 100_000];

const RESUME_J1: &str = "sweep --jobs 1 --journal {done} --resume";
const RESUME_J2: &str = "sweep --jobs 2 --journal {done} --resume";

/// The deck of requests one client cycles through.
pub fn pool(w: Workload) -> Vec<Spec> {
    match w {
        Workload::RooflineCold => PLATFORMS
            .iter()
            .flat_map(|p| {
                (1..=2).map(move |j| Spec::batch(&format!("roofline --platform {p} --jobs {j}")))
            })
            .collect(),
        Workload::BatchMix => {
            let mut v: Vec<Spec> = SAMPLING_PLATFORMS
                .iter()
                .flat_map(|p| {
                    PERIODS.iter().map(move |n| {
                        Spec::batch(&format!("record --platform {p} --period {n} --jobs 1"))
                    })
                })
                .collect();
            v.extend(
                PLATFORMS
                    .iter()
                    .map(|p| Spec::batch(&format!("stat --platform {p} --jobs 1"))),
            );
            v.extend(
                [
                    "sweep --jobs 1",
                    "sweep --jobs 2",
                    "sweep --jobs 1 --journal {fresh}",
                    RESUME_J2,
                    "sweep --shards 2 --jobs 1",
                ]
                .map(Spec::batch),
            );
            v
        }
        Workload::ServeWarm => {
            let mut v = Vec::new();
            for (p, n) in SAMPLING_PLATFORMS.iter().zip(PERIODS) {
                let cmd = format!("record --platform {p} --period {n} --jobs 1");
                v.push(Spec::served(&cmd, &cmd));
            }
            for p in PLATFORMS {
                let cmd = format!("stat --platform {p} --jobs 1");
                v.push(Spec::served(&cmd, &cmd));
            }
            for (p, j) in PLATFORMS.iter().zip([1, 2, 1, 2]) {
                let cmd = format!("roofline --platform {p} --jobs {j}");
                v.push(Spec::served(&cmd, &cmd));
            }
            // Half of the sweeps carry a job key: after the warm-up pass
            // the daemon resumes them from its journal, so they must print
            // what a batch resume over a complete journal prints.
            v.push(Spec::served("sweep --jobs 1", "sweep --jobs 1"));
            v.push(Spec::served("sweep --jobs 2", "sweep --jobs 2"));
            v.push(Spec::served("sweep --jobs 1 --job-key k1", RESUME_J1));
            v.push(Spec::served("sweep --jobs 2 --job-key k2", RESUME_J2));
            v
        }
    }
}

/// The untimed requests of one set-up pass of a batch workload.
pub fn warmup(w: Workload) -> Vec<Spec> {
    match w {
        Workload::RooflineCold => vec![Spec::batch("roofline --platform x60 --jobs 1")],
        Workload::BatchMix => vec![
            // Completes the journal the resume requests read.
            Spec {
                argv: words("sweep --jobs 1 --journal {done}"),
                expect: "sweep --jobs 1 --journal {fresh}".into(),
            },
            Spec::batch("record --platform x60 --period 10000 --jobs 1"),
            Spec::batch("stat --platform x60 --jobs 1"),
        ],
        // The daemon's warm-up is one pass over its pool. A keyed sweep
        // runs fresh the first time its key is seen.
        Workload::ServeWarm => pool(w)
            .into_iter()
            .map(|mut s| {
                if let Some(fresh) = s.expect.strip_suffix(" --journal {done} --resume") {
                    s.expect = fresh.to_string();
                }
                s
            })
            .collect(),
    }
}

/// Every key the expected table must hold, in table order.
pub fn table_keys() -> Vec<String> {
    let mut keys: Vec<String> = [
        Workload::RooflineCold,
        Workload::BatchMix,
        Workload::ServeWarm,
    ]
    .into_iter()
    .flat_map(|w| pool(w).into_iter().chain(warmup(w)))
    .map(|s| s.expect)
    .collect();
    keys.sort();
    keys.dedup();
    keys
}

/// SplitMix64: a tiny seeded generator, enough for shuffling decks.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Client `client`'s request order: back-to-back shuffled copies of
/// the pool, so every seed gives every client the same mix of work and
/// only the order differs.
pub struct Sequence {
    pool: Vec<Spec>,
    deck: Vec<usize>,
    rng: Rng,
}

impl Sequence {
    pub fn new(w: Workload, seed: u64, client: usize) -> Sequence {
        Sequence {
            pool: pool(w),
            deck: Vec::new(),
            rng: Rng::new(seed, client as u64 + 1),
        }
    }
}

impl Iterator for Sequence {
    type Item = Spec;

    fn next(&mut self) -> Option<Spec> {
        if self.deck.is_empty() {
            self.deck = (0..self.pool.len()).collect();
            // Fisher-Yates; popping from the back deals the deck.
            for i in (1..self.deck.len()).rev() {
                let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
                self.deck.swap(i, j);
            }
        }
        self.deck.pop().map(|i| self.pool[i].clone())
    }
}

/// The traced run's request list: the first `trace_decks` decks of
/// every client, interleaved client by client.
pub fn trace_list(w: Workload, seed: u64) -> Vec<Spec> {
    let deck = pool(w).len();
    let mut seqs: Vec<Sequence> = (0..w.clients())
        .map(|c| Sequence::new(w, seed, c))
        .collect();
    let mut out = Vec::new();
    for _ in 0..w.trace_decks() * deck {
        for s in &mut seqs {
            out.extend(s.next());
        }
    }
    out
}

/// One expected output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub exit: i32,
    pub body: String,
}

/// The checked-in table (`perfbench/expected.txt`), compiled in.
pub const TABLE: &str = include_str!("../expected.txt");

const HEADER: &str = "### ";

/// Parse the table: an optional `#` preamble, then per entry a
/// `### <key>` line, a `### exit <code>` line, and the body verbatim.
pub fn parse_table(text: &str) -> Result<BTreeMap<String, Expected>, String> {
    let mut out = BTreeMap::new();
    let mut lines = text.split_inclusive('\n').peekable();
    while lines.peek().is_some_and(|l| !l.starts_with(HEADER)) {
        let l = lines.next().expect("peeked");
        if !l.starts_with('#') && !l.trim().is_empty() {
            return Err(format!(
                "expected table: stray line before the first entry: {l:?}"
            ));
        }
    }
    while let Some(head) = lines.next() {
        let key = head
            .strip_prefix(HEADER)
            .ok_or_else(|| format!("expected table: bad header {head:?}"))?
            .trim_end()
            .to_string();
        let exit = lines
            .next()
            .and_then(|l| l.strip_prefix("### exit "))
            .and_then(|c| c.trim_end().parse().ok())
            .ok_or_else(|| format!("expected table: entry {key:?} lacks an exit line"))?;
        let mut body = String::new();
        while let Some(l) = lines.next_if(|l| !l.starts_with(HEADER)) {
            body.push_str(l);
        }
        if out.insert(key.clone(), Expected { exit, body }).is_some() {
            return Err(format!("expected table: duplicate entry {key:?}"));
        }
    }
    Ok(out)
}

/// Render a table in the format [`parse_table`] reads.
pub fn render_table(entries: &BTreeMap<String, Expected>) -> String {
    let mut out = String::from(
        "# Expected stdout body (everything after the `config:` line) and exit\n\
         # code of every request the benchmark issues, keyed by the batch\n\
         # command line. Generated with `--engine reference` and cross-checked\n\
         # against the default engine by `bash perfbench/run.sh --regen-expected`.\n",
    );
    for (key, e) in entries {
        out.push_str(&format!("{HEADER}{key}\n### exit {}\n{}", e.exit, e.body));
    }
    out
}

/// Split captured stdout into its `config:` header and the body.
pub fn body_of(stdout: &str) -> Option<&str> {
    let (head, body) = stdout.split_once('\n')?;
    head.starts_with("config: ").then_some(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrips_and_holds_every_key() {
        let table = parse_table(TABLE).expect("checked-in table parses");
        assert_eq!(parse_table(&render_table(&table)).unwrap(), table);
        for key in table_keys() {
            assert!(table.contains_key(&key), "missing {key}");
        }
    }

    #[test]
    fn sequences_deal_whole_decks_and_depend_on_the_seed() {
        let deck = pool(Workload::BatchMix).len();
        let a: Vec<Spec> = Sequence::new(Workload::BatchMix, 7, 0).take(deck).collect();
        let mut keys: Vec<&str> = a.iter().map(|s| s.expect.as_str()).collect();
        keys.sort();
        let mut want: Vec<String> = pool(Workload::BatchMix)
            .into_iter()
            .map(|s| s.expect)
            .collect();
        want.sort();
        assert_eq!(keys, want);
        let b: Vec<Spec> = Sequence::new(Workload::BatchMix, 8, 0).take(deck).collect();
        assert_ne!(a, b);
        assert_eq!(
            a,
            Sequence::new(Workload::BatchMix, 7, 0)
                .take(deck)
                .collect::<Vec<_>>()
        );
    }
}
