//! `cargo xtask check-docs` — every number the prose cites from a
//! committed record still rounds from it, and every `cargo xtask`
//! invocation the docs cite still exists.
//!
//! README, DESIGN and EXPERIMENTS cite figures from the committed
//! records (`BENCH_pipeline.json`, `REPRO_paper.json`). The records are
//! the source of truth, regenerated byte for byte in CI; this check
//! makes the prose follow them. The commands and flags an invocation
//! may name are read from `main.rs`'s usage text, so a command that
//! goes from the usage goes from the docs too.

use abm_spconv_repro::telemetry::json::{self, Value};
use std::path::Path;

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// The committed records the prose cites.
const RECORDS: &[&str] = &["BENCH_pipeline.json", "REPRO_paper.json"];

/// Every number the prose cites from a committed record: the document,
/// a base path, and a template the document must contain, in which each
/// `{key/…}` stands for one printed number that must round from the
/// record value at base/key/…. Whitespace runs match any whitespace, so
/// a citation may wrap. A path names the record, then one key a level;
/// inside an array a key picks the element whose first member equals
/// it; a `{"paper", "measured"}` cell reads as its measured value.
#[rustfmt::skip]
const DOC_CLAIMS: &[(&str, &str, &str)] = &[
    ("README.md", "BENCH_pipeline.json/networks", "VGG16 batch-8 gains only {vgg16/designs/streaming@nominal/speedup}× from overlap"),
    ("README.md", "BENCH_pipeline.json/networks", "reaches **{vgg16/best_speedup}×** (AlexNet batch-4: {alexnet/designs/streaming@nominal/speedup}× same-clock, {alexnet/best_speedup}× retimed"),
    ("DESIGN.md", "BENCH_pipeline.json/networks", "VGG16 batch-8 gains only {vgg16/designs/streaming@nominal/speedup}× (the partition"),
    ("DESIGN.md", "BENCH_pipeline.json/networks", "AlexNet batch-4 *loses* ({alexnet/designs/streaming@nominal/speedup}×)"),
    ("DESIGN.md", "BENCH_pipeline.json/networks", "VGG16 batch-8 reaches {vgg16/best_speedup}×; AlexNet {alexnet/best_speedup}×."),
    // EXPERIMENTS.md, Table 1.
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/layers/CONV1_1", "| CONV1_1 | SDConv | 173 | {sdconv_mop} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/layers/CONV1_1", "| CONV1_1 | SpConv | 100 | {spconv_mop} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/layers/CONV1_1", "| CONV1_1 | ABM Acc. | 50.3 | {abm_acc_mop} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/layers/CONV1_1", "| CONV1_1 | ABM Mult. | 12.1 | {abm_mult_mop} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/layers/CONV1_1", "| CONV1_1 | Acc/Mult | 4.1 | {acc_mult_ratio} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/layers/CONV1_2", "| CONV1_2 | Acc / Mult / ratio | 407 / 119 / 3.4 | {abm_acc_mop} / {abm_mult_mop} / {acc_mult_ratio} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/layers/CONV4_1", "| CONV4_1 | Acc / Mult / ratio | 296 / 9.23 / 32.0 | {abm_acc_mop} / {abm_mult_mop} / {acc_mult_ratio} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/layers/CONV4_2", "| CONV4_2 | Acc / Mult / ratio | 499 / 7.95 / 62.7 | {abm_acc_mop} / {abm_mult_mop} / {acc_mult_ratio} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/layers/FC6", "| FC6 | Acc / Mult / ratio | 4.11 / 0.037 / 111 | {abm_acc_mop} / {abm_mult_mop} / {acc_mult_ratio} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/layers/FC7", "| FC7 | Acc / Mult / ratio | 0.67 / 0.021 / 31.9 | {abm_acc_mop} / {abm_mult_mop} / {acc_mult_ratio} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/entire_cnn", "| Entire CNN | SDConv | 30,941 | {sdconv_mop} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/entire_cnn", "| Entire CNN | FDConv | 9,531 | {fdconv_mop} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/entire_cnn", "| Entire CNN | SpConv | 10,082 | {spconv_mop} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/entire_cnn", "| Entire CNN | ABM Acc. | 5,040 | {abm_acc_mop} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/entire_cnn", "| #OP saved vs SDConv | | 83.6% | {saved_vs_sdconv_pct}% |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/entire_cnn", "| — vs FDConv / SpConv | | 47.1% / 50% | {saved_vs_fdconv_pct}% / {saved_vs_spconv_pct}% |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/entire_cnn", "total of {fdconv_oaa_fft_mop} MOP — a {fdconv_oaa_fft_reduction}× whole-net reduction"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/entire_cnn", "not in the paper, totals {winograd_f2x2_3x3_mop} MOP."),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1", "ratio measures **{min_acc_mult_ratio}** (paper: 3.4, CONV1_2), driving the `N = {n}` selection"),
    // Table 2 and Section 6.2.
    ("EXPERIMENTS.md", "REPRO_paper.json/table2/baselines", "| [13] SDConv, GXA7 | AlexNet | 134.1 | (quoted) | {[13] AlexNet/gops_per_dsp} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table2/baselines", "| [3] FDConv, GXA7 | AlexNet | 663.5 | (quoted) | {[3] AlexNet/gops_per_dsp} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table2/baselines", "| [3] FDConv, GXA7 | VGG16 | 662.3 | (quoted) | {[3] VGG16/gops_per_dsp} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table2/proposed/AlexNet", "| **Proposed** | AlexNet | **699** | **{gops}** | 2.87 → {gops_per_dsp} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table2/proposed/VGG16", "| **Proposed** | VGG16 | **1029** | **{gops}** | 4.29 → {gops_per_dsp} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table2/proposed", "Speedup over [3] (VGG16): paper 1.55×, measured **{VGG16/speedup_over_ref3}×**"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table2/proposed", "Speedup over [3] (AlexNet): paper 1.054×, measured **{AlexNet/speedup_over_ref3}×**"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table2/resources", "by calibration): {alms} ALM ({alm_pct}%), {dsps} DSP ({dsp_pct}%), {m20ks} M20K ({m20k_pct}%)."),
    ("EXPERIMENTS.md", "REPRO_paper.json/table2/proposed", "measured **{VGG16/lane_efficiency_pct}% / {AlexNet/lane_efficiency_pct}%** (accumulator-lane efficiency"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table2", "**On the VGG16 gap ({proposed/VGG16/gops} vs 1029).** With {vgg16_run/accumulator_lanes} accumulator lanes"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table2", "(840 × {proposed/VGG16/lane_efficiency_pct}% × 204 MHz) = {vgg16_run/latency_ms} ms → {proposed/VGG16/gops} GOP/s)"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table1/layers/CONV1_2", "(CONV1_2's Acc/Mult ratio {acc_mult_ratio} < N = 4"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table2/vgg16_run/layers/CONV1_2", "CONV1_2 is multiplier-bound on {mult_bound_pct}% of its sweeps"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table2/proposed", "| VGG16 | 87% | {VGG16/lane_efficiency_pct}% |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table2/proposed", "| AlexNet | 81% | {AlexNet/lane_efficiency_pct}% |"),
    // Table 3.
    ("EXPERIMENTS.md", "REPRO_paper.json/table3/networks/AlexNet", "| AlexNet | 61 → {original_mb} | 11.9 → {encoded_mb} ({huffman_mb} with Huffman stage) |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table3/networks/VGG16", "| VGG16 | 138 → {original_mb} | 26.4 → {encoded_mb} ({huffman_mb} with Huffman stage) |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table3/networks", "Q-Table words) gives {AlexNet/encoded_mb}/{VGG16/encoded_mb} MB;"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table3/networks", "external-memory image gives {AlexNet/huffman_mb}/{VGG16/huffman_mb} MB."),
    ("EXPERIMENTS.md", "REPRO_paper.json/table3/networks", "measured {AlexNet/compression}×/{VGG16/compression}× raw, {AlexNet/huffman_compression}×/{VGG16/huffman_compression}× entropy-coded"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table3/networks", "The ABM encoding is {AlexNet/smaller_than_csr_pct}%/{VGG16/smaller_than_csr_pct}% smaller than the CSR format"),
    ("EXPERIMENTS.md", "REPRO_paper.json/table3/networks", "SpConv designs ({AlexNet/csr_mb}/{VGG16/csr_mb} MB;"),
    // Figure 1.
    ("EXPERIMENTS.md", "REPRO_paper.json/figure1", "| SDConv `2·Nmac·Freq` | 204.8 | {sdconv_roof_gops} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/figure1", "| FDConv/SpConv `2·Rmac·Nmac·Freq` | 675 | {fdconv_roof_gops} |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/figure1", "| ABM-SpConv `2·Nacc·Freq` | 1046 | {abm_roof_gops} (N_acc = {n_acc} lanes"),
    ("EXPERIMENTS.md", "REPRO_paper.json/figure1", "| Achieved point | 1029 | {achieved_gops} (simulated) |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/figure1", "the ABM roof sits {abm_roof_over_paper_pct}% above the paper's"),
    ("EXPERIMENTS.md", "REPRO_paper.json/figure1", "It is {abm_over_fdconv_roof}× the FDConv roof, for an op-reduction factor of {op_reduction}×."),
    // Figures 6 and 7.
    ("EXPERIMENTS.md", "REPRO_paper.json/figure6", "peaks at **{optimal_n_knl}** (paper implements **14**): {optimal_gops} GOP/s at {optimal_dsps} DSPs."),
    ("EXPERIMENTS.md", "REPRO_paper.json/figure6/points", "Across 12–15 the boost reads {12/boost} / {13/boost} / {14/boost} / {15/boost}:"),
    ("EXPERIMENTS.md", "REPRO_paper.json/figure7/top/1", "1. `S_ec={s_ec}, N_cu={n_cu}` — {gops} GOP/s (est.)"),
    ("EXPERIMENTS.md", "REPRO_paper.json/figure7/top/2", "2. `S_ec={s_ec}, N_cu={n_cu}` — {gops} GOP/s (est.)"),
    ("EXPERIMENTS.md", "REPRO_paper.json/figure7/top/3", "3. `S_ec={s_ec}, N_cu={n_cu}` — {gops} GOP/s (est.)"),
    ("EXPERIMENTS.md", "REPRO_paper.json/figure7", "ranks #{paper_point_rank} in our model, {paper_point_below_best_pct}% below the best ({top/2/gops} vs {top/1/gops} GOP/s;"),
    // Ablations and the precision study.
    ("EXPERIMENTS.md", "REPRO_paper.json/ablation/n", "N=1/2 need {1/dsps}/{2/dsps} DSPs"),
    ("EXPERIMENTS.md", "REPRO_paper.json/ablation", "N=4 fits at {n/4/dsps} DSP losing only {n4_loss_vs_n1_pct}% throughput vs N=1"),
    ("EXPERIMENTS.md", "REPRO_paper.json/ablation/n", "N=5/10 stall multipliers ({5/gops}/{10/gops} GOP/s)"),
    ("EXPERIMENTS.md", "REPRO_paper.json/ablation/fifo_depth", "**FIFO depth:** 1 → {1/gops} GOP/s, 4+ → {4/gops} GOP/s"),
    ("EXPERIMENTS.md", "REPRO_paper.json/ablation", "scheduling:** {scheduling/semi-synchronous/gops} vs {scheduling/lock-step/gops} GOP/s ({semi_sync_gain_pct}%), CU busy {scheduling/semi-synchronous/cu_busy_pct}% vs {scheduling/lock-step/cu_busy_pct}%"),
    ("EXPERIMENTS.md", "REPRO_paper.json/ablation", "kernel batching:** {kernel_order/sorted/gops} vs {kernel_order/unsorted/gops} GOP/s ({sorted_gain_pct}%)"),
    ("EXPERIMENTS.md", "REPRO_paper.json/precision/layers/CONV1_1/widths", "| CONV1_1 | lossless | lossless | {16/margin_bits} bits |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/precision/layers/CONV4_2/widths", "| CONV4_2 | {12/saturated} saturations, {12/diverged} diverged px | lossless | {16/margin_bits} bits |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/precision/layers/FC6/widths", "| FC6 | {12/saturated} saturations, {12/diverged} diverged px | lossless | {16/margin_bits} bits |"),
    ("EXPERIMENTS.md", "REPRO_paper.json/precision/layers", "realistic activations with {FC6/widths/16/margin_bits}–{CONV4_2/widths/16/margin_bits} bits of headroom"),
    // Figure 4 and the studies beyond the paper.
    ("EXPERIMENTS.md", "REPRO_paper.json/figure4", "resulting {accumulations}-accumulate / {multiplications}-multiply per-pixel cost vs {dense_macs} MACs."),
    ("EXPERIMENTS.md", "REPRO_paper.json/figure4", "takes a {wt_buffer_bytes} B WT-Buffer + a {q_table_bytes} B Q-Table = {encoded_bytes} B."),
    ("EXPERIMENTS.md", "REPRO_paper.json/sweep/prune", "(0% → 90% pruning: {0/levels/4/gops} → {0.9/levels/4/gops} GOP/s)"),
    ("EXPERIMENTS.md", "REPRO_paper.json/projection/flows/Arria-10 GX1150 VGG16/candidates/36", "projects ~{gops} GOP/s for VGG16 on the Arria-10 using {dsps} DSPs"),
    ("EXPERIMENTS.md", "REPRO_paper.json", "([4]: {table2/baselines/[4] VGG16/gops} GOP/s with {table2/baselines/[4] VGG16/dsps} DSPs) at ~{projection/flows/Arria-10 GX1150 VGG16/density_over_ref4}× its performance density"),
    ("EXPERIMENTS.md", "REPRO_paper.json/energy/networks", "ABM-SpConv spends {AlexNet/energy_ratio}× (AlexNet) / {VGG16/energy_ratio}× (VGG16) less energy"),
    ("EXPERIMENTS.md", "REPRO_paper.json/projection/flows/Stratix-V GXA7 VGG16/candidates", "`sim_vs_model_pct`: {32/sim_vs_model_pct} / {64/sim_vs_model_pct} / {20/sim_vs_model_pct}%;"),
];

/// The value at `path` (see [`DOC_CLAIMS`]) in the parsed `records`.
fn lookup(records: &[(&str, Value)], path: &str) -> Result<f64, String> {
    let mut keys = path.split('/');
    let file = keys.next().unwrap_or_default();
    let mut v = records
        .iter()
        .find(|(name, _)| *name == file)
        .map(|(_, v)| v)
        .ok_or(format!("{path}: no record '{file}'"))?;
    for key in keys {
        v = match v {
            Value::Arr(items) => items.iter().find(|item| first_member_is(item, key)),
            _ => v.get(key),
        }
        .ok_or(format!("{path}: no '{key}'"))?;
    }
    v.get("measured")
        .unwrap_or(v)
        .as_f64()
        .ok_or(format!("{path} is not a number"))
}

/// Whether the object `item`'s first member is the string or number `key`.
fn first_member_is(item: &Value, key: &str) -> bool {
    let Value::Obj(fields) = item else {
        return false;
    };
    match fields.first() {
        Some((_, Value::Str(s))) => s == key,
        Some((_, Value::Num(n))) => key.parse() == Ok(*n),
        _ => false,
    }
}

/// The byte length of the number `s` starts with: a sign, digits with
/// `,` thousands groups, a decimal part. Zero when it starts with none.
fn number_len(s: &str) -> usize {
    let sign = ["−", "+", "-"]
        .iter()
        .find(|sign| s.starts_with(**sign))
        .map_or(0, |sign| sign.len());
    let b = s.as_bytes();
    let digit = |i: usize| b.get(i).is_some_and(u8::is_ascii_digit);
    let mut i = sign;
    loop {
        match b.get(i) {
            Some(b'0'..=b'9') => i += 1,
            Some(b',') if (1..=3).all(|k| digit(i + k)) && !digit(i + 4) => i += 1,
            Some(b'.') if digit(i + 1) => i += 1,
            _ => break,
        }
    }
    if i == sign {
        0
    } else {
        i
    }
}

/// A template's literal text around its `{key/…}` holes, and the holes.
fn split_template(template: &str) -> (Vec<&str>, Vec<&str>) {
    let (mut literals, mut holes) = (Vec::new(), Vec::new());
    let mut rest = template;
    while let Some((literal, hole)) = rest.split_once('{') {
        let (hole, after) = hole.split_once('}').expect("every hole closes");
        literals.push(literal);
        holes.push(hole);
        rest = after;
    }
    literals.push(rest);
    (literals, holes)
}

/// The numbers `text` prints between `literals`, at the first place
/// they all match.
fn cited<'t>(text: &'t str, literals: &[&str]) -> Option<Vec<&'t str>> {
    text.match_indices(literals[0]).find_map(|(at, head)| {
        let mut rest = &text[at + head.len()..];
        let mut numbers = Vec::new();
        for literal in &literals[1..] {
            let len = number_len(rest);
            if len == 0 {
                return None;
            }
            numbers.push(&rest[..len]);
            rest = rest[len..].strip_prefix(literal)?;
        }
        Some(numbers)
    })
}

/// Every whitespace run as one space.
fn squash(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Entry point for `cargo xtask check-docs`.
///
/// # Errors
///
/// Returns a message on an unreadable record or document, or a stale
/// citation.
pub fn run(root: &Path) -> Result<(), String> {
    let records = RECORDS
        .iter()
        .map(|name| Ok((*name, json::parse(&read(&root.join(name))?)?)))
        .collect::<Result<Vec<_>, String>>()?;
    let checked = check_claims(|doc| read(&root.join(doc)), &records)?;
    println!("check-docs: {checked} cited number(s) match the committed records");
    let invoked = check_invocations(|doc| read(&root.join(doc)))?;
    println!("check-docs: {invoked} cited `cargo xtask` invocation(s) match the usage");
    Ok(())
}

/// Checks every [`DOC_CLAIMS`] citation in the text `doc_text` returns
/// for each file name against `records`, returning how many numbers
/// matched. A cited number matches when the record value rounds to it
/// at the digits it prints.
fn check_claims(
    doc_text: impl Fn(&str) -> Result<String, String>,
    records: &[(&str, Value)],
) -> Result<usize, String> {
    let mut failures = Vec::new();
    let mut checked = 0usize;
    for (doc, base, template) in DOC_CLAIMS {
        let text = squash(&doc_text(doc)?);
        let template = squash(template);
        let (literals, holes) = split_template(&template);
        let Some(numbers) = cited(&text, &literals) else {
            failures.push(format!("{doc}: citation '{template}' not found"));
            continue;
        };
        for (number, hole) in numbers.iter().zip(holes) {
            let path = format!("{base}/{hole}");
            let actual = lookup(records, &path)?;
            let plain = number.replace('−', "-").replace([',', '+'], "");
            let claimed: f64 = plain.parse().map_err(|e| format!("'{number}': {e}"))?;
            let decimals = plain.split_once('.').map_or(0, |(_, d)| d.len());
            // Half a unit in the last printed place, plus float slack.
            let tolerance = 0.5 * 10f64.powi(-(decimals as i32)) + 1e-9;
            if (claimed - actual).abs() > tolerance {
                failures.push(format!(
                    "{doc}: cites {number} for {path}, which is {actual}"
                ));
            }
            checked += 1;
        }
    }
    if failures.is_empty() {
        Ok(checked)
    } else {
        Err(format!(
            "check-docs FAILED (stale citations):\n  {}",
            failures.join("\n  ")
        ))
    }
}

/// The documents whose `cargo xtask` invocations must match the usage.
const INVOKING_DOCS: &[&str] = &[
    "README.md",
    "DESIGN.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml",
];

/// Each command `usage` lists under `commands:`, with every `--flag`
/// its lines name. A command line is indented two spaces and its
/// synopsis ends at the first double space; deeper lines continue a
/// description.
fn usage_commands(usage: &str) -> Vec<(&str, Vec<&str>)> {
    let mut commands: Vec<(&str, Vec<&str>)> = Vec::new();
    let lines = usage.lines().skip_while(|l| *l != "commands:");
    for entry in lines.filter_map(|l| l.strip_prefix("  ")) {
        let synopsis = entry.split("  ").next().unwrap_or_default();
        let mut words = synopsis.split_whitespace();
        let Some(name) = words.next() else { continue };
        let flags = words
            .map(|w| w.trim_matches(['[', ']']))
            .filter(|w| w.starts_with("--"));
        match commands.iter_mut().find(|(n, _)| *n == name) {
            Some((_, known)) => known.extend(flags),
            None => commands.push((name, flags.collect())),
        }
    }
    commands
}

/// The text after each `cargo xtask` in `text`, with the line it is
/// on. In Markdown an invocation is a code span, which may wrap, or a
/// line of a fenced block; elsewhere it is a line. A `#` starts a
/// comment.
fn invocations(text: &str, markdown: bool) -> Vec<(usize, String)> {
    const CALL: &str = "cargo xtask";
    let mut found = Vec::new();
    let mut in_fence = false;
    // The paragraph being read: its text and the line each byte is on.
    let (mut para, mut para_lines) = (String::new(), Vec::new());
    // A blank last line closes the last paragraph.
    for (i, line) in text.lines().chain([""]).enumerate() {
        let fence = markdown && line.trim_start().starts_with("```");
        if markdown && !in_fence && !fence && !line.trim().is_empty() {
            para.push_str(line);
            para.push(' ');
            para_lines.resize(para.len(), i + 1);
            continue;
        }
        for (at, _) in para.match_indices(CALL) {
            // Inside a code span when an odd number of backticks precede it.
            if para[..at].matches('`').count() % 2 == 1 {
                let span = para[at + CALL.len()..]
                    .split('`')
                    .next()
                    .unwrap_or_default();
                found.push((para_lines[at], span.trim_end().to_string()));
            }
        }
        para.clear();
        para_lines.clear();
        in_fence ^= fence;
        let code = line.split('#').next().unwrap_or_default();
        if let Some((_, call)) = code.split_once(CALL).filter(|_| in_fence || !markdown) {
            found.push((i + 1, call.trim_end().to_string()));
        }
    }
    found
}

/// Checks every `cargo xtask` invocation in the [`INVOKING_DOCS`] text
/// `doc_text` returns against the usage text: its first word must be a
/// command there, and each `--flag` up to a shell operator must be one
/// of that command's. Returns how many invocations matched.
fn check_invocations(doc_text: impl Fn(&str) -> Result<String, String>) -> Result<usize, String> {
    let commands = usage_commands(crate::USAGE);
    let mut failures = Vec::new();
    let mut checked = 0usize;
    for doc in INVOKING_DOCS {
        for (line, call) in invocations(&doc_text(doc)?, doc.ends_with(".md")) {
            let mut words = call
                .split_whitespace()
                .take_while(|w| !["|", "||", "&&", ";"].contains(w));
            let name = words.next().unwrap_or_default();
            let Some((_, flags)) = commands.iter().find(|(n, _)| *n == name) else {
                failures.push(format!(
                    "{doc}:{line}: `cargo xtask{call}` names no command in the usage"
                ));
                continue;
            };
            let unknown: Vec<&str> = words
                .filter_map(|w| w.split('=').next().filter(|f| f.starts_with("--")))
                .filter(|f| !flags.contains(f))
                .collect();
            if unknown.is_empty() {
                checked += 1;
            } else {
                failures.push(format!(
                    "{doc}:{line}: `cargo xtask{call}`: {name} takes no {}",
                    unknown.join(", ")
                ));
            }
        }
    }
    if failures.is_empty() {
        Ok(checked)
    } else {
        Err(format!(
            "check-docs FAILED (stale invocations):\n  {}",
            failures.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The member `key` of an object, for editing.
    fn member<'a>(v: &'a mut Value, key: &str) -> Option<&'a mut Value> {
        let Value::Obj(fields) = v else { return None };
        fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Both committed records, parsed.
    fn committed_records() -> Vec<(&'static str, Value)> {
        vec![
            (
                "BENCH_pipeline.json",
                json::parse(include_str!("../../BENCH_pipeline.json")).unwrap(),
            ),
            (
                "REPRO_paper.json",
                json::parse(include_str!("../../REPRO_paper.json")).unwrap(),
            ),
        ]
    }

    /// `check_claims` over the committed docs, with `edit` applied to
    /// README.md's text first.
    fn check_edited_readme(
        edit: impl Fn(String) -> String,
        records: &[(&str, Value)],
    ) -> Result<usize, String> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        check_claims(
            |doc| {
                let text = read(&root.join(doc))?;
                Ok(if doc == "README.md" { edit(text) } else { text })
            },
            records,
        )
    }

    /// A citation that drifts by one printed unit or is removed from
    /// the prose fails the check, and so does prose that a moved record
    /// cell leaves behind, in either record; each names the citation.
    #[test]
    fn a_drifted_or_removed_citation_fails() {
        let records = committed_records();
        assert!(check_edited_readme(|t| t, &records).is_ok());
        let err = check_edited_readme(|t| t.replace("1.71×", "1.70×"), &records).unwrap_err();
        assert!(
            err.contains(
                "README.md: cites 1.70 for BENCH_pipeline.json/networks/vgg16/best_speedup, \
                 which is 1.71"
            ),
            "{err}"
        );
        let err = check_edited_readme(|t| t.replace("1.46×", ""), &records).unwrap_err();
        assert!(
            err.contains("README.md: citation 'reaches **{vgg16/best_speedup}×**")
                && err.contains("not found"),
            "{err}"
        );
        // The prose unchanged, the committed pipeline number moved.
        let mut moved = committed_records();
        let Some(Value::Arr(networks)) = member(&mut moved[0].1, "networks") else {
            panic!("'networks' is not an array");
        };
        *member(&mut networks[0], "best_speedup").unwrap() = Value::Num(1.72);
        let err = check_edited_readme(|t| t, &moved).unwrap_err();
        assert!(
            err.contains(
                "cites 1.71 for BENCH_pipeline.json/networks/vgg16/best_speedup, which is 1.72"
            ),
            "{err}"
        );
        // The prose unchanged, a paper-record cell moved: Table 2's
        // simulated VGG16 throughput.
        let mut moved = committed_records();
        let table2 = member(&mut moved[1].1, "table2").unwrap();
        let Some(Value::Arr(proposed)) = member(table2, "proposed") else {
            panic!("'proposed' is not an array");
        };
        let gops = member(&mut proposed[1], "gops").unwrap();
        *member(gops, "measured").unwrap() = Value::Num(913.5);
        let err = check_edited_readme(|t| t, &moved).unwrap_err();
        assert!(
            err.contains(
                "EXPERIMENTS.md: cites 912.5 for REPRO_paper.json/table2/proposed/VGG16/gops, \
                 which is 913.5"
            ),
            "{err}"
        );
    }

    /// `check_invocations` with README.md's text replaced by `readme`
    /// and every other document empty.
    fn check_readme_invocations(readme: &str) -> Result<usize, String> {
        check_invocations(|doc| {
            Ok(if doc == "README.md" {
                readme.to_string()
            } else {
                String::new()
            })
        })
    }

    /// The committed docs cite only commands and flags the usage lists,
    /// in code spans (wrapped too), fenced blocks and workflow steps; a
    /// removed command or flag fails and is named with its line.
    #[test]
    fn a_removed_command_or_flag_fails() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
        assert!(check_invocations(|doc| read(&root.join(doc))).unwrap() > 10);
        let fine = "Prose that names cargo xtask metrics cites nothing. Run `cargo xtask\n\
                    serve --smoke` or `cargo xtask lint | verify | mc`.\n\n\
                    ```\n$ cargo xtask verify --net vgg19  # one --network\n```\n";
        assert_eq!(check_readme_invocations(fine), Ok(3));
        let err =
            check_readme_invocations("Then\n`cargo xtask verify --certify` diffs.\n").unwrap_err();
        assert!(
            err.contains("README.md:2: `cargo xtask verify --certify`: verify takes no --certify"),
            "{err}"
        );
        let err = check_readme_invocations("```\ncargo xtask metrics --smoke\n```\n").unwrap_err();
        assert!(
            err.contains("README.md:2: `cargo xtask metrics --smoke` names no command"),
            "{err}"
        );
        let ci = check_invocations(|doc| {
            Ok(if doc.ends_with(".yml") {
                "      # not `cargo xtask metrics`\n        run: cargo xtask lint --update  # note\n"
                    .to_string()
            } else {
                String::new()
            })
        })
        .unwrap_err();
        assert!(
            ci.contains("ci.yml:2: `cargo xtask lint --update`: lint takes no --update")
                && !ci.contains("metrics"),
            "{ci}"
        );
    }
}
