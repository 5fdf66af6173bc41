//! `batch-cold`: the `commcsl verify` in-process path, closed loop, one
//! client thread.
//!
//! An op is one program's verdict: `front::compile` of its source, then
//! one `Verifier::new()` batch (one worker per CPU, no cache). The
//! corpus pass is a fixed multiset — Table 1 and the rejected programs
//! eight times each, leak mutants, and the shared-map families from 6x24
//! up to 48x192 — visited in a fresh seeded order every pass.

use std::time::Instant;

use commcsl_analysis::prepass::goal_statically_valid;
use commcsl_front::{lower, parser};
use commcsl_logic::validity::check_validity;
use commcsl_smt::Verdict;
use commcsl_verifier::{
    solver_trace, verify_with_stats, AnnotatedProgram, SolverEvent, VStmt, Verifier, VerifierConfig,
};

use crate::gen::{self, Input, Rng};
use crate::stats::{self, Meter, OpSample, Phase};
use crate::trace::{self, Tracer};
use crate::{Ctx, LayerRecord, Outcome};

/// Copies of Table 1 and of the rejected set per pass: enough that spec
/// validity (`logic`) holds as large a share of a pass as the
/// solver-heavy shared-map families give `smt`.
const TABLE1_COPIES: usize = 14;

/// One corpus pass. The seed varies the generated programs' tags, keys
/// and constants; the shapes and counts are fixed.
fn corpus(ctx: &Ctx) -> Result<Vec<Input>, String> {
    let mut rng = Rng::new(ctx.seed, "batch-cold");
    let table1 = gen::table1(&ctx.root)?;
    let rejected = gen::rejected(&ctx.root)?;
    let mut pass = Vec::new();
    for _ in 0..TABLE1_COPIES {
        pass.extend(table1.iter().cloned());
        pass.extend(rejected.iter().cloned());
    }
    for _ in 0..2 {
        for leak in gen::Leak::ALL {
            pass.push(gen::leak_mutant(&mut rng, leak));
        }
    }
    for _ in 0..6 {
        pass.push(gen::map_family(&mut rng, true, 6, 24));
    }
    // Four 24x96 against one 48x192 put `latency_p99_ms` (the 3.4th
    // slowest op of a 343-op pass) inside the 24x96 band rather than on
    // a boundary between sizes.
    for (puts, outputs) in [(12, 48), (24, 96), (24, 96), (24, 96), (24, 96), (48, 192)] {
        pass.push(gen::map_family(&mut rng, true, puts, outputs));
    }
    for size in [12, 24, 48] {
        pass.push(gen::map_family(&mut rng, false, size, size));
    }
    Ok(pass)
}

/// Verifies `program` in one cold single-program batch and checks the
/// verdict against the input's known answer; a compile error never
/// matches.
fn verify_matches(input: &Input, program: Option<&AnnotatedProgram>) -> bool {
    let Some(program) = program else { return false };
    let outcome = Verifier::new().verify_batch(&[program]).remove(0);
    let report = &outcome.report;
    input.expect.matches(
        report.verified(),
        report.failures().map(|o| o.code.as_str()),
    )
}

/// One op, untraced: compile plus a cold single-program batch. Returns
/// the verdict check and the batch's own milliseconds.
fn op(input: &Input) -> (bool, f64) {
    let program = commcsl_front::compile(&input.source).ok();
    let begun = Instant::now();
    let ok = verify_matches(input, program.as_ref());
    (ok, begun.elapsed().as_secs_f64() * 1e3)
}

/// One op with spans around its layer calls, then the attribution calls
/// beside it (outside the op's span): spec validity, the verifier's own
/// discharge statistics, and a replay of the solver workload that skips
/// what the static pre-pass discharges, as the verifier does. Returns
/// the verdict check and the op's and its batch's milliseconds.
fn traced_op(
    tr: &mut Tracer,
    input: &Input,
    config: &VerifierConfig,
    rec: &mut LayerRecord,
) -> (bool, f64, f64) {
    let op_span = tr.spans.len();
    let mut batch_span = op_span;
    let (ok, program) = tr.span("op", |tr| {
        let surface = tr.span("front.parse", |_| parser::parse_surface(&input.source));
        let program = surface
            .and_then(|s| tr.span("front.lower", |_| lower::lower(&s)))
            .ok();
        batch_span = tr.spans.len();
        let ok = tr.span("verifier.batch", |_| {
            verify_matches(input, program.as_ref())
        });
        (ok, program)
    });
    let ms = |span: usize| tr.spans[span].dur_ns() as f64 / 1e6;
    let (ms, batch_ms) = (ms(op_span), ms(batch_span));
    let Some(program) = program else {
        return (ok, ms, batch_ms);
    };

    for stmt in &program.body {
        if let VStmt::Share { resource, .. } = stmt {
            tr.span("logic.validity", |_| {
                check_validity(&program.resources[*resource], &config.validity)
            });
            rec.add("logic.validity_checks", 1.0);
        }
    }
    let (_, discharge, _, _) = tr.span("verifier.verify_with_stats", |_| {
        verify_with_stats(&program, config)
    });
    rec.add("verifier.obligations", discharge.total as f64);
    rec.add(
        "analysis.statically_proven",
        discharge.statically_proven as f64,
    );

    let events = solver_trace(&program, config);
    tr.span("smt.replay", |tr| {
        let mut session = config.backend.open_session(config.solver.clone());
        for event in &events {
            match event {
                SolverEvent::Push => session.push(),
                SolverEvent::Pop => session.pop(),
                SolverEvent::Assert(fact) => session.assert(fact.clone()),
                SolverEvent::Check { assumptions, goal } => {
                    let discharged = config.static_prepass
                        && tr.span("analysis.prepass", |_| goal_statically_valid(goal));
                    if discharged {
                        session.sync();
                    } else {
                        rec.add("smt.checks", 1.0);
                        if session.check_assuming(assumptions.clone(), goal) == Verdict::Proved {
                            rec.add("smt.proved", 1.0);
                        }
                    }
                }
            }
        }
    });
    (ok, ms, batch_ms)
}

/// Runs the closed loop until `seconds` elapse.
fn phase(
    pass: &[Input],
    rng: &mut Rng,
    seconds: f64,
    tr: &mut Tracer,
    recs: &mut Vec<LayerRecord>,
) -> Phase {
    let config = VerifierConfig::default();
    let mut order: Vec<usize> = (0..pass.len()).collect();
    let mut ops = Vec::new();
    let meter = Meter::start(vec!["self".into()], "self", seconds);
    let start = meter.started();
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    'run: loop {
        rng.shuffle(&mut order);
        for &i in &order {
            if Instant::now() >= deadline {
                break 'run;
            }
            let input = &pass[i];
            let id = ops.len() as u64;
            tr.set_op(id);
            let (ok, ms, batch_ms) = if tr.enabled() {
                let mut rec = LayerRecord::default();
                let traced = traced_op(tr, input, &config, &mut rec);
                recs.push(rec);
                traced
            } else {
                let begun = Instant::now();
                let (ok, batch_ms) = op(input);
                (ok, begun.elapsed().as_secs_f64() * 1e3, batch_ms)
            };
            let end_s = start.elapsed().as_secs_f64();
            meter.op_done();
            ops.push(OpSample {
                id,
                class: family_class(input),
                verify_ms: Some(batch_ms),
                ms,
                end_s,
                ok,
            });
        }
    }
    meter.finish(ops)
}

fn family_class(input: &Input) -> &'static str {
    match input.family {
        gen::Family::Table1 => "table1",
        gen::Family::Rejected => "rejected",
        gen::Family::ScaleReport => "scale-report",
        gen::Family::ScaleAudit => "scale-audit",
        gen::Family::Mutant => "mutant",
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    // Set-up: generate the corpus and warm it with one untimed pass.
    let mut setup_s = Vec::new();
    let mut pass = Vec::new();
    for _ in 0..crate::SETUPS {
        let begun = Instant::now();
        pass = corpus(ctx)?;
        for input in &pass {
            if !op(input).0 {
                return Err(format!("warm-up: {} missed its known answer", input.name));
            }
        }
        setup_s.push(begun.elapsed().as_secs_f64());
    }

    let mut tr = Tracer::new(false, Instant::now(), 0);
    let mut rng = Rng::new(ctx.seed, "batch-cold-order");
    let mut recs = Vec::new();
    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let plain = phase(&pass, &mut rng, seconds, &mut tr, &mut recs);
    let mut outcome = Outcome::new(&setup_s, &plain);
    if !ctx.trace {
        return Ok(outcome);
    }

    tr.set_enabled(true);
    let traced = phase(&pass, &mut rng, seconds, &mut tr, &mut recs);
    outcome.absorb(&traced);
    let spans = std::mem::take(&mut tr.spans);
    let m = |name: &str| trace::median_per_op(&spans, name, false);
    let mut layers = crate::empty_layers();
    let mut set = |name: &str, v: f64| crate::set(&mut layers, name, v);
    set("front.parse_ms", m("front.parse"));
    set("front.lower_ms", m("front.lower"));
    set("logic.validity_ms", m("logic.validity"));
    set(
        "logic.validity_checks",
        LayerRecord::mean(&recs, "logic.validity_checks"),
    );
    set(
        "smt.check_ms",
        trace::median_per_op(&spans, "smt.replay", true),
    );
    set("smt.checks", LayerRecord::mean(&recs, "smt.checks"));
    set(
        "smt.proved_ratio",
        LayerRecord::ratio(&recs, "smt.proved", "smt.checks"),
    );
    set("analysis.prepass_ms", m("analysis.prepass"));
    set(
        "analysis.prepass_ratio",
        LayerRecord::ratio(&recs, "analysis.statically_proven", "verifier.obligations"),
    );
    set("verifier.verify_ms", m("verifier.verify_with_stats"));
    set(
        "verifier.obligations",
        LayerRecord::mean(&recs, "verifier.obligations"),
    );
    // Self time of symbolic execution: the verifier's run minus the
    // validity, solver and pre-pass time attributed beside it, per op.
    let verify = trace::op_totals(&spans, "verifier.verify_with_stats", false);
    let attributed = [
        trace::op_totals(&spans, "logic.validity", false),
        trace::op_totals(&spans, "smt.replay", true),
        trace::op_totals(&spans, "analysis.prepass", false),
    ];
    let symexec: Vec<f64> = verify
        .iter()
        .map(|(op, v)| v - attributed.iter().filter_map(|a| a.get(op)).sum::<f64>())
        .collect();
    set("verifier.symexec_self_ms", stats::median(&symexec));
    // The corpus balance: the shares of `logic` and `smt` in the summed op
    // time of the traced phase, and in the verifier's time alone.
    let total =
        |m: &std::collections::BTreeMap<u64, f64>| m.values().sum::<f64>().max(f64::EPSILON);
    let ops_total = total(&trace::op_totals(&spans, "op", false));
    for (layer, attributed) in [("logic", &attributed[0]), ("smt", &attributed[1])] {
        let share = total(attributed);
        outcome
            .notes
            .push((format!("{layer}_share"), format!("{}", share / ops_total)));
        outcome.notes.push((
            format!("{layer}_share_of_verifier"),
            format!("{}", share / total(&verify)),
        ));
    }
    set("trace.overhead_ms", crate::trace_overhead(&plain, &traced));
    outcome.layers = layers;
    outcome.spans = spans;
    Ok(outcome)
}
