//! The paper's opening observation, made visible: "due to nondeterministic
//! timing variations, the program may, on different occasions, execute
//! exactly the same events but exhibit different orderings among those
//! events."
//!
//! This example runs a two-stage pipeline once, enumerates **every**
//! feasible re-execution (the set F(P)), prints each one's forced
//! ordering, and then answers must/could questions three independent ways
//! (cut-lattice search, early-exit witness search, SAT encoding).
//!
//! ```text
//! cargo run -p event-ordering --example alternate_orderings
//! ```

use eo_engine::{ExactEngine, FeasibilityMode, SatSession, SearchCtx};
use eo_lang::generator::pipeline_program;
use eo_model::render;
use eo_relations::closure;

fn main() {
    let program = pipeline_program(2, 2);
    let trace = eo_lang::generator::run_deterministic(&program);
    let exec = trace.to_execution().expect("interpreter traces are valid");

    println!("observed execution:");
    print!("{}", render::render_trace(exec.trace()));

    // Enumerate the full feasible set.
    let engine = ExactEngine::new(&exec);
    let feasible = engine.feasible_set().expect("small execution");
    println!(
        "\n|F(P)| = {} feasible execution(s), found in {} schedule visits:\n",
        feasible.orders.len(),
        feasible.schedules_explored
    );
    for (i, order) in feasible.orders.iter().enumerate() {
        println!("feasible execution #{i} — forced orderings (reduced):");
        let reduced = closure::transitive_reduction_dag(order);
        for (a, b) in reduced.pairs() {
            println!(
                "  {} -> {}",
                render::event_name(&exec, eo_model::EventId::new(a)),
                render::event_name(&exec, eo_model::EventId::new(b))
            );
        }
    }

    // Ask one must-question and one could-question three ways each.
    let s0_last = exec.event_labeled("s0_item1").unwrap();
    let s1_first = exec.event_labeled("s1_item0").unwrap();
    let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
    let mut sat = SatSession::new(&ctx);

    let mhb_space = engine.summary().mhb(s0_last, s1_first);
    let mhb_witness = engine.mhb(s0_last, s1_first);
    let mhb_sat = sat
        .try_must_happen_before(s0_last, s1_first)
        .expect("an unlimited budget never stops the solver");
    println!(
        "\nmust s0_item1 happen before s1_item0?  statespace={mhb_space} \
         witness-search={mhb_witness} sat-encoding={mhb_sat}"
    );
    assert_eq!(mhb_space, mhb_witness);
    assert_eq!(mhb_space, mhb_sat);

    let ccw_space = engine.summary().ccw(s0_last, s1_first);
    let ccw_witness = engine.ccw(s0_last, s1_first);
    println!(
        "could they run concurrently?           statespace={ccw_space} \
         witness-search={ccw_witness}"
    );
    assert_eq!(ccw_space, ccw_witness);

    // And extract an actual alternate schedule as a certificate.
    let alternate = sat
        .try_witness_before(s1_first, s0_last)
        .expect("an unlimited budget never stops the solver");
    if let Some(witness) = alternate {
        println!("\nan alternate feasible schedule running s1_item0 before s0_item1:");
        for e in &witness {
            println!("  {}", render::event_name(&exec, *e));
        }
        // Prove it by replaying.
        assert!(ctx.machine().replay(&witness).is_ok());
        println!("(replayed on the synchronization machine: valid)");
    } else {
        println!("\nno feasible schedule reorders them — the handshake forbids it.");
    }
}
