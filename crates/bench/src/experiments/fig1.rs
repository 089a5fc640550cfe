//! Figure 1 — tree structures of the standard (left) and popularity-based
//! (right) models for the access sequence `A B C A' B' C'`.
//!
//! The paper's example: URLs `A`/`A'` have popularity grade 3, `B`/`B'`
//! grade 2, `C`/`C'` grade 1; the maximum height is 4. The standard model
//! roots a branch at every position (18 nodes); PB-PPM keeps two branches
//! and one special link (8 nodes).

use pbppm_core::render::render_tree;
use pbppm_core::{Interner, PbConfig, PbPpm, PopularityTable, Predictor, PruneConfig, StandardPpm};

pub fn run() {
    let mut names = Interner::new();
    let seq: Vec<_> = ["A", "B", "C", "A'", "B'", "C'"]
        .iter()
        .map(|s| names.intern(s))
        .collect();

    // Grades 3/2/1 for A/B/C and their primed twins: counts on a 1000-max
    // scale put them in the right log10 buckets.
    let mut pop = PopularityTable::builder();
    for (i, &u) in seq.iter().enumerate() {
        let count = match i % 3 {
            0 => 1000, // grade 3
            1 => 50,   // grade 2
            _ => 5,    // grade 1
        };
        pop.record_n(u, count);
    }
    let pop = pop.build();

    let mut standard = StandardPpm::new(Some(4));
    standard.train_session(&seq);
    standard.finalize();

    let mut pb = PbPpm::new(
        pop,
        PbConfig {
            heights: [1, 2, 3, 4], // grade-proportional, max height 4 as in the figure
            prune: PruneConfig::disabled(),
            ..PbConfig::default()
        },
    );
    pb.train_session(&seq);
    pb.finalize();

    println!("Figure 1 — access sequence A B C A' B' C' (grades 3/2/1, max height 4)\n");
    println!("Standard PPM ({} nodes):", standard.node_count());
    if let Some(arena) = standard.frozen() {
        println!("{}", render_tree(arena, Some(&names)));
    }
    println!(
        "Popularity-based PPM ({} nodes, `~>` marks a special link):",
        pb.node_count()
    );
    if let Some(arena) = pb.frozen() {
        println!("{}", render_tree(arena, Some(&names)));
    }
    println!(
        "space: standard {} nodes vs PB-PPM {} nodes ({}x reduction on this example)",
        standard.node_count(),
        pb.node_count(),
        standard.node_count() / pb.node_count().max(1)
    );
}
