//! Quickstart: build a popularity-based PPM model from a handful of access
//! sessions and ask it what to prefetch.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use pbppm::core::render::render_tree;
use pbppm::core::{Interner, PbConfig, PbPpm, PopularityTable, Predictor};

fn main() {
    // 1. Intern the URLs of a small site.
    let mut urls = Interner::new();
    let home = urls.intern("/index.html");
    let news = urls.intern("/news.html");
    let launch = urls.intern("/missions/launch.html");
    let gallery = urls.intern("/gallery/photo-17.html");

    // 2. First training pass: count accesses to grade URL popularity.
    //    (In a real deployment both passes run over the same server log;
    //    see `examples/server_prefetch.rs` for the full pipeline.)
    let sessions: Vec<Vec<_>> = vec![
        vec![home, news, launch, home],
        vec![home, news, launch],
        vec![home, news],
        vec![home, news, launch, gallery, home],
        vec![home, launch],
        vec![news, launch],
    ];
    let mut counts = PopularityTable::builder();
    for s in &sessions {
        for &u in s {
            counts.record(u);
        }
    }
    let popularity = counts.build();
    for &(name, url) in &[
        ("home", home),
        ("news", news),
        ("launch", launch),
        ("gallery", gallery),
    ] {
        println!(
            "{name:8} grade {:?}  relative popularity {:.3}",
            popularity.grade(url),
            popularity.relative_popularity(url)
        );
    }

    // 3. Second pass: build the popularity-based prediction tree.
    let mut model = PbPpm::new(popularity, PbConfig::default());
    for s in &sessions {
        model.train_session(s);
    }
    model.finalize();

    println!(
        "\nprediction tree ({} nodes, `~>` marks special links):",
        model.node_count()
    );
    if let Some(arena) = model.frozen() {
        println!("{}", render_tree(arena, Some(&urls)));
    }

    // 4. A user just clicked /index.html then /news.html: what should the
    //    server push alongside the response?
    let mut predictions = Vec::new();
    model.predict(&[home, news], &mut predictions);
    println!("after /index.html -> /news.html the model suggests:");
    for p in &predictions {
        println!("  {:<28} p = {:.2}", urls.resolve(p.url).unwrap(), p.prob);
    }
    assert_eq!(predictions[0].url, launch);
}
