//! ASCII rendering of prediction trees (Figure 1 and debugging).
//!
//! Produces the box-drawing layout conventional for trees:
//!
//! ```text
//! /index.html/3
//! ├── /docs/2
//! │   └── /docs/faq/1
//! └── ~> /news/2          (special link to a duplicated node)
//! ```
//!
//! Node labels are `url/count`, matching the `A/1 B/1 …` annotations of the
//! paper's Figure 1. Output is deterministic: roots and children are ordered
//! by URL id.

use crate::frozen::FrozenTree;
use crate::interner::{Interner, UrlId};
use std::fmt::Write as _;

/// Renders a finalized model's whole forest. When `names` is given, URLs
/// print as their interned strings; otherwise as `u<id>`.
pub fn render_tree(arena: &FrozenTree, names: Option<&Interner>) -> String {
    let mut out = String::new();
    for root in arena.roots() {
        render_node(arena, root, names, "", "", &mut out);
    }
    out
}

fn label(arena: &FrozenTree, id: u32, names: Option<&Interner>) -> String {
    let name = url_label(arena.url(id), names);
    format!("{name}/{}", arena.count(id))
}

fn url_label(url: UrlId, names: Option<&Interner>) -> String {
    match names.and_then(|n| n.resolve(url)) {
        Some(s) => s.to_owned(),
        None => url.to_string(),
    }
}

fn render_node(
    arena: &FrozenTree,
    id: u32,
    names: Option<&Interner>,
    prefix: &str,
    child_prefix: &str,
    out: &mut String,
) {
    let _ = writeln!(out, "{prefix}{}", label(arena, id, names));
    // Child and link rows are sorted by URL already; only a root has links.
    let kids = arena.children(id);
    let links = if arena.parent(id) == crate::frozen::NO_NODE {
        arena.root_links(id)
    } else {
        0..0
    };
    let last_index = kids.len() + links.len();
    let mut i = 0;
    for kid in kids {
        i += 1;
        let (branch, cont) = if i == last_index {
            ("└── ", "    ")
        } else {
            ("├── ", "│   ")
        };
        render_node(
            arena,
            kid,
            names,
            &format!("{child_prefix}{branch}"),
            &format!("{child_prefix}{cont}"),
            out,
        );
    }
    for link in links {
        i += 1;
        let branch = if i == last_index {
            "└── "
        } else {
            "├── "
        };
        let _ = writeln!(
            out,
            "{child_prefix}{branch}~> {}",
            label(arena, link, names)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::arena_of;

    fn render(paths: &[&[u32]], links: &[(u32, u32)], names: Option<&Interner>) -> String {
        render_tree(&arena_of(paths, links), names)
    }

    #[test]
    fn renders_empty_tree_as_empty_string() {
        assert_eq!(render(&[], &[], None), "");
    }

    #[test]
    fn renders_simple_chain() {
        let s = render(&[&[0, 1, 2]], &[], None);
        assert_eq!(s, "u0/1\n└── u1/1\n    └── u2/1\n");
    }

    #[test]
    fn renders_siblings_with_tee_and_elbow() {
        let s = render(&[&[0, 1], &[0, 2]], &[], None);
        assert_eq!(s, "u0/2\n├── u1/1\n└── u2/1\n");
    }

    #[test]
    fn renders_links_with_arrow() {
        let s = render(&[&[0]], &[(0, 9)], None);
        assert!(s.contains("~> u9/1"), "got: {s}");
    }

    #[test]
    fn uses_interned_names_when_available() {
        let mut names = Interner::new();
        let a = names.intern("/index.html");
        let s = render(&[&[a.0]], &[], Some(&names));
        assert_eq!(s, "/index.html/1\n");
    }

    #[test]
    fn roots_render_in_url_order() {
        let s = render(&[&[5], &[1]], &[], None);
        let first = s.lines().next().unwrap();
        assert_eq!(first, "u1/1");
    }
}
