//! The interner against a trivial reference: a `HashMap<String, u32>` plus
//! a `Vec<String>`. Random interleavings of `intern`, `get`, `resolve`,
//! `iter` and `clone` must agree with it op for op, over keys that include
//! the empty string, non-ASCII and long URLs, lookups that mostly miss,
//! enough distinct keys to cross several rehashes, and clones that then
//! diverge from their source.

use pbppm_core::{Interner, UrlId};
use proptest::prelude::*;
use std::collections::HashMap;

/// The reference: ids in first-interning order.
#[derive(Clone, Default)]
struct Reference {
    ids: HashMap<String, u32>,
    names: Vec<String>,
}

impl Reference {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).unwrap();
        self.ids.insert(name.to_owned(), id);
        self.names.push(name.to_owned());
        id
    }
}

/// Key `k` of an unbounded key space: key 0 is the empty string, the rest
/// are URL-shaped, some non-ASCII or hundreds of bytes long.
fn key(k: u32) -> String {
    if k == 0 {
        return String::new();
    }
    match k % 8 {
        1 => format!("/dir{}/ünïcødé/{k}", k % 5),
        2 => format!("/long/{k}/{}", "segment/".repeat(20 + (k % 50) as usize)),
        3 => format!("/東京/{k}.html"),
        _ => format!("/l{}/p{k}.html", k % 13),
    }
}

/// One step: `(op, model, key)`. Keys run well past what any one copy
/// interns, so many `get`s miss.
fn steps(max: usize) -> impl Strategy<Value = Vec<(u8, u8, u32)>> {
    prop::collection::vec((0..10u8, 0..4u8, 0..1_200u32), 1..max)
}

fn check(interner: &Interner, reference: &Reference) -> Result<(), TestCaseError> {
    prop_assert_eq!(interner.len(), reference.names.len());
    prop_assert_eq!(interner.is_empty(), reference.names.is_empty());
    let expected = reference.names.iter().map(String::as_str).enumerate();
    prop_assert!(interner
        .iter()
        .map(|(id, name)| (id.index(), name))
        .eq(expected));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn interner_agrees_with_a_hash_map_and_a_vec(steps in steps(2_500)) {
        // Up to four diverging copies; a step picks one of them.
        let mut models = vec![(Interner::new(), Reference::default())];
        for (op, model, k) in steps {
            let m = usize::from(model) % models.len();
            let (interner, reference) = &mut models[m];
            let name = key(k);
            match op {
                // Interning dominates, so the tables grow through rehashes.
                0..=4 => prop_assert_eq!(interner.intern(&name).0, reference.intern(&name)),
                5 | 6 => prop_assert_eq!(
                    interner.get(&name).map(|id| id.0),
                    reference.ids.get(&name).copied()
                ),
                7 => prop_assert_eq!(
                    interner.resolve(UrlId(k)),
                    reference.names.get(k as usize).map(String::as_str)
                ),
                8 => check(interner, reference)?,
                _ => {
                    if models.len() < 4 {
                        let copy = models[m].clone();
                        check(&copy.0, &copy.1)?;
                        models.push(copy);
                    }
                }
            }
        }
        for (interner, reference) in &models {
            check(interner, reference)?;
            for (name, &id) in &reference.ids {
                prop_assert_eq!(interner.get(name), Some(UrlId(id)));
            }
        }
    }

    #[test]
    fn with_capacity_changes_no_id(n in 0..600usize, keys in prop::collection::vec(0..900u32, 0..800)) {
        let (mut sized, mut grown) = (Interner::with_capacity(n), Interner::new());
        for k in keys {
            let name = key(k);
            prop_assert_eq!(sized.intern(&name), grown.intern(&name));
        }
        prop_assert!(sized.iter().eq(grown.iter()));
    }
}
