//! The interner against a trivial reference: a `HashMap<String, u32>` plus
//! a `Vec<String>`. Random interleavings of `intern`, `get`, `resolve`,
//! `iter` and `clone` must agree with it op for op, over keys that include
//! the empty string, non-ASCII and long URLs, lookups that mostly miss,
//! enough distinct keys to cross several rehashes, and clones that then
//! diverge from their source. A table with holes, as a model file decodes
//! it, is held to a reference that maps each id to its string or to none.

use pbppm_core::order1::{Order1RowSnapshot, Order1Snapshot};
use pbppm_core::snapshot::{ModelImage, SnapshotFile};
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

/// The reference for a table with holes: the id-space size and, per id,
/// its string or `None`.
struct Holed {
    ids: HashMap<String, u32>,
    names: Vec<Option<String>>,
}

impl Holed {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).unwrap();
        self.ids.insert(name.to_owned(), id);
        self.names.push(Some(name.to_owned()));
        id
    }
}

/// The table a model file keeps of the first `n` keys when its rows name
/// the ids `present` marks: decoded from an order-1 image with one row per
/// named id.
fn decoded_with_holes(present: &[bool]) -> Interner {
    let writer: Interner = (0..present.len())
        .map(|k| key(u32::try_from(k).unwrap()))
        .collect();
    let rows = (0..present.len())
        .filter(|&i| present[i])
        .map(|i| Order1RowSnapshot {
            url: u32::try_from(i).unwrap(),
            total: 1,
            next: Vec::new(),
        })
        .collect();
    let file = SnapshotFile::new(&writer, ModelImage::Order1(Order1Snapshot { rows }));
    SnapshotFile::decode(&file.encode())
        .expect("a written file decodes")
        .urls
}

fn check_holed(interner: &Interner, reference: &Holed) -> Result<(), TestCaseError> {
    let held = reference.names.iter().flatten().count();
    prop_assert_eq!(interner.len(), reference.names.len());
    prop_assert_eq!(interner.strings(), held);
    prop_assert_eq!(interner.has_holes(), held < reference.names.len());
    for (i, name) in reference.names.iter().enumerate() {
        let id = UrlId(u32::try_from(i).unwrap());
        prop_assert_eq!(interner.resolve(id), name.as_deref());
        prop_assert_eq!(interner.contains(id), name.is_some());
    }
    let past = UrlId(u32::try_from(reference.names.len()).unwrap());
    prop_assert_eq!(interner.resolve(past), None);
    let expected = reference
        .names
        .iter()
        .enumerate()
        .filter_map(|(i, name)| Some((i, name.as_deref()?)));
    prop_assert!(interner
        .iter()
        .map(|(id, name)| (id.index(), name))
        .eq(expected));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A decoded table with holes against the reference: every hole
    /// pattern (none held, all held, the first or the last id a hole, or
    /// any mix), then interning, lookups and clones after the decode. A
    /// string whose id is a hole is not found, and interning it again
    /// takes a new id past the space.
    #[test]
    fn a_table_with_holes_agrees_with_a_dense_oracle(
        pattern in 0..5u8,
        n in 0..300usize,
        bits in prop::collection::vec(0..2u8, 300),
        steps in steps(400),
    ) {
        let present: Vec<bool> = (0..n)
            .map(|i| match pattern {
                0 => false,
                1 => true,
                2 => i != 0,
                3 => i + 1 != n,
                _ => bits[i] == 1,
            })
            .collect();
        let mut interner = decoded_with_holes(&present);
        let names: Vec<Option<String>> =
            (0..n).map(|i| present[i].then(|| key(u32::try_from(i).unwrap()))).collect();
        let ids = names
            .iter()
            .enumerate()
            .filter_map(|(i, name)| Some((name.clone()?, u32::try_from(i).unwrap())))
            .collect();
        let mut reference = Holed { ids, names };
        check_holed(&interner, &reference)?;
        for k in 0..u32::try_from(n).unwrap() {
            let want = present[k as usize].then_some(UrlId(k));
            prop_assert_eq!(interner.get(&key(k)), want);
        }
        for (op, _, k) in steps {
            let name = key(k);
            match op {
                0..=4 => prop_assert_eq!(interner.intern(&name).0, reference.intern(&name)),
                5 | 6 => prop_assert_eq!(
                    interner.get(&name).map(|id| id.0),
                    reference.ids.get(&name).copied()
                ),
                7 => prop_assert_eq!(
                    interner.resolve(UrlId(k)),
                    reference.names.get(k as usize).and_then(Option::as_deref)
                ),
                8 => check_holed(&interner, &reference)?,
                _ => {
                    interner = interner.clone();
                    check_holed(&interner, &reference)?;
                }
            }
        }
        check_holed(&interner, &reference)?;
        for (name, &id) in &reference.ids {
            prop_assert_eq!(interner.get(name), Some(UrlId(id)));
        }
        interner.shrink_to_fit();
        check_holed(&interner, &reference)?;
    }
}
