//! Answer keys: what each operation must return, kept as per-key counts and
//! order-independent checksums rather than row copies, so checking a result
//! costs O(result rows) and the key does not pad `peak_rss_mb`.
//!
//! A result's checksum is the row count plus the wrapping sum of its rows'
//! digests. A row digest hashes the row's values in column order, with
//! their types; a join output row's digest combines, in order, the digests
//! of its left part and its right part, so keys for joins are built from
//! per-row digests without materializing a single joined row.

use crate::gen::VIEW_WEIGHT_BELOW;
use rowstore::{Row, Value};

fn fmix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// Digest of one row: its values in order, with their types.
pub fn row_digest(row: &[Value]) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64;
    let mut word = |w: u64| h = fmix(h ^ w).wrapping_add(0x9E37_79B9_7F4A_7C15);
    for v in row {
        match v {
            Value::Null => word(0),
            Value::Int32(x) => {
                word(1);
                word(*x as u64);
            }
            Value::Int64(x) => {
                word(2);
                word(*x as u64);
            }
            Value::Float64(x) => {
                word(3);
                word(x.to_bits());
            }
            Value::Bool(b) => {
                word(4);
                word(*b as u64);
            }
            Value::Utf8(s) => {
                word(5);
                word(s.len() as u64);
                for chunk in s.as_bytes().chunks(8) {
                    let mut w = [0u8; 8];
                    w[..chunk.len()].copy_from_slice(chunk);
                    word(u64::from_le_bytes(w));
                }
            }
        }
    }
    fmix(h)
}

/// Digest of a join output row from the digests of its two parts.
pub fn join_digest(left: u64, right: u64) -> u64 {
    fmix(left.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ right)
}

/// Order-dependent digest of a row sequence (the `input_digest`).
pub fn rows_digest<'a>(rows: impl IntoIterator<Item = &'a Row>) -> u64 {
    rows.into_iter()
        .fold(0x1357_9BDF_2468_ACE0, |h, r| fmix(h ^ row_digest(r)))
}

/// Row count plus wrapping sum of row digests: equal for equal multisets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Checksum {
    pub rows: u64,
    pub sum: u64,
}

impl Checksum {
    pub fn add(&mut self, digest: u64) {
        self.rows += 1;
        self.sum = self.sum.wrapping_add(digest);
    }

    pub fn of(rows: &[Row]) -> Checksum {
        let mut c = Checksum::default();
        rows.iter().for_each(|r| c.add(row_digest(r)));
        c
    }

    /// Checksum of join output rows whose left part has `left` columns.
    pub fn of_join(rows: &[Row], left: usize) -> Checksum {
        let mut c = Checksum::default();
        for r in rows {
            let (l, rt) = r.split_at(left.min(r.len()));
            c.add(join_digest(row_digest(l), row_digest(rt)));
        }
        c
    }
}

/// Columns of an edge row: the left part of every join on `edges`.
const EDGE_COLS: usize = 4;

fn int(v: &Value) -> usize {
    match v {
        Value::Int64(k) => *k as usize,
        other => panic!("generated key is not Int64: {other:?}"),
    }
}

/// The edges grouped by `edge_source` (compressed sparse rows), as flat
/// per-edge digests and destinations.
pub struct Graph {
    offsets: Vec<u32>,
    digests: Vec<u64>,
    dests: Vec<u32>,
}

impl Graph {
    pub fn new(persons: usize, edges: &[Row]) -> Graph {
        let mut offsets = vec![0u32; persons + 1];
        edges.iter().for_each(|e| offsets[int(&e[0]) + 1] += 1);
        for k in 0..persons {
            offsets[k + 1] += offsets[k];
        }
        let mut fill = offsets.clone();
        let mut digests = vec![0u64; edges.len()];
        let mut dests = vec![0u32; edges.len()];
        for e in edges {
            let slot = &mut fill[int(&e[0])];
            digests[*slot as usize] = row_digest(e);
            dests[*slot as usize] = int(&e[1]) as u32;
            *slot += 1;
        }
        Graph {
            offsets,
            digests,
            dests,
        }
    }

    fn group(&self, key: usize) -> std::ops::Range<usize> {
        self.offsets[key] as usize..self.offsets[key + 1] as usize
    }

    /// Answer of `edges JOIN probe ON edge_source`.
    pub fn join_answer(&self, probe: &[Row]) -> Checksum {
        let mut c = Checksum::default();
        for p in probe {
            let pd = row_digest(p);
            for i in self.group(int(&p[0])) {
                c.add(join_digest(self.digests[i], pd));
            }
        }
        c
    }
}

/// Answers of SQ1–SQ4 and SQ7 for every person id.
pub struct LookupKey {
    person: Vec<u64>,
    /// Per-source slices of `edge_digests`, each sorted (SQ2's membership
    /// test: LIMIT may return any 10 of a person's edges).
    offsets: Vec<u32>,
    edge_digests: Vec<u64>,
    sq3: Vec<Checksum>,
    sq4: Vec<Checksum>,
    sq7: Vec<Checksum>,
}

impl LookupKey {
    pub fn build(persons: &[Row], edges: &[Row]) -> LookupKey {
        let n = persons.len();
        let person: Vec<u64> = persons.iter().map(|p| row_digest(p)).collect();
        let mut sq4 = vec![Checksum::default(); n];
        edges
            .iter()
            .for_each(|e| sq4[int(&e[0])].add(row_digest(&e[2..3])));
        let Graph {
            offsets,
            mut digests,
            dests,
        } = Graph::new(n, edges);
        let group = |k: usize| offsets[k] as usize..offsets[k + 1] as usize;
        let mut sq3 = vec![Checksum::default(); n];
        let mut sq7 = vec![Checksum::default(); n];
        for k in 0..n {
            for i in group(k) {
                let dest = dests[i] as usize;
                sq3[k].add(join_digest(digests[i], person[dest]));
                for j in group(dest) {
                    sq7[k].add(join_digest(digests[i], digests[j]));
                }
            }
        }
        for k in 0..n {
            digests[group(k)].sort_unstable();
        }
        LookupKey {
            person,
            offsets,
            edge_digests: digests,
            sq3,
            sq4,
            sq7,
        }
    }

    /// Whether `rows` is the correct answer of SQ`q` for person `id`.
    pub fn check(&self, q: usize, id: i64, rows: &[Row]) -> bool {
        let k = id as usize;
        match q {
            1 => rows.len() == 1 && row_digest(&rows[0]) == self.person[k],
            2 => {
                let own =
                    &self.edge_digests[self.offsets[k] as usize..self.offsets[k + 1] as usize];
                let mut got: Vec<u64> = rows.iter().map(|r| row_digest(r)).collect();
                got.sort_unstable();
                rows.len() == own.len().min(10) && is_sub_multiset(&got, own)
            }
            3 => Checksum::of_join(rows, EDGE_COLS) == self.sq3[k],
            4 => Checksum::of(rows) == self.sq4[k],
            7 => Checksum::of_join(rows, EDGE_COLS) == self.sq7[k],
            _ => false,
        }
    }
}

/// Both slices sorted: is every element of `small` matched by a distinct
/// element of `big`?
fn is_sub_multiset(small: &[u64], big: &[u64]) -> bool {
    let mut j = 0;
    for &x in small {
        while j < big.len() && big[j] < x {
            j += 1;
        }
        if j == big.len() || big[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

/// Whether `rows` is the answer of the probe join, given its checksum.
pub fn check_join(rows: &[Row], expect: Checksum) -> bool {
    Checksum::of_join(rows, EDGE_COLS) == expect
}

/// Checksum of `SELECT edge_dest, count(*) AS n … GROUP BY edge_dest`
/// over the edges passing `keep`.
fn dest_counts(persons: usize, edges: &[Row], keep: impl Fn(&Row) -> bool) -> Vec<i64> {
    let mut counts = vec![0i64; persons];
    for e in edges.iter().filter(|e| keep(e)) {
        counts[int(&e[1])] += 1;
    }
    counts
}

fn counts_checksum(counts: &[i64]) -> Checksum {
    let mut c = Checksum::default();
    for (d, &n) in counts.iter().enumerate().filter(|(_, &n)| n > 0) {
        c.add(row_digest(&[Value::Int64(d as i64), Value::Int64(n)]));
    }
    c
}

fn weight(e: &Row) -> f64 {
    match e[3] {
        Value::Float64(w) => w,
        _ => unreachable!("generated weight is Float64"),
    }
}

/// Answers of the `analytic` rotation: SQ5, SQ6 and the light-edge group-by.
pub fn analytic_answers(persons: usize, edges: &[Row]) -> [Checksum; 3] {
    let mut sq5 = Checksum::default();
    edges.iter().for_each(|e| sq5.add(row_digest(&e[1..4])));
    [
        sq5,
        counts_checksum(&dest_counts(persons, edges, |_| true)),
        counts_checksum(&dest_counts(persons, edges, |e| weight(e) < 0.1)),
    ]
}

/// The `ingest` answer key, advanced batch by batch as appends commit.
pub struct IngestKey {
    per_key: Vec<Checksum>,
    view_counts: Vec<i64>,
}

impl IngestKey {
    pub fn build(persons: usize, edges: &[Row]) -> IngestKey {
        let mut key = IngestKey {
            per_key: vec![Checksum::default(); persons],
            view_counts: vec![0; persons],
        };
        key.absorb(edges);
        key
    }

    pub fn absorb(&mut self, rows: &[Row]) {
        for e in rows {
            self.per_key[int(&e[0])].add(row_digest(e));
            if weight(e) < VIEW_WEIGHT_BELOW {
                self.view_counts[int(&e[1])] += 1;
            }
        }
    }

    /// Whether `rows` is every edge of `id` committed so far.
    pub fn check_read(&self, id: i64, rows: &[Row]) -> bool {
        Checksum::of(rows) == self.per_key[id as usize]
    }

    /// Whether `rows` is the standing view's correct content.
    pub fn check_view(&self, rows: &[Row]) -> bool {
        Checksum::of(rows) == counts_checksum(&self.view_counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{persons, EdgeGen, Stream};

    #[test]
    fn digest_sees_order_types_and_values() {
        let a = vec![Value::Int64(1), Value::Int64(2)];
        let b = vec![Value::Int64(2), Value::Int64(1)];
        let c = vec![Value::Int32(1), Value::Int64(2)];
        let d = vec![Value::Utf8("ab".into()), Value::Utf8("c".into())];
        let e = vec![Value::Utf8("a".into()), Value::Utf8("bc".into())];
        assert_ne!(row_digest(&a), row_digest(&b));
        assert_ne!(row_digest(&a), row_digest(&c));
        assert_ne!(row_digest(&d), row_digest(&e));
        assert_eq!(row_digest(&a), row_digest(&a.clone()));
    }

    #[test]
    fn checksum_is_order_independent_but_counts_duplicates() {
        let r = |x| vec![Value::Int64(x)];
        let x = [r(1), r(2), r(3)];
        let y = [r(3), r(1), r(2)];
        assert_eq!(Checksum::of(&x), Checksum::of(&y));
        assert_ne!(Checksum::of(&x), Checksum::of(&[r(1), r(2), r(3), r(3)]));
        assert_ne!(Checksum::of(&x), Checksum::of(&[r(1), r(2), r(4)]));
        let j = |a, b| vec![Value::Int64(a), Value::Int64(b)];
        assert_ne!(
            Checksum::of_join(&[j(1, 2)], 1),
            Checksum::of_join(&[j(2, 1)], 1),
            "a join digest keeps its sides in order"
        );
    }

    fn tiny() -> (Vec<Row>, Vec<Row>) {
        (
            persons(40, 5),
            EdgeGen::new(40, 5, Stream::Edges).edges(400),
        )
    }

    /// Rows SQ`q` must return, by brute force over the generated rows.
    fn naive(q: usize, id: i64, p: &[Row], e: &[Row]) -> Vec<Row> {
        let of = |k: Value| e.iter().filter(move |r| r[0] == k);
        let idv = Value::Int64(id);
        match q {
            1 => p.iter().filter(|r| r[0] == idv).cloned().collect(),
            3 => of(idv)
                .flat_map(|r| {
                    p.iter()
                        .filter(|x| x[0] == r[1])
                        .map(|x| [r.clone(), x.clone()].concat())
                })
                .collect(),
            4 => of(idv).map(|r| vec![r[2].clone()]).collect(),
            7 => of(idv)
                .flat_map(|r| of(r[1].clone()).map(|x| [r.clone(), x.clone()].concat()))
                .collect(),
            _ => unreachable!(),
        }
    }

    #[test]
    fn lookup_key_matches_brute_force() {
        let (p, e) = tiny();
        let key = LookupKey::build(&p, &e);
        for id in 0..40 {
            for q in [1, 3, 4, 7] {
                let mut rows = naive(q, id, &p, &e);
                assert!(key.check(q, id, &rows), "SQ{q} id {id}");
                rows.reverse();
                assert!(key.check(q, id, &rows), "SQ{q} order-free");
                if !rows.is_empty() {
                    rows.pop();
                    assert!(!key.check(q, id, &rows), "SQ{q} detects a lost row");
                }
            }
            let all: Vec<Row> = e
                .iter()
                .filter(|r| r[0] == Value::Int64(id))
                .cloned()
                .collect();
            let ten: Vec<Row> = all.iter().rev().take(10).cloned().collect();
            assert!(key.check(2, id, &ten), "SQ2 any 10 edges");
            if ten.len() >= 2 {
                let mut dup = ten.clone();
                dup[1] = dup[0].clone();
                assert!(!key.check(2, id, &dup), "SQ2 detects a repeated row");
            }
        }
    }

    #[test]
    fn join_and_analytic_answers_match_brute_force() {
        let (_, e) = tiny();
        let probe = vec![
            vec![Value::Int64(3), Value::Int64(9)],
            vec![Value::Int64(3), Value::Int64(1)],
            vec![Value::Int64(39), Value::Int64(0)],
        ];
        let mut expect = Vec::new();
        for pr in &probe {
            for r in e.iter().filter(|r| r[0] == pr[0]) {
                expect.push([r.clone(), pr.clone()].concat());
            }
        }
        let expect = Checksum::of_join(&expect, EDGE_COLS);
        assert_eq!(Graph::new(40, &e).join_answer(&probe), expect);
        assert!(check_join(&[], Checksum::default()));

        let [sq5, sq6, light] = analytic_answers(40, &e);
        let proj: Vec<Row> = e.iter().map(|r| r[1..4].to_vec()).collect();
        assert_eq!(sq5, Checksum::of(&proj));
        let group = |keep: &dyn Fn(&Row) -> bool| {
            let mut m = std::collections::BTreeMap::new();
            for r in e.iter().filter(|r| keep(r)) {
                *m.entry(r[1].as_i64().unwrap()).or_insert(0i64) += 1;
            }
            let rows: Vec<Row> = m
                .into_iter()
                .map(|(d, n)| vec![Value::Int64(d), Value::Int64(n)])
                .collect();
            Checksum::of(&rows)
        };
        assert_eq!(sq6, group(&|_| true));
        assert_eq!(light, group(&|r| weight(r) < 0.1));
    }

    #[test]
    fn ingest_key_tracks_appends() {
        let (_, e) = tiny();
        let (base, batch) = e.split_at(300);
        let mut key = IngestKey::build(40, base);
        key.absorb(batch);
        for id in 0..40 {
            let rows: Vec<Row> = e
                .iter()
                .filter(|r| r[0] == Value::Int64(id))
                .cloned()
                .collect();
            assert!(key.check_read(id, &rows));
            let stale: Vec<Row> = base
                .iter()
                .filter(|r| r[0] == Value::Int64(id))
                .cloned()
                .collect();
            if stale.len() != rows.len() {
                assert!(!key.check_read(id, &stale), "a stale read is caught");
            }
        }
        let mut m = std::collections::BTreeMap::new();
        for r in e.iter().filter(|r| weight(r) < VIEW_WEIGHT_BELOW) {
            *m.entry(r[1].as_i64().unwrap()).or_insert(0i64) += 1;
        }
        let view: Vec<Row> = m
            .into_iter()
            .map(|(d, n)| vec![Value::Int64(d), Value::Int64(n)])
            .collect();
        assert!(key.check_view(&view));
        assert!(!key.check_view(&view[1..]));
    }
}
