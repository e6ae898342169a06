//! Spans recorded by the benchmark around its calls into each layer: name,
//! start, end, the span that caused it, and the solve they belong to. Kept
//! in memory, written as JSONL when the run ends. One recorder per thread
//! that records (a rank of the distributed workload owns its own).

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub solve: u32,
}

pub struct Spans {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
    solve: Cell<u32>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    rec: &'a Spans,
    id: u32,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = self.rec.epoch.elapsed().as_nanos() as u64;
        self.rec.spans.borrow_mut()[self.id as usize].end_ns = end;
        let top = self.rec.open.borrow_mut().pop();
        debug_assert_eq!(top, Some(self.id), "spans must close innermost first");
    }
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            solve: Cell::new(0),
        }
    }

    /// Spans entered from now on belong to solve `id`.
    pub fn set_solve(&self, id: u32) {
        self.solve.set(id);
    }

    pub fn enter(&self, name: &'static str) -> Guard<'_> {
        let mut spans = self.spans.borrow_mut();
        let id = spans.len() as u32;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.borrow().last().copied(),
            solve: self.solve.get(),
        });
        self.open.borrow_mut().push(id);
        Guard { rec: self, id }
    }

    pub fn into_vec(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Seconds of solve `solve` spent in spans called `name`.
pub fn total_s(spans: &[Span], solve: u32, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.solve == solve && s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .fold(0.0, |total, s| total + s)
}

/// The Table III split of one solve: the `solve` span is the parent; `A`,
/// `M` and `global_sum` are its (possibly indirect) children and never
/// nest in each other; what they leave uncovered is the outer solver's
/// self time, Gram-Schmidt plus everything else.
#[derive(Copy, Clone, Debug, Default)]
pub struct Split {
    pub solve_s: f64,
    pub a_s: f64,
    pub m_s: f64,
    pub sums_s: f64,
    pub self_s: f64,
}

pub fn split(spans: &[Span], solve: u32) -> Split {
    let solve_s = total_s(spans, solve, "solve");
    let a_s = total_s(spans, solve, "A");
    let m_s = total_s(spans, solve, "M");
    let sums_s = total_s(spans, solve, "global_sum");
    Split { solve_s, a_s, m_s, sums_s, self_s: solve_s - a_s - m_s - sums_s }
}

pub fn write_jsonl(path: &std::path::Path, lanes: &[(u32, Vec<Span>)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (lane, spans) in lanes {
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"lane\": {lane}, \"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"solve\": {}}}",
                s.name, s.start_ns, s.end_ns, s.solve
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_parent_minus_children() {
        let rec = Spans::new(Instant::now());
        rec.set_solve(3);
        {
            let _solve = rec.enter("solve");
            {
                let _a = rec.enter("A");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            {
                let _m = rec.enter("M");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let spans = rec.into_vec();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let s = split(&spans, 3);
        assert!(s.a_s >= 0.002 && s.m_s >= 0.002 && s.self_s >= 0.002);
        assert!((s.a_s + s.m_s + s.sums_s + s.self_s - s.solve_s).abs() < 1e-12);
        assert_eq!(split(&spans, 4).solve_s, 0.0);
    }
}
