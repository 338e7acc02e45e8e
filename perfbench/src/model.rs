//! The cell model every recovered state is checked against.
//!
//! The model replays acknowledged operations in LSN order through
//! [`PageOp::output`] over a plain cell map — no pages, no log, no
//! cache. A recovery is correct when its served state equals the model
//! of the durable prefix exactly (no acknowledged write missing, no
//! write invented), and a served read is correct when it returns the
//! model's value for its cell.

use std::collections::BTreeMap;

use redo_methods::oprecord::PageOpPayload;
use redo_sim::db::Db;
use redo_theory::state::{State, Value};
use redo_workload::pages::{Cell, PageOp};

/// A cell map built by replaying operations in order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Model {
    cells: BTreeMap<Cell, u64>,
}

impl Model {
    /// Replays `ops` (already in LSN order).
    pub fn replay<'a>(ops: impl IntoIterator<Item = &'a PageOp>) -> Model {
        let mut m = Model::default();
        for op in ops {
            m.apply(op);
        }
        m
    }

    /// Applies one operation.
    pub fn apply(&mut self, op: &PageOp) {
        let reads: Vec<u64> = op.reads.iter().map(|c| self.get(*c)).collect();
        for &w in &op.writes {
            self.cells.insert(w, op.output(w, &reads));
        }
    }

    /// The model's value of `cell` (0 if never written).
    pub fn get(&self, cell: Cell) -> u64 {
        self.cells.get(&cell).copied().unwrap_or(0)
    }

    /// Every written cell, in order.
    pub fn cells(&self) -> impl Iterator<Item = (Cell, u64)> + '_ {
        self.cells.iter().map(|(&c, &v)| (c, v))
    }

    /// The model projected into a theory state, comparable with
    /// [`Db::volatile_theory_state`].
    pub fn state(&self, slots_per_page: u16) -> State {
        let mut s = State::zeroed();
        for (&c, &v) in &self.cells {
            s.set(c.var(slots_per_page), Value(v));
        }
        s
    }
}

/// Checks a fully recovered database against the model: its served
/// (cache over disk) state must equal the model state exactly.
pub fn check_state(db: &Db<PageOpPayload>, expected: &State) -> Result<(), String> {
    if db.disk.lost_pages().is_empty() && &db.volatile_theory_state() == expected {
        return Ok(());
    }
    if let Some(p) = db.disk.lost_pages().first() {
        return Err(format!("page {p:?} still lost after recovery"));
    }
    Err("recovered state differs from the model".to_string())
}

/// Checks one served read against the model.
pub fn check_read(cell: Cell, served: u64, model: &Model) -> Result<(), String> {
    let want = model.get(cell);
    if served == want {
        Ok(())
    } else {
        Err(format!(
            "read of {cell:?} served {served:#x}, model has {want:#x}"
        ))
    }
}
