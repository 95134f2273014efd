//! The direct-replay output check: the state-changing ops of an epoch,
//! applied through plain `Database` calls to a copy of the epoch's start
//! state, must give exactly the state the engine reached.

use fdb_core::Database;
use fdb_types::{Result, Value};

use crate::gen::{Op, TEACH};

/// Applies one op through direct `Database` calls. Reads are no-ops.
pub fn apply_direct(db: &mut Database, op: &Op) -> Result<()> {
    match op {
        Op::Truth { .. } | Op::Image { .. } => Ok(()),
        Op::Write {
            insert,
            function,
            x,
            y,
        } => {
            let f = db.resolve(function)?;
            let (x, y) = (Value::atom(x), Value::atom(y));
            if *insert {
                db.insert(f, x, y)
            } else {
                db.delete(f, &x, &y)
            }
        }
        Op::Txn {
            delete,
            insert,
            commit,
        } => {
            let pupil = db.resolve(crate::gen::PUPIL)?;
            let teach = db.resolve(TEACH)?;
            db.txn_begin()?;
            db.delete(pupil, &Value::atom(&delete.0), &Value::atom(&delete.1))?;
            db.txn_savepoint("s")?;
            db.insert(teach, Value::atom(&insert.0), Value::atom(&insert.1))?;
            db.txn_rollback_to("s")?;
            if *commit {
                db.txn_commit()
            } else {
                db.txn_rollback()
            }
        }
    }
}

/// Replays `ops` onto a copy of `start` and compares the resulting
/// snapshot with `observed`'s. `Err` carries the first difference.
pub fn check_replay(
    start: &Database,
    ops: &[Op],
    observed: &Database,
) -> std::result::Result<(), String> {
    let mut db = start.clone();
    for (i, op) in ops.iter().enumerate() {
        apply_direct(&mut db, op).map_err(|e| format!("direct replay of op {i} failed: {e}"))?;
    }
    let want = db.to_snapshot().map_err(|e| e.to_string())?;
    let got = observed.to_snapshot().map_err(|e| e.to_string())?;
    if want == got {
        return Ok(());
    }
    let at = want
        .bytes()
        .zip(got.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(want.len().min(got.len()));
    let lo = at.saturating_sub(60);
    let around = |s: &str| s.get(lo..(at + 60).min(s.len())).unwrap_or("").to_owned();
    Err(format!(
        "engine state differs from direct replay at byte {at}: replay `{}` engine `{}`",
        around(&want),
        around(&got)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{build_instance, CLASS_LIST, PUPIL, SMALL};
    use fdb_lang::Engine;

    fn ops() -> Vec<Op> {
        vec![
            Op::Write {
                insert: false,
                function: PUPIL,
                x: "prof1".into(),
                y: "student3".into(),
            },
            Op::Write {
                insert: true,
                function: PUPIL,
                x: "prof2".into(),
                y: "student9".into(),
            },
            Op::Txn {
                delete: ("prof0".into(), "student1".into()),
                insert: ("prof4".into(), "course2".into()),
                commit: true,
            },
            Op::Write {
                insert: true,
                function: CLASS_LIST,
                x: "course1".into(),
                y: "student_fresh".into(),
            },
        ]
    }

    fn engine_after(start: &Database, ops: &[Op]) -> Engine {
        let mut engine = Engine::with_database(start.clone());
        for op in ops {
            for stmt in op.statements() {
                engine.execute_line(&stmt).unwrap();
            }
        }
        engine
    }

    #[test]
    fn replay_agrees_with_the_engine() {
        let start = build_instance(5, SMALL).unwrap();
        let engine = engine_after(&start, &ops());
        assert_eq!(check_replay(&start, &ops(), engine.database()), Ok(()));
    }

    #[test]
    fn replay_catches_a_planted_mismatch() {
        let start = build_instance(5, SMALL).unwrap();
        let mut engine = engine_after(&start, &ops());
        // One statement the replay does not know about.
        engine
            .execute_line("INSERT teach(prof_planted, course0)")
            .unwrap();
        let err = check_replay(&start, &ops(), engine.database()).unwrap_err();
        assert!(err.contains("differs"), "{err}");

        // And a replay stream that lost its last op.
        let engine = engine_after(&start, &ops());
        assert!(check_replay(&start, &ops()[..3], engine.database()).is_err());
    }
}
