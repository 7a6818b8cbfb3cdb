//! `swallowed-result`: the five discards of the audit's old
//! `swallowed_result.rs` fixture, and its exemptions.

pub fn let_underscore(r: Result<u32, String>) {
    let _ = r;
}

pub fn bare_ok(r: Result<u32, String>) {
    r.ok();
}

pub fn named_discard(r: Result<u32, String>) {
    let _unused = r;
}

pub fn dead_call_binding() {
    let status = solve_step();
}

pub fn dead_rebind(r: Result<u32, String>) {
    let first = r;
    let second = first;
}

pub fn bound_ok_is_fine(r: Result<u32, String>) -> Option<u32> {
    let v = r.ok();
    v.map(|x| x + 1)
}

pub fn returned_ok_is_fine(r: Result<u32, String>) -> Option<u32> {
    r.ok()
}

pub fn question_mark_is_fine() -> Result<u32, String> {
    let v = solve_step()?;
    Ok(v + 1)
}

pub fn used_later_is_fine() -> Result<u32, String> {
    let status = solve_step();
    status.map(|v| v + 1)
}

fn solve_step() -> Result<u32, String> {
    Ok(1)
}
