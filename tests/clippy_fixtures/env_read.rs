//! `env-read`: the reads of the audit's old `env_read.rs` fixture plus the
//! rest of the banned family, and its exemptions.

use std::env;

pub fn direct() -> bool {
    std::env::var_os("SNBC_X").is_some()
}

pub fn through_module_import() -> bool {
    env::var("SNBC_X").is_ok()
}

pub fn through_renamed_import() -> bool {
    use std::env::var as read;
    read("SNBC_X").is_ok()
}

pub fn whole_environment() -> usize {
    std::env::vars().count() + std::env::vars_os().count()
}

pub fn env_macro_is_fine() -> &'static str {
    env!("CARGO_PKG_NAME")
}

pub fn local_fn_named_var_is_fine() -> u32 {
    var(3)
}

fn var(x: u32) -> u32 {
    x
}

#[expect(clippy::disallowed_methods, reason = "a reviewed exception is silent")]
pub fn reviewed() -> bool {
    std::env::var("SNBC_DEBUG").is_ok()
}
