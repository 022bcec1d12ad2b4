// relia-lint: allow(not-a-rule)
// relia-lint: allow float-eq
pub fn f() -> u32 {
    7
}
