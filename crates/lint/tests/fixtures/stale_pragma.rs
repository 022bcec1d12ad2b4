// relia-lint: allow(float-eq)
pub fn fixed() -> u32 {
    7
}
